import json

import pytest

from rdblowup.cli import (
    EXIT_CONFIG,
    EXIT_FAILED,
    EXIT_OK,
    Experiment,
    main,
)
from rdblowup.errors import ConfigError

BLOWUP_BOX = """\
[domain]
kind = box
dimension = 2
half_extents = 1 1
cells_per_axis = 8

[nonlinearity]
family = power_product
c = 1.0
a_exp = 2
b_exp = 2

[initial_data]
kind = constant
c1 = 1.0
c2 = 1.0

[hypothesis]
alpha = 1.0

[solver]
t_end = 1.0
"""

BALL_LOWER = """\
[domain]
kind = ball
dimension = 3
radius = 1.0

[nonlinearity]
family = power_product
c = 1.0
a_exp = 2
b_exp = 2

[initial_data]
c1 = 1.0
c2 = 1.0

[hypothesis]
p = 2
k1 = 2
k2 = 2
mode = A2prime
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(command, cfg, out):
    return main([command, "--config", cfg, "--out-dir", str(out)])


def load_report(out):
    return json.loads((out / "report.json").read_text())


class TestCheck:
    def test_passing_hypotheses_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        assert run("check", cfg, out) == EXIT_OK
        report = load_report(out)
        assert report["command"] == "check"
        assert all(h["holds"] for h in report["hypotheses"].values())

    def test_h1_failure_exit_one(self, tmp_path):
        # alpha = 1.6 breaks H1 for F = u^2 v^3
        text = BLOWUP_BOX.replace("b_exp = 2", "b_exp = 3") \
                         .replace("alpha = 1.0", "alpha = 1.6")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run("check", cfg, out) == EXIT_FAILED
        report = load_report(out)
        assert not report["hypotheses"]["H1"]["holds"]

    def test_absorption_classification_in_report(self, tmp_path):
        text = """\
[domain]
kind = box
dimension = 2
half_extents = 1 1
cells_per_axis = 8

[nonlinearity]
family = absorption
p = 3
q = 3
r = 2
s = 2
a = 1.0
b = 1.0
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run("check", cfg, out) == EXIT_OK
        report = load_report(out)
        assert "absorption_classification" in report


class TestBounds:
    def test_upper_bound_report(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        assert run("bounds", cfg, out) == EXIT_OK
        report = load_report(out)
        assert report["upper_bound"]["t_upper"] == pytest.approx(0.25, abs=1e-9)

    def test_lower_bound_ball_report(self, tmp_path):
        cfg = write_config(tmp_path, BALL_LOWER)
        out = tmp_path / "out"
        assert run("bounds", cfg, out) == EXIT_OK
        report = load_report(out)
        lb = report["lower_bound"]
        assert 0.0 < lb["t_lower"] < 0.25
        assert lb["smooth_boundary_caveat"] is None

    def test_lower_bound_2d_domain_fails(self, tmp_path):
        text = BLOWUP_BOX.replace("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run("bounds", cfg, out) == EXIT_FAILED
        report = load_report(out)
        assert report["lower_bound"]["error"]["type"] == "DimensionNot3"

    def test_negative_J0_reported_as_error(self, tmp_path):
        text = BLOWUP_BOX.replace("b_exp = 2", "b_exp = 3") \
                         .replace("alpha = 1.0", "alpha = 1.5") \
            + "\n[robin]\ngamma1 = 1.0\ngamma2 = 1.0\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run("bounds", cfg, out) == EXIT_FAILED
        report = load_report(out)
        assert report["upper_bound"]["error"]["type"] == "NonpositiveJ0"


class TestSimulate:
    def test_blowup_run_writes_all_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == EXIT_OK
        assert (out / "report.json").exists()
        assert (out / "trace.csv").exists()
        assert (out / "plot.dat").exists()
        report = load_report(out)
        sim = report["simulation"]
        assert sim["outcome"] == "blowup_detected"
        assert sim["blowup_estimate"]["t"] == pytest.approx(0.25, abs=1e-3)

    def test_trace_csv_has_header_and_rows(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        run("simulate", cfg, out)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("t,E,J,")
        assert len(lines) > 10

    def test_reports_are_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        run("simulate", cfg, out1)
        run("simulate", cfg, out2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestSandwich:
    def test_full_sandwich_with_oracle(self, tmp_path):
        # Neumann walls and constant data: the oracle applies, and the
        # simulated blow-up time must sit at the upper bound (exact case)
        text = BLOWUP_BOX.replace(
            "alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2"
        ).replace("dimension = 2", "dimension = 3") \
         .replace("half_extents = 1 1", "half_extents = 1 1 1")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run("sandwich", cfg, out) == EXIT_OK
        report = load_report(out)
        assert report["sandwich"]["partial"] is False
        assert report["oracle"]["blowup_time"][0] == pytest.approx(0.25, abs=1e-6)
        est = report["simulation"]["blowup_estimate"]["t"]
        assert est == pytest.approx(0.25, abs=1e-3)
        assert report["lower_bound"]["t_lower"] < est <= \
            report["upper_bound"]["t_upper"] + 1e-3

    def test_partial_sandwich_without_lower_params(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        assert run("sandwich", cfg, out) == EXIT_OK
        report = load_report(out)
        assert report["sandwich"]["partial"] is True


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        out = tmp_path / "out"
        assert run("check", str(tmp_path / "nope.ini"), out) == EXIT_CONFIG

    def test_malformed_config(self, tmp_path):
        cfg = write_config(tmp_path, "[domain]\nkind = box\n")  # no dimension
        out = tmp_path / "out"
        assert run("check", cfg, out) == EXIT_CONFIG

    def test_experiment_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[domain]\nkind = box\ndimension = 2\n")
        with pytest.raises(ConfigError):
            Experiment(str(path))

    @pytest.mark.parametrize("command, edit", [
        ("check", ("kind = constant", "kind = bogus")),
        ("check", ("a_exp = 2\n", "")),
        ("check", ("b_exp = 2\n", "")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nsample_stride = 0")),
        ("simulate", ("t_end = 1.0", "t_end = 0.0")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2\nmode = bogus")),
        ("bounds", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2\nmode = bogus")),
        ("check", ("alpha = 1.0", "alpha = 1.0\nsamples_per_axis = 0")),
        ("check", ("alpha = 1.0", "alpha = 1.0\nbox_min = 0")),
    ], ids=["unknown_initial_kind", "power_product_without_a_exp",
            "power_product_without_b_exp", "sample_stride_zero", "t_end_zero",
            "check_unknown_mode", "bounds_unknown_mode", "samples_per_axis_zero",
            "box_min_zero"])
    def test_rejected_config_exits_two_without_traceback(self, tmp_path, capsys,
                                                         command, edit):
        assert edit[0] in BLOWUP_BOX
        cfg = write_config(tmp_path, BLOWUP_BOX.replace(*edit))
        assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err


class TestResolutionOverride:
    def test_resolution_flag(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out-dir", str(out),
                     "--resolution", "4"])
        assert code == EXIT_OK


class TestOutputDirectory:
    def test_config_directory_used_and_config_parsed_once(self, tmp_path, monkeypatch):
        import rdblowup.cli as cli

        builds = []

        class CountingExperiment(cli.Experiment):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "Experiment", CountingExperiment)
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, BLOWUP_BOX + f"\n[outputs]\ndirectory = {out}\n")
        assert main(["check", "--config", cfg]) == EXIT_OK
        assert (out / "report.json").exists()
        assert len(builds) == 1


class TestMultiConfig:
    def test_jobs_run_both_configs(self, tmp_path):
        cfg1 = write_config(tmp_path, BLOWUP_BOX, "a.ini")
        cfg2 = write_config(tmp_path, BALL_LOWER, "b.ini")
        out = tmp_path / "out"
        code = main(["bounds", "--config", cfg1, cfg2,
                     "--out-dir", str(out), "--jobs", "2"])
        assert code == EXIT_OK
        assert (out / "a" / "report.json").exists()
        assert (out / "b" / "report.json").exists()
