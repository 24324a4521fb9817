import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdblowup.cli import (
    EXIT_CONFIG,
    EXIT_FAILED,
    EXIT_NUMERICAL,
    EXIT_OK,
    Experiment,
    main,
)
import rdblowup.cli
from rdblowup.errors import ConfigError
from rdblowup.functionals import TRACE_COLUMNS
from rdblowup.oracle import _MAX_STEPS
from rdblowup.solver import simulate

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
SRC = DEMO_CONFIGS.parent.parent / "src"

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


# F = u^4 e^{-v/u} (alpha 1, h = exp_decay): f1 = u^3 e^{-w} (4 + w) <= 4 u^3,
# w = v/u, and f2 = -u^3 e^{-w} <= 0, so A2 and A3 hold at p = 2, k = 4
EXP_DECAY_BALL = BALL_LOWER.replace(
    "family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
    "family = gradient_homogeneous\nalpha = 1\nh = exp_decay").replace(
    "k1 = 2\nk2 = 2\nmode = A2prime", "k1 = 4\nk2 = 4\nmode = A2A3")


class TestBounds:
    @pytest.mark.parametrize("command", ["check", "bounds"])
    def test_a2a3_mode_checks_a2_and_a3(self, tmp_path, command):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, EXP_DECAY_BALL), out) == EXIT_OK
        report = load_report(out)
        reports = (report["hypotheses"].values() if command == "check"
                   else report["lower_bound"]["hypothesis_reports"])
        assert [(r["hypothesis"], r["holds"]) for r in reports] == [("A2", True), ("A3", True)]

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
        assert not (out / "plot.dat").exists()  # trace.csv is the only trace file
        report = load_report(out)
        sim = report["simulation"]
        assert sim["outcome"] == "blowup_detected"
        assert sim["blowup_estimate"]["t"] == pytest.approx(0.25, abs=1e-3)
        by_pair = sim["steps_by_pair"]
        assert sorted(by_pair) == ["dp5", "lawson_bs3"]
        assert sum(c["accepted"] for c in by_pair.values()) == sim["n_steps"]
        assert sum(c["rejected"] for c in by_pair.values()) == sim["n_rejected"]

    def test_trace_csv_has_header_and_rows(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        run("simulate", cfg, out)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("t,E,J,")
        assert len(lines) > 10

    @pytest.mark.parametrize("config", ["absorption_threshold", "sandwich_box3d"])
    def test_trace_csv_is_the_csv_writer_rendering(self, tmp_path, monkeypatch, config):
        # trace.csv is built as one string; its bytes are those csv.writer
        # writes for the run's rows: a column with no value (J and int F of
        # the absorption family) as nan, \r\n after every line
        traces = []

        def kept(solver_config):
            traces.append(simulate(solver_config))
            return traces[-1]

        monkeypatch.setattr(rdblowup.cli, "simulate", kept)
        out = tmp_path / "out"
        assert run("simulate", str(DEMO_CONFIGS / f"{config}.ini"), out) == EXIT_OK
        samples = traces[0].samples
        if config == "absorption_threshold":
            assert all(s.J is None and s.intF is None for s in samples)
        reference = io.StringIO()
        writer = csv.writer(reference)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(s.row() for s in samples)
        assert (out / "trace.csv").read_bytes() == reference.getvalue().encode()

    def test_reports_are_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        run("simulate", cfg, out1)
        run("simulate", cfg, out2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


    def test_report_names_the_folded_axes(self, tmp_path):
        # flat data under Robin walls fold each axis with an even cell count;
        # 7 cells fold none, and nothing collapses
        cfg = write_config(tmp_path, BLOWUP_BOX.replace("cells_per_axis = 8",
                                                        "cells_per_axis = 8 7")
                           + "\n[robin]\ngamma1 = 1.0\ngamma2 = 1.0\n")
        for argv, axes in (([], [0]), (["--resolution", "8"], [0, 1]),
                           (["--resolution", "7"], [])):
            out = tmp_path / f"out{len(axes)}"
            assert main(["simulate", "--config", cfg, "--out-dir", str(out), *argv]) == EXIT_OK
            simulation = load_report(out)["simulation"]
            assert simulation["mirror_axes"] == axes and simulation["collapsed_axes"] == []

    def test_report_names_the_collapsed_axes(self, tmp_path):
        # flat data under Neumann walls collapse every axis, at any cell
        # count, and leave none to fold
        cfg = write_config(tmp_path, BLOWUP_BOX.replace("cells_per_axis = 8",
                                                        "cells_per_axis = 8 7"))
        for argv in ([], ["--resolution", "7"]):
            out = tmp_path / f"out{len(argv)}"
            assert main(["simulate", "--config", cfg, "--out-dir", str(out), *argv]) == EXIT_OK
            simulation = load_report(out)["simulation"]
            assert simulation["collapsed_axes"] == [0, 1] and simulation["mirror_axes"] == []


# the paper's equality family F = c u^6 h(v/u) (alpha 2, c 1, h constant)
# from a bump g1 = 1 + 2 e^{-|x|^2 / (2 * 0.35^2)}, g2 = 0.5
HOMOGENEOUS_BUMP = """\
[domain]
kind = box
dimension = 2
half_extents = 1 1
cells_per_axis = 8

[nonlinearity]
family = gradient_homogeneous
alpha = 2
h = constant

[initial_data]
kind = gaussian
c1 = 1.0
amplitude = 2
width = 0.35
c2 = 0.5

[solver]
t_end = 2
"""


class TestStageOutsideTheDomain:
    # DP5 trial stages from the bump leave u > 0, N's domain; each such
    # trial is rejected, and the fast blow-up's steps underflow: exit 3
    # with the report written, not a numerical failure with none
    @pytest.mark.parametrize("command", ["simulate", "sandwich"])
    def test_ends_in_step_underflow_with_a_report(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, HOMOGENEOUS_BUMP), out) == EXIT_NUMERICAL
        assert load_report(out)["simulation"]["outcome"] == "step_underflow"
        assert (out / "trace.csv").exists()
        assert "EvalAtZeroU" not in capsys.readouterr().err


class TestRobinCoefficientPastFloatRange:
    # gamma * h_a overflows along the wide axis: the ghost factor takes its
    # limit -1, so the simulation runs, while H2's samples of gamma u^2 on
    # the boundary are not finite
    @pytest.mark.parametrize("command, expected", [
        ("simulate", EXIT_OK), ("check", EXIT_NUMERICAL), ("sandwich", EXIT_NUMERICAL)])
    def test_exit_codes(self, tmp_path, capsys, command, expected):
        text = BLOWUP_BOX.replace("half_extents = 1 1", "half_extents = 1e150 1") \
            + "\n[robin]\ngamma1 = 1e200\ngamma2 = 1e200\n"
        assert run(command, write_config(tmp_path, text), tmp_path / "out") == expected
        assert "Traceback" not in capsys.readouterr().err

    def test_monitors_count_nonfinite_rows_and_check_none(self, tmp_path):
        # gamma times the boundary integral overflows, so J is -inf on every
        # row: no row may be counted as J-monotone
        text = BLOWUP_BOX.replace("half_extents = 1 1", "half_extents = 1e150 1") \
            + "\n[robin]\ngamma1 = 1e200\ngamma2 = 1e200\n"
        out = tmp_path / "out"
        assert run("simulate", write_config(tmp_path, text), out) == EXIT_OK
        monitors = load_report(out)["simulation"]["monitors"]
        assert monitors["nonfinite_rows"] == 114
        assert monitors["n_checked"] == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 114


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

    @pytest.mark.parametrize("shift, expected", [(-1e-2, EXIT_FAILED), (-5e-4, EXIT_OK)])
    def test_estimate_compared_with_the_oracle(self, tmp_path, monkeypatch, shift, expected):
        # flat data under Neumann walls: the oracle's blow-up time 1/4 is
        # exact, and an estimate shifted past the verdict's tol of 1e-3 (plus
        # the oracle's uncertainty) from it fails the sandwich
        def shifted(config):
            trace = simulate(config)
            est = trace.blowup_estimate
            return dataclasses.replace(
                trace, blowup_estimate=dataclasses.replace(est, t=est.t + shift))

        monkeypatch.setattr(rdblowup.cli, "simulate", shifted)
        out = tmp_path / "out"
        assert run("sandwich", write_config(tmp_path, BLOWUP_BOX), out) == expected
        report = load_report(out)
        assert report["oracle"]["blowup_time"][0] == pytest.approx(0.25, abs=1e-9)
        assert report["simulation"]["blowup_estimate"]["t"] == pytest.approx(0.25 + shift,
                                                                             abs=1e-8)
        assert report["sandwich"].get("oracle_violated", False) == (expected == EXIT_FAILED)
        assert "upper_violated" not in report["sandwich"]

    def test_oracle_finds_the_fast_blowup_of_u4v4(self, tmp_path):
        # F = u^4 v^4 from (1, 1): u' = 4 u^7, so u^-6 = 1 - 24 t and the
        # oracle's blow-up time is 1/24.  The simulation's steps underflow
        # before the sup-norm reaches the fallback's level: exit 3, as
        # `simulate` exits, with the report written
        text = BLOWUP_BOX.replace("a_exp = 2\nb_exp = 2", "a_exp = 4\nb_exp = 4")
        out = tmp_path / "out"
        code = main(["sandwich", "--config", write_config(tmp_path, text),
                     "--out-dir", str(out), "--resolution", "8"])
        assert code == EXIT_NUMERICAL
        report = load_report(out)
        assert report["simulation"]["outcome"] == "step_underflow"
        t, unc = report["oracle"]["blowup_time"]
        assert t == pytest.approx(1 / 24, rel=2e-13)
        assert abs(t - 1 / 24) <= unc

    @pytest.mark.parametrize("t_est, violated", [(2.0, "upper_violated"),
                                                 (-1.0, "lower_violated")])
    def test_estimate_outside_a_bound_fails(self, tmp_path, monkeypatch, t_est, violated):
        # t_upper is 1/4 and t_lower below it: an estimate far past one
        # bound violates it alone, and the oracle's 1/4 too
        def moved(config):
            trace = simulate(config)
            return dataclasses.replace(trace, blowup_estimate=dataclasses.replace(
                trace.blowup_estimate, t=t_est, uncertainty=0.0))

        monkeypatch.setattr(rdblowup.cli, "simulate", moved)
        text = BLOWUP_BOX.replace("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text.replace(*BOX_3D[:2]).replace(*BOX_3D[2:]))
        assert run("sandwich", cfg, out) == EXIT_FAILED
        assert load_report(out)["sandwich"] == {"partial": False, violated: True,
                                                "oracle_violated": True}

    @pytest.mark.parametrize("amplitude, collapsed", [(0.0, True), (0.5, False)])
    def test_oracle_runs_exactly_when_the_run_collapsed(self, tmp_path, amplitude, collapsed):
        # a gaussian of amplitude 0 is c1 in every cell, so the run collapses
        # and the ODE from its kept cell is the PDE; a bump does not collapse
        text = BLOWUP_BOX.replace("kind = constant", f"kind = gaussian\namplitude = {amplitude}")
        out = tmp_path / "out"
        assert run("sandwich", write_config(tmp_path, text), out) == EXIT_OK
        report = load_report(out)
        assert (report["simulation"]["collapsed_axes"] == [0, 1]) is collapsed
        assert ("oracle" in report) is collapsed
        if collapsed:
            assert report["oracle"]["blowup_time"][0] == pytest.approx(0.25, abs=1e-9)

    def test_partial_sandwich_without_lower_params(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        assert run("sandwich", cfg, out) == EXIT_OK
        report = load_report(out)
        assert report["sandwich"]["partial"] is True


NEGATIVE_C1 = ("c1 = 1.0", "c1 = -1.0")
# (old, new) edits of BLOWUP_BOX: the same box in 3D, the unit ball, and the
# gradient_homogeneous family F = c u^4 h(v/u) (alpha 1, h constant by default)
BOX_3D = ("dimension = 2", "dimension = 3", "half_extents = 1 1", "half_extents = 1 1 1")
BALL = ("half_extents = 1 1\ncells_per_axis = 8", "radius = 1", "dimension = 2", "dimension = 3",
        "kind = box", "kind = ball")
GRADIENT_HOMOGENEOUS = ("family = power_product", "family = gradient_homogeneous",
                        "a_exp = 2\nb_exp = 2", "alpha = 1")
VANISHING = ("c1 = 1.0\nc2 = 1.0", "c1 = 0.0\nc2 = 0.0")


class TestInadmissibleData:
    # negative or vanishing data fail the bounds' hypotheses: a report and
    # exit 1 (a partial sandwich, which still simulates), not a numerical failure
    @pytest.mark.parametrize("command, base, edit, expected, block", [
        ("check", BLOWUP_BOX, NEGATIVE_C1, EXIT_FAILED, "H2_H3"),
        ("bounds", BLOWUP_BOX, NEGATIVE_C1, EXIT_FAILED, "upper_bound"),
        ("sandwich", BLOWUP_BOX, NEGATIVE_C1, EXIT_OK, "upper_bound"),
        ("check", BLOWUP_BOX, VANISHING, EXIT_FAILED, "H2_H3"),
        ("bounds", BALL_LOWER, NEGATIVE_C1, EXIT_FAILED, "lower_bound"),
    ], ids=["check_negative", "bounds_negative", "sandwich_negative",
            "check_vanishing", "bounds_ball_negative"])
    def test_reported_as_hypothesis_failure(self, tmp_path, command, base, edit,
                                            expected, block):
        assert edit[0] in base
        cfg = write_config(tmp_path, base.replace(*edit))
        out = tmp_path / "out"
        assert run(command, cfg, out) == expected
        report = load_report(out)
        assert report[block]["error"]["type"] == "NegativeInitialData"
        if command == "sandwich":
            assert report["sandwich"]["partial"] is True
            assert report["simulation"]["outcome"] == "blowup_detected"


# the flat 8^3 box under F = u^2 v^2, with both bounds' parameters
FLAT_CUBE = BLOWUP_BOX.replace(*BOX_3D[:2]).replace(*BOX_3D[2:]).replace(
    "alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 3\nk2 = 3")
# (old, new) edits of FLAT_CUBE whose beta underflows to 0 or whose K1 or K2
# overflows, each with `sandwich`'s exit code
PAST_FLOAT_RANGE = [
    (("\np = 2\n", "\np = 1e160\n"), EXIT_NUMERICAL),
    (("k1 = 3\nk2 = 3", "k1 = 1e308\nk2 = 1e308"), EXIT_OK),
    (("k1 = 3\nk2 = 3", "k1 = 1e300\nk2 = 1e300"), EXIT_OK),
    (("half_extents = 1 1 1", "half_extents = 1e-300 1 1"), EXIT_CONFIG),
    (("half_extents = 1 1 1", "half_extents = 1e150 1 1"), EXIT_OK),
]
PAST_FLOAT_RANGE_IDS = ["p1e160", "k1e308", "k1e300", "rho1e-300", "d1e150"]


# edits of FLAT_CUBE on which the ODE oracle's steps creep
CREEPING_ORACLE = [
    [("a_exp = 2\nb_exp = 2", "a_exp = 1e160\nb_exp = 1e160")],
    [("family = power_product", "family = gradient_homogeneous"),
     ("a_exp = 2\nb_exp = 2", "alpha = 1e300"), ("c2 = 1.0", "c2 = 0.5")],
    [("family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
      "family = absorption\np = 3\nq = 3\nr = 3\ns = 3\na = 1e300\nb = 0.01"),
     ("c1 = 1.0\nc2 = 1.0", "c1 = 2.0\nc2 = 2.0")],
]
CREEPING_ORACLE_IDS = ["power_product_1e160", "gradient_homogeneous_1e300", "absorption_1e300"]


def cli_in_subprocess(tmp_path, text, command="sandwich"):
    """A CLI `command` of the config `text` in a fresh interpreter with
    RuntimeWarning an error: (the finished process, its output directory)."""
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "rdblowup.cli",
                           command, "--config", write_config(tmp_path, text),
                           "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    return done, out


class TestValuesPastFloatRange:
    # values the config rules accept, whose arithmetic leaves the float
    # range: a refusal or an exit code, never a traceback
    @pytest.mark.parametrize("edit", [edit for edit, _ in PAST_FLOAT_RANGE],
                             ids=PAST_FLOAT_RANGE_IDS)
    def test_bounds_refuses_the_lower_bound(self, tmp_path, capsys, edit):
        assert FLAT_CUBE.count(edit[0]) == 1
        out = tmp_path / "out"
        assert run("bounds", write_config(tmp_path, FLAT_CUBE.replace(*edit)), out) == EXIT_FAILED
        report = load_report(out)
        assert report["lower_bound"]["error"]["type"] == "ConstantOutOfRange"
        assert report["upper_bound"]["t_upper"] == pytest.approx(0.25, abs=1e-9)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("edit, expected", PAST_FLOAT_RANGE, ids=PAST_FLOAT_RANGE_IDS)
    def test_sandwich_exits_with_a_code(self, tmp_path, capsys, edit, expected):
        # p = 1e160 makes the monitored scriptE overflow (a numerical
        # failure), and a 1e-300 wide axis is too thin to simulate (a config
        # error); otherwise the sandwich is partial
        out = tmp_path / "out"
        code = run("sandwich", write_config(tmp_path, FLAT_CUBE.replace(*edit)), out)
        assert code == expected
        if code == EXIT_OK:
            report = load_report(out)
            assert report["lower_bound"]["error"]["type"] == "ConstantOutOfRange"
            assert report["sandwich"]["partial"] is True
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["sandwich", "simulate"])
    def test_a_failed_run_still_writes_the_report(self, tmp_path, capsys, command):
        # p = 1e160: the monitored scriptE of the initial row overflows, so
        # the run raises NonFiniteSample; the report keeps the blocks
        # computed before the run, with the error as its simulation block
        out = tmp_path / "out"
        text = FLAT_CUBE.replace(*PAST_FLOAT_RANGE[0][0])
        assert run(command, write_config(tmp_path, text), out) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NonFiniteSample: ") and "Traceback" not in err
        report = load_report(out)
        assert report["simulation"]["error"]["type"] == "NonFiniteSample"
        assert not (out / "trace.csv").exists()
        if command == "sandwich":
            assert set(report) == {"command", "upper_bound", "lower_bound", "simulation"}
            assert report["upper_bound"]["t_upper"] == pytest.approx(0.25, abs=1e-9)
            assert report["lower_bound"]["error"]["type"] == "ConstantOutOfRange"
        else:
            assert set(report) == {"command", "simulation"}

    def test_check_classifies_absorption_with_a_huge_coefficient(self, tmp_path, capsys):
        # a^3 = 1e900 overflows; a^3 b^3 >= 1 holds
        text = (DEMO_CONFIGS / "absorption_threshold.ini").read_text()
        assert text.count("a = 0.01") == 1
        out = tmp_path / "out"
        assert run("check", write_config(tmp_path, text.replace("a = 0.01", "a = 1e300")),
                   out) == EXIT_OK
        assert load_report(out)["absorption_classification"] == "threshold_global_bounded"
        assert "Traceback" not in capsys.readouterr().err

    def test_sandwich_on_a_reaction_whose_norm_overflows_ends(self, tmp_path):
        # c = 1e300: the oracle's |f| overflows near u = v = 400 and the run
        # ends with no blow-up time, where it would step forever.  In a
        # subprocess, for its timeout, with numpy's warnings made errors: the
        # oracle integrates under one errstate, so its reaction warns of none
        done, out = cli_in_subprocess(tmp_path, FLAT_CUBE.replace("c = 1.0", "c = 1e300"))
        assert done.returncode == EXIT_NUMERICAL, done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        report = load_report(out)
        assert report["oracle"]["blowup_time"] is None
        assert report["sandwich"]["partial"] is True

    @pytest.mark.parametrize("edits", [
        [("kind = constant\nc1 = 1.0\nc2 = 1.0",
          "kind = gaussian\nc1 = 1e3\namplitude = 1\nwidth = 0.5\nc2 = 1e3"),
         ("c = 1.0", "c = 1e300")],
        [("c1 = 1.0\nc2 = 1.0", "c1 = 1e3\nc2 = 1e3"),
         ("a_exp = 2\nb_exp = 2", "a_exp = 200\nb_exp = 1")],
    ], ids=["bump_1e300", "flat_u200"])
    def test_simulate_whose_start_overflows_exits_three_with_no_warning(self, tmp_path, edits):
        # N(g) overflows: on the 8^3 bump, in numpy's array *; on flat
        # data, collapsed to one cell, in the retry of u^199 on numpy scalars.
        # The start runs with overflow silenced, as each step does, so the
        # run ends as NonFiniteField with its report and warns of nothing
        text = FLAT_CUBE
        for edit in edits:
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
        done, out = cli_in_subprocess(tmp_path, text, "simulate")
        assert done.returncode == EXIT_NUMERICAL, done.stderr
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
        assert load_report(out)["simulation"]["error"]["type"] == "NonFiniteField"

    @pytest.mark.parametrize("edits", CREEPING_ORACLE, ids=CREEPING_ORACLE_IDS)
    def test_sandwich_on_a_reaction_whose_oracle_steps_creep_ends(self, tmp_path, edits):
        # the oracle's steps shrink to 1e-17 to 1e-15 in s; its step count
        # ends the run with no blow-up time, in about 1 s, and the report's
        # oracle method says so
        text = FLAT_CUBE
        for edit in edits:
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
        done, out = cli_in_subprocess(tmp_path, text)
        assert done.returncode in (EXIT_OK, EXIT_FAILED, EXIT_CONFIG, EXIT_NUMERICAL), done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr
        oracle = load_report(out)["oracle"]
        assert oracle["blowup_time"] is None
        assert oracle["method"].endswith(f"; stopped at the step count {_MAX_STEPS}")

    def test_non_finite_floats_are_written_as_null(self):
        assert rdblowup.cli._as_jsonable(
            {"x": [math.inf, -math.inf, math.nan, np.float64("nan"), 1.5]}
        ) == {"x": [None, None, None, None, 1.5]}


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
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nsup_treshold = 1e4")),
        ("simulate", ("t_end = 1.0", "t_end = 0.0")),
        ("simulate", ("t_end = 1.0", "t_end = inf")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2\nmode = bogus")),
        ("bounds", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2\nmode = bogus")),
        ("check", ("alpha = 1.0", "alpha = 1.0\nsamples_per_axis = 0")),
        ("check", ("alpha = 1.0", "alpha = 1.0\nbox_min = 0")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngamma1 = -16")),
        ("check", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngamma1 = -1")),
        ("bounds", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngamma1 = nan")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngamma1 = nan")),
        ("check", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngamma2 = inf")),
        ("check", ("cells_per_axis = 8", "cells_per_axis = 2")),
        ("check", ("a_exp = 2\n", "a_exp = 0.5\n")),
        ("check", ("c1 = 1.0", "c1 = nan")),
        ("simulate", ("c2 = 1.0", "c2 = inf")),
        ("check", (*BALL, "kind = constant", "kind = gaussian\namplitude = 5\nwidth = 0.2")),
        ("check", ("t_end = 1.0", "t_end = 0.0")),
        ("check", ("t_end = 1.0", "t_end = 1.0\nsample_stride = 0")),
        ("check", ("t_end = 1.0", "t_end = 1.0\nreltol = 1e-6")),
        ("check", (*BALL, "t_end = 1.0", "t_end = 1.0\nreltol = 1e-6")),
        ("check", ("kind = constant", "kind = gaussian\namplitude = nan")),
        ("check", (*BALL, "c1 = 1.0", "c1 = nan")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nrel_tol = nan")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nrel_tol = -1")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nabs_tol = -1e-3")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nrel_tol = 0\nabs_tol = 0")),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\nsup_threshold = nan")),
        ("check", (*BALL, "t_end = 1.0", "t_end = -5")),
        ("check", (*BALL, "t_end = 1.0", "t_end = 1.0\nrel_tol = nan")),
        ("check", BALL),
        ("simulate", ("t_end = 1.0", "t_end = 1.0\ndt_init = 1e-6")),
        ("check", ("t_end = 1.0", "t_end = 1.0\ndt_max = 0.1")),
        ("bounds", ("alpha = 1.0", "alpha = 0")),
        ("sandwich", ("alpha = 1.0", "alpha = 0")),
        ("bounds", ("alpha = 1.0", "alpha = -0.5")),
        ("check", ("alpha = 1.0", "alpha = nan")),
        ("bounds", ("alpha = 1.0", "alpha = inf")),
        ("check", ("c = 1.0", "c = nan")),
        ("check", ("c = 1.0", "c = inf")),
        ("check", ("a_exp = 2\n", "a_exp = nan\n")),
        ("check", ("b_exp = 2\n", "b_exp = inf\n")),
        ("check", ("family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
                   "family = gradient_homogeneous\nalpha = nan")),
        ("check", ("family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
                   "family = absorption\np = 3\nq = 3\nr = 2\ns = 2\na = nan\nb = 1")),
        ("check", ("family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
                   "family = absorption\np = 3\nq = 3\nr = inf\ns = 2\na = 1\nb = 1")),
        ("bounds", (*BOX_3D, "alpha = 1.0", "alpha = 1.0\np = 0.5\nk1 = 1e6\nk2 = 1e6")),
        ("check", (*BOX_3D, "alpha = 1.0", "alpha = 1.0\np = 0.5\nk1 = 1e6\nk2 = 1e6")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = nan\nk1 = 2\nk2 = 2")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = inf\nk1 = 2\nk2 = 2")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = nan\nk2 = 2")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = inf\nk2 = 2")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = -1\nk2 = 2")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = nan")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = inf")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = -1")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = constant\nh_value = nan")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = constant\nh_value = inf")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = power\nh_m = nan")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = power\nh_m = inf")),
        ("check", ("cells_per_axis = 8", "cells_per_axis = 8\nradius = 1")),
        ("check", ("b_exp = 2", "b_exp = 2\nh_m = 2")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = constant\nh_m = 2")),
        ("check", (*GRADIENT_HOMOGENEOUS, "c = 1.0", "c = 1.0\nh = power\nh_value = 2")),
        ("check", ("kind = constant", "kind = gaussian\namplitud = 5")),
        ("bounds", ("t_end = 1.0", "t_end = 1.0\n\n[robin]\ngama1 = 1.0")),
        ("check", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2\nmod = A2A3")),
        ("check", ("t_end = 1.0", "t_end = 1.0\n\n[outputs]\ndir = elsewhere")),
        ("check", ("[solver]", "[Solver]")),
        ("bounds", ("alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2")),
        ("bounds", ("alpha = 1.0", "alpha = 1.0\nk1 = 2\nk2 = 2")),
        ("check", ("kind = constant", "kind = gaussian\namplitude = 5\nwidth = 0")),
        ("check", ("kind = constant", "kind = gaussian\namplitude = 5\nwidth = inf")),
        ("check", ("kind = constant", "kind = cosine\nepsilon = 0.1")),
        ("check", ("kind = constant", "kind = constant\namplitude = 5\nwidth = 0")),
        ("simulate", ("half_extents = 1 1", "half_extents = inf 1")),
        ("simulate", ("half_extents = 1 1", "half_extents = 1e250 1")),
        ("sandwich", ("half_extents = 1 1", "half_extents = 1e250 1")),
        ("simulate", ("half_extents = 1 1", "half_extents = 1e-300 1")),
        ("sandwich", ("half_extents = 1 1", "half_extents = 1e-300 1")),
        ("check", ("half_extents = 1 1", "half_extents = nan 1")),
        ("bounds", (*BALL, "alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2",
                    "radius = 1", "radius = nan")),
        ("bounds", (*BALL, "alpha = 1.0", "alpha = 1.0\np = 2\nk1 = 2\nk2 = 2",
                    "radius = 1", "radius = inf")),
    ], ids=["unknown_initial_kind", "power_product_without_a_exp",
            "power_product_without_b_exp", "unknown_key_sample_stride",
            "simulate_solver_key_typo", "t_end_zero", "t_end_inf",
            "check_unknown_mode", "bounds_unknown_mode", "unknown_key_samples_per_axis",
            "unknown_key_box_min", "simulate_gamma1_minus_16", "check_gamma1_minus_1",
            "bounds_gamma1_nan", "simulate_gamma1_nan", "check_gamma2_inf",
            "cells_per_axis_two", "a_exp_below_one", "c1_nan", "c2_inf",
            "ball_gaussian_data", "check_t_end_zero", "check_unknown_key_sample_stride",
            "check_solver_key_typo", "unknown_key_reltol_on_ball",
            "gaussian_amplitude_nan", "ball_c1_nan", "rel_tol_nan", "rel_tol_negative",
            "abs_tol_negative", "both_tolerances_zero", "sup_threshold_nan",
            "unknown_key_t_end_negative_on_ball", "unknown_key_rel_tol_nan_on_ball",
            "unknown_key_t_end_on_ball", "unknown_key_dt_init",
            "check_unknown_key_dt_max", "bounds_alpha_zero", "sandwich_alpha_zero",
            "bounds_alpha_negative", "check_alpha_nan", "bounds_alpha_inf", "c_nan", "c_inf",
            "a_exp_nan", "b_exp_inf", "gradient_homogeneous_alpha_nan", "absorption_a_nan",
            "absorption_r_inf", "bounds_p_half", "check_p_half", "p_nan", "p_inf", "k1_nan",
            "k1_inf", "k1_negative", "gradient_homogeneous_c_nan",
            "gradient_homogeneous_c_inf", "gradient_homogeneous_c_negative", "h_value_nan",
            "h_value_inf", "h_m_nan", "h_m_inf", "unknown_key_radius_on_box",
            "unknown_key_h_m_on_power_product", "unknown_key_h_m_on_constant_shape",
            "unknown_key_h_value_on_power_shape", "unknown_key_amplitud", "unknown_key_gama1",
            "unknown_key_mod", "unknown_key_outputs_dir", "misspelled_section_solver",
            "k1_without_k2", "k1_k2_without_p", "gaussian_width_zero", "gaussian_width_inf",
            "cosine_kind", "unknown_keys_amplitude_width_on_constant", "half_extents_inf",
            "simulate_half_extents_1e250", "sandwich_half_extents_1e250",
            "simulate_half_extents_1e-300", "sandwich_half_extents_1e-300",
            "half_extents_nan", "ball_radius_nan", "ball_radius_inf"])
    def test_rejected_config_exits_two_without_traceback(self, tmp_path, capsys,
                                                         command, edit):
        # edit holds (old, new) pairs, applied in turn
        text = BLOWUP_BOX
        for old, new in zip(edit[::2], edit[1::2]):
            assert old in text
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err


    def test_unread_keys_named_with_the_file(self, tmp_path, capsys):
        text = BLOWUP_BOX.replace("[solver]", "[Solver]") + "\n[robin]\ngama1 = 1.0\n"
        cfg = write_config(tmp_path, text)
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert cfg in err
        assert "[robin] gama1" in err and "[Solver] t_end" in err


    @pytest.mark.parametrize("command, text, message", [
        ("check", BLOWUP_BOX.replace("family = power_product", "family = power_sum"),
         "unknown nonlinearity family 'power_sum'"),
        ("check", BLOWUP_BOX.replace("kind = constant", "kind = cosine"),
         "unknown initial-data kind 'cosine'"),
        ("check", BLOWUP_BOX.replace("kind = constant", "kind = constant\namplitude = 5\nwidth = 0"),
         "no command reads [initial_data] amplitude, [initial_data] width"),
        ("bounds", BLOWUP_BOX.replace("alpha = 1.0", ""), "config requests no bound"),
        ("simulate", BALL_LOWER, "ball domains cannot be meshed"),
        ("bounds", BALL_LOWER + "\n[solver]\nt_end = 1.0\n", "no command reads [solver] t_end"),
        ("sandwich", BLOWUP_BOX.replace("half_extents = 1 1", "half_extents = 1e250 1"),
         "cell widths (2.5e+249, 0.25) put the Laplacian's weights h^-2 outside"),
    ], ids=["unknown_family", "unknown_kind", "unread_gaussian_keys", "no_bound",
            "simulate_ball", "solver_key_on_ball", "sandwich_half_extents_1e250"])
    def test_every_config_error_names_the_file(self, tmp_path, capsys, command, text,
                                               message):
        cfg = write_config(tmp_path, text)
        assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: {message}")

    @pytest.mark.parametrize("data, message", [
        (BLOWUP_BOX.encode() + b"\n[domain]\nkind = box\n", "section 'domain' already exists"),
        (BLOWUP_BOX.replace("t_end = 1.0", "t_end = 1.0\nt_end = 2.0").encode(),
         "option 't_end' in section 'solver' already exists"),
        (b"t_end = 1.0\n" + BLOWUP_BOX.encode(), "File contains no section headers"),
        (BLOWUP_BOX.replace("c = 1.0", "c = 1.0 # \xb5").encode("latin-1"),
         "'utf-8' codec can't decode byte 0xb5"),
    ], ids=["duplicate_section", "duplicate_key", "no_section_header", "not_utf8"])
    def test_malformed_file_exits_two_without_traceback(self, tmp_path, capsys, data,
                                                        message):
        path = tmp_path / "exp.ini"
        path.write_bytes(data)
        assert run("check", str(path), tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("half_extent", ["1e250", "1e-300"])
    @pytest.mark.parametrize("command", ["check", "bounds"])
    def test_laplacian_rule_binds_only_simulations(self, tmp_path, command, half_extent):
        # check and bounds never apply the Laplacian, whose weights h^-2
        # these cell widths put out of range
        text = BLOWUP_BOX.replace("half_extents = 1 1", f"half_extents = {half_extent} 1")
        assert run(command, write_config(tmp_path, text), tmp_path / "out") == EXIT_OK


class TestResolutionOverride:
    def test_resolution_flag(self, tmp_path):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out-dir", str(out),
                     "--resolution", "4"])
        assert code == EXIT_OK

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_nonpositive_resolution_exits_two(self, tmp_path, resolution):
        cfg = write_config(tmp_path, BLOWUP_BOX)
        code = main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out"),
                     "--resolution", resolution])
        assert code == EXIT_CONFIG

    def test_a_ball_refuses_the_resolution(self, tmp_path, capsys):
        # --resolution is a box's cells_per_axis, which no ball reads
        out = tmp_path / "out"
        code = main(["bounds", "--config", write_config(tmp_path, BALL_LOWER),
                     "--out-dir", str(out), "--resolution", "8"])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "no command reads --resolution" in err and "cells_per_axis" not in err


# valid and invalid draws of each value the property tests set; the invalid
# ones take nan, +-inf, negatives and subnormals
GAMMA = (st.floats(min_value=0.0, allow_infinity=False),
         st.one_of(st.floats(max_value=-math.ulp(0.0)), st.sampled_from([math.nan, math.inf])))
POSITIVE = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])))
FINITE = (st.floats(allow_nan=False, allow_infinity=False),
          st.sampled_from([math.nan, math.inf, -math.inf]))
GROWTH_EXPONENT = (st.floats(min_value=1.0, allow_infinity=False),
                   st.one_of(st.floats(max_value=1.0, exclude_max=True),
                             st.sampled_from([math.nan, math.inf])))
# data within 2e3 of 0 stay below the default sup_threshold 1e8, which data
# 1e9 from 0 exceed whatever the gaussian adds
DATUM = (st.floats(-1e3, 1e3),
         st.one_of(st.floats(min_value=1e9), st.floats(max_value=-1e9), st.just(math.nan)))
VALUES = {
    "gamma1": GAMMA,
    "gamma2": GAMMA,
    "cells": (st.integers(4, 6), st.integers(-2, 3)),
    # valid half-extents give 4-6 cells a float width and volume, which
    # build_mesh requires (tests/test_geometry.py)
    "half_extent": (st.floats(min_value=1e-300, max_value=1e300), POSITIVE[1]),
    "t_end": POSITIVE,
    "alpha": POSITIVE,
    "c": POSITIVE,
    "a_exp": GROWTH_EXPONENT,
    "c1": DATUM,
    "c2": DATUM,
    "amplitude": (DATUM[0], st.sampled_from([math.nan, math.inf, -math.inf])),
    # the gaussian divides by 2 width^2, which must be a positive float:
    # widths below about 1.5e-162 or above 9.4e153 are rejected
    "width": (st.floats(1e-160, 1e150),
              st.one_of(st.floats(max_value=1e-163), st.floats(min_value=1e155),
                        st.just(math.nan))),
    "p": GROWTH_EXPONENT,
    "k1": POSITIVE,
    "k2": POSITIVE,
}
# the gradient_homogeneous family's own values; `shape` is h's parameter
HOMOGENEOUS_VALUES = {"alpha": POSITIVE, "c": POSITIVE, "shape": FINITE}


@st.composite
def at_most_one_bad_value(draw, values=VALUES):
    """(name of the bad value or None, valid values with that one made bad)."""
    bad = draw(st.sampled_from([None, *values]))
    return bad, {name: draw(values[name][name == bad]) for name in values}


def exits_two_exactly_when_invalid(tmp_path_factory, text, invalid):
    """`check` of the config `text` exits 2 iff `invalid`, with no traceback."""
    tmp = tmp_path_factory.mktemp("property")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("check", write_config(tmp, text), tmp / "out")
    assert (code == EXIT_CONFIG) == invalid
    assert "Traceback" not in err.getvalue()


class TestInvalidValuesProperty:
    # one bad value per example, so each value rule is tested on its own
    @given(case=at_most_one_bad_value())
    def test_check_exits_two_exactly_on_invalid_values(self, tmp_path_factory, case):
        bad, values = case
        (gamma1, gamma2, cells, half_extent, t_end, alpha, c, a_exp, c1, c2, amplitude, width,
         p, k1, k2) = (values[k] for k in (
             "gamma1", "gamma2", "cells", "half_extent", "t_end", "alpha", "c", "a_exp",
             "c1", "c2", "amplitude", "width", "p", "k1", "k2"))
        text = (BLOWUP_BOX.replace("cells_per_axis = 8", f"cells_per_axis = {cells}")
                .replace("half_extents = 1 1", f"half_extents = {half_extent!r} 1")
                .replace("t_end = 1.0", f"t_end = {t_end!r}")
                .replace("alpha = 1.0", f"alpha = {alpha!r}\np = {p!r}\nk1 = {k1!r}\n"
                                        f"k2 = {k2!r}")
                .replace("c = 1.0", f"c = {c!r}")
                .replace("a_exp = 2", f"a_exp = {a_exp!r}")
                .replace("kind = constant\nc1 = 1.0\nc2 = 1.0",
                         f"kind = gaussian\nc1 = {c1!r}\nc2 = {c2!r}\n"
                         f"amplitude = {amplitude!r}\nwidth = {width!r}")
                + f"\n[robin]\ngamma1 = {gamma1!r}\ngamma2 = {gamma2!r}\n")
        invalid = (cells < 4 or not 0 < half_extent < math.inf or not 0 < t_end < math.inf
                   or not all(0 <= g < math.inf for g in (gamma1, gamma2))
                   or not all(0 < x < math.inf for x in (alpha, c, k1, k2))
                   or not all(1 <= x < math.inf for x in (a_exp, p))
                   or not all(abs(x) < 1e8 for x in (c1, c2))
                   or not (math.isfinite(amplitude) and 1e-160 <= width <= 1e150))
        assert invalid == (bad is not None)
        exits_two_exactly_when_invalid(tmp_path_factory, text, invalid)

    @pytest.mark.parametrize("shape, key", [("power", "h_m"), ("constant", "h_value")])
    @given(data=st.data())
    def test_gradient_homogeneous_check_exits_two_exactly_on_invalid_values(
            self, tmp_path_factory, shape, key, data):
        bad, values = data.draw(at_most_one_bad_value(HOMOGENEOUS_VALUES))
        text = BLOWUP_BOX.replace(
            "family = power_product\nc = 1.0\na_exp = 2\nb_exp = 2",
            f"family = gradient_homogeneous\nc = {values['c']!r}\nalpha = {values['alpha']!r}"
            f"\nh = {shape}\n{key} = {values['shape']!r}")
        invalid = (not all(0 < values[k] < math.inf for k in ("alpha", "c"))
                   or not math.isfinite(values["shape"]))
        assert invalid == (bad is not None)
        exits_two_exactly_when_invalid(tmp_path_factory, text, invalid)


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

    def test_an_output_path_that_cannot_be_made_exits_two(self, tmp_path):
        # the output directory is an existing file: a config error naming
        # the config, not a traceback
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = write_config(tmp_path, BALL_LOWER)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "rdblowup.cli", "bounds", "--config", cfg,
                               "--out-dir", str(afile)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"config error: {cfg}: ")


class TestMultiConfig:
    def test_jobs_capped_at_number_of_configs(self, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []

        class SerialExecutor:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # main imports the pool class when it runs configs in parallel
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
        cfgs = [write_config(tmp_path, BLOWUP_BOX, "a.ini"),
                write_config(tmp_path, BALL_LOWER, "b.ini")]
        code = main(["bounds", "--config", *cfgs, "--out-dir", str(tmp_path / "out"),
                     "--jobs", "64"])
        assert code == EXIT_OK
        assert pools == [2]

    def test_jobs_run_both_configs(self, tmp_path):
        cfg1 = write_config(tmp_path, BLOWUP_BOX, "a.ini")
        cfg2 = write_config(tmp_path, BALL_LOWER, "b.ini")
        out = tmp_path / "out"
        code = main(["bounds", "--config", cfg1, cfg2,
                     "--out-dir", str(out), "--jobs", "2"])
        assert code == EXIT_OK
        assert (out / "a" / "report.json").exists()
        assert (out / "b" / "report.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_configs_with_one_file_stem_are_refused(self, tmp_path, capsys, jobs):
        # a/run.ini and b/run.ini would both write out/run: the run is
        # refused before either config runs
        paths = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            paths.append(write_config(tmp_path / name, BLOWUP_BOX, "run.ini"))
        out = tmp_path / "out"
        code = main(["bounds", "--config", *paths, "--out-dir", str(out), "--jobs", jobs])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "'run'" in err and paths[0] in err and paths[1] in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("names", [("a.ini", "b.ini"), ("a/run.ini", "b/run.ini")])
    def test_configs_writing_one_directory_are_refused(self, tmp_path, monkeypatch, capsys,
                                                       names, jobs):
        # neither config sets [outputs], so both would write ./out, whatever
        # their stems: refused before either runs
        monkeypatch.chdir(tmp_path)
        paths = []
        for name, c in zip(names, ("1.0", "2.0")):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            paths.append(str((tmp_path / name).relative_to(tmp_path)))
            (tmp_path / name).write_text(BALL_LOWER.replace("c = 1.0", f"c = {c}"))
        assert main(["bounds", "--config", *paths, "--jobs", jobs]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert paths[0] in err and paths[1] in err
