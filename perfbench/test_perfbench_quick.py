"""Quick-mode runs of every workload, so that the benchmark harness cannot rot."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_checks_outputs_and_reports_every_metric(workload, trace, section):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_shims_patch_every_lookup_and_tolerate_missing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import rdblowup.bounds
    import rdblowup.cli
    import rdblowup.nonlinearity
    import rdblowup.solver
    from shims import Tracer

    originals = (rdblowup.cli.simulate, rdblowup.bounds.check_H1,
                 rdblowup.nonlinearity.check_H1, rdblowup.cli.COMMANDS["check"])
    monkeypatch.delattr(rdblowup.solver, "rhs")
    tracer = Tracer()
    with tracer:
        patched = (rdblowup.cli.simulate, rdblowup.bounds.check_H1,
                   rdblowup.nonlinearity.check_H1, rdblowup.cli.COMMANDS["check"])
        assert all(p is not o for p, o in zip(patched, originals))
        assert rdblowup.bounds.check_H1 is rdblowup.nonlinearity.check_H1
        nl = rdblowup.nonlinearity.make_power_product(1.0, 2.0, 2.0)
        rdblowup.bounds.check_H1(nl, 1.0, samples_per_axis=4)
    assert "solver.rhs" in tracer.absent
    assert tracer.calls["nonlinearity.check_H1"] == 1
    assert tracer.f_calls["nonlinearity.check_H1"] == 5  # f1 and f2 twice, F once
    restored = (rdblowup.cli.simulate, rdblowup.bounds.check_H1,
                rdblowup.nonlinearity.check_H1, rdblowup.cli.COMMANDS["check"])
    assert all(r is o for r, o in zip(restored, originals))


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
