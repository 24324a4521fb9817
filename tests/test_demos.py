"""Smoke tests of `demos/`: every script runs, every config runs each
command to its documented exit code, and a rerun of `sandwich` writes the
same bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rdblowup.cli import EXIT_FAILED, EXIT_OK, main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# robin_drain.ini's header: Robin walls make J(0) negative, so `bounds`
# refuses the upper bound and exits 1
EXPECTED = {("robin_drain", "bounds"): EXIT_FAILED}


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_script_exits_zero_and_writes_nothing(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    # the RuntimeWarning rule of the test run, carried into the subprocess
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["check", "bounds", "simulate", "sandwich"])
@pytest.mark.parametrize("config", sorted((DEMOS / "configs").glob("*.ini")),
                         ids=lambda path: path.stem)
def test_config_exits_as_documented(config, command, tmp_path):
    out = tmp_path / "out"
    expected = EXPECTED.get((config.stem, command), EXIT_OK)
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == expected
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == command
    if expected == EXIT_FAILED:
        assert report["upper_bound"]["error"]["type"] == "NonpositiveJ0"


@pytest.mark.parametrize("config", sorted((DEMOS / "configs").glob("*.ini")),
                         ids=lambda path: path.stem)
def test_sandwich_rerun_is_byte_identical(config, tmp_path):
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["sandwich", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    for name in ("report.json", "trace.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
