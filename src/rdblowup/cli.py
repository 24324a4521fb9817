"""Config-driven experiment runner.

Commands: check | bounds | simulate | sandwich.  Experiments are described
by INI-style config files (one experiment per file); outputs are a JSON
report plus, for simulations, a CSV trace (gnuplot reads it with
`set datafile separator comma`).  Reports contain no wall-clock content, so
reruns are byte-identical.

A config is checked in full before any command runs: `Experiment` builds the
mesh, the nonlinearity, the initial data and, for a box, the `SolverConfig`,
and the library code that builds each one checks its values, so a bad value
exits 2 on every command.  So does any key the build does not read, in any
section; the message names each such key.  Every config error names its
file.  The keys: [domain] kind (box, ball), dimension, a box's half_extents
and cells_per_axis, a ball's radius; [nonlinearity] family and its keys
(power_product: c, a_exp, b_exp; gradient_homogeneous: c, alpha, h, and
h_m for h = power or h_value for h = constant; absorption: p, q, r, s, a,
b); [initial_data] kind (constant, gaussian), c1, c2 and, for a gaussian on
a box, amplitude and width (the amplitude finite, the width finite and > 0
with 2 width^2 a positive float); [robin] gamma1, gamma2; [hypothesis]
alpha, p, k1, k2 (k1 and k2 together, and with p), mode; [solver] t_end,
rel_tol, abs_tol, sup_threshold; [outputs] directory.
A ball domain takes constant initial data only and reads no `[solver]` key,
as no command simulates on it: a ball config that sets one exits 2.
`--resolution n` is a box's `cells_per_axis = n`, written into the parsed
config before it is built, so a ball config given it exits 2 as well,
naming `--resolution`.
Several configs run only if no two of them write one directory
(`--out-dir/<stem>`, or each config's `[outputs] directory`).

A command computes: it adds its blocks to a report and returns its exit code
and trace, and `_run_one` alone writes a run's files, trace.csv then
report.json.  Exit codes: 0 success (or partial sandwich), 1 assertion or
hypothesis failure, 2 config error (an output path that cannot be made or
written included), 3 numerical failure, or a simulation that stopped short:
its steps underflowed or it reached the solver's trial limit.  After a
numerical failure report.json holds the blocks computed before it and the
error as the block being computed.
"""

import argparse
import configparser
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import nonlinearity as nl_mod
from .errors import (
    BadExponent,
    BoundRefused,
    ConfigError,
    NegativeInitialData,
    RdBlowupError,
    ResolutionTooCoarse,
)
from .fields import make_field
from .functionals import TRACE_COLUMNS, check_trace_monitors, require_growth_constants
from .geometry import BOX, DomainSpec, build_mesh, require_gamma
from .oracle import ode_reduce
from .solver import OUTCOME_STEP_UNDERFLOW, OUTCOME_TRIAL_LIMIT, SolverConfig, simulate

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _numbers(text, kind):
    return tuple(kind(tok) for tok in text.replace(",", " ").split())


_OPTIONAL_SECTIONS = ("initial_data", "robin", "hypothesis", "solver", "outputs")
# the SolverConfig options that [solver] sets, all floats; SolverConfig holds
# the default of each but t_end
_SOLVER_KEYS = ("t_end", "rel_tol", "abs_tol", "sup_threshold")


def _outputs_directory(cfg):
    """The directory a config's runs write, where no --out-dir is given."""
    return cfg.get("outputs", "directory", fallback="out")


class _RecordingParser(configparser.ConfigParser):
    """A ConfigParser that records each (section, key) looked up through it."""

    def __init__(self):
        super().__init__()
        self.looked_up = set()

    def get(self, section, option, **kwargs):
        self.looked_up.add((section, option))
        return super().get(section, option, **kwargs)


class Experiment:
    """A config parsed into the library objects it describes, each built once.

    Building them checks every value with the library's own rules, before
    any command runs; `__init__` turns the library's errors into ConfigError.
    The keys the build reads are the config's schema: any other key in the
    file, in any section, is a ConfigError too.
    """

    def __init__(self, path: str, resolution=None):
        parser = _RecordingParser()
        try:
            # a malformed file is a configparser.Error, bytes not UTF-8 a ValueError
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError("cannot read the file")
            if resolution is not None:  # --resolution is the box's cells_per_axis
                parser["domain"]["cells_per_axis"] = str(resolution)
            self._build(parser)
        except (KeyError, ValueError, configparser.Error, ResolutionTooCoarse,
                BadExponent) as exc:
            raise ConfigError(str(exc)) from exc
        # a key the flag wrote is named by the flag
        flags = {("domain", "cells_per_axis"): "--resolution"} if resolution is not None else {}
        unread = [flags.get((name, key), f"[{name}] {key}") for name in parser.sections()
                  for key in parser[name] if (name, key) not in parser.looked_up]
        if unread:
            raise ConfigError(f"no command reads {', '.join(unread)}")

    def _build(self, cfg):
        for name in _OPTIONAL_SECTIONS:
            if not cfg.has_section(name):
                cfg.add_section(name)
        self.out_dir = _outputs_directory(cfg)

        nls = cfg["nonlinearity"]
        family = nls["family"]
        if family == "power_product":
            self.nl = nl_mod.make_power_product(
                nls.getfloat("c", 1.0), float(nls["a_exp"]), float(nls["b_exp"]))
        elif family == "gradient_homogeneous":
            # h_<name> is the key of the shape's parameter <name>
            shape = nl_mod.SHAPE_CATALOG[nls.get("h", "constant")](
                lambda name, default: nls.getfloat(f"h_{name}", default))
            self.nl = nl_mod.make_gradient_homogeneous(
                nls.getfloat("c", 1.0), float(nls["alpha"]), shape)
        elif family == "absorption":
            self.nl = nl_mod.make_absorption(
                *(float(nls[key]) for key in ("p", "q", "r", "s", "a", "b")))
        else:
            raise ConfigError(f"unknown nonlinearity family {family!r}")

        robin = cfg["robin"]
        self.gamma1 = require_gamma(robin.getfloat("gamma1", 0.0), "robin.gamma1")
        self.gamma2 = require_gamma(robin.getfloat("gamma2", 0.0), "robin.gamma2")

        hyp = cfg["hypothesis"]
        self.alpha, self.p, self.k1, self.k2 = (
            hyp.getfloat(key) for key in ("alpha", "p", "k1", "k2"))
        if self.alpha is not None:
            nl_mod.require_alpha(self.alpha)
        require_growth_constants(self.p, k1=self.k1, k2=self.k2)
        if (self.k1 is None) != (self.k2 is None) or (self.k1 is not None and self.p is None):
            raise ValueError("[hypothesis] k1 and k2 come together, and with p")
        self.mode = bounds_mod.require_mode(hyp.get("mode", bounds_mod.MODE_A2PRIME))

        init = cfg["initial_data"]
        init_kind = init.get("kind", "constant")
        c1, c2 = init.getfloat("c1", 1.0), init.getfloat("c2", 1.0)

        dom = cfg["domain"]
        kind = dom.get("kind", BOX)
        dimension = dom.getint("dimension")
        if kind != BOX:
            self.domain = DomainSpec(kind=kind, dimension=dimension,
                                     radius=dom.getfloat("radius"))
            if init_kind != "constant" or not (math.isfinite(c1) and math.isfinite(c2)):
                raise ConfigError(f"a ball takes finite constant initial data only, got "
                                  f"kind {init_kind!r}, c1 {c1:g}, c2 {c2:g}")
            self.mesh = self.solver = None
            self.g1, self.g2 = c1, c2
            return
        spec = DomainSpec(kind=BOX, dimension=dimension,
                          half_extents=_numbers(dom["half_extents"], float))
        cells = _numbers(dom["cells_per_axis"], int)
        self.mesh = self.domain = build_mesh(spec, cells[0] if len(cells) == 1 else cells)
        params = {"c": c1}
        if init_kind == "gaussian":
            params.update(amplitude=init.getfloat("amplitude", 0.0),
                          width=init.getfloat("width", 1.0))
        g1 = make_field(self.mesh, init_kind, params)
        g2 = make_field(self.mesh, "constant", {"c": c2})
        sol = cfg["solver"]
        options = {key: float(sol[key]) for key in _SOLVER_KEYS if key in sol}
        options.setdefault("t_end", 1.0)
        if self.alpha is not None:
            options["alpha"] = self.alpha
        self.solver = SolverConfig(mesh=self.mesh, nl=self.nl, gamma1=self.gamma1,
                                   gamma2=self.gamma2, g1=g1, g2=g2, p=self.p, **options)
        self.g1, self.g2 = self.solver.g1, self.solver.g2

    def wants_upper(self):
        return self.alpha is not None and self.nl.has_potential and self.mesh is not None

    def wants_lower(self):
        return self.k1 is not None


def _as_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _as_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):  # nan, +-inf -> null for JSON
        return None
    return obj


def _error_block(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _write_report(report, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_as_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False)
    (out_dir / "report.json").write_text(text + "\n")


def _write_trace(trace, out_dir: Path):
    """trace.csv in one write, in the bytes `csv.writer` writes in its
    default dialect, `csv.excel`: the column names, then each row's floats
    as `repr` (nan for a missing column), comma-separated, every line
    ending in CR LF."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sep, end = csv.excel.delimiter, csv.excel.lineterminator
    lines = [sep.join(TRACE_COLUMNS), *(sep.join(map(repr, s.row())) for s in trace.samples), ""]
    (out_dir / "trace.csv").write_text(end.join(lines), newline="")


# --- commands: each takes (exp, report) and returns (exit code, trace or None)

def cmd_check(exp: Experiment, report: dict):
    reports, errors = [], {}
    try:
        if exp.nl.has_potential and exp.alpha is not None:
            reports.append(nl_mod.check_H1(exp.nl, exp.alpha))
            if exp.mesh is not None:
                try:
                    reports.extend(nl_mod.check_H2_H3(exp.nl, exp.g1, exp.g2, exp.mesh,
                                                      exp.gamma1, exp.gamma2))
                except NegativeInitialData as exc:
                    errors["H2_H3"] = _error_block(exc)
        if exp.wants_lower():
            reports.extend(bounds_mod.lower_bound_checks(exp.nl, exp.k1, exp.k2, exp.p, exp.mode))
    except RdBlowupError as exc:
        report["hypotheses"] = _error_block(exc)
        raise

    report.update(hypotheses={r.hypothesis: r for r in reports}, **errors)
    if exp.nl.family == "absorption":
        prm = exp.nl.params
        report["absorption_classification"] = nl_mod.classify_absorption(
            prm["p"], prm["q"], prm["r"], prm["s"], prm["a"], prm["b"])
    return EXIT_OK if all(r.holds for r in reports) and not errors else EXIT_FAILED, None


def _compute_bounds(exp: Experiment, report: dict):
    """Each requested bound into `report`, or its refusal's error block; False after one."""
    calls = {}
    if exp.wants_upper():
        calls["upper_bound"] = lambda: bounds_mod.upper_bound_blowup(
            exp.nl, exp.g1, exp.g2, exp.mesh, exp.gamma1, exp.gamma2, exp.alpha)
    if exp.wants_lower():
        calls["lower_bound"] = lambda: bounds_mod.lower_bound_pipeline(
            exp.nl, exp.g1, exp.g2, exp.domain, exp.p, exp.k1, exp.k2, mode=exp.mode)
    ok = True
    for key, call in calls.items():
        try:
            report[key] = call()
        except RdBlowupError as exc:
            report[key], ok = _error_block(exc), False
            if not isinstance(exc, BoundRefused):
                raise
    return ok


def cmd_bounds(exp: Experiment, report: dict):
    if not (exp.wants_upper() or exp.wants_lower()):
        raise ConfigError("config requests no bound (needs alpha and/or p, k1, k2)")
    return EXIT_OK if _compute_bounds(exp, report) else EXIT_FAILED, None


def _simulation_block(exp: Experiment, trace):
    block = {
        "outcome": trace.outcome,
        "n_steps": trace.n_steps,
        "n_rejected": trace.n_rejected,
        "steps_by_pair": trace.steps_by_pair,
        "clamp_count": trace.clamp_count,
        "u_crossed": trace.u_crossed,
        "v_crossed": trace.v_crossed,
        "mirror_axes": trace.mirror_axes,
        "collapsed_axes": trace.collapsed_axes,
    }
    if trace.blowup_estimate is not None:
        block["blowup_estimate"] = trace.blowup_estimate
    if exp.nl.has_potential and exp.alpha is not None:
        block["monitors"] = check_trace_monitors(trace.samples, exp.alpha)
    return block


def cmd_simulate(exp: Experiment, report: dict):
    """The run's simulation block, and EXIT_NUMERICAL where it stopped
    short, which leaves no estimate: its steps underflowed or it reached
    the trial limit."""
    if exp.solver is None:
        raise ConfigError("ball domains cannot be meshed; this command needs a box")
    try:
        exp.mesh.inverse_h2  # the rule of the axes' tridiagonals, which only a simulation needs
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        trace = simulate(exp.solver)
    except RdBlowupError as exc:
        report["simulation"] = _error_block(exc)
        raise
    report["simulation"] = _simulation_block(exp, trace)
    stopped = trace.outcome in (OUTCOME_STEP_UNDERFLOW, OUTCOME_TRIAL_LIMIT)
    return EXIT_NUMERICAL if stopped else EXIT_OK, trace


def cmd_sandwich(exp: Experiment, report: dict):
    _compute_bounds(exp, report)
    code, trace = cmd_simulate(exp, report)

    # each end is an interval (low, high) the estimate must lie in, within
    # tol, keyed by the name of the flag it sets when it does not
    ends = {}
    if hasattr(report.get("upper_bound"), "t_upper"):
        ends["upper"] = (-math.inf, report["upper_bound"].t_upper)
    if hasattr(report.get("lower_bound"), "t_lower"):
        ends["lower"] = (report["lower_bound"].t_lower, math.inf)
    # the ODE oracle applies exactly when the run collapsed along every axis:
    # Neumann walls and data constant to rounding, whose kept cell is the last
    if len(trace.collapsed_axes) == exp.mesh.spec.dimension:
        try:
            oracle = ode_reduce(exp.nl, exp.g1[-1], exp.g2[-1], t_max=exp.solver.t_end)
        # the oracle refuses negative data; its root finder may not converge
        except (ValueError, RuntimeError) as exc:
            report["oracle"] = _error_block(exc)
        else:
            report["oracle"] = {"method": oracle.method, "blowup_time": oracle.blowup_time}
            if oracle.blowup_time is not None:
                t, unc = oracle.blowup_time
                ends["oracle"] = (t - unc, t + unc)

    est = trace.blowup_estimate
    verdict = {"partial": est is None or not {"upper", "lower"} <= ends.keys()}
    if est is not None:
        tol = max(1e-3, 2.0 * est.uncertainty)
        for name, (low, high) in ends.items():
            if not low - tol <= est.t <= high + tol:
                verdict[f"{name}_violated"] = True
                code = EXIT_FAILED
    report["sandwich"] = verdict
    return code, trace


COMMANDS = {
    "check": cmd_check,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "sandwich": cmd_sandwich,
}


def _run_one(command, config_path, out_dir=None, resolution=None):
    """Run a command on a config and write its files: trace.csv, where it
    simulated, then report.json, which after a numerical failure holds the
    blocks computed before it and the error as the block being computed."""
    report, trace, failure = {"command": command}, None, None
    try:
        exp = Experiment(config_path, resolution=resolution)
        try:
            code, trace = COMMANDS[command](exp, report)
        except ConfigError:
            raise
        except RdBlowupError as exc:
            code, failure = EXIT_NUMERICAL, exc
        out = Path(out_dir if out_dir is not None else exp.out_dir)
        if trace is not None:
            _write_trace(trace, out)
        _write_report(report, out)
    except (ConfigError, OSError) as exc:  # OSError: the output path cannot be made
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if failure is not None:
        print(f"numerical failure: {type(failure).__name__}: {failure}", file=sys.stderr)
    return code


def _target(config_path, out_dir):
    """The resolved directory a run of the config writes, out_dir where
    given; None where the file cannot be read, which its run reports."""
    if out_dir is None:
        cfg = configparser.ConfigParser()
        try:
            if not cfg.read(config_path, encoding="utf-8"):
                return None
        except (configparser.Error, ValueError):
            return None
        out_dir = _outputs_directory(cfg)
    return Path(out_dir).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdblowup",
        description="Blow-up time bounds and simulations for two-component "
                    "reaction-diffusion systems.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, nargs="+",
                        help="experiment config file(s), INI format")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default from config)")
    parser.add_argument("--resolution", type=int, default=None,
                        help="a box's cells per axis, in place of its cells_per_axis")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel processes for multiple configs")
    args = parser.parse_args(argv)

    jobs, writers = [], {}
    for cfg_path in args.config:
        out = args.out_dir
        if len(args.config) > 1:  # no two configs may write one directory
            if out is not None:
                out = str(Path(out) / Path(cfg_path).stem)
            target = _target(cfg_path, out)
            if target in writers:
                print(f"config error: {writers[target]} and {cfg_path} would both write "
                      f"{target.name!r} in {target.parent}", file=sys.stderr)
                return EXIT_CONFIG
            if target is not None:
                writers[target] = cfg_path
        jobs.append((args.command, cfg_path, out, args.resolution))

    if len(jobs) == 1 or args.jobs <= 1:
        codes = [_run_one(*job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # other runs skip multiprocessing
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            codes = list(pool.map(_run_one, *zip(*jobs)))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
