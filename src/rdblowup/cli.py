"""Config-driven experiment runner.

Commands: check | bounds | simulate | sandwich.  Experiments are described
by INI-style config files (one experiment per file); outputs are a JSON
report plus, for simulations, a CSV trace and a gnuplot-ready plot.dat.
Reports contain no wall-clock content, so reruns are byte-identical.

Exit codes: 0 success (or partial sandwich), 1 assertion/hypothesis failure,
2 config error, 3 numerical failure.
"""

import argparse
import configparser
import csv
import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import nonlinearity as nl_mod
from .errors import (
    BadExponent,
    ConfigError,
    DimensionNot3,
    HypothesisFailed,
    NonpositiveE0,
    NonpositiveJ0,
    RdBlowupError,
    ResolutionTooCoarse,
)
from .fields import FIELD_KINDS, make_field
from .functionals import ENERGY_SAMPLE_COLUMNS, check_trace_monitors
from .geometry import BALL, BOX, DomainSpec, build_mesh
from .oracle import ode_reduce
from .solver import OUTCOME_STEP_UNDERFLOW, SolverConfig, simulate

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


class Experiment:
    """Resolved experiment configuration."""

    def __init__(self, path: str, resolution=None):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        try:
            self._build(parser, resolution)
        except (KeyError, ValueError, configparser.Error, ResolutionTooCoarse,
                BadExponent) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def _build(self, cfg, resolution):
        dom = cfg["domain"]
        kind = dom.get("kind", BOX)
        dimension = dom.getint("dimension")
        if kind == BOX:
            self.spec = DomainSpec(kind=BOX, dimension=dimension,
                                   half_extents=_floats(dom["half_extents"]))
            cells = ((resolution,) if resolution is not None
                     else _ints(dom["cells_per_axis"]))
            self.mesh = build_mesh(self.spec, cells[0] if len(cells) == 1 else cells)
        else:
            self.spec = DomainSpec(kind=BALL, dimension=dimension,
                                   radius=dom.getfloat("radius"))
            self.mesh = None

        nls = cfg["nonlinearity"]
        family = nls["family"]
        if family == "power_product":
            if "a_exp" not in nls or "b_exp" not in nls:
                raise ConfigError("power_product needs both a_exp and b_exp")
            self.nl = nl_mod.make_power_product(
                nls.getfloat("c", 1.0), nls.getfloat("a_exp"), nls.getfloat("b_exp"))
        elif family == "gradient_homogeneous":
            shape_name = nls.get("h", "constant")
            shape = nl_mod.SHAPE_CATALOG[shape_name](
                {"m": nls.getfloat("h_m", 1.0), "value": nls.getfloat("h_value", 1.0)})
            self.nl = nl_mod.make_gradient_homogeneous(
                nls.getfloat("c", 1.0), nls.getfloat("alpha"), shape)
        elif family == "absorption":
            self.nl = nl_mod.make_absorption(
                nls.getfloat("p"), nls.getfloat("q"), nls.getfloat("r"),
                nls.getfloat("s"), nls.getfloat("a"), nls.getfloat("b"))
        else:
            raise ConfigError(f"unknown nonlinearity family {family!r}")
        self.nl_family = family

        init = cfg["initial_data"] if cfg.has_section("initial_data") else {}
        self.init_kind = init.get("kind", "constant")
        if self.init_kind not in FIELD_KINDS:
            raise ConfigError(f"unknown initial_data kind {self.init_kind!r}; "
                              f"expected one of {', '.join(FIELD_KINDS)}")
        self.c1 = float(init.get("c1", 1.0))
        self.c2 = float(init.get("c2", 1.0))
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ConfigError(f"initial_data c1 and c2 must be finite, "
                              f"got {self.c1:g} and {self.c2:g}")
        self.init_params_u = {"c": self.c1,
                              "epsilon": float(init.get("epsilon", 0.0)),
                              "amplitude": float(init.get("amplitude", 0.0)),
                              "width": float(init.get("width", 1.0))}
        self.init_params_v = {"c": self.c2, "epsilon": 0.0,
                              "amplitude": 0.0, "width": 1.0}

        robin = cfg["robin"] if cfg.has_section("robin") else {}
        self.gamma1 = float(robin.get("gamma1", 0.0))
        self.gamma2 = float(robin.get("gamma2", 0.0))
        for name, gamma in (("gamma1", self.gamma1), ("gamma2", self.gamma2)):
            if not 0 <= gamma < math.inf:
                raise ConfigError(f"robin.{name} must be finite and >= 0, got {gamma:g}")

        hyp = cfg["hypothesis"] if cfg.has_section("hypothesis") else {}
        self.alpha = float(hyp["alpha"]) if "alpha" in hyp else None
        self.p = float(hyp["p"]) if "p" in hyp else None
        self.k1 = float(hyp["k1"]) if "k1" in hyp else None
        self.k2 = float(hyp["k2"]) if "k2" in hyp else None
        self.mode = hyp.get("mode", bounds_mod.MODE_A2PRIME)
        if self.mode not in (bounds_mod.MODE_A2PRIME, bounds_mod.MODE_A2A3):
            raise ConfigError(f"unknown hypothesis mode {self.mode!r}; expected "
                              f"{bounds_mod.MODE_A2PRIME} or {bounds_mod.MODE_A2A3}")
        lo = float(hyp.get("box_min", 1e-3))
        hi = float(hyp.get("box_max", 1e3))
        if not 0 < lo <= hi < float("inf"):
            raise ConfigError(f"hypothesis sample box [{lo:g}, {hi:g}] must satisfy "
                              "0 < box_min <= box_max < inf")
        self.check_box = ((lo, hi), (lo, hi))
        self.check_samples = int(hyp.get("samples_per_axis", 64))
        if self.check_samples < 1:
            raise ConfigError(f"hypothesis.samples_per_axis must be >= 1, "
                              f"got {self.check_samples}")

        sol = cfg["solver"] if cfg.has_section("solver") else {}
        self.t_end = float(sol.get("t_end", 1.0))
        self.dt_init = float(sol.get("dt_init", 1e-6))
        self.dt_min = float(sol.get("dt_min", 1e-14))
        self.dt_max = float(sol.get("dt_max", 0.1))
        self.rel_tol = float(sol.get("rel_tol", 1e-8))
        self.abs_tol = float(sol.get("abs_tol", 1e-10))
        self.sup_threshold = float(sol.get("sup_threshold", 1e8))
        self.sample_stride = int(sol.get("sample_stride", 1))
        if self.sample_stride < 1:
            raise ConfigError(f"solver.sample_stride must be >= 1, got {self.sample_stride}")

        out = cfg["outputs"] if cfg.has_section("outputs") else {}
        self.out_dir = out.get("directory", "out")

    # --- derived pieces -------------------------------------------------
    def initial_fields(self):
        if self.mesh is None:
            raise ConfigError("ball domains cannot be meshed; this command needs a box")
        g1 = make_field(self.mesh, self.init_kind, self.init_params_u)
        g2 = make_field(self.mesh, "constant", self.init_params_v)
        return g1, g2

    def wants_upper(self):
        return self.alpha is not None and self.nl.has_potential and self.mesh is not None

    def wants_lower(self):
        return self.p is not None and self.k1 is not None and self.k2 is not None

    def solver_config(self):
        g1, g2 = self.initial_fields()
        try:
            return SolverConfig(
                mesh=self.mesh, nl=self.nl, gamma1=self.gamma1, gamma2=self.gamma2,
                g1=g1, g2=g2, t_end=self.t_end, dt_init=self.dt_init,
                dt_min=self.dt_min, dt_max=self.dt_max, rel_tol=self.rel_tol,
                abs_tol=self.abs_tol, sup_threshold=self.sup_threshold,
                sample_stride=self.sample_stride,
                alpha=self.alpha if self.alpha is not None else 1.0,
                p=self.p,
            )
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from exc


def _as_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _as_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj):  # NaN -> null for JSON
        return None
    return obj


def _error_block(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _write_report(report, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_as_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False)
    (out_dir / "report.json").write_text(text + "\n")
    return text


def _write_trace(trace, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [s.row() for s in trace.samples]
    with open(out_dir / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENERGY_SAMPLE_COLUMNS)
        writer.writerows(rows)
    with open(out_dir / "plot.dat", "w") as fh:
        fh.write("# " + " ".join(ENERGY_SAMPLE_COLUMNS) + "\n")
        for row in rows:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


# --- commands -----------------------------------------------------------

def cmd_check(exp: Experiment, out_dir: Path) -> int:
    reports = []
    if exp.nl.has_potential and exp.alpha is not None:
        reports.append(nl_mod.check_H1(exp.nl, exp.alpha, box=exp.check_box,
                                       samples_per_axis=exp.check_samples))
        if exp.mesh is not None:
            g1, g2 = exp.initial_fields()
            reports.extend(nl_mod.check_H2_H3(exp.nl, g1, g2, exp.mesh,
                                              exp.gamma1, exp.gamma2))
    if exp.wants_lower():
        reports.extend(bounds_mod._lower_bound_checks(
            exp.nl, exp.k1, exp.k2, exp.p, exp.mode, exp.check_box, exp.check_samples))
    if exp.nl_family == "absorption":
        prm = exp.nl.params
        reports_extra = nl_mod.classify_absorption(
            prm["p"], prm["q"], prm["r"], prm["s"], prm["a"], prm["b"])
    else:
        reports_extra = None

    report = {"command": "check",
              "hypotheses": {r.hypothesis: r for r in reports}}
    if reports_extra is not None:
        report["absorption_classification"] = reports_extra
    _write_report(report, out_dir)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED


def _compute_bounds(exp: Experiment):
    block = {}
    ok = True
    if exp.wants_upper():
        try:
            g1, g2 = exp.initial_fields()
            block["upper_bound"] = bounds_mod.upper_bound_blowup(
                exp.nl, g1, g2, exp.mesh, exp.gamma1, exp.gamma2, exp.alpha,
                check_box=exp.check_box, samples_per_axis=exp.check_samples)
        except (HypothesisFailed, NonpositiveJ0, NonpositiveE0, ConfigError) as exc:
            block["upper_bound"] = _error_block(exc)
            ok = False
    if exp.wants_lower():
        try:
            if exp.mesh is not None:
                g1, g2 = exp.initial_fields()
                domain = exp.mesh
            else:
                g1, g2, domain = exp.c1, exp.c2, exp.spec
            block["lower_bound"] = bounds_mod.lower_bound_pipeline(
                exp.nl, g1, g2, domain, exp.p, exp.k1, exp.k2, mode=exp.mode,
                check_box=exp.check_box, samples_per_axis=exp.check_samples)
        except (HypothesisFailed, DimensionNot3, NonpositiveE0) as exc:
            block["lower_bound"] = _error_block(exc)
            ok = False
    return block, ok


def cmd_bounds(exp: Experiment, out_dir: Path) -> int:
    block, ok = _compute_bounds(exp)
    if not block:
        raise ConfigError("config requests no bound (needs alpha and/or p, k1, k2)")
    report = {"command": "bounds", **block}
    _write_report(report, out_dir)
    return EXIT_OK if ok else EXIT_FAILED


def _simulation_block(exp: Experiment, trace):
    block = {
        "outcome": trace.outcome,
        "n_steps": trace.n_steps,
        "n_rejected": trace.n_rejected,
        "clamp_count": trace.clamp_count,
        "u_crossed": trace.u_crossed,
        "v_crossed": trace.v_crossed,
    }
    if trace.blowup_estimate is not None:
        block["blowup_estimate"] = trace.blowup_estimate
    if exp.nl.has_potential and exp.alpha is not None:
        mon = check_trace_monitors(trace.samples, exp.alpha)
        block["monitors"] = mon
    return block


def cmd_simulate(exp: Experiment, out_dir: Path) -> int:
    trace = simulate(exp.solver_config())
    _write_trace(trace, out_dir)
    report = {"command": "simulate", "simulation": _simulation_block(exp, trace)}
    _write_report(report, out_dir)
    if trace.outcome == OUTCOME_STEP_UNDERFLOW and trace.blowup_estimate is None:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sandwich(exp: Experiment, out_dir: Path) -> int:
    block, _ = _compute_bounds(exp)
    trace = simulate(exp.solver_config())
    _write_trace(trace, out_dir)
    report = {"command": "sandwich", **block,
              "simulation": _simulation_block(exp, trace)}

    # ODE oracle applies exactly when the problem is spatially homogeneous
    if exp.gamma1 == 0 and exp.gamma2 == 0 and exp.init_kind == "constant":
        oracle = ode_reduce(exp.nl, exp.c1, exp.c2, t_max=exp.t_end)
        report["oracle"] = {
            "method": oracle.method,
            "blowup_time": oracle.blowup_time,
        }

    upper = block.get("upper_bound")
    lower = block.get("lower_bound")
    t_upper = upper.t_upper if hasattr(upper, "t_upper") else None
    t_lower = lower.t_lower if hasattr(lower, "t_lower") else None
    est = trace.blowup_estimate

    verdict = {"partial": t_upper is None or t_lower is None or est is None}
    code = EXIT_OK
    if est is not None:
        tol = max(1e-3, 2.0 * est.uncertainty)
        if t_upper is not None and est.t > t_upper + tol:
            verdict["upper_violated"] = True
            code = EXIT_FAILED
        if t_lower is not None and est.t < t_lower - tol:
            verdict["lower_violated"] = True
            code = EXIT_FAILED
    report["sandwich"] = verdict
    _write_report(report, out_dir)
    return code


COMMANDS = {
    "check": cmd_check,
    "bounds": cmd_bounds,
    "simulate": cmd_simulate,
    "sandwich": cmd_sandwich,
}


def _run_one(command, config_path, out_dir=None, resolution=None):
    try:
        exp = Experiment(config_path, resolution=resolution)
        return COMMANDS[command](exp, Path(out_dir if out_dir is not None else exp.out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RdBlowupError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


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
                        help="override cells per axis")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel processes for multiple configs")
    args = parser.parse_args(argv)

    jobs = []
    for cfg_path in args.config:
        out = args.out_dir
        if out is not None and len(args.config) > 1:
            out = str(Path(out) / Path(cfg_path).stem)
        jobs.append((args.command, cfg_path, out, args.resolution))

    if len(jobs) == 1 or args.jobs <= 1:
        codes = [_run_one(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(_run_one, *zip(*jobs)))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
