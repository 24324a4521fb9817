"""The benchmark's three workloads: seeded inputs, one op each, and checks.

Each workload generates its inputs from the seed, runs one op at a time
(the only timed part), and checks every result against `reference`
outside the timed region.  A check returns None when the result is right,
or a reason: "uncaught <Type>", "wrong exit code ..." or
"value mismatch: ...".  Ops never raise: an exception escaping the
program is returned as the result.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import reference as ref


@dataclass
class CliResult:
    code: Optional[int]
    exc: Optional[BaseException]
    stderr: str


def _ini(sections):
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, (tuple, list)):
                value = " ".join(repr(float(x)) for x in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _output_bytes(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).glob("*") if p.is_file())


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    nominal_op_s = 1.0    # op time when the benchmark was defined
    quick_op_s = 1.0
    # The reference kernel of calibrate.py, timed between batches of ops
    # of about a second: array size, steps, repeats per sample, and its
    # seconds per repeat when the benchmark was defined.
    calibration = (16, 1600, 8, 0.094)
    # How op time follows kernel time on a drifting machine: the slope of
    # log(op time) on log(kernel time) over the ops of the runs that
    # defined the benchmark.  The ops respond less than the kernel, which
    # is pure arithmetic; bounds-sweep, not in BENCHMARK.json, is not
    # fitted and takes 1.
    elasticity = 1.0

    def __init__(self, rd, work_dir, seed, quick=False):
        self.rd = rd
        self.work = Path(work_dir)
        self.seed = seed
        self.quick = quick
        self.errors = []  # accuracy figures of the checked ops

    def op_seconds(self):
        return self.quick_op_s if self.quick else self.nominal_op_s

    def batch_ops(self):
        """Ops between two timings of the reference kernel."""
        return max(1, round(1.0 / self.op_seconds()))

    def prepare(self, op):
        """Untimed: remove the op's previous outputs."""

    def bytes_written(self, op):
        return 0

    def accuracy(self):
        return {}

    def probes(self):
        return []

    def _run_cli(self, argv):
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            try:
                code = self.rd.cli.main(argv)
            except Exception as exc:  # op boundary: the escape is the result
                return CliResult(None, exc, captured.getvalue())
        return CliResult(code, None, captured.getvalue())


def _cli_reason(res, expected_code):
    if res.exc is not None:
        return f"uncaught {type(res.exc).__name__}"
    if res.code != expected_code:
        return f"wrong exit code {res.code} (expected {expected_code})"
    return None


# --- blowup-flat3d ---------------------------------------------------------

class BlowupFlat3d(Workload):
    """CLI `sandwich` of F = c u^2 v^2, alpha = 1, Neumann walls, flat data
    u0 = v0 = c0 on a 16^3 box; exact answer t* = t_upper = 1/(4 c c0^2)."""

    name = "blowup-flat3d"
    nominal_op_s = 9.0
    quick_op_s = 1.0
    calibration = (16, 1600, 12, 0.094)
    elasticity = 0.85         # fitted over 100 ops
    T_REL_TOL = 1e-6          # blow-up estimate against t*
    QUICK_T_REL_TOL = 1e-4    # quick mode runs at 8^3 and rel_tol 1e-6

    def _config(self, path, c, c0, t_end, out_dir):
        cells = 8 if self.quick else 16
        solver = {"t_end": t_end}
        if self.quick:
            solver["rel_tol"] = 1e-6
        path.write_text(_ini({
            "domain": {"kind": "box", "dimension": 3, "half_extents": (1, 1, 1),
                       "cells_per_axis": cells},
            "nonlinearity": {"family": "power_product", "c": c, "a_exp": 2, "b_exp": 2},
            "initial_data": {"kind": "constant", "c1": c0, "c2": c0},
            "hypothesis": {"alpha": 1.0, "p": 2, "k1": 3.0 * c, "k2": 3.0 * c,
                           "mode": "A2prime"},
            "solver": solver,
            "outputs": {"directory": str(out_dir)},
        }))

    def generate(self, n_ops):
        rng = np.random.default_rng(self.seed)
        ops = []
        for i in range(n_ops):
            c, c0 = (float(x) for x in rng.uniform(0.95, 1.05, 2))
            path, out = self.work / f"sandwich{i}.ini", self.work / f"out{i}"
            self._config(path, c, c0, 1.0, out)
            ops.append({"path": str(path), "out": out, "c": c, "c0": c0})
        return ops

    def warm_up(self):
        path, out = self.work / "warmup.ini", self.work / "warmup"
        self._config(path, 1.0, 1.0, 0.02, out)
        return _cli_reason(self._run_cli(["sandwich", "--config", str(path)]), 0)

    def prepare(self, op):
        for name in ("report.json", "trace.csv", "plot.dat"):
            (op["out"] / name).unlink(missing_ok=True)

    def run(self, op, tracer=None):
        return self._run_cli(["sandwich", "--config", op["path"]])

    def bytes_written(self, op):
        return _output_bytes(op["out"])

    def check(self, op, res):
        reason = _cli_reason(res, 0)
        if reason:
            return reason
        c, c0 = op["c"], op["c0"]
        t_star = ref.flat_power_product_blowup(c, c0)
        report = json.loads((op["out"] / "report.json").read_text())
        sim = report["simulation"]
        est = (sim.get("blowup_estimate") or {}).get("t")
        if sim["outcome"] != "blowup_detected" or est is None:
            return "value mismatch: no blow-up detected"
        err = _rel(est, t_star)
        self.errors.append(err)
        if err > (self.QUICK_T_REL_TOL if self.quick else self.T_REL_TOL):
            return "value mismatch: blow-up estimate"
        if _rel(report["upper_bound"]["t_upper"], t_star) > 1e-12:
            return "value mismatch: t_upper"
        if _rel(report["oracle"]["blowup_time"][0], t_star) > 1e-8:
            return "value mismatch: oracle blow-up time"
        rho, d = ref.geometry_constants(half=(1.0, 1.0, 1.0))
        K1, K2 = ref.lower_bound_constants(2.0, 3.0 * c, 3.0 * c, rho, d)
        t_lower = ref.t_lower_trapezoid(2.0 * c0**4 * ref.box_volume((1, 1, 1)), K1, K2)
        if _rel(report["lower_bound"]["t_lower"], t_lower) > 1e-8 or t_lower > t_star:
            return "value mismatch: t_lower"
        verdict = report["sandwich"]
        if verdict.get("partial") or verdict.get("upper_violated") or verdict.get("lower_violated"):
            return "value mismatch: sandwich verdict"
        if sim["monitors"]["j_monotone_violations"] != 0:
            return "value mismatch: J not monotone"
        with open(op["out"] / "trace.csv") as fh:
            header, first = fh.readline(), fh.readline()
            rows = 1 + sum(1 for _ in fh)
        if rows != sim["n_steps"] + 1:
            return "value mismatch: trace rows"
        row = dict(zip(header.strip().split(","), map(float, first.split(","))))
        if _rel(row["E"], 2.0 * c0 * c0 * ref.box_volume((1, 1, 1))) > 1e-12:
            return "value mismatch: E(0) in trace"
        return None

    def accuracy(self):
        return {"blowup_t_rel_err": (max(self.errors, default=float("nan")), "1")}


# --- heat-robin3d ------------------------------------------------------------

def zero_reaction(rd):
    """f1 = f2 = 0: pure heat flow."""
    return rd.Nonlinearity(family="zero", params={},
                           f1=lambda u, v: np.zeros_like(u),
                           f2=lambda u, v: np.zeros_like(v))


class HeatRobin3d(Workload):
    """Library `simulate` with zero reaction on a 40^3 box; u and v are
    separable Robin heat modes, exact at every time."""

    name = "heat-robin3d"
    nominal_op_s = 5.2
    quick_op_s = 0.1
    calibration = (40, 200, 6, 0.14)
    elasticity = 0.72         # fitted over 175 ops
    T_END = 0.05
    MAX_ERR = 2e-4            # field max-norm error against the exact modes
    QUICK_MAX_ERR = 5e-3      # quick mode runs at 12^3

    def generate(self, n_ops):
        rd = self.rd
        n = 12 if self.quick else 40
        self.centers = ref.cell_centers(n, 3)
        self.mesh = rd.build_mesh(rd.DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0)), n)
        self.zero = zero_reaction(rd)
        rng = np.random.default_rng(self.seed)
        ops = []
        for _ in range(n_ops):
            lam1, lam2 = (float(x) for x in rng.uniform(0.5, 1.2, 2))
            ops.append({"lam": (lam1, lam2),
                        "gamma": (ref.robin_gamma(lam1), ref.robin_gamma(lam2)),
                        "g": tuple(ref.robin_mode(self.centers, lam, 0.0) for lam in (lam1, lam2)),
                        "t_end": self.T_END})
        return ops

    def warm_up(self):
        op = self.generate(1)[0]
        op["t_end"] = 0.002
        res = self.run(op)
        return f"uncaught {type(res).__name__}" if isinstance(res, Exception) else None

    def run(self, op, tracer=None):
        rd = self.rd
        nl = tracer.wrap_nonlinearity(self.zero) if tracer else self.zero
        try:
            return rd.simulate(rd.SolverConfig(
                mesh=self.mesh, nl=nl, gamma1=op["gamma"][0], gamma2=op["gamma"][1],
                g1=op["g"][0], g2=op["g"][1], t_end=op["t_end"]))
        except Exception as exc:  # op boundary: the escape is the result
            return exc

    def check(self, op, trace):
        if isinstance(trace, Exception):
            return f"uncaught {type(trace).__name__}"
        if not np.allclose(self.mesh.cell_centers, self.centers, rtol=0.0, atol=1e-12):
            return "value mismatch: cell centres"
        if trace.outcome != "reached_t_end" or trace.n_rejected != 0:
            return "value mismatch: outcome"
        final = trace.final_fields
        if abs(final.t - op["t_end"]) > 1e-12:
            return "value mismatch: final time"
        err = max(float(np.max(np.abs(got - ref.robin_mode(self.centers, lam, final.t))))
                  for got, lam in ((final.u, op["lam"][0]), (final.v, op["lam"][1])))
        self.errors.append(err)
        if err > (self.QUICK_MAX_ERR if self.quick else self.MAX_ERR):
            return "value mismatch: field error"
        return None

    def accuracy(self):
        return {"field_max_err": (max(self.errors, default=float("nan")), "1")}


# --- bounds-sweep --------------------------------------------------------------

@dataclass
class SweepConfig:
    command: str
    sections: dict = field(default_factory=dict)
    expect_code: int = 0
    hypotheses: dict = field(default_factory=dict)   # name -> (holds, margin | None)
    classification: Optional[str] = None
    upper: Optional[tuple] = None    # ("error", type) | ("value", E0, J0, t_upper)
    lower: Optional[tuple] = None    # ("error", type) | ("value", scriptE0, K1, K2, t_lower)
    path: str = ""
    out: Optional[Path] = None


# kinds in a fixed cyclic mix: 1 in 20 configs is malformed
_MIX = ("power_product",) * 7 + ("gradient_homogeneous",) * 4 + ("absorption",) * 3 \
    + ("ball",) * 4 + ("power_product", "malformed")

_MALFORMED = (
    ("unknown family", lambda s: s["nonlinearity"].update(family="power_sum")),
    ("non-numeric coefficient", lambda s: s["nonlinearity"].update(c="abc")),
    ("dimension 4", lambda s: s["domain"].update(dimension=4)),
    ("no nonlinearity section", lambda s: s.pop("nonlinearity")),
)

# Inputs the CLI should reject with exit 2.  They are run once per run,
# untimed, and reported apart: on the commit that defined the benchmark
# they escape `main` as uncaught exceptions.
_PROBES = (
    ("unknown initial_data.kind, check", "check",
     lambda s: s["initial_data"].update(kind="bogus")),
    ("unknown initial_data.kind, bounds", "bounds",
     lambda s: s["initial_data"].update(kind="bogus")),
    ("power_product without a_exp", "check",
     lambda s: s["nonlinearity"].pop("a_exp")),
)


def _robin(rng, nl, c1, c2, half):
    """Robin coefficients: Neumann, a drain that makes J(0) < 0 while H2
    and H3 each hold, or arbitrary."""
    pick = rng.random()
    if pick < 0.35:
        return 0.0, 0.0
    if pick < 0.7:
        two_int_F = 2.0 * ref.potential(nl, c1, c2) * ref.box_volume(half)
        s1, s2 = rng.uniform(0.55, 0.9, 2)
        S = ref.box_surface(half)
        return float(s1 * two_int_F / (c1 * c1 * S)), float(s2 * two_int_F / (c2 * c2 * S))
    return tuple(float(g) for g in rng.uniform(0.0, 2.0, 2))


# Cost-relevant choices (domain, mesh size, command) cycle with the
# config's index within its kind, so every seed gives the same mix of op
# costs; only coefficients and exponents are drawn from the seed.
BOX_SHAPES = tuple((dim, cells) for cells in (8, 12, 16, 24, 32) for dim in (2, 3))


def _command(j):
    return ("check", "bounds")[(j // len(BOX_SHAPES)) % 2]


def _box_domain(rng, shape):
    dim, cells = shape
    half = tuple(round(float(rng.uniform(0.5, 1.5)), 3) for _ in range(dim))
    return dim, half, {"kind": "box", "dimension": dim, "half_extents": half,
                       "cells_per_axis": cells}


def _alpha_either_side(rng, degree):
    """alpha below the H1 threshold a+b = 2(1+alpha) (H1 holds) or above it."""
    threshold = degree / 2.0 - 1.0
    if threshold > 0.1 and rng.random() < 0.6:
        return float(threshold * rng.uniform(0.3, 0.85))
    return float(threshold + rng.uniform(0.25, 1.0))


def _a2prime_k(rng, c, m):
    return float(c * m * (rng.uniform(1.3, 3.0) if rng.random() < 0.7 else rng.uniform(0.3, 0.75)))


def _expect_gradient_box(cfg, nl, alpha, c1, c2, gammas, half, dim, lower):
    """Expectations for a potential family with constant data on a box."""
    e = ref.constant_data_energies(nl, c1, c2, gammas[0], gammas[1], alpha, half)
    if min(abs(e["H2"]), abs(e["H3"]), abs(e["J0"]) / e["E0"]) < 1e-3:
        return False
    cfg.hypotheses = {"H1": (ref.h1_holds(nl, alpha), ref.h1_margin(nl, alpha)),
                      "H2": (e["H2"] >= -ref.HOLD_TOL, e["H2"]),
                      "H3": (e["H3"] >= -ref.HOLD_TOL, e["H3"])}
    if not all(h[0] for h in cfg.hypotheses.values()):
        cfg.upper = ("error", "HypothesisFailed")
    elif e["J0"] <= 0:
        cfg.upper = ("error", "NonpositiveJ0")
    else:
        cfg.upper = ("value", e["E0"], e["J0"], e["E0"] / (alpha * e["J0"]))
    if lower is not None:
        p, k, margin = lower
        cfg.hypotheses["A2prime"] = (margin >= -ref.HOLD_TOL, margin)
        if dim != 3:
            cfg.lower = ("error", "DimensionNot3")
        elif margin < 0:
            cfg.lower = ("error", "HypothesisFailed")
        else:
            cfg.lower = _lower_value(p, k, (c1 ** (2 * p) + c2 ** (2 * p)) * ref.box_volume(half),
                                     *ref.geometry_constants(half=half))
    return True


def _lower_value(p, k, scriptE0, rho, d):
    K1, K2 = ref.lower_bound_constants(p, k, k, rho, d)
    return ("value", scriptE0, K1, K2, ref.t_lower_trapezoid(scriptE0, K1, K2))


def _finish(cfg, sections):
    if cfg.command == "check":
        cfg.expect_code = 0 if all(h[0] for h in cfg.hypotheses.values()) else 1
        cfg.upper = cfg.lower = None
    else:
        blocks = [b for b in (cfg.upper, cfg.lower) if b is not None]
        cfg.expect_code = 1 if any(b[0] == "error" for b in blocks) else 0
        cfg.hypotheses = {}
    cfg.sections = sections
    return cfg


def _power_product_config(rng, j, shapes=BOX_SHAPES):
    while True:
        dim, half, domain = _box_domain(rng, shapes[j % len(shapes)])
        a, b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        c, c1, c2 = float(rng.uniform(0.5, 2.0)), *(float(x) for x in rng.uniform(0.5, 1.5, 2))
        nl = {"family": "power_product", "c": c, "a": a, "b": b}
        alpha = _alpha_either_side(rng, a + b)
        gammas = _robin(rng, nl, c1, c2, half)
        sections = {"domain": domain,
                    "nonlinearity": {"family": "power_product", "c": c, "a_exp": a, "b_exp": b},
                    "initial_data": {"kind": "constant", "c1": c1, "c2": c2},
                    "robin": {"gamma1": gammas[0], "gamma2": gammas[1]},
                    "hypothesis": {"alpha": alpha}}
        lower = None
        if a == b and a in (2, 3) and rng.random() < 0.7:
            p, k = 2 * a - 2, _a2prime_k(rng, c, a)
            sections["hypothesis"].update(p=p, k1=k, k2=k, mode="A2prime")
            lower = (p, k, ref.a2prime_margin(c, a, k))
        cfg = SweepConfig(_command(j))
        if _expect_gradient_box(cfg, nl, alpha, c1, c2, gammas, half, dim, lower):
            return _finish(cfg, sections)


def _gradient_homogeneous_config(rng, j):
    while True:
        dim, half, domain = _box_domain(rng, BOX_SHAPES[j % len(BOX_SHAPES)])
        c, c1, c2 = float(rng.uniform(0.5, 2.0)), *(float(x) for x in rng.uniform(0.5, 1.5, 2))
        alpha_f = float(rng.uniform(0.3, 1.5))
        kind = str(rng.choice(["constant", "power", "exp_decay"]))
        arg = {"constant": float(rng.uniform(0.5, 2.0)), "power": float(rng.integers(1, 3)),
               "exp_decay": None}[kind]
        nl = {"family": "gradient_homogeneous", "c": c, "alpha": alpha_f, "shape": (kind, arg)}
        pick = rng.random()
        alpha = (alpha_f if pick < 0.4 else alpha_f * float(rng.uniform(0.4, 0.85))
                 if pick < 0.7 else alpha_f + float(rng.uniform(0.25, 1.0)))
        gammas = _robin(rng, nl, c1, c2, half)
        nl_section = {"family": "gradient_homogeneous", "c": c, "alpha": alpha_f, "h": kind}
        if kind == "constant":
            nl_section["h_value"] = arg
        elif kind == "power":
            nl_section["h_m"] = arg
        sections = {"domain": domain, "nonlinearity": nl_section,
                    "initial_data": {"kind": "constant", "c1": c1, "c2": c2},
                    "robin": {"gamma1": gammas[0], "gamma2": gammas[1]},
                    "hypothesis": {"alpha": alpha}}
        cfg = SweepConfig(_command(j))
        if _expect_gradient_box(cfg, nl, alpha, c1, c2, gammas, half, dim, None):
            return _finish(cfg, sections)


def _absorption_config(rng, j):
    branch = str(rng.choice(["blowup_exists", "all_global_bounded", "threshold_global",
                             "threshold_global_bounded", "threshold_blowup_small_ab"]))
    while True:
        p, q, r, s = (float(x) for x in rng.integers(1, 5, 4))
        a, b = (float(x) for x in rng.uniform(0.05, 2.0, 2))
        if ref.classify_absorption(p, q, r, s, a, b) == branch \
                and abs(math.log(a**q * b**r)) > 1e-3:
            break
    if j % 3 == 0:
        domain = {"kind": "ball", "dimension": 3, "radius": float(rng.uniform(0.5, 2.0))}
    else:
        domain = _box_domain(rng, BOX_SHAPES[j % 6])[2]
    sections = {"domain": domain,
                "nonlinearity": {"family": "absorption", "p": p, "q": q, "r": r, "s": s,
                                 "a": a, "b": b},
                "initial_data": {"kind": "constant", "c1": 1.0, "c2": 1.0}}
    cfg = SweepConfig("check", classification=branch)
    return _finish(cfg, sections)


def _ball_config(rng, j):
    radius = float(rng.uniform(0.5, 2.0))
    m = int(rng.choice([2, 3]))
    c, c1, c2 = float(rng.uniform(0.5, 2.0)), *(float(x) for x in rng.uniform(0.5, 1.5, 2))
    p, k = 2 * m - 2, _a2prime_k(rng, c, m)
    margin = ref.a2prime_margin(c, m, k)
    nl = {"family": "power_product", "c": c, "a": m, "b": m}
    hyp = {"p": p, "k1": k, "k2": k, "mode": "A2prime"}
    cfg = SweepConfig(("check", "bounds")[j % 2])
    cfg.hypotheses = {"A2prime": (margin >= -ref.HOLD_TOL, margin)}
    if rng.random() < 0.5:
        hyp["alpha"] = _alpha_either_side(rng, 2 * m)
        cfg.hypotheses["H1"] = (ref.h1_holds(nl, hyp["alpha"]), ref.h1_margin(nl, hyp["alpha"]))
    if margin < 0:
        cfg.lower = ("error", "HypothesisFailed")
    else:
        cfg.lower = _lower_value(p, k, (c1 ** (2 * p) + c2 ** (2 * p)) * ref.ball_volume(radius),
                                 *ref.geometry_constants(radius=radius))
    sections = {"domain": {"kind": "ball", "dimension": 3, "radius": radius},
                "nonlinearity": {"family": "power_product", "c": c, "a_exp": m, "b_exp": m},
                "initial_data": {"kind": "constant", "c1": c1, "c2": c2},
                "hypothesis": hyp}
    return _finish(cfg, sections)


def _malformed_config(rng, j):
    _, spoil = _MALFORMED[j % len(_MALFORMED)]
    sections = _power_product_config(rng, j).sections
    spoil(sections)
    return SweepConfig(("check", "bounds")[j % 2], sections, 2)


class BoundsSweep(Workload):
    """Many small CLI `check` / `bounds` ops over a seeded pool of configs;
    no simulation, so `solver` and `oracle` are bypassed."""

    name = "bounds-sweep"
    nominal_op_s = 0.0033
    quick_op_s = 0.0033
    POOL = 240
    QUICK_POOL = 40

    def generate(self, n_ops):
        rng = np.random.default_rng(self.seed)
        pool_size = self.QUICK_POOL if self.quick else self.POOL
        makers = {"power_product": _power_product_config,
                  "gradient_homogeneous": _gradient_homogeneous_config,
                  "absorption": _absorption_config, "ball": _ball_config,
                  "malformed": _malformed_config}
        pool, made = [], {kind: 0 for kind in makers}
        for i in range(pool_size):
            kind = _MIX[i % len(_MIX)]
            cfg = makers[kind](rng, made[kind])
            made[kind] += 1
            pool.append(self._write(cfg, f"cfg{i}"))
        order = rng.permutation(pool_size)
        self.pool = [pool[j] for j in order]
        return [self.pool[i % pool_size] for i in range(n_ops)]

    def _write(self, cfg, stem):
        cfg.out = self.work / stem
        cfg.sections["outputs"] = {"directory": str(cfg.out)}
        path = self.work / f"{stem}.ini"
        path.write_text(_ini(cfg.sections))
        cfg.path = str(path)
        return cfg

    def warm_up(self):
        cfg = self.pool[0]
        self.prepare(cfg)
        return self.check(cfg, self.run(cfg))

    def prepare(self, cfg):
        if cfg.out is not None:
            (cfg.out / "report.json").unlink(missing_ok=True)

    def run(self, cfg, tracer=None):
        return self._run_cli([cfg.command, "--config", cfg.path])

    def bytes_written(self, cfg):
        return _output_bytes(cfg.out) if cfg.out.is_dir() else 0

    def check(self, cfg, res):
        reason = _cli_reason(res, cfg.expect_code)
        if reason:
            return reason
        report_path = cfg.out / "report.json"
        if cfg.expect_code == 2:
            if report_path.exists() or "config error" not in res.stderr:
                return "value mismatch: config error not reported"
            return None
        report = json.loads(report_path.read_text())
        if cfg.command == "check":
            return self._check_hypotheses(cfg, report)
        for key, expected in (("upper_bound", cfg.upper), ("lower_bound", cfg.lower)):
            reason = self._check_bound(key, expected, report.get(key))
            if reason:
                return reason
        return None

    @staticmethod
    def _check_hypotheses(cfg, report):
        got = report["hypotheses"]
        if set(got) != set(cfg.hypotheses):
            return "value mismatch: hypothesis set"
        for name, (holds, margin) in cfg.hypotheses.items():
            if got[name]["holds"] != holds:
                return f"value mismatch: {name} verdict"
            if margin is not None and abs(got[name]["margin"] - margin) > 1e-9:
                return f"value mismatch: {name} margin"
        if report.get("absorption_classification") != cfg.classification:
            return "value mismatch: absorption classification"
        return None

    @staticmethod
    def _check_bound(key, expected, got):
        if expected is None:
            return None if got is None else f"value mismatch: unexpected {key}"
        if got is None:
            return f"value mismatch: missing {key}"
        if expected[0] == "error":
            if got.get("error", {}).get("type") != expected[1]:
                return f"value mismatch: {key} error type"
            return None
        if "error" in got:
            return f"value mismatch: {key} refused"
        names = ("E0", "J0", "t_upper") if key == "upper_bound" else ("scriptE0", "K1", "K2")
        for name, value in zip(names, expected[1:]):
            if _rel(got[name], value) > 1e-10:
                return f"value mismatch: {name}"
        if key == "lower_bound" and _rel(got["t_lower"], expected[4]) > 1e-8:
            return "value mismatch: t_lower"
        return None

    def probes(self):
        """Run the known-defect inputs; (label, reason or None) each."""
        rng = np.random.default_rng(self.seed)
        results = []
        for i, (label, command, spoil) in enumerate(_PROBES):
            cfg = _power_product_config(rng, i, shapes=((3, 8),))
            spoil(cfg.sections)
            cfg = self._write(SweepConfig(command, cfg.sections, 2), f"probe{i}")
            self.prepare(cfg)
            results.append((label, self.check(cfg, self.run(cfg))))
        return results


WORKLOADS = {w.name: w for w in (BlowupFlat3d, HeatRobin3d, BoundsSweep)}
