"""Method-of-lines simulation of the reaction-diffusion system.

Space: the standard 5-point (2D) / 7-point (3D) Laplacian owned by the mesh,
`Mesh.laplacian`, a Neumann operator stored as a scipy DIA matrix, plus the
Robin diagonal `Mesh.robin_diagonal(gamma)`.  Together they close the Robin
condition through ghost cells, ghost = cell * (2 - gamma*h)/(2 + gamma*h)
(second order at the face, Neumann reflection at gamma = 0).  Both `rhs` and
`simulate` apply this one operator: one DIA matvec per component.

Time: explicit embedded Bogacki-Shampine 3(2) pair with PI step control and
an additional diffusion stability cap dt <= 0.4 * h^2 / (2N).  Blow-up is
detected by a sup-norm threshold and the blow-up time extrapolated from a
power-law fit of the trace tail.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientSamples, NonFiniteField
from .functionals import EnergySample, FieldPair, energy_sample
from .geometry import Mesh
from .nonlinearity import Nonlinearity

OUTCOME_REACHED_T_END = "reached_t_end"
OUTCOME_BLOWUP = "blowup_detected"
OUTCOME_STEP_UNDERFLOW = "step_underflow"

THETA_CANDIDATES = (0.5, 1.0, 1.5, 2.0)

_SAFETY = 0.9
_PI_KP = 0.4 / 3.0
_PI_KI = 0.7 / 3.0
_FAC_MIN, _FAC_MAX = 0.2, 5.0


@dataclass
class SolverConfig:
    mesh: Mesh
    nl: Nonlinearity
    gamma1: float
    gamma2: float
    g1: np.ndarray
    g2: np.ndarray
    t_end: float
    dt_init: float = 1e-6
    dt_min: float = 1e-14
    dt_max: float = 0.1
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    sup_threshold: float = 1e8
    sample_stride: int = 1
    # monitor parameters (J needs alpha; scriptE needs p)
    alpha: float = 1.0
    p: Optional[float] = None

    def __post_init__(self):
        if not (self.dt_min < self.dt_init <= self.dt_max):
            raise ValueError("need dt_min < dt_init <= dt_max")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        g1 = np.asarray(self.g1, dtype=float).ravel()
        g2 = np.asarray(self.g2, dtype=float).ravel()
        if g1.size != self.mesh.n_cells or g2.size != self.mesh.n_cells:
            raise ValueError(f"g1 and g2 need one value per cell ({self.mesh.n_cells}), "
                             f"got {g1.size} and {g2.size}")
        if self.sup_threshold <= max(np.max(np.abs(g1)), np.max(np.abs(g2))):
            raise ValueError("sup_threshold must exceed the initial sup-norms")
        self.g1, self.g2 = g1, g2


@dataclass(frozen=True)
class BlowupEstimate:
    t: float
    uncertainty: float
    theta: float
    method: str


@dataclass
class SolveTrace:
    samples: list[EnergySample]
    outcome: str
    blowup_estimate: Optional[BlowupEstimate] = None
    u_crossed: bool = False
    v_crossed: bool = False
    clamp_count: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    tail: tuple = field(default_factory=tuple)  # (times, sup-norms) of every step
    final_fields: Optional[FieldPair] = None


def _rhs_into(out, u, v, lap, robin1, robin2, nl):
    """Write (u_t, v_t) into the two halves of `out` and return it."""
    n = u.size
    ut, vt = out[:n], out[n:]
    np.multiply(robin1, u, out=ut)
    ut += lap @ u
    ut += nl.f1(u, v)
    np.multiply(robin2, v, out=vt)
    vt += lap @ v
    vt += nl.f2(u, v)
    return out


def rhs(fields: FieldPair, mesh: Mesh, nl: Nonlinearity,
        gamma1: float, gamma2: float):
    """Time derivatives (u_t, v_t) of the semidiscrete system."""
    u, v = fields.u, fields.v
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonFiniteField("rhs called with non-finite fields")
    out = _rhs_into(np.empty(2 * u.size), u, v, mesh.laplacian,
                    mesh.robin_diagonal(gamma1), mesh.robin_diagonal(gamma2), nl)
    return out[:u.size], out[u.size:]


def step(y: np.ndarray, dt: float, rhs_vec, rel_tol: float, abs_tol: float,
         k1: Optional[np.ndarray] = None):
    """One Bogacki-Shampine 3(2) step.

    Returns (y_new, err_norm, k_last); err_norm is inf on overflow so the
    caller halves dt.  k_last is the FSAL derivative at y_new, reusable as
    k1 of the next accepted step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if k1 is None:
        k1 = rhs_vec(y)
    k2 = rhs_vec(y + dt * 0.5 * k1)
    k3 = rhs_vec(y + dt * 0.75 * k2)
    y_new = y + dt * (2.0 / 9.0 * k1 + 1.0 / 3.0 * k2 + 4.0 / 9.0 * k3)
    if not np.all(np.isfinite(y_new)):
        return y, float("inf"), None
    k4 = rhs_vec(y_new)
    if not np.all(np.isfinite(k4)):
        return y, float("inf"), None
    y_low = y + dt * (7.0 / 24.0 * k1 + 0.25 * k2 + 1.0 / 3.0 * k3 + 0.125 * k4)
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    err = float(np.sqrt(np.mean(((y_new - y_low) / scale) ** 2)))
    return y_new, err, k4


def simulate(config: SolverConfig) -> SolveTrace:
    """Advance the system until t_end, blow-up threshold, or step underflow."""
    mesh, nl = config.mesh, config.nl
    n = mesh.n_cells
    y = np.concatenate([config.g1, config.g2])

    lap = mesh.laplacian
    robin1 = mesh.robin_diagonal(config.gamma1)
    robin2 = mesh.robin_diagonal(config.gamma2)

    def rhs_vec(yy):
        if not np.all(np.isfinite(yy)):
            return np.full_like(yy, np.nan)
        return _rhs_into(np.empty_like(yy), yy[:n], yy[n:], lap, robin1, robin2, nl)

    N = mesh.spec.dimension
    dt_cap = 0.4 * min(mesh.h) ** 2 / (2.0 * N)
    t = 0.0
    dt = min(config.dt_init, dt_cap, config.dt_max)
    samples: list[EnergySample] = []
    tail_t, tail_sup = [], []
    clamp_count = 0
    initial_sup = float(np.max(np.abs(y)))

    def record(dt_now):
        nonlocal clamp_count
        u, v = y[:n], y[n:]
        if config.p is not None:
            clamp_count += int(np.sum(u < 0) + np.sum(v < 0))
        fields = FieldPair(u=u, v=v, t=t)
        samples.append(energy_sample(
            fields, mesh, nl=nl, alpha=config.alpha, gamma1=config.gamma1,
            gamma2=config.gamma2, p=config.p, dt=dt_now,
        ))

    record(dt)
    tail_t.append(t)
    tail_sup.append(initial_sup)

    k1 = rhs_vec(y)
    if not np.all(np.isfinite(k1)):
        raise NonFiniteField("initial right-hand side is not finite")
    err_prev = 1.0
    accepted = 0
    rejected = 0
    outcome = OUTCOME_REACHED_T_END

    while t < config.t_end:
        dt = min(dt, dt_cap, config.dt_max, config.t_end - t)
        y_new, err, k_last = step(y, dt, rhs_vec, config.rel_tol, config.abs_tol, k1=k1)
        if not np.isfinite(err) or err > 1.0:
            rejected += 1
            if np.isfinite(err):
                dt *= max(0.1, _SAFETY * err ** (-1.0 / 3.0))
            else:
                dt *= 0.5
            if dt < config.dt_min:
                outcome = OUTCOME_STEP_UNDERFLOW
                break
            continue
        t += dt
        y = y_new
        k1 = k_last
        accepted += 1
        sup = float(np.max(np.abs(y)))
        tail_t.append(t)
        tail_sup.append(sup)
        if accepted % config.sample_stride == 0:
            record(dt)
        # PI step-size controller
        fac = _SAFETY * max(err, 1e-12) ** (-_PI_KI) * max(err_prev, 1e-12) ** _PI_KP
        dt *= min(_FAC_MAX, max(_FAC_MIN, fac))
        err_prev = max(err, 1e-12)
        if dt < config.dt_min:
            outcome = OUTCOME_STEP_UNDERFLOW
            break
        if sup >= config.sup_threshold:
            outcome = OUTCOME_BLOWUP
            break

    if not samples or samples[-1].t < t:
        record(dt)

    # A step-size collapse after the sup-norm has grown by orders of
    # magnitude is itself caused by the blow-up: the remaining time to
    # blow-up has dropped below floating-point resolution, so the fixed
    # threshold may be unreachable.  Classify such runs as blow-up.
    sup_now = float(np.max(np.abs(y)))
    if (outcome == OUTCOME_STEP_UNDERFLOW
            and sup_now >= max(1e3 * initial_sup, 1e3)):
        try:
            estimate_blowup_time(np.asarray(tail_t), np.asarray(tail_sup),
                                 initial_sup=initial_sup)
            outcome = OUTCOME_BLOWUP
        except InsufficientSamples:
            pass

    trace = SolveTrace(
        samples=samples, outcome=outcome,
        n_steps=accepted, n_rejected=rejected,
        clamp_count=clamp_count,
        tail=(np.asarray(tail_t), np.asarray(tail_sup)),
        final_fields=FieldPair(u=y[:n], v=y[n:], t=t),
    )
    if outcome == OUTCOME_BLOWUP:
        level = (config.sup_threshold if sup_now >= config.sup_threshold
                 else max(1e3 * initial_sup, 1e3))
        u, v = y[:n], y[n:]
        trace.u_crossed = bool(np.max(np.abs(u)) >= level)
        trace.v_crossed = bool(np.max(np.abs(v)) >= level)
        trace.blowup_estimate = estimate_blowup_time(
            trace.tail[0], trace.tail[1], initial_sup=initial_sup
        )
    return trace


def _fit_root(ts, ys):
    """Least-squares line through (t, y); returns (root, r_squared)."""
    A = np.vstack([np.ones_like(ts), ts]).T
    (a, b), res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    if b >= 0:
        return None, -np.inf
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((ys - A @ [a, b]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else -np.inf
    return float(-a / b), r2


def estimate_blowup_time(ts, sups, initial_sup: Optional[float] = None) -> BlowupEstimate:
    """Extrapolate the blow-up time from the tail of a (t, sup-norm) series.

    For each rate candidate theta, sup ~ C*(t*-t)^(-theta) linearizes as
    sup^(-1/theta) against t; the best-fitting candidate's root gives the
    estimate.  Uncertainty combines the spread of roots across candidates
    with the shift from dropping the last sample.
    """
    ts = np.asarray(ts, dtype=float)
    sups = np.asarray(sups, dtype=float)
    if initial_sup is None:
        initial_sup = sups[0]
    # keep the steep tail: well above the initial level and within the
    # last three decades of growth
    mask = (sups > 10.0 * initial_sup) & (sups >= 1e-3 * sups.max())
    if int(np.sum(mask)) < 8:
        raise InsufficientSamples("need >= 8 samples with sup-norm above 10x initial")
    ts, sups = ts[mask][-60:], sups[mask][-60:]

    roots, fits = {}, {}
    for theta in THETA_CANDIDATES:
        root, r2 = _fit_root(ts, sups ** (-1.0 / theta))
        if root is not None:
            roots[theta] = root
            fits[theta] = r2
    if not roots:
        raise InsufficientSamples("no decreasing power-law fit found")
    best = max(fits, key=fits.get)
    t_last = float(ts[-1])
    estimate = max(roots[best], t_last)

    spread = max(abs(estimate - max(r, t_last)) for r in roots.values())
    drop_root, _ = _fit_root(ts[:-1], sups[:-1] ** (-1.0 / best))
    drop = abs(estimate - max(drop_root, float(ts[-2]))) if drop_root else 0.0
    return BlowupEstimate(
        t=estimate,
        uncertainty=max(spread, drop),
        theta=best,
        method=f"power-law tail fit, theta candidates {THETA_CANDIDATES}",
    )
