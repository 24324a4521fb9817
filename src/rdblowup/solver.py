"""Method-of-lines simulation of the reaction-diffusion system.

Space: the standard 5-point (2D) / 7-point (3D) Laplacian owned by the mesh,
`Mesh.laplacian`, a Neumann operator stored as a scipy DIA matrix, plus the
Robin diagonal `Mesh.robin_diagonal(gamma)`.  Together they close the Robin
condition through ghost cells, ghost = g * cell, g = (2 - gamma*h)/(2 + gamma*h)
(second order at the face, Neumann reflection at gamma = 0).  Both `rhs` and
`simulate` apply this one operator: one DIA matvec per component.

Time: explicit embedded Bogacki-Shampine 3(2) pair with PI step control and
a diffusion stability cap dt <= 0.8 * 2.5127 / (4 sum_a h_a^-2).  BS3 advances
its third-order solution, so on a linear mode y' = lam y it multiplies y by
R(z) = 1 + z + z^2/2 + z^3/6, z = dt lam; R increases on the real axis and
reaches -1 at z = -2.5127.  By Gershgorin, every eigenvalue of the Robin
Laplacian lies in [-4 sum_a h_a^-2, 0] for any gamma >= 0: each boundary face
removes 2/h_a^2 from its row's absolute sum and the Robin diagonal adds back
(1 - g)/h_a^2 < 2/h_a^2, as g lies in (-1, 1].  The operator is symmetric,
so at the cap every mode has R in [-0.344, 1] and none grows, whatever the
data.  Reaction stiffness is left to the error controller.  Steps run in a
`StepWork` of stage buffers allocated once per run.

Monitors: `simulate` writes one `EnergySample` row for the initial data and
one per accepted step; the rows are its only per-step record.  Blow-up is
detected by a sup-norm threshold, or by the step-underflow fallback, and the
blow-up time extrapolated from a power-law fit of the rows' (t, sup) tail.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientSamples, NonFiniteField
from .functionals import EnergySample, FieldPair, energy_sample
from .geometry import Mesh, require_gamma
from .nonlinearity import Nonlinearity

OUTCOME_REACHED_T_END = "reached_t_end"
OUTCOME_BLOWUP = "blowup_detected"
OUTCOME_STEP_UNDERFLOW = "step_underflow"

THETA_CANDIDATES = (0.5, 1.0, 1.5, 2.0)

_SAFETY = 0.9
_PI_KP = 0.4 / 3.0
_PI_KI = 0.7 / 3.0
_FAC_MIN, _FAC_MAX = 0.2, 5.0

# R(-2.5127) = -1 ends BS3's real stability interval (module docstring)
_BS3_REAL_STABILITY = 2.5127
_CAP_SAFETY = 0.8


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
    # monitor parameters (J needs alpha; scriptE needs p)
    alpha: float = 1.0
    p: Optional[float] = None

    def __post_init__(self):
        if not (self.dt_min < self.dt_init <= self.dt_max):
            raise ValueError("need dt_min < dt_init <= dt_max")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        require_gamma(self.gamma1, "gamma1")
        require_gamma(self.gamma2, "gamma2")
        g1 = np.asarray(self.g1, dtype=float).ravel()
        g2 = np.asarray(self.g2, dtype=float).ravel()
        if g1.size != self.mesh.n_cells or g2.size != self.mesh.n_cells:
            raise ValueError(f"g1 and g2 need one value per cell ({self.mesh.n_cells}), "
                             f"got {g1.size} and {g2.size}")
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise ValueError("g1 and g2 must be finite")
        if self.sup_threshold <= max(np.max(np.abs(g1)), np.max(np.abs(g2))):
            raise ValueError("sup_threshold must exceed the initial sup-norms")
        self.g1, self.g2 = g1, g2


@dataclass(frozen=True)
class BlowupEstimate:
    t: float
    uncertainty: float
    theta: float
    method: str


@dataclass(frozen=True)
class SolveTrace:
    samples: list[EnergySample]  # the initial data's row, then one per accepted step
    outcome: str
    blowup_estimate: Optional[BlowupEstimate] = None
    u_crossed: bool = False
    v_crossed: bool = False
    clamp_count: int = 0
    n_rejected: int = 0
    final_fields: Optional[FieldPair] = None

    @property
    def n_steps(self) -> int:
        """Accepted steps."""
        return len(self.samples) - 1

    @property
    def tail(self):
        """(times, sup-norms) of every row, the series the blow-up fit reads."""
        return _tail(self.samples)


def _tail(samples):
    return (np.array([s.t for s in samples]),
            np.array([max(s.sup_u, s.sup_v) for s in samples]))


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


class StepWork:
    """Stage buffers of `step`, allocated once and reused on every step.

    `simulate` owns one per run; after an accepted step it swaps its state
    with `y_new` and its FSAL derivative with `k4`, so nothing is copied.
    """

    __slots__ = ("k2", "k3", "k4", "y_new", "stage", "term")

    def __init__(self, size: int):
        for name in self.__slots__:
            setattr(self, name, np.empty(size))


def step(y: np.ndarray, dt: float, rhs_vec, rel_tol: float, abs_tol: float,
         work: StepWork, k1: Optional[np.ndarray] = None):
    """One Bogacki-Shampine 3(2) step in the stage buffers of `work`.

    rhs_vec(y, out) writes the derivative at y into `out` and returns it.
    Returns (y_new, err_norm, k_last), where y_new and k_last are `work.y_new`
    and `work.k4`, so y must not be `work.y_new`.  err_norm is inf on overflow
    so the caller halves dt.  k_last is the FSAL derivative at y_new,
    reusable as k1 of the next accepted step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if k1 is None:
        k1 = rhs_vec(y, np.empty(y.size))
    k2, k3, k4, y_new, stage, term = (work.k2, work.k3, work.k4, work.y_new,
                                      work.stage, work.term)
    np.multiply(k1, dt * 0.5, out=stage)
    stage += y
    rhs_vec(stage, k2)
    np.multiply(k2, dt * 0.75, out=stage)
    stage += y
    rhs_vec(stage, k3)
    # y_new = y + dt * (2/9 k1 + 1/3 k2 + 4/9 k3)
    np.multiply(k1, 2.0 / 9.0, out=y_new)
    np.multiply(k2, 1.0 / 3.0, out=term)
    y_new += term
    np.multiply(k3, 4.0 / 9.0, out=term)
    y_new += term
    y_new *= dt
    y_new += y
    if not np.all(np.isfinite(y_new)):
        return y, float("inf"), None
    rhs_vec(y_new, k4)
    if not np.all(np.isfinite(k4)):
        return y, float("inf"), None
    # y_low = y + dt * (7/24 k1 + 1/4 k2 + 1/3 k3 + 1/8 k4), in `stage`
    np.multiply(k1, 7.0 / 24.0, out=stage)
    for c, k in ((0.25, k2), (1.0 / 3.0, k3), (0.125, k4)):
        np.multiply(k, c, out=term)
        stage += term
    stage *= dt
    stage += y
    # scale = abs_tol + rel_tol * max(|y|, |y_new|), in `term`; k3 is spent
    np.abs(y, out=term)
    np.abs(y_new, out=k3)
    np.maximum(term, k3, out=term)
    term *= rel_tol
    term += abs_tol
    np.subtract(y_new, stage, out=stage)
    stage /= term
    np.square(stage, out=stage)
    err = float(np.sqrt(np.mean(stage)))
    return y_new, err, k4


def _diffusion_cap(mesh: Mesh) -> float:
    """Largest dt `simulate` takes: 0.8 of BS3's real stability interval over
    the Gershgorin bound 4 sum_a h_a^-2 on the Robin Laplacian's spectrum."""
    return _CAP_SAFETY * _BS3_REAL_STABILITY / (4.0 * sum(ha ** -2 for ha in mesh.h))


def simulate(config: SolverConfig) -> SolveTrace:
    """Advance the system until t_end, blow-up threshold, or step underflow."""
    mesh, nl = config.mesh, config.nl
    n = mesh.n_cells
    y = np.concatenate([config.g1, config.g2])

    lap = mesh.laplacian
    robin1 = mesh.robin_diagonal(config.gamma1)
    robin2 = mesh.robin_diagonal(config.gamma2)

    def rhs_vec(yy, out):
        if not np.all(np.isfinite(yy)):
            out.fill(np.nan)
            return out
        return _rhs_into(out, yy[:n], yy[n:], lap, robin1, robin2, nl)

    work = StepWork(y.size)
    dt_cap = _diffusion_cap(mesh)
    t = 0.0
    dt = min(config.dt_init, dt_cap, config.dt_max)
    samples: list[EnergySample] = []
    clamp_count = 0

    def record(dt_now):
        """Append the monitor row of the current state; return its sup-norm."""
        nonlocal clamp_count
        u, v = y[:n], y[n:]
        if config.p is not None:
            clamp_count += int(np.sum(u < 0) + np.sum(v < 0))
        fields = FieldPair(u=u, v=v, t=t)
        row = energy_sample(
            fields, mesh, nl=nl, alpha=config.alpha, gamma1=config.gamma1,
            gamma2=config.gamma2, p=config.p, dt=dt_now,
        )
        samples.append(row)
        return max(row.sup_u, row.sup_v)

    initial_sup = record(dt)

    k1 = rhs_vec(y, np.empty(y.size))
    if not np.all(np.isfinite(k1)):
        raise NonFiniteField("initial right-hand side is not finite")
    err_prev = 1.0
    rejected = 0
    outcome = OUTCOME_REACHED_T_END

    while t < config.t_end:
        dt = min(dt, dt_cap, config.dt_max, config.t_end - t)
        y_new, err, k_last = step(y, dt, rhs_vec, config.rel_tol, config.abs_tol,
                                  work, k1=k1)
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
        y, work.y_new = y_new, y
        k1, work.k4 = k_last, k1
        sup = record(dt)
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

    last = samples[-1]
    sup_now = max(last.sup_u, last.sup_v)
    fallback_level = max(1e3 * initial_sup, 1e3)
    estimate = None
    if outcome == OUTCOME_BLOWUP:
        estimate = estimate_blowup_time(*_tail(samples), initial_sup=initial_sup)
    elif outcome == OUTCOME_STEP_UNDERFLOW and sup_now >= fallback_level:
        # A step-size collapse after the sup-norm has grown by orders of
        # magnitude is itself caused by the blow-up: the remaining time to
        # blow-up has dropped below floating-point resolution, so the fixed
        # threshold may be unreachable.  Classify such runs as blow-up.
        try:
            estimate = estimate_blowup_time(*_tail(samples), initial_sup=initial_sup)
            outcome = OUTCOME_BLOWUP
        except InsufficientSamples:
            pass
    level = config.sup_threshold if sup_now >= config.sup_threshold else fallback_level
    return SolveTrace(
        samples=samples, outcome=outcome, blowup_estimate=estimate,
        u_crossed=estimate is not None and last.sup_u >= level,
        v_crossed=estimate is not None and last.sup_v >= level,
        clamp_count=clamp_count, n_rejected=rejected,
        final_fields=FieldPair(u=y[:n], v=y[n:], t=t),
    )


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
