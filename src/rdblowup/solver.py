"""Method-of-lines simulation of the reaction-diffusion system.

Space: the standard 5-point (2D) / 7-point (3D) Laplacian owned by the mesh,
`Mesh.laplacian`, a Neumann operator stored as a scipy DIA matrix, plus the
Robin diagonal `Mesh.robin_diagonal(gamma)`.  Together they close the Robin
condition through ghost cells, ghost = g * cell, g = (2 - gamma*h)/(2 + gamma*h)
(second order at the face, Neumann reflection at gamma = 0).  Both `rhs` and
`simulate` apply this one operator: one DIA matvec per component.

Time: two explicit embedded Runge-Kutta pairs with first-same-as-last stages,
Bogacki-Shampine 3(2) (BS3: 3 new rhs evaluations a step) and Dormand-Prince
5(4) (DP5: 6), written as Butcher tableaux (`Pair`) that one `step` runs, in a
`StepWork` of stage rows allocated once per run and kept in stage order: row 0
is always k1, and an s-stage pair writes f(y_new) into row s - 1, which
`StepWork.accept` copies into row 0.  Each pair advances its
higher-order solution; on a linear mode y' = lam y a step multiplies y by its
stability polynomial R(z), z = dt lam, and |R| <= 1 on the real interval
[-2.5127, 0] for BS3 (R = -1 at the end) and [-3.30657, 0] for DP5 (R = +1).
By Gershgorin, every eigenvalue of the Robin Laplacian lies in
[-4 sum_a h_a^-2, 0] for any gamma >= 0: each boundary face removes 2/h_a^2
from its row's absolute sum and the Robin diagonal adds back
(1 - g)/h_a^2 < 2/h_a^2, as g lies in (-1, 1].  So each pair's diffusion cap
is dt <= 0.8 * interval / (4 sum_a h_a^-2).  The operator is symmetric, so at
the cap every mode has R in [-0.344, 1] under BS3 and in [0.173, 1] under
DP5, and none grows, whatever the data.  Reaction stiffness is left to the
error controller, a PI controller with exponents 0.7/q and 0.4/q for a pair of
order q (1/q after a rejection).  The first step tries dt = 1e-6; dt never
exceeds 0.1, and a dt below 1e-14 ends the run as a step underflow.

Pair choice: DP5 takes every step whose size accuracy sets, which is where
its higher order pays.  A step held at a cap is cheaper with BS3, which pays
3 rhs evaluations per 2.5127 units of stability where DP5 pays 6 per 3.30657.
So after an accepted DP5 step whose proposed dt reaches BS3's cap, its stages
predict BS3's error estimate there: weights w on the seven stages match BS3's
error weights on every tree of order <= 3, so dt sum_i w_i k_i is BS3's
estimate up to O(dt^4), and that estimate scales as dt^3.  If the prediction
at the cap is <= 0.9^3, BS3's controller would keep the cap, and the next step
is BS3 at its cap.  BS3 stays while its own proposal stays at or above its
cap; otherwise, or after any rejected BS3 step, DP5 takes over again.  The PI
history restarts at each change of pair.

Monitors: `simulate` writes one `EnergySample` row for the initial data and
one per accepted step; the rows are its only per-step record.  Blow-up is
detected by a sup-norm threshold, or by the step-underflow fallback, and the
blow-up time extrapolated from a power-law fit of the rows' (t, sup) tail.
"""

import math
from dataclasses import dataclass, field
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
# PI exponents over the order q of the pair (Gustafsson's 0.7/q, 0.4/q)
_PI_KP = 0.4
_PI_KI = 0.7
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_CAP_SAFETY = 0.8
_DT_INIT, _DT_MIN, _DT_MAX = 1e-6, 1e-14, 0.1


@dataclass(frozen=True, eq=False)
class Pair:
    """An explicit embedded Runge-Kutta pair whose last stage is first-same-as-last.

    `a` is the strictly lower (s, s) stage matrix; its last row is the weight
    vector b of the advanced solution, so the last stage is f(y_new).  `e` is
    b - b_hat, so dt * sum_i e_i k_i estimates the error.  `order` is the
    order q of the advanced solution and `real_stability` the length of its
    real stability interval: |R(z)| <= 1 for z in [-real_stability, 0].
    """

    name: str
    a: np.ndarray
    e: np.ndarray
    order: int
    real_stability: float

    @property
    def stages(self) -> int:
        return len(self.e)


def _stage_matrix(rows):
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        a[i, :i] = row
    return a


# Bogacki & Shampine (1989); R(-2.5127) = -1
BS3 = Pair("bs3", _stage_matrix([[1 / 2], [0, 3 / 4], [2 / 9, 1 / 3, 4 / 9]]),
           e=np.array([2 / 9 - 7 / 24, 1 / 3 - 1 / 4, 4 / 9 - 1 / 3, -1 / 8]),
           order=3, real_stability=2.5127)
# Dormand & Prince (1980); R(-3.30657) = +1
DP5 = Pair("dp5", _stage_matrix([
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]]),
    e=np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]),
    order=5, real_stability=3.30657)
PAIRS = (BS3, DP5)


# Weights w on DP5's stages with BS3's error weights' elementary weights on
# the trees of order <= 3: sum w = 0, sum w c = 0, sum w c^2/2 = -1/48 and
# sum w Ac = -1/48, for DP5's nodes c.  So dt * sum_i w_i k_i equals BS3's
# error estimate up to O(dt^4) without taking a BS3 step.  These are the
# least-norm solution of the four conditions.
_BS3_ERR_FROM_DP5 = np.array([-2941755 / 28429324, 0, 1681485 / 14214662, 2477655 / 28429324,
                              829305 / 28429324, -338925 / 5168968, -338925 / 5168968])


@dataclass
class SolverConfig:
    mesh: Mesh
    nl: Nonlinearity
    gamma1: float
    gamma2: float
    g1: np.ndarray
    g2: np.ndarray
    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    sup_threshold: float = 1e8
    # monitor parameters (J needs alpha; scriptE needs p)
    alpha: float = 1.0
    p: Optional[float] = None

    def __post_init__(self):
        require_step_options(**{name: getattr(self, name) for name in STEP_OPTIONS})
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


# the scalar options of SolverConfig, which `require_step_options` checks
STEP_OPTIONS = ("t_end", "rel_tol", "abs_tol", "sup_threshold")


def require_step_options(t_end: float, rel_tol: Optional[float] = None,
                         abs_tol: Optional[float] = None,
                         sup_threshold: Optional[float] = None) -> None:
    """Check the SolverConfig scalar options given, raising ValueError."""
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    tols = [tol for tol in (rel_tol, abs_tol) if tol is not None]
    if not all(0 <= tol < math.inf for tol in tols) or rel_tol == abs_tol == 0:
        raise ValueError(f"rel_tol and abs_tol must be finite and >= 0, not both 0; "
                         f"got {rel_tol} and {abs_tol}")
    if sup_threshold is not None and not math.isfinite(sup_threshold):
        raise ValueError(f"sup_threshold must be finite, got {sup_threshold:g}")


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
    # {pair name: {"accepted": count, "rejected": count}}
    steps_by_pair: dict = field(default_factory=dict)
    final_fields: Optional[FieldPair] = None

    @property
    def n_steps(self) -> int:
        """Accepted steps."""
        return len(self.samples) - 1

    @property
    def n_rejected(self) -> int:
        """Rejected steps, of every pair."""
        return sum(counts["rejected"] for counts in self.steps_by_pair.values())

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
    """Stage derivatives and states of `step`, allocated once per run.

    `K` holds one row per stage of the largest pair, in stage order: `K[0]`
    is k1, and a step of an s-stage pair writes stage i into `K[i]`, so its
    FSAL derivative f(y_new) lands in `K[s - 1]`.  `accept` copies that row
    into `K[0]` and swaps the caller's state with `y_new`.
    """

    __slots__ = ("K", "last", "y_new", "err", "scale")

    def __init__(self, y: np.ndarray, rhs_vec):
        """Allocate for states like `y` and evaluate k1 = f(y) in place."""
        self.K = np.empty((max(pair.stages for pair in PAIRS), y.size))
        self.last = 0  # the row of the last step's f(y_new)
        self.y_new, self.err, self.scale = (np.empty(y.size) for _ in range(3))
        rhs_vec(y, self.K[0])

    def combine(self, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = sum_i weights[i] * K[i], over the first len(weights) stages."""
        return np.dot(weights, self.K[:len(weights)], out=out)

    def accept(self, y: np.ndarray) -> np.ndarray:
        """Take the step just made from `y`: move its f(y_new) to `K[0]`,
        return its y_new and keep `y` as the buffer of the next y_new."""
        self.K[0] = self.K[self.last]
        y_new, self.y_new = self.y_new, y
        return y_new


def _err_norm(err: np.ndarray, y, y_new, rel_tol, abs_tol, work: StepWork) -> float:
    """RMS of err / (abs_tol + rel_tol * max(|y|, |y_new|)); overwrites `err`."""
    # -max(|y|, |y_new|) = min(-max(|y|, y_new), y_new), built in one buffer
    scale = np.abs(y, out=work.scale)
    np.maximum(scale, y_new, out=scale)
    np.negative(scale, out=scale)
    np.minimum(scale, y_new, out=scale)
    scale *= -rel_tol
    scale += abs_tol
    err /= scale
    return float(np.sqrt(np.dot(err, err) / err.size))


def step(y: np.ndarray, dt: float, rhs_vec, rel_tol: float, abs_tol: float,
         work: StepWork, pair: Pair = DP5):
    """One step of `pair` from y, whose derivative `work.K[0]` holds.

    rhs_vec(y, out) writes the derivative at y into `out` and returns it.
    Returns (y_new, err_norm, k_last), where y_new is `work.y_new` and k_last
    the FSAL derivative f(y_new) in `work.K[s - 1]` for an s-stage pair, so y
    must not be `work.y_new`.  err_norm is inf on overflow, with k_last None,
    so the caller shrinks dt.  The stages stay in `work` until the next step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    s, a, y_new, err = pair.stages, pair.a, work.y_new, work.err
    # the inner stages' arguments are built in y_new, which is written last
    for i in range(1, s - 1):
        work.combine(a[i, :i] * dt, y_new)
        y_new += y
        rhs_vec(y_new, work.K[i])
    work.combine(a[s - 1, :s - 1] * dt, y_new)
    y_new += y
    if not np.all(np.isfinite(y_new)):
        return y, float("inf"), None
    k_last = rhs_vec(y_new, work.K[s - 1])
    if not np.all(np.isfinite(k_last)):
        return y, float("inf"), None
    work.last = s - 1
    # y_new - y_low = dt * sum_i e_i k_i
    work.combine(pair.e * dt, err)
    return y_new, _err_norm(err, y, y_new, rel_tol, abs_tol, work), k_last


def _predicted_bs3_err(work: StepWork, y, y_new, dt: float, dt_bs3: float,
                       rel_tol: float, abs_tol: float) -> float:
    """BS3's error norm for a step of dt_bs3 from y, predicted from the
    stages of the DP5 step of dt from y to y_new still held in `work`.

    dt * sum_i w_i k_i is BS3's estimate at dt up to O(dt^4), and that
    estimate is O(dt^3), so the norm is scaled by (dt_bs3 / dt)^3.
    """
    err = _err_norm(work.combine(_BS3_ERR_FROM_DP5 * dt, work.err), y, y_new,
                    rel_tol, abs_tol, work)
    return err * (dt_bs3 / dt) ** 3


def _diffusion_cap(mesh: Mesh, pair: Pair = BS3) -> float:
    """Largest dt `simulate` takes with `pair`: 0.8 of its real stability
    interval over the Gershgorin bound 4 sum_a h_a^-2 on the Robin
    Laplacian's spectrum."""
    return _CAP_SAFETY * pair.real_stability / (4.0 * sum(ha ** -2 for ha in mesh.h))


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

    work = StepWork(y, rhs_vec)
    if not np.all(np.isfinite(work.K[0])):
        raise NonFiniteField("initial right-hand side is not finite")
    caps = {pair: _diffusion_cap(mesh, pair) for pair in PAIRS}
    steps_by_pair = {pair.name: {"accepted": 0, "rejected": 0} for pair in PAIRS}
    t = 0.0
    pair = DP5
    dt = min(_DT_INIT, caps[pair], _DT_MAX)
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
    err_prev = 1.0
    outcome = OUTCOME_REACHED_T_END

    while t < config.t_end:
        dt = min(dt, caps[pair], _DT_MAX, config.t_end - t)
        y_new, err, _ = step(y, dt, rhs_vec, config.rel_tol, config.abs_tol, work, pair)
        counts = steps_by_pair[pair.name]
        if not np.isfinite(err) or err > 1.0:
            counts["rejected"] += 1
            if np.isfinite(err):
                dt *= max(0.1, _SAFETY * err ** (-1.0 / pair.order))
            else:
                dt *= 0.5
            if pair is BS3:
                pair, err_prev = DP5, 1.0
            if dt < _DT_MIN:
                outcome = OUTCOME_STEP_UNDERFLOW
                break
            continue
        counts["accepted"] += 1
        # PI step-size controller
        fac = (_SAFETY * max(err, 1e-12) ** (-_PI_KI / pair.order)
               * max(err_prev, 1e-12) ** (_PI_KP / pair.order))
        dt_next = dt * min(_FAC_MAX, max(_FAC_MIN, fac))
        err_prev = max(err, 1e-12)
        # a step held at BS3's cap is cheaper with BS3 when BS3 is accurate
        # there (module docstring)
        if pair is BS3 and dt_next < caps[BS3]:
            pair, err_prev = DP5, 1.0
        elif pair is DP5 and dt_next >= caps[BS3] and _predicted_bs3_err(
                work, y, y_new, dt, caps[BS3], config.rel_tol,
                config.abs_tol) <= _SAFETY ** 3:
            pair, err_prev = BS3, 1.0
        t += dt
        y = work.accept(y)
        sup = record(dt)
        dt = dt_next
        if dt < _DT_MIN:
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
        clamp_count=clamp_count, steps_by_pair=steps_by_pair,
        final_fields=FieldPair(u=y[:n], v=y[n:], t=t),
    )


def _fit_line(ts, ys):
    """Least-squares line y = a + b t; returns (a, b, r_squared)."""
    A = np.vstack([np.ones_like(ts), ts]).T
    (a, b), res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((ys - A @ [a, b]) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else -np.inf
    return a, b, r2


def _fit_root(ts, ys):
    """Root of the least-squares line through (t, y) if it falls; returns
    (root, r_squared), or (None, -inf)."""
    a, b, r2 = _fit_line(ts, ys)
    if b >= 0:
        return None, -np.inf
    return float(-a / b), r2


def estimate_blowup_time(ts, sups, initial_sup: Optional[float] = None) -> BlowupEstimate:
    """Extrapolate the blow-up time from the tail of a (t, sup-norm) series.

    For each rate candidate theta, sup ~ C*(t*-t)^(-theta) linearizes as
    sup^(-1/theta) against t; the best-fitting candidate's root gives the
    estimate.  A tail that an exponential, log(sup) linear in t, fits at
    least as well grows for all time and raises InsufficientSamples.
    Uncertainty combines the spread of roots across candidates with the
    shift from dropping the last sample.
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
    if _fit_line(ts, np.log(sups))[2] >= fits[best]:
        raise InsufficientSamples("the tail grows exponentially, not as a power law")
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
