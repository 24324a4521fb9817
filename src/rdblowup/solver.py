"""Method-of-lines simulation of the reaction-diffusion system.

Space: one operator A on the stacked state y = [u; v],
`Mesh.robin_operator(gamma1, gamma2)`, defined by one symmetric tridiagonal
per axis and field: off-diagonal 1/h_a^2, main diagonal -2/h_a^2 plus g/h_a^2
of each face on the cell beside it, which closes the Robin condition through
ghost cells, ghost = g * cell, g = (2 - gamma*h)/(2 + gamma*h) (second order
at the face, Neumann reflection at gamma = 0).  Each field's block is the
Kronecker sum of its axes' tridiagonals, the 5-point (2D) / 7-point (3D)
stencil.  `rhs` and DP5's stages add A y by `RobinOperator.add_product`:
one product with a (2n, 2n) `scipy.sparse` DIA matrix of both fields, built
from those rows on first use.  A run of one cell (every axis collapsed under
Neumann walls, below) steps the reaction alone.  So a Lawson-only run, and
a run of one cell, builds no matrix and loads no `scipy.sparse`.

The eigenbasis: the operator diagonalises the same tridiagonals,
A = Q diag(Lambda) Q^T, with Q the Kronecker product of the axes' orthogonal
eigenvectors and Lambda the sums of their eigenvalues (fast
diagonalisation), summed anew in each e^{tau Lambda}; Q and Q^T cost a
small matrix product per axis.  By
Gershgorin, Lambda lies in [-4 sum_a h_a^-2, 0] for any gamma >= 0: each
boundary face removes 2/h_a^2 from its row's absolute sum and the Robin
closure adds back (1 - g)/h_a^2 <= 2/h_a^2, as g lies in [-1, 1].

Time: y' = A y + N(y), N = (f1, f2), is stepped by two embedded Runge-Kutta
pairs with first-same-as-last stages, written as Butcher tableaux (`Pair`)
that one `step` runs, in a `StepWork` of stage rows allocated once per run.
Dormand-Prince 5(4) (DP5) is explicit: 6 new evaluations of A y + N(y) a
step.  On a mode y' = lam y it multiplies y by its stability polynomial
R(z), z = dt lam, with |R| <= 1 on [-3.30657, 0] (R = +1 at the end), so
its diffusion cap is dt <= 0.8 * 3.30657 / (4 sum_a h_a^-2); A is symmetric,
so at the cap every mode has R in [0.173, 1] and none grows, whatever the
data.  Bogacki-Shampine 3(2) runs in integrating-factor (Lawson) form
(`lawson_bs3`): w = e^{-tA} y obeys w' = e^{-tA} N(e^{tA} w), which has no
linear part, and BS3's own tableau steps w.  In the eigenbasis (hats) the
stages of a step from y are at
  Y^_i = e^{c_i dt Lambda} y^ + dt sum_j a_ij e^{(c_i - c_j) dt Lambda} N^_j,
N^_j = Q^T N(Q Y^_j), and the error estimate is Q dt sum_j e_j
e^{(1 - c_j) dt Lambda} N^_j.  Only N is evaluated in physical space: 3 new
reaction evaluations and 8 transforms a step, first-same-as-last in N^.
BS3's nodes c never decrease and Lambda <= 0, so every exponential lies in
(0, 1]: nothing overflows, A y is integrated exactly and no mode grows,
whatever dt.  So this pair has no cap; its error estimate alone bounds its
steps.  Reaction stiffness is left to the error controller.

The first trial dt is Hairer, Norsett & Wanner's starting step (Solving
ODEs I, II.4) on the reaction alone, as the Lawson pair integrates A y
exactly: with sc = abs_tol + rel_tol |g| and the RMS norms d0 of g / sc and
d1 of N(g) / sc (a cell with sc = 0 counts as 0 in both), it is t_end if
d1 = 0, else min(100 h0, (0.01 / d1)^(1/4)), q = 3 the Lawson pair's order,
with h0 = 0.01 d0 / d1, or 1e-6 if d0 or d1 is below 1e-5, and no less than
1e-14.  N(g) is evaluated once and checked finite; it is the Lawson pair's
first stage, and A g + N(g), checked finite too, DP5's.  Both are formed
with overflow, invalid values and zero division silenced, as a step's
stages are, so a start that overflows or divides by zero raises
NonFiniteField and warns of nothing.  A run that starts on the
Lawson pair never forms A g.

Each trial step goes through one sequence.  Its dt is clamped to 0.1 and,
for DP5, to DP5's cap, and a step that would end within 1e-14 of t_end, or
past it, ends at t_end; it is accepted iff its error norm is <= 1
(inf and NaN reject) and counted once, under its pair.  `step` owns the
trial: one error state covers it from its first stage to its error norm,
and its return, (y_new, err, k_new), is all that `StepWork.accept` takes.
It rejects a trial with err = inf if a stage leaves N's domain (raises
EvalAtZeroU) or if y_new or its last stage is not finite; a norm that
overflows is inf.  DP5's tableau has negative weights, so its stages can
take u below 0 where no state of the run has it.  N(g) of the data raises
instead.  One place proposes the next dt: a PI controller with exponents
0.7/q and 0.4/q for a pair of order q after an acceptance,
max(0.1, 0.9 err^(-1/q)) dt after a finite rejection, dt/2 after a
non-finite one.  One rule picks the pair of each
trial, the first included: `lawson_bs3` iff the trial dt reaches DP5's cap
and no `lawson_bs3` step of the run has been rejected.  So where N(g) = 0 a
run starts on it at min(0.1, t_end), and a run whose reaction sets a first
dt below the cap starts on DP5.  A rejected `lawson_bs3` step is retried by
DP5 at the same dt, which DP5's clamp holds at its cap, and DP5 keeps the
rest of the run.  Where the pair changes, the PI history restarts and the
new pair's first stage is evaluated at the current state under a trial's
error state, so a non-finite one rejects the next trial (on one cell it is
N(y) already, below).  A run that reaches t_end stops there exactly.  So
the Lawson pair takes the steps DP5's cap would hold, until one is
rejected, and DP5's order pays below its cap.

The fold and the collapse: `simulate` steps on
`Mesh.reduced(g1, g2, gamma1, gamma2)`, the box reduced by one walk over
its axes in order, each judged on the cells the axes before it keep:
collapsed, under Neumann walls, where the data are constant along it, else
folded where they are even in it, to rounding (geometry's module
docstring), from `Mesh.restrict` of the data: 1/(2^k prod n_a) of the
cells for k folded axes.  `SolveTrace.mirror_axes` and `SolveTrace.collapsed_axes` name
the axes.  On a state even in the folded axes and constant along the
collapsed ones every operation above is the box's, cell for cell, and a
collapsed axis's eigenvalue is exactly 0, so DP5's cap is the box's.
Collapsed along every axis, the run steps one cell of the ODE u' = f1,
v' = f2: A is zero, so the derivative is N(y) alone, with no product, and
with every eigenvalue 0 and Q = 1 the Lawson pair's step is BS3's explicit
step on the reaction.  One cell arises from that collapse alone:
`build_mesh` takes at least 4 cells an axis, a fold halves them, and
`Mesh.reduced` collapses only under Neumann walls.  A one-cell state is
floats from N(g) on, under both pairs: `simulate`'s one-cell rule takes the
data as the pair (u, v), steps either pair on `Nonlinearity.reaction`
itself, which hands f1 and f2 Python floats (whose **, as numpy's scalar
**, is C's pow, and differs from numpy's array ** by up to 1 ulp) and
returns a float pair, and keeps N(g), either pair's first stage, in
`StepWork.k1`; `accept` keeps each FSAL stage as a pair.  Both pairs are
first-same-as-last, and a rejected trial leaves y and `k1` as they were,
so `k1` is N(y) at every pair change and no change evaluates the reaction.
`step` takes either pair on that state through `_one_cell_step`, by the
pair's `one_cell_kernel`, its tableau written out as straight-line code:
stage arguments, error estimate, finite checks, error scale and RMS norm
are Python floats, summed in order where `StepWork.combine`'s numpy product
may round otherwise, and no eigenpair or transform is formed.
So a step at DP5's cap, whose dt no error sets, keeps every bit of the
array path's, while an error-controlled dt can move by rounding, and with
it the rest of the run (README, *The collapse*).  The RMS
norms and sup-norms equal those over the box; and the quadrature weights
carry the multiplicity of each cell, so the monitor rows are the box's.
Only rounding differs: on the box the gradient energy along a collapsed
axis is rounding about 0, on the collapse exactly 0.  `clamp_count` counts
each cell as often as it stands for a box cell, and `final_fields` is
`Mesh.unfold` of the last state.  Other axes keep the box's cells and
arithmetic, and where nothing is folded or collapsed a run does the box
mesh's arithmetic exactly.

Monitors: `simulate` writes one `EnergySample` row for the initial data and
one per accepted step; the rows are its only per-step record.  It keeps
each such state's (t, dt) and a copy of it in a block of `_ROW_BLOCK_BYTES`
and writes the block's rows with one `energy_rows` call when the block
fills and when the run ends, so a row costs a copy and a share of that
call; the step loop takes the sup-norm, max(y) and -min(y), from the state
itself, and max(|u|, |v|) from a one-cell state's float pair (u, v), which
the block keeps as a row of two.  A state too large for a block of two is
written on its own, with no copy.  The kernel reduces each state alone, so
the rows are the ones `energy_sample` gives each state, bit for bit; a row
whose integral is not finite raises NonFiniteSample when its block is
written.

How a run ends.  Trials go on while t < t_end, the last row's sup-norm is
below `sup_threshold`, the last trial proposed a dt >= 1e-14 (the first
trial's dt, t_end where N(g) = 0, may be less) and fewer than `_MAX_TRIALS`
trials ran; stopped by that proposal before t_end, the run underflowed, and
stopped by the count, it reached the trial limit, which bounds the work of
any run.  The blow-up time is fitted to the rows'
(t, sup) tail (`estimate_blowup_time`) if the sup-norm reached the fallback
level max(1e3 sup(g), 1e3) after an underflow (dt collapsing after such
growth is blow-up nearer than float resolution), or the threshold otherwise.
The outcome is blow-up iff there is an estimate, else step underflow,
the trial limit or t_end reached; a refused fit raises unless the run
underflowed.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import EvalAtZeroU, InsufficientSamples, NonFiniteField
from .functionals import EnergySample, FieldPair, energy_rows, require_growth_constants
from .geometry import Mesh, RobinOperator, require_gamma
from .nonlinearity import Nonlinearity, require_alpha

OUTCOME_REACHED_T_END = "reached_t_end"
OUTCOME_BLOWUP = "blowup_detected"
OUTCOME_STEP_UNDERFLOW = "step_underflow"
OUTCOME_TRIAL_LIMIT = "trial_limit_reached"

THETA_CANDIDATES = (0.5, 1.0, 1.5, 2.0)

_SAFETY = 0.9
# PI exponents over the order q of the pair (Gustafsson's 0.7/q, 0.4/q)
_PI_KP = 0.4
_PI_KI = 0.7
_FAC_MIN, _FAC_MAX = 0.2, 5.0
_CAP_SAFETY = 0.8
_DT_MIN, _DT_MAX = 1e-14, 0.1
# the trials a run may take: the longest measured run takes 2,344 (the
# gamma = 5 bump at 32^3), and DP5's cap, which falls as h^2, puts one at
# 128^3 near 37,500; at 2,000-5,000 trials a second on meshes of a few
# hundred cells a run stopped by the count ends in 10-25 s
_MAX_TRIALS = 50_000
# the bytes of the states a run keeps for one `energy_rows` call
_ROW_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True, eq=False)
class Pair:
    """An embedded Runge-Kutta pair whose last stage is first-same-as-last.

    `a` is the strictly lower (s, s) stage matrix; its last row is the weight
    vector b of the advanced solution, so the last stage is at y_new.  `e` is
    b - b_hat, the weights of the error estimate.  `order` is the order q of
    the advanced solution.  An explicit pair's stages are derivatives of
    y' = f(y); a `lawson` pair's are the reaction N of y' = A y + N(y) in the
    eigenbasis of A, and its step integrates A y exactly (module docstring).
    """

    name: str
    a: np.ndarray
    e: np.ndarray
    order: int
    lawson: bool = False

    @property
    def stages(self) -> int:
        return len(self.e)

    @property
    def nodes(self) -> np.ndarray:
        """c, the stage times as fractions of the step."""
        return self.a.sum(axis=1)

    @property
    def rows(self) -> int:
        """Rows of `StepWork.K` a step uses: the stages, and for a Lawson pair
        also the state, a copy of the first stage and an exponential."""
        return self.stages + 3 if self.lawson else self.stages

    @cached_property
    def float_tableau(self) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """(a, e) as Python floats, whose reprs `one_cell_kernel` writes into
        its source: row i of `a` as its i entries below the diagonal, and `e`."""
        a = tuple(tuple(row[:i].tolist()) for i, row in enumerate(self.a))
        return a, tuple(self.e.tolist())

    @cached_property
    def one_cell_kernel(self):
        """The float arithmetic of `_one_cell_step`, written out from
        `float_tableau` as one straight-line function (`_one_cell_source`),
        compiled on first use: kernel(u, v, k0, dt, stage_fn) returns
        (y_new, its stage, e_u, e_v)."""
        namespace = {}
        exec(compile(_one_cell_source(*self.float_tableau), f"<{self.name} one-cell kernel>",
                     "exec"), namespace)
        return namespace["kernel"]


def _one_cell_source(a, e) -> str:
    """The source of a one-cell step of the float tableau (a, e) from
    y = (u, v), whose first stage is k0: stage i is stage_fn(y_i),
    y_i = (sum_j (a_ij dt) k_j + u, sum_j (a_ij dt) k_j + v), and the error
    estimate is sum_i (e_i dt) k_i of either field.  Every sum starts at 0.0
    and keeps every term, zeros included, in the order of j, each weight
    scaled by dt first, as `_explicit_stages` scales its rows: so a kernel
    gives the bits of the plain loop over the tableau, inf and NaN
    included.  The last stage is at y_new."""
    lines = ["def kernel(u, v, k0, dt, stage_fn):", "    ku0, kv0 = k0"]

    def sums(weights, row):
        lines.extend(f"    w{row}_{j} = {w!r} * dt" for j, w in enumerate(weights))
        return [" + ".join(["0.0", *(f"w{row}_{j} * k{x}{j}" for j in range(len(weights)))])
                for x in "uv"]

    for i, row in enumerate(a[1:], start=1):
        su, sv = sums(row, i)
        lines += [f"    y{i} = ({su} + u, {sv} + v)",
                  f"    ku{i}, kv{i} = k{i} = stage_fn(y{i})"]
    last = len(a) - 1
    lines.append(f"    return (y{last}, k{last}, " + ", ".join(sums(e, "e")) + ")")
    return "\n".join(lines) + "\n"


def _stage_matrix(rows):
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for i, row in enumerate(rows, start=1):
        a[i, :i] = row
    return a


# Bogacki & Shampine (1989), nodes 0, 1/2, 3/4, 1, in integrating-factor form
LAWSON_BS3 = Pair("lawson_bs3", _stage_matrix([[1 / 2], [0, 3 / 4], [2 / 9, 1 / 3, 4 / 9]]),
                  e=np.array([2 / 9 - 7 / 24, 1 / 3 - 1 / 4, 4 / 9 - 1 / 3, -1 / 8]),
                  order=3, lawson=True)
# Dormand & Prince (1980)
DP5 = Pair("dp5", _stage_matrix([
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]]),
    e=np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]),
    order=5)
PAIRS = (LAWSON_BS3, DP5)
# DP5's real stability interval [-3.30657, 0]: its stability polynomial R has R(-3.30657) = +1
_DP5_REAL_STABILITY = 3.30657


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
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end:g}")
        require_alpha(self.alpha)
        require_growth_constants(self.p)
        if (not all(0 <= tol < math.inf for tol in (self.rel_tol, self.abs_tol))
                or self.rel_tol == self.abs_tol == 0):
            raise ValueError(f"rel_tol and abs_tol must be finite and >= 0, not both 0; "
                             f"got {self.rel_tol} and {self.abs_tol}")
        if not math.isfinite(self.sup_threshold):
            raise ValueError(f"sup_threshold must be finite, got {self.sup_threshold:g}")
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
    # {pair name: {"accepted": count, "rejected": count}}
    steps_by_pair: dict = field(default_factory=dict)
    final_fields: Optional[FieldPair] = None
    mirror_axes: tuple[int, ...] = ()  # the axes the run folded (module docstring)
    collapsed_axes: tuple[int, ...] = ()  # the axes the run collapsed (module docstring)

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


def _reaction_into(nl: Nonlinearity, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """N(y) = (f1, f2) of the stacked state y = [u; v], read as the slices
    y[:n], y[n:], into `out`; returns out."""
    n = y.size // 2
    out[:n], out[n:] = nl.reaction((y[:n], y[n:]))
    return out


def _derivative_into(op: RobinOperator, nl: Nonlinearity, y: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """A y + N(y), the time derivative of y = [u; v], into `out`; returns out."""
    return op.add_product(y, _reaction_into(nl, y, out))


def rhs(fields: FieldPair, mesh: Mesh, nl: Nonlinearity,
        gamma1: float, gamma2: float):
    """Time derivatives (u_t, v_t) of the semidiscrete system."""
    u, v = fields.u, fields.v
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonFiniteField("rhs called with non-finite fields")
    op, y = mesh.robin_operator(gamma1, gamma2), np.concatenate([u, v])
    out = _derivative_into(op, nl, y, np.empty_like(y))
    return out[:u.size], out[u.size:]


class StepWork:
    """Stage rows and states of `step`, allocated once per run.

    `K` has the rows of the widest pair.  An explicit s-stage pair writes
    stage i into `K[i]`, so `K[0]` is k1 = f(y) and its FSAL row f(y_new)
    lands in `K[s - 1]`.  A Lawson pair keeps N^(y), the reaction at y in the
    eigenbasis of A, in `K[0]`; `_lawson_stages` names its other rows, and
    its FSAL row N^(y_new) lands in `K[s + 1]`.  `accept` copies the FSAL
    row into `K[0]` and swaps the caller's state with `y_new`.  `op` is the
    `RobinOperator` whose eigenbasis a Lawson pair steps in.

    A one-cell state, held as the float pair (u, v) (module docstring), is
    stepped on floats with no row: `k1` holds its first stage, N(y) as a
    float pair.  `step` returns a trial's whole result; `StepWork` keeps none.
    """

    __slots__ = ("K", "y_new", "err", "scale", "op", "k1")

    def __init__(self, y: np.ndarray, op=None):
        """Allocate for states like `y`."""
        self.K = np.empty((max(p.rows for p in PAIRS), y.size))
        self.y_new, self.err, self.scale = (np.empty(y.size) for _ in range(3))
        self.op, self.k1 = op, None

    def restart(self, y: np.ndarray, stage_fn, pair: Pair):
        """The first stage of `pair` at the array state y: stage_fn(y) into
        K[0] for an explicit pair, its transform to the eigenbasis for a
        Lawson pair."""
        if pair.lawson:
            self.op.to_modes(stage_fn(y, self.err), self.K[0])
        else:
            stage_fn(y, self.K[0])

    def combine(self, weights: np.ndarray, out: np.ndarray, first: int = 0) -> np.ndarray:
        """out = sum_i weights[i] * K[first + i]."""
        return np.dot(weights, self.K[first:first + len(weights)], out=out)

    def accept(self, y, y_new, k_new):
        """Take the trial `step` made from `y`, its (y_new, _, k_new): copy
        the FSAL row k_new to `K[0]`, keep `y` as the buffer of the next
        y_new and return y_new.  On floats k_new becomes `k1`."""
        if type(y) is tuple:
            self.k1 = k_new
            return y_new
        self.K[0], self.y_new = k_new, y
        return y_new


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.dot(x, x) / x.size))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def step(y, dt: float, stage_fn, rel_tol: float, abs_tol: float,
         work: StepWork, pair: Pair = DP5):
    """One trial step of `pair` from y, whose first stage `work.K[0]` holds.

    stage_fn(y, out) writes the stage function at y into `out` and returns
    it: the derivative f(y) for an explicit pair, the reaction N(y) for a
    Lawson pair.  Returns the trial's whole result, (y_new, err_norm, k_new)
    for `StepWork.accept`: y_new is `work.y_new`, which y must not be, and
    k_new the FSAL row in `work.K`.  Overflow, invalid values and zero
    division are silenced from the first stage to the error norm, and the
    trial is rejected, returning (y, inf, None) with y untouched so that the
    caller shrinks dt, if a stage raises EvalAtZeroU (it left N's domain) or
    y_new or k_new is not finite; a norm that overflows is inf.  The error
    scale is abs_tol + rel_tol * max(|y|, |y_new|) (`_error_scale`).  A
    one-cell state held as the float pair (u, v) (module docstring) takes
    either pair through `_one_cell_step`, the same step on floats, whose
    first stage is `work.k1` and whose y_new and k_new are float pairs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if type(y) is tuple:
        return _one_cell_step(y, dt, stage_fn, rel_tol, abs_tol, work, pair)
    stages = _lawson_stages if pair.lawson else _explicit_stages
    try:
        y_new, k_new = stages(y, dt, stage_fn, work, pair)
    except EvalAtZeroU:
        return y, math.inf, None
    if not (np.isfinite(y_new).all() and np.isfinite(k_new).all()):
        return y, math.inf, None
    work.err /= _error_scale(y, y_new, rel_tol, abs_tol, work.scale)
    return y_new, _rms(work.err), k_new


def _one_cell_step(y, dt, stage_fn, rel_tol, abs_tol, work, pair):
    """`step` on the one-cell state held as the float pair y = (u, v), from
    the first stage `work.k1`, by the pair's `one_cell_kernel` (module
    docstring): each stage is stage_fn((u, v)), a float pair, and the checks,
    error scale and RMS norm are Python floats too, as numpy's per-call cost
    on 2-float rows would be most of the step.  `work`'s rows are untouched."""
    u, v = y
    try:
        y_new, k_new, eu, ev = pair.one_cell_kernel(u, v, work.k1, dt, stage_fn)
    except EvalAtZeroU:
        return y, math.inf, None
    u_new, v_new = y_new
    if not all(map(math.isfinite, (u_new, v_new, *k_new))):
        return y, math.inf, None
    ru = _scaled_error(eu, u, u_new, rel_tol, abs_tol)
    rv = _scaled_error(ev, v, v_new, rel_tol, abs_tol)
    return y_new, math.sqrt((ru * ru + rv * rv) / 2), k_new


def _scaled_error(err, old, new, rel_tol, abs_tol):
    """err over `_error_scale`'s scale of one cell's floats, or 0 where that
    scale is 0."""
    scale = abs_tol + rel_tol * max(abs(old), abs(new))
    return err / scale if scale else 0.0


def _error_scale(y, y_new, rel_tol, abs_tol, out):
    """abs_tol + rel_tol * max(|y|, |y_new|) into `out`; a cell where it is 0
    (abs_tol = 0, y = y_new = 0) is inf, so it counts as 0 in a norm of a
    ratio.  At y_new = y it is abs_tol + rel_tol * |y|, bit for bit."""
    np.maximum(np.abs(y, out=out), np.abs(y_new), out=out)
    out *= rel_tol
    out += abs_tol
    if abs_tol == 0:
        out[out == 0] = math.inf
    return out


def _explicit_stages(y, dt, rhs_vec, work, pair):
    """The stages of an explicit pair from y: returns (y_new, its FSAL row
    f(y_new)), `work.y_new` and `work.K[s - 1]`, and leaves the error
    estimate dt * sum_i e_i k_i in `work.err`."""
    s, a_dt, y_new = pair.stages, pair.a * dt, work.y_new
    # each stage's argument is built in y_new, the last one y_new itself
    for i in range(1, s):
        work.combine(a_dt[i, :i], y_new)
        y_new += y
        rhs_vec(y_new, work.K[i])
    work.combine(pair.e * dt, work.err)
    return y_new, work.K[s - 1]


def _lawson_stages(y, dt, reaction, work, pair):
    """The stages of a Lawson pair from y (module docstring): returns (y_new,
    its FSAL row N^(y_new)), `work.y_new` and `work.K[s + 1]`, and leaves
    the error estimate in `work.err`.

    Rows: K[1] holds y^ and K[2 + j] stage j's N^_j (K[2] a copy of K[0]),
    each multiplied by e^{(c_i - c_{i-1}) dt Lambda} on the way to node c_i.
    So at c_i they hold e^{c_i dt Lambda} y^ and e^{(c_i - c_j) dt Lambda} N^_j,
    and stage i's argument is their sum with weights 1 and dt a_ij.  The
    last node is 1, where the rows also give the error estimate.  K[s + 2]
    holds the exponential, and `work.err` each stage's argument and then its N.
    """
    s, a, c, K, op = pair.stages, pair.a, pair.nodes, work.K, work.op
    y_new, buffer, decay = work.y_new, work.err, K[s + 2]
    op.to_modes(y, K[1])
    K[2] = K[0]
    tau = None  # the time of the exponential in `decay`
    for i in range(1, s):
        if (c[i] - c[i - 1]) * dt != tau:
            tau = (c[i] - c[i - 1]) * dt
            op.decay(tau, decay)
        K[1:i + 2] *= decay
        work.combine(np.concatenate(([1.0], a[i, :i] * dt)), buffer, first=1)
        op.from_modes(buffer, y_new)
        op.to_modes(reaction(y_new, buffer), K[i + 2])
    # the error estimate is built in `scale`, which `step` writes afterwards
    op.from_modes(work.combine(pair.e * dt, work.scale, first=2), work.err)
    return y_new, K[s + 1]


def _proposed_dt(dt: float, err: float, err_prev: float, order: int) -> float:
    """The next trial dt (module docstring); err_prev: the last accepted err."""
    if err <= 1.0:
        fac = (_SAFETY * max(err, 1e-12) ** (-_PI_KI / order)
               * max(err_prev, 1e-12) ** (_PI_KP / order))
        return dt * min(_FAC_MAX, max(_FAC_MIN, fac))
    return dt * (max(0.1, _SAFETY * err ** (-1.0 / order)) if math.isfinite(err) else 0.5)


def _starting_dt(y, reaction, config: SolverConfig, scale: np.ndarray,
                 ratio: np.ndarray) -> float:
    """The first trial dt (module docstring), from the RMS norms d0 of y and
    d1 of N(y) in the units of sc = abs_tol + rel_tol |y|; builds sc in
    `scale` and each ratio in `ratio`.  y and N(y) may be float pairs.
    `simulate` calls it with overflow, invalid values and zero division
    silenced."""
    _error_scale(y, y, config.rel_tol, config.abs_tol, scale)
    d0, d1 = (_rms(np.divide(x, scale, out=ratio)) for x in (y, reaction))
    if d1 == 0:
        return config.t_end
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    dt = min(100 * h0, (0.01 / d1) ** (1 / (LAWSON_BS3.order + 1)))
    return dt if dt >= _DT_MIN else _DT_MIN  # also where an overflow made d1 inf


def _diffusion_cap(mesh: Mesh) -> float:
    """Largest dt `simulate` takes with DP5: 0.8 of its real stability
    interval over the Gershgorin bound 4 sum_a h_a^-2 on the Robin
    Laplacian's spectrum."""
    return _CAP_SAFETY * _DP5_REAL_STABILITY / (4.0 * sum(mesh.inverse_h2))


class _MonitorRows:
    """The monitor rows of a run (module docstring): `record` keeps each
    state's (t, dt) and a copy of it, and `flush` writes the kept states'
    rows with one `energy_rows` call.  States are kept in a block of
    `_ROW_BLOCK_BYTES`; a state too large for a block of two is written on
    its own, from the state."""

    def __init__(self, config: SolverConfig, mesh: Mesh, size: int):
        capacity = _ROW_BLOCK_BYTES // (8 * size)
        self.block = np.empty((capacity, size)) if capacity >= 2 else None
        self.kept, self.times, self.dts = 0, [], []
        self.config, self.mesh = config, mesh
        self.samples: list[EnergySample] = []
        self.negative = 0  # cells < 0 over the rows, when scriptE is monitored

    def record(self, y, t: float, dt: float) -> float:
        """Keep the row of the state y at t, reached by a step dt; return its
        sup-norm.  A one-cell y is the float pair (u, v)."""
        self.times.append(t)
        self.dts.append(dt)
        if self.block is None:
            self._write(y[None])
            return max(self.samples[-1].sup_u, self.samples[-1].sup_v)
        self.block[self.kept] = y
        self.kept += 1
        if self.kept == len(self.block):
            self.flush()
        if type(y) is tuple:
            u, v = y
            return max(abs(u), abs(v))
        return float(max(y.max(), -y.min()))

    def flush(self) -> list[EnergySample]:
        """Write the kept states' rows; return every row so far."""
        if self.kept:
            self._write(self.block[:self.kept])
            self.kept = 0
        return self.samples

    def _write(self, states):
        config = self.config
        if config.p is not None:
            self.negative += np.count_nonzero(states < 0)
        self.samples += energy_rows(states, self.times, self.dts, self.mesh, nl=config.nl,
                                    alpha=config.alpha, gamma1=config.gamma1,
                                    gamma2=config.gamma2, p=config.p)
        self.times, self.dts = [], []


def simulate(config: SolverConfig) -> SolveTrace:
    """Advance the system until t_end, blow-up threshold, or step underflow."""
    nl, mesh = config.nl, config.mesh.reduced(config.g1, config.g2, config.gamma1, config.gamma2)
    n, copies = mesh.n_cells, config.mesh.n_cells // mesh.n_cells
    y = np.concatenate([mesh.restrict(g) for g in (config.g1, config.g2)])

    op = mesh.robin_operator(config.gamma1, config.gamma2)
    # one cell is the box collapsed along every axis under Neumann walls,
    # where A is zero: either pair's stage is the reaction alone, on the
    # float pair (u, v) (module docstring)
    stage_fns = (dict.fromkeys(PAIRS, nl.reaction) if n == 1 else
                 {LAWSON_BS3: partial(_reaction_into, nl), DP5: partial(_derivative_into, op, nl)})
    caps = {LAWSON_BS3: math.inf, DP5: _diffusion_cap(mesh)}
    steps_by_pair = {p.name: {"accepted": 0, "rejected": 0} for p in PAIRS}

    def pair_for(dt_trial):
        """The pair rule (module docstring)."""
        return (LAWSON_BS3 if dt_trial >= caps[DP5]
                and not steps_by_pair[LAWSON_BS3.name]["rejected"] else DP5)

    work = StepWork(y, op)
    # N(g) serves the starting-step rule and the first stage of either pair:
    # A g + N(g) for DP5, N(g) in the eigenbasis for the Lawson pair, whose
    # steps never form A g, and N(g) itself in `k1` for a one-cell state held
    # as the float pair (u, v), where FSAL keeps N(y); each is checked finite,
    # with overflow, invalid values and zero division silenced as in `step`
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n == 1:
            y = tuple(y.tolist())
            reaction = work.k1 = nl.reaction(y)
        else:
            reaction = _reaction_into(nl, y, work.err)
        if not np.all(np.isfinite(reaction)):
            raise NonFiniteField("initial right-hand side is not finite")
        dt = _starting_dt(y, reaction, config, work.scale, work.y_new)
        pair = pair_for(dt)
        if n > 1:
            if pair.lawson:
                op.to_modes(reaction, work.K[0])
            else:
                work.K[0] = reaction
                if not np.isfinite(op.add_product(y, work.K[0])).all():
                    raise NonFiniteField("initial right-hand side is not finite")
    t, err_prev, dt_underflow, trials = 0.0, 1.0, False, 0
    rows = _MonitorRows(config, mesh, 2 * n)
    # the initial row carries the first trial dt, clamped but not to t_end
    sup = initial_sup = rows.record(y, t, min(dt, _DT_MAX))

    # how a run ends (module docstring); the starting dt may be below _DT_MIN
    while (t < config.t_end and sup < config.sup_threshold and not dt_underflow
           and trials < _MAX_TRIALS):
        trials += 1
        # a new pair restarts the PI history, and on more than one cell its
        # first stage (on one cell `k1` is N(y) already), under a trial's
        # error state: a non-finite stage rejects the next trial
        next_pair = pair_for(dt)
        if next_pair is not pair:
            pair, err_prev = next_pair, 1.0
            if n > 1:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    work.restart(y, stage_fns[pair], pair)
        dt = min(dt, caps[pair], _DT_MAX)
        # a step that would leave less than _DT_MIN before t_end ends there
        last = dt >= config.t_end - t - _DT_MIN
        if last:
            dt = config.t_end - t
        y_new, err, k_new = step(y, dt, stage_fns[pair], config.rel_tol, config.abs_tol, work,
                                 pair)
        accepted = err <= 1.0  # inf and NaN reject
        steps_by_pair[pair.name]["accepted" if accepted else "rejected"] += 1
        dt_next = _proposed_dt(dt, err, err_prev, pair.order)
        if pair is LAWSON_BS3 and not accepted:
            dt_next = dt  # DP5 retries the step at this dt and keeps the rest of the run
        if accepted:
            err_prev = max(err, 1e-12)
            t = config.t_end if last else t + dt
            y = work.accept(y, y_new, k_new)
            sup = rows.record(y, t, dt)
        dt = dt_next
        dt_underflow = dt < _DT_MIN

    samples = rows.flush()
    y = np.asarray(y)  # a one-cell state held as floats
    underflow = dt_underflow and t < config.t_end
    fallback_level = max(1e3 * initial_sup, 1e3)
    estimate = None
    if sup >= (fallback_level if underflow else config.sup_threshold):
        try:
            estimate = estimate_blowup_time(*_tail(samples))
        except InsufficientSamples:
            if not underflow:
                raise
    # short of t_end with neither, the run stopped at the trial limit
    outcome = (OUTCOME_BLOWUP if estimate is not None else OUTCOME_STEP_UNDERFLOW if underflow
               else OUTCOME_TRIAL_LIMIT if t < config.t_end else OUTCOME_REACHED_T_END)
    level = config.sup_threshold if sup >= config.sup_threshold else fallback_level
    return SolveTrace(
        samples=samples, outcome=outcome, blowup_estimate=estimate,
        u_crossed=estimate is not None and samples[-1].sup_u >= level,
        v_crossed=estimate is not None and samples[-1].sup_v >= level,
        clamp_count=rows.negative * copies, steps_by_pair=steps_by_pair,
        final_fields=FieldPair(u=mesh.unfold(y[:n]), v=mesh.unfold(y[n:]), t=t),
        mirror_axes=mesh.mirror_axes, collapsed_axes=mesh.collapsed_axes,
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


def estimate_blowup_time(ts, sups) -> BlowupEstimate:
    """Extrapolate the blow-up time from the tail of a (t, sup-norm) series
    whose first sample is the initial data's.

    For each rate candidate theta, sup ~ C*(t*-t)^(-theta) linearizes as
    sup^(-1/theta) against t; the best-fitting candidate's root gives the
    estimate.  A tail that an exponential, log(sup) linear in t, fits at
    least as well grows for all time and raises InsufficientSamples.
    Uncertainty combines the spread of roots across candidates with the
    shift from dropping the last sample.
    """
    ts = np.asarray(ts, dtype=float)
    sups = np.asarray(sups, dtype=float)
    # keep the steep tail: well above the initial level and within the
    # last three decades of growth
    mask = (sups > 10.0 * sups[0]) & (sups >= 1e-3 * sups.max())
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
