"""Quadrature on a mesh and the energy functionals of a discrete field pair.

E(t) is the squared L2 energy of the pair, J(t) the potential-dominated
functional whose sign drives the upper bound, and scriptE(t) the 2p-power
energy used by the lower bound.  `energy_rows` is the one place where E, J,
scriptE and the boundary and gradient terms are computed, for k states at
once, as monitor rows; `energy_sample` is that kernel on one state.  Every
layer reads a functional off such a row, so each formula is written once.

Each term is a kernel on a block of stacked states, one y = [u; v] per row,
that takes a few passes over the whole block and loops over no state or
field.  Each state's figures are those of the kernel on that state alone,
bit for bit: every reduction runs over one state or field at a time, the
dot products as one BLAS dot per state.

- Gradient energy: for each axis a of stride s, the differences
  y[s:] - y[:-s] of the flattened block in one buffer.  Read as rows of
  n_a s cells, with one field per n cells, each row's first (n_a - 1) s
  entries are the pairs that share a face; the rest pair cells on opposite
  walls, or across a u/v or state seam, and are not summed.  The squares of
  the kept pairs are summed per field in one pass and scaled by
  cell_volume / h_a^2.  This is the face-difference quadratic form of the
  Neumann operator L_N, `Mesh.robin_operator(0, 0)`, whose one tridiagonal
  per axis couples exactly these pairs (a Robin face adds to the end rows'
  diagonal only): summation by parts gives
  grad energy = -cell_volume * u . (L_N u), so the discrete
  integration-by-parts identities hold up to boundary closure error.  It is
  summed as squares of differences, not as that product, so it is exactly
  zero on constants and never cancels at large u.
- Boundary terms: one take of `Mesh.face_cells` from every field, each
  face's value that of its cell, squared, times the face areas.
- E, scriptE and the sup-norms: one reduction each per state.  scriptE
  clamps each field at 0; the rules of its p and of nonnegative data are
  those of its callers (`require_growth_constants`, the bounds' data rule).

Quadrature: `interior_integral` is the midpoint rule over the cells, each
weighted by `Mesh.cell_volume`, and `boundary_integral` the face-midpoint
rule over the faces, each weighted by its `Mesh.face_areas` entry; both are
exact for per-cell constants.  An integral raises NonFiniteSample iff a
sample is not finite or the sum overflows (`finite_total`), and the
monitor rows' integrals keep that rule.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NegativeField, NonFiniteField, NonFiniteSample
from .geometry import Mesh

NONNEG_TOL = 1e-12
# `check_trace_monitors`' relative tolerance, and the sup-norm from which it
# checks no row
_MONITOR_REL_TOL, _MONITOR_SUP_CAP = 1e-3, 1e3


def require_growth_constants(p=None, **k):
    """The rule of the lower bound's constants (here, below every caller):
    p finite and >= 1, each named k finite and > 0; None is a value not given."""
    if p is not None and not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p:g}")
    for name, value in k.items():
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value:g}")


def finite_total(total, what: str) -> float:
    """A quadrature's `total` as a float; NonFiniteSample if it is not finite,
    which is the case iff a sample is inf or NaN or the sum overflows."""
    if not np.isfinite(total):
        raise NonFiniteSample(f"{what} integral has a non-finite sample or overflows")
    return float(total)


@np.errstate(over="ignore", invalid="ignore")
def interior_integral(mesh: Mesh, samples) -> float:
    """Midpoint-rule integral over the domain; exact for per-cell constants."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size != mesh.n_cells:
        raise ValueError("one sample per cell required")
    return finite_total(np.sum(samples) * mesh.cell_volume, "interior")


@np.errstate(over="ignore", invalid="ignore")
def boundary_integral(mesh: Mesh, boundary_samples) -> float:
    """Face-midpoint integral over the boundary of the box."""
    samples = np.asarray(boundary_samples, dtype=float).ravel()
    if samples.size != mesh.face_cells.size:
        raise ValueError("one sample per boundary face required")
    return finite_total(np.sum(samples * mesh.face_areas), "boundary")


@dataclass(frozen=True)
class FieldPair:
    """Discrete solution pair on the mesh cells at one time."""

    u: np.ndarray
    v: np.ndarray
    t: float
    nonneg: bool = False

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        v = np.asarray(self.v, dtype=float).ravel()
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteField("field pair contains non-finite values")
        if self.nonneg and (u.min() < -NONNEG_TOL or v.min() < -NONNEG_TOL):
            raise NegativeField("nonnegativity flag set but fields go negative")


class EnergySample(NamedTuple):
    """One monitor row along a trajectory; its fields, in order, are the
    columns of the CSV trace.  A named tuple: a run builds one per step."""

    t: float
    E: float
    J: Optional[float]
    scriptE: Optional[float]
    grad_u_energy: float
    grad_v_energy: float
    bdry_u: float
    bdry_v: float
    intF: Optional[float]
    sup_u: float
    sup_v: float
    dt: float = math.nan

    def row(self):
        return [math.nan if val is None else float(val) for val in self]


# the columns of the CSV trace, EnergySample's fields in order
TRACE_COLUMNS = EnergySample._fields


def _row_dots(x: np.ndarray) -> np.ndarray:
    """The dot product of each row of the (k, m) block x with itself, each
    the BLAS dot of that row alone."""
    return np.matmul(x[:, None, :], x[:, :, None]).ravel()


def _squared_integrals(states: np.ndarray, mesh: Mesh) -> np.ndarray:
    """int of the sum of each state's fields squared, unchecked."""
    return _row_dots(states) * mesh.cell_volume


def _power_integrals(states: np.ndarray, mesh: Mesh, p: float) -> np.ndarray:
    """int of the sum of each state's fields to the power 2p, each clamped at
    0, as the squares of the p-th powers: a single power, the square for
    p = 2; unchecked."""
    powers = np.maximum(states, 0.0)
    np.power(powers, p, out=powers)
    return _row_dots(powers) * mesh.cell_volume


def _gradient_energies(y: np.ndarray, mesh: Mesh) -> np.ndarray:
    """int |grad|^2 dx of each field of y, one or more fields of n cells
    stacked (module docstring)."""
    fields = y.size // mesh.n_cells
    diffs = np.empty(y.size)
    energies = np.zeros(fields)
    for axis, (na, ha) in enumerate(zip(mesh.shape, mesh.h)):
        stride = math.prod(mesh.shape[axis + 1:])
        np.subtract(y[stride:], y[:-stride], out=diffs[:-stride])
        # the pairs that share a face, by field; the buffer's unwritten tail is not read
        faces = diffs.reshape(fields, -1, na * stride)[:, :, :-stride]
        # divided before scaled, so that a zero sum stays 0 on any mesh
        energies += np.einsum("ibj,ibj->i", faces, faces) / ha / ha * mesh.cell_volume
    return energies


def _boundary_energies(states: np.ndarray, mesh: Mesh) -> np.ndarray:
    """(k, 2): int_bdry u^2 ds and int_bdry v^2 ds of each state, unchecked."""
    values = np.take(states.reshape(len(states), 2, -1), mesh.face_cells, axis=2)
    np.square(values, out=values)
    return values @ mesh.face_areas


def energy_sample(fields: FieldPair, mesh: Mesh, nl=None, alpha: float = 1.0,
                  gamma1: float = 0.0, gamma2: float = 0.0,
                  p: Optional[float] = None, dt: float = float("nan")) -> EnergySample:
    """Assemble the full monitor row for one state: `energy_rows` on it.
    ValueError unless each field holds one value per cell of the mesh."""
    sizes = np.size(fields.u), np.size(fields.v)
    if sizes != (mesh.n_cells, mesh.n_cells):
        raise ValueError(f"a state needs one value of u and one of v per cell "
                         f"({mesh.n_cells}), got {sizes[0]} of u and {sizes[1]} of v")
    y = np.concatenate([fields.u, fields.v])
    return energy_rows(y[None], [fields.t], [dt], mesh, nl, alpha, gamma1, gamma2, p)[0]


@np.errstate(over="ignore", invalid="ignore")
def energy_rows(states: np.ndarray, ts, dts, mesh: Mesh, nl=None, alpha: float = 1.0,
                gamma1: float = 0.0, gamma2: float = 0.0,
                p: Optional[float] = None) -> list[EnergySample]:
    """The monitor rows of k states, the rows of the (k, 2n) block `states`,
    each y = [u; v], at the times `ts` and with the steps `dts`.

    The terms are computed in one numpy error state, with overflow and
    invalid silenced; NonFiniteSample, as `energy_sample` raises it, for
    the first state with a non-finite integral.  ValueError unless each
    state holds both fields' values in every cell of the mesh."""
    k = len(states)
    if states.shape[1] != 2 * mesh.n_cells:
        raise ValueError(f"a state needs one value of u and one of v per cell "
                         f"({mesh.n_cells}), got {states.shape[1]} values")
    fields = states.reshape(k, 2, -1)
    bdry = _boundary_energies(states, mesh)
    grad = _gradient_energies(states.ravel(), mesh).reshape(k, 2)
    J = intF = None
    if nl is not None and nl.has_potential:
        # a sample of F that overflows makes its integral, so its row, not finite
        values = np.asarray(nl.F(fields[:, 0], fields[:, 1]), dtype=float).reshape(k, -1)
        if values.shape[1] != mesh.n_cells:
            raise ValueError("one sample per cell required")
        intF = values.sum(axis=1) * mesh.cell_volume
        c = 2.0 * (1.0 + alpha)
        J = (-c * (gamma1 * bdry[:, 0] + grad[:, 0]) - c * (gamma2 * bdry[:, 1] + grad[:, 1])
             + 2.0 * c * intF)
    E = _squared_integrals(states, mesh)
    scriptE = None if p is None else _power_integrals(states, mesh, p)
    # the checks of `boundary_integral` and `interior_integral`, in the row's order
    checked = [("boundary", bdry[:, 0]), ("boundary", bdry[:, 1]), ("interior", intF),
               ("interior", E), ("interior", scriptE)]
    checked = [(what, totals) for what, totals in checked if totals is not None]
    finite = np.logical_and.reduce([np.isfinite(totals) for _, totals in checked])
    if not finite.all():
        bad = int(np.argmin(finite))
        for what, totals in checked:
            finite_total(totals[bad], what)
    sups = np.maximum(fields.max(axis=2), -fields.min(axis=2))
    columns = [ts, E, J, scriptE, grad[:, 0], grad[:, 1], bdry[:, 0], bdry[:, 1], intF,
               sups[:, 0], sups[:, 1], dts]
    columns = [[None] * k if col is None else np.asarray(col, dtype=float).tolist()
               for col in columns]
    return [EnergySample(*row) for row in zip(*columns)]


@dataclass(frozen=True)
class MonitorReport:
    """Discrete surrogate checks of the trajectory inequalities."""

    n_checked: int
    nonfinite_rows: int
    j_monotone_violations: int
    growth_inequality_violations: int
    worst_j_decrease: float
    worst_growth_residual: float


def check_trace_monitors(samples, alpha: float) -> MonitorReport:
    """Check J-monotonicity and (1+alpha)*E'/E <= J'/J along a sampled trace.

    Derivatives use centered differences on the sample times (first and last
    samples skipped); the growth inequality is only evaluated at samples
    where J > 0 and both sup-norms are below `_MONITOR_SUP_CAP`.  Both
    checks allow `_MONITOR_REL_TOL`.  A row whose E or J is not finite is
    counted in `nonfinite_rows`, and no sample whose differences read it
    is checked.
    """
    rows = [s for s in samples if s.J is not None]
    finite = [math.isfinite(s.E) and math.isfinite(s.J) for s in rows]
    n_checked = 0
    j_viol = 0
    growth_viol = 0
    worst_dec = 0.0
    worst_res = 0.0
    for k in range(1, len(rows) - 1):
        prev, cur, nxt = rows[k - 1], rows[k], rows[k + 1]
        if not all(finite[k - 1:k + 2]) or max(cur.sup_u, cur.sup_v) >= _MONITOR_SUP_CAP:
            continue
        n_checked += 1
        # J nondecreasing step-to-step (relative tolerance)
        dec = (cur.J - nxt.J) / (abs(cur.J) + 1e-300)
        worst_dec = max(worst_dec, dec)
        if nxt.J < cur.J - _MONITOR_REL_TOL * abs(cur.J):
            j_viol += 1
        if cur.J <= 0:
            continue
        dt2 = nxt.t - prev.t
        dE = (nxt.E - prev.E) / dt2
        dJ = (nxt.J - prev.J) / dt2
        lhs = (1.0 + alpha) * dE / cur.E
        rhs = dJ / cur.J
        scale = abs(lhs) + abs(rhs) + 1e-300
        res = (lhs - rhs) / scale
        worst_res = max(worst_res, res)
        if res > _MONITOR_REL_TOL:
            growth_viol += 1
    return MonitorReport(
        n_checked=n_checked,
        nonfinite_rows=finite.count(False),
        j_monotone_violations=j_viol,
        growth_inequality_violations=growth_viol,
        worst_j_decrease=worst_dec,
        worst_growth_residual=worst_res,
    )
