"""Energy functionals of a discrete field pair.

E(t) is the squared L2 energy of the pair, J(t) the potential-dominated
functional whose sign drives the upper bound, and scriptE(t) the 2p-power
energy used by the lower bound.  `energy_sample` is the one place where J,
scriptE and the boundary and gradient terms are computed: `functional_J`
returns its monitor row, which holds J together with the pieces it is built
from.

Each term is a kernel on the stacked state y = [u; v] that takes a few
passes over all of y and loops over no field; `energy_E`, `energy_scriptE`
and `discrete_gradient_energy` call the row's kernels, so each formula is
written once.  A pair made by `FieldPair.of_state`, as `simulate` makes its
rows, hands its y to them without a copy.

- Gradient energy: for each axis a of stride s, the differences
  y[s:] - y[:-s] in one buffer.  Read as rows of n_a s cells, with one
  field per n cells, each row's first (n_a - 1) s entries are the pairs
  that share a face; the rest pair cells on opposite walls, or across the
  u/v seam, and are not summed.  The squares of the kept pairs are summed
  per field in one pass and scaled by cell_volume / h_a^2.  This is the
  face-difference quadratic form of the mesh's Neumann operator
  `Mesh.laplacian` (`Mesh.robin_operator` adds the Robin diagonal to it):
  summation by parts gives grad energy = -cell_volume * u . (L_N u), so the
  discrete integration-by-parts identities hold up to boundary closure
  error.  It is summed as squares of differences, not as that product, so
  it is exactly zero on constants and never cancels at large u.
- Boundary terms: one take of `Mesh.face_cells` from both fields, each
  face's value that of its cell, squared, times the face areas.
- E, scriptE and the sup-norms: one reduction each over y.

The integrals keep the rule of `interior_integral` and
`boundary_integral`: NonFiniteSample iff a sample is not finite or the sum
overflows.
"""

import math
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields
from typing import Optional

import numpy as np

from .errors import NegativeField, NonFiniteField
from .geometry import Mesh, _finite_total, interior_integral

NONNEG_TOL = 1e-12


def require_growth_constants(p=None, **k):
    """The rule of the lower bound's constants (here, below every caller):
    p finite and >= 1, each named k finite and > 0; None is a value not given."""
    if p is not None and not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p:g}")
    for name, value in k.items():
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value:g}")


@dataclass(frozen=True)
class FieldPair:
    """Discrete solution pair on the mesh cells at one time.

    `state` is, for a pair made by `of_state`, the stacked state y = [u; v]
    whose halves are u and v, which the kernels read without a copy; None
    otherwise."""

    u: np.ndarray
    v: np.ndarray
    t: float
    nonneg: bool = False
    state: Optional[np.ndarray] = dataclass_field(default=None, init=False, repr=False,
                                                  compare=False)

    @classmethod
    def of_state(cls, y: np.ndarray, t: float) -> "FieldPair":
        """The pair of views of y = [u; v]'s halves, which shares y."""
        n = y.size // 2
        pair = cls(u=y[:n], v=y[n:], t=t)
        object.__setattr__(pair, "state", y)
        return pair

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        v = np.asarray(self.v, dtype=float).ravel()
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteField("field pair contains non-finite values")
        if self.nonneg and (u.min() < -NONNEG_TOL or v.min() < -NONNEG_TOL):
            raise NegativeField("nonnegativity flag set but fields go negative")


@dataclass(frozen=True)
class EnergySample:
    """One monitor row along a trajectory; its fields, in order, are the
    columns of the CSV trace."""

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
    dt: float = dataclass_field(default=float("nan"))

    def row(self):
        values = (getattr(self, f.name) for f in dataclass_fields(self))
        return [float("nan") if val is None else float(val) for val in values]


def energy_E(fields: FieldPair, mesh: Mesh) -> float:
    """int (u^2 + v^2) dx."""
    return _squared_integral(_stacked(fields), mesh)


def energy_scriptE(fields: FieldPair, mesh: Mesh, p: float) -> float:
    """int (u^{2p} + v^{2p}) dx; requires the nonnegativity flag."""
    if not fields.nonneg:
        raise NegativeField("scriptE requires fields flagged nonnegative")
    require_growth_constants(p)
    return _power_integral(_stacked(fields), mesh, p)


def discrete_gradient_energy(field_values, mesh: Mesh) -> float:
    """int |grad u|^2 dx via two-point differences on interior faces."""
    return _gradient_energies(np.asarray(field_values, dtype=float).ravel(), mesh).item()


def _stacked(fields: FieldPair) -> np.ndarray:
    """y = [u; v], which the kernels only read."""
    return fields.state if fields.state is not None else np.concatenate([fields.u, fields.v])


@np.errstate(over="ignore", invalid="ignore")
def _squared_integral(y: np.ndarray, mesh: Mesh) -> float:
    """int of the sum of y's fields squared."""
    return _finite_total(np.dot(y, y) * mesh.cell_volume, "interior")


@np.errstate(over="ignore", invalid="ignore")
def _power_integral(y: np.ndarray, mesh: Mesh, p: float) -> float:
    """int of the sum of y's fields to the power 2p, each clamped at 0, as
    the squares of the p-th powers: a single power, the square for p = 2."""
    powers = np.maximum(y, 0.0)
    np.power(powers, p, out=powers)
    return _finite_total(np.dot(powers, powers) * mesh.cell_volume, "interior")


@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def _boundary_energies(y: np.ndarray, mesh: Mesh) -> list[float]:
    """int_bdry u^2 ds and int_bdry v^2 ds of y = [u; v]."""
    values = np.take(y.reshape(2, -1), mesh.face_cells, axis=1)
    np.square(values, out=values)
    return [_finite_total(total, "boundary") for total in values @ mesh.face_areas]


def functional_J(fields: FieldPair, mesh: Mesh, nl, alpha: float,
                 gamma1: float, gamma2: float) -> EnergySample:
    """The functional J(t) = -2(1+alpha) * (boundary and gradient terms)
    + 4(1+alpha) * int F, as the monitor row that also holds its pieces."""
    nl.require_potential("functional_J")
    return energy_sample(fields, mesh, nl, alpha, gamma1, gamma2)


def energy_sample(fields: FieldPair, mesh: Mesh, nl=None, alpha: float = 1.0,
                  gamma1: float = 0.0, gamma2: float = 0.0,
                  p: Optional[float] = None, dt: float = float("nan")) -> EnergySample:
    """Assemble the full monitor row for one state."""
    y = _stacked(fields)
    bdry_u, bdry_v = _boundary_energies(y, mesh)
    grad_u, grad_v = _gradient_energies(y, mesh).tolist()
    J = intF = None
    if nl is not None and nl.has_potential:
        intF = interior_integral(mesh, nl.F(fields.u, fields.v))
        c = 2.0 * (1.0 + alpha)
        J = -c * (gamma1 * bdry_u + grad_u) - c * (gamma2 * bdry_v + grad_v) + 2.0 * c * intF
    E = _squared_integral(y, mesh)
    scriptE = None if p is None else _power_integral(y, mesh, p)
    y2 = y.reshape(2, -1)
    sup_u, sup_v = np.maximum(y2.max(axis=1), -y2.min(axis=1)).tolist()
    return EnergySample(
        t=fields.t,
        E=E,
        J=J,
        scriptE=scriptE,
        grad_u_energy=grad_u,
        grad_v_energy=grad_v,
        bdry_u=bdry_u,
        bdry_v=bdry_v,
        intF=intF,
        sup_u=sup_u,
        sup_v=sup_v,
        dt=dt,
    )


@dataclass(frozen=True)
class MonitorReport:
    """Discrete surrogate checks of the trajectory inequalities."""

    n_checked: int
    nonfinite_rows: int
    j_monotone_violations: int
    growth_inequality_violations: int
    worst_j_decrease: float
    worst_growth_residual: float


def check_trace_monitors(samples, alpha: float, rel_tol: float = 1e-3,
                         sup_cap: float = 1e3) -> MonitorReport:
    """Check J-monotonicity and (1+alpha)*E'/E <= J'/J along a sampled trace.

    Derivatives use centered differences on the sample times (first and last
    samples skipped); the growth inequality is only evaluated at samples
    where J > 0 and both sup-norms are below sup_cap.  A row whose E or J is
    not finite is counted in `nonfinite_rows`, and no sample whose
    differences read it is checked.
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
        if not all(finite[k - 1:k + 2]) or max(cur.sup_u, cur.sup_v) >= sup_cap:
            continue
        n_checked += 1
        # J nondecreasing step-to-step (relative tolerance)
        dec = (cur.J - nxt.J) / (abs(cur.J) + 1e-300)
        worst_dec = max(worst_dec, dec)
        if nxt.J < cur.J - rel_tol * abs(cur.J):
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
        if res > rel_tol:
            growth_viol += 1
    return MonitorReport(
        n_checked=n_checked,
        nonfinite_rows=finite.count(False),
        j_monotone_violations=j_viol,
        growth_inequality_violations=growth_viol,
        worst_j_decrease=worst_dec,
        worst_growth_residual=worst_res,
    )
