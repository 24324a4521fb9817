"""Energy functionals of a discrete field pair.

E(t) is the squared L2 energy of the pair, J(t) the potential-dominated
functional whose sign drives the upper bound, and scriptE(t) the 2p-power
energy used by the lower bound.  `energy_sample` is the one place where J,
scriptE and the boundary and gradient terms are computed: `functional_J`
returns its monitor row, which holds J together with the pieces it is built
from, and `energy_scriptE` shares its scriptE formula.

The gradient energy is the face-difference quadratic form of the mesh's
Neumann operator `Mesh.laplacian` (DIA storage; the solver adds the Robin
diagonal `Mesh.robin_diagonal` to it): summation by parts gives
grad energy = -cell_volume * u . (L_N u), so the discrete integration-by-parts
identities hold up to boundary closure error.  It is summed as squares of face
differences, not as that product, so it is exactly zero on constants and
never cancels at large u.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .errors import NegativeField, NonFiniteField
from .geometry import Mesh, boundary_integral, interior_integral

NONNEG_TOL = 1e-12

# CSV column order for trace files
ENERGY_SAMPLE_COLUMNS = (
    "t", "E", "J", "scriptE", "grad_u_energy", "grad_v_energy",
    "bdry_u", "bdry_v", "intF", "sup_u", "sup_v", "dt",
)


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


@dataclass(frozen=True)
class EnergySample:
    """One monitor row along a trajectory (the CSV trace schema)."""

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
        out = []
        for name in ENERGY_SAMPLE_COLUMNS:
            val = getattr(self, name)
            out.append(float("nan") if val is None else float(val))
        return out


def energy_E(fields: FieldPair, mesh: Mesh) -> float:
    """int (u^2 + v^2) dx."""
    return interior_integral(mesh, fields.u**2 + fields.v**2)


def energy_scriptE(fields: FieldPair, mesh: Mesh, p: float) -> float:
    """int (u^{2p} + v^{2p}) dx; requires the nonnegativity flag."""
    if not fields.nonneg:
        raise NegativeField("scriptE requires fields flagged nonnegative")
    if p < 1:
        raise ValueError("p must be >= 1")
    return _scriptE(fields, mesh, p)


def _scriptE(fields: FieldPair, mesh: Mesh, p: float) -> float:
    u = np.maximum(fields.u, 0.0)
    v = np.maximum(fields.v, 0.0)
    return interior_integral(mesh, u ** (2.0 * p) + v ** (2.0 * p))


def discrete_gradient_energy(field_values, mesh: Mesh) -> float:
    """int |grad u|^2 dx via two-point differences on interior faces."""
    grid = mesh.to_grid(np.asarray(field_values, dtype=float))
    total = 0.0
    for axis, ha in enumerate(mesh.h):
        diffs = np.diff(grid, axis=axis) / ha
        total += float(np.sum(diffs**2)) * mesh.cell_volume
    return total


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
    bdry_u = boundary_integral(mesh, mesh.boundary_values(fields.u) ** 2)
    bdry_v = boundary_integral(mesh, mesh.boundary_values(fields.v) ** 2)
    grad_u = discrete_gradient_energy(fields.u, mesh)
    grad_v = discrete_gradient_energy(fields.v, mesh)
    J = intF = None
    if nl is not None and nl.has_potential:
        intF = interior_integral(mesh, nl.F(fields.u, fields.v))
        c = 2.0 * (1.0 + alpha)
        J = -c * (gamma1 * bdry_u + grad_u) - c * (gamma2 * bdry_v + grad_v) + 2.0 * c * intF
    return EnergySample(
        t=fields.t,
        E=energy_E(fields, mesh),
        J=J,
        scriptE=None if p is None else _scriptE(fields, mesh, p),
        grad_u_energy=grad_u,
        grad_v_energy=grad_v,
        bdry_u=bdry_u,
        bdry_v=bdry_v,
        intF=intF,
        sup_u=float(np.max(np.abs(fields.u))),
        sup_v=float(np.max(np.abs(fields.v))),
        dt=dt,
    )


@dataclass(frozen=True)
class MonitorReport:
    """Discrete surrogate checks of the trajectory inequalities."""

    n_checked: int
    j_monotone_violations: int
    growth_inequality_violations: int
    worst_j_decrease: float
    worst_growth_residual: float


def check_trace_monitors(samples, alpha: float, rel_tol: float = 1e-3,
                         sup_cap: float = 1e3) -> MonitorReport:
    """Check J-monotonicity and (1+alpha)*E'/E <= J'/J along a sampled trace.

    Derivatives use centered differences on the sample times (first and last
    samples skipped); the growth inequality is only evaluated at samples
    where J > 0 and both sup-norms are below sup_cap.
    """
    rows = [s for s in samples if s.J is not None]
    n_checked = 0
    j_viol = 0
    growth_viol = 0
    worst_dec = 0.0
    worst_res = 0.0
    for k in range(1, len(rows) - 1):
        prev, cur, nxt = rows[k - 1], rows[k], rows[k + 1]
        if max(cur.sup_u, cur.sup_v) >= sup_cap:
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
        j_monotone_violations=j_viol,
        growth_inequality_violations=growth_viol,
        worst_j_decrease=worst_dec,
        worst_growth_residual=worst_res,
    )
