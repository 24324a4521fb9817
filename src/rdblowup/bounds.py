"""Upper and lower bounds on the blow-up time.

The upper bound reads E(0) and J(0) off the monitor row of the initial data:
with J(0) > 0, blow-up occurs no later than t_upper = E(0)/(alpha*J(0)), and
M = J(0)/E(0)^(1+alpha) is reported beside it.  The lower bound integrates
d(xi)/(K1*xi^(3/2) + K2*xi^3) from scriptE(0) to infinity, with K1, K2 built
from the geometric constants rho, d and the admissible beta constants.  A
bound that does not apply to its input raises a `BoundRefused` error.
"""

from dataclasses import dataclass
from decimal import Context, Decimal
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    DimensionNot3,
    HypothesisFailed,
    NonpositiveE0,
    NonpositiveJ0,
)
from .functionals import FieldPair, energy_E, energy_scriptE, require_growth_constants
from .geometry import BALL, DomainSpec, GeometryConstants, Mesh, geometry_constants
from .nonlinearity import (
    DEFAULT_BOX,
    DEFAULT_SAMPLES,
    HypothesisReport,
    Nonlinearity,
    _initial_data_row,
    check_A2_A3,
    check_A2prime,
    check_H1,
    require_nonnegative_data,
)

MODE_A2A3 = "A2A3"
MODE_A2PRIME = "A2prime"

SMOOTH_BOUNDARY_CAVEAT = (
    "constants rho, d applied to a box: the boundary is only piecewise "
    "smooth, while the bound is stated for smooth convex domains"
)


@dataclass(frozen=True)
class UpperBoundResult:
    alpha: float
    E0: float
    J0: float
    M: float
    t_upper: float
    hypothesis_reports: tuple[HypothesisReport, ...]


@dataclass(frozen=True)
class LowerBoundResult:
    p: float
    k1: float
    k2: float
    k: float
    rho: float
    d: float
    beta1: float
    beta2: float
    beta: float
    K1: float
    K2: float
    scriptE0: float
    t_lower: float
    integral_abs_error: float
    hypothesis_reports: tuple[HypothesisReport, ...]
    smooth_boundary_caveat: Optional[str] = None


def _require_hold(reports):
    """The reports, if each holds; else HypothesisFailed for the first that fails."""
    for rep in reports:
        if not rep.holds:
            raise HypothesisFailed(rep.hypothesis, witness=rep.witness, margin=rep.margin)
    return reports


def upper_bound_blowup(nl: Nonlinearity, g1, g2, mesh: Mesh,
                       gamma1: float, gamma2: float, alpha: float,
                       check_box=DEFAULT_BOX,
                       samples_per_axis: int = DEFAULT_SAMPLES) -> UpperBoundResult:
    """Verify H1-H3 on the given data and compute t_upper = E0/(alpha*J0).

    Refusals come in a fixed order: E0 <= 0 (decided on the raw data, as the
    data rule must admit the data before the row evaluates F), H1's errors,
    the Robin and data rules, the first of H1-H3 to fail, then J0 <= 0.
    """
    if energy_E(FieldPair(u=g1, v=g2, t=0.0), mesh) <= 0:
        raise NonpositiveE0("initial energy vanishes")
    rep1 = check_H1(nl, alpha, box=check_box, samples_per_axis=samples_per_axis)
    row, (rep2, rep3) = _initial_data_row(nl, g1, g2, mesh, gamma1, gamma2, alpha)
    reports = _require_hold((rep1, rep2, rep3))
    E0, J0 = row.E, row.J
    if J0 <= 0:
        raise NonpositiveJ0(
            f"J(0) = {J0:g} <= 0: the blow-up argument needs a positive M"
        )
    # in decimal, whose exponent range holds E0^(1+alpha) wherever M is a
    # float, and in which 1 + alpha is exact
    ctx = Context(traps=[])
    M = float(ctx.divide(Decimal(J0), ctx.power(Decimal(E0), ctx.add(1, Decimal(alpha)))))
    return UpperBoundResult(
        alpha=alpha, E0=E0, J0=J0, M=M, t_upper=E0 / (alpha * J0),
        hypothesis_reports=reports,
    )


def _domain_factor(geo: GeometryConstants) -> float:
    """(d/rho + 1)^(3/2), the domain's factor in beta's admissibility and in K2."""
    if geo.rho <= 0:
        raise ValueError(f"need rho > 0, got {geo.rho:g}")
    return (geo.d / geo.rho + 1.0) ** 1.5


def select_betas(p: float, k1: float, k2: float, geo: GeometryConstants):
    """Largest admissible (beta1, beta2): each solves its admissibility
    inequality at equality, which maximizes the lower bound since K2
    scales like beta**-3."""
    require_growth_constants(p, k1=k1, k2=k2)
    geom = _domain_factor(geo)
    return tuple(2.0**1.5 * (2.0 * p - 1.0) / (3.0**0.25 * p * p * ki * geom)
                 for ki in (k1, k2))


def beta_admissibility_residual(p: float, k: float, geo: GeometryConstants,
                                beta: float) -> float:
    """Value of the admissibility expression; admissible iff <= 0."""
    return -2.0 * (2.0 * p - 1.0) / p + 3.0**0.25 * p * k / 2.0**0.5 * _domain_factor(geo) * beta


def compute_K(p: float, k: float, geo: GeometryConstants, beta: float):
    """K1 = 3^(3/4) * p * k * rho^(-3/2) and the matching K2."""
    require_growth_constants(p, k=k)
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta:g}")
    # K2 first: its factor checks rho > 0, which K1's rho^(-3/2) needs
    K2 = (p * k / (2.0**0.5 * 3.0**0.75)) * _domain_factor(geo) * beta**-3.0
    return 3.0**0.75 * p * k * geo.rho**-1.5, K2


def lower_bound_blowup(scriptE0: float, K1: float, K2: float,
                       abs_tol: float = 1e-12):
    """Integrate d(xi)/(K1*xi^(3/2) + K2*xi^3) from scriptE0 to infinity.

    The substitution w = xi^(-1/2) turns the improper integral into
    int_0^{1/sqrt(scriptE0)} 2*w^3/(K1*w^3 + K2) dw, which has a bounded
    integrand; adaptive quadrature then gives value and error estimate.
    """
    if scriptE0 <= 0:
        raise NonpositiveE0("scriptE(0) must be positive")
    if K1 <= 0 or K2 < 0:
        raise ValueError("need K1 > 0 and K2 >= 0")

    def integrand(w):
        return 2.0 * w**3 / (K1 * w**3 + K2)

    upper = 1.0 / np.sqrt(scriptE0)
    value, err = quad(integrand, 0.0, upper, epsabs=abs_tol, epsrel=abs_tol, limit=200)
    return float(value), float(err)


def require_mode(mode: str) -> str:
    """The lower bound's hypothesis modes are A2prime and A2A3.  Returns mode."""
    if mode not in (MODE_A2PRIME, MODE_A2A3):
        raise ValueError(f"unknown hypothesis mode {mode!r}; "
                         f"expected {MODE_A2PRIME} or {MODE_A2A3}")
    return mode


def _lower_bound_checks(nl: Nonlinearity, k1: float, k2: float, p: float,
                        mode: str, check_box, samples_per_axis: int):
    """The sampled growth hypotheses of one mode: (A2prime,) or (A2, A3)."""
    if require_mode(mode) == MODE_A2PRIME:
        return (check_A2prime(nl, k1, k2, p, box=check_box,
                              samples_per_axis=samples_per_axis),)
    return check_A2_A3(nl, k1, k2, p, box=check_box,
                       samples_per_axis=samples_per_axis)


def lower_bound_pipeline(nl: Nonlinearity, g1, g2, domain, p: float,
                         k1: float, k2: float, mode: str = MODE_A2PRIME,
                         check_box=DEFAULT_BOX,
                         samples_per_axis: int = DEFAULT_SAMPLES) -> LowerBoundResult:
    """Compose the geometric constants, beta selection, K constants,
    scriptE(0) and the bound integral into a LowerBoundResult.

    `domain` is either a Mesh (box; g1, g2 per-cell) or a ball DomainSpec
    (g1, g2 must then be spatially constant values).
    """
    spec = domain.spec if isinstance(domain, Mesh) else domain
    if spec.dimension != 3:
        raise DimensionNot3("the lower bound is stated for 3D domains only")

    reports = _require_hold(
        _lower_bound_checks(nl, k1, k2, p, mode, check_box, samples_per_axis))

    geo = geometry_constants(spec)
    require_nonnegative_data(g1, g2)
    if isinstance(domain, Mesh):
        fields = FieldPair(u=g1, v=g2, t=0.0, nonneg=True)
        scriptE0 = energy_scriptE(fields, domain, p)
        caveat = SMOOTH_BOUNDARY_CAVEAT
    else:
        if spec.kind != BALL:
            raise ValueError("an unmeshed domain must be a ball")
        c1, c2 = float(g1), float(g2)
        scriptE0 = (c1 ** (2.0 * p) + c2 ** (2.0 * p)) * spec.volume
        caveat = None

    beta1, beta2 = select_betas(p, k1, k2, geo)
    k = max(k1, k2)
    beta = min(beta1, beta2)
    K1, K2 = compute_K(p, k, geo, beta)
    t_lower, err = lower_bound_blowup(scriptE0, K1, K2)
    return LowerBoundResult(
        p=p, k1=k1, k2=k2, k=k, rho=geo.rho, d=geo.d,
        beta1=beta1, beta2=beta2, beta=beta,
        K1=K1, K2=K2, scriptE0=scriptE0,
        t_lower=t_lower, integral_abs_error=err,
        hypothesis_reports=reports,
        smooth_boundary_caveat=caveat,
    )
