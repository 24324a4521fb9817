"""Upper and lower bounds on the blow-up time.

The upper bound comes from the energy pair (E, J): with M = J(0)/E(0)^(1+alpha)
positive, blow-up occurs no later than 1/(alpha*M*E(0)^alpha).  The lower
bound integrates d(xi)/(K1*xi^(3/2) + K2*xi^3) from scriptE(0) to infinity,
with K1, K2 built from the geometric constants rho, d and the admissible
beta constants.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    DimensionNot3,
    HypothesisFailed,
    NonpositiveE0,
    NonpositiveJ0,
)
from .functionals import FieldPair, energy_E, energy_scriptE, functional_J
from .geometry import BALL, DomainSpec, GeometryConstants, Mesh, geometry_constants
from .nonlinearity import (
    DEFAULT_BOX,
    DEFAULT_SAMPLES,
    HypothesisReport,
    Nonlinearity,
    check_A2_A3,
    check_A2prime,
    check_H1,
    check_H2_H3,
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


def upper_bound_blowup(nl: Nonlinearity, g1, g2, mesh: Mesh,
                       gamma1: float, gamma2: float, alpha: float,
                       check_box=DEFAULT_BOX,
                       samples_per_axis: int = DEFAULT_SAMPLES) -> UpperBoundResult:
    """Verify the gradient-system hypotheses on the given data and compute
    the upper bound in both algebraic forms."""
    fields = FieldPair(u=g1, v=g2, t=0.0)
    E0 = energy_E(fields, mesh)
    if E0 <= 0:
        raise NonpositiveE0("initial energy vanishes")

    rep1 = check_H1(nl, alpha, box=check_box, samples_per_axis=samples_per_axis)
    rep2, rep3 = check_H2_H3(nl, g1, g2, mesh, gamma1, gamma2)
    reports = (rep1, rep2, rep3)
    for rep in reports:
        if not rep.holds:
            raise HypothesisFailed(rep.hypothesis, witness=rep.witness, margin=rep.margin)
    J0 = functional_J(fields, mesh, nl, alpha, gamma1, gamma2).J
    if J0 <= 0:
        raise NonpositiveJ0(
            f"J(0) = {J0:g} <= 0: the blow-up argument needs a positive M"
        )
    M = J0 / E0 ** (1.0 + alpha)
    t_form_M = 1.0 / (alpha * M * E0**alpha)
    t_form_J = E0 / (alpha * J0)
    if abs(t_form_M - t_form_J) > 1e-12 * abs(t_form_J):
        raise ArithmeticError("upper-bound algebraic forms disagree")
    return UpperBoundResult(
        alpha=alpha, E0=E0, J0=J0, M=M, t_upper=t_form_J,
        hypothesis_reports=reports,
    )


def select_betas(p: float, k1: float, k2: float, geo: GeometryConstants):
    """Largest admissible (beta1, beta2): each solves its admissibility
    inequality at equality, which maximizes the lower bound since K2
    scales like beta**-3."""
    if p < 1 or min(k1, k2) <= 0 or geo.rho <= 0:
        raise ValueError("need p >= 1, k_i > 0, rho > 0")
    geom = (geo.d / geo.rho + 1.0) ** 1.5
    betas = tuple(
        2.0**1.5 * (2.0 * p - 1.0) / (3.0**0.25 * p * p * ki * geom)
        for ki in (k1, k2)
    )
    return betas


def beta_admissibility_residual(p: float, k: float, geo: GeometryConstants,
                                beta: float) -> float:
    """Value of the admissibility expression; admissible iff <= 0."""
    geom = (geo.d / geo.rho + 1.0) ** 1.5
    return -2.0 * (2.0 * p - 1.0) / p + 3.0**0.25 * p * k / 2.0**0.5 * geom * beta


def compute_K(p: float, k: float, geo: GeometryConstants, beta: float):
    """K1 = 3^(3/4) * p * k * rho^(-3/2) and the matching K2."""
    if min(p, k, beta, geo.rho) <= 0:
        raise ValueError("inputs must be positive")
    K1 = 3.0**0.75 * p * k * geo.rho**-1.5
    K2 = (p * k / (2.0**0.5 * 3.0**0.75)) * (geo.d / geo.rho + 1.0) ** 1.5 * beta**-3.0
    return K1, K2


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


def _lower_bound_checks(nl: Nonlinearity, k1: float, k2: float, p: float,
                        mode: str, check_box, samples_per_axis: int):
    """The sampled growth hypotheses of one mode: (A2prime,) or (A2, A3)."""
    if mode == MODE_A2PRIME:
        return (check_A2prime(nl, k1, k2, p, box=check_box,
                              samples_per_axis=samples_per_axis),)
    if mode == MODE_A2A3:
        return check_A2_A3(nl, k1, k2, p, box=check_box,
                           samples_per_axis=samples_per_axis)
    raise ValueError(f"unknown hypothesis mode {mode!r}")


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

    reports = _lower_bound_checks(nl, k1, k2, p, mode, check_box, samples_per_axis)
    for rep in reports:
        if not rep.holds:
            raise HypothesisFailed(rep.hypothesis, witness=rep.witness, margin=rep.margin)

    geo = geometry_constants(spec)
    if isinstance(domain, Mesh):
        fields = FieldPair(u=g1, v=g2, t=0.0, nonneg=True)
        scriptE0 = energy_scriptE(fields, domain, p)
        caveat = SMOOTH_BOUNDARY_CAVEAT
    else:
        if spec.kind != BALL:
            raise ValueError("an unmeshed domain must be a ball")
        c1, c2 = float(g1), float(g2)
        if min(c1, c2) < 0:
            raise ValueError("constant data must be nonnegative")
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
