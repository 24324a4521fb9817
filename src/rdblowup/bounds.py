"""Upper and lower bounds on the blow-up time.

The upper bound reads E(0) and J(0) off the monitor row of the initial data:
with J(0) > 0, blow-up occurs no later than t_upper = E(0)/(alpha*J(0)), and
M = J(0)/E(0)^(1+alpha) is reported beside it.  The lower bound integrates
d(xi)/(K1*xi^(3/2) + K2*xi^3) from scriptE(0) to infinity, with K1, K2 built
from the geometric constants rho, d and the admissible beta constants, in
closed form (`lower_bound_blowup`).  A bound that does not apply to its
input raises a `BoundRefused` error.  Neither bound loads scipy.
"""

from dataclasses import dataclass
from decimal import Context, Decimal
from math import atan2, frexp, inf, ldexp, log1p, sqrt
from typing import Optional

from .errors import (
    ConstantOutOfRange,
    DimensionNot3,
    HypothesisFailed,
    NonpositiveE0,
    NonpositiveJ0,
)
from .functionals import FieldPair, energy_sample, finite_total, require_growth_constants
from .geometry import BALL, DomainSpec, GeometryConstants, Mesh, geometry_constants
from .nonlinearity import (
    HypothesisReport,
    Nonlinearity,
    check_A2_A3,
    check_A2prime,
    check_H1,
    initial_data_row,
    require_nonnegative_data,
)

MODE_A2A3 = "A2A3"
MODE_A2PRIME = "A2prime"
# the relative rounding bound of the lower bound's closed form: 4.5 times the
# largest error seen against mpmath, 2.2e-15 (tests/test_bounds.py)
_CLOSED_FORM_RTOL = 1e-14
# x below which H(x) is summed as its series, whose ratio is -x^3
_SERIES_TOP = 0.75
_SQRT3 = sqrt(3.0)

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
                       gamma1: float, gamma2: float, alpha: float) -> UpperBoundResult:
    """Verify H1-H3 on the given data and compute t_upper = E0/(alpha*J0).

    Refusals come in a fixed order: H1's errors, the Robin and data rules,
    E0 <= 0 (decided on the initial data's monitor row, which the data rule
    admits), the first of H1-H3 to fail, then J0 <= 0.
    """
    rep1 = check_H1(nl, alpha)
    row, (rep2, rep3) = initial_data_row(nl, g1, g2, mesh, gamma1, gamma2, alpha)
    if row.E <= 0:
        raise NonpositiveE0("initial energy vanishes")
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


def _power(x: float, y: float) -> float:
    """x**y of a nonnegative float x, or inf where it overflows, where
    Python's float power raises OverflowError."""
    try:
        return x**y
    except OverflowError:
        return inf


def _domain_factor(geo: GeometryConstants) -> float:
    """(d/rho + 1)^(3/2), the domain's factor in beta's admissibility and in K2."""
    if geo.rho <= 0:
        raise ValueError(f"need rho > 0, got {geo.rho:g}")
    return _power(geo.d / geo.rho + 1.0, 1.5)


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
    K2 = (p * k / (2.0**0.5 * 3.0**0.75)) * _domain_factor(geo) * _power(beta, -3.0)
    return 3.0**0.75 * p * k * _power(geo.rho, -1.5), K2


def _require_in_range(**constants):
    """The rule of the lower bound's constants: each a positive finite float,
    which a beta that underflows or a K that overflows is not."""
    for name, value in constants.items():
        if not 0 < value < inf:
            raise ConstantOutOfRange(f"{name} = {value:g} is not a positive finite float: "
                                     "the lower bound's constants leave the float range")


def _ldexp(x: float, exponent: int) -> float:
    """x 2^exponent, inf where it overflows."""
    try:
        return ldexp(x, exponent)
    except OverflowError:
        return inf


def _cbrt(x: float) -> float:
    """The cube root of a finite x >= 0 to within an ulp: x**(1/3), whose
    exponent is 1/3 rounded, corrected by one Newton step (math.cbrt, which
    Python 3.10 lacks, is up to 3 ulp off on glibc)."""
    if x == 0:
        return 0.0
    r = x ** (1.0 / 3.0)
    return r - (r - x / (r * r)) / 3.0


def _series(y: float) -> float:
    """sum_j (-y)^j / (3j + 4) for 0 <= y < 1, to rounding: H(x) / x^4 at
    y = x^3."""
    total, power, j = 0.0, 1.0, 0
    # the sum is at least 1/4 - y/7, 0.19 at y = _SERIES_TOP^3, so a term
    # below 2^-56 is below half an ulp of it
    while abs(power) >= 2.0**-56:
        total += power / (3 * j + 4)
        power *= -y
        j += 1
    return total


def _G(x: float) -> float:
    """int_0^x ds/(1 + s^3) for x >= 0, +inf included: one log and one atan,
    (1/6) log((1 + x)^2/(x^2 - x + 1)) + atan2(sqrt(3) x, 2 - x)/sqrt(3),
    both written so that no term overflows."""
    if x >= 1.0:
        return log1p(3.0 / (x - 1.0 + 1.0 / x)) / 6.0 + atan2(_SQRT3, 2.0 / x - 1.0) / _SQRT3
    return log1p(3.0 * x / (x * x - x + 1.0)) / 6.0 + atan2(_SQRT3 * x, 2.0 - x) / _SQRT3


def lower_bound_blowup(scriptE0: float, K1: float, K2: float):
    """Integrate d(xi)/(K1*xi^(3/2) + K2*xi^3) from scriptE0 to infinity:
    (value, its rounding bound).

    The substitution w = xi^(-1/2) turns the improper integral into
    int_0^W 2*w^3/(K1*w^3 + K2) dw, W = 1/sqrt(scriptE0), and w = a*s with
    a = (K2/K1)^(1/3) into (2a/K1) H(W/a), H(x) = int_0^x s^3/(1 + s^3) ds,
    evaluated in closed form: below x = _SERIES_TOP as 2 W^4/K2 times the
    alternating series of H(x)/x^4, and above as
    2 (W - a G(x))/K1, H = x - G, which stays finite where x overflows.
    The bound is _CLOSED_FORM_RTOL of the value.
    """
    if scriptE0 <= 0:
        raise NonpositiveE0("scriptE(0) must be positive")
    if K1 <= 0 or K2 < 0:
        raise ValueError("need K1 > 0 and K2 >= 0")
    W = 1.0 / sqrt(scriptE0)
    a = _cbrt(K2) / _cbrt(K1)
    x = W / a if a else inf
    if x < _SERIES_TOP:
        # 2 W^4/K2 = 2/(scriptE0^2 K2) on the mantissas, whose products stay
        # in range, and then the exponents
        (m, e), (k, f) = frexp(scriptE0), frexp(K2)
        value = _ldexp(2.0 / (m * m * k) * _series(x * x * x), -2 * e - f)
    else:
        value = 2.0 * (W - a * _G(x)) / K1
    return value, _CLOSED_FORM_RTOL * value


def require_mode(mode: str) -> str:
    """The lower bound's hypothesis modes are A2prime and A2A3.  Returns mode."""
    if mode not in (MODE_A2PRIME, MODE_A2A3):
        raise ValueError(f"unknown hypothesis mode {mode!r}; "
                         f"expected {MODE_A2PRIME} or {MODE_A2A3}")
    return mode


def lower_bound_checks(nl: Nonlinearity, k1: float, k2: float, p: float, mode: str):
    """The sampled growth hypotheses of one mode: (A2prime,) or (A2, A3)."""
    if require_mode(mode) == MODE_A2PRIME:
        return (check_A2prime(nl, k1, k2, p),)
    return check_A2_A3(nl, k1, k2, p)


def lower_bound_pipeline(nl: Nonlinearity, g1, g2, domain, p: float,
                         k1: float, k2: float, mode: str = MODE_A2PRIME) -> LowerBoundResult:
    """Compose the geometric constants, beta selection, K constants,
    scriptE(0) and the bound integral into a LowerBoundResult.

    `domain` is either a Mesh (box; g1, g2 per-cell) or a ball DomainSpec
    (g1, g2 must then be spatially constant values).  A beta, K1 or K2 that
    leaves the positive floats raises ConstantOutOfRange.
    """
    spec = domain.spec if isinstance(domain, Mesh) else domain
    if spec.dimension != 3:
        raise DimensionNot3("the lower bound is stated for 3D domains only")

    reports = _require_hold(lower_bound_checks(nl, k1, k2, p, mode))

    geo = geometry_constants(spec)
    require_nonnegative_data(g1, g2)
    if isinstance(domain, Mesh):
        scriptE0 = energy_sample(FieldPair(u=g1, v=g2, t=0.0), domain, p=p).scriptE
        caveat = SMOOTH_BOUNDARY_CAVEAT
    else:
        if spec.kind != BALL:
            raise ValueError("an unmeshed domain must be a ball")
        c1, c2 = float(g1), float(g2)
        # NonFiniteSample where it overflows, as the mesh's row raises it
        scriptE0 = finite_total((_power(c1, 2.0 * p) + _power(c2, 2.0 * p)) * spec.volume,
                                 "interior")
        caveat = None

    beta1, beta2 = select_betas(p, k1, k2, geo)
    k = max(k1, k2)
    beta = min(beta1, beta2)
    _require_in_range(beta=beta)
    K1, K2 = compute_K(p, k, geo, beta)
    _require_in_range(K1=K1, K2=K2)
    t_lower, err = lower_bound_blowup(scriptE0, K1, K2)
    return LowerBoundResult(
        p=p, k1=k1, k2=k2, k=k, rho=geo.rho, d=geo.d,
        beta1=beta1, beta2=beta2, beta=beta,
        K1=K1, K2=K2, scriptE0=scriptE0,
        t_lower=t_lower, integral_abs_error=err,
        hypothesis_reports=reports,
        smooth_boundary_caveat=caveat,
    )
