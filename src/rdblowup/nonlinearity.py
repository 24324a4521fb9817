"""Reaction-term families and hypothesis checkers.

Three built-in families are provided:

* power_product:        F = c * u**a * v**b (a gradient system),
* gradient_homogeneous: F = c * u**(2(1+alpha)) * h(v/u), the equality
  family of the Euler-type condition,
* absorption:           f1 = v**p - a*u**r, f2 = u**q - b*v**s (no potential).

Hypothesis checks are sampling-based: the conditions are global in (u, v),
so each checker evaluates the relevant slack on a log-uniform grid over a
declared box and reports the worst point.  A report never proves a
hypothesis; it states the box that was sampled.  A sample whose slack or
scale overflows is left out of the margin, and the description counts it; a
check with no finite sample raises NonFiniteSample, a numerical failure
(exit code 3).  H2 and H3 are judged off the initial data's monitor row,
which the upper bound reads too.
"""

from dataclasses import dataclass
from math import log
from typing import Callable, Optional

import numpy as np

from .errors import (
    BadExponent,
    EvalAtZeroU,
    NegativeInitialData,
    NonFiniteSample,
    NotGradientSystem,
)
from .functionals import FieldPair, energy_sample, require_growth_constants
from .geometry import Mesh, require_gamma

# relative slack below which a sampled inequality is considered violated
HOLD_TOL = 1e-9

DEFAULT_BOX = ((1e-3, 1e3), (1e-3, 1e3))
DEFAULT_SAMPLES = 64

# classifier outcomes for the absorption system
BLOWUP_EXISTS = "blowup_exists"
ALL_GLOBAL = "all_global"
ALL_GLOBAL_BOUNDED = "all_global_bounded"
THRESHOLD_BLOWUP_SMALL_AB = "threshold_blowup_small_ab"
THRESHOLD_GLOBAL_BOUNDED = "threshold_global_bounded"
THRESHOLD_GLOBAL = "threshold_global"


@dataclass(frozen=True)
class ShapeFunction:
    """One-argument shape function with its derivative, for homogeneous F."""

    name: str
    value: Callable
    derivative: Callable


def shape_power(m: float) -> ShapeFunction:
    if not np.isfinite(m):
        raise BadExponent(f"shape exponent m must be finite, got {m:g}")
    return ShapeFunction(
        name=f"w^{m:g}",
        value=lambda w: w**m,
        derivative=lambda w: m * w ** (m - 1.0),
    )


def shape_constant(value: float = 1.0) -> ShapeFunction:
    if not np.isfinite(value):
        raise BadExponent(f"shape value must be finite, got {value:g}")
    return ShapeFunction(
        name=f"constant {value:g}",
        value=lambda w: np.full_like(np.asarray(w, dtype=float), value),
        derivative=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
    )


def shape_exp_decay() -> ShapeFunction:
    return ShapeFunction(
        name="exp(-w)",
        value=lambda w: np.exp(-np.asarray(w, dtype=float)),
        derivative=lambda w: -np.exp(-np.asarray(w, dtype=float)),
    )


# each shape's builder, reading its parameters, and no other, through
# get(name, default)
SHAPE_CATALOG = {
    "constant": lambda get: shape_constant(float(get("value", 1.0))),
    "power": lambda get: shape_power(float(get("m", 1.0))),
    "exp_decay": lambda get: shape_exp_decay(),
}


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction terms f1, f2 and, for gradient systems, their potential F.

    Each takes (u, v) as float arrays of one shape, as Python floats or as
    numpy float64 scalars, and returns a value of its arguments' shape,
    where a 0-d array counts as a scalar.  On Python floats a call may
    raise where numpy gives inf or NaN; `reaction` is the one caller that
    handles this, and the solver and the ODE oracle evaluate f1 and f2
    through it alone."""

    family: str
    params: dict
    f1: Callable
    f2: Callable
    F: Optional[Callable] = None

    def reaction(self, y):
        """N(y) = (f1, f2) at y = (u, v): arrays for arrays, and a float pair
        for Python floats, which f1 and f2 take as they are.  Where Python
        raises and numpy gives inf or NaN, an ArithmeticError (an overflow in
        **, a zero division) or the TypeError of float() on a negative base's
        complex power, both are called again on numpy float64 scalars, whose
        values these are: Python's float ** and numpy's scalar ** are both
        C's pow, so the pair is numpy's either way."""
        u, v = y
        try:
            fu, fv = self.f1(u, v), self.f2(u, v)
            return (float(fu), float(fv)) if type(u) is float else (fu, fv)
        except (ArithmeticError, TypeError):
            if type(u) is not float:  # arrays raise as numpy does
                raise
        u, v = np.float64(u), np.float64(v)
        fu, fv = self.f1(u, v), self.f2(u, v)
        return float(fu), float(fv)

    @property
    def has_potential(self) -> bool:
        return self.F is not None

    def require_potential(self, op: str):
        if self.F is None:
            raise NotGradientSystem(f"{op} requires a gradient system (no F available)")


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of a sampled hypothesis check.

    margin is the smallest scaled slack found; the hypothesis is reported
    as holding iff margin >= -HOLD_TOL.  witness is the worst sample point
    when violated (for the integral conditions H2/H3 it is the (lhs, rhs)
    pair instead of a point).
    """

    hypothesis: str
    holds: bool
    margin: float
    witness: Optional[tuple]
    description: str


def _require_coefficient(value: float, name: str = "c"):
    if not 0 < value < np.inf:
        raise BadExponent(f"coefficient {name} must be finite and positive, got {value:g}")


def make_power_product(c: float, a_exp: float, b_exp: float) -> Nonlinearity:
    """F = c * u**a * v**b with partial-derivative reaction terms."""
    _require_coefficient(c)
    if not (1 <= a_exp < np.inf and 1 <= b_exp < np.inf):
        raise BadExponent(f"exponents must be finite and >= 1 for continuity at 0, "
                          f"got {a_exp:g} and {b_exp:g}")
    a, b = float(a_exp), float(b_exp)

    def F(u, v):
        return c * u**a * v**b

    def f1(u, v):
        return c * a * u ** (a - 1.0) * v**b

    def f2(u, v):
        return c * b * u**a * v ** (b - 1.0)

    return Nonlinearity(
        family="power_product",
        params={"c": c, "a_exp": a, "b_exp": b},
        f1=f1, f2=f2, F=F,
    )


def make_gradient_homogeneous(c: float, alpha: float, h: ShapeFunction) -> Nonlinearity:
    """F = c * u**(2(1+alpha)) * h(v/u); the Euler identity
    u*f1 + v*f2 = 2(1+alpha)*F holds identically for this family."""
    if not 0 < alpha < np.inf:
        raise BadExponent(f"alpha must be finite and positive, got {alpha:g}")
    _require_coefficient(c)
    m = 2.0 * (1.0 + alpha)

    def _positive_u(u):
        """u as floats, checked > 0."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise EvalAtZeroU("homogeneous family requires u > 0")
        return u

    def F(u, v):
        u = _positive_u(u)
        return c * u**m * h.value(v / u)

    def f1(u, v):
        u = _positive_u(u)
        w = v / u
        return c * u ** (m - 1.0) * (m * h.value(w) - w * h.derivative(w))

    def f2(u, v):
        u = _positive_u(u)
        return c * u ** (m - 1.0) * h.derivative(v / u)

    return Nonlinearity(
        family="gradient_homogeneous",
        params={"c": c, "alpha": alpha, "h": h.name},
        f1=f1, f2=f2, F=F,
    )


def make_absorption(p: float, q: float, r: float, s: float, a: float, b: float) -> Nonlinearity:
    """f1 = v**p - a*u**r, f2 = u**q - b*v**s; no potential exists."""
    if not all(1 <= e < np.inf for e in (p, q, r, s)):
        raise BadExponent(f"exponents must be finite and >= 1, got {(p, q, r, s)}")
    _require_coefficient(a, "a")
    _require_coefficient(b, "b")

    def f1(u, v):
        return v**p - a * u**r

    def f2(u, v):
        return u**q - b * v**s

    return Nonlinearity(
        family="absorption",
        params={"p": p, "q": q, "r": r, "s": s, "a": a, "b": b},
        f1=f1, f2=f2, F=None,
    )


def require_alpha(alpha: float):
    """The rule for H1's alpha: finite and > 0."""
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha:g}")


def _log_grid(box, samples_per_axis):
    """The sampling grid; the rule: each side 0 < lo <= hi < inf, and at least
    one sample per axis."""
    if not all(0 < lo <= hi < np.inf for lo, hi in box):
        raise ValueError(f"sample box {box} must satisfy 0 < lo <= hi < inf on each axis")
    if samples_per_axis < 1:
        raise ValueError(f"samples_per_axis must be >= 1, got {samples_per_axis}")
    (ulo, uhi), (vlo, vhi) = box
    return np.meshgrid(np.geomspace(ulo, uhi, samples_per_axis),
                       np.geomspace(vlo, vhi, samples_per_axis), indexing="ij")


def _report(name, slack, scale, witnesses, description) -> HypothesisReport:
    """The verdict rule: margin = min(slack/scale) where both are finite, holding
    iff >= -HOLD_TOL; on failure the witness takes `witnesses` at the worst sample."""
    slack, scale = np.ravel(slack), np.ravel(scale)
    finite = np.flatnonzero(np.isfinite(slack) & np.isfinite(scale))
    if finite.size == 0:
        raise NonFiniteSample(f"{name}: no sample has a finite slack and scale")
    if finite.size < slack.size:
        description += f"; {slack.size - finite.size} non-finite samples left out"
    rel = slack[finite] / (scale[finite] + 1e-300)
    worst = int(np.argmin(rel))
    margin = float(rel[worst])
    holds = margin >= -HOLD_TOL
    witness = None if holds else tuple(float(np.ravel(w)[finite[worst]]) for w in witnesses)
    return HypothesisReport(hypothesis=name, holds=holds, margin=margin,
                            witness=witness, description=description)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def check_H1(nl: Nonlinearity, alpha: float, box=DEFAULT_BOX,
             samples_per_axis: int = DEFAULT_SAMPLES) -> HypothesisReport:
    """Sampled check of u*f1 + v*f2 >= 2(1+alpha)*F on the declared box."""
    nl.require_potential("check_H1")
    require_alpha(alpha)
    U, V = _log_grid(box, samples_per_axis)
    lhs = U * nl.f1(U, V) + V * nl.f2(U, V)
    rhs = 2.0 * (1.0 + alpha) * nl.F(U, V)
    scale = np.abs(U * nl.f1(U, V)) + np.abs(V * nl.f2(U, V)) + np.abs(rhs)
    desc = (f"slack of u*f1+v*f2 - 2(1+alpha)*F at alpha={alpha:g} on "
            f"log-uniform box {box}, {samples_per_axis}^2 samples")
    return _report("H1", lhs - rhs, scale, (U, V), desc)


def require_nonnegative_data(g1, g2):
    """The data rule of both bounds: g1, g2 >= 0 and not both identically
    zero.  Takes per-cell arrays or constants; returns them as flat arrays."""
    g1 = np.asarray(g1, dtype=float).ravel()
    g2 = np.asarray(g2, dtype=float).ravel()
    if np.min(g1) < 0 or np.min(g2) < 0:
        raise NegativeInitialData("initial data must be nonnegative")
    if np.max(g1) == 0 and np.max(g2) == 0:
        raise NegativeInitialData("initial data must not completely vanish")
    return g1, g2


def initial_data_row(nl: Nonlinearity, g1, g2, mesh: Mesh, gamma1: float,
                     gamma2: float, alpha: float = 1.0):
    """The initial data's monitor row, built once its rules hold, and H2, H3
    judged off it: 2*int F(g1, g2) against gamma_i*int_bdry g_i^2 + int |grad g_i|^2."""
    nl.require_potential("check_H2_H3")
    require_gamma(gamma1, "gamma1")
    require_gamma(gamma2, "gamma2")
    g1, g2 = require_nonnegative_data(g1, g2)
    row = energy_sample(FieldPair(u=g1, v=g2, t=0.0), mesh, nl, alpha, gamma1, gamma2)
    lhs = 2.0 * row.intF
    reports = []
    for name, gamma, bdry, grad in (("H2", gamma1, row.bdry_u, row.grad_u_energy),
                                    ("H3", gamma2, row.bdry_v, row.grad_v_energy)):
        rhs = gamma * bdry + grad
        desc = (f"2*intF={lhs:.12g} vs gamma*bdry+grad={rhs:.12g} "
                f"(gamma={gamma:g}) on {mesh.shape} mesh")
        reports.append(_report(name, lhs - rhs, abs(lhs) + abs(rhs), (lhs, rhs), desc))
    return row, tuple(reports)


def check_H2_H3(nl: Nonlinearity, g1, g2, mesh: Mesh, gamma1: float, gamma2: float):
    """Check the initial-data energy conditions H2 and H3 with mesh quadrature."""
    return initial_data_row(nl, g1, g2, mesh, gamma1, gamma2)[1]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def check_A2_A3(nl: Nonlinearity, k1: float, k2: float, p: float):
    """Sampled check of f1 <= k1*u**(p+1) and f2 <= k2*v**(p+1)."""
    require_growth_constants(p, k1=k1, k2=k2)
    U, V = _log_grid(DEFAULT_BOX, DEFAULT_SAMPLES)
    desc = (f"p={p:g} on log-uniform box {DEFAULT_BOX}, {DEFAULT_SAMPLES}^2 samples")
    reports = []
    for name, k, bound, f in (("A2", k1, U ** (p + 1.0), nl.f1),
                              ("A3", k2, V ** (p + 1.0), nl.f2)):
        fuv = f(U, V)
        slack = k * bound - fuv
        scale = k * bound + np.abs(fuv)
        reports.append(_report(name, slack, scale, (U, V), f"k={k:g}, " + desc))
    return tuple(reports)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def check_A2prime(nl: Nonlinearity, k1: float, k2: float, p: float) -> HypothesisReport:
    """Sampled check of u**(2p-1)*f1 + v**(2p-1)*f2 <= k1*u**(3p) + k2*v**(3p),
    with the diagonal u = v added to the sample set (worst line for the
    built-in polynomial families)."""
    require_growth_constants(p, k1=k1, k2=k2)
    U, V = _log_grid(DEFAULT_BOX, DEFAULT_SAMPLES)
    diag = np.geomspace(*DEFAULT_BOX[0], DEFAULT_SAMPLES * 4)
    U = np.concatenate([U.ravel(), diag])
    V = np.concatenate([V.ravel(), diag])
    lhs = U ** (2.0 * p - 1.0) * nl.f1(U, V) + V ** (2.0 * p - 1.0) * nl.f2(U, V)
    rhs = k1 * U ** (3.0 * p) + k2 * V ** (3.0 * p)
    scale = np.abs(lhs) + np.abs(rhs)
    desc = (f"k1={k1:g}, k2={k2:g}, p={p:g} on log-uniform box {DEFAULT_BOX} "
            f"({DEFAULT_SAMPLES}^2 samples plus diagonal)")
    return _report("A2prime", rhs - lhs, scale, (U, V), desc)


def classify_absorption(p: float, q: float, r: float, s: float,
                        a: float, b: float) -> str:
    """Case split for the cooperative absorption system: blow-up existence,
    globality, or the threshold sub-cases."""
    if min(a, b) <= 0:
        raise ValueError("a, b must be positive")
    crit = max(r, 1.0) * max(s, 1.0)
    pq = p * q
    if pq > crit:
        return BLOWUP_EXISTS
    if pq < crit:
        return ALL_GLOBAL_BOUNDED if (r >= 1 and s >= 1) else ALL_GLOBAL
    # threshold pq == max(r,1)*max(s,1)
    if r <= 1 or s <= 1:
        return THRESHOLD_GLOBAL
    # a^q b^r >= 1: as the product, which decides a near tie more often
    # right than logarithms do, unless a power overflows; then in logarithms
    try:
        bounded = a**q * b**r >= 1
    except OverflowError:
        bounded = q * log(a) >= -r * log(b)
    if bounded:
        return THRESHOLD_GLOBAL_BOUNDED
    return THRESHOLD_BLOWUP_SMALL_AB
