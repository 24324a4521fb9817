"""Independent ground-truth generators for tests and acceptance runs.

With Neumann boundaries and spatially constant data the PDE system reduces
exactly to the planar ODE u' = f1(u, v), v' = f2(u, v); integrating that
ODE to high accuracy gives reference trajectories and blow-up times.  It is
integrated in the Sundman time s, dt/ds = 1/R with R = 1 + |f| / (1 + |y|)
(Euclidean norms of f = (f1, f2) and y = (u, v)), as in Berger & Kohn (CPAM
1988) and Stuart & Floater (EJAM 1990): near blow-up |f| outgrows |y|, so
y grows exponentially in s and dt/ds decays exponentially, and the steps
in s stay large where steps in t would shrink to nothing.  The quadrature
oracle is a deliberately dumb composite trapezoid rule.  Nothing here
shares stepping or quadrature code with the main modules.  `ode_reduce`
imports its integrator, `scipy.integrate.solve_ivp`, when it runs, so
importing this module loads numpy alone.
"""

from dataclasses import dataclass
from math import atan, hypot, inf, isfinite, pi, sqrt
from typing import Optional

import numpy as np

# DOP853's tolerances in the Sundman time.  The blow-up time's uncertainty
# includes _TIME_ERROR of it, ten times the relative tolerance: the largest
# error seen against the quadrature references of power_product blow-up
# times is 1.1e-13 relative
_RTOL, _ATOL = 1e-13, 1e-15
_TIME_ERROR = 10 * _RTOL
# the top level of max(u, v) is 1/_CUTOFF
_CUTOFF = 1e-6


@dataclass(frozen=True)
class OdeTrace:
    """The integrator's knots (ts, us, vs), from t = 0 to t_max or to the
    top level, and the blow-up time."""

    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    blowup_time: Optional[tuple]  # (value, uncertainty) or None
    method: str


def _aitken(t0, t1, t2):
    d1, d2 = t1 - t0, t2 - t1
    if d1 <= 0 or d2 <= 0 or d2 >= d1:
        return t2
    r = d2 / d1
    return t2 + d2 * r / (1.0 - r)


def ode_reduce(nl, u0: float, v0: float, t_max: float) -> OdeTrace:
    """Integrate the spatially homogeneous reduction and extract the
    blow-up time by geometric extrapolation of level-crossing times.

    The state is z = (u, v, t), advanced in the Sundman time s (module
    docstring) by dz/ds = (f1, f2, 1) / R until t reaches t_max or max(u, v)
    the top level 1/_CUTOFF.  Crossing times of max(u, v) at geometric levels
    up to 1/_CUTOFF converge geometrically to the blow-up time; the last
    three are extrapolated.  The uncertainty adds the shift from halving the
    cutoff (one level earlier), the distance to the last crossing and the
    integrator's error allowance `_TIME_ERROR` of the estimate.
    """
    if u0 < 0 or v0 < 0:
        raise ValueError("initial values must be nonnegative")
    if not (isfinite(u0) and isfinite(v0)):  # the level count needs a finite start
        raise ValueError(f"initial values must be finite, got u0 = {u0:g}, v0 = {v0:g}")
    if not 0 < t_max < inf:  # the terminal event needs t to reach t_max
        raise ValueError(f"t_max must be finite and positive, got {t_max:g}")
    from scipy.integrate import solve_ivp

    f1, f2 = nl.f1, nl.f2

    def fun(s, z):
        # numpy scalars in the reaction, so that a zero division or a
        # negative base gives inf or NaN, not an exception
        u, v = z[0], z[1]
        du, dv = float(f1(u, v)), float(f2(u, v))
        r = 1.0 + hypot(du, dv) / (1.0 + hypot(u, v))
        return [du / r, dv / r, 1.0 / r]

    start = max(u0, v0, 1.0)
    top = 1.0 / _CUTOFF
    n_levels = max(4, int(np.ceil(np.log10(top / (10.0 * start)))) + 1)
    levels = np.geomspace(10.0 * start, top, n_levels)

    events = []
    for lev in levels:
        def ev(s, z, lev=lev):
            return max(z[0], z[1]) - lev
        ev.terminal = lev == levels[-1]
        ev.direction = 1.0
        events.append(ev)

    def reached_t_max(s, z):
        return z[2] - t_max
    reached_t_max.terminal = True
    events.append(reached_t_max)

    sol = solve_ivp(fun, (0.0, inf), [u0, v0, 0.0], method="DOP853",
                    rtol=_RTOL, atol=_ATOL, events=events)
    crossing = [float(z[0, 2]) for z in sol.y_events[:-1] if z.shape[0] > 0]
    blowup_time = None  # no blow-up reached by t_max
    if len(crossing) == len(levels):
        est = _aitken(*crossing[-3:])
        alt = _aitken(*crossing[-4:-1])
        blowup_time = (est, abs(est - alt) + abs(est - crossing[-1]) + _TIME_ERROR * est)
    return OdeTrace(
        ts=sol.y[2], us=sol.y[0], vs=sol.y[1], blowup_time=blowup_time,
        method=f"scipy DOP853 in Sundman time rtol={_RTOL:g}, "
               f"level extrapolation cutoff={_CUTOFF:g}",
    )


def brute_force_integral(fn, a: float, b: float, panels: int) -> float:
    """Composite trapezoid rule with a fixed panel count (no adaptivity)."""
    if panels < 2:
        raise ValueError("need at least 2 panels")
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(fn(x), dtype=float)
    h = (b - a) / panels
    return float((np.sum(y) - 0.5 * (y[0] + y[-1])) * h)


def power_product_equal_data_blowup(c: float, u0: float) -> float:
    """Closed-form blow-up time for F = c*u^2*v^2 with u0 = v0:
    the reduction is u' = 2c*u^3, so u = u0*(1 - 4c*u0^2*t)^(-1/2)."""
    return 1.0 / (4.0 * c * u0**2)


def u2v3_equal_unit_blowup() -> float:
    """Closed-form blow-up time for F = u^2*v^3 with u0 = v0 = 1.

    The first integral v^2 = (3u^2 - 1)/2 reduces the system to
    t* = int_1^inf du / (2u * ((3u^2-1)/2)^(3/2)), which evaluates to
    (2^(3/2)/4) * (sqrt(2) - pi + 2*arctan(sqrt(2))).
    """
    return (2.0**1.5 / 4.0) * (sqrt(2.0) - pi + 2.0 * atan(sqrt(2.0)))
