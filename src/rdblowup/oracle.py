"""Independent ground-truth generators for tests and acceptance runs.

With Neumann boundaries and spatially constant data the PDE system reduces
exactly to the planar ODE u' = f1(u, v), v' = f2(u, v); integrating that
ODE to high accuracy gives reference trajectories and blow-up times.  The
quadrature oracle is a deliberately dumb composite trapezoid rule.  Nothing
here shares stepping or quadrature code with the main modules.
`ode_reduce` imports its integrator, `scipy.integrate.solve_ivp`, when it
runs, so importing this module loads numpy alone.
"""

from dataclasses import dataclass
from math import atan, pi, sqrt
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class OdeTrace:
    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    blowup_time: Optional[tuple]  # (value, uncertainty) or None
    method: str
    dense: Callable  # t -> (u, v), the integrator's dense output


def _aitken(t0, t1, t2):
    d1, d2 = t1 - t0, t2 - t1
    if d1 <= 0 or d2 <= 0 or d2 >= d1:
        return t2
    r = d2 / d1
    return t2 + d2 * r / (1.0 - r)


def ode_reduce(nl, u0: float, v0: float, t_max: float,
               cutoff: float = 1e-6) -> OdeTrace:
    """Integrate the spatially homogeneous reduction and extract the
    blow-up time by geometric extrapolation of level-crossing times.

    Crossing times of max(u, v) at geometric levels up to 1/cutoff converge
    geometrically to the blow-up time; the last three are extrapolated and
    the uncertainty taken from halving the cutoff (one level earlier).
    """
    if u0 < 0 or v0 < 0:
        raise ValueError("initial values must be nonnegative")
    from scipy.integrate import solve_ivp

    def fun(t, y):
        return [float(nl.f1(y[0], y[1])), float(nl.f2(y[0], y[1]))]

    start = max(u0, v0, 1.0)
    top = 1.0 / cutoff
    n_levels = max(4, int(np.ceil(np.log10(top / (10.0 * start)))) + 1)
    levels = np.geomspace(10.0 * start, top, n_levels)

    events = []
    for lev in levels:
        def ev(t, y, lev=lev):
            return max(y[0], y[1]) - lev
        ev.terminal = lev == levels[-1]
        ev.direction = 1.0
        events.append(ev)

    sol = solve_ivp(fun, (0.0, t_max), [u0, v0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=events, dense_output=True)
    crossing = [te[0] for te in sol.t_events if te.size > 0]
    # For very fast blow-up rates the integrator stalls before the top
    # level: the remaining time to blow-up drops below the floating-point
    # spacing of t (sol.status == -1).  Three crossings then already pin
    # the blow-up time.
    blew_up = len(crossing) == len(levels) or (sol.status == -1 and len(crossing) >= 3)
    blowup_time = None  # no blow-up reached by t_max
    if blew_up:
        est = _aitken(*crossing[-3:])
        alt = _aitken(*crossing[-4:-1]) if len(crossing) >= 4 else crossing[-2]
        blowup_time = (est, abs(est - alt) + abs(est - crossing[-1]))
    return OdeTrace(
        ts=sol.t, us=sol.y[0], vs=sol.y[1], blowup_time=blowup_time,
        method=f"scipy DOP853 rtol=1e-12, level extrapolation cutoff={cutoff:g}",
        dense=sol.sol,
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
