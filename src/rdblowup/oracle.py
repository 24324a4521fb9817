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
shares stepping or quadrature code with the main modules, or imports from
them.  `ode_reduce` takes scipy's DOP853 (Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6) on Python floats: the tableau of `scipy.integrate.DOP853`
and the step rule of scipy's Runge-Kutta solvers, with crossings found by a
port of `scipy.optimize.brentq` (Brent, Algorithms for Minimization without
Derivatives, 1973).  This module carries both, which the tests check against
scipy bit for bit, so it loads numpy alone.  The reaction is evaluated on
Python floats too, by the one rule of the `nl` it is given,
`nl.reaction((u, v))`, which gives numpy's inf or NaN where Python raises.
"""

from dataclasses import dataclass
from functools import cache
from math import atan, hypot, inf, isfinite, nextafter, pi, sqrt
from typing import Optional

import numpy as np

# DOP853's tolerances in the Sundman time.  The blow-up time's uncertainty
# includes _TIME_ERROR of it, ten times the relative tolerance: the largest
# error seen against the quadrature references of power_product blow-up
# times is 1.1e-13 relative
_RTOL, _ATOL = 1e-13, 1e-15
_TIME_ERROR = 10 * _RTOL
# the top level of max(u, v) is 1/_CUTOFF, or 1e4 max(u0, v0) if higher
_CUTOFF = 1e-6
# brentq's tolerances on a crossing, those `solve_ivp` gives its events
_ROOT_TOL = 4 * float(np.finfo(float).eps)
# the most steps a run takes: at least 20 times the 124 knots of the longest
# run of the power_product blow-up references (tests/test_oracle.py); a
# reaction on which the steps creep ends there with no blow-up time
_MAX_STEPS = 2500


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


def _combine(K, w):
    """sum_j w_j K_j of the 3-float rows K, in order of j, over the first
    min(len(K), len(w)) rows."""
    a = b = c = 0.0
    for (x, y, z), wj in zip(K, w):
        a += wj * x
        b += wj * y
        c += wj * z
    return a, b, c


def _rms(a, b, c):
    return sqrt(a * a + b * b + c * c) / sqrt(3.0)


class _FloatDop853:
    """scipy's DOP853 on the 3-float state z = (u, v, t) of an autonomous
    dz/ds = rhs(u, v), rule for rule as `RungeKutta._step_impl` with no step
    bound: the initial step of `select_initial_step`, the step factors,
    DOP853's error norm and its 7th-order dense output, all on Python floats.
    The tableau is that of `scipy.integrate.DOP853`, each coefficient written
    as the repr of scipy's float64, zeros included; A holds the rows below
    the diagonal.  The stage nodes C are not needed, as rhs does not depend
    on s.  A step's stages and error sums run in `kernel`, the tableau
    written out as straight-line code (`_source`); dense output, on the
    steps that cross a level, sums whole rows by `_combine`."""

    # scipy's step factor rule: a safety factor, and bounds on the factor
    SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
    ERROR_ORDER = 7
    A = [
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
         20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
         -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
         27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
         0.6433927460157636],
    ]
    B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259]
    E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
          -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
          0.02265179219836082, 0.0]
    E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
          1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
          -0.022355307863886294, 0.0]
    A_EXTRA = [
        [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
         -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
         -0.008298, 0.0, 0.0, 0.0],
        [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325, 0.0, 0.0],
        [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987, 0.0],
    ]
    D = [
        [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
         2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
         0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
         -4.436036387594894],
        [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
         -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
         -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
         35.81684148639408],
        [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
         527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
         0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
         11.99229113618279],
        [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
         357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
         29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
         -149.72683625798564],
    ]

    def __init__(self, rhs):
        self.rhs = rhs
        self.exponent = -1 / (self.ERROR_ORDER + 1)

    @classmethod
    def _source(cls):
        """The source of `kernel`: kernel(u, v, t, k0, h, rhs) returns
        (z_new, K, e5, e3) of a step h from z = (u, v, t) whose first stage
        is k0, K its 13 stage rows with rhs at z_new last, and e5 and e3 the
        3-float sums of E5 and E3 over K.  Every sum starts at 0.0 and runs
        in the order of the rows.  A stage argument sums the nonzero weights
        of its row of A, in u and v alone, and z_new those of B; the error
        sums keep every weight, zeros included.  Skipping a zero weight
        changes no bit of a step that is accepted: a step whose error norm is
        finite has finite stages, so each skipped term is an exact +-0, and a
        sum from 0.0 never holds -0.0, so adding +-0 leaves it as it is.  A
        step with a stage that is not finite has an error sum of inf or NaN,
        through its zero weights too, so its error norm is NaN, as with every
        term summed, and the step is rejected at the same factor."""
        lines = ["def kernel(u, v, t, k0, h, rhs):", "    ku0, kv0, kt0 = k0"]

        def sums(weights, columns, zeros=False):
            return ["(" + " + ".join(["0.0", *(f"{w!r} * k{x}{j}" for j, w in enumerate(weights)
                                               if w or zeros)]) + ")"
                    for x in columns]

        for i, row in enumerate(cls.A, start=1):
            du, dv = sums(row, "uv")
            lines += [f"    k{i} = rhs(u + {du} * h, v + {dv} * h)",
                      f"    ku{i}, kv{i}, kt{i} = k{i}"]
        du, dv, dt = sums(cls.B, "uvt")
        last = len(cls.A) + 1
        lines += [f"    z_new = (u + h * {du}, v + h * {dv}, t + h * {dt})",
                  f"    ku{last}, kv{last}, kt{last} = k{last} = rhs(z_new[0], z_new[1])",
                  "    K = [" + ", ".join(f"k{j}" for j in range(last + 1)) + "]",
                  "    e5 = " + ", ".join(sums(cls.E5, "uvt", zeros=True)),
                  "    e3 = " + ", ".join(sums(cls.E3, "uvt", zeros=True)),
                  "    return z_new, K, e5, e3"]
        return "\n".join(lines) + "\n"

    @staticmethod
    @cache
    def kernel():
        """The step's function of `_source`, compiled on first use."""
        namespace = {}
        exec(compile(_FloatDop853._source(), "<DOP853 float kernel>", "exec"), namespace)
        return namespace["kernel"]

    def initial_step(self, z, f):
        """`select_initial_step` (Hairer, Norsett & Wanner, II.4) from z with
        dz/ds = f."""
        scale = [_ATOL + abs(c) * _RTOL for c in z]
        d0 = _rms(*(c / w for c, w in zip(z, scale)))
        d1 = _rms(*(g / w for g, w in zip(f, scale)))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        f_1 = self.rhs(z[0] + h0 * f[0], z[1] + h0 * f[1])
        d2 = _rms(*((g1 - g0) / w for g1, g0, w in zip(f_1, f, scale))) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -self.exponent
        return min(100 * h0, h1)

    def step(self, s, z, f, h_abs):
        """One accepted step from z at s, where dz/ds = f, trying h_abs
        first: (s_new, z_new, K, the next step's h_abs), K the 13 stage rows
        with dz/ds at z_new last; or None once the step falls below 10 ulp
        of s or s + h overflows."""
        min_step = 10 * (nextafter(s, inf) - s)
        h_abs = max(h_abs, min_step)
        rejected, kernel = False, self.kernel()
        # false for a NaN step, and for one whose s_new overflows: a reaction
        # that overflows |f| but not f makes dz/ds = 0, and every step's error 0
        while min_step <= h_abs and (s_new := s + h_abs) < inf:
            h = s_new - s
            z_new, K, e5, e3 = kernel(*z, f, h, self.rhs)
            err = self._error_norm(e5, e3, h, z, z_new)
            if err < 1:
                factor = (self.MAX_FACTOR if err == 0
                          else min(self.MAX_FACTOR, self.SAFETY * err**self.exponent))
                if rejected:  # no growth right after a rejection
                    factor = min(1.0, factor)
                return s_new, z_new, K, h * factor
            h_abs = h * max(self.MIN_FACTOR, self.SAFETY * err**self.exponent)
            rejected = True
        return None

    @staticmethod
    def _error_norm(e5_sums, e3_sums, h, z, z_new):
        e5 = e3 = 0.0
        for x5, x3, c, c_new in zip(e5_sums, e3_sums, z, z_new):
            scale = _ATOL + max(abs(c), abs(c_new)) * _RTOL
            x5, x3 = x5 / scale, x3 / scale
            e5 += x5 * x5
            e3 += x3 * x3
        if e5 == 0:
            return 0.0
        return h * e5 / sqrt((e5 + 0.01 * e3) * 3)

    def dense_output(self, s, h, z, z_new, K):
        """The interpolant z(x) on [s, s + h] of a step's rows K, which it
        extends by 3 stages."""
        u, v, _ = z
        for a in self.A_EXTRA:
            du, dv, _ = _combine(K, a)
            K.append(self.rhs(u + du * h, v + dv * h))
        # per component, the coefficients F of scipy's Dop853DenseOutput,
        # highest first
        coefficients = []
        for c, c_new, f_old, f_new, *hd in zip(z, z_new, K[0], K[12],
                                              *(_combine(K, d) for d in self.D)):
            dc = c_new - c
            coefficients.append(([h * x for x in reversed(hd)]
                                 + [2 * dc - h * (f_new + f_old), h * f_old - dc, dc]))

        def at(s_at):
            x = (s_at - s) / h
            weights = (x, 1 - x) * 3 + (x,)
            out = []
            for c, F in zip(z, coefficients):
                y = 0.0
                for fi, w in zip(F, weights):
                    y = (y + fi) * w
                out.append(y + c)
            return out

        return at


def _brentq(f, xa, xb):
    """A root of f between xa and xb, where f has opposite signs: scipy's
    `brentq` with xtol = rtol = _ROOT_TOL, step for step as its brentq.c
    takes them, on Python floats.  A NaN value of f raises ValueError, as
    scipy's wrapper does, and so do ends of the same sign; no convergence in
    scipy's 100 iterations raises RuntimeError."""

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x = {x} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = inf  # a bisection
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN, which bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after 100 iterations, value is {xcur}")


def ode_reduce(nl, u0: float, v0: float, t_max: float) -> OdeTrace:
    """Integrate the spatially homogeneous reduction and extract the
    blow-up time by geometric extrapolation of level-crossing times.

    The state is z = (u, v, t), advanced in the Sundman time s (module
    docstring) by dz/ds = (f1, f2, 1) / R until t reaches t_max or max(u, v)
    the top level, 1/_CUTOFF or 1e4 max(u0, v0) if higher, with scipy's DOP853
    steps taken on floats (`_FloatDop853`).  Only a step in which max(u, v)
    reaches the next level or t reaches t_max builds the dense output, whose
    roots, by Brent's method (`_brentq`) as `solve_ivp` finds its events, give
    the crossing times and the final knot.  The crossing times of geometric
    levels from 10 max(u0, v0, 1) to the top level converge geometrically to
    the blow-up time; the last three are extrapolated.  The uncertainty adds
    the shift from halving the cutoff, 1 over the top level (one level
    earlier), the distance to the last crossing and the integrator's error
    allowance `_TIME_ERROR` of the estimate.  A step below 10 ulp of s ends
    the run, as scipy's does, with no blow-up time; so does a step past the
    float range of s, and so does the step count _MAX_STEPS.  The method
    string names either stop after the cutoff.  The reaction's float
    overflows and invalid values are not warned of: they end the run in
    these ways.
    """
    if u0 < 0 or v0 < 0:
        raise ValueError("initial values must be nonnegative")
    if not (isfinite(u0) and isfinite(v0)):  # the level count needs a finite start
        raise ValueError(f"initial values must be finite, got u0 = {u0:g}, v0 = {v0:g}")
    if not 0 < t_max < inf:  # the terminal event needs t to reach t_max
        raise ValueError(f"t_max must be finite and positive, got {t_max:g}")

    def rhs(u, v):
        du, dv = nl.reaction((u, v))
        r = 1.0 + hypot(du, dv) / (1.0 + hypot(u, v))
        return du / r, dv / r, 1.0 / r

    start = max(u0, v0, 1.0)
    top = max(1.0 / _CUTOFF, 1e4 * start)
    n_levels = max(4, int(np.ceil(np.log10(top / (10.0 * start)))) + 1)
    levels = np.geomspace(10.0 * start, top, n_levels).tolist()

    stepper = _FloatDop853(rhs)
    s, z = 0.0, (float(u0), float(v0), 0.0)
    knots = [z]
    crossing = []  # t at the first crossing of each level, in level order
    end = None  # s at the terminal event: the top level or t = t_max
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f = rhs(z[0], z[1])
        h_abs = stepper.initial_step(z, f)
        while (end is None and len(knots) <= _MAX_STEPS
               and (taken := stepper.step(s, z, f, h_abs)) is not None):
            s_new, z_new, K, h_abs = taken
            reached = len(crossing)
            while reached < n_levels and max(z_new[0], z_new[1]) >= levels[reached]:
                reached += 1
            if reached > len(crossing) or z_new[2] >= t_max:
                at = stepper.dense_output(s, s_new - s, z, z_new, K)
                roots = [_brentq(lambda x, lev=lev: max(at(x)[:2]) - lev, s, s_new)
                         for lev in levels[len(crossing):reached]]
                terminal = roots[-1:] if reached == n_levels else []
                if z_new[2] >= t_max:
                    terminal.append(_brentq(lambda x: at(x)[2] - t_max, s, s_new))
                if terminal:  # the run stops at the earliest, dropping later crossings
                    end = min(terminal)
                    roots = [x for x in roots if x <= end]
                    z_new = at(end)
                crossing += [at(x)[2] for x in roots]
            knots.append(z_new)
            s, z, f = s_new, z_new, K[12]

    # a run that no terminal event ended names its stop in its method
    stop = ("" if end is not None
            else f"; stopped at the step count {_MAX_STEPS}" if len(knots) > _MAX_STEPS
            else "; stopped at a step below 10 ulp of s or past its float range")
    blowup_time = None  # no blow-up reached by t_max
    if len(crossing) == n_levels:
        est = _aitken(*crossing[-3:])
        alt = _aitken(*crossing[-4:-1])
        blowup_time = (est, abs(est - alt) + abs(est - crossing[-1]) + _TIME_ERROR * est)
    us, vs, ts = np.array(knots).T
    return OdeTrace(
        ts=ts, us=us, vs=vs, blowup_time=blowup_time,
        method=f"DOP853 (scipy tableau) on floats in Sundman time rtol={_RTOL:g}, "
               f"level extrapolation cutoff={1.0 / top:g}{stop}",
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
