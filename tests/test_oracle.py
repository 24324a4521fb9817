import dataclasses
import math

import numpy as np
import pytest

from conftest import linear_decay
from rdblowup.geometry import build_mesh
import rdblowup.oracle
from rdblowup.nonlinearity import Nonlinearity, make_absorption, make_power_product
from rdblowup.oracle import (
    _brentq,
    _FloatDop853,
    brute_force_integral,
    ode_reduce,
    power_product_equal_data_blowup,
    u2v3_equal_unit_blowup,
)
from rdblowup.solver import SolverConfig, simulate


class TestClosedForms:
    def test_power_product_equal_data(self):
        assert power_product_equal_data_blowup(1.0, 1.0) == 0.25
        assert power_product_equal_data_blowup(2.0, 1.0) == 0.125
        assert power_product_equal_data_blowup(1.0, 2.0) == 0.0625

    def test_u2v3_value_against_quadrature(self):
        # t* = int_1^inf du / (2u ((3u^2-1)/2)^(3/2)); substitute u = 1/w
        # to get a proper integral over (0, 1]
        def integrand(w):
            w = np.maximum(w, 1e-300)
            u = 1.0 / w
            return 1.0 / (2.0 * u * ((3.0 * u**2 - 1.0) / 2.0) ** 1.5) / w**2

        ref = brute_force_integral(integrand, 1e-9, 1.0, 400000)
        assert u2v3_equal_unit_blowup() == pytest.approx(ref, abs=1e-7)


class TestOdeReduce:
    def test_blowup_time_quadratic_product(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is not None
        t_star, unc = trace.blowup_time
        assert t_star == pytest.approx(0.25, abs=1e-6)
        assert unc < 1e-6

    def test_blowup_time_u2v3(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is not None
        t_star, _ = trace.blowup_time
        assert t_star == pytest.approx(u2v3_equal_unit_blowup(), abs=1e-6)

    def test_trajectory_matches_closed_form(self):
        # u(t) = (1 - 4t)^{-1/2} for F = u^2 v^2, u0 = v0 = 1, at the
        # oracle's own knots up to t = 0.24
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        early = trace.ts <= 0.24
        assert np.count_nonzero(early) >= 10
        for u in (trace.us, trace.vs):
            assert u[early] == pytest.approx(closed_form_u(trace.ts[early]), rel=1e-8)

    def test_takes_at_most_150_steps_to_the_top_level(self):
        # the Sundman time keeps the steps large up to u = 1e6
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is not None
        assert len(trace.ts) - 1 <= 150
        assert max(trace.us[-1], trace.vs[-1]) == pytest.approx(1e6, rel=1e-9)

    @pytest.mark.parametrize("nl, data", [
        (make_power_product(1.0, 1e160, 1e160), (1.0, 1.0)),
        (make_absorption(3.0, 3.0, 3.0, 3.0, 1e300, 0.01), (2.0, 2.0)),
    ], ids=["power_product_1e160", "absorption_1e300"])
    def test_a_run_whose_steps_creep_ends_at_the_step_count(self, nl, data):
        # steps of 1e-17 to 1e-15 in s, which would take hours to the top level
        trace = ode_reduce(nl, *data, t_max=1.0)
        assert trace.blowup_time is None
        assert len(trace.ts) - 1 == rdblowup.oracle._MAX_STEPS
        assert trace.method.endswith(f"; stopped at the step count {rdblowup.oracle._MAX_STEPS}")

    def test_a_blowup_from_data_far_from_1_ends_well_under_the_step_count(self):
        # F = u^2 v^2 from u = v = 1e-2 blows up at 1/(4 * 1e-4) = 2500,
        # after a long slow phase
        trace = ode_reduce(make_power_product(1.0, 2.0, 2.0), 1e-2, 1e-2, t_max=1e4)
        assert trace.blowup_time is not None
        t_star = power_product_equal_data_blowup(1.0, 1e-2)
        assert trace.blowup_time[0] == pytest.approx(t_star, rel=2e-13)
        assert 5 * len(trace.ts) <= rdblowup.oracle._MAX_STEPS
        assert "step count" not in trace.method

    @pytest.mark.parametrize("u0", [2e5, 1e6])
    def test_a_blowup_from_data_above_1e5_rises_to_its_top_level(self, u0):
        # 10 u0 passes the default top level 1e6, so the levels climb to
        # 1e4 u0 instead; F = 1e-13 u^2 v^2 blows up at 1/(4e-13 u0^2)
        t_star = power_product_equal_data_blowup(1e-13, u0)
        trace = ode_reduce(make_power_product(1e-13, 2.0, 2.0), u0, u0, t_max=1e3)
        estimate, uncertainty = trace.blowup_time
        assert abs(estimate - t_star) <= uncertainty
        assert max(trace.us[-1], trace.vs[-1]) == pytest.approx(1e4 * u0, rel=1e-9)
        assert trace.method.endswith(f"cutoff={1e-4 / u0:g}")

    def test_pins_the_knots_and_reaction_calls_from_1_1(self):
        # 106 steps, and one f1 per stage: 2 to choose the first step, 12 per
        # step tried, 3 more per step whose dense output finds a crossing.
        # perfbench counts these calls as oracle.ode_rhs_evals
        nl = make_power_product(1.0, 2.0, 2.0)
        calls = []

        def f1(u, v):
            calls.append(u)
            return nl.f1(u, v)

        trace = ode_reduce(dataclasses.replace(nl, f1=f1), 1.0, 1.0, t_max=1.0)
        assert len(trace.ts) == 107
        assert len(calls) == 1328

    def test_a_reaction_that_turns_nan_ends_the_run(self):
        # every step past u = 5 is rejected until the step falls below 10 ulp
        # of s, which ends the run; NaN on floats raises no RuntimeWarning,
        # which the test configuration makes an error
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: math.nan if u > 5 else 2.0 * float(u) * float(v) ** 2,
                          f2=lambda u, v: 2.0 * float(u) ** 2 * float(v))
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is None
        assert max(trace.us[-1], trace.vs[-1]) < 5

    def test_a_reaction_nan_at_the_data_ends_the_run_at_once(self):
        # the first step is NaN, which is below no step floor, so the loop's
        # test must fail on NaN too
        nl = Nonlinearity(family="custom", params={}, f1=lambda u, v: math.nan,
                          f2=lambda u, v: 0.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is None
        assert len(trace.ts) == 1

    def test_a_reaction_whose_norm_overflows_ends_the_run(self):
        # F = 1e300 u^2 v^2 on floats: near u = v = 400, f is finite but |f|
        # overflows, so dz/ds = 0 and every step's error is 0; the step grows
        # tenfold until s + h overflows, which ends the run
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: 2e300 * float(u) * float(v) * float(v),
                          f2=lambda u, v: 2e300 * float(u) * float(u) * float(v))
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        assert trace.blowup_time is None
        assert 300 < trace.us[-1] == trace.vs[-1] < 500
        assert np.all(np.isfinite(trace.ts))

    @pytest.mark.parametrize("a, u0, knots", [(60.0, 1.0, 402), (5.0, 1e-2, 373)],
                             ids=["u60v60_past_the_float_range", "u5v5_below_10_ulp"])
    def test_a_run_the_step_rule_ends_names_its_stop(self, a, u0, knots):
        # F = u^60 v^60 from (1, 1): |f| overflows near u = v = 375, so the
        # step grows until s + h overflows; F = u^5 v^5 from 1e-2 (t* about
        # 2.5e14): at t = 2.5e14 the step falls below 10 ulp of s.  Neither
        # reaches the top level or t_max, and the method says why
        trace = ode_reduce(make_power_product(1.0, a, a), u0, u0, t_max=1e15)
        assert trace.blowup_time is None and len(trace.ts) == knots
        assert max(trace.us[-1], trace.vs[-1]) < 1e3 and trace.ts[-1] < 1e15
        assert trace.method.endswith(
            "; stopped at a step below 10 ulp of s or past its float range")

    def test_stops_at_a_t_max_among_the_last_levels(self):
        # t_max falls between the crossings of 1e3 and 1e4: the t_max root
        # ends the run in a step that crosses no level, with levels left
        nl = make_power_product(1.0, 2.0, 2.0)
        t_max = 0.25 - 1e-7
        trace = ode_reduce(nl, 1.0, 1.0, t_max=t_max)
        assert trace.blowup_time is None
        assert trace.ts[-1] == pytest.approx(t_max, rel=1e-14)
        assert trace.us[-1] == pytest.approx(4e-7 ** -0.5, rel=1e-8)

    def test_stops_at_t_max_before_blowup(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=0.2)
        assert trace.blowup_time is None
        assert trace.ts[-1] == pytest.approx(0.2, rel=1e-14)
        assert trace.us[-1] == pytest.approx(closed_form_u(0.2), rel=1e-10)

    def test_potential_nondecreasing_along_trajectory(self):
        # F is a Lyapunov-type quantity here: dF/dt = f1^2 + f2^2 >= 0
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.5, t_max=1.0)
        Fs = nl.F(trace.us, trace.vs)
        assert np.all(np.diff(Fs) > -1e-9)

    def test_no_blowup_reports_none(self):
        trace = ode_reduce(linear_decay(), 1.0, 1.0, t_max=2.0)
        assert trace.blowup_time is None
        assert trace.us[-1] == pytest.approx(math.exp(-2.0), rel=1e-8)

    def test_rejects_negative_data(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            ode_reduce(nl, -1.0, 1.0, t_max=1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("at", ["u0", "v0"])
    def test_rejects_non_finite_data(self, bad, at):
        # inf or NaN would otherwise reach the level count, which cannot
        # convert it to an integer
        data = {"u0": 1.0, "v0": 1.0, at: bad}
        with pytest.raises(ValueError, match=f"must be finite, got .*{at} = {bad:g}"):
            ode_reduce(make_power_product(1.0, 2.0, 2.0), t_max=1.0, **data)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf])
    def test_rejects_a_t_max_it_cannot_stop_at(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            ode_reduce(linear_decay(), 1.0, 1.0, t_max=t_max)


# Blow-up times of F = u^a v^b from (1, 1) and from (0.8, 1.2): rows
# (a, b, t*(1, 1), t*(0.8, 1.2)), from `quadrature_blowup_time` with mpmath
# at 30 digits, rounded to 17
POWER_PRODUCT_BLOWUP = [
    (2, 2, 0.25, 0.25341569256760274),
    (2, 3, 0.1295802486328968, 0.121978293794635),
    (2, 4, 0.076713204860013673, 0.065155513137425231),
    (2, 5, 0.049661987114431674, 0.037250980256569293),
    (3, 2, 0.1295802486328968, 0.14565206262513348),
    (3, 3, 0.083333333333333333, 0.086805555555555554),
    (3, 4, 0.056244700993506389, 0.053189980588473692),
    (3, 5, 0.039650012874083552, 0.033451840856989908),
    (4, 2, 0.076713204860013673, 0.099446079959728047),
    (4, 3, 0.056244700993506389, 0.066844864275947949),
    (4, 4, 0.041666666666666667, 0.044847442168676275),
    (4, 5, 0.031427566747278288, 0.030251405968477274),
    (5, 2, 0.049661987114431674, 0.076304914814217397),
    (5, 3, 0.039650012874083552, 0.055088176564163979),
    (5, 4, 0.031427566747278288, 0.039275731374831134),
    (5, 5, 0.025, 0.027880256558641974),
]
DATA = ((1.0, 1.0), (0.8, 1.2))
POWER_PRODUCT_CASES = [(a, b, u0, v0, times[i]) for a, b, *times in POWER_PRODUCT_BLOWUP
                       for i, (u0, v0) in enumerate(DATA)]
CASE_IDS = [f"u{a}v{b}-{u0:g},{v0:g}" for a, b, u0, v0, _ in POWER_PRODUCT_CASES]


def closed_form_u(t):
    """u = v of F = u^2 v^2 from (1, 1): (1 - 4t)^{-1/2}."""
    return (1.0 - 4.0 * np.asarray(t)) ** -0.5


def quadrature_blowup_time(mp, a, b, u0, v0):
    """t* of F = u^a v^b from (u0, v0) by mpmath quadrature: b u^2 - a v^2
    is conserved, so v is a function of u and t* = int_u0^inf du / f1(u, v)."""
    u0, v0 = mp.mpf(u0), mp.mpf(v0)
    K = b * u0**2 - a * v0**2

    def dt_du(u):
        return 1 / (a * u ** (a - 1) * mp.sqrt((b * u**2 - K) / a) ** b)

    return mp.quad(dt_du, [u0, 2 * u0, 10 * u0, mp.inf])


class TestPowerProductBlowup:
    @pytest.mark.parametrize("a, b, u0, v0, t_star", POWER_PRODUCT_CASES, ids=CASE_IDS)
    def test_blowup_time_within_2e_13_and_its_uncertainty(self, a, b, u0, v0, t_star):
        trace = ode_reduce(make_power_product(1.0, float(a), float(b)), u0, v0, t_max=1.0)
        assert trace.blowup_time is not None
        t, unc = trace.blowup_time
        error = abs(t - t_star)
        assert error <= 2e-13 * t_star
        assert error <= unc
        # the step count is at least 20 times the longest of these runs
        assert 20 * len(trace.ts) <= rdblowup.oracle._MAX_STEPS
        if (a, b, u0) == (5, 5, 0.8):
            assert len(trace.ts) == 124  # the longest, in knots

    def test_references_are_the_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for a, b, u0, v0, t_star in POWER_PRODUCT_CASES:
                ref = float(quadrature_blowup_time(mpmath, a, b, u0, v0))
                assert ref == pytest.approx(t_star, rel=4e-16, abs=0)


def numpy_scalar_args(nl):
    """`nl` whose f1 and f2 take their arguments as numpy float64 scalars."""
    def cast(f):
        return lambda u, v: f(np.float64(u), np.float64(v))
    return dataclasses.replace(nl, f1=cast(nl.f1), f2=cast(nl.f2))


def assert_same_run(trace, reference):
    """The knots and blow-up times of two `ode_reduce` runs are equal, bit for
    bit."""
    for name in ("ts", "us", "vs"):
        assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name
    assert trace.blowup_time == reference.blowup_time
    assert trace.method == reference.method


class TestReactionOnFloats:
    # the reaction is called on Python floats, and made again on numpy
    # float64 scalars where Python raises; either way the run is the one
    # on numpy scalars, knot for knot
    @pytest.mark.parametrize("a, b, u0, v0, t_star", POWER_PRODUCT_CASES, ids=CASE_IDS)
    def test_the_references_run_as_on_numpy_scalars(self, a, b, u0, v0, t_star):
        nl = make_power_product(1.0, float(a), float(b))
        assert_same_run(ode_reduce(nl, u0, v0, t_max=1.0),
                        ode_reduce(numpy_scalar_args(nl), u0, v0, t_max=1.0))

    # f1 raises on Python floats past u = 34.8 (an overflow in **), once a
    # stage takes u below 0 (a complex power, which float() refuses), and at
    # u = 0 (a zero division)
    @pytest.mark.parametrize("f1, u0, v0, knots", [
        (lambda u, v: u**200.0, 1.0, 1.0, 96),
        (lambda u, v: u**2.5 - v, 1.0, 1.5, 60),
        (lambda u, v: 1.0 / u, 0.0, 1.0, 1),
    ], ids=["overflow", "negative_base", "zero_division"])
    def test_a_raising_float_call_is_made_again_on_numpy_scalars(self, f1, u0, v0, knots):
        nl = Nonlinearity(family="custom", params={}, f1=f1, f2=lambda u, v: 0.0 * v)
        types = set()

        def typed(u, v):
            types.add(type(u))
            return f1(u, v)

        trace = ode_reduce(dataclasses.replace(nl, f1=typed), u0, v0, t_max=10.0)
        assert types == {float, np.float64}
        assert len(trace.ts) == knots and trace.blowup_time is None
        assert_same_run(trace, ode_reduce(numpy_scalar_args(nl), u0, v0, t_max=10.0))


class TestScipyPorts:
    # the oracle carries DOP853's tableau and Brent's method, so that it runs
    # on numpy alone; both are scipy's to the bit
    def test_the_tableau_is_scipy_s(self):
        from scipy.integrate import DOP853
        A = DOP853.A
        assert _FloatDop853.A == [A[i, :i].tolist() for i in range(1, len(A))]
        assert not np.triu(A).any()  # explicit: A holds the rows below the diagonal
        for name in ("B", "E3", "E5", "A_EXTRA", "D"):
            assert getattr(_FloatDop853, name) == getattr(DOP853, name).tolist(), name
        assert _FloatDop853.ERROR_ORDER == DOP853.error_estimator_order

    def test_every_crossing_of_the_references_is_scipy_s_root(self, monkeypatch):
        from scipy.optimize import brentq
        tol = rdblowup.oracle._ROOT_TOL
        roots = []

        def both(f, a, b):
            x = _brentq(f, a, b)
            roots.append((x, brentq(f, a, b, xtol=tol, rtol=tol)))
            return x

        monkeypatch.setattr(rdblowup.oracle, "_brentq", both)
        for a, b, u0, v0, _ in POWER_PRODUCT_CASES:
            ode_reduce(make_power_product(1.0, float(a), float(b)), u0, v0, t_max=1.0)
        ode_reduce(make_power_product(1.0, 2.0, 2.0), 1.0, 1.0, t_max=0.2)
        assert len(roots) > 32 * 4
        assert all(float(x).hex() == float(ref).hex() for x, ref in roots)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x - 1.0, 1.0, 3.0),  # a root at an end
        (lambda x: x - 3.0, 1.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.exp(x) - 1e6, 0.0, 100.0),
        (lambda x: (x - 0.3) ** 3 + 1e-6 * (x - 0.3), 0.0, 1.0),  # flat: bisections
        (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
        (lambda x: math.copysign(1.0, x - 0.7), 0.0, 1.0),  # a jump
        (lambda x: 1e-300 * (x - 0.5), 0.0, 1.0),
    ], ids=["end-a", "end-b", "cos", "cubic", "exp", "flat", "tanh", "jump", "tiny"])
    def test_synthetic_roots_are_scipy_s(self, f, a, b):
        from scipy.optimize import brentq
        tol = rdblowup.oracle._ROOT_TOL
        assert _brentq(f, a, b).hex() == float(brentq(f, a, b, xtol=tol, rtol=tol)).hex()

    def test_ends_of_one_sign_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_a_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)

    def test_no_convergence_raises(self):
        # a triple root takes scipy's brentq past its 100 iterations too
        from scipy.optimize import brentq
        tol = rdblowup.oracle._ROOT_TOL
        with pytest.raises(RuntimeError):
            brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0, xtol=tol, rtol=tol)
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            _brentq(lambda x: (x - 0.3) ** 3, 0.0, 1.0)


class TestBruteForceIntegral:
    def test_polynomial(self):
        val = brute_force_integral(lambda x: x**2, 0.0, 1.0, 100000)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_sine(self):
        val = brute_force_integral(np.sin, 0.0, math.pi, 100000)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_rejects_too_few_panels(self):
        with pytest.raises(ValueError):
            brute_force_integral(np.sin, 0.0, 1.0, 1)


class TestPdeAgainstOde:
    def test_constant_data_neumann_tracks_ode(self, box2d):
        # with Neumann walls and flat data the PDE is exactly the ODE, whose
        # solution from (1, 1) is `closed_form_u`; compare the sup-norm
        # history with it while the solution is still moderate
        nl = make_power_product(1.0, 2.0, 2.0)
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=nl, gamma1=0.0, gamma2=0.0,
                           g1=g, g2=g, t_end=1.0,
                           rel_tol=1e-10, abs_tol=1e-12)
        ts, sups = simulate(cfg).tail
        moderate = np.cumprod(sups < 1e2).astype(bool)
        assert np.count_nonzero(moderate) >= 50
        assert sups[moderate] == pytest.approx(closed_form_u(ts[moderate]), rel=1e-6)
