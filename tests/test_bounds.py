import itertools
import math

import numpy as np
import pytest

from rdblowup.bounds import (
    MODE_A2A3,
    MODE_A2PRIME,
    _cbrt,
    beta_admissibility_residual,
    compute_K,
    lower_bound_blowup,
    lower_bound_pipeline,
    select_betas,
    upper_bound_blowup,
)
import rdblowup.bounds
import rdblowup.nonlinearity
from rdblowup.errors import (
    ConstantOutOfRange,
    DimensionNot3,
    HypothesisFailed,
    NegativeInitialData,
    NonFiniteSample,
    NonpositiveE0,
    NonpositiveJ0,
)
from rdblowup.functionals import FieldPair, energy_sample
from rdblowup.geometry import DomainSpec, GeometryConstants, build_mesh, geometry_constants
from rdblowup.nonlinearity import (
    check_A2prime,
    check_H2_H3,
    make_absorption,
    make_power_product,
)
from rdblowup.oracle import brute_force_integral


def constant_data(mesh, c1, c2):
    return np.full(mesh.n_cells, c1), np.full(mesh.n_cells, c2)


class TestUpperBound:
    def test_neumann_quadratic_product(self, mesh3d):
        # F = u^2 v^2, g1 = g2 = 1 on [-1,1]^3, Neumann, alpha = 1:
        # E0 = 16, J0 = 64, M = 1/4, t_upper = 1/4
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh3d, 1.0, 1.0)
        res = upper_bound_blowup(nl, g1, g2, mesh3d, 0.0, 0.0, 1.0)
        assert res.E0 == pytest.approx(16.0, rel=1e-12)
        assert res.J0 == pytest.approx(64.0, rel=1e-12)
        assert res.M == pytest.approx(0.25, rel=1e-12)
        assert res.t_upper == pytest.approx(0.25, abs=1e-9)

    def test_neumann_u2v3(self, mesh2d):
        # F = u^2 v^3, g1 = g2 = 1 on [-1,1]^2, Neumann, alpha = 3/2:
        # E0 = 8, J0 = 4(5/2)*4 = 40, t_upper = E0/(alpha J0) = 2/15
        nl = make_power_product(1.0, 2.0, 3.0)
        g1, g2 = constant_data(mesh2d, 1.0, 1.0)
        res = upper_bound_blowup(nl, g1, g2, mesh2d, 0.0, 0.0, 1.5)
        assert res.t_upper == pytest.approx(2.0 / 15.0, abs=1e-12)

    def test_h1_failure_raises_with_witness(self, mesh2d):
        # alpha = 1.6 pushes H1 past the a + b = 5 threshold for u^2 v^3
        nl = make_power_product(1.0, 2.0, 3.0)
        g1, g2 = constant_data(mesh2d, 1.0, 1.0)
        with pytest.raises(HypothesisFailed) as exc:
            upper_bound_blowup(nl, g1, g2, mesh2d, 0.0, 0.0, 1.6)
        assert exc.value.which == "H1"
        assert exc.value.margin < 0

    def test_robin_negative_J0_raises(self, mesh2d):
        # gamma = 1 boundary drain makes J0 = -40 < 0 for this data
        nl = make_power_product(1.0, 2.0, 3.0)
        g1, g2 = constant_data(mesh2d, 1.0, 1.0)
        with pytest.raises(NonpositiveJ0):
            upper_bound_blowup(nl, g1, g2, mesh2d, 1.0, 1.0, 1.5)

    def test_zero_data_raises(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh2d, 0.0, 0.0)
        with pytest.raises(NegativeInitialData, match="must not completely vanish"):
            upper_bound_blowup(nl, g1, g2, mesh2d, 0.0, 0.0, 1.0)

    def test_underflowing_energy_raises(self, mesh2d):
        # the squares of 1e-200 underflow: the row's E(0) is 0, though the
        # data rule admits the data
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh2d, 1e-200, 1e-200)
        with pytest.raises(NonpositiveE0):
            upper_bound_blowup(nl, g1, g2, mesh2d, 0.0, 0.0, 1.0)

    def test_negative_gamma_rejected(self, mesh3d):
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh3d, 1.0, 1.0)
        with pytest.raises(ValueError, match="gamma1"):
            upper_bound_blowup(nl, g1, g2, mesh3d, -1.0, -1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
    def test_alpha_must_be_finite_and_positive(self, mesh3d, alpha):
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh3d, 1.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            upper_bound_blowup(nl, g1, g2, mesh3d, 0.0, 0.0, alpha)

    def test_two_algebraic_forms_agree(self, mesh3d):
        nl = make_power_product(0.5, 2.0, 2.0)
        g1, g2 = constant_data(mesh3d, 1.5, 0.5)
        res = upper_bound_blowup(nl, g1, g2, mesh3d, 0.0, 0.0, 1.0)
        direct = 1.0 / (res.alpha * res.M * res.E0**res.alpha)
        assert res.t_upper == pytest.approx(direct, rel=1e-12)

    def test_scale_invariance_of_M_form(self, mesh3d):
        # doubling F's coefficient doubles J0 and halves t_upper
        g1, g2 = constant_data(mesh3d, 1.0, 1.0)
        r1 = upper_bound_blowup(make_power_product(1.0, 2.0, 2.0),
                                g1, g2, mesh3d, 0.0, 0.0, 1.0)
        r2 = upper_bound_blowup(make_power_product(2.0, 2.0, 2.0),
                                g1, g2, mesh3d, 0.0, 0.0, 1.0)
        assert r2.t_upper == pytest.approx(r1.t_upper / 2.0, rel=1e-12)

    def test_large_data_small_coefficient_does_not_overflow(self, box3d):
        # F = 1e-100 u^2 v^2, flat c0 = 1e80 on [-1,1]^3: E0 = 1.6e161, so
        # E0^2 leaves float range, but t_upper = 1/(4 c c0^2) = 2.5e-61 and
        # M = 2c/|Omega| = 2.5e-101 do not
        mesh = build_mesh(box3d, 16)
        g1, g2 = constant_data(mesh, 1e80, 1e80)
        res = upper_bound_blowup(make_power_product(1e-100, 2.0, 2.0),
                                 g1, g2, mesh, 0.0, 0.0, 1.0)
        assert res.t_upper == pytest.approx(2.5e-61, rel=1e-12)
        assert res.M == pytest.approx(2.5e-101, rel=1e-12)


class TestBetaSelection:
    def test_unit_ball_frozen_value(self):
        # p = 2, k1 = k2 = 2, rho = d = 1:
        # beta = 2^(3/2)*3 / (3^(1/4)*4*2*2^(3/2)) = 3/(8*3^(1/4))
        geo = geometry_constants(DomainSpec("ball", 3, radius=1.0))
        b1, b2 = select_betas(2.0, 2.0, 2.0, geo)
        expected = 3.0 / (8.0 * 3.0**0.25)
        assert b1 == pytest.approx(expected, rel=1e-14)
        assert b2 == pytest.approx(expected, rel=1e-14)

    def test_p1_k1_frozen_value(self):
        # p = 1, k = 1, rho = d = 1: beta = 2^(3/2)/(3^(1/4)*2^(3/2)) = 3^(-1/4)
        geo = GeometryConstants(rho=1.0, d=1.0)
        b1, _ = select_betas(1.0, 1.0, 1.0, geo)
        assert b1 == pytest.approx(3.0**-0.25, rel=1e-14)

    def test_doubling_k_halves_beta(self):
        geo = GeometryConstants(rho=1.0, d=2.0)
        b1, b2 = select_betas(2.0, 1.0, 2.0, geo)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-14)

    def test_selected_beta_sits_on_admissibility_boundary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.uniform(1.0, 4.0)
            k = rng.uniform(0.1, 10.0)
            rho = rng.uniform(0.2, 2.0)
            d = rho * rng.uniform(1.0, 3.0)
            geo = GeometryConstants(rho=rho, d=d)
            beta, _ = select_betas(p, k, k, geo)
            res = beta_admissibility_residual(p, k, geo, beta)
            assert abs(res) < 1e-12
            # anything larger is inadmissible
            assert beta_admissibility_residual(p, k, geo, 1.01 * beta) > 0

    def test_rejects_bad_inputs(self):
        geo = GeometryConstants(rho=1.0, d=1.0)
        with pytest.raises(ValueError):
            select_betas(0.5, 1.0, 1.0, geo)
        with pytest.raises(ValueError):
            select_betas(2.0, 0.0, 1.0, geo)

    @pytest.mark.parametrize("p, k", [(np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan),
                                      (2.0, np.inf), (2.0, -1.0)])
    def test_growth_constant_rule_shared(self, p, k):
        # select_betas, compute_K and the A2' check apply one rule for p and k
        geo = GeometryConstants(rho=1.0, d=1.0)
        nl = make_power_product(1.0, 2.0, 2.0)
        for call in (lambda: select_betas(p, k, 1.0, geo), lambda: compute_K(p, k, geo, 0.5),
                     lambda: check_A2prime(nl, k, 1.0, p)):
            with pytest.raises(ValueError, match="must be finite"):
                call()


class TestComputeK:
    def test_frozen_K1(self):
        # p = 2, k = 2, rho = 1: K1 = 3^(3/4)*4
        geo = GeometryConstants(rho=1.0, d=1.0)
        K1, _ = compute_K(2.0, 2.0, geo, 0.5)
        assert K1 == pytest.approx(4.0 * 3.0**0.75, rel=1e-14)

    def test_K1_rho_scaling(self):
        geo_a = GeometryConstants(rho=1.0, d=2.0)
        geo_b = GeometryConstants(rho=4.0, d=8.0)
        K1a, _ = compute_K(2.0, 1.0, geo_a, 0.5)
        K1b, _ = compute_K(2.0, 1.0, geo_b, 0.5)
        assert K1b == pytest.approx(K1a / 8.0, rel=1e-14)

    def test_K2_beta_scaling(self):
        geo = GeometryConstants(rho=1.0, d=1.0)
        _, K2a = compute_K(2.0, 1.0, geo, 0.5)
        _, K2b = compute_K(2.0, 1.0, geo, 1.0)
        assert K2a == pytest.approx(8.0 * K2b, rel=1e-14)


class TestLowerBoundIntegral:
    def test_K2_zero_closed_form(self):
        # int_E0^inf dxi/(K1 xi^(3/2)) = 2/(K1 sqrt(E0))
        val, err = lower_bound_blowup(4.0, 3.0, 0.0)
        assert val == pytest.approx(2.0 / (3.0 * 2.0), rel=1e-10)
        assert err < 1e-10

    def test_K1_dominant_limit(self):
        # with tiny K2 the value approaches the K2 = 0 closed form
        # the perturbation from a small K2 scales like K2^(1/3)
        val, _ = lower_bound_blowup(1.0, 2.0, 1e-12)
        assert val == pytest.approx(1.0, rel=1e-3)

    def test_matches_trapezoid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            E0 = rng.uniform(0.5, 50.0)
            K1 = rng.uniform(0.1, 20.0)
            K2 = rng.uniform(0.1, 200.0)
            val, _ = lower_bound_blowup(E0, K1, K2)
            w_top = 1.0 / np.sqrt(E0)
            ref = brute_force_integral(
                lambda w: 2.0 * w**3 / (K1 * w**3 + K2), 0.0, w_top, 200000)
            assert val == pytest.approx(ref, abs=1e-8)

    def test_monotone_decreasing_in_inputs(self):
        base, _ = lower_bound_blowup(2.0, 1.0, 5.0)
        assert lower_bound_blowup(3.0, 1.0, 5.0)[0] < base
        assert lower_bound_blowup(2.0, 1.5, 5.0)[0] < base
        assert lower_bound_blowup(2.0, 1.0, 7.0)[0] < base

    def test_rejects_nonpositive_scriptE0(self):
        with pytest.raises(NonpositiveE0):
            lower_bound_blowup(0.0, 1.0, 1.0)


def mp_lower_bound(mp, scriptE0, K1, K2):
    """The bound integral at mpmath's precision: (2a/K1) H(W/a), a = (K2/K1)^(1/3),
    W = scriptE0^(-1/2), with H(x) = (x^4/4) 2F1(1, 4/3; 7/3; -x^3)."""
    E0, K1, K2 = mp.mpf(scriptE0), mp.mpf(K1), mp.mpf(K2)
    a = mp.cbrt(K2 / K1)
    x = 1 / (mp.sqrt(E0) * a)
    return 2 * a / K1 * x**4 / 4 * mp.hyp2f1(1, mp.mpf(4) / 3, mp.mpf(7) / 3, -x**3)


def mp_quad_lower_bound(mp, scriptE0, K1, K2):
    """The bound integral by mpmath quadrature in xi, split at the knee
    K1 xi^(3/2) = K2 xi^3."""
    E0, K1, K2 = mp.mpf(scriptE0), mp.mpf(K1), mp.mpf(K2)
    knee = (K1 / K2) ** (mp.mpf(2) / 3)
    points = [E0] + ([knee] if knee > E0 else []) + [mp.inf]
    return mp.quad(lambda xi: 1 / (K1 * xi**1.5 + K2 * xi**3), points)


# (scriptE0, K1, K2) log-random over [1e-12, 1e12] x [1e-8, 1e8]^2
LOG_GRID = [tuple(map(float, 10.0 ** row)) for row in
            np.random.default_rng(36).uniform((-12, -8, -8), (12, 8, 8), (300, 3))]
# adaptive quadrature, at 1e-12 tolerances, missed the knee at w = 4.6e-5
# here by 3.6e-5 relative, while it estimated its error as 1.6e-13
KNEE_MISSED = (0.4246, 2.405e6, 2.378e-7)


class TestLowerBoundClosedForm:
    @pytest.mark.parametrize("x", [5e-324, 2.2250738585072014e-308, 1e-300, 0.001, 2.0, 27.0,
                                   3.7e11, 1e300, 1.7976931348623157e308])
    def test_the_cube_root_is_within_an_ulp(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            assert abs(_cbrt(x) - mpmath.cbrt(x)) <= math.ulp(_cbrt(x))
        assert _cbrt(0.0) == 0.0

    def test_the_reference_is_the_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for point in [KNEE_MISSED, (1.0, 1.0, 8.0), *LOG_GRID[:3]]:
                ref = mp_lower_bound(mpmath, *point)
                assert abs(mp_quad_lower_bound(mpmath, *point) / ref - 1) < 1e-20

    def test_agrees_with_mpmath_to_1e_14_over_a_log_grid(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            errors = [abs(lower_bound_blowup(*point)[0] / mp_lower_bound(mpmath, *point) - 1)
                      for point in [KNEE_MISSED, *LOG_GRID]]
        assert max(errors) <= 1e-14

    def test_agrees_with_mpmath_on_both_sides_of_the_series_branch(self):
        # scriptE0 = K1 = 1 and K2 = x^-3 put x = W/a at x, where the
        # subtraction x - G(x) loses the most digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in np.linspace(0.05, 3.0, 120):
                point = (1.0, 1.0, float(x) ** -3)
                value, bound = lower_bound_blowup(*point)
                error = abs(value - mp_lower_bound(mpmath, *point))
                assert error <= bound, x

    @pytest.mark.parametrize("scriptE0, K1", [(4.0, 3.0), (1e-300, 1e-300), (1e300, 1e300),
                                              (0.37, 1e-7)])
    def test_K2_zero_is_exactly_2W_over_K1(self, scriptE0, K1):
        assert lower_bound_blowup(scriptE0, K1, 0.0)[0] == 2.0 * (1.0 / math.sqrt(scriptE0)) / K1

    @pytest.mark.parametrize("point", list(itertools.product((1e-300, 1e300), repeat=3)))
    def test_float_range_corners(self, point):
        # x = W/a over- or underflows at most corners; the value is finite
        # and accurate wherever the integral is a normal float
        mpmath = pytest.importorskip("mpmath")
        value, bound = lower_bound_blowup(*point)
        with mpmath.workdps(40):
            ref = mp_lower_bound(mpmath, *point)
        if 2.2250738585072014e-308 <= ref <= 1.7976931348623157e308:
            assert math.isfinite(value)
            assert abs(value / ref - 1) <= 1e-14
            assert bound == pytest.approx(1e-14 * value)


class TestLowerBoundPipeline:
    def test_unit_ball_power_product(self):
        # F = u^2 v^2 (k = 2 absorbs the cross terms), p = 2, g = 1:
        # scriptE0 = 2 * 4pi/3, frozen constants checked against formulas
        nl = make_power_product(1.0, 2.0, 2.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        res = lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0,
                                   mode=MODE_A2PRIME)
        assert res.scriptE0 == pytest.approx(2.0 * 4.0 * np.pi / 3.0, rel=1e-14)
        assert res.K1 == pytest.approx(4.0 * 3.0**0.75, rel=1e-14)
        assert res.beta == pytest.approx(3.0 / (8.0 * 3.0**0.25), rel=1e-14)
        assert res.integral_abs_error <= 1e-10
        assert 0.0 < res.t_lower < 0.25
        assert res.smooth_boundary_caveat is None

    def test_box_mesh_reports_caveat(self, box3d):
        nl = make_power_product(1.0, 2.0, 2.0)
        mesh = build_mesh(box3d, 8)
        g1 = np.full(mesh.n_cells, 1.0)
        res = lower_bound_pipeline(nl, g1, g1, mesh, p=2.0, k1=2.0, k2=2.0)
        assert res.smooth_boundary_caveat is not None
        assert res.scriptE0 == pytest.approx(16.0, rel=1e-12)
        assert res.t_lower > 0.0

    def test_2d_domain_rejected(self, box2d):
        nl = make_power_product(1.0, 2.0, 2.0)
        mesh = build_mesh(box2d, 8)
        g1 = np.full(mesh.n_cells, 1.0)
        with pytest.raises(DimensionNot3):
            lower_bound_pipeline(nl, g1, g1, mesh, p=2.0, k1=2.0, k2=2.0)

    def test_hypothesis_failure_propagates(self):
        # u^2 v^3 grows too fast for A2' with k = 2, p = 2
        nl = make_power_product(1.0, 2.0, 3.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        with pytest.raises(HypothesisFailed):
            lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0)

    def test_absorption_uses_a2a3_or_a2prime(self):
        # f1 = v^3 - u^3, f2 = u^3 - v^3: the source terms are cubic, so
        # u^3 f1 + v^3 f2 <= 2 u^3 v^3 <= u^6 + v^6 and A2' holds at k = 1
        nl = make_absorption(p=3.0, q=3.0, r=3.0, s=3.0, a=1.0, b=1.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        res = lower_bound_pipeline(nl, 2.0, 2.0, ball, p=2.0, k1=1.0, k2=1.0,
                                   mode=MODE_A2PRIME)
        assert res.t_lower > 0.0
        assert all(rep.holds for rep in res.hypothesis_reports)

    def test_larger_initial_data_shrinks_bound(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        small = lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0)
        big = lower_bound_pipeline(nl, 2.0, 2.0, ball, p=2.0, k1=2.0, k2=2.0)
        assert big.t_lower < small.t_lower

    @pytest.mark.parametrize("c1, c2", [(-1.0, 1.0), (0.0, 0.0)],
                             ids=["negative", "vanishing"])
    @pytest.mark.parametrize("on_mesh", [False, True], ids=["ball", "box"])
    def test_inadmissible_data_rejected(self, box3d, c1, c2, on_mesh):
        nl = make_power_product(1.0, 2.0, 2.0)
        if on_mesh:
            mesh = build_mesh(box3d, 8)
            args = (*constant_data(mesh, c1, c2), mesh)
        else:
            args = (c1, c2, DomainSpec("ball", 3, radius=1.0))
        with pytest.raises(NegativeInitialData):
            lower_bound_pipeline(nl, *args, p=2.0, k1=2.0, k2=2.0)

    def test_ball_scriptE0_past_float_range_is_a_nonfinite_sample(self):
        # (1e200)^4 overflows, as it makes the mesh's row not finite
        nl = make_power_product(1.0, 2.0, 2.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        with pytest.raises(NonFiniteSample, match="interior"):
            lower_bound_pipeline(nl, 1e200, 1e200, ball, p=2.0, k1=2.0, k2=2.0)

    def test_unknown_mode_rejected(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        ball = DomainSpec("ball", 3, radius=1.0)
        with pytest.raises(ValueError):
            lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0,
                                 mode="bogus")


class TestOneMonitorRow:
    # each bound reads the initial data's functionals off one monitor row
    @pytest.mark.parametrize("bound", ["upper", "lower"])
    def test_each_bound_builds_one_row(self, mesh3d, monkeypatch, bound):
        rows = []

        def counted(*args, **kwargs):
            rows.append(args[0])
            return energy_sample(*args, **kwargs)

        for module in (rdblowup.bounds, rdblowup.nonlinearity):
            monkeypatch.setattr(module, "energy_sample", counted)
        nl = make_power_product(1.0, 2.0, 2.0)
        g1, g2 = constant_data(mesh3d, 1.0, 1.0)
        if bound == "upper":
            res = upper_bound_blowup(nl, g1, g2, mesh3d, 0.0, 0.0, 1.0)
            assert (res.E0, res.J0) == (16.0, 64.0)
        else:
            res = lower_bound_pipeline(nl, g1, g2, mesh3d, p=2.0, k1=2.0, k2=2.0)
            assert res.scriptE0 == 16.0
        assert len(rows) == 1


class TestDataOfTheWrongSize:
    # one value of each field per cell, or a ValueError naming the cell count
    @pytest.mark.parametrize("call", [
        lambda nl, mesh: energy_sample(FieldPair(u=1.0, v=1.0, t=0.0), mesh, nl),
        lambda nl, mesh: upper_bound_blowup(nl, 1.0, 1.0, mesh, 0.0, 0.0, 1.0),
        lambda nl, mesh: lower_bound_pipeline(nl, 1.0, 1.0, mesh, p=2.0, k1=2.0, k2=2.0),
        lambda nl, mesh: check_H2_H3(nl, np.ones(5), np.ones(5), mesh, 0.0, 0.0),
    ], ids=["energy_sample", "upper_bound", "lower_bound", "check_H2_H3"])
    def test_refused_with_the_cell_count(self, mesh3d, call):
        with pytest.raises(ValueError, match=r"per cell \(512\)"):
            call(make_power_product(1.0, 2.0, 2.0), mesh3d)


class TestConstantsPastFloatRange:
    # a beta that underflows to 0, or a K1 or K2 that overflows, refuses the
    # lower bound in place of a ValueError or an OverflowError
    @pytest.mark.parametrize("p, k, half_extents, name", [
        (1e160, 3.0, (1.0, 1.0, 1.0), "beta"),
        (2.0, 1e308, (1.0, 1.0, 1.0), "beta"),
        (2.0, 1e300, (1.0, 1.0, 1.0), "K2"),
        (2.0, 3.0, (1e-300, 1.0, 1.0), "beta"),
        (2.0, 3.0, (1e150, 1.0, 1.0), "K2"),
    ], ids=["p1e160", "k1e308", "k1e300", "rho1e-300", "d1e150"])
    def test_refused(self, p, k, half_extents, name):
        mesh = build_mesh(DomainSpec("box", 3, half_extents=half_extents), 4)
        g1, g2 = constant_data(mesh, 1.0, 1.0)
        with pytest.raises(ConstantOutOfRange, match=f"^{name} = "):
            lower_bound_pipeline(make_power_product(1.0, 2.0, 2.0), g1, g2, mesh,
                                 p=p, k1=k, k2=k)


class TestInputRules:
    @pytest.mark.parametrize("call", [
        lambda geo: select_betas(2.0, 1.0, 1.0, geo),
        lambda geo: compute_K(2.0, 1.0, geo, 0.5),
    ], ids=["select_betas", "compute_K"])
    def test_rho_must_be_positive(self, call):
        with pytest.raises(ValueError, match="need rho > 0"):
            call(GeometryConstants(rho=0.0, d=1.0))

    def test_compute_K_needs_a_positive_beta(self):
        with pytest.raises(ValueError, match="need beta > 0"):
            compute_K(2.0, 1.0, GeometryConstants(rho=1.0, d=1.0), 0.0)

    @pytest.mark.parametrize("K1, K2", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0)])
    def test_integral_needs_K1_positive_and_K2_nonnegative(self, K1, K2):
        with pytest.raises(ValueError, match="need K1 > 0 and K2 >= 0"):
            lower_bound_blowup(1.0, K1, K2)

    def test_unmeshed_domain_must_be_a_ball(self, box3d):
        with pytest.raises(ValueError, match="an unmeshed domain must be a ball"):
            lower_bound_pipeline(make_power_product(1.0, 2.0, 2.0), 1.0, 1.0, box3d,
                                 p=2.0, k1=2.0, k2=2.0)
