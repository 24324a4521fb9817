import math

import numpy as np
import pytest

from rdblowup.errors import (
    BadExponent,
    EvalAtZeroU,
    NegativeInitialData,
    NonFiniteSample,
    NotGradientSystem,
)
from rdblowup.geometry import DomainSpec, build_mesh
from rdblowup.nonlinearity import (
    ALL_GLOBAL_BOUNDED,
    BLOWUP_EXISTS,
    HOLD_TOL,
    THRESHOLD_BLOWUP_SMALL_AB,
    THRESHOLD_GLOBAL,
    THRESHOLD_GLOBAL_BOUNDED,
    check_A2_A3,
    check_A2prime,
    check_H1,
    check_H2_H3,
    classify_absorption,
    make_absorption,
    make_gradient_homogeneous,
    make_power_product,
    shape_constant,
    shape_power,
)


class TestPowerProduct:
    def test_values_at_one_one(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        assert nl.F(1.0, 1.0) == 1.0
        assert nl.f1(1.0, 1.0) == 2.0
        assert nl.f2(1.0, 1.0) == 3.0

    def test_values_at_two_one(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        assert nl.f1(2.0, 1.0) == 4.0
        assert nl.f2(2.0, 1.0) == 12.0

    def test_half_coefficient(self):
        nl = make_power_product(0.5, 4.0, 1.0)
        assert nl.F(1.0, 2.0) == pytest.approx(1.0)
        assert nl.f1(1.0, 2.0) == pytest.approx(4.0)
        assert nl.f2(1.0, 2.0) == pytest.approx(0.5)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            make_power_product(0.5, 4.0, 0.0)

    @pytest.mark.parametrize("c, a, b", [
        (math.nan, 2.0, 2.0), (math.inf, 2.0, 2.0), (1.0, math.nan, 2.0),
        (1.0, 2.0, math.inf), (1.0, 2.0, math.nan),
    ], ids=["c_nan", "c_inf", "a_nan", "b_inf", "b_nan"])
    def test_non_finite_parameter_rejected(self, c, a, b):
        with pytest.raises(BadExponent):
            make_power_product(c, a, b)

    def test_gradient_consistency(self):
        nl = make_power_product(1.3, 2.0, 3.0)
        rng = np.random.default_rng(1)
        u = 10.0 ** rng.uniform(-2, 2, 1000)
        v = 10.0 ** rng.uniform(-2, 2, 1000)
        h = 1e-5
        df_du = (nl.F(u * (1 + h), v) - nl.F(u * (1 - h), v)) / (2 * h * u)
        df_dv = (nl.F(u, v * (1 + h)) - nl.F(u, v * (1 - h))) / (2 * h * v)
        assert np.max(np.abs(df_du / nl.f1(u, v) - 1.0)) < 1e-6
        assert np.max(np.abs(df_dv / nl.f2(u, v) - 1.0)) < 1e-6


class TestGradientHomogeneous:
    def test_recovers_power_product(self):
        # c=1, alpha=3/2, h(w)=w^3 gives F = u^5 (v/u)^3 = u^2 v^3
        nl = make_gradient_homogeneous(1.0, 1.5, shape_power(3.0))
        ref = make_power_product(1.0, 2.0, 3.0)
        u, v = 1.7, 0.9
        assert nl.F(u, v) == pytest.approx(ref.F(u, v), rel=1e-12)
        assert nl.f1(u, v) == pytest.approx(ref.f1(u, v), rel=1e-12)
        assert nl.f2(u, v) == pytest.approx(ref.f2(u, v), rel=1e-12)

    def test_constant_shape(self):
        nl = make_gradient_homogeneous(1.0, 1.0, shape_constant())
        assert nl.F(2.0, 5.0) == pytest.approx(16.0)  # u^4
        assert nl.f1(2.0, 5.0) == pytest.approx(32.0)  # 4u^3
        assert nl.f2(2.0, 5.0) == pytest.approx(0.0)

    def test_euler_identity(self):
        nl = make_gradient_homogeneous(2.0, 1.0, shape_power(2.0))
        rng = np.random.default_rng(2)
        u = 10.0 ** rng.uniform(-2, 2, 1000)
        v = 10.0 ** rng.uniform(-2, 2, 1000)
        lhs = u * nl.f1(u, v) + v * nl.f2(u, v)
        rhs = 4.0 * nl.F(u, v)  # 2(1+alpha) = 4
        scale = np.abs(u * nl.f1(u, v)) + np.abs(v * nl.f2(u, v)) + 1.0
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    def test_rejects_nonpositive_u(self):
        nl = make_gradient_homogeneous(1.0, 1.0, shape_power(2.0))
        with pytest.raises(EvalAtZeroU):
            nl.F(0.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(BadExponent):
            make_gradient_homogeneous(1.0, alpha, shape_constant())

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_coefficient_must_be_finite_and_positive(self, c):
        with pytest.raises(BadExponent):
            make_gradient_homogeneous(c, 1.0, shape_constant())

    @pytest.mark.parametrize("shape, value", [(shape_power, math.nan), (shape_power, math.inf),
                                              (shape_constant, math.nan),
                                              (shape_constant, -math.inf)])
    def test_shape_parameter_must_be_finite(self, shape, value):
        with pytest.raises(BadExponent):
            shape(value)


class TestAbsorption:
    def test_values(self):
        nl = make_absorption(3, 3, 3, 3, 0.01, 0.01)
        assert nl.f1(1.0, 1.0) == pytest.approx(0.99)
        assert nl.f2(1.0, 1.0) == pytest.approx(0.99)

    def test_values_mixed(self):
        nl = make_absorption(2, 1, 1, 1, 1.0, 1.0)
        assert nl.f1(1.0, 2.0) == pytest.approx(3.0)
        assert nl.f2(1.0, 2.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("params", [
        (3, 3, math.nan, 3, 0.01, 0.01), (3, math.inf, 3, 3, 0.01, 0.01),
        (3, 3, 3, 3, math.nan, 0.01), (3, 3, 3, 3, 0.01, math.inf),
    ], ids=["r_nan", "q_inf", "a_nan", "b_inf"])
    def test_non_finite_parameter_rejected(self, params):
        with pytest.raises(BadExponent):
            make_absorption(*params)

    def test_has_no_potential(self):
        nl = make_absorption(3, 3, 3, 3, 0.01, 0.01)
        assert not nl.has_potential
        with pytest.raises(NotGradientSystem):
            check_H1(nl, 1.0)


class TestCheckH1:
    def test_threshold_alpha_holds(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        rep = check_H1(nl, 1.5)
        assert rep.holds
        assert abs(rep.margin) < 1e-12

    def test_above_threshold_fails(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        rep = check_H1(nl, 1.6)
        assert not rep.holds
        assert rep.witness is not None
        u, v = rep.witness
        slack = u * nl.f1(u, v) + v * nl.f2(u, v) - 2.0 * 2.6 * nl.F(u, v)
        assert slack < 0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            check_H1(make_power_product(1.0, 2.0, 3.0), alpha)

    @pytest.mark.parametrize("box, samples", [
        (((1e-3, math.inf), (1e-3, 1e3)), 64),
        (((1e-3, 1e3), (0.0, 1e3)), 64),
        (((1e3, 1e-3), (1e-3, 1e3)), 64),
        (((1e-3, 1e3), (1e-3, 1e3)), 0),
    ], ids=["box_max_inf", "box_min_zero", "reversed", "no_samples"])
    def test_rejects_bad_sample_box(self, box, samples):
        with pytest.raises(ValueError):
            check_H1(make_power_product(1.0, 2.0, 3.0), 1.5, box=box,
                     samples_per_axis=samples)

    def test_overflowing_samples_left_out_of_a_holding_verdict(self):
        # u^2 v^2 meets H1 at alpha = 1 with equality for every c; at c = 1e300
        # the samples near u = v = 1e3 overflow to inf - inf
        rep = check_H1(make_power_product(1e300, 2.0, 2.0), 1.0)
        assert rep.holds
        assert abs(rep.margin) <= HOLD_TOL
        assert "non-finite samples left out" in rep.description

    def test_overflowing_samples_left_out_of_a_failing_verdict(self):
        # 2(1 + alpha) F overflows wherever F >= 9; where it does not, it
        # dwarfs u f1 + v f2, so the slack is -1 of the scale
        rep = check_H1(make_power_product(1.0, 2.0, 2.0), 1e307)
        assert not rep.holds
        assert rep.margin == -1.0
        u, v = rep.witness
        assert 2.0 * (1.0 + 1e307) * u**2 * v**2 < np.inf

    def test_no_finite_sample_is_a_numerical_failure(self):
        with pytest.raises(NonFiniteSample):
            check_H1(make_power_product(1.0, 2.0, 2.0), 1.0,
                     box=((1e200, 1e300), (1e200, 1e300)), samples_per_axis=4)

    def test_homogeneous_family_is_equality_case(self):
        nl = make_gradient_homogeneous(0.7, 0.8, shape_power(1.5))
        rep = check_H1(nl, 0.8)
        assert rep.holds
        assert abs(rep.margin) < 1e-12

    def test_closed_form_criterion(self):
        # power product holds iff 2(1+alpha) <= a+b
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(1.0, 4.0)
            alpha = rng.uniform(0.05, 2.5)
            rep = check_H1(make_power_product(1.0, a, b), alpha)
            assert rep.holds == (2.0 * (1.0 + alpha) <= a + b + 1e-12)


class TestCheckH2H3:
    def test_neumann_constants_hold(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        ones = np.ones(mesh2d.n_cells)
        r2, r3 = check_H2_H3(nl, ones, ones, mesh2d, 0.0, 0.0)
        assert r2.holds and r3.holds

    def test_robin_constants_marginal(self, mesh2d):
        # 2*intF = 8 against gamma*perimeter = 8: margin exactly 0
        nl = make_power_product(1.0, 2.0, 3.0)
        ones = np.ones(mesh2d.n_cells)
        r2, r3 = check_H2_H3(nl, ones, ones, mesh2d, 1.0, 1.0)
        assert r2.holds and abs(r2.margin) < 1e-12
        assert r3.holds and abs(r3.margin) < 1e-12

    def test_cosine_perturbation_margin(self, box2d):
        # g1 = 1 + 0.5*cos(pi x1), g2 = 1, Neumann, F = u^2 v^3:
        # lhs = 2*int g1^2 = 9, rhs = int |grad g1|^2 = pi^2/2
        nl = make_power_product(1.0, 2.0, 3.0)
        mesh = build_mesh(box2d, 128)
        g1 = 1.0 + 0.5 * np.cos(np.pi * mesh.cell_centers[:, 0])
        g2 = np.ones(mesh.n_cells)
        r2, _ = check_H2_H3(nl, g1, g2, mesh, 0.0, 0.0)
        lhs_exact = 9.0
        rhs_exact = math.pi**2 / 2.0
        margin_exact = (lhs_exact - rhs_exact) / (lhs_exact + rhs_exact)
        assert r2.holds
        assert r2.margin == pytest.approx(margin_exact, abs=1e-3)

    def test_negative_data_rejected(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        bad = -np.ones(mesh2d.n_cells)
        with pytest.raises(NegativeInitialData):
            check_H2_H3(nl, bad, np.ones(mesh2d.n_cells), mesh2d, 0.0, 0.0)

    def test_vanishing_data_rejected(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        zero = np.zeros(mesh2d.n_cells)
        with pytest.raises(NegativeInitialData):
            check_H2_H3(nl, zero, zero, mesh2d, 0.0, 0.0)

    def test_nan_gamma_rejected(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        g = np.ones(mesh2d.n_cells)
        with pytest.raises(ValueError, match="gamma2"):
            check_H2_H3(nl, g, g, mesh2d, 0.0, float("nan"))


class TestCheckA2A3:
    def test_decoupled_quartic_marginal(self):
        # F = u^4 + v^4: f1 = 4u^3 = 4*u^(p+1) at p=2
        from rdblowup.nonlinearity import Nonlinearity
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: 4.0 * u**3,
                          f2=lambda u, v: 4.0 * v**3,
                          F=lambda u, v: u**4 + v**4)
        ra2, ra3 = check_A2_A3(nl, 4.0, 4.0, 2.0)
        assert ra2.holds and abs(ra2.margin) < 1e-12
        assert ra3.holds and abs(ra3.margin) < 1e-12

    def test_coupled_violates_for_large_v(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        ra2, _ = check_A2_A3(nl, 2.0, 2.0, 2.0)
        assert not ra2.holds
        u, v = ra2.witness
        assert v > u  # violated where v dominates

    def test_absorption_fails_a2(self):
        nl = make_absorption(3, 3, 3, 3, 0.01, 0.01)
        ra2, _ = check_A2_A3(nl, 1.0, 1.0, 2.0)
        assert not ra2.holds

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            nl = make_power_product(1.0, rng.uniform(1, 3), rng.uniform(1, 3))
            p = rng.uniform(1.0, 3.0)
            k = rng.uniform(0.1, 5.0)
            lo2, lo3 = check_A2_A3(nl, k, k, p)
            hi2, hi3 = check_A2_A3(nl, 2 * k, 2 * k, p)
            assert hi2.margin >= lo2.margin - 1e-15
            assert hi3.margin >= lo3.margin - 1e-15
            if lo2.holds:
                assert hi2.holds


class TestCheckA2prime:
    def test_absorption_holds_via_square_identity(self):
        # slack = (u^3-v^3)^2 + a*u^6 + b*v^6 >= 0
        nl = make_absorption(3, 3, 3, 3, 0.01, 0.01)
        rep = check_A2prime(nl, 1.0, 1.0, 2.0)
        assert rep.holds

    def test_symmetric_quadratic_holds(self):
        nl = make_power_product(1.0, 2.0, 2.0)
        rep = check_A2prime(nl, 2.0, 2.0, 2.0)
        assert rep.holds

    def test_overflowing_samples_left_out(self):
        # (u^6 + v^6 - 2u^4v^2 - 2u^2v^4) / (u^6 + v^6 + 2u^4v^2 + 2u^2v^4) at
        # c = k1 = k2 = 1e300 is least, -1/3, on the diagonal u = v, which
        # overflows above u ~ 17
        rep = check_A2prime(make_power_product(1e300, 2.0, 2.0), 1e300, 1e300, 2.0)
        assert not rep.holds
        assert rep.margin == pytest.approx(-1.0 / 3.0, rel=1e-14)
        u, v = rep.witness
        assert u == v < 17.0

    def test_u2v3_violates(self):
        nl = make_power_product(1.0, 2.0, 3.0)
        rep = check_A2prime(nl, 1.0, 1.0, 2.0)
        assert not rep.holds
        u, v = rep.witness
        # degree-7 diagonal term beats degree 6 for large u = v
        assert max(u, v) > 1.0


class TestClassifyAbsorption:
    def test_threshold_global_bounded(self):
        assert classify_absorption(3, 3, 3, 3, 1.0, 1.0) == THRESHOLD_GLOBAL_BOUNDED

    def test_threshold_small_ab(self):
        assert classify_absorption(3, 3, 3, 3, 0.01, 0.01) == THRESHOLD_BLOWUP_SMALL_AB

    def test_blowup_exists(self):
        assert classify_absorption(2, 2, 1, 1, 0.5, 0.5) == BLOWUP_EXISTS

    def test_all_global_bounded(self):
        assert classify_absorption(1, 1, 2, 2, 0.5, 0.5) == ALL_GLOBAL_BOUNDED

    def test_threshold_global_when_low_absorption_exponent(self):
        assert classify_absorption(1, 1, 1, 1, 0.5, 0.5) == THRESHOLD_GLOBAL
