import math

import numpy as np
import pytest

from conftest import linear_decay
from rdblowup.geometry import build_mesh
from rdblowup.nonlinearity import make_power_product
from rdblowup.oracle import (
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
        # u(t) = (1 - 4t)^{-1/2} for F = u^2 v^2, u0 = v0 = 1
        nl = make_power_product(1.0, 2.0, 2.0)
        trace = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        dense = trace.dense
        for t in (0.05, 0.1, 0.2, 0.24):
            u_exact = (1.0 - 4.0 * t) ** -0.5
            u_num = dense(t)[0]
            assert u_num == pytest.approx(u_exact, rel=1e-8)

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
        # with Neumann walls and flat data the PDE is exactly the ODE;
        # compare sup-norm histories while the solution is still moderate
        nl = make_power_product(1.0, 2.0, 2.0)
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=nl, gamma1=0.0, gamma2=0.0,
                           g1=g, g2=g, t_end=1.0,
                           rel_tol=1e-10, abs_tol=1e-12)
        trace = simulate(cfg)
        ode = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
        dense = ode.dense
        ts, sups = trace.tail
        checked = 0
        for t, sup in zip(ts, sups):
            if sup >= 1e2 or t > ode.ts[-1]:
                break
            u_ref = float(dense(t)[0])
            assert sup == pytest.approx(u_ref, rel=1e-6)
            checked += 1
        assert checked > 50
