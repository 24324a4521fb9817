import numpy as np
import pytest

from rdblowup.errors import NegativeField, NonFiniteField, NotGradientSystem
from rdblowup.functionals import (
    FieldPair,
    discrete_gradient_energy,
    energy_E,
    energy_sample,
    energy_scriptE,
    functional_J,
)
from rdblowup.geometry import build_mesh
from rdblowup.nonlinearity import check_H2_H3, make_absorption, make_power_product


def constant_pair(mesh, cu, cv, t=0.0, nonneg=False):
    return FieldPair(u=np.full(mesh.n_cells, cu), v=np.full(mesh.n_cells, cv),
                     t=t, nonneg=nonneg)


class TestFieldPair:
    def test_rejects_nan(self, mesh2d):
        u = np.ones(mesh2d.n_cells)
        u[0] = np.nan
        with pytest.raises(NonFiniteField):
            FieldPair(u=u, v=np.ones(mesh2d.n_cells), t=0.0)

    def test_nonneg_flag_enforced(self, mesh2d):
        u = np.ones(mesh2d.n_cells)
        u[0] = -1e-3
        with pytest.raises(NegativeField):
            FieldPair(u=u, v=np.ones(mesh2d.n_cells), t=0.0, nonneg=True)


class TestEnergyE:
    def test_constants_2d(self, mesh2d):
        assert energy_E(constant_pair(mesh2d, 1, 1), mesh2d) == pytest.approx(8.0)

    def test_constants_3d(self, mesh3d):
        assert energy_E(constant_pair(mesh3d, 1, 0), mesh3d) == pytest.approx(8.0)

    def test_linear_profile_converges(self, box2d):
        # int x1^2 over [-1,1]^2 = 4/3
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(box2d, n)
            pair = FieldPair(u=mesh.cell_centers[:, 0],
                             v=np.zeros(mesh.n_cells), t=0.0)
            errs.append(abs(energy_E(pair, mesh) - 4.0 / 3.0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_monotone_under_domination(self, mesh2d):
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, mesh2d.n_cells)
        v = rng.uniform(-1, 1, mesh2d.n_cells)
        small = FieldPair(u=u, v=v, t=0.0)
        big = FieldPair(u=2 * u, v=2 * v, t=0.0)
        assert energy_E(small, mesh2d) <= energy_E(big, mesh2d)


class TestScriptE:
    def test_constants(self, mesh3d):
        pair = constant_pair(mesh3d, 1, 1, nonneg=True)
        assert energy_scriptE(pair, mesh3d, 2.0) == pytest.approx(16.0)

    def test_p_one(self, mesh2d):
        pair = constant_pair(mesh2d, 2, 0, nonneg=True)
        assert energy_scriptE(pair, mesh2d, 1.0) == pytest.approx(16.0)

    def test_requires_nonneg_flag(self, mesh2d):
        pair = constant_pair(mesh2d, 1, 1, nonneg=False)
        with pytest.raises(NegativeField):
            energy_scriptE(pair, mesh2d, 2.0)

    def test_quartic_profile_converges(self, box2d):
        # int (1+x1^2)^4 dx over [-1,1]^2 = 2 * int_{-1}^{1} (1+x^2)^4 dx
        # = 2 * (2 + 8/3 + 12/5 + 8/7 + 2/9) = 2 * 2656/315 = 5312/315
        exact = 5312.0 / 315.0
        vals = []
        for n in (16, 32, 64):
            mesh = build_mesh(box2d, n)
            pair = FieldPair(u=1.0 + mesh.cell_centers[:, 0] ** 2,
                             v=np.zeros(mesh.n_cells), t=0.0, nonneg=True)
            vals.append(energy_scriptE(pair, mesh, 2.0))
        errs = np.abs(np.array(vals) - exact)
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(orders > 1.9)


class TestGradientEnergy:
    def test_constant_is_zero(self, mesh2d):
        assert discrete_gradient_energy(np.ones(mesh2d.n_cells), mesh2d) == 0.0

    def test_linear_profile(self, box2d):
        # |grad x1|^2 integrates to the domain area 4
        vals = [
            discrete_gradient_energy(build_mesh(box2d, n).cell_centers[:, 0],
                                     build_mesh(box2d, n))
            for n in (16, 32, 64)
        ]
        errs = np.abs(np.array(vals) - 4.0)
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[-1] < 0.1

    def test_quadratic_homogeneity(self, mesh2d):
        rng = np.random.default_rng(6)
        u = rng.normal(size=mesh2d.n_cells)
        e1 = discrete_gradient_energy(u, mesh2d)
        e2 = discrete_gradient_energy(2 * u, mesh2d)
        assert e2 == pytest.approx(4 * e1, rel=1e-12)


class TestFunctionalJ:
    def test_neumann_constants(self, mesh3d):
        nl = make_power_product(1.0, 2.0, 2.0)
        dec = functional_J(constant_pair(mesh3d, 1, 1), mesh3d, nl, 1.0, 0.0, 0.0)
        assert dec.J == pytest.approx(64.0)  # 4(1+1) * intF = 8 * 8

    def test_robin_constants_negative(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        dec = functional_J(constant_pair(mesh2d, 1, 1), mesh2d, nl, 1.5, 1.0, 1.0)
        assert dec.J == pytest.approx(-40.0)  # -5*8 - 5*8 + 10*4

    def test_zero_fields(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        dec = functional_J(constant_pair(mesh2d, 0, 0), mesh2d, nl, 1.0, 1.0, 1.0)
        assert dec.J == 0.0

    def test_decomposition_identity(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        rng = np.random.default_rng(7)
        pair = FieldPair(u=rng.uniform(0.1, 2.0, mesh2d.n_cells),
                         v=rng.uniform(0.1, 2.0, mesh2d.n_cells), t=0.0)
        alpha, gamma1, gamma2 = 1.2, 0.5, 0.25
        dec = functional_J(pair, mesh2d, nl, alpha, gamma1, gamma2)
        # J = -2(1+alpha) [gamma1 bdry_u + grad_u + gamma2 bdry_v + grad_v]
        #     + 4(1+alpha) intF, the formula stated in the README
        recombined = (
            -2.0 * (1.0 + alpha) * (gamma1 * dec.bdry_u + dec.grad_u_energy
                                    + gamma2 * dec.bdry_v + dec.grad_v_energy)
            + 4.0 * (1.0 + alpha) * dec.intF
        )
        assert dec.J == pytest.approx(recombined, rel=1e-12)
        assert min(dec.bdry_u, dec.bdry_v, dec.grad_u_energy, dec.grad_v_energy,
                   dec.intF) > 0

    def test_constant_neumann_closed_form(self, mesh3d):
        # J = 4(1+alpha) * F(c1,c2) * |Omega| exactly for constants
        nl = make_power_product(2.0, 3.0, 2.0)
        c1, c2, alpha = 1.5, 0.75, 0.8
        dec = functional_J(constant_pair(mesh3d, c1, c2), mesh3d, nl, alpha, 0.0, 0.0)
        expected = 4.0 * (1.0 + alpha) * nl.F(c1, c2) * 8.0
        assert dec.J == pytest.approx(expected, rel=1e-12)

    def test_absorption_has_no_J(self, mesh2d):
        # energy_sample leaves J = None without a potential; functional_J and
        # check_H2_H3 must refuse instead of passing that None on
        nl = make_absorption(2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        ones = np.ones(mesh2d.n_cells)
        with pytest.raises(NotGradientSystem):
            functional_J(constant_pair(mesh2d, 1, 1), mesh2d, nl, 1.0, 0.0, 0.0)
        with pytest.raises(NotGradientSystem):
            check_H2_H3(nl, ones, ones, mesh2d, 0.0, 0.0)


class TestEnergySample:
    def test_row_matches_schema(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 2.0)
        s = energy_sample(constant_pair(mesh2d, 1, 1), mesh2d, nl=nl,
                          alpha=1.0, p=2.0, dt=0.01)
        row = s.row()
        assert len(row) == 12
        assert row[0] == 0.0  # t
        assert row[1] == pytest.approx(8.0)  # E
        assert row[9] == 1.0 and row[10] == 1.0  # sup norms

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_scriptE_matches_energy_scriptE(self, mesh3d, p):
        rng = np.random.default_rng(8)
        pair = FieldPair(u=rng.uniform(0.0, 2.0, mesh3d.n_cells),
                         v=rng.uniform(0.0, 2.0, mesh3d.n_cells), t=0.0, nonneg=True)
        s = energy_sample(pair, mesh3d, p=p)
        assert s.scriptE == energy_scriptE(pair, mesh3d, p)
