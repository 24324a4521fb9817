import numpy as np
import pytest

import rdblowup.bounds
from rdblowup.bounds import lower_bound_pipeline, upper_bound_blowup
from rdblowup.errors import (NegativeField, NegativeInitialData, NonFiniteField, NonFiniteSample,
                             NotGradientSystem)
from rdblowup.functionals import (
    EnergySample,
    FieldPair,
    check_trace_monitors,
    energy_rows,
    energy_sample,
)
from rdblowup.geometry import DomainSpec, build_mesh
from rdblowup.nonlinearity import (Nonlinearity, check_H2_H3, make_absorption,
                                   make_power_product)
from rdblowup.solver import SolverConfig, simulate


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
        assert energy_sample(constant_pair(mesh2d, 1, 1), mesh2d).E == pytest.approx(8.0)

    def test_constants_3d(self, mesh3d):
        assert energy_sample(constant_pair(mesh3d, 1, 0), mesh3d).E == pytest.approx(8.0)

    def test_linear_profile_converges(self, box2d):
        # int x1^2 over [-1,1]^2 = 4/3
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(box2d, n)
            pair = FieldPair(u=mesh.cell_centers[:, 0],
                             v=np.zeros(mesh.n_cells), t=0.0)
            errs.append(abs(energy_sample(pair, mesh).E - 4.0 / 3.0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_monotone_under_domination(self, mesh2d):
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, mesh2d.n_cells)
        v = rng.uniform(-1, 1, mesh2d.n_cells)
        small = FieldPair(u=u, v=v, t=0.0)
        big = FieldPair(u=2 * u, v=2 * v, t=0.0)
        assert energy_sample(small, mesh2d).E <= energy_sample(big, mesh2d).E


class TestScriptE:
    def test_constants(self, mesh3d):
        pair = constant_pair(mesh3d, 1, 1, nonneg=True)
        assert energy_sample(pair, mesh3d, p=2.0).scriptE == pytest.approx(16.0)

    def test_p_one(self, mesh2d):
        pair = constant_pair(mesh2d, 2, 0, nonneg=True)
        assert energy_sample(pair, mesh2d, p=1.0).scriptE == pytest.approx(16.0)

    def test_the_lower_bound_refuses_negative_data_before_scriptE(self, mesh3d, monkeypatch):
        # the row clamps each field at 0, so the bound, the one reader of
        # scriptE(0), refuses data that go negative before it reads a row
        def no_row(*args, **kwargs):
            raise AssertionError("scriptE(0) evaluated on negative data")

        monkeypatch.setattr(rdblowup.bounds, "energy_sample", no_row)
        g1, g2 = np.ones(mesh3d.n_cells), np.ones(mesh3d.n_cells)
        g1[0] = -1e-3
        nl = make_power_product(1.0, 2.0, 2.0)
        with pytest.raises(NegativeInitialData):
            lower_bound_pipeline(nl, g1, g2, mesh3d, 2.0, 2.0, 2.0)

    @pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
    def test_p_must_be_finite_and_at_least_one(self, mesh3d, p):
        # the rule holds at both callers that hand p to the rows: the run's
        # monitor and the lower bound
        ones = np.ones(mesh3d.n_cells)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            SolverConfig(mesh=mesh3d, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0,
                         gamma2=0.0, g1=ones, g2=ones, t_end=1.0, p=p)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            lower_bound_pipeline(make_power_product(1.0, 2.0, 2.0), ones, ones, mesh3d, p,
                                 2.0, 2.0)

    def test_quartic_profile_converges(self, box2d):
        # int (1+x1^2)^4 dx over [-1,1]^2 = 2 * int_{-1}^{1} (1+x^2)^4 dx
        # = 2 * (2 + 8/3 + 12/5 + 8/7 + 2/9) = 2 * 2656/315 = 5312/315
        exact = 5312.0 / 315.0
        vals = []
        for n in (16, 32, 64):
            mesh = build_mesh(box2d, n)
            pair = FieldPair(u=1.0 + mesh.cell_centers[:, 0] ** 2,
                             v=np.zeros(mesh.n_cells), t=0.0, nonneg=True)
            vals.append(energy_sample(pair, mesh, p=2.0).scriptE)
        errs = np.abs(np.array(vals) - exact)
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(orders > 1.9)


class TestGradientEnergy:
    def test_constant_is_zero(self, mesh2d):
        row = energy_sample(constant_pair(mesh2d, 1, 1), mesh2d)
        assert row.grad_u_energy == row.grad_v_energy == 0.0

    def test_linear_profile(self, box2d):
        # |grad x1|^2 integrates to the domain area 4
        vals = []
        for n in (16, 32, 64):
            mesh = build_mesh(box2d, n)
            pair = FieldPair(u=mesh.cell_centers[:, 0], v=np.zeros(mesh.n_cells), t=0.0)
            vals.append(energy_sample(pair, mesh).grad_u_energy)
        errs = np.abs(np.array(vals) - 4.0)
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[-1] < 0.1

    def test_quadratic_homogeneity(self, mesh2d):
        rng = np.random.default_rng(6)
        u = rng.normal(size=mesh2d.n_cells)
        e1 = energy_sample(FieldPair(u=u, v=u, t=0.0), mesh2d).grad_u_energy
        e2 = energy_sample(FieldPair(u=2 * u, v=u, t=0.0), mesh2d).grad_u_energy
        assert e2 == pytest.approx(4 * e1, rel=1e-12)


class TestFunctionalJ:
    def test_neumann_constants(self, mesh3d):
        nl = make_power_product(1.0, 2.0, 2.0)
        dec = energy_sample(constant_pair(mesh3d, 1, 1), mesh3d, nl, 1.0, 0.0, 0.0)
        assert dec.J == pytest.approx(64.0)  # 4(1+1) * intF = 8 * 8

    def test_robin_constants_negative(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        dec = energy_sample(constant_pair(mesh2d, 1, 1), mesh2d, nl, 1.5, 1.0, 1.0)
        assert dec.J == pytest.approx(-40.0)  # -5*8 - 5*8 + 10*4

    def test_zero_fields(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        dec = energy_sample(constant_pair(mesh2d, 0, 0), mesh2d, nl, 1.0, 1.0, 1.0)
        assert dec.J == 0.0

    def test_decomposition_identity(self, mesh2d):
        nl = make_power_product(1.0, 2.0, 3.0)
        rng = np.random.default_rng(7)
        pair = FieldPair(u=rng.uniform(0.1, 2.0, mesh2d.n_cells),
                         v=rng.uniform(0.1, 2.0, mesh2d.n_cells), t=0.0)
        alpha, gamma1, gamma2 = 1.2, 0.5, 0.25
        dec = energy_sample(pair, mesh2d, nl, alpha, gamma1, gamma2)
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
        dec = energy_sample(constant_pair(mesh3d, c1, c2), mesh3d, nl, alpha, 0.0, 0.0)
        expected = 4.0 * (1.0 + alpha) * nl.F(c1, c2) * 8.0
        assert dec.J == pytest.approx(expected, rel=1e-12)

    def test_absorption_has_no_J(self, mesh2d):
        # the row leaves J and int F None without a potential; check_H2_H3 and
        # the upper bound, which read J(0) off it, must refuse instead of
        # passing that None on
        nl = make_absorption(2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
        ones = np.ones(mesh2d.n_cells)
        row = energy_sample(constant_pair(mesh2d, 1, 1), mesh2d, nl, 1.0, 0.0, 0.0)
        assert row.J is None and row.intF is None
        with pytest.raises(NotGradientSystem):
            check_H2_H3(nl, ones, ones, mesh2d, 0.0, 0.0)
        with pytest.raises(NotGradientSystem):
            upper_bound_blowup(nl, ones, ones, mesh2d, 0.0, 0.0, 1.0)


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
    def test_scriptE_matches_its_definition(self, mesh3d, p):
        rng = np.random.default_rng(8)
        pair = FieldPair(u=rng.uniform(0.0, 2.0, mesh3d.n_cells),
                         v=rng.uniform(0.0, 2.0, mesh3d.n_cells), t=0.0, nonneg=True)
        s = energy_sample(pair, mesh3d, p=p)
        expected = np.sum(pair.u ** (2 * p) + pair.v ** (2 * p)) * mesh3d.cell_volume
        assert s.scriptE == pytest.approx(expected, rel=1e-13, abs=0)


# non-cubic meshes with unequal half-extents, where a wrong stride, a pair
# across a wall or across the u/v seam would show
ROW_MESHES = [(DomainSpec("box", 2, half_extents=(1.0, 0.6)), (5, 7)),
              (DomainSpec("box", 3, half_extents=(1.0, 0.6, 1.3)), (5, 7, 9))]


def per_field_row(u, v, mesh, nl, alpha, gamma1, gamma2, p):
    """The monitor row's terms by their per-field definitions: face
    differences by np.diff on each field's grid, face values by
    `face_cells`, and midpoint sums."""
    def grad(w):
        grid = w.reshape(mesh.shape)
        return mesh.cell_volume * sum(np.sum((np.diff(grid, axis=axis) / h) ** 2)
                                      for axis, h in enumerate(mesh.h))

    def bdry(w):
        return np.sum(w[mesh.face_cells] ** 2 * mesh.face_areas)

    def midpoint(samples):
        return np.sum(samples) * mesh.cell_volume

    row = {"grad_u_energy": grad(u), "grad_v_energy": grad(v), "bdry_u": bdry(u),
           "bdry_v": bdry(v), "E": midpoint(u ** 2 + v ** 2),
           "scriptE": midpoint(np.maximum(u, 0) ** (2 * p) + np.maximum(v, 0) ** (2 * p)),
           "intF": midpoint(nl.F(u, v)), "sup_u": np.max(np.abs(u)), "sup_v": np.max(np.abs(v))}
    c = 2.0 * (1.0 + alpha)
    row["J"] = (-c * (gamma1 * row["bdry_u"] + row["grad_u_energy"]
                      + gamma2 * row["bdry_v"] + row["grad_v_energy"]) + 2.0 * c * row["intF"])
    return row


class TestStackedRowKernels:
    @pytest.mark.parametrize("spec, cells", ROW_MESHES, ids=["2d", "3d"])
    @pytest.mark.parametrize("low", [-0.5, 0.0], ids=["mixed_sign", "nonnegative"])
    def test_match_the_per_field_definitions(self, spec, cells, low):
        mesh = build_mesh(spec, cells)
        nl = make_power_product(1.0, 2.0, 3.0)
        u, v = np.random.default_rng(11).uniform(low, 2.0, (2, mesh.n_cells))
        pair = FieldPair(u=u, v=v, t=0.3, nonneg=low == 0.0)
        row = energy_sample(pair, mesh, nl, alpha=1.2, gamma1=0.5, gamma2=3.0, p=1.5, dt=0.01)
        ref = per_field_row(u, v, mesh, nl, 1.2, 0.5, 3.0, 1.5)
        for name, value in ref.items():
            assert getattr(row, name) == pytest.approx(value, rel=1e-13, abs=0), name
        assert (row.t, row.dt) == (0.3, 0.01)

    @pytest.mark.parametrize("spec, cells", ROW_MESHES, ids=["2d", "3d"])
    def test_constants_have_exactly_zero_gradient_energy(self, spec, cells):
        mesh = build_mesh(spec, cells)
        row = energy_sample(constant_pair(mesh, 2.75, 1e-3), mesh)
        assert row.grad_u_energy == row.grad_v_energy == 0.0
        # differences of equal values are 0 however large the values
        row = energy_sample(constant_pair(mesh, 1e150, 1e150), mesh)
        assert row.grad_u_energy == row.grad_v_energy == 0.0

    @pytest.mark.parametrize("spec, cells", ROW_MESHES, ids=["2d", "3d"])
    def test_a_block_of_states_gives_each_state_s_row(self, spec, cells):
        # the kernel reduces one state at a time, so a state's row is the
        # same bit for bit whatever block it is written in
        mesh = build_mesh(spec, cells)
        nl = make_power_product(1.0, 2.0, 3.0)
        states = np.random.default_rng(5).uniform(-0.5, 2.0, (6, 2 * mesh.n_cells))
        ts, dts = [0.1 * k for k in range(6)], [0.01 * k for k in range(6)]
        rows = energy_rows(states, ts, dts, mesh, nl, 1.2, 0.5, 3.0, p=1.5)
        assert rows[2:4] == energy_rows(states[2:4], ts[2:4], dts[2:4], mesh, nl, 1.2,
                                        0.5, 3.0, p=1.5)
        for y, t, dt, row in zip(states, ts, dts, rows):
            pair = FieldPair(u=y[:mesh.n_cells].copy(), v=y[mesh.n_cells:].copy(), t=t)
            assert energy_sample(pair, mesh, nl, 1.2, 0.5, 3.0, p=1.5, dt=dt) == row

    def test_the_first_non_finite_state_raises(self):
        spec, cells = ROW_MESHES[0]
        mesh = build_mesh(spec, cells)
        states = np.ones((3, 2 * mesh.n_cells))
        states[1, 0] = np.inf  # a corner cell: the boundary integral is not finite
        states[2, 3] = np.nan
        with pytest.raises(NonFiniteSample, match="boundary"):
            energy_rows(states, [0.0] * 3, [0.1] * 3, mesh)

    def test_a_potential_of_one_value_is_rejected(self):
        # F must give one sample per cell, not one for the whole state
        spec, cells = ROW_MESHES[0]
        mesh = build_mesh(spec, cells)
        nl = Nonlinearity(family="custom", params={}, f1=lambda u, v: u, f2=lambda u, v: v,
                          F=lambda u, v: 1.0)
        with pytest.raises(ValueError, match="one sample per cell"):
            energy_rows(np.ones((1, 2 * mesh.n_cells)), [0.0], [0.1], mesh, nl)

    def test_fields_of_other_sizes_are_rejected(self):
        # 600 + 424 values are 2n in all on an 8^3 mesh (n = 512), but u and v
        # would be split at cell 512, not at their seam
        mesh = build_mesh(ROW_MESHES[1][0], 8)
        pair = FieldPair(u=np.ones(600), v=np.ones(424), t=0.0)
        with pytest.raises(ValueError, match=r"per cell \(512\), got 600 of u and 424 of v"):
            energy_sample(pair, mesh)

    def test_the_solver_row_is_the_field_pair_row(self):
        # simulate writes its rows from blocks of kept states; the last
        # state handed over as a FieldPair of copies gives the same row, bit
        # for bit
        spec, cells = ROW_MESHES[1]
        mesh = build_mesh(spec, cells)
        nl = make_power_product(1.0, 2.0, 3.0)
        x = mesh.cell_centers
        g1, g2 = 1.0 + 0.5 * np.cos(x[:, 0]), 1.0 + 0.3 * x[:, 1] ** 2
        cfg = SolverConfig(mesh=mesh, nl=nl, gamma1=0.5, gamma2=3.0, g1=g1, g2=g2,
                           t_end=0.01, alpha=1.2, p=1.5)
        trace = simulate(cfg)
        final, last = trace.final_fields, trace.samples[-1]
        pair = FieldPair(u=final.u.copy(), v=final.v.copy(), t=final.t)
        assert trace.n_steps > 1
        assert energy_sample(pair, mesh, nl, 1.2, 0.5, 3.0, p=1.5, dt=last.dt) == last


def monitor_rows(Js):
    """Rows one time unit apart with E = 1, the given J and sup-norms 1."""
    return [EnergySample(t=float(t), E=1.0, J=J, scriptE=None, grad_u_energy=0.0,
                         grad_v_energy=0.0, bdry_u=0.0, bdry_v=0.0, intF=None,
                         sup_u=1.0, sup_v=1.0) for t, J in enumerate(Js)]


class TestTraceMonitors:
    @pytest.mark.parametrize("dip, counted", [(0.99, 1), (0.9995, 0)])
    def test_counts_a_j_decrease_past_the_tolerance(self, dip, counted):
        # J falls once, by 1e-2 or by 5e-4 against the relative tolerance 1e-3
        mon = check_trace_monitors(monitor_rows([1.0, 1.0, dip, dip]), alpha=1.0)
        assert mon.n_checked == 2 and mon.nonfinite_rows == 0
        assert mon.j_monotone_violations == counted
        assert mon.worst_j_decrease == pytest.approx(1.0 - dip, rel=1e-12)
