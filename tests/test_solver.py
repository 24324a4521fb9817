import math

import numpy as np
import pytest

from conftest import linear_decay, zero_reaction
import rdblowup.solver
from rdblowup.errors import InsufficientSamples
from rdblowup.functionals import FieldPair, energy_E
from rdblowup.geometry import DomainSpec, build_mesh, interior_integral
from rdblowup.nonlinearity import Nonlinearity, make_power_product
from rdblowup.solver import (
    BS3,
    DP5,
    OUTCOME_BLOWUP,
    OUTCOME_REACHED_T_END,
    BlowupEstimate,
    SolverConfig,
    SolveTrace,
    StepWork,
    _BS3_ERR_FROM_DP5,
    _diffusion_cap,
    _predicted_bs3_err,
    estimate_blowup_time,
    rhs,
    simulate,
    step,
)


def constant_fields(mesh, cu, cv, t=0.0):
    return FieldPair(u=np.full(mesh.n_cells, cu),
                     v=np.full(mesh.n_cells, cv), t=t)


class TestRhs:
    def test_constants_neumann_reaction_only(self, mesh2d):
        # Laplacian of a constant vanishes under Neumann reflection, so
        # u_t = f1(1,1) = 2 and v_t = f2(1,1) = 2 exactly
        nl = make_power_product(1.0, 2.0, 2.0)
        ut, vt = rhs(constant_fields(mesh2d, 1.0, 1.0), mesh2d, nl, 0.0, 0.0)
        assert np.max(np.abs(ut - 2.0)) < 1e-14
        assert np.max(np.abs(vt - 2.0)) < 1e-14

    def test_neumann_eigenfunction_order_two(self, box2d):
        # u = cos(pi x1) has du/dn = 0 on [-1,1]^2 and Laplacian -pi^2 u
        errs = []
        for n in (16, 32, 64):
            mesh = build_mesh(box2d, n)
            u = np.cos(np.pi * mesh.cell_centers[:, 0])
            fields = FieldPair(u=u, v=np.zeros(mesh.n_cells), t=0.0)
            ut, _ = rhs(fields, mesh, zero_reaction(), 0.0, 0.0)
            errs.append(float(np.max(np.abs(ut + np.pi**2 * u))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_robin_eigenfunction_interior_order_two(self, box2d):
        # u = cos(lambda x1) satisfies du/dn + gamma u = 0 on x1 = +-1
        # when gamma = lambda tan(lambda); Laplacian is -lambda^2 u.
        # The boundary closure has an O(1) local residual but is
        # supraconvergent (solution error is second order, see the
        # manufactured-solution test); here only interior cells are checked.
        lam = 1.0 / math.sqrt(2.0)
        gamma = lam * math.tan(lam)
        errs = []
        for n in (16, 32, 64):
            mesh = build_mesh(box2d, n)
            u = np.cos(lam * mesh.cell_centers[:, 0])
            fields = FieldPair(u=u, v=np.zeros(mesh.n_cells), t=0.0)
            ut, _ = rhs(fields, mesh, zero_reaction(), gamma, 0.0)
            interior = np.all(np.abs(mesh.cell_centers) < 1.0 - 1.5 * mesh.h[0],
                              axis=1)
            errs.append(float(np.max(np.abs((ut + lam**2 * u)[interior]))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_negative_gamma_rejected(self, mesh3d):
        nl = make_power_product(1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="gamma"):
            rhs(constant_fields(mesh3d, 1.0, 1.0), mesh3d, nl, -16.0, 0.0)


def decay(y, out):
    """rhs_vec of y' = -y."""
    return np.negative(y, out=out)


class TestStep:
    def test_linear_decay_accuracy(self):
        # y' = -y from 1: many small accepted steps land near e^{-t}
        y = np.array([1.0])
        work = StepWork(y, decay)
        t, dt = 0.0, 1e-3
        while t < 1.0:
            dt = min(dt, 1.0 - t)
            _, err, _ = step(y, dt, decay, 1e-10, 1e-12, work)
            assert err <= 1.0
            y = work.accept(y)
            t += dt
        assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_rejects_nonpositive_dt(self):
        y = np.array([1.0])
        with pytest.raises(ValueError):
            step(y, 0.0, decay, 1e-8, 1e-10, StepWork(y, decay))

    def test_overflow_returns_inf_error(self):
        def rhs_vec(y, out):
            return np.power(y, 10, out=out)
        y = np.array([1e30])
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, err, k = step(y, 1.0, rhs_vec, 1e-8, 1e-10, StepWork(y, rhs_vec))
        assert err == float("inf") and k is None
        assert y_new[0] == 1e30  # untouched

    def test_large_step_reports_large_error(self):
        # a huge step on y' = -y must produce err > 1 so the driver rejects
        y = np.array([1.0])
        _, err, _ = step(y, 50.0, decay, 1e-8, 1e-10, StepWork(y, decay))
        assert err > 1.0


# (stage rows, whose last row is b, and b_hat) as published: Bogacki &
# Shampine (1989) and Dormand & Prince (1980)
TABLEAUX = {
    "bs3": ([[1 / 2], [0, 3 / 4], [2 / 9, 1 / 3, 4 / 9]],
            [7 / 24, 1 / 4, 1 / 3, 1 / 8]),
    "dp5": ([[1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
             [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
             [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
             [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]],
            [5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200,
             187 / 2100, 1 / 40]),
}
PAIR = {"bs3": BS3, "dp5": DP5}


def reference_step(name, y, dt, rhs_new, rel_tol, abs_tol, k1):
    """An embedded FSAL step written out stage by stage."""
    rows, b_hat = TABLEAUX[name]
    ks = [k1]
    for row in rows[:-1]:
        ks.append(rhs_new(y + dt * sum(c * k for c, k in zip(row, ks))))
    y_new = y + dt * sum(c * k for c, k in zip(rows[-1], ks))
    if not np.all(np.isfinite(y_new)):
        return y, float("inf"), None
    ks.append(rhs_new(y_new))
    if not np.all(np.isfinite(ks[-1])):
        return y, float("inf"), None
    y_low = y + dt * sum(c * k for c, k in zip(b_hat, ks))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    err = float(np.sqrt(np.mean(((y_new - y_low) / scale) ** 2)))
    return y_new, err, ks[-1]


def guarded_rhs(mesh, nl, gamma):
    """rhs_vec(y, out) of the semidiscrete system, NaN on non-finite input."""
    lap, robin, n = mesh.laplacian, mesh.robin_diagonal(gamma), mesh.n_cells

    def rhs_vec(yy, out):
        if not np.all(np.isfinite(yy)):
            out.fill(np.nan)
            return out
        u, v = yy[:n], yy[n:]
        out[:n] = robin * u + lap @ u + nl.f1(u, v)
        out[n:] = robin * v + lap @ v + nl.f2(u, v)
        return out

    return rhs_vec


class TestStepWorkspace:
    @pytest.mark.parametrize("before", [None, "bs3", "dp5"],
                             ids=["fresh", "after_bs3", "after_dp5"])
    @pytest.mark.parametrize("amplitude, dt", [(1.0, 2e-3), (1e100, 1.0)],
                             ids=["accepted", "non_finite"])
    @pytest.mark.parametrize("name", ["bs3", "dp5"])
    def test_matches_stage_by_stage_reference(self, mesh3d, name, amplitude, dt, before):
        nl = make_power_product(1.0, 2.0, 2.0)
        rhs_vec = guarded_rhs(mesh3d, nl, 0.5)
        rng = np.random.default_rng(4)
        y = amplitude * rng.uniform(0.5, 1.5, 2 * mesh3d.n_cells)
        with np.errstate(over="ignore", invalid="ignore"):
            work = StepWork(y, rhs_vec)
            if before is not None:
                # an accepted step of either pair copies its f(y_new) into
                # K[0] and leaves its own stages in the other rows
                step(y, 1e-3, rhs_vec, 1.0, 1.0, work, PAIR[before])
                work.accept(y.copy())
                rhs_vec(y, work.K[0])
            ref = reference_step(name, y, dt, lambda yy: rhs_vec(yy, np.empty_like(yy)),
                                 1e-4, 1e-6, work.K[0].copy())
            got = step(y, dt, rhs_vec, 1e-4, 1e-6, work, PAIR[name])
        if amplitude > 1.0:
            assert ref[1] == float("inf")
            assert got[0] is y and got[1] == float("inf") and got[2] is None
            return
        assert 0.0 < ref[1] <= 1.0
        # relative to the max-norm: the Laplacian makes some entries of the
        # FSAL row small differences of large ones
        for got_row, ref_row in ((got[0], ref[0]), (got[2], ref[2])):
            assert np.max(np.abs(got_row - ref_row)) <= 1e-14 * np.max(np.abs(ref_row))
        assert got[1] == pytest.approx(ref[1], rel=1e-12)

    @pytest.mark.parametrize("name, row", [("bs3", 3), ("dp5", 6)])
    def test_accept_moves_fsal_row_to_k1(self, mesh3d, name, row):
        # a step writes f(y_new) into row s - 1 and `accept` copies it into
        # K[0], the next step's k1, bit for bit
        rhs_vec = guarded_rhs(mesh3d, make_power_product(1.0, 2.0, 2.0), 0.5)
        y = np.random.default_rng(5).uniform(0.5, 1.5, 2 * mesh3d.n_cells)
        work = StepWork(y, rhs_vec)
        y_new, err, k_last = step(y, 2e-3, rhs_vec, 1e-4, 1e-6, work, PAIR[name])
        assert err <= 1.0
        assert PAIR[name].stages - 1 == row
        assert np.shares_memory(k_last, work.K[row])
        f_new = rhs_vec(y_new.copy(), np.empty_like(y))
        assert np.array_equal(work.K[row], f_new)
        y = work.accept(y)
        assert y is y_new
        assert np.array_equal(work.K[0], f_new)


def integrate(pair, rhs_vec, y0, t_end, n_steps):
    """Fixed steps of `pair` from y0; tolerances loose enough to be ignored."""
    y = np.array([y0])
    work = StepWork(y, rhs_vec)
    for _ in range(n_steps):
        step(y, t_end / n_steps, rhs_vec, 1e6, 1e6, work, pair)
        y = work.accept(y)
    return y[0]


class TestPairs:
    @pytest.mark.parametrize("rhs_vec, t_end, exact", [
        (decay, 1.0, math.exp(-1.0)),
        (lambda y, out: np.square(y, out=out), 0.5, 2.0),
    ], ids=["linear", "quadratic"])
    @pytest.mark.parametrize("name", ["bs3", "dp5"])
    def test_observed_order(self, name, rhs_vec, t_end, exact):
        # 4 and 8 steps from y = 1: on y' = y^2 one DP5 step errs by
        # 2h^6/405 - 0.11h^7, so finer steps reach the cancellation of the two
        pair = PAIR[name]
        errs = [abs(integrate(pair, rhs_vec, 1.0, t_end, m) - exact) for m in (4, 8)]
        assert math.log2(errs[0] / errs[1]) == pytest.approx(pair.order, abs=0.4)

    def test_predictor_weights_meet_bs3_error_conditions(self):
        # the elementary weights of the trees of order <= 3 (1, c, c^2/2, Ac)
        # of BS3's error weights: 0, 0, -1/48, -1/48
        rows, _ = TABLEAUX["dp5"]
        A = np.zeros((7, 7))
        for i, row in enumerate(rows, start=1):
            A[i, :i] = row
        c = A.sum(axis=1)
        w = _BS3_ERR_FROM_DP5
        got = [w.sum(), w @ c, w @ (c * c) / 2, w @ (A @ c)]
        np.testing.assert_allclose(got, [0.0, 0.0, -1 / 48, -1 / 48], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rhs_vec", [
        lambda y, out: np.multiply(y, -3.0, out=out),
        lambda y, out: np.square(y, out=out),
        lambda y, out: np.multiply(np.power(y, 3), 2.0, out=out),
    ], ids=["minus_3y", "y_squared", "2y_cubed"])
    def test_predicted_bs3_estimate_matches_bs3(self, rhs_vec):
        y, h = np.array([1.0]), 1e-3
        work = StepWork(y, rhs_vec)
        step(y, h, rhs_vec, 1.0, 0.0, work, DP5)
        predicted = _predicted_bs3_err(work, h, h)
        _, actual, _ = step(y, h, rhs_vec, 1.0, 0.0, StepWork(y, rhs_vec), BS3)
        assert predicted == pytest.approx(actual, rel=2e-3)


def checkerboard(mesh):
    return np.where(np.indices(mesh.shape).sum(axis=0) % 2 == 0, 1.0, -1.0).ravel()


ANISOTROPIC = [(DomainSpec("box", 2, half_extents=(1.0, 0.5)), (8, 6)),
               (DomainSpec("box", 3, half_extents=(1.0, 0.5, 0.75)), (6, 8, 4))]


class TestDiffusionCap:
    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_highest_mode_never_grows_at_the_cap(self, spec, cells, gamma):
        # checkerboard data excite the stiffest modes; tolerances this loose
        # leave dt to the cap alone, which must then keep every step stable
        mesh = build_mesh(spec, cells)
        g = checkerboard(mesh)
        cap = _diffusion_cap(mesh)
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma, gamma2=gamma,
                           g1=g, g2=-g, t_end=200 * cap, rel_tol=1.0, abs_tol=1.0)
        trace = simulate(cfg)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.n_rejected == 0
        dts = np.array([s.dt for s in trace.samples[1:]])
        assert np.max(dts) <= cap
        assert np.sum(dts == cap) > trace.n_steps // 2
        E = np.array([s.E for s in trace.samples])
        assert np.all(np.diff(E) <= 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_cap_inside_bs3_stability_interval(self, spec, cells, gamma):
        lam, bound = robin_spectrum(spec, cells, gamma)

        def R(z):
            return 1.0 + z + z**2 / 2.0 + z**3 / 6.0

        mesh = build_mesh(spec, cells)
        z = -_diffusion_cap(mesh) * bound
        assert abs(R(z)) <= 0.35
        assert np.all(np.abs(R(_diffusion_cap(mesh) * lam)) <= 1.0)

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_cap_inside_dp5_stability_interval(self, spec, cells, gamma):
        lam, _ = robin_spectrum(spec, cells, gamma)

        def R(z):
            return (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0 + z**5 / 120.0
                    + z**6 / 600.0)

        r = R(_diffusion_cap(build_mesh(spec, cells), DP5) * lam)
        assert np.all((0.173 <= r) & (r <= 1.0))


def robin_spectrum(spec, cells, gamma):
    """Eigenvalues of the Robin Laplacian, checked to lie in the Gershgorin
    interval [-bound, 0], and that bound 4 sum_a h_a^-2."""
    mesh = build_mesh(spec, cells)
    bound = 4.0 * sum(ha ** -2 for ha in mesh.h)
    A = mesh.laplacian.toarray() + np.diag(mesh.robin_diagonal(gamma))
    lam = np.linalg.eigvalsh(A)
    assert lam.min() >= -bound and lam.max() <= 1e-12 * bound
    return lam, bound


def robin_heat(dim, cells, lam=0.8, t_end=0.05):
    """Heat flow of the Robin mode prod_a cos(lam x_a) on [-1, 1]^dim."""
    mesh = build_mesh(DomainSpec("box", dim, half_extents=(1.0,) * dim), cells)
    gamma = lam * math.tan(lam)
    g = np.prod(np.cos(lam * mesh.cell_centers), axis=1)
    return simulate(SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma,
                                 gamma2=gamma, g1=g, g2=g, t_end=t_end)), mesh


class TestPairChoice:
    def test_fine_robin_heat_steps_with_bs3_at_its_cap(self):
        # 32^2 cells: BS3 is accurate at its cap, so it takes the cap-held steps
        trace, mesh = robin_heat(2, 32)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.n_rejected == 0
        assert trace.steps_by_pair["bs3"]["accepted"] > trace.steps_by_pair["dp5"]["accepted"]
        dts = np.array([s.dt for s in trace.samples[1:]])
        assert np.sum(dts == _diffusion_cap(mesh, BS3)) > trace.n_steps // 2

    def test_coarse_robin_heat_stays_on_dp5(self):
        # 12^3 cells: BS3 would exceed its tolerance at its cap, so DP5 keeps
        # the steps, held at its own cap
        trace, mesh = robin_heat(3, 12)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.steps_by_pair == {"bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": trace.n_steps, "rejected": 0}}
        dts = np.array([s.dt for s in trace.samples[1:]])
        assert np.max(dts) == _diffusion_cap(mesh, DP5)

    def test_flat_blowup_uses_dp5_only(self, box2d):
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                      gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0))
        assert trace.outcome == OUTCOME_BLOWUP
        assert trace.steps_by_pair == {"bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": trace.n_steps, "rejected": 0}}


class TestStepAccounting:
    @pytest.mark.parametrize("run", ["robin_heat", "blowup_to_underflow"])
    def test_every_trial_step_is_counted_once(self, monkeypatch, box2d, run):
        # the Robin heat run steps with both pairs; the blow-up run, whose
        # threshold lies beyond overflow, rejects steps until dt underflows
        calls = {pair.name: 0 for pair in (BS3, DP5)}

        def counted_step(*args):
            calls[args[-1].name] += 1
            return step(*args)

        monkeypatch.setattr(rdblowup.solver, "step", counted_step)
        if run == "robin_heat":
            trace, _ = robin_heat(2, 32)
            assert all(calls.values())
        else:
            mesh = build_mesh(box2d, 8)
            g = 3.0 * np.prod(np.cos(0.7 * mesh.cell_centers), axis=1)
            trace = simulate(SolverConfig(
                mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=1.0,
                gamma2=0.5, g1=g, g2=g, t_end=1.0, sup_threshold=1e300))
            assert trace.n_rejected > 0
            assert trace.samples[-1].sup_u < 1e300
        assert {name: sum(counts.values()) for name, counts in
                trace.steps_by_pair.items()} == calls
        assert sum(c["accepted"] for c in trace.steps_by_pair.values()) == trace.n_steps


class TestSimulateConservation:
    def test_neumann_heat_flow_conserves_mass(self, box2d):
        mesh = build_mesh(box2d, 16)
        g = 1.0 + 0.5 * np.cos(np.pi * mesh.cell_centers[:, 0])
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                           g1=g, g2=np.full(mesh.n_cells, 1.0), t_end=0.1)
        trace = simulate(cfg)
        assert trace.outcome == OUTCOME_REACHED_T_END
        m0 = interior_integral(mesh, g)
        m1 = interior_integral(mesh, trace.final_fields.u)
        assert abs(m1 - m0) < 1e-10

    def test_neumann_heat_flow_decays_to_mean(self, box2d):
        mesh = build_mesh(box2d, 16)
        g = 1.0 + 0.5 * np.cos(np.pi * mesh.cell_centers[:, 0])
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                           g1=g, g2=np.zeros(mesh.n_cells), t_end=1.5)
        trace = simulate(cfg)
        assert float(np.max(np.abs(trace.final_fields.u - 1.0))) < 1e-4

    def test_robin_energy_strictly_decreasing(self, box2d):
        mesh = build_mesh(box2d, 16)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=1.0, gamma2=1.0,
                           g1=g, g2=g, t_end=0.2)
        trace = simulate(cfg)
        E = np.array([s.E for s in trace.samples])
        assert np.all(np.diff(E) < 0)

    def test_max_principle_heat_flow(self, box2d):
        mesh = build_mesh(box2d, 16)
        rng = np.random.default_rng(9)
        g = rng.uniform(0.2, 1.8, mesh.n_cells)
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                           g1=g, g2=g, t_end=0.05)
        trace = simulate(cfg)
        u = trace.final_fields.u
        assert np.min(u) >= np.min(g) - 1e-9
        assert np.max(u) <= np.max(g) + 1e-9

    def test_linear_decay_matches_exponential(self, box2d):
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 2.0)
        cfg = SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=0.0, gamma2=0.0,
                           g1=g, g2=g, t_end=1.0)
        trace = simulate(cfg)
        expected = 2.0 * math.exp(-1.0)
        assert float(np.max(np.abs(trace.final_fields.u - expected))) < 1e-6


class TestManufacturedRobin:
    def test_second_order_convergence(self, box2d):
        # exact solution e^{-t} cos(lam x1) cos(lam x2) with 2 lam^2 = 1,
        # gamma = lam tan(lam) on [-1,1]^2: pure heat flow, no source
        lam = 1.0 / math.sqrt(2.0)
        gamma = lam * math.tan(lam)
        t_end = 0.25
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(box2d, n)
            x = mesh.cell_centers
            g = np.cos(lam * x[:, 0]) * np.cos(lam * x[:, 1])
            cfg = SolverConfig(mesh=mesh, nl=zero_reaction(),
                               gamma1=gamma, gamma2=gamma,
                               g1=g, g2=g, t_end=t_end,
                               rel_tol=1e-10, abs_tol=1e-12)
            trace = simulate(cfg)
            exact = math.exp(-t_end) * g
            errs.append(float(np.max(np.abs(trace.final_fields.u - exact))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)


def assert_flat_blowup_from_rows(trace):
    """Flat u^2 v^2 data blow up at t = 1/4 in both components, and the
    fitted tail is the monitor rows' (t, max(sup_u, sup_v))."""
    assert trace.outcome == OUTCOME_BLOWUP
    assert trace.u_crossed and trace.v_crossed
    assert trace.blowup_estimate.t == pytest.approx(0.25, abs=1e-3)
    ts, sups = trace.tail
    assert len(trace.samples) == trace.n_steps + 1
    assert ts.tolist() == [s.t for s in trace.samples]
    assert sups.tolist() == [max(s.sup_u, s.sup_v) for s in trace.samples]


class TestSimulateBlowup:
    def test_quadratic_product_blowup_time(self, box2d):
        # g = 1, Neumann: spatially constant, u = v = (1 - 4t)^{-1/2}... with
        # F = u^2 v^2 the reduction is u' = 2u^3, blow-up at t = 1/4.  dt
        # underflows long before the default threshold 1e8 is reached, so
        # blow-up is found by the step-underflow fallback
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                           gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0)
        trace = simulate(cfg)
        last = trace.samples[-1]
        assert max(last.sup_u, last.sup_v) < cfg.sup_threshold
        assert_flat_blowup_from_rows(trace)

    def test_threshold_detection(self, box2d):
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                           gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0,
                           sup_threshold=1e4)
        trace = simulate(cfg)
        # the run stops at the first row whose sup reaches the threshold
        sups = trace.tail[1]
        assert sups[-2] < 1e4 <= sups[-1]
        assert_flat_blowup_from_rows(trace)

    def test_blowup_estimate_bracketed_by_trace(self, box2d):
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                           gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0)
        trace = simulate(cfg)
        t_last = trace.tail[0][-1]
        assert trace.blowup_estimate.t >= t_last

    def test_exponential_growth_is_not_blowup(self, box2d):
        # u' = 50u, v' = 50v exist for all time; their sup crosses 1e6 near
        # t = 0.28, where a power law fits the tail with r^2 0.92 and the
        # exponential with 1.00, so no blow-up time may be extrapolated
        mesh = build_mesh(box2d, 6)
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: 50.0 * u, f2=lambda u, v: 50.0 * v)
        cfg = SolverConfig(mesh=mesh, nl=nl, gamma1=0.0, gamma2=0.5,
                           g1=np.full(mesh.n_cells, 1.0), g2=np.full(mesh.n_cells, 0.5),
                           t_end=1.0, sup_threshold=1e6)
        with pytest.raises(InsufficientSamples, match="exponentially"):
            simulate(cfg)

    def test_no_blowup_for_decay(self, box2d):
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=0.0, gamma2=0.0,
                           g1=g, g2=g, t_end=0.5)
        trace = simulate(cfg)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.blowup_estimate is None


class TestSolverConfigValidation:
    def test_threshold_above_initial_sup(self, mesh2d):
        g = np.full(mesh2d.n_cells, 10.0)
        with pytest.raises(ValueError):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         g1=g, g2=g, t_end=1.0, sup_threshold=5.0)

    @pytest.mark.parametrize("which", ["g1", "g2"])
    def test_initial_data_length_must_match_mesh(self, mesh2d, which):
        data = {"g1": np.ones(mesh2d.n_cells), "g2": np.ones(mesh2d.n_cells)}
        data[which] = np.ones(mesh2d.n_cells - 1)
        with pytest.raises(ValueError, match="one value per cell"):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         t_end=1.0, **data)

    @pytest.mark.parametrize("which", ["g1", "g2"])
    def test_initial_data_must_be_finite(self, mesh2d, which):
        data = {"g1": np.ones(mesh2d.n_cells), "g2": np.ones(mesh2d.n_cells)}
        data[which][3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         t_end=1.0, **data)

    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_t_end_must_be_positive(self, mesh2d, t_end):
        g = np.ones(mesh2d.n_cells)
        with pytest.raises(ValueError, match="t_end"):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         g1=g, g2=g, t_end=t_end)

    @pytest.mark.parametrize("options, match", [
        ({"rel_tol": math.nan}, "rel_tol"), ({"rel_tol": -1.0}, "rel_tol"),
        ({"abs_tol": -1e-3}, "abs_tol"), ({"abs_tol": math.inf}, "abs_tol"),
        ({"rel_tol": 0.0, "abs_tol": 0.0}, "not both 0"),
        ({"sup_threshold": math.nan}, "sup_threshold"),
        ({"sup_threshold": math.inf}, "sup_threshold"),
    ], ids=["rel_tol_nan", "rel_tol_negative", "abs_tol_negative", "abs_tol_inf",
            "both_zero", "threshold_nan", "threshold_inf"])
    def test_tolerances_and_threshold_must_be_usable(self, mesh2d, options, match):
        g = np.ones(mesh2d.n_cells)
        with pytest.raises(ValueError, match=match):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         g1=g, g2=g, t_end=1.0, **options)

    def test_one_zero_tolerance_is_allowed(self, mesh2d):
        g = np.ones(mesh2d.n_cells)
        for options in ({"rel_tol": 0.0}, {"abs_tol": 0.0}):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         g1=g, g2=g, t_end=1.0, **options)

    @pytest.mark.parametrize("gamma", [-1.0, -1e-300, float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["gamma1", "gamma2"])
    def test_gamma_must_be_finite_and_nonnegative(self, mesh2d, which, gamma):
        g = np.ones(mesh2d.n_cells)
        gammas = {"gamma1": 0.0, "gamma2": 0.0, which: gamma}
        with pytest.raises(ValueError, match=which):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), g1=g, g2=g, t_end=1.0,
                         **gammas)


class TestEstimateBlowupTime:
    def test_synthetic_half_power(self):
        # sup = (0.25 - t)^{-1/2}: exact blow-up at 0.25 with theta = 1/2
        ts = np.linspace(0.0, 0.2499, 4000)
        sups = (0.25 - ts) ** -0.5
        est = estimate_blowup_time(ts, sups)
        assert est.theta == 0.5
        assert est.t == pytest.approx(0.25, abs=1e-6)

    def test_synthetic_first_power(self):
        ts = np.linspace(0.0, 0.09999, 4000)
        sups = (0.1 - ts) ** -1.0
        est = estimate_blowup_time(ts, sups)
        assert est.theta == 1.0
        assert est.t == pytest.approx(0.1, abs=1e-8)

    def test_uncertainty_is_small_for_clean_data(self):
        ts = np.linspace(0.0, 0.09999, 4000)
        sups = (0.1 - ts) ** -1.0
        est = estimate_blowup_time(ts, sups)
        assert est.uncertainty < 1e-3

    def test_exponential_tail_rejected(self):
        ts = np.linspace(0.0, 0.3, 400)
        with pytest.raises(InsufficientSamples, match="exponentially"):
            estimate_blowup_time(ts, np.exp(50.0 * ts))

    def test_insufficient_samples(self):
        ts = np.linspace(0.0, 1.0, 5)
        sups = np.full(5, 2.0)
        with pytest.raises(InsufficientSamples):
            estimate_blowup_time(ts, sups)

    def test_estimate_never_before_last_sample(self):
        # noisy flat-ish tail: the clamp keeps the root at or after t_last
        rng = np.random.default_rng(12)
        ts = np.linspace(0.0, 1.0, 200)
        sups = 100.0 * (1.0 + 0.01 * rng.normal(size=200)) + ts
        try:
            est = estimate_blowup_time(ts, sups, initial_sup=1.0)
        except InsufficientSamples:
            return
        assert est.t >= ts[-1]
