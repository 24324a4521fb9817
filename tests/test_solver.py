import ast
import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_robin_operator, linear_decay, zero_reaction
import rdblowup.solver
from rdblowup.cli import main
from rdblowup.errors import EvalAtZeroU, InsufficientSamples, NonFiniteField
from rdblowup.functionals import FieldPair, interior_integral
from rdblowup.geometry import DomainSpec, Mesh, RobinOperator, build_mesh
from rdblowup.nonlinearity import (Nonlinearity, make_absorption, make_gradient_homogeneous,
                                   make_power_product, shape_constant, shape_power)
from rdblowup.solver import (
    DP5,
    LAWSON_BS3,
    OUTCOME_BLOWUP,
    OUTCOME_REACHED_T_END,
    OUTCOME_STEP_UNDERFLOW,
    BlowupEstimate,
    SolverConfig,
    SolveTrace,
    StepWork,
    _diffusion_cap,
    _reaction_into,
    estimate_blowup_time,
    rhs,
    simulate,
    step,
)

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


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

    @pytest.mark.parametrize("spec, cells", [
        (DomainSpec("box", 2, half_extents=(1.0, 0.6)), (5, 7)),
        (DomainSpec("box", 3, half_extents=(1.0, 0.6, 1.3)), (5, 7, 9))], ids=["2d", "3d"])
    def test_matches_the_dense_operator_and_the_dp5_stage(self, spec, cells):
        # one stacked product for both fields: rhs agrees with the dense
        # kron(I2, L) + diag reference, and bit for bit with DP5's stage
        # function, A y + N(y) with `op.matrix`
        mesh = build_mesh(spec, cells)
        n, nl = mesh.n_cells, make_power_product(1.0, 2.0, 3.0)
        y = np.random.default_rng(9).uniform(0.5, 1.5, 2 * n)
        ut, vt = rhs(FieldPair(u=y[:n], v=y[n:], t=0.0), mesh, nl, 0.5, 3.0)
        got = np.concatenate([ut, vt])
        reaction = np.concatenate([nl.f1(y[:n], y[n:]), nl.f2(y[:n], y[n:])])
        ref = dense_robin_operator(mesh, 0.5, 3.0) @ y + reaction
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        stage = mesh.robin_operator(0.5, 3.0).matrix @ y + reaction
        assert np.array_equal(got, stage)

    def test_collapsed_neumann_mesh_gives_the_reaction_alone(self, monkeypatch):
        # every axis collapsed under Neumann walls: A is zero, so rhs, which
        # adds the product with the zero matrix, keeps the bits of N(g)
        ops = lawson_operators(monkeypatch)
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 0.6, 1.3)),
                          (5, 6, 7)).fold(collapsed=(0, 1, 2))
        nl, u, v = make_power_product(1.0, 2.0, 3.0), np.array([0.7]), np.array([1.3])
        ut, vt = rhs(FieldPair(u=u, v=v, t=0.0), mesh, nl, 0.0, 0.0)
        reaction = np.concatenate([nl.f1(u, v), nl.f2(u, v)])
        assert np.concatenate([ut, vt]).tobytes() == reaction.tobytes()
        assert len(ops) == 1 and "matrix" in vars(ops[0])
        product = ops[0].matrix @ np.concatenate([u, v]) + reaction
        assert product.tobytes() == reaction.tobytes()


def typed_reaction(nl, seen):
    """`nl` whose f1 and f2 append the types of each call's (u, v) to `seen`."""
    def typed(f):
        def reaction(u, v):
            seen.append((type(u), type(v)))
            return f(u, v)
        return reaction
    return dataclasses.replace(nl, f1=typed(nl.f1), f2=typed(nl.f2))


def spy_reaction(seen):
    """f1 = u v, f2 = -v, appending the types of each call's (u, v) to `seen`."""
    return typed_reaction(Nonlinearity(family="custom", params={}, f1=lambda u, v: u * v,
                                       f2=lambda u, v: -v), seen)


# each family on a box of (u, v), for the float form of one cell
ONE_CELL_SAMPLES = pytest.mark.parametrize("nl, box", [
    (make_power_product(1.3, 3.0, 2.0), ((0.1, 3.0), (0.1, 3.0))),
    # f1 and f2 are differences: cells where their terms nearly cancel
    # would magnify an ulp of a term, so v^p and a u^r are kept apart
    (make_absorption(2.0, 3.0, 1.5, 2.5, 0.7, 1.1), ((0.1, 1.0), (2.0, 3.0))),
    (make_gradient_homogeneous(0.5, 2.0, shape_power(1.5)), ((0.1, 3.0), (0.1, 3.0))),
], ids=["power_product", "absorption", "gradient_homogeneous"])


def numpy_scalar_reaction(nl, u, v):
    """(f1, f2) at numpy float64 scalars of (u, v), as floats."""
    u, v = np.float64(u), np.float64(v)
    return float(nl.f1(u, v)), float(nl.f2(u, v))


class TestOneCellReaction:
    # `Nonlinearity.reaction` hands a one-cell state held as the float pair
    # (u, v) to f1 and f2 as Python floats and gives a float pair; the
    # solver's `_reaction_into` hands an array state, of one cell too, over
    # as slices; the float form agrees with the sliced path to a few ulp
    @pytest.mark.parametrize("cells, kind", [(1, float), (3, np.ndarray),
                                             (1, np.ndarray)])
    def test_f1_and_f2_take_scalars_on_one_cell_only(self, cells, kind):
        seen = []
        y = np.linspace(1.0, 2.0, 2 * cells)
        if kind is float:
            out = spy_reaction(seen).reaction(tuple(y.tolist()))
            assert type(out) is tuple and all(type(x) is float for x in out)
        else:
            out = _reaction_into(spy_reaction(seen), y, np.empty_like(y))
        assert seen == [(kind, kind)] * 2
        assert np.array_equal(out, np.concatenate([y[:cells] * y[cells:], -y[cells:]]))

    @ONE_CELL_SAMPLES
    def test_one_cell_matches_the_sliced_path_to_a_few_ulp(self, nl, box):
        # C's pow and numpy's array pow differ by up to 1 ulp, and each f
        # takes at most 3 of them
        rng = np.random.default_rng(0)
        cells = np.column_stack([rng.uniform(*box[0], 500), rng.uniform(*box[1], 500)])
        one = np.array([nl.reaction(cell) for cell in cells.tolist()])
        sliced = _reaction_into(nl, cells.T.ravel(), np.empty(cells.size)).reshape(2, -1).T
        np.testing.assert_array_max_ulp(one, sliced, maxulp=4)

    @ONE_CELL_SAMPLES
    def test_one_cell_is_the_numpy_scalar_reaction_bit_for_bit(self, nl, box):
        # Python's float ** and numpy's scalar ** are both C's pow, and *, +
        # and - are IEEE on both
        rng = np.random.default_rng(1)
        for cell in np.column_stack([rng.uniform(*box[0], 2000),
                                     rng.uniform(*box[1], 2000)]).tolist():
            one = nl.reaction(tuple(cell))
            assert [x.hex() for x in one] == [x.hex() for x in numpy_scalar_reaction(nl, *cell)]

    # where f1 on Python floats raises and numpy's scalars give inf or NaN:
    # an overflow in **, a negative base's complex power, which float()
    # refuses, and a zero division
    @pytest.mark.parametrize("nl, u, v", [
        (make_power_product(1.0, 3.0, 2.0), 1e200, 1.0),
        (make_power_product(1.0, 2.5, 2.0), -0.5, 1.0),
        (Nonlinearity(family="custom", params={}, f1=lambda u, v: 1.0 / u,
                      f2=lambda u, v: 0.0 * v), 0.0, 1.0),
    ], ids=["overflow", "negative_base", "zero_division"])
    def test_a_raising_float_call_is_made_again_on_numpy_scalars(self, nl, u, v):
        seen = []
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore",
                                                    divide="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            one = typed_reaction(nl, seen).reaction((u, v))
            reference = numpy_scalar_reaction(nl, u, v)
        assert seen[0] == (float, float) and seen[-2:] == [(np.float64, np.float64)] * 2
        assert [x.hex() for x in one] == [x.hex() for x in reference]
        assert not math.isfinite(one[0])

    def test_a_zeros_like_reaction_steps_a_flat_run_unchanged(self, box3d):
        # np.zeros_like of a scalar is a 0-d array, which a cell of `out` takes
        mesh = build_mesh(box3d, 4)
        zero = Nonlinearity(family="custom", params={}, f1=lambda u, v: np.zeros_like(u),
                            f2=lambda u, v: np.zeros_like(v))
        trace = simulate(SolverConfig(mesh=mesh, nl=zero, gamma1=0.0, gamma2=0.0,
                                      g1=np.full(mesh.n_cells, 1.5),
                                      g2=np.full(mesh.n_cells, 0.5), t_end=0.3))
        assert trace.collapsed_axes == (0, 1, 2)
        assert trace.outcome == OUTCOME_REACHED_T_END and trace.final_fields.t == 0.3
        assert trace.n_steps > 0
        assert np.all(trace.final_fields.u == 1.5) and np.all(trace.final_fields.v == 0.5)


def decay(y, out):
    """rhs_vec of y' = -y."""
    return np.negative(y, out=out)


def started(y, stage_fn, op=None, pair=DP5):
    """A `StepWork` for states like y, holding `pair`'s first stage at y."""
    work = StepWork(y, op)
    work.restart(y, stage_fn, pair)
    return work


class TestStep:
    def test_linear_decay_accuracy(self):
        # y' = -y from 1: many small accepted steps land near e^{-t}
        y = np.array([1.0])
        work = started(y, decay)
        t, dt = 0.0, 1e-3
        while t < 1.0:
            dt = min(dt, 1.0 - t)
            y_new, err, k_new = step(y, dt, decay, 1e-10, 1e-12, work)
            assert err <= 1.0
            y = work.accept(y, y_new, k_new)
            t += dt
        assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_rejects_nonpositive_dt(self):
        y = np.array([1.0])
        with pytest.raises(ValueError):
            step(y, 0.0, decay, 1e-8, 1e-10, started(y, decay))

    def test_overflow_returns_inf_error(self):
        def rhs_vec(y, out):
            return np.power(y, 10, out=out)
        y = np.array([1e30])
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, err, k = step(y, 1.0, rhs_vec, 1e-8, 1e-10, started(y, rhs_vec))
        assert err == float("inf") and k is None
        assert y_new[0] == 1e30  # untouched

    def test_an_error_norm_that_overflows_is_inf_and_warns_of_nothing(self):
        # rel_tol = 0 and abs_tol = 1e-300 scale each cell's error estimate
        # to about 1e295, whose square overflows in the RMS norm: the norm is
        # formed under the trial's one error state, so err is inf, rejecting,
        # though y_new and its stage are finite
        rates = 1.0 + np.arange(8)

        def stage_fn(y, out):
            return np.multiply(y, rates, out=out)

        y = np.ones(8)
        work = started(y, stage_fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y_new, err, k_new = step(y, 0.1, stage_fn, 0.0, 1e-300, work)
        assert err == math.inf
        assert np.isfinite(y_new).all() and np.isfinite(k_new).all()

    def test_large_step_reports_large_error(self):
        # a huge step on y' = -y must produce err > 1 so the driver rejects
        y = np.array([1.0])
        _, err, _ = step(y, 50.0, decay, 1e-8, 1e-10, started(y, decay))
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
PAIR = {"lawson_bs3": LAWSON_BS3, "dp5": DP5}


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


def guarded(mesh, nl, gamma, linear=True):
    """The stage function (y, out) of the semidiscrete system with both
    Robin coefficients gamma: A y + N(y), or N(y) alone if not `linear`;
    NaN on non-finite input."""
    A, n = dense_robin_operator(mesh, gamma, gamma), mesh.n_cells

    def stage_fn(yy, out):
        if not np.all(np.isfinite(yy)):
            out.fill(np.nan)
            return out
        u, v = yy[:n], yy[n:]
        out[:n] = nl.f1(u, v)
        out[n:] = nl.f2(u, v)
        if linear:
            out += A @ yy
        return out

    return stage_fn


def lawson_reference_step(mesh, gamma, y, dt, reaction, rel_tol, abs_tol):
    """A Lawson BS3 step written out stage by stage in physical space, with
    dense matrix exponentials of the Robin Laplacian A."""
    rows, b_hat = TABLEAUX["bs3"]
    a = [[], *rows]
    c = [sum(row) for row in a]
    e = [b - bh for b, bh in zip([*rows[-1], 0.0], b_hat)]
    n = mesh.n_cells
    A = dense_robin_operator(mesh, gamma, gamma)[:n, :n]

    @lru_cache(maxsize=None)
    def expm(tau):
        return scipy.linalg.expm(tau * A)

    def propagate(tau, x):
        return np.concatenate([expm(tau) @ x[:n], expm(tau) @ x[n:]])

    ns = [reaction(y)]
    for i in range(1, 4):
        arg = propagate(c[i] * dt, y) + dt * sum(
            a[i][j] * propagate((c[i] - c[j]) * dt, ns[j]) for j in range(i))
        ns.append(reaction(arg))
    if not (np.all(np.isfinite(arg)) and np.all(np.isfinite(ns[-1]))):
        return y, float("inf"), None
    est = dt * sum(e[j] * propagate((1.0 - c[j]) * dt, ns[j]) for j in range(4))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(arg))
    return arg, float(np.sqrt(np.mean((est / scale) ** 2))), ns[-1]


class TestStepWorkspace:
    @pytest.mark.parametrize("before", [None, "lawson_bs3", "dp5"],
                             ids=["fresh", "after_lawson_bs3", "after_dp5"])
    @pytest.mark.parametrize("amplitude, dt", [(1.0, 2e-3), (1e100, 1.0)],
                             ids=["accepted", "non_finite"])
    @pytest.mark.parametrize("name", ["lawson_bs3", "dp5"])
    def test_matches_stage_by_stage_reference(self, mesh3d, name, amplitude, dt, before):
        nl = make_power_product(1.0, 2.0, 2.0)
        fns = {"dp5": guarded(mesh3d, nl, 0.5), "lawson_bs3": guarded(mesh3d, nl, 0.5, False)}
        op = mesh3d.robin_operator(0.5, 0.5)
        rng = np.random.default_rng(4)
        y = amplitude * rng.uniform(0.5, 1.5, 2 * mesh3d.n_cells)
        with np.errstate(over="ignore", invalid="ignore"):
            work = started(y, fns["dp5"], op)
            if before is not None:
                # an accepted step of either pair copies its FSAL row into
                # K[0] and leaves its own stages in the other rows
                work.restart(y, fns[before], PAIR[before])
                y_new, _, k_new = step(y, 1e-3, fns[before], 1.0, 1.0, work, PAIR[before])
                work.accept(y.copy(), y_new, k_new)
            work.restart(y, fns[name], PAIR[name])
            fn = fns[name]
            if name == "dp5":
                ref = reference_step(name, y, dt, lambda yy: fn(yy, np.empty_like(yy)),
                                     1e-4, 1e-6, work.K[0].copy())
            else:
                ref = lawson_reference_step(mesh3d, 0.5, y, dt,
                                            lambda yy: fn(yy, np.empty_like(yy)), 1e-4, 1e-6)
            got = step(y, dt, fn, 1e-4, 1e-6, work, PAIR[name])
        if amplitude > 1.0:
            assert ref[1] == float("inf")
            assert got[0] is y and got[1] == float("inf") and got[2] is None
            return
        assert 0.0 < ref[1] <= 1.0
        k_last = got[2] if name == "dp5" else op.from_modes(got[2], np.empty_like(y))
        # relative to the max-norm: the Laplacian makes some entries of the
        # FSAL row small differences of large ones
        for got_row, ref_row in ((got[0], ref[0]), (k_last, ref[2])):
            assert np.max(np.abs(got_row - ref_row)) <= 1e-14 * np.max(np.abs(ref_row))
        assert got[1] == pytest.approx(ref[1], rel=1e-12)

    @pytest.mark.parametrize("name, row", [("lawson_bs3", 5), ("dp5", 6)])
    def test_accept_moves_fsal_row_to_k1(self, mesh3d, name, row):
        # a step writes its FSAL row, f(y_new) for DP5 and N(y_new) in the
        # eigenbasis for the Lawson pair, and `accept` copies it into K[0],
        # the next step's first stage, bit for bit
        nl = make_power_product(1.0, 2.0, 2.0)
        fn = guarded(mesh3d, nl, 0.5, linear=name == "dp5")
        op = mesh3d.robin_operator(0.5, 0.5)
        y = np.random.default_rng(5).uniform(0.5, 1.5, 2 * mesh3d.n_cells)
        work = started(y, fn, op, PAIR[name])
        y_new, err, k_last = step(y, 2e-3, fn, 1e-4, 1e-6, work, PAIR[name])
        assert err <= 1.0
        assert np.shares_memory(k_last, work.K[row])
        f_new = fn(y_new.copy(), np.empty_like(y))
        if PAIR[name].lawson:
            f_new = op.to_modes(f_new, np.empty_like(y))
        assert np.array_equal(work.K[row], f_new)
        y = work.accept(y, y_new, k_last)
        assert y is y_new
        assert np.array_equal(work.K[0], f_new)


# a reaction whose every stage is 1e307 in every cell
CONSTANT_PUSH = Nonlinearity(family="custom", params={}, f1=lambda u, v: 1e307,
                             f2=lambda u, v: 1e307)
PRODUCT = make_power_product(1.0, 2.0, 2.0)
ONE_CELL_CASES = {
    # name: (reaction, (u, v), dt, rel_tol, abs_tol, outcome)
    "accepted_dt_1e-3": (PRODUCT, (1.0, 1.0), 1e-3, 1e-8, 1e-10, "accepted"),
    "accepted_dt_1e-2": (PRODUCT, (1.0, 1.0), 1e-2, 1e-6, 1e-8, "accepted"),
    "rejected_dt_0.1": (PRODUCT, (1.0, 1.0), 0.1, 1e-8, 1e-10, "rejected"),
    "zero_field_abs_tol_0": (linear_decay(), (0.0, 1.0), 0.05, 1e-6, 0.0, "accepted"),
    "stage_leaves_the_domain": (make_gradient_homogeneous(1.0, 2.0, shape_constant()),
                                (1.0, 0.5), 0.1, 1e-8, 1e-10, "non_finite"),
    "stage_overflows": (PRODUCT, (1e60, 1e60), 1e-14, 1e-8, 1e-10, "non_finite"),
    "y_new_overflows": (CONSTANT_PUSH, (1.79e308, 1.0), 1.0, 1e-8, 1e-10, "non_finite"),
}


class TestOneCellStep:
    # DP5 on a one-cell state held as the float pair (u, v), whose first
    # stage `k1` is `Nonlinearity.reaction` at it, steps on floats, each
    # stage that reaction; the array path steps the same cell duplicated,
    # [u, u, v, v], by `_reaction_into`, whose RMS norm is the cell's.  The
    # two agree: y_new and the FSAL stage to 1e-14 relative, err to 1e-12
    # of max(err, 1), and the same accept/reject decision
    @pytest.mark.parametrize("case", list(ONE_CELL_CASES))
    def test_matches_the_array_path_on_the_duplicated_cell(self, case):
        nl, cell, dt, rel_tol, abs_tol, outcome = ONE_CELL_CASES[case]
        stage_fn, stage_into = nl.reaction, partial(_reaction_into, nl)
        y, y4 = cell, np.repeat(cell, 2)
        work, work4 = StepWork(np.empty(2)), StepWork(y4)
        with np.errstate(all="raise"):
            work.k1 = stage_fn(y)
            work4.restart(y4, stage_into, DP5)
            y_new, err, k = step(y, dt, stage_fn, rel_tol, abs_tol, work)
            y_new4, err4, k4 = step(y4, dt, stage_into, rel_tol, abs_tol, work4)
        assert work.k1 == tuple(work4.K[0][::2])
        if outcome == "non_finite":
            assert err == err4 == math.inf and k is None and k4 is None
            assert y_new is y
            return
        assert (err <= 1.0) == (err4 <= 1.0) == (outcome == "accepted")
        assert math.isfinite(err) and abs(err - err4) <= 1e-12 * max(err4, 1.0)
        assert np.shares_memory(k4, work4.K[DP5.stages - 1])
        for one, four in ((y_new, y_new4), (k, k4)):
            assert type(one) is tuple and all(type(x) is float for x in one)
            assert np.array_equal(four[::2], four[1::2])
            assert np.all(np.abs(np.subtract(one, four[::2])) <= 1e-14 * np.abs(four[::2]))
        assert work.accept(y, y_new, k) is y_new and work.k1 is k

    def test_one_cell_dp5_steps_take_the_float_path(self, monkeypatch, tmp_path):
        # criterion 1's run takes every trial on floats, its DP5 trials and
        # its Lawson trial; robin_drain (16^2 cells, folded to 8^2) takes none
        states = []
        float_step = rdblowup.solver._one_cell_step

        def counted(y, *args):
            states.append((args[-1].name, type(y)))
            return float_step(y, *args)

        monkeypatch.setattr(rdblowup.solver, "_one_cell_step", counted)
        trace, _ = flat_blowup_3d()
        assert sum(trace.steps_by_pair["dp5"].values()) == 354
        assert states == [("dp5", tuple), ("lawson_bs3", tuple)] + [("dp5", tuple)] * 353
        states.clear()
        config = DEMO_CONFIGS / "robin_drain.ini"
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        by_pair = json.loads((tmp_path / "report.json").read_text())["simulation"]["steps_by_pair"]
        assert sum(by_pair["dp5"].values()) > 0 and states == []

    def test_a_flat_run_takes_the_float_form_after_dp5_restarts(self):
        # criterion 1's run takes the float form of the reaction throughout:
        # for N(g), the 6 stages of its first DP5 step, the 3 new stages of
        # its Lawson trial after it (rejected) and the 6 stages of each of
        # its 353 other DP5 steps; f1 and f2 take Python floats, 2,128 calls
        # each, none made again on numpy scalars.  The form of each
        # evaluation is the type f1 takes in it
        seen = []
        trace, _ = flat_blowup_3d(typed_reaction(make_power_product(1.0, 2.0, 2.0), seen))
        forms = ["float" if types == (float, float) else "array" for types in seen[::2]]
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 1},
                                       "dp5": {"accepted": 354, "rejected": 0}}
        assert forms == ["float"] * (1 + 6 + 3 + 6 * 353)
        assert seen == [(float, float)] * 2 * 2128

    def test_a_one_cell_pair_change_evaluates_no_reaction(self, monkeypatch):
        # criterion 1's run changes pair twice, DP5 to the Lawson pair and
        # back after its rejected trial; on one cell N(y) is already the
        # first stage of both pairs, so every reaction but N(g) is a stage
        # of a step, as f1's arguments outside `step` show
        outside, in_step = [], []
        nl = make_power_product(1.0, 2.0, 2.0)

        def f1(u, v):
            if not in_step:
                outside.append((u, v))
            return nl.f1(u, v)

        def stepping(*args):
            in_step.append(True)
            try:
                return step(*args)
            finally:
                in_step.pop()

        monkeypatch.setattr(rdblowup.solver, "step", stepping)
        trace, _ = flat_blowup_3d(dataclasses.replace(nl, f1=f1))
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 1},
                                       "dp5": {"accepted": 354, "rejected": 0}}
        assert outside == [(1.0, 1.0)]

    def test_a_flat_run_holds_its_state_as_its_pair_steps_it(self, monkeypatch):
        # u' = -100 (u - 1), v' = -50 (v - 1/2) from (2, 1) under Neumann
        # walls, collapsed to one cell: DP5 steps the float pair until the
        # relaxing cell lets dt reach the cap, the Lawson pair then steps
        # the float pair too (10 accepted, 1 rejected), and DP5 again; every
        # row is the exact solution to 1e-7
        forms = []

        def logged_step(y, dt, *args):
            forms.append((args[-1].name, type(y)))
            return step(y, dt, *args)

        monkeypatch.setattr(rdblowup.solver, "step", logged_step)
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5)), (8, 6, 4))
        relax = Nonlinearity(family="custom", params={}, f1=lambda u, v: -100.0 * (u - 1.0),
                             f2=lambda u, v: -50.0 * (v - 0.5))
        trace = simulate(SolverConfig(mesh=mesh, nl=relax, gamma1=0.0, gamma2=0.0,
                                      g1=np.full(mesh.n_cells, 2.0),
                                      g2=np.full(mesh.n_cells, 1.0), t_end=2.0))
        assert trace.collapsed_axes == (0, 1, 2) and trace.outcome == OUTCOME_REACHED_T_END
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 10, "rejected": 1},
                                       "dp5": {"accepted": 182, "rejected": 0}}
        runs = [(key, len(list(group))) for key, group in itertools.groupby(forms)]
        assert runs == [(("dp5", tuple), 82), (("lawson_bs3", tuple), 11),
                        (("dp5", tuple), 100)]
        t = np.array([s.t for s in trace.samples])
        for sups, exact in (([s.sup_u for s in trace.samples], 1.0 + np.exp(-100.0 * t)),
                            ([s.sup_v for s in trace.samples], 0.5 + 0.5 * np.exp(-50.0 * t))):
            assert np.all(np.abs(np.array(sups) - exact) <= 1e-7 * exact)

    @pytest.mark.parametrize("u0, by_pair", [
        (1.0, {"lawson_bs3": {"accepted": 0, "rejected": 1},
               "dp5": {"accepted": 354, "rejected": 0}}),
        (0.0, {"lawson_bs3": {"accepted": 10, "rejected": 0},
               "dp5": {"accepted": 0, "rejected": 0}}),
    ], ids=["criterion_1", "u0_0"])
    def test_a_one_cell_run_holds_floats_under_both_pairs(self, monkeypatch, u0, by_pair):
        # F = u^2 v^2 from (u0, 1) on a 16^3 Neumann box, collapsed to one
        # cell: criterion 1's run, and u0 = 0, where N = 0 and the Lawson
        # pair takes the run in 10 steps of 0.1.  Every trial, Lawson trials
        # included, takes the float pair, and the zero operator builds no
        # eigenpairs and makes no transform
        ops, states, transforms = lawson_operators(monkeypatch), [], []

        def logged_step(y, *args):
            states.append(type(y))
            return step(y, *args)

        def spied(name, method):
            def logged(op, *args):
                transforms.append(name)
                return method(op, *args)
            return logged

        monkeypatch.setattr(rdblowup.solver, "step", logged_step)
        for name in ("to_modes", "from_modes"):
            monkeypatch.setattr(RobinOperator, name, spied(name, getattr(RobinOperator, name)))
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0,) * 3), 16)
        trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                      gamma1=0.0, gamma2=0.0, g1=np.full(mesh.n_cells, u0),
                                      g2=np.full(mesh.n_cells, 1.0), t_end=1.0))
        assert trace.collapsed_axes == (0, 1, 2) and trace.steps_by_pair == by_pair
        assert states == [tuple] * sum(sum(c.values()) for c in by_pair.values())
        assert len(ops) == 1 and "eigenpairs" not in vars(ops[0]) and transforms == []
        if u0 == 0.0:
            assert trace.final_fields.t == 1.0
            assert [s.dt for s in trace.samples] == pytest.approx([0.1] * 11, rel=1e-14, abs=0)
            assert np.all(trace.final_fields.u == 0.0) and np.all(trace.final_fields.v == 1.0)


def combination(weights, dt, ks):
    """sum_i (weights[i] * dt) * ks[i] of the float pairs ks, from 0.0 in the
    order of i: the loop that `Pair.one_cell_kernel` writes out."""
    su = sv = 0.0
    for w, (ku, kv) in zip(weights, ks):
        w *= dt
        su += w * ku
        sv += w * kv
    return su, sv


def loop_kernel(pair, u, v, k0, dt, stage_fn):
    """`pair.one_cell_kernel` as a loop over the pair's `float_tableau`."""
    a, e = pair.float_tableau
    ks = [k0]
    for row in a[1:]:
        du, dv = combination(row, dt, ks)
        y_new = (du + u, dv + v)
        ks.append(stage_fn(y_new))
    return (y_new, ks[-1], *combination(e, dt, ks))


def random_floats(rng, count, special):
    """Floats of random sign and size, 1e-300 to 1e300, each replaced with
    probability 0.1 by one of `special`."""
    return [float(rng.choice(special)) if special and rng.random() < 0.1
            else float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-300, 300))
            for _ in range(count)]


class TestOneCellKernel:
    # each pair's kernel is the loop over its float tableau, bit for bit:
    # every stage argument, the last stage and the error estimate, on finite
    # stages, where sums overflow too, and on stages with inf or NaN
    @pytest.mark.parametrize("pair", [LAWSON_BS3, DP5], ids=["lawson_bs3", "dp5"])
    @pytest.mark.parametrize("special", [(), (math.inf, -math.inf, math.nan, 0.0, -0.0)],
                             ids=["finite", "inf_nan_zeros"])
    def test_is_the_loop_over_the_tableau_bit_for_bit(self, pair, special):
        # the first case is all -0.0, which only a sum from 0.0 turns to +0.0
        rng = np.random.default_rng(45)
        count = 2 + 2 * pair.stages
        cases = [[-0.0] * count] + [random_floats(rng, count, special) for _ in range(300)]
        for u, v, *flat in cases:
            stages = list(zip(flat[::2], flat[1::2]))
            dt = float(10.0 ** rng.uniform(-12.0, 0.0))

            def bits(kernel):
                seen = []

                def stage_fn(y):
                    seen.append(y)
                    return stages[len(seen)]

                y_new, k_new, eu, ev = kernel(u, v, stages[0], dt, stage_fn)
                assert k_new is stages[-1] and y_new is seen[-1]
                return [x.hex() for x in (*y_new, eu, ev, *itertools.chain(*seen))]

            assert bits(pair.one_cell_kernel) == bits(partial(loop_kernel, pair))

    @pytest.mark.parametrize("pair", [LAWSON_BS3, DP5], ids=["lawson_bs3", "dp5"])
    def test_the_source_keeps_every_weight_of_the_tableau(self, pair):
        # row i's scaled weights w{i}_j are a[i, :i] times dt, zeros kept, and
        # the error estimate's are e
        a, e = pair.float_tableau
        tree = ast.parse(rdblowup.solver._one_cell_source(a, e))
        weights = {}
        for node in ast.walk(tree):
            target = node.targets[0] if isinstance(node, ast.Assign) else None
            if isinstance(target, ast.Name) and target.id.startswith("w"):
                row, _ = target.id[1:].split("_")
                assert ast.unparse(node.value.right) == "dt"
                weights.setdefault(row, []).append(ast.literal_eval(node.value.left))
        assert weights == {**{str(i): list(row) for i, row in enumerate(a) if i}, "e": list(e)}


class NoDiffusion(RobinOperator):
    """A = 0 on a single unknown, one field on one axis of one cell: every
    exponential of the Lawson pair is 1, so it steps as explicit BS3."""

    eigenpairs = ((np.zeros((1, 1)), np.eye(1)[None]),)


NO_DIFFUSION = NoDiffusion(mesh=None, gammas=(0.0,))


def integrate(pair, stage_fn, y0, t_end, n_steps, op=NO_DIFFUSION):
    """Fixed steps of `pair` from y0; tolerances loose enough to be ignored."""
    y = np.array(y0, dtype=float, ndmin=1)
    work = started(y, stage_fn, op, pair)
    for _ in range(n_steps):
        y_new, _, k_new = step(y, t_end / n_steps, stage_fn, 1e6, 1e6, work, pair)
        y = work.accept(y, y_new, k_new)
    return y


class TestPairs:
    @pytest.mark.parametrize("rhs_vec, t_end, exact", [
        (decay, 1.0, math.exp(-1.0)),
        (lambda y, out: np.square(y, out=out), 0.5, 2.0),
    ], ids=["linear", "quadratic"])
    @pytest.mark.parametrize("name", ["lawson_bs3", "dp5"])
    def test_observed_order(self, name, rhs_vec, t_end, exact):
        # 4 and 8 steps from y = 1: on y' = y^2 one DP5 step errs by
        # 2h^6/405 - 0.11h^7, so finer steps reach the cancellation of the two
        pair = PAIR[name]
        errs = [abs(integrate(pair, rhs_vec, 1.0, t_end, m)[0] - exact) for m in (4, 8)]
        assert math.log2(errs[0] / errs[1]) == pytest.approx(pair.order, abs=0.4)

    def test_lawson_order_on_a_robin_system(self):
        # y' = A y + N(y) with A the Robin Laplacian and a nonlinear N, against
        # 512 steps: the Lawson pair keeps its order 3 with the diffusion in
        # it.  Much coarser steps, dt |lambda| >> 1 on the stiff modes, show
        # the stiff order reduction of Lawson methods at Robin walls (about 2)
        mesh = build_mesh(ANISOTROPIC[0][0], ANISOTROPIC[0][1])
        nl = Nonlinearity(family="custom", params={}, f1=lambda u, v: -u * v,
                          f2=lambda u, v: 0.5 * u * u, F=None)
        reaction, op = guarded(mesh, nl, 1.0, linear=False), mesh.robin_operator(1.0, 1.0)
        x = mesh.cell_centers
        y0 = np.concatenate([1.0 + 0.5 * np.cos(x[:, 0]), 1.0 + x[:, 1] ** 2])
        ref, *got = (integrate(LAWSON_BS3, reaction, y0, 0.5, m, op)
                     for m in (512, 32, 64))
        errs = [np.max(np.abs(y - ref)) for y in got]
        assert math.log2(errs[0] / errs[1]) == pytest.approx(3.0, abs=0.4)


def checkerboard(mesh):
    return np.where(np.indices(mesh.shape).sum(axis=0) % 2 == 0, 1.0, -1.0).ravel()


ANISOTROPIC = [(DomainSpec("box", 2, half_extents=(1.0, 0.5)), (8, 6)),
               (DomainSpec("box", 3, half_extents=(1.0, 0.5, 0.75)), (6, 8, 4))]


class TestDiffusionCap:
    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_lawson_steps_past_the_cap_never_grow(self, spec, cells, gamma):
        # checkerboard data excite the stiffest modes, and tolerances this
        # loose let the Lawson pair step far past DP5's cap, where its
        # exponentials of A, all in (0, 1], must keep every step stable
        mesh = build_mesh(spec, cells)
        g = checkerboard(mesh)
        cap = _diffusion_cap(mesh)
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma, gamma2=gamma,
                           g1=g, g2=-g, t_end=200 * cap, rel_tol=1.0, abs_tol=1.0)
        trace = simulate(cfg)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.n_rejected == 0
        dts = np.array([s.dt for s in trace.samples[1:]])
        # DP5 never steps past its cap, so these are Lawson steps
        assert np.max(dts) > 5 * cap
        E = np.array([s.E for s in trace.samples])
        assert np.all(np.diff(E) <= 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_cap_inside_dp5_stability_interval(self, spec, cells, gamma):
        lam, _ = robin_spectrum(spec, cells, gamma)

        def R(z):
            return (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0 + z**5 / 120.0
                    + z**6 / 600.0)

        r = R(_diffusion_cap(build_mesh(spec, cells)) * lam)
        assert np.all((0.173 <= r) & (r <= 1.0))


def robin_spectrum(spec, cells, gamma):
    """Eigenvalues of the Robin Laplacian, checked to lie in the Gershgorin
    interval [-bound, 0], and that bound 4 sum_a h_a^-2."""
    mesh = build_mesh(spec, cells)
    bound = 4.0 * sum(ha ** -2 for ha in mesh.h)
    A = dense_robin_operator(mesh, gamma, gamma)[:mesh.n_cells, :mesh.n_cells]
    lam = np.linalg.eigvalsh(A)
    assert lam.min() >= -bound and lam.max() <= 1e-12 * bound
    return lam, bound


def robin_heat_config(dim, cells, lam=0.8, t_end=0.05):
    """Heat flow of the Robin mode prod_a cos(lam x_a) on [-1, 1]^dim."""
    mesh = build_mesh(DomainSpec("box", dim, half_extents=(1.0,) * dim), cells)
    gamma = lam * math.tan(lam)
    g = np.prod(np.cos(lam * mesh.cell_centers), axis=1)
    return SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma, gamma2=gamma,
                        g1=g, g2=g, t_end=t_end)


def robin_heat(dim, cells, **kwargs):
    """`simulate` of `robin_heat_config`, and its mesh."""
    config = robin_heat_config(dim, cells, **kwargs)
    return simulate(config), config.mesh


def flat_blowup_3d(nl=make_power_product(1.0, 2.0, 2.0)):
    """Criterion 1's run: F = u^2 v^2 from unit data under Neumann walls on
    16^3 cells of [-1, 1]^3, blowing up at t = 1/4; `nl` may be F's
    reaction, wrapped."""
    mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0,) * 3), 16)
    g = np.full(mesh.n_cells, 1.0)
    return simulate(SolverConfig(mesh=mesh, nl=nl,
                                 gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0)), mesh


def logged_trials(monkeypatch):
    """The (pair name, dt) of every trial step `simulate` makes from now on."""
    trials = []

    def logged_step(y, dt, *args):
        trials.append((args[-1].name, dt))
        return step(y, dt, *args)

    monkeypatch.setattr(rdblowup.solver, "step", logged_step)
    return trials


def hnw_first_dt(g, reaction, rel_tol=1e-8, abs_tol=1e-10, order=3):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4) on the
    reaction alone, for the Lawson pair's order 3; cells whose scale is 0
    count as 0 in both norms."""
    sc = abs_tol + rel_tol * np.abs(g)
    live = sc > 0
    d0, d1 = (math.sqrt(np.sum((x[live] / sc[live]) ** 2) / x.size) for x in (g, reaction))
    h0 = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
    return min(100 * h0, (0.01 / d1) ** (1 / (order + 1)))


def flat_product_dt(cu, cv, **tolerances):
    """hnw_first_dt on flat (u, v) = (cu, cv) for F = u^2 v^2, whose
    N = (2 u v^2, 2 u^2 v) is flat too."""
    g = np.array([cu, cv])
    return hnw_first_dt(g, np.array([2 * cu * cv ** 2, 2 * cu ** 2 * cv]), **tolerances)


class TestPairChoice:
    def test_fine_robin_heat_steps_past_the_cap_with_lawson_bs3(self):
        # 32^2 cells: N = 0, so the run starts at t_end = 0.05, 39 times
        # DP5's cap, where the Lawson pair takes the whole run in one step
        trace, mesh = robin_heat(2, 32)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}
        assert [s.dt for s in trace.samples] == [0.05, 0.05]
        assert 0.05 > 38 * _diffusion_cap(mesh)

    def test_coarse_robin_heat_steps_past_the_cap_with_lawson_bs3(self):
        # 12^3 cells: DP5 alone took 19 steps here, the last 3 held by the
        # cap or by t_end; the Lawson pair takes 1 step of t_end, 8 caps
        trace, mesh = robin_heat(3, 12)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}
        assert [s.dt for s in trace.samples] == [0.05, 0.05]
        assert 0.05 > 8 * _diffusion_cap(mesh)

    def test_rejected_lawson_step_is_retried_by_dp5_at_its_cap(self, monkeypatch):
        # this blow-up run starts on DP5 below its cap; the first proposal
        # reaches the cap, where the one Lawson trial is rejected, and DP5
        # retries that step at its cap and keeps the run
        trials = logged_trials(monkeypatch)
        trace, mesh = flat_blowup_3d()
        assert trace.outcome == OUTCOME_BLOWUP
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 1},
                                       "dp5": {"accepted": 354, "rejected": 0}}
        cap = _diffusion_cap(mesh)
        assert trials[0] == ("dp5", pytest.approx(flat_product_dt(1.0, 1.0), rel=1e-14, abs=0))
        assert trials[1][0] == "lawson_bs3" and trials[1][1] >= cap
        assert trials[2] == ("dp5", cap)
        assert [name for name, _ in trials] == ["dp5", "lawson_bs3"] + ["dp5"] * 353

    def test_flat_blowup_takes_every_step_with_dp5(self, monkeypatch, box2d):
        # on 8^2 cells DP5's cap is 7.8 times the first dt, and accuracy
        # holds every later proposal below it, so no Lawson step is tried
        trials = logged_trials(monkeypatch)
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                      gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0))
        assert trace.outcome == OUTCOME_BLOWUP
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": 318, "rejected": 0}}
        assert trials[0] == ("dp5", pytest.approx(flat_product_dt(1.0, 1.0), rel=1e-14, abs=0))
        assert [name for name, _ in trials] == ["dp5"] * 318
        assert max(dt for _, dt in trials) < _diffusion_cap(mesh)


class TestMonitorRows:
    def test_flat_run_writes_its_rows_in_blocks(self, monkeypatch):
        # criterion 1's run collapses onto one cell, whose states fit many
        # to a block: the row kernel runs at most once per 8 steps, and every
        # accepted state still has its row, in order
        calls = row_kernel_calls(monkeypatch)
        trace, _ = flat_blowup_3d()
        assert trace.n_steps > 300
        assert len(calls) <= trace.n_steps / 8
        assert sum(calls) == len(trace.samples) == trace.n_steps + 1
        ts = [s.t for s in trace.samples]
        assert ts[0] == 0.0 and all(np.diff(ts) > 0)
        # a block of 64 bytes holds 4 one-cell states: its 355 rows are
        # written 4 at a time across 88 full blocks, the last 3 when the run
        # ends, and are the rows of one block, bit for bit
        monkeypatch.setattr(rdblowup.solver, "_ROW_BLOCK_BYTES", 64)
        del calls[:]
        small, _ = flat_blowup_3d()
        assert calls == [4] * 88 + [3]
        rows = np.array([s.row() for s in small.samples])
        assert rows.tobytes() == np.array([s.row() for s in trace.samples]).tobytes()

    def test_a_state_larger_than_a_block_is_written_on_its_own(self, monkeypatch):
        # 24^3 cells on the box: one state is 221 kB
        calls = row_kernel_calls(monkeypatch)
        trace = simulate(on_the_box(robin_heat_config(3, 24)))
        assert trace.mirror_axes == ()
        assert calls == [1] * len(trace.samples) == [1, 1]


def row_kernel_calls(monkeypatch):
    """The number of states of each `energy_rows` call `simulate` makes
    from now on."""
    calls = []
    real = rdblowup.solver.energy_rows

    def counted(states, *args, **kwargs):
        calls.append(len(states))
        return real(states, *args, **kwargs)

    monkeypatch.setattr(rdblowup.solver, "energy_rows", counted)
    return calls


class TestStartingStep:
    @pytest.mark.parametrize("cu, cv, tolerances", [
        (1.0, 2.0, {}),                                  # the fourth root binds
        (1.0, 0.5, {"rel_tol": 1e-3, "abs_tol": 0.0}),   # so it does at abs_tol 0
        (1.0, 60.0, {}),                                 # 100 h0 binds
        (1e-3, 1e-3, {"rel_tol": 0.0, "abs_tol": 1.0}),  # d1 < 1e-5: h0 = 1e-6
    ])
    def test_first_dt_on_flat_data_is_the_hnw_rule(self, monkeypatch, box2d,
                                                   cu, cv, tolerances):
        trials = logged_trials(monkeypatch)
        mesh = build_mesh(box2d, 8)
        trace = simulate(SolverConfig(
            mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0, gamma2=0.0,
            g1=np.full(mesh.n_cells, cu), g2=np.full(mesh.n_cells, cv), t_end=1e-4,
            **tolerances))
        want = flat_product_dt(cu, cv, **tolerances)
        # the initial row keeps the first dt; the first trial clamps it to t_end
        assert trials[0][1] == pytest.approx(min(want, 1e-4), rel=1e-14, abs=0)
        assert trace.samples[0].dt == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("dim, cells", [(3, 12), (2, 32)])
    @pytest.mark.parametrize("t_end", [0.05, 0.1])
    def test_zero_reaction_at_the_data_takes_one_lawson_step(self, dim, cells, t_end):
        # F = u^2 v^2 from v = 0: N(g) = 0, and v = 0 stays, so N vanishes
        # on the whole run; its one step is min(0.1, t_end) = t_end
        mesh = build_mesh(DomainSpec("box", dim, half_extents=(1.0,) * dim), cells)
        g = np.prod(np.cos(0.8 * mesh.cell_centers), axis=1)
        trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                      gamma1=0.5, gamma2=0.5, g1=g,
                                      g2=np.zeros(mesh.n_cells), t_end=t_end))
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}
        assert [s.dt for s in trace.samples] == [t_end, t_end]
        assert trace.final_fields.t == t_end

    def test_overflowing_norm_starts_at_the_underflow_bound(self, box2d):
        # N(g) / sc = 1e160 overflows d1's sum of squares, so the rule gives
        # dt = 0; the first trial is at 1e-14 instead, and its overflow ends
        # the run as a step underflow, not as an error of a zero dt
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1e80)
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: u ** 3, f2=lambda u, v: v ** 3)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = simulate(SolverConfig(mesh=mesh, nl=nl, gamma1=0.0, gamma2=0.0, g1=g,
                                          g2=g, t_end=1.0, sup_threshold=1e300))
        assert trace.outcome == OUTCOME_STEP_UNDERFLOW
        assert trace.samples[0].dt == 1e-14
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 1}}

    def test_zero_scale_cell_raises_no_warning(self, box2d):
        # abs_tol = 0 gives the zero cell a scale of 0, which the rule must
        # not divide by; that cell counts as 0 in both norms
        mesh = build_mesh(box2d, 8)
        g1 = np.full(mesh.n_cells, 1.0)
        g1[0] = 0.0
        g2 = np.full(mesh.n_cells, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = simulate(SolverConfig(
                mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0, gamma2=0.0,
                g1=g1, g2=g2, t_end=1e-3, rel_tol=1e-6, abs_tol=0.0))
        assert trace.outcome == OUTCOME_REACHED_T_END
        g = np.concatenate([g1, g2])
        reaction = np.concatenate([2 * g1 * g2 ** 2, 2 * g1 ** 2 * g2])
        assert trace.samples[0].dt == pytest.approx(
            hnw_first_dt(g, reaction, rel_tol=1e-6, abs_tol=0.0), rel=1e-14, abs=0)


class TestStepEdgeCases:
    def test_overflowing_dp5_stages_raise_no_warning(self, box2d):
        # from flat 1e60, F = u^2 v^2 starts at the 1e-14 floor, and DP5's
        # inner stages overflow to inf and NaN; the step is rejected as
        # non-finite, and its halved dt ends the run, without a warning
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1e60)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = simulate(SolverConfig(
                mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0, gamma2=0.0,
                g1=g, g2=g, t_end=1.0, sup_threshold=1e300))
        assert trace.outcome == OUTCOME_STEP_UNDERFLOW
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 1}}

    @pytest.mark.parametrize("t_end, pair, steps", [(1.0, "lawson_bs3", 10), (0.01, "dp5", 1)])
    def test_zero_scale_cells_count_as_zero_error(self, box2d, t_end, pair, steps):
        # abs_tol = 0 and u = 0 where F = u^2 v^2: u stays 0 exactly, so its
        # cells have error scale 0 and must count as 0, not as 0/0.  t_end 1
        # takes ten Lawson steps of 0.1, whose sum falls 1.1e-16 short of 1:
        # the tenth ends at t_end, with no sliver step and no underflow after
        # it; t_end 0.01 (below DP5's cap) takes one DP5 step
        mesh = build_mesh(box2d, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = simulate(SolverConfig(
                mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0, gamma2=0.0,
                g1=np.zeros(mesh.n_cells), g2=np.ones(mesh.n_cells), t_end=t_end,
                rel_tol=1e-6, abs_tol=0.0))
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.final_fields.t == trace.samples[-1].t == t_end
        assert trace.n_rejected == 0
        assert trace.steps_by_pair[pair]["accepted"] == trace.n_steps == steps
        assert np.all(trace.final_fields.u == 0.0)

    def test_a_run_at_t_end_is_no_underflow(self, monkeypatch):
        # whatever dt is proposed after the step that reaches t_end, the run
        # has reached it
        monkeypatch.setattr(rdblowup.solver, "_proposed_dt", lambda *args: 1e-15)
        trace, _ = robin_heat(2, 8)
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.n_steps == 1 and trace.final_fields.t == 0.05

    def test_a_starting_dt_below_the_floor_is_still_tried(self, box2d):
        # N = 0 sets the first dt to t_end = 1e-15, below the 1e-14 floor on
        # proposals: the run still takes that one step, on DP5 (below its
        # cap), and reaches t_end
        mesh = build_mesh(box2d, 8)
        g = np.prod(np.cos(0.8 * mesh.cell_centers), axis=1)
        trace = simulate(SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.5, gamma2=0.5,
                                      g1=g, g2=g, t_end=1e-15))
        assert trace.outcome == OUTCOME_REACHED_T_END
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 0},
                                       "dp5": {"accepted": 1, "rejected": 0}}
        assert trace.final_fields.t == 1e-15


def homogeneous_bump(cells, alpha, c, amplitude, t_end=2.0):
    """F = c u^{2(1+alpha)} on a Neumann box [-1, 1]^2 (the paper's equality
    family, h constant) from g1 = 1 + amplitude e^{-4|x|^2}, g2 = 0.5."""
    mesh = build_mesh(DomainSpec("box", 2, half_extents=(1.0, 1.0)), cells)
    g1 = 1.0 + amplitude * np.exp(-4.0 * np.sum(mesh.cell_centers ** 2, axis=1))
    return SolverConfig(mesh=mesh, nl=make_gradient_homogeneous(c, alpha, shape_constant()),
                        gamma1=0.0, gamma2=0.0, g1=g1, g2=np.full(mesh.n_cells, 0.5),
                        t_end=t_end, alpha=alpha)


def outside_the_domain(y, out):
    """A stage function whose every argument has left N's domain."""
    raise EvalAtZeroU("homogeneous family requires u > 0")


class TestLeavingTheDomain:
    # a trial stage outside N's domain rejects the step; N of the data, and
    # the public rhs, still raise
    def test_homogeneous_bump_rejects_the_trial_and_runs_on(self, monkeypatch):
        # DP5's first trial from the bump has a stage with u < 0 (its tableau
        # has negative weights): the trial is rejected with err inf, dt
        # shrinks, and the run ends as the fast blow-up's step underflow
        errs = []

        def logged_step(*args):
            result = step(*args)
            errs.append(result[1])
            return result

        monkeypatch.setattr(rdblowup.solver, "step", logged_step)
        trace = simulate(homogeneous_bump(8, alpha=2.0, c=1.0, amplitude=2.0))
        assert errs[0] == math.inf
        assert trace.outcome == OUTCOME_STEP_UNDERFLOW
        assert trace.n_steps > 0 and np.all(trace.final_fields.u > 0)

    @pytest.mark.parametrize("pair", [DP5, LAWSON_BS3], ids=["dp5", "lawson_bs3"])
    def test_a_stage_outside_the_domain_rejects_the_step(self, pair):
        y = np.array([1.0])
        work = started(y, decay, NO_DIFFUSION, pair)
        first = work.K[0].copy()
        y_new, err, k = step(y, 0.1, outside_the_domain, 1e-8, 1e-10, work, pair)
        assert y_new is y and err == math.inf and k is None
        assert y[0] == 1.0 and np.array_equal(work.K[0], first)

    def test_data_outside_the_domain_still_raise(self):
        config = homogeneous_bump(8, alpha=2.0, c=1.0, amplitude=2.0)
        g1 = config.g1.copy()
        g1[0] = 0.0
        with pytest.raises(EvalAtZeroU):
            simulate(dataclasses.replace(config, g1=g1))
        with pytest.raises(EvalAtZeroU):
            rhs(FieldPair(u=g1, v=config.g2, t=0.0), config.mesh, config.nl, 0.0, 0.0)

    def test_a_one_cell_stage_outside_the_domain_rejects_the_step(self):
        # from u = 1 a DP5 trial of dt 0.1 on u' = 6 u^5 has a stage with
        # u < 0, handed to f1 as a Python float: EvalAtZeroU, which is no
        # ArithmeticError, rejects the trial with no retry on numpy scalars,
        # and nothing overflows on the way
        nl = make_gradient_homogeneous(1.0, 2.0, shape_constant())
        outside = []

        def f1(u, v):
            try:
                return nl.f1(u, v)
            except EvalAtZeroU:
                outside.append(u)
                raise

        stage_fn = dataclasses.replace(nl, f1=f1).reaction
        work, y = StepWork(np.empty(2)), (1.0, 0.5)  # held as floats
        work.k1 = stage_fn(y)
        with np.errstate(all="raise"):
            y_new, err, k = step(y, 0.1, stage_fn, 1e-8, 1e-10, work, DP5)
        assert y_new is y and err == math.inf and k is None
        assert y == (1.0, 0.5)
        assert len(outside) == 1 and type(outside[0]) is float and outside[0] < 0

    def test_one_cell_data_outside_the_domain_still_raise(self):
        mesh = build_mesh(DomainSpec("box", 2, half_extents=(1.0, 1.0)), 4).fold(
            collapsed=(0, 1))
        nl = make_gradient_homogeneous(1.0, 2.0, shape_constant())
        with pytest.raises(EvalAtZeroU):
            rhs(FieldPair(u=np.array([0.0]), v=np.array([0.5]), t=0.0), mesh, nl, 0.0, 0.0)

    @given(alpha=st.floats(0.5, 3.0), c=st.floats(0.01, 1.0), amplitude=st.floats(0.0, 4.0))
    def test_no_run_ends_outside_the_domain(self, alpha, c, amplitude):
        try:
            trace = simulate(homogeneous_bump(6, alpha, c, amplitude))
        except InsufficientSamples:
            return
        assert trace.outcome in (OUTCOME_REACHED_T_END, OUTCOME_BLOWUP, OUTCOME_STEP_UNDERFLOW)


class TestStepAccounting:
    @pytest.mark.parametrize("run", ["robin_heat", "blowup_to_underflow", "flat_blowup_3d"])
    def test_every_trial_step_is_counted_once(self, monkeypatch, box2d, run):
        # the Robin heat run steps with the Lawson pair only; the blow-up
        # run, whose threshold lies beyond overflow, rejects steps until dt
        # underflows; the flat 3D blow-up rejects one Lawson step
        calls = {pair.name: 0 for pair in (LAWSON_BS3, DP5)}

        def counted_step(*args):
            calls[args[-1].name] += 1
            return step(*args)

        monkeypatch.setattr(rdblowup.solver, "step", counted_step)
        if run == "robin_heat":
            trace, _ = robin_heat(2, 32)
            assert calls == {"lawson_bs3": 1, "dp5": 0}
        elif run == "flat_blowup_3d":
            trace, _ = flat_blowup_3d()
            assert trace.steps_by_pair["lawson_bs3"]["rejected"] == 1
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


class TestLawsonPair:
    def test_lawson_run_never_builds_the_stacked_matrix(self, monkeypatch):
        # a Robin heat run on 12^3 cells takes Lawson steps only, which apply
        # A through its modes; the (2n, 2n) matrix DP5 steps with stays
        # unbuilt.  The operator keeps its eigenpairs and the transforms'
        # scratch state, and no array of Lambda.  The data are nudged off
        # their mirror images, so the run keeps the full mesh
        ops = lawson_operators(monkeypatch)
        trace = simulate(on_the_box(robin_heat_config(3, 12)))
        assert trace.mirror_axes == ()
        assert trace.steps_by_pair["dp5"] == {"accepted": 0, "rejected": 0}
        assert len(ops) == 1
        assert "eigenpairs" in vars(ops[0]) and "matrix" not in vars(ops[0])
        assert set(vars(ops[0])) == {"mesh", "gammas", "eigenpairs", "_scratch"}

    def test_folded_lawson_run_never_builds_the_stacked_matrix(self, monkeypatch):
        # the same run from even data steps on the fold of the mesh, whose
        # operator builds no more than the box's
        ops = lawson_operators(monkeypatch)
        trace, mesh = robin_heat(3, 12)
        assert trace.mirror_axes == (0, 1, 2)
        assert trace.steps_by_pair["dp5"] == {"accepted": 0, "rejected": 0}
        assert len(ops) == 1 and ops[0].mesh.mirror_axes == (0, 1, 2)
        assert set(vars(ops[0])) == {"mesh", "gammas", "eigenpairs", "_scratch"}

    def test_one_lawson_step_peaks_within_13_5_states(self):
        # a Robin heat run on 24^3 cells with F = 0 takes one Lawson step.
        # Its traced peak, in states of 2n floats, holds the stage rows and
        # the run's other buffers, about 13; an array of Lambda or the Robin
        # diagonal, one state each, would take it to about 15.  The data
        # are nudged off their mirror images, so the run keeps the full mesh
        config = on_the_box(robin_heat_config(3, 24))
        trace, peak = traced_peak(config)
        assert trace.mirror_axes == ()
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}
        assert peak <= 13.5 * 2 * config.mesh.n_cells * 8

    def test_one_folded_lawson_step_peaks_within_24_5_fold_states(self):
        # the same step from even data on 40^3 cells, folded onto 20^3.  In
        # states of the fold, the peak holds the fold's mesh, the run's
        # buffers and the final fields mirrored back to the box, 8 fold
        # states alone: about 23.8.  An array of Lambda or the Robin
        # diagonal, one fold state each, would take it past 24.5
        config = robin_heat_config(3, 40)
        trace, peak = traced_peak(config)
        assert trace.mirror_axes == (0, 1, 2)
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}
        assert peak <= 24.5 * 2 * (config.mesh.n_cells // 8) * 8

    def test_every_reaction_call_sees_float_errors_silenced(self):
        # the gamma = 5 bump starts on DP5, switches to the Lawson pair, whose
        # one trial is rejected, and back: each pair change evaluates the new
        # pair's first stage under a trial's error state, so no array call of
        # f1 or f2 warns
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0,) * 3), 8)
        nl, states = make_power_product(1.0, 2.0, 2.0), []

        def noting(f):
            def wrapped(u, v):
                if isinstance(u, np.ndarray):
                    states.append({k: np.geterr()[k] for k in ("over", "invalid", "divide")})
                return f(u, v)
            return wrapped

        g1, g2 = gaussian_bump(mesh, 3.0)
        trace = simulate(SolverConfig(
            mesh=mesh, nl=dataclasses.replace(nl, f1=noting(nl.f1), f2=noting(nl.f2)),
            gamma1=5.0, gamma2=5.0, g1=g1, g2=g2, t_end=2.0))
        assert trace.steps_by_pair["lawson_bs3"] == {"accepted": 0, "rejected": 1}
        assert trace.steps_by_pair["dp5"]["accepted"] > 0
        assert len(states) > 1000
        assert all(state == dict.fromkeys(("over", "invalid", "divide"), "ignore")
                   for state in states)

    @pytest.mark.parametrize("spec, cells", ANISOTROPIC, ids=["2d", "3d"])
    def test_zero_reaction_run_matches_the_matrix_exponential(self, spec, cells):
        # with N = 0 the Lawson steps apply e^{dt A} exactly, and the run
        # takes no other; gamma1 != gamma2 gives each field its modes
        mesh = build_mesh(spec, cells)
        x = mesh.cell_centers
        g1, g2 = np.cos(0.8 * x[:, 0]) + 0.5 * x[:, 1], 1.0 + 0.3 * np.sin(x[:, 0])
        trace = simulate(SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.5, gamma2=3.0,
                                      g1=g1, g2=g2, t_end=1.0, rel_tol=1e-6, abs_tol=1e-6))
        assert trace.steps_by_pair["lawson_bs3"]["accepted"] > 0
        assert trace.steps_by_pair["dp5"] == {"accepted": 0, "rejected": 0}
        final = trace.final_fields
        exact = (scipy.linalg.expm(final.t * dense_robin_operator(mesh, 0.5, 3.0))
                 @ np.concatenate([g1, g2]))
        n = mesh.n_cells
        for got, g, want in ((final.u, g1, exact[:n]), (final.v, g2, exact[n:])):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(g))


def on_the_box(config):
    """`config` with g1 larger in its first cell by 64 ulps of max|g1|,
    past the fold's tolerance of 4 eps of it: no axis of the data equals
    its mirror image, or is constant, to rounding, so `simulate` keeps the
    full mesh."""
    g1 = config.g1.copy()
    g1[0] += 64 * np.spacing(np.max(np.abs(g1)))
    return dataclasses.replace(config, g1=g1)


def lawson_operators(monkeypatch):
    """The operators `Mesh.robin_operator` builds from now on."""
    ops = []
    real = Mesh.robin_operator

    def kept(mesh, gamma1, gamma2):
        ops.append(real(mesh, gamma1, gamma2))
        return ops[-1]

    monkeypatch.setattr(Mesh, "robin_operator", kept)
    return ops


def traced_peak(config):
    """`simulate(config)` and the peak of its traced allocations, in bytes."""
    tracemalloc.start()
    try:
        trace = simulate(config)
        return trace, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fold_runs(spec, cells, nl, gammas, g1, g2, **options):
    """`simulate` from (g1, g2), which it folds or collapses, and
    `on_the_box` of the same config, which keeps the full mesh."""
    config = SolverConfig(mesh=build_mesh(spec, cells), nl=nl, gamma1=gammas[0],
                          gamma2=gammas[1], g1=g1, g2=g2, **options)
    return simulate(config), simulate(on_the_box(config))


def gaussian_bump(mesh, amplitude):
    """u0 = 0.5 + A e^{-4|x|^2} and v0 = 0.5 + (A/2) e^{-4|x|^2}."""
    bump = np.exp(-4.0 * np.sum(mesh.cell_centers ** 2, axis=1))
    return 0.5 + amplitude * bump, 0.5 + amplitude / 2.0 * bump


class TestFold:
    BOX = DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5))

    def test_cap_bound_run_matches_the_full_mesh(self):
        # a rejected Lawson trial, then DP5 steps held at its cap but the
        # last: the fold takes the same steps, and every row and the final
        # fields, mirrored back to the box, agree to rounding
        mesh = build_mesh(self.BOX, (8, 6, 4))
        g1, g2 = gaussian_bump(mesh, 3.0)
        folded, full = fold_runs(self.BOX, (8, 6, 4), make_power_product(1.0, 2.0, 2.0),
                                 (0.5, 3.0), g1, g2, t_end=0.2, rel_tol=1e-4, p=2.0)
        assert folded.mirror_axes == (0, 1, 2) and full.mirror_axes == ()
        assert folded.steps_by_pair == full.steps_by_pair == {
            "lawson_bs3": {"accepted": 0, "rejected": 1}, "dp5": {"accepted": 15, "rejected": 0}}
        assert folded.outcome == full.outcome == "reached_t_end"
        rows = np.array([s.row() for s in folded.samples])
        ref = np.array([s.row() for s in full.samples])
        assert np.all(ref[1:-1, -1] == _diffusion_cap(mesh)) and not np.any(np.isnan(ref))
        assert np.all(np.abs(rows - ref) <= 1e-12 * np.abs(ref))
        for got, want in ((folded.final_fields.u, full.final_fields.u),
                          (folded.final_fields.v, full.final_fields.v)):
            assert got.shape == want.shape == (mesh.n_cells,)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_blowup_run_matches_the_full_mesh(self):
        # error-controlled steps carry rounding into dt: the steps and t_est
        # agree, the rows to 1e-9 before the sup-norm passes 10x its start
        spec = DomainSpec("box", 3, half_extents=(1.0,) * 3)
        g1, g2 = gaussian_bump(build_mesh(spec, 8), 3.0)
        folded, full = fold_runs(spec, 8, make_power_product(1.0, 2.0, 2.0), (0.0, 0.0),
                                 g1, g2, t_end=1.0, p=2.0)
        assert folded.mirror_axes == (0, 1, 2) and full.mirror_axes == ()
        assert folded.steps_by_pair == full.steps_by_pair
        assert folded.outcome == full.outcome == "blowup_detected"
        t_folded, t_full = folded.blowup_estimate.t, full.blowup_estimate.t
        assert abs(t_folded - t_full) <= 1e-12 * t_full
        rows = np.array([s.row() for s in folded.samples])
        ref = np.array([s.row() for s in full.samples])
        early = np.maximum(ref[:, 9], ref[:, 10]) < 10.0 * max(ref[0, 9], ref[0, 10])
        assert 10 < early.sum() < len(ref)
        assert np.all(np.abs(rows[early] - ref[early]) <= 1e-9 * np.abs(ref[early]))

    def test_clamp_count_counts_the_box_cells(self):
        # negative data in 2 of the 8 octants: each cell of the fold counts 8 times
        spec = DomainSpec("box", 3, half_extents=(1.0,) * 3)
        mesh = build_mesh(spec, 6)
        g = np.where(mesh.cell_centers[:, 0] ** 2 < 0.2, -0.1, 1.0)
        folded, full = fold_runs(spec, 6, linear_decay(), (0.5, 0.5), g, g,
                                 t_end=1e-3, p=2.0)
        assert folded.mirror_axes == (0, 1, 2)
        assert folded.clamp_count == full.clamp_count > 0

    @pytest.mark.parametrize("cells, data, axes", [
        ((8, 6, 4), "even", (0, 1, 2)),
        ((7, 6, 5), "even", (1,)),
        ((5, 5, 5), "even", ()),
        ((8, 6, 4), "odd_in_x", (1, 2)),
        ((8, 6, 4), "skew", ()),
        ((8, 6, 4), "zero", (0, 1, 2)),
    ])
    def test_folds_even_axes_with_even_counts(self, cells, data, axes):
        mesh = build_mesh(self.BOX, cells)
        x = mesh.cell_centers
        g = {"even": 1.0 + np.cos(x[:, 0]) * x[:, 1] ** 2 * np.exp(-x[:, 2] ** 2),
             "odd_in_x": 1.0 + 0.1 * x[:, 0] * np.cos(x[:, 1]) * np.exp(-x[:, 2] ** 2),
             "skew": 1.0 + 0.1 * x @ [1.0, 2.0, 3.0],
             "zero": np.zeros(mesh.n_cells)}[data]
        trace = simulate(SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=0.5, gamma2=0.0,
                                      g1=g, g2=np.ones(mesh.n_cells), t_end=1e-3))
        assert trace.mirror_axes == axes
        assert trace.final_fields.u.shape == (mesh.n_cells,)

    @pytest.mark.parametrize("change", ["by_1e-13_of_the_sup_norm", "sign_of_a_near_zero_cell"])
    def test_data_off_their_mirror_images_past_rounding_keep_the_box(self, change):
        # even data changed in one corner cell: by 1e-13 of max|g|, past the
        # fold's tolerance, or, with 1e-20 in the 8 corners, to -1e-20, well
        # within it, where the box's clamp_count would count one cell and
        # the fold's 8
        mesh = build_mesh(self.BOX, (8, 6, 4))
        x = mesh.cell_centers
        g = 1.0 + np.cos(x[:, 0]) * x[:, 1] ** 2 * np.exp(-x[:, 2] ** 2)
        if change == "by_1e-13_of_the_sup_norm":
            g[0] += 1e-13 * np.max(np.abs(g))
        else:
            g[np.all(np.abs(x) == np.abs(x[0]), axis=1)] = 1e-20
            g[0] = -1e-20
        trace = simulate(SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=0.5, gamma2=0.0,
                                      g1=g, g2=np.ones(mesh.n_cells), t_end=1e-3, p=2.0))
        assert trace.mirror_axes == ()

    def test_data_on_linspace_centres_fold(self):
        # a bump on np.linspace's centres, which are off antisymmetric at
        # 24 cells, is even to about 2 eps of its sup-norm, not bit for
        # bit: it folds, and takes the steps of the same data on the box
        spec = DomainSpec("box", 3, half_extents=(1.0,) * 3)
        bump = np.exp(-4.0 * np.sum(centres_on(np.linspace(-1.0 + 1 / 24, 1.0 - 1 / 24, 24)) ** 2,
                                    axis=1))
        g1, g2 = 0.5 + 8.0 * bump, 0.5 + 4.0 * bump
        assert not bitwise_even_along_any_axis(g1, (24, 24, 24))
        folded, full = fold_runs(spec, 24, make_power_product(1.0, 2.0, 2.0), (0.0, 0.0),
                                 g1, g2, t_end=1.0)
        assert folded.mirror_axes == (0, 1, 2) and full.mirror_axes == ()
        assert folded.steps_by_pair == full.steps_by_pair
        assert folded.outcome == full.outcome == "blowup_detected"
        t_folded, t_full = folded.blowup_estimate.t, full.blowup_estimate.t
        assert abs(t_folded - t_full) <= 1e-12 * t_full

    def test_robin_heat_modes_on_their_own_grid_fold(self):
        # Robin modes on the centres -1 + (2/n)(i + 1/2), not antisymmetric
        # bit for bit at 40 cells, fold onto 20^3 and take one Lawson step
        config = robin_heat_config(3, 40)
        g = np.prod(np.cos(0.8 * centres_on(-1.0 + (2.0 / 40) * (np.arange(40) + 0.5))), axis=1)
        assert not bitwise_even_along_any_axis(g, (40, 40, 40))
        trace = simulate(dataclasses.replace(config, g1=g, g2=g))
        assert trace.mirror_axes == (0, 1, 2)
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 1, "rejected": 0},
                                       "dp5": {"accepted": 0, "rejected": 0}}


class TestCollapse:
    BOX = DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5))

    @staticmethod
    def x_only_data(mesh):
        """Data that vary along x alone, even in it."""
        x = mesh.cell_centers[:, 0]
        return 0.5 + 0.25 * np.cos(np.pi * x / 2), 0.75 - 0.25 * x ** 2

    def test_lawson_run_matches_the_full_mesh(self):
        # data along x alone collapse y and z and fold x: 8x6x4 cells step
        # as 4 cells, and the Lawson pair takes every step of the box, each
        # row and the final fields, broadcast back to the box, to rounding
        mesh = build_mesh(self.BOX, (8, 6, 4))
        g1, g2 = self.x_only_data(mesh)
        reduced, full = fold_runs(self.BOX, (8, 6, 4), make_power_product(1.0, 2.0, 2.0),
                                  (0.0, 0.0), g1, g2, t_end=0.2, rel_tol=1e-4, p=2.0)
        assert (reduced.collapsed_axes, reduced.mirror_axes) == ((1, 2), (0,))
        assert (full.collapsed_axes, full.mirror_axes) == ((), ())
        assert reduced.steps_by_pair == full.steps_by_pair == {
            "lawson_bs3": {"accepted": 5, "rejected": 0}, "dp5": {"accepted": 0, "rejected": 0}}
        assert reduced.outcome == full.outcome == "reached_t_end"
        rows = np.array([s.row() for s in reduced.samples])
        ref = np.array([s.row() for s in full.samples])
        assert not np.any(np.isnan(ref)) and np.all(ref[:, 4:6] > 0)
        assert np.all(np.abs(rows - ref) <= 1e-12 * np.abs(ref))
        for got, want in ((reduced.final_fields.u, full.final_fields.u),
                          (reduced.final_fields.v, full.final_fields.v)):
            assert got.shape == want.shape == (mesh.n_cells,)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_flat_blowup_matches_the_full_mesh(self):
        # criterion 1's run steps one cell: the box's steps, a rejected
        # Lawson trial among them, t_est to 1e-12 and every row at DP5's cap
        # to 1e-12.  Its gradient energies are exactly 0, where the box's
        # are rounding about 0, so they are held to 1e-12 of E
        trace, mesh = flat_blowup_3d()
        g = np.full(mesh.n_cells, 1.0)
        full = simulate(on_the_box(SolverConfig(
            mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0, gamma2=0.0,
            g1=g, g2=g, t_end=1.0)))
        assert (trace.collapsed_axes, trace.mirror_axes) == ((0, 1, 2), ())
        assert trace.steps_by_pair == full.steps_by_pair
        assert trace.steps_by_pair["lawson_bs3"] == {"accepted": 0, "rejected": 1}
        assert trace.outcome == full.outcome == "blowup_detected"
        t_est, t_full = trace.blowup_estimate.t, full.blowup_estimate.t
        assert abs(t_est - t_full) <= 1e-12 * t_full
        rows = np.array([s.row() for s in trace.samples])
        ref = np.array([s.row() for s in full.samples])
        at_cap = ref[:, -1] == _diffusion_cap(mesh)
        assert at_cap.sum() > 50 and np.array_equal(rows[:, -1] == _diffusion_cap(mesh), at_cap)
        assert np.all(rows[:, 4:6] == 0.0)
        assert np.array_equal(np.isnan(rows), np.isnan(ref))  # scriptE, with no p
        scale = np.abs(ref[at_cap])
        scale[:, 4:6] = scale[:, [1]]
        close = np.abs(rows[at_cap] - ref[at_cap]) <= 1e-12 * scale
        assert np.all(close | np.isnan(ref[at_cap]))

    def test_flat_blowup_steps_the_ode_with_no_matrix(self, monkeypatch):
        # criterion 1's run steps y' = N(y) on one cell, whose operator is
        # zero: it builds no DIA matrix and keeps its steps and t_est
        ops = lawson_operators(monkeypatch)
        trace, _ = flat_blowup_3d()
        assert len(ops) == 1 and "matrix" not in vars(ops[0])
        assert trace.steps_by_pair == {"lawson_bs3": {"accepted": 0, "rejected": 1},
                                       "dp5": {"accepted": 354, "rejected": 0}}
        assert trace.blowup_estimate.t == 0.25000000018831553

    @pytest.mark.parametrize("cells, data, gammas, collapsed, axes", [
        ((8, 6, 4), "flat", (0.0, 0.0), (0, 1, 2), ()),
        ((8, 6, 4), "x_only", (0.0, 0.0), (1, 2), (0,)),
        ((7, 5, 5), "flat", (0.0, 0.0), (0, 1, 2), ()),
        ((7, 5, 5), "x_only", (0.0, 0.0), (1, 2), ()),
        ((8, 6, 4), "flat", (0.5, 0.0), (), (0, 1, 2)),
        ((8, 6, 4), "flat", (0.0, 1e-300), (), (0, 1, 2)),
        ((8, 6, 4), "flat_nudged_by_1_ulp", (0.0, 0.0), (0, 1, 2), ()),
        ((8, 6, 4), "flat_nudged_by_64_ulps", (0.0, 0.0), (), ()),
        ((8, 6, 4), "x_only_sign_flip", (0.0, 0.0), (), ()),
    ])
    def test_collapses_constant_axes_under_neumann_walls(self, cells, data, gammas,
                                                         collapsed, axes):
        # each axis along which both fields are constant to 4 eps of their
        # sup-norm collapses, at any cell count, when both gammas are 0; the
        # fold reads the other axes.  One cell 64 ulps off, as `on_the_box`
        # makes it, keeps every axis, and so does a first x slice of 1e-20
        # with one cell -1e-20, well within the tolerance, where the box's
        # clamp_count would count one cell and a collapse's 24
        mesh = build_mesh(self.BOX, cells)
        if data.startswith("x_only"):
            g1, g2 = self.x_only_data(mesh)
            if data.endswith("sign_flip"):
                g1[mesh.cell_centers[:, 0] == mesh.cell_centers[0, 0]] = 1e-20
                g1[0] = -1e-20
        else:
            g1, g2 = np.full(mesh.n_cells, 0.5), np.full(mesh.n_cells, 0.75)
        if data.startswith("flat_nudged"):
            g1[0] += (1 if data.endswith("1_ulp") else 64) * np.spacing(0.5)
        trace = simulate(SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=gammas[0],
                                      gamma2=gammas[1], g1=g1, g2=g2, t_end=1e-3))
        assert (trace.collapsed_axes, trace.mirror_axes) == (collapsed, axes)
        assert trace.final_fields.u.shape == trace.final_fields.v.shape == (mesh.n_cells,)

    def test_clamp_count_counts_the_box_cells(self):
        # negative constant data: each collapsed cell counts for the box's 192
        mesh = build_mesh(self.BOX, (8, 6, 4))
        g = np.full(mesh.n_cells, -0.5)
        reduced, full = fold_runs(self.BOX, (8, 6, 4), linear_decay(), (0.0, 0.0), g, g,
                                  t_end=1e-3, p=2.0)
        assert reduced.collapsed_axes == (0, 1, 2) and full.collapsed_axes == ()
        assert reduced.clamp_count == full.clamp_count > 0


def centres_on(axis):
    """The centres, C order, of the cube grid with `axis` on each axis."""
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def bitwise_even_along_any_axis(g, shape):
    grid = g.reshape(shape)
    return any(np.array_equal(grid, np.flip(grid, axis)) for axis in range(len(shape)))


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

    def test_refused_fit_after_an_underflow_stays_an_underflow(self, monkeypatch, box2d):
        # the run above, with a fit that refuses its tail: the underflow
        # comes above the fallback level, so the fit is tried, and its
        # refusal leaves a step underflow with no estimate, raising nothing
        tried = []

        def refuse(ts, sups):
            tried.append(sups[-1])
            raise InsufficientSamples("refused")

        monkeypatch.setattr(rdblowup.solver, "estimate_blowup_time", refuse)
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                      gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0))
        assert len(tried) == 1 and 1e3 <= tried[0] < 1e8
        assert trace.outcome == OUTCOME_STEP_UNDERFLOW
        assert trace.blowup_estimate is None
        assert not trace.u_crossed and not trace.v_crossed
        assert trace.final_fields.t < 1.0

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

    def test_reaction_evaluated_once_before_the_first_step(self, monkeypatch, box2d):
        # N(g) serves both the check of A g + N(g) and the Lawson pair's
        # first stage, so each reaction runs once at t = 0
        calls = []
        nl = Nonlinearity(family="custom", params={},
                          f1=lambda u, v: calls.append("f1") or -u,
                          f2=lambda u, v: calls.append("f2") or -v)
        at_each_step = []

        def logged_step(*args):
            at_each_step.append(list(calls))
            return step(*args)

        monkeypatch.setattr(rdblowup.solver, "step", logged_step)
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1.0)
        simulate(SolverConfig(mesh=mesh, nl=nl, gamma1=0.5, gamma2=1.0,
                              g1=g, g2=g, t_end=1e-3))
        assert at_each_step[0] == ["f1", "f2"]

    def test_non_finite_initial_right_hand_side_raises(self, box2d):
        # the data and the threshold are finite, but F = u^2 v^2 from 1e200
        # makes N(g), and so A g + N(g), overflow before any step
        mesh = build_mesh(box2d, 8)
        g = np.full(mesh.n_cells, 1e200)
        cfg = SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0,
                           gamma2=0.0, g1=g, g2=g, t_end=1.0, sup_threshold=1e300)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteField, match="initial right-hand side"):
            simulate(cfg)


    def test_non_finite_first_dp5_stage_raises(self, box2d):
        # N(g) = -g is finite and sets a first dt below DP5's cap, but A g of
        # a 1e307 checkerboard overflows, so DP5's first stage is not finite
        mesh = build_mesh(box2d, 8)
        g = 1e307 * checkerboard(mesh)
        cfg = SolverConfig(mesh=mesh, nl=linear_decay(), gamma1=0.0, gamma2=0.0, g1=g,
                           g2=g, t_end=1.0, sup_threshold=1e308)
        with pytest.raises(NonFiniteField, match="initial right-hand side"):
            simulate(cfg)


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

    # an infinite t_end never ends a run that does not blow up
    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_t_end_must_be_positive(self, mesh2d, t_end):
        g = np.ones(mesh2d.n_cells)
        with pytest.raises(ValueError, match="t_end must be finite and > 0"):
            SolverConfig(mesh=mesh2d, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                         g1=g, g2=g, t_end=t_end)

    # the monitor's constants follow the rules of the bounds that define J
    # and scriptE: else a run writes NaN or sign-flipped J rows, a scriptE no
    # bound defines, or ends in a numerical failure instead of an input error
    @pytest.mark.parametrize("options, match", [
        ({"alpha": math.nan}, "alpha must be finite and > 0"),
        ({"alpha": -3.0}, "alpha must be finite and > 0"),
        ({"p": 0.5}, "p must be finite and >= 1"),
        ({"p": -1.0}, "p must be finite and >= 1"),
        ({"p": math.nan}, "p must be finite and >= 1"),
    ], ids=["alpha_nan", "alpha_negative", "p_half", "p_negative", "p_nan"])
    def test_monitor_alpha_and_p_must_be_admissible(self, mesh3d, options, match):
        g = np.ones(mesh3d.n_cells)
        with pytest.raises(ValueError, match=match):
            SolverConfig(mesh=mesh3d, nl=make_power_product(1.0, 2.0, 2.0), gamma1=0.0,
                         gamma2=0.0, g1=g, g2=g, t_end=1.0, **options)

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

    def test_falling_tail_has_no_decreasing_fit(self):
        # every sample after the first is above 10x it, but the sup-norms
        # fall, so no candidate's line of sup^(-1/theta) falls to a root
        ts = np.linspace(0.0, 1.0, 20)
        sups = 100.0 - 10.0 * ts
        sups[0] = 1.0
        with pytest.raises(InsufficientSamples, match="no decreasing power-law fit"):
            estimate_blowup_time(ts, sups)

    def test_insufficient_samples(self):
        ts = np.linspace(0.0, 1.0, 5)
        sups = np.full(5, 2.0)
        with pytest.raises(InsufficientSamples):
            estimate_blowup_time(ts, sups)

    def test_estimate_never_before_last_sample(self):
        # sup = 1/(0.95 - t) up to t = 0.94, then 1e4 at t = 0.97: the best
        # fit, theta = 1.5, has its root at 0.9698, before the last sample,
        # so the clamp puts the estimate at that sample
        ts = np.append(np.linspace(0.0, 0.94, 100), 0.97)
        sups = np.append(1.0 / (0.95 - ts[:-1]), 1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_blowup_time(ts, sups)
        assert est.theta == 1.5
        assert est.t == ts[-1]
