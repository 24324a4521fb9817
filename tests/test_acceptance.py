"""End-to-end acceptance suite.

Each test exercises one headline capability at desk scale, records a
single PASS/FAIL line (shown in the pytest terminal summary), and then
asserts the stated tolerances.
"""

import time

import numpy as np

import conftest
from rdblowup.bounds import (
    MODE_A2PRIME,
    lower_bound_blowup,
    lower_bound_pipeline,
    upper_bound_blowup,
)
from rdblowup.functionals import check_trace_monitors
from rdblowup.geometry import DomainSpec, build_mesh, geometry_constants
from rdblowup.nonlinearity import (
    THRESHOLD_BLOWUP_SMALL_AB,
    check_A2prime,
    check_H1,
    classify_absorption,
    make_absorption,
    make_power_product,
)
from rdblowup.oracle import brute_force_integral, ode_reduce, u2v3_equal_unit_blowup
from rdblowup.solver import OUTCOME_BLOWUP, SolverConfig, simulate

from conftest import brute_force_geometry, zero_reaction


def record(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"criterion {criterion}: {verdict} - {detail}")
    assert ok, detail


def constant_data(mesh, c1, c2):
    return np.full(mesh.n_cells, c1), np.full(mesh.n_cells, c2)


# run (1) feeds both criterion 1 and the monitor criterion 6
_run1_cache = {}


def run1_trace():
    if "trace" not in _run1_cache:
        spec = DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0))
        mesh = build_mesh(spec, 16)
        g = np.full(mesh.n_cells, 1.0)
        cfg = SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                           gamma1=0.0, gamma2=0.0, g1=g, g2=g, t_end=1.0,
                           alpha=1.0)
        _run1_cache["trace"] = simulate(cfg)
    return _run1_cache["trace"]


def test_criterion_1_exact_equality_case():
    # F = u^2 v^2, alpha = 1, Neumann, g = 1 on [-1,1]^3: the differential
    # inequality is an equality and every layer must reproduce t* = 1/4
    t0 = time.monotonic()
    spec = DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0))
    mesh = build_mesh(spec, 16)
    nl = make_power_product(1.0, 2.0, 2.0)
    g1, g2 = constant_data(mesh, 1.0, 1.0)

    res = upper_bound_blowup(nl, g1, g2, mesh, 0.0, 0.0, 1.0)
    upper_err = abs(res.t_upper - 0.25)

    oracle = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
    t_ode, unc_ode = oracle.blowup_time
    ode_err = abs(t_ode - 0.25)

    trace = run1_trace()
    pde_err = abs(trace.blowup_estimate.t - 0.25)
    elapsed = time.monotonic() - t0

    ok = (upper_err < 1e-9 and ode_err < 1e-6 and unc_ode < 1e-6
          and trace.outcome == OUTCOME_BLOWUP and pde_err < 1e-3
          and elapsed < 60.0)
    record(1, ok,
           f"t_upper err {upper_err:.2e}, ode err {ode_err:.2e}, "
           f"pde err {pde_err:.2e}, {elapsed:.1f}s at 16^3")


def test_criterion_2_quintic_example():
    # F = u^2 v^3, alpha = 3/2, Neumann, g = 1 on [-1,1]^2
    nl = make_power_product(1.0, 2.0, 3.0)
    spec = DomainSpec("box", 2, half_extents=(1.0, 1.0))
    mesh = build_mesh(spec, 16)
    g1, g2 = constant_data(mesh, 1.0, 1.0)
    res = upper_bound_blowup(nl, g1, g2, mesh, 0.0, 0.0, 1.5)
    upper_err = abs(res.t_upper - 2.0 / 15.0)

    form_M = 1.0 / (res.alpha * res.M * res.E0**res.alpha)
    forms_agree = abs(form_M - res.t_upper) <= 1e-12 * res.t_upper

    oracle = ode_reduce(nl, 1.0, 1.0, t_max=1.0)
    t_ode, _ = oracle.blowup_time
    closed = u2v3_equal_unit_blowup()

    ok = (upper_err < 1e-12 and forms_agree
          and abs(t_ode - closed) < 1e-6 and t_ode <= 2.0 / 15.0)
    record(2, ok,
           f"t_upper err {upper_err:.2e}, oracle {t_ode:.6f} <= 2/15, "
           f"closed form {closed:.6f}")


def test_criterion_3_H1_threshold():
    nl = make_power_product(1.0, 2.0, 3.0)
    rep_ok = check_H1(nl, 1.5)
    rep_bad = check_H1(nl, 1.6)
    # slack scales as 5 - 2(1 + alpha): zero at 3/2, negative above
    ok = (rep_ok.holds and not rep_bad.holds
          and rep_bad.margin < 0 and rep_bad.witness is not None)
    record(3, ok,
           f"alpha=1.5 holds (margin {rep_ok.margin:.2e}), "
           f"alpha=1.6 fails (margin {rep_bad.margin:.2e} at {rep_bad.witness})")


def test_criterion_4_lower_bound_pipeline():
    nl = make_power_product(1.0, 2.0, 2.0)
    ball = DomainSpec("ball", 3, radius=1.0)
    res = lower_bound_pipeline(nl, 1.0, 1.0, ball, p=2.0, k1=2.0, k2=2.0,
                               mode=MODE_A2PRIME)
    w_top = 1.0 / np.sqrt(res.scriptE0)
    trap = brute_force_integral(
        lambda w: 2.0 * w**3 / (res.K1 * w**3 + res.K2), 0.0, w_top, 400000)
    trap_err = abs(res.t_lower - trap)
    ok = (res.integral_abs_error <= 1e-10
          and 0.0 < res.t_lower <= 0.25
          and trap_err < 1e-8)
    record(4, ok,
           f"t_lower {res.t_lower:.6e} in (0, 0.25], rounding bound "
           f"{res.integral_abs_error:.1e}, trapezoid diff {trap_err:.1e}")


def test_criterion_5_absorption_example():
    t0 = time.monotonic()
    nl = make_absorption(3.0, 3.0, 3.0, 3.0, 0.01, 0.01)
    rep = check_A2prime(nl, 1.0, 1.0, 2.0)
    branch = classify_absorption(3.0, 3.0, 3.0, 3.0, 0.01, 0.01)

    spec = DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0))
    mesh = build_mesh(spec, 24)
    g1, g2 = constant_data(mesh, 2.0, 2.0)
    lb = lower_bound_pipeline(nl, g1, g2, mesh, p=2.0, k1=1.0, k2=1.0,
                              mode=MODE_A2PRIME)
    cfg = SolverConfig(mesh=mesh, nl=nl, gamma1=0.0, gamma2=0.0,
                       g1=g1, g2=g2, t_end=1.0, p=2.0)
    trace = simulate(cfg)
    elapsed = time.monotonic() - t0

    ok = (rep.holds and branch == THRESHOLD_BLOWUP_SMALL_AB
          and trace.outcome == OUTCOME_BLOWUP
          and trace.blowup_estimate.t >= lb.t_lower
          and elapsed < 300.0)
    record(5, ok,
           f"A2' holds, branch {branch}, t_est {trace.blowup_estimate.t:.5f} "
           f">= t_lower {lb.t_lower:.3e}, {elapsed:.1f}s at 24^3")


def test_criterion_6_monitor_suite():
    trace = run1_trace()
    mon = check_trace_monitors(trace.samples, alpha=1.0)
    ok = (mon.n_checked > 100
          and mon.j_monotone_violations == 0
          and mon.growth_inequality_violations == 0)
    record(6, ok,
           f"{mon.n_checked} samples checked, "
           f"{mon.j_monotone_violations} J-monotonicity violations, "
           f"{mon.growth_inequality_violations} growth-inequality violations")


def test_criterion_7_solver_verification():
    import math

    t0 = time.monotonic()
    spec = DomainSpec("box", 2, half_extents=(1.0, 1.0))

    # manufactured Robin solution e^{-t} cos(lam x1) cos(lam x2)
    lam = 1.0 / math.sqrt(2.0)
    gamma = lam * math.tan(lam)
    t_end = 0.25
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(spec, n)
        x = mesh.cell_centers
        g = np.cos(lam * x[:, 0]) * np.cos(lam * x[:, 1])
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma,
                           gamma2=gamma, g1=g, g2=g, t_end=t_end,
                           rel_tol=1e-10, abs_tol=1e-12)
        trace = simulate(cfg)
        exact = math.exp(-t_end) * g
        errs.append(float(np.max(np.abs(trace.final_fields.u - exact))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))

    # Neumann mass conservation
    mesh = build_mesh(spec, 16)
    from rdblowup.functionals import interior_integral
    g = 1.0 + 0.5 * np.cos(np.pi * mesh.cell_centers[:, 0])
    cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                       g1=g, g2=g, t_end=0.1)
    trace = simulate(cfg)
    m0 = interior_integral(mesh, g)
    mass_rel = abs(interior_integral(mesh, trace.final_fields.u) - m0) / abs(m0)

    # Robin dissipation
    g = np.full(mesh.n_cells, 1.0)
    cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=1.0, gamma2=1.0,
                       g1=g, g2=g, t_end=0.2)
    trace = simulate(cfg)
    E = np.array([s.E for s in trace.samples])
    robin_monotone = bool(np.all(np.diff(E) < 0))
    elapsed = time.monotonic() - t0

    ok = (np.all(orders >= 1.9) and mass_rel < 1e-10 and robin_monotone
          and elapsed < 120.0)
    record(7, ok,
           f"spatial orders {np.round(orders, 3).tolist()}, mass drift "
           f"{mass_rel:.1e}, Robin energy monotone: {robin_monotone}, "
           f"{elapsed:.1f}s")


def test_criterion_8_quadrature_geometry_oracles():
    rng = np.random.default_rng(2024)
    worst_geo = 0.0
    for _ in range(10):
        L = tuple(rng.uniform(0.3, 3.0, size=3))
        spec = DomainSpec("box", 3, half_extents=L)
        geo = geometry_constants(spec)
        rho_bf, d_bf = brute_force_geometry(spec)
        worst_geo = max(worst_geo, abs(geo.rho - rho_bf), abs(geo.d - d_bf))

    worst_int = 0.0
    for _ in range(20):
        E0 = rng.uniform(0.5, 50.0)
        K1 = rng.uniform(0.1, 20.0)
        K2 = rng.uniform(0.1, 200.0)
        val, _ = lower_bound_blowup(E0, K1, K2)
        w_top = 1.0 / np.sqrt(E0)
        ref = brute_force_integral(
            lambda w: 2.0 * w**3 / (K1 * w**3 + K2), 0.0, w_top, 200000)
        worst_int = max(worst_int, abs(val - ref))

    ok = worst_geo < 1e-6 and worst_int < 1e-8
    record(8, ok,
           f"geometry constants worst diff {worst_geo:.1e} (10 boxes), "
           f"integral worst diff {worst_int:.1e} (20 triples)")


def test_gaussian_bump_folds_onto_the_octant():
    # the gamma = 0 bump, F = u^2 v^2 on [-1, 1]^3 at 16^3 cells from
    # u0 = 0.5 + 3 e^{-4|x|^2}, v0 = 0.5 + 1.5 e^{-4|x|^2}: even data on an
    # even mesh fold all three axes; t_est is that of the full mesh
    mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0)), 16)
    bump = np.exp(-4.0 * np.sum(mesh.cell_centers ** 2, axis=1))
    trace = simulate(SolverConfig(mesh=mesh, nl=make_power_product(1.0, 2.0, 2.0),
                                  gamma1=0.0, gamma2=0.0, g1=0.5 + 3.0 * bump,
                                  g2=0.5 + 1.5 * bump, t_end=1.0))
    assert trace.mirror_axes == (0, 1, 2)
    assert trace.outcome == OUTCOME_BLOWUP
    assert abs(trace.blowup_estimate.t - 0.4491873) <= 1e-6
    assert trace.final_fields.u.shape == (mesh.n_cells,)
