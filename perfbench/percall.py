"""Standalone per-call timings of single layers, at several mesh sizes.

Each figure is the median of repeated calls on fixed smooth data, taken
with no shims installed.  A name the package no longer exports is
reported as absent instead of stopping the run.
"""

import statistics
from time import perf_counter

import numpy as np

from workloads import zero_reaction

# Computed, not measured: a minimal 2N+1-point stencil model of one `rhs`
# call for F = u^2 v^2 in 3D.  Per cell and component the Laplacian costs
# 5 flops per axis and the reaction term 4 flops, plus 1 to add them; the
# compulsory traffic is reading u, v and writing u_t, v_t in float64.
RHS_FLOPS_PER_CELL = 2 * (5 * 3 + 4 + 1)
RHS_BYTES_PER_CELL = 4 * 8


def _median_call_s(fn, min_seconds, min_reps, max_reps=400):
    times = []
    start = perf_counter()
    while len(times) < min_reps or (perf_counter() - start < min_seconds
                                    and len(times) < max_reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure(rd, quick=False):
    """Return ({metric: (value, unit)}, [absent names])."""
    min_seconds, min_reps = (0.0, 2) if quick else (0.12, 5)
    out, absent = {}, []

    def timed(name, unit, scale, fn):
        try:
            out[name] = (_median_call_s(fn, min_seconds, min_reps) * scale, unit)
        except (AttributeError, TypeError) as exc:
            absent.append(f"{name} ({type(exc).__name__}: {exc})")

    power = rd.make_power_product(1.0, 2.0, 2.0)
    zero = zero_reaction(rd)
    spec = rd.DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0))
    for n in (16, 32, 64):
        mesh = rd.build_mesh(spec, n)
        x = mesh.cell_centers
        fields = rd.FieldPair(u=1.0 + 0.1 * np.cos(x[:, 0]),
                              v=1.0 + 0.1 * np.cos(x[:, 1]), t=0.0, nonneg=True)
        timed(f"solver.rhs_us.n{n}", "us", 1e6,
              lambda: rd.rhs(fields, mesh, power, 0.5, 0.5))
        timed(f"solver.rhs_zero_us.n{n}", "us", 1e6,
              lambda: rd.rhs(fields, mesh, zero, 0.5, 0.5))
        timed(f"functionals.energy_sample_us.n{n}", "us", 1e6,
              lambda: rd.energy_sample(fields, mesh, nl=power, alpha=1.0,
                                       gamma1=0.5, gamma2=0.5, p=2.0, dt=1e-3))
        if n == 32:
            timed("functionals.functional_J_us.n32", "us", 1e6,
                  lambda: rd.functional_J(fields, mesh, power, 1.0, 0.5, 0.5))
    for n in (16, 40, 64):
        timed(f"geometry.build_mesh_ms.n{n}", "ms", 1e3,
              lambda: rd.build_mesh(spec, n))
    out["solver.rhs_flops_per_cell"] = (float(RHS_FLOPS_PER_CELL), "flop")
    out["solver.rhs_bytes_per_cell"] = (float(RHS_BYTES_PER_CELL), "B")
    return out, absent
