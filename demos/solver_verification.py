"""Verification of the method-of-lines solver against exact solutions.

Three classic checks:
  * manufactured Robin-wall solution e^{-t} cos(lam x1) cos(lam x2) with
    gamma = lam tan(lam): observed spatial convergence order,
  * pure Neumann heat flow conserves total mass to rounding,
  * pure Robin heat flow strictly dissipates the L2 energy.
"""

import math

import numpy as np

from rdblowup.functionals import interior_integral
from rdblowup.geometry import DomainSpec, build_mesh
from rdblowup.nonlinearity import Nonlinearity
from rdblowup.solver import SolverConfig, simulate


def zero_reaction():
    return Nonlinearity(family="custom", params={},
                        f1=lambda u, v: 0.0 * u,
                        f2=lambda u, v: 0.0 * v, F=None)


def main():
    spec = DomainSpec("box", 2, half_extents=(1.0, 1.0))

    lam = 1.0 / math.sqrt(2.0)
    gamma = lam * math.tan(lam)
    t_end = 0.25
    print(f"manufactured solution, gamma = lam*tan(lam) = {gamma:.6f}:")
    errs = []
    for n in (8, 16, 32):
        mesh = build_mesh(spec, n)
        x = mesh.cell_centers
        g = np.cos(lam * x[:, 0]) * np.cos(lam * x[:, 1])
        cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=gamma,
                           gamma2=gamma, g1=g, g2=g, t_end=t_end,
                           rel_tol=1e-10, abs_tol=1e-12)
        trace = simulate(cfg)
        err = float(np.max(np.abs(trace.final_fields.u - math.exp(-t_end) * g)))
        errs.append(err)
        print(f"  n = {n:3d}: max error {err:.3e}")
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    print(f"  observed orders: {np.round(orders, 3).tolist()}")

    mesh = build_mesh(spec, 16)
    g = 1.0 + 0.5 * np.cos(np.pi * mesh.cell_centers[:, 0])
    cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.0, gamma2=0.0,
                       g1=g, g2=g, t_end=0.1)
    trace = simulate(cfg)
    m0 = interior_integral(mesh, g)
    m1 = interior_integral(mesh, trace.final_fields.u)
    print(f"\nNeumann mass conservation: drift {abs(m1 - m0) / abs(m0):.2e}")

    g = np.full(mesh.n_cells, 1.0)
    cfg = SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=1.0, gamma2=1.0,
                       g1=g, g2=g, t_end=0.2)
    trace = simulate(cfg)
    E = np.array([s.E for s in trace.samples])
    print(f"Robin dissipation: E(0) = {E[0]:.6f} -> E(t_end) = {E[-1]:.6f}, "
          f"strictly decreasing: {bool(np.all(np.diff(E) < 0))}")


if __name__ == "__main__":
    main()
