import numpy as np
import pytest
from hypothesis import settings

# Property tests replay the same examples on every run and carry no time
# limit per example, so a slow shared machine cannot make them flaky.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40,
                          database=None)
settings.load_profile("tier1")

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from rdblowup.geometry import DomainSpec, build_mesh
from rdblowup.nonlinearity import Nonlinearity


def ghost_cell_laplacian(mesh, gamma):
    """Dense Robin Laplacian, column by column: pad each axis with ghost
    cells g * (boundary cell), g = (2 - gamma h)/(2 + gamma h), and take
    second differences."""
    n = mesh.n_cells
    cols = np.eye(n).reshape(mesh.shape + (n,))
    out = np.zeros_like(cols)
    for axis, ha in enumerate(mesh.h):
        g = (2.0 - gamma * ha) / (2.0 + gamma * ha)
        lo = g * np.take(cols, [0], axis=axis)
        hi = g * np.take(cols, [-1], axis=axis)
        padded = np.moveaxis(np.concatenate([lo, cols, hi], axis=axis), axis, 0)
        second = padded[2:] - 2.0 * padded[1:-1] + padded[:-2]
        out += np.moveaxis(second, 0, axis) / ha**2
    return out.reshape(n, n)


def dense_robin_operator(mesh, gamma1, gamma2) -> np.ndarray:
    """A of the stacked state y = [u; v] as a dense (2n, 2n) matrix, from the
    ghost-cell assembly alone: each field's Robin Laplacian in its diagonal
    block, and no coupling between the fields."""
    n = mesh.n_cells
    A = np.zeros((2 * n, 2 * n))
    A[:n, :n], A[n:, n:] = ghost_cell_laplacian(mesh, gamma1), ghost_cell_laplacian(mesh, gamma2)
    return A


def zero_reaction() -> Nonlinearity:
    """Pure heat flow: f1 = f2 = 0."""
    return Nonlinearity(family="custom", params={},
                        f1=lambda u, v: 0.0 * u,
                        f2=lambda u, v: 0.0 * v, F=None)


def linear_decay() -> Nonlinearity:
    """f1 = -u, f2 = -v (no blow-up)."""
    return Nonlinearity(family="custom", params={},
                        f1=lambda u, v: -u,
                        f2=lambda u, v: -v, F=None)


@pytest.fixture
def box2d():
    return DomainSpec("box", 2, half_extents=(1.0, 1.0))


@pytest.fixture
def box3d():
    return DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.0))


@pytest.fixture
def mesh2d(box2d):
    return build_mesh(box2d, 16)


@pytest.fixture
def mesh3d(box3d):
    return build_mesh(box3d, 8)


def brute_force_geometry(spec, samples_per_axis=60):
    """Independent rho/d oracle for boxes: minimize x.nu over sampled
    boundary points, maximize |x| over the same samples (the max of |x|
    over the closure of a box is attained on the boundary)."""
    assert spec.kind == "box"
    L = np.asarray(spec.half_extents)
    N = spec.dimension
    axes = [np.linspace(-Li, Li, samples_per_axis) for Li in L]
    rho = np.inf
    d2 = 0.0
    for axis in range(N):
        for side in (-1.0, 1.0):
            coords = list(axes)
            coords[axis] = np.array([side * L[axis]])
            grid = np.meshgrid(*coords, indexing="ij")
            pts = np.stack([g.ravel() for g in grid], axis=-1)
            nu = np.zeros(N)
            nu[axis] = side
            rho = min(rho, float(np.min(pts @ nu)))
            d2 = max(d2, float(np.max(np.sum(pts**2, axis=1))))
    return rho, float(np.sqrt(d2))
