import math

import numpy as np
import pytest

import rdblowup.geometry as geometry
from conftest import brute_force_geometry, zero_reaction
from rdblowup.errors import BallMeshUnsupported, NonFiniteSample, ResolutionTooCoarse
from rdblowup.functionals import FieldPair, discrete_gradient_energy
from rdblowup.geometry import (
    DomainSpec,
    boundary_integral,
    build_mesh,
    geometry_constants,
    interior_integral,
)
from rdblowup.solver import SolverConfig, rhs, simulate


def outward_normals(mesh):
    """Unit normal of each boundary face, read from the mesh's face order:
    axis by axis, low side then high side."""
    N = len(mesh.shape)
    normals = []
    for axis in range(N):
        faces_per_side = mesh.n_cells // mesh.shape[axis]
        for side in (-1.0, 1.0):
            normal = np.zeros(N)
            normal[axis] = side
            normals.append(np.tile(normal, (faces_per_side, 1)))
    return np.concatenate(normals)


class TestDomainSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            DomainSpec("box", 4, half_extents=(1, 1, 1, 1))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            DomainSpec("box", 2, half_extents=(1.0, 0.0))

    def test_ball_requires_3d(self):
        with pytest.raises(ValueError):
            DomainSpec("ball", 2, radius=1.0)

    def test_volumes(self):
        assert DomainSpec("box", 3, half_extents=(1, 1, 1)).volume == 8.0
        ball = DomainSpec("ball", 3, radius=2.0)
        assert ball.volume == pytest.approx(4.0 / 3.0 * math.pi * 8.0)


class TestBuildMesh:
    def test_counts_2d(self, box2d):
        mesh = build_mesh(box2d, 4)
        assert mesh.n_cells == 16
        assert mesh.face_cells.size == 16
        assert mesh.h == (0.5, 0.5)

    def test_counts_3d(self, box3d):
        mesh = build_mesh(box3d, 4)
        assert mesh.n_cells == 64
        assert mesh.face_cells.size == 96

    def test_ball_unsupported(self):
        with pytest.raises(BallMeshUnsupported):
            build_mesh(DomainSpec("ball", 3, radius=1.0), 8)

    def test_too_coarse(self, box2d):
        with pytest.raises(ResolutionTooCoarse):
            build_mesh(box2d, 3)

    def test_normals_unit_and_outward(self, box3d):
        # the face order's normals point outward: x.nu > 0 at every
        # adjacent boundary cell center
        mesh = build_mesh(box3d, (4, 5, 6))
        normals = outward_normals(mesh)
        assert normals.shape == (mesh.face_cells.size, 3)
        x_nu = np.sum(mesh.cell_centers[mesh.face_cells] * normals, axis=1)
        assert np.all(x_nu > 0)

    def test_cell_volumes_sum_to_domain_volume(self, box3d):
        mesh = build_mesh(box3d, 5)
        assert mesh.n_cells * mesh.cell_volume == pytest.approx(8.0, abs=1e-14)


class TestGeometryConstants:
    def test_unit_ball(self):
        geo = geometry_constants(DomainSpec("ball", 3, radius=1.0))
        assert geo.rho == 1.0 and geo.d == 1.0

    def test_unit_cube(self, box3d):
        geo = geometry_constants(box3d)
        assert geo.rho == 1.0
        assert geo.d == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_slab_box(self):
        spec = DomainSpec("box", 3, half_extents=(2.0, 1.0, 1.0))
        geo = geometry_constants(spec)
        assert geo.rho == 1.0
        assert geo.d == pytest.approx(math.sqrt(6.0), abs=1e-15)

    def test_matches_brute_force_sampling(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            L = tuple(rng.uniform(0.3, 3.0, size=3))
            spec = DomainSpec("box", 3, half_extents=L)
            geo = geometry_constants(spec)
            rho_bf, d_bf = brute_force_geometry(spec)
            assert abs(geo.rho - rho_bf) < 1e-6
            assert abs(geo.d - d_bf) < 1e-6


class TestQuadrature:
    def test_constant_interior_2d(self, mesh2d):
        assert interior_integral(mesh2d, np.ones(mesh2d.n_cells)) == pytest.approx(4.0)

    def test_constant_interior_3d(self, mesh3d):
        assert interior_integral(mesh3d, np.ones(mesh3d.n_cells)) == pytest.approx(8.0)

    def test_constant_boundary_2d(self, mesh2d):
        ones = np.ones(mesh2d.face_cells.size)
        assert boundary_integral(mesh2d, ones) == pytest.approx(8.0)

    def test_constant_boundary_3d(self, mesh3d):
        ones = np.ones(mesh3d.face_cells.size)
        assert boundary_integral(mesh3d, ones) == pytest.approx(24.0)

    def test_nonfinite_rejected(self, mesh2d):
        bad = np.ones(mesh2d.n_cells)
        bad[3] = np.nan
        with pytest.raises(NonFiniteSample):
            interior_integral(mesh2d, bad)

    @pytest.mark.parametrize("integral, count", [
        (interior_integral, lambda mesh: mesh.n_cells),
        (boundary_integral, lambda mesh: mesh.face_cells.size),
    ], ids=["interior", "boundary"])
    def test_overflowing_sum_rejected(self, integral, count):
        # every sample is finite; their sum is not
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(0.5, 0.5, 0.5)), 4)
        with pytest.raises(NonFiniteSample, match="overflows"):
            integral(mesh, np.full(count(mesh), 1e308))

    def test_interior_order_two(self, box2d):
        # int x1^2 over [-1,1]^2 = 4/3; Richardson slope from three meshes
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(box2d, n)
            val = interior_integral(mesh, mesh.cell_centers[:, 0] ** 2)
            errs.append(abs(val - 4.0 / 3.0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_boundary_order_two(self, box2d):
        # int x1^2 over the perimeter of [-1,1]^2 = 2*2 + 2*(2/3) = 16/3
        errs = []
        for n in (8, 16, 32):
            mesh = build_mesh(box2d, n)
            # face midpoint coordinates: cell center pushed to the face
            x_face = mesh.cell_centers[mesh.face_cells].copy()
            push = outward_normals(mesh) * (np.asarray(mesh.h) / 2.0)
            x_face += push
            val = boundary_integral(mesh, x_face[:, 0] ** 2)
            errs.append(abs(val - 16.0 / 3.0))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_linearity(self, mesh2d):
        rng = np.random.default_rng(0)
        f = rng.normal(size=mesh2d.n_cells)
        g = rng.normal(size=mesh2d.n_cells)
        a, b = 2.5, -1.25
        lhs = interior_integral(mesh2d, a * f + b * g)
        rhs = a * interior_integral(mesh2d, f) + b * interior_integral(mesh2d, g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_determinism(self, mesh3d):
        rng = np.random.default_rng(7)
        f = rng.normal(size=mesh3d.n_cells)
        assert interior_integral(mesh3d, f) == interior_integral(mesh3d, f.copy())


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


OPERATOR_MESHES = [
    (DomainSpec("box", 2, half_extents=(1.0, 0.6)), (7, 5)),
    (DomainSpec("box", 3, half_extents=(1.0, 0.7, 1.3)), (5, 6, 7)),
]


class TestLaplacianOperator:
    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
    def test_matches_ghost_cell_reference(self, spec, cells, gamma):
        mesh = build_mesh(spec, cells)
        assert len(set(mesh.h)) == spec.dimension  # anisotropic spacing
        ref = ghost_cell_laplacian(mesh, gamma)
        got = mesh.laplacian.toarray() + np.diag(mesh.robin_diagonal(gamma))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_stored_as_dia_with_one_diagonal_per_neighbour(self):
        spec, cells = OPERATOR_MESHES[1]
        lap = build_mesh(spec, cells).laplacian
        assert lap.format == "dia"
        assert sorted(lap.offsets) == [-42, -7, -1, 0, 1, 7, 42]

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma", [0.0, 3.0])
    def test_symmetric(self, spec, cells, gamma):
        mesh = build_mesh(spec, cells)
        A = mesh.laplacian.toarray() + np.diag(mesh.robin_diagonal(gamma))
        assert np.array_equal(A, A.T)

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    def test_constant_in_kernel_under_neumann(self, spec, cells):
        mesh = build_mesh(spec, cells)
        c = np.full(mesh.n_cells, 2.75)
        assert np.all(mesh.robin_diagonal(0.0) == 0.0)
        bound = 1e-12 * np.max(np.abs(c)) / min(mesh.h) ** 2
        assert np.max(np.abs(mesh.laplacian @ c)) <= bound

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    def test_summation_by_parts_matches_gradient_energy(self, spec, cells):
        mesh = build_mesh(spec, cells)
        x = mesh.cell_centers
        u = np.exp(0.5 * x[:, 0]) * np.cos(x[:, 1]) + 0.3 * x[:, -1] ** 2
        lhs = -mesh.cell_volume * float(u @ (mesh.laplacian @ u))
        assert lhs == pytest.approx(discrete_gradient_energy(u, mesh), rel=1e-12)

    def test_built_once_per_mesh(self, box3d, monkeypatch):
        built = []
        real = geometry.dia_array

        def counting_dia_array(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "dia_array", counting_dia_array)
        mesh = build_mesh(box3d, 6)
        g = 1.0 + 0.1 * mesh.cell_centers[:, 0]
        fields = FieldPair(u=g, v=g, t=0.0)
        for gamma in (0.0, 0.5, 3.0):
            rhs(fields, mesh, zero_reaction(), gamma, gamma)
        simulate(SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.5, gamma2=3.0,
                              g1=g, g2=g, t_end=1e-3))
        assert len(built) == 1
        assert mesh.laplacian is mesh.laplacian
