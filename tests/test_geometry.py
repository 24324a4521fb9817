import math
from functools import reduce

import numpy as np
import pytest

import rdblowup.geometry as geometry
from conftest import brute_force_geometry, dense_robin_operator, zero_reaction
from rdblowup.errors import BallMeshUnsupported, NonFiniteSample, ResolutionTooCoarse
from rdblowup.functionals import FieldPair, boundary_integral, energy_sample, interior_integral
from rdblowup.geometry import DomainSpec, RobinOperator, build_mesh, geometry_constants
from rdblowup.nonlinearity import make_power_product
from rdblowup.solver import SolverConfig, _diffusion_cap, rhs, simulate


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

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_rejects_non_finite_sizes(self, size):
        with pytest.raises(ValueError):
            DomainSpec("box", 2, half_extents=(size, 1.0))
        with pytest.raises(ValueError):
            DomainSpec("ball", 3, radius=size)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown domain kind 'disc'"):
            DomainSpec("disc", 2, half_extents=(1.0, 1.0))

    @pytest.mark.parametrize("half_extents", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0)])
    def test_box_needs_one_half_extent_per_axis(self, half_extents):
        with pytest.raises(ValueError, match="one half-extent per axis"):
            DomainSpec("box", 3, half_extents=half_extents)

    def test_ball_requires_3d(self):
        with pytest.raises(ValueError):
            DomainSpec("ball", 2, radius=1.0)

    def test_volumes(self):
        assert DomainSpec("box", 3, half_extents=(1, 1, 1)).volume == 8.0
        ball = DomainSpec("ball", 3, radius=2.0)
        assert ball.volume == pytest.approx(4.0 / 3.0 * math.pi * 8.0)


class TestBuildMesh:
    @pytest.mark.parametrize("L", [1.7e308, 5e-324], ids=["overflow", "underflow"])
    def test_refuses_cells_outside_float_range(self, L):
        with pytest.raises(ValueError, match="positive and finite"):
            build_mesh(DomainSpec("box", 2, half_extents=(L, 1.0)), 8)

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

    @pytest.mark.parametrize("cells", [(8,), (8, 8, 8)])
    def test_needs_one_cell_count_per_axis(self, box2d, cells):
        with pytest.raises(ValueError, match="one cell count per axis"):
            build_mesh(box2d, cells)

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

    @pytest.mark.parametrize("L", [1.0, 0.5, 1.3, 0.777])
    def test_cell_centres_are_antisymmetric(self, L):
        # at an even n, x_i = -x_{n-1-i} exactly, so even data equal their
        # mirror image: the upper half is np.linspace's, and the lower half
        # its mirror, within 3 ulps of the largest centre of linspace's
        # lower half.  An odd n, which no fold halves, keeps linspace's bytes
        for n in range(4, 65):
            mesh = build_mesh(DomainSpec("box", 2, half_extents=(L, 1.0)), (n, 4))
            x = mesh.cell_centers[::4, 0]
            ha = 2.0 * L / n
            old = np.linspace(-L + ha / 2.0, L - ha / 2.0, n)
            if n % 2:
                assert x.tobytes() == old.tobytes()
                continue
            assert np.array_equal(x, -x[::-1])
            assert x[n // 2:].tobytes() == old[n // 2:].tobytes()
            assert np.max(np.abs(x - old)) <= 3.0 * np.spacing(L - ha / 2.0)

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

    @pytest.mark.parametrize("integral, count, message", [
        (interior_integral, lambda mesh: mesh.n_cells, "one sample per cell"),
        (boundary_integral, lambda mesh: mesh.face_cells.size, "one sample per boundary face"),
    ], ids=["interior", "boundary"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_sample_count_rejected(self, mesh2d, integral, count, message, extra):
        with pytest.raises(ValueError, match=message):
            integral(mesh2d, np.ones(count(mesh2d) + extra))

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


OPERATOR_MESHES = [
    (DomainSpec("box", 2, half_extents=(1.0, 0.6)), (7, 5)),
    (DomainSpec("box", 3, half_extents=(1.0, 0.7, 1.3)), (5, 6, 7)),
]
# (gamma1, gamma2) pairs with gamma1 != gamma2, each gamma on each field
GAMMA_PAIRS = [(0.0, 0.5), (0.5, 3.0), (3.0, 0.0)]
# 6x6x9 cells on it have h = 1/3 on every axis: axes 0 and 1 are alike, axis 2 is not
SHARED_AXES_BOX = DomainSpec("box", 3, half_extents=(1.0, 1.0, 1.5))


class TestLaplacianOperator:
    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_matches_ghost_cell_reference(self, spec, cells, gamma1, gamma2):
        # each field's block is its own ghost-cell Laplacian; the fields do
        # not couple
        mesh = build_mesh(spec, cells)
        assert len(set(mesh.h)) == spec.dimension  # anisotropic spacing
        ref = dense_robin_operator(mesh, gamma1, gamma2)
        got = mesh.robin_operator(gamma1, gamma2).matrix.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_stacked_matrix_is_the_dense_operator(self, spec, cells, gamma1, gamma2):
        # one DIA matrix of both fields under the Neumann matrix's offsets,
        # equal to the Neumann Laplacian in each field's block off the main
        # diagonal; the zeros of its data keep the u/v seam uncoupled
        mesh = build_mesh(spec, cells)
        op, n = mesh.robin_operator(gamma1, gamma2), mesh.n_cells
        neumann = mesh.robin_operator(0.0, 0.0).matrix
        assert op.matrix.format == "dia" and op.matrix.shape == (2 * n, 2 * n)
        assert sorted(op.matrix.offsets) == sorted(neumann.offsets)
        A, lap = op.matrix.toarray(), neumann.toarray()[:n, :n]
        off = np.kron(np.eye(2), lap - np.diag(np.diag(lap))) + np.diag(np.diag(A))
        assert np.array_equal(A, off)
        assert op.matrix is op.matrix

    def test_stored_as_dia_with_one_diagonal_per_neighbour(self):
        spec, cells = OPERATOR_MESHES[1]
        A = build_mesh(spec, cells).robin_operator(0.0, 0.0).matrix
        assert A.format == "dia"
        assert sorted(A.offsets) == [-42, -7, -1, 0, 1, 7, 42]

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 3.0), (3.0, 3.0)])
    def test_symmetric(self, spec, cells, gamma1, gamma2):
        A = build_mesh(spec, cells).robin_operator(gamma1, gamma2).matrix.toarray()
        assert np.array_equal(A, A.T)

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    def test_constant_in_kernel_under_neumann(self, spec, cells):
        mesh = build_mesh(spec, cells)
        c = np.full(2 * mesh.n_cells, 2.75)
        A = mesh.robin_operator(0.0, 0.0).matrix
        bound = 1e-12 * np.max(np.abs(c)) / min(mesh.h) ** 2
        assert np.max(np.abs(A @ c)) <= bound

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    def test_summation_by_parts_matches_gradient_energy(self, spec, cells):
        mesh = build_mesh(spec, cells)
        x = mesh.cell_centers
        u = np.exp(0.5 * x[:, 0]) * np.cos(x[:, 1]) + 0.3 * x[:, -1] ** 2
        n, A = mesh.n_cells, mesh.robin_operator(0.0, 0.0).matrix
        lhs = -mesh.cell_volume * float(u @ (A @ np.concatenate([u, u]))[:n])
        row = energy_sample(FieldPair(u=u, v=u, t=0.0), mesh)
        assert lhs == pytest.approx(row.grad_u_energy, rel=1e-12)

    def test_built_once_per_operator(self, box3d, monkeypatch):
        # the operator matrix of the stacked state, (2n, 2n), is the one DIA
        # matrix built, once per operator that applies it: each rhs call and
        # the run, whose t_end below DP5's cap starts it on DP5.  The data
        # are even along no axis, so the run keeps the full mesh
        import scipy.sparse

        built = []
        real = scipy.sparse.dia_array

        def counting_dia_array(*args, **kwargs):
            built.append(kwargs["shape"])
            return real(*args, **kwargs)

        # geometry imports dia_array from scipy.sparse when it builds a matrix
        monkeypatch.setattr(scipy.sparse, "dia_array", counting_dia_array)
        mesh = build_mesh(box3d, 6)
        n = mesh.n_cells
        g = 1.0 + 0.1 * mesh.cell_centers @ [1.0, 2.0, 3.0]
        fields = FieldPair(u=g, v=g, t=0.0)
        for gamma in (0.0, 0.5, 3.0):
            rhs(fields, mesh, zero_reaction(), gamma, gamma)
        trace = simulate(SolverConfig(mesh=mesh, nl=zero_reaction(), gamma1=0.5, gamma2=3.0,
                                      g1=g, g2=g, t_end=1e-3))
        assert trace.steps_by_pair["dp5"]["accepted"] > 0 and trace.mirror_axes == ()
        assert built == [(2 * n, 2 * n)] * 4

    @pytest.mark.parametrize("L", [1e155, 1e250, 1e-300],
                             ids=["square_overflows", "weight_underflows", "weight_overflows"])
    def test_refuses_weights_outside_the_normal_floats(self, L):
        # such a mesh still serves quadrature; what applies h^-2 refuses it
        mesh = build_mesh(DomainSpec("box", 2, half_extents=(L, 1.0)), 8)
        assert interior_integral(mesh, np.ones(mesh.n_cells)) > 0
        for build in (lambda: RobinOperator(mesh, (1.0, 2.0)).matrix,
                      lambda: mesh.robin_operator(1.0, 2.0),
                      lambda: RobinOperator(mesh, (1.0, 2.0)).eigenpairs,
                      lambda: _diffusion_cap(mesh)):
            with pytest.raises(ValueError, match=r"weights h\^-2 outside the normal floats"):
                build()


    def test_ghost_factor_overflow_takes_the_limit(self):
        # gamma * h overflows: g is the limit -1 of (2 - gamma h)/(2 + gamma h),
        # not NaN, and the matrix and the eigenvalues stay finite
        assert geometry._ghost_factor(1e200, 2.5e149) == -1.0
        assert geometry._ghost_factor(1e200, 1e100) == (2.0 - 1e300) / (2.0 + 1e300)
        mesh = build_mesh(DomainSpec("box", 2, half_extents=(1e150, 1.0)), 8)
        op = mesh.robin_operator(1e200, 1e200)
        assert np.all(np.isfinite(op.matrix.data)) and np.all(np.isfinite(eigenvalue_grid(op)))


def kronecker_modes(op, field):
    """Dense Q of one field, the Kronecker product of its axes' eigenvectors."""
    return reduce(np.kron, [q[field] for _, q in op.eigenpairs])


def eigenvalue_grid(op):
    """Lambda, the eigenvalue of each mode, flat like y: the sum of its axes'
    eigenvalues, added axis by axis to zeros."""
    values = [lam for lam, _ in op.eigenpairs]
    grid = np.zeros((2, *(lam.shape[1] for lam in values)))
    for axis, lam in enumerate(values):
        grid += lam.reshape(2, *(-1 if b == axis else 1 for b in range(len(values))))
    return grid.ravel()


class TestRobinModes:
    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_reproduce_the_robin_laplacian(self, spec, cells, gamma1, gamma2):
        mesh = build_mesh(spec, cells)
        op, n = mesh.robin_operator(gamma1, gamma2), mesh.n_cells
        A = dense_robin_operator(mesh, gamma1, gamma2)
        for field in (0, 1):
            block = A[field * n:(field + 1) * n, field * n:(field + 1) * n]
            Q, grid = kronecker_modes(op, field), eigenvalue_grid(op)[field * n:(field + 1) * n]
            assert np.max(np.abs(Q @ np.diag(grid) @ Q.T - block)) <= 1e-12 * np.max(np.abs(block))
        for (lam, q), na in zip(op.eigenpairs, mesh.shape):
            assert q.shape == (2, na, na) and lam.shape == (2, na) and np.all(lam <= 0.0)
            for qk in q:
                assert np.max(np.abs(qk.T @ qk - np.eye(na))) <= 1e-13

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_transforms_apply_q_and_its_transpose(self, spec, cells, gamma1, gamma2):
        mesh = build_mesh(spec, cells)
        op, n = mesh.robin_operator(gamma1, gamma2), mesh.n_cells
        Q = np.zeros((2 * n, 2 * n))
        Q[:n, :n], Q[n:, n:] = kronecker_modes(op, 0), kronecker_modes(op, 1)
        x = np.random.default_rng(6).normal(size=2 * n)
        out = np.empty_like(x)
        assert np.max(np.abs(op.to_modes(x, out) - Q.T @ x)) <= 1e-14 * np.max(np.abs(x))
        back = op.from_modes(out.copy(), out)
        assert back is out
        assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x))
        assert np.max(np.abs(op.from_modes(x, out) - Q @ x)) <= 1e-14 * np.max(np.abs(x))

    @pytest.mark.parametrize("spec, cells", OPERATOR_MESHES)
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_decay_is_the_exponential_of_the_eigenvalues(self, spec, cells, gamma1, gamma2):
        # bit for bit, Lambda summed here; at tau = 50 the stiffest modes
        # underflow to 0 and the slowest do not
        mesh = build_mesh(spec, cells)
        op = mesh.robin_operator(gamma1, gamma2)
        grid, out = eigenvalue_grid(op), np.empty(2 * mesh.n_cells)
        for tau in (1e-3, 0.37, 50.0):
            assert op.decay(tau, out) is out
            assert np.array_equal(out, np.exp(tau * grid))
        assert np.any(out == 0.0) and np.any(out > 0.0)

    def test_built_on_each_call(self, box3d):
        # one mesh serves new gammas on every run, so nothing is kept per gamma
        mesh = build_mesh(box3d, 4)
        assert mesh.robin_operator(0.5, 0.5) is not mesh.robin_operator(0.5, 0.5)

    def test_eigenpairs_built_on_first_use(self, box3d, monkeypatch):
        # rhs applies the diagonal only; simulate's Lawson steps need the
        # modes: one eigh of both fields per distinct (n_a, h_a), so a cube
        # makes 1 call and a 6x6x9 box with h = 1/3 on every axis makes 2
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *args: calls.append(1) or real(*args))
        mesh = build_mesh(box3d, 4)
        g = 1.0 + 0.1 * mesh.cell_centers[:, 0]
        rhs(FieldPair(u=g, v=g, t=0.0), mesh, zero_reaction(), 0.5, 3.0)
        assert calls == []
        op = mesh.robin_operator(0.5, 3.0)
        assert op.eigenpairs is op.eigenpairs and len(calls) == 1
        box = build_mesh(SHARED_AXES_BOX, (6, 6, 9))
        assert box.h == (1 / 3,) * 3
        box.robin_operator(0.5, 3.0).eigenpairs
        assert len(calls) == 3

    @pytest.mark.parametrize("na", [4, 5, 16, 40])
    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 1e6), (0.5, 0.0), (5.0, 0.5), (1e6, 5.0)])
    def test_eigenpairs_match_the_dense_tridiagonal(self, na, gamma1, gamma2):
        # against each axis's tridiagonal written out densely, on an axis of
        # na cells and one of 4 with another spacing
        mesh = build_mesh(DomainSpec("box", 2, half_extents=(1.0, 0.6)), (na, 4))
        op = mesh.robin_operator(gamma1, gamma2)
        for (lam, q), n, h in zip(op.eigenpairs, mesh.shape, mesh.h):
            for field, gamma in enumerate((gamma1, gamma2)):
                g = (2.0 - gamma * h) / (2.0 + gamma * h)
                A = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / h**2
                A[0, 0] = A[-1, -1] = (g - 2.0) / h**2
                Q, Lam = q[field], lam[field]
                scale = np.max(np.abs(Lam))
                assert np.max(np.abs(A @ Q - Q * Lam)) <= 1e-13 * scale
                assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-13
        y = np.random.default_rng(na).normal(size=2 * mesh.n_cells)
        back = op.from_modes(op.to_modes(y, np.empty_like(y)), np.empty_like(y))
        assert np.max(np.abs(back - y)) <= 1e-13 * np.max(np.abs(y))

    def test_alike_axes_share_their_eigenpairs(self):
        op = build_mesh(SHARED_AXES_BOX, (6, 6, 9)).robin_operator(0.5, 3.0)
        (lam0, q0), (lam1, q1), (lam2, q2) = op.eigenpairs
        assert lam1 is lam0 and q1 is q0
        assert lam2 is not lam0 and q2 is not q0 and q2.shape == (2, 9, 9)


FOLD_GAMMAS = [0.0, 0.5, 5.0]


def mirror_restrict(mesh, fold, y):
    """The cells of the stacked state y on `mesh` that its fold keeps."""
    index = tuple(slice(m, None) if m != n else slice(None)
                  for n, m in zip(mesh.shape, fold.shape))
    return np.concatenate([f.reshape(mesh.shape)[index].ravel() for f in y.reshape(2, -1)])


class TestFold:
    def test_orthant_of_the_box(self):
        # half the cells on each folded axis, the box's own centres at x_a > 0,
        # Robin faces only, and the multiplicity in both quadrature weights
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5)), (8, 6, 5))
        fold = mesh.fold((0, 1))
        assert fold.shape == (4, 3, 5) and fold.mirror_axes == (0, 1) and fold.h == mesh.h
        assert fold.n_cells * fold.cell_volume == mesh.n_cells * mesh.cell_volume
        keep = np.all(mesh.cell_centers[:, :2] > 0.0, axis=1)
        assert np.array_equal(fold.cell_centers, mesh.cell_centers[keep])
        # faces: the high side of axes 0 and 1, then both sides of axis 2
        x = fold.cell_centers[fold.face_cells]
        sides = np.split(x, np.cumsum([3 * 5, 4 * 5, 4 * 3]))
        assert [len(side) for side in sides] == [15, 20, 12, 12]
        for side, (axis, end) in zip(sides, [(0, max), (1, max), (2, min), (2, max)]):
            assert np.all(side[:, axis] == end(mesh.cell_centers[:, axis]))
        assert np.all(fold.face_areas[:15] == 4 * mesh.face_areas[0])
        assert np.isclose(np.sum(fold.face_areas), np.sum(mesh.face_areas), rtol=1e-15)
        assert mesh.fold((0, 1)) is fold
        for bad in ((2,), (0, 2)):
            with pytest.raises(ValueError, match="cannot fold"):
                mesh.fold(bad)
        with pytest.raises(ValueError, match="cannot fold"):
            fold.fold((0,))

    @pytest.mark.parametrize("gamma", FOLD_GAMMAS)
    @pytest.mark.parametrize("na", [4, 6, 16])
    def test_eigenvalues_are_the_even_modes(self, na, gamma):
        # the orthant's tridiagonal, a mirror at its low end, has the
        # eigenvalues of the full axis's modes that are even about its middle
        mesh = build_mesh(DomainSpec("box", 2, half_extents=(1.0, 0.6)), (na, 4))
        (lam, q), _ = mesh.robin_operator(gamma, 0.5).eigenpairs
        (lam_half, q_half), _ = mesh.fold((0,)).robin_operator(gamma, 0.5).eigenpairs
        assert lam_half.shape == (2, na // 2)
        for field in (0, 1):
            even = np.max(np.abs(q[field] - q[field][::-1]), axis=0) <= 1e-12
            assert even.sum() == na // 2
            expected = lam[field][even]
            assert np.max(np.abs(lam_half[field] - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 0.5), (5.0, 0.0), (0.5, 5.0)])
    def test_operator_is_the_restricted_box_operator(self, gamma1, gamma2):
        # on a state even in the folded axes, the orthant's A, by its DIA
        # matrix and through its eigenbasis, gives the box's A y on its cells
        mesh = build_mesh(DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5)), (8, 6, 5))
        fold = mesh.fold((0, 1))
        x = mesh.cell_centers
        y = np.concatenate([np.cos(x[:, 0]) * np.exp(x[:, 1] ** 2) + x[:, 2],
                            1.0 + x[:, 0] ** 2 * x[:, 1] ** 2 - x[:, 2] ** 3])
        full, half = mesh.robin_operator(gamma1, gamma2), fold.robin_operator(gamma1, gamma2)
        expected = mirror_restrict(mesh, fold, full.matrix @ y)
        y_half = mirror_restrict(mesh, fold, y)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(half.matrix @ y_half - expected)) <= 1e-13 * scale
        modes = half.to_modes(y_half, np.empty_like(y_half)) * eigenvalue_grid(half)
        assert np.max(np.abs(half.from_modes(modes, np.empty_like(y_half)) - expected)) \
            <= 1e-13 * scale


COLLAPSE_BOX = DomainSpec("box", 3, half_extents=(1.0, 0.75, 0.5))
# (axes folded, axes collapsed) of an 8x6x5 box mesh; axis 2 has an odd count
COLLAPSES = [((), (1,)), ((), (1, 2)), ((), (0, 1, 2)), ((0,), (1, 2)), ((0, 1), (2,))]


def box_restrict(reduced, y):
    """The cells of the stacked state y on the box that `reduced` keeps: the
    last n_a of each axis."""
    index = tuple(slice(n - m, None) for n, m in zip(reduced.box_shape, reduced.shape))
    return np.concatenate([f.reshape(reduced.box_shape)[index].ravel()
                           for f in y.reshape(2, -1)])


def constant_along(mesh, axes, *fields):
    """Each field made constant along `axes` by taking its values at the last
    cell of each, and the stacked state of them."""
    grids = [f.reshape(mesh.shape) for f in fields]
    for axis in axes:
        index = (slice(None),) * axis + (slice(-1, None),)
        grids = [np.broadcast_to(g[index], mesh.shape) for g in grids]
    return np.concatenate([g.ravel() for g in grids])


class TestCollapse:
    def test_one_cell_wide_axes_of_the_box(self):
        # one cell of the box's h on each collapsed axis, the box's last
        # centre on it; both of its faces on that cell, carrying the other
        # axes' multiplicity, and the collapsed count on every other face
        mesh = build_mesh(COLLAPSE_BOX, (8, 6, 5))
        reduced = mesh.fold((0,), (1, 2))
        assert reduced.shape == (4, 1, 1) and reduced.box_shape == (8, 6, 5)
        assert reduced.mirror_axes == (0,) and reduced.collapsed_axes == (1, 2)
        assert reduced.h == mesh.h
        assert reduced.n_cells * reduced.cell_volume == pytest.approx(
            mesh.n_cells * mesh.cell_volume, rel=1e-15)
        keep = ((mesh.cell_centers[:, 0] > 0.0)
                & np.all(mesh.cell_centers[:, 1:] == mesh.cell_centers[-1, 1:], axis=1))
        assert np.array_equal(reduced.cell_centers, mesh.cell_centers[keep])
        # faces: the high side of axis 0, then both sides of axes 1 and 2
        sides = np.split(reduced.face_cells, np.cumsum([1, 4, 4, 4]))
        assert [len(side) for side in sides] == [1, 4, 4, 4, 4]
        assert np.array_equal(sides[1], sides[2]) and np.array_equal(sides[3], sides[4])
        volume = math.prod(mesh.h)
        expected = ([2 * 6 * 5 * volume / mesh.h[0]] + [2 * 5 * volume / mesh.h[1]] * 8
                    + [2 * 6 * volume / mesh.h[2]] * 8)
        assert np.allclose(reduced.face_areas, expected, rtol=1e-15, atol=0)
        assert np.isclose(np.sum(reduced.face_areas), np.sum(mesh.face_areas), rtol=1e-15)
        assert mesh.fold((0,), (1, 2)) is reduced
        for axes, collapsed in (((0,), (0,)), ((2,), ())):
            with pytest.raises(ValueError, match="cannot fold"):
                mesh.fold(axes, collapsed)
        with pytest.raises(ValueError, match="cannot fold"):
            mesh.fold(collapsed=(1,)).fold(collapsed=(2,))

    @pytest.mark.parametrize("axes, collapsed", [c for c in COLLAPSES if not c[0]])
    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 0.0), *GAMMA_PAIRS])
    def test_matches_ghost_cell_reference(self, axes, collapsed, gamma1, gamma2):
        # the operator of the box one cell wide along each collapsed axis,
        # a wall on both of its faces: the matrix drops the one-cell axes'
        # off-diagonals, whose strides may equal another axis's
        reduced = build_mesh(COLLAPSE_BOX, (8, 6, 5)).fold(axes, collapsed)
        matrix = reduced.robin_operator(gamma1, gamma2).matrix
        assert len(matrix.offsets) == len(set(matrix.offsets)) == 2 * (3 - len(collapsed)) + 1
        ref = dense_robin_operator(reduced, gamma1, gamma2)
        got = matrix.toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("axes, collapsed", [c for c in COLLAPSES if not c[0]])
    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 0.0), *GAMMA_PAIRS])
    def test_eigenpairs_reproduce_the_reference(self, axes, collapsed, gamma1, gamma2):
        # a one-cell axis's eigenvalue is its row, (g_lo + g_hi - 2)/h^2 with
        # both walls' ghosts: exactly 0 for a Neumann field.  With every axis
        # collapsed, the matrix's diagonal is Lambda bit for bit: one
        # definition of the operator
        reduced = build_mesh(COLLAPSE_BOX, (8, 6, 5)).fold(axes, collapsed)
        op, n = reduced.robin_operator(gamma1, gamma2), reduced.n_cells
        if len(collapsed) == 3:
            assert np.array_equal(op.matrix.diagonal(), eigenvalue_grid(op))
        A = dense_robin_operator(reduced, gamma1, gamma2)
        for field, gamma in enumerate((gamma1, gamma2)):
            block = A[field * n:(field + 1) * n, field * n:(field + 1) * n]
            Q, grid = kronecker_modes(op, field), eigenvalue_grid(op)[field * n:(field + 1) * n]
            assert np.max(np.abs(Q @ np.diag(grid) @ Q.T - block)) <= 1e-12 * np.max(np.abs(block))
            for axis in collapsed:
                lam, q = op.eigenpairs[axis]
                h = reduced.h[axis]
                g = (2.0 - gamma * h) / (2.0 + gamma * h)
                assert lam[field] == pytest.approx([(2 * g - 2) / h**2], rel=1e-15, abs=0)
                assert q[field].tolist() == [[1.0]]
                if gamma == 0:
                    assert lam[field].tolist() == [0.0]

    @pytest.mark.parametrize("axes, collapsed", [((), ()), ((0,), ()), ((0, 1), ()), *COLLAPSES])
    @pytest.mark.parametrize("gamma1, gamma2", [(0.0, 0.0), *GAMMA_PAIRS])
    def test_operator_is_zero_iff_collapsed_along_every_axis_under_neumann_walls(
            self, axes, collapsed, gamma1, gamma2):
        # the dense reference is zero in exactly these cases, the ones the
        # solver steps as one cell of the reaction alone
        reduced = build_mesh(COLLAPSE_BOX, (8, 6, 5)).fold(axes, collapsed)
        zero = len(collapsed) == 3 and gamma1 == gamma2 == 0
        assert (not np.any(dense_robin_operator(reduced, gamma1, gamma2))) is zero

    @pytest.mark.parametrize("spec, cells", [*OPERATOR_MESHES, (SHARED_AXES_BOX, (6, 6, 9))])
    @pytest.mark.parametrize("gamma1, gamma2", GAMMA_PAIRS)
    def test_collapsed_matrix_diagonal_is_lambda(self, spec, cells, gamma1, gamma2):
        # the same bit-for-bit check on other spacings, where a second
        # definition of the one-cell rows rounds differently in 4 of 9 cases
        reduced = build_mesh(spec, cells).fold(collapsed=tuple(range(len(cells))))
        op = reduced.robin_operator(gamma1, gamma2)
        assert np.array_equal(op.matrix.diagonal(), eigenvalue_grid(op))

    @pytest.mark.parametrize("axes, collapsed", COLLAPSES)
    def test_operator_is_the_restricted_box_operator(self, axes, collapsed):
        # on a state even in the folded axes and constant along the collapsed
        # ones, the reduced Neumann A, by its DIA matrix and through its
        # eigenbasis, gives the box's A y on its cells; to rounding against
        # |A| |y|, as A y of constant data rounds about 0
        mesh = build_mesh(COLLAPSE_BOX, (8, 6, 5))
        reduced = mesh.fold(axes, collapsed)
        x = mesh.cell_centers
        y = constant_along(mesh, collapsed, np.cos(x[:, 0]) * np.exp(x[:, 1] ** 2) + x[:, 2],
                           1.0 + x[:, 0] ** 2 * x[:, 1] ** 2 - x[:, 2] ** 3)
        full, small = mesh.robin_operator(0.0, 0.0), reduced.robin_operator(0.0, 0.0)
        expected = box_restrict(reduced, full.matrix @ y)
        y_small = box_restrict(reduced, y)
        scale = np.max(np.abs(full.matrix.data)) * np.max(np.abs(y))
        assert np.max(np.abs(small.matrix @ y_small - expected)) <= 1e-14 * scale
        modes = small.to_modes(y_small, np.empty_like(y_small)) * eigenvalue_grid(small)
        back = small.from_modes(modes, np.empty_like(y_small))
        assert np.max(np.abs(back - expected)) <= 1e-14 * scale

    @pytest.mark.parametrize("axes, collapsed", COLLAPSES)
    def test_quadrature_is_the_box_quadrature(self, axes, collapsed):
        # E, int F, the gradient energies and both boundary integrals of a
        # state even in the folded axes and constant along the collapsed
        # ones equal the box's
        mesh = build_mesh(COLLAPSE_BOX, (8, 6, 5))
        reduced = mesh.fold(axes, collapsed)
        x = mesh.cell_centers
        y = constant_along(mesh, collapsed, 1.0 + np.cos(x[:, 0]) * x[:, 1] ** 2 + x[:, 2] ** 2,
                           2.0 - x[:, 0] ** 2 * np.cos(x[:, 1]) * np.exp(x[:, 2]))
        nl = make_power_product(1.0, 2.0, 2.0)
        n, y_small = mesh.n_cells, box_restrict(reduced, y)
        box = energy_sample(FieldPair(u=y[:n], v=y[n:], t=0.0), mesh, nl, 1.0, 0.5, 3.0, p=2.0)
        small = energy_sample(FieldPair(u=y_small[:reduced.n_cells], v=y_small[reduced.n_cells:],
                                        t=0.0), reduced, nl, 1.0, 0.5, 3.0, p=2.0)
        assert small.row()[:-1] == pytest.approx(box.row()[:-1], rel=1e-13, abs=1e-13 * box.E)


# every fold and collapse of the 8x6x5 box: folds of the even axes 0 and 1,
# collapses of any other axes
EVERY_REDUCTION = [(axes, collapsed) for axes in ((), (0,), (1,), (0, 1))
                   for collapsed in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
                   if not set(axes) & set(collapsed)]


def reduction_data(mesh, axes, collapsed):
    """Two positive fields that are even bit for bit along `axes`, constant
    along `collapsed` and neither along any other axis, so that the rule
    reduces exactly those axes under Neumann walls."""
    x = mesh.cell_centers
    terms = [1.0 + x[:, a] ** 2 if a in axes else np.exp(x[:, a])
             for a in range(x.shape[1]) if a not in collapsed]
    g1 = reduce(np.multiply, terms, np.ones(mesh.n_cells))
    return g1, 1.0 + g1 * g1


class TestReduced:
    @pytest.mark.parametrize("axes, collapsed", EVERY_REDUCTION)
    def test_round_trip(self, axes, collapsed):
        # the rule picks the data's fold and collapse; `restrict` keeps the
        # reduced mesh's own cells, and `unfold` gives the data back bit for bit
        mesh = build_mesh(COLLAPSE_BOX, (8, 6, 5))
        g1, g2 = reduction_data(mesh, axes, collapsed)
        reduced = mesh.reduced(g1, g2, 0.0, 0.0)
        if axes or collapsed:
            assert reduced is mesh.fold(axes, collapsed)
        else:
            assert reduced is mesh
        for d in range(3):
            assert np.array_equal(reduced.restrict(mesh.cell_centers[:, d]),
                                  reduced.cell_centers[:, d])
        for g in (g1, g2):
            assert np.array_equal(reduced.unfold(reduced.restrict(g)), g)

    @pytest.mark.parametrize("gamma1, gamma2", [(0.5, 0.0), (0.0, 0.5), (5.0, 5.0)])
    def test_no_collapse_under_robin_walls(self, gamma1, gamma2):
        # flat data are constant along every axis, but a Robin wall pulls
        # the cells beside it: only the even axes fold
        mesh = build_mesh(COLLAPSE_BOX, (8, 6, 5))
        flat = np.full(mesh.n_cells, 2.0)
        reduced = mesh.reduced(flat, flat, gamma1, gamma2)
        assert (reduced.mirror_axes, reduced.collapsed_axes) == ((0, 1), ())
        assert mesh.reduced(flat, flat, 0.0, 0.0).collapsed_axes == (0, 1, 2)
