"""Domains, uniform cell-centered meshes with their Laplacian and its
eigenbasis, geometric constants and quadrature.

Boxes are meshed with a uniform cell-centered grid; balls exist only as
analytic domains (geometric constants and volume) and cannot be meshed.
The origin is always the centroid of the domain.
"""

from dataclasses import dataclass
from functools import cached_property
from math import inf, pi, prod, sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import dia_array

from .errors import BallMeshUnsupported, NonFiniteSample, ResolutionTooCoarse

BOX = "box"
BALL = "ball"


def require_gamma(gamma: float, name: str = "gamma") -> float:
    """The Robin rule: gamma must be finite and >= 0.  Returns gamma."""
    if not 0 <= gamma < inf:
        raise ValueError(f"{name} must be finite and >= 0, got {gamma:g}")
    return gamma


def _ghost_factor(gamma: float, ha: float) -> float:
    """g of the Robin ghost-cell closure ghost = g * cell along an axis of spacing ha."""
    return (2.0 - gamma * ha) / (2.0 + gamma * ha)


@dataclass(frozen=True)
class DomainSpec:
    """A convex domain centered at the origin: an axis-aligned box or a ball."""

    kind: str
    dimension: int
    half_extents: tuple[float, ...] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in (BOX, BALL):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.kind == BOX:
            if self.half_extents is None or len(self.half_extents) != self.dimension:
                raise ValueError("box needs one half-extent per axis")
            if not all(0 < L < inf for L in self.half_extents):
                raise ValueError(f"half-extents must be positive and finite, "
                                 f"got {self.half_extents}")
        else:
            if self.dimension != 3:
                raise ValueError("ball domains are supported in dimension 3 only")
            if self.radius is None or not 0 < self.radius < inf:
                raise ValueError(f"ball needs a positive finite radius, got {self.radius}")

    @property
    def volume(self) -> float:
        if self.kind == BOX:
            return prod(2.0 * L for L in self.half_extents)
        return 4.0 / 3.0 * pi * self.radius**3


@dataclass(frozen=True)
class GeometryConstants:
    """rho = min over the boundary of x.nu, d = max over the closure of |x|."""

    rho: float
    d: float


@dataclass(frozen=True)
class Mesh:
    """Uniform cell-centered grid over a box domain.

    Boundary faces are enumerated axis by axis, low side then high side,
    cells in C order; this fixed ordering keeps quadrature deterministic.
    """

    spec: DomainSpec
    cells_per_axis: tuple[int, ...]
    h: tuple[float, ...]
    cell_centers: np.ndarray  # (n_cells, N)
    face_cells: np.ndarray  # (n_faces,) flat cell index of the adjacent cell
    face_areas: np.ndarray  # (n_faces,)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.cells_per_axis))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells_per_axis

    @property
    def cell_volume(self) -> float:
        return prod(self.h)

    @cached_property
    def inverse_h2(self) -> tuple[float, ...]:
        """h_a^-2 of each axis, which the Laplacian, its Robin diagonal and its
        modes read: ValueError unless each is a normal float and the bound
        4 sum_a h_a^-2 on the spectrum is finite.  Quadrature needs neither."""
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            weights = 1.0 / np.square(self.h)
            bound = 4.0 * weights.sum()
        if not (np.all(weights >= np.finfo(float).tiny) and np.isfinite(bound)):
            raise ValueError(f"cell widths {self.h} put the Laplacian's weights h^-2 "
                             f"outside the normal floats")
        return tuple(weights.tolist())

    @cached_property
    def laplacian(self) -> dia_array:
        """Neumann (2N+1)-point Laplacian of the cells, built on first use and kept.

        Stored as DIA with offsets 0 and +-stride of each axis (+-1, +-n_z,
        +-n_y*n_z in 3D).  A boundary cell's ghost mirrors it, so the main
        diagonal counts only existing neighbours and entries that would
        couple cells across a face are zero.  The Robin operator for
        gamma is this matrix plus the diagonal `robin_diagonal(gamma)`.
        """
        shape, n = self.shape, self.n_cells
        N = len(shape)
        data = np.zeros((2 * N + 1, n))
        offsets = [0]
        main = data[0].reshape(shape)
        for axis, (na, wa) in enumerate(zip(shape, self.inverse_h2)):
            stride = prod(shape[axis + 1:])
            index = np.arange(na).reshape([na if b == axis else 1 for b in range(N)])
            has_lo, has_hi = index >= 1, index <= na - 2
            # DIA keys entries by column, data[k, j] = A[j - offsets[k], j]:
            # A[i, i + stride] exists iff column j = i + stride has a low neighbour
            k = 2 * axis + 1
            data[k].reshape(shape)[...] = has_lo * wa
            data[k + 1].reshape(shape)[...] = has_hi * wa
            offsets += [stride, -stride]
            main -= (has_lo.astype(float) + has_hi) * wa
        return dia_array((data, offsets), shape=(n, n))

    def robin_diagonal(self, gamma: float) -> np.ndarray:
        """Diagonal that turns `laplacian` into the Robin Laplacian for gamma.

        The ghost-cell closure ghost = g * cell, g = (2 - gamma h)/(2 + gamma h),
        is second order at the face; relative to the Neumann mirror (g = 1)
        it adds (g - 1)/h_a^2 on each boundary cell, once per face.
        """
        require_gamma(gamma)
        diag = np.zeros(self.shape)
        for axis, (ha, wa) in enumerate(zip(self.h, self.inverse_h2)):
            g = _ghost_factor(gamma, ha)
            for side in (0, -1):
                face = [slice(None)] * diag.ndim
                face[axis] = side
                diag[tuple(face)] += (g - 1.0) * wa
        return diag.ravel()

    def robin_modes(self, gamma: float) -> "RobinModes":
        """Eigenpairs of the Robin Laplacian for gamma, axis by axis.

        `laplacian + diag(robin_diagonal(gamma))` is the Kronecker sum of one
        symmetric tridiagonal per axis: off-diagonal 1/h_a^2, interior
        diagonal -2/h_a^2, end rows (g - 2)/h_a^2.  So its eigenvectors are
        Kronecker products of the axes' eigenvectors and its eigenvalues the
        sums of theirs (fast diagonalisation, Lynch, Rice & Thomas 1964).
        Built anew on each call, as one mesh serves many gammas.
        """
        require_gamma(gamma)
        values, vectors = [], []
        grid = np.zeros(self.shape)
        for axis, (na, ha, wa) in enumerate(zip(self.shape, self.h, self.inverse_h2)):
            diag = np.full(na, -2.0 * wa)
            diag[[0, -1]] = (_ghost_factor(gamma, ha) - 2.0) * wa
            lam, q = eigh_tridiagonal(diag, np.full(na - 1, wa))
            # the matrix is negative semidefinite; a zero mode may round above 0
            np.minimum(lam, 0.0, out=lam)
            grid += lam.reshape([na if b == axis else 1 for b in range(len(self.shape))])
            values.append(lam)
            vectors.append(q)
        return RobinModes(values=tuple(values), vectors=tuple(vectors), grid=grid.ravel())

    def to_grid(self, samples: np.ndarray) -> np.ndarray:
        return np.asarray(samples).reshape(self.shape)

    def boundary_values(self, samples: np.ndarray) -> np.ndarray:
        """Per-face values taken from the adjacent cell (face reconstruction)."""
        return np.asarray(samples).ravel()[self.face_cells]


@dataclass(frozen=True, eq=False)
class RobinModes:
    """The Robin Laplacian A = Q diag(grid) Q^T of a mesh, from `Mesh.robin_modes`.

    `values[a]` are the eigenvalues of axis a's tridiagonal and the columns
    of `vectors[a]` its orthonormal eigenvectors; Q is the Kronecker product
    of the `vectors`, and `grid` holds the eigenvalue of each mode, the sum
    of its axes' values, flat in C order like the cells.  `to_modes` and
    `from_modes` apply Q^T and Q with one matrix product per axis.
    """

    values: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...]
    grid: np.ndarray

    def to_modes(self, src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = Q^T src; `scratch` holds one field, and neither it nor `out` may be `src`."""
        return self._apply([q.T for q in self.vectors], src, out, scratch)

    def from_modes(self, src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = Q src, with the buffers of `to_modes`."""
        return self._apply(self.vectors, src, out, scratch)

    def _apply(self, mats, src, out, scratch):
        """Apply mats[a] along each axis a, alternating between `out` and
        `scratch` so that the last axis writes `out`."""
        shape = tuple(len(m) for m in mats)
        buffers = (out, scratch) if len(mats) % 2 else (scratch, out)
        x = src
        for axis, m in enumerate(mats):
            dst, na = buffers[axis % 2], shape[axis]
            if axis == len(mats) - 1:
                # the rows of x times m^T: one matrix product, not one per row
                np.matmul(x.reshape(-1, na), m.T, out=dst.reshape(-1, na))
            else:
                view = (prod(shape[:axis]), na, -1)
                np.matmul(m, x.reshape(view), out=dst.reshape(view))
            x = dst
        return out


def build_mesh(spec: DomainSpec, cells_per_axis) -> Mesh:
    """Build the uniform cell-centered mesh of a box domain."""
    if spec.kind != BOX:
        raise BallMeshUnsupported("only box domains can be meshed")
    if isinstance(cells_per_axis, int):
        cells_per_axis = (cells_per_axis,) * spec.dimension
    cells_per_axis = tuple(int(n) for n in cells_per_axis)
    if len(cells_per_axis) != spec.dimension:
        raise ValueError("need one cell count per axis")
    if any(n < 4 for n in cells_per_axis):
        raise ResolutionTooCoarse("need at least 4 cells per axis")

    N = spec.dimension
    h = tuple(2.0 * L / n for L, n in zip(spec.half_extents, cells_per_axis))
    cell_vol = prod(h)
    if not all(0 < x < inf for x in (*h, cell_vol)):
        raise ValueError(f"cell widths {h} and cell volume {cell_vol} must be positive and finite")
    axes = [
        np.linspace(-L + ha / 2.0, L - ha / 2.0, n)
        for L, ha, n in zip(spec.half_extents, h, cells_per_axis)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)

    flat_index = np.arange(prod(cells_per_axis)).reshape(cells_per_axis)
    face_cells, face_areas = [], []
    for axis in range(N):
        area = cell_vol / h[axis]
        for side in (0, -1):
            cells = np.take(flat_index, side, axis=axis).ravel()
            face_cells.append(cells)
            face_areas.append(np.full(cells.size, area))

    return Mesh(
        spec=spec,
        cells_per_axis=cells_per_axis,
        h=h,
        cell_centers=centers,
        face_cells=np.concatenate(face_cells),
        face_areas=np.concatenate(face_areas),
    )


def geometry_constants(spec: DomainSpec) -> GeometryConstants:
    """Closed-form rho and d for boxes and balls centered at the origin."""
    if spec.kind == BALL:
        return GeometryConstants(rho=spec.radius, d=spec.radius)
    rho = min(spec.half_extents)
    d = sqrt(sum(L * L for L in spec.half_extents))
    return GeometryConstants(rho=rho, d=d)


def _finite_total(total, what: str) -> float:
    """A quadrature's `total` as a float; NonFiniteSample if it is not finite,
    which is the case iff a sample is inf or NaN or the sum overflows."""
    if not np.isfinite(total):
        raise NonFiniteSample(f"{what} integral has a non-finite sample or overflows")
    return float(total)


@np.errstate(over="ignore", invalid="ignore")
def interior_integral(mesh: Mesh, samples) -> float:
    """Midpoint-rule integral over the domain; exact for per-cell constants."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size != mesh.n_cells:
        raise ValueError("one sample per cell required")
    return _finite_total(np.sum(samples) * mesh.cell_volume, "interior")


@np.errstate(over="ignore", invalid="ignore")
def boundary_integral(mesh: Mesh, boundary_samples) -> float:
    """Face-midpoint integral over the boundary of the box."""
    samples = np.asarray(boundary_samples, dtype=float).ravel()
    if samples.size != mesh.face_cells.size:
        raise ValueError("one sample per boundary face required")
    return _finite_total(np.sum(samples * mesh.face_areas), "boundary")
