"""Domains, uniform cell-centered meshes and their Laplacian, geometric
constants and quadrature.

Boxes are meshed with a uniform cell-centered grid; balls exist only as
analytic domains (geometric constants and volume) and cannot be meshed.
The origin is always the centroid of the domain.
"""

from dataclasses import dataclass
from functools import cached_property
from math import inf, pi, prod, sqrt

import numpy as np
from scipy.sparse import dia_array

from .errors import BallMeshUnsupported, NonFiniteSample, ResolutionTooCoarse

BOX = "box"
BALL = "ball"


def require_gamma(gamma: float, name: str = "gamma") -> float:
    """The Robin rule: gamma must be finite and >= 0.  Returns gamma."""
    if not 0 <= gamma < inf:
        raise ValueError(f"{name} must be finite and >= 0, got {gamma:g}")
    return gamma


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
            if any(L <= 0 for L in self.half_extents):
                raise ValueError("half-extents must be positive")
        else:
            if self.dimension != 3:
                raise ValueError("ball domains are supported in dimension 3 only")
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball needs a positive radius")

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
        for axis, (na, ha) in enumerate(zip(shape, self.h)):
            stride = prod(shape[axis + 1:])
            index = np.arange(na).reshape([na if b == axis else 1 for b in range(N)])
            has_lo, has_hi = index >= 1, index <= na - 2
            # DIA keys entries by column, data[k, j] = A[j - offsets[k], j]:
            # A[i, i + stride] exists iff column j = i + stride has a low neighbour
            k = 2 * axis + 1
            data[k].reshape(shape)[...] = has_lo / ha**2
            data[k + 1].reshape(shape)[...] = has_hi / ha**2
            offsets += [stride, -stride]
            main -= (has_lo.astype(float) + has_hi) / ha**2
        return dia_array((data, offsets), shape=(n, n))

    def robin_diagonal(self, gamma: float) -> np.ndarray:
        """Diagonal that turns `laplacian` into the Robin Laplacian for gamma.

        The ghost-cell closure ghost = g * cell, g = (2 - gamma h)/(2 + gamma h),
        is second order at the face; relative to the Neumann mirror (g = 1)
        it adds (g - 1)/h_a^2 on each boundary cell, once per face.
        """
        require_gamma(gamma)
        diag = np.zeros(self.shape)
        for axis, ha in enumerate(self.h):
            g = (2.0 - gamma * ha) / (2.0 + gamma * ha)
            for side in (0, -1):
                face = [slice(None)] * diag.ndim
                face[axis] = side
                diag[tuple(face)] += (g - 1.0) / ha**2
        return diag.ravel()

    def to_grid(self, samples: np.ndarray) -> np.ndarray:
        return np.asarray(samples).reshape(self.shape)

    def boundary_values(self, samples: np.ndarray) -> np.ndarray:
        """Per-face values taken from the adjacent cell (face reconstruction)."""
        return np.asarray(samples).ravel()[self.face_cells]


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
    axes = [
        np.linspace(-L + ha / 2.0, L - ha / 2.0, n)
        for L, ha, n in zip(spec.half_extents, h, cells_per_axis)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)

    flat_index = np.arange(prod(cells_per_axis)).reshape(cells_per_axis)
    face_cells, face_areas = [], []
    cell_vol = prod(h)
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


def _finite_total(samples, total, what: str) -> float:
    """A quadrature's `total` as a float; NonFiniteSample if it or a sample is not finite."""
    if not np.all(np.isfinite(samples)):
        raise NonFiniteSample(f"{what} integrand has non-finite samples")
    if not np.isfinite(total):
        raise NonFiniteSample(f"{what} integral overflows")
    return float(total)


@np.errstate(over="ignore", invalid="ignore")
def interior_integral(mesh: Mesh, samples) -> float:
    """Midpoint-rule integral over the domain; exact for per-cell constants."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size != mesh.n_cells:
        raise ValueError("one sample per cell required")
    return _finite_total(samples, np.sum(samples) * mesh.cell_volume, "interior")


@np.errstate(over="ignore", invalid="ignore")
def boundary_integral(mesh: Mesh, boundary_samples) -> float:
    """Face-midpoint integral over the boundary of the box."""
    samples = np.asarray(boundary_samples, dtype=float).ravel()
    if samples.size != mesh.face_cells.size:
        raise ValueError("one sample per boundary face required")
    return _finite_total(samples, np.sum(samples * mesh.face_areas), "boundary")
