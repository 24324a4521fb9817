"""Domains, uniform cell-centered meshes, their reduction, the Robin operator
of the (u, v) state on them and geometric constants.  Quadrature over a mesh
is functionals.py's.

Boxes are meshed with a uniform cell-centered grid; balls exist only as
analytic domains (geometric constants and volume) and cannot be meshed.
The origin is always the centroid of the domain.

A box's cell centres are antisymmetric bit for bit on each axis with an
even cell count, x_i = -x_{n-1-i}, so data even in that coordinate are
equal to their mirror image.  `Mesh.fold` meshes the part of a box where
x_a >= 0 on some axes, each with an even cell count: half the cells on
each folded axis, whose low face is a mirror plane (ghost = cell, g = 1).
It also collapses axes: a collapsed axis is one cell wide, of the box's
h_a, with both of the box's faces on that cell.  The reduced mesh's
`cell_volume` carries the multiplicity of its cells, 2 per folded axis
and n_a per collapsed one, and each face area that of the axes other
than a collapsed face's own; a folded axis lists its high face alone.
So each quadrature of a state even in the folded axes and constant along
the collapsed ones gives the value on the whole box.

`Mesh.reduced` picks the fold and the collapse of a run's data.  The
solution is even along an axis whenever the data are, as the reaction acts
cell by cell and A, with one gamma per field on every face, commutes with
the mirror; and under Neumann walls (gamma1 = gamma2 = 0) it is constant
along an axis whenever the data are, as A then maps fields constant along
it to such fields.  So it walks the axes in order, judging each on the
cells of g1 and g2 that the axes before it keep, to `_MIRROR_EPS` (4) eps
of each field's sup-norm: when both gammas are 0 it collapses the axis, at
any cell count, if each kept cell is that close to the cell of the axis's
last slice in its row; else it folds it, at an even cell count, if each
kept cell at x_a > 0 is that close to its mirror cell; the next axis reads
only the cells kept, a collapsed axis's last slice or a folded one's half
at x_a > 0.  Each cell must be negative iff the cell it is compared with
is.  The box's centres are antisymmetric bit for bit, so data even in a
coordinate are even bit for bit; data built on a caller's own grid, off
antisymmetric by an ulp of the half-extent, are even to a few eps, while
one product with A breaks the evenness of bit-even data by hundreds of eps
of |A y|.  `Mesh.restrict` takes the data to the reduced mesh's cells and
`Mesh.unfold` mirrors and broadcasts a field on them back to the box, a
round trip that moves the data by at most the tolerance per reduced axis.
On a state even in the folded axes and constant along the collapsed ones the
reduced operator is the box's, cell for cell: the fold's low face is a
mirror, whose ghost is the cell, as the box's neighbour across the plane
is; a collapsed axis keeps the box's h and both walls, whose Neumann
ghosts are the cell, as its neighbours along the axis are, so its
eigenvalue is exactly 0.

The operator is defined once, by one tridiagonal per axis and field: its
DIA matrix and its eigenpairs are both built from those rows.
`RobinOperator.add_product` adds A y with one product with the DIA matrix.
Importing this module loads numpy alone: a DIA matrix imports
`scipy.sparse` when first built, and the eigenpairs need numpy only, so a
run that never builds a DIA matrix never loads scipy.  The solver builds
one for `rhs` and for a DP5 step on more than one cell: a Lawson-only run,
and a run collapsed onto one cell, which steps the reaction alone, build
none.
"""

from dataclasses import dataclass
from functools import cached_property
from math import inf, pi, prod, sqrt

import numpy as np

from .errors import BallMeshUnsupported, ResolutionTooCoarse

BOX = "box"
BALL = "ball"
# how far a cell may be from the cell that `Mesh.reduced` compares it with,
# in eps of its field's sup-norm: the rounding of data built on a grid other
# than the mesh's
_MIRROR_EPS = 4.0


def require_gamma(gamma: float, name: str = "gamma") -> float:
    """The Robin rule: gamma must be finite and >= 0.  Returns gamma."""
    if not 0 <= gamma < inf:
        raise ValueError(f"{name} must be finite and >= 0, got {gamma:g}")
    return gamma


def _ghost_factor(gamma: float, ha: float) -> float:
    """g of the Robin ghost-cell closure ghost = g * cell along an axis of
    spacing ha; its limit -1 where gamma * ha overflows."""
    gh = gamma * ha
    return -1.0 if gh == inf else (2.0 - gh) / (2.0 + gh)


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
        # r**3 raises OverflowError past r = 5.6e102; 4/3 pi r^3 is inf past 3.5e102
        return 4.0 / 3.0 * pi * (self.radius**3 if self.radius < 5e102 else inf)


@dataclass(frozen=True)
class GeometryConstants:
    """rho = min over the boundary of x.nu, d = max over the closure of |x|."""

    rho: float
    d: float


@dataclass(frozen=True)
class Mesh:
    """Uniform cell-centered grid over a box domain of `box_shape` cells, or
    over the part of it where x_a >= 0 for each a in `mirror_axes`, one cell
    wide along each axis in `collapsed_axes` (`fold`).

    Boundary faces are enumerated axis by axis, low side then high side,
    cells in C order; this fixed ordering keeps quadrature deterministic.
    A folded axis's low face is a mirror plane, not a boundary face.
    """

    spec: DomainSpec
    shape: tuple[int, ...]  # the cell counts of each axis
    box_shape: tuple[int, ...]  # the box's cell counts, which `fold` reduces
    h: tuple[float, ...]
    cell_centers: np.ndarray  # (n_cells, N)
    face_cells: np.ndarray  # (n_faces,) flat cell index of the adjacent cell
    face_areas: np.ndarray  # (n_faces,) times the other axes' multiplicity (module docstring)
    mirror_axes: tuple[int, ...] = ()
    collapsed_axes: tuple[int, ...] = ()

    @property
    def n_cells(self) -> int:
        return prod(self.shape)

    @property
    def cell_volume(self) -> float:
        """The quadrature weight of a cell: its volume times its multiplicity,
        the box cells it stands for (2^k on k folded axes times n_a on each
        collapsed axis), so that n_cells * cell_volume is the box's volume."""
        return prod(self.h) * (prod(self.box_shape) // self.n_cells)

    def fold(self, axes: tuple[int, ...] = (), collapsed: tuple[int, ...] = ()) -> "Mesh":
        """The mesh of the part of this box mesh where x_a >= 0 for each a in
        `axes`, each with an even cell count, and one cell wide along each
        axis in `collapsed`: the same h, on each folded axis the half at
        x_a > 0 with a mirror plane for its low face, and on each collapsed
        axis one cell, the box's last, with both walls.  The mesh built last
        is kept on this mesh."""
        axes, collapsed = tuple(axes), tuple(collapsed)
        if (self.shape != self.box_shape or any(self.shape[a] % 2 for a in axes)
                or set(axes) & set(collapsed)):
            raise ValueError(f"cannot fold axes {axes} and collapse axes {collapsed} of a "
                             f"mesh of {self.shape} cells with mirror axes {self.mirror_axes}: "
                             f"a fold takes a box mesh, even cell counts and other axes than "
                             f"a collapse")
        kept = self.__dict__.get("_fold")
        if kept is None or (kept.mirror_axes, kept.collapsed_axes) != (axes, collapsed):
            kept = self.__dict__["_fold"] = _box_mesh(self.spec, self.shape, self.h, axes,
                                                      collapsed)
        return kept

    def reduced(self, g1: np.ndarray, g2: np.ndarray, gamma1: float, gamma2: float) -> "Mesh":
        """The mesh a run of the flat data g1, g2 under gamma1, gamma2 steps:
        this box mesh reduced by a walk over its axes, each judged on the
        cells the axes before it keep: collapsed if both gammas are 0 and the
        data are constant along it, else folded if they are even in it, to
        `_MIRROR_EPS` eps of each field's sup-norm (module docstring).  Cells
        are compared only with cells of their sign, so a count of negative
        cells reads the box's."""
        grids, axes, collapsed = [], [], []
        for f in (g1, g2):  # the grid, its tolerance and whether it has a negative cell
            low, high = f.min(), f.max()
            grids.append((f.reshape(self.shape), _MIRROR_EPS * np.finfo(float).eps * max(high, -low),
                          low < 0))

        def close(cells, ref, tol, signed):
            # only cells of one sign are subtracted, which cannot overflow
            if signed and not np.all((cells < 0) == (ref < 0)):
                return False
            diff = cells - ref
            return max(diff.max(), -diff.min()) <= tol

        def part(g, axis, cells):  # the slice `cells` of the grid g along an axis
            return g[(slice(None),) * axis + (cells,)]

        for axis, na in enumerate(self.shape):
            last, upper, lower = slice(-1, None), slice(na // 2, None), slice(None, na // 2)
            if gamma1 == gamma2 == 0 and all(close(g, part(g, axis, last), tol, signed)
                                             for g, tol, signed in grids):
                keep, reduction = last, collapsed
            elif na % 2 == 0 and all(close(part(g, axis, upper), np.flip(part(g, axis, lower), axis),
                                           tol, signed) for g, tol, signed in grids):
                keep, reduction = upper, axes
            else:
                continue
            reduction.append(axis)  # and the next axis reads the cells it keeps
            grids = [(part(g, axis, keep), tol, signed) for g, tol, signed in grids]
        return self.fold(tuple(axes), tuple(collapsed)) if axes or collapsed else self

    def restrict(self, box_values: np.ndarray) -> np.ndarray:
        """A field on the box, one value per box cell, at the cells this mesh
        keeps: the last n_a of each axis, all of them on a box mesh."""
        index = tuple(slice(n - m, None) for n, m in zip(self.box_shape, self.shape))
        return box_values.reshape(self.box_shape)[index].ravel()

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """A field on this mesh, mirrored on each folded axis and broadcast
        along each collapsed one back to every cell of the box: the inverse
        of `restrict` on fields even in the folded axes and constant along
        the collapsed ones."""
        grid = values.reshape(self.shape)
        for axis in self.mirror_axes:
            grid = np.concatenate([np.flip(grid, axis), grid], axis=axis)
        if self.collapsed_axes:  # a copy, as ravel copies a broadcast
            grid = np.broadcast_to(grid, self.box_shape)
        return grid.ravel()

    @cached_property
    def inverse_h2(self) -> tuple[float, ...]:
        """h_a^-2 of each axis, which the Robin operator's matrix and modes
        read: ValueError unless each is a normal float and the bound
        4 sum_a h_a^-2 on the spectrum is finite.  Quadrature needs neither."""
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            weights = 1.0 / np.square(self.h)
            bound = 4.0 * weights.sum()
        if not (np.all(weights >= np.finfo(float).tiny) and np.isfinite(bound)):
            raise ValueError(f"cell widths {self.h} put the Laplacian's weights h^-2 "
                             f"outside the normal floats")
        return tuple(weights.tolist())

    def robin_operator(self, gamma1: float, gamma2: float) -> "RobinOperator":
        """The Robin Laplacian of y = [u; v], u's walls with gamma1 and v's
        with gamma2, built anew on each call: one mesh serves many gammas."""
        gammas = (require_gamma(gamma1, "gamma1"), require_gamma(gamma2, "gamma2"))
        self.inverse_h2  # ValueError for a mesh whose h^-2 the operator cannot apply
        return RobinOperator(self, gammas)


@dataclass(frozen=True, eq=False)
class RobinOperator:
    """A on y = [u; v], from `Mesh.robin_operator`: each field's block is the
    Kronecker sum of one symmetric tridiagonal per axis, off-diagonal 1/h_a^2
    and main diagonal `_axis_diagonals`.  `matrix` holds A as one DIA matrix
    of the stacked state; `eigenpairs` diagonalise the tridiagonals, so
    A = Q diag(Lambda) Q^T, each field's Q the Kronecker product of its axes'
    eigenvectors and Lambda the sums of their eigenvalues (fast
    diagonalisation, Lynch, Rice & Thomas 1964).  Each array is built on
    first use by its reader: a Lawson run builds the eigenpairs and one scratch state.
    """

    mesh: Mesh
    gammas: tuple[float, float]

    def _axis_diagonals(self) -> list[np.ndarray]:
        """Per axis, both fields' main diagonals (2, n_a) of its tridiagonal:
        -2/h_a^2 on every cell, plus g/h_a^2 of each face on the cell beside
        it, from the ghost-cell closure ghost = g * cell, second order at the
        face; g = 1 at a mirror plane.  A one-cell axis's cell has both faces."""
        rows = []
        for axis, (na, ha) in enumerate(zip(self.mesh.shape, self.mesh.h)):
            row = np.full((2, na), -2.0)
            for field, gamma in enumerate(self.gammas):
                g = _ghost_factor(gamma, ha)
                row[field, 0] += 1.0 if axis in self.mesh.mirror_axes else g
                row[field, -1] += g
            rows.append(row * self.mesh.inverse_h2[axis])
        return rows

    def add_product(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += A y, one product with `matrix` for both fields; returns out."""
        return np.add(self.matrix @ y, out, out=out)

    @cached_property
    def matrix(self) -> "scipy.sparse.dia_array":
        """A as one (2n, 2n) DIA matrix, built on first use: the axes' main
        diagonals summed on offset 0, and 1/h_a^2 at +-stride of each axis of
        more than one cell (+-1, +-n_z, +-n_y*n_z in 3D; a one-cell axis's
        strides may equal another axis's).  Its entries that would couple
        cells across a face are zero, so the last u cell and the first v
        cell do not couple either."""
        from scipy.sparse import dia_array

        shape, n = self.mesh.shape, 2 * self.mesh.n_cells
        axes = [axis for axis, na in enumerate(shape) if na > 1]
        data = np.empty((2 * len(axes) + 1, 2, *shape))
        rows = [row.reshape(2, *(-1 if b == axis else 1 for b in range(len(shape))))
                for axis, row in enumerate(self._axis_diagonals())]
        np.add(sum(rows[:-1], 0.0), rows[-1], out=data[0])  # summed in axis order
        offsets = [0]
        for k, axis in enumerate(axes):
            stride = prod(shape[axis + 1:])
            # DIA keys entries by column, data[k, j] = A[j - offsets[k], j]:
            # A[i, i + stride] exists iff column j = i + stride has a low
            # neighbour, and A[i, i - stride] iff column j has a high one
            up, down = data[2 * k + 1:2 * k + 3]
            data[2 * k + 1:2 * k + 3] = self.mesh.inverse_h2[axis]
            up.swapaxes(1, axis + 1)[:, 0] = down.swapaxes(1, axis + 1)[:, -1] = 0.0
            offsets += [stride, -stride]
        return dia_array((data.reshape(len(data), n), offsets), shape=(n, n))

    @cached_property
    def eigenpairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis, the eigenvalues (2, n_a) and the orthonormal eigenvectors,
        as columns, (2, n_a, n_a) of both fields' tridiagonals, from one
        batched `np.linalg.eigh` of the dense n_a x n_a tridiagonals.  The
        tridiagonal depends on the axis through (n_a, h_a) and whether its
        low face is a mirror alone, so axes alike in all three share one pair
        of arrays: a cube makes one call."""
        mesh, by_axis = self.mesh, {}
        keys = [(na, ha, axis in mesh.mirror_axes)
                for axis, (na, ha) in enumerate(zip(mesh.shape, mesh.h))]
        for key, row, wa in zip(keys, self._axis_diagonals(), mesh.inverse_h2):
            if key in by_axis:
                continue
            i = np.arange(key[0])
            tri = np.zeros((2, key[0], key[0]))
            tri[:, i, i] = row
            tri[:, i[1:], i[:-1]] = tri[:, i[:-1], i[1:]] = wa
            lam, q = np.linalg.eigh(tri)
            # the matrix is negative semidefinite; a zero mode may round above 0
            by_axis[key] = (np.minimum(lam, 0.0, out=lam), q)
        return tuple(by_axis[key] for key in keys)

    @property
    def _modes_shape(self) -> tuple[int, ...]:  # (fields, n_0, ..., n_N-1), from `eigenpairs`
        return (len(self.eigenpairs[0][0]), *(lam.shape[1] for lam, _ in self.eigenpairs))

    @cached_property
    def _scratch(self) -> np.ndarray:  # one state, the transforms' second buffer
        return np.empty(prod(self._modes_shape))

    def decay(self, tau: float, out: np.ndarray) -> np.ndarray:
        """out = e^{tau Lambda}, the exponential of A over a time tau in its
        eigenbasis, Lambda summed in `out` from its axes' values, axis by axis."""
        grid = out.reshape(self._modes_shape)  # a view of `out`, one contiguous state
        grid.fill(0.0)
        for axis, (lam, _) in enumerate(self.eigenpairs):
            grid += lam.reshape(len(lam), *(-1 if b == axis else 1 for b in range(grid.ndim - 1)))
        return np.exp(np.multiply(out, tau, out=out), out=out)

    def to_modes(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = Q^T src; `out` must not be `src`."""
        return self._apply([q.transpose(0, 2, 1) for _, q in self.eigenpairs], src, out)

    def from_modes(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = Q src; `out` must not be `src`."""
        return self._apply([q for _, q in self.eigenpairs], src, out)

    def _apply(self, mats, src, out):
        """Apply mats[a], one matrix per field, along each axis a of both
        fields, alternating between `out` and the scratch buffer so that the
        last axis writes `out`."""
        fields, shape = len(mats[0]), tuple(m.shape[-1] for m in mats)
        buffers = (out, self._scratch) if len(mats) % 2 else (self._scratch, out)
        x = src
        for axis, m in enumerate(mats):
            dst, na = buffers[axis % 2], shape[axis]
            if axis == len(mats) - 1:
                # the rows of x times m^T: one matrix product per field, not one per row
                view = (fields, -1, na)
                np.matmul(x.reshape(view), m.transpose(0, 2, 1), out=dst.reshape(view))
            else:
                view = (fields, prod(shape[:axis]), na, -1)
                np.matmul(m[:, None], x.reshape(view), out=dst.reshape(view))
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

    h = tuple(2.0 * L / n for L, n in zip(spec.half_extents, cells_per_axis))
    cell_vol = prod(h)
    if not all(0 < x < inf for x in (*h, cell_vol)):
        raise ValueError(f"cell widths {h} and cell volume {cell_vol} must be positive and finite")
    return _box_mesh(spec, cells_per_axis, h, (), ())


def _box_mesh(spec: DomainSpec, box_cells, h, mirror_axes, collapsed_axes) -> Mesh:
    """The mesh of a box of `box_cells` cells of widths h, folded on
    `mirror_axes` and collapsed along `collapsed_axes` (`Mesh.fold`): the
    box's centres at x_a > 0 on a folded axis, its last on a collapsed one."""
    shape = tuple(n // 2 if a in mirror_axes else 1 if a in collapsed_axes else n
                  for a, n in enumerate(box_cells))
    axes = [_axis_centres(L, ha, n)[n - m:]
            for L, ha, n, m in zip(spec.half_extents, h, box_cells, shape)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)

    flat_index = np.arange(prod(shape)).reshape(shape)
    copies = prod(box_cells) // prod(shape)  # `Mesh.cell_volume`'s multiplicity
    face_cells, face_areas = [], []
    for axis in range(len(h)):
        # a collapsed axis's faces lie on its one cell, of whose n_a copies in
        # the box one touches each face
        area = prod(h) * (copies // box_cells[axis] if axis in collapsed_axes else copies) / h[axis]
        for side in (0, -1)[axis in mirror_axes:]:  # a mirror plane is no face
            cells = np.take(flat_index, side, axis=axis).ravel()
            face_cells.append(cells)
            face_areas.append(np.full(cells.size, area))

    return Mesh(
        spec=spec,
        shape=shape,
        box_shape=tuple(box_cells),
        h=h,
        cell_centers=centers,
        face_cells=np.concatenate(face_cells),
        face_areas=np.concatenate(face_areas),
        mirror_axes=mirror_axes,
        collapsed_axes=collapsed_axes,
    )


def _axis_centres(L: float, ha: float, n: int) -> np.ndarray:
    """The n cell centres of an axis of [-L, L]: `np.linspace`'s, with the
    upper half mirrored onto the lower at an even n, so that x_i = -x_{n-1-i}
    bit for bit.  An odd n, which no fold halves, keeps linspace's centres."""
    x = np.linspace(-L + ha / 2.0, L - ha / 2.0, n)
    if n % 2 == 0:
        x[:n // 2] = -x[::-1][:n // 2]
    return x


def geometry_constants(spec: DomainSpec) -> GeometryConstants:
    """Closed-form rho and d for boxes and balls centered at the origin."""
    if spec.kind == BALL:
        return GeometryConstants(rho=spec.radius, d=spec.radius)
    rho = min(spec.half_extents)
    d = sqrt(sum(L * L for L in spec.half_extents))
    return GeometryConstants(rho=rho, d=d)
