"""Structured tensor-product grids on the unit cell and the unit box.

Two mesh types cover everything the solvers need:

* ``CellGrid`` -- a uniform lattice on the periodicity cell Y = [0,1]^n whose
  opposite faces are identified, so a grid with m cells per side carries
  exactly m^n degrees of freedom.  Micro (cell) problems live here.
* ``MacroGrid`` -- a uniform lattice on the box [0,1]^n with Dirichlet nodes
  marked on the boundary.  Both the homogenized solve and the resolved
  fine-scale solve use this type (the fine grid is just a finer instance).

Grids are uniform, so finite-difference derivative recovery reduces to
index arithmetic, and every multilinear read off a lattice -- a grid's
nodes or the parameter lattice of the cell tables -- goes through one
kernel, :func:`lattice_corners`; a read at a tensor lattice of points
brackets each axis once (:func:`tensor_corners`).  Everything here is pure
and immutable.
The node axes and the element connectivity are computed once per grid
object, a field's recovered gradient and Hessian once per field object, and
the sparsity pattern of the Q1 operators once per lattice size; all are
handed out read-only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError


def corner_offsets(dim: int) -> np.ndarray:
    """Reference-element corner offsets, one row per local node.

    Order is fixed (last axis fastest) and shared with the Q1 basis in the
    assembly module, so local node c has reference coordinates
    ``corner_offsets(dim)[c]``.
    """
    return np.array(list(itertools.product((0, 1), repeat=dim)), dtype=int)


def _once_per_object(method):
    """Cache an array-valued function of one frozen grid or field on that
    object, read-only; the object never changes, so the result never goes
    stale, and it dies with the object.  An equal but distinct object
    computes its own."""
    key = f"_{method.__name__}"

    @functools.wraps(method)
    def cached(self):
        if key not in self.__dict__:
            out = method(self)
            out.flags.writeable = False
            self.__dict__[key] = out  # frozen dataclass: bypass __setattr__
        return self.__dict__[key]

    return cached


def _element_dofs(dim: int, m: int, n: int, periodic: bool) -> np.ndarray:
    """Node ids (m^dim, 2^dim) of the corners of the m^dim elements of a
    lattice of ``n`` nodes per side, elements and corners in lattice order
    (:func:`corner_offsets`), built axis by axis by broadcasting; a
    ``periodic`` lattice (n = m) wraps the far corners to the near ones."""
    along = np.arange(m)[:, None] + np.arange(2)  # (element, corner bit) along one axis
    if periodic:
        along %= n
    ids = np.zeros((1,) * (2 * dim), dtype=along.dtype)
    for d in range(dim):
        shape = [1] * (2 * dim)
        shape[d], shape[dim + d] = m, 2
        ids = ids * n + along.reshape(shape)
    return ids.reshape(m**dim, 2**dim)


@functools.lru_cache(maxsize=16)
def stencil_pattern(dim: int, m: int, periodic: bool) -> tuple:
    """CSR pattern of the Q1 operators on a grid of ``m`` cells per side.

    The nodes of an operator's stencil are the (m + 1)^dim element corners:
    entry [x, o] couples node x to node x + o, o in {-1, 0, 1}^dim.  Returns
    int32 ``indptr`` and ``indices``, and ``keep``, a boolean mask over the
    stencil laid out as (m + 1,)*dim + (3,)*dim that picks each row's
    entries in row order.  A box keeps the offsets that stay on the grid,
    already in column order.  A periodic grid keeps the corners below the
    far faces, which are their copies, with every offset wrapped; its
    wrapped columns are out of order, and with 2 cells per side offsets -1
    and 1 name one column, listed twice.  Cached, so shared and read-only.
    """
    n = m if periodic else m + 1  # nodes per side
    corner = np.arange(m + 1)[:, None]
    along = corner + np.arange(-1, 2)  # neighbour ids along one axis
    if periodic:
        along %= m
    cols = np.zeros((1,) * (2 * dim), dtype=np.int32)
    keep = np.ones((1,) * (2 * dim), dtype=bool)
    for d in range(dim):
        shape = [1] * (2 * dim)
        shape[d], shape[dim + d] = m + 1, 3
        cols = cols * n + along.astype(np.int32).reshape(shape)
        keep = keep & ((corner < n) & (along >= 0) & (along < n)).reshape(shape)
    counts = keep.sum(axis=tuple(range(dim, 2 * dim)))[(slice(0, n),) * dim]
    indptr = np.zeros(n**dim + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    out = indptr, cols[keep], keep
    for arr in out:
        arr.flags.writeable = False  # cached, so shared by every operator of this size
    return out


def _check_dim(dim):
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class CellGrid:
    """Periodic uniform lattice on Y = [0,1]^n with opposite faces identified."""

    dim: int
    cells_per_side: int

    def __post_init__(self):
        _check_dim(self.dim)
        if self.cells_per_side < 2:
            raise ValueError("cell grid needs at least 2 cells per side")

    @property
    def spacing(self) -> float:
        return 1.0 / self.cells_per_side

    @property
    def ndof(self) -> int:
        return self.cells_per_side**self.dim

    @property
    def n_elements(self) -> int:
        return self.cells_per_side**self.dim

    def axes(self) -> list:
        """The node coordinates along each axis, one read-only array made
        once per grid; the nodes are their product, first axis slowest."""
        return [self._axis()] * self.dim

    @_once_per_object
    def _axis(self) -> np.ndarray:
        return np.arange(self.cells_per_side) * self.spacing

    def dof_coords(self) -> np.ndarray:
        """Coordinates of the representative nodes, shape (ndof, dim)."""
        return lattice_points(self.axes())

    @_once_per_object
    def element_dofs(self) -> np.ndarray:
        """Global DOF ids of each element's corners, shape (E, 2^dim).

        Corner columns follow :func:`corner_offsets`; indices on the far
        faces wrap around, which is exactly the periodic identification.
        """
        m = self.cells_per_side
        return _element_dofs(self.dim, m, m, periodic=True)


@dataclass(frozen=True)
class MacroGrid:
    """Uniform lattice on [0,1]^n with Dirichlet nodes on the boundary."""

    dim: int
    cells_per_side: int

    def __post_init__(self):
        _check_dim(self.dim)
        if self.cells_per_side < 2:
            raise ValueError("macro grid needs at least 2 cells per side")

    @property
    def spacing(self) -> float:
        return 1.0 / self.cells_per_side

    @property
    def nodes_per_side(self) -> int:
        return self.cells_per_side + 1

    @property
    def ndof(self) -> int:
        return self.nodes_per_side**self.dim

    @property
    def n_elements(self) -> int:
        return self.cells_per_side**self.dim

    def axes(self) -> list:
        """The node coordinates along each axis, one read-only array made
        once per grid; the nodes are their product, first axis slowest."""
        return [self._axis()] * self.dim

    @_once_per_object
    def _axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes_per_side)

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask over nodes: True where any coordinate index is 0 or m."""
        k = self.nodes_per_side
        grids = np.meshgrid(*[np.arange(k)] * self.dim, indexing="ij")
        mask = np.zeros((k,) * self.dim, dtype=bool)
        for g in grids:
            mask |= (g == 0) | (g == k - 1)
        return mask.reshape(-1)

    def boundary_dofs(self) -> np.ndarray:
        return np.nonzero(self.boundary_mask())[0]

    def interior_dofs(self) -> np.ndarray:
        return np.nonzero(~self.boundary_mask())[0]

    @_once_per_object
    def element_dofs(self) -> np.ndarray:
        """Global DOF ids of each element's corners, shape (E, 2^dim), corner
        columns in :func:`corner_offsets` order."""
        return _element_dofs(self.dim, self.cells_per_side, self.nodes_per_side, periodic=False)


@dataclass(frozen=True)
class ScalarField:
    """Nodal values attached to a grid (one value per representative DOF).
    A field is immutable: its recovered derivatives (:func:`fd_gradient`,
    :func:`fd_hessian`) are kept on it once read, so its values must not
    change in place."""

    grid: CellGrid | MacroGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.ndof,):
            raise ValueError(
                f"field has {vals.shape} values, grid expects ({self.grid.ndof},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")


def lattice_points(axes) -> np.ndarray:
    """The points (K, dim) of the tensor lattice of the per-axis coordinates
    ``axes``, first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def lattice_corners(axes, queries, periodic=False, derivative=None):
    """Multilinear interpolation on the tensor lattice of ``axes``: the one
    kernel behind every grid, cell and parameter-table read.

    Each axis brackets the queries' column along it: a clamped axis holds
    increasing samples, brackets by ``searchsorted`` and clamps queries
    beyond its ends to them; a ``periodic`` axis is the uniform lattice
    k / n, k < n, of period 1, and wraps queries by ``floor``.  A
    one-sample axis adds no corner.  Returns (ids, weights), each
    (K, 2^axes): lattice ids flattened with the first axis slowest, corners
    in :func:`corner_offsets` order over the axes that have them, and
    weights multiplied in axis order, summing to one per query.

    With ``derivative`` = d, a clamped axis, the weights are the blend's exact
    derivative along it: -1/h and 1/h on a bracket of width h (one-sided at a
    sample), 0 beyond the axis' ends or on one sample, where it is flat.
    """
    queries = np.asarray(queries, dtype=float)
    brackets = []  # (sample count, (lower, upper) ids, their weights) per axis
    for d, samples in enumerate(axes):
        n = len(samples)
        if n == 1:
            continue
        q = queries[:, d]
        if periodic:
            t = np.mod(q, 1.0) * n
            lo = np.minimum(np.floor(t).astype(int), n - 1)  # guards t == n from rounding
            upper = t - lo
            hi = (lo + 1) % n
        else:
            inside = (q >= samples[0]) & (q <= samples[-1])
            q = np.clip(q, samples[0], samples[-1])
            lo = np.clip(np.searchsorted(samples, q, side="right") - 1, 0, n - 2)
            upper = (q - samples[lo]) / np.diff(samples)[lo]
            hi = lo + 1
        w = (1.0 - upper, upper)
        if d == derivative:
            slope = np.where(inside, 1.0 / np.diff(samples)[lo], 0.0)
            w = (-slope, slope)
        brackets.append((n, (lo, hi), w))
    offsets = corner_offsets(len(brackets))
    # built corner by corner, so each returned column is contiguous
    ids = np.zeros((len(offsets), len(queries)), dtype=int)
    wts = np.ones((len(offsets), len(queries)))
    for c, off in enumerate(offsets):
        for (n, idx, w), bit in zip(brackets, off):
            ids[c] *= n
            ids[c] += idx[bit]
            wts[c] *= w[bit]
    if derivative is not None and len(axes[derivative]) == 1:
        wts[:] = 0.0
    return ids.T, wts.T


def grid_corners(grid, points):
    """:func:`lattice_corners` of ``points`` (K, dim) on a grid's nodes:
    periodic on a cell grid, clamped on a macro grid, which refuses points
    outside [0,1]^dim by more than rounding."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.dim:
        raise ValueError(f"points have dim {pts.shape[1]}, grid dim {grid.dim}")
    periodic = isinstance(grid, CellGrid)
    if not periodic:
        outside = (pts < -1e-12) | (pts > 1.0 + 1e-12)
        if outside.any():
            bad = pts[outside.any(axis=1)][0]
            raise OutOfDomainError(f"point {bad} outside [0,1]^{grid.dim}")
    return lattice_corners(grid.axes(), pts, periodic)


def tensor_corners(grid, axes):
    """:func:`grid_corners` of the tensor lattice of the per-axis coordinates
    ``axes``, first axis slowest, bracketing each axis once.

    Returns (ids, weights), two lists over the corners in
    :func:`corner_offsets` order, each entry shaped (len(axes[0]), ...,
    len(axes[-1])) by broadcasting: the same ids, and weights multiplied in
    the same axis order, as the point form gives each lattice point.
    """
    if len(axes) != grid.dim:
        raise ValueError(f"{len(axes)} axes, grid dim {grid.dim}")
    periodic = isinstance(grid, CellGrid)
    brackets = []  # (ids, weights), each (n_d, 2) and shaped to broadcast along axis d
    for d, (samples, coords) in enumerate(zip(grid.axes(), axes)):
        coords = np.asarray(coords, dtype=float)
        outside = (coords < -1e-12) | (coords > 1.0 + 1e-12)
        if not periodic and outside.any():
            raise OutOfDomainError(f"coordinate {coords[outside][0]} outside [0,1] on axis {d}")
        shape = [1] * grid.dim + [2]
        shape[d] = len(coords)
        brackets.append(tuple(a.reshape(shape) for a in
                              lattice_corners([samples], coords[:, None], periodic)))
    n = len(grid.axes()[0])
    ids, wts = [], []
    for off in corner_offsets(grid.dim):
        idx, w = 0, 1.0
        for (b_ids, b_wts), bit in zip(brackets, off):
            idx = idx * n + b_ids[..., bit]
            w = w * b_wts[..., bit]
        ids.append(idx)
        wts.append(w)
    return ids, wts


def interpolate_values(grid, values: np.ndarray, points) -> np.ndarray:
    """Multilinear interpolation of nodal ``values`` at ``points`` (K, dim)."""
    ids, wts = grid_corners(grid, points)
    return np.sum(np.asarray(values)[ids] * wts, axis=1)


def periodic_fd_gradient(grid: CellGrid, values: np.ndarray) -> np.ndarray:
    """Nodal gradient of a cell-grid field by wrapped central differences.

    Second-order accurate everywhere (the lattice has no boundary once the
    faces are identified); used to evaluate fast-variable derivatives of
    correctors pointwise instead of through elementwise jumps.
    """
    if not isinstance(grid, CellGrid):
        raise TypeError("periodic_fd_gradient expects a cell grid")
    m = grid.cells_per_side
    arr = np.asarray(values, dtype=float).reshape((m,) * grid.dim)
    comps = [
        (np.roll(arr, -1, axis=d) - np.roll(arr, 1, axis=d)) / (2.0 * grid.spacing)
        for d in range(grid.dim)
    ]
    return np.stack([c.reshape(-1) for c in comps], axis=-1)


@_once_per_object
def fd_gradient(fld: ScalarField) -> np.ndarray:
    """Nodal gradient of a macro-grid field, shape (ndof, dim), computed
    once per field object and read-only.

    Second-order central differences at interior nodes, second-order
    one-sided stencils on the boundary (exact for quadratics inside).
    """
    grid = fld.grid
    if not isinstance(grid, MacroGrid):
        raise TypeError("fd_gradient expects a macro-grid field")
    if grid.cells_per_side < 3:
        raise ValueError("fd_gradient needs at least 3 cells per side")
    k = grid.nodes_per_side
    arr = fld.values.reshape((k,) * grid.dim)
    comps = [
        np.gradient(arr, grid.spacing, axis=d, edge_order=2) for d in range(grid.dim)
    ]
    return np.stack([c.reshape(-1) for c in comps], axis=-1)


@_once_per_object
def fd_hessian(fld: ScalarField) -> np.ndarray:
    """Nodal Hessian of a macro-grid field, shape (ndof, dim, dim), computed
    once per field object and read-only.

    Interior nodes use the 3-point second-difference (diagonal) and 4-point
    cross (mixed) stencils; boundary nodes copy the nearest interior value,
    which is adequate because second derivatives are only consumed away from
    the boundary layer.
    """
    grid = fld.grid
    if not isinstance(grid, MacroGrid):
        raise TypeError("fd_hessian expects a macro-grid field")
    if grid.cells_per_side < 4:
        raise ValueError("fd_hessian needs at least 4 cells per side")
    k = grid.nodes_per_side
    h = grid.spacing
    arr = fld.values.reshape((k,) * grid.dim)
    out = np.zeros((grid.dim, grid.dim) + arr.shape)

    for d in range(grid.dim):
        second = np.zeros_like(arr)
        sl_c = [slice(None)] * grid.dim
        sl_m = [slice(None)] * grid.dim
        sl_p = [slice(None)] * grid.dim
        sl_c[d], sl_m[d], sl_p[d] = slice(1, -1), slice(0, -2), slice(2, None)
        second[tuple(sl_c)] = (
            arr[tuple(sl_m)] - 2.0 * arr[tuple(sl_c)] + arr[tuple(sl_p)]
        ) / h**2
        out[d, d] = second

    if grid.dim == 2:
        cross = np.zeros_like(arr)
        cross[1:-1, 1:-1] = (
            arr[2:, 2:] - arr[2:, :-2] - arr[:-2, 2:] + arr[:-2, :-2]
        ) / (4.0 * h**2)
        out[0, 1] = cross
        out[1, 0] = cross

    # boundary values copied from the nearest interior node
    clamped = np.clip(np.arange(k), 1, k - 2)
    if grid.dim == 1:
        out = out[:, :, clamped]
    else:
        out = out[:, :, clamped[:, None], clamped[None, :]]
    return np.moveaxis(out.reshape(grid.dim, grid.dim, -1), -1, 0)
