"""Multilinear (Q1) finite elements on structured grids.

Assembly of variable-coefficient stiffness operators and load vectors with
tensor Gauss quadrature, plus linear solvers in two constraint flavours:
Dirichlet elimination on the box, and zero-mean projection on the periodic
cell.  A cell operator is a CSR matrix, factored exactly by sparse LU with
one node pinned, the solution then projected to mean zero; a
:class:`PeriodicFactor` carries that factor from one solve to the next.  A
box operator is its 3^dim-point stencil, off which a box solve reads its
interior equations, so no full-grid matrix is built.  In 1-D they are
tridiagonal and go to LAPACK's ``dptsv`` (LDL^T, O(n)), or to ``dgtsv`` for
a Newton Jacobian.  In 2-D conjugate gradients (GMRES for a Newton
Jacobian) solve them, preconditioned with a geometric multigrid V-cycle
built from the stencil once per solve: Galerkin coarse stencils P^T A P
under bilinear prolongation, formed by strided slices, damped-Jacobi
smoothing weighted to contract on every level and a sparse-LU coarsest
level, which keeps the iteration count flat as the grid is refined.  Every
level but the coarsest is its stencil's nine diagonals, whose products are
bitwise those of its CSR matrix, so no CSR copy or pattern is built for it.
A box solve may read one period of the stencil in place of the whole
(:func:`period_stiffness`, for coefficients of the fast variable alone):
every level is then built from a period of its own, coarsened with the
period's rows wrapped, and its diagonals and smoother weights are tiled
from it, byte for byte those of the whole stencil's level.

Every stiffness operator and Newton Jacobian comes from one stencil kernel.
The coefficient samples at the quadrature points, reshaped to (E,
Q*dim*dim), multiply one reference tensor of weighted Q1 gradient products,
shape (Q*dim*dim, C*C), giving the element matrices, which are added by
shifted slices into the 3^dim-point stencil of every node.  Precomputed
samples are one period, (P,)*dim + (Q, ...) with P dividing the cells per
side: a period that repeats is multiplied once and added over its copies by
broadcasting; one that is the whole grid, and an evaluator's samples, are
taken a chunk of element rows at a time, so the peak memory is the stencil
and one chunk.  Load vectors are the same kind of product with weighted
basis values or gradients, added into the nodes the same way on a box and
scattered by ``bincount`` on a cell, and the values or gradients of a nodal
field at the quadrature points are its element values (E, C) times the
basis values or gradients, which each rule tabulates once.  The reference
tensors of the stiffness, Jacobian, load and gradient products are formed
once per grid object and rule and kept on the grid, read-only
(:func:`~twoscale.grids.once_per_object`).  Coefficient evaluators are
called once per quadrature point, with one point per element, in element
order.
The Newton linearization reads all of its data, a, da/du, f and df/du, from
one reader called once per quadrature point, passing it the nodal state read
at those points through the element connectivity (a gather, since the
element of every quadrature point is known), so no point location runs on a
grid's own quadrature points; each read goes straight into the residual's
samples and the Jacobian's rows and is dropped.  Element contributions are
accumulated in a fixed element order so repeated runs are bitwise
reproducible regardless of how callers parallelize around this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import AssemblyError, CompatibilityError, NonConvergenceError
from .grids import (CellGrid, MacroGrid, corner_offsets, lattice_corners, once_per_object,
                    stencil_pattern)


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the reference element [0,1]^dim.

    The Q1 basis values and reference gradients at the points are tabulated
    on first use and kept, read-only, for every kernel that reads them.
    """

    points: np.ndarray  # (Q, dim)
    weights: np.ndarray  # (Q,)

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to the element measure")

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """:func:`q1_values` at the points, (Q, 2^dim)."""
        return _read_only(q1_values(self.points))

    @functools.cached_property
    def basis_gradients(self) -> np.ndarray:
        """:func:`q1_gradients` at the points, (Q, 2^dim, dim)."""
        return _read_only(q1_gradients(self.points))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def default_quadrature(dim: int) -> QuadratureRule:
    """Default assembly rule: :func:`gauss_rule` of one point per direction in 1-D, two in 2-D.

    Midpoint sampling is the right default in 1-D: piecewise-linear basis
    gradients are constant, so only the coefficient is integrated, and
    uniform midpoint samples of a smooth periodic coefficient make the
    assembled harmonic structures superalgebraically accurate (a two-point
    rule leaves an O(h^2) element-averaging bias).  In 2-D one point per
    element would leave the bilinear hourglass mode without stiffness, so
    the tensor two-point rule is the floor there.
    """
    return gauss_rule(1 if dim == 1 else 2, dim)


@functools.cache
def gauss_rule(n_points: int, dim: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n_points`` per direction, mapped to [0,1]; shared, read-only."""
    if n_points < 1:
        raise ValueError("need at least one quadrature point per direction")
    x, w = np.polynomial.legendre.leggauss(n_points)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if dim == 1:
        pts = x.reshape(-1, 1)
        wts = w
    else:
        pts = np.array([(a, b) for a in x for b in x])
        wts = np.array([wa * wb for wa in w for wb in w])
    return QuadratureRule(points=_read_only(pts), weights=_read_only(wts))


def q1_values(xi: np.ndarray) -> np.ndarray:
    """Q1 basis values at reference points ``xi`` (Q, dim) in [0,1]^dim ->
    (Q, 2^dim): the multilinear weights of the element's corners."""
    xi = np.atleast_2d(xi)
    return lattice_corners([np.array([0.0, 1.0])] * xi.shape[1], xi)[1]


def q1_gradients(xi: np.ndarray) -> np.ndarray:
    """Reference gradients of the Q1 basis, (Q, dim) -> (Q, 2^dim, dim)."""
    xi = np.atleast_2d(xi)
    dim = xi.shape[1]
    return np.stack([lattice_corners([np.array([0.0, 1.0])] * dim, xi, derivative=d)[1]
                     for d in range(dim)], axis=-1)


def element_quad_points(grid, quad: QuadratureRule, elements=slice(None)) -> np.ndarray:
    """Physical coordinates of the quadrature points of ``elements``, a slice
    of the element order (all of them by default), shape (E, Q, dim)."""
    ids = range(grid.n_elements)[elements]
    ids = np.arange(ids.start, ids.stop, ids.step)
    origins = np.stack(np.unravel_index(ids, (grid.cells_per_side,) * grid.dim), axis=-1)
    origins = origins * grid.spacing
    return origins[:, None, :] + quad.points[None, :, :] * grid.spacing


def element_blocks(grid) -> list:
    """The element order as slices of balanced chunks of whole element rows,
    at most ``_CHUNK_ELEMENTS`` elements each (one row, if a row holds more):
    the blocks in which a measurement forms its quadrature data, so that
    only one block of it is alive at a time."""
    row = grid.cells_per_side ** (grid.dim - 1)  # elements per element row
    return [slice(r0 * row, r1 * row) for r0, r1 in _passes(grid, grid.cells_per_side)]


def field_values_at_quad(grid, values: np.ndarray, quad: QuadratureRule,
                         elements=slice(None)) -> np.ndarray:
    """Q1 interpolant of nodal ``values`` at the quadrature points of
    ``elements`` (a slice of the element order or their ids, all by
    default), (E, Q)."""
    return np.asarray(values)[grid.element_dofs()[elements]] @ quad.basis.T


@once_per_object
def _gradient_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """The physical basis gradients at the points laid out as (C, Q*dim)."""
    n_q, n_loc, dim = quad.basis_gradients.shape
    return np.swapaxes(quad.basis_gradients, 0, 1).reshape(n_loc, n_q * dim) / grid.spacing


def field_gradients_at_quad(grid, values: np.ndarray, quad: QuadratureRule,
                            elements=slice(None)) -> np.ndarray:
    """Q1 gradient of nodal ``values`` at the quadrature points of
    ``elements`` (a slice of the element order or their ids, all by
    default), (E, Q, dim): one matrix product of the element values (E, C)
    with the physical basis gradients laid out as (C, Q*dim)."""
    n_q, _, dim = quad.basis_gradients.shape
    rows = np.asarray(values)[grid.element_dofs()[elements]]
    return (rows @ _gradient_reference(grid, quad)).reshape(-1, n_q, dim)


def integrate(grid, quad: QuadratureRule, samples: np.ndarray) -> float:
    """Integral over the grid's domain of quad-point samples (E, Q)."""
    cell_measure = grid.spacing**grid.dim
    return float(np.einsum("eq,q->", samples, quad.weights) * cell_measure)


def _eval_at_quad(grid, quad: QuadratureRule, fn, tail: tuple,
                  elements=slice(None)) -> np.ndarray:
    """``fn(points)`` at the quadrature points of ``elements`` (a slice of the
    element order, all of them by default), shape (E, Q, *tail).  ``fn`` is
    called once per quadrature point with one point per element, which
    bounds the size of its temporaries on large grids.
    """
    pts = element_quad_points(grid, quad, elements)
    out = np.empty(pts.shape[:2] + tail)
    for q in range(pts.shape[1]):
        vals = np.asarray(fn(pts[:, q, :]), dtype=float)
        if vals.shape != out.shape[:1] + tail:
            raise AssemblyError(f"evaluator returned shape {vals.shape}")
        out[:, q] = vals
    return out


def as_period(grid, s):
    """Samples (E, Q, ...) of every element as one period, P = cells per side."""
    return None if s is None else s.reshape((grid.cells_per_side,) * grid.dim + s.shape[1:])


def _period(grid, quad: QuadratureRule, samples, tail: tuple, what: str):
    """(samples, P) of one period, (P,)*dim + (Q,) + ``tail`` with P dividing
    the cells per side: element (i, j, ...) reads class (i mod P, j mod P, ...)."""
    samples = np.atleast_1d(np.asarray(samples, float))
    p = len(samples)
    shape = (p,) * grid.dim + (len(quad.weights),) + tail
    if not p or grid.cells_per_side % p or samples.shape != shape:
        raise AssemblyError(f"{what} samples have shape {samples.shape}, not one period")
    return samples, p


@once_per_object
def _stiffness_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """Reference tensor R, shape (Q*dim*dim, C*C), of the stiffness kernel.

    R[(q, i, j), (b, c)] = w_q |K| d_i phi_b(x_q) d_j phi_c(x_q), so the
    element matrices of coefficient samples a (E, Q, dim, dim) are the rows
    of one matrix product a.reshape(E, -1) @ R.
    """
    grads = quad.basis_gradients / grid.spacing  # (Q, C, dim)
    ref = np.einsum("q,qbi,qcj->qijbc", quad.weights * grid.spacing**grid.dim, grads, grads)
    n_q, n_loc, dim = grads.shape
    return ref.reshape(n_q * dim * dim, n_loc * n_loc)


# elements per pass of the kernels over a period that is the whole grid:
# bounds the coefficient samples and element matrices alive at once
_CHUNK_ELEMENTS = 1 << 15


def _tile(period: np.ndarray, copies: int, dim: int) -> np.ndarray:
    """``period`` (P,)*dim + ..., repeated ``copies`` times along each of its
    first ``dim`` axes; itself, uncopied, if once."""
    if copies == 1:
        return period
    return np.tile(period, (copies,) * dim + (1,) * (period.ndim - dim))


def _passes(grid, p: int) -> list:
    """Element-row ranges (r0, r1) of a period of ``p`` cells per side that
    the kernels multiply at once: the whole of a period that repeats, which
    has at most 2^-dim of the grid's elements, or balanced chunks of whole
    element rows of one that is the grid.  A repeating period goes in one
    pass because, in chunks, a node on the seam of two copies would take
    its later elements, in the next copy's first rows, before its earlier
    ones."""
    if p < grid.cells_per_side:
        return [(0, p)]
    n = -(-p // max(1, _CHUNK_ELEMENTS // p ** (grid.dim - 1)))
    return [(p * i // n, p * (i + 1) // n) for i in range(n)]


def _copies(nodes: np.ndarray, corner, r0: int, r1: int, p: int) -> np.ndarray:
    """The nodes, of ``nodes`` (m + 1,)*dim, at ``corner`` of the elements of
    rows r0 to r1 of every copy of a period of ``p`` cells per side: a view
    (m // p, r1 - r0, m // p, p, ...), to which the elements' data, shaped
    (1, r1 - r0, 1, p, ...), adds by broadcasting."""
    m = len(nodes) - 1
    view = nodes[tuple(slice(o, o + m) for o in corner)]
    return view.reshape(tuple(n for _ in corner for n in (m // p, p)))[:, r0:r1]


def _stencil_operator(grid, ref: np.ndarray, samples, p: int) -> np.ndarray:
    """3^dim-point stencil, (3,)*dim + (m + 1,)*dim, of the operator whose
    element matrices are ``samples(elements) @ ref``: rows (E, K) for a
    slice of the element order of a period of ``p`` cells per side, against
    the reference tensor ``ref`` (K, C*C).

    Pass by pass (:func:`_passes`), the element matrices are added into the
    stencil of every node of the element corner lattice (see
    :func:`~twoscale.grids.stencil_pattern`) by shifted-slice adds,
    broadcast over the copies of the period (:func:`_copies`).  The
    elements of a node, in increasing order, are those at which it is
    corner b for b decreasing, so every entry sums its element terms in
    element order, as a scatter would.  A cell grid then folds its far
    faces onto the near ones (the periodic identification).
    """
    dim, m = grid.dim, grid.cells_per_side
    offs = corner_offsets(dim)
    n_loc = len(offs)
    # offsets first, so that every shifted-slice add runs over contiguous rows
    stencil = np.zeros((3,) * dim + (m + 1,) * dim)
    row = p ** (dim - 1)  # elements per element row of the period
    for r0, r1 in _passes(grid, p):
        rows = samples(slice(r0 * row, r1 * row))
        local = np.empty((n_loc * n_loc, len(rows)))  # one row per element-matrix entry
        np.matmul(rows, ref, out=local.T)
        local = local.reshape((n_loc, n_loc, 1, r1 - r0) + (1, p) * (dim - 1))
        for b in reversed(range(n_loc)):
            for c in range(n_loc):
                target = _copies(stencil[tuple(1 + offs[c] - offs[b])], offs[b], r0, r1, p)
                target += local[b, c]
    if isinstance(grid, CellGrid):
        for d in range(dim):
            stencil[(slice(None),) * (dim + d) + (0,)] += stencil[(slice(None),) * (dim + d) + (m,)]
    return stencil


def _csr(stencil: np.ndarray, periodic: bool = False) -> sp.csr_matrix:
    """CSR matrix of a stencil (3,)*dim + (n,)*dim through its lattice's cached
    :func:`~twoscale.grids.stencil_pattern`; a box drops couplings leaving it."""
    dim = stencil.ndim // 2
    indptr, indices, keep = stencil_pattern(dim, stencil.shape[-1] - 1, periodic)
    data = np.moveaxis(stencil, tuple(range(dim)), tuple(range(dim, 2 * dim)))[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)


def _check_finite(grid, rows: np.ndarray, first: int, p: int, what: str) -> None:
    """Refuse non-finite ``rows``, the samples of elements ``first``,
    ``first`` + 1, ... of a period of ``p`` cells per side, naming the first
    grid element that reads one: the element of the first bad class."""
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows).reshape(len(rows), -1).all(axis=1)
        cls = np.unravel_index(first + int(np.argmin(finite)), (p,) * grid.dim)
        element = np.ravel_multi_index(cls, (grid.cells_per_side,) * grid.dim)
        raise AssemblyError(f"non-finite {what} at element {element}")


def assemble_stiffness(grid, coeff, quad: QuadratureRule):
    """Assemble the variable-coefficient stiffness operator.

    ``coeff`` is either an evaluator ``coeff(points)`` mapping physical
    points (K, dim) to symmetric matrices (K, dim, dim), called once per
    quadrature point with one point per element, or one period of samples,
    (P,)*dim + (Q, dim, dim) with P dividing the cells per side.  The kernel
    (:func:`_stencil_operator`) evaluates it chunk by chunk, or multiplies
    the period's samples once, against :func:`_stiffness_reference`; under
    ``__debug__`` the stencil must be symmetric.  A box grid's operator is
    its stencil, (3,)*dim + (m + 1,)*dim, which :func:`solve_dirichlet`
    reads; a cell grid's is its CSR matrix.
    """
    dim = grid.dim
    tail = (dim, dim)
    if callable(coeff):
        p = grid.cells_per_side
    else:
        period, p = _period(grid, quad, coeff, tail, "coefficient")
        period = period.reshape((p**dim,) + period.shape[dim:])

    def samples(elements):  # a slice of the period's element order
        a = (_eval_at_quad(grid, quad, coeff, tail, elements) if callable(coeff)
             else period[elements])
        _check_finite(grid, a, elements.start, p, "coefficient")
        return a.reshape(len(a), -1)

    stencil = _stencil_operator(grid, _stiffness_reference(grid, quad), samples, p)
    if __debug__:
        # entry [o, x] against [-o, x + o], wrapped, in blocks of node rows;
        # off the box grid both are zero
        n = grid.nodes_per_side
        nodes = stencil[(Ellipsis,) + (slice(0, n),) * dim]
        asym = 0.0
        for o in np.array(list(itertools.product((-1, 0, 1), repeat=dim))):
            for r in range(0, n, 256):
                rows = np.arange(r, min(n, r + 256))
                diff = nodes[tuple(1 - o)].take(rows + o[0], axis=0, mode="wrap")
                diff = np.roll(diff, tuple(-o[1:]), tuple(range(1, dim)))
                diff -= nodes[tuple(1 + o)][rows]
                asym = max(asym, float(np.abs(diff).max()))
        scale = max(float(nodes.max()), -float(nodes.min()), 1.0)
        if asym > 1e-12 * scale:
            raise AssemblyError(f"assembled matrix asymmetry {asym:.3e}")
    if isinstance(grid, MacroGrid):
        return stencil
    mat = _csr(stencil, periodic=True).copy()
    mat.sum_duplicates()  # wrapped columns come out of order, and may repeat
    return mat


def period_stiffness(grid, samples, quad: QuadratureRule) -> np.ndarray:
    """One period, (3,)*dim + (P,)*dim, of the stencil of the box ``grid``
    for one period of coefficient samples (P,)*dim + (Q, dim, dim): class c
    is the stencil of every interior node i = c mod P, as
    :func:`solve_dirichlet` reads it.  Nodes P to 2P - 1 of a box of 2P
    cells of ``grid``'s spacing (:func:`assemble_stiffness`) sum the same
    element terms in the same order, so they are bitwise those classes; a
    non-finite sample is named by the first element of ``grid`` reading it.
    """
    dim = grid.dim
    period, p = _period(grid, quad, samples, (dim, dim), "coefficient")
    _check_finite(grid, period.reshape(p**dim, -1), 0, p, "coefficient")
    stencil = assemble_stiffness(_Window(dim, 2 * p, grid.cells_per_side), period, quad)
    return stencil[(Ellipsis,) + (slice(p, 2 * p),) * dim]


@dataclass(frozen=True)
class _Window(MacroGrid):
    """A box of ``cells_per_side`` cells of the spacing of a box of ``of``."""

    of: int

    @property
    def spacing(self) -> float:
        return 1.0 / self.of


@once_per_object
def _jacobian_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """Reference tensor (Q*(dim*dim + 1 + dim), C*C) of the Newton Jacobian
    against its rows a | -df/du | da/du grad u: the stiffness, mass and
    advection reference tensors stacked."""
    weights = quad.weights * grid.spacing**grid.dim
    grads = quad.basis_gradients / grid.spacing  # (Q, C, dim)
    n_q, _, dim = grads.shape
    return np.concatenate([
        _stiffness_reference(grid, quad),
        np.einsum("q,qb,qc->qbc", weights, quad.basis, quad.basis).reshape(n_q, -1),
        np.einsum("q,qbi,qc->qibc", weights, grads, quad.basis).reshape(n_q * dim, -1),
    ])


def linearize(grid, quad: QuadratureRule, state, data):
    """Residual R and Jacobian J of -div(a(u) grad u) = f(u) at nodal
    ``state`` u on a box grid, returned as (J, R):

        R_i = int a grad u . grad phi_i - f phi_i,
        J_ij = int a grad phi_j . grad phi_i + (da/du grad u) . grad phi_i phi_j
               - df/du phi_i phi_j.

    The reader ``data`` maps (u (K,), points (K, dim)) to (a, da/du, f,
    df/du), the matrices (K, dim, dim) and the scalars (K,), once per
    quadrature point, u being the state gathered there.  Each read goes
    straight into the residual's samples -f and a grad u and into the
    Jacobian's rows a | -df/du | da/du grad u, and is then dropped, so no
    read is held twice.  R is one load vector; J is one stencil-kernel pass
    of those rows against :func:`_jacobian_reference`, with no symmetry
    check.
    """
    pts = element_quad_points(grid, quad)
    u_q = field_values_at_quad(grid, state, quad)
    grad = field_gradients_at_quad(grid, state, quad)  # (E, Q, dim)
    n_el, n_q, dim = grad.shape
    scalar, flux = np.empty((n_el, n_q)), np.empty((n_el, n_q, dim))
    # columns: a by (point, i, j), then -df/du by point, then da/du grad u by (point, i)
    rows = np.empty((n_el, n_q * (dim * dim + 1 + dim)))
    mass, advection = n_q * dim * dim, n_q * (dim * dim + 1)
    for q in range(n_q):
        a, da, f, df = data(u_q[:, q], pts[:, q])
        rows[:, q * dim * dim : (q + 1) * dim * dim] = np.reshape(a, (n_el, -1))
        np.negative(f, out=scalar[:, q])
        np.negative(df, out=rows[:, mass + q])
        flux[:, q] = np.einsum("eij,ej->ei", a, grad[:, q])
        rows[:, advection + q * dim : advection + (q + 1) * dim] = np.einsum(
            "eij,ej->ei", da, grad[:, q])
        del a, da, f, df  # the last read goes before the load and the stencil
    del pts, u_q, grad
    residual = assemble_load_from_samples(
        grid, quad, as_period(grid, scalar), as_period(grid, flux))
    del scalar, flux
    _check_finite(grid, rows, 0, grid.cells_per_side, "Jacobian sample")
    return (_stencil_operator(grid, _jacobian_reference(grid, quad), rows.__getitem__,
                              grid.cells_per_side), residual)


@once_per_object
def _scalar_load_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """(Q, C): the weighted basis values, w_q |K| phi_c(x_q)."""
    return (quad.weights * grid.spacing**grid.dim)[:, None] * quad.basis


@once_per_object
def _flux_load_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """(Q*dim, C): the weighted physical basis gradients, w_q |K| d_i phi_c(x_q)."""
    weights = quad.weights * grid.spacing**grid.dim
    ref = weights[:, None, None] * np.swapaxes(quad.basis_gradients / grid.spacing, 1, 2)
    return ref.reshape(-1, ref.shape[-1])


def assemble_load_from_samples(
    grid,
    quad: QuadratureRule,
    scalar_samples: np.ndarray | None = None,
    flux_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Load vector from precomputed quad-point data, one period each.

    ``scalar_samples`` (P,)*dim + (Q,) contributes ``\\int s \\phi_p``;
    ``flux_samples`` (P,)*dim + (Q, dim) ``\\int B . grad(phi_p)``; a form of
    a shorter period than the other's is tiled to it.  Each form is one
    matrix product of the samples with a (Q, C) or (Q*dim, C) reference
    matrix of weighted basis values or gradients, giving the element vectors
    (E, C), pass by pass as the stencil kernel multiplies
    (:func:`_passes`).  A box grid adds them into the nodes by shifted
    slices broadcast over the period's copies, corner C - 1 down to 0, so
    every node sums its element terms from 0 in element order, as a scatter
    does, and the peak memory is the nodes and one pass; a cell grid
    scatters them, tiled over the grid, by ``bincount``.
    """
    dim, m = grid.dim, grid.cells_per_side
    forms = []  # (samples, period, reference matrix, what) of each form given
    if scalar_samples is not None:
        forms.append((*_period(grid, quad, scalar_samples, (), "scalar source"),
                      _scalar_load_reference(grid, quad), "scalar source"))
    if flux_samples is not None:
        forms.append((*_period(grid, quad, flux_samples, (dim,), "flux source"),
                      _flux_load_reference(grid, quad), "flux source"))
    if not forms:
        return np.zeros(grid.ndof)
    p = math.lcm(*(q for _, q, _, _ in forms))
    forms = [(_tile(s, p // q, dim).reshape(p**dim, -1), ref, what) for s, q, ref, what in forms]

    def element_vectors(elements):  # (E, C) of a slice of the period's element order
        local = None
        for samples, ref, what in forms:
            rows = samples[elements]
            _check_finite(grid, rows, elements.start, p, what)
            product = rows @ ref
            if local is None:
                local = product
            else:
                local += product
        return local

    # a node's sum starts from +0, so the sign of a zero term never shows
    n_loc = 2**dim
    if isinstance(grid, CellGrid):
        local = _tile(element_vectors(slice(0, p**dim)).reshape((p,) * dim + (n_loc,)), m // p, dim)
        dofs = grid.element_dofs()
        return np.bincount(dofs.reshape(-1), weights=local.reshape(-1), minlength=grid.ndof)
    offs = corner_offsets(dim)
    nodes = np.zeros((m + 1,) * dim)
    row = p ** (dim - 1)  # elements per element row of the period
    for r0, r1 in _passes(grid, p):
        local = element_vectors(slice(r0 * row, r1 * row))
        local = local.reshape((1, r1 - r0) + (1, p) * (dim - 1) + (n_loc,))
        for b in reversed(range(n_loc)):
            target = _copies(nodes, offs[b], r0, r1, p)
            target += local[..., b]
    return nodes.reshape(-1)


def assemble_load(grid, quad: QuadratureRule, scalar_fn=None, flux_fn=None) -> np.ndarray:
    """Load vector from point evaluators.

    ``scalar_fn(points) -> (K,)`` gives the \\int s phi form, ``flux_fn(points)
    -> (K, dim)`` the \\int B . grad(phi) form; they may be combined.
    """
    scalar = None if scalar_fn is None else _eval_at_quad(grid, quad, scalar_fn, ())
    flux = None if flux_fn is None else _eval_at_quad(grid, quad, flux_fn, (grid.dim,))
    return assemble_load_from_samples(grid, quad, as_period(grid, scalar), as_period(grid, flux))


@dataclass(frozen=True)
class SolverOptions:
    """Periodic-solve control: ``compat_tol`` is the relative bound on the
    rhs functional applied to constants before a periodic solve."""

    compat_tol: float = 1e-8


# relative residual at which the 2-D box iterations (CG, GMRES) stop
KRYLOV_TOL = 1e-10


def _krylov_budget(n_free: int) -> int:
    """Iterations a 2-D box solve may take: 10 per interior unknown."""
    return 10 * n_free


def _jacobi_pcg(mat, rhs, tol, max_iter, precond):
    """Preconditioned CG on ``mat x = rhs``; returns (x, rel. residual, iterations).

    The iteration stops on the true residual ||rhs - mat x|| / ||rhs||: once
    the recursively updated one passes ``tol``, the true one is computed, and
    if it is still above ``tol``, CG restarts from it.  A restart whose true
    residual is no smaller than that of every earlier restart has stagnated
    at the rounding floor, and raises at once.

    ``precond`` maps a residual to a search direction and must be symmetric
    positive definite on the subspace the residuals live in.  The name
    predates the preconditioner argument and is kept because
    ``benchmarks/tracing.py`` wraps this attribute by name to count CG
    iterations.
    """
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros_like(rhs), 0.0, 0

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = precond(r).copy()  # the search direction, updated in place
    rz = float(r @ p)
    history = []
    best_true = math.inf  # smallest true residual of the restarts so far
    for it in range(1, max_iter + 1):
        ap = mat @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise NonConvergenceError(
                "CG curvature non-positive (matrix not SPD on the subspace)",
                residual=float(np.linalg.norm(r) / norm_b),
                iterations=it,
                history=history,
            )
        alpha = rz / pap
        # alpha Ap, then alpha p, in Ap's buffer, which is gone before the
        # next preconditioner call, as z is
        r -= np.multiply(ap, alpha, out=ap)
        x += np.multiply(p, alpha, out=ap)
        del ap
        rel = math.sqrt(r @ r) / norm_b  # np.linalg.norm, without its call overhead
        restart = rel <= tol
        if restart:  # the updated residual drifts from b - A x: stop on the true one
            r = rhs - mat @ x
            rel = math.sqrt(r @ r) / norm_b
        history.append(rel)
        if rel <= tol:
            return x, rel, it
        if restart:
            if rel >= best_true:
                raise NonConvergenceError(
                    f"CG stagnated at a true residual of {rel:.3g} above tol={tol:g}",
                    residual=rel,
                    iterations=it,
                    history=history,
                )
            best_true = rel
        z = precond(r)
        rz_new = float(r @ z)
        if restart:
            p[:] = z
        else:  # z + beta p, bitwise
            p *= rz_new / rz
            p += z
        del z
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations",
        residual=history[-1] if history else None,
        iterations=max_iter,
        history=history,
    )


def _lu(mat):
    """Sparse LU of a symmetric positive definite matrix (every matrix factored
    here is one, or a Newton Jacobian's coarsest multigrid level, which
    differs from one by the small u-derivative terms): minimum degree
    ordering on A^T + A, diagonal pivots."""
    return spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


# largest damped-Jacobi weight and the sweep count of the V-cycle smoother;
# the same count before and after the coarse correction keeps the V-cycle
# symmetric
_MG_OMEGA = 0.8
_MG_SWEEPS = 2


# the nine couplings (di, dj) of a 2-D stencil, in the column order of its rows
_BANDS = list(itertools.product((-1, 0, 1), repeat=2))


def _tile_level(period: np.ndarray, n: int) -> np.ndarray:
    """(..., n, n) of a level of n interior nodes per side whose node (i, j)
    reads ``period`` (..., P, P) at (i mod P, j mod P): the period tiled, or
    a view of its first n classes if P >= n (the period is the level)."""
    p = period.shape[-1]
    if p >= n:
        return period[..., :n, :n]
    reps = -(-n // p)
    return np.tile(period, (1,) * (period.ndim - 2) + (reps, reps))[..., :n, :n]


def _diagonals(period: np.ndarray, n: int | None = None) -> sp.dia_matrix:
    """The interior operator A of a level of ``n`` interior nodes per side,
    whose stencil is ``period`` (3, 3, P, P) tiled (:func:`_tile_level`; n =
    P by default), as its nine diagonals: offsets di * n + dj ascending,
    each row's column order, with column-indexed data, data[k, j] = A[j -
    offset_k, j], and the couplings that leave the box stored as zeros.
    ``dia_matvec`` then sums every row in the order, and from the same 0.0,
    as ``csr_matvec`` sums the row of the CSR matrix :func:`_csr` reads off
    the tiled stencil, so the products are bitwise the same.
    """
    n = period.shape[-1] if n is None else n
    data = np.zeros((len(_BANDS), n * n))
    for k, (di, dj) in enumerate(_BANDS):
        band = _tile_level(period[1 + di, 1 + dj], n)  # one band at a time
        data[k].reshape(n, n)[max(0, di) : n + min(0, di), max(0, dj) : n + min(0, dj)] = (
            band[max(0, -di) : n - max(0, di), max(0, -dj) : n - max(0, dj)])
    return sp.dia_matrix((data, [di * n + dj for di, dj in _BANDS]), shape=(n * n,) * 2)


def _row_sum(t: list) -> np.ndarray:
    """Sum of ``t``, the entries of rows of a CSR matrix in column order, as
    ``np.add.reduceat`` adds a row: the first entry to the pairwise sum of
    the other eight on a row of nine, to their sum from left to right on a
    shorter one."""
    if len(t) == 9:
        return t[0] + (((t[1] + t[2]) + (t[3] + t[4])) + ((t[5] + t[6]) + (t[7] + t[8])))
    rest = t[1]
    for x in t[2:]:
        rest = rest + x
    return t[0] + rest


def _abs_row_sums(stencil: np.ndarray) -> np.ndarray:
    """Absolute row sums, (n * n,), of the interior operator of a level's
    stencil (3, 3, n, n): bitwise the ``np.add.reduceat`` sums of the rows
    of its CSR matrix (:func:`_row_sum`), read off the stencil's bands a
    block of lattice rows at a time."""
    n = stencil.shape[-1]
    sums = np.empty((n, n))
    step = max(1, _CHUNK_ELEMENTS // n)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        # the block's first lattice row, inner rows and last row, by the
        # first column, inner columns and last column: each keeps its couplings
        for rows in (slice(r0, 1), slice(max(r0, 1), min(r1, n - 1)), slice(max(r0, n - 1), r1)):
            for cols in (slice(0, 1), slice(1, n - 1), slice(n - 1, n)):
                if rows.start < rows.stop:
                    sums[rows, cols] = _row_sum([
                        np.abs(stencil[1 + di, 1 + dj, rows, cols]) for di, dj in _BANDS
                        if 0 <= rows.start + di and rows.stop + di <= n
                        and 0 <= cols.start + dj and cols.stop + dj <= n])
    return sums.reshape(-1)


def _smoother_weights(period: np.ndarray, n: int | None = None) -> np.ndarray:
    """omega / diag(A) for the damped-Jacobi smoother of a level of ``n``
    interior nodes per side (n = P by default), A the interior operator of
    its stencil, ``period`` (3, 3, P, P) tiled (:func:`_tile_level`).

    A sweep contracts the error in the A-norm only while omega times
    lambda_max(D^-1 A) stays below 2.  Gershgorin bounds lambda_max by the
    largest absolute row sum of D^-1 A (:func:`_abs_row_sums`), so omega is
    capped at 2 * ``_MG_OMEGA`` over that bound.  Q1 stencils of a scalar
    coefficient have bound 2 and keep omega = 0.8; anisotropic or full
    tensors, whose stencils carry positive off-diagonals, get a smaller
    weight instead of an amplifying smoother.  The sums are read on a tiled
    box of n_s nodes per side, the least n_s >= P + 2 with n_s = n mod P
    (or n), whose first, inner and last rows and columns hold the level's
    classes, so its largest sum is the level's: an edge row may hold it,
    as it adds its terms in another order.
    """
    p = period.shape[-1]
    n = p if n is None else n
    if np.any(period[1, 1] <= 0.0):
        raise ValueError("matrix diagonal must be positive for the damped-Jacobi smoother")
    small = _tile_level(period, min(n, p + 2 + (n - p - 2) % p))
    sums = _abs_row_sums(small)
    sums *= (1.0 / small[1, 1]).reshape(-1)
    inv_diag = 1.0 / period[1, 1]
    inv_diag *= _MG_OMEGA * min(1.0, 2.0 / float(np.max(sums)))
    return _tile_level(inv_diag, n).reshape(-1)


def _coarsen(period: np.ndarray, n: int | None = None) -> np.ndarray:
    """Galerkin stencil P^T A P under bilinear prolongation P of a level of
    ``n`` interior nodes per side, n odd, whose node j reads ``period`` (3,
    3, P, P) at j mod P (n = P by default): the coarse level's period, of
    its n // 2 nodes per side if P = n, else of P / 2 classes (an odd P
    tiled to 2P first).

    P is a product of one-axis interpolations (coarse node I at fine node
    c = 2I + 1, weights 1/2, 1, 1/2), taken one axis at a time.  If fine row
    i couples to i - 1, i, i + 1 by l_i, d_i, u_i, coarse row I couples by
    (l_c + l_{c-1}) / 2 + d_{c-1} / 4, d_c + (l_c + u_c + u_{c-1} + l_{c+1}) / 2
    + (d_{c-1} + d_{c+1}) / 4 and (u_c + u_{c+1}) / 2 + d_{c+1} / 4.  A
    period shorter than the level wraps: its first row follows its last, so
    coarse class I reads fine classes 2I, 2I + 1 and 2I + 2 mod P.  A
    coupling that leaves the box reaches only couplings that leave the
    coarse box, which no level reads.
    """
    p = period.shape[-1]
    n = p if n is None else n
    stencil = _tile_level(period, 2 * p) if p < n and p % 2 else period[:, :, :n, :n]
    for _ in range(2):
        if p < n:
            stencil = np.concatenate([stencil, stencil[:, :, :1]], axis=2)
        # rows c - 1, c and c + 1 of each band, (3, n // 2, n'): the other axis's offset first
        (lm, lc, lp), (dm, dc, dp), (um, uc, up) = (
            (band[:, :-1:2], band[:, 1::2], band[:, 2::2]) for band in stencil)
        coarse = np.empty((3,) + dc.shape)
        coarse[0] = 0.5 * (lc + lm) + 0.25 * dm
        coarse[1] = dc + 0.5 * (lc + uc + um + lp) + 0.25 * (dm + dp)
        coarse[2] = 0.5 * (uc + up) + 0.25 * dp
        stencil = coarse.transpose(1, 0, 3, 2)  # the other axis next
    return np.ascontiguousarray(stencil[:, :, : n // 2, : n // 2])


def _restrict(r: np.ndarray, n: int) -> np.ndarray:
    """P^T r over a level's n * n interior nodes: each coarse node takes its
    fine node and half of each neighbour, one axis at a time."""
    r = r.reshape(n, n)
    r = r[1::2] + 0.5 * (r[:-1:2] + r[2::2])
    return (r[:, 1::2] + 0.5 * (r[:, :-1:2] + r[:, 2::2])).reshape(-1)


def _prolong(x: np.ndarray, n: int) -> np.ndarray:
    """P x to a level's n * n interior nodes: bilinear interpolation on the
    (n + 2)^2 lattice, whose even nodes are the coarse ones and the boundary."""
    full = np.zeros((n + 2, n + 2))
    full[2:-1:2, 2:-1:2] = x.reshape(n // 2, n // 2)
    full[1::2] = 0.5 * (full[:-1:2] + full[2::2])
    full[:, 1::2] = 0.5 * (full[:, :-1:2] + full[:, 2::2])
    return full[1:-1, 1:-1].reshape(-1)


def _levels(handed: list, cells: int):
    """(levels, coarsest CSR matrix) of the V-cycle of a 2-D box of ``cells``
    cells per side, each level but the coarsest as (nine diagonals, smoother
    weights, interior nodes per side).  ``handed`` holds the box's stencil
    or one period of it (:func:`solve_dirichlet`), taken out, so that a box
    stencil no caller holds is freed once the finest level is built.

    Levels halve the cell count while it is even and at least 8.  Each is a
    period indexed by interior node mod P: the whole interior of a box
    stencil, a view whose boundary couplings no level reads, or P classes,
    which :func:`_coarsen` halves; its weights and diagonals, and the
    coarsest matrix, are tiled from it (:func:`_tile_level`).  Its coarse
    stencil and weights are formed before its diagonals, so their
    temporaries are gone first.
    """
    matrix = handed.pop()
    stencil = (matrix[:, :, 1:cells, 1:cells] if len(matrix[0, 0]) >= cells
               else np.roll(matrix, (-1, -1), (2, 3)))  # interior node j is grid node j + 1
    del matrix
    levels = []  # (operator, weighted inverse diagonal, interior nodes per side)
    while cells % 2 == 0 and cells >= 8:
        coarse, weights = _coarsen(stencil, cells - 1), _smoother_weights(stencil, cells - 1)
        levels.append((_diagonals(stencil, cells - 1), weights, cells - 1))
        stencil, cells = coarse, cells // 2
    return levels, _csr(_tile_level(stencil, cells - 1))


def _residual(a, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r - a x, formed in the buffer of the product a x."""
    ax = a @ x
    return np.subtract(r, ax, out=ax)


def _sweep(a, w_inv_diag: np.ndarray, x: np.ndarray, r: np.ndarray):
    """One damped-Jacobi sweep x += w (r - a x) in place, through one
    temporary."""
    d = _residual(a, x, r)
    d *= w_inv_diag
    x += d


def _multigrid(handed: list, cells: int):
    """(A, V-cycle) of the interior equations of a 2-D box of ``cells``
    cells per side, whose stencil ``handed`` holds (:func:`_levels`): A is
    their operator, the V-cycle its preconditioner.

    Coarse stencils are Galerkin products P^T A P (:func:`_coarsen`), which
    stay robust under oscillating coefficients.  Every level but the
    coarsest applies its stencil as nine diagonals (:func:`_diagonals`),
    bitwise the products of its CSR matrix, and reads its smoother weights
    off the stencil's bands (:func:`_smoother_weights`), so it builds no CSR
    copy.  Damped Jacobi takes as many sweeps after the coarse correction
    as before, and the coarsest level is factored once (:func:`_lu`), so
    the V-cycle of an SPD matrix is SPD.  A grid that cannot coarsen is
    solved exactly, and A is then that level's CSR matrix.
    """
    levels, coarsest = _levels(handed, cells)
    lu = _lu(coarsest)

    # a loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep the hierarchy alive after the solve
    # until the cyclic collector runs
    def vcycle(r):
        down = []
        for a, w_inv_diag, n in levels:
            x = w_inv_diag * r
            for _ in range(_MG_SWEEPS - 1):
                _sweep(a, w_inv_diag, x, r)
            down.append((x, r))
            r = _restrict(_residual(a, x, r), n)
        x_coarse = lu.solve(r)
        for (a, w_inv_diag, n), (x, r) in zip(reversed(levels), reversed(down)):
            x += _prolong(x_coarse, n)
            for _ in range(_MG_SWEEPS):
                _sweep(a, w_inv_diag, x, r)
            x_coarse = x
        return x_coarse

    return (levels[0][0] if levels else coarsest), vcycle


def solve_dirichlet(matrix, rhs: np.ndarray, grid: MacroGrid, symmetric: bool = True) -> np.ndarray:
    """Solve ``matrix x = rhs``, ``matrix`` a box stencil, with homogeneous
    Dirichlet data eliminated exactly.

    ``matrix`` is the box's stencil, (3,)*dim + (m + 1,)*dim, or one period
    of it (:func:`period_stiffness`), (3,)*dim + (P,)*dim with P dividing
    m, whose class c is the stencil of every interior node i = c mod P.
    Only the interior equations are solved; the returned full nodal vector
    is exactly zero on the boundary.  A 1-D grid's are tridiagonal and
    solved directly from the stencil's rows, a period tiled: a
    ``symmetric`` system from two bands, raising
    :class:`NonConvergenceError` unless it is positive definite, any other
    (a Newton Jacobian) from three, with partial pivoting.  A 2-D grid's
    are solved by CG (GMRES unless ``symmetric``), preconditioned with their
    multigrid V-cycle (:func:`_multigrid`), to the relative residual
    ``KRYLOV_TOL`` within :func:`_krylov_budget`.
    """
    out = np.zeros(grid.ndof)
    if grid.dim == 1:  # the interior sub-, main and super-diagonal
        if matrix.shape[-1] != grid.ndof:  # a period, tiled
            matrix = matrix[:, np.arange(grid.ndof) % matrix.shape[-1]]
        lower, diag, upper = matrix[0, 2:-1], matrix[1, 1:-1], matrix[2, 1:-2]
        if symmetric:  # LDL^T
            _, _, out[1:-1], info = lapack.dptsv(diag, upper, rhs[1:-1])
        else:
            out[1:-1], info = lapack.dgtsv(lower, diag, upper, rhs[1:-1])[3:]
        if info != 0:
            kind = "positive definite" if symmetric else "nonsingular"
            raise NonConvergenceError(
                f"1-D Dirichlet system is not {kind} (pivot {info} of {len(out) - 2})"
            )
        return out
    free = grid.interior_dofs()
    handed = [matrix]
    del matrix  # the hierarchy holds the only reference: it frees a box stencil once read
    reduced, precond = _multigrid(handed, grid.cells_per_side)
    max_iter = _krylov_budget(len(free))
    if symmetric:
        out[free], _, _ = _jacobi_pcg(reduced, rhs[free], KRYLOV_TOL, max_iter, precond)
        return out
    out[free], info = spla.gmres(reduced, rhs[free], rtol=KRYLOV_TOL, maxiter=max_iter,
                                 M=spla.LinearOperator(reduced.shape, precond))
    if info != 0:
        raise NonConvergenceError(f"GMRES did not reach tol={KRYLOV_TOL:g}", iterations=info)
    return out


def _zero_load_floor(ndof: int, matrix_scale: float) -> float:
    return ndof * np.finfo(float).eps * matrix_scale


def rhs_constant_defect(rhs: np.ndarray, matrix_scale: float = 0.0) -> float:
    """|rhs applied to the constant 1| relative to ||rhs||.

    A right-hand side whose norm sits at the assembly rounding scale is the
    zero load (its entries are cancellation debris) and reports defect 0
    rather than a meaningless debris-over-debris ratio.
    """
    norm = float(np.linalg.norm(rhs))
    if norm <= _zero_load_floor(len(rhs), matrix_scale):
        return 0.0
    return float(abs(rhs.sum())) / norm


class PeriodicFactor:
    """What the solves against one singular periodic operator share: ``scale``
    (its largest entry, for the zero-load floor and the compatibility check)
    and ``lu`` (the sparse LU of ``matrix`` with node 0 pinned), each made on
    first use, so the matrix is factored at most once, and never if every
    load is zero.
    """

    def __init__(self, matrix):
        self.matrix = matrix

    @functools.cached_property
    def scale(self) -> float:
        return abs(self.matrix).max()

    @functools.cached_property
    def lu(self):
        return _lu(self.matrix[1:, 1:])


def solve_periodic_zero_mean(
    factor: PeriodicFactor, rhs: np.ndarray, opts: SolverOptions = SolverOptions()
) -> np.ndarray:
    """Solve ``factor.matrix x = rhs`` on the zero-mean subspace.

    The rhs must annihilate constants (solvability) and is projected.  Node
    0 is pinned to zero and the nonsingular remainder is solved directly,
    in 1-D and 2-D alike; the result is projected to zero discrete mean
    (uniform lumped masses make that the plain average).  Passing the same
    ``factor`` to every solve against its matrix factors that matrix once.
    """
    ndof = len(rhs)
    norm, total = float(np.linalg.norm(rhs)), rhs.sum()  # read by the floor, check and projection
    if norm <= _zero_load_floor(ndof, factor.scale):
        return np.zeros(ndof)
    defect = float(abs(total)) / norm  # rhs_constant_defect of a load above the floor
    if defect > opts.compat_tol:
        raise CompatibilityError(
            f"rhs does not annihilate constants: relative defect {defect:.3e} "
            f"> compat_tol {opts.compat_tol:g}"
        )

    x = np.zeros(ndof)
    x[1:] = factor.lu.solve(rhs[1:] - total / ndof)
    return x - x.sum() / ndof  # x.mean(), without its call overhead
