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
Jacobian) solve them on their CSR matrix, preconditioned with a geometric
multigrid V-cycle built from the stencil once per solve: Galerkin coarse
stencils P^T A P under bilinear prolongation, formed by strided slices,
damped-Jacobi smoothing weighted to contract on every level and a
sparse-LU coarsest level, which keeps the iteration count flat as the grid
is refined.

Every stiffness operator and Newton Jacobian comes from one stencil kernel.
Over chunks of element rows, the coefficient samples at the quadrature
points, reshaped to (E, Q*dim*dim), multiply one reference tensor of
weighted Q1 gradient products, shape (Q*dim*dim, C*C), giving the element
matrices, which are added by shifted slices into the 3^dim-point stencil of
every node, so the peak memory is the stencil and one chunk.  Load vectors
are the same kind of product with weighted basis values or gradients, added
into the nodes the same way on a box and scattered by ``bincount`` on a
cell, and the
values or gradients of a nodal field at the quadrature points are its
element values (E, C) times the basis values or gradients, which each rule
tabulates once.  Precomputed samples are one period, (P,)*dim + (Q, ...)
with P dividing the cells per side, tiled a chunk at a time.  Coefficient
evaluators are called once per quadrature point, with one point per element.
The Newton linearization reads all of its data, a, da/du, f and df/du, from
one reader called once per quadrature point, passing it the nodal state read
at those points through the element connectivity (a gather, since the
element of every quadrature point is known), so no point location runs on a
grid's own quadrature points.  Element contributions are accumulated in a
fixed element order so repeated runs are bitwise reproducible regardless of
how callers parallelize around this module.
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
from .grids import CellGrid, MacroGrid, corner_offsets, lattice_corners, stencil_pattern


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


def field_values_at_quad(grid, values: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """Q1 interpolant of nodal ``values`` at the quadrature points, (E, Q)."""
    return np.asarray(values)[grid.element_dofs()] @ quad.basis.T


def field_gradients_at_quad(grid, values: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """Q1 gradient of nodal ``values`` at the quadrature points, (E, Q, dim):
    one matrix product of the element values (E, C) with the physical basis
    gradients laid out as (C, Q*dim)."""
    n_q, n_loc, dim = quad.basis_gradients.shape
    ref = np.swapaxes(quad.basis_gradients, 0, 1).reshape(n_loc, n_q * dim) / grid.spacing
    return (np.asarray(values)[grid.element_dofs()] @ ref).reshape(-1, n_q, dim)


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


def _tile(grid, quad: QuadratureRule, samples, tail: tuple, what: str, elements=slice(None)):
    """Samples (E, Q) + ``tail`` of ``elements`` (element rows): element i reads class i mod P."""
    dim, m, samples = grid.dim, grid.cells_per_side, np.atleast_1d(np.asarray(samples, float))
    p, row = len(samples), m ** (dim - 1)  # row: elements per element row
    if not p or m % p or samples.shape != (p,) * dim + (len(quad.weights),) + tail:
        raise AssemblyError(f"{what} samples have shape {samples.shape}, not one period")
    lo, hi = (i // row for i in elements.indices(m * row)[:2])
    if p == m:  # every element: a view
        return samples[lo:hi].reshape((-1, len(quad.weights)) + tail)
    rows = samples.take(np.arange(lo, hi), axis=0, mode="wrap").reshape(hi - lo, 1, -1)
    return np.tile(rows, (1, (m // p) ** (dim - 1), 1)).reshape((-1, len(quad.weights)) + tail)


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


# elements per pass of the stiffness kernel: bounds the coefficient samples
# and element matrices alive at once
_CHUNK_ELEMENTS = 1 << 15


def _stencil_operator(grid, ref: np.ndarray, samples) -> np.ndarray:
    """3^dim-point stencil, (3,)*dim + (m + 1,)*dim, of the operator whose
    element matrices are ``samples(elements) @ ref``: rows (E, K) for a
    slice of the element order, against the reference tensor ``ref`` (K, C*C).

    Over chunks of whole element rows, the element matrices are added into
    the stencil of every node of the element corner lattice (see
    :func:`~twoscale.grids.stencil_pattern`) by shifted-slice adds.  The
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
    row = m ** (dim - 1)  # elements per element row
    # balanced chunks of whole element rows
    n_chunks = -(-m // max(1, _CHUNK_ELEMENTS // row))
    lo, hi = np.zeros(dim, dtype=int), np.full(dim, m)  # a chunk's element range per axis
    for i in range(n_chunks):
        r0, r1 = m * i // n_chunks, m * (i + 1) // n_chunks
        lo[0], hi[0] = r0, r1
        rows = samples(slice(r0 * row, r1 * row))
        local = np.empty((n_loc * n_loc, len(rows)))  # one row per element-matrix entry
        np.matmul(rows, ref, out=local.T)
        local = local.reshape((n_loc, n_loc, r1 - r0) + (m,) * (dim - 1))
        for b in reversed(range(n_loc)):
            nodes = tuple(map(slice, lo + offs[b], hi + offs[b]))
            for c in range(n_loc):
                stencil[tuple(1 + offs[c] - offs[b]) + nodes] += local[b, c]
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


def _check_finite(samples: np.ndarray, first: int, what: str) -> None:
    if not np.isfinite(samples).all():  # then find the first bad element
        finite = np.isfinite(samples).reshape(len(samples), -1).all(axis=1)
        raise AssemblyError(f"non-finite {what} at element {first + int(np.argmin(finite))}")


def assemble_stiffness(grid, coeff, quad: QuadratureRule):
    """Assemble the variable-coefficient stiffness operator.

    ``coeff`` is either an evaluator ``coeff(points)`` mapping physical
    points (K, dim) to symmetric matrices (K, dim, dim), called once per
    quadrature point with one point per element, or one period of samples,
    (P,)*dim + (Q, dim, dim) with P dividing the cells per side.  The kernel
    (:func:`_stencil_operator`) evaluates or tiles it chunk by chunk, against
    :func:`_stiffness_reference`; under ``__debug__`` the stencil must be
    symmetric.  A box grid's operator is its stencil, (3,)*dim + (m + 1,)*dim,
    which :func:`solve_dirichlet` reads; a cell grid's is its CSR matrix.
    """
    dim = grid.dim
    tail = (dim, dim)

    def samples(elements):
        a = (_eval_at_quad(grid, quad, coeff, tail, elements) if callable(coeff)
             else _tile(grid, quad, coeff, tail, "coefficient", elements))
        _check_finite(a, elements.start, "coefficient")
        return a.reshape(len(a), -1)

    stencil = _stencil_operator(grid, _stiffness_reference(grid, quad), samples)
    if __debug__:
        # entry [o, x] against [-o, x + o], wrapped, in blocks of node rows;
        # off the box grid both are zero
        n = grid.cells_per_side if isinstance(grid, CellGrid) else grid.cells_per_side + 1
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


def linearize(grid, quad: QuadratureRule, state, data):
    """Residual R and Jacobian J of -div(a(u) grad u) = f(u) at nodal
    ``state`` u on a box grid, returned as (J, R):

        R_i = int a grad u . grad phi_i - f phi_i,
        J_ij = int a grad phi_j . grad phi_i + (da/du grad u) . grad phi_i phi_j
               - df/du phi_i phi_j.

    The reader ``data`` maps (u (K,), points (K, dim)) to (a, da/du, f,
    df/du), the matrices (K, dim, dim) and the scalars (K,), once per
    quadrature point, u being the state gathered there.  R is one load
    vector; J is one stencil-kernel pass of the rows a, -df/du and da/du
    grad u against the stiffness, mass and advection reference tensors,
    with no symmetry check.
    """
    pts = element_quad_points(grid, quad)
    u_q = field_values_at_quad(grid, state, quad)
    reads = [data(u_q[:, q], pts[:, q]) for q in range(pts.shape[1])]
    a, da, f, df = (np.stack(column, axis=1) for column in zip(*reads))
    grad = field_gradients_at_quad(grid, state, quad)  # (E, Q, dim)
    residual = assemble_load_from_samples(
        grid, quad, as_period(grid, -f), as_period(grid, np.einsum("eqij,eqj->eqi", a, grad)))
    rows = np.concatenate([x.reshape(len(a), -1)
                           for x in (a, -df, np.einsum("eqij,eqj->eqi", da, grad))], axis=1)
    _check_finite(rows, 0, "Jacobian sample")
    weights = quad.weights * grid.spacing**grid.dim
    grads = quad.basis_gradients / grid.spacing  # (Q, C, dim)
    n_q, _, dim = grads.shape
    ref = np.concatenate([
        _stiffness_reference(grid, quad),
        np.einsum("q,qb,qc->qbc", weights, quad.basis, quad.basis).reshape(n_q, -1),
        np.einsum("q,qbi,qc->qibc", weights, grads, quad.basis).reshape(n_q * dim, -1),
    ])
    return _stencil_operator(grid, ref, lambda elements: rows[elements]), residual


def assemble_load_from_samples(
    grid,
    quad: QuadratureRule,
    scalar_samples: np.ndarray | None = None,
    flux_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Load vector from precomputed quad-point data, one period each.

    ``scalar_samples`` (P,)*dim + (Q,) contributes ``\\int s \\phi_p``;
    ``flux_samples`` (P,)*dim + (Q, dim) ``\\int B . grad(phi_p)``.  Each
    form is one matrix product of the samples, tiled over the grid, with a
    (Q, C) or (Q*dim, C) reference matrix of weighted basis values or
    gradients, giving the element vectors (E, C).  A box grid tiles and
    multiplies one chunk of whole element rows at a time and adds its
    element vectors into the nodes by shifted slices, corner C - 1 down to
    0, so every node sums its element terms from 0 in element order, as a
    scatter does, and the peak memory is the nodes and one chunk; a cell
    grid scatters them by ``bincount``.
    """
    dim, m, h = grid.dim, grid.cells_per_side, grid.spacing
    weights = quad.weights * h**dim
    forms = []  # (samples, tail, reference matrix, what) of each form given
    if scalar_samples is not None:
        forms.append((scalar_samples, (), weights[:, None] * quad.basis, "scalar source"))
    if flux_samples is not None:
        ref = weights[:, None, None] * np.swapaxes(quad.basis_gradients / h, 1, 2)
        forms.append((flux_samples, (dim,), ref.reshape(-1, ref.shape[-1]), "flux source"))
    if not forms:
        return np.zeros(grid.ndof)

    def element_vectors(elements):  # (E, C) of a slice of the element order
        local = None
        for samples, tail, ref, what in forms:
            rows = _tile(grid, quad, samples, tail, what, elements)
            _check_finite(rows, elements.start, what)
            product = rows.reshape(len(rows), -1) @ ref
            if local is None:
                local = product
            else:
                local += product
        return local

    # a node's sum starts from +0, so the sign of a zero term never shows
    if isinstance(grid, CellGrid):
        local = element_vectors(slice(0, grid.n_elements))
        dofs = grid.element_dofs()
        return np.bincount(dofs.reshape(-1), weights=local.reshape(-1), minlength=grid.ndof)
    offs = corner_offsets(dim).tolist()
    nodes = np.zeros((m + 1,) * dim)
    row = m ** (dim - 1)  # elements per element row
    n_chunks = -(-m // max(1, _CHUNK_ELEMENTS // row))  # balanced, as in _stencil_operator
    for i in range(n_chunks):
        r0, r1 = m * i // n_chunks, m * (i + 1) // n_chunks
        local = element_vectors(slice(r0 * row, r1 * row))
        local = local.reshape((r1 - r0,) + (m,) * (dim - 1) + (len(offs),))
        ranges = [(r0, r1)] + [(0, m)] * (dim - 1)  # the chunk's elements along each axis
        for b in reversed(range(len(offs))):
            corner = tuple(slice(lo + o, hi + o) for (lo, hi), o in zip(ranges, offs[b]))
            nodes[corner] += local[..., b]
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
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
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
        x += alpha * p
        r -= alpha * ap
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
        p = z if restart else z + (rz_new / rz) * p
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


def _smoother_weights(mat) -> np.ndarray:
    """omega / diag(A) for one level's damped-Jacobi smoother.

    A sweep contracts the error in the A-norm only while omega times
    lambda_max(D^-1 A) stays below 2.  Gershgorin bounds lambda_max by the
    largest absolute row sum of D^-1 A, so omega is capped at
    2 * ``_MG_OMEGA`` over that bound.  Q1 stencils of a scalar coefficient have bound 2 and keep
    omega = 0.8; anisotropic or full tensors, whose stencils carry positive
    off-diagonals, get a smaller weight instead of an amplifying smoother.
    """
    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix diagonal must be positive for the damped-Jacobi smoother")
    inv_diag = 1.0 / diag
    # absolute row sums as abs(mat).sum(axis=1) adds them, a block of rows at
    # a time, without a copy of the matrix's entries
    sums = np.empty(len(diag))
    for r0 in range(0, len(diag), _CHUNK_ELEMENTS):
        rows = mat.indptr[r0 : r0 + _CHUNK_ELEMENTS + 1]
        block = np.abs(mat.data[rows[0] : rows[-1]])
        sums[r0 : r0 + len(rows) - 1] = np.add.reduceat(block, rows[:-1] - rows[0])
    bound = float(np.max(inv_diag * sums))
    return _MG_OMEGA * min(1.0, 2.0 / bound) * inv_diag


def _coarsen(stencil: np.ndarray) -> np.ndarray:
    """Galerkin stencil P^T A P, (3, 3, n // 2, n // 2), of an interior
    stencil (3, 3, n, n), n odd, under bilinear prolongation P.

    P is a product of one-axis interpolations (coarse node I at fine node
    c = 2I + 1, weights 1/2, 1, 1/2), taken one axis at a time.  If fine row
    i couples to i - 1, i, i + 1 by l_i, d_i, u_i, coarse row I couples by
    (l_c + l_{c-1}) / 2 + d_{c-1} / 4, d_c + (l_c + u_c + u_{c-1} + l_{c+1}) / 2
    + (d_{c-1} + d_{c+1}) / 4 and (u_c + u_{c+1}) / 2 + d_{c+1} / 4.  A
    coupling that leaves the box reaches only the zeroed first l' or last u'.
    """
    for _ in range(2):
        # rows c - 1, c and c + 1 of each band, (3, n // 2, n'): the other axis's offset first
        (lm, lc, lp), (dm, dc, dp), (um, uc, up) = (
            (band[:, :-1:2], band[:, 1::2], band[:, 2::2]) for band in stencil)
        coarse = np.empty((3,) + dc.shape)
        coarse[0] = 0.5 * (lc + lm) + 0.25 * dm
        coarse[1] = dc + 0.5 * (lc + uc + um + lp) + 0.25 * (dm + dp)
        coarse[2] = 0.5 * (uc + up) + 0.25 * dp
        coarse[0, :, 0] = coarse[2, :, -1] = 0.0
        stencil = coarse.transpose(1, 0, 3, 2)  # the other axis next
    return np.ascontiguousarray(stencil)


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


def _multigrid(matrix: np.ndarray):
    """(A, V-cycle) of the interior equations of a 2-D box stencil ``matrix``
    (3, 3, m + 1, m + 1): A is their CSR matrix, the V-cycle its preconditioner.

    Levels halve the cell count while it is even and at least 8; coarse
    stencils are Galerkin products P^T A P (:func:`_coarsen`), which stay
    robust under oscillating coefficients, and each level's CSR matrix, read
    once from its stencil, serves its matvecs and smoother weights
    (:func:`_smoother_weights`).  Damped Jacobi takes as many sweeps after
    the coarse correction as before, and the coarsest level is factored
    once, so the V-cycle of an SPD matrix is SPD.  A grid that cannot
    coarsen is solved exactly.
    """
    stencil = matrix[:, :, 1:-1, 1:-1]  # a view: no level reads its couplings to the boundary
    levels = []  # (operator, weighted inverse diagonal, interior nodes per side)
    cells = len(matrix[0, 0]) - 1
    while cells % 2 == 0 and cells >= 8:
        # the coarse stencil first: its temporaries are gone before the CSR matrix is built
        coarse = _coarsen(stencil)
        mat = _csr(stencil)
        levels.append((mat, _smoother_weights(mat), cells - 1))
        stencil, cells = coarse, cells // 2
    coarsest = _csr(stencil)
    lu = _lu(coarsest)

    # a loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep the hierarchy alive after the solve
    # until the cyclic collector runs
    def vcycle(r):
        down = []
        for a, w_inv_diag, n in levels:
            x = w_inv_diag * r
            for _ in range(_MG_SWEEPS - 1):
                x += w_inv_diag * (r - a @ x)
            down.append((x, r))
            r = _restrict(r - a @ x, n)
        x_coarse = lu.solve(r)
        for (a, w_inv_diag, n), (x, r) in zip(reversed(levels), reversed(down)):
            x += _prolong(x_coarse, n)
            for _ in range(_MG_SWEEPS):
                x += w_inv_diag * (r - a @ x)
            x_coarse = x
        return x_coarse

    return (levels[0][0] if levels else coarsest), vcycle


def solve_dirichlet(matrix, rhs: np.ndarray, grid: MacroGrid, symmetric: bool = True) -> np.ndarray:
    """Solve ``matrix x = rhs``, ``matrix`` a box stencil, with homogeneous
    Dirichlet data eliminated exactly.

    Only the interior equations are solved; the returned full nodal vector
    is exactly zero on the boundary.  A 1-D grid's are tridiagonal and
    solved directly from the stencil's rows: a ``symmetric`` system from two
    bands, raising :class:`NonConvergenceError` unless it is positive
    definite, any other (a Newton Jacobian) from three, with partial
    pivoting.  A 2-D grid's are solved by CG (GMRES unless ``symmetric``),
    preconditioned with their multigrid V-cycle (:func:`_multigrid`), to the
    relative residual ``KRYLOV_TOL`` within :func:`_krylov_budget`.
    """
    out = np.zeros(grid.ndof)
    if grid.dim == 1:  # the interior sub-, main and super-diagonal
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
    reduced, precond = _multigrid(matrix)
    del matrix  # the iteration reads only the CSR levels: free the stencil if unshared
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
    if np.linalg.norm(rhs) <= _zero_load_floor(ndof, factor.scale):
        return np.zeros(ndof)
    defect = rhs_constant_defect(rhs, factor.scale)
    if defect > opts.compat_tol:
        raise CompatibilityError(
            f"rhs does not annihilate constants: relative defect {defect:.3e} "
            f"> compat_tol {opts.compat_tol:g}"
        )

    x = np.zeros(ndof)
    x[1:] = factor.lu.solve(rhs[1:] - rhs.sum() / ndof)
    return x - x.sum() / ndof  # x.mean(), without its call overhead
