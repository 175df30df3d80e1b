"""Multilinear (Q1) finite elements on structured grids.

Assembly of variable-coefficient stiffness matrices and load vectors with
tensor Gauss quadrature, plus linear solvers in two constraint flavours:
Dirichlet elimination on the box, and zero-mean projection on the periodic
cell.  The solver depends only on the grid's dimension.  In 1-D the
(cyclic) tridiagonal systems are factored exactly by sparse LU; the
singular periodic one is made nonsingular by pinning one node, and the
solution is then projected to mean zero.  In 2-D one preconditioned
conjugate gradient loop serves both flavours.  On the box its
preconditioner is a geometric multigrid V-cycle built once per solve:
bilinear prolongation on the interior nodes, Galerkin coarse operators
P^T A P, damped-Jacobi smoothing weighted to contract on every level and
a sparse-LU coarsest level, which keeps the iteration count flat as the
grid is refined (Jacobi instead, when that level would be too large to
factor).  On the periodic cell it is Jacobi, with the right-hand side
and every preconditioned residual projected onto the mean-zero subspace,
which keeps CG on an SPD restriction.

Assembly is a matrix-product kernel.  The coefficient samples at the
quadrature points, reshaped to (E, Q*dim*dim), multiply one reference
tensor of weighted Q1 gradient products, shape (Q*dim*dim, C*C), giving
every element matrix at once; load vectors are the same kind of product
with weighted basis values or gradients.  The element connectivity comes
from the grid, which computes it once.  Element contributions are
accumulated in a fixed element order so repeated runs are bitwise
reproducible regardless of how callers parallelize around this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, CompatibilityError, NonConvergenceError
from .grids import CellGrid, MacroGrid, corner_offsets


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the reference element [0,1]^dim."""

    points: np.ndarray  # (Q, dim)
    weights: np.ndarray  # (Q,)
    degree: int  # polynomial exactness per direction

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to the element measure")


def default_quadrature(dim: int, n_points: int | None = None) -> QuadratureRule:
    """Default assembly rule: one midpoint per direction in 1-D, 2x2 in 2-D.

    Midpoint sampling is the right default in 1-D: piecewise-linear basis
    gradients are constant, so only the coefficient is integrated, and
    uniform midpoint samples of a smooth periodic coefficient make the
    assembled harmonic structures superalgebraically accurate (a two-point
    rule leaves an O(h^2) element-averaging bias).  In 2-D one point per
    element would leave the bilinear hourglass mode without stiffness, so
    the tensor two-point rule is the floor there.
    """
    if n_points is None:
        n_points = 1 if dim == 1 else 2
    return gauss_rule(n_points, dim)


def gauss_rule(n_points: int, dim: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n_points`` per direction, mapped to [0,1]."""
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
    return QuadratureRule(points=pts, weights=wts, degree=2 * n_points - 1)


def q1_values(xi: np.ndarray) -> np.ndarray:
    """Q1 basis values at reference points ``xi`` (Q, dim) -> (Q, 2^dim)."""
    xi = np.atleast_2d(xi)
    offs = corner_offsets(xi.shape[1])
    vals = np.ones((xi.shape[0], offs.shape[0]))
    for c, off in enumerate(offs):
        for d, bit in enumerate(off):
            vals[:, c] *= xi[:, d] if bit else 1.0 - xi[:, d]
    return vals


def q1_gradients(xi: np.ndarray) -> np.ndarray:
    """Reference gradients of the Q1 basis, (Q, dim) -> (Q, 2^dim, dim)."""
    xi = np.atleast_2d(xi)
    dim = xi.shape[1]
    offs = corner_offsets(dim)
    grads = np.ones((xi.shape[0], offs.shape[0], dim))
    for c, off in enumerate(offs):
        for d in range(dim):
            for e, bit in enumerate(off):
                if e == d:
                    grads[:, c, d] *= 1.0 if bit else -1.0
                else:
                    grads[:, c, d] *= xi[:, e] if bit else 1.0 - xi[:, e]
    return grads


def element_quad_points(grid, quad: QuadratureRule) -> np.ndarray:
    """Physical coordinates of all quadrature points, shape (E, Q, dim)."""
    origins = grid.element_origins()
    return origins[:, None, :] + quad.points[None, :, :] * grid.spacing


def field_values_at_quad(grid, values: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """Q1 interpolant of nodal ``values`` at the quadrature points, (E, Q)."""
    dofs = grid.element_dofs()
    basis = q1_values(quad.points)  # (Q, C)
    return np.asarray(values)[dofs] @ basis.T


def field_gradients_at_quad(grid, values: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """Q1 gradient of nodal ``values`` at the quadrature points, (E, Q, dim)."""
    dofs = grid.element_dofs()
    grads = q1_gradients(quad.points) / grid.spacing  # (Q, C, dim)
    return np.einsum("ec,qcd->eqd", np.asarray(values)[dofs], grads)


def integrate(grid, quad: QuadratureRule, samples: np.ndarray) -> float:
    """Integral over the grid's domain of quad-point samples (E, Q)."""
    cell_measure = grid.spacing**grid.dim
    return float(np.einsum("eq,q->", samples, quad.weights) * cell_measure)


def _eval_at_quad(grid, quad: QuadratureRule, fn, tail: tuple) -> np.ndarray:
    """``fn(points)`` at every quadrature point, shape (E, Q, *tail).

    ``fn`` is called once per quadrature point with one point per element,
    which bounds the size of its temporaries on large grids.
    """
    pts = element_quad_points(grid, quad)
    out = np.empty(pts.shape[:2] + tail)
    for q in range(pts.shape[1]):
        vals = np.asarray(fn(pts[:, q, :]), dtype=float)
        if vals.shape != out.shape[:1] + tail:
            raise AssemblyError(f"evaluator returned shape {vals.shape}")
        out[:, q] = vals
    return out


def _stiffness_reference(grid, quad: QuadratureRule) -> np.ndarray:
    """Reference tensor R, shape (Q*dim*dim, C*C), of the stiffness kernel.

    R[(q, i, j), (b, c)] = w_q |K| d_i phi_b(x_q) d_j phi_c(x_q), so the
    element matrices of coefficient samples a (E, Q, dim, dim) are the rows
    of one matrix product a.reshape(E, -1) @ R.
    """
    grads = q1_gradients(quad.points) / grid.spacing  # (Q, C, dim)
    ref = np.einsum("q,qbi,qcj->qijbc", quad.weights * grid.spacing**grid.dim, grads, grads)
    n_q, n_loc, dim = grads.shape
    return ref.reshape(n_q * dim * dim, n_loc * n_loc)


def assemble_stiffness(grid, coeff, quad: QuadratureRule) -> sp.csr_matrix:
    """Assemble the variable-coefficient stiffness matrix.

    ``coeff`` is either an evaluator ``coeff(points)`` mapping physical
    points (K, dim) to symmetric matrices (K, dim, dim), called once per
    quadrature point with one point per element, or the samples themselves,
    shape (E, Q, dim, dim).  All element matrices come from one matrix
    product with :func:`_stiffness_reference`.  On a cell grid the element
    corner indices wrap, which realizes the periodic identification.
    """
    dofs = grid.element_dofs()
    n_el, n_loc = dofs.shape
    tail = (grid.dim, grid.dim)
    if callable(coeff):
        a = _eval_at_quad(grid, quad, coeff, tail)
    else:
        a = np.asarray(coeff, dtype=float)
        if a.shape != (n_el, len(quad.weights)) + tail:
            raise AssemblyError(f"coefficient samples have shape {a.shape}")
    finite = np.isfinite(a).reshape(n_el, -1).all(axis=1)
    if not finite.all():
        raise AssemblyError(f"non-finite coefficient at element {int(np.argmin(finite))}")
    local = a.reshape(n_el, -1) @ _stiffness_reference(grid, quad)  # (E, C*C)
    del a  # evaluated samples are not needed while the scatter arrays exist

    rows = np.repeat(dofs, n_loc, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, n_loc)).reshape(-1)
    mat = sp.coo_matrix(
        (local.reshape(-1), (rows, cols)), shape=(grid.ndof, grid.ndof)
    ).tocsr()
    if __debug__:
        asym = abs(mat - mat.T).max()
        scale = max(abs(mat).max(), 1.0)
        if asym > 1e-12 * scale:
            raise AssemblyError(f"assembled matrix asymmetry {asym:.3e}")
    return mat


def assemble_load_from_samples(
    grid,
    quad: QuadratureRule,
    scalar_samples: np.ndarray | None = None,
    flux_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Load vector from precomputed quad-point data.

    ``scalar_samples`` (E, Q) contributes ``\\int s \\phi_p``; ``flux_samples``
    (E, Q, dim) contributes ``\\int B . grad(phi_p)``.  Each form is one
    matrix product of the samples with a (Q, C) or (Q*dim, C) reference
    matrix of weighted basis values or gradients.
    """
    dofs = grid.element_dofs()
    n_el, n_loc = dofs.shape
    h = grid.spacing
    weights = quad.weights * h**grid.dim

    local = np.zeros((n_el, n_loc))
    if scalar_samples is not None:
        s = np.asarray(scalar_samples, dtype=float)
        if not np.all(np.isfinite(s)):
            raise AssemblyError("non-finite scalar source sample")
        local += s @ (weights[:, None] * q1_values(quad.points))
    if flux_samples is not None:
        b = np.asarray(flux_samples, dtype=float)
        if not np.all(np.isfinite(b)):
            raise AssemblyError("non-finite flux source sample")
        ref = weights[:, None, None] * np.swapaxes(q1_gradients(quad.points) / h, 1, 2)
        local += b.reshape(n_el, -1) @ ref.reshape(-1, n_loc)  # (Q*dim, C)
    return np.bincount(dofs.reshape(-1), weights=local.reshape(-1), minlength=grid.ndof)


def assemble_load(grid, quad: QuadratureRule, scalar_fn=None, flux_fn=None) -> np.ndarray:
    """Load vector from point evaluators.

    ``scalar_fn(points) -> (K,)`` gives the \\int s phi form, ``flux_fn(points)
    -> (K, dim)`` the \\int B . grad(phi) form; they may be combined.
    """
    scalar_samples = None
    flux_samples = None
    if scalar_fn is not None:
        scalar_samples = _eval_at_quad(grid, quad, scalar_fn, ())
    if flux_fn is not None:
        flux_samples = _eval_at_quad(grid, quad, flux_fn, (grid.dim,))
    return assemble_load_from_samples(grid, quad, scalar_samples, flux_samples)


@dataclass
class SparseSystem:
    """A symmetric sparse operator with its right-hand side."""

    matrix: sp.csr_matrix
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if self.rhs.shape != (self.matrix.shape[0],):
            raise ValueError("rhs length does not match matrix dimension")

    @property
    def ndof(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SolverOptions:
    """Linear-solver controls.

    ``tol`` (relative residual) and ``max_iter`` (default 10x the DOF
    count) steer the 2-D preconditioned conjugate gradient: multigrid
    preconditioned on the box, Jacobi preconditioned on the periodic cell.
    The 1-D direct solves are exact and ignore them.  ``compat_tol`` is the
    relative bound on the rhs functional applied to constants before a
    periodic solve.
    """

    tol: float = 1e-10
    max_iter: int | None = None
    compat_tol: float = 1e-8


def _jacobi_pcg(mat, rhs, tol, max_iter, precond):
    """Preconditioned CG on ``mat x = rhs``; returns (x, rel. residual, iterations).

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
        history.append(rel)
        if rel <= tol:
            return x, rel, it
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations",
        residual=history[-1] if history else None,
        iterations=max_iter,
        history=history,
    )


def _inverse_diagonal(mat) -> np.ndarray:
    diag = mat.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("matrix diagonal must be positive for Jacobi preconditioning")
    return 1.0 / diag


def _lu(mat):
    """One sparse LU factorization of a nonsingular sparse matrix."""
    return spla.splu(sp.csc_matrix(mat))


# largest damped-Jacobi weight and the sweep count of the V-cycle smoother;
# the same count before and after the coarse correction keeps the V-cycle
# symmetric
_MG_OMEGA = 0.8
_MG_SWEEPS = 2
# largest coarsest level, in unknowns, that is factored exactly; a grid
# whose coarsest level is larger (a large odd cell count) falls back to Jacobi
_MG_MAX_COARSEST = 4096


def _interior_prolongation(cells: int) -> sp.csr_matrix:
    """Bilinear interpolation from the interior nodes of the ``cells // 2``
    box grid to those of the ``cells`` box grid, both in the "ij" order of
    :meth:`MacroGrid.interior_dofs` (first index slowest)."""
    coarse = np.arange(cells // 2 - 1)
    fine = 2 * coarse + 1  # fine interior index of each coarse node
    p1 = sp.csr_matrix(
        (
            np.tile([0.5, 1.0, 0.5], len(coarse)),
            (np.stack([fine - 1, fine, fine + 1], axis=1).reshape(-1), np.repeat(coarse, 3)),
        ),
        shape=(cells - 1, len(coarse)),
    )
    return sp.kron(p1, p1, format="csr")


def _smoother_weights(mat) -> np.ndarray:
    """omega / diag(A) for one level's damped-Jacobi smoother.

    A sweep contracts the error in the A-norm only while omega times
    lambda_max(D^-1 A) stays below 2.  Gershgorin bounds lambda_max by the
    largest absolute row sum of D^-1 A, so omega is capped at
    2 * ``_MG_OMEGA`` over that bound.  Q1 stencils of a scalar coefficient have bound 2 and keep
    omega = 0.8; anisotropic or full tensors, whose stencils carry positive
    off-diagonals, get a smaller weight instead of an amplifying smoother.
    """
    inv_diag = _inverse_diagonal(mat)
    bound = float(np.max(inv_diag * np.asarray(abs(mat).sum(axis=1)).ravel()))
    return _MG_OMEGA * min(1.0, 2.0 / bound) * inv_diag


def _multigrid(mat, cells: int):
    """V-cycle preconditioner for the reduced Dirichlet matrix of a 2-D box
    grid with ``cells`` cells per side.

    Levels halve the cell count while it is even and at least 8; coarse
    operators are Galerkin products P^T A P, which stay robust under
    oscillating coefficients.  The smoother is damped Jacobi with a weight
    that contracts on each level (:func:`_smoother_weights`) and as many
    sweeps after the coarse correction as before, and the coarsest level is
    factored once, so the V-cycle is symmetric positive definite.  A grid
    that cannot coarsen is solved exactly.  If the coarsest level would
    exceed ``_MG_MAX_COARSEST`` unknowns, its factorization would cost
    far more than the O(n) CG it serves, and the preconditioner is plain
    Jacobi instead.
    """
    coarsest_cells = cells
    while coarsest_cells % 2 == 0 and coarsest_cells >= 8:
        coarsest_cells //= 2
    if (coarsest_cells - 1) ** 2 > _MG_MAX_COARSEST:
        inv_diag = _inverse_diagonal(mat)
        return lambda r: inv_diag * r

    levels = []  # (operator, weighted inverse diagonal, prolongation)
    while cells > coarsest_cells:
        prol = _interior_prolongation(cells)
        levels.append((mat, _smoother_weights(mat), prol))
        mat = (prol.T @ mat @ prol).tocsr()
        cells //= 2
    coarsest = _lu(mat)

    # a loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep the hierarchy (and the fine
    # operator) alive after the solve until the cyclic collector runs
    def vcycle(r):
        down = []
        for a, w_inv_diag, prol in levels:
            x = w_inv_diag * r
            for _ in range(_MG_SWEEPS - 1):
                x += w_inv_diag * (r - a @ x)
            down.append((x, r))
            r = prol.T @ (r - a @ x)
        x_coarse = coarsest.solve(r)
        for (a, w_inv_diag, prol), (x, r) in zip(reversed(levels), reversed(down)):
            x += prol @ x_coarse
            for _ in range(_MG_SWEEPS):
                x += w_inv_diag * (r - a @ x)
            x_coarse = x
        return x_coarse

    return vcycle


def solve_dirichlet(
    system: SparseSystem,
    grid: MacroGrid,
    boundary_values=0.0,
    opts: SolverOptions = SolverOptions(),
) -> np.ndarray:
    """Solve with Dirichlet data eliminated exactly.

    ``boundary_values`` may be a scalar (applied to every boundary node) or a
    mapping node-id -> value.  Returns the full nodal vector with boundary
    entries set exactly to the data.  A 1-D grid's reduced system is solved
    directly, a 2-D one by CG preconditioned with a multigrid V-cycle.
    """
    bnd = grid.boundary_dofs()
    free = grid.interior_dofs()
    vals = np.zeros(grid.ndof)
    if np.isscalar(boundary_values):
        vals[bnd] = float(boundary_values)
    else:
        for node, v in boundary_values.items():
            vals[node] = float(v)

    mat = system.matrix
    rhs = system.rhs[free] - mat[free][:, bnd] @ vals[bnd]
    reduced = mat[free][:, free].tocsr()
    if grid.dim == 1:
        x_free = _lu(reduced).solve(rhs)
    else:
        max_iter = opts.max_iter or 10 * max(len(free), 1)
        precond = _multigrid(reduced, grid.cells_per_side)
        x_free, _, _ = _jacobi_pcg(reduced, rhs, opts.tol, max_iter, precond)
    out = vals
    out[free] = x_free
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


def solve_periodic_zero_mean(
    system: SparseSystem, grid: CellGrid, opts: SolverOptions = SolverOptions()
) -> np.ndarray:
    """Solve the singular periodic system on the zero-mean subspace.

    The rhs must annihilate constants (solvability) and is projected.  On a
    1-D cell node 0 is pinned to zero and the nonsingular remainder is
    solved directly; on a 2-D cell Jacobi-preconditioned CG runs with each
    preconditioned residual projected.  The result is projected once at the
    end and has zero discrete mean (uniform lumped masses make that the
    plain average).
    """
    scale = abs(system.matrix).max()
    if np.linalg.norm(system.rhs) <= _zero_load_floor(system.ndof, scale):
        return np.zeros(system.ndof)
    defect = rhs_constant_defect(system.rhs, scale)
    if defect > opts.compat_tol:
        raise CompatibilityError(
            f"rhs does not annihilate constants: relative defect {defect:.3e} "
            f"> compat_tol {opts.compat_tol:g}"
        )

    def project(v):
        return v - v.sum() / len(v)  # v.mean(), without its call overhead

    rhs = project(system.rhs)
    if grid.dim == 1:
        x = np.zeros(system.ndof)
        x[1:] = _lu(system.matrix[1:, 1:]).solve(rhs[1:])
    else:
        # A annihilates constants and is symmetric, so A p sums to zero:
        # with the rhs and each preconditioned residual projected, every
        # residual and search direction stays mean-zero without further
        # projection
        inv_diag = _inverse_diagonal(system.matrix)
        max_iter = opts.max_iter or 10 * system.ndof
        x, _, _ = _jacobi_pcg(
            system.matrix, rhs, opts.tol, max_iter, lambda r: project(inv_diag * r)
        )
    return project(x)
