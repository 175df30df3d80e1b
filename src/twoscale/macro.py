"""Anderson-accelerated Picard solve of the nonlinear homogenized problem.

The homogenized operator evaluates the effective tensor at the previous
iterate, so the natural linearization is the frozen-coefficient fixed point
G(u) = (1 - theta) u + theta * LinSolve(a0(u, x), F(u, x)); no tensor
derivative is needed.  Anderson mixing over the last few evaluations of G
(Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735) extrapolates the
next iterate, so theta acts as the mixing weight.  The initial guess is one
extra linear solve with the tensor frozen at the midpoint of the admissible
range, which starts the iteration basin-adjacent for the shipped problems;
when neither the coefficient nor the source depends on u, that solve is
already the solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cell_problems import EffectiveTensorTable
from .errors import NonConvergenceError
from .fem import (
    SolverOptions,
    assemble_load,
    assemble_stiffness,
    default_quadrature,
    solve_dirichlet,
)
from .grids import MacroGrid, ScalarField

# Anderson depth: each step mixes the last ANDERSON_DEPTH + 1 evaluations of G
ANDERSON_DEPTH = 5


@dataclass(frozen=True)
class PicardOptions:
    """Fixed-point controls: sup-norm increment tolerance, budget, damping."""

    tol: float = 1e-10
    max_iter: int = 100
    damping: float = 1.0

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class PicardResult:
    iterations: int
    increments: list = field(default_factory=list)
    converged: bool = False

    @property
    def final_increment(self) -> float:
        return self.increments[-1] if self.increments else 0.0


def picard_solve(assemble_fn, grid: MacroGrid, opts: PicardOptions,
                 cg_opts: SolverOptions, initial_values: np.ndarray):
    """Shared fixed-point driver: ``assemble_fn(u_values) -> (matrix, rhs)``.

    Each step evaluates the damped map G at the current iterate; its
    sup-norm increment |G(u) - u| is the convergence measure, and the first
    G(u) whose increment drops below the tolerance is returned together with
    the increment history.  Otherwise the next iterate is the Anderson
    combination of the last ``ANDERSON_DEPTH`` + 1 evaluations of G.
    """
    u = np.asarray(initial_values, dtype=float).copy()
    result = PicardResult(iterations=0)
    g_hist, f_hist = [], []
    for it in range(1, opts.max_iter + 1):
        mat, rhs = assemble_fn(u)
        u_lin = solve_dirichlet(mat, rhs, grid, cg_opts)
        g = (1.0 - opts.damping) * u + opts.damping * u_lin
        f = g - u
        inc = float(np.max(np.abs(f)))
        result.increments.append(inc)
        result.iterations = it
        if inc <= opts.tol:
            u = g
            result.converged = True
            break
        g_hist = (g_hist + [g])[-(ANDERSON_DEPTH + 1):]
        f_hist = (f_hist + [f])[-(ANDERSON_DEPTH + 1):]
        if len(f_hist) > 1:
            d_f = np.diff(np.stack(f_hist, axis=1), axis=1)
            d_g = np.diff(np.stack(g_hist, axis=1), axis=1)
            gamma = np.linalg.lstsq(d_f, f, rcond=None)[0]
            u = g - d_g @ gamma
        else:
            u = g
    if not result.converged:
        raise NonConvergenceError(
            f"Picard iteration did not converge in {opts.max_iter} steps "
            f"(last increment {result.final_increment:.3e}); consider smaller damping",
            residual=result.final_increment,
            iterations=result.iterations,
            history=result.increments,
        )
    return u, result


def solve_nonlinear(model, grid: MacroGrid, quad, coeff, source, opts: PicardOptions,
                    cg_opts: SolverOptions):
    """Frozen-midpoint start, then ``picard_solve`` (shared by the macro and
    fine solves).

    Each step assembles ``coeff(u, points)`` (tensors (K, dim, dim)) and
    ``source(u, points)`` (scalars (K,)) on ``grid`` with ``quad``, the
    state ``u`` being the current iterate at the quadrature points.  The
    start is one linear solve with the state frozen at the middle of the
    admissible range.  When neither the coefficient nor the source depends
    on u, that solve is the fixed point and is returned as converged in one
    iteration with increment 0.
    """

    def assemble_at(u_values):
        mat = assemble_stiffness(grid, coeff, quad, state=u_values)
        rhs = assemble_load(grid, quad, scalar_fn=source, state=u_values)
        return mat, rhs

    u_mid = 0.5 * (model.u_lo + model.u_hi)
    mat, rhs = assemble_at(np.full(grid.ndof, u_mid))
    start = solve_dirichlet(mat, rhs, grid, cg_opts)
    if not (model.u_dependent or model.source.u_dependent):
        return start, PicardResult(iterations=1, increments=[0.0], converged=True)
    return picard_solve(assemble_at, grid, opts, cg_opts, start)


def solve_homogenized(
    tensor_table: EffectiveTensorTable,
    model,
    macro_grid: MacroGrid,
    opts: PicardOptions = PicardOptions(),
    quad=None,
    cg_opts: SolverOptions = SolverOptions(),
):
    """Solve the homogenized problem with homogeneous Dirichlet data.

    The effective tensor and the cell-averaged source are interpolated from
    their parameter tables at every quadrature point of the current iterate.
    Emits a warning when the converged solution leaves the admissible range.
    """
    values, result = solve_nonlinear(
        model, macro_grid, quad or default_quadrature(macro_grid.dim),
        tensor_table.interp, tensor_table.interp_source, opts, cg_opts,
    )

    interior = values[macro_grid.interior_dofs()]
    eps_range = 1e-12 * (model.u_hi - model.u_lo)
    if interior.size and (
        interior.min() <= model.u_lo - eps_range or interior.max() >= model.u_hi + eps_range
    ):
        warnings.warn(
            f"homogenized solution leaves the admissible range "
            f"[{model.u_lo}, {model.u_hi}]: [{interior.min():.6g}, {interior.max():.6g}]"
        )
    return ScalarField(macro_grid, values), result

