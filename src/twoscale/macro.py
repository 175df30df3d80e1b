"""Newton solve of the nonlinear homogenized and resolved problems.

Both solves find the zero of the weak residual
R(u)_i = int a(u) grad u . grad phi_i - f(u) phi_i by undamped Newton steps
J(u) du = -R(u) (Knoll & Keyes, J. Comput. Phys. 193 (2004) 357-397), a
step that does not decrease the residual norm being halved until it does
(backtracking; Deuflhard, *Newton Methods for Nonlinear Problems*, 2004),
so no damping is tuned by hand.  The quadrature rule is the model's
(:attr:`~twoscale.coefficients.CoefficientModel.solve_points`), and the
stopping controls are the constants below.  The default start is one
linear solve with the data frozen at the midpoint of the admissible range,
which is already the solution when neither the coefficient nor the source
depends on u.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cell_problems import EffectiveTensorTable
from .errors import NonConvergenceError
from .fem import (as_period, assemble_load_from_samples, assemble_stiffness, gauss_rule,
                  linearize, solve_dirichlet)
from .grids import MacroGrid, ScalarField

# the sup norm of a Newton step at which the iteration stops, and the step budget
_TOL = 1e-10
_MAX_STEPS = 100
# smallest step fraction the backtracking tries before it gives up
_MIN_STEP = 2.0**-10


@dataclass
class PicardResult:
    """Steps and step sizes of a converged solve (non-convergence raises)."""

    iterations: int
    increments: list = field(default_factory=list)

    @property
    def final_increment(self) -> float:
        return self.increments[-1] if self.increments else 0.0


def solve_nonlinear(model, grid: MacroGrid, data, initial=None):
    """Newton solve of -div(a(u) grad u) = f(u), u = 0 on the boundary of
    ``grid``, for the macro and fine solves; the reader ``data(u, points)
    -> (a, da/du, f, df/du)`` gives :func:`~twoscale.fem.linearize` its data
    at the points of the model's rule, one call per quadrature point.

    The start is the nodal ``initial`` (boundary zeroed) or the frozen-
    midpoint solve, returned as converged in one iteration with increment 0
    when nothing depends on u.  That solve assembles the stiffness chunk by
    chunk, as a linear solve does, calling the reader once per quadrature
    point, and the load from the f of those same calls.  The iteration stops
    once a step's sup norm is at most ``_TOL``, returning the stepped state;
    a longer step is halved until the interior residual norm falls by the
    Armijo fraction 1e-4, and the increment recorded is that of the step
    taken.
    """
    dependent = model.u_dependent or model.source.u_dependent
    quad = gauss_rule(model.solve_points, grid.dim)
    if initial is None or not dependent:
        u_mid = 0.5 * (model.u_lo + model.u_hi)
        n_q = len(quad.weights)
        f = np.full((grid.n_elements, n_q), np.nan)  # a read missed is refused as non-finite
        # the stiffness kernel reads an evaluator in element order, chunk by
        # chunk, once per quadrature point: the element and point of the next read
        cursor = [0, 0]

        def frozen(pts):  # a at the midpoint, keeping f for the load
            a, _, f_q, _ = data(np.full(len(pts), u_mid), pts)
            e0, q = cursor
            f[e0 : e0 + len(pts), q] = f_q
            cursor[:] = (e0, q + 1) if q + 1 < n_q else (e0 + len(pts), 0)
            return a

        def load():  # from the f of every read, which it frees
            nonlocal f
            samples, f = f, None
            return assemble_load_from_samples(grid, quad, as_period(grid, samples))

        # no local holds the stencil, so the solve frees it once read; the
        # arguments are evaluated in order, so the load follows every read
        u = solve_dirichlet(assemble_stiffness(grid, frozen, quad), load(), grid)
        if not dependent:
            return u, PicardResult(iterations=1, increments=[0.0])
    else:
        u = np.array(initial, dtype=float)
        u[grid.boundary_dofs()] = 0.0

    free = grid.interior_dofs()
    jac, res = linearize(grid, quad, u, data)
    norm = np.linalg.norm(res[free])
    result = PicardResult(iterations=0)
    while result.iterations < _MAX_STEPS:
        # the solve holds the only reference to the Jacobian, as the frozen
        # start's does to its stencil, so the Jacobian is freed once read
        jac = [jac]
        step = solve_dirichlet(jac.pop(), -res, grid, symmetric=False)
        inc = float(np.max(np.abs(step)))
        result.iterations += 1
        frac = 1.0
        while inc > _TOL:  # backtracking
            jac, res = linearize(grid, quad, u + frac * step, data)
            trial_norm = np.linalg.norm(res[free])
            if trial_norm <= (1.0 - 1e-4 * frac) * norm:
                break
            frac *= 0.5
            if frac < _MIN_STEP:
                raise NonConvergenceError(f"Newton step {result.iterations} found no residual "
                                          "decrease", residual=inc, iterations=result.iterations,
                                          history=result.increments)
        u = u + frac * step
        result.increments.append(frac * inc)
        if inc <= _TOL:
            return u, result
        norm = trial_norm
    raise NonConvergenceError(
        f"Newton iteration did not converge in {_MAX_STEPS} steps (last increment "
        f"{result.final_increment:.3e})", residual=result.final_increment,
        iterations=result.iterations, history=result.increments)


def solve_homogenized(tensor_table: EffectiveTensorTable, model, macro_grid: MacroGrid):
    """Solve the homogenized problem with homogeneous Dirichlet data.

    The effective tensor and the cell-averaged source, and their exact
    u-derivatives for the Newton Jacobian, are blended from their parameter
    tables at every point of the model's rule, at the current iterate, in one
    read (:meth:`~twoscale.cell_problems.EffectiveTensorTable.newton_data`)
    that forms the table's weights once per derivative order.  Emits a
    warning when the converged solution leaves the admissible range.
    """
    values, result = solve_nonlinear(model, macro_grid, tensor_table.newton_data)

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

