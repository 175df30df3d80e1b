"""Second-order two-scale reconstruction and the resolved reference solve.

The reconstruction evaluates, at every fine node x, the slow fields (macro
solution and its finite-difference derivatives) and the fast corrector
fields at y = x / eps mod 1, and stacks them into

    u0(x)  +  eps * N_l(y) d_l u0  +  eps^2 * (M_kl d2_kl u0 + Q_k d_k u0 + R)

The fine grid always resolves the period: its spacing is eps / P, P >= 8 an
integer, so the fast coordinates of its nodes, (i mod P) / P, and of the
solve's quadrature points, ((i mod P) + xi_q) / P, come from indices, not
floating division: exact, and bias-free on lattices shared with the cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cell_problems import CorrectorTable, corrector_field_names
from .errors import ConfigurationError
from .fem import (SolverOptions, assemble_load_from_samples, assemble_stiffness,
                  default_quadrature, element_quad_points, solve_dirichlet)
from .grids import CellGrid, MacroGrid, ScalarField, fd_gradient, fd_hessian, grid_corners
from .macro import PicardOptions, PicardResult, solve_nonlinear


def cells_per_period(fine_grid: MacroGrid, eps: float) -> int:
    """Fine cells per coefficient period; errors unless it is an integer >= 8."""
    p = fine_grid.cells_per_side * eps
    p_int = int(round(p))
    if abs(p - p_int) > 1e-9 or p_int < 8:
        raise ConfigurationError(
            f"fine grid ({fine_grid.cells_per_side} cells) does not resolve "
            f"eps={eps:g} with an integer period count >= 8 (got {p:g})"
        )
    return p_int


def fine_grid_for(eps: float, periods: int, dim: int) -> MacroGrid:
    """Fine grid with ``periods`` cells per eps-period (spacing eps/periods)."""
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must lie in (0, 1)")
    k = 1.0 / eps
    if abs(k - round(k)) > 1e-9:
        raise ConfigurationError(f"eps must be the reciprocal of an integer, got {eps}")
    grid = MacroGrid(dim=dim, cells_per_side=int(round(k)) * periods)
    cells_per_period(grid, eps)
    return grid


def fast_coordinates(fine_grid: MacroGrid, eps: float) -> np.ndarray:
    """y = x / eps mod 1 at every fine node, exact on the node lattice."""
    p = cells_per_period(fine_grid, eps)
    k = fine_grid.nodes_per_side
    idx_axes = [np.arange(k)] * fine_grid.dim
    grids = np.meshgrid(*idx_axes, indexing="ij")
    cols = [(g.reshape(-1) % p) / p for g in grids]
    return np.stack(cols, axis=-1)


def period_samples(model, eps: float, fine_grid: MacroGrid, quad, *evaluators):
    """``evaluators`` (u, x, y) on one period, (P,)*dim + (Q, ...); None for data of u or x."""
    if model.u_dependent or model.x_dependent or model.source.u_dependent:
        return None
    p, dim = cells_per_period(fine_grid, eps), fine_grid.dim
    y = element_quad_points(CellGrid(dim, p), quad).reshape(-1, dim)
    out = (np.asarray(fn(model.u_lo, eps * y, y), dtype=float) for fn in evaluators)
    return [v.reshape((p,) * dim + (len(quad.weights),) + v.shape[1:]) for v in out]


@dataclass
class ExpansionField:
    """Layered two-scale reconstruction on a fine grid."""

    eps: float
    fine_grid: MacroGrid
    order: int
    u0: np.ndarray = field(repr=False)
    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise ValueError("truncation order must be 0, 1, or 2")
        cells_per_period(self.fine_grid, self.eps)

    def truncated(self, order: int | None = None) -> np.ndarray:
        order = self.order if order is None else order
        out = self.u0.copy()
        if order >= 1:
            out += self.eps * self.u1
        if order >= 2:
            out += self.eps**2 * self.u2
        return out

    @property
    def tilde(self) -> np.ndarray:
        return self.truncated()


@dataclass
class RemainderField:
    """Difference between the resolved solution and a reconstruction."""

    values: np.ndarray = field(repr=False)
    u_eps: ScalarField = field(repr=False)
    expansion: ExpansionField = field(repr=False)
    boundary_trace_max: float = 0.0


def _macro_fields_at(u0_field: ScalarField, points: np.ndarray):
    """u0, its recovered gradient (K, dim) and Hessian (K, dim, dim) at the
    points, each interpolated multilinearly from the macro nodes, with one
    point location shared by every column."""
    dim = u0_field.grid.dim
    ids, wts = grid_corners(u0_field.grid, points)

    def at(nodal):
        return np.sum(nodal[ids] * wts, axis=1)

    u0 = at(u0_field.values)
    grad_nodal = fd_gradient(u0_field)  # (macro ndof, dim)
    grad = np.stack([at(grad_nodal[:, d]) for d in range(dim)], axis=-1)
    hess_nodal = fd_hessian(u0_field)  # (macro ndof, dim, dim), symmetric
    hess = np.zeros((len(points), dim, dim))
    for k in range(dim):
        for l in range(k, dim):
            hess[:, k, l] = at(hess_nodal[:, k, l])
            hess[:, l, k] = hess[:, k, l]
    return u0, grad, hess


def reconstruct(
    u0_field: ScalarField,
    table: CorrectorTable,
    eps: float,
    fine_grid: MacroGrid,
    order: int = 2,
) -> ExpansionField:
    """Evaluate the two-scale layers at every fine node.

    Slow quantities come from interpolating the macro solution and its
    finite-difference gradient/Hessian; fast quantities from the corrector
    table interpolated in (u, x) and within the cell at y = x/eps mod 1.
    """
    if not isinstance(u0_field.grid, MacroGrid):
        raise TypeError("u0 must live on a macro grid")
    x = fine_grid.node_coords()
    y = fast_coordinates(fine_grid, eps)
    dim = fine_grid.dim
    u0_f, grad_f, hess_f = _macro_fields_at(u0_field, x)

    names = corrector_field_names(dim)
    vals = dict(zip(names, table.interp_stacks([table.fields[n] for n in names], u0_f, x, y)))

    u1 = np.zeros_like(u0_f)
    for m in range(dim):
        u1 += vals[f"first_{m}"] * grad_f[:, m]

    u2 = vals["source"].copy()
    for k in range(dim):
        for l in range(k, dim):
            fac = 1.0 if k == l else 2.0
            u2 += fac * vals[f"hess_{k}{l}"] * hess_f[:, k, l]
    for k in range(dim):
        slow_k = vals[f"slow0_{k}"].copy()
        for m in range(dim):
            slow_k += vals[f"slowg_{k}{m}"] * grad_f[:, m]
        u2 += slow_k * grad_f[:, k]

    return ExpansionField(eps=eps, fine_grid=fine_grid, order=order, u0=u0_f, u1=u1, u2=u2)


def reconstruction_gradient(
    u0_field: ScalarField,
    table: CorrectorTable,
    eps: float,
    points: np.ndarray,
) -> np.ndarray:
    """Pointwise gradient of the first-order reconstruction u0 + eps*u1.

    Evaluated from the chain rule rather than by differencing nodal values:
    the fast derivative of the correctors is recovered on the periodic cell,
    their parameter derivatives are the table's tangent stacks, and the
    macro derivatives come from the finite-difference recovery, so no O(h)
    interpolant kinks or difference-quotient consistency errors of the
    oscillating layer leak into gradient-level error measurements.

        grad_k = d_k u0 + dN_l/dy_k d_l u0
               + eps * [ (dN_l/du d_k u0 + dN_l/dx_k) d_l u0 + N_l d2_kl u0 ]
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = u0_field.grid.dim
    y = np.mod(points / eps, 1.0)
    u0_at, g, h = _macro_fields_at(u0_field, points)

    out = g.copy()
    for l in range(dim):
        name = f"first_{l}"
        dn_dy, tangents = table.gradient_stack(name), table.tangents[name]
        stacks = [table.fields[name], tangents[0]]
        stacks += [dn_dy[:, :, k] for k in range(dim)]
        stacks += [tangents[1 + k] for k in range(dim)]
        n_l, dn_du, *rest = table.interp_stacks(stacks, u0_at, points, y)
        dy, dx = rest[:dim], rest[dim:]
        for k in range(dim):
            out[:, k] += dy[k] * g[:, l]
            out[:, k] += eps * ((dn_du * g[:, k] + dx[k]) * g[:, l] + n_l * h[:, k, l])
    return out


def solve_fine(
    model,
    eps: float,
    fine_grid: MacroGrid,
    opts: PicardOptions = PicardOptions(),
    quad=None,
    cg_opts: SolverOptions = SolverOptions(),
    max_dofs: int = 2_000_000,
    initial=None,
):
    """Resolved reference solve with oscillating data a(u, x, x/eps).

    One solve from :func:`period_samples` for data of y alone, else Newton as in
    the homogenized solve, from the nodal ``initial`` values when given; refuses
    fine grids beyond ``max_dofs`` (refine eps or lower the period resolution).
    """
    cells_per_period(fine_grid, eps)
    if fine_grid.ndof > max_dofs:
        raise ConfigurationError(
            f"fine grid has {fine_grid.ndof} DOFs > cap {max_dofs}; "
            "reduce cells_per_period or use larger eps"
        )

    quad = quad or default_quadrature(fine_grid.dim)
    samples = period_samples(model, eps, fine_grid, quad, model.eval_a, model.eval_f)
    if samples is not None:  # one linear solve
        mat = assemble_stiffness(fine_grid, samples[0], quad)
        rhs = assemble_load_from_samples(fine_grid, quad, samples[1])
        values = solve_dirichlet(mat, rhs, fine_grid, cg_opts)
        return ScalarField(fine_grid, values), PicardResult(1, [0.0], converged=True)

    def fast(evaluator):
        return lambda u, pts: evaluator(u, pts, np.mod(pts / eps, 1.0))

    values, result = solve_nonlinear(
        model, fine_grid, quad,
        fast(model.eval_a), fast(model.eval_da_du), fast(model.eval_f), fast(model.eval_df_du),
        opts, cg_opts, initial,
    )
    return ScalarField(fine_grid, values), result


def remainder(u_eps: ScalarField, expansion: ExpansionField) -> RemainderField:
    """Nodal difference u_eps - tilde(u), with its boundary trace recorded.

    On the boundary the resolved solution vanishes, so the trace is exactly
    minus the reconstruction's boundary values -- an O(eps) quantity by
    construction.
    """
    if u_eps.grid != expansion.fine_grid:
        raise ValueError("remainder requires matching fine grids")
    values = u_eps.values - expansion.tilde
    bnd = u_eps.grid.boundary_dofs()
    trace = float(np.max(np.abs(values[bnd]))) if len(bnd) else 0.0
    return RemainderField(
        values=values, u_eps=u_eps, expansion=expansion, boundary_trace_max=trace
    )
