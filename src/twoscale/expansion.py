"""Second-order two-scale reconstruction and the resolved reference solve.

The reconstruction evaluates, at every fine node x, the slow fields (macro
solution and its finite-difference derivatives) and the fast corrector
fields at y = x / eps mod 1, and stacks them into the second-order
expansion, whose truncations after orders 0 and 1 read the same layers:

    u0(x)  +  eps * N_l(y) d_l u0  +  eps^2 * (M_kl d2_kl u0 + Q_k d_k u0 + R)

The fine grid always resolves the period: its spacing is eps / P, P >= 8 an
integer, so the fast coordinates of its nodes, (i mod P) / P, and of the
solve's quadrature points, ((i mod P) + xi_q) / P, come from indices, not
floating division: exact, and bias-free on lattices shared with the cell grid.
The fine nodes, like the element centers at which the reconstruction's
gradient is read, are a tensor lattice, so every read brackets each axis once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cell_problems import CorrectorTable, corrector_field_names
from .config import MAX_FINE_DOFS
from .errors import ConfigurationError
from .fem import (assemble_load_from_samples, element_quad_points, gauss_rule,
                  period_stiffness, solve_dirichlet)
from .grids import (CellGrid, MacroGrid, ScalarField, corner_sum, fd_gradient, fd_hessian,
                    tensor_corners)
from .macro import PicardResult, solve_nonlinear


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


def fast_coordinates(fine_grid: MacroGrid, eps: float) -> list:
    """y = x / eps mod 1 along each axis of the fine nodes, exact on the node
    lattice; the nodes' fast coordinates are their product, first axis slowest."""
    p = cells_per_period(fine_grid, eps)
    return [(np.arange(fine_grid.nodes_per_side) % p) / p] * fine_grid.dim


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
    """The layers u0, u1 and u2 of the two-scale expansion at the fine nodes."""

    eps: float
    fine_grid: MacroGrid
    u0: np.ndarray = field(repr=False)
    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)

    def __post_init__(self):
        cells_per_period(self.fine_grid, self.eps)

    def truncated(self, order: int) -> np.ndarray:
        """u0 + eps u1 + eps^2 u2 cut after the term of ``order``, 0, 1 or 2."""
        if order not in (0, 1, 2):
            raise ValueError("truncation order must be 0, 1, or 2")
        out = self.u0.copy()
        if order >= 1:
            out += self.eps * self.u1
        if order >= 2:
            out += self.eps**2 * self.u2
        return out


def _macro_fields_on(u0_field: ScalarField, axes):
    """u0, its recovered gradient (K, dim) and Hessian (K, dim, dim) on the
    tensor lattice of the per-axis coordinates ``axes``, each interpolated
    multilinearly from the macro nodes, with one bracket of each axis shared
    by every column."""
    dim = u0_field.grid.dim
    ids, wts = tensor_corners(u0_field.grid, axes)

    def at(nodal):
        return corner_sum(ids, wts, nodal.__getitem__).reshape(-1)

    u0 = at(u0_field.values)
    grad_nodal = fd_gradient(u0_field)  # (macro ndof, dim)
    grad = np.stack([at(grad_nodal[:, d]) for d in range(dim)], axis=-1)
    hess_nodal = fd_hessian(u0_field)  # (macro ndof, dim, dim), symmetric
    hess = np.zeros((len(u0), dim, dim))
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
) -> ExpansionField:
    """Evaluate the two-scale layers, up to the second, at every fine node.

    Slow quantities come from interpolating the macro solution and its
    finite-difference gradient/Hessian; fast quantities from the corrector
    table interpolated in (u, x) and within the cell at y = x/eps mod 1.
    The fine nodes are a tensor lattice, so both reads bracket each axis once.
    """
    if not isinstance(u0_field.grid, MacroGrid):
        raise TypeError("u0 must live on a macro grid")
    axes = fine_grid.axes()
    dim = fine_grid.dim
    u0_f, grad_f, hess_f = _macro_fields_on(u0_field, axes)

    names = corrector_field_names(dim)
    stacks = [table.fields[n] for n in names]
    fast_axes = fast_coordinates(fine_grid, eps)
    vals = dict(zip(names, table.interp_stacks(stacks, u0_f, axes, fast_axes)))

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

    return ExpansionField(eps=eps, fine_grid=fine_grid, u0=u0_f, u1=u1, u2=u2)


def reconstruction_gradient(
    u0_field: ScalarField,
    table: CorrectorTable,
    eps: float,
    axes,
) -> np.ndarray:
    """Pointwise gradient of the first-order reconstruction u0 + eps*u1 on the
    tensor lattice of the per-axis coordinates ``axes``, first axis slowest
    (such as :func:`~twoscale.analysis.interior_element_centers`), (K, dim).

    Evaluated from the chain rule rather than by differencing nodal values:
    the fast derivative of the correctors is recovered on the periodic cell,
    their parameter derivatives are the table's tangent stacks, and the
    macro derivatives come from the finite-difference recovery, so no O(h)
    interpolant kinks or difference-quotient consistency errors of the
    oscillating layer leak into gradient-level error measurements.

        grad_k = d_k u0 + dN_l/dy_k d_l u0
               + eps * [ (dN_l/du d_k u0 + dN_l/dx_k) d_l u0 + N_l d2_kl u0 ]
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    dim = u0_field.grid.dim
    fast_axes = [np.mod(a / eps, 1.0) for a in axes]
    u0_at, g, h = _macro_fields_on(u0_field, axes)

    out = g.copy()
    for l in range(dim):
        name = f"first_{l}"
        dn_dy, tangents = table.gradient_stack(name), table.tangents[name]
        stacks = [table.fields[name], tangents[0]]
        stacks += [dn_dy[:, :, k] for k in range(dim)]
        stacks += [tangents[1 + k] for k in range(dim)]
        n_l, dn_du, *rest = table.interp_stacks(stacks, u0_at, axes, fast_axes)
        dy, dx = rest[:dim], rest[dim:]
        for k in range(dim):
            out[:, k] += dy[k] * g[:, l]
            out[:, k] += eps * ((dn_du * g[:, k] + dx[k]) * g[:, l] + n_l * h[:, k, l])
    return out


def check_fine_dofs(fine_grid: MacroGrid, max_dofs: int):
    """Refuse a fine grid of more than ``max_dofs`` nodes."""
    if fine_grid.ndof > max_dofs:
        raise ConfigurationError(
            f"fine grid has {fine_grid.ndof} DOFs > cap {max_dofs}; "
            "reduce cells_per_period or use larger eps"
        )


def solve_fine(model, eps: float, fine_grid: MacroGrid, max_dofs: int = MAX_FINE_DOFS, initial=None):
    """Resolved reference solve with oscillating data a(u, x, x/eps).

    One solve from :func:`period_samples` for data of y alone, against one
    period of the stencil (:func:`~twoscale.fem.period_stiffness`), from
    which every multigrid level is built; else Newton as in the homogenized
    solve, from the nodal ``initial`` values when given; both
    use the model's rule, as the study does.  Refuses fine grids beyond
    ``max_dofs`` (:func:`check_fine_dofs`).
    """
    cells_per_period(fine_grid, eps)
    check_fine_dofs(fine_grid, max_dofs)

    quad = gauss_rule(model.solve_points, fine_grid.dim)
    samples = period_samples(model, eps, fine_grid, quad, model.eval_a, model.eval_f)
    if samples is not None:  # one linear solve, from one period of the stencil
        values = solve_dirichlet(period_stiffness(fine_grid, samples[0], quad),
                                 assemble_load_from_samples(fine_grid, quad, samples[1]),
                                 fine_grid)
        return ScalarField(fine_grid, values), PicardResult(1, [0.0])

    def data(u, pts):  # y formed once per read
        y = np.mod(pts / eps, 1.0)
        return (model.eval_a(u, pts, y), model.eval_da_du(u, pts, y),
                model.eval_f(u, pts, y), model.eval_df_du(u, pts, y))

    values, result = solve_nonlinear(model, fine_grid, data, initial)
    return ScalarField(fine_grid, values), result


def remainder(u_eps: ScalarField, expansion: ExpansionField) -> ScalarField:
    """The nodal remainder u_eps - (u0 + eps u1 + eps^2 u2) on the fine grid.

    On the boundary the resolved solution vanishes, so there the remainder
    is minus the reconstruction -- an O(eps) trace by construction.
    """
    if u_eps.grid != expansion.fine_grid:
        raise ValueError("remainder requires matching fine grids")
    return ScalarField(u_eps.grid, u_eps.values - expansion.truncated(2))
