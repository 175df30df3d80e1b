import numpy as np
import pytest

from twoscale.cell_problems import (
    CorrectorTable,
    ParameterGrid,
    build_corrector_tables,
    corrector_field_names,
    default_parameter_grid,
)
from twoscale.coefficients import (
    ConstantCoefficient,
    RosselandCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
)
from twoscale.errors import ConfigurationError
from twoscale.expansion import (
    ExpansionField,
    fast_coordinates,
    fine_grid_for,
    reconstruct,
    reconstruction_gradient,
    remainder,
    solve_fine,
)
from twoscale.fem import (
    SolverOptions,
    assemble_load,
    assemble_stiffness,
    element_quad_points,
    gauss_rule,
    solve_dirichlet,
)
from twoscale.grids import (
    CellGrid,
    MacroGrid,
    ScalarField,
    fd_gradient,
    fd_hessian,
    grid_corners,
    interpolate_values,
)
from twoscale.macro import PicardOptions, solve_homogenized


def tables_for(model, m_c=64):
    grid = CellGrid(model.dim, m_c)
    return build_corrector_tables(model, default_parameter_grid(model), grid)


def test_fine_grid_construction_and_fast_coordinates():
    grid = fine_grid_for(0.125, 16, 1)
    assert grid.cells_per_side == 128
    y = fast_coordinates(grid, 0.125)
    idx = np.arange(grid.nodes_per_side)
    assert np.array_equal(y[:, 0], (idx % 16) / 16.0)


def test_fine_grid_rejects_bad_eps():
    with pytest.raises(ConfigurationError):
        fine_grid_for(0.3, 16, 1)
    with pytest.raises(ConfigurationError):
        fine_grid_for(0.125, 4, 1)  # under-resolved period


def test_reconstruct_constant_model_collapses_to_u0():
    model = ConstantCoefficient(1, matrix=[[2.0]], source=SourceModel(base=1.0))
    table, tensors = tables_for(model, m_c=16)
    macro = MacroGrid(1, 16)
    u0, _ = solve_homogenized(tensors, model, macro)
    fine = fine_grid_for(0.125, 8, 1)
    exp = reconstruct(u0, table, 0.125, fine)
    assert np.max(np.abs(exp.u1)) < 1e-12
    assert np.max(np.abs(exp.u2)) < 1e-12
    for order in (0, 1, 2):
        assert np.array_equal(exp.truncated(order), exp.u0)


def test_reconstruct_first_layer_against_closed_forms():
    # u1(x) = N(x/eps) u0'(x) with u0 = x(1-x)/(2 sqrt(3)) and N from the
    # dense 1-D corrector oracle
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    table, tensors = tables_for(model, m_c=64)
    macro = MacroGrid(1, 64)
    u0, _ = solve_homogenized(tensors, model, macro)
    eps = 0.125
    fine = fine_grid_for(eps, 16, 1)
    exp = reconstruct(u0, table, eps, fine)

    y_dense = np.linspace(0.0, 1.0, 1 << 16 + 1)
    a = 2.0 + np.sin(2.0 * np.pi * y_dense)
    a0 = 1.0 / np.trapezoid(1.0 / a, y_dense)
    nprime = a0 / a - 1.0
    n_dense = np.concatenate(
        [[0.0], np.cumsum(0.5 * (nprime[1:] + nprime[:-1]) * np.diff(y_dense))]
    )
    n_dense -= np.trapezoid(n_dense, y_dense)

    x = fine.node_coords()[:, 0]
    u1_exact = np.interp(np.mod(x / eps, 1.0), y_dense, n_dense) * (1.0 - 2.0 * x) / (
        2.0 * np.sqrt(3.0)
    )
    assert np.max(np.abs(exp.u1 - u1_exact)) < 5e-4

    # stationary point of u0 at the domain center kills the first layer
    center = np.nonzero(x == 0.5)[0][0]
    assert abs(exp.u1[center]) < 1e-12


def test_reconstruct_linear_in_macro_gradient():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    table, _ = tables_for(model, m_c=32)
    macro = MacroGrid(1, 16)
    fine = fine_grid_for(0.25, 8, 1)
    x = macro.node_coords()[:, 0]
    one = reconstruct(ScalarField(macro, 0.3 * x), table, 0.25, fine)
    two = reconstruct(ScalarField(macro, 0.6 * x), table, 0.25, fine)
    assert np.max(np.abs(two.u1 - 2.0 * one.u1)) < 1e-12


def per_stack_reconstruction_gradient(u0_field, table, eps, points):
    """reconstruction_gradient with every table stack interpolated alone."""
    grid, dim = u0_field.grid, u0_field.grid.dim
    y = np.mod(points / eps, 1.0)

    def at(values):
        return interpolate_values(grid, values, points)

    u0_at = at(u0_field.values)
    grad_nodal, hess_nodal = fd_gradient(u0_field), fd_hessian(u0_field)
    g = np.stack([at(grad_nodal[:, d]) for d in range(dim)], axis=-1)

    def stack_at(stack):
        return table.interp_stacks([stack], u0_at, points, y)[0]

    out = g.copy()
    for l in range(dim):
        name = f"first_{l}"
        n_l = stack_at(table.fields[name])
        dn_du = stack_at(table.tangents[name][0])
        for k in range(dim):
            dy_k = stack_at(table.gradient_stack(name)[:, :, k])
            dx_k = stack_at(table.tangents[name][1 + k])
            out[:, k] += dy_k * g[:, l]
            out[:, k] += eps * (
                (dn_du * g[:, k] + dx_k) * g[:, l] + n_l * at(hess_nodal[:, k, l])
            )
    return out


def test_reconstruction_gradient_matches_per_stack_reference():
    # seeded random first correctors and tangent stacks on a 3x3x3 (u, x1, x2)
    # lattice, so every parameter-derivative stack is far from zero (the
    # correctors of the shipped x-dependent family, SEPARATED, do not depend
    # on u or x)
    rng = np.random.default_rng(5)
    cell = CellGrid(2, 8)
    axis = np.linspace(0.0, 1.0, 3)
    pgrid = ParameterGrid(axis, (axis, axis))
    names = [f"first_{l}" for l in range(2)]
    table = CorrectorTable(
        cell_grid=cell,
        param_grid=pgrid,
        fields={name: rng.standard_normal((pgrid.size, cell.ndof)) for name in names},
        tangents={name: rng.standard_normal((3, pgrid.size, cell.ndof)) for name in names},
    )
    for l in range(2):
        for ax in range(3):
            assert np.abs(table.tangents[f"first_{l}"][ax]).max() > 0.1

    macro = MacroGrid(2, 8)
    x = macro.node_coords()
    u0 = ScalarField(macro, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.1 * x[:, 0])
    points = rng.uniform(0.05, 0.95, size=(40, 2))
    got = reconstruction_gradient(u0, table, 0.25, points)
    assert np.array_equal(got, per_stack_reconstruction_gradient(u0, table, 0.25, points))


def test_truncation_order_validation():
    fine = fine_grid_for(0.25, 8, 1)
    z = np.zeros(fine.ndof)
    with pytest.raises(ValueError):
        ExpansionField(eps=0.25, fine_grid=fine, order=3, u0=z, u1=z, u2=z)


def test_solve_fine_constant_coefficient_closed_form():
    model = ConstantCoefficient(1, matrix=[[2.0]], source=SourceModel(base=1.0))
    fine = fine_grid_for(0.125, 8, 1)
    u_eps, result = solve_fine(model, 0.125, fine)
    assert result.iterations == 1  # u-independent model
    x = fine.node_coords()[:, 0]
    assert np.max(np.abs(u_eps.values - x * (1.0 - x) / 4.0)) < 1e-9


def test_solve_fine_eps_independent_model():
    model = ConstantCoefficient(1, matrix=[[1.5]], source=SourceModel(base=1.0))
    coarse = fine_grid_for(0.25, 8, 1)
    finer = fine_grid_for(0.125, 8, 1)
    u_a, _ = solve_fine(model, 0.25, coarse)
    u_b, _ = solve_fine(model, 0.125, finer)
    # common nodes: every other node of the finer grid
    assert np.max(np.abs(u_b.values[::2] - u_a.values)) < 1e-9


def test_solve_fine_oscillating_against_quadrature_oracle():
    # a_eps(x) = 2 + sin(2 pi x / eps), f = 1: a u' = C - x integrates to a
    # closed form fixed by u(0) = u(1) = 0
    eps = 0.125
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)

    t = np.linspace(0.0, 1.0, (1 << 17) + 1)
    a_eps = 2.0 + np.sin(2.0 * np.pi * t / eps)
    c = np.trapezoid(t / a_eps, t) / np.trapezoid(1.0 / a_eps, t)
    integrand = (c - t) / a_eps
    u_dense = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))]
    )
    assert abs(u_dense[-1]) < 1e-10  # oracle satisfies the far boundary condition

    errs = {}
    for periods in (16, 32):
        fine = fine_grid_for(eps, periods, 1)
        u_eps, _ = solve_fine(model, eps, fine)
        x = fine.node_coords()[:, 0]
        errs[periods] = np.max(np.abs(u_eps.values - np.interp(x, t, u_dense)))
    assert errs[16] < 4e-4
    assert errs[32] < 0.3 * errs[16]  # second-order nodal convergence


def test_solve_fine_dof_guard():
    model = ConstantCoefficient(1, matrix=[[1.0]])
    fine = fine_grid_for(0.125, 16, 1)
    with pytest.raises(ConfigurationError, match="cap"):
        solve_fine(model, 0.125, fine, max_dofs=64)


def test_remainder_identities():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    table, tensors = tables_for(model, m_c=32)
    macro = MacroGrid(1, 32)
    u0, _ = solve_homogenized(tensors, model, macro)
    eps = 0.125
    fine = fine_grid_for(eps, 8, 1)
    u_eps, _ = solve_fine(model, eps, fine)
    exp = reconstruct(u0, table, eps, fine)
    rem = remainder(u_eps, exp)

    # remainder plus reconstruction reproduces the resolved solution bitwise
    assert np.array_equal(rem.values + exp.tilde, u_eps.values)

    # trivial remainder when the expansion is the solution itself
    self_exp = ExpansionField(
        eps=eps, fine_grid=fine, order=0,
        u0=u_eps.values.copy(), u1=np.zeros(fine.ndof), u2=np.zeros(fine.ndof),
    )
    assert np.max(np.abs(remainder(u_eps, self_exp).values)) == 0.0

    # boundary trace bounded by the reconstruction layers
    bound = eps * np.max(np.abs(exp.u1)) + eps**2 * np.max(np.abs(exp.u2))
    assert rem.boundary_trace_max <= bound + 1e-15


def test_order_monotonicity_at_small_eps():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    table, tensors = tables_for(model, m_c=128)
    macro = MacroGrid(1, 64)
    u0, _ = solve_homogenized(tensors, model, macro)
    eps = 1.0 / 32.0
    fine = fine_grid_for(eps, 16, 1)
    u_eps, _ = solve_fine(model, eps, fine)
    exp = reconstruct(u0, table, eps, fine)
    errs = [
        np.max(np.abs(u_eps.values - exp.truncated(order))) for order in (0, 1, 2)
    ]
    # soft ordering: the boundary layer is O(eps) for both corrected orders,
    # so the second-order layer is only required not to make things worse
    assert errs[1] <= errs[0]
    assert errs[2] <= 1.05 * errs[1]


def test_u_independent_fine_solve_assembles_once(monkeypatch):
    import twoscale.expansion as expansion
    import twoscale.macro as macro

    calls = []
    original = macro.assemble_stiffness

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (macro, expansion):  # the Newton start, the one-period solve
        monkeypatch.setattr(module, "assemble_stiffness", counting)
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    u_eps, result = solve_fine(model, 0.125, fine_grid_for(0.125, 16, 1))
    assert len(calls) == 1
    assert result.converged and result.iterations == 1
    assert result.increments == [0.0]


def test_u_dependent_2d_fine_solve_matches_point_location_reference():
    # the 2-D Newton solve (GMRES steps, a u-dependent source) against the
    # same discrete problem with every quadrature point located in the grid:
    # its residual, and a plain frozen-coefficient fixed-point loop with
    # direct solves, run to 1e-14
    import scipy.sparse.linalg as spla

    eps = 0.25
    model = RosselandCoefficient(
        2, b=1.0, u_range=(0.0, 1.0), source=SourceModel(base=1.0, u_coeff=0.5)
    )
    fine = fine_grid_for(eps, 8, 2)
    quad = gauss_rule(3, 2)
    u_eps, result = solve_fine(model, eps, fine, PicardOptions(), quad, SolverOptions())
    assert result.converged and 1 < result.iterations <= 8

    free = fine.interior_dofs()

    def frozen_system(u_values):
        def u_at(pts):
            return interpolate_values(fine, u_values, pts)

        mat = assemble_stiffness(
            fine, lambda pts: model.eval_a(u_at(pts), pts, np.mod(pts / eps, 1.0)), quad
        )
        rhs = assemble_load(
            fine, quad,
            scalar_fn=lambda pts: model.eval_f(u_at(pts), pts, np.mod(pts / eps, 1.0)),
        )
        return mat, rhs

    mat, rhs = frozen_system(u_eps.values)
    residual = (mat @ u_eps.values - rhs)[free]
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs[free])

    ref = np.zeros(fine.ndof)
    for _ in range(200):
        mat, rhs = frozen_system(ref)
        update = np.zeros(fine.ndof)
        update[free] = spla.spsolve(mat[free][:, free].tocsc(), rhs[free]) - ref[free]
        ref += update
        if np.max(np.abs(update)) <= 1e-14:
            break
    else:
        pytest.fail("the fixed-point loop did not reach 1e-14")
    assert np.max(np.abs(u_eps.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def four_corner_blend(table, stacks, u, x, y):
    """The table read over every cell corner, zero weights included."""
    ids, wts = grid_corners(table.cell_grid, y)
    pids, pwts = table.param_grid.corners(u, x)
    out = [np.zeros(len(ids)) for _ in stacks]
    for p in range(pids.shape[1]):
        for total, stack in zip(out, stacks):
            acc = np.zeros(len(ids))
            for c in range(ids.shape[1]):
                acc += wts[:, c] * stack[pids[:, p], ids[:, c]]
            total += pwts[:, p] * acc
    return out


@pytest.fixture(scope="module")
def rosseland_table_2d():
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    return build_corrector_tables(model, default_parameter_grid(model, n_u=3), CellGrid(2, 16))[0]


@pytest.mark.parametrize("periods, at, on_lattice", [
    (8, "nodes", True), (16, "nodes", True), (8, "centers", True),
    (32, "nodes", False), (16, "centers", False),
])
def test_on_lattice_corrector_reads_are_the_four_corner_blend(rosseland_table_2d, periods, at,
                                                              on_lattice):
    # fine nodes with cells_per_period <= m_c = 16, and element centers with
    # 2 cells_per_period <= m_c, fall on the cell lattice and read one corner
    table, eps = rosseland_table_2d, 0.25
    fine = fine_grid_for(eps, periods, 2)
    if at == "nodes":
        x, y = fine.node_coords(), fast_coordinates(fine, eps)
    else:
        x = element_quad_points(fine, gauss_rule(1, 2))[:, 0]
        y = np.mod(x / eps, 1.0)
    u = 0.5 + 0.3 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    live = np.any(grid_corners(table.cell_grid, y)[1] != 0.0, axis=0)
    assert np.count_nonzero(live) == (1 if on_lattice else 4)
    stacks = [table.fields[name] for name in corrector_field_names(2)]
    got = table.interp_stacks(stacks, u, x, y)
    for g, want in zip(got, four_corner_blend(table, stacks, u, x, y)):
        assert np.array_equal(g, want)
