import tracemalloc
from collections import Counter
from pathlib import Path

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
    SeparatedCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
)
from twoscale.cli import build_setup
from twoscale.config import load_config
from twoscale.errors import ConfigurationError
from twoscale.expansion import (
    ExpansionField,
    fast_coordinates,
    fine_grid_for,
    period_samples,
    reconstruct,
    reconstruction_gradient,
    remainder,
    solve_fine,
)
from twoscale.fem import (
    _csr,
    assemble_load,
    assemble_load_from_samples,
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
    lattice_points,
)
from twoscale.macro import solve_homogenized


def tables_for(model, m_c=64):
    grid = CellGrid(model.dim, m_c)
    return build_corrector_tables(model, default_parameter_grid(model), grid)


def test_fine_grid_construction_and_fast_coordinates():
    grid = fine_grid_for(0.125, 16, 1)
    assert grid.cells_per_side == 128
    y = fast_coordinates(grid, 0.125)
    idx = np.arange(grid.nodes_per_side)
    assert np.array_equal(y[0], (idx % 16) / 16.0)


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

    x = lattice_points(fine.axes())[:, 0]
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
    x = lattice_points(macro.axes())[:, 0]
    one = reconstruct(ScalarField(macro, 0.3 * x), table, 0.25, fine)
    two = reconstruct(ScalarField(macro, 0.6 * x), table, 0.25, fine)
    assert np.max(np.abs(two.u1 - 2.0 * one.u1)) < 1e-12


def per_stack_reconstruction_gradient(u0_field, table, eps, points):
    """reconstruction_gradient with every value located point by point and
    every table stack interpolated alone."""
    grid, dim = u0_field.grid, u0_field.grid.dim
    y = np.mod(points / eps, 1.0)

    def at(values):
        return interpolate_values(grid, values, points)

    u0_at = at(u0_field.values)
    grad_nodal, hess_nodal = fd_gradient(u0_field), fd_hessian(u0_field)
    g = np.stack([at(grad_nodal[:, d]) for d in range(dim)], axis=-1)

    def stack_at(stack):
        return four_corner_blend(table, [stack], u0_at, points, y)[0]

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


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_reconstruction_gradient_matches_per_stack_reference():
    # seeded random first correctors and tangent stacks on a 3x3x3 (u, x1, x2)
    # lattice, so every parameter-derivative stack is far from zero (the
    # correctors of the shipped x-dependent family, SEPARATED, do not depend
    # on u or x), read on the tensor product of random per-axis points
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
    x = lattice_points(macro.axes())
    u0 = ScalarField(macro, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) + 0.1 * x[:, 0])
    axes = [np.sort(rng.uniform(0.05, 0.95, size=n)) for n in (7, 6)]
    got = reconstruction_gradient(u0, table, 0.25, axes)
    want = per_stack_reconstruction_gradient(u0, table, 0.25, lattice_points(axes))
    assert bits(got) == bits(want)


def test_truncation_order_validation():
    fine = fine_grid_for(0.25, 8, 1)
    z = np.zeros(fine.ndof)
    exp = ExpansionField(eps=0.25, fine_grid=fine, u0=z, u1=z, u2=z)
    for order in (-1, 3):
        with pytest.raises(ValueError):
            exp.truncated(order)


def test_solve_fine_constant_coefficient_closed_form():
    model = ConstantCoefficient(1, matrix=[[2.0]], source=SourceModel(base=1.0))
    fine = fine_grid_for(0.125, 8, 1)
    u_eps, result = solve_fine(model, 0.125, fine)
    assert result.iterations == 1  # u-independent model
    x = lattice_points(fine.axes())[:, 0]
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
        x = lattice_points(fine.axes())[:, 0]
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
    assert isinstance(rem, ScalarField) and rem.grid == fine

    # remainder plus the second-order reconstruction reproduces the resolved
    # solution bitwise
    assert np.array_equal(rem.values + exp.truncated(2), u_eps.values)

    # trivial remainder when the expansion is the solution itself
    self_exp = ExpansionField(
        eps=eps, fine_grid=fine,
        u0=u_eps.values.copy(), u1=np.zeros(fine.ndof), u2=np.zeros(fine.ndof),
    )
    assert np.max(np.abs(remainder(u_eps, self_exp).values)) == 0.0

    # boundary trace bounded by the reconstruction layers
    bound = eps * np.max(np.abs(exp.u1)) + eps**2 * np.max(np.abs(exp.u2))
    assert np.max(np.abs(rem.values[fine.boundary_dofs()])) <= bound + 1e-15


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
    import twoscale.fem as fem
    import twoscale.macro as macro

    calls = []
    original = macro.assemble_stiffness

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # the Newton start, and the one-period solve through fem.period_stiffness
    for module in (macro, fem):
        monkeypatch.setattr(module, "assemble_stiffness", counting)
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    u_eps, result = solve_fine(model, 0.125, fine_grid_for(0.125, 16, 1))
    assert len(calls) == 1
    assert result.iterations == 1
    assert result.increments == [0.0]


def test_frozen_fine_start_reads_the_data_once_per_point(monkeypatch):
    # an x-dependent, u-independent fine solve is the frozen-midpoint start
    # alone: its stiffness pass reads each quadrature point once, and its
    # load takes f from those reads, the field unchanged bit for bit
    model = SeparatedCoefficient(2, mu_u2=0.0, mu_x=0.5)
    eps = 0.25
    fine = fine_grid_for(eps, 8, 2)
    quad = gauss_rule(model.solve_points, 2)
    u_mid = np.full(1, 0.5 * (model.u_lo + model.u_hi))

    def frozen(method):
        return lambda pts: method(np.repeat(u_mid, len(pts)), pts, np.mod(pts / eps, 1.0))

    ref = solve_dirichlet(assemble_stiffness(fine, frozen(model.eval_a), quad),
                          assemble_load(fine, quad, scalar_fn=frozen(model.eval_f)), fine)
    points = Counter()
    for name in ("eval_a", "eval_da_du", "eval_f", "eval_df_du"):
        def counting(u, x, y, name=name, method=getattr(model, name)):
            points[name] += len(x)
            return method(u, x, y)

        monkeypatch.setattr(model, name, counting)
    u_eps, result = solve_fine(model, eps, fine)
    n_reads = fine.n_elements * len(quad.weights)
    assert points == dict.fromkeys(("eval_a", "eval_da_du", "eval_f", "eval_df_du"), n_reads)
    assert result.iterations == 1
    assert u_eps.values.tobytes() == ref.tobytes()


def test_fine_solve_working_set_stays_under_its_bound():
    # smooth 2-D at eps 1/16, 16 cells per period: 66,049 DOFs.  The
    # tracemalloc peak read 12.97 MiB with the stencil assembled and every
    # multigrid level built from one period, against 14.2 MiB with the box
    # stencil and its levels, and 20.6 MiB with CSR levels and tiled
    # element-row chunks; the bound leaves 1.5 MiB (12%) of margin
    config = Path(__file__).resolve().parents[1] / "docs" / "examples" / "smooth_periodic_2d.json"
    model = build_setup(load_config(str(config))).model
    eps = 1.0 / 16
    fine = fine_grid_for(eps, 16, 2)
    assert fine.ndof == 66_049
    tracemalloc.start()
    try:
        solve_fine(model, eps, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("dim, eps, periods", [
    (2, 1 / 4, 16), (2, 1 / 8, 16), (2, 1 / 16, 16), (2, 1 / 3, 10), (2, 1 / 67, 8), (1, 1 / 8, 16)])
def test_one_period_fine_solve_is_the_box_stencil_solve_bitwise(dim, eps, periods):
    # the fine solve of data of y alone, from one period of the stencil,
    # against the solve of the box stencil assembled from the same samples:
    # the benchmark's three grids, odd coarse periods (10 halves to 5), the
    # odd 67-cell coarsest level, and 1-D
    model = build_setup(load_config(str(
        Path(__file__).resolve().parents[1] / "docs" / "examples"
        / f"smooth_periodic_{dim}d.json"))).model
    fine = fine_grid_for(eps, periods, dim)
    quad = gauss_rule(model.solve_points, dim)
    a, f = period_samples(model, eps, fine, quad, model.eval_a, model.eval_f)
    want = solve_dirichlet(assemble_stiffness(fine, a, quad),
                           assemble_load_from_samples(fine, quad, f), fine)
    assert solve_fine(model, eps, fine)[0].values.tobytes() == want.tobytes()


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
    quad = gauss_rule(model.solve_points, 2)
    assert len(quad.weights) == 9  # the study's rule for a u-dependent 2-D Rosseland model
    u_eps, result = solve_fine(model, eps, fine)
    assert 1 < result.iterations <= 8

    free = fine.interior_dofs()

    def frozen_system(u_values):
        def u_at(pts):
            return interpolate_values(fine, u_values, pts)

        mat = _csr(assemble_stiffness(
            fine, lambda pts: model.eval_a(u_at(pts), pts, np.mod(pts / eps, 1.0)), quad
        ))
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
    """The table read point by point over every cell corner, zero weights included."""
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


def per_point_reconstruct(u0_field, table, eps, fine):
    """reconstruct with every fine node located alone on the macro grid, the
    cell grid and the parameter lattice."""
    dim = fine.dim
    x, y = lattice_points(fine.axes()), lattice_points(fast_coordinates(fine, eps))
    ids, wts = grid_corners(u0_field.grid, x)

    def at(nodal):
        return np.sum(nodal[ids] * wts, axis=1)

    u0 = at(u0_field.values)
    grad_nodal, hess_nodal = fd_gradient(u0_field), fd_hessian(u0_field)
    grad = np.stack([at(grad_nodal[:, d]) for d in range(dim)], axis=-1)
    names = corrector_field_names(dim)
    vals = dict(zip(names, four_corner_blend(table, [table.fields[n] for n in names], u0, x, y)))
    u1 = np.zeros_like(u0)
    for m in range(dim):
        u1 += vals[f"first_{m}"] * grad[:, m]
    u2 = vals["source"].copy()
    for k in range(dim):
        for l in range(k, dim):
            u2 += (1.0 if k == l else 2.0) * vals[f"hess_{k}{l}"] * at(hess_nodal[:, k, l])
    for k in range(dim):
        slow_k = vals[f"slow0_{k}"].copy()
        for m in range(dim):
            slow_k += vals[f"slowg_{k}{m}"] * grad[:, m]
        u2 += slow_k * grad[:, k]
    return u0, u1, u2


@pytest.fixture(scope="module")
def rosseland_table_2d():
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    return build_corrector_tables(model, default_parameter_grid(model, n_u=3), CellGrid(2, 16))[0]


@pytest.fixture(scope="module")
def one_sample_table_2d():
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0,
                                      source=SourceModel(base=1.0, amplitude=0.5, frequency=2))
    return build_corrector_tables(model, default_parameter_grid(model), CellGrid(2, 16))[0]


LATTICE_CASES = [
    (8, "nodes", True), (16, "nodes", True), (8, "centers", True),
    (32, "nodes", False), (16, "centers", False),
]


def lattice_case(periods, at, eps=0.25):
    """The fine grid, and the per-axis coordinates x and y = x / eps mod 1 of
    its nodes or element centers."""
    fine = fine_grid_for(eps, periods, 2)
    if at == "nodes":
        return fine, fine.axes(), fast_coordinates(fine, eps)
    axis = np.arange(fine.cells_per_side) * fine.spacing + 0.5 * fine.spacing
    return fine, [axis, axis], [np.mod(axis / eps, 1.0)] * 2


@pytest.mark.parametrize("which", ["rosseland_table_2d", "one_sample_table_2d"])
@pytest.mark.parametrize("periods, at, on_lattice", LATTICE_CASES)
def test_on_lattice_corrector_reads_are_the_four_corner_blend(request, which, periods, at,
                                                              on_lattice):
    # fine nodes with cells_per_period <= m_c = 16, and element centers with
    # 2 cells_per_period <= m_c, fall on the cell lattice and read one corner;
    # the lattice read is the point-by-point read of every point, bit for bit
    table, eps = request.getfixturevalue(which), 0.25
    fine, axes, fast_axes = lattice_case(periods, at, eps)
    x, y = lattice_points(axes), lattice_points(fast_axes)
    if at == "centers":
        assert bits(x) == bits(element_quad_points(fine, gauss_rule(1, 2))[:, 0])
        assert bits(y) == bits(np.mod(x / eps, 1.0))
    u = 0.5 + 0.3 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    live = np.any(grid_corners(table.cell_grid, y)[1] != 0.0, axis=0)
    assert np.count_nonzero(live) == (1 if on_lattice else 4)
    stacks = [table.fields[name] for name in corrector_field_names(2)]
    got = table.interp_stacks(stacks, u, axes, fast_axes)
    for g, want in zip(got, four_corner_blend(table, stacks, u, x, y)):
        assert bits(g) == bits(want)


@pytest.mark.parametrize("which", ["rosseland_table_2d", "one_sample_table_2d"])
@pytest.mark.parametrize("periods", [8, 16, 32])
@pytest.mark.parametrize("bump", [0.6, -0.0])
def test_lattice_reconstruction_is_the_per_point_reconstruction(request, which, periods, bump):
    # reconstruct at the fine nodes and the chain-rule gradient at the element
    # centers bracket each axis once; every value is the per-point read's
    # bits, the sign of a zero included (a field of -0.0 reads +0.0)
    table, eps = request.getfixturevalue(which), 0.25
    macro = MacroGrid(2, 16)
    xm = lattice_points(macro.axes())
    values = bump * np.sin(np.pi * xm[:, 0]) * np.sin(np.pi * xm[:, 1])
    u0 = ScalarField(macro, values if bump == 0.0 else 0.2 + values - 0.1 * xm[:, 1])
    fine, _, _ = lattice_case(periods, "nodes", eps)
    exp = reconstruct(u0, table, eps, fine)
    for got, want in zip((exp.u0, exp.u1, exp.u2), per_point_reconstruct(u0, table, eps, fine)):
        assert bits(got) == bits(want)
    _, axes, _ = lattice_case(periods, "centers", eps)
    got = reconstruction_gradient(u0, table, eps, axes)
    want = per_stack_reconstruction_gradient(u0, table, eps, lattice_points(axes))
    assert bits(got) == bits(want)


def test_rosseland_newton_linearize_working_set_stays_under_its_bound(monkeypatch):
    # a u-dependent 2-D ROSSELAND fine solve (the CI Rosseland overrides) at
    # eps 1/8, 16 cells per period: 16,641 DOFs, six Newton steps with the
    # 3-point rule.  Each read written straight into the Jacobian rows and
    # the residual samples, the tracemalloc peak of every linearize call read
    # 19.5-19.9 MiB, against 40.3-40.7 MiB with every read held in a list,
    # stacked and concatenated; the bound leaves 2.4 MiB (12%) of margin
    config = Path(__file__).resolve().parents[1] / "docs" / "examples" / "smooth_periodic_2d.json"
    model = build_setup(load_config(str(config), overrides=[
        'problem.coefficient={"family":"ROSSELAND","k_base":2.0,"k_amplitude":1.0,"b":1.0}',
        'problem.source={"family":"CONSTANT","value":20.0}',
        'problem.u_range=[0.0,2.0]'])).model
    eps = 1.0 / 8
    fine = fine_grid_for(eps, 16, 2)
    assert fine.ndof == 16_641 and model.solve_points == 3
    from twoscale import macro

    peaks, linearize = [], macro.linearize

    def traced(*args):
        tracemalloc.reset_peak()
        out = linearize(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(macro, "linearize", traced)
    tracemalloc.start()
    try:
        _, result = solve_fine(model, eps, fine)
    finally:
        tracemalloc.stop()
    assert result.iterations > 1 and len(peaks) >= result.iterations
    assert max(peaks) < 22.3 * 2**20, max(peaks) / 2**20


def test_u0_derivatives_are_formed_once_per_study(monkeypatch):
    # every eps's reconstruction and chain-rule gradient reads u0's one
    # recovered gradient and Hessian
    from twoscale import grids

    model = RosselandCoefficient(1, b=1.0, u_range=(0.0, 2.0), source=SourceModel(base=4.0))
    table, tensors = build_corrector_tables(model, default_parameter_grid(model, n_u=5),
                                            CellGrid(1, 16))
    u0, _ = solve_homogenized(tensors, model, MacroGrid(1, 16))
    calls = []
    original = grids.np.gradient
    monkeypatch.setattr(grids.np, "gradient", lambda *a, **k: calls.append(1) or original(*a, **k))
    for eps in (1 / 4, 1 / 8, 1 / 16):
        fine = fine_grid_for(eps, 8, 1)
        reconstruct(u0, table, eps, fine)
        reconstruction_gradient(u0, table, eps, fine.axes())
    assert len(calls) == 1  # one axis, once
    assert fd_gradient(u0) is fd_gradient(u0) and not fd_hessian(u0).flags.writeable
