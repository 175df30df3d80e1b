import numpy as np
import pytest

from twoscale.cell_problems import (
    CellSample,
    EffectiveTensorTable,
    ParameterGrid,
    build_corrector_tables,
    default_parameter_grid,
)
from twoscale.coefficients import (
    ConstantCoefficient,
    RosselandCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
)
from twoscale.errors import NonConvergenceError
from twoscale.fem import (_csr, assemble_load, assemble_stiffness, default_quadrature,
                          gauss_rule, solve_dirichlet)
from twoscale.grids import CellGrid, MacroGrid, interpolate_values, lattice_points
from twoscale.macro import solve_homogenized


def constant_tensor_table(value, source_mean=1.0, dim=1):
    pgrid = ParameterGrid(np.array([0.5]), tuple(np.array([0.5]) for _ in range(dim)))
    mat = np.eye(dim) * value
    return EffectiveTensorTable(
        param_grid=pgrid,
        values=mat[None, :, :],
        source_means=np.array([float(source_mean)]),
    )


def test_linear_problem_converges_in_one_iteration():
    table = constant_tensor_table(2.0)
    model = ConstantCoefficient(1, matrix=[[2.0]], source=SourceModel(base=1.0))
    grid = MacroGrid(1, 16)
    u0, result = solve_homogenized(table, model, grid)
    assert result.iterations == 1


def test_homogenized_1d_closed_form():
    # -(sqrt(3) u')' = 1 on (0,1), zero boundary: u = x(1-x)/(2 sqrt(3))
    root3 = np.sqrt(3.0)
    table = constant_tensor_table(root3)
    model = ConstantCoefficient(1, matrix=[[root3]], source=SourceModel(base=1.0))
    grid = MacroGrid(1, 64)
    u0, _ = solve_homogenized(table, model, grid)
    x = lattice_points(grid.axes())[:, 0]
    exact = x * (1.0 - x) / (2.0 * root3)
    assert np.max(np.abs(u0.values - exact)) < 1e-9


def test_rosseland_with_zero_b_matches_linear_run():
    cell = CellGrid(1, 64)
    macro = MacroGrid(1, 16)
    ros = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.0)
    lin = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    out = {}
    for tag, model in (("ros", ros), ("lin", lin)):
        table, tensors = build_corrector_tables(
            model, default_parameter_grid(model), cell
        )
        u0, _ = solve_homogenized(tensors, model, macro)
        out[tag] = u0.values
    assert np.array_equal(out["ros"], out["lin"])


def test_rosseland_nonlinear_picard_converges():
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.1)
    cell = CellGrid(1, 64)
    macro = MacroGrid(1, 32)
    table, tensors = build_corrector_tables(
        model, default_parameter_grid(model), cell
    )
    u0, result = solve_homogenized(tensors, model, macro)
    assert result.final_increment <= 1e-10
    # discrete maximum principle sanity: positive source, zero boundary
    assert u0.values.min() >= -1e-10
    # monotone decreasing increments after the first step
    tail = result.increments[1:]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))


def test_picard_budget_exhaustion_raises_with_history(monkeypatch):
    import twoscale.macro as macro

    # a u-dependent model: a u-independent one is solved by the frozen start
    monkeypatch.setattr(macro, "_MAX_STEPS", 1)
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.1)
    _, tensors = build_corrector_tables(
        model, default_parameter_grid(model), CellGrid(1, 32)
    )
    grid = MacroGrid(1, 16)
    with pytest.raises(NonConvergenceError) as err:
        solve_homogenized(tensors, model, grid)
    assert len(err.value.history) == 1


def test_homogenized_source_values():
    grid = CellGrid(1, 32)

    def source_mean(model, u):
        return CellSample(model, u, [0.5], grid).source_mean

    const = ConstantCoefficient(1, matrix=[[1.0]], source=SourceModel(base=2.5))
    assert source_mean(const, 0.1) == pytest.approx(2.5, abs=1e-12)

    osc = ConstantCoefficient(
        1, matrix=[[1.0]], source=SourceModel(amplitude=1.0, frequency=1)
    )
    assert abs(source_mean(osc, 0.1)) < 1e-10

    mixed = ConstantCoefficient(
        1, matrix=[[1.0]], u_range=(0.0, 4.0),
        source=SourceModel(u_coeff=1.0, amplitude=1.0, frequency=1),
    )
    assert source_mean(mixed, 2.0) == pytest.approx(2.0, abs=1e-10)


def test_manufactured_residual_behaviour():
    # the interior weak residual of the homogenized solution, with the
    # tensor and the source mean frozen at that solution
    table = constant_tensor_table(1.0)
    model = ConstantCoefficient(1, matrix=[[1.0]], source=SourceModel(base=1.0))
    grid = MacroGrid(1, 16)
    quad = default_quadrature(1)
    u0, _ = solve_homogenized(table, model, grid)

    def residual(values):
        def u_at(pts):
            return interpolate_values(grid, values, pts)

        mat = assemble_stiffness(grid, lambda pts: table.interp(u_at(pts), pts), quad)
        rhs = assemble_load(
            grid, quad, scalar_fn=lambda pts: table.newton_data(u_at(pts), pts)[2]
        )
        return float(np.linalg.norm((_csr(mat) @ values - rhs)[grid.interior_dofs()]))

    assert residual(u0.values) < 1e-9
    load = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    expected = np.linalg.norm(load[grid.interior_dofs()])
    assert residual(np.zeros(grid.ndof)) == pytest.approx(expected, rel=1e-12)


def test_range_warning_when_solution_leaves_admissible_interval():
    table = constant_tensor_table(1.0)
    model = ConstantCoefficient(
        1, matrix=[[1.0]], u_range=(0.0, 0.01), source=SourceModel(base=1.0)
    )
    grid = MacroGrid(1, 16)
    with pytest.warns(UserWarning, match="admissible range"):
        solve_homogenized(table, model, grid)


def strong_rosseland_setup(damping=1.0):
    from twoscale.cli import build_setup
    from twoscale.config import load_config

    return build_setup(load_config(base={
        "problem": {
            "dim": 1,
            "coefficient": {"family": "ROSSELAND", "k_base": 2.0,
                            "k_amplitude": 1.0, "b": 1.0},
            "source": {"family": "CONSTANT", "value": 20.0},
            "u_range": [0.0, 2.0],
        },
        "discretization": {"m_x": 64, "m_c": 128, "cells_per_period": 16,
                           "table_u_samples": 9},
        "study": {"eps": ["1/8", "1/16", "1/32"]},
        "nonlinear": {"damping": damping},
    }))


def assert_quadratic(increments, c=10.0, floor=1e-14):
    # below ``floor`` (rounding of states of size ~1) an increment squares no more
    pairs = [(a, b) for a, b in zip(increments, increments[1:]) if a < 1e-2]
    assert len(pairs) >= 2
    for a, b in pairs:
        assert b <= max(c * a * a, floor)


def test_newton_converges_quadratically_on_strong_rosseland():
    # no damping set: the macro and fine solves converge from the
    # frozen-midpoint start, increments squaring once below 1e-2
    from twoscale.cli import tables_and_macro_solution
    from twoscale.expansion import fine_grid_for, solve_fine

    setup = strong_rosseland_setup()
    _, _, u0, macro_result = tables_and_macro_solution(setup)
    # nonlinear.damping still loads, range-checked, and no solve reads it
    _, _, damped, damped_result = tables_and_macro_solution(strong_rosseland_setup(damping=0.5))
    assert np.array_equal(damped.values, u0.values)
    assert damped_result.increments == macro_result.increments
    eps = 0.125
    fine = fine_grid_for(eps, 16, 1)
    args = (setup.model, eps, fine)
    _, fine_result = solve_fine(*args)
    for result in (macro_result, fine_result):
        assert result.iterations <= 8
        assert_quadratic(result.increments)
    # the macro solution at the fine nodes is a closer start
    start = interpolate_values(u0.grid, u0.values, lattice_points(fine.axes()))
    _, warm_result = solve_fine(*args, initial=start)
    assert warm_result.iterations <= 6


def test_newton_solution_is_the_discrete_fixed_point():
    # the Newton state against a residual assembled independently (every
    # quadrature point located in the grid) and against a plain
    # frozen-coefficient fixed-point loop run to 1e-14
    from twoscale.cli import tables_and_macro_solution

    setup = strong_rosseland_setup()
    _, tensors, u0, _ = tables_and_macro_solution(setup)
    grid, quad = setup.macro_grid, gauss_rule(setup.model.solve_points, 1)
    free = grid.interior_dofs()

    def frozen_system(values):
        def u_at(pts):
            return interpolate_values(grid, values, pts)

        mat = assemble_stiffness(grid, lambda pts: tensors.interp(u_at(pts), pts), quad)
        rhs = assemble_load(grid, quad, scalar_fn=lambda pts: tensors.newton_data(u_at(pts), pts)[2])
        return mat, rhs

    mat, rhs = frozen_system(u0.values)
    residual = (_csr(mat) @ u0.values - rhs)[free]
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs[free])

    values, theta = np.zeros(grid.ndof), 0.5
    for _ in range(500):
        update = theta * (solve_dirichlet(*frozen_system(values), grid) - values)
        values = values + update
        if np.max(np.abs(update)) <= 1e-14:
            break
    else:
        pytest.fail("the fixed-point loop did not reach 1e-14")
    scale = np.max(np.abs(values))
    assert np.max(np.abs(u0.values - values)) <= 1e-12 * scale


def test_table_u_derivative_is_exact_and_zero_where_the_blend_clamps():
    # the read is the polynomial through every u sample: a quadratic through
    # 3 samples comes back exactly, and so does its derivative inside the range
    u_samples = np.array([0.0, 0.5, 2.0])
    pgrid = ParameterGrid(u_samples, (np.array([0.5]),))

    def tensor(u):
        return 1.0 + u + u**2

    def source(u):
        return 3.0 - 29 / 6 * u + 5 / 3 * u**2

    table = EffectiveTensorTable(pgrid, tensor(u_samples).reshape(3, 1, 1),
                                 source_means=source(u_samples))
    assert np.allclose(table.source_means, [3.0, 1.0, 0.0], rtol=0, atol=1e-15)
    u = np.array([-0.1, 0.0, 0.25, 0.5, 1.0, 1.7, 2.0, 2.5])
    x = np.full((len(u), 1), 0.5)
    inside = (u >= 0.0) & (u <= 2.0)
    clamped = np.clip(u, 0.0, 2.0)
    a, da_du, f, df_du = table.newton_data(u, x)
    assert np.allclose(table.interp(u, x)[:, 0, 0], tensor(clamped), rtol=0, atol=1e-14)
    assert np.array_equal(a, table.interp(u, x))
    assert np.allclose(f, source(clamped), rtol=0, atol=1e-14)
    assert np.allclose(da_du[:, 0, 0], np.where(inside, 1.0 + 2.0 * u, 0.0), rtol=0, atol=1e-13)
    assert np.allclose(df_du, np.where(inside, -29 / 6 + 10 / 3 * u, 0.0), rtol=0, atol=1e-13)
    # central differences inside the range
    h = 1e-6
    for uu in (0.1, 0.3, 1.2):
        fd = (table.interp(uu + h, [0.5]) - table.interp(uu - h, [0.5])) / (2 * h)
        assert np.allclose(table.newton_data(uu, [0.5])[1], fd, rtol=1e-8)
    one = constant_tensor_table(2.0)
    assert np.array_equal(one.newton_data(u, x)[1], np.zeros((len(u), 1, 1)))


def test_backtracking_shortens_steps_and_refuses_a_non_descent_direction(monkeypatch):
    import twoscale.macro as macro
    from twoscale.cli import tables_and_macro_solution
    from twoscale.macro import solve_nonlinear

    # the strong macro solve halves some steps: more linearizations than the
    # one per step (plus the start's, less the converged step's) a full step takes
    calls = []
    original = macro.linearize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(macro, "linearize", counting)
    _, _, _, result = tables_and_macro_solution(strong_rosseland_setup())
    assert len(calls) > result.iterations

    # a Jacobian with the u-derivative of the wrong sign gives a step along
    # which the residual does not fall
    model = RosselandCoefficient(1, b=1.0, u_range=(0.0, 2.0), source=SourceModel(base=20.0))

    def flipped(u, pts):  # da/du negated
        y = np.mod(8.0 * pts, 1.0)
        return (model.eval_a(u, pts, y), -model.eval_da_du(u, pts, y),
                model.eval_f(u, pts, y), model.eval_df_du(u, pts, y))

    with pytest.raises(NonConvergenceError, match="no residual decrease"):
        solve_nonlinear(model, MacroGrid(1, 32), flipped)


def test_newton_jacobian_is_freed_once_the_finest_level_is_built(monkeypatch):
    # a u-dependent 2-D fine solve of 256 cells per side: the box stencil of
    # each Newton Jacobian is alive while its finest multigrid level is
    # coarsened, and gone before the next level is, as the frozen start's is
    import weakref

    from twoscale import fem, macro
    from twoscale.expansion import fine_grid_for, solve_fine

    jacobians, alive = [], []
    linearize, coarsen = macro.linearize, fem._coarsen

    def tracked_linearize(*args):
        jac, res = linearize(*args)
        jacobians.append(weakref.ref(jac))
        return jac, res

    def tracked_coarsen(*args):
        alive.append(jacobians[-1]() is not None if jacobians else None)
        return coarsen(*args)

    monkeypatch.setattr(macro, "linearize", tracked_linearize)
    monkeypatch.setattr(fem, "_coarsen", tracked_coarsen)
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    fine = fine_grid_for(1 / 16, 16, 2)
    assert fine.cells_per_side == 256
    _, result = solve_fine(model, 1 / 16, fine)
    # six levels coarsened per solve: the frozen start, then each Newton step
    assert result.iterations >= 2 and len(alive) == 6 * (1 + result.iterations)
    assert alive[:6] == [None] * 6
    assert alive[6:] == [True, False, False, False, False, False] * result.iterations
