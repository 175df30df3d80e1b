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
from twoscale.fem import assemble_load, assemble_stiffness, default_quadrature
from twoscale.grids import CellGrid, MacroGrid, interpolate_values
from twoscale.macro import PicardOptions, solve_homogenized


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
    assert result.converged
    assert result.iterations == 1


def test_homogenized_1d_closed_form():
    # -(sqrt(3) u')' = 1 on (0,1), zero boundary: u = x(1-x)/(2 sqrt(3))
    root3 = np.sqrt(3.0)
    table = constant_tensor_table(root3)
    model = ConstantCoefficient(1, matrix=[[root3]], source=SourceModel(base=1.0))
    grid = MacroGrid(1, 64)
    u0, _ = solve_homogenized(table, model, grid)
    x = grid.node_coords()[:, 0]
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
    u0, result = solve_homogenized(
        tensors, model, macro, PicardOptions(damping=0.5)
    )
    assert result.converged
    assert result.final_increment <= 1e-10
    # discrete maximum principle sanity: positive source, zero boundary
    assert u0.values.min() >= -1e-10
    # monotone decreasing increments after the first step
    tail = result.increments[1:]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))


def test_picard_budget_exhaustion_raises_with_history():
    # a u-dependent model: a u-independent one is solved by the frozen start
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.1)
    _, tensors = build_corrector_tables(
        model, default_parameter_grid(model), CellGrid(1, 32)
    )
    grid = MacroGrid(1, 16)
    with pytest.raises(NonConvergenceError) as err:
        solve_homogenized(tensors, model, grid, PicardOptions(max_iter=1))
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
            grid, quad, scalar_fn=lambda pts: table.interp_source(u_at(pts), pts)
        )
        return float(np.linalg.norm((mat @ values - rhs)[grid.interior_dofs()]))

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


def test_anderson_beats_plain_picard_on_strong_rosseland(monkeypatch):
    import twoscale.macro as macro
    from twoscale.cli import build_setup, tables_and_macro_solution
    from twoscale.config import load_config

    cfg = load_config(base={
        "problem": {
            "dim": 1,
            "coefficient": {"family": "ROSSELAND", "k_base": 2.0,
                            "k_amplitude": 1.0, "b": 1.0},
            "source": {"family": "CONSTANT", "value": 20.0},
            "u_range": [0.0, 2.0],
        },
        "discretization": {"m_x": 64, "m_c": 128, "cells_per_period": 16,
                           "table_u_samples": 9},
        "nonlinear": {"damping": 0.5},
        "study": {"eps": ["1/8", "1/16", "1/32"]},
    })
    setup = build_setup(cfg)
    tol = setup.picard_opts.tol
    _, tensors, u_anderson, res_anderson = tables_and_macro_solution(setup)

    monkeypatch.setattr(macro, "ANDERSON_DEPTH", 0)
    u_plain, res_plain = solve_homogenized(
        tensors, setup.model, setup.macro_grid, setup.picard_opts,
        setup.solve_quad, setup.cg_opts,
    )
    assert res_anderson.converged and res_plain.converged
    assert res_anderson.iterations < res_plain.iterations
    assert np.max(np.abs(u_anderson.values - u_plain.values)) <= 10.0 * tol
