import numpy as np
import pytest

from twoscale.analysis import (
    ErrorReport,
    antiderivative_lemma_1d,
    energy_difference,
    fit_rate,
    holder_seminorm,
    interior_element_centers,
    interior_gradient_sup,
    norm_l2,
    norm_linf,
    seminorm_h1,
)
from twoscale.cell_problems import ParameterGrid, EffectiveTensorTable
from twoscale.coefficients import ConstantCoefficient, SourceModel
from twoscale.errors import ConfigurationError
from twoscale.expansion import fine_grid_for, solve_fine
from twoscale.grids import MacroGrid, ScalarField


def field_1d(m, fn):
    grid = MacroGrid(1, m)
    return ScalarField(grid, fn(grid.node_coords()[:, 0]))


def test_zero_field_all_norms():
    fld = field_1d(8, lambda x: 0.0 * x)
    assert norm_linf(fld) == 0.0
    assert norm_l2(fld) == 0.0
    assert seminorm_h1(fld) == 0.0


def test_linear_field_norms():
    fld = field_1d(4, lambda x: x)
    assert norm_linf(fld) == pytest.approx(1.0)
    assert seminorm_h1(fld) == pytest.approx(1.0, abs=1e-13)


def test_l2_of_sine():
    fld = field_1d(256, lambda x: np.sin(np.pi * x))
    assert norm_l2(fld) == pytest.approx(np.sqrt(0.5), abs=1e-4)


def test_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(2)
    grid = MacroGrid(1, 16)
    u = ScalarField(grid, rng.standard_normal(grid.ndof))
    v = ScalarField(grid, rng.standard_normal(grid.ndof))
    for norm in (norm_linf, norm_l2, seminorm_h1):
        for c in (-2.0, 0.5):
            scaled = ScalarField(grid, c * u.values)
            assert norm(scaled) == pytest.approx(abs(c) * norm(u), rel=1e-12)
        both = ScalarField(grid, u.values + v.values)
        assert norm(both) <= norm(u) + norm(v) + 1e-12


def test_norm_linf_subdomain():
    fld = field_1d(8, lambda x: x)
    assert norm_linf(fld, box=[0.25, 0.75]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        norm_linf(fld, box=[0.30, 0.32])  # no nodes inside


def constant_tensor_table(value, dim=1):
    pgrid = ParameterGrid(np.array([0.5]), tuple(np.array([0.5]) for _ in range(dim)))
    return EffectiveTensorTable(
        param_grid=pgrid,
        values=(np.eye(dim) * value)[None, :, :],
        source_means=np.array([1.0]),
    )


def test_energy_difference_zero_fields():
    model = ConstantCoefficient(1, matrix=[[2.0]])
    fine = fine_grid_for(0.25, 8, 1)
    macro = MacroGrid(1, 8)
    zero_f = ScalarField(fine, np.zeros(fine.ndof))
    zero_m = ScalarField(macro, np.zeros(macro.ndof))
    table = constant_tensor_table(2.0)
    assert energy_difference(model, zero_f, 0.25, table, zero_m) == 0.0


def test_energy_difference_constant_coefficients_small():
    # same continuum energy on both sides; the recovered-gradient macro
    # energy is exact for the quadratic solution, so what remains is the
    # fine-side O(h_f^2) energy deficit, shrinking by 4 per refinement
    model = ConstantCoefficient(1, matrix=[[2.0]], source=SourceModel(base=1.0))
    eps = 0.125
    from twoscale.macro import solve_homogenized

    table = constant_tensor_table(2.0)
    macro = MacroGrid(1, 16)
    u0, _ = solve_homogenized(table, model, macro)
    diffs = {}
    for periods in (8, 16):
        fine = fine_grid_for(eps, periods, 1)
        u_eps, _ = solve_fine(model, eps, fine)
        diffs[periods] = energy_difference(model, u_eps, eps, table, u0)
    assert diffs[8] < 2e-4
    assert diffs[16] < 0.3 * diffs[8]


def test_interior_gradient_sup_cases():
    fld = field_1d(8, lambda x: 3.0 * x)
    assert interior_gradient_sup(fld, [0.25, 0.75]) == pytest.approx(3.0, abs=1e-12)

    zero = field_1d(8, lambda x: 0.0 * x)
    assert interior_gradient_sup(zero, [0.25, 0.75]) == 0.0

    quad_field = field_1d(8, lambda x: x**2)
    # elementwise slope of the interpolant of x^2 is 2 * (element center)
    val = interior_gradient_sup(quad_field, [0.25, 0.75])
    assert val == pytest.approx(2.0 * 0.6875, abs=1e-12)
    assert abs(val - 1.5) <= 2.0 * quad_field.grid.spacing

    with pytest.raises(ValueError):
        interior_gradient_sup(fld, [0.0, 0.75])  # touches the boundary


def test_interior_gradient_sup_flux_mode():
    model = ConstantCoefficient(1, matrix=[[2.0]])
    fld = field_1d(8, lambda x: x)
    val = interior_gradient_sup(
        fld, [0.25, 0.75], flux_mode=True, model=model, eps=0.25, state=fld
    )
    assert val == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        interior_gradient_sup(fld, [0.25, 0.75], flux_mode=True)


def test_interior_gradient_sup_with_baseline():
    # subtracting the recovered nodal gradient of the same smooth field
    # cancels the measurement to rounding
    from twoscale.grids import fd_gradient

    fld = field_1d(16, lambda x: x * (1.0 - x))
    base = (fld.grid, fd_gradient(fld))
    val = interior_gradient_sup(fld, [0.25, 0.75], base_gradient=base)
    assert val < 1e-12
    # the same baseline as values at the interior element centers
    centers = interior_element_centers(fld.grid, [0.25, 0.75])
    at_centers = 1.0 - 2.0 * centers
    assert interior_gradient_sup(fld, [0.25, 0.75], base_gradient=at_centers) < 1e-12
    with pytest.raises(ValueError, match="base gradient has shape"):
        interior_gradient_sup(fld, [0.25, 0.75], base_gradient=at_centers[1:])


def test_holder_seminorm_1d_cases():
    const = field_1d(8, lambda x: np.ones_like(x))
    assert holder_seminorm(const, [0.25, 0.75], 0.5) == 0.0

    lin = field_1d(16, lambda x: x)
    # monotone in pair distance for affine data: extreme pair wins
    val = holder_seminorm(lin, [0.25, 0.75], 0.5)
    assert val == pytest.approx(np.sqrt(0.5), abs=1e-12)

    grid = MacroGrid(1, 4)
    vals = np.zeros(grid.ndof)
    vals[3] = 1.0  # nodes 0.5 and 0.75 carry values 0 and 1
    two = ScalarField(grid, vals)
    assert holder_seminorm(two, [0.5, 0.75], 0.5) == pytest.approx(2.0, abs=1e-12)


def test_holder_seminorm_1d_equals_all_pairs_reference():
    # the former dense n x n evaluation, kept as the reference: the
    # offset-by-offset running max forms the same quotients, so the
    # result is bitwise equal
    grid = MacroGrid(1, 128)
    x = grid.node_coords()[:, 0]
    fld = ScalarField(grid, np.sin(40.0 * x) + 0.1 * np.cos(317.0 * x**2))
    box = [0.2, 0.7]
    inside = (x >= 0.2 - 1e-12) & (x <= 0.7 + 1e-12)
    vals, pts = fld.values[inside], x[inside]
    dv = np.abs(vals[:, None] - vals[None, :])
    dx = np.abs(pts[:, None] - pts[None, :])
    off = ~np.eye(len(pts), dtype=bool)
    for beta in (0.3, 0.5, 0.9):
        reference = float(np.max(dv[off] / dx[off] ** beta))
        assert holder_seminorm(fld, box, beta) == reference


def test_holder_seminorm_beta_near_one_vs_lipschitz():
    fld = field_1d(64, lambda x: np.sin(np.pi * x))
    lip = np.pi * np.cos(np.pi * 0.25)  # max slope on the subdomain
    val = holder_seminorm(fld, [0.25, 0.75], 0.999)
    assert abs(val - lip) / lip < 0.05


def test_holder_seminorm_2d_sampled():
    grid = MacroGrid(2, 32)
    coords = grid.node_coords()
    fld = ScalarField(grid, coords[:, 0])
    val = holder_seminorm(fld, [0.25, 0.75], 0.5, seed=11)
    assert val <= np.sqrt(0.5) + 1e-12
    assert val >= 0.65  # sampling finds a near-extremal pair

    with pytest.raises(ValueError):
        holder_seminorm(fld, [0.25, 0.75], 1.5)


def test_fit_rate_exact_lines():
    fit = fit_rate([(0.4, 0.4), (0.2, 0.2), (0.1, 0.1)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.pairwise == pytest.approx((1.0, 1.0))

    fit2 = fit_rate([(0.4, 0.16), (0.2, 0.04), (0.1, 0.01)])
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)

    flat = fit_rate([(0.4, 0.3), (0.2, 0.3), (0.1, 0.3)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_exclusions_and_scaling():
    with pytest.warns(UserWarning, match="non-positive"):
        fit = fit_rate([(0.8, 0.0), (0.4, 0.4), (0.2, 0.2), (0.1, 0.1)])
    assert fit.excluded == (0.8,)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            fit_rate([(0.4, 0.0), (0.2, 0.0), (0.1, 0.1)])

    base = fit_rate([(0.4, 0.5), (0.2, 0.21), (0.1, 0.103)])
    scaled = fit_rate([(0.4, 5.0), (0.2, 2.1), (0.1, 1.03)])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + np.log(10.0), abs=1e-12)


def test_antiderivative_lemma_pure_oscillation():
    result = antiderivative_lemma_1d(
        lambda x, y: np.sin(2.0 * np.pi * y),
        [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
    )
    assert abs(result.fit.slope - 1.0) <= 0.05
    for eps, norm in zip(result.eps, result.norms):
        assert norm == pytest.approx(eps / (2.0 * np.pi), rel=0.02)


def test_antiderivative_lemma_l2_norm():
    # psi = -cos(2 pi x/eps) eps/(2 pi) after recentring, so the L2 norm is
    # eps/(2 pi sqrt(2))
    result = antiderivative_lemma_1d(
        lambda x, y: np.sin(2.0 * np.pi * y),
        [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0],
        p=2.0,
    )
    for eps, norm in zip(result.eps, result.norms):
        assert norm == pytest.approx(eps / (2.0 * np.pi * np.sqrt(2.0)), rel=0.02)


def test_antiderivative_lemma_zero_and_modulated():
    zero = antiderivative_lemma_1d(
        lambda x, y: 0.0 * y, [0.25, 0.125, 0.0625]
    )
    assert zero.fit is None
    assert all(n == 0.0 for n in zero.norms)

    modulated = antiderivative_lemma_1d(
        lambda x, y: (1.0 + x * (1.0 - x)) * np.sin(2.0 * np.pi * y),
        [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0],
    )
    assert abs(modulated.fit.slope - 1.0) <= 0.05


def test_antiderivative_lemma_rejects_biased_g():
    with pytest.raises(ConfigurationError):
        antiderivative_lemma_1d(
            lambda x, y: 1.0 + np.sin(2.0 * np.pi * y), [0.25, 0.125, 0.0625]
        )


def test_error_report_invariants_and_serialization():
    rows = [
        dict(eps=0.125, linf_order0=2e-3, linf_order1=1e-3, linf_order2=5e-4,
             energy_diff=1e-3, h1_order1=1e-2, grad_sup_order1=2e-3,
             flux_sup_order1=4e-3, holder_order2=6e-4),
        dict(eps=0.25, linf_order0=4e-3, linf_order1=2e-3, linf_order2=1e-3,
             energy_diff=2e-3, h1_order1=2e-2, grad_sup_order1=4e-3,
             flux_sup_order1=8e-3, holder_order2=1.2e-3),
    ]
    report = ErrorReport(rows=rows, fits={}, seed=3, config={"a": 1})
    assert [r["eps"] for r in report.rows] == [0.25, 0.125]  # sorted decreasing

    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    parsed = [float(v) for v in lines[1].split(",")]
    assert parsed[0] == 0.25  # full round-trip precision

    with pytest.raises(ValueError):
        ErrorReport(rows=[dict(zip(
            ("eps", "linf_order0", "linf_order1", "linf_order2", "energy_diff",
             "h1_order1", "grad_sup_order1", "flux_sup_order1", "holder_order2"),
            (0.25, -1.0, 0, 0, 0, 0, 0, 0, 0)))], fits={})
