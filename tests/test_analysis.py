import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from twoscale import analysis
from twoscale.analysis import (
    ErrorReport,
    _interior_elements,
    antiderivative_lemma_1d,
    energy_difference,
    fit_rate,
    homogenized_energy,
    holder_seminorm,
    interior_element_centers,
    interior_gradient_sup,
    interior_samples,
    norm_l2,
    norm_linf,
    resolve_box,
    seminorm_h1,
    student_t_quantile,
)
from twoscale.cell_problems import ParameterGrid, EffectiveTensorTable
from twoscale.coefficients import (
    ConstantCoefficient,
    LayeredCoefficient,
    RosselandCoefficient,
    SeparatedCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
)
from twoscale.errors import ConfigurationError
from twoscale.expansion import fine_grid_for, period_samples, solve_fine
from twoscale.fem import (
    assemble_load,
    assemble_load_from_samples,
    assemble_stiffness,
    element_quad_points,
    field_gradients_at_quad,
    field_values_at_quad,
    gauss_rule,
    solve_dirichlet,
)
from twoscale.macro import solve_nonlinear
from twoscale.grids import (
    MacroGrid,
    ScalarField,
    fd_gradient,
    interpolate_values,
    lattice_points,
)


def field_1d(m, fn):
    grid = MacroGrid(1, m)
    return ScalarField(grid, fn(lattice_points(grid.axes())[:, 0]))


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
    assert energy_difference(model, zero_f, 0.25, homogenized_energy(table, zero_m)) == 0.0


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
        diffs[periods] = energy_difference(model, u_eps, eps, homogenized_energy(table, u0))
    assert diffs[8] < 2e-4
    assert diffs[16] < 0.3 * diffs[8]


def test_interior_gradient_sup_cases():
    def sup(fld):
        return interior_gradient_sup(interior_samples(fld, [0.25, 0.75]))

    fld = field_1d(8, lambda x: 3.0 * x)
    assert sup(fld) == pytest.approx(3.0, abs=1e-12)

    zero = field_1d(8, lambda x: 0.0 * x)
    assert sup(zero) == 0.0

    quad_field = field_1d(8, lambda x: x**2)
    # elementwise slope of the interpolant of x^2 is 2 * (element center)
    val = sup(quad_field)
    assert val == pytest.approx(2.0 * 0.6875, abs=1e-12)
    assert abs(val - 1.5) <= 2.0 * quad_field.grid.spacing

    with pytest.raises(ValueError):
        interior_samples(fld, [0.0, 0.75])  # touches the boundary


def test_interior_gradient_sup_flux_mode():
    model = ConstantCoefficient(1, matrix=[[2.0]])
    fld = field_1d(8, lambda x: x)
    samples = interior_samples(fld, [0.25, 0.75])
    val = interior_gradient_sup(samples, model=model, eps=0.25)
    assert val == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        interior_gradient_sup(samples, model=model)  # the flux needs eps


def test_interior_gradient_sup_with_baseline():
    # subtracting the exact gradient of a quadratic at the interior element
    # centers cancels the measurement to rounding
    fld = field_1d(16, lambda x: x * (1.0 - x))
    centers = lattice_points(interior_element_centers(fld.grid, [0.25, 0.75]))
    at_centers = 1.0 - 2.0 * centers
    samples = interior_samples(fld, [0.25, 0.75])
    assert interior_gradient_sup(samples, base_gradient=at_centers) < 1e-12
    with pytest.raises(ValueError, match="base gradient has shape"):
        interior_gradient_sup(samples, base_gradient=at_centers[1:])


def energy(grid, quad, coeff, grads):
    """Quadrature sum of the positive terms w a grad . grad over every point
    (K = E Q, element order)."""
    weights = np.tile(quad.weights, grid.n_elements) * grid.spacing**grid.dim
    return np.einsum("kij,ki,kj,k->", coeff, grads, grads, weights)


@pytest.mark.parametrize("dim", [1, 2])
def test_own_grid_reads_match_point_location_reference(dim):
    # energy_difference and the flux read the state at their own grid's
    # quadrature points by gather; locating those points gives the same
    eps, box = 0.25, [0.25, 0.75]
    k_matrix = [[2.0]] if dim == 1 else [[2.0, 0.6], [0.6, 1.5]]
    model = RosselandCoefficient(dim, k_matrix=k_matrix, b=0.5)
    fine, macro = fine_grid_for(eps, 8, dim), MacroGrid(dim, 8)

    def bump(grid, scale):
        x = lattice_points(grid.axes())
        return ScalarField(grid, scale * np.prod(np.sin(np.pi * x), axis=1) + 0.1 * x[:, 0])

    u_eps, u0 = bump(fine, 0.8), bump(macro, 0.7)
    u_axis = np.linspace(0.0, 1.0, 5)
    shape = np.asarray(k_matrix)
    table = EffectiveTensorTable(
        param_grid=ParameterGrid(u_axis, tuple(np.array([0.5]) for _ in range(dim))),
        values=(1.0 + u_axis**3)[:, None, None] * shape,
        source_means=np.ones(len(u_axis)),
    )

    fine_quad, macro_quad = gauss_rule(model.solve_points, dim), gauss_rule(2, dim)
    pts = element_quad_points(fine, fine_quad).reshape(-1, dim)
    a_q = model.eval_a(interpolate_values(fine, u_eps.values, pts), pts, np.mod(pts / eps, 1.0))
    grads = field_gradients_at_quad(fine, u_eps.values, fine_quad).reshape(-1, dim)
    pts0 = element_quad_points(macro, macro_quad).reshape(-1, dim)
    a0_q = table.interp(interpolate_values(macro, u0.values, pts0), pts0)
    grad_nodal = fd_gradient(u0)
    grads0 = np.stack(
        [interpolate_values(macro, grad_nodal[:, d], pts0) for d in range(dim)], axis=-1
    )
    ref = abs(energy(fine, fine_quad, a_q, grads) - energy(macro, macro_quad, a0_q, grads0))
    got = energy_difference(model, u_eps, eps, homogenized_energy(table, u0))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    centers = lattice_points(interior_element_centers(fine, box))
    fld = bump(fine, -0.3)  # the coefficient reads the measured field's own values
    a_c = model.eval_a(interpolate_values(fine, fld.values, centers), centers,
                       np.mod(centers / eps, 1.0))
    grads_c = field_gradients_at_quad(fine, fld.values, gauss_rule(1, dim))
    flux = np.einsum("kij,kj->ki", a_c, grads_c[_interior_elements(fine, box), 0])
    ref = np.max(np.linalg.norm(flux, axis=1))
    got = interior_gradient_sup(interior_samples(fld, box), model=model, eps=eps)
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["ROSSELAND", "CONSTANT"])
def test_energy_density_is_the_einsum_bitwise(dim, family):
    # the fine energy density as explicit band products, (a_ij g_i) g_j added
    # over (i, j) in order, against the three-operand einsum it replaced, on
    # a full tensor: read at every element (ROSSELAND, u-dependent) or on
    # one period (CONSTANT, of y alone)
    eps = 0.25
    k_matrix = [[2.0]] if dim == 1 else [[2.0, 0.6], [0.6, 1.5]]
    model = (RosselandCoefficient(dim, k_matrix=k_matrix, b=0.5) if family == "ROSSELAND"
             else ConstantCoefficient(dim, k_matrix))
    fine = fine_grid_for(eps, 8, dim)
    x = lattice_points(fine.axes())
    u_eps = ScalarField(fine, 0.8 * np.prod(np.sin(np.pi * x), axis=1) + 0.1 * x[:, 0])
    quad = gauss_rule(model.solve_points, dim)
    grads = field_gradients_at_quad(fine, u_eps.values, quad)
    a_q = period_samples(model, eps, fine, quad, model.eval_a)
    if a_q is None:
        pts = element_quad_points(fine, quad).reshape(-1, dim)
        u_at = field_values_at_quad(fine, u_eps.values, quad).reshape(-1)
        a_q = [model.eval_a(u_at, pts, np.mod(pts / eps, 1.0)).reshape(
            (fine.cells_per_side,) * dim + grads.shape[1:] + (dim,))]
    p = len(a_q[0])
    assert p == (fine.cells_per_side if family == "ROSSELAND" else 8)
    g = grads.reshape((fine.cells_per_side // p, p) * dim + grads.shape[1:])
    dens = np.einsum(["Aqij,aAqi,aAqj->aAq", "ABqij,aAbBqi,aAbBqj->aAbBq"][dim - 1], a_q[0], g, g)
    want = np.einsum("eq,q->", dens.reshape(grads.shape[:2]), quad.weights) * fine.spacing**dim
    assert energy_difference(model, u_eps, eps, zero_macro_side(dim)) == abs(float(want))


def y_only_model(dim, family):
    source = SourceModel(base=1.0, amplitude=0.5, frequency=2, axis=dim - 1)
    if family == "SMOOTH_PERIODIC":
        return SmoothPeriodicCoefficient(dim, base=2.0, amplitude=1.0, source=source)
    if family == "LAYERED":
        return LayeredCoefficient(dim, low=1.0, high=4.0, axis=dim - 1, width=0.2, source=source)
    return ConstantCoefficient(dim, [[2.0]] if dim == 1 else [[2.0, 0.6], [0.6, 1.5]])


def zero_macro_side(dim):
    """A homogenized side of zero energy: energy_difference is then the
    fine energy alone."""
    u_axis = np.array([0.5])
    table = EffectiveTensorTable(
        param_grid=ParameterGrid(u_axis, tuple(np.array([0.5]) for _ in range(dim))),
        values=np.eye(dim)[None], source_means=np.ones(1),
    )
    return homogenized_energy(table, ScalarField(MacroGrid(dim, 8), np.zeros(9**dim)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["SMOOTH_PERIODIC", "LAYERED", "CONSTANT"])
def test_one_period_of_samples_equals_every_point(dim, family):
    # data of y alone: the fine stiffness, load, solve and energy read one
    # period of samples; assembling from the evaluators at every quadrature
    # point at y = mod(x / eps, 1) gives the same numbers
    eps, periods = 0.25, 8
    model = y_only_model(dim, family)
    fine, quad = fine_grid_for(eps, periods, dim), gauss_rule(model.solve_points, dim)
    a, f = period_samples(model, eps, fine, quad, model.eval_a, model.eval_f)
    assert a.shape == (periods,) * dim + (len(quad.weights), dim, dim)
    assert f.shape == a.shape[:-2]

    def at_points(fn):
        return lambda pts: fn(0.5, pts, np.mod(pts / eps, 1.0))

    ref_mat = assemble_stiffness(fine, at_points(model.eval_a), quad)
    ref_rhs = assemble_load(fine, quad, scalar_fn=at_points(model.eval_f))
    mat, rhs = assemble_stiffness(fine, a, quad), assemble_load_from_samples(fine, quad, f)
    assert np.all(np.abs(mat - ref_mat) <= 1e-14 * np.abs(ref_mat))
    assert np.all(np.abs(rhs - ref_rhs) <= 1e-14 * np.abs(ref_rhs))

    # the period tiled over the grid, P = cells per side, reads the same
    reps = (fine.cells_per_side // periods,) * dim
    assert np.array_equal(assemble_stiffness(fine, np.tile(a, reps + (1, 1, 1)), quad), mat)
    whole_rhs = assemble_load_from_samples(fine, quad, np.tile(f, reps + (1,)))
    assert np.max(np.abs(whole_rhs - rhs)) <= 1e-15 * np.max(np.abs(rhs))

    u_eps, result = solve_fine(model, eps, fine)
    ref = solve_dirichlet(ref_mat, ref_rhs, fine)
    assert result.iterations == 1
    assert np.max(np.abs(u_eps.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    pts = element_quad_points(fine, quad).reshape(-1, dim)
    grads = field_gradients_at_quad(fine, u_eps.values, quad).reshape(-1, dim)
    want = energy(fine, quad, at_points(model.eval_a)(pts), grads)
    got = energy_difference(model, u_eps, eps, zero_macro_side(dim))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["ROSSELAND", "SEPARATED", "SMOOTH_PERIODIC"])
def test_dependent_models_keep_point_evaluation(dim, family):
    # a coefficient of u (ROSSELAND, b = 1) or of x alone (SEPARATED, mu_x =
    # 0.5) is evaluated at every fine quadrature point, by the Newton solve
    # and the energy alike, with the results of the point-evaluation path
    # bit for bit; data of y alone are evaluated on one period
    eps, periods = 0.25, 8
    if family == "ROSSELAND":
        model = RosselandCoefficient(dim, b=1.0, source=SourceModel(base=1.0, u_coeff=0.5))
    elif family == "SEPARATED":
        model = SeparatedCoefficient(dim, mu_u2=0.0, mu_x=0.5)
    else:
        model = y_only_model(dim, family)
    fine, quad = fine_grid_for(eps, periods, dim), gauss_rule(model.solve_points, dim)
    n_q = len(quad.weights)
    original, sizes = model.eval_a, []

    def counting(u, x, y):
        sizes.append(len(y))
        return original(u, x, y)

    model.eval_a = counting
    u_eps, result = solve_fine(model, eps, fine)
    solve_sizes, sizes[:] = list(sizes), []
    got = energy_difference(model, u_eps, eps, zero_macro_side(dim))
    if family == "SMOOTH_PERIODIC":
        assert solve_sizes == sizes == [periods**dim * n_q]
        return
    # every fine quadrature point, one point per element a call
    assert set(solve_sizes) == {fine.n_elements} and len(solve_sizes) % n_q == 0
    assert sizes == [fine.n_elements * n_q]

    def data(u, pts):
        y = np.mod(pts / eps, 1.0)
        return (original(u, pts, y), model.eval_da_du(u, pts, y),
                model.eval_f(u, pts, y), model.eval_df_du(u, pts, y))

    ref, ref_result = solve_nonlinear(model, fine, data)
    assert np.array_equal(u_eps.values, ref)
    assert result.increments == ref_result.increments

    # the fine energy as every point evaluated it before the period form
    pts = element_quad_points(fine, quad).reshape(-1, dim)
    u_at = field_values_at_quad(fine, u_eps.values, quad).reshape(-1)
    a_q = original(u_at, pts, np.mod(pts / eps, 1.0)).reshape(fine.n_elements, n_q, dim, dim)
    grads = field_gradients_at_quad(fine, u_eps.values, quad)
    dens = np.einsum("eqij,eqi,eqj->eq", a_q, grads, grads)
    assert got == np.einsum("eq,q->", dens, quad.weights) * fine.spacing**dim


def test_flux_mode_gradient_sup_on_a_box_of_one_element():
    # [0.45, 0.57] holds only the element [0.5, 0.5625] of a 16-cell grid
    grid = MacroGrid(1, 16)
    model = RosselandCoefficient(1, b=1.0)
    fld = field_1d(16, lambda x: np.sin(np.pi * x))
    box, eps = [0.45, 0.57], 0.5
    assert np.count_nonzero(_interior_elements(grid, box)) == 1
    center = 0.53125
    u_c = 0.5 * (np.sin(np.pi * 0.5) + np.sin(np.pi * 0.5625))  # the field at the center
    a_c = model.eval_a(u_c, [center], [np.mod(center / eps, 1.0)])[0, 0, 0]
    slope = (np.sin(np.pi * 0.5625) - np.sin(np.pi * 0.5)) * 16
    got = interior_gradient_sup(interior_samples(fld, box), model=model, eps=eps)
    assert got == pytest.approx(abs(a_c * slope), rel=1e-14)


def reference_interior_elements(grid, box):
    """The element mask from the element origins, element by element."""
    b = resolve_box(box, grid.dim)
    m, h = grid.cells_per_side, grid.spacing
    multi = np.stack(np.meshgrid(*[np.arange(m)] * grid.dim, indexing="ij"), -1)
    origins = multi.reshape(-1, grid.dim) * h
    mask = np.ones(len(origins), dtype=bool)
    for d in range(grid.dim):
        mask &= (origins[:, d] >= b[d, 0] - 1e-12) & (origins[:, d] + h <= b[d, 1] + 1e-12)
    return mask


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [16, 67, 536])
def test_interior_element_mask_matches_element_origins(dim, m):
    grid = MacroGrid(dim, m)
    boxes = [[0.25, 0.75], [0.1, 0.9], [0.3141, 0.5]]
    if dim == 2:
        boxes.append([[0.25, 0.75], [0.125, 0.6]])
    for box in boxes:
        got = _interior_elements(grid, box)
        assert got.shape == (grid.n_elements,) and got.any()
        assert np.array_equal(got, reference_interior_elements(grid, box)), box


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
    x = lattice_points(grid.axes())[:, 0]
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
    coords = lattice_points(grid.axes())
    fld = ScalarField(grid, coords[:, 0])
    val = holder_seminorm(fld, [0.25, 0.75], 0.5, seed=11)
    assert val <= np.sqrt(0.5) + 1e-12
    assert val >= 0.65  # sampling finds a near-extremal pair

    with pytest.raises(ValueError):
        holder_seminorm(fld, [0.25, 0.75], 1.5)


def masked_holder_seminorm(fld, box, beta, seed=0, n_random=100_000, near_radius=4):
    """The Hölder seminorm as boolean masks over the whole grid and an (N, dim)
    gather of node coordinates, kept verbatim as the reference."""
    grid = fld.grid
    b = resolve_box(box, grid.dim)
    node_coords = lattice_points(grid.axes())
    mask = np.ones(grid.ndof, dtype=bool)
    for d in range(grid.dim):
        mask &= (node_coords[:, d] >= b[d, 0] - 1e-12) & (node_coords[:, d] <= b[d, 1] + 1e-12)
    idx = np.nonzero(mask)[0]
    coords = lattice_points(grid.axes())[idx]
    vals = fld.values[idx]

    if grid.dim == 1:
        x = coords[:, 0]
        best = 0.0
        for d in range(1, len(idx)):
            quot = np.abs(vals[d:] - vals[:-d]) / np.abs(x[d:] - x[:-d]) ** beta
            best = max(best, float(np.max(quot)))
        return best

    k = grid.nodes_per_side
    grid_mask = mask.reshape(k, k)
    field2 = fld.values.reshape(k, k)
    h = grid.spacing
    best = 0.0
    for di in range(0, near_radius + 1):
        for dj in range(-near_radius, near_radius + 1):
            if di == 0 and dj <= 0:
                continue
            if di * di + dj * dj > near_radius * near_radius:
                continue
            a = field2[: k - di, :] if di else field2
            b = field2[di:, :] if di else field2
            ma = grid_mask[: k - di, :] if di else grid_mask
            mb = grid_mask[di:, :] if di else grid_mask
            if dj > 0:
                a, b = a[:, : k - dj], b[:, dj:]
                ma, mb = ma[:, : k - dj], mb[:, dj:]
            elif dj < 0:
                a, b = a[:, -dj:], b[:, : k + dj]
                ma, mb = ma[:, -dj:], mb[:, : k + dj]
            both = ma & mb
            if not np.any(both):
                continue
            dist = h * np.hypot(di, dj)
            best = max(best, float(np.max(np.abs(a[both] - b[both])) / dist**beta))

    rng = np.random.default_rng(seed)
    ia = rng.integers(0, len(idx), size=n_random)
    ib = rng.integers(0, len(idx), size=n_random)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    dist = np.linalg.norm(coords[ia] - coords[ib], axis=1)
    best = max(best, float(np.max(np.abs(vals[ia] - vals[ib]) / dist**beta)))
    return best


@pytest.mark.parametrize("dim, cells", [(1, 16), (1, 128), (2, 16), (2, 64), (2, 128)])
def test_holder_seminorm_equals_the_masked_reference_bitwise(dim, cells):
    # random fields, a centred box, an off-centre box with unequal sides and
    # one so thin that some near-field offsets leave it; several seeds
    grid = MacroGrid(dim, cells)
    rng = np.random.default_rng(cells + dim)
    boxes = [[0.25, 0.75], [[0.1, 0.55], [0.3, 0.95]][:dim], [[0.4, 0.5], [0.2, 0.9]][:dim]]
    for trial in range(3):
        fld = ScalarField(grid, rng.standard_normal(grid.ndof))
        for box in boxes:
            for beta in (0.3, 0.9):
                want = masked_holder_seminorm(fld, box, beta, seed=trial)
                assert holder_seminorm(fld, box, beta, seed=trial) == want


def test_fit_rate_exact_lines():
    fit = fit_rate([(0.4, 0.4), (0.2, 0.2), (0.1, 0.1)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.pairwise == pytest.approx((1.0, 1.0))

    fit2 = fit_rate([(0.4, 0.16), (0.2, 0.04), (0.1, 0.01)])
    assert fit2.slope == pytest.approx(2.0, abs=1e-12)

    flat = fit_rate([(0.4, 0.3), (0.2, 0.3), (0.1, 0.3)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_student_t_quantile_matches_scipy():
    for dof in range(1, 201):
        want = special.stdtrit(dof, 0.975)
        assert abs(student_t_quantile(dof, 0.975) - want) <= 1e-14 * want, dof
    for dof, p in [(1, 0.75), (2, 0.9), (7, 0.995), (30, 0.6)]:
        want = special.stdtrit(dof, p)
        assert abs(student_t_quantile(dof, p) - want) <= 1e-13 * want, (dof, p)


def test_the_package_does_not_load_scipy_special():
    code = "import sys, twoscale.cli; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


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


def masked_interior_gradient_sup(fld, box, model=None, eps=None, base_gradient=None):
    """interior_gradient_sup as one full-grid pass per call, masked to the
    interior elements, with the centers located from the element points."""
    grid = fld.grid
    mask = _interior_elements(grid, box)
    center = gauss_rule(1, grid.dim)
    grads = field_gradients_at_quad(grid, fld.values, center)[mask, 0, :]
    if base_gradient is not None:
        grads = grads - base_gradient
    if model is not None:
        centers = element_quad_points(grid, center)[mask, 0, :]
        u_at = field_values_at_quad(grid, fld.values, center)[mask, 0]
        a_q = model.eval_a(u_at, centers, np.mod(centers / eps, 1.0))
        grads = np.einsum("kij,kj->ki", a_q, grads)
    return float(np.max(np.linalg.norm(grads, axis=1)))


@pytest.mark.parametrize("dim, cells", [(1, 64), (1, 1000), (2, 16), (2, 100), (2, 256)])
def test_interior_samples_are_the_masked_full_pass_bitwise(dim, cells):
    # one pass over the interior elements alone reads the values, gradients
    # and centers that the masked full-grid pass reads, bit for bit, and both
    # gradient-level measurements of the study read it
    rng = np.random.default_rng(cells + dim)
    grid = MacroGrid(dim, cells)
    model = RosselandCoefficient(dim, k_matrix=np.eye(dim) * 2.0, b=0.5)
    center = gauss_rule(1, dim)
    for box in ([0.25, 0.75], [0.1, 0.63], [[0.3, 0.9], [0.05, 0.5]][:dim]):
        box = np.tile(box, (dim, 1)) if np.ndim(box) == 1 else np.asarray(box)
        scale = 10.0 ** rng.integers(-4, 4, grid.ndof)
        fld = ScalarField(grid, rng.standard_normal(grid.ndof) * scale)
        mask = _interior_elements(grid, box)
        samples = interior_samples(fld, box)
        want = field_gradients_at_quad(grid, fld.values, center)[mask, 0, :]
        assert samples.gradients.tobytes() == want.tobytes()
        values = field_values_at_quad(grid, fld.values, center)[mask, 0]
        assert samples.values.tobytes() == values.tobytes()
        points = element_quad_points(grid, center)[mask, 0, :]
        assert lattice_points(samples.axes).tobytes() == points.tobytes()
        base = rng.standard_normal(want.shape)
        for kwargs in ({}, {"base_gradient": base}, {"model": model, "eps": 0.125},
                       {"model": model, "eps": 0.125, "base_gradient": base}):
            want = masked_interior_gradient_sup(fld, box, **kwargs)
            assert interior_gradient_sup(samples, **kwargs) == want


def holder_offset_loop(fld, box, beta):
    """The 1-D Holder seminorm one pair offset at a time."""
    x = lattice_points(fld.grid.axes())[:, 0]
    inside = (x >= box[0] - 1e-12) & (x <= box[1] + 1e-12)
    rect, x = fld.values[inside], x[inside]
    best = 0.0
    for d in range(1, len(x)):
        quot = np.abs(rect[d:] - rect[:-d]) / np.abs(x[d:] - x[:-d]) ** beta
        best = max(best, float(np.max(quot)))
    return best


@pytest.mark.parametrize("cells, box, block", [
    (4, [0.5, 0.75], None), (8, [0.25, 0.75], None), (128, [0.25, 0.75], None),
    (256, [0.25, 0.75], None), (512, [0.25, 0.75], None), (1024, [0.25, 0.75], None),
    (1000, [0.1, 0.9], None), (4096, [0.25, 0.75], None),
    (600, [0.04, 0.96], 300), (600, [0.04, 0.96], 1200),  # blocks of 1 and of 2 offsets
])
def test_holder_seminorm_1d_blocks_equal_the_offset_loop(monkeypatch, cells, box, block):
    # blocks of offsets over the valid pairs, padded with +inf coordinates,
    # form the quotients of the loop and no 0/0: the same maximum, bit for bit
    if block is not None:
        monkeypatch.setattr(analysis, "_HOLDER_BLOCK", block)
    rng = np.random.default_rng(cells)
    grid = MacroGrid(1, cells)
    x = lattice_points(grid.axes())[:, 0]
    for values in (np.sin(40.0 * x) + 0.1 * np.cos(317.0 * x**2),
                   rng.standard_normal(grid.ndof) * 10.0 ** rng.integers(-6, 6, grid.ndof)):
        fld = ScalarField(grid, values)
        for beta in (0.3, 0.5, 0.9):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = holder_seminorm(fld, box, beta)
            assert got == holder_offset_loop(fld, box, beta)


def whole_grid_measures(model, u_eps, eps):
    """norm_l2, seminorm_h1 and the fine energy with every element's
    quadrature values and gradients formed at once: the reference for the
    measures formed a block of element rows at a time."""
    grid = u_eps.grid
    quad = gauss_rule(2, grid.dim)
    measure = grid.spacing**grid.dim
    vals = field_values_at_quad(grid, u_eps.values, quad)
    l2 = float(np.sqrt(np.einsum("eq,q->", vals**2, quad.weights) * measure))
    grads = field_gradients_at_quad(grid, u_eps.values, quad)
    sq = np.einsum("eqd,eqd->eq", grads, grads)
    h1 = float(np.sqrt(np.einsum("eq,q->", sq, quad.weights) * measure))
    fine_quad = gauss_rule(model.solve_points, grid.dim)
    dim, m = grid.dim, grid.cells_per_side
    grads = field_gradients_at_quad(grid, u_eps.values, fine_quad)
    a_q = period_samples(model, eps, grid, fine_quad, model.eval_a)
    if a_q is None:
        pts = element_quad_points(grid, fine_quad).reshape(-1, dim)
        u_at = field_values_at_quad(grid, u_eps.values, fine_quad).reshape(-1)
        a_q = [model.eval_a(u_at, pts, np.mod(pts / eps, 1.0)).reshape(
            (m,) * dim + grads.shape[1:] + (dim,))]
    p = len(a_q[0])
    g = grads.reshape((m // p, p) * dim + grads.shape[1:])
    a = a_q[0].reshape((1, p) * dim + a_q[0].shape[dim:])[0]
    dens = np.empty(g.shape[:-1])
    for rows, out in zip(g, dens):
        for k, (i, j) in enumerate(np.ndindex(dim, dim)):
            term = a[..., i, j] * rows[..., i]
            term *= rows[..., j]
            out[...] = term if k == 0 else out + term
    energy = np.einsum("eq,q->", dens.reshape(grads.shape[:2]), fine_quad.weights) * grid.spacing**dim
    return l2, h1, float(abs(energy))


@pytest.mark.parametrize("dim, family", [(2, "ROSSELAND"), (2, "SMOOTH_PERIODIC"),
                                         (1, "ROSSELAND"), (1, "SMOOTH_PERIODIC")])
def test_block_measures_are_the_whole_grid_measures_bitwise(dim, family):
    # grids of more elements than one block holds (two or more blocks of
    # element rows in 2-D), data of u (read at every point) and of y alone
    # (one period)
    eps = 1.0 / 16
    model = (RosselandCoefficient(dim, b=0.5) if family == "ROSSELAND"
             else SmoothPeriodicCoefficient(dim, base=2.0, amplitude=1.0))
    fine = fine_grid_for(eps, 16 if dim == 2 else 8192, dim)
    x = lattice_points(fine.axes())
    u_eps = ScalarField(fine, 0.8 * np.prod(np.sin(np.pi * x), axis=1) + 0.1 * np.cos(9 * x[:, 0]))
    n_blocks = len(analysis.element_blocks(fine))
    assert n_blocks > 1
    l2, h1, energy = whole_grid_measures(model, u_eps, eps)
    assert norm_l2(u_eps) == l2 and seminorm_h1(u_eps) == h1
    assert energy_difference(model, u_eps, eps, 0.0) == energy
