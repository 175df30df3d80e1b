import numpy as np
import pytest
import scipy.sparse as sp

from twoscale import fem
from twoscale.coefficients import RosselandCoefficient, SourceModel
from twoscale.errors import AssemblyError, CompatibilityError, NonConvergenceError
from twoscale.fem import (
    PeriodicFactor,
    SolverOptions,
    _interior_prolongation,
    _inverse_diagonal,
    _jacobi_pcg,
    _multigrid,
    _stiffness_reference,
    as_period,
    assemble_load,
    assemble_load_from_samples,
    assemble_stiffness,
    element_quad_points,
    field_gradients_at_quad,
    gauss_rule,
    linearize,
    q1_gradients,
    q1_values,
    solve_dirichlet,
    solve_periodic_zero_mean,
)
from twoscale.grids import CellGrid, MacroGrid, interpolate_values


def const_coeff(value, dim):
    mat = np.eye(dim) * value if np.isscalar(value) else np.asarray(value)

    def fn(pts):
        return np.broadcast_to(mat, (len(pts), dim, dim))

    return fn


def test_gauss_rule_invariants():
    for n in (1, 2, 3):
        for dim in (1, 2):
            rule = gauss_rule(n, dim)
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    # exactness up to the stated degree: integral of x^3 over [0,1] is 1/4
    rule = gauss_rule(2, 1)
    assert rule.points[:, 0] ** 3 @ rule.weights == pytest.approx(0.25, abs=1e-14)


def test_1d_stiffness_matches_hand_assembly():
    # element matrix (a/h) [[1,-1],[-1,1]] assembled over two cells
    grid = MacroGrid(dim=1, cells_per_side=2)
    a = 3.0
    mat = assemble_stiffness(grid, const_coeff(a, 1), gauss_rule(2, 1)).toarray()
    k = a / grid.spacing
    expected = k * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.max(np.abs(mat - expected)) < 1e-12


def test_2d_q1_laplacian_element_entries():
    # closed-form Q1 Laplacian element matrix (scale-invariant in 2-D):
    # diagonal 2/3, corner-opposite -1/3, edge-neighbor -1/6
    grid = MacroGrid(dim=2, cells_per_side=2)
    mat = assemble_stiffness(grid, const_coeff(1.0, 2), gauss_rule(2, 2)).toarray()
    # node 0 = (0,0) belongs to exactly one element with corners 0,1,3,4
    assert mat[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert mat[0, 4] == pytest.approx(-1.0 / 3.0, abs=1e-13)
    assert mat[0, 1] == pytest.approx(-1.0 / 6.0, abs=1e-13)
    assert mat[0, 3] == pytest.approx(-1.0 / 6.0, abs=1e-13)


def test_periodic_two_cell_assembly():
    grid = CellGrid(dim=1, cells_per_side=2)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), gauss_rule(2, 1)).toarray()
    assert np.max(np.abs(mat - np.array([[4.0, -4.0], [-4.0, 4.0]]))) < 1e-12


def test_assembly_rejects_non_finite_coefficient():
    grid = MacroGrid(dim=1, cells_per_side=2)

    def bad(pts):
        out = np.ones((len(pts), 1, 1))
        out[0] = np.nan
        return out

    with pytest.raises(AssemblyError, match="element 0"):
        assemble_stiffness(grid, bad, gauss_rule(2, 1))


def test_load_zero_source():
    grid = MacroGrid(dim=1, cells_per_side=4)
    b = assemble_load(grid, gauss_rule(2, 1), scalar_fn=lambda pts: np.zeros(len(pts)))
    assert np.all(b == 0.0)


def test_load_unit_source_interior_hat():
    grid = MacroGrid(dim=1, cells_per_side=4)
    b = assemble_load(grid, gauss_rule(2, 1), scalar_fn=lambda pts: np.ones(len(pts)))
    assert np.allclose(b[1:-1], grid.spacing, atol=1e-14)


def test_load_periodic_constant_and_mean_subtraction():
    grid = CellGrid(dim=2, cells_per_side=4)
    c = 2.5
    quad = gauss_rule(2, 2)
    b = assemble_load(grid, quad, scalar_fn=lambda pts: np.full(len(pts), c))
    assert np.allclose(b, c * grid.spacing**2, atol=1e-14)
    b0 = assemble_load(grid, quad, scalar_fn=lambda pts: np.full(len(pts), c) - c)
    assert np.max(np.abs(b0)) < 1e-14


def test_dirichlet_zero_data_zero_rhs():
    grid = MacroGrid(dim=2, cells_per_side=4)
    mat = assemble_stiffness(grid, const_coeff(1.0, 2), gauss_rule(2, 2))
    sol = solve_dirichlet(mat, np.zeros(grid.ndof), grid)
    assert np.all(sol == 0.0)


def test_dirichlet_1d_poisson_nodally_exact():
    # -u'' = 1, u(0) = u(1) = 0 has u = x(1-x)/2; Q1 with exact load
    # integration reproduces it at the nodes
    grid = MacroGrid(dim=1, cells_per_side=8)
    quad = gauss_rule(2, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    sol = solve_dirichlet(mat, rhs, grid)
    x = grid.node_coords()[:, 0]
    assert np.max(np.abs(sol - 0.5 * x * (1.0 - x))) < 1e-9


def test_pcg_small_spd_system():
    import scipy.sparse as sp

    mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    inv_diag = _inverse_diagonal(mat)
    x, rel, its = _jacobi_pcg(
        mat, np.array([1.0, 2.0]), 1e-12, 50, lambda r: inv_diag * r
    )
    assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-10)


@pytest.mark.parametrize("tol", [1e-13, 1e-14])
def test_pcg_stops_on_the_true_residual(tol):
    # unpreconditioned CG on the 100-node 1-D Laplacian: the updated residual
    # falls below these tolerances while ||b - A x|| / ||b|| stays near 1.2e-13
    n = 100
    mat = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                   format="csr")
    rhs = np.random.default_rng(0).standard_normal(n)
    try:
        x, rel, _ = _jacobi_pcg(mat, rhs, tol, 10 * n, lambda r: r.copy())
    except NonConvergenceError:
        return
    true = np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs)
    assert true <= tol and rel == pytest.approx(true, rel=1e-12)


def test_pcg_stops_when_the_true_residual_stagnates():
    # below the rounding floor of ||b - A x|| every restart lands on it again;
    # the first restart that does not improve ends the solve, long before the
    # 10n iteration budget
    n = 100
    mat = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
                   format="csr")
    rhs = np.random.default_rng(0).standard_normal(n)
    with pytest.raises(NonConvergenceError, match="stagnated") as err:
        _jacobi_pcg(mat, rhs, 1e-14, 10 * n, lambda r: r.copy())
    assert err.value.iterations <= 2 * n
    assert err.value.residual > 1e-14
    assert err.value.history[-1] == err.value.residual
    assert len(err.value.history) == err.value.iterations


def test_pcg_iteration_cap():
    # 1-D systems are solved directly; the CG budget applies in 2-D
    grid = MacroGrid(dim=2, cells_per_side=16)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, const_coeff(1.0, 2), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(mat, rhs, grid, SolverOptions(max_iter=2))
    assert err.value.residual is not None


def test_periodic_zero_rhs():
    grid = CellGrid(dim=1, cells_per_side=8)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), gauss_rule(2, 1))
    sol = solve_periodic_zero_mean(PeriodicFactor(mat), np.zeros(grid.ndof))
    assert np.all(sol == 0.0)


def test_periodic_incompatible_rhs_raises():
    grid = CellGrid(dim=1, cells_per_side=16)
    quad = gauss_rule(2, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    with pytest.raises(CompatibilityError):
        solve_periodic_zero_mean(PeriodicFactor(mat), rhs)


def test_periodic_flux_solve_against_antiderivative():
    # int N' phi' = int B phi' with B = sin(2 pi y) forces N' = sin(2 pi y),
    # so N(y) = -cos(2 pi y) / (2 pi) after recentring; nodal match is O(h^2)
    grid = CellGrid(dim=1, cells_per_side=64)
    quad = gauss_rule(1, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(
        grid, quad, flux_fn=lambda pts: np.sin(2.0 * np.pi * pts)
    )
    sol = solve_periodic_zero_mean(PeriodicFactor(mat), rhs)
    y = grid.dof_coords()[:, 0]
    exact = -np.cos(2.0 * np.pi * y) / (2.0 * np.pi)
    assert np.max(np.abs(sol - exact)) < 2.0 * grid.spacing**2


def test_periodic_kernel_is_constants():
    grid = CellGrid(dim=2, cells_per_side=8)

    def osc(pts):
        sig = 2.0 + np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
        return sig[:, None, None] * np.eye(2)

    mat = assemble_stiffness(grid, osc, gauss_rule(2, 2))
    assert np.max(np.abs(mat @ np.ones(grid.ndof))) < 1e-12 * abs(mat).max()


def test_periodic_solution_mean_zero():
    grid = CellGrid(dim=1, cells_per_side=32)
    quad = gauss_rule(1, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(grid, quad, flux_fn=lambda pts: np.cos(2.0 * np.pi * pts))
    sol = solve_periodic_zero_mean(PeriodicFactor(mat), rhs)
    assert abs(sol.mean()) < 1e-12


def test_solver_determinism():
    grid = MacroGrid(dim=2, cells_per_side=8)
    quad = gauss_rule(2, 2)

    def osc(pts):
        sig = 2.0 + np.sin(2 * np.pi * pts[:, 0])
        return sig[:, None, None] * np.eye(2)

    def run():
        mat = assemble_stiffness(grid, osc, quad)
        rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
        return solve_dirichlet(mat, rhs, grid)

    a, b = run(), run()
    assert np.array_equal(a, b)


def oscillating_coeff(pts):
    sig = 2.0 + np.sin(2.0 * np.pi * pts[:, 0]) + 0.5 * np.cos(6.0 * np.pi * pts[:, 0])
    return sig[:, None, None] * np.ones((1, 1, 1))


def test_direct_1d_solves_match_pcg():
    quad = gauss_rule(1, 1)
    grid = MacroGrid(dim=1, cells_per_side=64)
    mat = assemble_stiffness(grid, oscillating_coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: 1.0 + pts[:, 0])
    direct = solve_dirichlet(mat, rhs, grid)
    free = grid.interior_dofs()
    reduced = mat[free][:, free].tocsr()
    inv_diag = _inverse_diagonal(reduced)
    # CG stops on the true residual, which rounding holds near 1e-13 here
    # (3.4e-13 for this solve), so the reference solves ask for 1e-12
    x_free, _, _ = _jacobi_pcg(
        reduced, rhs[free], 1e-12, 10 * len(free), lambda r: inv_diag * r
    )
    assert np.max(np.abs(direct[free] - x_free)) <= 1e-9 * np.max(np.abs(x_free))
    assert np.all(direct[grid.boundary_dofs()] == 0.0)

    cell = CellGrid(dim=1, cells_per_side=64)
    mat = assemble_stiffness(cell, oscillating_coeff, quad)
    rhs = assemble_load(cell, quad, flux_fn=lambda pts: np.sin(2.0 * np.pi * pts))
    direct = solve_periodic_zero_mean(PeriodicFactor(mat), rhs)

    def project(v):
        return v - v.mean()

    inv_diag = _inverse_diagonal(mat)
    x, _, _ = _jacobi_pcg(
        mat, project(rhs), 1e-12, 10 * cell.ndof, lambda r: project(inv_diag * r)
    )
    assert np.max(np.abs(direct - x)) <= 1e-9 * np.max(np.abs(x))


def test_pinned_periodic_solve_mean_zero_and_residual():
    cell = CellGrid(dim=1, cells_per_side=128)
    quad = gauss_rule(1, 1)
    mat = assemble_stiffness(cell, oscillating_coeff, quad)
    rhs = assemble_load(
        cell, quad,
        scalar_fn=lambda pts: np.cos(4.0 * np.pi * pts[:, 0]),
        flux_fn=lambda pts: np.sin(2.0 * np.pi * pts),
    )
    sol = solve_periodic_zero_mean(PeriodicFactor(mat), rhs)
    assert abs(sol.mean()) <= 1e-15 * np.max(np.abs(sol))
    residual = np.abs(mat @ sol - (rhs - rhs.mean()))
    # every row, the pinned node 0 included
    assert np.max(residual) <= 1e-10 * np.linalg.norm(rhs)


def test_direct_2d_periodic_solve_matches_pcg():
    cell = CellGrid(dim=2, cells_per_side=16)
    quad = gauss_rule(2, 2)

    def osc(pts):
        sig = (
            2.0 + np.sin(2.0 * np.pi * pts[:, 0]) * np.sin(2.0 * np.pi * pts[:, 1])
            + 0.5 * np.cos(6.0 * np.pi * pts[:, 0])
        )
        return sig[:, None, None] * np.eye(2)

    mat = assemble_stiffness(cell, osc, quad)
    rhs = assemble_load(
        cell, quad,
        scalar_fn=lambda pts: np.cos(4.0 * np.pi * pts[:, 1]),
        flux_fn=lambda pts: np.stack(
            [np.sin(2.0 * np.pi * pts[:, 0]), np.cos(2.0 * np.pi * pts[:, 0] + pts[:, 1])],
            axis=1,
        ),
    )
    direct = solve_periodic_zero_mean(PeriodicFactor(mat), rhs)

    def project(v):
        return v - v.mean()

    inv_diag = _inverse_diagonal(mat)
    x, _, _ = _jacobi_pcg(
        mat, project(rhs), 1e-12, 10 * cell.ndof, lambda r: project(inv_diag * r)
    )
    assert np.max(np.abs(direct - x)) <= 1e-9 * np.max(np.abs(x))
    assert abs(direct.mean()) <= 1e-15 * np.max(np.abs(direct))
    residual = np.abs(mat @ direct - project(rhs))
    # every row, the pinned node 0 included
    assert np.max(residual) <= 1e-10 * np.linalg.norm(rhs)


def reference_stiffness(grid, coeff_fn, quad):
    """Per-quadrature-point einsum assembly, the formula the kernel replaced."""
    dofs = grid.element_dofs()
    n_el, n_loc = dofs.shape
    h = grid.spacing
    pts = element_quad_points(grid, quad)
    grads = q1_gradients(quad.points) / h
    local = np.zeros((n_el, n_loc, n_loc))
    for q in range(len(quad.weights)):
        a_q = coeff_fn(pts[:, q, :])
        flux = np.einsum("eij,cj->eci", a_q, grads[q])
        local += quad.weights[q] * h**grid.dim * np.einsum("eci,bi->ebc", flux, grads[q])
    rows = np.repeat(dofs, n_loc, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, n_loc)).reshape(-1)
    return sp.coo_matrix(
        (local.reshape(-1), (rows, cols)), shape=(grid.ndof, grid.ndof)
    ).toarray()


def reference_load(grid, quad, scalar_samples, flux_samples):
    """Per-element einsum load assembly with an unbuffered scatter."""
    dofs = grid.element_dofs()
    h = grid.spacing
    measure = h**grid.dim
    local = measure * np.einsum("eq,q,qc->ec", scalar_samples, quad.weights, q1_values(quad.points))
    local += measure * np.einsum(
        "eqd,q,qcd->ec", flux_samples, quad.weights, q1_gradients(quad.points) / h
    )
    out = np.zeros(grid.ndof)
    np.add.at(out, dofs.reshape(-1), local.reshape(-1))
    return out


KERNEL_GRIDS = [CellGrid(1, 16), CellGrid(2, 8), MacroGrid(1, 16), MacroGrid(2, 8)]


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=repr)
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_matrix_product_kernels_match_einsum_reference(grid, n_points):
    # full tensor: off-diagonal k_matrix, oscillating k(y) plus the u^3 term
    k_matrix = [[2.0]] if grid.dim == 1 else [[2.0, 0.6], [0.6, 1.5]]
    model = RosselandCoefficient(grid.dim, k_matrix=k_matrix, b=0.3)
    x = np.full(grid.dim, 0.5)

    def coeff(pts):
        return model.eval_a(0.7, x, pts)

    quad = gauss_rule(n_points, grid.dim)
    mat = assemble_stiffness(grid, coeff, quad).toarray()
    ref = reference_stiffness(grid, coeff, quad)
    assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))

    # precomputed samples of every element take the same kernel as the evaluator
    pts = element_quad_points(grid, quad)
    samples = coeff(pts.reshape(-1, grid.dim)).reshape(pts.shape[:2] + (grid.dim, grid.dim))
    assert np.array_equal(assemble_stiffness(grid, as_period(grid, samples), quad).toarray(), mat)

    scal = np.sin(2.0 * np.pi * pts.sum(axis=-1)) + 0.25
    flux = np.cos(2.0 * np.pi * pts) * np.arange(1.0, grid.dim + 1.0)
    load = assemble_load_from_samples(grid, quad, as_period(grid, scal), as_period(grid, flux))
    ref = reference_load(grid, quad, scal, flux)
    assert np.max(np.abs(load - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=repr)
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_quadrature_gradients_match_einsum_reference(grid, n_points):
    quad = gauss_rule(n_points, grid.dim)
    coords = grid.dof_coords() if isinstance(grid, CellGrid) else grid.node_coords()
    values = np.sin(2.0 * np.pi * coords[:, 0]) * np.cos(2.0 * np.pi * coords[:, -1]) + coords[:, 0]
    ref = np.einsum(
        "ec,qcd->eqd", values[grid.element_dofs()], q1_gradients(quad.points) / grid.spacing
    )
    got = field_gradients_at_quad(grid, values, quad)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_rule_caches_read_only_basis_tables(dim):
    quad = gauss_rule(3, dim)
    assert np.array_equal(quad.basis, q1_values(quad.points))
    assert np.array_equal(quad.basis_gradients, q1_gradients(quad.points))
    assert quad.basis is quad.basis and quad.basis_gradients is quad.basis_gradients
    for table in (quad.basis, quad.basis_gradients):
        assert not table.flags.writeable


@pytest.mark.parametrize("grid", [MacroGrid(1, 16), MacroGrid(2, 8)], ids=repr)
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_state_assembly_matches_point_location_reference(grid, n_points):
    # the Newton linearization reads its nodal state at the quadrature points
    # by gather: its residual, and its Jacobian with the u-derivatives zeroed
    # (the stiffness matrix), match assembling with every quadrature point
    # located in the grid
    k_matrix = [[2.0]] if grid.dim == 1 else [[2.0, 0.6], [0.6, 1.5]]
    model = RosselandCoefficient(
        grid.dim, k_matrix=k_matrix, b=0.3, source=SourceModel(base=1.0, u_coeff=0.5)
    )
    x = grid.node_coords()
    state = 0.5 + 0.4 * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, -1])
    quad = gauss_rule(n_points, grid.dim)
    calls = []

    def coeff(u, pts):
        calls.append(len(pts))
        return model.eval_a(u, pts, np.mod(4.0 * pts, 1.0))

    def source(u, pts):
        return model.eval_f(u, pts, np.mod(4.0 * pts, 1.0))

    jac, res = linearize(grid, quad, state, coeff,
                         lambda u, pts: np.zeros((len(pts), grid.dim, grid.dim)),
                         source, lambda u, pts: np.zeros(len(pts)))
    assert calls == [grid.n_elements] * len(quad.weights)

    def located(fn):
        return lambda pts: fn(interpolate_values(grid, state, pts), pts)

    ref = assemble_stiffness(grid, located(coeff), quad)
    assert abs(jac - ref).max() <= 1e-14 * abs(ref).max()
    flux_part = ref @ state
    load = assemble_load(grid, quad, scalar_fn=located(source))
    assert np.max(np.abs(res - (flux_part - load))) <= 1e-13 * np.max(np.abs(flux_part))


def test_assembly_rejects_bad_shape_and_names_non_finite_element():
    grid = CellGrid(dim=2, cells_per_side=4)
    quad = gauss_rule(2, 2)
    with pytest.raises(AssemblyError, match="shape"):
        assemble_stiffness(grid, lambda pts: np.ones((len(pts), 2, 3)), quad)
    # not one period: the wrong point count, every element in one axis (the
    # retired (E, Q, ...) form), a period that does not divide 4 cells
    for shape in ((4, 4, 3, 2, 2), (grid.n_elements, 4, 2, 2), (3, 3, 4, 2, 2)):
        with pytest.raises(AssemblyError, match="shape"):
            assemble_stiffness(grid, np.ones(shape), quad)
        with pytest.raises(AssemblyError, match="shape"):
            assemble_load_from_samples(grid, quad, np.ones(shape[:-2]))
    with pytest.raises(AssemblyError, match="shape"):
        assemble_load_from_samples(grid, quad, flux_samples=np.ones((4, 4, 4, 3)))

    samples = np.broadcast_to(np.eye(2), (4, 4, 4, 2, 2)).copy()
    samples[1, 1, 3, 0, 1] = np.inf  # element 5 = (1, 1)
    with pytest.raises(AssemblyError, match="element 5"):
        assemble_stiffness(grid, samples, quad)
    period = np.broadcast_to(np.eye(2), (2, 2, 4, 2, 2)).copy()
    period[1, 0, 2, 1, 1] = np.nan  # class (1, 0) first at element (1, 0) = 4
    with pytest.raises(AssemblyError, match="element 4"):
        assemble_stiffness(grid, period, quad)
    with pytest.raises(AssemblyError, match="non-finite scalar"):
        assemble_load_from_samples(grid, quad, period[..., 1, 1])

    def bad(pts):
        out = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
        out[7] = np.nan
        return out

    with pytest.raises(AssemblyError, match="element 7"):
        assemble_stiffness(grid, bad, quad)


def test_element_dofs_computed_once_and_read_only():
    for grid in (CellGrid(2, 4), MacroGrid(2, 4)):
        dofs = grid.element_dofs()
        assert grid.element_dofs() is dofs
        assert not dofs.flags.writeable
        assert grid == type(grid)(2, 4)  # the cache takes no part in equality


def checkerboard_coeff(pts):
    # contrast 5 between the extremes, eight periods per side
    sig = 1.5 + np.sin(16.0 * np.pi * pts[:, 0]) * np.sin(16.0 * np.pi * pts[:, 1])
    return sig[:, None, None] * np.eye(2)


# anisotropic and full tensors: their Q1 stencils have positive
# off-diagonals, where a fixed smoother weight of 0.8 amplifies
DIAGONAL_10_1 = const_coeff([[10.0, 0.0], [0.0, 1.0]], 2)
FULL_TENSOR = const_coeff([[3.0, 1.4], [1.4, 1.0]], 2)
COEFF_IDS = ["checkerboard", "diagonal_10_1", "full_tensor"]


def reduced_dirichlet_system(cells, coeff=checkerboard_coeff):
    grid = MacroGrid(dim=2, cells_per_side=cells)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: 1.0 + pts[:, 0] * pts[:, 1])
    free = grid.interior_dofs()
    return mat[free][:, free].tocsr(), rhs[free]


@pytest.mark.parametrize("cells", [32, 64, 128, 256])
def test_multigrid_pcg_iterations_flat_and_match_lu(cells):
    reduced, rhs = reduced_dirichlet_system(cells)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, _multigrid(reduced, cells))
    assert rel <= 1e-10
    assert its <= 12
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_cached_prolongation_is_read_only_and_keeps_solve_bytes():
    _interior_prolongation.cache_clear()
    reduced, rhs = reduced_dirichlet_system(32)
    fresh = _jacobi_pcg(reduced, rhs, 1e-10, 100, _multigrid(reduced, 32))[0]
    prol = _interior_prolongation(32)
    assert _interior_prolongation(32) is prol  # one per cell count
    with pytest.raises(ValueError):
        prol.data[0] = 2.0  # shared by every later hierarchy
    cached = _jacobi_pcg(reduced, rhs, 1e-10, 100, _multigrid(reduced, 32))[0]
    assert np.array_equal(fresh, cached)


@pytest.mark.parametrize("cells", [24, 40, 15])
def test_multigrid_on_grids_that_stop_coarsening_early(cells):
    # 24 cells stop at a 6-cell coarsest level (too small to halve), 40 at
    # an odd 5-cell one; 15 cells never coarsen, so the preconditioner is
    # the exact solve and CG stops after one step
    reduced, rhs = reduced_dirichlet_system(cells)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, _multigrid(reduced, cells))
    assert its <= (1 if cells == 15 else 12)
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "coeff", [checkerboard_coeff, DIAGONAL_10_1, FULL_TENSOR], ids=COEFF_IDS
)
def test_multigrid_preconditioner_symmetric_positive(coeff):
    # 16 cells coarsen twice; the preconditioner as a dense 225 x 225 matrix
    reduced, _ = reduced_dirichlet_system(16, coeff)
    precond = _multigrid(reduced, 16)
    dense = np.column_stack([precond(e) for e in np.eye(reduced.shape[0])])
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    assert np.linalg.eigvalsh(dense).min() > 0.0


# measured 8, 20 and 17 steps; Jacobi-PCG takes 123, 210 and 234
@pytest.mark.parametrize(
    "coeff, max_iter",
    [(checkerboard_coeff, 12), (DIAGONAL_10_1, 40), (FULL_TENSOR, 40)],
    ids=COEFF_IDS,
)
def test_dirichlet_2d_solve_uses_multigrid_iterations(coeff, max_iter):
    grid = MacroGrid(dim=2, cells_per_side=64)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    sol = solve_dirichlet(mat, rhs, grid, SolverOptions(max_iter=max_iter))
    free = grid.interior_dofs()
    assert np.linalg.norm(mat[free] @ sol - rhs[free]) <= 1e-10 * np.linalg.norm(rhs[free])


def test_multigrid_factors_the_coarsest_level_of_an_odd_grid():
    # 67 cells cannot coarsen, so the preconditioner is the exact inverse of
    # the 66 x 66 interior operator and CG stops after one step
    reduced, rhs = reduced_dirichlet_system(67)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, _multigrid(reduced, 67))
    assert its == 1 and rel <= 1e-10
    # 536 = 8 * 67 cells coarsen three times to the same 67-cell level;
    # measured 8 steps
    reduced, rhs = reduced_dirichlet_system(536)
    x, rel, _ = _jacobi_pcg(reduced, rhs, 1e-10, 10, _multigrid(reduced, 536))
    assert rel <= 1e-10
    # minimum degree ordering factors this grid in half the time of COLAMD
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


def coo_stiffness(grid, samples, quad):
    """The scatter assembly the stencil kernel replaced: element matrices
    from one matrix product, scattered through COO rows and columns and
    summed by the CSR conversion."""
    dofs = grid.element_dofs()
    n_el, n_loc = dofs.shape
    local = samples.reshape(n_el, -1) @ _stiffness_reference(grid, quad)
    rows = np.repeat(dofs, n_loc, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, n_loc)).reshape(-1)
    return sp.coo_matrix((local.reshape(-1), (rows, cols)), shape=(grid.ndof, grid.ndof)).tocsr()


def rosseland_coeff(dim):
    k_matrix = [[2.0]] if dim == 1 else [[2.0, 0.6], [0.6, 1.5]]
    model = RosselandCoefficient(dim, k_matrix=k_matrix, b=0.3)
    return lambda pts: model.eval_a(0.7, np.full(dim, 0.5), pts)


def rosseland_samples(grid, quad):
    """Samples of every element, in the period form with P = cells per side."""
    pts = element_quad_points(grid, quad)
    a = rosseland_coeff(grid.dim)(pts.reshape(-1, grid.dim))
    return as_period(grid, a.reshape(pts.shape[:2] + a.shape[1:]))


def same_pattern(mat, ref):
    return (np.array_equal(mat.indptr, ref.indptr) and np.array_equal(mat.indices, ref.indices)
            and mat.has_canonical_format)


BOX_GRIDS = [MacroGrid(1, 2), MacroGrid(1, 64), MacroGrid(1, 101), MacroGrid(2, 2),
             MacroGrid(2, 7), MacroGrid(2, 16), MacroGrid(2, 64), MacroGrid(2, 256)]


@pytest.mark.parametrize("grid", BOX_GRIDS, ids=repr)
@pytest.mark.parametrize("n_points", [1, 2])
def test_stencil_kernel_equals_coo_scatter_bitwise_on_box_grids(grid, n_points):
    quad = gauss_rule(n_points, grid.dim)
    samples = rosseland_samples(grid, quad)
    mat, ref = assemble_stiffness(grid, samples, quad), coo_stiffness(grid, samples, quad)
    assert same_pattern(mat, ref)
    assert np.array_equal(mat.data, ref.data)


@pytest.mark.parametrize("grid, chunk", [(MacroGrid(1, 101), 20), (MacroGrid(2, 13), 50)], ids=repr)
def test_stencil_kernel_chunks_change_no_bit(monkeypatch, grid, chunk):
    # 101 rows in chunks of at most 20, 13 rows of 13 in chunks of at most 3
    # rows: several chunks, none a multiple of the other
    quad = gauss_rule(2, grid.dim)
    samples = rosseland_samples(grid, quad)
    ref = coo_stiffness(grid, samples, quad)
    assert np.array_equal(assemble_stiffness(grid, samples, quad).data, ref.data)  # one chunk
    monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", chunk)
    calls = []

    def coeff(pts):
        calls.append(len(pts))
        return rosseland_coeff(grid.dim)(pts)

    for chunked in (assemble_stiffness(grid, samples, quad), assemble_stiffness(grid, coeff, quad)):
        assert same_pattern(chunked, ref)
        assert np.array_equal(chunked.data, ref.data)
    # every point evaluated once, in several chunks, none of a lone point
    assert len(calls) > len(quad.weights) and sum(calls) == grid.n_elements * len(quad.weights)
    assert min(calls) > 1


def test_stencil_kernel_bitwise_on_a_box_larger_than_one_chunk():
    grid = MacroGrid(1, 3 * fem._CHUNK_ELEMENTS + 7)
    quad = gauss_rule(1, 1)
    samples = rosseland_samples(grid, quad)
    mat, ref = assemble_stiffness(grid, samples, quad), coo_stiffness(grid, samples, quad)
    assert same_pattern(mat, ref)
    assert np.array_equal(mat.data, ref.data)


@pytest.mark.parametrize("grid", [CellGrid(1, 2), CellGrid(1, 3), CellGrid(1, 64), CellGrid(2, 2),
                                  CellGrid(2, 3), CellGrid(2, 16), CellGrid(2, 64)], ids=repr)
@pytest.mark.parametrize("n_points", [1, 2])
def test_stencil_kernel_matches_coo_scatter_on_cell_grids(grid, n_points):
    # with 2 cells per side the wrapped columns of offsets -1 and 1 repeat;
    # the fold of the far faces may sum a wrapped entry in another order
    quad = gauss_rule(n_points, grid.dim)
    samples = rosseland_samples(grid, quad)
    mat, ref = assemble_stiffness(grid, samples, quad), coo_stiffness(grid, samples, quad)
    assert same_pattern(mat, ref)
    assert np.max(np.abs(mat.data - ref.data)) <= 2 * np.spacing(np.max(np.abs(ref.data)))


def test_stencil_pattern_is_cached_on_the_grid_and_read_only():
    for grid in (CellGrid(2, 4), MacroGrid(2, 4)):
        pattern = grid.stencil_pattern()
        assert grid.stencil_pattern() is pattern
        assert all(not arr.flags.writeable for arr in pattern)
        assert pattern[0].dtype == pattern[1].dtype == np.int32
        assert grid == type(grid)(2, 4)


def skewed_coeff(pts):
    # a skew part that varies: a constant one assembles to a symmetric
    # matrix on the periodic cell, where its form integrates to zero
    out = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
    out[:, 0, 1] = 0.3 + 0.2 * np.sin(2.0 * np.pi * pts[:, 0])
    return out


@pytest.mark.parametrize("grid", [MacroGrid(2, 8), CellGrid(2, 8)], ids=repr)
def test_assembly_rejects_an_asymmetric_coefficient(grid):
    with pytest.raises(AssemblyError, match="asymmetry"):
        assemble_stiffness(grid, skewed_coeff, gauss_rule(2, 2))


def test_1d_dirichlet_solve_matches_sparse_lu():
    grid = MacroGrid(1, 200)
    quad = gauss_rule(1, 1)
    mat = assemble_stiffness(grid, oscillating_coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.cos(3.0 * pts[:, 0]) + 2.0)
    free = grid.interior_dofs()
    ref = sp.linalg.spsolve(mat[free][:, free].tocsc(), rhs[free])
    sol = solve_dirichlet(mat, rhs, grid)
    assert np.max(np.abs(sol[free] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert sol[0] == sol[-1] == 0.0


def test_1d_dirichlet_solve_rejects_an_indefinite_system():
    grid = MacroGrid(1, 8)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), gauss_rule(1, 1))
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        solve_dirichlet(-mat, np.ones(grid.ndof), grid)
    shifted = (mat - sp.identity(grid.ndof) * 30.0).tocsr()  # past the lowest eigenvalue
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        solve_dirichlet(shifted, np.ones(grid.ndof), grid)


def newton_data(dim):
    model = RosselandCoefficient(
        dim, b=1.0, u_range=(0.0, 1.0), source=SourceModel(base=1.0, u_coeff=-2.0)
    )

    def fast(evaluator):
        return lambda u, pts: evaluator(u, pts, np.mod(4.0 * pts, 1.0))

    return [fast(f) for f in (model.eval_a, model.eval_da_du, model.eval_f, model.eval_df_du)]


@pytest.mark.parametrize("grid, n_points", [(MacroGrid(1, 12), 1), (MacroGrid(1, 12), 2),
                                             (MacroGrid(2, 6), 2), (MacroGrid(2, 6), 3)], ids=repr)
def test_linearize_jacobian_matches_residual_differences(grid, n_points):
    # each Jacobian column against central differences of the residual
    quad = gauss_rule(n_points, grid.dim)
    coeff, coeff_du, source, source_du = newton_data(grid.dim)
    x = grid.node_coords()
    state = 0.5 + 0.3 * np.prod(np.sin(np.pi * x), axis=1) + 0.05 * np.cos(7.0 * x[:, 0])
    jac, res = linearize(grid, quad, state, coeff, coeff_du, source, source_du)
    h = 1e-6
    dense = jac.toarray()
    for j in range(grid.ndof):
        bump = np.zeros(grid.ndof)
        bump[j] = h
        up = linearize(grid, quad, state + bump, coeff, coeff_du, source, source_du)[1]
        down = linearize(grid, quad, state - bump, coeff, coeff_du, source, source_du)[1]
        assert np.allclose(dense[:, j], (up - down) / (2 * h), rtol=0, atol=1e-6)
    assert np.max(np.abs(dense - dense.T)) > 1e-3  # the u-derivative terms are not symmetric


@pytest.mark.parametrize("grid", [MacroGrid(1, 40), MacroGrid(2, 16)], ids=repr)
def test_nonsymmetric_dirichlet_solve_matches_sparse_lu(grid):
    quad = gauss_rule(2, grid.dim)
    x = grid.node_coords()
    state = 0.5 + 0.4 * np.prod(np.sin(np.pi * x), axis=1)
    jac, res = linearize(grid, quad, state, *newton_data(grid.dim))
    free = grid.interior_dofs()
    ref = sp.linalg.spsolve(jac[free][:, free].tocsc(), res[free])
    sol = solve_dirichlet(jac, res, grid, symmetric=False)
    assert np.max(np.abs(sol[free] - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.all(sol[grid.boundary_dofs()] == 0.0)


def test_nonsymmetric_1d_dirichlet_solve_rejects_a_singular_system():
    grid = MacroGrid(1, 8)
    mat = sp.csr_matrix((grid.ndof, grid.ndof))
    with pytest.raises(NonConvergenceError, match="not nonsingular"):
        solve_dirichlet(mat, np.ones(grid.ndof), grid, symmetric=False)
