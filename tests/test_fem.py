import numpy as np
import pytest
import scipy.sparse as sp

from twoscale.coefficients import RosselandCoefficient
from twoscale.errors import AssemblyError, CompatibilityError, NonConvergenceError
from twoscale.fem import (
    SolverOptions,
    SparseSystem,
    _inverse_diagonal,
    _jacobi_pcg,
    _multigrid,
    assemble_load,
    assemble_load_from_samples,
    assemble_stiffness,
    element_quad_points,
    gauss_rule,
    q1_gradients,
    q1_values,
    solve_dirichlet,
    solve_periodic_zero_mean,
)
from twoscale.grids import CellGrid, MacroGrid


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
    sol = solve_dirichlet(SparseSystem(mat, np.zeros(grid.ndof)), grid)
    assert np.all(sol == 0.0)


def test_dirichlet_1d_poisson_nodally_exact():
    # -u'' = 1, u(0) = u(1) = 0 has u = x(1-x)/2; Q1 with exact load
    # integration reproduces it at the nodes
    grid = MacroGrid(dim=1, cells_per_side=8)
    quad = gauss_rule(2, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    sol = solve_dirichlet(SparseSystem(mat, rhs), grid)
    x = grid.node_coords()[:, 0]
    assert np.max(np.abs(sol - 0.5 * x * (1.0 - x))) < 1e-9


def test_dirichlet_inhomogeneous_data():
    # Laplace with u(0) = 1, u(1) = 3 has the affine solution 1 + 2x,
    # reproduced exactly at the nodes
    grid = MacroGrid(dim=1, cells_per_side=8)
    quad = gauss_rule(2, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    sol = solve_dirichlet(
        SparseSystem(mat, np.zeros(grid.ndof)), grid,
        boundary_values={0: 1.0, grid.ndof - 1: 3.0},
    )
    x = grid.node_coords()[:, 0]
    assert np.max(np.abs(sol - (1.0 + 2.0 * x))) < 1e-9
    assert sol[0] == 1.0 and sol[-1] == 3.0  # data imposed exactly


def test_pcg_small_spd_system():
    import scipy.sparse as sp

    mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    inv_diag = _inverse_diagonal(mat)
    x, rel, its = _jacobi_pcg(
        mat, np.array([1.0, 2.0]), 1e-12, 50, lambda r: inv_diag * r
    )
    assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-10)


def test_pcg_iteration_cap():
    # 1-D systems are solved directly; the CG budget applies in 2-D
    grid = MacroGrid(dim=2, cells_per_side=16)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, const_coeff(1.0, 2), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(SparseSystem(mat, rhs), grid, 0.0, SolverOptions(max_iter=2))
    assert err.value.residual is not None


def test_periodic_zero_rhs():
    grid = CellGrid(dim=1, cells_per_side=8)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), gauss_rule(2, 1))
    sol = solve_periodic_zero_mean(SparseSystem(mat, np.zeros(grid.ndof)), grid)
    assert np.all(sol == 0.0)


def test_periodic_incompatible_rhs_raises():
    grid = CellGrid(dim=1, cells_per_side=16)
    quad = gauss_rule(2, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    with pytest.raises(CompatibilityError):
        solve_periodic_zero_mean(SparseSystem(mat, rhs), grid)


def test_periodic_flux_solve_against_antiderivative():
    # int N' phi' = int B phi' with B = sin(2 pi y) forces N' = sin(2 pi y),
    # so N(y) = -cos(2 pi y) / (2 pi) after recentring; nodal match is O(h^2)
    grid = CellGrid(dim=1, cells_per_side=64)
    quad = gauss_rule(1, 1)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), quad)
    rhs = assemble_load(
        grid, quad, flux_fn=lambda pts: np.sin(2.0 * np.pi * pts)
    )
    sol = solve_periodic_zero_mean(SparseSystem(mat, rhs), grid)
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
    sol = solve_periodic_zero_mean(SparseSystem(mat, rhs), grid)
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
        return solve_dirichlet(SparseSystem(mat, rhs), grid)

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
    direct = solve_dirichlet(SparseSystem(mat, rhs), grid)
    free = grid.interior_dofs()
    reduced = mat[free][:, free].tocsr()
    inv_diag = _inverse_diagonal(reduced)
    x_free, _, _ = _jacobi_pcg(
        reduced, rhs[free], 1e-14, 10 * len(free), lambda r: inv_diag * r
    )
    assert np.max(np.abs(direct[free] - x_free)) <= 1e-9 * np.max(np.abs(x_free))
    assert np.all(direct[grid.boundary_dofs()] == 0.0)

    cell = CellGrid(dim=1, cells_per_side=64)
    mat = assemble_stiffness(cell, oscillating_coeff, quad)
    rhs = assemble_load(cell, quad, flux_fn=lambda pts: np.sin(2.0 * np.pi * pts))
    direct = solve_periodic_zero_mean(SparseSystem(mat, rhs), cell)

    def project(v):
        return v - v.mean()

    inv_diag = _inverse_diagonal(mat)
    x, _, _ = _jacobi_pcg(
        mat, project(rhs), 1e-14, 10 * cell.ndof, lambda r: project(inv_diag * r)
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
    sol = solve_periodic_zero_mean(SparseSystem(mat, rhs), cell)
    assert abs(sol.mean()) <= 1e-15 * np.max(np.abs(sol))
    residual = np.abs(mat @ sol - (rhs - rhs.mean()))
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

    # precomputed samples take the same kernel as the evaluator
    pts = element_quad_points(grid, quad)
    samples = coeff(pts.reshape(-1, grid.dim)).reshape(pts.shape[:2] + (grid.dim, grid.dim))
    assert np.array_equal(assemble_stiffness(grid, samples, quad).toarray(), mat)

    scal = np.sin(2.0 * np.pi * pts.sum(axis=-1)) + 0.25
    flux = np.cos(2.0 * np.pi * pts) * np.arange(1.0, grid.dim + 1.0)
    load = assemble_load_from_samples(grid, quad, scal, flux)
    ref = reference_load(grid, quad, scal, flux)
    assert np.max(np.abs(load - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_assembly_rejects_bad_shape_and_names_non_finite_element():
    grid = CellGrid(dim=2, cells_per_side=4)
    quad = gauss_rule(2, 2)
    with pytest.raises(AssemblyError, match="shape"):
        assemble_stiffness(grid, lambda pts: np.ones((len(pts), 2, 3)), quad)
    with pytest.raises(AssemblyError, match="shape"):
        assemble_stiffness(grid, np.ones((grid.n_elements, 3, 2, 2)), quad)

    samples = np.broadcast_to(np.eye(2), (grid.n_elements, 4, 2, 2)).copy()
    samples[5, 3, 0, 1] = np.inf
    with pytest.raises(AssemblyError, match="element 5"):
        assemble_stiffness(grid, samples, quad)

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
    sol = solve_dirichlet(SparseSystem(mat, rhs), grid, 0.0, SolverOptions(max_iter=max_iter))
    free = grid.interior_dofs()
    assert np.linalg.norm(mat[free] @ sol - rhs[free]) <= 1e-10 * np.linalg.norm(rhs[free])


def test_multigrid_falls_back_to_jacobi_on_a_large_odd_grid():
    # 67 cells cannot coarsen, and its 66 x 66 interior is too large to
    # factor as a coarsest level
    reduced, rhs = reduced_dirichlet_system(67)
    precond = _multigrid(reduced, 67)
    r = np.random.default_rng(5).standard_normal(reduced.shape[0])
    np.testing.assert_array_equal(precond(r), _inverse_diagonal(reduced) * r)
    x, rel, _ = _jacobi_pcg(reduced, rhs, 1e-10, 2000, precond)
    assert rel <= 1e-10
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))
