import numpy as np
import pytest

from twoscale.errors import AssemblyError, CompatibilityError, NonConvergenceError
from twoscale.fem import (
    SolverOptions,
    SparseSystem,
    _jacobi_pcg,
    assemble_load,
    assemble_stiffness,
    gauss_rule,
    periodic_kernel_defect,
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
    x, rel, its = _jacobi_pcg(mat, np.array([1.0, 2.0]), 1e-12, 50)
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
    assert periodic_kernel_defect(mat) < 1e-12


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
    x_free, _, _ = _jacobi_pcg(reduced, rhs[free], 1e-14, 10 * len(free))
    assert np.max(np.abs(direct[free] - x_free)) <= 1e-9 * np.max(np.abs(x_free))
    assert np.all(direct[grid.boundary_dofs()] == 0.0)

    cell = CellGrid(dim=1, cells_per_side=64)
    mat = assemble_stiffness(cell, oscillating_coeff, quad)
    rhs = assemble_load(cell, quad, flux_fn=lambda pts: np.sin(2.0 * np.pi * pts))
    direct = solve_periodic_zero_mean(SparseSystem(mat, rhs), cell)

    def project(v):
        return v - v.mean()

    x, _, _ = _jacobi_pcg(mat, project(rhs), 1e-14, 10 * cell.ndof, project=project)
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
