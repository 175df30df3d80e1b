import numpy as np
import pytest
import scipy.sparse as sp

from twoscale import fem
from twoscale.coefficients import RosselandCoefficient, SourceModel
from twoscale.errors import AssemblyError, CompatibilityError, NonConvergenceError
from twoscale.fem import (
    PeriodicFactor,
    _csr,
    _coarsen,
    _diagonals,
    _jacobi_pcg,
    _levels,
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
    period_stiffness,
    q1_gradients,
    q1_values,
    solve_dirichlet,
    solve_periodic_zero_mean,
)
from twoscale.grids import (CellGrid, MacroGrid, corner_offsets, interpolate_values, lattice_points,
                            stencil_pattern)


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
    # exact up to degree 2n - 1: the integral of x^3 over [0,1] is 1/4
    rule = gauss_rule(2, 1)
    assert rule.points[:, 0] ** 3 @ rule.weights == pytest.approx(0.25, abs=1e-14)


def looped_q1_gradients(xi):
    """Q1 reference gradients, corner by corner and axis by axis: the product
    of -1 or 1 along the derivative's axis and 1 - xi or xi along the others."""
    xi = np.atleast_2d(xi)
    dim = xi.shape[1]
    offs = corner_offsets(dim)
    grads = np.ones((xi.shape[0], offs.shape[0], dim))
    for c, off in enumerate(offs):
        for d in range(dim):
            for e, bit in enumerate(off):
                if e == d:
                    grads[:, c, d] *= 1.0 if bit else -1.0
                else:
                    grads[:, c, d] *= xi[:, e] if bit else 1.0 - xi[:, e]
    return grads


@pytest.mark.parametrize("dim", [1, 2])
def test_q1_gradients_equal_the_corner_loop_bitwise(dim):
    # Gauss rules of 1-4 points, random points and the element's corners
    rng = np.random.default_rng(dim)
    point_sets = [gauss_rule(n, dim).points for n in (1, 2, 3, 4)]
    point_sets += [rng.uniform(0.0, 1.0, size=(50, dim)), corner_offsets(dim).astype(float)]
    for xi in point_sets:
        assert np.array_equal(q1_gradients(xi), looped_q1_gradients(xi))


def test_1d_stiffness_matches_hand_assembly():
    # element matrix (a/h) [[1,-1],[-1,1]] assembled over two cells
    grid = MacroGrid(dim=1, cells_per_side=2)
    a = 3.0
    mat = _csr(assemble_stiffness(grid, const_coeff(a, 1), gauss_rule(2, 1))).toarray()
    k = a / grid.spacing
    expected = k * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.max(np.abs(mat - expected)) < 1e-12


def test_2d_q1_laplacian_element_entries():
    # closed-form Q1 Laplacian element matrix (scale-invariant in 2-D):
    # diagonal 2/3, corner-opposite -1/3, edge-neighbor -1/6
    grid = MacroGrid(dim=2, cells_per_side=2)
    mat = _csr(assemble_stiffness(grid, const_coeff(1.0, 2), gauss_rule(2, 2))).toarray()
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
    x = lattice_points(grid.axes())[:, 0]
    assert np.max(np.abs(sol - 0.5 * x * (1.0 - x))) < 1e-9


def test_pcg_small_spd_system():
    import scipy.sparse as sp

    mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    inv_diag = 1.0 / mat.diagonal()
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


def test_pcg_iteration_cap(monkeypatch):
    # 1-D systems are solved directly; the CG budget applies in 2-D
    grid = MacroGrid(dim=2, cells_per_side=16)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, const_coeff(1.0, 2), quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    monkeypatch.setattr(fem, "_krylov_budget", lambda n_free: 2)
    with pytest.raises(NonConvergenceError) as err:
        solve_dirichlet(mat, rhs, grid)
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
    reduced = _csr(mat)[free][:, free].tocsr()
    inv_diag = 1.0 / reduced.diagonal()
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

    inv_diag = 1.0 / mat.diagonal()
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

    inv_diag = 1.0 / mat.diagonal()
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


def as_csr(grid, operator):
    """A box grid's operator, its stencil, as a CSR matrix; a cell grid's is one."""
    return _csr(operator) if isinstance(grid, MacroGrid) else operator


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
    mat = as_csr(grid, assemble_stiffness(grid, coeff, quad)).toarray()
    ref = reference_stiffness(grid, coeff, quad)
    assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))

    # precomputed samples of every element take the same kernel as the evaluator
    pts = element_quad_points(grid, quad)
    samples = coeff(pts.reshape(-1, grid.dim)).reshape(pts.shape[:2] + (grid.dim, grid.dim))
    period = assemble_stiffness(grid, as_period(grid, samples), quad)
    assert np.array_equal(as_csr(grid, period).toarray(), mat)

    scal = np.sin(2.0 * np.pi * pts.sum(axis=-1)) + 0.25
    flux = np.cos(2.0 * np.pi * pts) * np.arange(1.0, grid.dim + 1.0)
    load = assemble_load_from_samples(grid, quad, as_period(grid, scal), as_period(grid, flux))
    ref = reference_load(grid, quad, scal, flux)
    assert np.max(np.abs(load - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=repr)
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_quadrature_gradients_match_einsum_reference(grid, n_points):
    quad = gauss_rule(n_points, grid.dim)
    coords = grid.dof_coords() if isinstance(grid, CellGrid) else lattice_points(grid.axes())
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


@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_rule_is_cached_and_read_only(dim):
    # every caller shares one rule per (n_points, dim), so no caller may write it
    quad = gauss_rule(2, dim)
    assert gauss_rule(2, dim) is quad and gauss_rule(3, dim) is not quad
    for arr in (quad.points, quad.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5


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
    x = lattice_points(grid.axes())
    state = 0.5 + 0.4 * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, -1])
    quad = gauss_rule(n_points, grid.dim)
    calls = []

    def coeff(u, pts):
        calls.append(len(pts))
        return model.eval_a(u, pts, np.mod(4.0 * pts, 1.0))

    def source(u, pts):
        return model.eval_f(u, pts, np.mod(4.0 * pts, 1.0))

    def data(u, pts):  # the u-derivatives zeroed
        return (coeff(u, pts), np.zeros((len(pts), grid.dim, grid.dim)),
                source(u, pts), np.zeros(len(pts)))

    jac, res = linearize(grid, quad, state, data)
    assert calls == [grid.n_elements] * len(quad.weights)

    def located(fn):
        return lambda pts: fn(interpolate_values(grid, state, pts), pts)

    ref = assemble_stiffness(grid, located(coeff), quad)
    assert abs(jac - ref).max() <= 1e-14 * abs(ref).max()
    flux_part = _csr(ref) @ state
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


def dirichlet_system(cells, coeff=checkerboard_coeff):
    """The box stencil of ``coeff`` on ``cells`` cells per side and its interior load."""
    grid = MacroGrid(dim=2, cells_per_side=cells)
    quad = gauss_rule(2, 2)
    stencil = assemble_stiffness(grid, coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: 1.0 + pts[:, 0] * pts[:, 1])
    return stencil, rhs[grid.interior_dofs()]


@pytest.mark.parametrize("cells", [32, 64, 128, 256])
def test_multigrid_pcg_iterations_flat_and_match_lu(cells):
    stencil, rhs = dirichlet_system(cells)
    reduced, precond = _multigrid([stencil], cells)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, precond)
    assert rel <= 1e-10
    assert its <= 12
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_box_levels_read_no_stencil_pattern_and_keep_solve_bytes():
    # 32 cells coarsen to 16 and 8; only the coarsest level, 4 cells, is a
    # CSR matrix, whose 3 x 3 interior nodes are the nodes of a 2-cell box
    stencil_pattern.cache_clear()
    stencil, rhs = dirichlet_system(32)
    reduced, precond = _multigrid([stencil], 32)
    assert isinstance(reduced, sp.dia_matrix)
    stencil_pattern(2, 2, False)
    assert stencil_pattern.cache_info().currsize == 1
    fresh = _jacobi_pcg(reduced, rhs, 1e-10, 100, precond)[0]
    # a second hierarchy, and CG on the interior's CSR matrix, give the same bytes
    reduced, precond = _multigrid([stencil], 32)
    assert _jacobi_pcg(reduced, rhs, 1e-10, 100, precond)[0].tobytes() == fresh.tobytes()
    free = MacroGrid(2, 32).interior_dofs()
    csr = _csr(stencil)[free][:, free].tocsr()
    assert _jacobi_pcg(csr, rhs, 1e-10, 100, precond)[0].tobytes() == fresh.tobytes()


def interior_prolongation(cells):
    """Bilinear interpolation from the interior nodes of the ``cells // 2``
    box grid to those of the ``cells`` box grid, "ij" order, as a sparse
    Kronecker product of the one-axis weights 1/2, 1, 1/2."""
    coarse = np.arange(cells // 2 - 1)
    fine = 2 * coarse + 1  # fine interior index of each coarse node
    rows = np.stack([fine - 1, fine, fine + 1], axis=1).reshape(-1)
    p1 = sp.csr_matrix((np.tile([0.5, 1.0, 0.5], len(coarse)), (rows, np.repeat(coarse, 3))),
                       shape=(cells - 1, len(coarse)))
    return sp.kron(p1, p1, format="csr")


def newton_jacobian(cells):
    grid = MacroGrid(2, cells)
    x = lattice_points(grid.axes())
    state = 0.5 + 0.4 * np.prod(np.sin(np.pi * x), axis=1)
    return linearize(grid, gauss_rule(2, 2), state, newton_data(2))[0]


@pytest.mark.parametrize("cells", [16, 24, 40, 64])
@pytest.mark.parametrize("coeff", [checkerboard_coeff, DIAGONAL_10_1, FULL_TENSOR, None],
                         ids=COEFF_IDS + ["newton_jacobian"])
def test_stencil_galerkin_levels_match_sparse_products(cells, coeff):
    # every level against P^T A P of the level above, A read from its stencil
    stencil = newton_jacobian(cells) if coeff is None else dirichlet_system(cells, coeff)[0]
    stencil = stencil[:, :, 1:-1, 1:-1]  # its couplings to the boundary reach no level
    levels, fine_cells = 0, cells
    while cells % 2 == 0 and cells >= 8:
        prol = interior_prolongation(cells)
        ref = (prol.T @ _csr(stencil) @ prol).toarray()
        stencil = _coarsen(stencil)
        cells //= 2
        assert stencil.shape == (3, 3, cells - 1, cells - 1)
        got = _csr(stencil).toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        levels += 1
    assert levels == {16: 2, 24: 2, 40: 3, 64: 4}[fine_cells]


@pytest.mark.parametrize("cells", [16, 24, 40, 64])
@pytest.mark.parametrize("coeff", [checkerboard_coeff, DIAGONAL_10_1, FULL_TENSOR, None],
                         ids=COEFF_IDS + ["newton_jacobian"])
def test_diagonal_levels_are_the_reduced_box_matrix_bit_for_bit(cells, coeff):
    # the finest level against the interior rows and columns of the box's
    # CSR matrix, every coarser one that is not the coarsest against its
    # stencil's: entries, and products on random vectors
    stencil = newton_jacobian(cells) if coeff is None else dirichlet_system(cells, coeff)[0]
    free = MacroGrid(2, cells).interior_dofs()
    levels = [(_multigrid([stencil], cells)[0], _csr(stencil)[free][:, free].tocsr())]
    interior, fine_cells = stencil[:, :, 1:-1, 1:-1], cells
    while True:
        interior, cells = _coarsen(interior), cells // 2
        if cells % 2 or cells < 8:
            break
        levels.append((_diagonals(interior), _csr(interior)))
    rng = np.random.default_rng(cells)
    for level, ref in levels:
        assert isinstance(level, sp.dia_matrix)
        assert np.array_equal(level.toarray(), ref.toarray())
        for _ in range(3):
            x = rng.standard_normal(ref.shape[0]) * 10.0 ** rng.integers(-4, 4, ref.shape[0])
            assert (level @ x).tobytes() == (ref @ x).tobytes()
    assert len(levels) == {16: 2, 24: 2, 40: 3, 64: 4}[fine_cells]


def reduceat_weights(mat):
    """The smoother weights as a level's CSR matrix gave them: its absolute
    row sums by one ``np.add.reduceat`` over its entries."""
    sums = np.add.reduceat(np.abs(mat.data), mat.indptr[:-1])
    inv_diag = 1.0 / mat.diagonal()
    return fem._MG_OMEGA * min(1.0, 2.0 / float(np.max(inv_diag * sums))) * inv_diag


@pytest.mark.parametrize("cells", [16, 40, 64])
@pytest.mark.parametrize("coeff", [checkerboard_coeff, DIAGONAL_10_1, FULL_TENSOR], ids=COEFF_IDS)
def test_level_row_sums_and_weights_are_the_reduceat_ones_bitwise(cells, coeff):
    interior = dirichlet_system(cells, coeff)[0][:, :, 1:-1, 1:-1]
    while cells % 2 == 0 and cells >= 8:
        mat = _csr(interior)
        sums = np.add.reduceat(np.abs(mat.data), mat.indptr[:-1])
        assert fem._abs_row_sums(interior).tobytes() == sums.tobytes()
        assert fem._smoother_weights(interior).tobytes() == reduceat_weights(mat).tobytes()
        interior, cells = _coarsen(interior), cells // 2


@pytest.mark.parametrize("cells", [24, 40, 15])
def test_multigrid_on_grids_that_stop_coarsening_early(cells):
    # 24 cells stop at a 6-cell coarsest level (too small to halve), 40 at
    # an odd 5-cell one; 15 cells never coarsen, so the preconditioner is
    # the exact solve and CG stops after one step
    stencil, rhs = dirichlet_system(cells)
    reduced, precond = _multigrid([stencil], cells)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, precond)
    assert its <= (1 if cells == 15 else 12)
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs)
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "coeff", [checkerboard_coeff, DIAGONAL_10_1, FULL_TENSOR], ids=COEFF_IDS
)
def test_multigrid_preconditioner_symmetric_positive(coeff):
    # 16 cells coarsen twice; the preconditioner as a dense 225 x 225 matrix
    reduced, precond = _multigrid([dirichlet_system(16, coeff)[0]], 16)
    dense = np.column_stack([precond(e) for e in np.eye(reduced.shape[0])])
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    assert np.linalg.eigvalsh(dense).min() > 0.0


# measured 8, 20 and 17 steps; Jacobi-PCG takes 123, 210 and 234
@pytest.mark.parametrize(
    "coeff, max_iter",
    [(checkerboard_coeff, 12), (DIAGONAL_10_1, 40), (FULL_TENSOR, 40)],
    ids=COEFF_IDS,
)
def test_dirichlet_2d_solve_uses_multigrid_iterations(monkeypatch, coeff, max_iter):
    grid = MacroGrid(dim=2, cells_per_side=64)
    quad = gauss_rule(2, 2)
    mat = assemble_stiffness(grid, coeff, quad)
    rhs = assemble_load(grid, quad, scalar_fn=lambda pts: np.ones(len(pts)))
    monkeypatch.setattr(fem, "_krylov_budget", lambda n_free: max_iter)
    sol = solve_dirichlet(mat, rhs, grid)
    free = grid.interior_dofs()
    residual = _csr(mat)[free] @ sol - rhs[free]
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs[free])


def test_multigrid_factors_the_coarsest_level_of_an_odd_grid():
    # 67 cells cannot coarsen, so the preconditioner is the exact inverse of
    # the 66 x 66 interior operator and CG stops after one step
    stencil, rhs = dirichlet_system(67)
    reduced, precond = _multigrid([stencil], 67)
    x, rel, its = _jacobi_pcg(reduced, rhs, 1e-10, 100, precond)
    assert its == 1 and rel <= 1e-10
    # 536 = 8 * 67 cells coarsen three times to the same 67-cell level;
    # measured 8 steps
    stencil, rhs = dirichlet_system(536)
    reduced, precond = _multigrid([stencil], 536)
    x, rel, _ = _jacobi_pcg(reduced, rhs, 1e-10, 10, precond)
    assert rel <= 1e-10
    # minimum degree ordering factors this grid in half the time of COLAMD
    exact = sp.linalg.spsolve(reduced.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))


def periodic_samples(p, quad, tensor):
    """Coefficient samples of one period of ``p`` cells per side, (p, p, Q,
    2, 2): an oscillation of contrast 3 times ``tensor``."""
    y = element_quad_points(CellGrid(2, p), quad)
    sig = 2.0 + np.sin(2.0 * np.pi * y[..., 0]) * np.cos(2.0 * np.pi * y[..., 1])
    return (sig[..., None, None] * np.asarray(tensor)).reshape((p, p, len(quad.weights), 2, 2))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p, periods", [(8, 3), (16, 2), (16, 5), (32, 4)])
def test_period_stiffness_is_every_class_of_the_box_stencil_bitwise(dim, p, periods):
    # a box of 2P cells of the grid's spacing sums every class as the grid
    # does; 3 and 5 periods make the spacing no power-of-two multiple of 1/2P
    grid, quad = MacroGrid(dim, p * periods), gauss_rule(2, dim)
    samples = (periodic_samples(p, quad, [[3.0, 1.4], [1.4, 1.0]]) if dim == 2
               else np.linspace(1.0, 2.0, p * 2).reshape(p, 2, 1, 1))
    full, period = assemble_stiffness(grid, samples, quad), period_stiffness(grid, samples, quad)
    assert period.shape == (3,) * dim + (p,) * dim
    classes = np.arange(1, grid.cells_per_side) % p  # of the interior nodes
    interior = full[(Ellipsis,) + (slice(1, -1),) * dim]
    tiled = period[..., classes] if dim == 1 else period[:, :, classes[:, None], classes]
    assert tiled.tobytes() == interior.tobytes()
    # a non-finite sample is named by the grid's element, as the box names it
    bad = samples.copy()
    bad[(p - 1,) * dim + (0, 0, 0)] = np.nan
    with pytest.raises(AssemblyError) as box_error:
        assemble_stiffness(grid, bad, quad)
    with pytest.raises(AssemblyError, match=f"{box_error.value}$"):
        period_stiffness(grid, bad, quad)


# (P, cells): 8 to 32 classes on grids up to 256 cells; 536 = 8 x 67 cells
# stop at an odd 67-cell coarsest level, and periods of 12 and 10 turn odd
# (3 and 5) on coarse levels, 10 reaching a 5-cell coarsest level of P = 5
PERIOD_GRIDS = [(8, 64), (8, 128), (8, 256), (16, 64), (16, 256), (32, 64), (32, 128), (32, 256),
                (8, 536), (12, 48), (10, 40)]
TENSORS = {"isotropic": np.eye(2), "full_tensor": [[3.0, 1.4], [1.4, 1.0]]}


@pytest.mark.parametrize("tensor", TENSORS.values(), ids=TENSORS.keys())
@pytest.mark.parametrize("p, cells", PERIOD_GRIDS)
def test_period_levels_are_the_box_stencils_levels_bitwise(p, cells, tensor):
    # the hierarchy built from one period against the one built from the
    # box stencil: every level's diagonals, smoother weights and size, the
    # coarsest CSR matrix, and a V-cycle, byte for byte
    grid, quad = MacroGrid(2, cells), gauss_rule(2, 2)
    samples = periodic_samples(p, quad, tensor)
    full = assemble_stiffness(grid, samples, quad)
    want, want_coarsest = _levels([full], cells)
    got, got_coarsest = _levels([period_stiffness(grid, samples, quad)], cells)
    assert len(got) == len(want) > 0
    for (a, w, n), (ref_a, ref_w, ref_n) in zip(got, want):
        assert n == ref_n
        assert a.offsets.tobytes() == ref_a.offsets.tobytes()
        assert a.data.tobytes() == ref_a.data.tobytes()
        assert w.tobytes() == ref_w.tobytes()
    for attr in ("indptr", "indices", "data"):
        assert getattr(got_coarsest, attr).tobytes() == getattr(want_coarsest, attr).tobytes()
    r = np.random.default_rng(cells).standard_normal((cells - 1) ** 2)
    precond = _multigrid([period_stiffness(grid, samples, quad)], cells)[1]
    assert precond(r).tobytes() == _multigrid([full], cells)[1](r).tobytes()


# (class, band, seed): the first row of the 128-cell level is class 0, the
# last class 126 mod 32 = 30; the seeds put the maximum on that edge
@pytest.mark.parametrize("cls, band, seed", [(0, 0, 4), (30, 2, 10)], ids=["first_row", "last_row"])
def test_period_weights_read_the_maximum_on_an_edge_row_bitwise(cls, band, seed):
    # the largest absolute row sum can lie on an edge row of the box: a row
    # of a class that couples to nothing across that edge sums its terms from
    # left to right there, one ulp above the pairwise sum of the same class
    # inside.  The weights of the tiled box see it, as the whole level's CSR
    # matrix does
    rng = np.random.default_rng(seed)
    period = rng.random((3, 3, 32, 32)) * 10.0 ** rng.integers(-3, 1, (3, 3, 32, 32))
    period[1, 1] = 1.0 + rng.random((32, 32))
    period[:, :, cls] *= 4.0  # this class's rows have the largest sums
    period[1, 1, cls] /= 4.0
    period[band, :, cls] = 0.0
    level = fem._tile_level(period, 127)  # 127 interior nodes per side
    sums = (fem._abs_row_sums(level) / level[1, 1].reshape(-1)).reshape(127, 127)
    inner = sums[1:-1, 1:-1].max()
    assert 2.0 / sums.max() < 2.0 / inner < 1.0  # the edge sets the weight
    want = reduceat_weights(_csr(level))
    assert fem._smoother_weights(period, 127).tobytes() == want.tobytes()


def test_box_stencil_is_freed_once_the_finest_level_is_built(monkeypatch):
    # a stencil that only the hierarchy holds is alive while the finest
    # level is coarsened, and gone before the next level is
    import weakref

    stencil = dirichlet_system(32)[0]
    alive, original = [], fem._coarsen

    def coarsen(*args):
        alive.append(box() is not None)
        return original(*args)

    monkeypatch.setattr(fem, "_coarsen", coarsen)
    box, handed = weakref.ref(stencil), [stencil]
    del stencil
    levels, _ = _levels(handed, 32)
    assert len(levels) == 3 and alive == [True, False, False]


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
    mat, ref = _csr(assemble_stiffness(grid, samples, quad)), coo_stiffness(grid, samples, quad)
    assert same_pattern(mat, ref)
    assert np.array_equal(mat.data, ref.data)


@pytest.mark.parametrize("grid, chunk", [(MacroGrid(1, 101), 20), (MacroGrid(2, 13), 50)], ids=repr)
def test_stencil_kernel_chunks_change_no_bit(monkeypatch, grid, chunk):
    # 101 rows in chunks of at most 20, 13 rows of 13 in chunks of at most 3
    # rows: several chunks, none a multiple of the other
    quad = gauss_rule(2, grid.dim)
    samples = rosseland_samples(grid, quad)
    ref = coo_stiffness(grid, samples, quad)
    assert np.array_equal(_csr(assemble_stiffness(grid, samples, quad)).data, ref.data)  # one chunk
    monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", chunk)
    calls = []

    def coeff(pts):
        calls.append(len(pts))
        return rosseland_coeff(grid.dim)(pts)

    for chunked in (assemble_stiffness(grid, samples, quad), assemble_stiffness(grid, coeff, quad)):
        chunked = _csr(chunked)
        assert same_pattern(chunked, ref)
        assert np.array_equal(chunked.data, ref.data)
    # every point evaluated once, in several chunks, none of a lone point
    assert len(calls) > len(quad.weights) and sum(calls) == grid.n_elements * len(quad.weights)
    assert min(calls) > 1


def test_stencil_kernel_bitwise_on_a_box_larger_than_one_chunk():
    grid = MacroGrid(1, 3 * fem._CHUNK_ELEMENTS + 7)
    quad = gauss_rule(1, 1)
    samples = rosseland_samples(grid, quad)
    mat, ref = _csr(assemble_stiffness(grid, samples, quad)), coo_stiffness(grid, samples, quad)
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


def spd_period(rng, period, dim, n_q):
    """Random symmetric positive definite samples of one period, (P,)*dim + (Q, dim, dim)."""
    g = rng.standard_normal((period,) * dim + (n_q, dim, dim))
    a = g @ np.swapaxes(g, -1, -2) + np.eye(dim)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


@pytest.mark.parametrize("grid, period, chunk", [
    (MacroGrid(1, 96), 8, None), (MacroGrid(1, 96), 48, 20), (MacroGrid(1, 96), 96, 20),
    (MacroGrid(2, 48), 8, None), (MacroGrid(2, 48), 24, 100), (MacroGrid(2, 48), 48, 100),
    (CellGrid(2, 24), 8, None), (CellGrid(2, 24), 24, 50),
], ids=repr)
def test_period_kernel_is_the_element_row_path_bitwise(monkeypatch, grid, period, chunk):
    # one period multiplied once and added over its copies, against its
    # samples tiled to every element, which the kernel multiplies chunk by
    # chunk of element rows (several chunks where one is patched), and on a
    # box against the scatter of the element matrices
    if chunk is not None:
        monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", chunk)
    quad = gauss_rule(2, grid.dim)
    rng = np.random.default_rng(period + grid.dim)
    samples = spd_period(rng, period, grid.dim, len(quad.weights))
    tiled = as_period(grid, every_element(grid, samples))
    got, ref = assemble_stiffness(grid, samples, quad), assemble_stiffness(grid, tiled, quad)
    if isinstance(grid, CellGrid):
        assert same_pattern(got, ref) and np.array_equal(got.data, ref.data)
        return
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(_csr(got).data, coo_stiffness(grid, tiled, quad).data)


@pytest.mark.parametrize("grid", [MacroGrid(2, 8), CellGrid(2, 8)], ids=repr)
def test_period_samples_name_the_first_element_that_reads_a_bad_class(grid):
    # a period of 4 on 8 cells: class (2, 3) is read first by element
    # 2 * 8 + 3 = 19, class (3, 0) by element 24
    quad = gauss_rule(2, 2)
    a = np.broadcast_to(np.eye(2), (4, 4, 4, 2, 2)).copy()
    a[3, 0, 2] = np.nan
    a[2, 3, 1, 0, 1] = a[2, 3, 1, 1, 0] = np.inf  # off the diagonal
    with pytest.raises(AssemblyError, match="coefficient at element 19$"):
        assemble_stiffness(grid, a, quad)
    with pytest.raises(AssemblyError, match="scalar source at element 24$"):
        assemble_load_from_samples(grid, quad, a[..., 0, 0])
    with pytest.raises(AssemblyError, match="flux source at element 19$"):
        assemble_load_from_samples(grid, quad, flux_samples=a[..., 1])


def test_stencil_pattern_is_cached_per_lattice_and_read_only():
    for periodic in (True, False):
        pattern = stencil_pattern(2, 4, periodic=periodic)
        assert stencil_pattern(2, 4, periodic=periodic) is pattern
        assert all(not arr.flags.writeable for arr in pattern)
        assert pattern[0].dtype == pattern[1].dtype == np.int32


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
    ref = sp.linalg.spsolve(_csr(mat)[free][:, free].tocsc(), rhs[free])
    sol = solve_dirichlet(mat, rhs, grid)
    assert np.max(np.abs(sol[free] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert sol[0] == sol[-1] == 0.0


def test_1d_dirichlet_solve_rejects_an_indefinite_system():
    grid = MacroGrid(1, 8)
    mat = assemble_stiffness(grid, const_coeff(1.0, 1), gauss_rule(1, 1))
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        solve_dirichlet(-mat, np.ones(grid.ndof), grid)
    shifted = mat.copy()
    shifted[1] -= 30.0  # the diagonal, past the lowest eigenvalue
    with pytest.raises(NonConvergenceError, match="not positive definite"):
        solve_dirichlet(shifted, np.ones(grid.ndof), grid)


def newton_data(dim):
    model = RosselandCoefficient(
        dim, b=1.0, u_range=(0.0, 1.0), source=SourceModel(base=1.0, u_coeff=-2.0)
    )

    def data(u, pts):
        y = np.mod(4.0 * pts, 1.0)
        return (model.eval_a(u, pts, y), model.eval_da_du(u, pts, y),
                model.eval_f(u, pts, y), model.eval_df_du(u, pts, y))

    return data


@pytest.mark.parametrize("grid, n_points", [(MacroGrid(1, 12), 1), (MacroGrid(1, 12), 2),
                                             (MacroGrid(2, 6), 2), (MacroGrid(2, 6), 3)], ids=repr)
def test_linearize_jacobian_matches_residual_differences(grid, n_points):
    # each Jacobian column against central differences of the residual
    quad = gauss_rule(n_points, grid.dim)
    data = newton_data(grid.dim)
    x = lattice_points(grid.axes())
    state = 0.5 + 0.3 * np.prod(np.sin(np.pi * x), axis=1) + 0.05 * np.cos(7.0 * x[:, 0])
    jac, res = linearize(grid, quad, state, data)
    h = 1e-6
    dense = _csr(jac).toarray()
    for j in range(grid.ndof):
        bump = np.zeros(grid.ndof)
        bump[j] = h
        up = linearize(grid, quad, state + bump, data)[1]
        down = linearize(grid, quad, state - bump, data)[1]
        assert np.allclose(dense[:, j], (up - down) / (2 * h), rtol=0, atol=1e-6)
    assert np.max(np.abs(dense - dense.T)) > 1e-3  # the u-derivative terms are not symmetric


@pytest.mark.parametrize("grid", [MacroGrid(1, 40), MacroGrid(2, 16)], ids=repr)
def test_nonsymmetric_dirichlet_solve_matches_sparse_lu(monkeypatch, grid):
    # a 2-D Jacobian goes to GMRES, preconditioned by its stencil V-cycle
    gmres, calls = fem.spla.gmres, []
    monkeypatch.setattr(fem.spla, "gmres", lambda *args, **kw: calls.append(1) or gmres(*args, **kw))
    quad = gauss_rule(2, grid.dim)
    x = lattice_points(grid.axes())
    state = 0.5 + 0.4 * np.prod(np.sin(np.pi * x), axis=1)
    jac, res = linearize(grid, quad, state, newton_data(grid.dim))
    free = grid.interior_dofs()
    ref = sp.linalg.spsolve(_csr(jac)[free][:, free].tocsc(), res[free])
    sol = solve_dirichlet(jac, res, grid, symmetric=False)
    assert np.max(np.abs(sol[free] - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.all(sol[grid.boundary_dofs()] == 0.0)
    assert len(calls) == (grid.dim == 2)


def test_nonsymmetric_1d_dirichlet_solve_rejects_a_singular_system():
    grid = MacroGrid(1, 8)
    mat = np.zeros((3, grid.ndof))
    with pytest.raises(NonConvergenceError, match="not nonsingular"):
        solve_dirichlet(mat, np.ones(grid.ndof), grid, symmetric=False)


def every_element(grid, period):
    """Samples of one period, (P,)*dim + ..., tiled to every element, (E, ...)."""
    reps = (grid.cells_per_side // len(period),) * grid.dim + (1,) * (period.ndim - grid.dim)
    return np.tile(period, reps).reshape((grid.n_elements,) + period.shape[grid.dim:])


def bincount_load(grid, quad, scalar=None, flux=None):
    """The load as one scatter of every element vector by ``bincount``."""
    dofs = grid.element_dofs()
    n_el, n_loc = dofs.shape
    h = grid.spacing
    weights = quad.weights * h**grid.dim
    local = np.zeros((n_el, n_loc))
    if scalar is not None:
        s = every_element(grid, scalar)
        local += s @ (weights[:, None] * quad.basis)
    if flux is not None:
        b = every_element(grid, flux)
        ref = weights[:, None, None] * np.swapaxes(quad.basis_gradients / h, 1, 2)
        local += b.reshape(n_el, -1) @ ref.reshape(-1, n_loc)
    return np.bincount(dofs.reshape(-1), weights=local.reshape(-1), minlength=grid.ndof)


@pytest.mark.parametrize("dim, cells, period, chunk", [
    (1, 40, 8, None), (1, 1024, 64, None), (1, 1000, 8, 100), (1, 64, 64, 7),
    (2, 64, 8, None), (2, 256, 16, None), (2, 48, 16, 100), (2, 40, 40, 90),
])
def test_chunked_load_is_the_bincount_scatter_bitwise(monkeypatch, dim, cells, period, chunk):
    # element-row chunks added by shifted slices, corner C - 1 down to 0, sum
    # every node's element terms from 0 in element order, as bincount does
    # (256 cells per side in 2-D, and every patched chunk size, make several
    # chunks)
    if chunk is not None:
        monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(cells + dim)
    grid = MacroGrid(dim, cells)
    for quad in (gauss_rule(1 if dim == 1 else 2, dim), gauss_rule(3, dim)):
        shape = (period,) * dim + (len(quad.weights),)
        scalar = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        flux = rng.standard_normal(shape + (dim,)) * 10.0 ** rng.integers(-8, 8, shape + (dim,))
        scalar.reshape(-1)[::7] = -0.0
        flux.reshape(-1)[::5] = -0.0
        for s, b in ((scalar, None), (None, flux), (scalar, flux), (-0.0 * scalar, None)):
            got = assemble_load_from_samples(grid, quad, s, b)
            assert got.tobytes() == bincount_load(grid, quad, s, b).tobytes()


def test_chunked_load_names_the_first_bad_element(monkeypatch):
    monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", 16)
    grid, quad = MacroGrid(2, 8), gauss_rule(2, 2)
    scalar = np.ones((8, 8, 4))
    scalar[5, 3, 1] = np.nan
    with pytest.raises(AssemblyError, match="element 43"):
        assemble_load_from_samples(grid, quad, scalar)


def test_band_row_sums_are_the_reduceat_sums_bitwise(monkeypatch):
    # the band sums, a block of lattice rows at a time, are the sums of one
    # reduceat over the whole CSR matrix: blocks of one row, of three and of
    # all 21, on entries spread over twelve decades
    rng = np.random.default_rng(9)
    stencil = rng.standard_normal((3, 3, 21, 21)) * 10.0 ** rng.integers(-6, 6, (3, 3, 21, 21))
    stencil[1, 1] = 1.0 + rng.random((21, 21))  # a positive diagonal
    mat = _csr(stencil)
    whole = np.add.reduceat(np.abs(mat.data), mat.indptr[:-1])
    assert np.max(whole / mat.diagonal()) > 2.0  # the sums set the weight
    for chunk in (7, 64, 1 << 15):
        monkeypatch.setattr(fem, "_CHUNK_ELEMENTS", chunk)
        assert fem._abs_row_sums(stencil).tobytes() == whole.tobytes()
        assert fem._smoother_weights(stencil).tobytes() == reduceat_weights(mat).tobytes()


def stacked_linearize(grid, quad, state, data):
    """The linearization with every read kept, stacked and concatenated into
    the Jacobian rows: the reference for the rows written read by read."""
    pts = element_quad_points(grid, quad)
    u_q = fem.field_values_at_quad(grid, state, quad)
    reads = [data(u_q[:, q], pts[:, q]) for q in range(pts.shape[1])]
    a, da, f, df = (np.stack(column, axis=1) for column in zip(*reads))
    grad = field_gradients_at_quad(grid, state, quad)
    residual = assemble_load_from_samples(
        grid, quad, as_period(grid, -f), as_period(grid, np.einsum("eqij,eqj->eqi", a, grad)))
    rows = np.concatenate([x.reshape(len(a), -1)
                           for x in (a, -df, np.einsum("eqij,eqj->eqi", da, grad))], axis=1)
    weights = quad.weights * grid.spacing**grid.dim
    grads = quad.basis_gradients / grid.spacing
    n_q, _, dim = grads.shape
    ref = np.concatenate([
        _stiffness_reference(grid, quad),
        np.einsum("q,qb,qc->qbc", weights, quad.basis, quad.basis).reshape(n_q, -1),
        np.einsum("q,qbi,qc->qibc", weights, grads, quad.basis).reshape(n_q * dim, -1),
    ])
    return fem._stencil_operator(grid, ref, rows.__getitem__, grid.cells_per_side), residual


@pytest.mark.parametrize("grid, n_points", [(MacroGrid(1, 12), 1), (MacroGrid(1, 33), 2),
                                             (MacroGrid(2, 6), 2), (MacroGrid(2, 16), 3),
                                             (MacroGrid(2, 300), 3)], ids=repr)
def test_newton_rows_are_the_stacked_reads_bitwise(grid, n_points):
    # 1-D, and 2-D with the 3-point rule of a u-dependent Rosseland model,
    # on a grid whose rows the stencil kernel takes in several chunks
    quad = gauss_rule(n_points, grid.dim)
    data = newton_data(grid.dim)
    x = lattice_points(grid.axes())
    state = 0.5 + 0.6 * np.prod(np.sin(np.pi * x), axis=1) - 0.3 * np.cos(7.0 * x[:, 0])
    jac, res = linearize(grid, quad, state, data)
    want_jac, want_res = stacked_linearize(grid, quad, state, data)
    assert jac.tobytes() == want_jac.tobytes() and res.tobytes() == want_res.tobytes()
    if grid.cells_per_side == 300:
        assert len(fem._passes(grid, grid.cells_per_side)) > 1


def test_reference_arrays_are_formed_once_per_grid_and_rule():
    # the stiffness, Jacobian, load and gradient reference tensors and the
    # node axes: one read-only array per grid object and rule, formed anew
    # for an equal grid object, equal to a fresh build
    quad, other = gauss_rule(2, 2), gauss_rule(3, 2)
    builders = [fem._stiffness_reference, fem._jacobian_reference, fem._scalar_load_reference,
                fem._flux_load_reference, fem._gradient_reference]
    for cls in (CellGrid, MacroGrid):
        grid, twin = cls(2, 8), cls(2, 8)
        for build in builders:
            ref = build(grid, quad)
            assert build(grid, quad) is ref and not ref.flags.writeable
            assert build(grid, other) is not ref and build(grid, other).shape != ref.shape
            fresh = build(twin, quad)
            assert fresh is not ref and fresh.tobytes() == build.__wrapped__(grid, quad).tobytes()
            assert ref.tobytes() == fresh.tobytes()
        axis = grid.axes()[0]
        assert grid.axes()[0] is axis and not axis.flags.writeable
        assert twin.axes()[0] is not axis and np.array_equal(twin.axes()[0], axis)
        assert grid == twin  # the caches take no part in equality
