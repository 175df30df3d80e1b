import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from twoscale.errors import OutOfDomainError
from twoscale.fem import gauss_rule, q1_values
from twoscale.grids import (
    CellGrid,
    MacroGrid,
    ScalarField,
    corner_offsets,
    fd_gradient,
    fd_hessian,
    grid_corners,
    interpolate_values,
    lattice_corners,
    lattice_points,
    tensor_corners,
)


def test_cell_grid_dof_count_and_spacing():
    grid = CellGrid(dim=2, cells_per_side=4)
    assert grid.ndof == 16
    assert grid.spacing == 0.25
    coords = grid.dof_coords()
    assert coords.shape == (16, 2)
    assert coords.max() == pytest.approx(0.75)  # far faces are identified


def test_periodic_map_identifies_opposite_faces():
    grid = CellGrid(dim=2, cells_per_side=4)
    dofs = grid.element_dofs()  # corners (0, 0), (0, 1), (1, 0), (1, 1)
    # the far corner (4, 2) of element (3, 2) is node (0, 2), the near corner
    # of element (0, 2), with identical remaining coords; likewise (2, 4)
    assert dofs[3 * 4 + 2, 2] == dofs[0 * 4 + 2, 0] == 0 * 4 + 2
    assert dofs[2 * 4 + 3, 1] == dofs[2 * 4 + 0, 0] == 2 * 4 + 0
    assert dofs[3 * 4 + 3, 3] == dofs[0, 0] == 0


def test_macro_boundary_dofs():
    grid = MacroGrid(dim=2, cells_per_side=4)
    mask = grid.boundary_mask()
    coords = lattice_points(grid.axes())
    on_bnd = np.any((coords == 0.0) | (coords == 1.0), axis=1)
    assert np.array_equal(mask, on_bnd)
    assert len(grid.interior_dofs()) == (4 - 1) ** 2


def test_scalar_field_validation():
    grid = CellGrid(dim=1, cells_per_side=4)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros(5))
    with pytest.raises(ValueError):
        ScalarField(grid, np.array([0.0, np.nan, 0.0, 0.0]))


def test_interpolate_reproduces_constants():
    grid = MacroGrid(dim=2, cells_per_side=4)
    fld = ScalarField(grid, np.full(grid.ndof, 3.7))
    value = interpolate_values(fld.grid, fld.values, [[0.31, 0.77]])[0]
    assert value == pytest.approx(3.7, abs=1e-14)


def test_interpolate_linear_reproduction_1d():
    grid = MacroGrid(dim=1, cells_per_side=2)
    fld = ScalarField(grid, lattice_points(grid.axes())[:, 0])
    assert interpolate_values(fld.grid, fld.values, [[0.25]])[0] == pytest.approx(0.25, abs=1e-15)


def test_interpolate_periodic_reduction():
    grid = CellGrid(dim=1, cells_per_side=4)
    fld = ScalarField(grid, grid.dof_coords()[:, 0])  # f(y) = y on [0,1), wrapped
    assert interpolate_values(fld.grid, fld.values, [[1.25]])[0] == pytest.approx(
        interpolate_values(fld.grid, fld.values, [[0.25]])[0], abs=1e-14
    )


def test_interpolate_exact_for_multilinear_fields():
    # x1*x2 is bilinear on every element, so interpolation reproduces it
    grid = MacroGrid(dim=2, cells_per_side=4)
    coords = lattice_points(grid.axes())
    fld = ScalarField(grid, 1.0 + 2.0 * coords[:, 0] * coords[:, 1] - coords[:, 1])
    rng = np.random.default_rng(23)
    pts = rng.random((40, 2))
    exact = 1.0 + 2.0 * pts[:, 0] * pts[:, 1] - pts[:, 1]
    out = interpolate_values(grid, fld.values, pts)
    assert np.max(np.abs(out - exact)) < 1e-13


def test_interpolate_node_round_trip():
    rng = np.random.default_rng(7)
    for grid in (CellGrid(2, 5), MacroGrid(2, 5)):
        vals = rng.standard_normal(grid.ndof)
        fld = ScalarField(grid, vals)
        pts = grid.dof_coords() if isinstance(grid, CellGrid) else lattice_points(grid.axes())
        out = interpolate_values(grid, vals, pts)
        assert np.max(np.abs(out - vals)) < 1e-13


def test_interpolate_periodic_shift_invariance():
    rng = np.random.default_rng(3)
    grid = CellGrid(dim=2, cells_per_side=8)
    vals = rng.standard_normal(grid.ndof)
    pts = rng.random((50, 2))
    base = interpolate_values(grid, vals, pts)
    for shift in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])):
        assert np.max(np.abs(interpolate_values(grid, vals, pts + shift) - base)) < 1e-12


def test_macro_out_of_domain():
    grid = MacroGrid(dim=1, cells_per_side=4)
    fld = ScalarField(grid, np.zeros(grid.ndof))
    with pytest.raises(OutOfDomainError):
        interpolate_values(fld.grid, fld.values, [[1.2]])


def test_fd_gradient_constant_and_affine():
    grid = MacroGrid(dim=2, cells_per_side=4)
    coords = lattice_points(grid.axes())
    g_const = fd_gradient(ScalarField(grid, np.full(grid.ndof, 2.0)))
    assert np.max(np.abs(g_const)) < 1e-14
    g_lin = fd_gradient(ScalarField(grid, coords[:, 0]))
    assert np.max(np.abs(g_lin[:, 0] - 1.0)) < 1e-13
    assert np.max(np.abs(g_lin[:, 1])) < 1e-14


def test_fd_gradient_quadratic_interior_value():
    # central difference is exact for quadratics: ((x+h)^2 - (x-h)^2)/2h = 2x
    grid = MacroGrid(dim=1, cells_per_side=4)
    coords = lattice_points(grid.axes())[:, 0]
    g = fd_gradient(ScalarField(grid, coords**2))
    node = np.nonzero(coords == 0.5)[0][0]
    assert g[node, 0] == pytest.approx(1.0, abs=1e-13)


def test_fd_hessian_quadratics():
    grid = MacroGrid(dim=2, cells_per_side=8)
    coords = lattice_points(grid.axes())
    h_aff = fd_hessian(ScalarField(grid, 1.0 + 2.0 * coords[:, 0] - coords[:, 1]))
    assert np.max(np.abs(h_aff)) < 1e-12

    h_sq = fd_hessian(ScalarField(grid, coords[:, 0] ** 2))
    interior = ~grid.boundary_mask()
    assert np.max(np.abs(h_sq[interior, 0, 0] - 2.0)) < 1e-11
    assert np.max(np.abs(h_sq[interior, 1, 1])) < 1e-12

    h_x1x2 = fd_hessian(ScalarField(grid, coords[:, 0] * coords[:, 1]))
    assert np.max(np.abs(h_x1x2[interior, 0, 1] - 1.0)) < 1e-12
    assert np.max(np.abs(h_x1x2[interior, 1, 0] - 1.0)) < 1e-12


def test_fd_hessian_boundary_copied_from_interior():
    grid = MacroGrid(dim=1, cells_per_side=5)
    coords = lattice_points(grid.axes())[:, 0]
    hess = fd_hessian(ScalarField(grid, coords**3))
    assert hess[0, 0, 0] == pytest.approx(hess[1, 0, 0])
    assert hess[-1, 0, 0] == pytest.approx(hess[-2, 0, 0])


def test_fd_exact_on_random_quadratic():
    rng = np.random.default_rng(11)
    a, bvec, cmat = rng.standard_normal(), rng.standard_normal(2), rng.standard_normal((2, 2))
    cmat = 0.5 * (cmat + cmat.T)
    grid = MacroGrid(dim=2, cells_per_side=8)
    x = lattice_points(grid.axes())
    vals = a + x @ bvec + np.einsum("ki,ij,kj->k", x, cmat, x)
    grad = fd_gradient(ScalarField(grid, vals))
    exact = bvec[None, :] + 2.0 * x @ cmat
    assert np.max(np.abs(grad - exact)) < 1e-11
    hess = fd_hessian(ScalarField(grid, vals))
    interior = ~grid.boundary_mask()
    assert np.max(np.abs(hess[interior] - 2.0 * cmat)) < 1e-10


def test_fd_preconditions():
    small = MacroGrid(dim=1, cells_per_side=2)
    fld = ScalarField(small, np.zeros(small.ndof))
    with pytest.raises(ValueError):
        fd_gradient(fld)
    grid3 = MacroGrid(dim=1, cells_per_side=3)
    with pytest.raises(ValueError):
        fd_hessian(ScalarField(grid3, np.zeros(grid3.ndof)))


# -- the multilinear kernel --------------------------------------------------

# non-uniform clamped axes with a one-sample axis between them
CLAMPED_AXES = [np.array([-1.0, -0.2, 0.1, 0.7, 2.0]), np.array([0.3]),
                np.array([0.0, 0.05, 0.5, 1.0])]


def test_lattice_corners_match_regular_grid_interpolator_with_clamping():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(tuple(len(ax) for ax in CLAMPED_AXES))
    # queries reach beyond both ends of every axis, where the kernel clamps
    queries = rng.uniform(-3.0, 3.0, (500, 3))
    ids, wts = lattice_corners(CLAMPED_AXES, queries)
    assert ids.shape == wts.shape == (500, 4)  # the one-sample axis adds no corner
    got = np.sum(values.reshape(-1)[ids] * wts, axis=1)
    outer = [CLAMPED_AXES[0], CLAMPED_AXES[2]]
    clamped = np.stack(
        [np.clip(queries[:, d], ax[0], ax[-1]) for d, ax in zip((0, 2), outer)], axis=-1
    )
    expected = RegularGridInterpolator(outer, values[:, 0, :])(clamped)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_lattice_corners_periodic_wrap():
    rng = np.random.default_rng(9)
    axes = CellGrid(dim=2, cells_per_side=8).axes()
    # multiples of 2^-20, so q + 1 and q - 1 are exact and wrap back to q
    queries = rng.integers(0, 2**20, (400, 2)) / 2.0**20
    ids, wts = lattice_corners(axes, queries, periodic=True)
    for shift in (1.0, -1.0, np.array([1.0, -2.0])):
        ids_s, wts_s = lattice_corners(axes, queries + shift, periodic=True)
        assert np.array_equal(ids, ids_s)
        assert np.array_equal(wts, wts_s)
    assert ids.min() >= 0 and ids.max() < 64


@pytest.mark.parametrize("periodic", [False, True])
def test_lattice_corners_weights_sum_to_one(periodic):
    rng = np.random.default_rng(13)
    axes = CellGrid(2, 5).axes() if periodic else CLAMPED_AXES
    queries = rng.uniform(-2.5, 2.5, (300, len(axes)))
    _, wts = lattice_corners(axes, queries, periodic=periodic)
    assert np.all(wts >= 0.0)
    assert np.max(np.abs(wts.sum(axis=1) - 1.0)) < 1e-15


@pytest.mark.parametrize("periodic", [False, True])
def test_lattice_corners_follow_corner_offsets(periodic):
    if periodic:
        axes = CellGrid(dim=2, cells_per_side=4).axes()
    else:
        axes = [np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.25, 0.5, 1.0])]
    ids, wts = lattice_corners(axes, np.array([[0.4, 0.3]]), periodic=periodic)
    multi = np.stack(np.unravel_index(ids[0], tuple(len(ax) for ax in axes)), axis=-1)
    assert np.array_equal(multi - multi[0], corner_offsets(2))
    # the weight of each corner is the product of its per-axis factors
    lo = np.array([ax[i] for ax, i in zip(axes, multi[0])])
    hi = np.array([ax[i] for ax, i in zip(axes, multi[-1])])
    upper = (np.array([0.4, 0.3]) - lo) / (hi - lo)
    expected = np.prod(np.where(corner_offsets(2) == 1, upper, 1.0 - upper), axis=1)
    assert np.max(np.abs(wts[0] - expected)) < 1e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_q1_values_are_the_kernel_weights_on_the_unit_element(dim):
    points = [gauss_rule(n, dim).points for n in (1, 2, 3)]
    points.append(np.random.default_rng(17).random((10_000, dim)))
    for xi in points:
        _, wts = lattice_corners([np.array([0.0, 1.0])] * dim, xi)
        assert np.array_equal(q1_values(xi), wts)
        # the Q1 basis as a product of per-axis hats, multiplied in axis order
        reference = np.ones_like(wts)
        for c, off in enumerate(corner_offsets(dim)):
            for d, bit in enumerate(off):
                reference[:, c] *= xi[:, d] if bit else 1.0 - xi[:, d]
        assert np.array_equal(wts, reference)


@pytest.mark.parametrize("grid", [MacroGrid(1, 9), MacroGrid(2, 8), CellGrid(1, 7),
                                  CellGrid(2, 16)])
def test_tensor_corners_are_the_point_corners_of_the_lattice(grid):
    # each axis bracketed once and broadcast: the ids and the bits of the
    # weights that the point form gives every point of the tensor lattice
    rng = np.random.default_rng(grid.cells_per_side + grid.dim)
    lo, hi = (0.0, 1.0) if isinstance(grid, MacroGrid) else (-1.5, 2.5)
    axes = [np.concatenate([rng.uniform(lo, hi, 9), grid.axes()[0][::3], [lo, hi]])
            for _ in range(grid.dim)]
    ids, wts = tensor_corners(grid, axes)
    want_ids, want_wts = grid_corners(grid, lattice_points(axes))
    assert len(ids) == len(wts) == want_ids.shape[1]
    for c, (i, w) in enumerate(zip(ids, wts)):
        assert np.array_equal(i.reshape(-1), want_ids[:, c])
        assert w.reshape(-1).tobytes() == np.ascontiguousarray(want_wts[:, c]).tobytes()
    if isinstance(grid, MacroGrid):
        with pytest.raises(OutOfDomainError):
            tensor_corners(grid, [np.array([0.5, 1.1])] * grid.dim)


def multi_index_element_dofs(grid):
    """Element corner ids from the element multi-indices plus each corner
    offset, wrapped on a cell grid and raveled: the reference for the ids
    built by broadcasting."""
    m, dim = grid.cells_per_side, grid.dim
    origins = lattice_points([np.arange(m)] * dim).astype(int)
    idx = origins[:, None, :] + corner_offsets(dim)[None, :, :]
    n = m if isinstance(grid, CellGrid) else m + 1
    if isinstance(grid, CellGrid):
        idx = np.mod(idx, m)
    flat = idx[..., 0]
    for d in range(1, dim):
        flat = flat * n + idx[..., d]
    return flat


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 8, 67])
@pytest.mark.parametrize("cls", [CellGrid, MacroGrid])
def test_element_dofs_by_broadcasting_are_the_multi_index_ids(cls, dim, m):
    grid = cls(dim, m)
    dofs, want = grid.element_dofs(), multi_index_element_dofs(grid)
    assert dofs.dtype == want.dtype and dofs.shape == want.shape == (m**dim, 2**dim)
    assert np.array_equal(dofs, want) and dofs.flags.c_contiguous
    twin = cls(dim, m)
    assert twin.element_dofs() is not dofs and np.array_equal(twin.element_dofs(), dofs)
