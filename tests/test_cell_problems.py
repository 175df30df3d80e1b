import gc
import sys
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from twoscale import cell_problems, fem
from twoscale.cell_problems import (
    CellSample,
    ParameterGrid,
    build_corrector_tables,
    check_translation_invariance,
    corrector_field_names,
    default_parameter_grid,
    effective_tensor,
    solve_first_correctors,
)
from twoscale.config import MAX_U_SAMPLES
from twoscale.coefficients import (
    ConstantCoefficient,
    RosselandCoefficient,
    SeparatedCoefficient,
    SmoothPeriodicCoefficient,
    LayeredCoefficient,
    SourceModel,
)
from twoscale.errors import CompatibilityError, ConfigurationError
from twoscale.fem import (
    as_period,
    assemble_load,
    assemble_load_from_samples,
    field_gradients_at_quad,
    field_values_at_quad,
)
from twoscale.grids import CellGrid


def a_osc(y):
    return 2.0 + np.sin(2.0 * np.pi * y)


def dense_first_corrector(coeff, n_dense=1 << 16):
    """Two-pass 1-D oracle: N' = a0/a - 1 integrated and recentred."""
    y = np.linspace(0.0, 1.0, n_dense + 1)
    inv_mean = np.trapezoid(1.0 / coeff(y), y)
    a0 = 1.0 / inv_mean
    nprime = a0 / coeff(y) - 1.0
    n_vals = np.concatenate([[0.0], np.cumsum(0.5 * (nprime[1:] + nprime[:-1]) * np.diff(y))])
    n_vals -= np.trapezoid(n_vals, y)
    return y, n_vals, a0


def test_first_corrector_zero_for_constant_coefficient():
    model = ConstantCoefficient(2, matrix=[[2.0, 0.5], [0.5, 1.5]])
    grid = CellGrid(2, 8)
    fields = solve_first_correctors(model, 0.5, [0.5, 0.5], grid)
    for f in fields:
        assert np.max(np.abs(f)) < 1e-12


def test_first_corrector_1d_closed_form():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 64)
    (n_h,) = solve_first_correctors(model, 0.5, [0.5], grid)
    y_dense, n_exact, _ = dense_first_corrector(a_osc)
    at_nodes = np.interp(grid.dof_coords()[:, 0], y_dense, n_exact)
    assert np.max(np.abs(n_h - at_nodes)) < 2.0 * grid.spacing**2 * 5.0


def test_first_corrector_2d_swap_symmetry():
    # a(y1, y2) = a(y2, y1) makes the two correctors coordinate swaps
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0)
    grid = CellGrid(2, 16)
    n1, n2 = solve_first_correctors(model, 0.5, [0.5, 0.5], grid)
    m = grid.cells_per_side
    assert np.max(np.abs(n2.reshape(m, m) - n1.reshape(m, m).T)) < 1e-8


def test_effective_tensor_constant():
    mat = np.array([[2.0, 0.4], [0.4, 3.0]])
    model = ConstantCoefficient(2, matrix=mat)
    grid = CellGrid(2, 8)
    fields = solve_first_correctors(model, 0.5, [0.5, 0.5], grid)
    a0 = effective_tensor(model, 0.5, [0.5, 0.5], fields, grid)
    assert np.max(np.abs(a0 - mat)) < 1e-12


def test_effective_tensor_harmonic_mean_1d():
    # oracle: adaptive quadrature of the reciprocal, a0 = (int 1/a)^-1 = sqrt(3)
    inv_mean, err = quad(lambda y: 1.0 / a_osc(y), 0.0, 1.0, epsabs=1e-13)
    oracle = 1.0 / inv_mean
    assert oracle == pytest.approx(np.sqrt(3.0), abs=1e-10)

    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 512)
    fields = solve_first_correctors(model, 0.5, [0.5], grid)
    a0 = effective_tensor(model, 0.5, [0.5], fields, grid)
    assert abs(a0[0, 0] - oracle) <= 1e-6
    # the given correctors are the ones averaged: zeros give the arithmetic mean
    voigt = effective_tensor(model, 0.5, [0.5], [np.zeros(grid.ndof)], grid)
    assert voigt[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_effective_tensor_2d_sharp_laminate():
    # classic laminate: harmonic mean across the layers, arithmetic along them
    model = LayeredCoefficient(2, low=1.0, high=4.0, axis=0, width=0.0)
    vals = {}
    for m in (16, 32):
        grid = CellGrid(2, m)
        fields = solve_first_correctors(model, 0.5, [0.5, 0.5], grid)
        vals[m] = effective_tensor(model, 0.5, [0.5, 0.5], fields, grid)
    extrap = (4.0 * vals[32] - vals[16]) / 3.0
    expected = np.diag([2.0 * 1.0 * 4.0 / 5.0, 2.5])
    assert np.max(np.abs(extrap - expected)) <= 1e-3


def test_effective_tensor_refinement_order():
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0)
    a0s = []
    for m in (8, 16, 32):
        grid = CellGrid(2, m)
        fields = solve_first_correctors(model, 0.5, [0.5, 0.5], grid)
        a0s.append(effective_tensor(model, 0.5, [0.5, 0.5], fields, grid)[0, 0])
    d1, d2 = abs(a0s[1] - a0s[0]), abs(a0s[2] - a0s[1])
    order = np.log2(d1 / d2)
    assert order >= 1.5


def test_hessian_corrector_zero_for_constant():
    model = ConstantCoefficient(1, matrix=[[2.0]])
    grid = CellGrid(1, 16)
    hess = CellSample(model, 0.5, [0.5], grid).hessian
    assert np.max(np.abs(hess[(0, 0)])) < 1e-12


def test_hessian_corrector_1d_two_pass_oracle():
    # in 1-D the bulk term is constant, so the weak form forces M' = -N;
    # the oracle is a second cumulative integration of the dense corrector
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 64)
    hess = CellSample(model, 0.5, [0.5], grid).hessian

    y_dense, n_exact, _ = dense_first_corrector(a_osc)
    m_dense = np.concatenate(
        [[0.0], np.cumsum(0.5 * (n_exact[1:] + n_exact[:-1]) * np.diff(y_dense))]
    )
    m_dense = -(m_dense - np.trapezoid(m_dense, y_dense))
    at_nodes = np.interp(grid.dof_coords()[:, 0], y_dense, m_dense)
    assert np.max(np.abs(hess[(0, 0)] - at_nodes)) < 2.0 * grid.spacing**2


def test_hessian_corrector_2d_swap_equivariance():
    # a(y1, y2) = a(y2, y1) maps the (k, l) problem onto the swapped pair,
    # so M_22 is M_11 with coordinates exchanged and the symmetrized M_12 is
    # itself swap-invariant
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0)
    grid = CellGrid(2, 16)
    hess = CellSample(model, 0.5, [0.5, 0.5], grid).hessian
    m = grid.cells_per_side
    m11 = hess[(0, 0)].reshape(m, m)
    m22 = hess[(1, 1)].reshape(m, m)
    m12 = hess[(0, 1)].reshape(m, m)
    assert np.max(np.abs(m22 - m11.T)) < 1e-8
    assert np.max(np.abs(m12 - m12.T)) < 1e-8


def test_hessian_corrector_2d_laminate_oracle():
    # a = g(y1) I, g = 2 + sin 2 pi y1, mean gbar = 2, N the 1-D first
    # corrector: N_11 is the mean-zero antiderivative of -N; with G the
    # mean-zero antiderivative of g - gbar and c = mean(G/g) / mean(1/g),
    # N_22 is the mean-zero antiderivative of (c - G)/g; N_12 and the second
    # first corrector vanish.  Closed forms by cumulative midpoint sums
    n = 1 << 16
    g = a_osc((np.arange(n) + 0.5) / n)

    def antiderivative(at_midpoints):  # mean-zero, at the nodes k / n
        nodal = np.concatenate([[0.0], np.cumsum(at_midpoints)[:-1]]) / n
        return nodal - nodal.mean()

    def midpoints(nodal):
        return 0.5 * (nodal + np.roll(nodal, -1))

    first = antiderivative(1.0 / np.mean(1.0 / g) / g - 1.0)
    big_g = midpoints(antiderivative(g - 2.0))
    c = np.mean(big_g / g) / np.mean(1.0 / g)
    oracles = {(0, 0): antiderivative(-midpoints(first)),
               (1, 1): antiderivative((c - big_g) / g)}

    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0, frequency=(1, 0))
    cells = np.array([16, 32, 64, 128])
    misses = {pair: [] for pair in oracles}
    for m in cells:
        grid = CellGrid(2, m)
        sample = CellSample(model, 0.5, [0.5, 0.5], grid)
        assert not np.any(sample.first[1]) and not np.any(sample.hessian[(0, 1)])
        nodes = np.rint(grid.dof_coords()[:, 0] * n).astype(int) % n
        for pair, oracle in oracles.items():
            misses[pair].append(np.max(np.abs(sample.hessian[pair] - oracle[nodes])))
    # measured 4.43e-4 ... 6.87e-6 and 2.83e-5 ... 4.54e-7; N_22 with its
    # sign flipped misses by 3.2e-2
    for pair, scale in (((0, 0), 0.15), ((1, 1), 0.01)):
        miss = np.array(misses[pair])
        assert np.all(miss < scale / cells**2), (pair, miss)
        assert np.all(np.log2(miss[:-1] / miss[1:]) > 1.95), (pair, miss)


def separated_2d_table(threads=1, monkeypatch=None):
    """Table of an x- and u-dependent 2-D SEPARATED model on 27 samples,
    with the stiffness assemblies counted when ``monkeypatch`` is given."""
    model = SeparatedCoefficient(2, mu0=1.0, mu_u=0.0, mu_u2=1.0, mu_x=0.5)
    grid = CellGrid(2, 8)
    pgrid = default_parameter_grid(model, n_u=3, n_x=3)
    calls = []
    if monkeypatch is not None:
        original = cell_problems.assemble_stiffness

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cell_problems, "assemble_stiffness", counting)
    table, tensors = build_corrector_tables(model, pgrid, grid, threads=threads)
    return model, grid, table, tensors, len(calls)


def test_separable_table_assembles_and_factors_one_operator(monkeypatch):
    factors = []
    original = fem._lu

    def counting(mat):
        factors.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(fem, "_lu", counting)
    _, grid, table, _, n_assemblies = separated_2d_table(monkeypatch=monkeypatch)
    assert table.param_grid.size == 27
    assert n_assemblies == 1
    assert factors == [(grid.ndof - 1, grid.ndof - 1)]


class GeneralSeparated(SeparatedCoefficient):
    """The SEPARATED coefficient without its separable shortcut: every sample
    assembles and factors its own operator and solves its own tangents and
    slow loads from its own coefficient derivatives."""

    separable = False


@pytest.mark.parametrize("dim", [1, 2])
def test_separable_table_matches_the_general_path(dim, monkeypatch):
    # the table scales the base's slow pieces by d mu / mu; the reference
    # runs each sample through the general path, which knows nothing of mu
    params = dict(mu0=1.0, mu_u=0.5, mu_u2=1.0, mu_x=0.5,
                  source=SourceModel(base=1.0, amplitude=0.5))
    model, twin = SeparatedCoefficient(dim, **params), GeneralSeparated(dim, **params)
    grid = CellGrid(dim, 8)
    pgrid = default_parameter_grid(model, n_u=3, n_x=3)
    assert pgrid.size == 3 ** (1 + dim) and not twin.separable
    table, _ = build_corrector_tables(model, pgrid, grid)
    factors = []
    original = fem._lu
    monkeypatch.setattr(fem, "_lu", lambda mat: factors.append(1) or original(mat))
    for flat, multi in enumerate(pgrid.indices()):
        sample = CellSample(twin, *pgrid.coords(multi), grid)
        for name, ref in dict(sample.slow, source=sample.source).items():
            sup = np.max(np.abs(ref))
            # not vacuous (mu_u keeps r_u > 0), but for 1-D slow0: the 1-D
            # corrected flux is the constant a0, so its load is zero
            assert sup > 1e-6 or (dim, name) == (1, "slow0_0"), (name, flat)
            assert np.max(np.abs(table.fields[name][flat] - ref)) <= 1e-13 * sup, (name, flat)
    assert len(factors) == pgrid.size  # each reference sample its own operator


def test_separable_table_is_bitwise_independent_of_threads(monkeypatch):
    # four threads on the samples that share one base, switching often
    factors = []
    original = fem._lu

    def counting(mat):
        factors.append(mat.shape)
        return original(mat)

    _, _, table, tensors, _ = separated_2d_table(threads=1)
    monkeypatch.setattr(fem, "_lu", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _, _, t4, e4, _ = separated_2d_table(threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(factors) == 1
    for name in table.fields:
        assert np.array_equal(table.fields[name], t4.fields[name]), name
    assert np.array_equal(tensors.values, e4.values)
    assert np.array_equal(tensors.source_means, e4.source_means)
    assert table.diagnostics == t4.diagnostics


def test_based_sample_is_freed_by_reference_counting():
    model = SeparatedCoefficient(
        2, mu_u2=1.0, mu_x=0.5, source=SourceModel(base=1.0, amplitude=0.5)
    )
    grid = CellGrid(2, 8)
    base = CellSample(model, 0.0, [0.5, 0.5], grid)
    gc.disable()
    try:
        sample = CellSample(model, 1.0, [0.25, 0.5], grid, base=base)
        sample.a0
        assert np.max(np.abs(sample.source)) > 1e-3  # a based solve
        assert sample.factor is base.factor
        alive = weakref.ref(sample)
        del sample
        assert alive() is None
    finally:
        gc.enable()


def test_based_sample_solves_like_a_sample_that_factors_its_own_operator():
    model = SeparatedCoefficient(2, mu_u2=1.0, mu_x=0.5)
    grid = CellGrid(2, 8)
    base = CellSample(model, 0.0, [0.5, 0.5], grid)
    based = CellSample(model, 1.0, [0.25, 0.5], grid, base=base)
    own = CellSample(model, 1.0, [0.25, 0.5], grid)
    assert model.mu(based.u, based.x) != model.mu(base.u, base.x)

    # a zero load returns zeros before anything is factored
    assert np.all(based.solve(np.zeros(grid.ndof)) == 0.0)
    assert "lu" not in base.factor.__dict__

    rhs = assemble_load(grid, own.quad, flux_fn=lambda pts: np.cos(2.0 * np.pi * pts))
    got, fresh = based.solve(rhs), own.solve(rhs)
    assert np.max(np.abs(fresh)) > 1e-3
    assert np.max(np.abs(got - fresh)) <= 1e-13 * np.max(np.abs(fresh))
    assert based.factor is base.factor and own.factor is not base.factor

    incompatible = assemble_load(grid, own.quad, scalar_fn=lambda pts: np.ones(len(pts)))
    with pytest.raises(CompatibilityError):
        based.solve(incompatible)


def test_base_sample_needs_the_same_separable_model_and_grid():
    model = SeparatedCoefficient(2, mu_u2=1.0)
    base = CellSample(model, 0.0, [0.5, 0.5], CellGrid(2, 8))
    for other, grid in [(SmoothPeriodicCoefficient(2), CellGrid(2, 8)),
                        (SeparatedCoefficient(2, mu_u2=1.0), CellGrid(2, 8)),
                        (model, CellGrid(2, 4))]:
        with pytest.raises(ValueError, match="base sample"):
            CellSample(other, 0.5, [0.5, 0.5], grid, base=base)


def test_separated_table_solves_first_and_hessian_correctors_once():
    model, grid, table, tensors, _ = separated_2d_table()
    pgrid = table.param_grid
    assert model.separable and not SmoothPeriodicCoefficient(2).separable
    for name, stack in table.fields.items():
        if name.startswith(("first_", "hess_")):
            assert np.max(np.abs(stack[0])) > 1e-3, name  # not vacuous
            assert all(np.array_equal(row, stack[0]) for row in stack), name
            # the base row, stored once and broadcast read-only
            assert stack.strides[0] == 0 and not stack.flags.writeable, name
        else:  # the slow and source stacks are each sample's own
            assert stack.strides[0] != 0, name
    for name, stack in table.tangents.items():
        assert stack.shape == (3, pgrid.size, grid.ndof)
        assert stack.strides[1] == 0 and not stack.flags.writeable, name
    assert tensors.values.strides[0] != 0 and tensors.source_means.strides[0] != 0
    gradients = table.gradient_stack("first_0")
    assert gradients.shape == (pgrid.size, grid.ndof, 2) and gradients.strides[0] == 0

    # the shared rows are those of a solve at any sample, here the far corner
    far = tuple(n - 1 for n in pgrid.shape)
    fresh = CellSample(model, *pgrid.coords(far), grid).first
    for m, field in enumerate(fresh):
        stored = table.fields[f"first_{m}"][np.ravel_multi_index(far, pgrid.shape)]
        assert np.max(np.abs(stored - field)) <= 1e-12 * np.max(np.abs(field))

    # a0 = mu(u, x) A_g at every sample
    ratios = []
    for flat, multi in enumerate(pgrid.indices()):
        u, x = pgrid.coords(multi)
        mu = model.mu0 + model.mu_u * u + model.mu_u2 * u**2 + model.mu_x * x.mean()
        ratios.append(tensors.values[flat] / mu)
    assert np.max(np.abs(np.array(ratios) - ratios[0])) <= 1e-13 * np.max(np.abs(ratios[0]))


def test_rosseland_table_stores_every_sample_on_its_own_row():
    # no sample shares a base, so no stack is broadcast
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    table, tensors = build_corrector_tables(model, default_parameter_grid(model, n_u=3),
                                            CellGrid(2, 8))
    stacks = [*table.fields.values(), tensors.values, tensors.source_means]
    stacks += [stack.swapaxes(0, 1) for stack in table.tangents.values()]
    assert len(stacks) == len(corrector_field_names(2)) + 4
    for stack in stacks:
        assert stack.shape[0] == 3 and stack.strides[0] != 0 and stack.flags.writeable
    assert not np.array_equal(table.fields["first_0"][0], table.fields["first_0"][2])


@pytest.mark.parametrize("separable", [True, False])
def test_first_corrector_gradients_are_formed_once_per_operator(monkeypatch, separable):
    # the corrected gradients at the quadrature points are formed dim times
    # per factored operator: once for a separable table, once per sample else
    params = dict(mu0=1.0, mu_u=0.5, mu_u2=1.0, mu_x=0.5,
                  source=SourceModel(base=1.0, amplitude=0.5))
    model = (SeparatedCoefficient if separable else GeneralSeparated)(2, **params)
    fields = []
    original = cell_problems.field_gradients_at_quad

    def counting(grid, values, quad):
        fields.append(values)
        return original(grid, values, quad)

    monkeypatch.setattr(cell_problems, "field_gradients_at_quad", counting)
    pgrid = default_parameter_grid(model, n_u=3, n_x=3)
    table, _ = build_corrector_tables(model, pgrid, CellGrid(2, 8))
    firsts = [table.fields[f"first_{m}"][flat] for flat in range(pgrid.size) for m in range(2)]
    on_first = [f for f in fields if any(np.array_equal(f, first) for first in firsts)]
    assert len(on_first) == 2 * (1 if separable else pgrid.size)


def test_separable_table_solves_its_slow_pieces_once(monkeypatch):
    # one u sample more adds its source solve, never a slow solve
    model = SeparatedCoefficient(
        2, mu_u=0.5, mu_u2=1.0, mu_x=0.5, source=SourceModel(base=1.0, amplitude=0.5)
    )
    grid = CellGrid(2, 8)
    calls = []
    original = cell_problems.solve_periodic_zero_mean
    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean",
                        lambda *args: calls.append(1) or original(*args))
    counts = {}
    for n_u in (3, 5):
        pgrid = default_parameter_grid(model, n_u=n_u, n_x=3)
        calls.clear()
        table, _ = build_corrector_tables(model, pgrid, grid)
        assert np.max(np.abs(table.fields["slowg_01"])) > 1e-6  # the pieces solved
        counts[pgrid.size] = len(calls)
    (small, n_small), (big, n_big) = sorted(counts.items())
    # first 2 + hessian 3 + slow pieces 2 dim^2 = 8 once, then one source each
    assert n_small == 2 + 3 + 8 + small
    assert n_big - n_small == big - small


def test_based_samples_read_no_coefficient_derivative(monkeypatch):
    model = SeparatedCoefficient(2, mu_u2=1.0, mu_x=0.5)
    calls = []
    for name in ("eval_da_du", "eval_da_dx"):
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *args, _f=original: calls.append(1) or _f(*args))
    base = CellSample(model, 0.0, [0.5, 0.5], CellGrid(2, 8))
    based = CellSample(model, 1.0, [0.25, 0.5], base.grid, base=base)
    assert np.max(np.abs(based.slow["slowg_00"])) > 1e-6
    assert np.max(np.abs(base.slow["slow0_1"])) > 1e-6
    assert calls == [] and "flux_derivatives" not in based.__dict__
    assert based.diagnostics.max_corrector_mean <= 1e-14
    assert based.diagnostics.max_rhs_defect == 0.0  # the pieces' solves are the base's
    assert base.diagnostics.max_rhs_defect > 0.0


def test_cell_sample_factors_its_operator_at_most_once(monkeypatch):
    calls = []
    original = fem._lu

    def counting(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(fem, "_lu", counting)
    model = SmoothPeriodicCoefficient(
        2, base=2.0, amplitude=1.0, source=SourceModel(base=1.0, amplitude=0.5)
    )
    grid = CellGrid(2, 8)
    sample = CellSample(model, 0.5, [0.5, 0.5], grid)
    sample.hessian
    assert np.max(np.abs(sample.source)) > 1e-3  # seven nonzero solves, one factor
    assert calls == [(grid.ndof - 1, grid.ndof - 1)]

    # a sample whose every load is zero never factors
    const = CellSample(ConstantCoefficient(2, np.eye(2)), 0.5, [0.5, 0.5], grid)
    assert all(np.all(f == 0.0) for f in const.first)
    assert len(calls) == 1


def test_tangents_match_a_central_difference_of_first_correctors():
    # off-diagonal k: every tangent direction couples both cell axes
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    grid = CellGrid(2, 16)
    u, x, step = 0.6, [0.5, 0.5], 1e-4
    sample = CellSample(model, u, x, grid)
    tangents = sample.tangents
    hi = solve_first_correctors(model, u + step, x, grid)
    lo = solve_first_correctors(model, u - step, x, grid)
    for m in range(2):
        fd = (hi[m] - lo[m]) / (2.0 * step)
        assert np.max(np.abs(fd)) > 1e-3  # not vacuous
        assert np.max(np.abs(tangents[0, m] - fd)) <= 1e-6 * np.max(np.abs(fd)), m
    assert np.all(tangents[1:] == 0.0)  # Rosseland ignores x


def test_tangents_are_exact_zeros_without_parameter_dependence(monkeypatch):
    calls, solves = [], []
    original_lu, original_solve = fem._lu, cell_problems.solve_periodic_zero_mean

    def counting(mat):
        calls.append(mat.shape)
        return original_lu(mat)

    monkeypatch.setattr(fem, "_lu", counting)
    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean",
                        lambda *args: solves.append(1) or original_solve(*args))
    grid = CellGrid(2, 8)
    for model, u in [(SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0), 0.5),
                     (RosselandCoefficient(2, b=1.0), 0.0),  # da/du = 12 u^2 b = 0
                     (SeparatedCoefficient(2, mu_u2=1.0, mu_x=0.5), 0.6)]:  # mu cancels
        sample = CellSample(model, u, [0.5, 0.5], grid)
        assert np.max(np.abs(sample.first[0])) > 1e-3
        n_solves = len(solves)
        assert np.all(sample.tangents == 0.0)
        assert len(solves) == n_solves, model.family
    assert "da_q" not in sample.__dict__  # the separable sample evaluated no d_pa
    assert len(calls) == 3  # the first-corrector factors, nothing for the tangents


@pytest.mark.parametrize("dim", [1, 2])
def test_cells_of_y_alone_do_no_slow_work(monkeypatch, dim):
    # a coefficient of neither u nor x: no d_pa evaluated, no tangent or slow
    # load formed, no slow solve, and slow fields that are the exact zeros
    # the solves of the zero loads return
    source = SourceModel(base=1.0, u_coeff=0.5, amplitude=0.5)
    model = SmoothPeriodicCoefficient(dim, base=2.0, amplitude=1.0, source=source)
    grid, x = CellGrid(dim, 16), [0.5] * dim
    calls, solves = [], []
    for name in ("eval_da_du", "eval_da_dx"):
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *args, _f=original: calls.append(1) or _f(*args))
    original_solve = cell_problems.solve_periodic_zero_mean
    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean",
                        lambda *args: solves.append(1) or original_solve(*args))
    sample = CellSample(model, 0.3, x, grid)
    sample.first, sample.hessian, sample.source
    n_solves = len(solves)
    slow, tangents = sample.slow, sample.tangents
    assert calls == [] and len(solves) == n_solves
    assert not np.any(tangents) and sample.diagnostics.max_corrector_mean <= 1e-14
    zero = np.zeros(grid.ndof).tobytes()
    assert sorted(slow) == sorted(n for n in corrector_field_names(dim) if n.startswith("slow"))
    assert all(field.tobytes() == zero for field in slow.values())

    # the loads the derivative path forms are zero, and so are their solves
    monkeypatch.setattr(CellSample, "moving_axes", property(lambda self: [True] * (1 + dim)))
    general = CellSample(model, 0.3, x, grid)
    general.first, general.hessian, general.source
    assert {n: f.tobytes() for n, f in general.slow.items()} == {n: zero for n in slow}
    assert calls and sample.diagnostics.as_dict() == general.diagnostics.as_dict()


def test_effective_tensor_and_hessian_read_no_coefficient_derivative(monkeypatch):
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    grid = CellGrid(2, 8)
    calls = []
    for name in ("eval_da_du", "eval_da_dx"):
        original = getattr(model, name)
        monkeypatch.setattr(model, name, lambda *args, _f=original: calls.append(1) or _f(*args))
    sample = CellSample(model, 0.6, [0.5, 0.5], grid)
    a0 = sample.a0
    sample.hessian
    assert calls == []
    assert np.max(np.abs(sample.tangents[0])) > 1e-3
    assert len(calls) == 2
    rows = sample.flux_derivatives
    sample.slow
    assert len(calls) == 2 and sample.flux_derivatives is rows  # the rows are made once

    # the derivative rows first give the same tensor, bit for bit
    full = CellSample(model, 0.6, [0.5, 0.5], grid)
    full.flux_derivatives
    assert np.array_equal(full.a0, a0)


def test_non_separable_table_assembles_and_factors_one_operator_per_sample(monkeypatch):
    assemblies, factors = [], []
    original_assemble, original_lu = cell_problems.assemble_stiffness, fem._lu

    def counting_assemble(*args, **kwargs):
        assemblies.append(1)
        return original_assemble(*args, **kwargs)

    def counting_lu(mat):
        factors.append(mat.shape)
        return original_lu(mat)

    monkeypatch.setattr(cell_problems, "assemble_stiffness", counting_assemble)
    monkeypatch.setattr(fem, "_lu", counting_lu)
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    pgrid = default_parameter_grid(model, n_u=3)
    table, _ = build_corrector_tables(model, pgrid, CellGrid(2, 8))
    assert not model.separable and pgrid.size == 3
    assert np.max(np.abs(table.fields["slowg_01"])) > 1e-4  # the slow solves ran
    assert len(assemblies) == len(factors) == pgrid.size


def slow_at(table, u, x, grad):
    """Slow correctors for the macro gradient ``grad``, one per direction,
    recombined from the stored affine pieces at the lattice sample (u, x)."""
    pgrid = table.param_grid
    multi = [int(np.flatnonzero(ax == c)[0]) for ax, c in zip(pgrid.axes, [u, *x])]
    flat = np.ravel_multi_index(multi, pgrid.shape)
    out = []
    for k in range(table.dim):
        q = table.fields[f"slow0_{k}"][flat].copy()
        for m in range(table.dim):
            q += grad[m] * table.fields[f"slowg_{k}{m}"][flat]
        out.append(q)
    return out


def full_slow_load(sample, k, grad):
    """The load of the slow corrector for direction k and macro gradient
    ``grad`` in one piece, before its affine split: the flux
    -(A v + a1 (e_k + grad N_k)) with v_l = d_{x_l}N_k + g_l d_uN_k and
    a1 = (sum_m g_m N_m) dA/du, plus the mean-free scalars
    d_{x_i}h_ik + g_i d_uh_ik of h_ik = (A (e_k + grad N_k))_i."""
    grid, quad, a_q, da_q = sample.grid, sample.quad, sample.a_q, sample.da_q
    first, tangents, dim = sample.first, sample.tangents, grid.dim
    values = lambda f: field_values_at_quad(grid, f, quad)
    gradients = lambda f: field_gradients_at_quad(grid, f, quad)
    v = np.stack(
        [values(tangents[1 + l, k]) + grad[l] * values(tangents[0, k]) for l in range(dim)],
        axis=-1,
    )
    a1 = sum(grad[m] * values(first[m]) for m in range(dim))[:, :, None, None] * da_q[0]
    flux = -(
        np.einsum("eqil,eql->eqi", a_q, v)
        + a1[:, :, :, k]
        + np.einsum("eqil,eql->eqi", a1, gradients(first[k]))
    )
    rhs = assemble_load_from_samples(grid, quad, flux_samples=as_period(grid, flux))
    for i in range(dim):
        for p, weight in ((1 + i, 1.0), (0, grad[i])):
            dh = (
                da_q[p][:, :, i, k]
                + np.einsum("eqm,eqm->eq", da_q[p][:, :, i, :], gradients(first[k]))
                + np.einsum("eqm,eqm->eq", a_q[:, :, i, :], gradients(tangents[p, k]))
            )
            rhs += weight * assemble_load_from_samples(
                grid, quad, scalar_samples=as_period(grid, dh - sample.mean(dh))
            )
    return rhs


def test_slow_corrector_solve_matches_table_and_threads_agree():
    # the stored affine pieces recombine to the solve of the whole load
    model = RosselandCoefficient(
        2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0, u_range=(0.2, 1.0)
    )
    grid = CellGrid(2, 16)
    pgrid = default_parameter_grid(model, n_u=3)
    table, _ = build_corrector_tables(model, pgrid, grid)
    u, x = pgrid.coords((1, 0, 0))
    sample = CellSample(model, u, x, grid)
    grad = [0.3, -1.7]
    q = slow_at(table, u, x, grad)
    for k in range(2):
        oracle = sample.solve(full_slow_load(sample, k, grad))
        sup = np.max(np.abs(oracle))
        assert sup > 1e-4  # not vacuous
        assert np.max(np.abs(q[k] - oracle)) <= 1e-12 * sup, k

    _, _, t1, e1, _ = separated_2d_table()
    t2, e2 = separated_2d_table(threads=2)[2:4]
    for name in t1.fields:
        assert np.array_equal(t1.fields[name], t2.fields[name]), name
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.source_means, e2.source_means)


def test_hessian_solves_one_symmetrized_load_per_pair(monkeypatch):
    model = RosselandCoefficient(2, k_matrix=[[1.0, 0.3], [0.3, 0.8]], b=1.0)
    sample = CellSample(model, 0.6, [0.5, 0.5], CellGrid(2, 8))
    sample.first
    calls = []
    original = cell_problems.solve_periodic_zero_mean

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean", counting)
    hess = sample.hessian
    assert not model.separable
    assert sorted(hess) == [(0, 0), (0, 1), (1, 1)]
    assert np.max(np.abs(hess[(0, 1)])) > 1e-4
    assert len(calls) == 3


def test_slow_corrector_2d_separated_scaling():
    # same 1/mu structure as in 1-D, now exercising the 2-D assembly paths
    model = SeparatedCoefficient(
        2, mu0=1.0, mu_u=0.0, mu_u2=1.0, g_base=2.0, g_amplitude=1.0
    )
    grid = CellGrid(2, 16)
    pgrid = default_parameter_grid(model)
    table, _ = build_corrector_tables(model, pgrid, grid)
    u_a, u_b = float(pgrid.u_samples[1]), float(pgrid.u_samples[3])
    grad = [0.3, -0.2]
    q_a = slow_at(table, u_a, [0.5, 0.5], grad)
    q_b = slow_at(table, u_b, [0.5, 0.5], grad)
    # load scales with dmu/du = 2u, operator with mu = 1 + u^2
    factor = (2.0 * u_b / (1.0 + u_b**2)) / (2.0 * u_a / (1.0 + u_a**2))
    for k in range(2):
        assert np.max(np.abs(q_b[k] - factor * q_a[k])) < 1e-7


def test_hessian_corrector_zero_mean():
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0)
    grid = CellGrid(2, 8)
    hess = CellSample(model, 0.5, [0.5, 0.5], grid).hessian
    for f in hess.values():
        assert abs(f.mean()) < 1e-12


def test_source_corrector_y_independent_source():
    model = ConstantCoefficient(1, matrix=[[1.0]], source=SourceModel(base=2.0))
    grid = CellGrid(1, 16)
    sample = CellSample(model, 0.5, [0.5], grid)
    r, fbar = sample.source, sample.source_mean
    assert np.max(np.abs(r)) < 1e-12
    assert fbar == pytest.approx(2.0, abs=1e-12)


def test_source_corrector_sine_closed_form():
    # -R'' = sin(2 pi y) gives R = sin(2 pi y) / (4 pi^2)
    model = ConstantCoefficient(
        1, matrix=[[1.0]], source=SourceModel(amplitude=1.0, frequency=1)
    )
    grid = CellGrid(1, 64)
    sample = CellSample(model, 0.5, [0.5], grid)
    r, fbar = sample.source, sample.source_mean
    y = grid.dof_coords()[:, 0]
    exact = np.sin(2.0 * np.pi * y) / (4.0 * np.pi**2)
    assert abs(fbar) < 1e-12
    assert np.max(np.abs(r - exact)) < 2.0 * grid.spacing**2
    assert abs(r.mean()) < 1e-12


def build_tables_for(model, grid, threads=1):
    pgrid = default_parameter_grid(model)
    return build_corrector_tables(model, pgrid, grid, threads=threads)


def test_tables_constant_model_all_zero():
    mat = np.array([[2.0]])
    model = ConstantCoefficient(1, matrix=mat)
    grid = CellGrid(1, 8)
    table, tensors = build_tables_for(model, grid)
    for name, stack in table.fields.items():
        assert np.max(np.abs(stack)) < 1e-12, name
    assert np.max(np.abs(tensors.values[0] - mat)) < 1e-12


def test_tables_slow_correctors_vanish_for_periodic_linear_model():
    # no u- or x-dependence anywhere: every slow-corrector source vanishes
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 32)
    table, _ = build_tables_for(model, grid)
    assert np.max(np.abs(table.fields["slow0_0"])) < 1e-10
    assert np.max(np.abs(table.fields["slowg_00"])) < 1e-10


def test_tables_rosseland_harmonic_mean_per_sample():
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=1.0)
    grid = CellGrid(1, 128)
    pgrid = default_parameter_grid(model)
    table, tensors = build_corrector_tables(model, pgrid, grid)
    for flat, multi in enumerate(pgrid.indices()):
        u, _ = pgrid.coords(multi)
        inv_mean, _ = quad(
            lambda y: 1.0 / (a_osc(y) + 4.0 * u**3), 0.0, 1.0, epsabs=1e-13
        )
        assert tensors.values[flat][0, 0] == pytest.approx(1.0 / inv_mean, abs=1e-9)


def test_tables_u_independent_samples_identical():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 16)
    table, tensors = build_tables_for(model, grid)
    assert table.fields["first_0"].shape[0] == 1  # single sample by invariant


def test_tables_mean_zero_and_compat_diagnostics():
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.1)
    grid = CellGrid(1, 64)
    table, _ = build_tables_for(model, grid)
    assert table.diagnostics.max_corrector_mean <= 1e-12
    assert table.diagnostics.max_rhs_defect <= 1e-8
    assert table.diagnostics.min_voigt_slack >= -1e-10
    assert table.diagnostics.min_reuss_slack >= -1e-10


def test_tables_parallel_build_bitwise_identical():
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=0.1)
    grid = CellGrid(1, 32)
    t1, e1 = build_tables_for(model, grid, threads=1)
    t4, e4 = build_tables_for(model, grid, threads=4)
    for name in t1.fields:
        assert np.array_equal(t1.fields[name], t4.fields[name]), name
    for name in t1.tangents:
        assert np.array_equal(t1.tangents[name], t4.tangents[name]), name
    assert np.array_equal(e1.values, e4.values)
    assert np.array_equal(e1.source_means, e4.source_means)


def test_parameter_grid_validation():
    model = RosselandCoefficient(1, b=0.1)
    grid = CellGrid(1, 8)
    with pytest.raises(ConfigurationError):
        build_corrector_tables(
            model, ParameterGrid(np.array([0.2, 0.8]), (np.array([0.5]),)), grid
        )
    for n_u in (0, 1, 2):
        with pytest.raises(ConfigurationError, match=f"got {n_u}"):
            build_corrector_tables(model, default_parameter_grid(model, n_u=n_u), grid)
    lin = SmoothPeriodicCoefficient(1)
    with pytest.raises(ConfigurationError):
        build_corrector_tables(
            lin, ParameterGrid(np.array([0.2, 0.5, 0.8]), (np.array([0.5]),)), grid
        )


def test_lookup_at_sample_and_midpoint():
    # a sample reads its own row; between samples the read is the polynomial
    # through every u sample, so it is exact for data quadratic in u
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=1.0)
    grid = CellGrid(1, 32)
    pgrid = default_parameter_grid(model)
    table, tensors = build_corrector_tables(model, pgrid, grid)
    u_s = pgrid.u_samples
    mid = 0.5 * (u_s[0] + u_s[1])

    nodes = grid.dof_coords()
    x = np.full((len(nodes), 1), 0.5)

    def read_at(stack, u):  # 1-D: the lattice of one axis is its points
        return table.interp_stacks([stack], np.full(len(nodes), u), [x[:, 0]], [nodes[:, 0]])[0]

    first = table.fields["first_0"]
    assert np.array_equal(read_at(first, u_s[0]), first[0])

    rows = first[:3]
    quadratic = rows[0] + u_s[:, None] * rows[1] + u_s[:, None] ** 2 * rows[2]
    expected = rows[0] + mid * rows[1] + mid**2 * rows[2]
    assert np.max(np.abs(read_at(quadratic, mid) - expected)) < 1e-14

    a_mid = tensors.interp(np.array([mid]), np.array([[0.5]]))[0]
    through = np.polynomial.Polynomial.fit(u_s, tensors.values[:, 0, 0], len(u_s) - 1)
    assert a_mid[0, 0] == pytest.approx(through(mid), rel=1e-12)


def test_u_samples_are_chebyshev_lobatto_points():
    for u_range in ((0.0, 2.0), (0.1, 0.7), (0.3, 5.0)):
        lo, hi = u_range
        model = RosselandCoefficient(1, b=1.0, u_range=u_range)
        for n_u in (3, 4, 5, 9, 17):
            u = default_parameter_grid(model, n_u=n_u).u_samples
            assert len(u) == n_u and u[0] == lo and u[-1] == hi
            assert np.allclose(u - lo, (hi - u)[::-1], rtol=0, atol=4e-16 * (hi - lo)), n_u
            t = np.arange(n_u) / (n_u - 1)
            assert np.allclose(u, lo + (hi - lo) * 0.5 * (1 - np.cos(np.pi * t)),
                               rtol=0, atol=4e-16 * (hi - lo))
            if n_u % 2:
                assert u[n_u // 2] == lo + 0.5 * (hi - lo)
        assert np.array_equal(default_parameter_grid(model, n_u=3).u_samples,
                              np.linspace(lo, hi, 3))


def unscaled_barycentric_weights(samples, u):
    """The second barycentric form with w_j = 1 / prod_{k != j} (u_j - u_k)
    taken as it stands, the reference for the scaled products."""
    gaps = samples[:, None] - samples
    np.fill_diagonal(gaps, 1.0)
    c = (1.0 / np.prod(gaps, axis=1)) / (np.clip(u, samples[0], samples[-1])[:, None] - samples)
    return c / c.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("u_range", [(0.0, 0.01), (0.0, 0.1), (0.0, 1.0), (0.0, 2.0),
                                     (0.2, 1.0), (0.0, 1000.0)])
def test_barycentric_weights_are_finite_on_every_u_range(u_range):
    # the unscaled products of 129 samples under- or overflow on the narrow
    # and the wide range; scaled by a power of two they are the same weights
    model = RosselandCoefficient(1, b=1.0, u_range=u_range)
    lo, hi = u_range
    queries = np.linspace(lo, hi, 257)[1::2]  # on no sample
    for n_u in (5, 9, 33, 129):
        samples = default_parameter_grid(model, n_u=n_u).u_samples
        wts = cell_problems.barycentric_weights(cell_problems.barycentric_rule(samples), queries)
        dwts = cell_problems.barycentric_weights(cell_problems.barycentric_rule(samples), queries,
                                                  derivative=True)
        assert np.all(np.isfinite(wts)) and np.all(np.isfinite(dwts)), n_u
        t = (queries - lo) / (hi - lo)
        cubic = ((samples - lo) / (hi - lo)) ** 3
        assert np.max(np.abs(wts @ cubic - t**3)) < 1e-9, n_u
        assert np.max(np.abs(dwts @ cubic * (hi - lo) - 3.0 * t**2)) < 1e-6, n_u
        if n_u <= 33:
            assert np.array_equal(wts, unscaled_barycentric_weights(samples, queries)), n_u


def test_the_most_u_samples_have_finite_weights_on_every_range():
    # the scaled range is 2 to 4 whatever the range: sweep its mantissa
    n_u = MAX_U_SAMPLES
    for scale in (2.0**-7, 1.0, 2.0**5):
        for mantissa in np.linspace(1.0, 2.0, 9)[:-1]:
            model = RosselandCoefficient(1, b=1.0, u_range=(0.0, scale * mantissa))
            samples = default_parameter_grid(model, n_u=n_u).u_samples
            queries = np.linspace(0.0, scale * mantissa, 7)[1:-1] + 1e-3 * scale
            for derivative in (False, True):
                wts = cell_problems.barycentric_weights(cell_problems.barycentric_rule(samples),
                                                        queries, derivative)
                assert np.all(np.isfinite(wts)), (scale, mantissa, derivative)


def test_rosseland_a0_oracle_over_the_whole_u_range():
    # 1-D a0 is the harmonic mean of c(u) + sin(2 pi y), c = 2 + 4 u^3, that
    # is sqrt(c^2 - 1): analytic in u, so the Chebyshev table converges
    # geometrically in the number of u samples over all of u_range
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=1.0, u_range=(0.0, 2.0))
    u = np.linspace(0.0, 2.0, 401)
    x = np.full((len(u), 1), 0.5)
    c = 2.0 + 4.0 * u**3
    a0 = np.sqrt(c * c - 1.0)
    da0 = c / a0 * 12.0 * u**2
    for n_u, value_tol in ((9, 1e-3), (17, 1e-5)):
        _, tensors = build_corrector_tables(model, default_parameter_grid(model, n_u=n_u),
                                            CellGrid(1, 128))
        assert np.max(np.abs(tensors.interp(u, x)[:, 0, 0] / a0 - 1.0)) < value_tol, n_u
        if n_u == 9:
            slope_error = np.max(np.abs(tensors.newton_data(u, x)[1][:, 0, 0] - da0))
            assert slope_error < 1e-3 * np.max(np.abs(da0))


def blend_read(table, stack, u, x, derivative=None):
    """One read of ``stack`` at (u, x) with its own corners: the table's
    reads before the Newton data shared their weights."""
    ids, wts = table.param_grid.corners(u, x, derivative)
    out = np.zeros((len(ids),) + stack.shape[1:])
    for c in range(ids.shape[1]):
        out += wts[:, c].reshape((-1,) + (1,) * (stack.ndim - 1)) * stack[ids[:, c]]
    return out


def test_newton_data_is_the_four_blend_reads_bit_for_bit():
    ross = RosselandCoefficient(1, b=1.0, u_range=(0.0, 2.0),
                                source=SourceModel(base=1.0, u_coeff=-0.5, amplitude=0.3))
    sep = SeparatedCoefficient(2, mu_u2=1.0, mu_x=0.5,
                               source=SourceModel(base=1.0, u_coeff=0.5, amplitude=0.3))
    cases = [(ross, default_parameter_grid(ross, n_u=9), CellGrid(1, 32)),
             (sep, default_parameter_grid(sep, n_u=3, n_x=3), CellGrid(2, 8))]
    for model, pgrid, grid in cases:
        _, table = build_corrector_tables(model, pgrid, grid)
        lo, hi = model.u_lo, model.u_hi
        # inside the range, on every sample and its ends, and beyond both ends
        u = np.concatenate([np.linspace(lo, hi, 13)[1:-1] + 1e-3, pgrid.u_samples,
                            [lo - 0.3, hi + 0.3]])
        x = np.random.default_rng(3).uniform(-0.2, 1.2, (len(u), model.dim))
        x[: model.dim + 1] = 0.5  # on a lattice point
        got = table.newton_data(u, x)
        want = (blend_read(table, table.values, u, x), blend_read(table, table.values, u, x, 0),
                blend_read(table, table.source_means, u, x),
                blend_read(table, table.source_means, u, x, 0))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), model.family
        assert np.any(got[3] != 0.0) and np.all(got[1][-2:] == 0.0), model.family


def test_lookup_u_independent_table_ignores_u():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 16)
    table, _ = build_tables_for(model, grid)
    nodes = grid.dof_coords()
    x = np.full((len(nodes), 1), 0.5)
    lo, hi = (
        table.interp_stacks([table.fields["first_0"]], np.full(len(nodes), u),
                            [x[:, 0]], [nodes[:, 0]])[0]
        for u in (0.0, 1.0)
    )
    assert np.array_equal(lo, hi)


def dense_slow_corrector_oracle(u, grad, n_dense=1 << 16):
    """Closed-form slow corrector for the separated model mu(u) g(y).

    With mu = 1 + u^2 the first corrector comes from g alone, the bulk term
    is constant in y, and the flux reduces to the expansion term:
    B = -u1 * dmu/du * g * (1 + N'), a Q' = B + c.
    """
    y = np.linspace(0.0, 1.0, n_dense + 1)
    g = a_osc(y)
    g0 = 1.0 / np.trapezoid(1.0 / g, y)
    nprime = g0 / g - 1.0
    n_vals = np.concatenate([[0.0], np.cumsum(0.5 * (nprime[1:] + nprime[:-1]) * np.diff(y))])
    n_vals -= np.trapezoid(n_vals, y)

    mu = 1.0 + u**2
    dmu = 2.0 * u
    a_vals = mu * g
    b_vals = -grad * n_vals * dmu * g * (1.0 + nprime)
    # a Q' = B + c with c fixed by periodicity of Q
    c = -np.trapezoid(b_vals / a_vals, y) / np.trapezoid(1.0 / a_vals, y)
    qprime = (b_vals + c) / a_vals
    q_vals = np.concatenate([[0.0], np.cumsum(0.5 * (qprime[1:] + qprime[:-1]) * np.diff(y))])
    q_vals -= np.trapezoid(q_vals, y)
    return y, q_vals


def test_slow_corrector_separated_model_oracle():
    model = SeparatedCoefficient(1, mu0=1.0, mu_u=0.0, mu_u2=1.0,
                                 g_base=2.0, g_amplitude=1.0)
    grid = CellGrid(1, 64)
    pgrid = default_parameter_grid(model)
    table, _ = build_corrector_tables(model, pgrid, grid)

    u = pgrid.u_samples[2]
    grad = 0.7
    q = slow_at(table, u, [0.5], [grad])[0]
    y_dense, q_exact = dense_slow_corrector_oracle(u, grad)
    at_nodes = np.interp(grid.dof_coords()[:, 0], y_dense, q_exact)
    assert np.max(np.abs(q - at_nodes)) < 5.0 * grid.spacing**2


def rosseland_slow_oracle(u, gam, du_step, n_dense=1 << 16):
    """Dense two-pass oracle for the u-chain slow corrector.

    a(u, y) = k(y) + 4 u^3; in 1-D the bulk term is constant in y, leaving
    the flux B = -[a dN/du + u1 da/du (1 + N')] gamma with u1 = N gamma.
    The macro derivative of the corrector is a central difference with
    ``du_step``, exact to O(du_step^2).
    """
    y = np.linspace(0.0, 1.0, n_dense + 1)

    def corrector(uu):
        a = a_osc(y) + 4.0 * uu**3
        a0 = 1.0 / np.trapezoid(1.0 / a, y)
        nprime = a0 / a - 1.0
        n = np.concatenate(
            [[0.0], np.cumsum(0.5 * (nprime[1:] + nprime[:-1]) * np.diff(y))]
        )
        return a, n - np.trapezoid(n, y), nprime

    a, n, nprime = corrector(u)
    _, n_hi, _ = corrector(u + du_step)
    _, n_lo, _ = corrector(u - du_step)
    dn_du = (n_hi - n_lo) / (2.0 * du_step)
    b_flux = -gam * (a * dn_du + n * 12.0 * u**2 * (1.0 + nprime))
    c = -np.trapezoid(b_flux / a, y) / np.trapezoid(1.0 / a, y)
    qprime = (b_flux + c) / a
    q = np.concatenate([[0.0], np.cumsum(0.5 * (qprime[1:] + qprime[:-1]) * np.diff(y))])
    return y, q - np.trapezoid(q, y)


def test_slow_corrector_u_chain_oracle():
    # the tangent cell problem gives the exact u-derivative at every sample,
    # so only cell discretization remains, however coarse the u lattice
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=1.0)
    grid = CellGrid(1, 64)
    nodes = grid.dof_coords()[:, 0]
    gam = 0.6
    for n_u in (3, 5, 9):
        pgrid = default_parameter_grid(model, n_u=n_u)
        table, _ = build_corrector_tables(model, pgrid, grid)
        u = float(pgrid.u_samples[n_u // 2])
        q_h = slow_at(table, u, [0.5], [gam])[0]
        assert np.max(np.abs(q_h)) > 1e-4  # not vacuous
        y_d, q_exact = rosseland_slow_oracle(u, gam, 1e-6)
        assert np.max(np.abs(q_h - np.interp(nodes, y_d, q_exact))) < 1e-5, n_u


def test_slow_corrector_zero_gradient_context():
    model = SeparatedCoefficient(1, mu0=1.0, mu_u=0.0, mu_u2=1.0)
    grid = CellGrid(1, 32)
    pgrid = default_parameter_grid(model)
    table, _ = build_corrector_tables(model, pgrid, grid)
    q = slow_at(table, pgrid.u_samples[0], [0.5], [0.0])[0]
    assert np.max(np.abs(q)) < 1e-10  # no gradient, no u1, no x drift
    assert np.max(np.abs(table.fields["slow0_0"])) < 1e-10


def test_slow_corrector_x_dependent_scaling():
    # mu(u, x) scales the operator but not the expansion-term load, so the
    # slow corrector scales exactly like 1/mu across x samples
    model = SeparatedCoefficient(
        1, mu0=1.0, mu_u=0.0, mu_u2=1.0, mu_x=0.5, g_base=2.0, g_amplitude=1.0
    )
    assert model.x_dependent
    grid = CellGrid(1, 64)
    pgrid = default_parameter_grid(model)
    assert pgrid.shape == (5, 5)
    table, tensors = build_corrector_tables(model, pgrid, grid)

    multi_a, multi_b = (2, 1), (2, 3)
    u = float(pgrid.u_samples[2])
    x_a, x_b = float(pgrid.x_axes[0][1]), float(pgrid.x_axes[0][3])
    grad = 0.4
    q_a = slow_at(table, u, [x_a], [grad])[0]
    q_b = slow_at(table, u, [x_b], [grad])[0]

    def mu(xx):
        return 1.0 + u**2 + 0.5 * xx

    assert np.max(np.abs(q_b - q_a * mu(x_a) / mu(x_b))) < 1e-8

    # the effective tensor inherits the same multiplicative structure
    flat_a, flat_b = (np.ravel_multi_index(m, pgrid.shape) for m in (multi_a, multi_b))
    a_a, a_b = tensors.values[flat_a][0, 0], tensors.values[flat_b][0, 0]
    assert a_b / a_a == pytest.approx(mu(x_b) / mu(x_a), rel=1e-10)

    # first correctors do not depend on the slow variables at all
    assert np.max(np.abs(
        table.fields["first_0"][flat_a] - table.fields["first_0"][flat_b]
    )) < 1e-12


def test_translation_invariance_zero_shift():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 32)
    rep = check_translation_invariance(model, 0.5, [0.5], [0.0], grid)
    assert rep.discrepancy == 0.0
    assert rep.grid_aligned


def test_translation_invariance_integer_shift():
    model = SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0)
    grid = CellGrid(2, 16)
    rep = check_translation_invariance(model, 0.5, [0.5, 0.5], [1.0, 2.0], grid)
    assert rep.discrepancy <= 1e-12


def test_translation_invariance_aligned_half_shift():
    model = LayeredCoefficient(1, low=1.0, high=4.0, width=0.125)
    grid = CellGrid(1, 32)
    rep = check_translation_invariance(model, 0.5, [0.5], [0.5], grid)
    assert rep.grid_aligned
    assert rep.discrepancy <= 10.0 * 1e-10


def test_translation_invariance_negative_shift_reduced():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 32)
    rep = check_translation_invariance(model, 0.5, [0.5], [-0.25], grid)
    assert rep.reduced_shift[0] == pytest.approx(0.75)
    assert rep.grid_aligned
    assert rep.discrepancy <= 1e-9


@pytest.mark.parametrize("dim, m_c, shift", [
    (1, 32, [0.5]), (1, 64, [3.0 / 64.0]), (1, 256, [0.5]), (2, 32, [0.5, 0.25]),
])
def test_translation_invariance_aligned_hint_is_the_rounding_scale(dim, m_c, shift):
    # aligned shifts relabel the discrete problem, so the hint is the
    # rounding scale of the direct cell solves, not a CG tolerance
    model = SmoothPeriodicCoefficient(dim, base=2.0, amplitude=1.0)
    rep = check_translation_invariance(model, 0.5, [0.5] * dim, shift, CellGrid(dim, m_c))
    assert rep.grid_aligned
    assert rep.discrepancy <= rep.tolerance_hint < 1e-10


def test_translation_invariance_unaligned_reports_spacing_tolerance():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    grid = CellGrid(1, 64)
    rep = check_translation_invariance(model, 0.5, [0.5], [0.3], grid)
    assert not rep.grid_aligned
    assert rep.tolerance_hint == pytest.approx(grid.spacing)
    assert rep.discrepancy <= grid.spacing


def stacked_interp(table, stacks, u, axes, fast_axes):
    """The table read as one gather per parameter corner and cell corner over
    every point, each corner's cell read from 0.0: the reference for the
    batched and the one-sample reads."""
    from twoscale.grids import lattice_points, tensor_corners

    ids, wts = tensor_corners(table.cell_grid, fast_axes)
    live = [(i.reshape(-1), w.reshape(-1)) for i, w in zip(ids, wts) if w.any()]
    n_points = ids[0].size

    def cell_read(stack, rows):
        acc = np.zeros(n_points)
        for i, w in live:
            acc += w * stack[rows, i]
        return acc

    if table.param_grid.size == 1:
        return [cell_read(stack, 0) for stack in stacks]
    pids, pwts = table.param_grid.corners(u, lattice_points(axes))
    out = [np.zeros(n_points) for _ in stacks]
    for p in range(pids.shape[1]):
        for total, stack in zip(out, stacks):
            total += pwts[:, p] * cell_read(stack, pids[:, p])
    return out


def random_table(pgrid, grid, n_stacks=3, seed=0):
    """A corrector table of random stacks, the last stored once for every
    sample, as a base's stacks are."""
    rng = np.random.default_rng(seed)
    stacks = [rng.standard_normal((pgrid.size, grid.ndof)) for _ in range(n_stacks - 1)]
    stacks.append(np.broadcast_to(rng.standard_normal(grid.ndof), (pgrid.size, grid.ndof)))
    table = cell_problems.CorrectorTable(cell_grid=grid, param_grid=pgrid,
                                         fields={f"s{i}": s for i, s in enumerate(stacks)})
    return table, stacks


@pytest.mark.parametrize("dim, x_dependent", [(1, False), (2, False), (2, True)])
def test_batched_corner_reads_are_the_per_corner_reads_bitwise(monkeypatch, dim, x_dependent):
    # u-only and x-dependent tables, the points' u inside, on and beyond the
    # samples, chunks of a few points so that seams fall inside K
    model = (SeparatedCoefficient(dim, mu_u2=1.0, mu_x=0.5, u_range=(0.0, 2.0)) if x_dependent
             else RosselandCoefficient(dim, b=1.0, u_range=(0.0, 2.0)))
    pgrid = default_parameter_grid(model, n_u=5, n_x=3)
    grid = CellGrid(dim, 16)
    table, stacks = random_table(pgrid, grid)
    axes = [np.linspace(0.0, 1.0, 11 if dim == 1 else 7)] * dim
    n_points = len(axes[0]) ** dim
    u = np.random.default_rng(1).uniform(-0.3, 2.3, n_points)
    u[:5] = pgrid.u_samples
    fast = [np.mod(a / 0.3, 1.0) for a in axes]
    want = stacked_interp(table, stacks, u, axes, fast)
    n_corners = pgrid.n_corners
    assert n_corners == 5 * (2**dim if x_dependent else 1)
    for points_per_chunk in (n_points, 7, 3, 1):
        monkeypatch.setattr(cell_problems, "_GATHER_VALUES", points_per_chunk * n_corners)
        got = table.interp_stacks(stacks, u, axes, fast)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], points_per_chunk


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m_c, periods", [(16, 16), (16, 8), (12, 8), (20, 12)])
def test_one_sample_reads_each_fast_coordinate_once_bitwise(monkeypatch, dim, m_c, periods):
    # a one-sample table at the fine nodes and at element centers, the fast
    # coordinates on the cell lattice and off it (m_c not a multiple of the
    # period): each distinct one read once, spread over the points
    from twoscale.analysis import interior_element_centers
    from twoscale.expansion import fast_coordinates, fine_grid_for

    pgrid = default_parameter_grid(SmoothPeriodicCoefficient(dim))
    assert pgrid.size == 1
    table, stacks = random_table(pgrid, CellGrid(dim, m_c))
    eps = 0.25
    fine = fine_grid_for(eps, periods, dim)
    centers = interior_element_centers(fine, [0.1, 0.9])
    reads = []
    monkeypatch.setattr(cell_problems, "tensor_corners",
                        lambda grid, axes, _f=cell_problems.tensor_corners:
                        reads.append([len(a) for a in axes]) or _f(grid, axes))
    for axes, fast in [(fine.axes(), fast_coordinates(fine, eps)),
                       (centers, [np.mod(a / eps, 1.0) for a in centers])]:
        u = np.zeros(int(np.prod([len(a) for a in axes])))
        want = stacked_interp(table, stacks, u, axes, fast)
        reads.clear()
        got = table.interp_stacks(stacks, u, axes, fast)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert reads == [[len(np.unique(f)) for f in fast]]
        assert reads[0][0] < len(axes[0])
    assert len(np.unique(fast_coordinates(fine, eps)[0])) == periods


def test_parameter_grid_forms_its_u_rule_once(monkeypatch):
    model = RosselandCoefficient(1, b=1.0, u_range=(0.0, 2.0))
    pgrid = default_parameter_grid(model, n_u=9)
    u = np.linspace(-0.5, 2.5, 41)
    x = np.full((len(u), 1), 0.5)
    want = [cell_problems.barycentric_weights(cell_problems.barycentric_rule(pgrid.u_samples),
                                              u, d) for d in (False, True)]
    rules = []
    monkeypatch.setattr(cell_problems, "barycentric_rule",
                        lambda s, _f=cell_problems.barycentric_rule: rules.append(1) or _f(s))
    for derivative, w in zip((None, 0), want):
        for _ in range(3):
            ids, wts = pgrid.corners(u, x, derivative)
            assert wts.tobytes() == w.tobytes()
    assert len(rules) == 1
    assert len(default_parameter_grid(model, n_u=9).corners(u, x)) and len(rules) == 2


FAMILIES = {
    "CONSTANT": lambda dim, source: ConstantCoefficient(
        dim, [[2.0]] if dim == 1 else [[2.0, 0.5], [0.5, 1.5]], source=source),
    "SMOOTH_PERIODIC": lambda dim, source: SmoothPeriodicCoefficient(dim, source=source),
    "LAYERED": lambda dim, source: LayeredCoefficient(dim, width=0.2, source=source),
    "ROSSELAND": lambda dim, source: RosselandCoefficient(
        dim, b=1.0, k_matrix=None if dim == 1 else [[1.0, 0.3], [0.3, 0.8]],
        u_range=(0.0, 2.0), source=source),
    "SEPARATED": lambda dim, source: SeparatedCoefficient(dim, mu_u2=1.0, mu_x=0.5,
                                                          source=source),
}
SOURCES = {
    "constant": SourceModel(base=1.0),
    "u_coeff": SourceModel(base=1.0, u_coeff=0.5),
    "amplitude": SourceModel(base=1.0, amplitude=0.5, frequency=2),
    "both": SourceModel(base=1.0, u_coeff=0.5, amplitude=0.5),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_skipped_zero_pieces_are_their_solved_zeros(monkeypatch, dim, family, source):
    # every piece whose load is identically zero, left unsolved, against the
    # same sample with every tangent and slow load formed and solved and the
    # source load solved: the same fields and diagnostics, fewer solves
    model = FAMILIES[family](dim, SOURCES[source])
    grid, x = CellGrid(dim, 8), [0.5] * dim
    solves = []
    original_solve = cell_problems.solve_periodic_zero_mean
    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean",
                        lambda *args: solves.append(1) or original_solve(*args))

    def everything(sample):
        held = {f"first_{m}": f for m, f in enumerate(sample.first)}
        held.update({f"hess_{k}{l}": v for (k, l), v in sample.hessian.items()})
        held.update(sample.slow, source=sample.source, tangents=sample.tangents)
        return {name: f.tobytes() for name, f in held.items()}, sample.diagnostics.as_dict()

    for u in (0.0, 0.6):  # d a / d u vanishes at u = 0 for ROSSELAND
        skipped = CellSample(model, u, x, grid)
        got, got_diag = everything(skipped)
        n_skipped, solves[:] = len(solves), []
        with monkeypatch.context() as forced:
            forced.setattr(CellSample, "moving_axes", property(
                lambda self: [True] * (1 + dim) if not self.model.separable
                else [False] * (1 + dim)))
            forced.setattr(CellSample, "source", property(
                lambda self: self.solve(self._load(self.f_q - self.source_mean))))
            want, want_diag = everything(CellSample(model, u, x, grid))
        n_forced, solves[:] = len(solves), []
        assert got == want and got_diag == want_diag, (family, source, u)
        zero_source = source in ("constant", "u_coeff")
        assert n_forced - n_skipped >= zero_source, (family, source, u)
        assert (got["source"] == np.zeros(grid.ndof).tobytes()) or not zero_source
        if family == "ROSSELAND":
            # unsolved: the dim^2 x-tangents and dim slow0 always, and at u = 0
            # the dim u-tangents and dim^2 slowg as well
            assert skipped.moving_axes == [u != 0.0] + [False] * dim
            assert n_forced - n_skipped == zero_source + (dim * dim + dim) * (1 + (u == 0.0))


def test_rosseland_table_skips_its_zero_solves(monkeypatch):
    # the benchmark's nonlinear table (9 u samples, 128 cells): the slow0
    # and source loads vanish at every sample and the u-tangent and slowg
    # loads at u = 0, leaving the first and hessian correctors at every
    # sample and the u-tangent and slowg at the 8 others: 34 of 53 solves
    model = RosselandCoefficient(1, k_base=2.0, k_amplitude=1.0, b=1.0, u_range=(0.0, 2.0),
                                 source=SourceModel(base=20.0))
    solves = []
    original_solve = cell_problems.solve_periodic_zero_mean
    monkeypatch.setattr(cell_problems, "solve_periodic_zero_mean",
                        lambda *args: solves.append(1) or original_solve(*args))
    build_corrector_tables(model, default_parameter_grid(model, n_u=9), CellGrid(1, 128))
    assert len(solves) == 9 * 2 + 8 * 2


def test_a_cell_solve_measures_its_load_twice(monkeypatch):
    # CellSample.solve takes the load's norm once for its diagnostics, and
    # solve_periodic_zero_mean once for its zero-load floor, compatibility
    # defect and projection, which read one norm and one sum
    grid = CellGrid(2, 8)
    sample = CellSample(SmoothPeriodicCoefficient(2, base=2.0, amplitude=1.0), 0.5, [0.5, 0.5], grid)
    factor = sample.factor
    rhs = assemble_load(grid, sample.quad, flux_fn=lambda pts: np.cos(2.0 * np.pi * pts))
    incompatible = rhs + 1e-3
    want_defect = fem.rhs_constant_defect(incompatible, factor.scale)
    x = np.zeros(grid.ndof)  # the projected solve, written out
    x[1:] = factor.lu.solve(rhs[1:] - rhs.sum() / grid.ndof)
    want = x - x.sum() / grid.ndof

    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    for load in (rhs, np.zeros(grid.ndof)):
        calls.clear()
        got = sample.solve(load)
        assert len(calls) == 2
        assert got.tobytes() == (want if load is rhs else np.zeros(grid.ndof)).tobytes()
    assert sample.diagnostics.max_rhs_defect == fem.rhs_constant_defect(rhs, factor.scale)
    with pytest.raises(CompatibilityError, match=f"relative defect {want_defect:.3e} "):
        sample.solve(incompatible)
    assert want_defect > sample.opts.compat_tol
    assert sample.diagnostics.max_rhs_defect == want_defect


def kirchhoff_table(dim, m_c, n_u, **mu):
    """A SEPARATED table, a = mu(u) g(y) I with g = 2 + prod_d sin 2 pi y_d,
    mu of u alone, and the ratio d mu/du / mu at each of its u samples."""
    model = SeparatedCoefficient(dim, g_base=2.0, g_amplitude=1.0, **mu)
    pgrid = default_parameter_grid(model, n_u=n_u)
    table, _ = build_corrector_tables(model, pgrid, CellGrid(dim, m_c))
    x = np.full(dim, 0.5)
    ratios = [model.mu_gradient(u, x)[0] / model.mu(u, x) for u in pgrid.u_samples]
    return table.fields, ratios


def test_separable_1d_slow_corrector_is_the_kirchhoff_identity():
    # with w = M(u) = int_0^u mu, -(mu(u) g u')' = f is the linear
    # -(g w')' = f, so the u-chain of the second-order term is algebraic:
    # slowg_00 = (mu'/mu) (hess_00 - (N^2 - <N^2>) / 2), the mean removed as
    # every corrector's is; in 1-D the cell discretization keeps it exactly
    fields, ratios = kirchhoff_table(1, 256, 9, mu0=1.0, mu_u2=1.0)
    assert np.max(np.abs(fields["slowg_00"])) > 1e-2  # not vacuous
    for j, r in enumerate(ratios):
        n_sq = fields["first_0"][j] ** 2
        want = r * (fields["hess_00"][j] - (n_sq - n_sq.mean()) / 2.0)
        got = fields["slowg_00"][j]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), j
        assert np.all(fields["slow0_0"][j] == 0.0)


def test_separable_2d_slow_corrector_meets_the_kirchhoff_identity_at_second_order():
    # sum_km slowg_km g_k g_m + sum_k slow0_k g_k against
    # (mu'/mu) (sum_kl hess_kl g_k g_l - ((N.g)^2 - <(N.g)^2>) / 2) for random
    # macro gradients g: in 2-D the identity holds up to the cell
    # discretization, so the miss falls as h_c^2
    gs = np.random.default_rng(3).standard_normal((8, 2))
    misses = []
    for m_c in (16, 32, 64):
        fields, ratios = kirchhoff_table(2, m_c, 5, mu0=1.0, mu_u=0.5, mu_u2=1.0)
        miss = scale = 0.0
        for j, r in enumerate(ratios):
            at = {name: stack[j] for name, stack in fields.items()}
            for g in gs:
                got = sum(at[f"slowg_{k}{m}"] * g[k] * g[m] for k in range(2) for m in range(2))
                got = got + sum(at[f"slow0_{k}"] * g[k] for k in range(2))
                hess = sum(at[f"hess_{min(k, l)}{max(k, l)}"] * g[k] * g[l]
                           for k in range(2) for l in range(2))
                n_g_sq = sum(at[f"first_{k}"] * g[k] for k in range(2)) ** 2
                want = r * (hess - (n_g_sq - n_g_sq.mean()) / 2.0)
                miss = max(miss, float(np.max(np.abs(got - want))))
                scale = max(scale, float(np.max(np.abs(got))))
        misses.append(miss)
    slope = -np.polyfit(np.log([16, 32, 64]), np.log(misses), 1)[0]
    assert slope >= 1.9, (misses, slope)
    assert scale > 1e-2 and misses[-1] <= 1e-3 * scale, (misses, scale)
