"""Periodic cell problems, the effective tensor, and corrector tables.

For a frozen macro state (u, x) the microstructure enters through four
families of zero-mean periodic fields on the unit cell:

* first-order correctors  (one per direction) -- drive the oscillating part
  of the solution gradient and define the effective tensor;
* hessian correctors      (one per direction pair) -- multiply second
  derivatives of the macro solution in the second-order reconstruction;
* slow-variation correctors (one per direction) -- capture the drift of the
  cell data along the macro variables, including the nonlinear coupling
  through the u-derivative of the coefficient; that drift is read off the
  tangent cell problems, the first-corrector problem differentiated along
  each parameter axis at the sample itself;
* a source corrector      -- driven by the mean-free part of the source.

Because the macro state is continuous, all of them are tabulated over a
small (u, x) parameter lattice: Chebyshev-Lobatto points over the whole
admissible u range, read by the barycentric polynomial through every u
sample, times uniform x axes read multilinearly.  The slow
correctors are affine in the macro gradient; the table stores the constant
piece and one field per gradient component so any macro gradient can be
recombined exactly at evaluation time.

Every family at one sample is a cached attribute of the same
:class:`CellSample`, which reads the others it needs: the coefficient, its
parameter derivatives and the source are evaluated at the quadrature points
once, and the periodic operator is assembled and factored once.  The table
build makes one such object per sample, in one pass.  For a separable
coefficient a = mu(u, x) g(y) the operator at every sample is a multiple of
the operator at the first one, so that first sample is the ``base`` of all
the others: the whole table assembles and factors one operator, each sample
solving with the base's LU after dividing its load by its mu ratio, and
solves once the first and hessian correctors, from whose equations mu
cancels, and 2 dim^2 pieces that d mu / mu scales into every slow corrector.

The default cell quadrature is one midpoint per direction in 1-D and a
2x2 Gauss rule in 2-D.  Midpoint sampling matters in 1-D: the assembled
effective coefficient becomes a harmonic mean over point samples, i.e. a
periodic midpoint rule, which converges superalgebraically for smooth
periodic data, whereas two-point Gauss leaves an O(h^2) element-averaging
bias.  In 2-D a one-point rule would leave the bilinear hourglass mode
unresolved, so it is not an option there.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property, wraps

import numpy as np

from .coefficients import CoefficientModel, _sym2_eigs
from .errors import ConfigurationError, PropertyViolationError
from .fem import (
    PeriodicFactor,
    QuadratureRule,
    SolverOptions,
    as_period,
    assemble_load_from_samples,
    assemble_stiffness,
    default_quadrature,
    element_quad_points,
    field_gradients_at_quad,
    field_values_at_quad,
    integrate,
    rhs_constant_defect,
    solve_periodic_zero_mean,
)
from .grids import (
    CellGrid,
    interpolate_values,
    lattice_corners,
    lattice_points,
    periodic_fd_gradient,
    tensor_corners,
)


# ---------------------------------------------------------------------------
# parameter grid and tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterGrid:
    """Sample lattice for the slow arguments (u, x) of the cell data."""

    u_samples: np.ndarray
    x_axes: tuple

    def __post_init__(self):
        u = np.asarray(self.u_samples, dtype=float)
        object.__setattr__(self, "u_samples", u)
        object.__setattr__(
            self, "x_axes", tuple(np.asarray(a, dtype=float) for a in self.x_axes)
        )
        if np.any(np.diff(u) <= 0.0):
            raise ConfigurationError("u_samples must be strictly increasing")
        for ax in self.x_axes:
            if np.any(np.diff(ax) <= 0.0):
                raise ConfigurationError("x sample axes must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.x_axes)

    @property
    def axes(self) -> tuple:
        return (self.u_samples,) + self.x_axes

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def indices(self):
        return itertools.product(*[range(s) for s in self.shape])

    def coords(self, multi):
        u = float(self.u_samples[multi[0]])
        x = np.array([ax[i] for ax, i in zip(self.x_axes, multi[1:])])
        return u, x

    @property
    def n_corners(self) -> int:
        """Corners of a read: every u sample times the corners of the x axes
        that have two samples or more."""
        return len(self.u_samples) * 2 ** sum(len(ax) > 1 for ax in self.x_axes)

    @cached_property
    def u_rule(self) -> tuple:
        """The u axis's :func:`barycentric_rule`, formed once per grid."""
        return barycentric_rule(self.u_samples)

    def corners(self, u, x, derivative=None):
        """(ids, weights), each (K, C), of the queries u (K,), x (K, dim): the
        :func:`barycentric_weights` of u times the :func:`lattice_corners` of
        x, ids flattened with u slowest, each axis clamped to its ends; with
        ``derivative`` = d, differentiated along lattice axis d (0 is u)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x_ids, x_wts = lattice_corners(self.x_axes, x, derivative=derivative - 1 if derivative else None)
        u_wts = barycentric_weights(self.u_rule, u, derivative == 0)
        n_u = len(self.u_samples)
        # built (u sample, x corner, query), so each returned column is contiguous
        ids = np.arange(n_u)[:, None, None] * (self.size // n_u) + x_ids.T
        wts = u_wts.T[:, None, :] * x_wts.T
        return ids.reshape(-1, len(u)).T, wts.reshape(-1, len(u)).T


def barycentric_rule(samples) -> tuple:
    """(samples, w, D) of the polynomial through the n increasing
    ``samples``, which :func:`barycentric_weights` reads: the barycentric
    weights w_j = 1 / prod_{k != j} (u_j - u_k) and the differentiation
    matrix D_ij = (w_j / w_i) / (u_i - u_j), D_ii = -sum_{j != i} D_ij;
    (samples, None, None) for one sample.  Only the ratios of the w_j
    matter, so their gaps are scaled by the power of two that takes the
    range to [2, 4): exact, and finite for up to 857 samples on any range.
    A :class:`ParameterGrid` forms its u axis's rule once."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 1:
        return samples, None, None
    gaps = samples[:, None] - samples
    np.fill_diagonal(gaps, 1.0)
    w = 1.0 / np.prod(np.ldexp(gaps, 2 - np.frexp(samples[-1] - samples[0])[1]), axis=1)
    diff = w / w[:, None] / gaps
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    return samples, w, diff


def barycentric_weights(rule, u, derivative=False) -> np.ndarray:
    """(K, n) weights of the polynomial through the n samples of ``rule``
    (:func:`barycentric_rule`) at the queries u (K,), clamped to the
    samples' range: the second barycentric form (Berrut & Trefethen, SIAM
    Rev. 46 (2004) 501-517); a query on a sample reads that sample alone.
    With ``derivative``, those weights times D, which differentiate the
    polynomial; they are 0 beyond the range, where the read is flat, and on
    one sample."""
    samples, w, diff = rule
    u = np.asarray(u, dtype=float)
    if len(samples) == 1:
        return np.full((len(u), 1), 0.0 if derivative else 1.0)
    offsets = np.clip(u, samples[0], samples[-1])[:, None] - samples
    on = offsets == 0.0
    c = w / np.where(on, 1.0, offsets)
    wts = np.where(on.any(axis=1, keepdims=True), on, c / c.sum(axis=1, keepdims=True))
    if derivative:
        wts = np.einsum("kj,ji->ki", wts, diff)
        wts[(u < samples[0]) | (u > samples[-1])] = 0.0
    return wts


def default_parameter_grid(model: CoefficientModel, n_u: int = 5, n_x: int = 5) -> ParameterGrid:
    """Parameter lattice sized by what the model actually depends on: n_x
    uniform points per x axis, and n_u Chebyshev-Lobatto points over the
    whole admissible u range, where the barycentric read converges
    geometrically for data analytic in u (Trefethen, *Approximation Theory
    and Approximation Practice*, 2013, ch. 8).  Their sine form is odd about
    the middle, so an odd n_u hits the midpoint exactly (1 - cos misses it by
    an ulp) and 3 points are ``np.linspace(lo, hi, 3)``."""
    lo, hi = model.u_lo, model.u_hi
    if model.u_dependent or model.source.u_dependent:
        k = np.arange(1 - n_u, n_u, 2)
        u_samples = lo + (hi - lo) * (0.5 + 0.5 * np.sin(0.5 * np.pi * k / max(n_u - 1, 1)))
        u_samples[-1:] = hi  # a slice, so n_u = 0 leaves no samples for _check_lattice to refuse
    else:
        u_samples = np.array([0.5 * (lo + hi)])
    if model.x_dependent:
        x_axes = tuple(np.linspace(0.0, 1.0, n_x) for _ in range(model.dim))
    else:
        x_axes = tuple(np.array([0.5]) for _ in range(model.dim))
    return ParameterGrid(u_samples=u_samples, x_axes=x_axes)


def _blend(corners, stack: np.ndarray) -> np.ndarray:
    """Blend of per-sample data ``stack`` (n_samples, ...) by the (ids,
    weights) of :meth:`ParameterGrid.corners`, shape (K, ...)."""
    ids, wts = corners
    out = np.zeros((len(ids),) + stack.shape[1:])
    for c in range(ids.shape[1]):
        out += wts[:, c].reshape((-1,) + (1,) * (stack.ndim - 1)) * stack[ids[:, c]]
    return out


@dataclass
class BuildDiagnostics:
    """Aggregated solve health across a table build."""

    max_corrector_mean: float = 0.0
    max_rhs_defect: float = 0.0
    max_tensor_asymmetry: float = 0.0
    min_voigt_slack: float = np.inf
    min_reuss_slack: float = np.inf

    def absorb(self, other: "BuildDiagnostics"):
        self.max_corrector_mean = max(self.max_corrector_mean, other.max_corrector_mean)
        self.max_rhs_defect = max(self.max_rhs_defect, other.max_rhs_defect)
        self.max_tensor_asymmetry = max(
            self.max_tensor_asymmetry, other.max_tensor_asymmetry
        )
        self.min_voigt_slack = min(self.min_voigt_slack, other.min_voigt_slack)
        self.min_reuss_slack = min(self.min_reuss_slack, other.min_reuss_slack)

    def as_dict(self) -> dict:
        return asdict(self)


def corrector_field_names(dim: int) -> list:
    names = [f"first_{m}" for m in range(dim)]
    names += [f"hess_{k}{l}" for k in range(dim) for l in range(k, dim)]
    names += [f"slow0_{k}" for k in range(dim)]
    names += [f"slowg_{k}{m}" for k in range(dim) for m in range(dim)]
    names.append("source")
    return names


@dataclass
class CorrectorTable:
    """All corrector fields tabulated over the parameter lattice."""

    cell_grid: CellGrid
    param_grid: ParameterGrid
    fields: dict = field(repr=False)  # name -> (n_samples, ndof)
    # first-corrector name -> (1 + dim, n_samples, ndof): its derivative
    # along each parameter axis (:attr:`CellSample.tangents`)
    tangents: dict = field(default_factory=dict, repr=False)
    diagnostics: BuildDiagnostics = field(default_factory=BuildDiagnostics)
    _gradients: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.cell_grid.dim

    def gradient_stack(self, name: str) -> np.ndarray:
        """(n_samples, ndof, dim) of recovered fast-variable nodal gradients;
        a stack stored once for every sample gets its gradient the same way."""
        if name not in self._gradients:
            stack = self.fields[name]
            rows = stack[:1] if stack.strides[0] == 0 else stack
            grads = np.stack([periodic_fd_gradient(self.cell_grid, row) for row in rows], axis=0)
            self._gradients[name] = np.broadcast_to(grads, stack.shape + (self.dim,))
        return self._gradients[name]

    def interp_stacks(self, stacks, u, axes, fast_axes) -> list:
        """Interpolate (n_samples, ndof) stacks on a tensor lattice of K
        points: x the product of the per-axis coordinates ``axes``, first
        axis slowest, y = x / eps mod 1 that of ``fast_axes``, and u (K,)
        one value per point.

        Each cell axis is bracketed once (:func:`tensor_corners`); the cell
        corners with a nonzero weight, and the parameter corners of every
        point, are shared by every stack.  Per stack and cell corner, one
        (C, K) gather reads the C parameter corners of every point, K taken
        in chunks of at most ``_GATHER_VALUES`` // C points; each corner's
        read sums its cell corners from 0.0 and the point's parameter
        corners then add in order, from 0.0.  A one-sample parameter lattice
        reads its one row, which its blend would add once, with weight 1, to
        0, and a point's read then depends on its fast coordinates alone:
        each bitwise-distinct one along each axis is read once, and the reads
        are spread over the lattice.  Returns one (K,) array per stack.
        """
        if self.param_grid.size == 1:
            distinct, spread = [], []
            for coords in fast_axes:
                bits, inverse = np.unique(np.asarray(coords, dtype=float).view(np.uint64),
                                          return_inverse=True)
                distinct.append(bits.view(float))
                spread.append(inverse.reshape(-1))
            live = self._live_corners(distinct)
            return [_corner_sum(live, lambda ids: stack[0, ids])
                    .reshape([len(d) for d in distinct])[np.ix_(*spread)].reshape(-1)
                    for stack in stacks]
        x = lattice_points(axes)
        u = np.asarray(u, dtype=float)
        live = self._live_corners(fast_axes)
        out = [np.empty(len(x)) for _ in stacks]
        step = max(1, _GATHER_VALUES // self.param_grid.n_corners)
        for k0 in range(0, len(x), step):
            points = slice(k0, k0 + step)
            pids, pwts = self.param_grid.corners(u[points], x[points])
            rows = pids.T  # (C, K): every parameter corner of every point
            chunk = [(i[points], w[points]) for i, w in live]
            for total, stack in zip(out, stacks):
                reads = _corner_sum(chunk, lambda ids: stack[rows, ids])  # (C, K)
                acc = np.zeros(len(pids))
                for p, read in enumerate(reads):
                    acc += pwts[:, p] * read
                total[points] = acc
        return out

    def _live_corners(self, fast_axes) -> list:
        """(ids, weights), each (K,), of the cell corners of the tensor lattice
        of ``fast_axes`` (:func:`tensor_corners`) with a nonzero weight at
        some point."""
        ids, wts = tensor_corners(self.cell_grid, fast_axes)
        return [(i.reshape(-1), w.reshape(-1)) for i, w in zip(ids, wts) if w.any()]


def _corner_sum(corners, gather) -> np.ndarray:
    """The sum from 0.0, in corner order, of weight times ``gather(ids)``
    over the (ids, weights) of ``corners``."""
    acc = None
    for ids, w in corners:
        term = w * gather(ids)
        if acc is None:
            acc = np.zeros(term.shape)
        acc += term
    return acc


# parameter-corner values that a chunk of a table read gathers at once
_GATHER_VALUES = 1 << 20


@dataclass
class EffectiveTensorTable:
    """Effective coefficient matrices (and source means) over the lattice."""

    param_grid: ParameterGrid
    values: np.ndarray = field(repr=False)  # (n_samples, dim, dim)
    source_means: np.ndarray = field(repr=False)  # (n_samples,)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def interp(self, u, x) -> np.ndarray:
        return _blend(self.param_grid.corners(u, x), self.values)

    def newton_data(self, u, x) -> tuple:
        """(a0, da0/du, f, df/du) at the queries (u, x), the tensor and source
        stacks blended by one set of weights per derivative order; the
        u-derivatives are zero where the read clamps."""
        value, slope = self.param_grid.corners(u, x), self.param_grid.corners(u, x, derivative=0)
        return (_blend(value, self.values), _blend(slope, self.values),
                _blend(value, self.source_means), _blend(slope, self.source_means))

    def ellipticity(self) -> tuple:
        eigs = _sym2_eigs(self.values)
        return float(eigs.min()), float(eigs.max())


# ---------------------------------------------------------------------------
# single-sample solves
# ---------------------------------------------------------------------------


def _shared(compute):
    """A cached attribute that a sample with a ``base`` reads from the base,
    on first read, and any other sample computes with ``compute``."""
    @wraps(compute)
    def read(self):
        return compute(self) if self.base is None else getattr(self.base, compute.__name__)
    return cached_property(read)


class CellSample:
    """The cell data at one parameter sample (u, x), each piece computed once.

    Every quantity is a cached attribute, computed on first read from the
    attributes it needs and then shared: the quadrature-point samples
    ``a_q``, ``da_q`` (parameter derivatives) and ``f_q`` of the data, the
    ``factor`` of the periodic operator (assembled through
    :func:`assemble_stiffness`; its scale and sparse LU are made on the
    first nonzero solve), the correctors ``first``, ``hessian``, ``source``,
    ``tangents`` and ``slow``, the corrected ``flux`` and its
    ``flux_derivatives``, the effective tensor ``a0`` and the parameter
    axes it moves along, ``moving_axes``.  Every solve uses ``opts`` and
    records its health in the sample's own ``diagnostics``; a corrector
    whose load is identically zero forms no load and runs no solve, and is
    the zeros, with the diagnostics, that the zero-load floor gives.
    ``shift`` translates the cell data periodically (translation-invariance
    checks).

    ``base`` is another sample of the same separable model
    (``model.separable``: a = mu(u, x) g(y)) on the same cell grid.  This
    sample's operator is then c = mu(u, x) / mu(base) times the base's, so
    it assembles nothing: it divides each load by c before it solves, and,
    mu cancelling from the first, hessian and tangent problems, it reads
    every :func:`_shared` attribute (``factor``, ``first``, ``first_q``,
    ``hessian``, ``tangents``, ``slow_pieces``) from the base; its slow
    correctors are those pieces scaled by its d mu / mu.  Its own corrected
    flux still drives the effective tensor, and its own f the source.
    """

    def __init__(self, model, u, x, grid: CellGrid, quad=None, opts=SolverOptions(),
                 shift=None, base=None):
        if base is not None and not (model.separable and base.model is model
                                     and base.grid == grid):
            raise ValueError("a base sample needs the same separable model and cell grid")
        self.model, self.u, self.x, self.grid, self.base = model, u, x, grid, base
        self.quad = quad or default_quadrature(grid.dim)
        self.opts = opts
        self.diagnostics = BuildDiagnostics()
        pts = element_quad_points(grid, self.quad)
        self.quad_shape = pts.shape[:2]  # (E, Q)
        pts = pts.reshape(-1, grid.dim)
        if shift is not None:
            pts = pts + shift
            pts = np.where(pts >= 1.0, pts - 1.0, pts)
        self.points = pts

    def mean(self, samples) -> float:
        """Cell average of quad-point samples (E, Q)."""
        return integrate(self.grid, self.quad, samples)

    @cached_property
    def a_q(self) -> np.ndarray:
        """Coefficient at the quadrature points, (E, Q, dim, dim)."""
        a = self.model.eval_a(self.u, self.x, self.points)
        return a.reshape(self.quad_shape + a.shape[1:])

    @cached_property
    def da_q(self) -> np.ndarray:
        """Parameter derivatives of the coefficient at the quadrature points,
        (1 + dim, E, Q, dim, dim): d/du, then d/dx_d for every axis d."""
        da = self.model.eval_da_du(self.u, self.x, self.points)[:, None]
        da = np.concatenate([da, self.model.eval_da_dx(self.u, self.x, self.points)], axis=1)
        return np.moveaxis(da.reshape(self.quad_shape + da.shape[1:]), 2, 0)

    @cached_property
    def f_q(self) -> np.ndarray:
        """Source at the quadrature points, (E, Q)."""
        return self.model.eval_f(self.u, self.x, self.points).reshape(self.quad_shape)

    @cached_property
    def source_mean(self) -> float:
        """Cell mean of the source: the homogenized right-hand side here."""
        return self.mean(self.f_q)

    @_shared
    def factor(self) -> PeriodicFactor:
        return PeriodicFactor(assemble_stiffness(self.grid, as_period(self.grid, self.a_q), self.quad))

    def solve(self, rhs) -> np.ndarray:
        """Zero-mean periodic solve against this sample's operator."""
        if self.base is not None:
            # the zero-load floor and the compatibility check read the load
            # against the operator scale, so both survive the division
            rhs = rhs / (self.model.mu(self.u, self.x) / self.model.mu(self.base.u, self.base.x))
        factor, diag = self.factor, self.diagnostics
        diag.max_rhs_defect = max(diag.max_rhs_defect, rhs_constant_defect(rhs, factor.scale))
        sol = solve_periodic_zero_mean(factor, rhs, self.opts)
        diag.max_corrector_mean = max(diag.max_corrector_mean, abs(float(sol.mean())))
        return sol

    def _load(self, scalar=None, flux=None) -> np.ndarray:
        return assemble_load_from_samples(self.grid, self.quad, as_period(self.grid, scalar),
                                          as_period(self.grid, flux))

    @_shared
    def first(self) -> list:
        """First-order correctors, one zero-mean periodic field per direction.

        Direction m solves the periodic problem whose flux load is minus the
        m-th coefficient column, so that the corrected gradient
        e_m + grad(N_m) carries a divergence-free flux.
        """
        return [self.solve(self._load(flux=-self.a_q[:, :, m, :])) for m in range(self.grid.dim)]

    @_shared
    def first_q(self) -> tuple:
        """The first correctors at the quadrature points: their values
        N_m, (dim, E, Q, 1), and corrected gradients e_m + grad N_m, (dim,
        E, Q, dim), which every flux and corrector load reads."""
        grid, quad = self.grid, self.quad
        values = np.stack([field_values_at_quad(grid, f, quad) for f in self.first])[..., None]
        corrected = np.stack([field_gradients_at_quad(grid, f, quad) for f in self.first])
        for m in range(grid.dim):
            corrected[m, :, :, m] += 1.0
        return values, corrected

    def _corrected(self, coefficients) -> np.ndarray:
        """c (e_m + grad N_m) at the quadrature points for each c of
        ``coefficients`` (n, E, Q, dim, dim), as (n, dim, E, Q, dim).  An
        identically zero c gets zeros and no product."""
        corrected = self.first_q[1]
        out = np.zeros((len(coefficients),) + corrected.shape)
        for p, c in enumerate(coefficients):
            for m, grad in enumerate(corrected if np.any(c) else []):
                out[p, m] = np.einsum("eqij,eqj->eqi", c, grad)
        return out

    @cached_property
    def moving_axes(self) -> list:
        """Per parameter axis, u and then x_d for every axis d, whether the
        coefficient varies along it at this sample, d_p a being nonzero at
        some quadrature point: the loads of the tangents and the slow
        correctors along any other axis are identically zero.  A separable
        model (whose d_p a is d_p mu / mu times a, read from ``slow_pieces``)
        and a coefficient of y alone evaluate no derivative and move along
        no axis here."""
        model = self.model
        if model.separable or not (model.u_dependent or model.x_dependent):
            return [False] * (1 + self.grid.dim)
        return [bool(np.any(da)) for da in self.da_q]

    @cached_property
    def flux(self) -> np.ndarray:
        """F[m] = A (e_m + grad N_m) at the quadrature points, (dim, E, Q,
        dim): the effective tensor and the hessian loads read it.
        It evaluates no parameter derivative of A."""
        return self._corrected(self.a_q[None])[0]

    @cached_property
    def flux_derivatives(self) -> np.ndarray:
        """dF[p, m] = d_pA (e_m + grad N_m) for p = u, x_0, ..., (1 + dim,
        dim, E, Q, dim): the loads of the tangents and the slow correctors.
        An axis along which the coefficient does not vary gets zeros."""
        return self._corrected(self.da_q)

    @cached_property
    def a0(self) -> np.ndarray:
        """Cell average of the corrected flux: a0[:, j] = int A (e_j + grad N_j).

        The result is symmetrized (the deviation is a solve-quality
        diagnostic) and checked against the arithmetic/harmonic-mean bounds
        in a few probe directions; a violation means a broken corrector
        solve, not a rounding issue, so it raises.
        """
        grid, quad, a_q, diag = self.grid, self.quad, self.a_q, self.diagnostics
        dim = grid.dim
        a0 = np.zeros((dim, dim))
        for j in range(dim):
            a0[:, j] = np.einsum("eqi,q->i", self.flux[j], quad.weights) * grid.spacing**dim

        asym = float(np.max(np.abs(a0 - a0.T)))
        a0 = 0.5 * (a0 + a0.T)
        diag.max_tensor_asymmetry = max(diag.max_tensor_asymmetry, asym)

        tol = 1e-10 * max(1.0, float(np.abs(a_q).max()))
        for xi in _voigt_reuss_directions(dim):
            quad_form = np.einsum("i,eqij,j->eq", xi, a_q, xi)
            voigt = self.mean(quad_form)
            reuss = 1.0 / self.mean(1.0 / quad_form)
            val = float(xi @ a0 @ xi)
            diag.min_voigt_slack = min(diag.min_voigt_slack, voigt - val)
            diag.min_reuss_slack = min(diag.min_reuss_slack, val - reuss)
            if val > voigt + tol or val < reuss - tol:
                raise PropertyViolationError(
                    f"effective tensor escapes mean bounds in direction {xi}: "
                    f"{reuss:.12g} <= {val:.12g} <= {voigt:.12g} fails"
                )

        eigs = _sym2_eigs(a0[None])
        lo, hi = self.model.ellipticity_lower, self.model.ellipticity_upper
        slack = 1e-6 * (hi - lo + 1.0)
        if eigs.min() < lo - slack or eigs.max() > hi + slack:
            raise PropertyViolationError(
                f"effective tensor eigenvalues {eigs.ravel()} escape [{lo}, {hi}]"
            )
        return a0

    @_shared
    def hessian(self) -> dict:
        """Second-order correctors contracted against the macro Hessian.

        The load of the pair (k, l) has the mean-free scalar part
        (A (e_l + grad N_l))_k and the flux part -N_l A_k.  It is not
        symmetric in its two indices, but the pair only ever multiplies the
        symmetric Hessian, so the symmetrized load is solved once per
        unordered pair.
        """
        grid, a_q, flux, n_at_q = self.grid, self.a_q, self.flux, self.first_q[0]

        def load(k, l):
            scal = flux[l, :, :, k] - self.mean(flux[l, :, :, k])
            return self._load(scal, -n_at_q[l] * a_q[:, :, k, :])

        return {
            (k, l): self.solve(load(k, l) if k == l else 0.5 * (load(k, l) + load(l, k)))
            for k in range(grid.dim) for l in range(k, grid.dim)
        }

    @cached_property
    def source(self) -> np.ndarray:
        """Zero-mean periodic field driven by the mean-free part of the source.

        A source that is constant in y at this sample (the same at every
        quadrature point) has a zero mean-free load: its corrector is the
        exact zeros that the zero-load floor of a solve would return, with no
        load formed and no solve."""
        if np.all(self.f_q == self.f_q.flat[0]):
            return np.zeros(self.grid.ndof)
        return self.solve(self._load(self.f_q - self.source_mean))

    @_shared
    def tangents(self) -> np.ndarray:
        """Derivatives of the first correctors along the parameter axes,
        (1 + dim, dim, ndof): d/du, then d/dx_d for every axis d.

        Differentiating the discrete problem K(a) N_m = L(-a e_m) along an
        axis p gives K(a) d_pN_m = L(-d_pa (e_m + grad N_m)), solved with
        this sample's own factor.  An axis along which the coefficient does
        not vary at this sample (:attr:`moving_axes`), including any axis of
        a separable model (whose load is d_p mu / mu times L(-a (e_m + grad
        N_m)) = 0) or of a coefficient of y alone, gets exact zeros and no
        solve.
        """
        grid = self.grid
        out = np.zeros((1 + grid.dim, grid.dim, grid.ndof))
        for p, moves in enumerate(self.moving_axes):
            for m in range(grid.dim if moves else 0):
                out[p, m] = self.solve(self._load(flux=-self.flux_derivatives[p, m]))
        return out

    @_shared
    def slow_pieces(self) -> np.ndarray:
        """A separable model's slow pieces [W, V], (2, dim, dim, ndof), solved
        once on the base from its corrected flux F and first correctors N:
        W_ik for the scalar F[k]_i less its mean if a varies in x, V_mk for
        that scalar (i = m) and the flux -N_m F[k] if a varies in u."""
        grid, flux, dim, n_at_q = self.grid, self.flux, self.grid.dim, self.first_q[0]
        pieces = np.zeros((2, dim, dim, grid.ndof))
        for i, k in itertools.product(range(dim), repeat=2):
            scalar = flux[k, :, :, i] - self.mean(flux[k, :, :, i])
            if self.model.x_dependent:
                pieces[0, i, k] = self.solve(self._load(scalar))
            if self.model.u_dependent:
                pieces[1, i, k] = self.solve(self._load(scalar, -n_at_q[i] * flux[k]))
        return pieces

    @cached_property
    def slow(self) -> dict:
        """Slow-variation correctors at this sample, as affine pieces.

        The macro derivatives of the cell data are local: the ``tangents``
        T_p = d_pN and, from them, those of the corrected flux, less their
        quadrature mean: dh(p; i, k) = dF[p, k]_i + (A grad T_pk)_i.  The
        corrector for direction k and macro gradient g is
        ``slow0_k + sum_m g_m slowg_km``; its load is affine in g, so each
        piece solves its own: slow0_k the scalar sum_i dh(x_i; i, k) and the
        flux -sum_l A_:l T_{x_l}k, slowg_km the scalar dh(u; m, k) and the
        flux -(A_:m T_uk + N_m dF[u, k]), whose last term is the order-eps
        coefficient a(u0 + eps N_m d_m u0).  Returns those fields by name.

        A separable model has T_p = 0 and dF[p] = r_p F, r_p = d_p mu / mu,
        so with its solves' division by mu / mu(base) its loads make
        slow0_k = sum_i r_{x_i} W_ik and slowg_km = r_u V_mk from the base's
        ``slow_pieces``, solving nothing and evaluating no derivative of a.
        The loads of slow0_k are zero unless the coefficient moves along
        some x axis at this sample (:attr:`moving_axes`), and those of
        slowg_km unless it moves along u, as for every axis of a coefficient
        of y alone: such a corrector is the exact zeros that the zero-load
        floor of a solve would return, with no load formed and no solve.
        """
        grid, dim = self.grid, self.grid.dim
        if self.model.separable:
            r = self.model.mu_gradient(self.u, self.x) / self.model.mu(self.u, self.x)
            w, v = self.slow_pieces
            zero = np.zeros(grid.ndof)  # summing from +0 turns r * piece = -0 into 0
            fields = {f"slowg_{k}{m}": zero + r[0] * v[m, k]
                      for k, m in itertools.product(range(dim), repeat=2)}
            for k in range(dim):
                fields[f"slow0_{k}"] = sum((r[1 + i] * w[i, k] for i in range(dim)), zero)
            means = [abs(float(f.mean())) for f in fields.values()]
            self.diagnostics.max_corrector_mean = max(self.diagnostics.max_corrector_mean, *means)
            return fields
        along_u, along_x = self.moving_axes[0], any(self.moving_axes[1:])
        quad, a_q = self.quad, self.a_q
        # per parameter axis, the values and gradients of the tangents of
        # every direction at the quadrature points, of the axes some load reads
        t_at_q, dt_at_q = {}, {}
        for p in ([0] if along_u else []) + (list(range(1, 1 + dim)) if along_x else []):
            t_at_q[p] = [field_values_at_quad(grid, t, quad)[:, :, None] for t in self.tangents[p]]
            dt_at_q[p] = [field_gradients_at_quad(grid, t, quad) for t in self.tangents[p]]

        def dh(p, i, k):
            v = (self.flux_derivatives[p, k, :, :, i]
                 + np.einsum("eqm,eqm->eq", a_q[:, :, i, :], dt_at_q[p][k]))
            return v - self.mean(v)

        fields = {}
        for k in range(dim):
            fields[f"slow0_{k}"] = self.solve(self._load(
                sum(dh(1 + i, i, k) for i in range(dim)),
                -sum(a_q[:, :, :, l] * t_at_q[1 + l][k] for l in range(dim)),
            )) if along_x else np.zeros(grid.ndof)
            for m in range(dim):
                fields[f"slowg_{k}{m}"] = self.solve(self._load(
                    dh(0, m, k), -(a_q[:, :, :, m] * t_at_q[0][k]
                                   + self.first_q[0][m] * self.flux_derivatives[0, k])
                )) if along_u else np.zeros(grid.ndof)
        return fields


def solve_first_correctors(model, u, x, grid: CellGrid, quad=None, opts=SolverOptions()):
    """First-order correctors at (u, x); see :attr:`CellSample.first`."""
    return CellSample(model, u, x, grid, quad, opts).first


def effective_tensor(model, u, x, first_fields, grid: CellGrid, quad=None) -> np.ndarray:
    """Effective tensor at (u, x) from the given first correctors; see
    :attr:`CellSample.a0`."""
    sample = CellSample(model, u, x, grid, quad)
    sample.first = list(first_fields)  # the instance attribute is the cache
    return sample.a0


def _voigt_reuss_directions(dim):
    dirs = [np.eye(dim)[i] for i in range(dim)]
    if dim == 2:
        dirs.append(np.array([1.0, 1.0]) / np.sqrt(2.0))
        dirs.append(np.array([1.0, -1.0]) / np.sqrt(2.0))
    return dirs


# ---------------------------------------------------------------------------
# table build
# ---------------------------------------------------------------------------


def _check_lattice(model, pgrid: ParameterGrid, grid: CellGrid):
    """The lattice must sample exactly the slow arguments the model has, each
    at 3 or more points: 2 points would reduce the read along that axis to
    one chord of the cell data."""
    u_dep = model.u_dependent or model.source.u_dependent
    if u_dep and len(pgrid.u_samples) < 3:
        raise ConfigurationError(
            "u-dependent model needs at least 3 u samples (got "
            f"{len(pgrid.u_samples)})"
        )
    if not u_dep and len(pgrid.u_samples) != 1:
        raise ConfigurationError("u-independent model must use a single u sample")
    if model.x_dependent and any(len(ax) < 3 for ax in pgrid.x_axes):
        raise ConfigurationError("x-dependent model needs >= 3 x samples per axis")
    if not model.x_dependent and any(len(ax) != 1 for ax in pgrid.x_axes):
        raise ConfigurationError("x-independent model must use single x samples")
    if pgrid.dim != grid.dim:
        raise ConfigurationError("parameter grid dimension mismatch")


def _map_samples(fn, multis, threads):
    """``[fn(multi) for multi in multis]``, over a thread pool if asked."""
    if threads > 1 and len(multis) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, multis))
    return [fn(multi) for multi in multis]


def _stack(rows) -> np.ndarray:
    """The per-sample ``rows`` stacked along a new first axis; rows that are
    all one object, a base's, are stored once and broadcast read-only."""
    if all(row is rows[0] for row in rows):
        return np.broadcast_to(rows[0], (len(rows),) + np.shape(rows[0]))
    return np.stack(rows)


def build_corrector_tables(
    model: CoefficientModel,
    pgrid: ParameterGrid,
    grid: CellGrid,
    quad: QuadratureRule | None = None,
    opts: SolverOptions = SolverOptions(),
    threads: int = 1,
):
    """Solve every cell problem at every parameter sample.

    One pass takes one :class:`CellSample` per parameter sample and reads
    its first, hessian, source, tangent and slow correctors, its effective
    tensor and its diagnostics; the slow correctors read the sample's own
    tangents, so no sample needs another.  For a ``separable`` model the
    sample at the first lattice point is the ``base`` of every other one and
    is kept for the whole build: the table assembles and factors one
    operator, solves the first and hessian correctors and the slow pieces
    once, and then one source load per sample.
    Otherwise each sample assembles and factors its own operator once and
    is dropped when it is done, so no operator is kept across samples.
    Every per-sample quantity is stacked by :func:`_stack`, which stores
    what the samples share with a base once.  Sample solves are
    independent, so the result is bitwise identical for any thread count.
    Returns the corrector table (with the tangent stacks of the first
    correctors) and the effective-tensor table (which also carries the cell
    mean of the source per sample).
    """
    dim = grid.dim
    quad = quad or default_quadrature(dim)
    _check_lattice(model, pgrid, grid)
    multis = list(pgrid.indices())
    base = (CellSample(model, *pgrid.coords(multis[0]), grid, quad, opts)
            if model.separable else None)

    def sample_pass(multi):
        u, x = pgrid.coords(multi)
        try:
            sample = (base if base is not None and multi == multis[0]
                      else CellSample(model, u, x, grid, quad, opts, base=base))
            held = {f"first_{m}": field for m, field in enumerate(sample.first)}
            held.update({f"hess_{k}{l}": v for (k, l), v in sample.hessian.items()})
            held.update(a0=sample.a0, source=sample.source)
            held.update(sample.slow, tangents=sample.tangents, source_mean=sample.source_mean)
        except Exception as exc:  # annotate with the failing sample
            raise type(exc)(f"sample (u={u:.6g}, x={x}) failed: {exc}") from exc
        return held, sample.diagnostics

    # the first sample runs alone, so a base has its correctors, slow pieces
    # and factor before the samples based on it read them from other threads
    results = [sample_pass(multis[0])]
    results += _map_samples(sample_pass, multis[1:], threads)
    stacks = {name: _stack([held[name] for held, _ in results]) for name in results[0][0]}
    diagnostics = BuildDiagnostics()
    for _, diag in results:
        diagnostics.absorb(diag)

    table = CorrectorTable(
        cell_grid=grid, param_grid=pgrid,
        fields={name: stacks[name] for name in corrector_field_names(dim)},
        tangents={f"first_{m}": np.moveaxis(stacks["tangents"][:, :, m], 0, 1)
                  for m in range(dim)},
        diagnostics=diagnostics,
    )
    tensors = EffectiveTensorTable(
        param_grid=pgrid, values=stacks["a0"], source_means=stacks["source_mean"]
    )
    return table, tensors


# ---------------------------------------------------------------------------
# translation invariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationReport:
    shift: np.ndarray
    reduced_shift: np.ndarray
    grid_aligned: bool
    discrepancy: float
    tolerance_hint: float


def check_translation_invariance(
    model, u, x, shift, grid: CellGrid, quad=None, opts=SolverOptions()
) -> TranslationReport:
    """Solve the cell problems on a shifted cell and compare.

    Shifting the cell is the same as shifting all periodic data, and the
    shifted solution must coincide with the periodic extension of the
    unshifted one.  For shifts that are whole multiples of the grid spacing
    the discrete problems are exact relabelings of each other, so the
    discrepancy is the rounding of the direct cell solves, and the
    tolerance hint is that rounding scale, ndof * machine eps * max(1, |N|);
    other shifts incur O(h) interpolation error, and the hint is h.
    """
    quad = quad or default_quadrature(grid.dim)
    z = np.atleast_1d(np.asarray(shift, dtype=float))
    if z.shape != (grid.dim,):
        raise ValueError(f"shift must have {grid.dim} components")
    z_red = z - np.floor(z)

    reference = solve_first_correctors(model, u, x, grid, quad, opts)
    rounding = grid.ndof * np.finfo(float).eps * max(1.0, float(np.max(np.abs(reference))))
    if np.all(z_red == 0.0):  # the shifted problem is the problem itself
        return TranslationReport(z, z_red, True, 0.0, rounding)

    shifted = CellSample(model, u, x, grid, quad, opts, shift=z_red).first
    query = grid.dof_coords() + z_red
    query = np.where(query >= 1.0, query - 1.0, query)
    disc = 0.0
    for s, r in zip(shifted, reference):
        ref_shifted = interpolate_values(grid, r, query)
        ref_shifted = ref_shifted - ref_shifted.mean()
        disc = max(disc, float(np.max(np.abs(s - ref_shifted))))

    steps = z_red * grid.cells_per_side
    aligned = bool(np.all(np.abs(steps - np.round(steps)) < 1e-12))
    hint = rounding if aligned else grid.spacing
    return TranslationReport(z, z_red, aligned, disc, hint)
