"""Error norms, convergence-rate fitting, and the 1-D antiderivative check.

Everything here measures; nothing solves.  Gradients of error fields are
taken elementwise (constant slope per element in 1-D, center value of the
bilinear gradient in 2-D) rather than nodal-averaged: the sup-norm claims
concern the gradient itself and smoothing would flatter the rates.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .expansion import period_samples
from .fem import (element_blocks, element_quad_points, field_gradients_at_quad,
                  field_values_at_quad, gauss_rule)
from .grids import MacroGrid, ScalarField, fd_gradient, lattice_points


def resolve_box(box, dim) -> np.ndarray:
    """Normalize a subdomain spec to shape (dim, 2): [lo, hi] or per-axis list."""
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"bad subdomain box {box}")
    return arr


def _nodes_in_box(fld: ScalarField, box) -> tuple:
    """(values, axes) on the rectangle the box cuts from the node lattice of
    ``fld``: the nodal values and each axis's node coordinates."""
    grid, cut = fld.grid, []
    for (lo, hi), ax in zip(resolve_box(box, grid.dim), grid.axes()):
        inside = np.nonzero((ax >= lo - 1e-12) & (ax <= hi + 1e-12))[0]
        cut.append(slice(inside[0], inside[-1] + 1) if len(inside) else slice(0))
    values = fld.values.reshape((grid.nodes_per_side,) * grid.dim)[tuple(cut)]
    return values, [ax[c] for ax, c in zip(grid.axes(), cut)]


def _shifted_pairs(n: int, shift: int) -> tuple:
    """Slices of the nodes p and p + ``shift`` of a row of ``n`` with both in the row."""
    lo, hi = max(0, -shift), max(0, -shift, n - max(0, shift))
    return slice(lo, hi), slice(lo + shift, hi + shift)


def norm_linf(fld: ScalarField) -> float:
    """Max nodal magnitude."""
    return float(np.max(np.abs(fld.values)))


def _integrand(grid, quad, fill) -> np.ndarray:
    """(E, Q) quadrature samples that ``fill(elements, out)`` writes into
    ``out``, the rows of a block of element rows, a block at a time
    (:func:`~twoscale.fem.element_blocks`), so that only one block of its
    quadrature values and gradients is alive."""
    out = np.empty((grid.n_elements, len(quad.weights)))
    for elements in element_blocks(grid):
        fill(elements, out[elements])
    return out


def norm_l2(fld: ScalarField) -> float:
    grid, quad = fld.grid, gauss_rule(2, fld.grid.dim)
    sq = _integrand(grid, quad, lambda elements, out: np.square(
        field_values_at_quad(grid, fld.values, quad, elements), out=out))
    measure = grid.spacing**grid.dim
    return float(np.sqrt(np.einsum("eq,q->", sq, quad.weights) * measure))


def seminorm_h1(fld: ScalarField) -> float:
    grid, quad = fld.grid, gauss_rule(2, fld.grid.dim)

    def squared(elements, out):
        grads = field_gradients_at_quad(grid, fld.values, quad, elements)
        np.einsum("eqd,eqd->eq", grads, grads, out=out)

    sq = _integrand(grid, quad, squared)
    measure = grid.spacing**grid.dim
    return float(np.sqrt(np.einsum("eq,q->", sq, quad.weights) * measure))


def norm_h1(fld: ScalarField) -> float:
    return float(np.hypot(norm_l2(fld), seminorm_h1(fld)))


def homogenized_energy(tensor_table, u0: ScalarField) -> float:
    """The homogenized energy int a0(u0) grad u0 . grad u0, the macro side
    of :func:`energy_difference`, which one study forms once for all of its
    eps.  It uses the recovered nodal gradient of the smooth solution:
    second-order accurate pointwise, it avoids the O(h^2) interpolant-kink
    energy deficit that would sit as a constant floor under the eps signal.
    """
    grid = u0.grid
    quad = gauss_rule(2, grid.dim)
    pts = element_quad_points(grid, quad).reshape(-1, grid.dim)
    grad_nodal = fd_gradient(u0)
    grads = np.stack([field_values_at_quad(grid, grad_nodal[:, d], quad)
                      for d in range(grid.dim)], axis=-1)  # (E, Q, dim)
    u0_at = field_values_at_quad(grid, u0.values, quad).reshape(-1)
    a0_q = tensor_table.interp(u0_at, pts).reshape(grads.shape + (grid.dim,))
    dens = np.einsum("eqij,eqi,eqj->eq", a0_q, grads, grads)
    return float(np.einsum("eq,q->", dens, quad.weights) * grid.spacing**grid.dim)


def energy_difference(model, u_eps: ScalarField, eps: float, homogenized: float) -> float:
    """|resolved energy - ``homogenized``|, the latter the homogenized
    energy of the macro solution (:func:`homogenized_energy`).

    The fine side sums the positive quadrature terms w a grad u . grad u at
    the points of the model's solve rule, over the solve's samples
    (:func:`period_samples` for data of y alone), not u . K u, which
    cancels, K u being the small load (at eps 1/64 it moved the 1-D
    energy difference by 2.3e-13, 1.8e-7 relative).  The gradients, and for
    data of u or x the coefficient at the state read there, are formed a
    block of element rows at a time into the (E, Q) density it sums.
    """
    grid = u_eps.grid
    quad = gauss_rule(model.solve_points, grid.dim)
    m, dim, n_q = grid.cells_per_side, grid.dim, len(quad.weights)
    period = period_samples(model, eps, grid, quad, model.eval_a)
    p = m if period is None else len(period[0])  # element (a p + A, b p + B) reads class (A, B)
    row = m ** (dim - 1)  # elements per element row

    def density(elements, out):
        g = field_gradients_at_quad(grid, u_eps.values, quad, elements)  # (B, Q, dim)
        r0, r1 = elements.start // row, elements.stop // row
        if period is None:  # data of u or x: the coefficient at the state read at every point
            pts = element_quad_points(grid, quad, elements).reshape(-1, dim)
            u_at = field_values_at_quad(grid, u_eps.values, quad, elements).reshape(-1)
            a = model.eval_a(u_at, pts, np.mod(pts / eps, 1.0))
        else:  # the class rows of the block's element rows
            a = period[0][np.arange(r0, r1) % p]
        # element rows by copies and classes of the period along the other axes
        g = g.reshape((r1 - r0,) + (m // p, p) * (dim - 1) + (n_q, dim))
        a = a.reshape((r1 - r0,) + (1, p) * (dim - 1) + (n_q, dim, dim))
        # the sum over (i, j) in order of (a_ij g_i) g_j, as the einsum it
        # replaced adds it
        out, term = out.reshape(g.shape[:-1]), np.empty(g.shape[:-1])
        for k, (i, j) in enumerate(itertools.product(range(dim), repeat=2)):
            product = np.multiply(a[..., i, j], g[..., i], out=term if k else out)
            product *= g[..., j]
            if k:
                out += term

    dens = _integrand(grid, quad, density)
    e_fine = np.einsum("eq,q->", dens, quad.weights) * grid.spacing**dim
    return float(abs(e_fine - homogenized))


def _interior_axes(grid: MacroGrid, box) -> list:
    """Per axis, the mask of the elements whose extent along it lies inside the box."""
    b = resolve_box(box, grid.dim)
    if np.any(b[:, 0] <= 0.0) or np.any(b[:, 1] >= 1.0):
        raise ValueError("interior subdomain must not touch the boundary")
    h = grid.spacing
    origins = np.arange(grid.cells_per_side) * h  # of the elements along an axis
    tol = 1e-12
    masks = [(origins >= lo - tol) & (origins + h <= hi + tol) for lo, hi in b]
    if not all(mask.any() for mask in masks):
        raise ValueError("subdomain contains no whole elements")
    return masks


def _interior_elements(grid: MacroGrid, box) -> np.ndarray:
    mask = np.ones((), dtype=bool)  # elements in lattice order, first axis slowest
    for along in _interior_axes(grid, box):
        mask = np.logical_and.outer(mask, along)
    return mask.reshape(-1)


def interior_element_centers(grid: MacroGrid, box) -> list:
    """Per-axis coordinates of the centers of the elements inside the box;
    the centers are their tensor product, first axis slowest, in element order."""
    h, center = grid.spacing, gauss_rule(1, grid.dim).points[0]  # single midpoint
    return [(np.arange(grid.cells_per_side) * h + c * h)[along]
            for c, along in zip(center, _interior_axes(grid, box))]


@dataclass(frozen=True)
class InteriorSamples:
    """A nodal field's Q1 ``values`` (K,) and ``gradients`` (K, dim) at the
    centers of the elements inside a box, whose per-axis coordinates are
    ``axes`` (:func:`interior_element_centers`)."""

    axes: list
    values: np.ndarray
    gradients: np.ndarray


def interior_samples(fld: ScalarField, box) -> InteriorSamples:
    """:class:`InteriorSamples` of ``fld`` from one pass over the elements
    inside the box: their corner values times the Q1 basis values and
    gradients at the center, the products that :func:`field_values_at_quad`
    and :func:`field_gradients_at_quad` form for every element."""
    grid = fld.grid
    center = gauss_rule(1, grid.dim)
    rows = np.asarray(fld.values)[grid.element_dofs()[_interior_elements(grid, box)]]  # (K, C)
    return InteriorSamples(
        axes=interior_element_centers(grid, box),
        values=(rows @ center.basis.T)[:, 0],
        gradients=rows @ (center.basis_gradients[0] / grid.spacing),
    )


def interior_gradient_sup(
    samples: InteriorSamples,
    model=None,
    eps: float | None = None,
    base_gradient=None,
) -> float:
    """Max elementwise gradient magnitude over the elements of ``samples``
    (:func:`interior_samples`), which several measurements of one field share.

    The gradient is the Q1 gradient at the element center.  Given a
    ``model`` and ``eps`` it is the flux instead, premultiplied by the
    coefficient a(u, x, x / eps) at the center, u the field's value there.

    ``base_gradient``, an array (K, dim) of values at
    :func:`interior_element_centers`, is subtracted there.  Remainders
    against a reconstructed layer need this: differencing that layer's
    nodal values would leak O(h) interpolant kinks and difference-quotient
    consistency errors into the measurement, whereas recovered/chain-rule
    gradients are pointwise second-order accurate.
    """
    grads = samples.gradients
    if base_gradient is not None:
        base_at = np.asarray(base_gradient, dtype=float)
        if base_at.shape != grads.shape:
            raise ValueError(
                f"base gradient has shape {base_at.shape}, interior centers need "
                f"{grads.shape}"
            )
        grads = grads - base_at
    if model is not None:
        if eps is None:
            raise ValueError("the flux needs eps as well as the model")
        centers = lattice_points(samples.axes)
        a_q = model.eval_a(samples.values, centers, np.mod(centers / eps, 1.0))
        grads = np.einsum("kij,kj->ki", a_q, grads)
    return float(np.max(np.linalg.norm(grads, axis=1)))


_HOLDER_PAIRS = 100_000
_HOLDER_NEAR = 4
_HOLDER_BLOCK = 1 << 14  # 1-D pair quotients formed at once


def holder_seminorm(fld: ScalarField, box, beta: float, seed: int = 0) -> float:
    """sup |u(p) - u(q)| / |p - q|^beta over node pairs in the box.

    1-D uses all pairs, a block of offsets at a time.  2-D samples ``_HOLDER_PAIRS``
    (100,000) seeded random pairs and adds every pair within
    ``_HOLDER_NEAR`` (4) grid steps: the near field dominates the seminorm
    for the oscillatory remainders measured here.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    grid = fld.grid
    rect, axes = _nodes_in_box(fld, box)
    if rect.size < 2:
        raise ValueError("need at least two nodes in the subdomain")

    if grid.dim == 1:
        # running max over blocks of ``width`` pair offsets d0 <= d < d0 + width:
        # row d holds the pairs (i, i + d) of the nodes i < n - d0, which
        # have a pair at offset d0, read through windows of the values and
        # coordinates padded with zeros and +inf, whose quotients are 0;
        # O(_HOLDER_BLOCK) memory
        x, n = axes[0], len(rect)
        width = min(n - 1, max(1, _HOLDER_BLOCK // n))
        pad = n + width  # window d, d < n + width, starts inside the padded row
        far_x = sliding_window_view(np.concatenate([x, np.full(pad, np.inf)]), n - 1)
        far_v = sliding_window_view(np.concatenate([rect, np.zeros(pad)]), n - 1)
        best = 0.0
        for d0 in range(1, n, width):
            near, offsets = n - d0, slice(d0, d0 + width)
            quot = (np.abs(far_v[offsets, :near] - rect[:near])
                    / np.abs(far_x[offsets, :near] - x[:near]) ** beta)
            best = max(best, float(np.max(quot)))
        return best

    h = grid.spacing
    best = 0.0
    for di in range(0, _HOLDER_NEAR + 1):
        for dj in range(-_HOLDER_NEAR, _HOLDER_NEAR + 1):
            if (di == 0 and dj <= 0) or di * di + dj * dj > _HOLDER_NEAR * _HOLDER_NEAR:
                continue
            (ra, rb), (ca, cb) = _shifted_pairs(len(rect), di), _shifted_pairs(len(rect[0]), dj)
            a, b = rect[ra, ca], rect[rb, cb]
            if a.size:
                dist = h * np.hypot(di, dj)
                best = max(best, float(np.max(np.abs(a - b)) / dist**beta))

    rng = np.random.default_rng(seed)
    ia = rng.integers(0, rect.size, size=_HOLDER_PAIRS)
    ib = rng.integers(0, rect.size, size=_HOLDER_PAIRS)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    # node k of the rectangle is (x[k // n_y], y[k % n_y]), read from contiguous
    # columns; dx^2 + dy^2 is the sum np.linalg.norm takes, bit for bit
    x, y = np.repeat(axes[0], len(axes[1])), np.tile(axes[1], len(axes[0]))
    dx, dy = x[ia] - x[ib], y[ia] - y[ib]
    vals = rect.reshape(-1)
    dist = np.sqrt(dx * dx + dy * dy)
    best = max(best, float(np.max(np.abs(vals[ia] - vals[ib]) / dist**beta)))
    return best


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(eps)."""

    slope: float
    intercept: float
    stderr: float
    ci95: tuple
    pairwise: tuple
    n_used: int
    excluded: tuple = ()

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "ci95": list(self.ci95),
            "pairwise": list(self.pairwise),
            "n_used": self.n_used,
            "excluded": list(self.excluded),
        }


def student_t_quantile(dof: int, p: float) -> float:
    """The ``p`` quantile, 0.5 < p < 1, of Student's t with integer ``dof``.

    The two-sided probability A(t | dof) = P(|T| <= t) has a closed form
    (Abramowitz & Stegun 26.7.3-4) in theta = arctan(t / sqrt(dof)): a
    series in c2 = cos(theta)^2, which A falls with.  Bisection runs on c2
    itself, so the powers of c2 carry no rounding of a cosine, and finds
    A = 2p - 1 to the last bit of c2.
    """
    target = 2.0 * p - 1.0

    def two_sided(c2):
        s = math.sqrt(1.0 - c2)
        total = term = 1.0
        if dof % 2 == 0:
            for k in range(1, dof // 2):
                term *= c2 * (2 * k - 1) / (2 * k)
                total += term
            return s * total
        if dof == 1:
            total = 0.0
        for k in range(1, (dof - 1) // 2):
            term *= c2 * (2 * k) / (2 * k + 1)
            total += term
        c = math.sqrt(c2)
        return 2.0 / math.pi * (math.atan2(s, c) + s * c * total)

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.sqrt(dof * (1.0 - mid) / mid)
        if two_sided(mid) > target:
            lo = mid
        else:
            hi = mid


def fit_rate(pairs) -> RateFit:
    """Fit the convergence order from (eps, error) pairs.

    Non-positive errors are excluded with a warning (they sit at the noise
    floor and would poison the log fit); at least three usable pairs are
    required.
    """
    pairs = [(float(e), float(v)) for e, v in pairs]
    excluded = tuple(e for e, v in pairs if v <= 0.0)
    if excluded:
        warnings.warn(f"excluding non-positive errors at eps={list(excluded)}")
    usable = [(e, v) for e, v in pairs if v > 0.0]
    if len(usable) < 3:
        raise ValueError("need at least three positive (eps, error) pairs")
    x = np.log([e for e, _ in usable])
    y = np.log([v for _, v in usable])
    n = len(x)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = n - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    if dof > 0 and sxx > 0:
        se = float(np.sqrt(np.sum(resid**2) / dof / sxx))
        t = student_t_quantile(dof, 0.975)
        ci = (slope - t * se, slope + t * se)
    else:
        se = 0.0
        ci = (slope, slope)
    ordered = sorted(usable, key=lambda p: -p[0])
    pairwise = tuple(
        float(np.log(v0 / v1) / np.log(e0 / e1))
        for (e0, v0), (e1, v1) in zip(ordered, ordered[1:])
    )
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        stderr=se,
        ci95=ci,
        pairwise=pairwise,
        n_used=n,
        excluded=excluded,
    )


@dataclass
class LemmaResult:
    """Per-eps antiderivative norms and the fitted decay rate."""

    eps: list
    norms: list
    fit: RateFit


def antiderivative_lemma_1d(
    g,
    eps_values,
    p: float = np.inf,
    cells_per_period: int = 64,
) -> LemmaResult:
    """Verify that the mean-free oscillation integrates to an O(eps) field.

    ``g(x, y)`` must be vectorized and have zero mean in y for every x
    (checked by quadrature).  For each eps the primitive of x -> g(x, x/eps)
    is accumulated by the composite trapezoid rule on a grid resolving the
    period, recentred to zero mean over the domain, and measured in L^p.
    The rate is fitted through the norms above the rounding level,
    1e3 * machine eps * max|g| over the mean-free check samples, and is
    None when fewer than three reach it.
    """
    y_check = (np.arange(4096) + 0.5) / 4096.0
    g_max = 0.0
    for x0 in np.linspace(0.0, 1.0, 5):
        g_check = np.asarray(g(np.full_like(y_check, x0), y_check), dtype=float)
        g_max = max(g_max, float(np.max(np.abs(g_check))))
        mean = float(np.mean(g_check))
        if abs(mean) > 1e-10:
            raise ConfigurationError(
                f"g is not mean-free in y at x={x0:g} (mean {mean:.3e})"
            )

    eps_values = sorted((float(e) for e in eps_values), reverse=True)
    norms = []
    for eps in eps_values:
        k = 1.0 / eps
        if abs(k - round(k)) > 1e-9:
            raise ConfigurationError("eps must be reciprocals of integers")
        m = int(round(k)) * cells_per_period
        x = np.linspace(0.0, 1.0, m + 1)
        y = (np.arange(m + 1) % cells_per_period) / cells_per_period
        gv = np.asarray(g(x, y), dtype=float)
        h = 1.0 / m
        psi = np.concatenate([[0.0], np.cumsum(0.5 * (gv[1:] + gv[:-1]) * h)])
        psi -= np.trapezoid(psi, dx=h)
        if np.isinf(p):
            norms.append(float(np.max(np.abs(psi))))
        else:
            norms.append(float(np.trapezoid(np.abs(psi) ** p, dx=h) ** (1.0 / p)))

    floor = 1e3 * np.finfo(float).eps * g_max
    above = [(e, n) for e, n in zip(eps_values, norms) if n > floor]
    fit = fit_rate(above) if len(above) >= 3 else None  # rounding noise has no rate
    return LemmaResult(eps=list(eps_values), norms=norms, fit=fit)


REPORT_COLUMNS = (
    "eps",
    "linf_order0",
    "linf_order1",
    "linf_order2",
    "energy_diff",
    "h1_order1",
    "grad_sup_order1",
    "flux_sup_order1",
    "holder_order2",
)


@dataclass
class ErrorReport:
    """Per-eps error table with fitted decay rates.

    Rows are kept sorted by decreasing eps; ``fits`` maps every error column
    to its RateFit (columns stuck at the noise floor carry fit=None).
    """

    rows: list = field(default_factory=list)  # dicts keyed by REPORT_COLUMNS
    fits: dict = field(default_factory=dict)
    seed: int = 0
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: -r["eps"])
        for row in self.rows:
            for col in REPORT_COLUMNS:
                if row.get(col, 0.0) < 0.0:
                    raise ValueError(f"negative norm in report column {col}")

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(float(row[c])) for c in REPORT_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "columns": list(REPORT_COLUMNS),
            "rows": [
                {c: float(row[c]) for c in REPORT_COLUMNS} for row in self.rows
            ],
            "fits": {
                name: (fit.as_dict() if fit is not None else None)
                for name, fit in self.fits.items()
            },
            "seed": self.seed,
            "config": self.config,
            "diagnostics": self.diagnostics,
        }
