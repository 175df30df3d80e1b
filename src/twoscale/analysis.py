"""Error norms, convergence-rate fitting, and the 1-D antiderivative check.

Everything here measures; nothing solves.  Gradients of error fields are
taken elementwise (constant slope per element in 1-D, center value of the
bilinear gradient in 2-D) rather than nodal-averaged: the sup-norm claims
concern the gradient itself and smoothing would flatter the rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .expansion import period_samples
from .fem import (
    default_quadrature,
    element_quad_points,
    field_gradients_at_quad,
    field_values_at_quad,
    gauss_rule,
)
from .grids import MacroGrid, ScalarField, fd_gradient


def resolve_box(box, dim) -> np.ndarray:
    """Normalize a subdomain spec to shape (dim, 2): [lo, hi] or per-axis list."""
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"bad subdomain box {box}")
    return arr


def _nodes_in_box(grid: MacroGrid, box) -> np.ndarray:
    b = resolve_box(box, grid.dim)
    coords = grid.node_coords()
    tol = 1e-12
    mask = np.ones(grid.ndof, dtype=bool)
    for d in range(grid.dim):
        mask &= (coords[:, d] >= b[d, 0] - tol) & (coords[:, d] <= b[d, 1] + tol)
    return mask


def norm_linf(fld: ScalarField, box=None) -> float:
    """Max nodal magnitude, optionally over a sub-box."""
    if box is None:
        return float(np.max(np.abs(fld.values)))
    mask = _nodes_in_box(fld.grid, box)
    if not np.any(mask):
        raise ValueError("subdomain contains no nodes")
    return float(np.max(np.abs(fld.values[mask])))


def norm_l2(fld: ScalarField, quad=None) -> float:
    quad = quad or gauss_rule(2, fld.grid.dim)
    vals = field_values_at_quad(fld.grid, fld.values, quad)
    measure = fld.grid.spacing**fld.grid.dim
    return float(np.sqrt(np.einsum("eq,q->", vals**2, quad.weights) * measure))


def seminorm_h1(fld: ScalarField, quad=None) -> float:
    quad = quad or gauss_rule(2, fld.grid.dim)
    grads = field_gradients_at_quad(fld.grid, fld.values, quad)
    measure = fld.grid.spacing**fld.grid.dim
    sq = np.einsum("eqd,eqd->eq", grads, grads)
    return float(np.sqrt(np.einsum("eq,q->", sq, quad.weights) * measure))


def norm_h1(fld: ScalarField, quad=None) -> float:
    return float(np.hypot(norm_l2(fld, quad), seminorm_h1(fld, quad)))


def energy_difference(
    model,
    u_eps: ScalarField,
    eps: float,
    tensor_table,
    u0: ScalarField,
    fine_quad=None,
    macro_quad=None,
) -> float:
    """|resolved energy - homogenized energy|.

    The fine side sums the positive quadrature terms w a grad u . grad u over
    the solve's samples (:func:`period_samples` for data of y alone), not u .
    K u, which cancels, K u being the small load (at eps 1/64 it moved the 1-D
    energy difference by 2.3e-13, 1.8e-7 relative).  The macro side uses the
    recovered nodal gradient of the smooth solution: second-order accurate
    pointwise, it avoids the O(h^2) interpolant-kink energy deficit that
    would sit as a constant floor under the eps signal.
    """
    fine_grid, macro_grid = u_eps.grid, u0.grid
    fine_quad = fine_quad or default_quadrature(fine_grid.dim)
    macro_quad = macro_quad or gauss_rule(2, macro_grid.dim)
    dim = fine_grid.dim
    grads = field_gradients_at_quad(fine_grid, u_eps.values, fine_quad)  # (E, Q, dim)
    a_q = period_samples(model, eps, fine_grid, fine_quad, model.eval_a)
    if a_q is None:  # data of u or x: every element, at the state read there
        pts = element_quad_points(fine_grid, fine_quad).reshape(-1, dim)
        u_at = field_values_at_quad(fine_grid, u_eps.values, fine_quad).reshape(-1)
        a_q = [model.eval_a(u_at, pts, np.mod(pts / eps, 1.0)).reshape(
            (fine_grid.cells_per_side,) * dim + grads.shape[1:] + (dim,))]  # P = cells per side
    p = len(a_q[0])  # element (a p + A, b p + B) reads class (A, B)
    g = grads.reshape((fine_grid.cells_per_side // p, p) * dim + grads.shape[1:])
    dens = np.einsum(["Aqij,aAqi,aAqj->aAq", "ABqij,aAbBqi,aAbBqj->aAbBq"][dim - 1], a_q[0], g, g)
    e_fine = np.einsum("eq,q->", dens.reshape(grads.shape[:2]), fine_quad.weights)
    e_fine *= fine_grid.spacing**dim

    pts0 = element_quad_points(macro_grid, macro_quad).reshape(-1, macro_grid.dim)
    grad_nodal = fd_gradient(u0)
    grads0 = np.stack([field_values_at_quad(macro_grid, grad_nodal[:, d], macro_quad)
                       for d in range(macro_grid.dim)], axis=-1)  # (E, Q, dim)
    u0_at = field_values_at_quad(macro_grid, u0.values, macro_quad).reshape(-1)
    a0_q = tensor_table.interp(u0_at, pts0).reshape(grads0.shape + (macro_grid.dim,))
    dens0 = np.einsum("eqij,eqi,eqj->eq", a0_q, grads0, grads0)
    e_macro = np.einsum("eq,q->", dens0, macro_quad.weights) * macro_grid.spacing**macro_grid.dim

    return float(abs(e_fine - e_macro))


def _interior_elements(grid: MacroGrid, box) -> np.ndarray:
    b = resolve_box(box, grid.dim)
    if np.any(b[:, 0] <= 0.0) or np.any(b[:, 1] >= 1.0):
        raise ValueError("interior subdomain must not touch the boundary")
    h = grid.spacing
    origins = np.arange(grid.cells_per_side) * h  # of the elements along an axis
    tol = 1e-12
    mask = np.ones((), dtype=bool)  # elements in lattice order, first axis slowest
    for lo, hi in b:
        mask = np.logical_and.outer(mask, (origins >= lo - tol) & (origins + h <= hi + tol))
    mask = mask.reshape(-1)
    if not np.any(mask):
        raise ValueError("subdomain contains no whole elements")
    return mask


def interior_element_centers(grid: MacroGrid, box) -> np.ndarray:
    """Centers of the elements inside the box, (K, dim), in element order."""
    center = gauss_rule(1, grid.dim)  # single midpoint
    return element_quad_points(grid, center)[_interior_elements(grid, box), 0, :]


def interior_gradient_sup(
    fld: ScalarField,
    box,
    flux_mode: bool = False,
    model=None,
    eps: float | None = None,
    state: ScalarField | None = None,
    base_gradient=None,
) -> float:
    """Max elementwise gradient magnitude over elements inside the box.

    The gradient is the Q1 gradient at the element center.  In flux mode it
    is premultiplied by the oscillating coefficient evaluated at the center
    with the supplied state field (the resolved solution).

    ``base_gradient``, an array (K, dim) of values at
    :func:`interior_element_centers`, is subtracted there.  Remainders
    against a reconstructed layer need this: differencing that layer's
    nodal values would leak O(h) interpolant kinks and difference-quotient
    consistency errors into the measurement, whereas recovered/chain-rule
    gradients are pointwise second-order accurate.
    """
    grid = fld.grid
    mask = _interior_elements(grid, box)
    center = gauss_rule(1, grid.dim)  # single midpoint
    grads = field_gradients_at_quad(grid, fld.values, center)[mask, 0, :]
    if base_gradient is not None:
        base_at = np.asarray(base_gradient, dtype=float)
        if base_at.shape != grads.shape:
            raise ValueError(
                f"base gradient has shape {base_at.shape}, interior centers need "
                f"{grads.shape}"
            )
        grads = grads - base_at
    if flux_mode:
        if model is None or eps is None or state is None:
            raise ValueError("flux mode needs model, eps, and the state field")
        centers = interior_element_centers(grid, box)
        u_at = field_values_at_quad(grid, state.values, center)[mask, 0]
        a_q = model.eval_a(u_at, centers, np.mod(centers / eps, 1.0))
        grads = np.einsum("kij,kj->ki", a_q, grads)
    return float(np.max(np.linalg.norm(grads, axis=1)))


def holder_seminorm(
    fld: ScalarField,
    box,
    beta: float,
    seed: int = 0,
    n_random: int = 100_000,
    near_radius: int = 4,
) -> float:
    """sup |u(p) - u(q)| / |p - q|^beta over node pairs in the box.

    1-D uses all pairs, one offset at a time.  2-D samples ``n_random``
    seeded random pairs and adds every pair within ``near_radius`` grid
    steps: the near field dominates the seminorm for the oscillatory
    remainders measured here.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    grid = fld.grid
    mask = _nodes_in_box(grid, box)
    idx = np.nonzero(mask)[0]
    if len(idx) < 2:
        raise ValueError("need at least two nodes in the subdomain")
    coords = grid.node_coords()[idx]
    vals = fld.values[idx]

    if grid.dim == 1:
        # running max over pair offsets d: O(n) memory instead of n x n
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
    """
    y_check = (np.arange(4096) + 0.5) / 4096.0
    for x0 in np.linspace(0.0, 1.0, 5):
        mean = float(np.mean(g(np.full_like(y_check, x0), y_check)))
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

    if all(n > 0.0 for n in norms):
        fit = fit_rate(list(zip(eps_values, norms)))
    else:
        fit = None  # identically vanishing primitive has no rate to fit
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
