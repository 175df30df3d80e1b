"""Coefficient families a(u, x, y) and sources f(u, x, y).

Every family produces a symmetric, uniformly elliptic matrix that is
1-periodic in the fast variable y, together with its closed-form derivative
in the unknown u and, for the one x-dependent family, in the slow variable
x.  The evaluator contract is deliberately small -- anything returning
symmetric matrices from (u, x, y) plus their u- and x-derivatives can act as
a coefficient -- and the built-in families are data-configured instances of
that contract:

* CONSTANT          fixed matrix, no dependence on (u, x, y)
* SMOOTH_PERIODIC   scalar trigonometric oscillation times the identity
* LAYERED           laminate across one axis, optionally C1-smoothed
* ROSSELAND         radiative-conductive form k(y) + 4 u^3 b
* SEPARATED         mu(u, x) * g(y), a multiplicative split

Evaluators clamp u to the admissible range: nonlinear iterations may step
transiently outside it, and clamping keeps ellipticity (hence SPD assembly)
intact; the u-derivatives, those of the clamped evaluators, vanish outside
it.  Ellipticity limits are measured by sampling at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PropertyViolationError


def _as_points(p, dim):
    arr = np.atleast_2d(np.asarray(p, dtype=float))
    if arr.shape[1] != dim:
        raise ValueError(f"points have dim {arr.shape[1]}, expected {dim}")
    return arr


def _normalize_args(u, x, y, dim):
    """Broadcast (u, x, y) to (K,), (K, dim), (K, dim); a single point, a
    vector, is a batch of one."""
    x = _as_points(x, dim)
    y = _as_points(y, dim)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    k = max(len(u), len(x), len(y))
    if len(u) == 1:
        u = np.full(k, u[0])
    if len(x) == 1:
        x = np.broadcast_to(x, (k, dim))
    if len(y) == 1:
        y = np.broadcast_to(y, (k, dim))
    if not (len(u) == len(x) == len(y) == k):
        raise ValueError("u, x, y lengths are incompatible")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input to coefficient evaluator")
    return u, x, y


def _sym2_eigs(mats):
    """Eigenvalues of symmetric 1x1 or 2x2 matrices, shape (K, dim)."""
    if mats.shape[-1] == 1:
        return mats[:, 0, :]
    half_tr = 0.5 * (mats[:, 0, 0] + mats[:, 1, 1])
    rad = np.sqrt((0.5 * (mats[:, 0, 0] - mats[:, 1, 1])) ** 2 + mats[:, 0, 1] ** 2)
    return np.stack([half_tr - rad, half_tr + rad], axis=-1)


@dataclass(frozen=True)
class PeriodicScalar:
    """base + amplitude * prod_d sin(2 pi f_d y_d) over axes with f_d != 0."""

    base: float = 1.0
    amplitude: float = 0.0
    frequency: tuple = (1,)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        out = np.full(y.shape[0], float(self.base))
        if self.amplitude == 0.0:
            return out
        osc = np.ones(y.shape[0])
        for d, f in enumerate(self.frequency):
            if f == 0:
                continue
            osc = osc * np.sin(2.0 * np.pi * f * y[:, d])
        return out + self.amplitude * osc


@dataclass(frozen=True)
class SourceModel:
    """f(u, x, y) = base + u_coeff * u + amplitude * sin(2 pi f y_axis + phase)."""

    base: float = 0.0
    u_coeff: float = 0.0
    amplitude: float = 0.0
    frequency: int = 1
    phase: float = 0.0
    axis: int = 0

    @property
    def u_dependent(self) -> bool:
        return self.u_coeff != 0.0

    def eval(self, u, x, y, dim):
        u, x, y = _normalize_args(u, x, y, dim)
        out = self.base + self.u_coeff * u
        if self.amplitude != 0.0:
            out = out + self.amplitude * np.sin(
                2.0 * np.pi * self.frequency * y[:, self.axis] + self.phase
            )
        return out

    def eval_du(self, u, x, y, dim):
        u, x, y = _normalize_args(u, x, y, dim)
        return np.full(len(u), self.u_coeff)


class CoefficientModel:
    """Base contract: symmetric elliptic a(u, x, y) with its u- and x-derivatives.

    Subclasses implement ``_matrix`` on normalized arrays, ``_matrix_du``
    if they declare ``u_dependent`` and ``_matrix_dx`` if they declare
    ``x_dependent``; this class handles clamping, broadcasting, the source,
    and the sampled ellipticity validation run at construction.
    """

    family = "BASE"

    def __init__(self, dim, u_range=(0.0, 1.0), source=None):
        self.dim = int(dim)
        self.u_lo, self.u_hi = (float(u_range[0]), float(u_range[1]))
        if not self.u_lo < self.u_hi:
            raise ValueError("u_range must be a nonempty interval")
        self.source = source if source is not None else SourceModel(base=1.0)
        self.ellipticity_lower = None
        self.ellipticity_upper = None
        self._validate()

    # -- subclass surface -------------------------------------------------
    def _matrix(self, u, x, y):
        raise NotImplementedError

    def _matrix_du(self, u, x, y):
        # (K, dim, dim); zero is only right for a u-independent family
        if self.u_dependent:
            raise NotImplementedError(f"{self.family}: a u-dependent family needs _matrix_du")
        return np.zeros((len(u), self.dim, self.dim))

    def _matrix_dx(self, u, x, y):
        # (K, dim_x, dim, dim); zero is only right for an x-independent family
        if self.x_dependent:
            raise NotImplementedError(f"{self.family}: an x-dependent family needs _matrix_dx")
        return np.zeros((len(u), self.dim, self.dim, self.dim))

    @property
    def u_dependent(self) -> bool:
        return False

    @property
    def x_dependent(self) -> bool:
        return False

    @property
    def solve_points(self) -> int:
        """Gauss points per direction of the macro and fine solves' rule; by
        default those of :func:`~twoscale.fem.default_quadrature`."""
        return 1 if self.dim == 1 else 2

    @property
    def separable(self) -> bool:
        """a = mu(u, x) g(y) with scalar mu > 0: mu cancels from the first and
        hessian cell problems, so their correctors do not depend on (u, x)."""
        return False

    # -- public evaluators -------------------------------------------------
    def eval_a(self, u, x, y):
        u, x, y = _normalize_args(u, x, y, self.dim)
        return self._matrix(np.clip(u, self.u_lo, self.u_hi), x, y)

    def eval_da_du(self, u, x, y):
        u, x, y = _normalize_args(u, x, y, self.dim)
        inside = (u >= self.u_lo) & (u <= self.u_hi)  # beyond, the clamped a is flat
        return self._matrix_du(np.clip(u, self.u_lo, self.u_hi), x, y) * inside[:, None, None]

    def eval_da_dx(self, u, x, y):
        """x-derivative of the coefficient, (K, dim_x, dim, dim): entry d is da/dx_d."""
        u, x, y = _normalize_args(u, x, y, self.dim)
        return self._matrix_dx(np.clip(u, self.u_lo, self.u_hi), x, y)

    def eval_f(self, u, x, y):
        return self.source.eval(np.clip(u, self.u_lo, self.u_hi), x, y, self.dim)

    def eval_df_du(self, u, x, y):  # the source normalizes the arguments, once
        u = np.atleast_1d(np.asarray(u, dtype=float))
        inside = (u >= self.u_lo) & (u <= self.u_hi)
        return self.source.eval_du(np.clip(u, self.u_lo, self.u_hi), x, y, self.dim) * inside

    # -- construction-time validation ---------------------------------------
    def _validate(self):
        n = self.dim
        y_ax = (np.arange(10) + 0.5) / 10.0
        if n == 1:
            y = y_ax.reshape(-1, 1)
        else:
            y = np.array([(a, b) for a in y_ax for b in y_ax])
        x_diag = np.linspace(0.0, 1.0, 10)
        x = np.repeat(x_diag.reshape(-1, 1), n, axis=1)
        u = np.linspace(self.u_lo, self.u_hi, 10)

        uu, xi, yi = np.meshgrid(u, np.arange(len(x)), np.arange(len(y)), indexing="ij")
        mats = self._matrix(uu.reshape(-1), x[xi.reshape(-1)], y[yi.reshape(-1)])
        asym = np.max(np.abs(mats - np.swapaxes(mats, 1, 2)))
        if asym > 1e-12:
            raise PropertyViolationError(f"{self.family}: asymmetric coefficient ({asym:.3e})")
        eigs = _sym2_eigs(mats)
        lam, big = float(eigs.min()), float(eigs.max())
        if lam <= 0.0:
            raise PropertyViolationError(
                f"{self.family}: not uniformly elliptic (sampled min eigenvalue {lam:.3e})"
            )
        self.ellipticity_lower = lam
        self.ellipticity_upper = big


class ConstantCoefficient(CoefficientModel):
    family = "CONSTANT"

    def __init__(self, dim, matrix, u_range=(0.0, 1.0), source=None):
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {dim}")
        self.matrix = 0.5 * (mat + mat.T)
        super().__init__(dim, u_range, source)

    def _matrix(self, u, x, y):
        return np.broadcast_to(self.matrix, (len(u), self.dim, self.dim)).copy()


class SmoothPeriodicCoefficient(CoefficientModel):
    family = "SMOOTH_PERIODIC"

    def __init__(self, dim, base=2.0, amplitude=1.0, frequency=None,
                 u_range=(0.0, 1.0), source=None):
        freq = tuple(frequency) if frequency is not None else (1,) * dim
        if len(freq) != dim:
            raise ValueError("frequency needs one entry per dimension")
        self.scalar = PeriodicScalar(base=base, amplitude=amplitude, frequency=freq)
        super().__init__(dim, u_range, source)

    def _matrix(self, u, x, y):
        sig = self.scalar(y)
        return np.einsum("k,ij->kij", sig, np.eye(self.dim))


class LayeredCoefficient(CoefficientModel):
    """Laminate across one axis: ``low`` for frac(y_axis) < interface, ``high`` after.

    ``width`` > 0 replaces the two jumps (at the interface and at the period
    wrap) by C1 smoothstep transitions of that total width; width = 0 keeps
    the sharp laminate, which is only FEM-friendly when element boundaries
    align with the interface.
    """

    family = "LAYERED"

    def __init__(self, dim, low=1.0, high=4.0, axis=0, interface=0.5, width=0.0,
                 u_range=(0.0, 1.0), source=None):
        if not 0.0 < interface < 1.0:
            raise ValueError("interface must lie strictly inside the period")
        if width < 0.0 or (width > 0.0 and not width / 2 < interface < 1.0 - width / 2):
            raise ValueError("smoothing width overlaps the period wrap")
        if min(low, high) <= 0.0:
            raise ValueError("layer values must be positive")
        self.low, self.high = float(low), float(high)
        self.axis, self.interface, self.width = int(axis), float(interface), float(width)
        super().__init__(dim, u_range, source)

    def _profile(self, t):
        t = np.mod(t, 1.0)
        if self.width == 0.0:
            return np.where(t < self.interface, self.low, self.high)
        half = 0.5 * self.width

        def smooth(tau):
            tau = np.clip(tau, 0.0, 1.0)
            return 3.0 * tau**2 - 2.0 * tau**3

        d_wrap = np.where(t > 0.5, t - 1.0, t)  # signed distance to the wrap jump
        up = self.low + (self.high - self.low) * smooth((t - self.interface + half) / self.width)
        down = self.high + (self.low - self.high) * smooth((d_wrap + half) / self.width)
        out = np.where(t < self.interface, self.low, self.high)
        out = np.where(np.abs(t - self.interface) <= half, up, out)
        out = np.where(np.abs(d_wrap) <= half, down, out)
        return out

    def _matrix(self, u, x, y):
        sig = self._profile(y[:, self.axis])
        return np.einsum("k,ij->kij", sig, np.eye(self.dim))


class RosselandCoefficient(CoefficientModel):
    """Conduction-radiation form a = k(y) + 4 u^3 b with k = sigma_k(y) * K0."""

    family = "ROSSELAND"

    def __init__(self, dim, k_base=2.0, k_amplitude=1.0, k_frequency=None,
                 k_matrix=None, b=0.1, u_range=(0.0, 1.0), source=None):
        freq = tuple(k_frequency) if k_frequency is not None else (1,) * dim
        self.k_scalar = PeriodicScalar(base=k_base, amplitude=k_amplitude, frequency=freq)
        k_mat = np.eye(dim) if k_matrix is None else np.atleast_2d(np.asarray(k_matrix, float))
        b_mat = np.asarray(b, dtype=float)
        if b_mat.ndim == 0:
            b_mat = float(b_mat) * np.eye(dim)
        self.k_matrix = 0.5 * (k_mat + k_mat.T)
        self.b_matrix = 0.5 * (b_mat + b_mat.T)
        super().__init__(dim, u_range, source)

    @property
    def u_dependent(self) -> bool:
        return bool(np.any(self.b_matrix != 0.0))

    @property
    def solve_points(self) -> int:
        # in 2-D the cubic in u composed with the bilinear iterate earns a point
        return 3 if self.dim == 2 and self.u_dependent else super().solve_points

    def _matrix(self, u, x, y):
        sig = self.k_scalar(y)
        out = np.einsum("k,ij->kij", sig, self.k_matrix)
        out += np.einsum("k,ij->kij", 4.0 * u**3, self.b_matrix)
        return out

    def _matrix_du(self, u, x, y):
        return np.einsum("k,ij->kij", 12.0 * u**2, self.b_matrix)


class SeparatedCoefficient(CoefficientModel):
    """Multiplicative split a = mu(u, x) * g(y) with polynomial mu.

    mu(u, x) = mu0 + mu_u * u + mu_u2 * u^2 + mu_x * mean(x); the fast part
    g is a scalar oscillation times the identity, so the first-order cell
    correctors are independent of (u, x) -- mu cancels from their equation.
    Every d_p a is (d_p mu / mu) a; the cell problems read :meth:`mu_gradient`.
    """

    family = "SEPARATED"

    def __init__(self, dim, mu0=1.0, mu_u=0.0, mu_u2=1.0, mu_x=0.0,
                 g_base=2.0, g_amplitude=1.0, g_frequency=None,
                 u_range=(0.0, 1.0), source=None):
        freq = tuple(g_frequency) if g_frequency is not None else (1,) * dim
        self.mu0, self.mu_u, self.mu_u2, self.mu_x = map(float, (mu0, mu_u, mu_u2, mu_x))
        self.g_scalar = PeriodicScalar(base=g_base, amplitude=g_amplitude, frequency=freq)
        super().__init__(dim, u_range, source)

    @property
    def u_dependent(self) -> bool:
        return self.mu_u != 0.0 or self.mu_u2 != 0.0

    @property
    def x_dependent(self) -> bool:
        return self.mu_x != 0.0

    @property
    def separable(self) -> bool:
        return True

    def mu(self, u, x) -> float:
        """The slow factor mu at one (u, x), u clamped as :meth:`eval_a` clamps it."""
        u = np.clip(float(u), self.u_lo, self.u_hi)
        return float(self._mu(u, _as_points(x, self.dim))[0])

    def mu_gradient(self, u, x) -> np.ndarray:
        """(d mu/du, d mu/dx_0, ...) at one (u, x); d mu/du is 0 strictly
        outside ``u_range``, where :meth:`eval_da_du` is."""
        du = self.mu_u + 2.0 * self.mu_u2 * u if self.u_lo <= u <= self.u_hi else 0.0
        return np.array([du] + [self.mu_x / self.dim] * self.dim)

    def _mu(self, u, x):
        return self.mu0 + self.mu_u * u + self.mu_u2 * u**2 + self.mu_x * x.mean(axis=1)

    def _matrix(self, u, x, y):
        sig = self._mu(u, x) * self.g_scalar(y)
        return np.einsum("k,ij->kij", sig, np.eye(self.dim))

    def _matrix_du(self, u, x, y):
        dmu = self.mu_u + 2.0 * self.mu_u2 * u
        return np.einsum("k,ij->kij", dmu * self.g_scalar(y), np.eye(self.dim))

    def _matrix_dx(self, u, x, y):
        # d mu / dx_d = mu_x / dim on every axis d
        sig = self.mu_x / self.dim * self.g_scalar(y)
        return np.einsum("k,d,ij->kdij", sig, np.ones(self.dim), np.eye(self.dim))


_FAMILIES = {
    "CONSTANT": ConstantCoefficient,
    "SMOOTH_PERIODIC": SmoothPeriodicCoefficient,
    "LAYERED": LayeredCoefficient,
    "ROSSELAND": RosselandCoefficient,
    "SEPARATED": SeparatedCoefficient,
}

_SOURCE_KEYS = {"base", "u_coeff", "amplitude", "frequency", "phase", "axis"}


def source_from_config(cfg: dict) -> SourceModel:
    cfg = dict(cfg)
    family = cfg.pop("family", "CONSTANT").upper()
    if family == "CONSTANT":
        value = cfg.pop("value", 1.0)
        if cfg:
            raise ValueError(f"unknown source keys: {sorted(cfg)}")
        return SourceModel(base=float(value))
    if family == "MODULATED":
        bad = set(cfg) - _SOURCE_KEYS
        if bad:
            raise ValueError(f"unknown source keys: {sorted(bad)}")
        return SourceModel(**cfg)
    raise ValueError(f"unknown source family {family!r}")


def coefficient_from_config(dim: int, cfg: dict, u_range=(0.0, 1.0), source=None) -> CoefficientModel:
    """Instantiate a built-in family from its config dictionary."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    if family is None:
        raise ValueError("coefficient config needs a 'family' tag")
    cls = _FAMILIES.get(str(family).upper())
    if cls is None:
        raise ValueError(
            f"unknown coefficient family {family!r}; known: {sorted(_FAMILIES)}"
        )
    return cls(dim, u_range=u_range, source=source, **cfg)
