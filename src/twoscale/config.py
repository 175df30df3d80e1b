"""Experiment configuration: one JSON schema for every subcommand.

A config document is validated against the default schema (unknown keys are
an error -- typos must not silently fall back to defaults), normalized, and
carried through to the report so a run can be reproduced from its own
output.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .coefficients import coefficient_from_config, source_from_config
from .errors import ConfigurationError

MAX_U_SAMPLES = 512  # the barycentric u weights of up to 857 samples are finite on any range
MAX_FINE_DOFS = 2_000_000  # the default cap on the nodes of a resolved fine grid

DEFAULT_CONFIG = {
    "problem": {
        "dim": 1,
        "coefficient": {"family": "SMOOTH_PERIODIC"},
        "source": {"family": "CONSTANT", "value": 1.0},
        "u_range": [0.0, 1.0],
    },
    "discretization": {
        "m_x": 64,
        "m_c": 256,
        "cells_per_period": 16,
        "max_fine_dofs": MAX_FINE_DOFS,
        "table_u_samples": 5,
        "table_x_samples": 5,
    },
    "nonlinear": {
        # accepted and range-checked for older configs; Newton reads no damping
        "damping": 1.0,
    },
    "study": {
        "eps": [0.125, 0.0625, 0.03125, 0.015625],
        "interior_box": [0.25, 0.75],
        "beta": 0.5,
    },
    "lemma": {
        "amplitude": 1.0,
        "frequency": 1,
        "x_factor": "one",  # or "bump": 1 + x(1-x)
        "p": "inf",
        "eps": [0.125, 0.0625, 0.03125, 0.015625],
        "cells_per_period": 64,
    },
    "invariance": {
        "shift": [0.0],
        "u": 0.5,
        "x": [0.5],
    },
    "output": {
        "directory": "out",
        "seed": 0,
    },
}

# coefficient/source sections hold family-specific keys, so they are
# validated by their factories instead of against the defaults
_FREE_SECTIONS = {("problem", "coefficient"), ("problem", "source")}


def _check_unknown_keys(cfg, defaults, path=()):
    unknown = []
    for key, value in cfg.items():
        if key not in defaults:
            unknown.append(".".join(path + (key,)))
            continue
        if isinstance(value, dict) and isinstance(defaults[key], dict):
            if path + (key,) in _FREE_SECTIONS:
                continue
            unknown.extend(_check_unknown_keys(value, defaults[key], path + (key,)))
    return unknown


def _merge(defaults, cfg, path=()):
    out = copy.deepcopy(defaults)
    for key, value in cfg.items():
        if path + (key,) in _FREE_SECTIONS:
            # family sections have family-specific keys: a user-supplied one
            # replaces the default wholesale instead of inheriting its keys
            out[key] = copy.deepcopy(value)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value, path + (key,))
        else:
            out[key] = copy.deepcopy(value)
    return out


def _is_power_of_two(n) -> bool:
    return _is_int(n) and n > 0 and (n & (n - 1)) == 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked(section: dict, path: str, key: str, test, kind: str):
    """``section[key]`` if ``test`` accepts it, else a configuration error."""
    value = section[key]
    if not test(value):
        raise ConfigurationError(f"{path}.{key} must be {kind}, got {value!r}")
    return value


def parse_eps_list(raw) -> list:
    """Accept numbers or "1/k" strings; values must be reciprocals of integers,
    strictly decreasing."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigurationError(f"eps must be a nonempty list, got {raw!r}")
    out = []
    for item in raw:
        try:
            if isinstance(item, str) and "/" in item:
                num, den = item.split("/")
                val = float(num) / float(den)
            else:
                val = float(item)
            k = 1.0 / val
            valid = 0.0 < val < 1.0 and abs(k - round(k)) <= 1e-9
        except (TypeError, ValueError, ArithmeticError):
            valid = False
        if not valid:
            raise ConfigurationError(f"eps values must be 1/k for integer k, got {item}")
        out.append(1.0 / round(k))
    if any(a <= b for a, b in zip(out, out[1:])):
        raise ConfigurationError(f"eps list must be strictly decreasing, got {raw!r}")
    return out


def apply_override(cfg: dict, spec: str):
    """Apply one ``dotted.path=json_value`` override in place.  An object
    value merges into the section at its path as a config file's does, so a
    family section (coefficient, source) is replaced wholesale."""
    if "=" not in spec:
        raise ConfigurationError(f"override must look like key.path=value, got {spec!r}")
    path, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings allowed
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(f"override path {path!r} crosses a non-section")
    key, here = parts[-1], tuple(parts)
    if isinstance(value, dict) and isinstance(node.get(key), dict) and here not in _FREE_SECTIONS:
        value = _merge(node[key], value, here)
    node[key] = value


@dataclass
class ExperimentConfig:
    """Validated, default-filled experiment description."""

    raw: dict = field(repr=False)

    def __post_init__(self):
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self):
        cfg = self.raw
        for name in DEFAULT_CONFIG:
            if not isinstance(cfg[name], dict):
                raise ConfigurationError(f"{name} must be a section, got {cfg[name]!r}")
        prob = cfg["problem"]
        for name in ("coefficient", "source"):
            _checked(prob, "problem", name, lambda v: isinstance(v, dict), "a section")
        dim = _checked(prob, "problem", "dim", _is_int, "an integer")
        if dim not in (1, 2):
            raise ConfigurationError("problem.dim must be 1 or 2")
        u_range = _checked(prob, "problem", "u_range",
                           lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                           "a list of numbers")
        if len(u_range) != 2 or not float(u_range[0]) < float(u_range[1]):
            raise ConfigurationError("problem.u_range must be [lo, hi] with lo < hi")

        disc = cfg["discretization"]
        for key in ("m_x", "m_c", "cells_per_period"):
            if not _is_power_of_two(disc[key]) or disc[key] < 2:  # grids need 2 cells a side
                raise ConfigurationError(f"discretization.{key} must be a power of two >= 2")
        if disc["cells_per_period"] < 8:
            raise ConfigurationError("cells_per_period must be at least 8")
        _checked(disc, "discretization", "table_u_samples",
                 lambda v: _is_int(v) and 3 <= v <= MAX_U_SAMPLES,
                 f"an integer from 3 to {MAX_U_SAMPLES}")
        _checked(disc, "discretization", "table_x_samples", lambda v: _is_int(v) and v >= 3,
                 "an integer >= 3")
        _checked(disc, "discretization", "max_fine_dofs", lambda v: _is_int(v) and v >= 1,
                 "an integer >= 1")

        damping = _checked(cfg["nonlinear"], "nonlinear", "damping", _is_number, "a number")
        if not 0 < damping <= 1:
            raise ConfigurationError("bad nonlinear section")

        cfg["study"]["eps"] = parse_eps_list(cfg["study"]["eps"])
        try:
            box = np.asarray(cfg["study"]["interior_box"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError("interior_box must hold numbers") from None
        if box.ndim == 1:
            if box.shape != (2,):
                raise ConfigurationError("interior_box must be [lo, hi] or per-axis")
        elif box.shape != (dim, 2):
            raise ConfigurationError("interior_box per-axis shape mismatch")
        lo, hi = np.broadcast_to(box, (dim, 2)).T
        if not np.all((0.0 < lo) & (lo < hi) & (hi < 1.0)):
            raise ConfigurationError("interior_box must satisfy 0 < lo < hi < 1 on every axis")
        if not 0.0 < _checked(cfg["study"], "study", "beta", _is_number, "a number") < 1.0:
            raise ConfigurationError("beta must lie in (0, 1)")

        eps_min = min(cfg["study"]["eps"])
        h_x = 1.0 / disc["m_x"]
        if h_x**2 > eps_min / 10.0:
            raise ConfigurationError(
                f"macro grid too coarse: h_x^2 = {h_x**2:g} must stay below "
                f"eps_min/10 = {eps_min / 10.0:g} so discretization error does "
                "not mask the eps signal"
            )

        _checked(cfg["output"], "output", "seed", _is_int, "an integer")

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.raw["problem"]["dim"]

    @property
    def eps_list(self) -> list:
        return list(self.raw["study"]["eps"])

    def build_model(self):
        prob = self.raw["problem"]
        source = source_from_config(prob["source"])
        coeff = dict(prob["coefficient"])
        if str(coeff.get("family", "")).upper() == "LAYERED" and "width" not in coeff:
            # default C1 smoothing over two cell spacings keeps the laminate
            # FEM-friendly; pass width=0 explicitly for the sharp variant
            coeff["width"] = 2.0 / self.raw["discretization"]["m_c"]
        return coefficient_from_config(
            self.dim, coeff, u_range=tuple(prob["u_range"]), source=source
        )

    def effective(self) -> dict:
        """Default-filled config suitable for embedding in reports."""
        return copy.deepcopy(self.raw)


def load_config(path=None, overrides=(), base: dict | None = None) -> ExperimentConfig:
    """Load, merge with defaults, apply overrides, and validate."""
    if base is None:
        if path is None:
            raise ConfigurationError("a config file is required")
        try:
            with open(path) as fh:
                base = json.load(fh)
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}")
    if not isinstance(base, dict):
        raise ConfigurationError("a config must be a JSON object")
    merged = _merge(DEFAULT_CONFIG, base)
    # _merge carries unknown keys along; the file's are found before an
    # override can replace their section by a value, then the overrides'
    unknown = set(_check_unknown_keys(merged, DEFAULT_CONFIG))
    for spec in overrides:
        apply_override(merged, spec)
    unknown.update(_check_unknown_keys(merged, DEFAULT_CONFIG))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(raw=merged)
