"""Outside-in tracing of the twoscale layers.

The tracer wraps public functions where they are imported, by rebinding
module attributes: every attribute of a ``twoscale`` module that *is* a
traced function is replaced by one wrapper, so calls through
``from .fem import solve_dirichlet`` are seen as well as calls inside the
defining module.  The coefficient evaluators are wrapped on the base class.
The only private hook is ``twoscale.fem._jacobi_pcg``, wrapped read-only to
count the CG iterations that ``solve_dirichlet`` and
``solve_periodic_zero_mean`` drop.

Spans (name, start, end, parent) are kept in memory; ``uninstall`` restores
every attribute it replaced.  The program is single-threaded here
(``threads=1``), so one span stack suffices.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# span names whose nearest enclosing one is the calling layer of fem work
CALLERS = {
    "cell_problems.build": "cell",
    "cli.estimate_u_span": "span",
    "macro.solve": "macro",
    "expansion.fine_solve": "fine",
}


def _fem_counts(tracer, name, args, result):
    layer = tracer.caller()
    if name == "fem.assemble":
        tracer.count("fem.assemblies", layer)
    elif name == "fem.solve":
        tracer.count("fem.solves", layer)


def _periodic_counts(tracer, name, args, result):
    _fem_counts(tracer, name, args, result)
    tracer.count("fem.periodic_solves", tracer.caller())


def _cg_counts(tracer, name, args, result):
    tracer.count("fem.cg_iters", tracer.caller(), result[2])


def _build_counts(tracer, name, args, result):
    tracer.counters["cell_problems.builds"] += 1
    tracer.counters["cell_problems.samples"] += args[1].size


def _macro_counts(tracer, name, args, result):
    tracer.counters["macro.picard_iters"] += result[1].iterations


def _fine_counts(tracer, name, args, result):
    tracer.counters["expansion.fine_picard_iters"] += result[1].iterations
    tracer.counters["expansion.fine_dofs"] += args[2].ndof


def _eval_counts(tracer, name, args, result):
    size = getattr(result, "size", 1)
    dim = args[0].dim
    per_point = dim * dim if name.endswith("matrix") else 1
    tracer.counters["coefficients.eval_points"] += max(size // per_point, 1)


# (module, attribute, span name or None for a counter-only hook, on_return)
FUNCTIONS = [
    ("cli", "estimate_u_span", "cli.estimate_u_span", None),
    ("cli", "write_field_csv", "cli.write", None),
    ("cli", "write_json", "cli.write", None),
    ("cell_problems", "build_corrector_tables", "cell_problems.build", _build_counts),
    ("macro", "solve_homogenized", "macro.solve", _macro_counts),
    ("expansion", "solve_fine", "expansion.fine_solve", _fine_counts),
    ("expansion", "reconstruct", "expansion.reconstruct", None),
    ("expansion", "reconstruction_gradient", "expansion.reconstruct", None),
    ("expansion", "remainder", "expansion.reconstruct", None),
    ("fem", "assemble_stiffness", "fem.assemble", _fem_counts),
    ("fem", "assemble_load", "fem.load", None),
    ("fem", "assemble_load_from_samples", "fem.load", None),
    ("fem", "solve_dirichlet", "fem.solve", _fem_counts),
    ("fem", "solve_periodic_zero_mean", "fem.solve", _periodic_counts),
    ("fem", "_jacobi_pcg", None, _cg_counts),
    ("grids", "interpolate_values", "grids.interp", None),
    ("analysis", "norm_linf", "analysis.norms", None),
    ("analysis", "norm_h1", "analysis.norms", None),
    ("analysis", "energy_difference", "analysis.norms", None),
    ("analysis", "interior_gradient_sup", "analysis.norms", None),
    ("analysis", "holder_seminorm", "analysis.norms", None),
    ("analysis", "fit_rate", "analysis.fit", None),
]

# coefficient evaluators, wrapped on the base class every family inherits
METHODS = [
    ("eval_a", "coefficients.eval.matrix"),
    ("eval_da_du", "coefficients.eval.matrix"),
    ("eval_f", "coefficients.eval.scalar"),
    ("eval_df_du", "coefficients.eval.scalar"),
]


class Tracer:
    """Spans and counters of one traced pipeline call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counters = Counter()
        self._undo = []

    # -- recording -----------------------------------------------------------
    def caller(self) -> str:
        for idx in reversed(self.stack):
            layer = CALLERS.get(self.spans[idx][0])
            if layer is not None:
                return layer
        return "other"

    def count(self, name: str, layer: str, amount: int = 1) -> None:
        self.counters[name] += amount
        self.counters[f"{name}.{layer}"] += amount

    def call(self, name, fn, on_return, args, kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            on_return(self, name, args, result)
            return result
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, name, args, result)
            return result
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the pipeline root)."""
        return self.call(name, fn, None, args, kwargs)

    # -- installing the wrappers ---------------------------------------------
    def _wrap(self, name, fn, on_return):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, on_return, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name, _, _, _ in FUNCTIONS:
            importlib.import_module(f"twoscale.{mod_name}")
        modules = twoscale_modules()
        for mod_name, attr, name, on_return in FUNCTIONS:
            original = getattr(sys.modules[f"twoscale.{mod_name}"], attr)
            wrapper = self._wrap(name, original, on_return)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        base = sys.modules["twoscale.coefficients"].CoefficientModel
        for attr, name in METHODS:
            original = base.__dict__[attr]
            self._undo.append((base, attr, original))
            setattr(base, attr, self._wrap(name, original, _eval_counts))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def twoscale_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "twoscale" or n.startswith("twoscale.")]


def snapshot() -> dict:
    """Identity of every attribute of every loaded twoscale module and class."""
    out = {}
    for module in twoscale_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for ckey, cvalue in vars(value).items():
                    out[(module.__name__, key, ckey)] = id(cvalue)
    return out


# ---------------------------------------------------------------------------
# turning spans into per-layer figures
# ---------------------------------------------------------------------------


def layer_times(spans) -> dict:
    """Inclusive time per span name, counting only outermost spans of a name
    (nested same-name spans, e.g. assemble_load -> assemble_load_from_samples,
    are not counted twice), and per calling layer for fem spans."""
    totals = Counter()
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    for idx, (name, start, end, parent) in enumerate(spans):
        p, caller, nested = parent, None, False
        while p is not None:
            if names[p] == name:
                nested = True
            if caller is None:
                caller = CALLERS.get(names[p])
            p = parents[p]
        if nested:
            continue
        totals[name] += end - start
        if name.startswith("fem."):
            totals[f"{name}.{caller or 'other'}"] += end - start
    return totals


def self_times(spans) -> dict:
    """Per span name: calls, inclusive time and self time (duration minus
    the time covered by its direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[idx]
    return out
