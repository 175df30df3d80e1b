"""Command-line entry points and experiment orchestration.

Subcommands share one JSON config schema:

* ``cell``        solve the cell problems, emit corrector tables + tensor
* ``homogenize``  solve the homogenized problem, emit the macro solution
* ``reference``   resolved fine-scale solve for the first eps in the list
* ``study``       full pipeline: tables -> macro -> per-eps fine solves,
                  reconstructions, error norms, fitted rates
* ``lemma``       1-D oscillatory-antiderivative decay check
* ``invariance``  shifted-cell translation-invariance check

Reports contain no wall-clock or thread-count data, so identical configs
produce bitwise-identical report files at any parallelism level (timings go
to the MANIFEST, which is bookkeeping, not a result).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _floatfmt
from .analysis import (
    REPORT_COLUMNS,
    ErrorReport,
    antiderivative_lemma_1d,
    energy_difference,
    fit_rate,
    homogenized_energy,
    holder_seminorm,
    interior_element_centers,
    interior_gradient_sup,
    interior_samples,
    norm_h1,
    norm_linf,
)
from .cell_problems import (
    CorrectorTable,
    build_corrector_tables,
    check_translation_invariance,
    corrector_field_names,
    default_parameter_grid,
)
from .config import ExperimentConfig, _checked, _is_int, _is_number, load_config, parse_eps_list
from .errors import (
    ConfigurationError,
    NonConvergenceError,
    PropertyViolationError,
)
from .expansion import (
    check_fine_dofs,
    fine_grid_for,
    reconstruct,
    reconstruction_gradient,
    solve_fine,
)
from .fem import KRYLOV_TOL, SolverOptions, default_quadrature
from .grids import CellGrid, MacroGrid, ScalarField, fd_gradient, fd_hessian
from .macro import solve_homogenized


@dataclass
class ProblemSetup:
    cfg: ExperimentConfig
    model: object
    cell_grid: CellGrid
    macro_grid: MacroGrid
    cell_quad: object
    cg_opts: SolverOptions


def build_setup(cfg: ExperimentConfig) -> ProblemSetup:
    """The model and grids of ``cfg``; the macro and fine solves take their
    rule from the model, and their Newton and Krylov controls are constants."""
    disc = cfg.raw["discretization"]
    return ProblemSetup(
        cfg=cfg,
        model=cfg.build_model(),
        cell_grid=CellGrid(cfg.dim, disc["m_c"]),
        macro_grid=MacroGrid(cfg.dim, disc["m_x"]),
        cell_quad=default_quadrature(cfg.dim),
        cg_opts=SolverOptions(),
    )


def estimate_u_span(setup: ProblemSetup):
    """The u range the tables span: the model's whole admissible range, or
    None for data that do not depend on u.  It solves nothing; the name is
    kept only because ``benchmarks/tracing.py`` hooks it by name."""
    model = setup.model
    return (model.u_lo, model.u_hi) if model.u_dependent or model.source.u_dependent else None


def build_tables(setup: ProblemSetup, threads: int = 1):
    disc = setup.cfg.raw["discretization"]
    estimate_u_span(setup)  # kept for the benchmark tracer; the tables span all of u_range
    pgrid = default_parameter_grid(
        setup.model, n_u=disc["table_u_samples"], n_x=disc["table_x_samples"]
    )
    return build_corrector_tables(
        setup.model, pgrid, setup.cell_grid, setup.cell_quad, setup.cg_opts, threads
    )


def tables_and_macro_solution(setup: ProblemSetup, threads: int = 1):
    """Corrector tables plus the homogenized solve.  The tables span the
    whole admissible u range, to which every read clamps, so one build
    serves any macro solution."""
    table, tensors = build_tables(setup, threads)
    u0, pic = solve_homogenized(tensors, setup.model, setup.macro_grid)
    return table, tensors, u0, pic


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


@functools.lru_cache(maxsize=1)
def _coordinate_prefixes(grid) -> np.ndarray:
    """The ``x0,x1,`` prefix of every node's CSV row, in the grid's node
    order, as a (ndof, words) uint64 matrix of whole words padded with NUL;
    each axis value is formatted once.  Only the last grid is cached: the
    writers emit runs of field files on one grid."""
    axes = grid.axes()
    shape = tuple(len(axis) for axis in axes)
    texts = [np.array([t + b"," for t in _floatfmt.texts(axis)], dtype=bytes) for axis in axes]
    width = sum(text.itemsize for text in texts)
    prefixes = np.zeros(shape + (-(-width // 8) * 8,), dtype=np.uint8)
    start = 0
    for d, text in enumerate(texts):
        along = [1] * grid.dim
        along[d] = len(text)
        block = text.view(np.uint8).reshape(*along, -1)
        prefixes[..., start : start + block.shape[-1]] = block
        start += block.shape[-1]
    prefixes = prefixes.reshape(-1, prefixes.shape[-1]).view("<u8")
    prefixes.flags.writeable = False
    return prefixes


def _equal_rows(rows) -> list:
    """The indices of ``rows`` grouped by bitwise equality, each group and
    the groups in order of first appearance; the row bytes it keys on die
    on return, before any row is formatted."""
    equal = {}
    for i, row in enumerate(rows):
        equal.setdefault(row.tobytes(), []).append(i)
    return list(equal.values())


def _csv_rows(grid, rows):
    """Yield ``(i, chunks)`` for each of the ``rows`` of nodal values (one
    per file): the ``x0,...,value`` CSV lines of the grid's nodes as a list
    of bytes, one per pass.  The values are formatted in passes of about
    ``_floatfmt.CHUNK`` over the rows, and a row bitwise equal to an
    earlier row shares its chunks."""
    prefix = _coordinate_prefixes(grid)
    ndof = len(prefix)
    for row in rows:
        if len(row) != ndof:
            raise ValueError(f"{len(row)} values for a grid of {ndof} nodes")
    groups = _equal_rows(rows)
    rows_per_pass = max(1, _floatfmt.CHUNK // ndof)
    nodes_per_pass = min(ndof, _floatfmt.CHUNK)
    words = prefix.shape[1]
    for start in range(0, len(groups), rows_per_pass):
        batch = groups[start : start + rows_per_pass]
        parts = [[] for _ in batch]
        for lo in range(0, ndof, nodes_per_pass):
            block = np.stack([rows[group[0]][lo : lo + nodes_per_pass] for group in batch])
            # [coordinate prefix | value line], NUL where unused
            lines = np.empty(block.shape + (words + _floatfmt.WORDS,), dtype=np.uint64)
            lines[..., :words] = prefix[lo : lo + block.shape[1]]
            _floatfmt.format_lines(block.reshape(-1), lines.reshape(block.size, -1)[:, words:])
            for part, row_lines in zip(parts, lines):
                part.append(row_lines.tobytes().translate(None, b"\0"))
        for group, part in zip(batch, parts):
            for i in group:
                yield i, part


_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX"))  # buffers per writev; POSIX guarantees 16


def _write_chunks(path, chunks):
    """Write the bytes ``chunks`` to ``path`` by ``os.writev``, with no joined
    copy: one call, or more after a short write or beyond the system's
    limit on buffers per call."""
    views = [memoryview(chunk) for chunk in chunks if chunk]
    first = 0  # the first view not yet written in full
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while first < len(views):
            written = os.writev(fd, views[first : first + _IOV_MAX])
            while first < len(views) and written >= len(views[first]):
                written -= len(views[first])
                first += 1
            if written:
                views[first] = views[first][written:]
    finally:
        os.close(fd)


def write_field_csv(paths, grid, rows, headers):
    """Write one file per path: its row of nodal values in ``rows`` (a stack,
    or a list), one ``x0,...,value`` line per node, each number as its
    shortest round-trip ``repr``, after its list of ``headers`` lines.  The
    rows are formatted together, and not copied into one array.  Returns
    ``paths``."""
    rows = [np.asarray(row, dtype=float).reshape(-1) for row in rows]
    if not len(headers) == len(rows) == len(paths):
        raise ValueError(f"{len(rows)} rows and {len(headers)} header lists "
                         f"for {len(paths)} files")
    cols = ",".join([f"x{d}" for d in range(grid.dim)] + ["value"])
    for i, chunks in _csv_rows(grid, rows):
        head = "".join(f"# {line}\n" for line in headers[i]) + cols + "\n"
        _write_chunks(paths[i], [head.encode()] + chunks)
    return paths


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _study_property_checks(table: CorrectorTable) -> dict:
    diag = table.diagnostics
    return {
        "corrector_mean<=1e-12": diag.max_corrector_mean <= 1e-12,
        "rhs_defect<=1e-8": diag.max_rhs_defect <= 1e-8,
        "tensor_asymmetry<=1e-8": diag.max_tensor_asymmetry <= 1e-8,
        "voigt_slack>=-1e-10": diag.min_voigt_slack >= -1e-10,
        "reuss_slack>=-1e-10": diag.min_reuss_slack >= -1e-10,
    }


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def run_study(
    cfg: ExperimentConfig,
    threads: int = 1,
    out_dir: Path | None = None,
    check: bool = False,
):
    """Full pipeline; returns the ErrorReport (artifacts written if out_dir).
    The MANIFEST records, per finished stage, its wall time and the peak RSS
    so far, and the time spent in the field and JSON writers."""
    stages, stage_seconds, stage_peak_rss_mb = [], [], []
    outputs = []
    write_seconds = 0.0
    t_start = t_stage = time.perf_counter()

    def done(name):
        nonlocal t_stage
        now = time.perf_counter()
        stages.append(name)
        stage_seconds.append(now - t_stage)
        stage_peak_rss_mb.append(_peak_rss_mb())
        t_stage = now

    def emit(writer, path, *args):
        nonlocal write_seconds
        t0 = time.perf_counter()
        writer(path, *args)
        write_seconds += time.perf_counter() - t0
        outputs.extend(path if isinstance(path, list) else [path])

    def finish_manifest(status, failed_stage=None, error=None):
        if out_dir is None:
            return
        payload = {
            "status": status,
            "stages": stages,
            "stage_seconds": stage_seconds,
            "stage_peak_rss_mb": stage_peak_rss_mb,
            "write_seconds": write_seconds,
            "outputs": [str(p.name) for p in outputs],
            "runtime_seconds": time.perf_counter() - t_start,
            "threads": threads,
        }
        if failed_stage is not None:
            payload["failed_stage"] = failed_stage
            payload["error"] = str(error)
        write_json(out_dir / "MANIFEST.json", payload)

    stage = "setup"
    try:
        setup = build_setup(cfg)
        study = cfg.raw["study"]
        seed = int(cfg.raw["output"]["seed"])
        box = study["interior_box"]
        beta = float(study["beta"])
        disc = cfg.raw["discretization"]
        for eps in cfg.eps_list:  # every fine grid fits, before any solve or write
            fine_grid = fine_grid_for(eps, disc["cells_per_period"], cfg.dim)
            check_fine_dofs(fine_grid, disc["max_fine_dofs"])
            try:  # the gradient columns read whole fine elements
                interior_element_centers(fine_grid, box)
            except ValueError as exc:
                raise ConfigurationError(
                    f"study.interior_box at eps=1/{round(1 / eps)}: {exc}") from None
        done(stage)

        stage = "cell_tables_and_macro_solve"
        table, tensors, u0, pic0 = tables_and_macro_solution(setup, threads)
        # u0's recovered gradient and Hessian stay on u0 for every eps's
        # reads, and its homogenized energy is formed once, here
        grad0_nodal = fd_gradient(u0)
        hess0_max = float(np.max(np.abs(fd_hessian(u0))))
        energy0 = homogenized_energy(tensors, u0)
        done(stage)

        if out_dir is not None:
            emit(write_field_csv, [out_dir / "u0.csv"], u0.grid, [u0.values], [()])

        rows = []
        picard_iters = {}
        for eps in cfg.eps_list:
            stage = f"fine_solve eps=1/{round(1 / eps)}"
            fine_grid = fine_grid_for(eps, disc["cells_per_period"], cfg.dim)
            exp = reconstruct(u0, table, eps, fine_grid)
            u_eps, pic = solve_fine(
                setup.model, eps, fine_grid, disc["max_fine_dofs"],
                initial=exp.u0,  # the macro solution at the fine nodes
            )
            picard_iters[f"1/{round(1 / eps)}"] = pic.iterations
            done(stage)

            stage = f"errors eps=1/{round(1 / eps)}"
            layers = [exp.truncated(order) for order in range(3)]
            z0, z1, z2 = (ScalarField(fine_grid, u_eps.values - layer) for layer in layers)

            # one pass over the interior elements, and one chain-rule
            # gradient of the first-order reconstruction at their centers,
            # serve both gradient-level columns
            interior = interior_samples(u_eps, box)
            recon_grad1 = reconstruction_gradient(u0, table, eps, interior.axes)
            row = {
                "eps": eps,
                "linf_order0": norm_linf(z0),
                "linf_order1": norm_linf(z1),
                "linf_order2": norm_linf(z2),
                "energy_diff": energy_difference(setup.model, u_eps, eps, energy0),
                "h1_order1": norm_h1(z1),
                "grad_sup_order1": interior_gradient_sup(interior, base_gradient=recon_grad1),
                "flux_sup_order1": interior_gradient_sup(
                    interior, model=setup.model, eps=eps, base_gradient=recon_grad1,
                ),
                "holder_order2": holder_seminorm(z2, box, beta, seed=seed),
            }
            rows.append(row)
            if out_dir is not None:
                # the files on one fine grid are formatted as one stack
                tag = f"1over{round(1 / eps)}"
                names = [f"u_eps_{tag}.csv"]
                names += [f"reconstruction_order{order}_{tag}.csv" for order in range(3)]
                names.append(f"remainder_{tag}.csv")
                fields = [u_eps.values, *layers, z2.values]
                emit(
                    write_field_csv, [out_dir / name for name in names], fine_grid, fields,
                    [()] * len(names),
                )
                del fields
            # this eps's fields go before the next eps's are made
            del exp, u_eps, layers, z0, z1, z2, interior, recon_grad1
            done(stage)

        stage = "rate_fit"
        # interpolating the macro solution to fine nodes leaves an
        # eps-independent value floor ~ h_x^2 |D^2 u0| / 8; the energy
        # evaluator avoids that floor (recovered macro gradient), so its
        # threshold is solver noise at the energy scale
        value_floor = max(
            10.0 * KRYLOV_TOL * max(1.0, norm_linf(u0)),
            0.5 * setup.macro_grid.spacing**2 * hess0_max,
        )
        energy_scale = tensors.ellipticity()[1] * max(
            float(np.max(np.abs(grad0_nodal))) ** 2, 1e-12
        )
        floors = {col: value_floor for col in REPORT_COLUMNS[1:]}
        floors["energy_diff"] = 1e3 * KRYLOV_TOL * max(energy_scale, 1e-9)
        fits = {}
        for col in REPORT_COLUMNS[1:]:
            pairs = [(row["eps"], row[col]) for row in rows if row[col] > floors[col]]
            # fewer than three resolvable values means the column is
            # discretization noise and its slope carries no information
            fits[col] = fit_rate(pairs) if len(pairs) >= 3 else None
        done(stage)

        report = ErrorReport(
            rows=rows,
            fits=fits,
            seed=seed,
            config=cfg.effective(),
            diagnostics={
                "table": table.diagnostics.as_dict(),
                "noise_floor": floors,
                "macro_picard_iterations": pic0.iterations,
                "fine_picard_iterations": picard_iters,
                "tensor_ellipticity": list(tensors.ellipticity()),
            },
        )

        stage = "write_report"
        if out_dir is not None:
            emit(Path.write_text, out_dir / "report.csv", report.to_csv_text())
            emit(write_json, out_dir / "report.json", report.to_json_dict())
        done(stage)

        if check:
            stage = "property_checks"
            checks = _study_property_checks(table)
            failed = [name for name, ok in checks.items() if not ok]
            if failed:
                raise PropertyViolationError(f"acceptance properties violated: {failed}")
            done(stage)

        finish_manifest("ok")
        return report
    except Exception as exc:
        finish_manifest("failed", failed_stage=stage, error=exc)
        raise


def run_cell(cfg: ExperimentConfig, threads: int, out_dir: Path):
    setup = build_setup(cfg)
    table, tensors = build_tables(setup, threads)
    pgrid = table.param_grid
    index = {"fields": {}, "samples": [], "grid": {
        "dim": cfg.dim, "cells_per_side": setup.cell_grid.cells_per_side,
    }}
    samples = [pgrid.coords(multi) for multi in pgrid.indices()]
    for flat, (u, x) in enumerate(samples):
        index["samples"].append({"index": flat, "u": u, "x": list(x)})
    for name in corrector_field_names(cfg.dim):
        fnames = [f"{name}_s{flat:03d}.csv" for flat in range(len(samples))]
        write_field_csv(
            [out_dir / fname for fname in fnames],
            setup.cell_grid,
            table.fields[name],
            [
                [
                    f"field={name}",
                    f"u={_fmt(u)}",
                    "x=" + " ".join(_fmt(c) for c in x),
                    f"m_c={setup.cell_grid.cells_per_side} dim={cfg.dim}",
                ]
                for u, x in samples
            ],
        )
        index["fields"][name] = fnames

    lines = ["sample,u," + ",".join(f"x{d}" for d in range(cfg.dim)) + ","
             + ",".join(f"a0_{i}{j}" for i in range(cfg.dim) for j in range(cfg.dim))]
    for flat, (u, x) in enumerate(samples):
        a0 = tensors.values[flat]
        lines.append(
            f"{flat}," + _fmt(u) + "," + ",".join(_fmt(c) for c in x) + ","
            + ",".join(_fmt(v) for v in a0.reshape(-1))
        )
    (out_dir / "a0.csv").write_text("\n".join(lines) + "\n")
    write_json(out_dir / "index.json", index)
    write_json(out_dir / "diagnostics.json", table.diagnostics.as_dict())
    return table, tensors


def run_homogenize(cfg: ExperimentConfig, threads: int, out_dir: Path):
    setup = build_setup(cfg)
    table, tensors, u0, pic = tables_and_macro_solution(setup, threads)
    write_field_csv([out_dir / "u0.csv"], u0.grid, [u0.values], [()])
    write_json(out_dir / "homogenize.json", {
        "iterations": pic.iterations,
        "final_increment": pic.final_increment,
        "range": [float(u0.values.min()), float(u0.values.max())],
    })
    return u0


def run_reference(cfg: ExperimentConfig, out_dir: Path):
    setup = build_setup(cfg)
    eps = cfg.eps_list[0]
    disc = cfg.raw["discretization"]
    fine_grid = fine_grid_for(eps, disc["cells_per_period"], cfg.dim)
    u_eps, pic = solve_fine(setup.model, eps, fine_grid, disc["max_fine_dofs"])
    tag = f"1over{round(1 / eps)}"
    write_field_csv([out_dir / f"u_eps_{tag}.csv"], fine_grid, [u_eps.values], [()])
    write_json(out_dir / "reference.json", {
        "eps": eps,
        "iterations": pic.iterations,
        "final_increment": pic.final_increment,
    })
    return u_eps


def run_lemma(cfg: ExperimentConfig, out_dir: Path):
    lem = cfg.raw["lemma"]
    if cfg.dim != 1:
        raise ConfigurationError("the antiderivative check is 1-D only")
    amp = float(_checked(lem, "lemma", "amplitude", _is_number, "a number"))
    freq = _checked(lem, "lemma", "frequency", _is_int, "an integer")
    cells = _checked(lem, "lemma", "cells_per_period", lambda v: _is_int(v) and v >= 1,
                     "an integer >= 1")
    p = _checked(lem, "lemma", "p", lambda v: v in ("inf", None) or _is_number(v) and v > 0,
                 '"inf", null or a number > 0')
    p = np.inf if p in ("inf", None) else float(p)
    factor = lem["x_factor"]
    if factor == "one":
        def g(x, y):
            return amp * np.sin(2.0 * np.pi * freq * y)
    elif factor == "bump":
        def g(x, y):
            return amp * (1.0 + x * (1.0 - x)) * np.sin(2.0 * np.pi * freq * y)
    else:
        raise ConfigurationError(f"unknown lemma.x_factor {factor!r}")
    eps_values = parse_eps_list(lem["eps"])
    result = antiderivative_lemma_1d(g, eps_values, p=p, cells_per_period=cells)
    payload = {
        "eps": result.eps,
        "norms": result.norms,
        "p": "inf" if np.isinf(p) else p,
        "fit": None if result.fit is None else result.fit.as_dict(),
    }
    write_json(out_dir / "lemma.json", payload)
    return result


def run_invariance(cfg: ExperimentConfig, out_dir: Path):
    setup = build_setup(cfg)
    inv = cfg.raw["invariance"]

    def point(key):
        value = _checked(inv, "invariance", key, lambda v: isinstance(v, (list, tuple))
                         and len(v) == cfg.dim and all(map(_is_number, v)),
                         "one number per dimension")
        return np.asarray(value, dtype=float)

    shift, x = point("shift"), point("x")
    u = float(_checked(inv, "invariance", "u", _is_number, "a number"))
    report = check_translation_invariance(
        setup.model, u, x, shift, setup.cell_grid, setup.cell_quad, setup.cg_opts
    )
    payload = {
        "shift": list(report.shift),
        "reduced_shift": list(report.reduced_shift),
        "grid_aligned": report.grid_aligned,
        "discrepancy": report.discrepancy,
        "tolerance_hint": report.tolerance_hint,
    }
    write_json(out_dir / "invariance.json", payload)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscale",
        description="Two-scale homogenization studies for oscillating-coefficient problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=doc) for name, doc in [
        ("cell", "solve cell problems and emit corrector tables"),
        ("homogenize", "solve the homogenized macro problem"),
        ("reference", "resolved fine-scale solve for the first eps"),
        ("study", "full convergence study"),
        ("lemma", "1-D antiderivative decay check"),
        ("invariance", "shifted-cell invariance check"),
    ]}
    for cmd in commands.values():
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        cmd.add_argument(
            "--override", action="append", default=[], metavar="KEY.PATH=VALUE",
            help="override a config entry (JSON-parsed value); repeatable",
        )
    for name in ("cell", "homogenize", "study"):  # the subcommands that read a thread count
        commands[name].add_argument(
            "--threads", type=int, default=None,
            help="worker threads (default: TWOSCALE_THREADS or 1); results are thread-count independent",
        )
    commands["study"].add_argument(
        "--check", action="store_true",
        help="verify acceptance properties after the run (exit 4 on violation)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        flag = getattr(args, "threads", 1)  # 1 where the subcommand reads no thread count
        raw = os.environ.get("TWOSCALE_THREADS", "1") if flag is None else flag
        try:
            threads = int(raw)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ConfigurationError(f"thread count must be an integer >= 1, got {raw!r}")
        cfg = load_config(args.config, overrides=args.override)
        out_dir = Path(args.out or cfg.raw["output"]["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "study":
            report = run_study(cfg, threads=threads, out_dir=out_dir, check=args.check)
            for name, fit in report.fits.items():
                slope = "not meaningful (noise floor)" if fit is None else f"{fit.slope:.3f}"
                print(f"{name}: slope {slope}")
        elif args.command == "cell":
            run_cell(cfg, threads, out_dir)
        elif args.command == "homogenize":
            run_homogenize(cfg, threads, out_dir)
        elif args.command == "reference":
            run_reference(cfg, out_dir)
        elif args.command == "lemma":
            result = run_lemma(cfg, out_dir)
            fit = result.fit
            slope = "none (under 3 norms above rounding)" if fit is None else f"{fit.slope:.4f}"
            print(f"antiderivative decay slope: {slope}")
        elif args.command == "invariance":
            report = run_invariance(cfg, out_dir)
            print(
                f"translation discrepancy {report.discrepancy:.3e} "
                f"(aligned={report.grid_aligned}, hint {report.tolerance_hint:.1e})"
            )
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
