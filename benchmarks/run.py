"""twoscale benchmark: time the pipeline's public entry points from outside.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/run.py --workload all --runs 10 --seconds T --out BENCH.json

One client, closed loop: each run starts fresh interpreters for the set-up
probes and one child process for the workload (``worker.py``), which repeats
the pipeline call for T seconds and checks every output.  Times are scaled
to a reference host speed by a calibration kernel timed alongside each
measurement (calibrate.py).  With ``--trace 0``
the last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics instead.
``--workload all`` runs every workload ``--runs`` times with seeds N, N+1, ...
and prints a table; ``--out`` writes every run's record for ``compare.py``.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

# the program's own thread count, and the BLAS/OpenMP pool held fixed
# between runs (at most nproc)
THREADS = 1
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 3
# every run must end within this many seconds
RUN_DEADLINE_S = 170.0

CALLERS = tuple(tracing.CALLERS.values())
FEM_METRICS = [
    ("fem.assemble_s", "s"), ("fem.assemblies", "count"), ("fem.load_s", "s"),
    ("fem.solve_s", "s"), ("fem.solves", "count"), ("fem.periodic_solves", "count"),
    ("fem.cg_iters", "count"), ("fem.cg_iters_per_solve", "count"),
]
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("err_linf_order1", "1"),
]
PER_LAYER = (
    [
        ("twoscale.import_s", "s"),
        ("cell_problems.build_s", "s"), ("cell_problems.builds", "count"),
        ("cell_problems.samples", "count"), ("cell_problems.assemblies_per_sample", "count"),
        ("cli.estimate_u_span_s", "s"),
        ("macro.solve_s", "s"), ("macro.picard_iters", "count"),
        ("expansion.fine_solve_s", "s"), ("expansion.fine_picard_iters", "count"),
        ("expansion.fine_dofs", "count"), ("expansion.reconstruct_s", "s"),
    ]
    + FEM_METRICS
    + [(f"{name}.{caller}", unit) for caller in CALLERS for name, unit in FEM_METRICS]
    + [
        ("coefficients.eval_s", "s"), ("coefficients.eval_points", "count"),
        ("grids.interp_s", "s"),
        ("analysis.norms_s", "s"), ("analysis.fit_s", "s"), ("analysis.slope_linf_order0", "1"),
        ("cli.write_s", "s"), ("cli.files_written", "count"), ("cli.bytes_written", "B"),
        ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
    ]
)
# per-layer time metric -> span names (see tracing.FUNCTIONS) it sums
SPAN_METRICS = {
    "cell_problems.build_s": ["cell_problems.build"],
    "cli.estimate_u_span_s": ["cli.estimate_u_span"],
    "macro.solve_s": ["macro.solve"],
    "expansion.fine_solve_s": ["expansion.fine_solve"],
    "expansion.reconstruct_s": ["expansion.reconstruct"],
    "coefficients.eval_s": ["coefficients.eval.matrix", "coefficients.eval.scalar"],
    "grids.interp_s": ["grids.interp"],
    "analysis.norms_s": ["analysis.norms"],
    "analysis.fit_s": ["analysis.fit"],
    "cli.write_s": ["cli.write"],
}
SPAN_METRICS.update({
    f"fem.{short}_s{suffix}": [f"fem.{short}{suffix}"]
    for suffix in ("",) + tuple(f".{c}" for c in CALLERS)
    for short in ("assemble", "load", "solve")
})


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workloads.SRC_DIR)
    env["PYTHONHASHSEED"] = "0"
    env["TWOSCALE_THREADS"] = str(THREADS)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = workloads.REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        **versions,
        "commit": git_commit(),
        "seed": seed,
        "threads": THREADS,
        **{var: child_env()[var] for var in BLAS_VARS},
    }


def run_child(args: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child process")
    cmd = [sys.executable, str(workloads.BENCH_DIR / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=workloads.REPO_ROOT, capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child timed out: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchmarkError(f"child exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    k = n - 11  # ordered[k] has exactly ten samples above it
    return {"p": int(100 * (k + 1) / n), "value": ordered[k], "n": n}


def run_once(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run: set-up probes in fresh interpreters, then the workload child."""
    probes = [
        run_child(["--setup-probe", "--workload", name, "--seed", str(seed)], deadline)
        for _ in range(SETUP_PROBES)
    ]
    work_dir = workloads.REPO_ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        child = run_child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--work-dir", str(work_dir)],
            deadline,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    walls = child["scaled_wall_s"]
    if not walls or (trace and not child["traced"]):
        raise BenchmarkError(f"no successful repetition: {child['errors'][:3]}")
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "errors": child["errors"],
        "wall_samples": walls,
        "wall_tail": tail_percentile(walls),
        "raw_wall_samples": child["wall_s"],
        "kernel_samples": child["kernel_s"],
        "setup_samples": [calibrate.scale(p["setup_s"], p["kernel_s"]) for p in probes],
        "raw_setup_samples": [p["setup_s"] for p in probes],
        "env": environment(seed, child["versions"]),
    }
    if trace:
        record["metrics"] = per_layer_metrics(child, probes)
        record["self_times"] = child["traced"][0]["self_times"]
    else:
        record["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(record["setup_samples"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "err_linf_order1": child["accuracy"]["err_linf_order1"],
        }
    return record


def per_layer_metrics(child: dict, probes: list) -> dict:
    traced = child["traced"]
    counters = child["counters"]

    def median_of(key):
        return statistics.median(rep[key] for rep in traced)

    def span_time(names):
        return statistics.median(sum(rep["times"].get(n, 0.0) for n in names) for rep in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"twoscale.import_s": statistics.median(p["import_s"] for p in probes)}
    for metric, names in SPAN_METRICS.items():
        out[metric] = span_time(names)
    for key in ("cell_problems.builds", "cell_problems.samples", "macro.picard_iters",
                "expansion.fine_picard_iters", "expansion.fine_dofs",
                "coefficients.eval_points"):
        out[key] = counters.get(key, 0)
    for suffix in ("",) + tuple(f".{c}" for c in CALLERS):
        for key in ("fem.assemblies", "fem.solves", "fem.periodic_solves", "fem.cg_iters"):
            out[key + suffix] = counters.get(key + suffix, 0)
        out["fem.cg_iters_per_solve" + suffix] = ratio(
            counters.get("fem.cg_iters" + suffix, 0), counters.get("fem.solves" + suffix, 0)
        )
    out["cell_problems.assemblies_per_sample"] = ratio(
        counters.get("fem.assemblies.cell", 0), counters.get("cell_problems.samples", 0)
    )
    out["analysis.slope_linf_order0"] = child["accuracy"].get("slope_linf_order0", 0.0)
    out["cli.files_written"] = child["files"]
    out["cli.bytes_written"] = child["bytes"]
    out["trace.wall_s"] = median_of("wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(child["wall_s"])
    out["trace.unattributed_s"] = median_of("unattributed_s")
    return out


def result_line(record: dict) -> dict:
    units = dict(PER_LAYER if record["trace"] else END_TO_END)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }


def print_record(record: dict) -> None:
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"seconds {record['seconds']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    units = dict(PER_LAYER if record["trace"] else END_TO_END)
    for name, unit in units.items():
        print(f"{name:42s} {record['metrics'][name]!r:>24} {unit}")
    walls = record["wall_samples"]
    tail = record["wall_tail"]
    tail_text = (
        f"p{tail['p']} {tail['value']!r} s" if tail
        else "no percentile has ten samples above it"
    )
    print(f"# wall_s: median of {len(walls)} timed repetitions; {tail_text}")
    print(f"# unscaled medians: wall {statistics.median(record['raw_wall_samples'])!r} s, "
          f"setup {statistics.median(record['raw_setup_samples'])!r} s; calibration kernel "
          f"{statistics.median(record['kernel_samples'])!r} s "
          f"(reference {calibrate.REFERENCE_S} s)")
    print(f"# failed_frac {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']!r}")
    for err in record["errors"][:5]:
        print(f"# failure: {err}")
    if record["trace"]:
        print("# span self times (first traced repetition): name calls inclusive_s self_s")
        for name, (calls, incl, own) in sorted(
            record["self_times"].items(), key=lambda kv: -kv[1][2]
        ):
            print(f"#   {name:30s} {calls:8d} {incl:10.4f} {own:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds N, N+1, ...")
    parser.add_argument("--out", type=Path, help="write every run's record to this JSON file")
    args = parser.parse_args(argv)

    if not (workloads.SRC_DIR / "twoscale" / "__init__.py").is_file():
        print(f"benchmark: no twoscale sources under {workloads.SRC_DIR}", file=sys.stderr)
        return 2
    if not workloads.REFERENCE_PATH.is_file():
        print(f"benchmark: missing {workloads.REFERENCE_PATH}", file=sys.stderr)
        return 2
    if args.runs < 1 or args.seconds < 0:
        parser.error("--runs must be >= 1 and --seconds >= 0")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    single = len(names) == 1 and args.runs == 1
    records = []
    try:
        for name in names:
            for k in range(args.runs):
                deadline = time.monotonic() + RUN_DEADLINE_S
                record = run_once(name, args.seed + k, args.seconds, bool(args.trace), deadline)
                print_record(record)
                records.append(record)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workloads.REPO_ROOT / ".bench_work", ignore_errors=True)
        if args.out is not None and records:
            args.out.write_text(json.dumps({"records": records}, indent=1, sort_keys=True) + "\n")
    if single:
        print(json.dumps(result_line(records[-1])))
    else:
        print_summary(records)
    return 0


def print_summary(records: list) -> None:
    """Per workload and metric: median [q1, q3] over the runs."""
    print("# summary: workload metric median [q1, q3] unit (runs), failed/attempted")
    for wl in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == wl]
        units = dict(PER_LAYER if runs[0]["trace"] else END_TO_END)
        for name, unit in units.items():
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{wl:22s} {name:38s} {statistics.median(values):.6g} "
                  f"[{q1:.6g}, {q3:.6g}] {unit} ({len(values)})")
        print(f"{wl:22s} {'failed_frac':38s} {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")


if __name__ == "__main__":
    sys.exit(main())
