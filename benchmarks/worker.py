"""Child process of the benchmark: one workload, repeated for a fixed time.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds T \
        --trace 0|1 --work-dir DIR
    python3 benchmarks/worker.py --setup-probe --workload NAME --seed N

The first form runs timed repetitions for T seconds (at least one, and
none that would overrun T); with ``--trace 1`` it alternates
untraced and traced repetitions, so the tracing overhead is measured in the
same process.  Every repetition is checked against the reference outputs.
Untraced repetitions run under calibrate.Sampler, which times a small
kernel around and inside the call; their wall time is also reported scaled
to the reference host speed.
The second form times ``import twoscale`` + ``load_config`` +
``build_setup`` in this fresh interpreter, then the calibration kernel.
Both print one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads

sys.path.insert(0, str(workloads.SRC_DIR))

# kernel runs right after a set-up probe; their mean scales the probe (the
# kernel cannot run during the probe, which must import numpy itself)
SETUP_KERNEL_RUNS = 10


def setup_probe(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import twoscale  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from twoscale.cli import build_setup

    build_setup(workloads.WORKLOADS[name].config(seed))
    t2 = time.perf_counter()
    kernel = calibrate.Kernel()
    kernel_s = statistics.fmean(kernel.time() for _ in range(SETUP_KERNEL_RUNS))
    return {"import_s": t1 - t0, "setup_s": t2 - t0, "kernel_s": kernel_s}


def directory_size(path: Path):
    """Files written and their bytes; MANIFEST.json carries a wall time, so
    its size varies between runs and is left out of the byte count."""
    files = [p for p in path.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files if p.name != "MANIFEST.json")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    import numpy
    import scipy
    import twoscale

    from tracing import Tracer, layer_times, self_times

    wl = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    cfg = wl.config(seed)
    first_rep = {}
    out = {
        "attempted": 0, "failed": 0, "errors": [], "wall_s": [], "scaled_wall_s": [],
        "kernel_s": [], "traced": [],
        "versions": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "twoscale": twoscale.__version__,
        },
    }

    def repetition(traced: bool):
        rep_dir = work_dir / f"rep{out['attempted']}"
        rep_dir.mkdir(parents=True)
        out["attempted"] += 1
        tracer = Tracer() if traced else None
        try:
            if traced:
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    tracer.span("pipeline", wl.run, cfg, rep_dir)
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
            else:
                with calibrate.Sampler(kernel) as sampler:
                    wl.run(cfg, rep_dir)
                wall = sampler.wall_s
            wl.check(rep_dir, reference, first_rep)
            files, nbytes = directory_size(rep_dir)
            accuracy = wl.accuracy(rep_dir, reference)
            record = {"accuracy": accuracy, "files": files, "bytes": nbytes}
            if "record" not in first_rep:
                first_rep["record"] = record
            elif record != first_rep["record"]:
                raise workloads.CheckFailed(f"outputs differ between repetitions: {record}")
            if traced:
                counters = dict(tracer.counters)
                if first_rep.setdefault("counters", counters) != counters:
                    raise workloads.CheckFailed("traced counters differ between repetitions")
                root = tracer.spans[0]
                top = sum(s[2] - s[1] for s in tracer.spans if s[3] == 0)
                out["traced"].append({
                    "wall_s": wall,
                    "times": layer_times(tracer.spans),
                    "unattributed_s": (root[2] - root[1]) - top,
                    "self_times": self_times(tracer.spans),
                })
            else:
                out["wall_s"].append(wall)
                out["scaled_wall_s"].append(sampler.scaled_wall_s())
                out["kernel_s"].append(sampler.kernel_s())
        except Exception as exc:  # a failed repetition is counted, not fatal
            out["failed"] += 1
            out["errors"].append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    # No warm-up: the first call in a fresh process is what a CLI user gets,
    # and it measured no slower than the later ones.  Stop when one more
    # repetition would overrun the deadline.
    kernel = calibrate.Kernel()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        started = time.perf_counter()
        repetition(traced=trace and i % 2 == 1)
        i += 1
        now = time.perf_counter()
        if now + (now - started) > deadline and (not trace or i >= 2):
            break
    out.update(first_rep.get("record", {}))
    out["counters"] = first_rep.get("counters", {})
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        result = setup_probe(args.workload, args.seed)
    else:
        if args.work_dir is None:
            parser.error("--work-dir is required")
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
