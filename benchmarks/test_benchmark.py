"""Tests of the benchmark itself.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)

# counters that do not depend on the machine: CG and Picard iterations,
# DOFs, assemblies, solves, samples, evaluation points
COUNTER_PREFIXES = ("fem.", "macro.", "expansion.", "cell_problems.", "coefficients.")


def traced_repetition(name: str, out_dir: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    out_dir.mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span("pipeline", wl.run, wl.config(0), out_dir)
    finally:
        tracer.uninstall()
    files, nbytes = worker.directory_size(out_dir)
    return dict(tracer.counters, files=files, bytes=nbytes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counters(name, tmp_path):
    first = traced_repetition(name, tmp_path / "a")
    second = traced_repetition(name, tmp_path / "b")
    assert first == second
    assert all(key.startswith(COUNTER_PREFIXES) or key in ("files", "bytes") for key in first)
    assert first["fem.cg_iters"] > 0 and first["fem.assemblies"] > 0
    assert first["cell_problems.samples"] > 0 and first["files"] > 0


def test_untraced_run_leaves_twoscale_unwrapped(tmp_path):
    import twoscale.cli  # noqa: F401

    before = tracing.snapshot()
    result = worker.run_workload("rosseland_1d_strong", 0, 0.0, False, tmp_path / "work")
    assert result["failed"] == 0 and result["traced"] == []
    assert len(result["scaled_wall_s"]) == len(result["wall_s"]) == 1
    assert len(result["kernel_s"]) == 1
    assert tracing.snapshot() == before

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.snapshot() != before
    finally:
        tracer.uninstall()
    assert tracing.snapshot() == before


def test_benchmark_json_matches_the_runner():
    spec = json.loads((workloads.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert "setup_s" in dict(run.END_TO_END)
    assert set(run.SPAN_METRICS) <= set(dict(run.PER_LAYER))


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--workload",
         "rosseland_1d_strong", "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=workloads.REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["macro.picard_iters"] > 0 and metrics["fem.cg_iters.fine"] > 0
    assert metrics["cell_problems.builds"] >= 1 and metrics["cli.files_written"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rosseland_1d_strong",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    tail = run.tail_percentile([float(v) for v in range(20)])
    assert tail == {"p": 50, "value": 9.0, "n": 20}
    assert sum(v > tail["value"] for v in range(20)) == 10


def test_scaling_divides_out_the_host_speed():
    assert calibrate.scale(2.0, calibrate.REFERENCE_S) == 2.0
    # the same call on a host twice as slow reads the same
    assert calibrate.scale(4.0, 2 * calibrate.REFERENCE_S) == pytest.approx(2.0)
    assert calibrate.Kernel().time() > 0


def test_compare_prints_medians_quartiles_and_ratio(tmp_path, capsys):
    def write(path, walls):
        records = [
            {"workload": "w", "trace": 0, "attempted": 3, "failed": 0,
             "metrics": {"wall_s": v, "setup_s": 1.0}}
            for v in walls
        ]
        path.write_text(json.dumps({"records": records}))

    write(tmp_path / "base.json", [1.0, 2.0, 3.0, 4.0, 5.0])
    write(tmp_path / "new.json", [0.5, 1.0, 1.5, 2.0, 2.5])
    rows = compare.compare_rows(
        compare.load_values(tmp_path / "base.json"), compare.load_values(tmp_path / "new.json")
    )
    by_metric = {row[1]: row for row in rows}
    assert by_metric["wall_s"][2] == (3.0, 1.5, 4.5)
    assert by_metric["wall_s"][4] == pytest.approx(0.5)
    assert by_metric["failed_frac"][4] is None  # base median 0: no ratio
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "new.json")]) == 0
    assert "wall_s" in capsys.readouterr().out
