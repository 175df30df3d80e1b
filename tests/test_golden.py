"""Calibration record: the report rows and fitted rates of every study config
in ``docs/examples``, rerun in-process without writers and compared with
``tests/golden/<study>.json`` at 1e-9 relative (a tolerance, not bytes,
because BLAS sums differ across hosts).

A change that moves a number rewrites the record with
``PYTHONPATH=src python tests/test_golden.py`` and bounds the move in
CHANGES.md.  The writer rewrites only a record that is missing or fails
this comparison, and prints ``kept`` or ``rewrote`` per study, so host
rounding inside the tolerance never rewrites a record.
"""

import json
import sys
from pathlib import Path

import pytest

from twoscale.cli import run_study
from twoscale.config import load_config

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "docs" / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9

STUDIES = sorted(
    path.stem for path in EXAMPLES.glob("*.json") if "study" in json.loads(path.read_text())
)


def record(name: str) -> dict:
    report = run_study(load_config(EXAMPLES / f"{name}.json")).to_json_dict()
    return {"rows": report["rows"], "fits": report["fits"]}


def assert_close(got, want, path="record"):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= RTOL * abs(want), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", STUDIES)
def test_study_matches_its_golden_record(name):
    golden = GOLDEN / f"{name}.json"
    assert golden.exists(), f"{golden} is missing; write it with python {__file__}"
    assert_close(record(name), json.loads(golden.read_text()))


def test_strong_rosseland_example_is_the_benchmark_config():
    sys.path.insert(0, str(REPO / "benchmarks"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "benchmarks"))
    shipped = json.loads((EXAMPLES / "rosseland_1d_strong.json").read_text())
    assert shipped == workloads.ROSSELAND_1D_STRONG


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for study in STUDIES:
        golden, got = GOLDEN / f"{study}.json", record(study)
        try:
            assert_close(got, json.loads(golden.read_text()))
            print(f"kept {golden}")
        except (FileNotFoundError, AssertionError):
            golden.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
            print(f"rewrote {golden}")
