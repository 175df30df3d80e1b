"""The benchmark's workloads: inline configs, the pipeline call, output checks.

Each workload is one call of a public pipeline entry point of ``twoscale.cli``
on an inline config.  The seed only reaches the program as ``output.seed``.

This module imports nothing from ``twoscale`` at import time, so the set-up
probe can time the package import from a clean interpreter.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# relative tolerance of the resolved fields and of the cell tensor against
# the reference recorded at the seed commit
REFERENCE_RTOL = 1e-6

# Strongly nonlinear 1-D Rosseland study (the config of
# tests/test_cli.py::test_study_strong_nonlinearity_rebuilds_table_span
# with eps down to 1/64): 31 Picard iterations per macro and fine solve,
# dominated by Jacobi-PCG; the cell build and the writers are small.
ROSSELAND_1D_STRONG = {
    "problem": {
        "dim": 1,
        "coefficient": {"family": "ROSSELAND", "k_base": 2.0, "k_amplitude": 1.0, "b": 1.0},
        "source": {"family": "CONSTANT", "value": 20.0},
        "u_range": [0.0, 2.0],
    },
    "discretization": {"m_x": 64, "m_c": 128, "cells_per_period": 16, "table_u_samples": 9},
    "nonlinear": {"damping": 0.5},
    "study": {"eps": ["1/8", "1/16", "1/32", "1/64"]},
}

# docs/examples/smooth_periodic_2d.json at 16 cells per period: the 2-D
# path, dominated by fine solves and CSV writers.  The model does not depend
# on u, so Picard stops after one step: the bypass workload for Picard work.
SMOOTH_2D_FINE16 = {
    "problem": {
        "dim": 2,
        "coefficient": {"family": "SMOOTH_PERIODIC", "base": 2.0, "amplitude": 1.0},
        "source": {"family": "CONSTANT", "value": 1.0},
    },
    "discretization": {"m_x": 32, "m_c": 64, "cells_per_period": 16},
    "study": {"eps": ["1/4", "1/8", "1/16"]},
}

# The `cell` subcommand on 2-D SEPARATED, a = mu(u, x) g(y): many small
# singular periodic solves against one operator per sample and hundreds of
# small files, where the studies do a few large Dirichlet solves and files.
SEPARATED_2D_CELL = {
    "problem": {
        "dim": 2,
        "coefficient": {"family": "SEPARATED", "mu_u2": 1.0, "mu_x": 0.5},
    },
    "discretization": {"m_c": 32, "table_u_samples": 3, "table_x_samples": 3},
}

# cell size of the resolved a0/mu used as the cell workload's accuracy truth
RESOLVED_M_C = 256


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


class Workload:
    """One pipeline call with its output checks and accuracy figure."""

    def __init__(self, name: str, base: dict):
        self.name, self.base = name, base

    def config(self, seed: int):
        from twoscale.config import load_config

        raw = copy.deepcopy(self.base)
        raw.setdefault("output", {})["seed"] = int(seed)
        return load_config(base=raw)

    def run(self, cfg, out_dir: Path):
        raise NotImplementedError

    def check(self, out_dir: Path, reference: dict, first_rep: dict) -> None:
        """Raise CheckFailed on a wrong output; ``first_rep`` carries state
        from the run's first repetition (filled on that call)."""
        raise NotImplementedError

    def accuracy(self, out_dir: Path, reference: dict) -> dict:
        raise NotImplementedError


class StudyWorkload(Workload):
    def run(self, cfg, out_dir: Path):
        from twoscale import cli

        return cli.run_study(cfg, threads=1, out_dir=out_dir, check=True)

    def check(self, out_dir, reference, first_rep):
        ref = reference[self.name]
        names = sorted(p.name for p in out_dir.iterdir())
        if names != ref["files"]:
            raise CheckFailed(f"{self.name}: wrote {names}, expected {ref['files']}")
        for fname, summary in ref["u_eps"].items():
            check_field_summary(fname, read_csv_values(out_dir / fname), summary)
        report = (out_dir / "report.json").read_bytes()
        if "report" not in first_rep:
            first_rep["report"] = report
        elif report != first_rep["report"]:
            raise CheckFailed(f"{self.name}: report.json differs between repetitions")

    def accuracy(self, out_dir, reference):
        report = json.loads((out_dir / "report.json").read_text())
        smallest = min(report["rows"], key=lambda row: row["eps"])
        fit = report["fits"]["linf_order0"]
        return {
            "err_linf_order1": smallest["linf_order1"],
            "slope_linf_order0": fit["slope"] if fit is not None else 0.0,
        }


class CellWorkload(Workload):
    def run(self, cfg, out_dir: Path):
        from twoscale import cli

        return cli.run_cell(cfg, 1, out_dir)

    def check(self, out_dir, reference, first_rep):
        ref = reference[self.name]
        n_files = sum(1 for _ in out_dir.iterdir())
        if n_files != ref["files"]:
            raise CheckFailed(f"{self.name}: wrote {n_files} files, expected {ref['files']}")
        seed_ratio = ref["a0_over_mu"]
        scale = max(abs(v) for row in seed_ratio for v in row)
        for sample, ratio in a0_over_mu(out_dir, self.base):
            dev = max_abs_diff(ratio, seed_ratio)
            if dev > REFERENCE_RTOL * scale:
                raise CheckFailed(
                    f"{self.name}: a0/mu at sample {sample} is off the seed matrix by {dev:.3e}"
                )

    def accuracy(self, out_dir, reference):
        resolved = reference[self.name]["a0_over_mu_resolved"]
        scale = max(abs(v) for row in resolved for v in row)
        worst = max(max_abs_diff(r, resolved) for _, r in a0_over_mu(out_dir, self.base))
        return {"err_linf_order1": worst / scale}


WORKLOADS = {
    wl.name: wl
    for wl in (
        StudyWorkload("rosseland_1d_strong", ROSSELAND_1D_STRONG),
        StudyWorkload("smooth_2d_fine16", SMOOTH_2D_FINE16),
        CellWorkload("separated_2d_cell", SEPARATED_2D_CELL),
    )
}


# ---------------------------------------------------------------------------
# output readers and comparisons (stdlib only, outside-in)
# ---------------------------------------------------------------------------


def read_csv_values(path: Path) -> list:
    """The ``value`` column of a field CSV written by the program."""
    values = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x"):
                continue
            values.append(float(line.rsplit(",", 1)[1]))
    return values


def summarize_field(values: list) -> dict:
    """Size, sup and RMS of a field, plus its values at fixed node indices."""
    n = len(values)
    idx = sorted({round(i * (n - 1) / 256) for i in range(257)})
    idx.append(max(range(n), key=lambda i: abs(values[i])))
    return {
        "n": n,
        "max_abs": max(abs(v) for v in values),
        "rms": math.sqrt(sum(v * v for v in values) / n),
        "idx": idx,
        "values": [values[i] for i in idx],
    }


def check_field_summary(name: str, values: list, ref: dict) -> None:
    if len(values) != ref["n"]:
        raise CheckFailed(f"{name}: {len(values)} nodes, expected {ref['n']}")
    tol = REFERENCE_RTOL * ref["max_abs"]
    got = summarize_field(values)
    dev = max(abs(values[i] - v) for i, v in zip(ref["idx"], ref["values"]))
    dev = max(dev, abs(got["max_abs"] - ref["max_abs"]), abs(got["rms"] - ref["rms"]))
    if dev > tol:
        raise CheckFailed(f"{name}: off the reference by {dev:.3e} (> {tol:.3e})")


def separated_mu(base: dict, u: float, x) -> float:
    """mu(u, x) of a SEPARATED config, from its documented formula."""
    coeff = base["problem"]["coefficient"]
    return (
        coeff.get("mu0", 1.0) + coeff.get("mu_u", 0.0) * u + coeff.get("mu_u2", 1.0) * u * u
        + coeff.get("mu_x", 0.0) * sum(x) / len(x)
    )


def a0_over_mu(out_dir: Path, base: dict):
    """(sample, a0/mu) per row of the written a0.csv."""
    dim = base["problem"]["dim"]
    lines = (out_dir / "a0.csv").read_text().splitlines()
    for line in lines[1:]:
        cols = [float(c) for c in line.split(",")]
        mu = separated_mu(base, cols[1], cols[2 : 2 + dim])
        flat = cols[2 + dim :]
        yield int(cols[0]), [[flat[i * dim + j] / mu for j in range(dim)] for i in range(dim)]


def max_abs_diff(a, b) -> float:
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
