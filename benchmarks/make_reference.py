"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Writes ``reference.json`` next to this file from one run of each workload
at the current commit:

* study workloads: the written file names and a summary of every resolved
  field ``u_eps_*.csv`` (size, sup, RMS, values at fixed nodes).  The fine
  solve depends on neither the tables nor their interpolation, so accuracy
  work elsewhere leaves these fields alone;
* ``separated_2d_cell``: the file count, the sample-independent matrix
  a0/mu, and a0/mu resolved on a 256-cell grid, the truth for that
  workload's ``err_linf_order1``.

Only regenerate it when a change is meant to move those outputs, and say so.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

sys.path.insert(0, str(workloads.SRC_DIR))


def resolved_a0_over_mu(base: dict) -> list:
    import numpy as np
    from twoscale.cell_problems import effective_tensor, solve_first_correctors
    from twoscale.cli import build_setup
    from twoscale.config import load_config

    raw = copy.deepcopy(base)
    raw["discretization"]["m_c"] = workloads.RESOLVED_M_C
    setup = build_setup(load_config(base=raw))
    u, x = 0.5, np.full(setup.cfg.dim, 0.5)
    first = solve_first_correctors(setup.model, u, x, setup.cell_grid, setup.cell_quad, setup.cg_opts)
    a0 = effective_tensor(setup.model, u, x, first, setup.cell_grid, setup.cell_quad)
    return (a0 / workloads.separated_mu(base, u, list(x))).tolist()


def main() -> int:
    from run import git_commit

    reference = {"commit": git_commit()}
    tmp = Path(tempfile.mkdtemp(dir=workloads.REPO_ROOT))
    try:
        for name, wl in workloads.WORKLOADS.items():
            out = tmp / name
            out.mkdir()
            wl.run(wl.config(0), out)
            if isinstance(wl, workloads.StudyWorkload):
                files = sorted(p.name for p in out.iterdir())
                reference[name] = {
                    "files": files,
                    "u_eps": {
                        f: workloads.summarize_field(workloads.read_csv_values(out / f))
                        for f in files if f.startswith("u_eps_")
                    },
                }
            else:
                ratios = [r for _, r in workloads.a0_over_mu(out, wl.base)]
                reference[name] = {
                    "files": sum(1 for _ in out.iterdir()),
                    "a0_over_mu": ratios[0],
                    "a0_over_mu_resolved": resolved_a0_over_mu(wl.base),
                    "resolved_m_c": workloads.RESOLVED_M_C,
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
