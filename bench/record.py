"""Write bench/RECORD.json: what the workloads feed the program, and where.

    python3 bench/record.py

For every workload at seed 1: why it was chosen, file count, mean and
maximum nodes and depth, mean nodes per level, internal-node share and
vocabulary size. For the machine: nproc, Python, numpy and BLAS versions,
the pinned BLAS thread count, git revision and the src/ line count. Every
benchmark run prints the same two records, for its own seed, before its
result line.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SEED = 1


def main() -> int:
    if not (run.SRC / "treedefect" / "__init__.py").is_file():
        print(f"error: no treedefect package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    td = run.import_package()
    records = []
    for name, wl in WORKLOADS.items():
        work = run.WORK / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            records.append(run.workload_record(wl, td, wl.setup(td, SEED, "full", work),
                                               SEED, "full"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    doc = {"workloads": records, "environment": run.environment()}
    (Path(__file__).parent / "RECORD.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
