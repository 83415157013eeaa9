"""Record the reference reports that the benchmark checks every call against.

Run from the repository root, once per workload (two can run side by side):

    python3 perfbench/record_reference.py quat-projective

It makes every call of the workload for each pool seed through
``ncross.cli.main`` and writes ``perfbench/reference/<workload>.json``.
Re-record only when a change is meant to alter the reports; the record is
the behaviour lock the benchmark enforces.  Calls with residuals above tol
are recorded as they are and listed on standard error.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ncross.cli import main  # noqa: E402

from workloads import (POOL, REFERENCE_DIR, TRIALS, WORKLOADS,  # noqa: E402
                       reference_entry)


def record(workload: str) -> None:
    calls = WORKLOADS[workload]
    rounds = []
    for seed in range(POOL):
        entries = []
        for call in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(call.argv(seed))
            report = json.loads(buf.getvalue())
            for f in report["failures"]:
                print(f"{call.tag} seed {seed} trial {f['counter']}: "
                      f"residual {f['residual'] / call.tol:.3g} x tol",
                      file=sys.stderr)
            entries.append(reference_entry(call, report))
        rounds.append(entries)
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"trials": TRIALS, "calls": [c.tag for c in calls], "rounds": rounds}
    with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
