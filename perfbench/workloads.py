"""The benchmark's workloads and the correctness check behind every call.

A workload is a list of ``ncross verify`` calls, each with the ring, matrix
dimension and tolerance the acceptance gate (tests/test_acceptance.py) uses
for that suite.  One *round* makes every call of the workload once with
``TRIALS`` trials and one shared seed.  ``TRIALS`` is the smallest trial
count of the gate's suite calls (100, 300 or 1000), so the fixed cost of a
call weighs about as much as it does in the gate.  Rounds of a run take
distinct seeds, so no draw is repeated within a run.

Round seeds come from a pool ``0 .. POOL-1``.  For every pool seed the
report of every call was recorded at the commit that introduced the
benchmark (``reference/<workload>.json``, written by
``record_reference.py``); a call counts as failed when its report differs
from that record in a field that is deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: trials per verify call: the gate's smallest call
TRIALS = 100
#: matrix scalar dimension, as in the gate
DIM = 3
#: round seeds with recorded reference reports
POOL = 256
#: step between the first round seeds of consecutive --seed values
SEED_STRIDE = 389

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: ring tags used in metric names
RING_TAG = {"quaternion": "quaternion", "matrix": f"matrix{DIM}",
            "complex": "complex", "rational": "rational"}


@dataclass(frozen=True)
class Call:
    suite: str
    ring: str
    tol: float

    @property
    def tag(self) -> str:
        return f"{self.suite}.{RING_TAG[self.ring]}"

    def argv(self, seed: int) -> list[str]:
        return ["verify", "--suite", self.suite, "--ring", self.ring,
                "--dim", str(DIM), "--trials", str(TRIALS),
                "--seed", str(seed), "--tol", repr(self.tol)]


def _calls(ring, tol, *suites):
    return tuple(Call(s, ring, tol) for s in suites)


# Why each workload exists, and which layer it is meant to stress, is in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS: dict[str, tuple[Call, ...]] = {
    # criteria 1, 3, 5 and 11: object-per-scalar quaternion arithmetic
    # under qp_left; no numpy linear algebra, no jets
    "quat-projective": _calls(
        "quaternion", 1e-9,
        "plucker-properties", "crossratio-cocycles", "crossratio-permutations",
        "pentagram-nc", "multiplicative-relations", "menelaus",
        "konopelchenko"),
    # criteria 1 and 4: MatScalar.inv and the costliest input logging
    "matrix-operator": (
        _calls("matrix", 1e-9, "plucker-properties")
        + _calls("matrix", 1e-8, "dv-equivalence", "dv-cocycle")),
    # criteria 6, 7 and 9 plus ceva-infinitesimal: Jet arithmetic and the
    # scipy quadrature; bypasses the plucker batching and MatScalar.inv
    "jets-schwarzian": _calls(
        "quaternion", 1e-9,
        "schwarzian-expansion", "ode-roundtrip", "gauge-theorem",
        "schwarzian-equation", "ceva-infinitesimal"),
    # criteria 2, 5 and 11: the exact rational oracle and the complex
    # reductions; the only workload with the commutative-only suites
    "commutative-oracle": (
        _calls("rational", 1e-10, "plucker-properties", "crossratio-cocycles",
               "dv-equivalence")
        + _calls("rational", 1e-9, "menelaus")
        + _calls("rational", 1e-12, "ceva", "pentagram-classical")
        + _calls("complex", 1e-10, "plucker-properties", "crossratio-cocycles",
                 "dv-equivalence")),
}


def round_seeds(seed: int) -> list[int]:
    """The ncross seeds of a run's rounds, in order, all distinct."""
    start = seed * SEED_STRIDE
    return [(start + r) % POOL for r in range(POOL)]


def reference_entry(call: Call, report: dict):
    """What the reference records for one call.

    Over the exact rational ring the whole report except ``wall_time`` is
    deterministic, so it is recorded as a digest.  Over the float rings the
    residuals may move in the last digits, so the skip and failure counts
    are recorded; ``trials_run`` follows from them.
    """
    if call.ring == "rational":
        doc = {k: v for k, v in report.items() if k != "wall_time"}
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:8]
    return [report["trials_skipped"], len(report["failures"])]


def load_reference(workload: str) -> list[list]:
    """Recorded entries, indexed ``[round seed][call index]``."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        doc = json.load(fh)
    if doc["trials"] != TRIALS or len(doc["rounds"]) != POOL:
        raise ValueError(f"reference for {workload} was recorded with other "
                         f"settings")
    return doc["rounds"]


def check_report(call: Call, text: str, recorded) -> tuple[dict | None, str]:
    """Parse one captured report and compare it with its record.

    Returns ``(report, problem)``; ``problem`` is empty when the report
    matches.  Skipped trials are not a failure: with short calls the
    suite's 5% skip ceiling flips on draw luck, so ``pass`` is not
    consulted.  Residuals above tol are a failure only when their count
    differs from the record; the caller counts them separately.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return None, "report is not valid JSON"
    if report["trials_run"] + report["trials_skipped"] != TRIALS:
        return report, "trial counts do not add up"
    got = reference_entry(call, report)
    if got != recorded:
        return report, f"differs from the reference ({got!r} != {recorded!r})"
    return report, ""
