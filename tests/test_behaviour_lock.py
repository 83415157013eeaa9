"""Behaviour lock: pool seeds 0 and 1 of every perfbench workload give the
reports recorded in ``perfbench/reference/``, bit for bit.

Over the rational ring a whole report minus ``wall_time`` must match its
recorded digest; over the float rings the skip and failure counts must
match (``perfbench/workloads.check_report``).  The reference is only read
here: re-recording it is an explicit act (``perfbench/record_reference.py``).

Every report minus ``wall_time``, float rings included, must also match
``REPORT_DIGESTS``, so a refactor that moves a residual bit fails here.
Those digests were recorded with CPython 3.11.7 and numpy 2.4.6 on x86_64
Linux and depend on its libm (``Quaternion.norm`` and ``inv`` square with
``** 2``, which that libm does not always round like ``x * x``) and, for
the matrix ring, on numpy's LAPACK.  Re-recording them, on
another platform or for a change meant to move bits, is an explicit act:
replace them with the digests the failure names.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from ncross.cli import main

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()

#: first 16 hex digits of the sha256 of each report's sorted-key JSON minus
#: ``wall_time``, per workload, for pool seeds 0 and 1, in call order
REPORT_DIGESTS = {
    "commutative-oracle": (
        ("615de06e00baf483", "c422b07287fe6931", "304eb0e0f9632be2", "b21f74a320a0e0b5",
         "981eaac1fc85c315", "7d0800b247d79930", "a70fd71b17721e05", "492f755f7f6dbc0e",
         "25bf9e770c93d9cf"),
        ("615de06e00baf483", "c422b07287fe6931", "489874c074c636f4", "b21f74a320a0e0b5",
         "46a15293cfd18570", "6aab01b1cf3b48cb", "3a2d14079588b93f", "fb61e96e2f9562ae",
         "eb62d598b1265f9f"),
    ),
    "jets-schwarzian": (
        ("20e6b1707ee2f08d", "373872bb80b75a21", "a87a455a32040b45", "eb3473cd37add0b8",
         "7957522e5a8c9d05"),
        ("201da69ded48a15d", "8079b5dee9ae1638", "49b206db9ed6823f", "821e59384c81f0f1",
         "7957522e5a8c9d05"),
    ),
    "matrix-operator": (
        ("042844be5042bc0e", "8e63917bf37e5ff7", "64c281ae43ce4a43"),
        ("a7fe0a6ef551f3c0", "022966eb8eea9c0a", "1482bc1e23ff7439"),
    ),
    "quat-projective": (
        ("708d70cbc6a2e376", "927574f33cbcda3b", "c07dcd64d62c9fb5", "21967e070ee57283",
         "c61d352934413ef9", "b56d244d9a2c4f96", "72ca47f09b527a3a"),
        ("7930165fb6958862", "57da4bb98b4d5077", "e6d76335daacf303", "293bb5e1a6a6db95",
         "9a45334b8ff71b13", "05c79b45f1347aa1", "bf0b56e68684be8a"),
    ),
}


def _digest(report: dict) -> str:
    doc = {k: v for k, v in report.items() if k != "wall_time"}
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_seed_replays_reference(workload, seed):
    recorded = workloads.load_reference(workload)[seed]
    problems = []
    calls = workloads.WORKLOADS[workload]
    digests = REPORT_DIGESTS[workload][seed]
    for call, entry, digest in zip(calls, recorded, digests, strict=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(call.argv(seed))
        report, problem = workloads.check_report(call, buf.getvalue(), entry)
        if not problem and (got := _digest(report)) != digest:
            problem = f"report digest {got} != recorded {digest}"
        if problem:
            problems.append(f"{call.tag}: {problem}")
    assert not problems
