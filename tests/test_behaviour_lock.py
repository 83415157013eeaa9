"""Behaviour lock: pool seeds 0 and 1 of every perfbench workload give the
reports recorded in ``perfbench/reference/``.

Over the rational ring a whole report minus ``wall_time`` must match its
recorded digest; over the float rings the skip and failure counts must
match (``perfbench/workloads.check_report``).  The reference is only read
here: re-recording it is an explicit act (``perfbench/record_reference.py``).
"""

import contextlib
import importlib.util
import io
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


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_seed_replays_reference(workload, seed):
    recorded = workloads.load_reference(workload)[seed]
    problems = []
    for call, entry in zip(workloads.WORKLOADS[workload], recorded):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(call.argv(seed))
        _, problem = workloads.check_report(call, buf.getvalue(), entry)
        if problem:
            problems.append(f"{call.tag}: {problem}")
    assert not problems
