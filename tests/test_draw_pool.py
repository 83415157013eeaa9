"""The draw pool of ``suites.Draw``: each ring keeps the scalars it drew at
its latest seed, so suites run at one seed in one process draw each
counter once.  A pooled draw must be the scalar a fresh
``Ring.sample`` gives, bit for bit, so a cold pool and a warm one give the
same reports.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from ncross import scalars, suites
from ncross.cli import main
from ncross.scalars import QUATERNION, RATIONAL, Seed, scalar_to_json
from ncross.suites import (POOL_CAP, Draw, SuiteConfig, clear_draw_pool,
                           run_suite)

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


workloads = _load_workloads()


def _report_text(argv) -> str:
    """The sorted-key JSON of one verify report minus ``wall_time``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    doc = json.loads(buf.getvalue())
    doc.pop("wall_time")
    return json.dumps(doc, sort_keys=True)


@pytest.fixture
def sample_counters(monkeypatch):
    """The counters of every ``Ring.sample`` call, from an empty pool."""
    seen = []
    sample = scalars.Ring.sample

    def counting(self, seed):
        seen.append((self.name, seed.seed, seed.counter))
        return sample(self, seed)

    monkeypatch.setattr(scalars.Ring, "sample", counting)
    clear_draw_pool()
    return seen


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cold_and_warm_pools_give_the_same_reports(workload, seed):
    calls = workloads.WORKLOADS[workload]
    cold = []
    for call in calls:
        clear_draw_pool()
        cold.append(_report_text(call.argv(seed)))
    clear_draw_pool()
    warm = [_report_text(call.argv(seed)) for call in calls]
    assert warm == cold


def test_replayed_inputs_are_the_draws_under_a_warm_pool():
    # at this tol every trial is refused, and listed with its inputs
    cfg = SuiteConfig(suite="dv-equivalence", ring="quaternion", trials=6,
                      seed=5, tol=1e-30, skip_policy="fail")
    clear_draw_pool()
    cold = run_suite(cfg)
    warm = run_suite(cfg)  # every draw a pool hit
    assert len(warm.failures) == 6 and warm.failures == cold.failures
    for f in warm.failures:
        fresh = [scalar_to_json(QUATERNION.sample(
            Seed(5, f.counter * suites._STRIDE + k))) for k in range(4)]
        assert f.inputs == fresh
    d = Draw(QUATERNION, 5, 2)
    drawn = [scalar_to_json(d.scalar()) for _ in range(7)]
    assert d.inputs() == drawn


def test_failure_inputs_are_served_from_the_pool(sample_counters):
    # every trial is refused and logs its inputs; none is sampled twice
    cfg = SuiteConfig(suite="dv-equivalence", ring="quaternion", trials=6,
                      seed=5, tol=1e-30, skip_policy="fail")
    assert len(run_suite(cfg).failures) == 6
    assert len(sample_counters) == len(set(sample_counters)) == 6 * 4


def test_a_round_samples_each_counter_once(sample_counters):
    for call in workloads.WORKLOADS["quat-projective"]:
        _report_text(call.argv(0))
    assert len(sample_counters) == len(set(sample_counters)) == 2000


def test_a_second_seed_replaces_the_pool(sample_counters):
    first = [Draw(RATIONAL, 0, 0).scalar() for _ in range(3)]
    assert sample_counters == [("rational", 0, 0)]  # drawn three times
    Draw(QUATERNION, 1, 0).scalar()  # another ring keeps its own pool
    Draw(RATIONAL, 0, 0).scalar()
    assert len(sample_counters) == 2
    Draw(RATIONAL, 1, 0).scalar()
    again = Draw(RATIONAL, 0, 0).scalar()
    assert sample_counters[2:] == [("rational", 1, 0), ("rational", 0, 0)]
    assert again == first[0] and again is not first[0]


def test_drawing_past_the_cap_keeps_the_pool_at_the_cap(sample_counters):
    per_trial = 50
    trials = POOL_CAP // per_trial + 20

    def draw_all():
        for t in range(trials):
            d = Draw(RATIONAL, 3, t)
            for _ in range(per_trial):
                d.scalar()

    draw_all()
    assert len(sample_counters) == trials * per_trial
    # the first POOL_CAP draws are pooled, the rest are sampled again on
    # every repeat, to the same values
    del sample_counters[:]
    draw_all()
    assert len(sample_counters) == trials * per_trial - POOL_CAP
    last = Draw(RATIONAL, 3, trials - 1)
    redrawn = [last.scalar() for _ in range(per_trial)]
    assert redrawn == [RATIONAL.sample(Seed(3, (trials - 1) * suites._STRIDE
                                            + k)) for k in range(per_trial)]


def test_clear_draw_pool_releases_every_ring(sample_counters):
    for ring in (RATIONAL, QUATERNION):
        Draw(ring, 0, 0).scalar()
    clear_draw_pool()
    for ring in (RATIONAL, QUATERNION):
        Draw(ring, 0, 0).scalar()
    assert len(sample_counters) == 4
