"""Lanes on the matrix ring: a lanes-capable suite runs its trial body once
per chunk of trials on stacked matrices (``suites.run_suite``), and its
report is the scalar path's, bit for bit.  The scalar path is forced by
replacing the suite's spec with ``lanes=False``."""

import contextlib
import dataclasses
import gc
import io
import json

import pytest

from ncross import plucker, suites
from ncross.cli import main
from ncross.errors import NotInvertible, agree, relative_residual
from ncross.matrix import MatLanes
from ncross.scalars import Seed, matrix_ring, sample
from ncross.suites import LANES, SUITES, Draw, SuiteConfig, run_suite

#: the lanes-capable suites and their acceptance-gate tolerances
LANES_SUITES = {"plucker-properties": 1e-9, "dv-equivalence": 1e-8,
                "dv-cocycle": 1e-8}


def test_the_operator_suites_take_lanes():
    assert sorted(n for n, s in SUITES.items() if s.lanes) == sorted(
        LANES_SUITES)
    assert LANES >= 100


def _report(cfg, lanes=True):
    """The report minus ``wall_time`` as sorted-key JSON, from a cold draw
    pool; ``lanes=False`` forces the scalar path."""
    spec = SUITES[cfg.suite]
    SUITES[cfg.suite] = dataclasses.replace(spec, lanes=lanes)
    try:
        suites.clear_draw_pool()
        doc = run_suite(cfg).to_json()
    finally:
        SUITES[cfg.suite] = spec
        suites.clear_draw_pool()
    del doc["wall_time"]
    return json.dumps(doc, sort_keys=True)


def _config(suite, dim, seed):
    """Seeds 0-7 over dims 2-4 take every trial count (1, 37 and one past
    a chunk), skip policy and tolerance (the gate's, and 1e-15, at which
    most trials fail and their inputs are logged) for each suite."""
    return SuiteConfig(suite, "matrix", dim=dim,
                       trials=(1, 37, LANES + 1)[(seed + dim) % 3],
                       seed=seed, skip_policy=("count", "fail")[seed % 2],
                       tol=(LANES_SUITES[suite], 1e-15)[seed // 2 % 2])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("suite", sorted(LANES_SUITES))
def test_lanes_report_equals_the_scalar_report(suite, dim, seed):
    cfg = _config(suite, dim, seed)
    assert _report(cfg) == _report(cfg, lanes=False)


def _counting(monkeypatch, suite):
    """Count trial-body calls on lanes and on single trials."""
    count = {"lanes": 0, "trials": 0}
    spec = SUITES[suite]

    def counted(d, tol):
        count["lanes" if isinstance(d, suites.LanesDraw) else "trials"] += 1
        return spec.trial(d, tol)

    monkeypatch.setitem(SUITES, suite, dataclasses.replace(spec,
                                                           trial=counted))
    return count


def test_a_clean_chunk_replays_nothing(monkeypatch):
    count = _counting(monkeypatch, "dv-equivalence")
    cfg = SuiteConfig("dv-equivalence", "matrix", trials=100, seed=0,
                      tol=1e-8)
    report = run_suite(cfg)
    assert report.passed and report.trials_run == 100
    assert count == {"lanes": 1, "trials": 0}


def test_only_unclean_lanes_are_replayed(monkeypatch):
    """Seed 3 holds one failing dv-equivalence trial: one body call for
    the chunk, one replay for that trial."""
    count = _counting(monkeypatch, "dv-equivalence")
    report = run_suite(SuiteConfig("dv-equivalence", "matrix", trials=100,
                                   seed=3, tol=1e-8))
    assert len(report.failures) == 1
    assert count == {"lanes": 1, "trials": 1}


def test_a_chunk_whose_body_raises_is_replayed_whole(monkeypatch):
    spec = SUITES["dv-cocycle"]

    def raising(d, tol):
        if isinstance(d, suites.LanesDraw):
            raise NotInvertible("a whole chunk")
        return spec.trial(d, tol)

    cfg = SuiteConfig("dv-cocycle", "matrix", trials=LANES + 5, seed=2,
                      tol=1e-8)
    want = _report(cfg, lanes=False)
    monkeypatch.setitem(SUITES, "dv-cocycle",
                        dataclasses.replace(spec, trial=raising))
    assert _report(cfg) == want


@pytest.mark.parametrize("policy", ["count", "fail"])
def test_a_singular_draw_is_skipped_as_before(monkeypatch, policy):
    """Trial 5 draws Q1 equal to P1, so Q1 - P1 is singular: its lane is
    masked and replayed, and the scalar path skips it."""
    scalar = Draw.scalar

    def patched(self):
        s = scalar(self)
        if self.trial == 5 and self.k == 3:
            return Draw(self.ring, self.seed, 5).scalar()
        return s

    monkeypatch.setattr(Draw, "scalar", patched)
    cfg = SuiteConfig("dv-equivalence", "matrix", trials=40, seed=1,
                      tol=1e-8, skip_policy=policy)
    doc = json.loads(_report(cfg))
    assert doc["trials_skipped"] == 1
    if policy == "fail":
        assert doc["failures"][0]["counter"] == 5
        assert doc["failures"][0]["residual"] is None
    assert json.loads(_report(cfg, lanes=False)) == doc


def test_no_lanes_value_outlives_a_verify():
    for suite, tol in LANES_SUITES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["verify", "--suite", suite, "--ring", "matrix", "--trials",
                  str(LANES + 3), "--seed", "4", "--tol", repr(tol)])
    gc.collect()
    assert not any(type(o) is MatLanes for o in gc.get_objects())
    for memo in (plucker._memo, plucker._gap_memo):
        assert not any(isinstance(v, MatLanes)
                       for entry in memo.values() for v in entry)


def test_agree_and_relative_residual_work_per_lane():
    ring = matrix_ring(3)
    xs = [sample(ring, Seed(59, c)) for c in range(6)]
    ys = [x + ring.one.scale(1e-3) if n % 2 else x for n, x in enumerate(xs)]
    a = ring.stack(xs)
    b = ring.stack(ys, a)
    assert [relative_residual(x, y) for x, y in zip(xs, ys)] == (
        relative_residual(a, b).tolist())
    assert agree(a, b, 1e-9) is True
    assert a.mask.tolist() == [agree(x, y, 1e-9) for x, y in zip(xs, ys)]
