"""Lanes on the matrix ring: a lanes-capable suite runs its trial body once
per chunk of trials on stacked matrices (``suites.run_suite``), and its
report is the scalar path's, bit for bit.  The scalar path is forced by
replacing the suite's spec with ``lanes=False``.  A lanes draw samples a
chunk's missing draws together (``MatrixRing.sample_stack``), and each of
them is the scalar ``Ring.sample`` draws."""

import contextlib
import dataclasses
import gc
import io
import itertools
import json

import numpy as np
import pytest

from ncross import _stream, matrix, plucker, scalars, suites
from ncross.cli import main
from ncross.errors import (DrawBudgetExceeded, NotInvertible,
                           ResampleLimitExceeded, agree, relative_residual)
from ncross.matrix import MatLanes
from ncross.scalars import Seed, matrix_ring, sample
from ncross.suites import (LANES, SUITES, Draw, LanesDraw, SuiteConfig,
                           run_suite)

#: the lanes-capable suites and their acceptance-gate tolerances
LANES_SUITES = {"plucker-properties": 1e-9, "dv-equivalence": 1e-8,
                "dv-cocycle": 1e-8}


def test_the_operator_suites_take_lanes():
    assert sorted(n for n, s in SUITES.items() if s.lanes) == sorted(
        LANES_SUITES)
    assert LANES >= 100


def _report(cfg, lanes=True, prepare=None):
    """The report minus ``wall_time`` as sorted-key JSON, from a cold draw
    pool, or from the one ``prepare()`` leaves; ``lanes=False`` forces the
    scalar path."""
    spec = SUITES[cfg.suite]
    SUITES[cfg.suite] = dataclasses.replace(spec, lanes=lanes)
    try:
        suites.clear_draw_pool()
        if prepare is not None:
            prepare()
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
    masked and replayed, and the scalar path skips it.  Q1 is redirected
    to P1's counter, which both paths draw through."""
    counter = Draw._counter

    def patched(self):
        c = counter(self)
        return self.trial * suites._STRIDE if (self.trial, self.k) == (5, 2) \
            else c

    monkeypatch.setattr(Draw, "_counter", patched)
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


def test_inverses_run_the_svd_only_where_the_bound_is_open(monkeypatch):
    """Derived values carry no condition number.  A chunk of well
    conditioned products is settled by the Frobenius bound with no SVD; a
    lane the bound leaves open takes one stacked SVD of that lane alone,
    unless it is masked already.  A lone matrix does the same."""
    ring = matrix_ring(3)
    xs = [sample(ring, Seed(61, c)) for c in range(2 * LANES)]
    products = [x * y for x, y in zip(xs[:LANES], xs[LANES:])]
    # condition 9.9e7: within INV_COND_MAX, outside the bound
    near = matrix.MatScalar(np.diag([1.0, 1.0, 1 / 9.9e7]))
    svd_lanes = []
    svd = matrix._svd

    def counting_svd(a, *args, **kwargs):
        svd_lanes.append(len(a) if a.ndim == 3 else "single")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(matrix, "_svd", counting_svd)
    for opened, masked, want in (((), (), []), ((5,), (), [1]),
                                 ((5, 9), (9,), [1])):
        lanes = ring.stack([near if n in opened else m
                            for n, m in enumerate(products)])
        lanes.keep(~np.isin(np.arange(LANES), masked))
        lanes.inv()
        assert svd_lanes == want
        assert lanes.mask.sum() == LANES - len(masked)
        svd_lanes.clear()
    products[0].inv()
    assert svd_lanes == []
    near.inv()
    assert svd_lanes == ["single"]
    assert near._cond == pytest.approx(9.9e7)


#: a sampling bound that refuses about a third of the matrix(2) first
#: candidates and most matrix(4) ones, several times over for some counters
_LOW_COND = 5.0


def _pool_state(state, ring, seed, n, monkeypatch):
    """A ``prepare`` for ``_report`` that leaves the draw pool "cold",
    empty; "warm", holding draws 0-2 of every other trial of a chunk of
    ``n``; or "full", the same with ``POOL_CAP`` lowered to its size."""
    warmed = range(0, n, 2)
    if state == "full":
        monkeypatch.setattr(suites, "POOL_CAP", 3 * len(warmed))

    def prepare():
        if state != "cold":
            for t in warmed:
                d = Draw(ring, seed, t)
                for _ in range(3):
                    d.scalar()
    return prepare


@pytest.mark.parametrize("bound", ["guard", "low"])
@pytest.mark.parametrize("state", ["cold", "warm", "full"])
@pytest.mark.parametrize("n", [1, 37, LANES + 1])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lanes_draws_are_the_sampled_scalars(dim, n, state, bound,
                                             monkeypatch):
    """Every lane of every draw is ``Ring.sample``'s scalar for its counter,
    entries and condition number, and the pool ends as the scalar path
    leaves it.  The low bound makes the stacked guard refuse first
    candidates, which ``Ring.sample`` then resamples under the same
    bound."""
    if bound == "low":
        monkeypatch.setattr(matrix, "MAX_SAMPLE_COND", _LOW_COND)
    ring = matrix_ring(dim)
    seed = 40 + dim
    prepare = _pool_state(state, ring, seed, n, monkeypatch)
    suites.clear_draw_pool()
    prepare()
    resampled = []
    ring_sample = scalars.Ring.sample

    def counting(self, at):
        resampled.append(at.counter)
        return ring_sample(self, at)

    monkeypatch.setattr(scalars.Ring, "sample", counting)
    d = LanesDraw(ring, seed, 0, n)
    drawn = [d.scalar() for _ in range(5)]
    monkeypatch.setattr(scalars.Ring, "sample", ring_sample)
    if bound == "guard":  # every first candidate passes at these seeds
        assert not resampled
    elif dim > 1 and n > 1:
        assert resampled
    pooled = list(suites._pool[ring][1])
    for k, lanes in enumerate(drawn):
        want = [sample(ring, Seed(seed, t * suites._STRIDE + k))
                for t in range(n)]
        assert lanes.a.tobytes() == b"".join(w.a.tobytes() for w in want)
        assert lanes._cond.tobytes() == np.array(
            [w._cond for w in want]).tobytes()
        assert lanes.mask is d.lanes.mask
    assert [t.k for t in d.draws] == [5] * n
    # the scalar path's pool: each trial's draws in turn, per draw
    suites.clear_draw_pool()
    prepare()
    draws = [Draw(ring, seed, t) for t in range(n)]
    for _ in range(5):
        for t in draws:
            t.scalar()
    assert pooled == list(suites._pool[ring][1])
    if state == "full":
        assert len(pooled) == suites.POOL_CAP
    cfg = SuiteConfig("dv-cocycle", "matrix", dim=dim, trials=n, seed=seed,
                      tol=1e-8)
    assert _report(cfg, prepare=prepare) == _report(cfg, False, prepare)
    suites.clear_draw_pool()


@pytest.mark.parametrize("bound", ["guard", "low"])
def test_a_chunk_across_a_counter_word_keeps_the_sampled_bits(bound,
                                                             monkeypatch):
    """A chunk of counters 2**32 - 50 .. 2**32 + 49, whose pool mixing
    takes one counter word before 2**32 and two from it on: every lane and
    every fresh draw is ``Ring.sample``'s scalar, entries and condition
    number."""
    if bound == "low":
        monkeypatch.setattr(matrix, "MAX_SAMPLE_COND", _LOW_COND)
    ring = matrix_ring(3)
    counters = list(range(2 ** 32 - 50, 2 ** 32 + 50))
    lanes, fresh = ring.sample_stack(11, counters, {})
    want = [sample(ring, Seed(11, c)) for c in counters]
    assert lanes.a.tobytes() == b"".join(w.a.tobytes() for w in want)
    assert lanes._cond.tobytes() == np.array(
        [w._cond for w in want]).tobytes()
    assert list(fresh) == counters
    assert [(x.a.tobytes(), x._cond) for x in fresh.values()] == [
        (w.a.tobytes(), w._cond) for w in want]


#: ``Stream`` constructions of the matrix(3) dv-equivalence call at seed 3,
#: 100 trials, from a cold draw pool: the counter whose first candidate the
#: sampling guard refuses.  Before the stacked streams every fresh draw
#: built one: 401, 4 per trial and one to resample.
_DV_STREAMS = 1


def test_an_accepted_lane_builds_no_stream(monkeypatch):
    """Lanes draws take every accepted candidate from the stacked streams
    (``matrix._uniforms``), so a ``Stream`` is built only by ``Ring.sample``
    for a counter the guard refused, or for a replayed trial's draw that
    missed the pool; trial 53 is replayed here, and finds its draws
    pooled."""
    cfg = SuiteConfig("dv-equivalence", "matrix", trials=100, seed=3,
                      tol=1e-8)
    built, replayed = [], []
    stream_init = _stream.Stream.__init__
    run_trial = suites._run_trial

    def counting_init(self, seed, counter):
        built.append(counter)
        stream_init(self, seed, counter)

    def counting_run_trial(spec, ring, cfg, idx):
        replayed.append(idx)
        return run_trial(spec, ring, cfg, idx)

    suites.clear_draw_pool()
    with monkeypatch.context() as m:
        m.setattr(_stream.Stream, "__init__", counting_init)
        m.setattr(suites, "_run_trial", counting_run_trial)
        run_suite(cfg)
    suites.clear_draw_pool()
    ring = matrix_ring(3)
    refused = [c for c in (t * suites._STRIDE + k for t in range(cfg.trials)
                           for k in range(4))
               if not ring._guard(ring._draw(_stream.Stream(cfg.seed, c)))]
    assert replayed == [53]
    assert len(built) <= len(refused) + len(replayed)
    assert built == refused
    assert len(built) == _DV_STREAMS


def test_a_draw_past_the_resample_limit_raises_as_before(monkeypatch):
    """A bound below 1 refuses every matrix(1) candidate, so the first
    counter gives up on both paths."""
    monkeypatch.setattr(matrix, "MAX_SAMPLE_COND", 0.5)
    ring = matrix_ring(1)
    suites.clear_draw_pool()
    with pytest.raises(ResampleLimitExceeded):
        Draw(ring, 0, 0).scalar()
    with pytest.raises(ResampleLimitExceeded):
        LanesDraw(ring, 0, 0, 3).scalar()
    suites.clear_draw_pool()


#: trial counts that give each suite's chunks draws of which some are
#: pooled by the suites before it and some are not
_ORDER_TRIALS = {"plucker-properties": 37, "dv-equivalence": LANES + 1,
                 "dv-cocycle": 100}


def test_operator_reports_do_not_depend_on_the_suite_order():
    """matrix(3) at seed 3, where dv-equivalence logs a failure: each
    suite's report is the same in all six orders, each from a cleared
    pool."""
    reports = set()
    for order in itertools.permutations(sorted(LANES_SUITES)):
        suites.clear_draw_pool()
        got = {}
        for suite in order:
            doc = run_suite(SuiteConfig(
                suite, "matrix", trials=_ORDER_TRIALS[suite], seed=3,
                tol=LANES_SUITES[suite])).to_json()
            del doc["wall_time"]
            got[suite] = doc
        reports.add(json.dumps(got, sort_keys=True))
    suites.clear_draw_pool()
    assert len(reports) == 1
    assert json.loads(reports.pop())["dv-equivalence"]["failures"]


def test_a_lanes_body_past_the_draw_budget_raises(monkeypatch):
    """With the budget lowered to 3, dv-equivalence's fourth draw raises on
    both paths; each trial of a lanes draw keeps its own count."""
    stride = suites._STRIDE
    cfg = SuiteConfig("dv-equivalence", "matrix", trials=5, seed=0,
                      tol=1e-8)
    with monkeypatch.context() as m:
        m.setattr(suites, "_STRIDE", 3)
        for lanes in (True, False):
            with pytest.raises(DrawBudgetExceeded):
                _report(cfg, lanes)
        d = LanesDraw(matrix_ring(3), 0, 0, 5)
        for _ in range(3):
            d.scalar()
        with pytest.raises(DrawBudgetExceeded):
            d.scalar()
        assert [t.k for t in d.draws] == [3] * 5
    assert suites._STRIDE == stride
    suites.clear_draw_pool()
