"""Layer micro-benchmarks, run from outside the library.

One figure per item of the ROADMAP's layer list: drawing a scalar, ring
``*`` and ``inv()`` for each ring, ``qp_left`` and ``cross_ratio``, the
trial-input logging (``scalar_to_json``) and writing the report (the CLI's
emit), plus the untraced ms/trial of every (suite, ring) pair the workloads
use.  Each figure is the fast decile (see ``fast``) of timed batches, after
warm-up calls that also settle lazy imports.

The host's contention comes in bursts of seconds, longer than it takes to
time every figure once.  So ``Panel.time_ops`` and ``Panel.time_suites``
time one batch of every op figure or every suite figure, and the caller
spreads those calls over its run, between rounds.
"""

from __future__ import annotations

import contextlib
import io
import time

from workloads import DIM, RING_TAG, TRIALS, WORKLOADS

#: target length of one batch of an op figure
BATCH_S = 0.002
#: untimed calls before each op figure
WARMUP = 8


def fast(times: list[float]) -> float:
    """The value with a tenth of the samples below it.

    Contention from other tenants of the host comes in bursts that slow
    everything by up to 2x for seconds at a time; the fast decile reads the
    cost outside those bursts, which a median only does when bursts cover
    under half of the run."""
    return sorted(times)[len(times) // 10]


class _Figure:
    """Batches of ``fn(item)`` calls, ``n`` calls a batch.  With ``n`` unset
    it is calibrated to ``BATCH_S``; with ``distinct`` no item is used
    twice, warm-up included, over ``batches`` batches."""

    def __init__(self, fn, items, scale, n=None, warmup=WARMUP,
                 distinct=False, batches=0):
        self.fn = fn
        self.items = list(items)
        self.scale = scale
        t = time.perf_counter()
        for it in self.items[:warmup]:
            fn(it)
        per = (time.perf_counter() - t) / max(warmup, 1)
        self.n = n or max(1, int(BATCH_S / max(per, 1e-9)))
        if distinct:
            self.n = min(self.n, (len(self.items) - warmup) // batches)
        self.offset = warmup
        self.samples: list[float] = []

    def time_batch(self) -> None:
        items, n, fn = self.items, self.n, self.fn
        first = self.offset + len(self.samples) * n
        batch = [items[(first + i) % len(items)] for i in range(n)]
        t = time.perf_counter()
        for it in batch:
            fn(it)
        self.samples.append((time.perf_counter() - t) / n)


def _defined(cols, qp_left, cross_ratio) -> bool:
    """Whether the timed calls are defined on these columns; a degenerate
    draw would raise inside the timing loop."""
    from ncross.errors import NCError
    try:
        qp_left(cols, 0, 1, 2)
        cross_ratio(*cols)
    except NCError:
        return False
    return True


class Panel:
    """Every micro-benchmark figure: each op figure to be timed
    ``op_batches`` times and each suite figure ``suite_batches`` times, one
    batch at a time."""

    def __init__(self, seed: int, op_batches: int, suite_batches: int):
        self.ops = _layer_figures(seed, op_batches)
        self.suites = _suite_figures(seed, suite_batches)

    def time_ops(self) -> None:
        for fig in self.ops.values():
            fig.time_batch()

    def time_suites(self) -> None:
        for fig in self.suites.values():
            fig.time_batch()

    def results(self) -> dict[str, float]:
        return {name: fast(fig.samples) * fig.scale
                for name, fig in {**self.ops, **self.suites}.items()}


def _layer_figures(seed: int, batches: int) -> dict[str, _Figure]:
    """Per-op cost of each layer's public functions, in microseconds."""
    from ncross.cli import _emit
    from ncross.crossratio import cross_ratio
    from ncross.plucker import Vec2, qp_left
    from ncross.scalars import (COMPLEX, QUATERNION, RATIONAL, Seed,
                                matrix_ring, scalar_to_json)
    from ncross.suites import SuiteConfig, run_suite

    us = 1e6
    rings = {"quaternion": QUATERNION, "matrix": matrix_ring(DIM),
             "complex": COMPLEX, "rational": RATIONAL}
    figures = {}
    counter = 0
    for name, ring in rings.items():
        tag = RING_TAG[name]
        # every sample call gets a fresh (seed, counter): no draw repeats
        seeds = [Seed(seed, counter + i) for i in range(4000)]
        counter += len(seeds)
        figures[f"scalars.{tag}.sample_us"] = _Figure(
            ring.sample, seeds, us, distinct=True, batches=batches)
        xs = [ring.sample(Seed(seed, counter + i)) for i in range(256)]
        counter += len(xs)
        pairs = list(zip(xs[::2], xs[1::2]))
        figures[f"scalars.{tag}.mul_us"] = _Figure(
            lambda p: p[0] * p[1], pairs, us)
        figures[f"scalars.{tag}.inv_us"] = _Figure(lambda x: x.inv(), xs, us)
        vecs = [Vec2(a, b) for a, b in pairs]
        quads = [q for q in (vecs[i:i + 4] for i in range(0, len(vecs), 4))
                 if _defined(q, qp_left, cross_ratio)]
        figures[f"plucker.qp_left.{tag}_us"] = _Figure(
            lambda c: qp_left(c, 0, 1, 2), quads, us)
        figures[f"crossratio.cross_ratio.{tag}_us"] = _Figure(
            lambda c: cross_ratio(*c), quads, us)
        figures[f"suites.log_inputs.{tag}_us"] = _Figure(
            scalar_to_json, xs, us)
    report = run_suite(SuiteConfig(suite="plucker-properties", ring="matrix",
                                   dim=DIM, trials=TRIALS, seed=seed))
    doc = report.to_json()
    sink = io.StringIO()

    def emit(_):
        sink.seek(0)
        with contextlib.redirect_stdout(sink):
            _emit(doc)

    figures["cli.emit_us"] = _Figure(emit, range(64), us)
    return figures


def _suite_figures(seed: int, batches: int) -> dict[str, _Figure]:
    """Untraced ms/trial of every (suite, ring) pair of every workload,
    one ``run_suite`` call a batch, each on its own seed."""
    from ncross.suites import SuiteConfig, run_suite

    calls = {c.tag: c for calls in WORKLOADS.values() for c in calls}
    return {
        f"suites.{tag}.ms_per_trial": _Figure(
            run_suite,
            [SuiteConfig(suite=c.suite, ring=c.ring, dim=DIM, trials=TRIALS,
                         seed=seed * batches + b, tol=c.tol)
             for b in range(batches)],
            1e3 / TRIALS, n=1, warmup=0)
        for tag, c in calls.items()}
