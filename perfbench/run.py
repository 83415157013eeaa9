"""Benchmark of ``ncross verify``, run from the root of a source checkout.

    python3 perfbench/run.py --workload quat-projective --seed 0 \\
        --seconds 25 --trace 0

The workloads (perfbench/workloads.py) replay the acceptance gate's suite
calls, at the gate's rings and tolerances, through the public entry point
``ncross.cli.main(["verify", ...])`` in this process, one 100-trial call per
(suite, ring) and round, each round on a fresh seed.  Every report is parsed
and checked against the reference recorded at the commit that introduced
the benchmark.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the layer micro-benchmarks and a traced pass (perfbench/tracing.py)
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is the JSON result.  Spans and a fuller
record of the run go to ``.perfbench/`` in the checkout.

Exit codes: 0 when every output was correct, 1 when some output was not
(the result is still printed), 2 when the run could not start, for example
because the checkout has no ``src/ncross``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from micro import fast
from workloads import (TRIALS, WORKLOADS, check_report, load_reference,
                       round_seeds)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: measured fresh-interpreter launches behind setup_s (after one unmeasured)
SETUP_LAUNCHES = 10
#: the accuracy and skip metrics are taken over the first rounds that hold
#: at least this many calls; every run completes them, so those metrics
#: depend on the seed alone.  About 5% of the matrix(3) calls fail at the
#: gate's tolerances, so fewer calls make ok_calls_frac swing on draw luck
CHECKED_CALLS = 60
#: untraced and traced rounds of a --trace 1 run, each
TRACED_ROUNDS = 4
#: batches of each op micro-benchmark timed after each pair of those rounds
OP_BATCHES_PER_ROUND = 5
#: residuals and residual ratios are floored at 10**-LOG10_FLOOR so an
#: exact zero stays finite
LOG10_FLOOR = 20.0
#: iterations of the host-speed canary (about 2 ms)
CANARY_ITERS = 20000

#: spans whose self time is the work of no named layer function
CATCH_ALL = ("cli.main", "suites.run_suite", "suites.trial")

LAYERS = ("scalars", "linalg", "plucker", "crossratio", "geometry", "jets",
          "schwarzian", "pentagram", "suites", "cli")


class StartError(Exception):
    """The benchmark cannot run in this checkout."""


def canary_ms() -> float:
    """Time a fixed pure-Python kernel that touches no ncross code."""
    t = time.perf_counter()
    x = 0
    for i in range(CANARY_ITERS):
        x = (x * 31 + i) % 1000003
    return (time.perf_counter() - t) * 1e3


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str):
    """A function that launches one fresh interpreter running a one-trial
    verify of the workload's first call, and returns the seconds from the
    launch until that call returned."""
    call = WORKLOADS[workload][0]
    argv = call.argv(0)
    argv[argv.index("--trials") + 1] = "1"
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(SRC), *argv]

    def launch() -> float:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if proc.returncode != 0:
            raise StartError(f"setup probe exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        return float(proc.stdout.strip().splitlines()[-1]) - t0

    return launch


# ---------------------------------------------------------------------------
# rounds


class Rounds:
    """Runs rounds of one workload and checks every report."""

    def __init__(self, workload: str):
        self.calls = WORKLOADS[workload]
        self.reference = load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, seed: int, main) -> dict:
        """One round at ``seed``; ``main`` is ``ncross.cli.main`` or a
        traced wrapper of it."""
        rec = {"call_times": [], "trials_run": 0, "skipped": 0,
               "op_failed": 0, "worst": 0.0, "digits": [], "bytes": 0}
        clock = time.perf_counter
        for i, call in enumerate(self.calls):
            buf = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(buf):
                main(call.argv(seed))
            rec["call_times"].append(clock() - t)
            text = buf.getvalue()
            rec["bytes"] += len(text)
            report, problem = check_report(call, text,
                                           self.reference[seed][i])
            self.attempted += 1
            if problem:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{call.tag} seed {seed}: {problem}")
            # failed_ops_frac counts a call that is unparsable, has a residual
            # above tol, or is off the record
            if report is None or problem or report["failures"]:
                rec["op_failed"] += 1
            if report is not None:
                rec["trials_run"] += report["trials_run"]
                rec["skipped"] += report["trials_skipped"]
                rec["worst"] = max(rec["worst"],
                                   report["max_residual"] / call.tol)
                # exact rational residuals are 0 and are checked by digest
                if call.ring != "rational":
                    rec["digits"].append(-_log10(report["max_residual"]))
        rec["time"] = sum(rec["call_times"])
        return rec


def _log10(x: float) -> float:
    return max(-LOG10_FLOOR, math.log10(x)) if x > 0 else -LOG10_FLOOR


def end_to_end(workload: str, seed: int, seconds: float):
    launch = setup_probe(workload)
    launch()  # unmeasured: compiles bytecode, fills the file cache
    from ncross.cli import main

    rounds = Rounds(workload)
    seeds = iter(round_seeds(seed))
    rounds.run(next(seeds), main)  # warm-up: lazy imports, first-call costs
    checked_rounds = math.ceil(CHECKED_CALLS / len(rounds.calls))
    recs, canary, setups = [], [], []
    measured = 0.0
    for s in seeds:
        if measured >= seconds and len(recs) >= checked_rounds:
            break
        # set-up launches are spread over the run, between rounds, so that
        # their fast decile does not rest on one phase of the host's load
        if len(setups) < SETUP_LAUNCHES \
                and measured >= len(setups) * seconds / SETUP_LAUNCHES:
            setups.append(launch())
        rec = rounds.run(s, main)
        measured += rec["time"]
        recs.append(rec)
        canary.append(canary_ms())
    while len(setups) < SETUP_LAUNCHES:
        setups.append(launch())
    checked = recs[:checked_rounds]
    n_calls = len(rounds.calls) * len(checked)
    skip_frac = sum(r["skipped"] for r in checked) / (n_calls * TRIALS)
    failed_frac = sum(r["op_failed"] for r in checked) / n_calls
    worst = [r["worst"] for r in checked]
    digits = [d for r in checked for d in r["digits"]]
    # seconds per verified (run, not skipped) trial of each whole round
    per_trial = [r["time"] / r["trials_run"] for r in recs]
    metrics = {
        "trials_per_s": 1.0 / fast(per_trial),
        "setup_s": fast(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "kept_frac": 1.0 - skip_frac,
        "ok_calls_frac": 1.0 - failed_frac,
        "accuracy_digits": statistics.fmean(digits),
    }
    diagnostics = {
        "rounds": len(recs),
        "trials_per_s_median_round": 1.0 / statistics.median(per_trial),
        "setup_s_median": statistics.median(setups),
        "skip_frac": skip_frac,
        "failed_ops_frac": failed_frac,
        "residual_log10_max": _log10(max(worst)),
        "host.canary_ms_median": statistics.median(canary),
        "host.canary_ms_fast": fast(canary),
        "setup_s_launches": setups,
        "call_times": [r["call_times"] for r in recs],
        "canary_ms": canary,
    }
    return rounds, metrics, diagnostics


# ---------------------------------------------------------------------------
# traced run


def traced(workload: str, seed: int):
    import micro
    import ncross.cli
    from tracing import SPAN_NAMES, Tracer, installed

    rounds = Rounds(workload)
    seeds = iter(round_seeds(seed))
    rounds.run(next(seeds), ncross.cli.main)  # warm-up
    panel = micro.Panel(seed, TRACED_ROUNDS * OP_BATCHES_PER_ROUND,
                        TRACED_ROUNDS)

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", ncross.cli.main)
    untraced_wall = traced_wall = 0.0
    n_calls = n_bytes = 0
    canary = []
    # untraced and traced rounds alternate, on distinct seeds and in
    # alternating order, so that a burst of host contention falls on both
    # sides of the overhead ratio; the micro-benchmark batches are spread
    # over the same span of time
    def traced_round():
        with installed(tracer):
            return rounds.run(next(seeds), traced_main)

    for i in range(TRACED_ROUNDS):
        if i % 2:
            rec = traced_round()
            untraced = rounds.run(next(seeds), ncross.cli.main)
        else:
            untraced = rounds.run(next(seeds), ncross.cli.main)
            rec = traced_round()
        untraced_wall += untraced["time"]
        traced_wall += rec["time"]
        n_calls += len(rec["call_times"])
        n_bytes += rec["bytes"]
        canary.append(canary_ms())
        for _ in range(OP_BATCHES_PER_ROUND):
            panel.time_ops()
        panel.time_suites()
    metrics = panel.results()

    summary = tracer.summary()
    for name in SPAN_NAMES:
        calls, self_s = summary.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = sum(
            s for name, (_, s) in summary.items()
            if name.split(".")[0] == layer) / traced_wall
    metrics["suites.skip_undefined.count"] = tracer.skips["undefined"]
    metrics["suites.skip_breakdown.count"] = tracer.skips["breakdown"]
    metrics["cli.report_bytes"] = n_bytes / n_calls
    metrics["trace.overhead"] = traced_wall / untraced_wall
    # the self times of the root and of the suite driver and trial bodies
    # are what the named layers do not account for
    catch_all = sum(summary.get(name, (0, 0.0))[1] for name in CATCH_ALL)
    metrics["trace.coverage"] = 1.0 - catch_all / traced_wall
    metrics["trace.spans"] = len(tracer.start)
    metrics["host.canary_ms"] = statistics.median(canary)
    diagnostics = {"traced_wall_s": traced_wall,
                   "untraced_wall_s": untraced_wall, "canary_ms": canary}
    return rounds, metrics, diagnostics, tracer


# ---------------------------------------------------------------------------


def _units(mode_key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[mode_key]}


def _import_ncross():
    if not (SRC / "ncross" / "__init__.py").is_file():
        raise StartError(f"no ncross sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncross
    if SRC not in Path(ncross.__file__).resolve().parents:
        raise StartError(f"ncross imported from {ncross.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        units = _units("per_layer" if args.trace else "end_to_end")
        _import_ncross()
    except (StartError, OSError, ValueError, KeyError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            rounds, metrics, diagnostics, tracer = traced(args.workload,
                                                          args.seed)
        else:
            rounds, metrics, diagnostics = end_to_end(
                args.workload, args.seed, args.seconds)
            tracer = None
    except StartError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print("benchmark cannot run: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.npz")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"metrics": metrics, "diagnostics": diagnostics,
                   "problems": rounds.problems}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  calls {rounds.attempted}  failed {rounds.failed}")
    for problem in rounds.problems:
        print(f"  FAILED {problem}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:.6g} {units[name]}")
    for name, value in diagnostics.items():
        if isinstance(value, (int, float)):
            print(f"  ({name:46s} {value:.6g})")
    correct = rounds.failed == 0
    result = {
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
