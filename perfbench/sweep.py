"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--trace 1]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, with
the ``run_seconds`` of BENCHMARK.json.  For every metric it prints the
median, the quartiles and the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound, and
for ``--trace 0`` also, from each run's record, the printed forms
``skip_frac``, ``failed_ops_frac`` and ``residual_log10_max``, the
median-round throughput and the median set-up launch.  Every result line is
appended to ``.perfbench/sweep.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: diagnostics of a --trace 0 run record that the summary also shows
DIAGNOSTICS = {"skip_frac": "ratio", "failed_ops_frac": "ratio",
               "residual_log10_max": "log10",
               "trials_per_s_median_round": "trials/s",
               "setup_s_median": "s"}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", type=_seeds)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]} | DIAGNOSTICS
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    log = ROOT / ".perfbench" / "sweep.jsonl"
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace == 0:
                record = json.loads((ROOT / ".perfbench" / f"{workload}-seed"
                                     f"{seed}-trace0.json").read_text())
                for name in DIAGNOSTICS:
                    values.setdefault(name, []).append(
                        record["diagnostics"][name])
        print(f"{workload}  ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            if bound:
                worst = max(worst, spread / bound)
            print(f"  {name:48s} {units[name]:8s} "
                  f"median {statistics.median(vals):<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                  + (f"  bound {bound}" if bound else ""))
    if args.trace == 0:
        print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
