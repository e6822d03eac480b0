"""Record the end-to-end benchmark's baseline.

    python3 benchmarks/e2e/baseline.py [--runs N]

Runs ``run.py`` as its own process, one run per seed (1..N), for every
workload at ``BENCHMARK.json``'s ``run_seconds``, twice over (set A,
then set B).  For each end-to-end metric it
records every value, each set's median and quartiles, the spread
(interquartile distance over the median) and the drift of set B's median
against set A's, each against the metric's bound.  It then makes one
traced run per workload and keeps its per-layer metrics and span table.
Writes ``results/baseline.json``, stamped with ``provenance()`` from
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]

from conftest import provenance  # noqa: E402
from metrics import END_TO_END  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
    )
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed: {last[:300]}")
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    sets = {}
    for name in ("A", "B"):
        sets[name] = {
            w: [run_once(w, seed, seconds, 0)["metrics"] for seed in seeds]
            for w in WORKLOADS
        }
        print(f"set {name} done", file=sys.stderr)

    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for metric, (unit, better, bound) in END_TO_END.items():
            a = summarize([m[metric]["value"] for m in sets["A"][w]])
            b = summarize([m[metric]["value"] for m in sets["B"][w]])
            drift = (b["median"] - a["median"]) / a["median"]
            worse = drift if better == "lower" else -drift
            spread = max(a["spread"], b["spread"])
            table[w][metric] = {
                "unit": unit,
                "bound": bound,
                "A": a,
                "B": b,
                "drift_worse": worse,
                # Set-up time is held to its bound by drift only.
                "within_bound": worse <= bound and (metric == "setup_s" or spread <= bound),
                "spread_below_third": spread < bound / 3,
            }

    traced = {}
    for w in WORKLOADS:
        run_once(w, 1, seconds, 1)
        report = json.loads((HERE / "out" / f"{w}-seed1-trace1.json").read_text())
        traced[w] = {
            "per_layer": {k: v["value"] for k, v in report["metrics"].items()},
            "spans": report["passes"]["traced"]["spans"],
            "detail": report["passes"]["traced"]["detail"],
        }

    out = {
        "provenance": provenance(),
        "protocol": {
            "command": "python3 benchmarks/e2e/run.py --workload W --seed N "
                       f"--seconds {seconds} --trace 0",
            "runs_per_set": args.runs,
            "seeds": seeds,
            "sets": "A then B, each workload's runs back to back",
            "spread": "(q3 - q1) / median over a set, statistics.quantiles(n=4)",
            "drift_worse": "set B median vs set A median, positive = worse",
        },
        "end_to_end": table,
        "traced_seed1": traced,
    }
    path = HERE / "results" / "baseline.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for w in WORKLOADS:
        for metric, row in table[w].items():
            print(f"{w:16s} {metric:12s} spread A {row['A']['spread']:.3f} "
                  f"B {row['B']['spread']:.3f} drift {row['drift_worse']:+.3f} "
                  f"bound {row['bound']:.2f} {'ok' if row['within_bound'] else 'OVER'}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
