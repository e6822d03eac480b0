"""End-to-end benchmark: one command, every workload, every metric.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

Each workload runs in fresh interpreters (``workloads.py``).  With
``--trace 0`` (the default) set-up runs three times and the workload is
measured in one untraced pass; the end-to-end metrics are printed by name
with their units.  With ``--trace 1`` the workload runs untraced, then traced
(spans at every layer boundary, written to ``traces/``), then once under
cProfile; the per-layer metrics and the span table are printed.  Either
way the full results go to ``out/`` as JSON, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every output
checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, per_layer  # noqa: E402

WORKLOADS = ("figures-uniform", "figures-centric", "flow-scale", "route-query", "flap-storm")
#: Set-up runs per measurement; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every run of this script must end within this many seconds.
BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one workload pass in a fresh interpreter; returns its result."""
    # benchmarks/ holds Table 1's rows (test_table1_network_sizes.build_rows).
    paths = [ROOT / "src", ROOT / "benchmarks", HERE]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} ({mode}) ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        passes = {mode: spawn(workload, mode, seed, seconds, deadline)
                  for mode in ("run", "traced", "profile")}
        metrics = per_layer(passes["run"], passes["traced"], passes["profile"])
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        setups = [spawn(workload, "setup", seed, seconds, deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        passes = {"run": spawn(workload, "run", seed, seconds, deadline)}
        metrics = dict(passes["run"]["metrics"])
        metrics["setup_s"] = statistics.median(
            [s["metrics"]["setup_s"] for s in setups] + [metrics["setup_s"]]
        )
        passes["setup"] = setups
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    checked = [p for mode, p in passes.items() if mode in ("run", "traced")]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": sum(p["attempted"] for p in checked),
        "failed": sum(p["failed"] for p in checked),
        "failures": [f for p in checked for f in p["failures"]][:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "passes": passes,
    }


def render(result: dict) -> str:
    """The human-readable report of one workload."""
    lines = [f"== {result['workload']}  seed {result['seed']}  "
             f"{'traced' if result['trace'] else 'untraced'}  "
             f"ops {result['attempted']} failed {result['failed']}"]
    run = result["passes"]["run"]
    samples = run["detail"].get("op_samples")
    for name, m in result["metrics"].items():
        note = f"  (n={samples})" if name.startswith("op_p") else ""
        lines.append(f"  {name:38s} {m['value']:>16.6g} {m['unit']}{note}")
    for failure in result["failures"]:
        lines.append(f"  FAILED: {failure}")
    traced = result["passes"].get("traced")
    if traced:
        lines.append("  -- spans in the measured window (seconds)")
        lines.append(f"  {'layer / span':44s} {'total':>10s} {'self':>10s} {'count':>8s}")
        table = traced["spans"]
        for layer, row in sorted(table["layers"].items()):
            lines.append(f"  {layer:44s} {row['total_s']:10.4f} {row['self_s']:10.4f} "
                         f"{row['count']:8d}")
            for name, srow in sorted(table["names"].items()):
                if name.split(".", 1)[0] == layer:
                    lines.append(f"    {name:42s} {srow['total_s']:10.4f} "
                                 f"{srow['self_s']:10.4f} {srow['count']:8d}")
        detail = {k: v for k, v in traced["detail"].items() if not isinstance(v, dict)}
        lines.append(f"  detail: {json.dumps(detail)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="End-to-end benchmark of the repro package.")
    p.add_argument("--workload", choices=WORKLOADS, help="workload to run (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(render(result))
        ok = ok and result["failed"] == 0
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
