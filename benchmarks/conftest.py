"""Shared helpers for the benchmark suite.

Every figure benchmark runs its experiment exactly once (rounds=1 —
these are multi-second simulations, not microbenchmarks), prints the
reproduced curves, and writes them to ``benchmarks/results/<id>.txt``
so the EXPERIMENTS.md evidence can be regenerated at any time.

Set ``REPRO_BENCH_FULL=1`` to sweep the full load grids (slow; this is
what the committed EXPERIMENTS.md numbers used).  Quick runs write their
timing outputs (``BENCH_*.json``) under the git-ignored
``benchmarks/out/``, so a smoke run leaves the tree clean; full runs
write the tracked files in ``results/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.experiments import (
    get_experiment,
    render_figure_result,
    run_figure,
)

RESULTS_DIR = Path(__file__).parent / "results"
#: Quick runs' timing outputs: machine- and run-dependent, so git
#: ignores them (``.gitignore``).
QUICK_TIMING_DIR = Path(__file__).parent / "out"


def timing_dir(full: bool) -> Path:
    """Where a timing output goes: the tracked ``results/`` for full
    runs, the ignored :data:`QUICK_TIMING_DIR` for quick ones."""
    out_dir = RESULTS_DIR if full else QUICK_TIMING_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def provenance() -> dict:
    """Machine/tree provenance stamped into every ``BENCH_*.json``.

    Performance numbers are meaningless without knowing what produced
    them — in particular ``cpu_count`` qualifies any parallel-speedup
    claim (a 1-core CI box cannot show one).
    """
    try:
        commit = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def write_bench_report(
    name: str,
    title: str,
    *,
    full: bool,
    config: dict | None = None,
    protocol: dict | None = None,
    **sections,
) -> Path:
    """Assemble and write one ``BENCH_*.json`` with the shared envelope.

    Every benchmark report carries the same skeleton — ``benchmark``
    title, the engine/scheme ``config`` that produced the numbers, a
    measurement ``protocol`` stamped with the grid actually run
    (``full``/``quick``), then its own result sections in the order
    given.  This helper is that skeleton; the provenance stamp comes
    from :func:`write_bench_json` underneath.
    """
    report: dict = {"benchmark": title}
    if config is not None:
        report["config"] = dict(config)
    proto = dict(protocol or {})
    proto.setdefault("grid", "full" if full else "quick")
    report["protocol"] = proto
    report.update(sections)
    return write_bench_json(name, report, full=full)


def write_bench_json(name: str, report: dict, *, full: bool) -> Path:
    """Write one ``BENCH_*.json`` with the provenance stamp prepended
    (:func:`timing_dir` picks the directory)."""
    stamped = {"provenance": provenance(), **report}
    path = timing_dir(full) / name
    path.write_text(
        json.dumps(stamped, indent=2) + "\n", encoding="utf-8"
    )
    return path


@pytest.fixture
def figure_bench(benchmark):
    """Fixture: run one paper figure as a benchmark by experiment id."""

    def _run(exp_id: str):
        return bench_figure(benchmark, exp_id)

    return _run


def bench_figure(benchmark, exp_id: str):
    """Run one paper figure as a benchmark; print + persist the result."""
    config = get_experiment(exp_id)
    quick = os.environ.get("REPRO_BENCH_FULL", "0") != "1"

    result_holder = {}

    def once():
        result_holder["result"] = run_figure(config, quick=quick)
        return result_holder["result"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    result = result_holder["result"]
    text = render_figure_result(result)
    print()
    print(text)
    # Quick-grid runs go to results/quick/ so they never clobber the
    # committed full-sweep evidence in results/.
    out_dir = RESULTS_DIR / "quick" if quick else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{exp_id}.txt").write_text(text, encoding="utf-8")

    # Sanity: every curve produced data.
    for key, points in result.curves.items():
        assert points, f"curve {key} is empty"
    return result


@pytest.fixture
def save_result():
    """Persist an ablation's rendered table."""

    def _save(name: str, text: str) -> None:
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")

    return _save
