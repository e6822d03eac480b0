"""A6 — fault-repair microbenchmarks: wall time of one SM re-sweep,
scalar oracle vs. batched kernel vs. incremental kernel.

The headline (``test_repair_speedup``) times the three repair backends
on the scenarios the dynamic SM actually faces —

* ``single-link``  one link dies, repair once;
* ``multi-link``   four random links die at once, repair once;
* ``flapping``     a six-step fail/recover sequence of single-link
                   deltas (the incremental kernel's home turf: each
                   step's delta touches one descent cone);

— and persists the evidence to
``benchmarks/results/BENCH_fault_repair.json`` (quick grids go to
the ignored ``benchmarks/out/``).

Measurement protocol
--------------------
Wall time is the **minimum over N interleaved repetitions** (scalar,
batched, incremental, scalar, ...): minimum because timing noise on a
shared host is strictly additive, interleaved so machine-load drift
biases every backend equally.  Per backend:

* *scalar* times ``FaultTolerantTables(scheme, fs)`` per fault set —
  construction included, because that is exactly what the scalar
  online path pays per re-sweep;
* *batched* times ``kernel.repair(fs, incremental=False)`` on a
  persistent kernel — the one-time adjacency/base-table compile is
  excluded (it happens once at subnet bring-up, not per repair);
* *incremental* warms the kernel with the previous fault state
  (untimed), then times the delta repairs — the steady-state online
  path.

Where the scalar runs, the final tables of all three backends are
asserted bit-identical in-run, so the speedups compare identical work.

Set ``REPRO_BENCH_FULL=1`` for the committed-evidence protocol
(FT(8,3) + FT(16,2) + FT(16,3), 3 repetitions); the default quick grid
(FT(8,3) only) keeps CI smoke runs short.  FT(16,3) needs 65536 LIDs —
past the strict-IBA unicast ceiling — so its scheme is compiled with
``strict_iba=False``; its scalar flapping leg is skipped (six ~17 s
sweeps) and recorded as null.
"""

import gc
import os
import time

import numpy as np

from repro.core.fault import FaultSet, FaultTolerantTables
from repro.core.fault_kernel import FaultRepairKernel
from repro.core.forwarding import MlidScheme
from repro.core.scheme import get_scheme
from repro.topology.fattree import FatTree

from conftest import write_bench_report


SCENARIOS = ["single-link", "multi-link", "flapping"]

#: Scenarios too slow for a backend are recorded as null, not timed.
SKIP = {("FT(16,3)", "flapping"): {"scalar"}}


def _networks(full):
    nets = [("FT(8,3)", 8, 3)]
    if full:
        nets += [("FT(16,2)", 16, 2), ("FT(16,3)", 16, 3)]
    return nets


def _compile(m, n):
    ft = FatTree(m, n)
    try:
        scheme = get_scheme("mlid", ft)
    except ValueError:
        # FT(16,3)'s 65536-LID plan exceeds the strict-IBA unicast
        # ceiling; the benchmark cares about repair cost, not LID law.
        scheme = MlidScheme(ft, strict_iba=False)
    return scheme, FaultRepairKernel(scheme)


def _fault_sequence(ft, scenario):
    """The fault sets one re-sweep sequence walks through, in order."""
    if scenario == "single-link":
        return [FaultSet.random(ft, 1, seed=2)]
    if scenario == "multi-link":
        return [FaultSet.random(ft, 4, seed=7)]
    a = FaultSet.random(ft, 1, seed=2).links
    b = FaultSet.random(ft, 1, seed=3).links
    assert a != b
    fa, fb, fab = FaultSet(links=a), FaultSet(links=b), FaultSet(links=a | b)
    return [fa, fab, fb, fab, fa, fab]


def _run_scalar(scheme, sets):
    gc.collect()
    start = time.perf_counter()
    for fs in sets:
        ftt = FaultTolerantTables(scheme, fs)
    wall = time.perf_counter() - start
    final = np.array([ftt.tables[sw] for sw in scheme.ft.switches])
    return wall, final


def _run_batched(kernel, sets):
    kernel.reset()
    gc.collect()
    start = time.perf_counter()
    for fs in sets:
        result = kernel.repair(fs, incremental=False)
    wall = time.perf_counter() - start
    return wall, np.asarray(result.array)


def _run_incremental(kernel, sets):
    # Warm the cache with the pre-event state (the SM's bring-up sweep
    # already paid for it online), then time the delta repairs.
    kernel.reset()
    kernel.repair(FaultSet())
    gc.collect()
    start = time.perf_counter()
    for fs in sets:
        result = kernel.repair(fs)
    wall = time.perf_counter() - start
    return wall, np.asarray(result.array)


_RUNNERS = {
    "scalar": lambda scheme, kernel, sets: _run_scalar(scheme, sets),
    "batched": lambda scheme, kernel, sets: _run_batched(kernel, sets),
    "incremental": lambda scheme, kernel, sets: _run_incremental(kernel, sets),
}


def test_repair_speedup():
    """Headline: repair wall time per backend per scenario, with in-run
    bit-identity verification.  Writes BENCH_fault_repair.json."""
    full = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
    reps = 3

    report_nets = {}
    for name, m, n in _networks(full):
        scheme, kernel = _compile(m, n)
        ft = scheme.ft
        scenarios = {}
        for scenario in SCENARIOS:
            sets = _fault_sequence(ft, scenario)
            skipped = SKIP.get((name, scenario), set())
            walls = {b: [] for b in _RUNNERS if b not in skipped}
            finals = {}
            for _ in range(reps):  # interleaved: one backend each, per rep
                for backend in walls:
                    wall, final = _RUNNERS[backend](scheme, kernel, sets)
                    walls[backend].append(wall)
                    finals[backend] = final
            # Bit-identity: every backend repaired to the same tables.
            for backend, final in finals.items():
                np.testing.assert_array_equal(
                    final, finals["batched"], err_msg=f"{name} {scenario} {backend}"
                )
            entry = {
                b: {
                    "wall_s": [round(w, 5) for w in ws],
                    "best_s": round(min(ws), 5),
                }
                for b, ws in walls.items()
            }
            for b in skipped:
                entry[b] = None
            if "scalar" in walls:
                entry["speedup_scalar_to_batched"] = round(
                    min(walls["scalar"]) / min(walls["batched"]), 2
                )
            entry["speedup_batched_to_incremental"] = round(
                min(walls["batched"]) / min(walls["incremental"]), 2
            )
            scenarios[scenario] = entry
        report_nets[name] = {
            "num_switches": ft.num_switches,
            "num_lids": scheme.num_lids,
            "scenarios": scenarios,
        }

    path = write_bench_report(
        "BENCH_fault_repair.json",
        "SM fault-repair re-sweep, scalar vs batched vs incremental",
        full=full,
        config={
            "scheme": "mlid",
            "strict_iba": "relaxed only where the LID plan exceeds 48K",
        },
        protocol={
            "repetitions": reps,
            "interleaved": True,
            "statistic": "min",
            "scalar_timing": "FaultTolerantTables construction per fault set",
            "kernel_timing": "repair() on a persistent kernel; compile excluded",
            "incremental_timing": "delta repairs from a warmed cache",
            "flapping_sequence": "A, A+B, B, A+B, A, A+B (single-link deltas)",
        },
        networks=report_nets,
    )
    print(f"\nfault-repair benchmark grid={'full' if full else 'quick'} -> {path}")

    # Regression guards, looser than the committed-evidence headline:
    # CI boxes are noisy and shared.
    quick = report_nets["FT(8,3)"]["scenarios"]
    assert quick["single-link"]["speedup_scalar_to_batched"] > 3.0
    if full:
        big = report_nets["FT(16,3)"]["scenarios"]
        # The acceptance pair: >=10x scalar->batched on FT(16,3)
        # single-link, and incremental beating batched on flapping.
        assert big["single-link"]["speedup_scalar_to_batched"] >= 10.0
        assert (
            big["flapping"]["incremental"]["best_s"]
            < big["flapping"]["batched"]["best_s"]
        )
