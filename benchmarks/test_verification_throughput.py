"""Static-verification throughput: scalar tracer vs vectorized kernel.

Verifies the full FT(16, 2) fabric (512 nodes, 4096 LIDs by default;
``REPRO_BENCH_FULL=1`` adds FT(4, 3) and SLID columns) twice — once
through the historical scalar per-hop tracer and once through the
compiled route kernel — and reports paths/sec for each.  Both engines
must agree on the number of routes checked (they run the identical
delivery + minimality + up*/down* checks), and the kernel must clear
the ≥ 10× acceptance bar from ISSUE 2.

Kernel timing includes compilation (``RouteKernel.from_scheme``): the
reported speedup is what a cold ``repro-ibft verify`` call actually
gets, not a warm-cache best case.
"""

from __future__ import annotations

import os
import time

from repro.core import verification as verification
from repro.core.kernel import RouteKernel
from repro.core.scheme import get_scheme
from repro.experiments.report import render_table
from repro.topology.fattree import FatTree

MIN_SPEEDUP = 10.0


def _grid():
    full = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
    grid = [(16, 2, "mlid")]
    if full:
        grid += [(16, 2, "slid"), (4, 3, "mlid")]
    return grid


def measure():
    rows = []
    for m, n, name in _grid():
        scheme = get_scheme(name, FatTree(m, n))

        t0 = time.perf_counter()
        scalar_checked = verification.scalar_verify_scheme(scheme)
        scalar_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        kernel = RouteKernel.from_scheme(scheme)  # cold compile included
        kernel_checked = kernel.verify()
        kernel_s = time.perf_counter() - t0

        assert kernel_checked == scalar_checked
        rows.append(
            {
                "fabric": f"FT({m},{n}) {name}",
                "paths": scalar_checked,
                "scalar s": scalar_s,
                "kernel s": kernel_s,
                "scalar paths/s": scalar_checked / scalar_s,
                "kernel paths/s": kernel_checked / kernel_s,
                "speedup": scalar_s / kernel_s,
            }
        )
    return rows


def test_verification_throughput(benchmark, save_timing):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = render_table(
        rows,
        title=(
            "static verification throughput — scalar tracer vs route "
            "kernel (delivery + minimality + up*/down*, all LIDs)"
        ),
    )
    save_timing("verification_throughput", text)
    headline = rows[0]
    assert headline["speedup"] >= MIN_SPEEDUP, (
        f"kernel speedup {headline['speedup']:.1f}x on {headline['fabric']} "
        f"is below the {MIN_SPEEDUP:.0f}x acceptance bar"
    )
