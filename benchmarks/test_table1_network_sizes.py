"""T1 — the paper's Table 1: simulated network sizes.

Static (no simulation): constructs each evaluated FT(m, n), validates
it structurally, and reports the size/addressing columns
(:func:`repro.experiments.configs.table1_rows`, which ``repro table1``
prints too).
"""

from repro.experiments.configs import table1_rows as build_rows
from repro.experiments.report import render_table


def test_table1(benchmark, save_result):
    rows = benchmark(build_rows)
    # Paper formulas: 2(m/2)^n nodes, (2n-1)(m/2)^(n-1) switches.
    assert [r["nodes"] for r in rows] == [8, 32, 128, 512, 16, 128]
    assert [r["switches"] for r in rows] == [6, 12, 24, 48, 20, 80]
    save_result(
        "table1", render_table(rows, title="Table 1: simulated network sizes")
    )
