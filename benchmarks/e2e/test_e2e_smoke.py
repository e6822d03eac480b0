"""Smoke test of the end-to-end benchmark at reduced size.

Every workload function runs in this process, untraced, traced and
profiled, on a small input: fig12 / fig16, one FT(16, 2) flow pass,
1 s of queries (taking turns with the echo reference) and a 20 µs
storm.  Every metric ``BENCHMARK.json`` names
must come out finite with its declared unit, and no op may fail.  The
span arithmetic is checked on a hand-built tree.
"""

from __future__ import annotations

import json
import math
import time
import types
from pathlib import Path

import pytest

import hostspeed
import workloads
from metrics import END_TO_END, PER_LAYER, per_layer
from tracer import Tracer, span_table

ROOT = Path(__file__).resolve().parents[2]

#: workload -> (seed, seconds, reduced size).  Seed 1 compares the
#: reduced outputs against the golden files, which cover them; the
#: shortened storm has its own repair timeline, so it runs at seed 2.
REDUCED = {
    "figures-uniform": (1, 0.0, {"figure_ids": ("fig12",)}),
    "figures-centric": (1, 0.0, {"figure_ids": ("fig16",)}),
    "flow-scale": (1, 0.0, {"labels": ("fig14",)}),
    "route-query": (1, 1.0, {}),
    "flap-storm": (2, 0.0, {"horizon_ns": 20_000.0}),
}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_metric_definitions():
    bench = _benchmark()
    assert bench["paths"] == ["benchmarks/e2e"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }
    setup_bound = END_TO_END["setup_s"][2]
    assert all(bound <= setup_bound for _, _, bound in END_TO_END.values())


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_workload_emits_every_metric(workload):
    seed, seconds, size = REDUCED[workload]
    passes = {
        mode: workloads.run_workload(workload, seed=seed, seconds=seconds, mode=mode, **size)
        for mode in ("run", "traced", "profile")
    }
    for mode, result in passes.items():
        assert result["failed"] == 0, (mode, result["failures"])
    assert passes["run"]["attempted"] > 0

    bench = _benchmark()
    e2e = passes["run"]["metrics"]
    for metric in bench["end_to_end"]:
        value = e2e[metric["name"]]
        assert math.isfinite(value) and value > 0, (metric["name"], value)
    layer = per_layer(passes["run"], passes["traced"], passes["profile"])
    for metric in bench["per_layer"]:
        assert math.isfinite(layer[metric["name"]]), metric["name"]


def _span(i, name, start, end, parent=-1, thread=1):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "thread": thread}


def test_span_table_self_time():
    records = [
        _span(0, "experiments.sweep", 0, 100),
        _span(1, "ib.build", 10, 40, parent=0),
        _span(2, "ib.run", 50, 90, parent=0),
        _span(3, "core.route", 55, 65, parent=2),
        _span(4, "ib.build", 200, 230, thread=2),
    ]
    table = span_table(records)
    names = table["names"]
    assert names["experiments.sweep"]["self_s"] == pytest.approx(30e-9)
    assert names["ib.build"]["total_s"] == pytest.approx(60e-9)
    assert names["ib.build"]["count"] == 2
    assert names["ib.run"]["self_s"] == pytest.approx(30e-9)
    assert names["core.route"]["self_s"] == pytest.approx(10e-9)
    layers = table["layers"]
    assert layers["ib"]["self_s"] == pytest.approx(90e-9)
    assert layers["ib"]["total_s"] == pytest.approx(100e-9)
    assert layers["experiments"]["total_s"] == pytest.approx(100e-9)
    assert table["root_s"] == pytest.approx(130e-9)
    # Windows keep only spans wholly inside one of them.
    early = span_table(records, [(0, 150)])
    assert "core.route" in early["names"]
    assert early["names"]["ib.build"]["count"] == 1
    assert span_table(records, [(0, 60), (190, 240)])["names"].keys() == {"ib.build"}


def test_scaled_parts_scales_each_op_and_takes_medians():
    # Three repetitions of two ops (times in ns); the host ran at half
    # speed through the second, which also spent 10 ns in the kernel.
    def factor(start, end):
        return 0.5 if 1_000 <= start < 2_000 else 1.0

    reps = [
        workloads.Rep(0, 100, 0, [(0, 40), (50, 30)]),
        workloads.Rep(1_000, 1_200, 10, [(1_000, 80), (1_100, 60)]),
        workloads.Rep(3_000, 3_110, 0, [(3_000, 50), (3_060, 20)]),
    ]
    work_s, ops = workloads.scaled_parts(reps, factor)
    # Scaled ops 40, 30 | 40, 30 | 50, 20: each op's median.
    assert list(ops) == [40, 30]
    # Totals 100, 70 + (190 - 140) * 0.5 = 95 and 110 ns.
    assert work_s == pytest.approx(100e-9)
    with pytest.raises(ValueError):
        workloads.scaled_parts(reps[:1] + [workloads.Rep(0, 9, 0, [(0, 1)])], factor)


def test_host_speed_factor_takes_the_median_nearby():
    host = hostspeed.HostSpeed()
    second, ref = 1_000_000_000, hostspeed.REF_CPU_NS
    host._at_ns = [0, second // 20, 2 * second, 5 * second]
    host._cpu_ns = [ref, 3 * ref, 2 * ref, 4 * ref]
    assert host.factor(0, 0) == pytest.approx(0.5)  # median of ref and 3 ref
    assert host.factor(2 * second, 2 * second) == pytest.approx(0.5)
    # Nothing near: the next sample stands in.
    assert host.factor(4 * second, 4 * second) == pytest.approx(0.25)


def test_host_speed_samples_until_stopped():
    host = hostspeed.HostSpeed()
    host.start()
    time.sleep(3 * hostspeed.INTERVAL_S)
    host.stop()
    taken = host.samples()
    assert taken >= 2 and host.wall_ns > 0
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert host.samples() == taken


def test_tracer_wraps_nests_and_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(mod, "inner", "core.inner")
    tracer.wrap(mod, "outer", "ib.outer")
    assert mod.outer(1) == 4
    records = tracer.records()
    by_name = {r["name"]: r for r in records}
    assert by_name["core.inner"]["parent"] == by_name["ib.outer"]["id"]
    assert by_name["ib.outer"]["parent"] == -1
    tracer.restore()
    assert mod.inner is inner
