"""The five workloads of the end-to-end benchmark.

Each workload runs in a fresh interpreter spawned by ``run.py``::

    python benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S --mode MODE

and prints one JSON result line.  ``MODE`` is one of

* ``run``     — set up, measure for ``--seconds``, check the outputs;
                the end-to-end metrics come only from this mode;
* ``setup``   — set up and exit (``run.py`` repeats set-up this way and
                reports the median);
* ``traced``  — as ``run``, with span wrappers installed at the
                bindings the callers use; spans go to ``traces/``;
* ``profile`` — one shorter repetition under cProfile, every thread the
                workload starts profiled, for the module shares;
* ``golden``  — as ``run`` for one repetition, then rewrite
                ``golden/WORKLOAD.json`` from the outputs.

A run repeats its unit of work (the figure set, a flow-sweep pass, a
storm play) until ``--seconds`` have been measured, at least once.
The shared host slows the same work by up to ~2x for seconds to minutes,
so times are scaled by a reference timed next to them and reported as
medians: ops by the :mod:`hostspeed` kernel, which a thread times every
50 ms (:func:`scaled_parts`), queries by an echo server that takes turns
with the route-query server (:class:`EchoServer`).

Nothing here changes ``src/``: every layer is timed by wrapping calls
into its public functions from outside.
"""

from __future__ import annotations

import time

#: Set-up clock: starts before the system under test is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from metrics import PROFILED_MODULES  # noqa: E402
from tracer import LAYERS, Tracer, profile_shares, span_table, write_jsonl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN_DIR = HERE / "golden"
TRACE_DIR = HERE / "traces"
WORK_DIR = HERE / ".work"

#: Golden files were generated with this seed; other seeds skip them.
GOLDEN_SEED = 1
#: DESIGN §15: warm-started flow points agree within this band.
FLOW_RTOL = 0.03
#: Answers per service workload replayed against an independent kernel.
VERIFY_SAMPLES = 64

FIGURE_SETS = {
    "figures-uniform": ("fig12", "fig13", "fig14", "fig15"),
    "figures-centric": ("fig16", "fig17", "fig18", "fig19"),
}
#: The figure the profile pass runs (at one VL count) per figure set.
PROFILE_FIGURE = {"figures-uniform": "fig15", "figures-centric": "fig19"}

SERVICE_FABRIC = (8, 3, "mlid")
#: One play of the storm; a run plays it until --seconds.
STORM_HORIZON_NS = 100_000.0
STORM_PACE_S = 0.002
#: Echo round trips per second on the host the baseline was taken on,
#: in a quiet phase: route-query's times are scaled to a host this fast.
ECHO_PER_S = 20_000.0
PROFILE_QUERY_SECONDS = 3.0


# ---------------------------------------------------------------------------
# Run context: checks, patches, spans, profiles
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's unit of work."""

    start_ns: int
    end_ns: int
    #: Wall time the host-speed kernel took inside the repetition.
    probe_ns: int
    #: ``(start_ns, duration_ns)`` of each op, in the order they ran.
    ops: list

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns - self.probe_ns) / 1e9


def scaled_parts(reps: list, factor) -> tuple:
    """A repeated unit of work, scaled to the reference host.

    Every repetition runs the same ops.  Each op's duration is multiplied
    by ``factor(start_ns, end_ns)`` (:meth:`hostspeed.HostSpeed.factor`)
    for its own span, the time outside ops by the factor of the whole
    repetition.  Returns ``(work_s, op durations in ns)``: the median
    repetition's total, and each op's median over the repetitions.  Op
    durations are spread unevenly (a flow pass has a 2x gap right at its
    median op), so a percentile over every op of every repetition jumped
    across such gaps from run to run; one value per op does not.
    """
    if len({len(rep.ops) for rep in reps}) != 1:
        raise ValueError("repetitions ran different numbers of ops")
    ops = np.asarray([[d * factor(s, s + d) for s, d in rep.ops] for rep in reps])
    totals = [
        row.sum() / 1e9
        + (rep.wall_s - sum(d for _, d in rep.ops) / 1e9) * factor(rep.start_ns, rep.end_ns)
        for rep, row in zip(reps, ops)
    ]
    return float(np.median(totals)), np.median(ops, axis=0)


class Context:
    """State of one workload run; restores every patch on exit."""

    def __init__(self, workload: str, *, seed: int, seconds: float, mode: str = "run",
                 t0: float | None = None, golden: bool = True):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.mode = mode
        self.t0 = time.perf_counter() if t0 is None else t0
        self.tracer = Tracer() if mode == "traced" else None
        self.golden = load_golden(workload) if golden and seed == GOLDEN_SEED else None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.metrics: dict = {}
        self.layer: dict = {}
        self.detail: dict = {}
        self.outputs: dict = {}
        self.spans: dict = {}
        self.setup_s = math.nan
        #: CPUs this run may use.  The work, and every thread it starts,
        #: runs on the first: the kernel must time the CPU the work runs
        #: on, and the host runs its two vCPUs at different speeds.
        self.cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpus[0]})
        self.host = hostspeed.HostSpeed()
        self.host.start()
        self._patches: list = []
        self._profiles: list = []

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc) -> None:
        self.host.stop()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self.tracer is not None:
            self.tracer.restore()
        os.sched_setaffinity(0, self.cpus)

    # -- checks ----------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        """Count one op; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    # -- measurement helpers --------------------------------------------
    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def more(self, walls: list) -> bool:
        """Whether to measure another repetition after ``walls``."""
        if self.mode in ("golden", "profile"):
            return False
        return sum(walls) < self.seconds

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Span-wrap ``owner.attr`` in the traced mode; no-op otherwise."""
        if self.tracer is not None:
            self.tracer.wrap(owner, attr, name, on_result)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def time_calls(self, owner, attr: str, sink: list) -> None:
        """The op timer: append ``(start_ns, duration_ns)`` of every call
        to ``sink``, less the time the host-speed kernel held the GIL."""
        fn = getattr(owner, attr)
        perf_ns = time.perf_counter_ns
        host = self.host

        def timed(*args, **kwargs):
            start, probe = perf_ns(), host.wall_ns
            result = fn(*args, **kwargs)
            sink.append((start, perf_ns() - start - (host.wall_ns - probe)))
            return result

        self.patch(owner, attr, timed)

    def rep(self, start_ns: int, probe_ns: int, ops: list) -> Rep:
        """A repetition that began at ``start_ns``, when the host-speed
        kernel had taken ``probe_ns``, and ends now."""
        return Rep(start_ns, time.perf_counter_ns(), self.host.wall_ns - probe_ns, list(ops))

    def profiler(self) -> cProfile.Profile | None:
        """A new profiler in the profile mode, else ``None``."""
        if self.mode != "profile":
            return None
        prof = cProfile.Profile()
        self._profiles.append(prof)
        return prof

    def setup_done(self) -> None:
        """End the set-up clock.  ``setup_s`` is scaled by the kernel
        samples taken since the context was made."""
        now = time.perf_counter_ns()
        self.setup_s = (now - self.host.wall_ns) / 1e9 - self.t0
        start = int(self.t0 * 1e9)
        self.metrics["setup_s"] = self.setup_s * self.host.factor(start, now)
        self.detail["setup_unscaled_s"] = self.setup_s

    # -- results -------------------------------------------------------
    def record_reps(self, reps: list) -> None:
        """End-to-end metrics of a repeated unit of work (see
        :func:`scaled_parts`).  The measurement is over: sampling stops."""
        self.host.stop()
        work_s, ops = scaled_parts(reps, self.host.factor)
        lat = ops / 1e3
        self.metrics.update(
            {
                "work_s": work_s,
                "ops_per_s": len(reps[0].ops) / work_s,
                "op_p50_us": float(np.percentile(lat, 50)),
                "op_p90_us": float(np.percentile(lat, 90)),
                "peak_rss_mb": peak_rss_mb(),
            }
        )
        self.detail.update(
            op_samples=len(ops), repetitions=len(reps),
            rep_wall_s=[rep.wall_s for rep in reps],
            host_speed=[self.host.factor(rep.start_ns, rep.end_ns) for rep in reps],
            host_samples=self.host.samples(),
        )

    def record_spans(self, windows: list, measured_s: float) -> dict:
        """Span table over the measured windows; fills the coverage share."""
        records = self.tracer.records()
        table = span_table(records, windows)
        self.spans = table
        self.layer["trace.coverage_frac"] = table["root_s"] / measured_s
        path = TRACE_DIR / f"{self.workload}-seed{self.seed}.jsonl"
        write_jsonl(records, path)
        self.detail["trace_file"] = str(path.relative_to(ROOT))
        self.detail["spans"] = len(records)
        return table

    def record_profile(self) -> None:
        stats = pstats.Stats(*self._profiles)
        shares = profile_shares(stats)
        for module in PROFILED_MODULES:
            self.layer[f"prof.{module}_share"] = shares["modules"].get(module, 0.0)
        for layer in (*LAYERS, "other"):
            self.layer[f"prof.{layer}_share"] = shares["layers"].get(layer, 0.0)
        self.detail["profiled_s"] = shares["total_s"]

    def result(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "layer": self.layer,
            "detail": self.detail,
            "spans": self.spans,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_golden(workload: str):
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _same(a, b) -> bool:
    """Bit-identical, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _span_s(reps: list) -> float:
    """Wall seconds the repetitions spanned, host-speed samples included:
    the base of the traced pass's shares."""
    return sum(rep.end_ns - rep.start_ns for rep in reps) / 1e9


def _name_total(table: dict, *names: str) -> float:
    return sum(table["names"].get(n, {}).get("total_s", 0.0) for n in names)


def _name_count(table: dict, name: str) -> int:
    return table["names"].get(name, {}).get("count", 0)


# ---------------------------------------------------------------------------
# figures-uniform / figures-centric
# ---------------------------------------------------------------------------


def figures(ctx: Context, figure_ids=None) -> None:
    """Regenerate a set of paper figures on the quick grid, plus Table 1
    with the uniform set."""
    from repro.experiments import get_experiment, parallel, run_figure, runner
    from repro.ib import artifacts
    from repro.ib.config import SimConfig
    from repro.ib.subnet import Subnet
    from test_table1_network_sizes import build_rows as table1_rows

    if figure_ids is None:
        figure_ids = FIGURE_SETS[ctx.workload]
    table = ctx.workload == "figures-uniform"
    configs = [
        dataclasses.replace(get_experiment(fid), quick_seeds=(ctx.seed,))
        for fid in figure_ids
    ]
    if ctx.mode == "profile":
        fid = PROFILE_FIGURE.get(ctx.workload)
        fid = fid if fid in figure_ids else figure_ids[-1]
        configs = [
            dataclasses.replace(get_experiment(fid), vl_counts=(1,), quick_seeds=(ctx.seed,))
        ]

    counts = {"events": 0, "packets": 0}

    def count_point(result):
        counts["events"] += result["events"]
        counts["packets"] += result["packets"]

    ctx.wrap(runner, "get_artifacts", "ib.artifacts.get_artifacts")
    ctx.wrap(runner, "build_subnet", "ib.subnet.build_subnet")
    ctx.wrap(Subnet, "run_measurement", "ib.subnet.run_measurement", count_point)

    # -- set-up: routing artifacts of every curve, one warm-up point ------
    artifacts.clear_artifact_cache()
    base = SimConfig()
    with ctx.span("ib.artifacts.prebuild"):
        for cfg in configs:
            for vls in cfg.vl_counts:
                for scheme in cfg.schemes:
                    artifacts.get_artifacts(cfg.m, cfg.n, scheme, base.with_vls(vls))
    runner.run_point(
        configs[0].m, configs[0].n, "mlid", configs[0].pattern, 0.1,
        warmup_ns=1_000.0, measure_ns=5_000.0, seed=ctx.seed,
    )
    ctx.setup_done()
    if ctx.mode == "setup":
        return

    if ctx.mode == "profile":
        gc.collect()
        prof = ctx.profiler()
        prof.enable()
        run_figure(configs[0], quick=True, jobs=1)
        prof.disable()
        ctx.record_profile()
        return

    ops: list = []
    ctx.time_calls(parallel, "run_spec", ops)
    counts.update(events=0, packets=0)  # drop the warm-up point
    reps: list = []
    window_start = time.perf_counter_ns()
    while True:
        ops.clear()
        gc.collect()
        start, probe = time.perf_counter_ns(), ctx.host.wall_ns
        results = {}
        for cfg in configs:
            with ctx.span("experiments.sweep.run_figure"):
                results[cfg.id] = run_figure(cfg, quick=True, jobs=1)
        if table:
            with ctx.span("topology.table1"):
                rows = table1_rows()
        reps.append(ctx.rep(start, probe, ops))
        _check_figures(ctx, results)
        if table:
            _check_table1(ctx, rows)
        if not ctx.more([rep.wall_s for rep in reps]):
            break
    window = (window_start, time.perf_counter_ns())
    ctx.record_reps(reps)
    if ctx.mode == "golden":
        ctx.outputs = {"points": _figure_outputs(results)}
        if table:
            ctx.outputs["table1"] = rows
    if ctx.tracing:
        measured = _span_s(reps)
        spans = ctx.record_spans([window], measured)
        prebuild = span_table(ctx.tracer.records(), [(0, window_start)])
        ctx.layer["ib.artifacts.misses"] = artifacts.artifact_cache_info()["misses"]
        ctx.layer["ib.artifacts.setup_frac"] = (
            _name_total(prebuild, "ib.artifacts.prebuild") / ctx.setup_s
        )
        run_s = _name_total(spans, "ib.subnet.run_measurement")
        ctx.layer["ib.subnet.build_frac"] = _name_total(spans, "ib.subnet.build_subnet") / measured
        ctx.layer["ib.subnet.run_frac"] = run_s / measured
        ctx.layer["experiments.other_frac"] = (
            spans["layers"].get("experiments", {}).get("self_s", 0.0) / measured
        )
        ctx.layer["sim.events"] = counts["events"] / len(reps)
        ctx.layer["ib.packets"] = counts["packets"] / len(reps)
        ctx.layer["sim.events_per_s"] = counts["events"] / run_s
        ctx.layer["ib.packets_per_s"] = counts["packets"] / run_s


def _figure_outputs(results: dict) -> dict:
    out = {}
    for fid, res in results.items():
        for (scheme, vls), points in sorted(res.curves.items()):
            for p in points:
                out[f"{fid}/{scheme}/vl{vls}/{p.offered}"] = [
                    p.accepted, p.latency_mean, p.latency_p99, p.packets
                ]
    return out


def _check_figures(ctx: Context, results: dict) -> None:
    """One op per figure point, one per figure for its curves."""
    golden = ctx.golden["points"] if ctx.golden is not None else None
    for key, got in _figure_outputs(results).items():
        if golden is not None:
            want = golden.get(key)
            ok = want is not None and all(_same(a, b) for a, b in zip(got, want))
            ctx.check(ok, f"{key}: {got} != golden {want}")
        else:
            accepted, latency, _p99, packets = got
            ok = accepted > 0 and packets > 0 and math.isfinite(latency)
            ctx.check(ok, f"{key}: degenerate point {got}")
    for fid, res in results.items():
        ctx.check(all(res.curves.values()), f"{fid}: empty curve")


def _check_table1(ctx: Context, rows: list) -> None:
    want_rows = ctx.golden.get("table1") if ctx.golden is not None else None
    for i, row in enumerate(rows):
        if want_rows is not None:
            ok = i < len(want_rows) and row == want_rows[i]
        else:
            # The paper's formulas: 2(m/2)^n nodes, (2n-1)(m/2)^(n-1) switches.
            k, n = row["m-port"] // 2, row["n-tree"]
            ok = row["nodes"] == 2 * k**n and row["switches"] == (2 * n - 1) * k ** (n - 1)
        ctx.check(ok, f"table1 row {row}")


# ---------------------------------------------------------------------------
# flow-scale
# ---------------------------------------------------------------------------


def flow_configs(labels=None) -> list:
    """(label, ExperimentConfig, base SimConfig) of one sweep pass."""
    from repro.experiments import FIGURES, get_experiment
    from repro.ib.config import SimConfig

    per_port = SimConfig(routing_engines_per_switch=0)
    a16 = get_experiment("a16_scale_flow")
    passes = [
        ("a16", a16, per_port),
        ("a17", get_experiment("a17_scale_flow64"), per_port),
        ("ft32-centric", dataclasses.replace(a16, pattern="centric"), SimConfig()),
    ] + [(fid, cfg, SimConfig()) for fid, cfg in FIGURES.items()]
    if labels is not None:
        passes = [p for p in passes if p[0] in labels]
    return passes


def flow(ctx: Context, labels=None) -> None:
    """Cold flow-model sweep passes at paper scale (no packet engine)."""
    from repro.experiments import flowlevel, folding, modelstore, run_figure, sweep
    from repro.topology.fattree import FatTree

    passes = flow_configs(labels)
    counts = {"iterations": 0, "classes": 0}

    def count_curve(results):
        counts["iterations"] += sum(r["iterations"] for r in results)

    def count_model(model):
        counts["classes"] += model.num_classes

    ctx.wrap(FatTree, "__init__", "topology.fattree.FatTree")
    ctx.wrap(flowlevel, "fabric_arrays", "core.kernel.fabric_arrays")
    for fn in ("fold_class_groups", "link_types", "engine_types"):
        ctx.wrap(folding, fn, f"experiments.folding.{fn}")
    ctx.wrap(flowlevel, "build_flow_model", "experiments.flowlevel.build_flow_model", count_model)
    ctx.wrap(flowlevel, "evaluate_curve", "experiments.flowlevel.evaluate_curve", count_curve)
    ctx.wrap(modelstore, "save_model", "experiments.modelstore.save_model")
    ctx.wrap(modelstore, "load_model", "experiments.modelstore.load_model")

    WORK_DIR.mkdir(parents=True, exist_ok=True)

    ops: list = []

    def one_pass(sweeps):
        """Time one cold pass; returns (its Rep, results by label)."""
        store = tempfile.mkdtemp(prefix="flow-", dir=WORK_DIR)
        try:
            os.environ["REPRO_FLOW_CACHE_DIR"] = store
            flowlevel.clear_flow_models()
            ops.clear()
            gc.collect()
            start, probe = time.perf_counter_ns(), ctx.host.wall_ns
            results = {}
            for label, cfg, base in sweeps:
                with ctx.span("experiments.sweep.run_figure"):
                    results[label] = run_figure(cfg, quick=False, base_cfg=base, mode="flow")
            return ctx.rep(start, probe, ops), results
        finally:
            shutil.rmtree(store, ignore_errors=True)

    # -- set-up: a warm-up pass over the smallest fabric -----------------
    one_pass([p for p in passes if p[0] == "fig12"] or passes[:1])
    ctx.setup_done()
    if ctx.mode == "setup":
        return

    if ctx.mode == "profile":
        prof = ctx.profiler()
        prof.enable()
        one_pass(passes)
        prof.disable()
        ctx.record_profile()
        return

    ctx.time_calls(sweep, "plan_flow_curve", ops)
    counts.update(iterations=0, classes=0)
    reps: list = []
    window_start = time.perf_counter_ns()
    while True:
        rep, results = one_pass(passes)
        reps.append(rep)
        _check_flow(ctx, results)
        if not ctx.more([rep.wall_s for rep in reps]):
            break
    window = (window_start, time.perf_counter_ns())
    ctx.record_reps(reps)
    if ctx.mode == "golden":
        ctx.outputs = {"points": _flow_outputs(results)}
    if ctx.tracing:
        measured = _span_s(reps)
        spans = ctx.record_spans([window], measured)
        fold = [f"experiments.folding.{f}" for f in ("fold_class_groups", "link_types",
                                                      "engine_types")]
        store_io = ("experiments.modelstore.save_model", "experiments.modelstore.load_model")
        ctx.layer.update(
            {
                "topology.fattree_frac": _name_total(spans, "topology.fattree.FatTree") / measured,
                "core.kernel.fabric_arrays_frac": (
                    _name_total(spans, "core.kernel.fabric_arrays") / measured
                ),
                "experiments.folding.fold_frac": _name_total(spans, *fold) / measured,
                "experiments.flowlevel.compile_frac": (
                    _name_total(spans, "experiments.flowlevel.build_flow_model") / measured
                ),
                "experiments.flowlevel.solve_frac": (
                    _name_total(spans, "experiments.flowlevel.evaluate_curve") / measured
                ),
                "experiments.modelstore.io_frac": _name_total(spans, *store_io) / measured,
                "experiments.flowlevel.iterations": counts["iterations"] / len(reps),
                "experiments.flowlevel.classes": counts["classes"] / len(reps),
            }
        )


def _flow_outputs(results: dict) -> dict:
    out = {}
    for label, res in results.items():
        for (scheme, vls), points in sorted(res.curves.items()):
            for p in points:
                out[f"{label}/{scheme}/vl{vls}/{p.offered}"] = [p.accepted, p.latency_mean]
    return out


def _check_flow(ctx: Context, results: dict) -> None:
    """One op per flow point, plus one per MLID-vs-SLID curve pair."""
    golden = ctx.golden["points"] if ctx.golden is not None else None
    for key, got in _flow_outputs(results).items():
        if golden is not None:
            want = golden.get(key)
            ok = want is not None and all(
                abs(a - b) <= FLOW_RTOL * abs(b) for a, b in zip(got, want)
            )
            ctx.check(ok, f"{key}: {got} vs golden {want}")
        else:
            ok = got[0] > 0 and math.isfinite(got[1])
            ctx.check(ok, f"{key}: degenerate flow point {got}")
    for label, res in results.items():
        for scheme, vls in res.curves:
            if scheme != "mlid" or ("slid", vls) not in res.curves:
                continue
            # The flow model puts MLID up to 0.25% below SLID on the
            # centric figures, inside the band its points are held to.
            mlid, slid = res.saturation("mlid", vls), res.saturation("slid", vls)
            ctx.check(
                mlid >= slid * (1 - FLOW_RTOL),
                f"{label} vl{vls}: MLID saturation {mlid} < SLID {slid}",
            )


# ---------------------------------------------------------------------------
# route-query / flap-storm: the service under a closed-loop generator
# ---------------------------------------------------------------------------


class EchoServer:
    """The host-speed reference for route-query.

    The route-query server's transport, asyncio streams carrying one
    JSON line in and one out, with no ``repro`` code behind it: every
    request comes back as its own answer.  Same interface as
    :class:`~repro.service.RouteQueryServer`.
    """

    def __init__(self):
        self.port = 0
        self._server = None
        self._stopped = asyncio.Event()

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        await self._stopped.wait()

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        self._stopped.set()

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while line := await reader.readline():
                answer = dict(json.loads(line.decode().strip()), ok=True, generation=0)
                writer.write((json.dumps(answer) + "\n").encode())
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()


class ServerThread:
    """An asyncio server (a :class:`~repro.service.RouteQueryServer` or
    an :class:`EchoServer`) on its own event-loop thread."""

    def __init__(self, server, profiler: cProfile.Profile | None = None):
        self.server = server
        self.profiler = profiler
        self.loop = None
        self.error = None
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, name="route-query-server", daemon=True)
        self.thread.start()
        if not self._started.wait(30) or self.error is not None:
            raise RuntimeError(f"route-query server did not start: {self.error!r}")

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        self.loop = asyncio.new_event_loop()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            self.loop.run_until_complete(self.server.start())
            self._started.set()
            self.loop.run_until_complete(self.server.serve_until_shutdown())
        except Exception as exc:
            self.error = exc
            self._started.set()
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            self.loop.close()

    def stop(self) -> None:
        if self.thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop)
            future.result(timeout=30)
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("route-query server thread did not stop")


class LoadGenerator:
    """The ``loadgen.py`` child process (see its docstring)."""

    def __init__(self, port: int, nodes: int, seed: int, cpu: int, echo_port: int | None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), "--port", str(port),
             "--nodes", str(nodes), "--seed", str(seed), "--cpu", str(cpu)]
            + ([] if echo_port is None else ["--echo-port", str(echo_port)]),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("load generator failed to start")

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=60)
        if not line:
            raise RuntimeError(f"load generator exited {self.proc.returncode} without a result")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def _verify_samples(ctx: Context, samples: list, ft, oracle_lfts, scheme) -> None:
    """Replay sampled answers against kernels compiled from archived LFTs."""
    from repro.core.kernel import RouteKernel
    from repro.topology.labels import format_switch

    picked = samples[:: max(1, len(samples) // VERIFY_SAMPLES)][:VERIFY_SAMPLES]
    kernel, kernel_gen = None, None
    # One kernel alive at a time: each holds the fabric's route tensor.
    for sample in sorted(picked, key=lambda s: s["response"]["generation"]):
        resp = sample["response"]
        src, dst, gen = sample["src"], sample["dst"], resp["generation"]
        lfts = oracle_lfts(gen)
        if lfts is None:
            ctx.check(False, f"answer stamped with unpublished generation {gen}")
            continue
        if gen != kernel_gen:
            kernel, kernel_gen = RouteKernel.from_lfts(scheme, lfts), gen
        ok = resp["dlid"] == int(kernel.selected[src, dst])
        if resp["op"] == "path":
            trace = kernel.path(ft.node_from_pid(src), ft.node_from_pid(dst), dlid=resp["dlid"])
            ok = ok and resp["switches"] == [format_switch(*sw) for sw in trace.switches]
            ok = ok and resp["ports"] == list(trace.ports)
        ctx.check(ok, f"{resp['op']} {src}->{dst} at generation {gen} differs from its LFTs")


class Play:
    """One measured window of queries against a running service."""

    def __init__(self, service, server, storm=None):
        self.service = service
        self.server = server
        self.storm = storm
        self.counters0 = dict(service.counters)
        #: service counters moved by this play's queries.
        self.counts: dict = {}
        #: simulated time to repair of every sweep of this play's storm.
        self.repair_ns: list = []
        self.gen: dict = {}
        self.window = (0, 0)
        #: (start_ns, end_ns, host-speed kernel ns) of the storm, start to
        #: horizon done.
        self.storm_span = (0, 0, 0)

    def run(self, ctx: Context, seconds: float, loadgen_cpu: int,
            echo_port: int | None = None) -> "Play":
        """Queries for ``seconds``, or for the storm's whole horizon,
        from a generator on ``loadgen_cpu``, taking turns with an
        :class:`EchoServer` on ``echo_port`` if given."""
        loadgen = LoadGenerator(self.server.port, self.service.ft.num_nodes, ctx.seed,
                                loadgen_cpu, echo_port)
        try:
            gc.collect()
            start_ns = time.perf_counter_ns()
            loadgen.go()
            if self.storm is None:
                time.sleep(seconds)
            else:
                start, probe = time.perf_counter_ns(), ctx.host.wall_ns
                self.storm.start()
                # Stop only once the horizon has played out: stop()
                # called mid-horizon runs the rest of it flat out.
                while self.storm.running():
                    time.sleep(0.005)
                self.storm.stop()
                self.storm_span = (start, time.perf_counter_ns(), ctx.host.wall_ns - probe)
            self.gen = loadgen.stop()
            self.window = (start_ns, time.perf_counter_ns())
        finally:
            loadgen.close()
            if self.storm is not None and self.storm.running():
                self.storm.stop()
        self.counts = {
            k: v - self.counters0.get(k, 0) for k, v in self.service.counters.items()
        }
        if self.storm is not None:
            self.repair_ns = [r.time_to_repair for r in self.storm.mgr.records]
        return self


def _check_queries(ctx: Context, plays: list) -> None:
    """The query-side checks, and what the generator saw in each play."""
    gens = [p.gen for p in plays]
    ctx.detail.update(
        queries=sum(g["queries"] for g in gens),
        query_rate_per_play=[g["queries"] / g["wall_s"] for g in gens],
        latency_us_per_play=[g["latency_us"] for g in gens],
    )
    for gen in gens:
        ctx.attempted += gen["queries"]
        ctx.failed += gen["failed"]
        ctx.failures.extend(f"answer not ok: {f}" for f in gen["failures"][:20])
        ctx.check(gen["generation_regressions"] == 0,
                  f"{gen['generation_regressions']} generation regressions on a connection")
        ctx.check(not gen["errors"], f"generator connection errors: {gen['errors']}")
    if ctx.tracing:
        ctx.layer["service.errors"] = sum(p.counts.get("errors", 0) for p in plays)
        ctx.layer["service.requests"] = sum(
            v for p in plays for k, v in p.counts.items() if k != "errors"
        )
        ctx.layer["loadgen.cpu_frac"] = (
            sum(g["cpu_s"] for g in gens) / sum(g["wall_s"] for g in gens)
        )


def _record_handle(ctx: Context, plays: list) -> None:
    """Service-side share of the client-side query latency."""
    windows = [p.window for p in plays]
    handle = np.asarray(
        [
            r["end_ns"] - r["start_ns"]
            for r in ctx.tracer.records()
            if r["name"] == "service.server.handle"
            and any(a <= r["start_ns"] and r["end_ns"] <= b for a, b in windows)
        ],
        dtype=np.float64,
    ) / 1e3
    p50, p90 = (float(np.percentile(handle, q)) for q in (50, 90))
    lat = plays[0].gen["latency_us"]
    ctx.layer["service.handle_p50_frac"] = p50 / lat["p50"]
    ctx.layer["service.handle_p90_frac"] = p90 / lat["p90"]
    ctx.detail.update(
        handle_us_p50=p50, handle_us_p90=p90, handle_samples=int(handle.size),
        transport_us_p50=lat["p50"] - p50,
    )


def route_query(ctx: Context) -> None:
    """Read-only queries against the static ``get_artifacts`` snapshot."""
    from repro.ib.artifacts import get_artifacts
    from repro.service import RouteQueryServer, RouteQueryService
    from repro.service.snapshot import SnapshotStore

    ctx.wrap(RouteQueryService, "handle", "service.server.handle")
    m, n, scheme = SERVICE_FABRIC
    with ctx.span("ib.artifacts.get_artifacts"):
        art = get_artifacts(m, n, scheme)
    start = time.perf_counter()
    with ctx.span("service.start"):
        store = SnapshotStore()
        store.publish(art.snapshot())
        service = RouteQueryService(store)
        server = ServerThread(RouteQueryServer(service), ctx.profiler())
    start_s = time.perf_counter() - start
    ctx.setup_done()
    # The echo reference scales the queries; the kernel would only take
    # CPU from them.
    ctx.host.stop()
    try:
        if ctx.mode == "setup":
            return
        # Server, echo and generator share one CPU, so the rate is the
        # CPU cost per query, client and server together; across two
        # vCPUs it doubled or halved with the host's placement of them.
        cpu = ctx.cpus[0]
        if ctx.mode == "profile":
            play = Play(service, server).run(ctx, min(ctx.seconds, PROFILE_QUERY_SECONDS), cpu)
        else:
            echo = ServerThread(EchoServer())
            try:
                play = Play(service, server).run(ctx, ctx.seconds, cpu, echo.server.port)
            finally:
                echo.stop()
    finally:
        server.stop()
    if ctx.mode == "profile":
        ctx.record_profile()
        return

    # The host runs this transport up to 1.7x slower for seconds to
    # minutes, on both vCPUs at once.  Each window is one phase of
    # queries and one of echoes right after it; scaled by the echoes'
    # rate, the window's queries read as on a host that echoes
    # ECHO_PER_S, and the run reports the median window.
    phase_s = play.gen["phase_s"]
    windows = play.gen["windows"]
    speed = np.asarray([w["echo_queries"] / phase_s / ECHO_PER_S for w in windows])
    rate = np.asarray([w["queries"] / phase_s for w in windows])
    lat = {k: np.asarray([w[k] for w in windows]) for k in ("p50", "p90", "p99")}
    ops_per_s = float(np.median(rate / speed))
    ctx.metrics.update(
        {
            "work_s": 1000.0 / ops_per_s,
            "ops_per_s": ops_per_s,
            "op_p50_us": float(np.median(lat["p50"] * speed)),
            "op_p90_us": float(np.median(lat["p90"] * speed)),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    ctx.detail.update(
        op_samples=min(w["queries"] for w in windows),
        repetitions=len(windows),
        host_speed=float(np.median(speed)),
        query_p99_us=float(np.median(lat["p99"] * speed)),
        unscaled={"queries_per_s": float(np.median(rate)),
                  **{f"{k}_us": float(np.median(v)) for k, v in lat.items()}},
        echo_us={k: float(np.median([w[f"echo_{k}"] for w in windows])) for k in ("p50", "p99")},
    )
    _check_queries(ctx, [play])
    _verify_samples(ctx, play.gen["samples"], service.ft,
                    lambda g: art.lfts if g == 0 else None, art.scheme)
    if ctx.tracing:
        ctx.record_spans([play.window], play.gen["wall_s"])
        _record_handle(ctx, [play])
        ctx.layer["service.start_frac"] = start_s / ctx.setup_s


def flap_storm(ctx: Context, horizon_ns: float | None = None) -> None:
    """Queries served while a link-flap storm repairs the tables underneath."""
    from repro.core.fault_kernel import FaultRepairKernel
    from repro.ib.sm import SubnetManager
    from repro.service import LinkFlapStorm, RouteQueryServer, RouteQueryService
    from repro.service.snapshot import SnapshotPublisher
    from repro.sim.wheel import WheelEngine

    if horizon_ns is None:
        horizon_ns = STORM_HORIZON_NS
    ctx.wrap(RouteQueryService, "handle", "service.server.handle")
    ctx.wrap(FaultRepairKernel, "repair", "core.fault_kernel.repair")
    ctx.wrap(SubnetManager, "program_delta", "ib.sm.program_delta")
    ctx.wrap(SnapshotPublisher, "publish_now", "service.snapshot.publish_now")
    # The storm's engine has __slots__, so its run() is wrapped on the
    # class; the storm's subnet is the only engine in this process.
    ctx.wrap(WheelEngine, "run", "sim.wheel.run")
    storm_prof = ctx.profiler()
    if storm_prof is not None:
        run = WheelEngine.run

        def profiled_run(self, *args, **kwargs):
            storm_prof.enable()
            try:
                return run(self, *args, **kwargs)
            finally:
                storm_prof.disable()

        ctx.patch(WheelEngine, "run", profiled_run)
    # The storm's thread times its steps.
    steps: list = []
    ctx.time_calls(WheelEngine, "run", steps)

    m, n, scheme = SERVICE_FABRIC

    def build() -> Play:
        storm = LinkFlapStorm(
            m, n, scheme, flap_links=2, horizon_ns=horizon_ns,
            pace_s=STORM_PACE_S, keep_lfts=True,
        )
        service = RouteQueryService(storm.store, storm=storm)
        return Play(service, ServerThread(RouteQueryServer(service), ctx.profiler()), storm)

    # Storm and server run on the run's CPU, the generator on the last,
    # so they do not take turns on one.
    start = time.perf_counter()
    with ctx.span("service.start"):
        play = build()
    start_s = time.perf_counter() - start
    ctx.setup_done()
    if ctx.mode == "setup":
        play.server.stop()
        return

    plays: list = []
    reps: list = []
    while True:
        steps.clear()
        try:
            plays.append(play.run(ctx, 0.0, ctx.cpus[-1]))
        finally:
            play.server.stop()
        reps.append(Rep(*play.storm_span, list(steps)))
        _check_storm(ctx, play)
        play.storm = play.service = play.server = None  # one fabric alive at a time
        if not ctx.more([rep.wall_s for rep in reps]):
            break
        play = build()  # untimed: the next play starts from a fresh fabric
    if ctx.mode == "profile":
        ctx.record_profile()
        return

    # An op is one step of the storm (one WheelEngine.run: 2 µs of
    # simulated time and the repairs it triggers).  Query rate and
    # latency here are set by the storm's hold on the GIL and its paced
    # sleeps, so they are reported, not bounded.
    ctx.record_reps(reps)
    _check_queries(ctx, plays)
    records = [len(p.repair_ns) for p in plays]
    repair_ns = [t for p in plays for t in p.repair_ns]
    ctx.detail.update(
        sweeps_per_play=records,
        time_to_repair_ns_mean=statistics.fmean(repair_ns) if repair_ns else math.nan,
    )
    if ctx.mode == "golden":
        ctx.outputs = {"time_to_repair_ns": plays[0].repair_ns}
    if ctx.tracing:
        measured = _span_s(reps)
        spans = ctx.record_spans([p.window for p in plays], measured)
        _record_handle(ctx, plays)
        busy = _name_total(spans, "sim.wheel.run")
        repair = _name_total(spans, "core.fault_kernel.repair")
        program = _name_total(spans, "ib.sm.program_delta")
        publish = _name_total(spans, "service.snapshot.publish_now")
        ctx.layer.update(
            {
                "service.start_frac": start_s / ctx.setup_s,
                "sm.sweeps": statistics.fmean(records),
                "sm.engine_busy_frac": busy / measured,
                "sm.repair_frac": repair / measured,
                "sm.program_frac": program / measured,
                "service.publish_frac": publish / measured,
                "service.publishes": _name_count(spans, "service.snapshot.publish_now")
                / len(plays),
                "sm.unattributed_frac": (busy - repair - program - publish) / measured,
            }
        )


def _check_storm(ctx: Context, play: Play) -> None:
    """Sampled answers against the archive, repair times against golden."""
    storm = play.storm
    _verify_samples(ctx, play.gen["samples"], play.service.ft,
                    storm.publisher.lft_archive.get, storm.mgr.scheme)
    repair_ns = play.repair_ns
    if ctx.golden is not None:
        want = ctx.golden["time_to_repair_ns"]
        ctx.check(len(repair_ns) == len(want), f"{len(repair_ns)} sweeps, golden {len(want)}")
        for i, (got, exp) in enumerate(zip(repair_ns, want)):
            ctx.check(got == exp, f"sweep {i}: time to repair {got} ns, golden {exp}")
    else:
        for i, got in enumerate(repair_ns):
            ctx.check(got >= 0, f"sweep {i}: negative time to repair {got}")
    ctx.check(not storm.store.get().down_links, "storm ended with links down")


WORKLOADS = {
    "figures-uniform": figures,
    "figures-centric": figures,
    "flow-scale": flow,
    "route-query": route_query,
    "flap-storm": flap_storm,
}
MODES = ("run", "setup", "traced", "profile", "golden")


def run_workload(workload: str, *, seed: int, seconds: float, mode: str = "run",
                 t0: float | None = None, **size) -> dict:
    """Run one workload in this process and return its result dict."""
    with Context(workload, seed=seed, seconds=seconds, mode=mode, t0=t0,
                 golden=mode != "golden") as ctx:
        WORKLOADS[workload](ctx, **size)
    if mode == "golden":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path = GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps(ctx.outputs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return ctx.result()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one end-to-end benchmark workload.")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=MODES, default="run")
    args = p.parse_args(argv)
    # Keep every file the system writes inside this checkout.
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_FLOW_CACHE_DIR"] = str(WORK_DIR / "flow-models")
    result = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          mode=args.mode, t0=_T0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
