"""Metric definitions of the end-to-end benchmark.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds; the smoke test checks that the two agree.  Every
workload reports every metric: a per-layer metric whose layer a
workload never calls reads 0.
"""

from __future__ import annotations

#: name -> (unit, better, regression bound as a share of the median).
#: ``work_s`` is the workload's unit of work: one regeneration of the
#: figure set, one cold flow-sweep pass, 1000 queries answered, or one
#: storm play.  An op is a figure point, a flow curve, a query or a storm
#: step.  The op tail is p90, not p99: 51-72 ops make p99 the single
#: slowest op.  Times are scaled to the reference host (README, "How a
#: run measures").
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "work_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_us": ("us", "lower", 0.25),
    "op_p90_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

_FIG = "figures-*"
_FLOW = "flow-scale"
_SVC = "route-query, flap-storm"
_STORM = "flap-storm"

#: name -> (unit, better, layer, workloads that exercise it, the
#: end-to-end metric it should move).  Shares (``frac``) of time are
#: taken over the traced pass's measured work (``work_s``), or over its
#: set-up where the name says ``setup``.
PER_LAYER = {
    "trace.overhead_frac": ("frac", "lower", "trace", "all", "none (traced/untraced work_s - 1)"),
    "trace.coverage_frac": ("frac", "higher", "trace", "all", "none (root spans / work_s)"),
    "ib.artifacts.setup_frac": ("frac", "lower", "ib", _FIG, "setup_s"),
    "ib.artifacts.misses": ("count", "lower", "ib", _FIG, "setup_s"),
    "ib.subnet.build_frac": ("frac", "lower", "ib", _FIG, "work_s"),
    "ib.subnet.run_frac": ("frac", "lower", "ib", _FIG, "work_s"),
    "experiments.other_frac": ("frac", "lower", "experiments", _FIG, "work_s"),
    "sim.events": ("count", "lower", "sim", _FIG, "work_s"),
    "sim.events_per_s": ("1/s", "higher", "sim", _FIG, "work_s"),
    "ib.packets": ("count", "higher", "ib", _FIG, "none (simulated output)"),
    "ib.packets_per_s": ("1/s", "higher", "ib", _FIG, "work_s"),
    "prof.ib.fastpath_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.sim.wheel_share": ("frac", "lower", "sim", "all", "work_s"),
    "prof.ib.link_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.ib.endnode_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.ib.buffers_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.traffic.patterns_share": ("frac", "lower", "traffic", "all", "work_s"),
    "prof.ib.switch_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.sim.stats_share": ("frac", "lower", "sim", "all", "work_s"),
    "prof.ib_share": ("frac", "lower", "ib", "all", "work_s"),
    "prof.sim_share": ("frac", "lower", "sim", "all", "work_s"),
    "prof.traffic_share": ("frac", "lower", "traffic", "all", "work_s"),
    "prof.topology_share": ("frac", "lower", "topology", "all", "work_s"),
    "prof.core_share": ("frac", "lower", "core", "all", "work_s"),
    "prof.experiments_share": ("frac", "lower", "experiments", "all", "work_s"),
    "prof.runtime_share": ("frac", "lower", "runtime", "all", "work_s"),
    "prof.service_share": ("frac", "lower", "service", "all", "work_s"),
    "prof.other_share": ("frac", "lower", "other", "all", "work_s"),
    "topology.fattree_frac": ("frac", "lower", "topology", _FLOW, "work_s"),
    "core.kernel.fabric_arrays_frac": ("frac", "lower", "core", _FLOW, "work_s"),
    "experiments.folding.fold_frac": ("frac", "lower", "experiments", _FLOW, "work_s"),
    "experiments.flowlevel.compile_frac": ("frac", "lower", "experiments", _FLOW, "work_s"),
    "experiments.flowlevel.solve_frac": ("frac", "lower", "experiments", _FLOW, "work_s"),
    "experiments.flowlevel.iterations": ("count", "lower", "experiments", _FLOW, "work_s"),
    "experiments.flowlevel.classes": (
        "count", "lower", "experiments", _FLOW, "work_s, peak_rss_mb"),
    "experiments.modelstore.io_frac": ("frac", "lower", "experiments", _FLOW, "work_s"),
    "service.handle_p50_frac": ("frac", "lower", "service", _SVC, "op_p50_us"),
    "service.handle_p90_frac": ("frac", "lower", "service", _SVC, "op_p90_us"),
    "service.requests": ("count", "higher", "service", _SVC, "ops_per_s"),
    "service.errors": ("count", "lower", "service", _SVC, "ops_per_s"),
    "service.start_frac": ("frac", "lower", "service", _SVC, "setup_s"),
    "loadgen.cpu_frac": ("frac", "lower", "loadgen", _SVC, "none (flags a generator-bound run)"),
    "sm.sweeps": ("count", "lower", "runtime", _STORM, "work_s"),
    "sm.engine_busy_frac": ("frac", "lower", "sim", _STORM, "work_s"),
    "sm.repair_frac": ("frac", "lower", "core", _STORM, "work_s"),
    "sm.program_frac": ("frac", "lower", "ib", _STORM, "work_s"),
    "service.publish_frac": ("frac", "lower", "service", _STORM, "work_s, op_p90_us"),
    "service.publishes": ("count", "lower", "service", _STORM, "work_s"),
    "sm.unattributed_frac": ("frac", "lower", "runtime", _STORM, "work_s, op_p90_us"),
}

#: The modules whose profile shares are reported one by one: the packet
#: hop path and event core that produce every paper figure.
PROFILED_MODULES = (
    "ib.fastpath",
    "sim.wheel",
    "ib.link",
    "ib.endnode",
    "ib.buffers",
    "traffic.patterns",
    "ib.switch",
    "sim.stats",
)


def per_layer(untraced: dict, traced: dict, profiled: dict) -> dict:
    """Combine the three passes of a traced run into the per-layer set."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(traced["layer"])
    values.update(profiled["layer"])
    values["trace.overhead_frac"] = (
        traced["metrics"]["work_s"] / untraced["metrics"]["work_s"] - 1.0
    )
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values
