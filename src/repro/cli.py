"""Command-line interface: ``python -m repro`` / ``repro-ibft``.

Subcommands
-----------
``info M N``
    Print the structural summary of FT(M, N): counts, LMC, LID plan.
``table1``
    Regenerate the paper's Table 1 (network sizes).
``trace M N SRC DST [--scheme S]``
    Trace the route between two nodes (labels as digit strings).
``verify M N [--scheme S]``
    Exhaustively verify a scheme's forwarding tables on the vectorized
    route kernel, and time it.
``figure ID [--quick/--full] [--csv PATH] [--jobs N] [--mode M]``
    Regenerate one of the paper's figures (fig12 … fig19).  ``--mode``
    picks the point engine: packet simulation (default), the flow-level
    evaluator, or the hybrid that hands the points at and past the
    knee (75% peak utilization) to the packet engine.  ``--jobs`` fans
    the packet points out over worker processes; flow points (folded
    model, warm-started along the load grid) are solved in-process.
``sweep M N [--scheme S] [--pattern P] [--loads L,L,…] [--seeds K,K,…] [--jobs N] [--mode M]``
    Run one offered-load curve through the same pipeline as ``figure``
    and print/export the points; each seed is one replica, so a
    repeated seed is rejected.
``draw M N``
    ASCII diagram of the fat-tree.
``probe M N [--scheme S] [--pattern P] [--load L]``
    Run a short simulation and print the fabric heat report.
``faults M N COUNT [--scheme S] [--seed K]``
    Fail COUNT random links, repair the tables, verify every route.
``failover M N [--scheme S] [--level L] [--port K] [--load X] [--fail-at T1] [--recover-at T2]``
    Live failover simulation: a link dies mid-run, the dynamic SM
    detects it, repairs around it with the vectorized fault kernel, and
    restores the original tables on recovery; reports time-to-detect,
    time-to-repair and packets lost.  The victim is port ``K`` of the
    first switch at level ``L`` (``--switch D`` picks another; default:
    the first root's port 0); it must be a switch-to-switch link.
``serve M N [--scheme S] [--port P] [--storm/--no-storm]``
    Run the route-query service: a TCP server answering DLID/path/
    flow/load queries from atomic route snapshots, optionally while a
    link-flap storm repairs the tables underneath (see DESIGN.md §13).
``flow-cache ACTION [KEY] [--dir D]``
    Inspect the on-disk compiled-flow-model cache: ``list`` the cached
    models, ``info`` one key's metadata (loud on a code-version
    mismatch), or ``clear`` the store.
``list``
    List the available experiments, schemes and patterns.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional

from repro.core import available_schemes, get_scheme, trace_path, verify_scheme
from repro.core.addressing import MlidAddressing
from repro.experiments import (
    all_experiments,
    get_experiment,
    render_figure_result,
    render_table,
    run_figure,
    run_sweep,
    to_csv,
)
from repro.experiments.flowlevel import SUPPORTED_PATTERNS
from repro.experiments.parallel import normalize_jobs
from repro.ib.config import SimConfig
from repro.topology import FatTree
from repro.topology.labels import (
    check_arity,
    format_node,
    format_switch,
    validate_node_label,
)
from repro.traffic import available_patterns, make_pattern

__all__ = ["main", "build_parser"]


def _parse_label(text: str, n: int) -> tuple:
    digits = text.strip()
    if len(digits) != n or not all(ch.isdecimal() for ch in digits):
        raise SystemExit(f"label {text!r} must have exactly {n} digits")
    return tuple(int(ch) for ch in digits)


def _parse_node(text: str, m: int, n: int) -> tuple:
    label = _parse_label(text, n)
    try:
        validate_node_label(m, n, label)
    except ValueError as exc:
        raise SystemExit(f"node {text!r}: {exc}") from None
    return label


def _cmd_info(args: argparse.Namespace) -> int:
    ft = FatTree(args.m, args.n)
    try:
        addr = MlidAddressing(args.m, args.n)
        lmc, lids = addr.lmc, addr.num_lids
    except ValueError as exc:
        lmc, lids = None, str(exc)
    print(f"FT({args.m}, {args.n})")
    print(f"  processing nodes : {ft.num_nodes}")
    print(f"  switches         : {ft.num_switches}")
    print(f"  height           : {ft.height}")
    print(f"  switch levels    : {ft.n} (0 = root row)")
    print(f"  MLID LMC         : {lmc}")
    print(f"  MLID LIDs        : {lids}")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.experiments.configs import table1_rows

    print(render_table(table1_rows(), title="Table 1: simulated network sizes"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    ft = FatTree(args.m, args.n)
    scheme = get_scheme(args.scheme, ft)
    src = _parse_node(args.src, args.m, args.n)
    dst = _parse_node(args.dst, args.m, args.n)
    if src == dst:
        raise SystemExit(f"src and dst are both {format_node(src)}; a route needs two nodes")
    trace = trace_path(scheme, src, dst)
    print(
        f"{args.scheme.upper()} route {format_node(src)} -> {format_node(dst)} "
        f"(DLID {trace.dlid}):"
    )
    for sw, port in zip(trace.switches, trace.ports):
        print(f"  {format_switch(*sw)} out port {port} (physical {port + 1})")
    print(f"  hops: {trace.hops}, turns at {format_switch(*trace.turn)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import time

    ft = FatTree(args.m, args.n)
    scheme = get_scheme(args.scheme, ft)
    start = time.perf_counter()
    checked = verify_scheme(scheme)
    elapsed = time.perf_counter() - start
    print(
        f"{args.scheme.upper()} on FT({args.m}, {args.n}): "
        f"{checked} routes verified (delivery, minimality, up*/down*)"
    )
    rate = checked / elapsed if elapsed > 0 else float("inf")
    print(f"  route kernel: {elapsed:.3f} s ({rate:,.0f} paths/s)")
    return 0


def _parse_list(text: str, what: str, convert: Callable, example: str) -> list:
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"bad {what} list {text!r}; expected e.g. {example}")
    if not values:
        raise SystemExit(f"{what} list {text!r} is empty")
    return values


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _int_arg(check: Callable[[int], object]) -> Callable[[str], int]:
    """An argparse ``type=``: an integer that ``check`` accepts, where a
    ``ValueError`` from ``check`` becomes the usage error's message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _nonnegative(
    text: str, what: str = "offered load", positive: bool = False
) -> float:
    """A finite number >= 0 (> 0 if ``positive``): an offered load, or
    the quantity ``what`` names."""
    value = float(text)
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{what} must be a finite number {bound}, got {text!r}")
    return value


def _float_arg(what: str, positive: bool = False) -> Callable[[str], float]:
    """An argparse ``type=`` for one finite number >= 0 (> 0 if
    ``positive``)."""

    def parse(text: str) -> float:
        try:
            return _nonnegative(text, what, positive)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_load_arg = _float_arg("offered load")
_time_arg = _float_arg("time (ns)")


def _loads_arg(text: str) -> list:
    """An argparse ``type=`` for a comma-separated list of loads."""
    loads = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        try:
            loads.append(_nonnegative(tok))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad loads list {text!r}: {exc}"
            ) from None
    if not loads:
        raise argparse.ArgumentTypeError(f"loads list {text!r} is empty")
    return loads


def _check_vls(vls: int) -> None:
    SimConfig(num_vls=vls)  # its ValueError names the valid range


_vls_arg = _int_arg(_check_vls)


def _int_in(what: str, low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse ``type=``: an integer ``what`` in [low, high] (no
    upper bound if ``high`` is None)."""

    def check(value: int) -> None:
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{what} must be {bound}, got {value}")

    return _int_arg(check)


def _add_arity_args(parser: argparse.ArgumentParser) -> None:
    """The ``m n`` positionals: an invalid FT(m, n) is a usage error."""
    parser.add_argument(
        "m", type=_int_arg(lambda m: check_arity(m, 1)), help="switch port count"
    )
    parser.add_argument(
        "n", type=_int_arg(lambda n: check_arity(4, n)), help="tree dimension"
    )


_jobs_arg = _int_arg(normalize_jobs)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that runs its ``checks`` once every
    argument is parsed: the usage errors that need several arguments,
    whatever their order.  A check returns the error message, or
    None."""

    def __init__(self, *args, checks=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = checks

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for check in self.checks:
            problem = check(namespace)
            if problem is not None:
                self.error(problem)
        return namespace, extras


def _pattern_problem(args: argparse.Namespace) -> Optional[str]:
    """Why ``--pattern`` cannot drive this FT(m, n) run, or None: flow
    and hybrid points take only the flow model's patterns, and a
    pattern may need a node count of some shape (transpose: a
    square)."""
    mode = getattr(args, "mode", "packet")
    if mode != "packet" and args.pattern not in SUPPORTED_PATTERNS:
        return (
            f"argument --pattern: {mode} mode takes "
            f"{', '.join(SUPPORTED_PATTERNS)}, got {args.pattern!r}"
        )
    try:
        make_pattern(args.pattern, FatTree(args.m, args.n).num_nodes)
    except ValueError as exc:
        return f"argument --pattern: {args.pattern} on FT({args.m}, {args.n}): {exc}"
    return None


def _count_problem(args: argparse.Namespace) -> Optional[str]:
    """Why ``faults`` cannot fail COUNT links, or None: FT(m, n) has
    (n - 1) * 2 * (m/2)^n switch-to-switch links."""
    links = (args.n - 1) * 2 * (args.m // 2) ** args.n
    if args.count > links:
        return (
            f"argument count: FT({args.m}, {args.n}) has {links} switch "
            f"links, asked to fail {args.count}"
        )
    return None


def _flap_links_problem(args: argparse.Namespace) -> Optional[str]:
    """Why the storm cannot flap ``--flap-links`` links, or None: it
    flaps root switch-to-switch links, 2 (m/2)^n of them (none on a
    one-level tree)."""
    links = 2 * (args.m // 2) ** args.n if args.n > 1 else 0
    if args.storm and args.flap_links > links:
        return (
            f"argument --flap-links: FT({args.m}, {args.n}) has {links} root "
            f"switch links, asked to flap {args.flap_links}"
        )
    return None


def _cmd_figure(args: argparse.Namespace) -> int:
    config = get_experiment(args.id)
    if config.m == 0:
        raise SystemExit(f"{args.id} is not a simulated figure; see `repro-ibft list`")
    print(config.describe())
    result = run_figure(
        config,
        quick=not args.full,
        jobs=args.jobs,
        mode=args.mode,
    )
    print(render_figure_result(result))
    if args.csv:
        rows = [p.as_row() for pts in result.curves.values() for p in pts]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(to_csv(rows))
        print(f"wrote {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    loads = args.loads
    seeds = _parse_list(args.seeds, "seeds", _seed, "1,2,3")
    if len(set(seeds)) < len(seeds):
        raise SystemExit(f"bad seeds list {args.seeds!r}; each seed may appear once")
    points = run_sweep(
        args.m,
        args.n,
        args.scheme,
        args.pattern,
        loads,
        cfg=SimConfig(num_vls=args.vls),
        warmup_ns=args.warmup,
        measure_ns=args.measure,
        seeds=seeds,
        jobs=args.jobs,
        mode=args.mode,
    )
    rows = [p.as_row() for p in points]
    print(
        render_table(
            rows,
            title=(
                f"{args.scheme.upper()} on FT({args.m},{args.n}), "
                f"{args.pattern} traffic, {args.vls} VL(s), "
                f"{len(seeds)} seed(s), jobs={args.jobs}"
            ),
        )
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(to_csv(rows))
        print(f"wrote {args.csv}")
    return 0


def _cmd_flow_cache(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import modelstore

    store = args.dir if args.dir else None
    root = args.dir or modelstore.default_cache_dir()
    if args.action == "clear":
        removed = modelstore.clear_models(store)
        print(f"removed {removed} cached flow model(s) from {root}")
        return 0
    if args.action == "info":
        if not args.key:
            raise SystemExit(
                "flow-cache info needs a model key; "
                "see `repro-ibft flow-cache list`"
            )
        try:
            meta = modelstore.model_info(args.key, store)
        except (KeyError, modelstore.FlowCacheVersionError) as exc:
            raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
        print(json.dumps(meta, indent=2, sort_keys=True))
        return 0
    models = modelstore.list_models(store)
    if not models:
        print(f"no cached flow models under {root}")
        return 0
    rows = [
        {
            "key": entry["key"],
            "size_mb": round(entry["size_bytes"] / 1e6, 2),
            "nodes": entry["scalars"].get("num_nodes", "?"),
            "version": entry["version"],
            "status": "STALE" if entry["stale"] else "ok",
        }
        for entry in models
    ]
    print(render_table(rows, title=f"flow-model cache: {root}"))
    if any(entry["stale"] for entry in models):
        print(
            "stale entries were compiled by a different code version; "
            "they will be rebuilt on next use "
            "(`repro-ibft flow-cache clear` drops them now)"
        )
    return 0


def _cmd_draw(args: argparse.Namespace) -> int:
    from repro.topology.render import render_fattree

    print(render_fattree(FatTree(args.m, args.n), max_cells=args.max_cells))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.ib.instrumentation import probe_fabric, routing_pressure
    from repro.ib.subnet import build_subnet
    from repro.traffic import make_pattern

    cfg = SimConfig(num_vls=args.vls)
    net = build_subnet(args.m, args.n, args.scheme, cfg)
    kwargs = {"hot_pid": 0, "fraction": 0.5} if args.pattern == "centric" else {}
    net.attach_pattern(make_pattern(args.pattern, net.num_nodes, **kwargs))
    res = net.run_measurement(args.load, warmup_ns=15_000, measure_ns=60_000)
    report = probe_fabric(net)
    pressure_rows = routing_pressure(net)
    print(
        f"{args.scheme.upper()} on FT({args.m},{args.n}), {args.pattern} @ "
        f"{args.load}: accepted {res['accepted']:.4f} bytes/ns/node, "
        f"latency {res['latency_mean']:.0f} ns"
    )
    print(render_table(report.layer_stats(), title="\nutilization by layer"))
    print("hottest channels:")
    for link in report.hottest(5):
        print(f"  {link.name:34s} {link.utilization:6.1%}  {link.packets} pkts")
    hot_switch, pressure = pressure_rows[0]
    print(
        f"busiest routing engine: {format_switch(*hot_switch)} at "
        f"{pressure:.1%} occupancy"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.fault import DisconnectedError, FaultSet, FaultTolerantTables

    ft = FatTree(args.m, args.n)
    scheme = get_scheme(args.scheme, ft)
    faults = FaultSet.random(ft, args.count, seed=args.seed)
    print(f"failing {len(faults)} random links (seed {args.seed}):")
    for link in sorted(faults.links, key=str):
        (a, ap), (b, bp) = sorted(link, key=str)
        print(f"  {format_switch(*a)}[{ap}] <-> {format_switch(*b)}[{bp}]")
    try:
        ftt = FaultTolerantTables(scheme, faults)
    except DisconnectedError as exc:
        print(f"FABRIC DISCONNECTED: {exc}")
        return 1
    routes = 0
    for src in ft.nodes:
        for dst in ft.nodes:
            if src == dst:
                continue
            for lid in scheme.lid_set(dst):
                ftt.trace(src, dst, dlid=lid)
                routes += 1
    print(
        f"repaired {ftt.repaired_entries} LFT entries; verified "
        f"{routes} routes deliver on the degraded fabric"
    )
    return 0


def _failover_link(args: argparse.Namespace, ft: FatTree) -> tuple:
    """The victim ``(switch, port)``: ``--switch`` at ``--level``, or the
    level's first switch.  Anything but a switch-to-switch link exits
    with a one-line message."""
    if not 0 <= args.level < ft.n:
        raise SystemExit(
            f"--level {args.level} is outside [0, {ft.n}) on FT({ft.m}, {ft.n})"
        )
    if args.switch is None:
        sw = ft.switches_at_level(args.level)[0]
    else:
        sw = (_parse_label(args.switch, ft.n - 1), args.level)
        if sw not in ft.switches:
            raise SystemExit(f"FT({ft.m}, {ft.n}) has no switch {format_switch(*sw)}")
    if not 0 <= args.port < ft.m:
        raise SystemExit(f"--port {args.port} is outside [0, {ft.m})")
    if ft.peer(sw, args.port).is_node:
        raise SystemExit(
            f"{format_switch(*sw)} port {args.port} attaches a node; "
            "only switch-to-switch links can fail"
        )
    return sw, args.port


def _cmd_failover(args: argparse.Namespace) -> int:
    from repro.experiments.failover import run_failover

    if args.recover_at <= args.fail_at:
        raise SystemExit(
            f"--recover-at {args.recover_at} must follow --fail-at {args.fail_at}"
        )
    cfg = SimConfig(
        detection_latency_ns=args.detect_latency,
        sm_program_time_ns=args.program_time,
    )
    link = _failover_link(args, FatTree(args.m, args.n))
    (w, lvl), port = link
    if not args.json:
        print(
            f"failover on FT({args.m},{args.n}) [{args.scheme}]: "
            f"{format_switch(w, lvl)} port {port} down at t={args.fail_at:.0f}ns, "
            f"up at t={args.recover_at:.0f}ns "
            f"(detect latency {args.detect_latency:.0f}ns, "
            f"program {args.program_time:.0f}ns/switch, load {args.load})"
        )
    row = run_failover(
        args.m,
        args.n,
        args.scheme,
        link=link,
        t_fail=args.fail_at,
        t_recover=args.recover_at,
        load=args.load,
        pattern=args.pattern,
        cfg=cfg,
        seed=args.seed,
    )
    checks_ok = (
        row["repair_matches_offline"] is not False
        and row["recovery_matches_initial"] is not False
    )
    if args.json:
        import json
        import math

        payload = {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in row.items()
            if k != "records"
        }
        payload["records"] = [r.to_dict() for r in row["records"]]
        print(json.dumps(payload, sort_keys=True))
        return 0 if checks_ok else 1
    for record in row["records"]:
        print(
            f"  [{record.kind:4s}] detected +{record.time_to_detect:.0f}ns, "
            f"repaired +{record.time_to_repair:.0f}ns "
            f"({record.switches_programmed} switches, "
            f"{record.entries_changed} entries, "
            f"{record.flows_rerouted} flows rerouted, "
            f"inflation {record.path_inflation:.3f})"
        )
    print(f"  time-to-detect : {row['time_to_detect']:.0f} ns")
    print(f"  time-to-repair : {row['time_to_repair']:.0f} ns")
    print(f"  packets lost   : {row['packets_lost']}")
    if args.load > 0:
        print(
            f"  delivery       : {row['delivered']}/{row['generated']} "
            f"packets ({row['backlog']} backlog)"
        )
    for key, label in [
        ("repair_matches_offline", "repaired LFTs == offline core.fault repair"),
        ("recovery_matches_initial", "post-recovery LFTs == initial SM sweep"),
    ]:
        verdict = row[key]
        state = "OK" if verdict else ("SKIPPED" if verdict is None else "MISMATCH")
        print(f"  {label} : {state}")
    return 0 if checks_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import (
        LinkFlapStorm,
        RouteQueryServer,
        RouteQueryService,
    )
    from repro.service.snapshot import SnapshotStore

    storm = None
    if args.storm:
        storm = LinkFlapStorm(
            args.m,
            args.n,
            args.scheme,
            flap_links=args.flap_links,
            horizon_ns=args.horizon,
            pace_s=args.pace,
        )
        store = storm.store
    else:
        from repro.ib.artifacts import get_artifacts

        store = SnapshotStore()
        store.publish(get_artifacts(args.m, args.n, args.scheme).snapshot())
    service = RouteQueryService(store, storm=storm)

    async def amain() -> None:
        server = RouteQueryServer(
            service,
            args.host,
            args.port,
            telemetry_interval_s=args.telemetry_interval,
        )
        host, port = await server.start()
        print(f"listening on {host}:{port}", flush=True)
        if storm is not None:
            storm.start()
        await server.serve_until_shutdown()

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        pass
    finally:
        if storm is not None and storm.running():
            storm.stop()
    print("server stopped")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for exp_id, cfg in sorted(all_experiments().items()):
        print(f"  {exp_id:22s} {cfg.title}")
    print(f"schemes : {', '.join(available_schemes())}")
    print(f"patterns: {', '.join(available_patterns())}")
    return 0


def _add_mode_args(p: argparse.ArgumentParser) -> None:
    from repro.experiments import SWEEP_MODES

    p.add_argument(
        "--mode",
        default="packet",
        choices=list(SWEEP_MODES),
        help=(
            "point engine: packet simulation, flow-level evaluation, or "
            "hybrid (flow below the knee, packet at and past it)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-ibft",
        description="Multiple LID routing for fat-tree InfiniBand (IPDPS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural summary of FT(m, n)")
    _add_arity_args(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("trace", help="trace a route between two nodes")
    _add_arity_args(p)
    p.add_argument("src", help="source label, e.g. 000")
    p.add_argument("dst", help="destination label, e.g. 300")
    p.add_argument("--scheme", default="mlid", choices=["mlid", "slid"])
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="verify a scheme's forwarding tables")
    _add_arity_args(p)
    p.add_argument(
        "--scheme",
        default="mlid",
        choices=["mlid", "slid", "mlid-hash", "mlid-stagger"],
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("id", help="figure id, e.g. fig13")
    p.add_argument(
        "--full",
        action="store_true",
        help="full load grid and windows (slow; default is the quick grid)",
    )
    p.add_argument("--csv", help="also write the points to a CSV file")
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for the sweep points (default: 1, serial)",
    )
    _add_mode_args(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser(
        "sweep", help="run one offered-load sweep", checks=[_pattern_problem]
    )
    _add_arity_args(p)
    p.add_argument("--scheme", default="mlid", choices=available_schemes())
    p.add_argument("--pattern", default="uniform", choices=available_patterns())
    p.add_argument(
        "--loads", type=_loads_arg, default="0.1,0.3,0.7",
        help="comma-separated offered loads",
    )
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--vls", type=_vls_arg, default=1)
    p.add_argument(
        "--warmup", type=_float_arg("warmup window (ns)"), default=15_000.0,
        help="warmup window (ns)",
    )
    p.add_argument(
        "--measure", type=_float_arg("measure window (ns)", positive=True),
        default=45_000.0, help="measure window (ns)",
    )
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for the sweep points (default: 1, serial)",
    )
    p.add_argument("--csv", help="also write the points to a CSV file")
    _add_mode_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("draw", help="ASCII diagram of FT(m, n)")
    _add_arity_args(p)
    p.add_argument("--max-cells", type=int, default=16)
    p.set_defaults(func=_cmd_draw)

    p = sub.add_parser(
        "probe", help="simulate briefly and print a heat report",
        checks=[_pattern_problem],
    )
    _add_arity_args(p)
    p.add_argument("--scheme", default="mlid", choices=available_schemes())
    p.add_argument("--pattern", default="uniform", choices=available_patterns())
    p.add_argument("--load", type=_load_arg, default=0.3)
    p.add_argument("--vls", type=_vls_arg, default=1)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser(
        "faults", help="repair tables around random link failures",
        checks=[_count_problem],
    )
    _add_arity_args(p)
    p.add_argument(
        "count", type=_int_in("count", 0), help="number of random failed links",
    )
    p.add_argument("--scheme", default="mlid", choices=["mlid", "slid"])
    p.add_argument("--seed", type=_int_arg(_seed), default=0)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "failover", help="live link failure + recovery with the dynamic SM",
        checks=[_pattern_problem],
    )
    _add_arity_args(p)
    p.add_argument("--scheme", default="mlid", choices=["mlid", "slid"])
    p.add_argument(
        "--switch",
        help=(
            "victim switch digits, e.g. 0 for SW<0, 0> "
            "(default: the first switch at --level)"
        ),
    )
    p.add_argument(
        "--level", type=int, default=0, help="victim switch level (default: 0, roots)"
    )
    p.add_argument(
        "--port", type=int, default=0, help="victim 0-based port (default: 0)"
    )
    p.add_argument(
        "--fail-at", type=_time_arg, default=20_000.0, help="link-down time (ns)"
    )
    p.add_argument(
        "--recover-at", type=_time_arg, default=60_000.0, help="link-up time (ns)"
    )
    p.add_argument(
        "--detect-latency",
        type=_time_arg,
        default=500.0,
        help="SM detection latency (ns; 0 = oracle SM)",
    )
    p.add_argument(
        "--program-time",
        type=_time_arg,
        default=200.0,
        help="LFT programming time per modified switch (ns)",
    )
    p.add_argument(
        "--load",
        type=_load_arg,
        default=0.0,
        help="offered load in bytes/ns/node (0 = control plane only)",
    )
    p.add_argument("--pattern", default="uniform", choices=available_patterns())
    p.add_argument("--seed", type=_int_arg(_seed), default=1)
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full failover report as one JSON object",
    )
    p.set_defaults(func=_cmd_failover)

    p = sub.add_parser(
        "serve", help="run the route-query service (TCP, line-delimited JSON)",
        checks=[_flap_links_problem],
    )
    _add_arity_args(p)
    p.add_argument("--scheme", default="mlid", choices=["mlid", "slid"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=_int_in("port", 0, 65535), default=0,
        help="TCP port (0 = ephemeral, printed)",
    )
    p.add_argument(
        "--telemetry-interval",
        type=_float_arg("telemetry interval (s)", positive=True),
        default=1.0,
        help="seconds between telemetry pushes to subscribers",
    )
    storm_group = p.add_mutually_exclusive_group()
    storm_group.add_argument(
        "--storm",
        dest="storm",
        action="store_true",
        default=True,
        help="run a link-flap storm behind the service (default)",
    )
    storm_group.add_argument(
        "--no-storm",
        dest="storm",
        action="store_false",
        help="serve the static baseline tables only",
    )
    p.add_argument(
        "--flap-links", type=_int_in("flap links", 1), default=2,
        help="root links flapping in the storm",
    )
    p.add_argument(
        "--horizon",
        type=_float_arg("storm horizon (ns)", positive=True),
        default=100_000.0,
        help="storm duration in simulated ns",
    )
    p.add_argument(
        "--pace",
        type=_float_arg("pace (s)"),
        default=0.01,
        help="wall seconds between storm chunks (0 = run flat out)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "flow-cache",
        help="inspect the on-disk compiled-flow-model cache",
    )
    p.add_argument(
        "action",
        choices=["list", "info", "clear"],
        help="list cached models, show one model's metadata, or clear",
    )
    p.add_argument(
        "key",
        nargs="?",
        help="model key for `info` (as printed by `list`)",
    )
    p.add_argument(
        "--dir",
        default=None,
        help=(
            "cache directory (default: $REPRO_FLOW_CACHE_DIR or "
            "~/.cache/repro-ibft/flow-models)"
        ),
    )
    p.set_defaults(func=_cmd_flow_cache)

    p = sub.add_parser("list", help="list experiments, schemes, patterns")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
