"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info", "8", "2"]) == 0
    out = capsys.readouterr().out
    assert "processing nodes : 32" in out
    assert "MLID LMC         : 2" in out


def test_info_oversized_lmc_reported_not_crashed(capsys):
    assert main(["info", "16", "4"]) == 0
    out = capsys.readouterr().out
    assert "LMC" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "512" in out  # the 32-port 2-tree row
    assert "LMC" in out


def test_trace_paper_path(capsys):
    assert main(["trace", "4", "3", "000", "300"]) == 0
    out = capsys.readouterr().out
    assert "DLID 49" in out
    assert "SW<00, 0>" in out
    assert "turns at SW<00, 0>" in out


def test_trace_slid(capsys):
    assert main(["trace", "4", "3", "000", "300", "--scheme", "slid"]) == 0
    out = capsys.readouterr().out
    assert "SLID route" in out


def test_trace_bad_label():
    with pytest.raises(SystemExit):
        main(["trace", "4", "3", "00", "300"])


#: Every subcommand that takes ``m n``, with the rest of its positionals.
FABRIC_COMMANDS = {
    "info": [],
    "trace": ["00", "10"],
    "verify": [],
    "sweep": [],
    "draw": [],
    "probe": [],
    "faults": ["1"],
    "failover": [],
    "serve": [],
}
BAD_INPUT = [
    *(
        ([command, m, n, *rest], f"argument {arg}: {problem}")
        for command, rest in FABRIC_COMMANDS.items()
        for m, n, arg, problem in [
            ("6", "2", "m", "m must be a power of two >= 4, got 6"),
            ("4", "0", "n", "n must be >= 1, got 0"),
        ]
    ),
    (["trace", "4", "2", "95", "00"], "node '95': p0 must be in [0, 4), got (9, 5)"),
    (["trace", "4", "2", "00", "00"], "src and dst are both P(00)"),
    (["sweep", "4", "2", "--vls", "0"], "argument --vls: num_vls must be in [1, 15], got 0"),
    (
        ["sweep", "4", "2", "--loads", "-0.1"],
        "argument --loads: bad loads list '-0.1': offered load must be a finite number >= 0",
    ),
    (
        ["probe", "4", "2", "--load", "-1"],
        "argument --load: offered load must be a finite number >= 0, got '-1'",
    ),
    (["probe", "4", "2", "--pattern", "bogus"], "argument --pattern: invalid choice: 'bogus'"),
    (["faults", "4", "2", "-1"], "argument count: count must be >= 0, got -1"),
    (["faults", "4", "2", "100"], "argument count: FT(4, 2) has 8 switch links, asked to fail 100"),
    (["faults", "4", "2", "1", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
    *(
        (
            [command, "4", "2", "--pattern", "transpose"],
            "argument --pattern: transpose on FT(4, 2): num_nodes must be a perfect square, got 8",
        )
        for command in ("probe", "sweep", "failover")
    ),
    (
        ["sweep", "4", "2", "--pattern", "ring", "--mode", "flow"],
        "argument --pattern: flow mode takes uniform, centric, got 'ring'",
    ),
    (
        ["failover", "4", "2", "--load", "0.3", "--pattern", "bogus"],
        "argument --pattern: invalid choice: 'bogus'",
    ),
    (
        ["failover", "4", "2", "--load", "nan"],
        "argument --load: offered load must be a finite number >= 0, got 'nan'",
    ),
    *(
        (
            ["failover", "4", "2", flag, value],
            f"argument {flag}: time (ns) must be a finite number >= 0, got {value!r}",
        )
        for flag, value in [
            ("--fail-at", "nan"),
            ("--fail-at", "-5"),
            ("--recover-at", "inf"),
            ("--detect-latency", "-1"),
            ("--program-time", "-5"),
        ]
    ),
    (["failover", "4", "2", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv,problem", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT]
)
def test_bad_fabric_or_node_exits_with_one_line(argv, problem, capsys):
    # An invalid FT(m, n), VL count, load, pattern or link count is a
    # usage error (exit 2) before any work starts; a bad trace endpoint
    # exits 1.  Neither is a traceback.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    if exc.value.code == 2:
        message = capsys.readouterr().err.splitlines()[-1]
    else:
        message = exc.value.code
    assert problem in message
    assert "\n" not in message


def test_verify(capsys):
    assert main(["verify", "4", "2"]) == 0
    out = capsys.readouterr().out
    assert "112 routes verified" in out


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out and "mlid" in out and "uniform" in out


def test_figure_rejects_non_simulated():
    with pytest.raises(SystemExit):
        main(["figure", "table1"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_probe(capsys):
    assert main(["probe", "4", "2", "--load", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "utilization by layer" in out
    assert "hottest channels" in out
    assert "busiest routing engine" in out


def test_probe_centric(capsys):
    assert main(["probe", "4", "2", "--pattern", "centric", "--load", "0.2"]) == 0
    assert "accepted" in capsys.readouterr().out


def test_faults(capsys):
    assert main(["faults", "4", "2", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "repaired" in out and "verified" in out


def test_faults_disconnection_reported(capsys):
    # Enough failures on the tiny tree eventually disconnect; find a
    # seed/count that does and assert the graceful exit path.
    for seed in range(40):
        code = main(["faults", "4", "2", "7", "--seed", str(seed)])
        out = capsys.readouterr().out
        if code == 1:
            assert "DISCONNECTED" in out
            return
    raise AssertionError("no disconnecting fault set found in 40 seeds")


def test_figure_quick_runs_tiny(monkeypatch, capsys, tmp_path):
    """Run the figure command against an injected tiny experiment."""
    from repro.experiments import configs

    tiny = configs.ExperimentConfig(
        id="figtest",
        title="tiny injected figure",
        m=4,
        n=2,
        pattern="uniform",
        vl_counts=(1,),
        quick_loads=(0.1,),
        quick_warmup_ns=1_000.0,
        quick_measure_ns=6_000.0,
        quick_seeds=(1,),
    )
    monkeypatch.setitem(configs.FIGURES, "figtest", tiny)
    csv_path = tmp_path / "out.csv"
    assert main(["figure", "figtest", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "figtest" in out
    assert "saturation throughput" in out
    assert "avg latency" in out  # the ASCII plot rendered
    text = csv_path.read_text()
    assert text.startswith("scheme,")
    assert "mlid" in text and "slid" in text


def test_figure_unknown_id():
    with pytest.raises(KeyError):
        main(["figure", "fig99"])


def test_figure_jobs_flag(monkeypatch, capsys):
    """--jobs plumbs through to the parallel executor unchanged."""
    from repro.experiments import configs

    tiny = configs.ExperimentConfig(
        id="figjobs",
        title="tiny parallel figure",
        m=4,
        n=2,
        pattern="uniform",
        vl_counts=(1,),
        quick_loads=(0.1, 0.3),
        quick_warmup_ns=1_000.0,
        quick_measure_ns=6_000.0,
        quick_seeds=(1,),
    )
    monkeypatch.setitem(configs.FIGURES, "figjobs", tiny)
    assert main(["figure", "figjobs", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "saturation throughput" in out


def test_sweep_command(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "sweep", "4", "2",
                "--scheme", "mlid",
                "--loads", "0.1,0.3",
                "--seeds", "1,2",
                "--warmup", "1000",
                "--measure", "6000",
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "MLID on FT(4,2)" in out
    assert "offered" in out and "accepted" in out
    text = csv_path.read_text()
    assert text.startswith("scheme,")
    assert text.count("\n") >= 2  # header + one row per load


def test_sweep_command_parallel_matches_serial(capsys):
    args = [
        "sweep", "4", "2",
        "--loads", "0.1",
        "--warmup", "1000",
        "--measure", "6000",
    ]
    assert main(args) == 0
    serial_out = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    # Identical measurement rows (title differs only in jobs=N).
    assert serial_out.splitlines()[1:] == parallel_out.splitlines()[1:]


def test_sweep_flow_mode(capsys, tmp_path):
    csv_path = tmp_path / "flow.csv"
    assert (
        main(
            [
                "sweep", "4", "2",
                "--scheme", "mlid",
                "--loads", "0.05,0.1",
                "--mode", "flow",
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "MLID on FT(4,2)" in out
    text = csv_path.read_text()
    assert "flow" in text  # backend column tags the evaluator


def test_sweep_hybrid_mode_with_threshold(capsys):
    # The knee is fixed (flowlevel.KNEE_THRESHOLD); hybrid needs no flag.
    assert (
        main(
            [
                "sweep", "4", "2",
                "--loads", "0.05",
                "--mode", "hybrid",
                "--warmup", "1000",
                "--measure", "6000",
            ]
        )
        == 0
    )
    assert "offered" in capsys.readouterr().out


def test_sweep_unknown_mode_rejected():
    with pytest.raises(SystemExit):
        main(["sweep", "4", "2", "--loads", "0.1", "--mode", "warp"])


@pytest.mark.parametrize("flag", ["--cold-start", "--no-fold", "--knee-threshold"])
@pytest.mark.parametrize("command", [["figure", "fig12"], ["sweep", "4", "2"]])
def test_retired_flow_flags_are_usage_errors(command, flag, capsys):
    # The warm-started folded solve is the only flow path; its oracles
    # live in the tests, not behind CLI flags.  Hybrid's knee is a
    # constant, not a knob.
    with pytest.raises(SystemExit) as exc:
        main([*command, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_sweep_bad_loads_rejected():
    with pytest.raises(SystemExit):
        main(["sweep", "4", "2", "--loads", "abc"])
    with pytest.raises(SystemExit):
        main(["sweep", "4", "2", "--loads", ","])


@pytest.mark.parametrize("seeds", ["1.5", "1,2.0", "-1", "1,1"])
def test_sweep_bad_seeds_rejected(seeds):
    # Seeds are distinct non-negative integers: a float is rejected, not
    # truncated, and a repeat is not a second replica.
    with pytest.raises(SystemExit, match="bad seeds list"):
        main(["sweep", "4", "2", "--seeds", seeds])


@pytest.mark.parametrize(
    "flag,value,problem",
    [
        ("--measure", "nan", "measure window (ns) must be a finite number > 0, got 'nan'"),
        ("--measure", "inf", "measure window (ns) must be a finite number > 0, got 'inf'"),
        ("--measure", "-5", "measure window (ns) must be a finite number > 0, got '-5'"),
        ("--measure", "0", "measure window (ns) must be a finite number > 0, got '0'"),
        ("--warmup", "nan", "warmup window (ns) must be a finite number >= 0, got 'nan'"),
        ("--warmup", "-1", "warmup window (ns) must be a finite number >= 0, got '-1'"),
    ],
)
def test_sweep_bad_windows_are_usage_errors(flag, value, problem, capsys):
    # Parsed only, never run: a sweep at a NaN or infinite window would
    # never reach the window's end.
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "4", "2", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {problem}" in capsys.readouterr().err.splitlines()[-1]


def test_draw(capsys):
    assert main(["draw", "4", "2"]) == 0
    out = capsys.readouterr().out
    assert "SW<0, 0>" in out and "P(31)" in out


def test_failover(capsys):
    args = [
        "failover", "8", "2",
        "--detect-latency", "0", "--program-time", "0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "time-to-detect" in out
    assert "time-to-repair" in out
    assert "packets lost" in out
    assert "offline core.fault repair : OK" in out
    assert "initial SM sweep : OK" in out


def test_failover_under_load(capsys):
    assert main(["failover", "4", "2", "--load", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "delivery" in out
    assert "OK" in out


@pytest.mark.parametrize(
    "extra",
    [
        ["--load", "0.6", "--seed", "1"],
        ["--load", "0.3", "--pattern", "permutation", "--seed", "1"],
    ],
    ids=["uniform-0.6", "permutation-0.3"],
)
def test_failover_under_load_survives_mid_repair_reflection(capsys, extra):
    """Both runs reflect packets back out of their input port mid-repair;
    those count as lost, and the command succeeds."""
    assert main(["failover", "4", "2", *extra]) == 0
    assert "delivery" in capsys.readouterr().out


def test_failover_explicit_link(capsys):
    args = [
        "failover", "4", "2",
        "--switch", "1", "--level", "0", "--port", "1",
        "--scheme", "slid",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "slid" in out


@pytest.mark.parametrize(
    "victim,shown",
    [
        ([], "SW<0, 0> port 0 down"),  # the defaults keep default_link
        (["--port", "3"], "SW<0, 0> port 3 down"),
        (["--level", "1", "--port", "2"], "SW<0, 1> port 2 down"),
        (["--switch", "3", "--level", "1", "--port", "3"], "SW<3, 1> port 3 down"),
    ],
    ids=["defaults", "port", "level-and-port", "switch-level-and-port"],
)
def test_failover_victim_from_level_and_port(victim, shown, capsys):
    args = ["failover", "4", "2", "--detect-latency", "0", "--program-time", "0"]
    assert main(args + victim) == 0
    assert shown in capsys.readouterr().out


@pytest.mark.parametrize(
    "victim,problem",
    [
        (["--port", "99"], "--port 99 is outside [0, 4)"),
        (["--port", "-1"], "--port -1 is outside [0, 4)"),
        (["--level", "1", "--port", "0"], "SW<0, 1> port 0 attaches a node"),
        (["--level", "2"], "--level 2 is outside [0, 2)"),
        (["--switch", "7"], "has no switch SW<7, 0>"),
        (["--switch", "x"], "label 'x' must have exactly 1 digits"),
        # A negative load is not read as "no traffic".
        (
            ["--load", "-0.5"],
            "argument --load: offered load must be a finite number >= 0, got '-0.5'",
        ),
    ],
    ids=[
        "port-too-high", "port-negative", "node-port", "unknown-level",
        "unknown-switch", "non-digit-switch", "negative-load",
    ],
)
def test_failover_bad_victim_rejected(victim, problem, capsys):
    # A one-line exit naming the problem, before any simulation runs: a
    # usage error (exit 2) for a bad option value, a message otherwise.
    with pytest.raises(SystemExit) as exc:
        main(["failover", "4", "2", *victim])
    if exc.value.code == 2:
        message = capsys.readouterr().err.splitlines()[-1]
    else:
        message = str(exc.value.code)
    assert problem in message
    assert "\n" not in message


def test_failover_bad_times_rejected():
    with pytest.raises(SystemExit):
        main(["failover", "4", "2", "--fail-at", "500", "--recover-at", "400"])


def test_failover_json(capsys):
    import json

    args = [
        "failover", "4", "2",
        "--fail-at", "5000", "--recover-at", "20000", "--json",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)  # exactly one JSON object, nothing else
    assert payload["repair_matches_offline"] is True
    assert payload["recovery_matches_initial"] is True
    assert payload["records"], "no rerouting records in the JSON report"
    record = payload["records"][0]
    assert {"kind", "time_to_detect_ns", "time_to_repair_ns"} <= set(record)


def test_serve_in_parser():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "4", "2", "--no-storm"])
    assert args.func.__name__ == "_cmd_serve"
    assert args.storm is False
    assert args.port == 0

    args = build_parser().parse_args(
        ["serve", "8", "2", "--port", "7777", "--flap-links", "3"]
    )
    assert args.storm is True
    assert args.port == 7777
    assert args.flap_links == 3


# ----------------------------------------------------------------------
# Retired oracle selectors: the references live in the tests
# ----------------------------------------------------------------------
RETIRED_ORACLE_FLAGS = [
    (["figure", "fig12"], ["--engine", "heap"]),
    (["sweep", "4", "2"], ["--engine", "heap"]),
    (["probe", "4", "2"], ["--engine", "heap"]),
    (["failover", "4", "2"], ["--engine", "heap"]),
    (["verify", "4", "2"], ["--scalar"]),
    (["failover", "4", "2"], ["--scalar-repair"]),
]


@pytest.mark.parametrize(
    "command,flag",
    RETIRED_ORACLE_FLAGS,
    ids=[f"{command[0]}{flag[0]}" for command, flag in RETIRED_ORACLE_FLAGS],
)
def test_retired_oracle_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_no_subcommand_help_shows_oracle_flags():
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert {"figure", "sweep", "probe", "failover", "verify"} <= set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        for flag in ("--engine", "--scalar"):
            assert flag not in text, (name, flag)
