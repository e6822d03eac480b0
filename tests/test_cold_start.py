"""A fresh process imports only what its command reads.

networkx backs graph export, ``diameter_hops`` and the channel-dependency
graph; the dynamic SM runtime, the route-query service and the process
pool back failover, serving and ``jobs > 1``.  None of them may load
when a fresh interpreter imports the package's front doors and measures
one packet point.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: The directory that holds the ``repro`` package this suite imports.
SRC = str(Path(repro.__file__).resolve().parents[1])

UNREAD = ("networkx", "repro.runtime", "repro.service", "concurrent.futures.process")

PROBE = f"""
import sys

import repro
import repro.cli
import repro.experiments
from repro.experiments.runner import run_point

result = run_point(4, 2, "mlid", "uniform", 0.2, warmup_ns=1_000.0, measure_ns=5_000.0)
assert result["packets"] > 0, result
print(",".join(name for name in {UNREAD!r} if name in sys.modules))
"""


def test_point_run_loads_no_unread_subsystem():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, path])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"
