"""Committed benchmark numbers say what produced them.

Every ``benchmarks/results/BENCH_*.json`` opens with a ``provenance``
block (``benchmarks/conftest.py:provenance``): the commit, the Python
version, the CPU count and the UTC time of the run.  A number without
them cannot be compared with a later one.
"""

import json
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
BENCH_FILES = sorted(RESULTS.glob("BENCH_*.json"))
FIELDS = ("commit", "python", "cpu_count", "timestamp_utc")


def test_bench_files_found():
    assert BENCH_FILES, f"no BENCH_*.json under {RESULTS}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_opens_with_provenance(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert next(iter(report), None) == "provenance", (
        f"{path.name} does not open with a provenance block"
    )
    provenance = report["provenance"]
    missing = [field for field in FIELDS if provenance.get(field) is None]
    assert not missing, f"{path.name} provenance lacks {missing}"
