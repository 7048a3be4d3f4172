"""The benchmark's own tests: smoke sizes of every workload, the compare rule.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the repository's tier-1 suite (pytest collects ``tests/`` only).
Each smoke run takes a few seconds and runs the same code paths as the full
workload with small baths, short grids and small lattice sums.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "test"
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from workloads import SCENARIO_HEADER, WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_definition_matches_workloads():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--smoke", "--out-dir", str(OUT))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in DEFINITION[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for name in expected:
        assert f" {name} " in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        for name in ("rows_per_s", "job_s_tail", "max_abs_error", "error_ratio"):
            assert f" {name} " in proc.stdout


def test_scenario_header_is_the_programs():
    sys.path.insert(0, str(ROOT / "src"))
    from weakdecay import harness

    assert SCENARIO_HEADER == harness.CSV_HEADER


def test_fails_without_the_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "spin_grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_rule():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]
    assert verdict(parent, list(parent), 0.1, "lower") == "unchanged"
    assert verdict(parent, [v * 0.8 for v in parent], 0.1, "lower") == "improved"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, "lower") == "worse"
    assert verdict(parent, [v * 1.2 for v in parent], 0.1, "higher") == "improved"
    wide = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(wide, list(wide), 0.1, "lower") == "unresolved"
    assert verdict(parent, parent[:1], 0.1, "lower") == "unresolved"
