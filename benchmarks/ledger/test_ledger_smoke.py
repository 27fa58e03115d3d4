"""Smoke test of the perf ledger: ``--quick`` over every workload, both passes.

Checks the harness, not performance: every workload completes with its
answer checks passing, and the metric names it emits are exactly the ones
``BENCHMARK.json`` declares -- well-formed, with units, counts as integers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]

pytestmark = pytest.mark.benchmark


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(spec, tmp_path_factory) -> dict:
    """``--quick --trace both`` over all four workloads, two at a time."""
    names = [w["name"] for w in spec["workloads"]]
    directory = tmp_path_factory.mktemp("ledger")
    halves = []
    for position in (0, 1):
        out = directory / f"quick-{position}.json"
        command = [sys.executable, str(LEDGER_DIR / "run.py"), "--quick", "--trace", "both"]
        for name in names[position::2]:
            command += ["--workload", name]
        process = subprocess.Popen(
            command + ["--out", str(out)],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        halves.append((process, out))
    workloads = {}
    for process, out in halves:
        stdout, _ = process.communicate(timeout=300)
        assert process.returncode == 0, stdout[-3000:]
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["correct"] is True and summary["failed"] == 0
        workloads.update(json.loads(out.read_text())["sets"][0]["workloads"])
    return {"workloads": {name: workloads[name] for name in names}}


def test_every_workload_ran_both_passes(spec, quick_run):
    assert list(quick_run["workloads"]) == [w["name"] for w in spec["workloads"]]
    for entry in quick_run["workloads"].values():
        assert set(entry) == {"untraced", "traced"}
        for document in entry.values():
            assert document["failed"] == 0
            assert document["checks"] and all(document["checks"].values())
            assert document["untraced"] == []


def test_emitted_metrics_are_the_declared_ones(spec, quick_run):
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(declared) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name, metric in declared.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    for entry in quick_run["workloads"].values():
        for document in entry.values():
            assert set(document["metrics"]) == set(declared)


def test_values_are_measured_numbers(spec, quick_run):
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    for entry in quick_run["workloads"].values():
        for name in end_to_end:
            value = entry["untraced"]["metrics"][name]
            assert isinstance(value, (int, float)) and value > 0, name
        traced = entry["traced"]["metrics"]
        for name in counts:
            if traced[name] is not None:
                assert isinstance(traced[name], int), name
        assert traced["trace.coverage"] >= 0.9
        assert traced["trace.overhead_ratio"] > 0
