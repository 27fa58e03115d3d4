#!/usr/bin/env python
"""Alternating parent/change pairs of the perf ledger, and the acceptance table.

The protocol every perf PR is judged by: run ``benchmarks/ledger/run.py
--trace 0`` on a parent revision and on the working tree, N times each,
alternating which side goes first, one seed per pair; then, per (workload,
end-to-end metric), report the parent's median and quartiles, the change's
median, how many pairs the change won and lost (ties count for neither side) and
whether the change's median stays within the regression bound
``BENCHMARK.json`` fixes for the metric::

    python scripts/ledger_pairs.py --parent HEAD --pairs 10
    python scripts/ledger_pairs.py --parent HEAD~1 --pairs 4 --workload warm-topk --seeds 0 7

The parent revision is unpacked with ``git archive`` into a temporary
directory that is removed afterwards; both sides run *their own* copy of the
ledger.  This script reads ``BENCHMARK.json`` and ``run.py --out`` documents
and edits neither.  The table-building half, :func:`pair_rows`, is a pure
function of those documents.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parents[1]


class PairRow(NamedTuple):
    """One (workload, end-to-end metric) line of the acceptance table."""

    workload: str
    metric: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    #: Pairs in which the change read strictly better / strictly worse than
    #: the parent; a tie counts for neither (0 and 0: identical on every pair).
    won: int
    lost: int
    pairs: int
    #: The change's median is no worse than the parent's by more than the bound.
    within_bound: bool


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` of ``values``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pair_rows(spec: dict, parent_runs: List[dict], change_runs: List[dict]) -> List[PairRow]:
    """The acceptance table of N pairs of ``run.py --out`` documents.

    ``parent_runs[i]`` and ``change_runs[i]`` are the two sides of pair ``i``
    (same seed, same workloads).  ``spec`` is ``BENCHMARK.json``: it names the
    workloads, the end-to-end metrics, which direction is better and the bound
    by which a metric may worsen before it counts as a regression.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of parent and change runs")

    def values(runs: List[dict], workload: str, metric: str) -> List[float]:
        return [
            run["sets"][0]["workloads"][workload]["untraced"]["metrics"][metric] for run in runs
        ]

    measured = parent_runs[0]["sets"][0]["workloads"]
    rows = []
    for workload in (w["name"] for w in spec["workloads"] if w["name"] in measured):
        for entry in spec["end_to_end"]:
            parent = values(parent_runs, workload, entry["name"])
            change = values(change_runs, workload, entry["name"])
            sign = 1.0 if entry["better"] == "lower" else -1.0
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            worsening = sign * (change_median - parent_median) / abs(parent_median)
            q1, q3 = quartiles(parent)
            rows.append(
                PairRow(
                    workload=workload,
                    metric=entry["name"],
                    parent_median=parent_median,
                    parent_q1=q1,
                    parent_q3=q3,
                    change_median=change_median,
                    won=sum(sign * c < sign * p for p, c in zip(parent, change)),
                    lost=sum(sign * c > sign * p for p, c in zip(parent, change)),
                    pairs=len(parent),
                    within_bound=worsening <= entry["bound"],
                )
            )
    return rows


def failed_ops(runs: List[dict]) -> Dict[str, int]:
    """Failed ops plus failed answer checks per workload, summed over ``runs``."""
    totals: Dict[str, int] = {}
    for run in runs:
        for workload, entry in run["sets"][0]["workloads"].items():
            document = entry["untraced"]
            failures = document["failed"] + sum(not ok for ok in document["checks"].values())
            totals[workload] = totals.get(workload, 0) + failures
    return totals


def format_rows(rows: List[PairRow]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<32} {'parent median [q1, q3]':>36} "
        f"{'change median':>14} {'won/lost/pairs':>14}  bound"
    ]
    for row in rows:
        spread = f"{row.parent_median:.6g} [{row.parent_q1:.6g}, {row.parent_q3:.6g}]"
        lines.append(
            f"{row.workload:<14} {row.metric:<32} {spread:>36} {row.change_median:>14.6g} "
            f"{f'{row.won} / {row.lost} / {row.pairs}':>14}  "
            f"{'holds' if row.within_bound else 'EXCEEDED'}"
        )
    return "\n".join(lines)


def run_ledger(tree: Path, workloads: List[str], seed: int, out: Path) -> dict:
    """One untraced ledger run of ``tree``'s own ``run.py``; returns its ``--out`` document."""
    command = [sys.executable, "benchmarks/ledger/run.py", "--trace", "0"]
    command += ["--seed", str(seed), "--out", str(out)]
    for workload in workloads:
        command += ["--workload", workload]
    # A run exits 1 when an op or an answer check failed; that is a result
    # (counted by failed_ops), not a reason to stop the series.
    subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL, check=False)
    with open(out) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True, help="parent/change pairs to run")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all)")  # fmt: skip
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="seeds, cycled over the pairs (default: 0 .. pairs-1)")  # fmt: skip
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = args.seeds or list(range(args.pairs))
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    scratch = Path(tempfile.mkdtemp(prefix="ledger-pairs-"))
    try:
        parent_tree = scratch / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.parent], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive.stdout, check=True)
        sides = {"parent": parent_tree, "change": ROOT}
        runs: Dict[str, List[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = seeds[pair % len(seeds)]
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                print(f"pair {pair + 1}/{args.pairs} seed {seed}: {side}", file=sys.stderr)
                out = scratch / f"{side}-{pair}.json"
                runs[side].append(run_ledger(sides[side], args.workload, seed, out))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rows = pair_rows(spec, runs["parent"], runs["change"])
    print(format_rows(rows))
    for side in ("parent", "change"):
        print(f"{side} failed ops + failed checks: {failed_ops(runs[side])}")
    return 0 if all(row.within_bound for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
