#!/usr/bin/env python3
"""The repo's perf ledger: four workloads, end-to-end and per-layer metrics.

One command sets up, runs, checks answers and prints every metric by name
with its unit::

    python3 benchmarks/ledger/run.py --workload fresh-range --seed 0 --seconds 15 --trace 0

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (names, units and regression bounds live in
``BENCHMARK.json`` at the repo root).  Without ``--workload`` all four run;
``--trace both --out F`` records a full set.  See ``README.md`` beside this
file for the workloads, the glossary and ``--compare`` / ``--calibrate`` /
``--report``.

Each workload runs in a child process with every ``REPRO_*`` variable
scrubbed and ``PYTHONHASHSEED=0``; the compiled-kernel cache is pointed
inside the checkout (``.bench_build/``), so nothing outside it is touched.
Op *counts* are fixed functions of ``--seconds`` (15 gives the documented
counts), never durations: the same seed runs the same ops on every commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: A child (set-up + run + checks) is killed past this; the contract allows 180 s.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Child: run one workload, derive its metrics
# --------------------------------------------------------------------- #
#: ``per-layer metric -> (span name, aggregate field, divisor)``; the divisor
#: names which op count turns a phase total into a per-op mean.
SPAN_METRICS = {
    "sequences.windows_s": ("sequences.windows", "self_s", "search"),
    "distances.kernel_s": ("distances.kernel", "self_s", "search"),
    "distances.kernel_calls": ("distances.kernel", "calls", None),
    "distances.cache_lookup_s": ("distances.cache_lookup", "self_s", "search"),
    "distances.cache_lookups": ("distances.cache_lookup", "calls", None),
    "distances.cache_store_s": ("distances.cache_store", "self_s", "search"),
    "distances.cache_stores": ("distances.cache_store", "calls", None),
    "indexing.traverse_s": ("indexing.traverse", "self_s", "search"),
    "indexing.counting_s": ("indexing.counting", "self_s", "search"),
    # Inclusive on purpose: an insert's work happens in the index's own
    # ``add``, which is a child span.
    "indexing.insert_s": ("indexing.insert", "total_s", "add"),
    "indexing.delete_s": ("indexing.delete", "total_s", "delete"),
    "core.pipeline.self_s": ("core.pipeline", "self_s", "search"),
    "core.verification.self_s": ("core.verification", "self_s", "search"),
    "core.service.self_s": ("core.service", "self_s", "search"),
    "core.wire.decode_s": ("core.wire.decode", "self_s", "search"),
    "core.wire.encode_s": ("core.wire.encode", "self_s", "search"),
    "server.http_s": ("server.http", "self_s", "search"),
}

COUNT_METRICS = {
    "distances.kernel_pairs": "kernel_pairs",
    "distances.kernel_cells": "kernel_cells",
    "distances.cache_evictions": "cache_evictions",
}


def tail_of(samples: List[float]):
    """``(value, percentile)`` of the highest percentile with enough beyond it.

    "Enough" is ten samples, or a third of them where a run has fewer than
    thirty: p90 at n >= 100, p80 at 50, p67 at 30 and at 15.
    """
    ordered = sorted(samples)
    beyond = min(10, len(ordered) // 3)
    index = len(ordered) - 1 - beyond
    return ordered[index], round(100.0 * (index + 1) / len(ordered))


def derive_metrics(data, trace: Optional[dict]) -> Dict[str, Optional[float]]:
    """Every end-to-end and per-layer metric of one run (``None`` = not measured)."""
    records = data.timed.records
    searches = [r for r in records if r.kind == "search" and r.stats is not None]
    writes = [r for r in records if r.kind != "search" and r.ok]
    if not searches:
        raise RuntimeError("no search op succeeded; nothing to measure")
    latencies = [r.latency_s for r in searches]
    stats = [r.stats for r in searches]

    def total(key: str) -> int:
        return int(sum(s[key] for s in stats))

    def stage(name: str) -> float:
        return sum(s["stage_seconds"].get(name, 0.0) for s in stats) / len(searches)

    fresh = total("index_distance_computations") + total("verification_distance_computations")
    hits = total("index_cache_hits") + total("verification_cache_hits")
    stage_sums = [sum(s["stage_seconds"].values()) for s in stats]
    overhead = [lat - staged for lat, staged in zip(latencies, stage_sums)]
    in_process = "server.rejected" not in data.extras
    tail, _percentile = tail_of(latencies)

    metrics: Dict[str, Optional[float]] = {
        # end to end
        "setup_s": statistics.median(data.setup_samples),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_tail_ms": tail * 1e3,
        "throughput_qps": len(records) / data.timed.wall_s,
        "cpu_s_per_query": data.timed.cpu_s / len(searches),
        "distance_computations_per_query": (data.warmup_computations + fresh)
        / (data.warmup_searches + len(searches)),
        "peak_rss_mb": data.peak_rss_mb,
        # per layer, from public results
        "distances.cache_hit_ratio": hits / max(1, hits + fresh + total("prefilter_pruned")),
        "distances.prefilter_evaluations": total("prefilter_evaluations"),
        "distances.prefilter_pruned_ratio": total("prefilter_pruned")
        / max(1, total("prefilter_evaluations")),
        "distances.cache_entries": data.extras.get("distances.cache_entries"),
        "indexing.build_s": statistics.mean(data.build_samples),
        "indexing.computations": total("index_distance_computations"),
        "indexing.cache_hits": total("index_cache_hits"),
        "indexing.naive_fraction": total("index_distance_computations")
        / max(1, total("naive_distance_computations")),
        "indexing.nodes": data.extras.get("indexing.nodes"),
        "indexing.bytes_per_window": data.extras.get("indexing.bytes_per_window"),
        "core.pipeline.segment_s": stage("segment"),
        "core.pipeline.probe_s": stage("probe"),
        "core.pipeline.chain_s": stage("chain"),
        "core.pipeline.verify_s": stage("verify"),
        "core.pipeline.passes": int(sum(max(1, s["passes"]) for s in stats)),
        "core.pipeline.segments": total("segments_extracted"),
        "core.pipeline.segment_matches": total("segment_matches"),
        "core.pipeline.candidate_chains": total("candidate_chains"),
        "core.verification.computations": total("verification_distance_computations"),
        "core.verification.cache_hits": total("verification_cache_hits"),
        "core.verification.chain_yield": sum(len(r.answer) for r in searches)
        / max(1, total("candidate_chains")),
        "core.matcher.cold_query_ms": statistics.mean(data.cold_latencies) * 1e3,
        "core.service.overhead_s": statistics.mean(overhead) if in_process else None,
        "core.wire.request_bytes": int(sum(r.request_bytes for r in searches)),
        "core.wire.response_bytes": int(sum(r.response_bytes for r in searches)),
        "server.overhead_ms": None if in_process else statistics.mean(overhead) * 1e3,
        "server.queue_ms": None
        if in_process
        else (statistics.median(latencies) - data.extras["server_p50_s"]) * 1e3,
        "server.write_p50_ms": statistics.median(r.latency_s for r in writes) * 1e3
        if writes
        else None,
    }
    for name in ("server.rejected", "server.timeouts", "server.query_errors"):
        metrics[name] = data.extras.get(name)
    for name in ("storage.save_s", "storage.load_s", "storage.snapshot_bytes"):
        metrics[name] = data.extras.get(name)

    # per layer, from the spans of the traced run
    divisors = {
        "search": len(searches),
        "add": sum(r.kind == "add" for r in records),
        "delete": sum(r.kind == "delete" for r in records),
    }
    spans = (trace or {}).get("spans", {})
    for name, (span, column, per) in SPAN_METRICS.items():
        if trace is None:
            metrics[name] = None
            continue
        value = spans.get(span, {}).get(column, 0)
        metrics[name] = value if per is None else value / max(1, divisors[per])
    for name, key in COUNT_METRICS.items():
        metrics[name] = None if trace is None else int(trace["counts"].get(key, 0))
    if trace is None:
        for name in ("trace.overhead_ratio", "trace.coverage", "trace.untraced_targets"):
            metrics[name] = None
    else:
        if "cache_entries" in trace:
            metrics["distances.cache_entries"] = int(trace["cache_entries"])
        reference = data.reference
        reference_searches = sum(r.kind == "search" for r in reference.records)
        metrics["trace.overhead_ratio"] = (data.timed.wall_s / len(searches)) / (
            reference.wall_s / max(1, reference_searches)
        )
        metrics["trace.coverage"] = (
            sum(row["self_s"] for row in spans.values()) / data.timed.wall_s
        )
        metrics["trace.untraced_targets"] = len(trace["untraced"])
    return metrics


def child_main(args) -> int:
    """Run one workload in this process and print its document as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(LEDGER_DIR))
    import numpy

    import layers
    import workloads

    tracer = layers.install(layers.Tracer()) if args.trace else None
    workload = workloads.WORKLOADS[args.child](args.seed, args.seconds, args.quick)
    spans_path = f"{args.spans}.{args.child}.jsonl" if args.spans and tracer else None
    workload.spans_path = spans_path
    data = workload.run(tracer)
    if tracer is None:
        trace = None
    elif data.remote_trace is not None:
        trace = data.remote_trace
    else:
        trace = tracer.dump()
    if spans_path and data.remote_trace is None:
        layers.write_spans(tracer, spans_path)

    measured = data.timed.records + (data.reference.records if data.reference else [])
    failures = [r.error or f"{r.kind} op failed" for r in measured if not r.ok]
    searches = [r for r in data.timed.records if r.kind == "search" and r.stats is not None]
    digest = hashlib.sha256(
        json.dumps([r.answer for r in searches], separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    metrics = derive_metrics(data, trace)
    _tail, percentile = tail_of([r.latency_s for r in searches])
    document = {
        "workload": args.child,
        "traced": bool(args.trace),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": data.kernel_backend,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
        },
        "op_counts": data.op_counts,
        "dataset_fingerprint": workloads.database_fingerprint(workload.database),
        "metrics": metrics,
        "tail_percentile": percentile,
        "samples": len(searches),
        "digest": digest,
        "checks": data.checks,
        "fixture": data.fixture,
        "attempted": len(measured),
        "failed": len(failures),
        "failures": failures[:5],
        "untraced": [] if trace is None else trace["untraced"],
        "spans": {} if trace is None else trace["spans"],
        "traced_wall_s": data.timed.wall_s if trace is not None else None,
    }
    print(json.dumps(document))
    return 0


# --------------------------------------------------------------------- #
# Parent: spawn children, print, compare, calibrate, report
# --------------------------------------------------------------------- #
def child_environment() -> Dict[str, str]:
    """The scrubbed environment every process under test runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    # Not a tuning knob: it only keeps the compiled-kernel cache inside the
    # checkout instead of ~/.cache.
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "ledger-kernels")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
              spans: Optional[str] = None) -> dict:
    """One workload, one pass, in its own process group; returns its document."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    if spans:
        command += ["--spans", spans]
    process = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=child_environment(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s; killed")
    if process.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return result.stdout.strip() or "unknown"


def is_correct(document: dict) -> bool:
    return document["failed"] == 0 and all(document["checks"].values())


def metric_rows(spec: dict, document: dict, section: str) -> List[tuple]:
    return [
        (entry["name"], document["metrics"].get(entry["name"]), entry["unit"])
        for entry in spec[section]
    ]


def print_document(spec: dict, document: dict) -> None:
    """Every metric of one pass by name, with its unit."""
    section = "per_layer" if document["traced"] else "end_to_end"
    print(
        f"== {document['workload']} ({'traced' if document['traced'] else 'untraced'}, "
        f"seed {document['environment']['seed']}, ops {document['op_counts']}, "
        f"kernel {document['environment']['kernel_backend']}) =="
    )
    for name, value, unit in metric_rows(spec, document, section):
        shown = "n/a" if value is None else (f"{value:d}" if isinstance(value, int) else f"{value:.6g}")
        print(f"  {name:<40} {shown:>14} {unit}")
    if not document["traced"]:
        print(
            f"  query_tail_ms is p{document['tail_percentile']} of {document['samples']} samples; "
            f"answer digest {document['digest'][:16]}"
        )
    print(
        f"  attempted {document['attempted']}, failed {document['failed']}, checks "
        + ", ".join(f"{name}={'ok' if ok else 'FAILED'}" for name, ok in document["checks"].items())
    )
    for failure in document["failures"]:
        print(f"  failure: {failure}", file=sys.stderr)
    if document["untraced"]:
        print(f"  untraced targets: {', '.join(document['untraced'])}")


def contract_object(spec: dict, document: dict) -> dict:
    """The driver's result object for one pass of one workload."""
    section = "per_layer" if document["traced"] else "end_to_end"
    return {
        "correct": is_correct(document),
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            # A per-layer metric that does not apply to this workload (or whose
            # target is gone: see trace.untraced_targets) reads 0 here; the
            # --out document keeps the distinction as null.
            name: {"value": 0 if value is None else value, "unit": unit}
            for name, value, unit in metric_rows(spec, document, section)
        },
    }


def run_set(spec: dict, names: List[str], args, seed: int) -> dict:
    """One pass (or both) of each selected workload; prints as it goes."""
    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    result = {
        "environment": {"git_sha": git_sha(), "seed": seed, "seconds": args.seconds},
        "workloads": {},
    }
    for name in names:
        entry = result["workloads"][name] = {}
        for traced in passes:
            document = run_child(name, seed, args.seconds, traced, args.quick, args.spans)
            entry["traced" if traced else "untraced"] = document
            print_document(spec, document)
    return result


def all_documents(run: dict) -> List[dict]:
    return [doc for entry in run["workloads"].values() for doc in entry.values()]


# --------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------- #
def load_sets(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)["sets"]


def environment_key(sets: List[dict], workload: str) -> dict:
    """What must agree between two files for their numbers to be comparable."""
    entry = sets[0]["workloads"][workload]
    if "untraced" not in entry:
        raise SystemExit(f"{workload}: no untraced pass recorded; use --trace 0 or both")
    document = entry["untraced"]
    key = {k: document["environment"][k] for k in ("nproc", "python", "numpy", "kernel_backend", "seed", "seconds")}
    key["op_counts"] = document["op_counts"]
    key["dataset_fingerprint"] = document["dataset_fingerprint"]
    return key


def spread_of(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved`` for one metric.

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: the run-to-run spread exceeds the bound, unless every run
    of B beats every run of A.  ``better``: every run of B beats every run of
    A and the medians differ by more than the spread -- or, with one run a
    side and so no spread to judge by, by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
    spread = max(spread_of(a), spread_of(b))
    every_b_better = all(sign * y < sign * x for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved"
    if worsening > bound:
        return "worse"
    needed = spread if len(a) > 1 and len(b) > 1 else bound
    if every_b_better and -worsening > needed:
        return "better"
    return "within"


def compare(spec: dict, path_a: str, path_b: str) -> int:
    sets_a, sets_b = load_sets(path_a), load_sets(path_b)
    names = [w["name"] for w in spec["workloads"] if w["name"] in sets_a[0]["workloads"]]
    for name in names:
        if name not in sets_b[0]["workloads"]:
            raise SystemExit(f"{path_b} has no workload {name}")
        key_a, key_b = environment_key(sets_a, name), environment_key(sets_b, name)
        if key_a != key_b:
            raise SystemExit(
                f"refusing to compare {name}: environments differ\n  {path_a}: {key_a}\n  {path_b}: {key_b}"
            )
    print(f"A = {path_a} (git {sets_a[0]['environment']['git_sha'][:12]}, {len(sets_a)} set(s))")
    print(f"B = {path_b} (git {sets_b[0]['environment']['git_sha'][:12]}, {len(sets_b)} set(s))")
    print(f"{'workload':<14} {'metric':<34} {'median A':>12} {'median B':>12} {'bound':>6}  verdict")
    worse = 0
    for name in names:
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            a = [s["workloads"][name]["untraced"]["metrics"][metric] for s in sets_a]
            b = [s["workloads"][name]["untraced"]["metrics"][metric] for s in sets_b]
            outcome = verdict(a, b, entry["better"], entry["bound"])
            worse += outcome == "worse"
            print(
                f"{name:<14} {metric:<34} {statistics.median(a):>12.6g} "
                f"{statistics.median(b):>12.6g} {entry['bound']:>6.2f}  {outcome}"
            )
        digests = {s["workloads"][name]["untraced"]["digest"] for s in sets_a + sets_b}
        print(f"{name:<14} {'answer digest':<34} {'identical' if len(digests) == 1 else 'DIFFERS':>25}")
    return 1 if worse else 0


# --------------------------------------------------------------------- #
# --calibrate
# --------------------------------------------------------------------- #
def calibrate(spec: dict, names: List[str], args) -> List[dict]:
    """N sets on seeds ``seed .. seed+N-1`` and each metric's spread.

    This is the acceptance procedure: the spread is the interquartile range
    of the N values as a share of their median, and it has to stay within
    the metric's bound (aim for a third of it).
    """
    sets = [run_set(spec, names, args, args.seed + offset) for offset in range(args.calibrate)]
    print(f"\nspread over {args.calibrate} sets (seeds {args.seed}..{args.seed + args.calibrate - 1})")
    print(f"{'workload':<14} {'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        for entry in spec["end_to_end"]:
            values = [s["workloads"][name]["untraced"]["metrics"][entry["name"]] for s in sets]
            spread = spread_of(values)
            flag = "" if spread <= entry["bound"] / 3 else ("  > bound/3" if spread <= entry["bound"] else "  > BOUND")
            print(
                f"{name:<14} {entry['name']:<34} {statistics.median(values):>12.6g} "
                f"{spread:>8.4f} {entry['bound']:>6.2f}{flag}"
            )
    return sets


# --------------------------------------------------------------------- #
# --report
# --------------------------------------------------------------------- #
def report(spec: dict, path: str) -> int:
    """Markdown: where a query's time goes, from a file's traced passes."""
    run = load_sets(path)[0]
    names = [w["name"] for w in spec["workloads"] if "traced" in run["workloads"].get(w["name"], {})]
    if not names:
        raise SystemExit(f"{path} holds no traced pass; record one with --trace both --out")
    layers_seen = sorted({span for n in names for span in run["workloads"][n]["traced"]["spans"]})
    print("| layer (self time, share of traced wall) | " + " | ".join(names) + " |")
    print("|---|" + "---:|" * len(names))
    for layer in layers_seen:
        cells = []
        for name in names:
            document = run["workloads"][name]["traced"]
            own = document["spans"].get(layer, {}).get("self_s", 0.0)
            cells.append(f"{100.0 * own / document['traced_wall_s']:.1f} %")
        print(f"| `{layer}` | " + " | ".join(cells) + " |")
    for label, metric in (("covered by spans", "trace.coverage"), ("tracing overhead (x)", "trace.overhead_ratio")):
        cells = []
        for name in names:
            value = run["workloads"][name]["traced"]["metrics"][metric]
            cells.append(f"{100.0 * value:.1f} %" if metric == "trace.coverage" else f"{value:.2f}")
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


# --------------------------------------------------------------------- #
def build_parser(workload_names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workload_names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="inputs are a pure function of this")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed phase; scales the fixed op counts "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1", "both"],
                        help="0: untraced pass, end-to-end metrics; 1: traced pass, per-layer "
                             "metrics; both: a full set")
    parser.add_argument("--out", help="write the run(s) to this JSON file")
    parser.add_argument("--spans", metavar="PREFIX",
                        help="traced pass: write the raw spans to PREFIX.<workload>.jsonl")
    parser.add_argument("--quick", action="store_true", help="3 ops per workload (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files metric by metric")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run N sets on consecutive seeds and print each metric's spread")
    parser.add_argument("--report", metavar="F.json",
                        help="print the where-a-query's-time-goes table of a traced --out file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the ledger runs from a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    args = build_parser(workload_names).parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        args.trace = args.trace == "1"
        return child_main(args)
    if args.compare:
        return compare(spec, *args.compare)
    if args.report:
        return report(spec, args.report)
    names = args.workload or workload_names
    if args.calibrate:
        sets = calibrate(spec, names, args)
    else:
        sets = [run_set(spec, names, args, args.seed)]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"sets": sets}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    documents = [doc for run in sets for doc in all_documents(run)]
    if len(documents) == 1:
        summary = contract_object(spec, documents[0])
    else:
        summary = {
            "correct": all(is_correct(doc) for doc in documents),
            "attempted": sum(doc["attempted"] for doc in documents),
            "failed": sum(doc["failed"] for doc in documents),
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
