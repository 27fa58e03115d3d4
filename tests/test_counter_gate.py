"""Counter gate: the deterministic work counters of a fixed query set.

``QueryStats`` work counters -- fresh distance computations, cache hits,
prefilter tallies, segment matches, candidate chains, radius-sweep passes --
are exact, hardware-independent and identical across executors by contract,
so any change to them is a behaviour change, never noise.  This gate runs
four query types x {``linear-scan``, ``reference-net``} on the three paper
datasets, each followed by a warm repeat through fresh ``Sequence`` objects,
and compares every counter to ``tests/data/counter_gate.json``.  The
``<dataset>+repeats/reference-net`` legs run the same queries over a database
whose first two sequences are stored twice, so same-content windows meet in
one level of the net -- where measuring a level in one batch must still count
"computed once, then cache hits".

A PR that moves a counter on purpose re-records the golden file *and says so*
-- only the legs it means to move, so the untouched legs keep proving that
nothing else did::

    PYTHONPATH=src python tests/test_counter_gate.py --diff          # what moved, no write
    PYTHONPATH=src python tests/test_counter_gate.py --diff --no-increase   # fail only if one rose
    PYTHONPATH=src python tests/test_counter_gate.py songs/reference-net ...   # re-record these
    PYTHONPATH=src python tests/test_counter_gate.py                 # re-record every leg
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro import (
    LongestSubsequenceQuery,
    MatcherConfig,
    NearestSubsequenceQuery,
    RangeQuery,
    Sequence,
    SubsequenceMatcher,
    TopKQuery,
)
from repro.datasets import (
    generate_protein_query,
    generate_song_query,
    generate_trajectory_query,
    load_dataset,
)
from repro.datasets.loaders import dataset_distance

GOLDEN = Path(__file__).parent / "data" / "counter_gate.json"

#: dataset -> (distance, query generator, radius)
DATASETS = {
    "songs": ("frechet", generate_song_query, 2.0),
    "proteins": ("levenshtein", generate_protein_query, 8.0),
    "traj": ("erp", generate_trajectory_query, 60.0),
}
INDEXES = ("linear-scan", "reference-net")

WORK_COUNTERS = (
    "segments_extracted",
    "segment_matches",
    "candidate_chains",
    "naive_distance_computations",
    "index_distance_computations",
    "verification_distance_computations",
    "index_cache_hits",
    "verification_cache_hits",
    "prefilter_evaluations",
    "prefilter_pruned",
)


def specs(radius):
    return {
        "range": RangeQuery(radius=radius),
        "longest": LongestSubsequenceQuery(radius=radius),
        "nearest": NearestSubsequenceQuery(max_radius=2 * radius),
        "topk": TopKQuery(k=3, max_radius=2 * radius),
    }


def collect(dataset, index, repeats=False):
    """``{"<round>/<query type>": counters}`` for one dataset x index."""
    distance_name, generate, radius = DATASETS[dataset]
    database = load_dataset(dataset, 60, 20, seed=0)
    if repeats:
        for seq_id in database.ids()[:2]:
            database.add(database[seq_id], seq_id=f"{seq_id}-again")
    config = MatcherConfig(min_length=40, max_shift=1, index=index)
    matcher = SubsequenceMatcher(database, dataset_distance(dataset, distance_name), config)
    query, _source, _start = generate(database, length=60, seed=1000)
    recorded = {}
    try:
        for round_name in ("cold", "warm"):
            for name, spec in specs(radius).items():
                # A new object per op, as a wire decode makes one.
                fresh = Sequence(query.values, query.kind, alphabet=query.alphabet)
                result = matcher.execute(spec.bind(fresh))
                counters = {field: getattr(result.stats, field) for field in WORK_COUNTERS}
                counters["passes"] = len(result.stats.passes)
                counters["matches"] = len(result.matches)
                recorded[f"{round_name}/{name}"] = counters
    finally:
        matcher.close()
    return recorded


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_work_counters_match_the_golden_file(dataset, index):
    golden = json.loads(GOLDEN.read_text())[f"{dataset}/{index}"]
    assert collect(dataset, index) == golden


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_work_counters_with_repeated_windows_match_the_golden_file(dataset):
    golden = json.loads(GOLDEN.read_text())[f"{dataset}+repeats/reference-net"]
    assert collect(dataset, "reference-net", repeats=True) == golden


def test_the_net_computes_no_more_distances_than_the_prefiltered_scan():
    """Bound-first routing spends a distance only on a pair whose lower bound
    is within the radius -- a pair the scan's prefilter computes as well."""
    net = collect("songs", "reference-net")["cold/range"]
    scan = collect("songs", "linear-scan")["cold/range"]
    assert net["matches"] == scan["matches"]
    assert 0 < net["index_distance_computations"] <= scan["index_distance_computations"]


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_a_warm_sweep_over_the_scan_touches_each_pair_once(dataset):
    """Only a sweep's first pass asks the index; the probe table answers the
    rest.  Warm, that pass is all cache hits: one per (segment, window) pair
    (123 x 60 here), not one per pair *per pass*."""
    golden = json.loads(GOLDEN.read_text())[f"{dataset}/linear-scan"]
    for op in ("warm/topk", "warm/nearest"):
        assert golden[op]["passes"] > 1
        assert golden[op]["index_distance_computations"] == 0
        assert golden[op]["index_cache_hits"] == golden[op]["naive_distance_computations"]


def collect_leg(leg):
    dataset, index = leg.split("/")
    return collect(dataset.replace("+repeats", ""), index, repeats=dataset.endswith("+repeats"))


def print_diff(golden, legs):
    """Leg by leg, every counter that differs from the golden file; no write.

    Returns how many counters moved and how many of those rose.
    """
    moved = rose = 0
    for leg in legs:
        current = collect_leg(leg)
        lines = []
        for op in sorted(set(current) | set(golden.get(leg, {}))):
            was, now = golden.get(leg, {}).get(op, {}), current.get(op, {})
            for counter in sorted(set(was) | set(now)):
                before, after = was.get(counter), now.get(counter)
                if before != after:
                    known = None not in (before, after)
                    delta = f"  ({after - before:+d})" if known else ""
                    lines.append(f"  {op:14s} {counter:36s} {before} -> {after}{delta}")
                    rose += known and after > before
        print(f"{leg}: " + (f"{len(lines)} counters differ" if lines else "identical"))
        print("\n".join(lines), end="\n" if lines else "")
        moved += len(lines)
    return moved, rose


if __name__ == "__main__":
    all_legs = [f"{d}/{i}" for d in sorted(DATASETS) for i in INDEXES]
    all_legs += [f"{d}+repeats/reference-net" for d in sorted(DATASETS)]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("legs", nargs="*", help=f"default: every leg of {', '.join(all_legs)}")
    parser.add_argument("--diff", action="store_true", help="print what differs; write nothing")
    parser.add_argument("--no-increase", action="store_true",
                        help="with --diff: exit non-zero only if some counter rose")  # fmt: skip
    arguments = parser.parse_args()
    if arguments.no_increase and not arguments.diff:
        parser.error("--no-increase goes with --diff")
    legs = arguments.legs or all_legs
    if set(legs) - set(all_legs):
        parser.error(f"unknown legs: {sorted(set(legs) - set(all_legs))}")
    record = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if arguments.diff:
        moved, rose = print_diff(record, legs)
        if arguments.no_increase:
            print(f"{moved} counters moved, {rose} of them rose")
        sys.exit(1 if (rose if arguments.no_increase else moved) else 0)
    record.update({leg: collect_leg(leg) for leg in legs})
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(legs)} of {len(record)} legs to {GOLDEN}")
