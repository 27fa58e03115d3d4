"""End-to-end benchmark of the parallel execution engine.

One workload -- the three query types over the songs dataset, linear-scan
index (whose probe decomposes into batched kernel work units) -- executed on
the serial and thread engines and on a sharded matcher, each as its own
benchmark entry.  Recording them side by side in ``BENCH_<n>.json`` is what
lets the nightly job track the parallel paths over time: on multi-core
runners the thread and sharded legs should hold a wall-clock edge over
serial, while on a single-core machine they are expected to land at parity
(the executor contract guarantees identical work; the GIL and the core
count decide how much of it overlaps).

The benchmark also re-asserts the equivalence contract end to end: every
leg must report identical match results and identical work counters.
"""

import time

import numpy as np
import pytest

from _harness import scaled
from repro.analysis.reporting import format_table
from repro.core.config import MatcherConfig
from repro.core.matcher import SubsequenceMatcher
from repro.core.queries import (
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    RangeQuery,
)
from repro.core.sharded import ShardedMatcher
from repro.datasets.loaders import dataset_distance, load_dataset
from repro.datasets.songs import generate_song_query
from repro.distances.cache import DistanceCache
from repro.distances.frechet import DiscreteFrechet
from repro.distances.recording import RecordingCounting
from repro.indexing.stats import CountingDistance
from repro.sequences.packed import PackedWindowStore, StoreGather
from repro.sequences.sequence import Sequence, SequenceKind

pytestmark = pytest.mark.benchmark

RADIUS = 2.0
MAX_RADIUS = 8.0

#: (benchmark leg, executor, shards)
LEGS = [
    ("serial", "serial", 1),
    ("thread", "thread", 1),
    ("sharded-thread", "thread", 4),
    ("process", "process", 1),
]

_EXPECTED = {}


def _build(executor: str, shards: int):
    database = load_dataset("songs", num_windows=scaled(200), seed=0)
    distance = dataset_distance("songs", "frechet")
    config = MatcherConfig(
        min_length=40,
        max_shift=1,
        index="linear-scan",
        executor=executor,
        shards=shards,
    )
    query, _, _ = generate_song_query(database, length=80, seed=13)
    if shards > 1:
        return ShardedMatcher(database, distance, config), query
    return SubsequenceMatcher(database, distance, config), query


@pytest.mark.parametrize("leg, executor, shards", LEGS)
def test_end_to_end_parallel_songs(benchmark, leg, executor, shards):
    matcher, query = _build(executor, shards)

    def run():
        outcome = {}
        matches = matcher.execute(RangeQuery(radius=RADIUS).bind(query)).matches
        outcome["range"] = sorted(
            (m.source_id, m.query_start, m.query_stop, m.db_start, m.db_stop)
            for m in matches
        )
        longest = matcher.execute(
            LongestSubsequenceQuery(radius=RADIUS).bind(query)
        ).best
        outcome["longest"] = (longest.length, round(longest.distance, 9))
        nearest = matcher.execute(
            NearestSubsequenceQuery(max_radius=MAX_RADIUS).bind(query)
        ).best
        outcome["nearest"] = round(nearest.distance, 9)
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = matcher.last_query_stats

    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["executor", f"{stats.executor} ({stats.workers} workers)"],
                ["shards", stats.shards],
                ["range matches", len(outcome["range"])],
                ["longest (length, distance)", outcome["longest"]],
                ["nearest distance", outcome["nearest"]],
                ["probe wall (ms)", f"{stats.stage_timings.get('probe', 0) * 1000:.1f}"],
                ["probe cpu (ms)", f"{stats.cpu_stage_timings.get('probe', 0) * 1000:.1f}"],
            ],
            title=f"Parallel end-to-end -- songs / frechet / linear-scan ({leg})",
        )
    )

    # The equivalence contract, asserted end to end: every leg of this
    # benchmark answers identically (the serial leg runs first and pins
    # the expectation).
    if "outcome" not in _EXPECTED:
        _EXPECTED["outcome"] = outcome
    else:
        assert outcome == _EXPECTED["outcome"]
    assert outcome["longest"][0] >= 40


# --------------------------------------------------------------------------- #
# Record/replay bookkeeping microbenchmark
# --------------------------------------------------------------------------- #
#
# The parallel engine's per-unit cost on the serial side of Amdahl's law is
# the record/replay bookkeeping: logging every distance request during the
# unit and re-applying the log to the real cache and counters afterwards.
# This microbenchmark isolates that cost on a fixed stream of 10k batched
# requests (20 query units x 500 packed windows, prefiltered Frechet): the
# leg records the 20 units cold and replays them in unit order, exactly the
# thread-executor life cycle.  The *bookkeeping overhead* is the leg's time
# minus the no-cache compute floor (same kernels, no logging, no cache); the
# replayed cache and counters must equal the serial path's.

MICRO_QUERIES = 20
MICRO_WINDOWS = 500
MICRO_LENGTH = 6
MICRO_CUTOFF = 1.5
MICRO_TRIALS = 9

_MICRO = {}


def _micro_workload():
    if "workload" not in _MICRO:
        generator = np.random.default_rng(7)
        store = PackedWindowStore()
        items = []
        for position in range(MICRO_WINDOWS):
            values = generator.normal(size=MICRO_LENGTH)
            store.add(position, values)
            items.append(Sequence(values, SequenceKind.TIME_SERIES, f"w{position}"))
        gather = StoreGather(store, list(range(MICRO_WINDOWS)))
        queries = [
            Sequence(generator.normal(size=MICRO_LENGTH), SequenceKind.TIME_SERIES, f"q{i}")
            for i in range(MICRO_QUERIES)
        ]
        _MICRO["workload"] = (items, gather, queries)
    return _MICRO["workload"]


def _micro_floor() -> float:
    """No-cache compute floor: same kernels and prefilter, zero bookkeeping."""
    if "floor" not in _MICRO:
        items, gather, queries = _micro_workload()

        def run():
            counting = CountingDistance(DiscreteFrechet(), cache=None, prefilter=True)
            start = time.perf_counter()
            for query in queries:
                counting.batch(query, items, cutoff=MICRO_CUTOFF, packed=gather)
            return time.perf_counter() - start

        run()
        _MICRO["floor"] = min(run() for _ in range(MICRO_TRIALS))
    return _MICRO["floor"]


def test_record_replay_bookkeeping(benchmark):
    items, gather, queries = _micro_workload()

    def run():
        cache = DistanceCache()
        counting = CountingDistance(DiscreteFrechet(), cache=cache, prefilter=True)
        recordings = []
        for query in queries:
            recording = RecordingCounting(DiscreteFrechet(), cache, prefilter=True)
            recording.batch(query, items, cutoff=MICRO_CUTOFF, packed=gather)
            recordings.append(recording)
        for recording in recordings:
            recording.replay_into(counting)
        return cache, counting

    cache, counting = benchmark.pedantic(run, rounds=MICRO_TRIALS, iterations=1, warmup_rounds=1)
    best = benchmark.stats.stats.min
    floor = _micro_floor()
    requests = MICRO_QUERIES * MICRO_WINDOWS
    overhead = best - floor
    fingerprint = (len(cache._entries), cache.hits, cache.misses, counting.counter.total)
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["floor_ms"] = round(floor * 1e3, 3)
    benchmark.extra_info["overhead_ms_per_10k_requests"] = round(overhead * 1e3 * 1e4 / requests, 3)

    rows = [
        ["requests", requests],
        ["record+replay (ms)", f"{best * 1e3:.2f}"],
        ["compute floor (ms)", f"{floor * 1e3:.2f}"],
        ["bookkeeping overhead (ms / 10k requests)", f"{overhead * 1e3 * 1e4 / requests:.2f}"],
    ]
    print()
    print(format_table(["quantity", "value"], rows, title="Record/replay bookkeeping"))

    # The replay leaves what the serial path leaves.
    serial_cache = DistanceCache()
    serial = CountingDistance(DiscreteFrechet(), cache=serial_cache, prefilter=True)
    for query in queries:
        serial.batch(query, items, cutoff=MICRO_CUTOFF, packed=gather)
    assert fingerprint == (
        len(serial_cache._entries),
        serial_cache.hits,
        serial_cache.misses,
        serial.counter.total,
    )
