"""Record/replay equals the serial path.

Parallel work units record their distance requests
(:mod:`repro.distances.recording`) and are replayed serially afterwards.
The contract is the serial path itself: the same request stream through a
live ``CountingDistance`` (probe units), or through a plain
``DistanceCache`` plus the verification counter (verification units), must
return the same values and leave the same counters, cache content,
insertion (= eviction) order and eviction count.

Units run one after another, each recorded against the cache its
predecessors' replays left behind.  A probe unit is one batch request --
all of its lookups precede all of its stores, on the serial path and in
the replay alike -- so every capacity is exact for it.  A cache that evicts
*inside* a multi-request verification unit is the recording layer's one
documented inexactness (the unit may be answered from an entry serial had
already evicted), so small capacities drive single-request verification
units, and multi-request ones run against caches that never fill.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscreteFrechet, MatcherConfig, Sequence
from repro.core.verification import StartPairBlocks, _Requests
from repro.distances.cache import DistanceCache
from repro.distances.recording import (
    RecordingCounting,
    RecordingVerifyCache,
    compute_batch_groups,
)
from repro.indexing.stats import CountingDistance, DistanceCounter
from repro.sequences.packed import PackedWindowStore, StoreGather

#: A small operand pool: repeats across requests are what make cache hits,
#: no-downgrade upgrades, and evictions actually happen in the streams.
_POOL_SIZE = 6


def _make_pool():
    generator = np.random.default_rng(7)
    pool = [
        Sequence.from_values(generator.normal(size=5), seq_id=f"s{i}")
        for i in range(_POOL_SIZE)
    ]
    # One raw query array: not cacheable, so its batch is never looked up
    # or stored.
    raw = generator.normal(size=5)
    store = PackedWindowStore()
    for position, sequence in enumerate(pool):
        store.add(position, sequence)
    return pool, raw, store


_SEQUENCES, _RAW, _STORE = _make_pool()

#: One probe unit -- one batch request: (query, [item...], cutoff_or_None).
#: A query index < 0 picks the raw array; items come from the packed pool.
_batch = st.tuples(
    st.integers(-1, _POOL_SIZE - 1),
    st.lists(st.integers(0, _POOL_SIZE - 1), min_size=1, max_size=6),
    st.one_of(st.none(), st.floats(0.1, 5.0)),
)

#: Verification requests share one (query, target) pair: spans of the
#: verification request protocol, over few start pairs so that they repeat.
_VERIFY_CONFIG = MatcherConfig(min_length=2, max_shift=1)
_VERIFY_QUERY, _VERIFY_TARGET = (
    Sequence.from_values(values, seq_id=name)
    for name, values in zip("qx", np.random.default_rng(11).normal(size=(2, 7)))
)

#: One verification request: (query start, query length, database start,
#: length shift, radius); the database length is the query's plus the shift.
_verify_request = st.tuples(
    st.integers(0, 2), st.integers(2, 3), st.integers(0, 2), st.integers(-1, 1), st.floats(0.1, 5.0)
).filter(lambda request: request[1] + request[3] >= 2)


def _operand(index):
    return _RAW if index < 0 else _SEQUENCES[index]


#: The cache holds content keys, not operands; this names them again.
_ID_OF_KEY = {sequence.content_key: sequence.seq_id for sequence in _SEQUENCES}
_ID_OF_KEY.update(
    (sequence.subsequence(start, stop).content_key, (sequence.seq_id, start, stop))
    for sequence in (_VERIFY_QUERY, _VERIFY_TARGET)
    for start in range(len(sequence))
    for stop in range(start + 1, len(sequence) + 1)
)


def _cache_fingerprint(cache):
    """Content in insertion (= eviction) order, plus how many were evicted."""
    return cache.evictions, [
        (_ID_OF_KEY[first], _ID_OF_KEY[second], value, exact)
        for first, second, value, exact in cache.iter_entries()
    ]


def _counter_fingerprint(counter):
    return (
        counter.total,
        counter.cache_hits,
        counter.prefilter_evaluations,
        counter.prefilter_pruned,
    )


def _issue(counting, request):
    """Send one batch request through ``counting``; the values it returned."""
    query_index, item_indexes, cutoff = request
    values = counting.batch(
        _operand(query_index),
        [_SEQUENCES[i] for i in item_indexes],
        cutoff=cutoff,
        packed=StoreGather(_STORE, item_indexes),
    )
    return [float(v) for v in values]


def _drive_probe(requests, prefilter, max_entries, warm, recorded):
    """Run one-batch units serially or recorded + replayed unit by unit."""
    cache = DistanceCache(max_entries=max_entries)
    if warm:
        cache.seed(_SEQUENCES[0], _SEQUENCES[1], 0.25)
    live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=cache, prefilter=prefilter)
    returned = []
    for request in requests:
        if recorded:
            recording = RecordingCounting(DiscreteFrechet(), cache, prefilter)
            returned.extend(_issue(recording, request))
            recording.replay_into(live)
        else:
            returned.extend(_issue(live, request))
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(cache)


def _drive_verify(units, max_entries, recorded):
    """Run verification units through the production request protocol,
    serially or recorded + replayed unit by unit; the units share one block
    engine, as the units of one query do."""
    cache = DistanceCache(max_entries=max_entries)
    counter = DistanceCounter()
    engine = StartPairBlocks(_VERIFY_QUERY, _VERIFY_TARGET, DiscreteFrechet(), _VERIFY_CONFIG)
    returned = []
    for unit in units:
        target = RecordingVerifyCache(cache) if recorded else cache
        unit_counter = DistanceCounter() if recorded else counter
        requests = _Requests(_VERIFY_QUERY, _VERIFY_TARGET, "x", engine, unit_counter, target)
        for q_start, q_length, x_start, shift, radius in unit:
            x_stop = x_start + q_length + shift
            returned.append(
                requests.measure(q_start, q_start + q_length, x_start, x_stop, radius)
            )
        if recorded:
            target.replay_into(cache, counter)
    return returned, (counter.total, counter.cache_hits), _cache_fingerprint(cache)


class TestProbeReplayEqualsSerial:
    @settings(max_examples=120, deadline=None)
    @given(
        requests=st.lists(_batch, max_size=12),
        prefilter=st.booleans(),
        max_entries=st.one_of(st.none(), st.integers(2, 10)),
        warm=st.booleans(),
    )
    def test_batch_units_replay_like_serial(self, requests, prefilter, max_entries, warm):
        assert _drive_probe(requests, prefilter, max_entries, warm, True) == _drive_probe(
            requests, prefilter, max_entries, warm, False
        )

    @pytest.mark.parametrize("cutoff", [None, 1.0], ids=["exact", "cutoff"])
    @pytest.mark.parametrize("prefilter", [False, True], ids=["plain", "prefilter"])
    def test_the_pool_phase_round_trips(self, cutoff, prefilter):
        # A process-pool unit runs prepare here, the kernel phase on a
        # pickled payload elsewhere, and finish here: same values, same log.
        request = (0, [1, 2, 3, 1], cutoff)
        inline = RecordingCounting(DiscreteFrechet(), DistanceCache(), prefilter)
        split = RecordingCounting(DiscreteFrechet(), DistanceCache(), prefilter)
        context = split.batch_prepare(
            _SEQUENCES[0], [_SEQUENCES[i] for i in request[1]], cutoff,
            packed=StoreGather(_STORE, request[1]),
        )
        computed = compute_batch_groups(pickle.loads(pickle.dumps(context.payload())))
        assert split.batch_finish(context, computed).tolist() == _issue(inline, request)
        outcomes = []
        for recording in (inline, split):
            live = CountingDistance(DiscreteFrechet(), cache=DistanceCache(), prefilter=prefilter)
            recording.replay_into(live)
            outcomes.append((_counter_fingerprint(live.counter), _cache_fingerprint(live.cache)))
        assert outcomes[0] == outcomes[1]

    def test_a_second_request_raises(self):
        recording = RecordingCounting(DiscreteFrechet(), DistanceCache())
        _issue(recording, (0, [1, 2], 2.0))
        with pytest.raises(RuntimeError, match="exactly one batch"):
            _issue(recording, (0, [3], 2.0))
        with pytest.raises(RuntimeError, match="exactly one batch"):
            recording.batch_prepare(
                _SEQUENCES[0], [_SEQUENCES[3]], None, packed=StoreGather(_STORE, [3])
            )

    def test_replay_is_idempotent_per_recorder(self):
        # One recorder, one replay: the counter sees exactly the recorded
        # work, and a second independent recorder over the now-warm cache
        # classifies everything as hits.
        base = DistanceCache()
        live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=base)
        first = RecordingCounting(DiscreteFrechet(), base)
        _issue(first, (0, [1, 2], 2.0))
        first.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 0
        second = RecordingCounting(DiscreteFrechet(), base)
        _issue(second, (0, [1, 2], 2.0))
        second.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 2


class TestVerifyReplayEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        units=st.lists(st.lists(_verify_request, min_size=1, max_size=8), max_size=6),
        max_entries=st.sampled_from([None, 64]),
    )
    def test_units_replay_like_serial(self, units, max_entries):
        assert _drive_verify(units, max_entries, True) == _drive_verify(
            units, max_entries, False
        )

    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(_verify_request, max_size=30), max_entries=st.integers(2, 8))
    def test_eviction_order_matches_serial(self, requests, max_entries):
        units = [[request] for request in requests]
        assert _drive_verify(units, max_entries, True) == _drive_verify(
            units, max_entries, False
        )
