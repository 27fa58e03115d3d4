"""Record/replay equals the serial path.

Parallel work units record their distance requests against a private
overlay (:mod:`repro.distances.recording`) and are replayed serially
afterwards.  The contract is the serial path itself: the same request
stream through a live ``CountingDistance`` (probe units), or through a
plain ``DistanceCache`` plus the verification counter (verification
units), must return the same values and leave the same counters, cache
content, insertion (= eviction) order and eviction count.

Units run one after another, each recorded against the cache its
predecessors' replays left behind.  A cache that evicts *inside* a
multi-request unit is the recording layer's one documented inexactness
(the unit may be answered from an entry serial had already evicted), so
small capacities drive single-request units -- every request may still
evict -- and multi-request units run against caches that never fill.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscreteFrechet, Sequence
from repro.core.verification import _measure, _VerificationCounter
from repro.distances.cache import DistanceCache
from repro.distances.recording import RecordingCounting, RecordingVerifyCache
from repro.indexing.stats import CountingDistance, DistanceCounter

#: A small operand pool: repeats across requests are what make cache hits,
#: no-downgrade upgrades, and evictions actually happen in the streams.
_POOL_SIZE = 6


def _make_pool():
    generator = np.random.default_rng(7)
    pool = [
        Sequence.from_values(generator.normal(size=5), seq_id=f"s{i}")
        for i in range(_POOL_SIZE)
    ]
    # One raw array: not cacheable, exercises the kind=0 log rows.
    raw = generator.normal(size=5)
    return pool, raw


_SEQUENCES, _RAW = _make_pool()

#: One probe request: ("call", i, j) | ("bounded", i, j, cutoff) |
#: ("batch", i, [j...], cutoff_or_None).  Indexes < 0 pick the raw array.
_request = st.one_of(
    st.tuples(
        st.just("call"),
        st.integers(-1, _POOL_SIZE - 1),
        st.integers(-1, _POOL_SIZE - 1),
    ),
    st.tuples(
        st.just("bounded"),
        st.integers(-1, _POOL_SIZE - 1),
        st.integers(-1, _POOL_SIZE - 1),
        st.floats(0.1, 5.0),
    ),
    st.tuples(
        st.just("batch"),
        st.integers(0, _POOL_SIZE - 1),
        st.lists(st.integers(0, _POOL_SIZE - 1), min_size=1, max_size=5),
        st.one_of(st.none(), st.floats(0.1, 5.0)),
    ),
)

#: One verification request: (i, j, radius).
_verify_request = st.tuples(
    st.integers(0, _POOL_SIZE - 1), st.integers(0, _POOL_SIZE - 1), st.floats(0.1, 5.0)
)


def _operand(index):
    return _RAW if index < 0 else _SEQUENCES[index]


#: The cache holds content keys, not operands; this names them again.
_ID_OF_KEY = {sequence.content_key: sequence.seq_id for sequence in _SEQUENCES}


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
    """Send one probe request through ``counting``; the values it returned."""
    if request[0] == "call":
        return [counting(_operand(request[1]), _operand(request[2]))]
    if request[0] == "bounded":
        return [counting.bounded(_operand(request[1]), _operand(request[2]), request[3])]
    _kind, query_index, item_indexes, cutoff = request
    values = counting.batch(
        _operand(query_index), [_operand(i) for i in item_indexes], cutoff=cutoff
    )
    return [float(v) for v in values]


def _drive_probe(units, prefilter, max_entries, warm, recorded):
    """Run ``units`` serially or recorded + replayed unit by unit."""
    cache = DistanceCache(max_entries=max_entries)
    if warm:
        cache.seed(_SEQUENCES[0], _SEQUENCES[1], 0.25)
    live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=cache, prefilter=prefilter)
    returned = []
    for unit in units:
        counting = RecordingCounting(DiscreteFrechet(), cache, prefilter) if recorded else live
        for request in unit:
            returned.extend(_issue(counting, request))
        if recorded:
            counting.replay_into(live)
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(cache)


def _drive_verify(units, max_entries, recorded):
    cache = DistanceCache(max_entries=max_entries)
    counter = _VerificationCounter()
    returned = []
    for unit in units:
        target = RecordingVerifyCache(cache) if recorded else cache
        unit_counter = _VerificationCounter() if recorded else counter
        for first, second, radius in unit:
            returned.append(
                _measure(
                    DiscreteFrechet(),
                    _SEQUENCES[first],
                    _SEQUENCES[second],
                    radius,
                    unit_counter,
                    target,
                )
            )
        if recorded:
            target.replay_into(cache, counter)
    return returned, (counter.count, counter.cache_hits), _cache_fingerprint(cache)


class TestProbeReplayEqualsSerial:
    @settings(max_examples=60, deadline=None)
    @given(
        units=st.lists(st.lists(_request, min_size=1, max_size=8), max_size=6),
        prefilter=st.booleans(),
        max_entries=st.sampled_from([None, 64]),
        warm=st.booleans(),
    )
    def test_units_replay_like_serial(self, units, prefilter, max_entries, warm):
        # The capacity exceeds the pool's 36 pairs: nothing evicts mid-unit.
        assert _drive_probe(units, prefilter, max_entries, warm, True) == _drive_probe(
            units, prefilter, max_entries, warm, False
        )

    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(_request, max_size=30),
        prefilter=st.booleans(),
        max_entries=st.integers(2, 10),
        warm=st.booleans(),
    )
    def test_eviction_order_matches_serial(self, requests, prefilter, max_entries, warm):
        units = [[request] for request in requests]
        assert _drive_probe(units, prefilter, max_entries, warm, True) == _drive_probe(
            units, prefilter, max_entries, warm, False
        )

    def test_replay_is_idempotent_per_recorder(self):
        # One recorder, one replay: the counter sees exactly the recorded
        # work, and a second independent recorder over the now-warm cache
        # classifies everything as hits.
        base = DistanceCache()
        first = RecordingCounting(DiscreteFrechet(), base)
        first(_SEQUENCES[0], _SEQUENCES[1])
        first.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
        live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=base)
        first.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 0
        second = RecordingCounting(DiscreteFrechet(), base)
        second(_SEQUENCES[0], _SEQUENCES[1])
        second.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
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
