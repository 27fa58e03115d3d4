"""Columnar vs object record/replay equivalence.

The recording layer keeps two request-log formats (see
:mod:`repro.distances.recording`): the original one-tuple-per-request
``"object"`` log and the preallocated-numpy ``"columnar"`` log.  The object
format is the executable reference semantics; these tests drive random
request streams -- plain calls, bounded calls, batched probes, verify-cache
lookup/store sequences -- through both formats against identical base
caches and assert that the returned values, the replayed counter tallies,
and the resulting cache content (including insertion/eviction order on a
bounded cache) are indistinguishable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscreteFrechet, Sequence
from repro.core.verification import _VerificationCounter
from repro.distances.cache import DistanceCache
from repro.distances.recording import (
    LOG_FORMATS,
    RecordingCounting,
    RecordingVerifyCache,
    default_log_format,
)
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

#: One recorded request: ("call", i, j) | ("bounded", i, j, cutoff) |
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


def _drive_probe(requests, log_format, prefilter, max_entries, warm):
    """Record ``requests``, replay, return (values, counters, cache state)."""
    base = DistanceCache(max_entries=max_entries)
    if warm:
        base.seed(_SEQUENCES[0], _SEQUENCES[1], 0.25)
    recorder = RecordingCounting(
        DiscreteFrechet(), base, prefilter=prefilter, log_format=log_format
    )
    returned = []
    for request in requests:
        if request[0] == "call":
            returned.append(recorder(_operand(request[1]), _operand(request[2])))
        elif request[0] == "bounded":
            returned.append(
                recorder.bounded(_operand(request[1]), _operand(request[2]), request[3])
            )
        else:
            _kind, query_index, item_indexes, cutoff = request
            values = recorder.batch(
                _operand(query_index),
                [_operand(i) for i in item_indexes],
                cutoff=cutoff,
            )
            returned.extend(float(v) for v in values)
    live = CountingDistance(
        DiscreteFrechet(), DistanceCounter(), cache=base, prefilter=prefilter
    )
    recorder.replay_into(live)
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(base)


class TestProbeLogEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(_request, max_size=25),
        prefilter=st.booleans(),
        max_entries=st.one_of(st.none(), st.integers(2, 10)),
        warm=st.booleans(),
    )
    def test_columnar_matches_object_replay(
        self, requests, prefilter, max_entries, warm
    ):
        outcomes = {
            log_format: _drive_probe(requests, log_format, prefilter, max_entries, warm)
            for log_format in LOG_FORMATS
        }
        columnar, reference = outcomes["columnar"], outcomes["object"]
        assert columnar[0] == reference[0]  # returned values
        assert columnar[1] == reference[1]  # counter tallies
        assert columnar[2] == reference[2]  # cache content + order

    def test_replay_is_idempotent_per_recorder(self):
        # One recorder, one replay: the counter sees exactly the recorded
        # work, and a second independent recorder over the now-warm cache
        # classifies everything as hits.
        base = DistanceCache()
        first = RecordingCounting(DiscreteFrechet(), base, log_format="columnar")
        first(_SEQUENCES[0], _SEQUENCES[1])
        first.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
        live = CountingDistance(DiscreteFrechet(), DistanceCounter(), cache=base)
        first.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 0
        second = RecordingCounting(DiscreteFrechet(), base, log_format="columnar")
        second(_SEQUENCES[0], _SEQUENCES[1])
        second.bounded(_SEQUENCES[0], _SEQUENCES[2], 2.0)
        second.replay_into(live)
        assert live.counter.total == 2
        assert live.counter.cache_hits == 2


def _drive_serial(requests, prefilter, max_entries, warm):
    """The same requests straight through a live ``CountingDistance``."""
    cache = DistanceCache(max_entries=max_entries)
    if warm:
        cache.seed(_SEQUENCES[0], _SEQUENCES[1], 0.25)
    live = CountingDistance(
        DiscreteFrechet(), DistanceCounter(), cache=cache, prefilter=prefilter
    )
    returned = []
    for request in requests:
        if request[0] == "call":
            returned.append(live(_operand(request[1]), _operand(request[2])))
        elif request[0] == "bounded":
            returned.append(live.bounded(_operand(request[1]), _operand(request[2]), request[3]))
        else:
            _kind, query_index, item_indexes, cutoff = request
            values = live.batch(
                _operand(query_index), [_operand(i) for i in item_indexes], cutoff=cutoff
            )
            returned.extend(float(v) for v in values)
    return returned, _counter_fingerprint(live.counter), _cache_fingerprint(cache)


class TestReplayEqualsSerial:
    """One recorded unit, replayed, leaves what the serial path leaves: the
    replay's bulk row probes and routed stores against the live path's.

    The capacity is ``None`` or larger than the pool's 36 pairs: a cache
    that evicts *during* a unit is the recording layer's one documented
    inexactness (the unit may be answered by an entry serial had evicted).
    """

    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(_request, max_size=25),
        prefilter=st.booleans(),
        max_entries=st.sampled_from([None, 64]),
        warm=st.booleans(),
    )
    def test_columnar_replay_matches_serial(self, requests, prefilter, max_entries, warm):
        replayed = _drive_probe(requests, "columnar", prefilter, max_entries, warm)
        serial = _drive_serial(requests, prefilter, max_entries, warm)
        assert replayed[:2] == serial[:2]  # returned values, counter tallies
        # Content, not order: within one batch the live path stores the
        # prefilter-pruned items first, both replays store in item order.
        assert sorted(replayed[2][1]) == sorted(serial[2][1])


def _drive_verify(requests, log_format, max_entries):
    base = DistanceCache(max_entries=max_entries)
    recorder = RecordingVerifyCache(base, log_format=log_format)
    returned = []
    for first_index, second_index, cutoff, value in requests:
        first, second = _SEQUENCES[first_index], _SEQUENCES[second_index]
        cached = recorder.lookup(first, second, cutoff=cutoff)
        returned.append(cached)
        if cached is None:
            recorder.store(first, second, value, cutoff=cutoff)
    counter = _VerificationCounter()
    recorder.replay_into(base, counter)
    return returned, (counter.count, counter.cache_hits), _cache_fingerprint(base)


class TestVerifyLogEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(0, _POOL_SIZE - 1),
                st.integers(0, _POOL_SIZE - 1),
                st.one_of(st.none(), st.floats(0.1, 5.0)),
                st.floats(0.0, 10.0),
            ),
            max_size=30,
        ),
        max_entries=st.one_of(st.none(), st.integers(2, 8)),
    )
    def test_columnar_matches_object_replay(self, requests, max_entries):
        outcomes = {
            log_format: _drive_verify(requests, log_format, max_entries)
            for log_format in LOG_FORMATS
        }
        assert outcomes["columnar"] == outcomes["object"]


class TestLogFormatSelection:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
        assert default_log_format() == "columnar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "object")
        assert default_log_format() == "object"
        assert RecordingCounting(DiscreteFrechet(), None).log is not None

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "parquet")
        with pytest.raises(ValueError):
            default_log_format()

    def test_bad_explicit_format_rejected(self):
        with pytest.raises(ValueError):
            RecordingCounting(DiscreteFrechet(), None, log_format="binary")
