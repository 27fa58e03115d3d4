"""Recorded distance evaluation for parallel work units.

The parallel executors (:mod:`repro.core.executor`) run index probes and
chain verifications concurrently, but the framework's contract is strict:
whatever the execution substrate, a query must return *byte-identical
results and identical work counters* to the serial path.  Results are easy
-- every distance value is a pure function of its operands -- but the
counters are not: whether a distance request is a *fresh computation* or a
*cache hit* depends on the order in which earlier requests populated the
shared :class:`~repro.distances.cache.DistanceCache`, and concurrent units
racing on one cache would make that order (and therefore the accounting)
nondeterministic.

The resolution rests on one observation: the *request stream* of a work
unit -- which pairs it measures, with which cutoffs, in which order -- is a
pure function of the distance values, never of the cache state (a hit and a
fresh computation return the same number).  So each unit runs against a
read-only snapshot of the shared cache (plus, for a verification unit, a
**private overlay** of its own stores) and keeps a **log** of its requests;
when the executor is done, the logs are replayed serially, in unit order,
against the real cache and counters.  The replay performs no kernels --
every value is in the log -- it only re-derives the hit/fresh/prefilter
classification each request *would* have received under serial execution,
and applies the stores in serial order (which also reproduces the serial
cache content and eviction order).

Two recording front-ends exist, matching the two kinds of work unit:

* :class:`RecordingCounting` stands in for the index layer's
  :class:`~repro.indexing.stats.CountingDistance` in a probe unit -- the
  linear scan's ``(query, shape group)`` sweep, which issues exactly one
  ``batch`` request.  Its log is that one batch record: O(1) descriptors
  plus the value row, replayed with one bulk cache probe.
* :class:`RecordingVerifyCache` duck-types :class:`DistanceCache` for the
  verification step's request protocol
  (:class:`~repro.core.verification._Requests`); its log is columnar --
  preallocated NumPy columns appended with array writes, converted to
  Python scalars once and replayed under a single cache lock
  (:meth:`DistanceCache.replay_view`).

The reference semantics of a replay is the serial path itself: the same
request through a live :class:`~repro.indexing.stats.CountingDistance` (or,
for verification, a plain cache plus the stage's counter) must leave
identical values, counters, cache content and eviction order.

One documented inexactness remains: if the shared cache evicts entries
*mid-stage* (capacity reached while a query is executing), a unit may have
answered a request from an entry the serial run would already have evicted.
The replay then counts that request as a fresh computation with the
recorded value -- results stay exact, the counters may differ by the
handful of requests involved.  The matcher-sized default capacities make
this unreachable in practice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import Distance, as_array, validate_group_shape
from repro.distances.cache import DistanceCache, probe_row
from repro.distances.lower_bounds import combined_batch_bound
from repro.distances.rounding import bound_prunes
from repro.sequences.sequence import Sequence

_INF = float("inf")
_NAN = float("nan")


class _Overlay:
    """A verification unit's private write layer over a read-only base cache.

    ``lookup`` consults the overlay first (it holds the unit's most recent
    knowledge) and falls back to :meth:`DistanceCache.peek` on the base,
    which never mutates the base statistics.  ``store`` only ever writes the
    overlay -- itself an unbounded :class:`DistanceCache`, so entry
    semantics (exact values vs ``distance > cutoff`` lower bounds, no
    downgrades) are the cache's own.
    """

    __slots__ = ("base", "local")

    def __init__(self, base: Optional[DistanceCache]) -> None:
        self.base = base
        self.local = DistanceCache()

    def lookup(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        value = self.local.peek(first, second, cutoff)
        if value is None and self.base is not None:
            value = self.base.peek(first, second, cutoff)
        return value

    def store(
        self, first: Sequence, second: Sequence, value: float, cutoff: Optional[float] = None
    ) -> None:
        self.local.store(first, second, value, cutoff)


class _VerifyColumns:
    """Columnar storage for a verification unit's request stream.

    One row per request: a flag byte (bit 0: a cutoff applies), the pair
    references, and a ``(cutoff, value)`` float pair.  Hit/store rows are
    not distinguished -- the replay re-derives the classification against
    the real cache either way.
    """

    __slots__ = ("flags", "pairs", "floats", "size")

    _INITIAL = 128

    def __init__(self) -> None:
        self.flags = np.zeros(self._INITIAL, dtype=np.uint8)
        self.pairs = np.empty((self._INITIAL, 2), dtype=object)
        self.floats = np.zeros((self._INITIAL, 2), dtype=np.float64)
        self.size = 0

    def _grow(self) -> None:
        capacity = len(self.flags) * 2
        size = self.size
        flags = np.zeros(capacity, dtype=np.uint8)
        flags[:size] = self.flags[:size]
        self.flags = flags
        pairs = np.empty((capacity, 2), dtype=object)
        pairs[:size] = self.pairs[:size]
        self.pairs = pairs
        floats = np.zeros((capacity, 2), dtype=np.float64)
        floats[:size] = self.floats[:size]
        self.floats = floats

    def append(self, first, second, cutoff: Optional[float], value: float) -> None:
        row = self.size
        if row == len(self.flags):
            self._grow()
        floats = self.floats[row]
        if cutoff is None:
            floats[0] = _NAN
        else:
            self.flags[row] = 1
            floats[0] = cutoff
        floats[1] = value
        self.pairs[row, 0] = first
        self.pairs[row, 1] = second
        self.size = row + 1


class _NullReplayView:
    """Replay view over "no cache": every lookup misses, stores are dropped.

    Lets the replay loops stay branch-free on ``cache is None``: everything
    classifies as fresh, as it does on the serial path without a cache.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self) -> None:
        self.table: dict = {}
        self.hits = self.misses = 0

    def store_key(self, key, value, cutoff) -> None:
        return None


@contextmanager
def _replay_view(cache: Optional[DistanceCache]):
    if cache is None:
        yield _NullReplayView()
    else:
        with cache.replay_view() as view:
            yield view


class RecordingCounting:
    """A probe unit's stand-in for :class:`~repro.indexing.stats.CountingDistance`.

    A probe work unit issues exactly one ``batch`` request, and this records
    exactly that one; a second request raises :class:`RuntimeError`.  The
    request is classified against a read-only snapshot of the base cache,
    its prefilter bounds are evaluated where the serial ``CountingDistance``
    would evaluate them -- on cache misses only -- and the outcome is kept as
    one record for :meth:`replay_into`.  Nothing reads the unit's own stores
    (there is no later request), so none are made before the replay.
    """

    def __init__(
        self, inner: Distance, base: Optional[DistanceCache], prefilter: bool = False
    ) -> None:
        self.inner = inner
        self.prefilter = bool(prefilter)
        #: The base cache, read-only until the replay.
        self.cache = base
        self._requested = False
        self._record: Optional[tuple] = None

    def batch(self, query, items: TypingSequence, cutoff: Optional[float] = None, *, packed):
        """Recorded analogue of :meth:`CountingDistance.batch`.

        Structured as prepare / compute / finish so a process-pool work
        unit can run the pure compute phase in a child process (see
        :meth:`batch_prepare`); calling :meth:`batch` runs all three phases
        in this process, which is what thread-pool units do.
        """
        context = self.batch_prepare(query, items, cutoff, packed=packed)
        computed = compute_batch_groups(context.payload())
        return self.batch_finish(context, computed)

    def batch_prepare(self, query, items, cutoff, *, packed) -> "_BatchContext":
        """Cache lookups + shape grouping; returns the pure-compute payload.

        ``packed`` serves the operand tensors from a packed window layout,
        as in :meth:`CountingDistance.batch`.
        """
        if self._requested:
            raise RuntimeError("a RecordingCounting records exactly one batch request")
        self._requested = True
        values = np.empty(len(items), dtype=np.float64)
        query_array = as_array(query)
        pending: Optional[List[int]] = None
        item_keys: Optional[List[Optional[bytes]]] = None
        if isinstance(query, Sequence):
            item_keys = packed.content_keys(items)
            # One bulk row probe, the same lock-free read
            # ``DistanceCache.peek`` documents; an empty base (the common
            # cold probe) cannot answer and is skipped.
            base = self.cache
            if base is not None and base._entries:
                pending, _misses = probe_row(
                    base._entries, query.content_key, item_keys, cutoff, values
                )
        if pending is None:
            pending = list(range(len(items)))
        grouped: List[Tuple[List[int], object]] = []
        for shape, indexes in packed.group_positions(pending):
            validate_group_shape(self.inner, query_array, shape)
            grouped.append((indexes, packed.gather(indexes)))
        return _BatchContext(self, query, item_keys, cutoff, values, query_array, grouped)

    def batch_finish(
        self, context: "_BatchContext", computed: List[Tuple[np.ndarray, Optional[np.ndarray]]]
    ) -> np.ndarray:
        """Fold the computed group values and prune masks back in; keep the record.

        Vectorized scatters and one O(1) record, which keeps the result
        array *by reference* (callers treat batch results as read-only,
        which every index does).
        """
        values = context.values
        item_keys = context.item_keys
        # One prefilter code per item -- 0: no bound evaluated, 1: evaluated
        # but not pruned, 2: evaluated and pruned.
        codes: Optional[np.ndarray] = None
        for (indexes, _tensor), (group_values, group_pruned) in zip(context.grouped, computed):
            index_array = np.asarray(indexes, dtype=np.intp)
            values[index_array] = group_values
            if group_pruned is not None:
                if codes is None:
                    codes = np.zeros(len(values), dtype=np.int8)
                codes[index_array] = 1 + group_pruned
        query_key = None if item_keys is None else context.query.content_key
        if query_key is None:
            item_keys = [None] * len(values)
        self._record = (query_key, item_keys, context.cutoff, values, codes)
        return values

    def replay_into(self, counting) -> None:
        """Replay the recorded batch into the live ``CountingDistance``.

        Decides hit vs fresh vs prefilter-pruned exactly as the serial path
        would have -- against the *real* cache, which now includes the
        stores of every earlier unit -- and applies the stores in serial
        order under one lock acquisition.  No kernels run here.
        """
        if self._record is None:
            return
        with _replay_view(counting.cache) as view:
            fresh, hits, evaluated, pruned = _replay_batch_record(
                self._record, view, counting.prefilter
            )
        counter = counting.counter
        counter.total += fresh
        counter.cache_hits += hits
        counter.prefilter_evaluations += evaluated
        counter.prefilter_pruned += pruned


class _BatchContext:
    """State carried between :meth:`RecordingCounting.batch_prepare` and finish."""

    __slots__ = ("owner", "query", "item_keys", "cutoff", "values", "query_array", "grouped")

    def __init__(self, owner, query, item_keys, cutoff, values, query_array, grouped) -> None:
        self.owner = owner
        self.query = query
        #: Content keys by position; ``None`` when the query is uncacheable.
        self.item_keys = item_keys
        self.cutoff = cutoff
        self.values = values
        self.query_array = query_array
        self.grouped = grouped

    def payload(self) -> tuple:
        """The picklable pure-compute input for :func:`compute_batch_groups`."""
        return (
            self.owner.inner,
            self.query_array,
            [tensor for _indexes, tensor in self.grouped],
            self.cutoff,
            self.owner.prefilter,
        )


def compute_batch_groups(
    payload: tuple,
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Pure kernel phase of a batched probe: bounds + grouped DP sweeps.

    ``payload`` is ``(distance, query_array, tensors, cutoff, prefilter)``
    -- everything picklable, no cache, no counters -- so this function can
    run in a process-pool child exactly as it runs inline.  Each tensor is a
    ``(rows, length, dim)`` array.  Returns one ``(values, pruned)`` pair
    per tensor; ``pruned`` is the prefilter's mask (the rule of
    :func:`~repro.distances.rounding.bound_prunes`, as in the serial
    path), ``None`` when the prefilter did not run.  Pruned pairs get
    ``inf`` values, the same early-abandon contract as :meth:`Distance.batch`.
    """
    distance, query_array, tensors, cutoff, prefilter = payload
    results: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
    for tensor in tensors:
        pruned_mask: Optional[np.ndarray] = None
        values = np.empty(tensor.shape[0], dtype=np.float64)
        survivors = np.arange(tensor.shape[0])
        if prefilter and cutoff is not None:
            bounds = combined_batch_bound(distance, query_array, tensor)
            pruned_mask = bound_prunes(distance, bounds, cutoff, query_array, tensor)
            values[pruned_mask] = _INF
            survivors = np.nonzero(~pruned_mask)[0]
        if len(survivors):
            fresh = distance.compute_batch(
                query_array,
                tensor[survivors],
                None if cutoff is None else float(cutoff),
            )
            values[survivors] = fresh
        results.append((values, pruned_mask))
    return results


class RecordingVerifyCache:
    """A per-unit stand-in for the cache handed to chain verification.

    Verification's request protocol (:class:`~repro.core.verification.
    _Requests`) drives the cache through exactly two operations --
    ``lookup(first, second, cutoff)`` then, on a miss, ``store(first,
    second, value, cutoff)`` with the block engine's value -- and counts
    hits and computations itself.  This duck-type routes both through the
    unit overlay and logs the requests for :meth:`replay_into`.
    """

    def __init__(self, base: Optional[DistanceCache]) -> None:
        self._overlay = _Overlay(base)
        self._columns = _VerifyColumns()

    def lookup(
        self, first: Sequence, second: Sequence, cutoff: Optional[float] = None
    ) -> Optional[float]:
        value = self._overlay.lookup(first, second, cutoff=cutoff)
        if value is not None:
            self._columns.append(first, second, cutoff, value)
        return value

    def store(
        self, first: Sequence, second: Sequence, value: float, cutoff: Optional[float] = None
    ) -> None:
        self._overlay.store(first, second, value, cutoff=cutoff)
        self._columns.append(first, second, cutoff, value)

    def replay_into(self, cache: Optional[DistanceCache], counter) -> None:
        """Replay this unit's log into the real cache and ``counter``'s tallies."""
        _replay_verify_columns(self._columns, cache, counter)


def _replay_batch_record(record: tuple, view, prefilter: bool) -> Tuple[int, int, int, int]:
    """Replay one batch record; returns (fresh, hits, evaluated, pruned).

    Two phases, mirroring the serial ``CountingDistance.batch``: first
    every item is classified hit/pending against the real cache -- one bulk
    row probe, the single hottest replay path -- then the pending items
    apply their prefilter outcomes and stores, in the same request order and
    so the same eviction order.  An uncacheable query (``query_key is
    None``) classifies everything as pending without any lookups, exactly as
    per-item ``lookup`` calls would.
    """
    query_key, item_keys, cutoff, values, codes = record
    fresh = hits = pre_evaluated = pre_pruned = 0
    if query_key is None:
        pending = list(range(len(item_keys)))
    else:
        pending, misses = probe_row(
            view.table, query_key, item_keys, cutoff, np.empty(len(item_keys))
        )
        hits = len(item_keys) - len(pending)
        view.hits += hits
        view.misses += misses
    if pending:
        value_list = values.tolist()
        store = view.store_key
        code_list = None
        if prefilter and cutoff is not None and codes is not None:
            code_list = codes.tolist()
        for index in pending:
            code = 0 if code_list is None else code_list[index]
            if code:
                pre_evaluated += 1
            if code == 2:
                pre_pruned += 1
                value = _INF
            else:
                fresh += 1
                value = value_list[index]
            if item_keys[index] is not None:
                store((query_key, item_keys[index]), value, cutoff)
    return fresh, hits, pre_evaluated, pre_pruned


def _replay_verify_columns(
    columns: _VerifyColumns, cache: Optional[DistanceCache], counter
) -> None:
    """Re-run a verification unit's request stream against the real cache/counter.

    For every logged request the replay decides hit vs fresh exactly as the
    serial path would have, using the real cache state, and applies the
    stores in serial order.  Whole columns are converted to Python scalars
    up front, and all cache traffic of the log runs under one lock
    acquisition (:meth:`DistanceCache.replay_view`).
    """
    size = columns.size
    fresh = hits = 0
    with _replay_view(cache) as view:
        flags = columns.flags[:size].tolist()
        pair_rows = columns.pairs[:size].tolist()
        float_rows = columns.floats[:size].tolist()
        # The row loop runs once per recorded request, so lookups read the
        # view's raw table (same answers as ``view.lookup``; the tallies are
        # folded in at the end) and stores go through ``view.store_key`` --
        # the cache's own store rule and eviction.
        get, store = view.table.get, view.store_key
        for row in range(size):
            first, second = pair_rows[row]
            cutoff, value = float_rows[row]
            if not flags[row]:
                cutoff = None
            key = (first.content_key, second.content_key)
            entry = get(key)
            if entry is not None and (entry[1] or (cutoff is not None and entry[0] >= cutoff)):
                hits += 1
                continue
            fresh += 1
            store(key, value, cutoff)
        view.hits += hits
        view.misses += fresh
    counter.total += fresh
    counter.cache_hits += hits
