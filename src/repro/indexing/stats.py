"""Distance-evaluation accounting.

The paper's query-performance figures (8-11) report the *fraction of
distance computations* an index needs relative to a naive linear scan.
Wall-clock time would mix algorithmic behaviour with implementation details,
whereas distance counts are hardware-independent -- exactly what a
reproduction should compare.  Every index in :mod:`repro.indexing` therefore
routes its distance calls through a :class:`CountingDistance`, which tallies
them on a :class:`DistanceCounter`.

A :class:`DistanceCounter` is the one tally record of both query stages --
the index's long-lived counter for the probe (step 4), a fresh one per pass
for verification (step 5) -- and of the parallel executors' replay
(:mod:`repro.distances.recording`).  Its plain integer fields, named once by
:attr:`DistanceCounter.FIELDS`, are written as ``counter.<field> += n``.
``total`` counts fresh kernel executions, the quantity the paper's
pruning-ratio figures are defined over.  Requests the
:class:`~repro.distances.cache.DistanceCache` answered without computing
anything are ``cache_hits``, and lower bounds consulted in front of the
kernels (see :mod:`repro.distances.lower_bounds`; O(n) rather than O(nm))
are ``prefilter_evaluations``, of which ``prefilter_pruned`` settled their
pair without one -- both kept apart so ``total`` keeps meaning fresh work.
``kernel_calls`` counts kernel invocations, one per single, batched or
pair-batched request however many pairs it carries: the number that tells
a traversal that computes few distances from one that computes them in few
calls.  A span's work is read without touching the counter --
``mark = counter.mark()`` before, ``counter.since(mark)`` after -- and
:class:`~repro.core.queries.QueryStats` declares which of its fields each
stage's tallies fill.

Who consults bounds, and when, differs by index.  The **linear scan**
consults them per call, *after* the cache (cache -> bound -> DP): a pair is
``evaluated`` when it missed the cache, ``pruned`` when its bound exceeded
the cutoff (:func:`~repro.distances.rounding.prunes`), and a pruned pair is
remembered in the cache as ``distance > cutoff``.  The **reference net**
consults its per-query bound table *first* (table -> cache -> DP; a table
entry is free to recompute, so settled pairs are neither probed nor
stored): a frontier pair is
``evaluated`` when the traversal classifies it from its table entry, and
``pruned`` when that settles it without a distance -- rejected with its
subtree, or skipped and routed by the bound (see
:meth:`repro.indexing.reference_net.ReferenceNet._frontier`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Hashable, List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import (
    Distance,
    SequenceLike,
    as_array,
    group_cutoff,
    validate_group_shape,
)
from repro.distances.cache import DistanceCache, PairKey
from repro.distances.lower_bounds import combined_batch_bound, combined_bound
from repro.distances.rounding import bound_prunes
from repro.sequences.sequence import Sequence

_INF = float("inf")


@dataclass
class IndexStats:
    """Accounting for incremental index updates.

    Every :class:`~repro.indexing.base.MetricIndex` carries one of these as
    ``update_stats``; the incremental entry points
    (:meth:`~repro.indexing.base.MetricIndex.insert` /
    :meth:`~repro.indexing.base.MetricIndex.delete`) count here, as
    ``stats.<field> += 1`` like every other tally; a snapshot stores
    :func:`dataclasses.asdict` of it.

    Attributes
    ----------
    inserts / deletes:
        Incremental operations applied over the index lifetime.
    rebuilds:
        Bulk rebuilds performed (the reference net rebuilds when its root
        is deleted).
    last_rebuild_reason:
        Why the most recent rebuild happened (e.g. ``"root deletion"``).
    """

    inserts: int = 0
    deletes: int = 0
    rebuilds: int = 0
    last_rebuild_reason: Optional[str] = None

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "IndexStats":
        """Inverse of :func:`dataclasses.asdict` (used by snapshot restore).

        Older snapshots also carry a ``pending_updates`` count; it is ignored.
        """
        stats = cls()
        stats.inserts = int(payload.get("inserts", 0))
        stats.deletes = int(payload.get("deletes", 0))
        stats.rebuilds = int(payload.get("rebuilds", 0))
        reason = payload.get("last_rebuild_reason")
        stats.last_rebuild_reason = None if reason is None else str(reason)
        return stats


class DistanceCounter:
    """The work tallies of one query stage: plain integer fields named by :attr:`FIELDS`.

    A tally is written as ``counter.<field> += n`` and the work of a span
    read as ``counter.since(mark)``; the module docstring says what each
    field counts.
    """

    FIELDS = ("total", "cache_hits", "prefilter_evaluations", "prefilter_pruned", "kernel_calls")
    __slots__ = FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every tally."""
        for name in self.FIELDS:
            setattr(self, name, 0)

    def mark(self) -> Tuple[int, ...]:
        """The tallies as they stand, for a later :meth:`since`."""
        return tuple(getattr(self, name) for name in self.FIELDS)

    def since(self, mark: Tuple[int, ...]) -> "DistanceCounter":
        """The work tallied since ``mark``, as a counter of its own."""
        work = DistanceCounter()
        for name, before in zip(self.FIELDS, mark):
            setattr(work, name, getattr(self, name) - before)
        return work

    def __repr__(self) -> str:
        tallies = ", ".join(f"{name}={getattr(self, name)}" for name in self.FIELDS)
        return f"DistanceCounter({tallies})"


def first_occurrences(
    keys: TypingSequence[Optional[Hashable]],
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Positions of ``keys`` as ``(probed, unkeyed, repeats, origins)``.

    The one statement of "same content, one computation": whoever measures
    many pairs in one request (:meth:`CountingDistance.pairs`, the reference
    net's build) computes the first occurrence of a key and answers the
    later ones from it.  ``probed`` holds the first occurrence of every distinct key, ``unkeyed``
    the ``None`` entries, ``repeats`` every later occurrence of a key and
    ``origins`` -- parallel to it -- where that key occurred first.
    """
    count = len(keys)
    if None not in keys and len(set(keys)) == count:
        return list(range(count)), [], [], []
    first: Dict[Hashable, int] = {}
    probed: List[int] = []
    unkeyed: List[int] = []
    repeats: List[int] = []
    origins: List[int] = []
    for position, key in enumerate(keys):
        if key is None:
            unkeyed.append(position)
            continue
        origin = first.setdefault(key, position)
        if origin == position:
            probed.append(position)
        else:
            repeats.append(position)
            origins.append(origin)
    return probed, unkeyed, repeats, origins


class CountingDistance:
    """Wrap a :class:`~repro.distances.base.Distance` to count evaluations.

    The wrapper is intentionally *not* a :class:`Distance` subclass: indexes
    call it like a function and occasionally need the underlying measure's
    metadata, which stays reachable through :attr:`inner`.

    When a :class:`~repro.distances.cache.DistanceCache` is attached, pairs
    of :class:`~repro.sequences.sequence.Sequence` payloads are looked up
    before computing; hits are recorded on the counter's separate cache-hit
    tally and fresh results are stored back into the cache.

    With ``prefilter=True``, the cutoff-carrying paths (:meth:`bounded`,
    :meth:`batch`) additionally evaluate the registered lower bounds of
    :mod:`repro.distances.lower_bounds` before running a kernel: a bound
    beyond the cutoff settles the pair as "outside" for the cost of an O(n)
    scan, recorded on the counter's prefilter tallies (and, when a cache is
    attached, remembered as a ``distance > cutoff`` entry).
    """

    def __init__(
        self,
        inner: Distance,
        counter: Optional[DistanceCounter] = None,
        cache: Optional[DistanceCache] = None,
        prefilter: bool = False,
    ) -> None:
        self.inner = inner
        self.counter = counter if counter is not None else DistanceCounter()
        self.cache = cache
        self.prefilter = bool(prefilter)

    @property
    def name(self) -> str:
        """Name of the wrapped distance."""
        return self.inner.name

    @property
    def is_metric(self) -> bool:
        """Whether the wrapped distance is a metric."""
        return self.inner.is_metric

    def __call__(self, first: SequenceLike, second: SequenceLike) -> float:
        if self.cache is not None and DistanceCache.cacheable(first, second):
            cached = self.cache.lookup(first, second)
            if cached is not None:
                self.counter.cache_hits += 1
                return cached
            value = self.inner(first, second)
            self._count_single()
            self.cache.store(first, second, value)
            return value
        self._count_single()
        return self.inner(first, second)

    def _count_single(self) -> None:
        """One pair computed by one kernel call."""
        self.counter.total += 1
        self.counter.kernel_calls += 1

    def bounded(self, first: SequenceLike, second: SequenceLike, cutoff: float) -> float:
        """Early-abandoning variant; see :meth:`Distance.bounded`.

        Cache entries recorded here may be lower bounds rather than exact
        values (when the kernel abandoned or a prefilter bound pruned); the
        cache keeps the distinction.
        """
        cacheable = self.cache is not None and DistanceCache.cacheable(first, second)
        if cacheable:
            cached = self.cache.lookup(first, second, cutoff=cutoff)
            if cached is not None:
                self.counter.cache_hits += 1
                return cached
        if self.prefilter:
            a, b = as_array(first), as_array(second)
            bound = combined_bound(self.inner, a, b)
            pruned = bool(bound_prunes(self.inner, bound, cutoff, a, b[None]))
            self.counter.prefilter_evaluations += 1
            self.counter.prefilter_pruned += pruned
            if pruned:
                if cacheable:
                    self.cache.store(first, second, _INF, cutoff=cutoff)
                return _INF
        value = self.inner.bounded(first, second, cutoff)
        self._count_single()
        if cacheable:
            self.cache.store(first, second, value, cutoff=cutoff)
        return value

    def batch(
        self,
        query: SequenceLike,
        items: TypingSequence[SequenceLike],
        cutoff=None,
        *,
        packed,
    ) -> np.ndarray:
        """Counted, cached, prefiltered :meth:`Distance.batch`.

        One bulk cache probe classifies the row first; the remaining pairs
        are grouped by shape, prefiltered (when enabled and a cutoff is
        given) with one vectorized bound evaluation per group, and the
        survivors go through the batched kernels in one call per group.  The
        returned array obeys the same contract as :meth:`Distance.batch`;
        ``cutoff`` may be one scalar or a per-item vector.  All of a call's
        cache lookups precede all of its stores, and the stores happen in
        item order.

        ``packed`` supplies the operand arrays from a packed window layout
        (a :class:`~repro.sequences.packed.StoreGather`): position ``i`` of
        ``items`` must be backed by position ``i`` of the gather.  Every
        index packs its items on insertion, so no per-call coercion or
        stacking happens here.
        """
        values = np.empty(len(items), dtype=np.float64)
        query_array = as_array(query)
        cache = self.cache
        cacheable_query = cache is not None and isinstance(query, Sequence)
        item_keys: List[Optional[bytes]] = []
        if cacheable_query:
            # All lookups precede all stores in a batch, so the whole row is
            # classified by one bulk probe (:meth:`DistanceCache.probe_row`)
            # over content keys -- the scan's packed layout keeps them beside
            # its rows -- instead of a cache call per item; the hit/miss
            # statistics and the classifications are identical.
            item_keys = packed.content_keys(items)
            pending = cache.probe_row(query.content_key, item_keys, cutoff, values)
            if len(pending) != len(items):
                self.counter.cache_hits += len(items) - len(pending)
        else:
            pending = list(range(len(items)))
        if not pending:
            return values

        shape_groups = packed.group_positions(pending)
        for shape, _indexes in shape_groups:
            validate_group_shape(self.inner, query_array, shape)
        for _shape, indexes in shape_groups:
            tensor = packed.gather(indexes)
            survivors = indexes
            thresholds = group_cutoff(cutoff, indexes)
            if self.prefilter and cutoff is not None:
                bounds = combined_batch_bound(self.inner, query_array, tensor)
                pruned_mask = bound_prunes(self.inner, bounds, thresholds, query_array, tensor)
                pruned_count = int(np.count_nonzero(pruned_mask))
                self.counter.prefilter_evaluations += len(indexes)
                self.counter.prefilter_pruned += pruned_count
                if pruned_count:
                    index_array = np.asarray(indexes, dtype=np.intp)
                    values[index_array[pruned_mask]] = _INF
                    keep = np.nonzero(~pruned_mask)[0]
                    survivors = index_array[keep]
                    tensor = tensor[keep]
                    if np.ndim(thresholds) != 0:
                        thresholds = thresholds[keep]
            if not len(survivors):
                continue
            values[survivors] = self.inner.compute_batch(query_array, tensor, thresholds)
            self.counter.total += len(survivors)
            self.counter.kernel_calls += 1
        if cacheable_query and cutoff is None:
            # Exact values only: one bulk write, in item order.
            stored = [index for index in pending if item_keys[index] is not None]
            cache.store_many(
                list(zip(repeat(query.content_key), map(item_keys.__getitem__, stored))),
                values[stored].tolist(),
            )
        elif cacheable_query:
            # One bulk store under a single lock, in item order -- the order
            # the unit-log replay stores in (:mod:`repro.distances.recording`),
            # so the cache's insertion order, which eviction makes visible,
            # is the same under every executor.  A pruned pair's ``inf``
            # becomes the lower bound ``distance > cutoff``.
            value_list = values.tolist()
            if np.ndim(cutoff) == 0:
                cutoffs = repeat(float(cutoff), len(pending))
            else:
                cutoffs = [float(cutoff[index]) for index in pending]
            with cache.replay_view() as view:
                store = view.store
                for index, item_bound in zip(pending, cutoffs):
                    if item_keys[index] is not None:
                        store(query, items[index], value_list[index], item_bound)
        return values

    def pairs(
        self,
        keys: TypingSequence[Optional[PairKey]],
        compute: Callable[[np.ndarray], Tuple[np.ndarray, int]],
    ) -> np.ndarray:
        """Counted, cached distances of many unrelated pairs at once.

        The pair-batch counterpart of :meth:`batch`, for a traversal that
        measures a whole level of many queries in one go: ``keys[i]`` is pair
        ``i``'s cache key (``None`` when either operand is uncacheable) and
        ``compute(positions)`` returns the batch-form distances of the named
        pairs plus the number of kernel calls it took -- the caller owns the
        operands and their shape groups, and must touch neither the cache
        nor the counter.

        Pairs are settled in position order, as requesting them one by one
        would: the first occurrence of a key is looked up and, on a miss,
        computed and stored; a later occurrence of the same key is a cache
        hit that takes the first one's value.  Keyless pairs are computed,
        never looked up or stored, and without a cache every pair is.  All
        lookups precede all stores, and the stores happen in position order.
        """
        count = len(keys)
        values = np.empty(count, dtype=np.float64)
        cache = self.cache
        stored: List[int] = []
        repeats: List[int] = []
        if cache is None:
            computed = list(range(count))
        else:
            probed, unkeyed, repeats, origins = first_occurrences(keys)
            found = cache.probe_pairs(
                keys if len(probed) == count else [keys[position] for position in probed],
                len(repeats),
            )
            if found.count(None) == len(found):
                stored = probed
            else:
                for position, value in zip(probed, found):
                    if value is None:
                        stored.append(position)
                    else:
                        values[position] = value
            self.counter.cache_hits += len(probed) - len(stored) + len(repeats)
            computed = sorted(stored + unkeyed) if unkeyed else stored
        if computed:
            positions = np.asarray(computed, dtype=np.intp)
            values[positions], kernel_calls = compute(positions)
            self.counter.total += len(computed)
            self.counter.kernel_calls += kernel_calls
        if stored:
            cache.store_many([keys[position] for position in stored], values[stored].tolist())
        if repeats:
            values[repeats] = values[origins]
        return values

    def __repr__(self) -> str:
        return f"CountingDistance({self.inner!r}, total={self.counter.total})"
