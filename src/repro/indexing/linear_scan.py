"""Naive linear-scan "index".

The linear scan computes the distance from the query to every stored item.
It is the correctness oracle for the smarter indexes and the denominator of
the paper's query-cost figures: an index that needs ``c`` distance
computations for a query over ``n`` items achieves a pruning ratio of
``1 - c / n`` (Equation 5's ``alpha``).

Every item is packed on insertion (:class:`~repro.sequences.packed.PackedWindowStore`),
so a search is one grouped kernel sweep per query over the packed window
tensors; an item that cannot be packed is refused by :meth:`LinearScanIndex.add`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.distances.base import Distance, SequenceLike
from repro.distances.cache import DistanceCache
from repro.distances.recording import compute_batch_groups
from repro.exceptions import IndexError_
from repro.indexing.base import MetricIndex, QueryWorkUnit, RangeMatch
from repro.indexing.stats import DistanceCounter
from repro.sequences.packed import PackedWindowStore, StoreGather


class LinearScanIndex(MetricIndex):
    """Exhaustive scan over all stored items.

    Works with *any* distance, metric or not, which makes it the only index
    in this library usable with DTW, EDR, or LCSS.  Range queries use the
    early-abandoning batch kernels: the scan only needs each item's exact
    distance when it is within the radius, so the DP kernels may give up as
    soon as the radius is provably unreachable.

    With ``prefilter=True`` the registered lower bounds of
    :mod:`repro.distances.lower_bounds` run in front of every kernel: pairs
    whose bound already exceeds the radius are settled for O(n) instead of
    O(nm), counted on the counter's prefilter tallies.  Prefiltering never
    changes the result set (bounds are admissible); it is off by default so
    the bare index keeps the one-kernel-per-item accounting the paper's
    figures normalise against, and the matcher turns it on via
    :attr:`~repro.core.config.MatcherConfig.prefilter`.

    :meth:`batch_range_query` is genuinely batched: stored items are packed
    by shape on insertion and each group's distances are computed by one
    batched kernel call (see
    :meth:`~repro.distances.base.Distance.compute_batch`), which is
    substantially faster than per-pair calls for the elastic measures.
    Under a parallel executor every ``(query, shape group)`` pair becomes
    its own work unit -- one grouped kernel sweep -- and the units carry a
    picklable remote phase, so a process pool receives chunked batches of
    window tensors and returns raw kernel values while cache lookups and
    accounting stay in the parent.
    """

    index_name = "linear-scan"

    #: The scan keeps no structure beyond the item dict, so inserts and
    #: deletes are plain dict operations and the index is never stale.
    staleness_policy = "stateless scan; inserts/deletes are O(1), never rebuilds"

    def __init__(
        self,
        distance: Distance,
        counter: Optional[DistanceCounter] = None,
        cache: Optional[DistanceCache] = None,
        prefilter: bool = False,
    ) -> None:
        super().__init__(
            distance, counter, require_metric=False, cache=cache, prefilter=prefilter
        )
        self._packed = PackedWindowStore()

    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")
        # Packing coerces the item, so an unusable payload is refused here,
        # before anything is registered.
        self._packed.add(key, item)
        self._items[key] = item
        return key

    def remove(self, key: Hashable) -> object:
        try:
            item = self._items.pop(key)
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None
        self._packed.remove(key)
        return item

    def _restore_structure(self, state: dict) -> None:
        self._packed = PackedWindowStore()
        for key, item in self._items.items():
            self._packed.add(key, item)

    def _batch_range_query(
        self, queries: List[SequenceLike], radius: float, bounds=None
    ) -> List[List[RangeMatch]]:
        """One grouped kernel sweep per query.

        Per query: cache lookups, then one vectorized lower-bound pass (when
        prefiltering is enabled), then one batched kernel per same-shape
        group of stored items; matches come back in insertion order.
        """
        keys = list(self._items.keys())
        items = [self._items[key] for key in keys]
        packed = StoreGather(self._packed, keys)
        results: List[List[RangeMatch]] = []
        for query in queries:
            matches: List[RangeMatch] = []
            if items:
                values = self._counting.batch(query, items, cutoff=radius, packed=packed)
                for key, item, value in zip(keys, items, values):
                    if value <= radius:
                        matches.append(RangeMatch(key, item, float(value)))
            results.append(matches)
        return results

    def query_work_units(
        self, queries: List[SequenceLike], radius: float
    ) -> List[QueryWorkUnit]:
        """One work unit per ``(query, shape group)``: a single kernel sweep.

        Each unit runs cache lookups over its group, prefilters and sweeps
        the pending pairs with one batched kernel, and reports matches
        keyed by scan position so the merged result reproduces the serial
        insertion order.  The pure kernel phase is exposed as a picklable
        remote call (:func:`~repro.distances.recording.compute_batch_groups`)
        for the process executor.
        """
        keys = list(self._items.keys())
        items = [self._items[key] for key in keys]
        positions: dict = {}
        for scan_position, key in enumerate(keys):
            positions.setdefault(self._packed.shape_of(key), []).append(scan_position)
        # One gather per group, shared by every query's unit: its memoized
        # content-key row is then built once per probe, not once per unit.
        groups = []
        for shape, scan_positions in positions.items():
            group_keys = [keys[i] for i in scan_positions]
            group_items = [items[i] for i in scan_positions]
            gather = StoreGather(self._packed, group_keys)
            groups.append((shape, scan_positions, group_keys, group_items, gather))

        units: List[QueryWorkUnit] = []
        for position, query in enumerate(queries):
            try:
                query_length = len(query)
            except TypeError:
                query_length = 1
            for shape, scan_positions, group_keys, group_items, group_packed in groups:
                # Scheduling weight: windows x DP cells (window length x
                # query length) -- proportional to the group's kernel work.
                cost = float(len(scan_positions)) * float(shape[0]) * float(query_length)

                def matches_from(values, group_keys=group_keys, group_items=group_items,
                                 scan_positions=scan_positions):
                    found = []
                    for scan_position, key, item, value in zip(
                        scan_positions, group_keys, group_items, values
                    ):
                        if value <= radius:
                            found.append((scan_position, RangeMatch(key, item, float(value))))
                    return found

                def search(counting, query=query, group_items=group_items,
                           matches_from=matches_from, group_packed=group_packed):
                    values = counting.batch(
                        query, group_items, cutoff=radius, packed=group_packed
                    )
                    return matches_from(values)

                def prepare(counting, query=query, group_items=group_items,
                            group_packed=group_packed):
                    context = counting.batch_prepare(
                        query, group_items, radius, packed=group_packed
                    )
                    return context, context.payload()

                def finish(counting, context, out, matches_from=matches_from):
                    values = counting.batch_finish(context, out)
                    return matches_from(values)

                units.append(
                    QueryWorkUnit(
                        position=position,
                        search=search,
                        prepare=prepare,
                        remote=compute_batch_groups,
                        finish=finish,
                        label=f"{self.index_name} {shape}",
                        cost=cost,
                    )
                )
        return units
