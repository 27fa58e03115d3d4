"""Reference-based indexing (Venkateswaran et al., VLDB 2006 / VLDB J. 2008).

The second baseline of the paper's experiments: pick ``k`` reference objects,
pre-compute the distance from every database item to every reference, and at
query time use the triangle inequality to prune (or accept) items without
computing their distance to the query:

* lower bound:  ``max_r | d(Q, r) - d(item, r) |``  -- if it exceeds the
  query radius the item cannot match;
* upper bound:  ``min_r ( d(Q, r) + d(item, r) )``  -- if it is within the
  radius the item surely matches.

Only items whose bounds straddle the radius need an exact distance
computation.  Reference selection strategies:

``select_max_variance`` (MV)
    Greedy selection of the references whose distances to a data sample have
    the largest variance -- the strategy the paper uses because it needs no
    training queries.
``select_max_pruning`` (MP)
    Greedy selection maximising the number of sample (query, item) pairs
    pruned -- closer to Venkateswaran et al.'s Maximum Pruning, which needs
    a query sample and is correspondingly more expensive to build.

The main drawback the paper highlights is space: the index stores ``n * k``
distances, so matching the reference net's linear footprint allows only a
handful of references (MV-5), while generous configurations (MV-50, MV-20)
cost an order of magnitude more memory.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence as TypingSequence

import numpy as np

from repro.distances.base import Distance, SequenceLike
from repro.distances.cache import DistanceCache
from repro.exceptions import IndexError_
from repro.indexing.base import MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter


def select_max_variance(
    items: TypingSequence[object],
    distance: Distance,
    count: int,
    sample_size: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Maximum-Variance reference selection.

    Returns the indexes (into ``items``) of ``count`` references, chosen
    greedily as the items whose distances to a random data sample have the
    largest variance.  High-variance references spread the data over a wide
    distance range, which tightens the triangle-inequality bounds.
    """
    if count < 1:
        raise IndexError_(f"count must be >= 1, got {count}")
    if not items:
        raise IndexError_("cannot select references from an empty collection")
    generator = rng or np.random.default_rng(0)
    count = min(count, len(items))
    sample_indexes = generator.choice(
        len(items), size=min(sample_size, len(items)), replace=False
    )
    sample = [items[index] for index in sample_indexes]
    variances = np.empty(len(items), dtype=np.float64)
    for index, candidate in enumerate(items):
        values = np.fromiter(
            (distance(candidate, other) for other in sample),
            dtype=np.float64,
            count=len(sample),
        )
        variances[index] = float(np.var(values))
    order = np.argsort(variances)[::-1]
    return [int(index) for index in order[:count]]


def select_max_pruning(
    items: TypingSequence[object],
    distance: Distance,
    count: int,
    sample_queries: TypingSequence[object],
    radius: float,
    candidate_pool: int = 50,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Maximum-Pruning reference selection (needs a query sample).

    Greedily picks references that maximise the number of (query, item)
    pairs pruned by the lower bound at the given ``radius``.  The candidate
    pool is sampled to keep the training cost manageable, mirroring the
    paper's remark that MP needs a training step the reference net avoids.
    """
    if count < 1:
        raise IndexError_(f"count must be >= 1, got {count}")
    if not items:
        raise IndexError_("cannot select references from an empty collection")
    if not sample_queries:
        raise IndexError_("Maximum-Pruning selection needs at least one sample query")
    generator = rng or np.random.default_rng(0)
    count = min(count, len(items))
    pool_indexes = generator.choice(
        len(items), size=min(candidate_pool, len(items)), replace=False
    )

    # Pre-compute candidate-to-item and candidate-to-query distances.
    item_distances: Dict[int, np.ndarray] = {}
    query_distances: Dict[int, np.ndarray] = {}
    for index in pool_indexes:
        candidate = items[index]
        item_distances[int(index)] = np.fromiter(
            (distance(candidate, other) for other in items), dtype=np.float64, count=len(items)
        )
        query_distances[int(index)] = np.fromiter(
            (distance(candidate, query) for query in sample_queries),
            dtype=np.float64,
            count=len(sample_queries),
        )

    selected: List[int] = []
    pruned = np.zeros((len(sample_queries), len(items)), dtype=bool)
    for _ in range(count):
        best_index = None
        best_gain = -1
        for index in pool_indexes:
            index = int(index)
            if index in selected:
                continue
            bounds = np.abs(
                query_distances[index][:, None] - item_distances[index][None, :]
            )
            newly = np.logical_and(bounds > radius, np.logical_not(pruned))
            gain = int(np.count_nonzero(newly))
            if gain > best_gain:
                best_gain = gain
                best_index = index
        if best_index is None:
            break
        selected.append(best_index)
        bounds = np.abs(
            query_distances[best_index][:, None] - item_distances[best_index][None, :]
        )
        pruned |= bounds > radius
    return selected


class ReferenceIndex(MetricIndex):
    """Reference-based metric index with pluggable reference selection.

    Parameters
    ----------
    distance:
        A metric distance measure.
    num_references:
        How many references to keep (``k``).  Space grows as ``n * k``.
    selector:
        Either ``"max_variance"`` (default), or a callable
        ``(items, distance, count) -> list of item indexes`` for custom
        strategies (``select_max_pruning`` can be adapted via a lambda).
    counter:
        Optional shared distance counter.

    Notes
    -----
    References are (re)selected lazily on the first query after the content
    changed, so bulk loading does not pay the selection cost repeatedly.
    Pre-computing the reference distances of freshly inserted items is part
    of index construction and is *not* charged to the query-time counter.
    """

    index_name = "reference-based"

    #: Inserts extend the distance matrix against the *current* references
    #: in place; the references themselves are only re-elected (a bulk
    #: rebuild, lazily on the next query) once the updates absorbed since
    #: the last election exceed ``reelect_after`` -- stale references never
    #: threaten correctness (the triangle-inequality bounds stay admissible
    #: for any reference set), only pruning power.
    staleness_policy = (
        "inserts/deletes absorbed against current references; re-elects "
        "references after `reelect_after` pending updates (default "
        "max(16, n/4) at build time), lazily on the next query"
    )

    def __init__(
        self,
        distance: Distance,
        num_references: int = 5,
        selector: "str | Callable" = "max_variance",
        counter: Optional[DistanceCounter] = None,
        selection_sample_size: int = 200,
        rng: Optional[np.random.Generator] = None,
        cache: Optional[DistanceCache] = None,
        reelect_after: Optional[int] = None,
    ) -> None:
        super().__init__(distance, counter, require_metric=True, cache=cache)
        if num_references < 1:
            raise IndexError_(f"num_references must be >= 1, got {num_references}")
        if reelect_after is not None and reelect_after < 1:
            raise IndexError_(f"reelect_after must be >= 1, got {reelect_after}")
        self.num_references = int(num_references)
        self.selector = selector
        self.selection_sample_size = int(selection_sample_size)
        self.reelect_after = reelect_after
        self._rng = rng or np.random.default_rng(0)
        self._reference_keys: List[Hashable] = []
        self._reference_items: List[object] = []
        #: key -> vector of distances to the current references.
        self._item_vectors: Dict[Hashable, np.ndarray] = {}
        self._dirty = True
        #: Pending-update budget before re-election, fixed at build time.
        self._reelect_threshold: Optional[int] = reelect_after
        self._stale_reason: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Content management
    # ------------------------------------------------------------------ #
    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")
        self._items[key] = item
        if self._dirty or not self._reference_items:
            # References will be (re)selected lazily; vectors computed then.
            self._dirty = True
        else:
            self._item_vectors[key] = self._vector(item, count_distance=False)
        return key

    def remove(self, key: Hashable) -> object:
        try:
            item = self._items.pop(key)
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None
        self._item_vectors.pop(key, None)
        if key in self._reference_keys:
            self._dirty = True
        return item

    @property
    def is_stale(self) -> bool:
        """True when the next query will re-elect references first."""
        return self._dirty

    def _apply_staleness_policy(self) -> None:
        """Re-elect references once the pending-update budget is exhausted."""
        if self._dirty or self._reelect_threshold is None:
            return
        pending = self.update_stats.pending_updates
        if pending > self._reelect_threshold:
            self._dirty = True
            self._stale_reason = f"reference re-election after {pending} pending updates"

    def _vector(self, item: object, count_distance: bool) -> np.ndarray:
        values = np.empty(len(self._reference_items), dtype=np.float64)
        for index, reference in enumerate(self._reference_items):
            if count_distance:
                values[index] = self._d(item, reference)
            else:
                values[index] = self.distance(item, reference)
        return values

    def build(self) -> None:
        """Select references and pre-compute every item's distance vector.

        Construction-time distance computations are not charged to the
        query counter, mirroring how the paper reports query costs only.
        """
        reason = self._stale_reason or "build"
        self._stale_reason = None
        if not self._items:
            self._reference_keys = []
            self._reference_items = []
            self._item_vectors = {}
            self._dirty = False
            self.update_stats.record_rebuild(reason)
            return
        keys = list(self._items.keys())
        items = [self._items[key] for key in keys]
        if callable(self.selector):
            chosen = self.selector(items, self.distance, self.num_references)
        elif self.selector == "max_variance":
            chosen = select_max_variance(
                items,
                self.distance,
                self.num_references,
                sample_size=self.selection_sample_size,
                rng=self._rng,
            )
        else:
            raise IndexError_(f"unknown reference selector {self.selector!r}")
        self._reference_keys = [keys[index] for index in chosen]
        self._reference_items = [items[index] for index in chosen]
        self._item_vectors = {
            key: self._vector(self._items[key], count_distance=False) for key in keys
        }
        self._dirty = False
        if self.reelect_after is None:
            self._reelect_threshold = max(16, len(keys) // 4)
        self.update_stats.record_rebuild(reason)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def prepare_queries(self) -> None:
        """Perform the lazily scheduled re-election before queries fan out."""
        if self._items and self._dirty:
            self.build()

    def _range_search(self, query: SequenceLike, radius: float, counting) -> List[RangeMatch]:
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        if not self._items:
            return []
        if self._dirty:
            self.build()
        # The k reference distances are computed by one grouped kernel sweep
        # (:meth:`~repro.distances.base.Distance.batch`) instead of k
        # separate calls; the triangle-inequality filtering and the
        # straddler checks are unaffected, so the results are identical.
        query_vector = counting.batch(query, self._reference_items)
        reference_values = dict(zip(self._reference_keys, query_vector.tolist()))
        return self._filter_with_bounds(query, query_vector, reference_values, radius, counting)

    def _filter_with_bounds(
        self,
        query: SequenceLike,
        query_vector: np.ndarray,
        reference_values: Dict[Hashable, float],
        radius: float,
        counting,
    ) -> List[RangeMatch]:
        """Triangle-inequality filtering given the query-to-reference vector."""
        matches: List[RangeMatch] = []
        for key, item in self._items.items():
            if key in reference_values:
                value = reference_values[key]
                if value <= radius:
                    matches.append(RangeMatch(key, item, value))
                continue
            vector = self._item_vectors[key]
            gaps = np.abs(query_vector - vector)
            lower = float(np.max(gaps))
            if lower > radius:
                continue
            upper = float(np.min(query_vector + vector))
            if upper <= radius:
                matches.append(RangeMatch(key, item, None))
                continue
            value = counting(query, item)
            if value <= radius:
                matches.append(RangeMatch(key, item, value))
        return matches

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def _export_structure(self) -> dict:
        keys = list(self._items.keys())
        position = {key: index for index, key in enumerate(keys)}
        # A dirty index re-elects references and recomputes every vector on
        # its next query anyway, and its election state may reference items
        # that no longer exist (a deleted reference marks the index dirty
        # without clearing the stale list) -- persist only the dirty flag.
        if self._dirty:
            references: List[int] = []
            vectors = None
        else:
            references = [position[key] for key in self._reference_keys]
            # Vectors in key order; JSON floats round-trip exactly (repr).
            vectors = [self._item_vectors[key].tolist() for key in keys]
        return {
            "dirty": self._dirty,
            "reelect_threshold": self._reelect_threshold,
            "reference_positions": references,
            "vectors": vectors,
            "rng_state": self._rng.bit_generator.state,
        }

    def _restore_structure(self, state: dict) -> None:
        keys = list(self._items.keys())
        self._dirty = bool(state["dirty"])
        threshold = state["reelect_threshold"]
        self._reelect_threshold = None if threshold is None else int(threshold)
        self._reference_keys = [keys[position] for position in state["reference_positions"]]
        self._reference_items = [self._items[key] for key in self._reference_keys]
        vectors = state["vectors"]
        if vectors is None:
            self._item_vectors = {}
        else:
            self._item_vectors = {
                key: np.asarray(vector, dtype=np.float64)
                for key, vector in zip(keys, vectors)
            }
        if state.get("rng_state") is not None:
            self._rng.bit_generator.state = state["rng_state"]
        self._stale_reason = None

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Space statistics: the dominant cost is the ``n * k`` float matrix."""
        if self._dirty:
            self.build()
        node_count = len(self._items)
        stored_floats = node_count * len(self._reference_items)
        return {
            "node_count": node_count,
            "reference_count": len(self._reference_items),
            "stored_distances": stored_floats,
            "estimated_size_bytes": node_count * 64 + stored_floats * 8,
        }

    def __repr__(self) -> str:
        return (
            f"ReferenceIndex(size={len(self)}, references={self.num_references}, "
            f"distance={self.distance.name!r})"
        )
