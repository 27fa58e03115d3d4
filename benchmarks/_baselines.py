"""The paper's comparison indexes, as count-only baselines.

The paper compares its reference net with the cover tree and with
reference-based indexing (MV-k) in *distance counts* only (Figures 7-11).
These classes reproduce exactly those counts for the figure benchmarks: they
insert (:meth:`add`), answer range queries, and report space statistics
(``stats()``).  They subclass :class:`~repro.indexing.base.MetricIndex` for
its distance counter and its ``range_query`` / ``batch_range_query``
entry points only, implementing its one search hook one query at a time --
no removal, snapshot, cache or executor support; the matcher's indexes are
the reference net and the linear scan.

Imported by the figure benchmarks the same way as ``_harness``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence as TypingSequence, Tuple

import numpy as np

from repro.distances.base import Distance, SequenceLike
from repro.exceptions import IndexError_
from repro.indexing.base import MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter
from repro.sequences.packed import PackedWindowStore, StoreGather


# --------------------------------------------------------------------- #
# Cover tree (Beygelzimer, Kakade, Langford, ICML 2006)
# --------------------------------------------------------------------- #
class _TreeNode:
    """A cover-tree node: one item, one parent, children grouped by level."""

    __slots__ = ("key", "item", "home_level", "children", "parent")

    def __init__(self, key: Hashable, item: object, home_level: int) -> None:
        self.key = key
        self.item = item
        self.home_level = home_level
        self.children: Dict[int, List["_TreeNode"]] = {}
        self.parent: Optional["_TreeNode"] = None

    def iter_children(self):
        """Yield ``(level, child)`` pairs over all children lists."""
        for level, kids in self.children.items():
            for child in kids:
                yield level, child


class CoverTree(MetricIndex):
    """Single-parent covering hierarchy: the paper's main baseline.

    Level ``i`` nodes cover their children within ``eps_prime * 2**i`` -- the
    same base as the reference net, so the two are directly comparable.
    Unlike the net, every node has exactly **one** parent, which is the
    situation the paper's Figure 2 shows can hurt range-query pruning.
    Insertion distances are counted like query distances; the figures
    mark the counter before querying.
    """

    index_name = "cover-tree"

    def __init__(
        self,
        distance: Distance,
        eps_prime: float = 1.0,
        counter: Optional[DistanceCounter] = None,
    ) -> None:
        super().__init__(distance, counter, require_metric=True)
        if eps_prime <= 0:
            raise IndexError_(f"eps_prime must be positive, got {eps_prime}")
        self.eps_prime = float(eps_prime)
        self._nodes: Dict[Hashable, _TreeNode] = {}
        self._root: Optional[_TreeNode] = None
        self._max_level = 1

    def radius(self, level: int) -> float:
        """Covering radius of level ``level``."""
        return self.eps_prime * (2.0**level)

    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")
        if self._root is None:
            node = _TreeNode(key, item, home_level=self._max_level)
            self._root = node
            self._nodes[key] = node
            self._items[key] = item
            return key

        root_distance = self._d(item, self._root.item)
        while root_distance > self.radius(self._max_level):
            self._max_level += 1
        self._root.home_level = self._max_level

        level = self._max_level
        candidates: List[Tuple[_TreeNode, float]] = [(self._root, root_distance)]
        while level > 1:
            threshold = self.radius(level - 1)
            next_candidates: List[Tuple[_TreeNode, float]] = [
                (node, dist) for node, dist in candidates if dist <= threshold
            ]
            seen = {node.key for node, _ in next_candidates}
            for node, _ in candidates:
                for child in node.children.get(level, ()):
                    if child.key in seen:
                        continue
                    child_distance = self._d(item, child.item)
                    if child_distance <= threshold:
                        seen.add(child.key)
                        next_candidates.append((child, child_distance))
            if not next_candidates:
                break
            candidates = next_candidates
            level -= 1

        parent, _ = min(candidates, key=lambda pair: pair[1])
        node = _TreeNode(key, item, home_level=level - 1)
        node.parent = parent
        parent.children.setdefault(level, []).append(node)
        self._nodes[key] = node
        self._items[key] = item
        return key

    def _batch_range_query(self, queries, radius: float, bounds=None) -> List[List[RangeMatch]]:
        return [self._search(query, radius) for query in queries]

    def _search(self, query: SequenceLike, radius: float) -> List[RangeMatch]:
        if self._root is None:
            return []
        matches: List[RangeMatch] = []
        stack: List[Tuple[_TreeNode, int]] = [(self._root, self._max_level)]
        while stack:
            node, level = stack.pop()
            value = self._d(query, node.item)
            if value <= radius:
                matches.append(RangeMatch(node.key, node.item, value))
            subtree = self.radius(level + 1)
            if value + subtree <= radius:
                self._accept_subtree(node, matches)
                continue
            if value - subtree > radius:
                continue
            for child_level, child in node.iter_children():
                bound = self.radius(child_level) + self.radius(child_level)
                if value - bound > radius:
                    continue
                if value + bound <= radius:
                    matches.append(RangeMatch(child.key, child.item, None))
                    self._accept_subtree(child, matches)
                else:
                    stack.append((child, child.home_level))
        return matches

    def _accept_subtree(self, node: _TreeNode, matches: List[RangeMatch]) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            for _, child in current.iter_children():
                matches.append(RangeMatch(child.key, child.item, None))
                stack.append(child)

    def stats(self) -> Dict[str, float]:
        """Node and link counts (every node has at most one parent)."""
        node_count = len(self._nodes)
        link_count = sum(1 for node in self._nodes.values() if node.parent is not None)
        return {
            "node_count": node_count,
            "parent_link_count": link_count,
            "average_parents": link_count / max(node_count - 1, 1),
            "level_count": self._max_level + 1,
            "estimated_size_bytes": node_count * 112 + link_count * 16,
        }


# --------------------------------------------------------------------- #
# Reference-based indexing (Venkateswaran et al., VLDB 2006 / VLDB J. 2008)
# --------------------------------------------------------------------- #
def select_max_variance(
    items: TypingSequence[object],
    distance: Distance,
    count: int,
    sample_size: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> List[int]:
    """Maximum-Variance (MV) reference selection, the paper's choice.

    Returns the indexes (into ``items``) of the ``count`` items whose
    distances to a random data sample have the largest variance: they
    spread the data over a wide distance range, which tightens the
    triangle-inequality bounds, and need no training queries.
    """
    if count < 1:
        raise IndexError_(f"count must be >= 1, got {count}")
    if not items:
        raise IndexError_("cannot select references from an empty collection")
    generator = rng or np.random.default_rng(0)
    count = min(count, len(items))
    sample_indexes = generator.choice(len(items), size=min(sample_size, len(items)), replace=False)
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
    """Maximum-Pruning (MP) reference selection (needs a query sample).

    Greedily picks references that maximise the number of (query, item)
    pairs pruned by the lower bound at ``radius``, from a sampled candidate
    pool -- the training step the paper notes the reference net avoids.
    Pass it to :class:`ReferenceIndex` through a ``selector`` lambda.
    """
    if count < 1:
        raise IndexError_(f"count must be >= 1, got {count}")
    if not items:
        raise IndexError_("cannot select references from an empty collection")
    if not sample_queries:
        raise IndexError_("Maximum-Pruning selection needs at least one sample query")
    generator = rng or np.random.default_rng(0)
    count = min(count, len(items))
    pool_indexes = generator.choice(len(items), size=min(candidate_pool, len(items)), replace=False)

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
            bounds = np.abs(query_distances[index][:, None] - item_distances[index][None, :])
            gain = int(np.count_nonzero(np.logical_and(bounds > radius, np.logical_not(pruned))))
            if gain > best_gain:
                best_gain = gain
                best_index = index
        if best_index is None:
            break
        selected.append(best_index)
        pruned |= (
            np.abs(query_distances[best_index][:, None] - item_distances[best_index][None, :])
            > radius
        )
    return selected


class ReferenceIndex(MetricIndex):
    """Reference-based metric index (MV-k): ``k`` references, ``n * k`` distances.

    Every item's distances to ``k`` references are pre-computed; a query
    measures its own ``k`` reference distances and uses the triangle
    inequality to prune (``max_r |d(Q, r) - d(x, r)| > eps``) or accept
    (``min_r d(Q, r) + d(x, r) <= eps``) items, measuring only the items
    whose bounds straddle the radius.  References are selected on the first
    query after the content changed; that selection and the item vectors
    are construction cost and are not counted.

    ``selector`` is ``"max_variance"`` or a callable
    ``(items, distance, count) -> list of item indexes``.
    """

    index_name = "reference-based"

    def __init__(
        self,
        distance: Distance,
        num_references: int = 5,
        selector: "str | Callable" = "max_variance",
        counter: Optional[DistanceCounter] = None,
        selection_sample_size: int = 200,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(distance, counter, require_metric=True)
        if num_references < 1:
            raise IndexError_(f"num_references must be >= 1, got {num_references}")
        self.num_references = int(num_references)
        self.selector = selector
        self.selection_sample_size = int(selection_sample_size)
        self._rng = rng or np.random.default_rng(0)
        self._reference_keys: List[Hashable] = []
        self._reference_items: List[object] = []
        #: The references, packed for the query's one batched request.
        self._references = PackedWindowStore()
        #: key -> vector of distances to the current references.
        self._item_vectors: Dict[Hashable, np.ndarray] = {}
        self._dirty = True

    def add(self, item: object, key: Optional[Hashable] = None) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")
        self._items[key] = item
        self._dirty = True
        return key

    def build(self) -> None:
        """Select references and pre-compute every item's distance vector."""
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
        self._references = PackedWindowStore()
        for key, item in zip(self._reference_keys, self._reference_items):
            self._references.add(key, item)
        self._item_vectors = {
            key: np.array([self.distance(item, reference) for reference in self._reference_items])
            for key, item in zip(keys, items)
        }
        self._dirty = False

    def _batch_range_query(self, queries, radius: float, bounds=None) -> List[List[RangeMatch]]:
        return [self._search(query, radius) for query in queries]

    def _search(self, query: SequenceLike, radius: float) -> List[RangeMatch]:
        if not self._items:
            return []
        if self._dirty:
            self.build()
        query_vector = self._counting.batch(
            query,
            self._reference_items,
            packed=StoreGather(self._references, self._reference_keys),
        )
        reference_values = dict(zip(self._reference_keys, query_vector.tolist()))
        matches: List[RangeMatch] = []
        for key, item in self._items.items():
            if key in reference_values:
                value = reference_values[key]
                if value <= radius:
                    matches.append(RangeMatch(key, item, value))
                continue
            vector = self._item_vectors[key]
            if float(np.max(np.abs(query_vector - vector))) > radius:
                continue
            if float(np.min(query_vector + vector)) <= radius:
                matches.append(RangeMatch(key, item, None))
                continue
            value = self._d(query, item)
            if value <= radius:
                matches.append(RangeMatch(key, item, value))
        return matches

    def stats(self) -> Dict[str, float]:
        """Space statistics: the dominant cost is the ``n * k`` float matrix."""
        if self._dirty and self._items:
            self.build()
        node_count = len(self._items)
        stored_floats = node_count * len(self._reference_items)
        return {
            "node_count": node_count,
            "reference_count": len(self._reference_items),
            "stored_distances": stored_floats,
            "estimated_size_bytes": node_count * 64 + stored_floats * 8,
        }
