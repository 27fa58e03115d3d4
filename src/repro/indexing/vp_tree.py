"""Vantage-point tree (Yianilos, SODA 1993) -- an additional classic baseline.

The vp-tree recursively splits the data around a vantage point: items closer
than the median distance go to the inner subtree, the rest to the outer
subtree.  Range queries descend only into subtrees the triangle inequality
cannot exclude.  The paper's related-work section cites the vp-tree as one
of the established metric index structures; it is included here to broaden
the baseline pool for the ablation benchmarks.

The tree is built in bulk (:meth:`build`) because the classic structure is
static; :meth:`add` simply marks the tree dirty and the next query rebuilds.
The incremental entry points (:meth:`~repro.indexing.base.MetricIndex.insert`
/ :meth:`~repro.indexing.base.MetricIndex.delete`) instead extend the built
tree in place -- new items descend to a free inner/outer slot, deletions
re-attach the removed node's subtree -- and a pending-update budget decides
when the accumulated attachments have unbalanced the tree enough to warrant
a bulk rebuild (lazily, on the next query).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.distances.base import Distance, SequenceLike
from repro.distances.cache import DistanceCache
from repro.exceptions import IndexError_
from repro.indexing.base import MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter


class _VPNode:
    """One vp-tree node: a vantage point, a split radius, two subtrees."""

    __slots__ = ("key", "item", "threshold", "inner", "outer")

    def __init__(self, key: Hashable, item: object) -> None:
        self.key = key
        self.item = item
        self.threshold: float = 0.0
        self.inner: Optional["_VPNode"] = None
        self.outer: Optional["_VPNode"] = None


class VPTree(MetricIndex):
    """Static vantage-point tree with bulk (re)building.

    Parameters
    ----------
    distance:
        A metric distance measure.
    counter:
        Optional shared distance counter.
    rng:
        Random generator used to pick vantage points (fixed seed by default
        so builds are reproducible).
    """

    index_name = "vp-tree"

    #: Incremental inserts descend the built tree and attach as leaves
    #: (which preserves the shell invariants, hence correctness, but not
    #: balance); deletions re-attach the removed node's subtree the same
    #: way, and deleting the root vantage point schedules a rebuild.  After
    #: ``rebuild_after`` pending updates (default max(16, n/2) at build
    #: time) the tree re-balances with a bulk rebuild on the next query.
    staleness_policy = (
        "inserts attach as leaves, deletes re-attach the subtree; "
        "re-balances after `rebuild_after` pending updates (default "
        "max(16, n/2) at build time) or a root deletion, lazily on the "
        "next query"
    )

    def __init__(
        self,
        distance: Distance,
        counter: Optional[DistanceCounter] = None,
        rng: Optional[np.random.Generator] = None,
        cache: Optional[DistanceCache] = None,
        rebuild_after: Optional[int] = None,
    ) -> None:
        super().__init__(distance, counter, require_metric=True, cache=cache)
        if rebuild_after is not None and rebuild_after < 1:
            raise IndexError_(f"rebuild_after must be >= 1, got {rebuild_after}")
        self._rng = rng or np.random.default_rng(0)
        self._root: Optional[_VPNode] = None
        self._dirty = True
        self.rebuild_after = rebuild_after
        #: Pending-update budget before a re-balance, fixed at build time.
        self._rebuild_threshold: Optional[int] = rebuild_after
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
        self._dirty = True
        return key

    def remove(self, key: Hashable) -> object:
        try:
            item = self._items.pop(key)
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None
        self._dirty = True
        return item

    def build(self) -> None:
        """(Re)build the tree from the current contents.

        Construction-time distances are not charged to the query counter.
        """
        pairs = list(self._items.items())
        self._root = self._build(pairs)
        self._dirty = False
        if self.rebuild_after is None:
            self._rebuild_threshold = max(16, len(pairs) // 2)
        self.update_stats.record_rebuild(self._stale_reason or "build")
        self._stale_reason = None

    def _build(self, pairs: List[Tuple[Hashable, object]]) -> Optional[_VPNode]:
        if not pairs:
            return None
        pick = int(self._rng.integers(len(pairs)))
        key, item = pairs[pick]
        node = _VPNode(key, item)
        rest = pairs[:pick] + pairs[pick + 1 :]
        if not rest:
            return node
        values = np.fromiter(
            (self.distance(item, other) for _, other in rest),
            dtype=np.float64,
            count=len(rest),
        )
        node.threshold = float(np.median(values))
        inner_pairs = [pair for pair, value in zip(rest, values) if value <= node.threshold]
        outer_pairs = [pair for pair, value in zip(rest, values) if value > node.threshold]
        node.inner = self._build(inner_pairs)
        node.outer = self._build(outer_pairs)
        return node

    # ------------------------------------------------------------------ #
    # Incremental updates
    # ------------------------------------------------------------------ #
    @property
    def is_stale(self) -> bool:
        """True when the next query will bulk-rebuild the tree first."""
        return self._dirty

    def _apply_staleness_policy(self) -> None:
        """Schedule a re-balance once the pending-update budget is exhausted."""
        if self._dirty or self._rebuild_threshold is None:
            return
        pending = self.update_stats.pending_updates
        if pending > self._rebuild_threshold:
            self._dirty = True
            self._stale_reason = f"re-balance after {pending} pending updates"

    def _attach(self, key: Hashable, item: object) -> None:
        """Descend from the root and attach ``(key, item)`` as a new leaf.

        Routing follows the same rule the shells encode -- within the
        threshold goes inner, beyond it goes outer -- so both subtree
        invariants the range query prunes by keep holding.  Construction-
        time distances are not charged to the query counter.
        """
        node = _VPNode(key, item)
        if self._root is None:
            self._root = node
            return
        current = self._root
        while True:
            value = self.distance(item, current.item)
            if value <= current.threshold:
                if current.inner is None:
                    current.inner = node
                    return
                current = current.inner
            else:
                if current.outer is None:
                    current.outer = node
                    return
                current = current.outer

    def _insert_incremental(self, item: object, key: Optional[Hashable]) -> Hashable:
        if key is None:
            key = self._auto_key()
        if key in self._items:
            raise IndexError_(f"key {key!r} is already present")
        self._items[key] = item
        if not self._dirty:
            self._attach(key, item)
        return key

    def _delete_incremental(self, key: Hashable) -> object:
        try:
            item = self._items.pop(key)
        except KeyError:
            raise IndexError_(f"no item with key {key!r} in this index") from None
        if self._dirty:
            return item
        node, parent, side = self._find_with_parent(key)
        assert node is not None  # _items membership guarantees presence
        members: List[Tuple[Hashable, object]] = []
        stack = [node.inner, node.outer]
        while stack:
            current = stack.pop()
            if current is None:
                continue
            members.append((current.key, current.item))
            stack.append(current.inner)
            stack.append(current.outer)
        if parent is None:
            # The root is the vantage point of the whole tree: every stored
            # distance relation involves it, so re-balance instead of
            # guessing a replacement.
            self._root = None
            if members:
                self._dirty = True
                self._stale_reason = "root deletion"
            return item
        setattr(parent, side, None)
        for member_key, member_item in members:
            self._attach(member_key, member_item)
        return item

    def _find_with_parent(
        self, key: Hashable
    ) -> Tuple[Optional[_VPNode], Optional[_VPNode], str]:
        """Locate the node holding ``key`` plus its parent and link side."""
        stack: List[Tuple[Optional[_VPNode], Optional[_VPNode], str]] = [
            (self._root, None, "")
        ]
        while stack:
            node, parent, side = stack.pop()
            if node is None:
                continue
            if node.key == key:
                return node, parent, side
            stack.append((node.inner, node, "inner"))
            stack.append((node.outer, node, "outer"))
        return None, None, ""

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def _export_structure(self) -> dict:
        keys = list(self._items.keys())
        position = {key: index for index, key in enumerate(keys)}
        nodes: List[List[float]] = []
        if self._root is not None and not self._dirty:
            order: List[_VPNode] = []
            stack = [self._root]
            while stack:
                node = stack.pop()
                order.append(node)
                if node.outer is not None:
                    stack.append(node.outer)
                if node.inner is not None:
                    stack.append(node.inner)
            slots = {id(node): index for index, node in enumerate(order)}
            for node in order:
                nodes.append(
                    [
                        position[node.key],
                        node.threshold,
                        slots[id(node.inner)] if node.inner is not None else -1,
                        slots[id(node.outer)] if node.outer is not None else -1,
                    ]
                )
        return {
            "dirty": self._dirty,
            "rebuild_threshold": self._rebuild_threshold,
            "nodes": nodes,
            "rng_state": self._rng.bit_generator.state,
        }

    def _restore_structure(self, state: dict) -> None:
        keys = list(self._items.keys())
        self._dirty = bool(state["dirty"])
        threshold = state["rebuild_threshold"]
        self._rebuild_threshold = None if threshold is None else int(threshold)
        records = state["nodes"]
        nodes: List[_VPNode] = []
        for key_position, link_threshold, _inner, _outer in records:
            key = keys[int(key_position)]
            node = _VPNode(key, self._items[key])
            node.threshold = float(link_threshold)
            nodes.append(node)
        for record, node in zip(records, nodes):
            inner, outer = int(record[2]), int(record[3])
            node.inner = nodes[inner] if inner >= 0 else None
            node.outer = nodes[outer] if outer >= 0 else None
        self._root = nodes[0] if nodes else None
        if state.get("rng_state") is not None:
            self._rng.bit_generator.state = state["rng_state"]
        self._stale_reason = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def prepare_queries(self) -> None:
        """Perform the lazily scheduled re-balance before queries fan out."""
        if self._items and self._dirty:
            self.build()

    def _range_search(self, query: SequenceLike, radius: float, counting) -> List[RangeMatch]:
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        if not self._items:
            return []
        if self._dirty:
            self.build()
        matches: List[RangeMatch] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            value = counting(query, node.item)
            if value <= radius:
                matches.append(RangeMatch(node.key, node.item, value))
            # Items in the inner subtree are within ``threshold`` of the
            # vantage point; the triangle inequality excludes the subtree
            # when the query is too far outside (or inside) that shell.
            if value - radius <= node.threshold:
                stack.append(node.inner)
            if value + radius > node.threshold:
                stack.append(node.outer)
        return matches

    def stats(self) -> dict:
        """Simple node-count statistics."""
        return {
            "node_count": len(self._items),
            "estimated_size_bytes": len(self._items) * 96,
        }

    def __repr__(self) -> str:
        return f"VPTree(size={len(self)}, distance={self.distance.name!r})"
