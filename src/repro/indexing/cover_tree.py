"""Cover tree baseline (Beygelzimer, Kakade, Langford, ICML 2006).

The cover tree is the main indexing baseline of the paper's experiments: a
linear-space metric tree whose level ``i`` nodes cover their children within
``2**i`` (scaled here by the same ``eps'`` base as the reference net so the
two structures are directly comparable).  Its key difference from the
reference net is that every node has exactly **one** parent, which is
precisely the situation Figure 2 of the paper shows can hurt range-query
pruning: an item close to two references is only discoverable through the
single list that contains it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.distances.base import Distance, SequenceLike
from repro.distances.cache import DistanceCache
from repro.exceptions import IndexError_, InvariantViolationError
from repro.indexing.base import MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter


class _TreeNode:
    """A cover-tree node: one item, one parent, children grouped by level."""

    __slots__ = ("key", "item", "home_level", "children", "parent", "parent_level")

    def __init__(self, key: Hashable, item: object, home_level: int) -> None:
        self.key = key
        self.item = item
        self.home_level = home_level
        self.children: Dict[int, List["_TreeNode"]] = {}
        self.parent: Optional["_TreeNode"] = None
        self.parent_level: Optional[int] = None

    def iter_children(self):
        """Yield ``(level, child)`` pairs over all children lists."""
        for level, kids in self.children.items():
            for child in kids:
                yield level, child


class CoverTree(MetricIndex):
    """Single-parent covering hierarchy for metric range queries.

    Parameters
    ----------
    distance:
        A metric distance measure.
    eps_prime:
        Base radius; level ``i`` covers within ``eps_prime * 2**i``.  Using
        the same base as :class:`~repro.indexing.reference_net.ReferenceNet`
        makes space and query comparisons apples-to-apples.
    counter:
        Optional shared distance counter.
    """

    index_name = "cover-tree"

    #: The insertion algorithm is incremental by construction and deletion
    #: re-inserts the removed node's subtree, so the tree is never stale;
    #: the one exception is removing the root, which (exactly like the
    #: reference net's Algorithm 2) rebuilds the structure eagerly.
    staleness_policy = (
        "fully incremental (single-parent covering insert, subtree "
        "re-insertion on delete); root deletion rebuilds eagerly"
    )

    def __init__(
        self,
        distance: Distance,
        eps_prime: float = 1.0,
        counter: Optional[DistanceCounter] = None,
        cache: Optional[DistanceCache] = None,
    ) -> None:
        super().__init__(distance, counter, require_metric=True, cache=cache)
        if eps_prime <= 0:
            raise IndexError_(f"eps_prime must be positive, got {eps_prime}")
        self.eps_prime = float(eps_prime)
        self._nodes: Dict[Hashable, _TreeNode] = {}
        self._root: Optional[_TreeNode] = None
        self._max_level = 1

    def radius(self, level: int) -> float:
        """Covering radius of level ``level``."""
        return self.eps_prime * (2.0 ** level)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
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
        node.parent_level = level
        parent.children.setdefault(level, []).append(node)
        self._nodes[key] = node
        self._items[key] = item
        return key

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #
    def remove(self, key: Hashable) -> object:
        if key not in self._nodes:
            raise IndexError_(f"no item with key {key!r} in this index")
        node = self._nodes[key]
        item = node.item

        if node is self._root:
            remaining = [
                (other.key, other.item) for other in self._nodes.values() if other is not node
            ]
            self._nodes = {}
            self._items = {}
            self._root = None
            self._max_level = 1
            for other_key, other_item in remaining:
                self.add(other_item, other_key)
            self.update_stats.record_rebuild("root deletion")
            return item

        del self._nodes[key]
        del self._items[key]
        assert node.parent is not None and node.parent_level is not None
        node.parent.children[node.parent_level].remove(node)
        if not node.parent.children[node.parent_level]:
            del node.parent.children[node.parent_level]

        # Children of a removed node lose their only parent: re-insert their
        # entire subtrees item by item so the covering invariant is restored.
        pending: List[_TreeNode] = [child for _, child in node.iter_children()]
        subtree: List[_TreeNode] = []
        while pending:
            current = pending.pop()
            subtree.append(current)
            pending.extend(child for _, child in current.iter_children())
        for member in subtree:
            del self._nodes[member.key]
            del self._items[member.key]
        for member in subtree:
            self.add(member.item, member.key)
        return item

    # ------------------------------------------------------------------ #
    # Range query
    # ------------------------------------------------------------------ #
    def _range_search(self, query: SequenceLike, radius: float, counting) -> List[RangeMatch]:
        if radius < 0:
            raise IndexError_(f"radius must be non-negative, got {radius}")
        if self._root is None:
            return []
        matches: List[RangeMatch] = []
        stack: List[Tuple[_TreeNode, int]] = [(self._root, self._max_level)]
        while stack:
            node, level = stack.pop()
            value = counting(query, node.item)
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

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #
    def _export_structure(self) -> dict:
        keys = list(self._items.keys())
        position = {key: index for index, key in enumerate(keys)}
        nodes = []
        for key in keys:
            node = self._nodes[key]
            # Children flattened with both the level-dict order and the
            # within-level list order preserved: traversal order -- and
            # therefore downstream match order -- depends on them.
            children = [
                [level, [position[child.key] for child in kids]]
                for level, kids in node.children.items()
            ]
            nodes.append({"home_level": node.home_level, "children": children})
        return {
            "max_level": self._max_level,
            "root_position": position[self._root.key] if self._root is not None else None,
            "nodes": nodes,
        }

    def _restore_structure(self, state: dict) -> None:
        keys = list(self._items.keys())
        records = state["nodes"]
        nodes = [
            _TreeNode(key, self._items[key], home_level=int(record["home_level"]))
            for key, record in zip(keys, records)
        ]
        for record, parent in zip(records, nodes):
            for level, child_positions in record["children"]:
                level = int(level)
                for child_position in child_positions:
                    child = nodes[int(child_position)]
                    child.parent = parent
                    child.parent_level = level
                    parent.children.setdefault(level, []).append(child)
        self._nodes = {node.key: node for node in nodes}
        self._max_level = int(state["max_level"])
        root_position = state["root_position"]
        self._root = None if root_position is None else nodes[int(root_position)]

    # ------------------------------------------------------------------ #
    # Statistics and invariants
    # ------------------------------------------------------------------ #
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

    def check_invariants(self) -> None:
        """Verify the single-parent covering invariants."""
        if self._root is None:
            if self._nodes:
                raise InvariantViolationError("nodes present but no root")
            return
        count = 0
        stack = [self._root]
        while stack:
            current = stack.pop()
            count += 1
            for level, child in current.iter_children():
                if child.parent is not current or child.parent_level != level:
                    raise InvariantViolationError(
                        f"child {child.key!r} has inconsistent parent pointers"
                    )
                if child.home_level != level - 1:
                    raise InvariantViolationError(
                        f"child {child.key!r} home level {child.home_level} does not match "
                        f"list level {level}"
                    )
                covering = self.distance(current.item, child.item)
                if covering > self.radius(level) * (1 + 1e-9):
                    raise InvariantViolationError(
                        f"child {child.key!r} outside the covering radius of its parent"
                    )
                stack.append(child)
        if count != len(self._nodes):
            raise InvariantViolationError(
                f"tree reaches {count} nodes but {len(self._nodes)} are stored"
            )

    def __repr__(self) -> str:
        return (
            f"CoverTree(size={len(self)}, eps_prime={self.eps_prime}, "
            f"max_level={self._max_level}, distance={self.distance.name!r})"
        )
