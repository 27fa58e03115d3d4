"""Space-overhead curves (the paper's Figures 5-7).

The paper grows each dataset from a few thousand windows to its full size
and records, at each step, the number of index nodes, the average number of
parents per node, and the index size in megabytes.  :func:`space_overhead_curve`
reproduces that sweep for any index factory that exposes a ``stats()``
method: the reference net's :class:`ReferenceNetStats`, or a plain dict of
``node_count`` / ``parent_link_count`` / ``average_parents`` /
``estimated_size_bytes`` (the figure benchmarks' baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence as TypingSequence

from repro.exceptions import ConfigurationError
from repro.indexing.base import MetricIndex
from repro.indexing.reference_net import ReferenceNetStats
from repro.sequences.windows import Window


@dataclass
class SpacePoint:
    """Space statistics of one index at one database size."""

    windows_inserted: int
    node_count: int
    parent_link_count: int
    average_parents: float
    estimated_size_mb: float


def _stats_of(index: MetricIndex) -> SpacePoint:
    stats = index.stats()  # type: ignore[attr-defined]
    if isinstance(stats, ReferenceNetStats):
        return SpacePoint(
            windows_inserted=len(index),
            node_count=stats.node_count,
            parent_link_count=stats.parent_link_count,
            average_parents=stats.average_parents,
            estimated_size_mb=stats.estimated_size_mb,
        )
    return SpacePoint(
        windows_inserted=len(index),
        node_count=int(stats.get("node_count", len(index))),
        parent_link_count=int(stats.get("parent_link_count", 0)),
        average_parents=float(stats.get("average_parents", 0.0)),
        estimated_size_mb=float(stats.get("estimated_size_bytes", 0)) / (1024.0 * 1024.0),
    )


def space_overhead_curve(
    index_factory: Callable[[], MetricIndex],
    windows: TypingSequence[Window],
    checkpoints: TypingSequence[int],
) -> List[SpacePoint]:
    """Insert windows incrementally and record space statistics.

    Parameters
    ----------
    index_factory:
        Zero-argument callable building a fresh index (with ``stats()``).
    windows:
        The windows to insert, in insertion order.
    checkpoints:
        Increasing window counts at which to record a :class:`SpacePoint`;
        every checkpoint must be at most ``len(windows)``.
    """
    ordered = sorted(set(checkpoints))
    if not ordered:
        raise ConfigurationError("need at least one checkpoint")
    if ordered[0] < 1 or ordered[-1] > len(windows):
        raise ConfigurationError(
            f"checkpoints must lie in [1, {len(windows)}], got {ordered[0]}..{ordered[-1]}"
        )
    index = index_factory()
    points: List[SpacePoint] = []
    inserted = 0
    for checkpoint in ordered:
        while inserted < checkpoint:
            window = windows[inserted]
            index.add(window.sequence, key=window.key)
            inserted += 1
        points.append(_stats_of(index))
    return points
