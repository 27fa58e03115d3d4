"""Metric index substrate.

The paper's framework answers segment-vs-window range queries through a
metric index.  This subpackage provides:

* :class:`~repro.indexing.reference_net.ReferenceNet` -- the paper's
  contribution: a linear-space, multi-parent hierarchy optimised for range
  queries (Section 6 and Appendix A).
* :class:`~repro.indexing.cover_tree.CoverTree` -- the main baseline.
* :class:`~repro.indexing.reference_based.ReferenceIndex` -- reference-based
  indexing with Maximum-Variance or Maximum-Pruning reference selection.
* :class:`~repro.indexing.vp_tree.VPTree` -- an additional classic baseline.
* :class:`~repro.indexing.linear_scan.LinearScanIndex` -- the naive lower
  bound every figure normalises against.

All indexes share the :class:`~repro.indexing.base.MetricIndex` interface
and count every distance evaluation through a
:class:`~repro.indexing.stats.DistanceCounter`, which is the quantity the
paper's Figures 8-11 report.
"""

from repro.indexing.base import BoundTable, MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter, CountingDistance, IndexStats
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet
from repro.indexing.cover_tree import CoverTree
from repro.indexing.reference_based import ReferenceIndex, select_max_variance, select_max_pruning
from repro.indexing.vp_tree import VPTree

__all__ = [
    "BoundTable",
    "MetricIndex",
    "RangeMatch",
    "DistanceCounter",
    "CountingDistance",
    "IndexStats",
    "LinearScanIndex",
    "ReferenceNet",
    "CoverTree",
    "ReferenceIndex",
    "select_max_variance",
    "select_max_pruning",
    "VPTree",
]
