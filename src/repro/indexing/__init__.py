"""Metric index substrate.

The paper's framework answers segment-vs-window range queries through a
metric index.  This subpackage provides:

* :class:`~repro.indexing.reference_net.ReferenceNet` -- the paper's
  contribution: a linear-space, multi-parent hierarchy optimised for range
  queries (Section 6 and Appendix A).
* :class:`~repro.indexing.linear_scan.LinearScanIndex` -- the naive lower
  bound every figure normalises against, and the one index that accepts a
  non-metric distance.

The paper's comparison baselines are count-only classes beside the figure
benchmarks (``benchmarks/_baselines.py``), not matcher indexes.

Both indexes share the :class:`~repro.indexing.base.MetricIndex` interface
and count every distance evaluation through a
:class:`~repro.indexing.stats.DistanceCounter`, which is the quantity the
paper's Figures 8-11 report.
"""

from repro.indexing.base import BoundTable, MetricIndex, RangeMatch
from repro.indexing.stats import DistanceCounter, CountingDistance, IndexStats
from repro.indexing.linear_scan import LinearScanIndex
from repro.indexing.reference_net import ReferenceNet

__all__ = [
    "BoundTable",
    "MetricIndex",
    "RangeMatch",
    "DistanceCounter",
    "CountingDistance",
    "IndexStats",
    "LinearScanIndex",
    "ReferenceNet",
]
