"""The discrete Fréchet distance (DFD).

The discrete Fréchet distance is the bottleneck analogue of DTW: it selects
the warping alignment whose *maximum* coupling cost is smallest ("the
shortest leash that lets a person and a dog walk their curves").  Eiter &
Mannila's dynamic program computes it in ``O(nm)``.  DFD is a metric and is
consistent (Section 4 of the paper); it is one of the two time-series
metrics used in the experiments (SONGS/DFD, TRAJ/DFD).
"""

from __future__ import annotations

from typing import Optional

from repro.distances.base import ElementMetric
from repro.distances.elastic import WarpingDistance


class DiscreteFrechet(WarpingDistance):
    """Discrete Fréchet distance with a pluggable element metric.

    Metric: yes (when the element metric is a metric).  Consistent: yes --
    restricting the optimal alignment to a subsequence can only lower its
    maximum coupling cost.
    """

    name = "frechet"
    is_metric = True
    aggregate = "max"

    def __init__(self, element_metric: Optional[ElementMetric] = None) -> None:
        self.element_metric = element_metric or ElementMetric("euclidean")

    def __repr__(self) -> str:
        return f"DiscreteFrechet(element_metric={self.element_metric!r})"
