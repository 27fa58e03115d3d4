"""Dynamic Time Warping (DTW).

DTW aligns two sequences by warping the time axis so that each element of one
sequence is coupled with one or more elements of the other, minimising the
sum of coupling costs.  The paper shows DTW is *consistent* (Section 4) but
points out that it is **not a metric** -- it violates the triangle
inequality -- so the metric indexes of :mod:`repro.indexing` refuse it.  It
can still be used with the segmentation filter via a linear scan, and is
included here both for completeness and as a baseline distance.
"""

from __future__ import annotations

from typing import Optional

from repro.distances.base import ElementMetric
from repro.distances.elastic import WarpingDistance
from repro.exceptions import DistanceError


class DTW(WarpingDistance):
    """Dynamic time warping with an optional Sakoe-Chiba band.

    Parameters
    ----------
    element_metric:
        Ground distance between individual elements (default Euclidean).
    band:
        Optional Sakoe-Chiba band half-width; ``None`` means unconstrained
        warping.  A band of 0 degenerates to the (rescaled) lockstep
        distance for equal-length inputs.
    """

    name = "dtw"
    is_metric = False

    def __init__(
        self,
        element_metric: Optional[ElementMetric] = None,
        band: Optional[int] = None,
    ) -> None:
        if band is not None and band < 0:
            raise DistanceError(f"band must be non-negative, got {band}")
        self.element_metric = element_metric or ElementMetric("euclidean")
        self.band = band

    def __repr__(self) -> str:
        return f"DTW(element_metric={self.element_metric!r}, band={self.band})"
