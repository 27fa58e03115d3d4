"""Distance substrate: sequence distance measures with metric/consistency flags.

Every distance in this subpackage implements the :class:`~repro.distances.base.Distance`
interface and declares two boolean properties the framework cares about:

``is_metric``
    Whether the distance obeys symmetry and the triangle inequality.  Only
    metric distances may be used with the metric indexes in
    :mod:`repro.indexing`.

``is_consistent``
    Whether the distance obeys the paper's consistency property
    (Definition 1), which the segmentation-based filtering of
    :mod:`repro.core` requires.

The measures the paper analyses are all provided: Euclidean, Hamming,
Levenshtein, DTW, ERP, and the discrete Fréchet distance, plus EDR and LCSS
as extensions.  The elastic ones are members of two families
(:mod:`repro.distances.elastic`): :class:`WarpingDistance` (DTW, Fréchet)
and :class:`EditDistance` (Levenshtein, weighted Levenshtein, ERP, EDR).
"""

from repro.distances.base import Distance, ElementMetric
from repro.distances.cache import DistanceCache, shared_cache
from repro.distances.elastic import EditDistance, WarpingDistance
from repro.distances.euclidean import Euclidean
from repro.distances.hamming import Hamming
from repro.distances.levenshtein import Levenshtein, WeightedLevenshtein
from repro.distances.dtw import DTW
from repro.distances.erp import ERP
from repro.distances.frechet import DiscreteFrechet
from repro.distances.edr import EDR
from repro.distances.lcss import LCSS
from repro.distances.consistency import check_consistency, ConsistencyReport
from repro.distances.registry import get_distance, register_distance, available_distances
from repro.distances.lower_bounds import (
    LowerBound,
    bounds_for,
    combined_bound,
    combined_batch_bound,
    combined_bound_table,
    has_bound_table,
    register_lower_bound,
    registered_lower_bounds,
)

__all__ = [
    "Distance",
    "DistanceCache",
    "EditDistance",
    "WarpingDistance",
    "shared_cache",
    "LowerBound",
    "bounds_for",
    "combined_bound",
    "combined_batch_bound",
    "combined_bound_table",
    "has_bound_table",
    "register_lower_bound",
    "registered_lower_bounds",
    "ElementMetric",
    "Euclidean",
    "Hamming",
    "Levenshtein",
    "WeightedLevenshtein",
    "DTW",
    "ERP",
    "DiscreteFrechet",
    "EDR",
    "LCSS",
    "check_consistency",
    "ConsistencyReport",
    "get_distance",
    "register_distance",
    "available_distances",
]
