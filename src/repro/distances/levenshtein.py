"""Levenshtein (edit) distance and its weighted generalisation.

The Levenshtein distance is the string measure the paper evaluates on the
PROTEINS dataset: the minimum number of insertions, deletions, and
substitutions required to turn one string into the other.  It is a metric
(with unit costs), consistent (Section 4), and tolerant to gaps, making it
the recommended string distance for the framework.

:class:`WeightedLevenshtein` generalises the costs, which is how tools such
as BLAST weigh biologically plausible substitutions; with arbitrary weights
metricity is only preserved when the substitution cost matrix itself is a
metric over the alphabet and insert/delete costs are symmetric.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.distances.alignment import (
    Alignment,
    batch_edit_distance_value,
    edit_distance_value,
    edit_table,
    edit_traceback,
)
from repro.distances.backend import fused_provider
from repro.distances.base import Distance, stacked_pairs
from repro.distances.compiled import MODE_LEVENSHTEIN, NO_GAP
from repro.exceptions import DistanceError


class Levenshtein(Distance):
    """Classic unit-cost edit distance between symbol sequences.

    Operands are compared element-wise for equality, so the class works both
    for integer-encoded strings and (exactly equal) numeric series.
    """

    name = "levenshtein"
    is_metric = True
    is_consistent = True
    supports_unequal_lengths = True

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(
        self, first: np.ndarray, second: np.ndarray, cutoff: Optional[float]
    ) -> float:
        """Early-abandoning edit distance: unit costs keep rows monotone."""
        kernels = fused_provider(first.shape[1])
        if kernels is not None:
            return kernels.edit_value(
                first, second, MODE_LEVENSHTEIN, 0, NO_GAP, 0.0, cutoff
            )
        substitution = (np.any(first[:, None, :] != second[None, :, :], axis=2)).astype(
            np.float64
        )
        deletion = np.ones(first.shape[0], dtype=np.float64)
        insertion = np.ones(second.shape[0], dtype=np.float64)
        return edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def compute_batch(self, query: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """Batched edit distance: one mismatch tensor, one row sweep."""
        kernels = fused_provider(query.shape[1])
        if kernels is not None:
            return kernels.edit_batch(
                query, items, MODE_LEVENSHTEIN, 0, NO_GAP, 0.0, cutoff
            )
        return self._stacked(query, items, cutoff)

    @staticmethod
    def _stacked(queries: np.ndarray, items: np.ndarray, cutoff) -> np.ndarray:
        """The NumPy sweep: one shared ``(n, dim)`` query or one per item."""
        substitution = (
            np.any(queries[..., :, None, :] != items[:, None, :, :], axis=3)
        ).astype(np.float64)
        deletion = np.ones(queries.shape[-2], dtype=np.float64)
        insertion = np.ones((items.shape[0], items.shape[1]), dtype=np.float64)
        return batch_edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def compute_pairs(self, queries, query_rows, items, item_rows, cutoff=None) -> np.ndarray:
        """Pair-form edit distance: the batch kernel per pair, one call for all."""
        kernels = fused_provider(queries.shape[2])
        if kernels is not None:
            return kernels.edit_pairs(
                queries, query_rows, items, item_rows, MODE_LEVENSHTEIN, 0, NO_GAP, 0.0, cutoff
            )
        return stacked_pairs(self._stacked, queries, query_rows, items, item_rows, cutoff)

    def alignment(self, first, second) -> Alignment:
        """Return one optimal alignment (couplings of matched positions)."""
        from repro.distances.base import as_array, check_same_dim

        a = as_array(first)
        b = as_array(second)
        check_same_dim(a, b)
        substitution = (np.any(a[:, None, :] != b[None, :, :], axis=2)).astype(np.float64)
        deletion = np.ones(a.shape[0], dtype=np.float64)
        insertion = np.ones(b.shape[0], dtype=np.float64)
        table = edit_table(substitution, deletion, insertion)
        return edit_traceback(table, substitution, deletion, insertion)

    def lower_bound(self, first, second) -> float:
        """The length difference is a lower bound on the edit distance."""
        from repro.distances.base import as_array

        return float(abs(as_array(first).shape[0] - as_array(second).shape[0]))

    def empty_distance(self, other) -> float:
        """Edit distance against the empty sequence: one insertion per element."""
        from repro.distances.base import as_array

        return float(as_array(other).shape[0])


class WeightedLevenshtein(Distance):
    """Edit distance with configurable substitution / gap costs.

    Parameters
    ----------
    substitution_costs:
        Mapping from symbol-code pairs ``(a, b)`` to the cost of substituting
        ``a`` by ``b``.  Missing pairs fall back to ``default_substitution``
        (or 0 when ``a == b``).
    insertion_cost / deletion_cost:
        Cost of inserting / deleting one symbol.
    default_substitution:
        Cost used for substitution pairs absent from the mapping.
    metric:
        Declare whether the chosen costs form a metric.  The class cannot
        verify this cheaply for arbitrary cost tables, so the caller states
        it; the indexes refuse non-metric distances.
    """

    name = "weighted-levenshtein"
    is_consistent = True
    supports_unequal_lengths = True

    def __init__(
        self,
        substitution_costs: Optional[Dict[Tuple[int, int], float]] = None,
        insertion_cost: float = 1.0,
        deletion_cost: float = 1.0,
        default_substitution: float = 1.0,
        metric: bool = False,
    ) -> None:
        if insertion_cost < 0 or deletion_cost < 0 or default_substitution < 0:
            raise DistanceError("edit costs must be non-negative")
        self.substitution_costs = dict(substitution_costs or {})
        for cost in self.substitution_costs.values():
            if cost < 0:
                raise DistanceError("edit costs must be non-negative")
        self.insertion_cost = float(insertion_cost)
        self.deletion_cost = float(deletion_cost)
        self.default_substitution = float(default_substitution)
        self.is_metric = bool(metric)

    def _substitution_matrix(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        n, m = first.shape[0], second.shape[0]
        matrix = np.empty((n, m), dtype=np.float64)
        firsts = first[:, 0].astype(np.int64)
        seconds = second[:, 0].astype(np.int64)
        for i in range(n):
            a = int(firsts[i])
            for j in range(m):
                b = int(seconds[j])
                if a == b:
                    matrix[i, j] = self.substitution_costs.get((a, b), 0.0)
                else:
                    matrix[i, j] = self.substitution_costs.get(
                        (a, b), self.default_substitution
                    )
        return matrix

    def compute(self, first: np.ndarray, second: np.ndarray) -> float:
        return self.compute_bounded(first, second, None)

    def compute_bounded(
        self, first: np.ndarray, second: np.ndarray, cutoff: Optional[float]
    ) -> float:
        """Early-abandoning weighted edit distance (costs are non-negative)."""
        if first.shape[1] != 1:
            raise DistanceError("weighted Levenshtein expects scalar symbol codes")
        substitution = self._substitution_matrix(first, second)
        deletion = np.full(first.shape[0], self.deletion_cost, dtype=np.float64)
        insertion = np.full(second.shape[0], self.insertion_cost, dtype=np.float64)
        return edit_distance_value(substitution, deletion, insertion, cutoff=cutoff)

    def empty_distance(self, other) -> float:
        """Weighted edit distance against the empty sequence: all insertions."""
        from repro.distances.base import as_array

        return float(as_array(other).shape[0]) * self.insertion_cost

    def __repr__(self) -> str:
        return (
            f"WeightedLevenshtein(insertion={self.insertion_cost}, "
            f"deletion={self.deletion_cost}, metric={self.is_metric})"
        )
