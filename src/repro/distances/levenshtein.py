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

from repro.distances.compiled import MODE_LEVENSHTEIN, MODE_WEIGHTED, weighted_params
from repro.distances.elastic import EditDistance
from repro.exceptions import DistanceError


class Levenshtein(EditDistance):
    """Classic unit-cost edit distance between symbol sequences.

    Operands are compared element-wise for equality, so the class works both
    for integer-encoded strings and (exactly equal) numeric series.
    """

    name = "levenshtein"
    is_metric = True
    integer_valued = True
    mode = MODE_LEVENSHTEIN

    def substitution(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """0 for identical elements, 1 otherwise."""
        return (np.any(first[..., :, None, :] != second[..., None, :, :], axis=-1)).astype(
            np.float64
        )


def _symbol_code(value) -> int:
    """A substitution-table key as the integer symbol code it must be.

    Elements compare with table keys as int64 codes, so a key such as 1.5
    could never match one; it is refused rather than silently ignored."""
    try:
        code = int(value)
    except (TypeError, ValueError, OverflowError):
        code = None
    if code is None or code != value:
        raise DistanceError(f"substitution table keys must be integer symbol codes, got {value!r}")
    return code


class WeightedLevenshtein(EditDistance):
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
    mode = MODE_WEIGHTED

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
        self.substitution_costs = {}
        for (a, b), cost in dict(substitution_costs or {}).items():
            if cost < 0:
                raise DistanceError("edit costs must be non-negative")
            self.substitution_costs[_symbol_code(a), _symbol_code(b)] = float(cost)
        self.insertion_cost = float(insertion_cost)
        self.deletion_cost = float(deletion_cost)
        self.default_substitution = float(default_substitution)
        self.is_metric = bool(metric)

    @staticmethod
    def _check_scalar(dim: int) -> None:
        if dim != 1:
            raise DistanceError("weighted Levenshtein expects scalar symbol codes")

    def substitution(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        self._check_scalar(first.shape[-1])
        firsts = first[..., :, None, 0].astype(np.int64)
        seconds = second[..., None, :, 0].astype(np.int64)
        matrix = np.where(firsts == seconds, 0.0, self.default_substitution)
        for (a, b), cost in self.substitution_costs.items():
            matrix[(firsts == a) & (seconds == b)] = cost
        return matrix

    def deletion(self, first: np.ndarray) -> np.ndarray:
        return np.full(first.shape[:-1], self.deletion_cost, dtype=np.float64)

    def insertion(self, second: np.ndarray) -> np.ndarray:
        return np.full(second.shape[:-1], self.insertion_cost, dtype=np.float64)

    def kernel_args(self, dim: int) -> tuple:
        self._check_scalar(dim)
        params = weighted_params(
            self.default_substitution, self.insertion_cost, self.deletion_cost,
            self.substitution_costs,
        )
        return 0, params, 0.0

    def __repr__(self) -> str:
        return (
            f"WeightedLevenshtein(insertion={self.insertion_cost}, "
            f"deletion={self.deletion_cost}, metric={self.is_metric})"
        )
