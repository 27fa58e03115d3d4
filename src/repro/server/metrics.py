"""Thread-safe service metrics behind ``GET /metrics``.

The server records one observation per query: its wall-clock latency plus
the cache counters of the :class:`~repro.core.queries.QueryStats` it
produced.  The snapshot exposes the operational numbers ROADMAP item 1 asks
for -- queries served, p50/p99 latency, and the index/verification cache
hit rates -- without keeping unbounded history: latencies live in a
fixed-size ring (the most recent :data:`LATENCY_WINDOW` observations), the
counters are plain monotonic sums.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Optional

from repro.core.queries import QueryStats

#: How many recent latency observations the percentile window keeps.
LATENCY_WINDOW = 4096


def _percentile(ordered, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (fraction in [0, 1])."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


class ServerMetrics:
    """Counters + latency window, safe to update from many request threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries_served = 0
        self.batches_served = 0
        self.mutations = 0
        self.query_errors = 0
        self.parse_errors = 0
        self.timeouts = 0
        self.rejected = 0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._index_cache_hits = 0
        self._index_distance_computations = 0
        self._verification_cache_hits = 0
        self._verification_distance_computations = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_query(self, seconds: float, stats: Optional[QueryStats] = None) -> None:
        """One executed query: its latency and (optionally) its work stats."""
        with self._lock:
            self.queries_served += 1
            self._latencies.append(float(seconds))
            if stats is not None:
                self._index_cache_hits += stats.index_cache_hits
                self._index_distance_computations += stats.index_distance_computations
                self._verification_cache_hits += stats.verification_cache_hits
                self._verification_distance_computations += (
                    stats.verification_distance_computations
                )

    def record_batch(self) -> None:
        with self._lock:
            self.batches_served += 1

    def record_mutation(self) -> None:
        with self._lock:
            self.mutations += 1

    def record_query_error(self) -> None:
        with self._lock:
            self.query_errors += 1

    def record_parse_error(self) -> None:
        with self._lock:
            self.parse_errors += 1

    def record_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _hit_rate(hits: int, computations: int) -> Optional[float]:
        total = hits + computations
        if total == 0:
            return None
        return hits / total

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe snapshot of every counter, percentile, and rate."""
        with self._lock:
            ordered = sorted(self._latencies)
            return {
                "queries_served": self.queries_served,
                "batches_served": self.batches_served,
                "mutations": self.mutations,
                "query_errors": self.query_errors,
                "parse_errors": self.parse_errors,
                "timeouts": self.timeouts,
                "rejected": self.rejected,
                "latency": {
                    "window": len(ordered),
                    "p50_seconds": _percentile(ordered, 0.50),
                    "p99_seconds": _percentile(ordered, 0.99),
                    "mean_seconds": (sum(ordered) / len(ordered)) if ordered else 0.0,
                    "max_seconds": ordered[-1] if ordered else 0.0,
                },
                "cache": {
                    "index_hit_rate": self._hit_rate(
                        self._index_cache_hits, self._index_distance_computations
                    ),
                    "index_cache_hits": self._index_cache_hits,
                    "verification_hit_rate": self._hit_rate(
                        self._verification_cache_hits,
                        self._verification_distance_computations,
                    ),
                    "verification_cache_hits": self._verification_cache_hits,
                },
            }


__all__ = ["ServerMetrics", "LATENCY_WINDOW"]
