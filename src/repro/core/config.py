"""Configuration of the subsequence-matching framework."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError


def _default_executor() -> str:
    """The configured default executor (the ``REPRO_EXECUTOR`` env var).

    Reading the environment here is what lets the CI matrix run the whole
    tier-1 suite under the thread executor without touching any test: the
    parallel paths promise byte-identical results and work counters, and
    that promise is only worth something if the entire suite can actually
    run on top of them.
    """
    return os.environ.get("REPRO_EXECUTOR", "serial")


@dataclass(frozen=True)
class MatcherConfig:
    """Parameters of the paper's framework.

    Attributes
    ----------
    min_length:
        The paper's ``lambda``: minimum length of a reported subsequence.
        Must be at least 2 so that the window length ``lambda / 2`` is at
        least 1.  The paper treats it as a per-application constant fixed at
        index-build time.
    max_shift:
        The paper's ``lambda0``: maximum allowed difference between the
        lengths of a matched query subsequence and database subsequence,
        and the slack used when extracting query segments.  Must be smaller
        than half the window length for the segment-count analysis of
        Section 5 to apply, but any non-negative value is accepted.
    eps_prime:
        Base radius of the reference net levels (the paper's default is 1).
    nummax:
        Optional cap on the number of parents per reference-net node.
    index:
        Which index backs the segment range queries: ``"reference-net"``
        (the paper's index; needs a metric distance) or ``"linear-scan"``
        (any consistent distance).  The paper's comparison baselines are
        count-only classes beside the figure benchmarks, not choices here.
    prefilter:
        Whether the matcher's step-4 distance evaluations may run the
        registered lower bounds of :mod:`repro.distances.lower_bounds` in
        front of the DP kernels.  Both indexes consult them.  The
        ``"linear-scan"`` index does for every distance that has a bound,
        pair by pair and *after* the cache (cache -> bound -> DP; a pruned
        pair is cached as ``distance > radius``).  The ``"reference-net"``
        index does for the distances whose bounds have a table form (the
        discrete Frechet distance today), *before* the cache (table ->
        cache -> DP): one table per query settles most of its routing, a
        node whose bound exceeds the radius is never measured, and skipping
        an internal node is safe because its bound still routes its
        children -- ``d(q, c) >= d(q, n) - link >= lb - link``.  For any
        other (index, distance) pair the flag changes nothing.  Admissible
        bounds never change results, so this is on by default.
    cache_max_entries:
        Capacity of the matcher's distance cache.  Any single query (and
        in particular Type III's whole radius sweep) needs at most
        ``segments x windows`` index entries plus its verification pairs,
        so the default comfortably covers full reuse within and across
        nearby queries while bounding the memory of a long-lived matcher
        serving a stream of distinct queries (oldest entries are evicted
        first).  ``None`` disables the bound.
    executor:
        Which execution engine runs the pipeline's probe and verify work
        units: ``"serial"`` (the default; also the reference semantics),
        ``"thread"``, or ``"process"`` -- see :mod:`repro.core.executor`.
        Whatever the choice, queries return byte-identical results and
        identical work counters.  The default honours the
        ``REPRO_EXECUTOR`` environment variable, which is how the CI
        matrix runs the whole test-suite on the thread executor.
    workers:
        Worker count for the parallel executors; ``None`` (default) means
        one per CPU.  Ignored by the serial executor.
    shards:
        Number of :class:`~repro.core.sharded.ShardedMatcher` partitions.
        A plain :class:`~repro.core.matcher.SubsequenceMatcher` ignores
        this; the CLI and the sharded constructor read it.
    """

    min_length: int
    max_shift: int = 0
    eps_prime: float = 1.0
    nummax: Optional[int] = None
    index: str = "reference-net"
    prefilter: bool = True
    cache_max_entries: Optional[int] = 262_144
    executor: str = field(default_factory=_default_executor)
    workers: Optional[int] = None
    shards: int = 1

    _KNOWN_INDEXES = ("reference-net", "linear-scan")

    _KNOWN_EXECUTORS = ("serial", "thread", "process")

    def __post_init__(self) -> None:
        if self.min_length < 2:
            raise ConfigurationError(
                f"min_length (lambda) must be >= 2, got {self.min_length}"
            )
        if self.max_shift < 0:
            raise ConfigurationError(
                f"max_shift (lambda0) must be non-negative, got {self.max_shift}"
            )
        if self.eps_prime <= 0:
            raise ConfigurationError(
                f"eps_prime must be positive, got {self.eps_prime}"
            )
        if self.nummax is not None and self.nummax < 1:
            raise ConfigurationError(f"nummax must be >= 1, got {self.nummax}")
        if self.index not in self._KNOWN_INDEXES:
            raise ConfigurationError(
                f"unknown index {self.index!r}; expected one of {self._KNOWN_INDEXES}"
            )
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ConfigurationError(
                f"cache_max_entries must be >= 1 or None, got {self.cache_max_entries}"
            )
        if self.executor not in self._KNOWN_EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; expected one of {self._KNOWN_EXECUTORS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1 or None, got {self.workers}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.window_length < 1:
            raise ConfigurationError(
                f"min_length={self.min_length} yields an empty window; use a larger lambda"
            )

    def require_shift_support(self, distance) -> None:
        """Refuse ``max_shift > 0`` for a lock-step distance (equal lengths only)."""
        if self.max_shift and not distance.supports_unequal_lengths:
            raise ConfigurationError(f"{distance.name!r} compares equal lengths: set max_shift=0")

    @property
    def window_length(self) -> int:
        """The database window length ``lambda / 2`` (integer division)."""
        return self.min_length // 2

    @property
    def segment_lengths(self) -> range:
        """Query segment lengths ``lambda/2 - lambda0 .. lambda/2 + lambda0``."""
        shortest = max(1, self.window_length - self.max_shift)
        return range(shortest, self.window_length + self.max_shift + 1)
