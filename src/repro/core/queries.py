"""Declarative query specs, result envelopes, and per-query statistics.

The paper distinguishes three query types (Section 3.2):

* **Type I** -- range query: every pair of similar subsequences;
* **Type II** -- longest similar subsequence: maximise the match length;
* **Type III** -- nearest neighbour: minimise the distance.

The dataclasses here are the *single source of truth* for what a query
means: a spec is self-validating, optionally carries the query sequence it
should run against (:meth:`BaseQuery.bind`), and every backend -- the plain
:class:`~repro.core.matcher.SubsequenceMatcher`, the
:class:`~repro.core.sharded.ShardedMatcher`, and the
:class:`~repro.core.service.SearchService` facade -- answers a bound spec
through the same ``execute(spec) -> QueryResult`` entry point.
:class:`TopKQuery` generalises Type III to k > 1 via a k-bounded candidate
heap (:class:`TopKCandidates`) maintained across the radius sweep.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence as TypingSequence, Tuple

from repro.exceptions import QueryError
from repro.sequences.sequence import Sequence
from repro.sequences.windows import Window


class BaseQuery:
    """Shared behaviour of the declarative query specs.

    Every concrete spec is a frozen dataclass whose trailing fields are the
    uniform envelope controls -- result paging (``limit``/``offset``) and an
    optional bound ``query`` sequence.  A spec without a bound sequence is a
    reusable template (``execute_many([spec.bind(q) for q in ...])``
    relies on that);
    :meth:`bind` attaches the sequence without mutating the template.
    """

    #: Stable identifier used by ``describe()`` and the CLI's ``--type`` flag.
    kind: ClassVar[str] = "base"

    def bind(self, query: Sequence) -> "BaseQuery":
        """A copy of this spec bound to the given query sequence."""
        return replace(self, query=query)

    def bound_query(self) -> Sequence:
        """The bound query sequence; raises when the spec is a bare template."""
        if self.query is None:
            raise QueryError(
                f"{type(self).__name__} has no bound query sequence; call "
                "spec.bind(query) before execute()"
            )
        return self.query

    def describe(self) -> Dict[str, object]:
        """JSON-safe echo of the spec: its type plus every scalar parameter."""
        payload: Dict[str, object] = {"type": self.kind}
        for spec_field in fields(self):
            if spec_field.name == "query":
                continue
            payload[spec_field.name] = getattr(self, spec_field.name)
        return payload

    def _require_finite(self, *names: str) -> None:
        """Reject a NaN or infinite value in any of the named fields.

        Python integers are always finite (and may be too large for
        :func:`math.isfinite`), so only the other numbers are tested."""
        for name in names:
            value = getattr(self, name)
            if value is not None and not isinstance(value, int) and not math.isfinite(value):
                raise QueryError(f"{name} must be a finite number, got {value}")

    def _validate_envelope(self) -> None:
        self._require_finite("limit", "offset")
        if self.limit is not None and self.limit < 1:
            raise QueryError(f"limit must be >= 1 or None, got {self.limit}")
        if self.offset < 0:
            raise QueryError(f"offset must be non-negative, got {self.offset}")


@dataclass(frozen=True)
class RangeQuery(BaseQuery):
    """Type I: all pairs of similar subsequences within ``radius``.

    With ``exhaustive=False`` (the default) the matcher reports one
    locally-maximal match per candidate chain -- a practical summary of the
    "large number of quite related results" the paper warns Type I queries
    produce.  With ``exhaustive=True`` it reports every admissible pair
    within ``radius`` from the start pairs the chains allow, with every
    stop: a subset of brute force's answer, bit-equal, in its order
    (sources in database order, then ascending offsets).  One prefix block
    per start pair, serially, without the distance cache: verification
    computations count start pairs, kernel calls count DP calls, and cache
    hits are 0.
    """

    kind: ClassVar[str] = "range"

    radius: float
    #: Safety valve: stop after this many verified pairs (None = unlimited).
    #: Unlike ``limit`` this caps the *work* -- verification stops early.
    max_results: Optional[int] = None
    #: Report every admissible pair from the chains' start pairs.
    exhaustive: bool = False
    #: Result paging: page size (None = everything) and starting position.
    limit: Optional[int] = None
    offset: int = 0
    #: The bound query sequence (see :meth:`BaseQuery.bind`).
    query: Optional[Sequence] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._require_finite("radius", "max_results")
        if self.radius < 0:
            raise QueryError(f"radius must be non-negative, got {self.radius}")
        if self.max_results is not None and self.max_results < 1:
            raise QueryError(f"max_results must be >= 1, got {self.max_results}")
        self._validate_envelope()


@dataclass(frozen=True)
class LongestSubsequenceQuery(BaseQuery):
    """Type II: the longest pair of similar subsequences within ``radius``."""

    kind: ClassVar[str] = "longest"

    radius: float
    #: Result paging (a Type II result has at most one match; kept for the
    #: uniform envelope).
    limit: Optional[int] = None
    offset: int = 0
    query: Optional[Sequence] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._require_finite("radius")
        if self.radius < 0:
            raise QueryError(f"radius must be non-negative, got {self.radius}")
        self._validate_envelope()


@dataclass(frozen=True)
class NearestSubsequenceQuery(BaseQuery):
    """Type III: the closest pair of subsequences of length at least lambda.

    Attributes
    ----------
    max_radius:
        Upper bound for the binary search over the range radius.
    tolerance:
        Binary-search precision on the radius.
    radius_increment:
        The paper's ``eps_inc``: how much to enlarge the radius when the
        minimal radius that yields segment matches produces no verifiable
        subsequence pair.
    """

    kind: ClassVar[str] = "nearest"

    max_radius: float
    tolerance: float = 1e-3
    radius_increment: Optional[float] = None
    limit: Optional[int] = None
    offset: int = 0
    query: Optional[Sequence] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._require_finite("max_radius", "tolerance", "radius_increment")
        if self.max_radius <= 0:
            raise QueryError(f"max_radius must be positive, got {self.max_radius}")
        if self.tolerance <= 0:
            raise QueryError(f"tolerance must be positive, got {self.tolerance}")
        if self.radius_increment is not None and self.radius_increment <= 0:
            raise QueryError(
                f"radius_increment must be positive, got {self.radius_increment}"
            )
        self._validate_envelope()


@dataclass(frozen=True)
class TopKQuery(BaseQuery):
    """Type III generalised to the ``k`` nearest subsequence pairs.

    The matcher answers it with the same radius sweep as
    :class:`NearestSubsequenceQuery` -- binary-search the minimal radius
    producing segment matches, then enlarge by ``radius_increment`` -- but
    instead of stopping at the first verified pair it maintains a k-bounded
    candidate heap (:class:`TopKCandidates`) across the passes and stops as
    soon as the heap holds ``k`` distinct matches.  Candidates are ranked by
    the deterministic :func:`match_ranking_key`, which is what makes a
    sharded sweep merge to exactly the unsharded answer.

    ``TopKQuery(k=1, ...)`` is byte-identical -- results *and* work
    counters -- to :class:`NearestSubsequenceQuery` with the same
    parameters.
    """

    kind: ClassVar[str] = "topk"

    k: int
    max_radius: float
    tolerance: float = 1e-3
    radius_increment: Optional[float] = None
    limit: Optional[int] = None
    offset: int = 0
    query: Optional[Sequence] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._require_finite("k", "max_radius", "tolerance", "radius_increment")
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.max_radius <= 0:
            raise QueryError(f"max_radius must be positive, got {self.max_radius}")
        if self.tolerance <= 0:
            raise QueryError(f"tolerance must be positive, got {self.tolerance}")
        if self.radius_increment is not None and self.radius_increment <= 0:
            raise QueryError(
                f"radius_increment must be positive, got {self.radius_increment}"
            )
        self._validate_envelope()


def as_query_spec(spec) -> BaseQuery:
    """Normalise a user-supplied spec: a bare number is a Type I radius."""
    if isinstance(spec, BaseQuery):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return RangeQuery(radius=float(spec))
    raise QueryError(f"unsupported query spec: {spec!r}")


@dataclass(frozen=True)
class SegmentMatch:
    """Step-4 output: one query segment paired with one database window."""

    #: Start offset of the query segment within the query sequence.
    query_start: int
    #: Length of the query segment.
    query_length: int
    #: The matched database window (with provenance).
    window: Window
    #: Distance between segment and window when it was computed, else None.
    distance: Optional[float]

    @property
    def query_stop(self) -> int:
        """Exclusive end offset of the query segment."""
        return self.query_start + self.query_length


@dataclass(frozen=True, order=True)
class SubsequenceMatch:
    """A verified pair of similar subsequences (the framework's final output).

    Offsets are zero-based and half-open, i.e. the query subsequence is
    ``query[query_start:query_stop]`` and the database subsequence is
    ``database[source_id][db_start:db_stop]``.
    """

    distance: float
    source_id: str = field(compare=False)
    query_start: int = field(compare=False)
    query_stop: int = field(compare=False)
    db_start: int = field(compare=False)
    db_stop: int = field(compare=False)

    @property
    def query_length(self) -> int:
        """Length of the query-side subsequence."""
        return self.query_stop - self.query_start

    @property
    def db_length(self) -> int:
        """Length of the database-side subsequence."""
        return self.db_stop - self.db_start

    @property
    def length(self) -> int:
        """The shorter of the two subsequence lengths (the reported size)."""
        return min(self.query_length, self.db_length)

    def __repr__(self) -> str:
        return (
            f"SubsequenceMatch(source={self.source_id!r}, "
            f"query=[{self.query_start}:{self.query_stop}], "
            f"db=[{self.db_start}:{self.db_stop}], distance={self.distance:.4f})"
        )


def match_identity(match: SubsequenceMatch) -> tuple:
    """The identity of a match: which subsequence pair it names."""
    return (
        match.source_id,
        match.query_start,
        match.query_stop,
        match.db_start,
        match.db_stop,
    )


def match_ranking_key(match: SubsequenceMatch) -> tuple:
    """Deterministic total order for nearest / top-k ranking.

    Smaller distance wins; exact distance ties go to the longer match, then
    to ``(seq_id, offsets)``.  The key extends to the full identity of the
    match, so it is a *total* order: two distinct matches never compare
    equal, which is what lets a sharded sweep merge per-shard candidates
    into exactly the match list an unsharded sweep produces.
    """
    return (
        match.distance,
        -match.length,
        match.source_id,
        match.query_start,
        match.db_start,
        match.query_stop,
        match.db_stop,
    )


class TopKCandidates:
    """A k-bounded candidate pool ordered by :func:`match_ranking_key`.

    The top-k radius sweep feeds every verified match of every pass into
    this structure; it keeps the ``k`` best-ranked distinct matches seen so
    far (a bounded min-heap, maintained as a sorted list because ``k`` is
    small) and deduplicates by match identity -- the same subsequence pair
    re-verified at a larger radius is not a new candidate.  The final
    contents depend only on the *set* of matches fed in, never on their
    arrival order, which is the property the sharded/unsharded equivalence
    rests on.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: List[Tuple[tuple, SubsequenceMatch]] = []
        self._seen: set = set()

    def add(self, match: SubsequenceMatch) -> bool:
        """Offer a candidate; returns whether it entered the pool."""
        identity = match_identity(match)
        if identity in self._seen:
            return False
        self._seen.add(identity)
        key = match_ranking_key(match)
        if len(self._entries) == self.k and key >= self._entries[-1][0]:
            return False
        bisect.insort(self._entries, (key, match))
        if len(self._entries) > self.k:
            self._entries.pop()
        return True

    @property
    def full(self) -> bool:
        """Whether the pool holds ``k`` candidates (the sweep's stop signal)."""
        return len(self._entries) == self.k

    def ranked(self) -> List[SubsequenceMatch]:
        """The candidates, best first."""
        return [match for _key, match in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class QueryStats:
    """Work accounting for one framework query.

    Attributes
    ----------
    segments_extracted:
        Number of query segments considered (step 3).
    index_distance_computations:
        Fresh distance evaluations spent inside the index during step 4.
    index_cache_hits:
        Step-4 distance requests answered by the matcher's distance cache
        (no kernel was run); counted separately so the computation counts
        keep matching the paper's definition.  Only requests that reached
        the index count: the later passes of a radius sweep are answered
        from the sweep's probe table where it is complete (see
        ``table_segments``), so a warm sweep over a linear scan reads one
        probe's worth of hits (segments x windows), not one per pass.
    table_segments:
        Segments of this pass whose step-4 hits came from the running radius
        sweep's probe table (:class:`~repro.core.pipeline.ProbeTable`)
        instead of the index: an earlier, wider pass of the same sweep had
        measured every hit of the segment, so a ``distance <= radius``
        filter over its rows is the index's answer.  0 outside a sweep and
        on a sweep's first pass; summed over passes (and shards) in merged
        statistics, where ``table_segments / (segments_extracted x passes)``
        is the share of per-segment index probes the sweep never made.
    index_kernel_calls:
        Kernel invocations the step-4 probe issued through the index's
        counting wrapper: one per single, batched or pair-batched request,
        however many pairs it carried (see
        :attr:`~repro.indexing.stats.DistanceCounter.kernel_calls`).  The
        reference net's whole-query frontier keeps it near
        ``levels x shape groups``, whatever the number of segments.  Not part
        of the executor-invariance contract -- work units that a parallel
        executor records and replays (the linear scan's) compute outside
        the counting wrapper and are not tallied here -- so it is a
        diagnostic (``repro search --stats``) and is not on the wire.
    verification_distance_computations:
        Step-5 distance requests the distance cache did not answer: one
        distance value each, whether a single kernel call or a prefix block
        (see ``verification_kernel_calls``) produced it; exhaustive Type I
        and brute force count start pairs instead.
    verification_cache_hits:
        Step-5 distance requests answered by the distance cache.
    verification_kernel_calls:
        DP kernel invocations step 5 issued: prefix blocks swept plus single
        calls.  One block of a start pair's one shape
        (:class:`~repro.core.verification.StartPairBlocks`) answers every
        request that shares its ``(sequence, query start, database start)``
        and is swept again only for a larger cutoff, so this is where the
        verification kernel work shows, while
        ``verification_distance_computations`` keeps counting requests.  It
        depends on execution -- racing thread-executor units may sweep one
        block twice -- so, like ``index_kernel_calls``, it is a diagnostic
        (``repro search --stats``) and is not on the wire.
    segment_matches:
        Number of (segment, window) pairs produced by step 4.
    candidate_chains:
        Number of candidate chains examined in step 5.
    naive_distance_computations:
        What a linear scan would have spent in step 4 (segments x windows);
        the ratio against ``index_distance_computations`` is the paper's
        pruning ratio ``alpha``.
    prefilter_evaluations:
        Lower bounds consulted in front of the step-4 kernels (see
        :mod:`repro.distances.lower_bounds`); 0 unless the backing index
        prefilters.  By default the matcher's linear scan does (one per
        pair that missed the cache), and so does its reference net for a
        distance with a bound table (one per node its traversal classifies,
        before the cache is asked) -- see
        :attr:`~repro.core.config.MatcherConfig.prefilter`.
    prefilter_pruned:
        Evaluations that settled the pair without a kernel execution: the
        bound proved it outside the radius.  On the scan the pair is then
        cached as ``distance > radius``; on the net it is a node rejected
        with its subtree or skipped (routed by its bound, which is safe:
        ``d(q, child) >= d(q, node) - link >= bound - link``), and nothing
        is cached -- the table entry is free to recompute.
    stage_timings:
        Wall-clock seconds per pipeline stage (``segment``, ``probe``,
        ``chain``, ``verify``), as measured by the query-execution pipeline.
        Prefilter time is part of ``probe`` (the scan's bounds run inside
        the batched kernel dispatch, the net's table is built at the start
        of the stage); its effect is visible through the prefilter counters
        instead.
    cpu_stage_timings:
        CPU seconds per pipeline stage: the orchestrating thread's CPU time
        plus the summed per-worker CPU time of every parallel work unit.
        Under the serial executor this tracks ``stage_timings``; under a
        parallel executor the CPU sum can exceed the wall-clock (several
        workers burning CPU simultaneously), which is exactly the "work
        that does not show up in wall-clock" a parallel run would otherwise
        appear to lose.
    executor / workers:
        The execution engine that answered the query and its worker count
        (see :mod:`repro.core.executor`).
    kernel_backend:
        The engine of the query's DP sweeps: always ``"cc"``, the C kernels
        of :mod:`repro.distances.compiled` (kept for readers of the wire
        envelope and of older stats records).
    shards:
        Number of matcher shards that contributed to these statistics (1
        for a plain matcher; see
        :class:`~repro.core.sharded.ShardedMatcher`).
    passes:
        Per-pass history for queries that repeat steps 3-5 (Type III's
        radius sweep): one :class:`QueryStats` per pass, in execution
        order.  For such queries the flat counters above follow
        :meth:`merged`'s convention -- work counters are summed over the
        passes while the shape counters describe the final pass.
    """

    segments_extracted: int = 0
    index_distance_computations: int = 0
    verification_distance_computations: int = 0
    segment_matches: int = 0
    candidate_chains: int = 0
    naive_distance_computations: int = 0
    index_cache_hits: int = 0
    verification_cache_hits: int = 0
    prefilter_evaluations: int = 0
    prefilter_pruned: int = 0
    table_segments: int = 0
    index_kernel_calls: int = 0
    verification_kernel_calls: int = 0
    stage_timings: Dict[str, float] = field(default_factory=dict)
    cpu_stage_timings: Dict[str, float] = field(default_factory=dict)
    executor: str = "serial"
    workers: int = 1
    kernel_backend: ClassVar[str] = "cc"
    shards: int = 1
    passes: List["QueryStats"] = field(default_factory=list)

    #: Which field each stage's :class:`~repro.indexing.stats.DistanceCounter`
    #: tally fills (see :meth:`fill`).
    INDEX_COUNTER: ClassVar[Dict[str, str]] = {
        "total": "index_distance_computations",
        "cache_hits": "index_cache_hits",
        "prefilter_evaluations": "prefilter_evaluations",
        "prefilter_pruned": "prefilter_pruned",
        "kernel_calls": "index_kernel_calls",
    }
    VERIFICATION_COUNTER: ClassVar[Dict[str, str]] = {
        "total": "verification_distance_computations",
        "cache_hits": "verification_cache_hits",
        "kernel_calls": "verification_kernel_calls",
    }
    #: Work counters: what a query cost, summed over passes and shards.
    WORK: ClassVar[Tuple[str, ...]] = (
        *INDEX_COUNTER.values(), *VERIFICATION_COUNTER.values(), "table_segments"
    )
    #: Shape counters: what a pass looked like; ``merged`` keeps the final
    #: pass's, ``across_shards`` sums all but ``segments_extracted``.
    SHAPE: ClassVar[Tuple[str, ...]] = (
        "segments_extracted", "segment_matches", "candidate_chains", "naive_distance_computations"
    )

    def fill(self, stage: Dict[str, str], counter) -> None:
        """Set the fields of ``stage`` (:attr:`INDEX_COUNTER`, ...) from ``counter``."""
        for tally, name in stage.items():
            setattr(self, name, getattr(counter, tally))

    @property
    def total_distance_computations(self) -> int:
        """All fresh distance evaluations performed while answering the query."""
        return self.index_distance_computations + self.verification_distance_computations

    @property
    def total_cache_hits(self) -> int:
        """All distance requests the cache answered while answering the query."""
        return self.index_cache_hits + self.verification_cache_hits

    @property
    def pruning_ratio(self) -> float:
        """Fraction of naive step-4 distance computations avoided (``alpha``)."""
        if self.naive_distance_computations == 0:
            return 0.0
        saved = self.naive_distance_computations - self.index_distance_computations
        return max(0.0, saved / self.naive_distance_computations)

    @property
    def prefilter_prune_ratio(self) -> float:
        """Fraction of prefilter evaluations that skipped a kernel."""
        if self.prefilter_evaluations == 0:
            return 0.0
        return self.prefilter_pruned / self.prefilter_evaluations

    @classmethod
    def merged(cls, passes: TypingSequence["QueryStats"]) -> "QueryStats":
        """Aggregate the stats of repeated step-3/4/5 passes (Type III).

        The :attr:`WORK` counters and both stage timings are summed across
        the passes -- that is what answering the query actually cost --
        while the :attr:`SHAPE` counters, the executor and the shard count
        report the *final* pass, the one that produced the answer.  The
        full per-pass history is kept in :attr:`passes`.
        """
        if not passes:
            return cls()
        return cls._combine(passes, cls.SHAPE, passes[-1], passes[-1].shards)

    @classmethod
    def across_shards(cls, shard_stats: TypingSequence["QueryStats"]) -> "QueryStats":
        """Combine per-shard statistics into one record (sharded matchers).

        Every shard answered the *same* query over *its* partition of the
        windows, so ``segments_extracted`` and the executor are taken from
        the first shard (each extracted the identical segment set) while
        every other counter -- work, matches, chains, the naive denominator
        -- and both stage timings sum across shards.  ``shards`` records the
        fan-out width; the per-shard records are kept in :attr:`passes`.
        """
        if not shard_stats:
            return cls()
        return cls._combine(shard_stats, ("segments_extracted",), shard_stats[0], len(shard_stats))

    @classmethod
    def _combine(
        cls,
        records: TypingSequence["QueryStats"],
        kept: Tuple[str, ...],
        model: "QueryStats",
        shards: int,
    ) -> "QueryStats":
        """One record of ``records``: the ``kept`` counters and the executor
        from ``model``; every other counter and both stage timings summed."""
        total = cls(executor=model.executor, workers=model.workers, shards=shards)
        for name in cls.WORK + cls.SHAPE:
            if name in kept:
                setattr(total, name, getattr(model, name))
            else:
                setattr(total, name, sum(getattr(stats, name) for stats in records))
        for stats in records:
            for source, target in (
                (stats.stage_timings, total.stage_timings),
                (stats.cpu_stage_timings, total.cpu_stage_timings),
            ):
                for stage, seconds in source.items():
                    target[stage] = target.get(stage, 0.0) + seconds
        total.passes = list(records)
        return total


@dataclass
class QueryResult:
    """The uniform answer envelope of ``execute()`` -- every backend, every
    query type.

    Attributes
    ----------
    query:
        Echo of the spec that was executed (with its bound sequence).
    matches:
        The verified matches, after the spec's ``limit``/``offset`` paging.
        Type II/III put their single best match (or nothing) here; Type I
        and top-k put their full (paged) result list, best-first for top-k.
    total_matches:
        Match count *before* paging, so a pager knows when to stop.
    stats:
        The :class:`QueryStats` work accounting for the whole query.
    error:
        ``None`` on success; on a query that failed with a
        :class:`~repro.exceptions.QueryError` inside ``execute_many()``
        (e.g. a Type III query with no segment match at ``max_radius``),
        the error message -- the envelope then carries no matches.
    """

    query: BaseQuery
    matches: List[SubsequenceMatch]
    total_matches: int
    stats: QueryStats
    error: Optional[str] = None

    @classmethod
    def build(
        cls,
        spec: BaseQuery,
        matches: TypingSequence[SubsequenceMatch],
        stats: QueryStats,
        error: Optional[str] = None,
    ) -> "QueryResult":
        """Assemble the envelope, applying the spec's result paging."""
        matches = list(matches)
        total = len(matches)
        paged = matches[spec.offset :] if spec.offset else matches
        if spec.limit is not None:
            paged = paged[: spec.limit]
        return cls(query=spec, matches=paged, total_matches=total, stats=stats, error=error)

    @property
    def best(self) -> Optional[SubsequenceMatch]:
        """The first (best) match, or ``None`` -- the single-result view."""
        return self.matches[0] if self.matches else None

    def __iter__(self) -> Iterator[SubsequenceMatch]:
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def __bool__(self) -> bool:
        return bool(self.matches)
