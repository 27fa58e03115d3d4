"""Step 5b: verifying candidate chains as actual subsequence matches.

A candidate chain says "the windows ``[db_start, db_stop)`` of sequence ``s``
matched the query region ``[query_start, query_stop)`` segment by segment".
Verification turns that hint into a concrete pair of subsequences whose
distance is actually within the query radius.  Section 7 of the paper bounds
where the endpoints of such subsequences can lie; within those bounds this
module offers two strategies:

* :func:`verify_chain` -- check the chain's own span and then greedily grow
  it while the distance stays within the radius (the practical strategy the
  matcher uses for Type II/III);
* :func:`enumerate_matches` -- exhaustively check every admissible endpoint
  combination (used for Type I on small inputs and by the test-suite as an
  oracle).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.candidates import CandidateChain
from repro.core.config import MatcherConfig
from repro.core.queries import SubsequenceMatch
from repro.distances.base import Distance
from repro.distances.cache import DistanceCache
from repro.sequences.sequence import Sequence


def _clip(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


def chain_bounds(
    chain: CandidateChain,
    query_length: int,
    db_length: int,
    config: MatcherConfig,
) -> Tuple[range, range, range, range]:
    """Admissible endpoint ranges for subsequences expanded from ``chain``.

    Following Section 7: starting from a matched pair, the query-side
    subsequence may start up to ``lambda/2 + lambda0`` before the matched
    region and end up to ``lambda/2 + lambda0`` after it, while the
    database-side subsequence may extend by up to ``lambda/2`` before its
    first window and after its last one.  Inward, a subsequence may start
    as late as the chain's last window (segment) starts and stop as early
    as its first one stops: any admissible subsequence that contains one
    whole window of the chain is offered, not only those containing all of
    them.  Ranges are clipped to the actual sequence lengths.
    """
    reach_q = config.window_length + config.max_shift
    reach_x = config.window_length
    first, last = chain.matches[0], chain.matches[-1]
    q_starts = range(_clip(chain.query_start - reach_q, 0, query_length), last.query_start + 1)
    q_stops = range(first.query_stop, _clip(chain.query_stop + reach_q, 0, query_length) + 1)
    x_starts = range(_clip(chain.db_start - reach_x, 0, db_length), last.window.start + 1)
    x_stops = range(first.window.stop, _clip(chain.db_stop + reach_x, 0, db_length) + 1)
    return q_starts, q_stops, x_starts, x_stops


def _admissible(
    q_start: int,
    q_stop: int,
    x_start: int,
    x_stop: int,
    config: MatcherConfig,
    equal_only: bool = False,
) -> bool:
    """Length constraints of the paper: both >= lambda, difference <= lambda0.

    ``equal_only`` additionally forces equal lengths, which is required when
    the distance is a lockstep measure (Euclidean, Hamming).
    """
    q_len = q_stop - q_start
    x_len = x_stop - x_start
    if q_len < config.min_length or x_len < config.min_length:
        return False
    if equal_only:
        return q_len == x_len
    return abs(q_len - x_len) <= config.max_shift


class _VerificationCounter:
    """Tiny helper so the matcher can report verification-time distance work.

    ``count`` is fresh kernel executions; ``cache_hits`` is distance
    requests answered by the matcher's :class:`DistanceCache`.
    """

    def __init__(self) -> None:
        self.count = 0
        self.cache_hits = 0


def _measure(
    distance: Distance,
    first: Sequence,
    second: Sequence,
    radius: float,
    counter: _VerificationCounter,
    cache: Optional[DistanceCache],
) -> float:
    """One verification-time distance request, early-abandoned past ``radius``.

    The returned value is exact whenever it is at most ``radius`` (which is
    all verification decisions need); beyond the radius it may be ``inf``.
    Results -- including abandoned lower bounds -- go through the shared
    cache so Type III's repeated re-verification of the same chain at
    growing radii never recomputes a pair.
    """
    if cache is not None:
        cached = cache.lookup(first, second, cutoff=radius)
        if cached is not None:
            counter.cache_hits += 1
            return cached
    value = distance.bounded(first, second, radius)
    counter.count += 1
    if cache is not None:
        cache.store(first, second, value, cutoff=radius)
    return value


def _cut_pair(
    spans,
    chain: CandidateChain,
    query: Sequence,
    db_sequence: Sequence,
    q_start: int,
    q_stop: int,
    x_start: int,
    x_stop: int,
) -> Tuple[Sequence, Sequence]:
    """The two operands of one distance request.

    ``spans`` is the caller's span memo (the pipeline's per-query
    :class:`~repro.core.pipeline.QueryScratch`), or ``None`` to cut both
    subsequences afresh.  Only the ``Sequence`` objects are shared; the
    request itself -- cache lookup, kernel, store, counters -- is unchanged.
    """
    if spans is None:
        return query.subsequence(q_start, q_stop), db_sequence.subsequence(x_start, x_stop)
    return (
        spans.span(None, query, q_start, q_stop),
        spans.span(chain.source_id, db_sequence, x_start, x_stop),
    )


def verify_chain(
    chain: CandidateChain,
    query: Sequence,
    db_sequence: Sequence,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
    counter: Optional[_VerificationCounter] = None,
    cache: Optional[DistanceCache] = None,
    spans=None,
) -> Optional[SubsequenceMatch]:
    """Verify ``chain`` and greedily extend it into the longest passing match.

    The strategy starts from the smallest admissible pair containing the
    chain's span, checks it, and then repeatedly tries to extend either end
    of either subsequence by one element, keeping any extension that stays
    within ``radius``.  The result is a locally-maximal match; ``None`` means
    not even the minimal admissible pair is within ``radius``.  ``spans``
    optionally memoizes the subsequences cut along the way (see
    :func:`_cut_pair`).
    """
    counter = counter if counter is not None else _VerificationCounter()
    query_length = len(query)
    db_length = len(db_sequence)
    equal_only = not distance.supports_unequal_lengths
    shift = 0 if equal_only else config.max_shift

    # A single matched window is shorter than lambda, so the chain span has
    # to grow before the first check.  Which direction to grow is not known
    # without computing distances, so three cheap anchorings are tried: grow
    # rightwards, grow leftwards, and grow symmetrically.
    best: Optional[SubsequenceMatch] = None
    seen_spans = set()
    for direction in ("right", "left", "both"):
        q_start, q_stop = _grow_to_length(
            chain.query_start, chain.query_stop, config.min_length, query_length, direction
        )
        x_start, x_stop = _grow_to_length(
            chain.db_start, chain.db_stop, config.min_length, db_length, direction
        )
        if q_stop - q_start < config.min_length or x_stop - x_start < config.min_length:
            continue
        q_start, q_stop, x_start, x_stop = _balance_lengths(
            q_start, q_stop, query_length, x_start, x_stop, db_length, shift
        )
        span = (q_start, q_stop, x_start, x_stop)
        if span in seen_spans:
            continue
        seen_spans.add(span)
        if not _admissible(q_start, q_stop, x_start, x_stop, config, equal_only):
            continue
        value = _measure(
            distance,
            *_cut_pair(spans, chain, query, db_sequence, q_start, q_stop, x_start, x_stop),
            radius,
            counter,
            cache,
        )
        if value > radius:
            continue
        best = SubsequenceMatch(
            distance=value,
            source_id=chain.source_id,
            query_start=q_start,
            query_stop=q_stop,
            db_start=x_start,
            db_stop=x_stop,
        )
        break
    if best is None:
        return None

    # Greedy bidirectional extension: keep any single-step growth that stays
    # within the radius and the admissibility constraints.
    improved = True
    reach_q = config.window_length + config.max_shift
    reach_x = config.window_length
    min_q_start = max(0, chain.query_start - reach_q)
    max_q_stop = min(query_length, chain.query_stop + reach_q)
    min_x_start = max(0, chain.db_start - reach_x)
    max_x_stop = min(db_length, chain.db_stop + reach_x)
    while improved:
        improved = False
        moves = (
            (best.query_start - 1, best.query_stop, best.db_start, best.db_stop),
            (best.query_start, best.query_stop + 1, best.db_start, best.db_stop),
            (best.query_start, best.query_stop, best.db_start - 1, best.db_stop),
            (best.query_start, best.query_stop, best.db_start, best.db_stop + 1),
            (best.query_start - 1, best.query_stop, best.db_start - 1, best.db_stop),
            (best.query_start, best.query_stop + 1, best.db_start, best.db_stop + 1),
        )
        for q0, q1, x0, x1 in moves:
            if q0 < min_q_start or q1 > max_q_stop or x0 < min_x_start or x1 > max_x_stop:
                continue
            if not _admissible(q0, q1, x0, x1, config, equal_only):
                continue
            if (q1 - q0) + (x1 - x0) <= best.query_length + best.db_length:
                continue
            value = _measure(
                distance,
                *_cut_pair(spans, chain, query, db_sequence, q0, q1, x0, x1),
                radius,
                counter,
                cache,
            )
            if value <= radius:
                best = SubsequenceMatch(
                    distance=value,
                    source_id=chain.source_id,
                    query_start=q0,
                    query_stop=q1,
                    db_start=x0,
                    db_stop=x1,
                )
                improved = True
                break
    return best


def _grow_to_length(
    start: int, stop: int, target: int, limit: int, direction: str = "both"
) -> Tuple[int, int]:
    """Extend ``[start, stop)`` to at least ``target`` elements within ``[0, limit)``.

    ``direction`` chooses which end grows first: ``"right"`` prefers
    extending the stop, ``"left"`` the start, ``"both"`` alternates.  When
    the preferred end hits the sequence boundary the other end takes over,
    so the result always reaches ``target`` if the sequence allows it.
    """
    while stop - start < target:
        extended = False
        grow_right_first = direction in ("right", "both")
        if grow_right_first and stop < limit:
            stop += 1
            extended = True
        if stop - start < target and direction in ("left", "both") and start > 0:
            start -= 1
            extended = True
        if stop - start < target and not extended:
            # Preferred ends exhausted; fall back to whichever end still has room.
            if stop < limit:
                stop += 1
                extended = True
            elif start > 0:
                start -= 1
                extended = True
        if not extended:
            break
    return start, stop


def _balance_lengths(
    q_start: int,
    q_stop: int,
    query_length: int,
    x_start: int,
    x_stop: int,
    db_length: int,
    max_shift: int,
) -> Tuple[int, int, int, int]:
    """Extend the shorter side until the length difference is within ``max_shift``."""
    while (x_stop - x_start) - (q_stop - q_start) > max_shift:
        if q_stop < query_length:
            q_stop += 1
        elif q_start > 0:
            q_start -= 1
        else:
            break
    while (q_stop - q_start) - (x_stop - x_start) > max_shift:
        if x_stop < db_length:
            x_stop += 1
        elif x_start > 0:
            x_start -= 1
        else:
            break
    return q_start, q_stop, x_start, x_stop


def enumerate_matches(
    chain: CandidateChain,
    query: Sequence,
    db_sequence: Sequence,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
    counter: Optional[_VerificationCounter] = None,
    max_results: Optional[int] = None,
    cache: Optional[DistanceCache] = None,
    spans=None,
) -> List[SubsequenceMatch]:
    """Exhaustively verify every admissible endpoint combination for ``chain``.

    This is the faithful (but expensive) realisation of the paper's Type I
    semantics within one candidate region.  The number of combinations grows
    with ``(lambda/2 + lambda0)^2 * (lambda/2)^2``, so the matcher only uses
    it when explicitly asked (``RangeQuery(exhaustive=True)``) or on small
    inputs; the test-suite uses it as an oracle.  ``spans`` is as for
    :func:`verify_chain`.
    """
    counter = counter if counter is not None else _VerificationCounter()
    equal_only = not distance.supports_unequal_lengths
    q_starts, q_stops, x_starts, x_stops = chain_bounds(
        chain, len(query), len(db_sequence), config
    )
    results: List[SubsequenceMatch] = []
    for q_start in q_starts:
        for q_stop in q_stops:
            for x_start in x_starts:
                for x_stop in x_stops:
                    if not _admissible(q_start, q_stop, x_start, x_stop, config, equal_only):
                        continue
                    value = _measure(
                        distance,
                        *_cut_pair(
                            spans, chain, query, db_sequence, q_start, q_stop, x_start, x_stop
                        ),
                        radius,
                        counter,
                        cache,
                    )
                    if value <= radius:
                        results.append(
                            SubsequenceMatch(
                                distance=value,
                                source_id=chain.source_id,
                                query_start=q_start,
                                query_stop=q_stop,
                                db_start=x_start,
                                db_stop=x_stop,
                            )
                        )
                        if max_results is not None and len(results) >= max_results:
                            return results
    return results
