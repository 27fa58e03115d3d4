"""Step 5b: verifying candidate chains as actual subsequence matches.

A candidate chain says "the windows ``[db_start, db_stop)`` of sequence ``s``
matched the query region ``[query_start, query_stop)`` segment by segment".
Verification turns that hint into concrete pairs of subsequences whose
distance is actually within the query radius.  Section 7 of the paper bounds
where the endpoints of such subsequences can lie; within those bounds this
module offers two strategies:

* :func:`verify_chain` -- check the chain's own span and then greedily grow
  it while the distance stays within the radius (the practical strategy the
  matcher uses for Type I, II and III);
* :func:`enumerate_matches` -- exhaustive Type I: every admissible pair
  within the radius from the start pairs the chains allow, one DP table per
  start pair (:class:`StartPairBlocks`); brute force sweeps all of them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateChain
from repro.core.config import MatcherConfig
from repro.core.queries import SubsequenceMatch
from repro.distances.base import Distance, as_array
from repro.distances.cache import DistanceCache
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence


def chain_start_pairs(chains: List[CandidateChain], config: MatcherConfig) -> Dict[str, list]:
    """The distinct ``(query start, database start)`` pairs the chains allow, per source.

    Following Section 7, the query side may start up to ``lambda/2 +
    lambda0`` before a chain and the database side up to ``lambda/2``
    before it; inward, up to the chain's last window (segment) start.
    Pairs are ascending.
    """
    reach_q = config.window_length + config.max_shift
    reach_x = config.window_length
    starts: Dict[str, set] = {}
    for chain in chains:
        last = chain.matches[-1]
        q_starts = range(max(0, chain.query_start - reach_q), last.query_start + 1)
        x_starts = range(max(0, chain.db_start - reach_x), last.window.start + 1)
        starts.setdefault(chain.source_id, set()).update(itertools.product(q_starts, x_starts))
    return {source_id: sorted(pairs) for source_id, pairs in starts.items()}


def _admissible(
    q_start: int, q_stop: int, x_start: int, x_stop: int, config: MatcherConfig
) -> bool:
    """Length constraints of the paper: both >= lambda, difference <= lambda0."""
    q_len = q_stop - q_start
    x_len = x_stop - x_start
    return min(q_len, x_len) >= config.min_length and abs(q_len - x_len) <= config.max_shift


class _VerificationCounter:
    """Tiny helper so the matcher can report verification-time distance work.

    ``count`` is the distance requests the cache did not answer, one value
    each, or the start pairs :class:`StartPairBlocks` swept; ``cache_hits``
    is the requests the matcher's :class:`DistanceCache` answered.
    ``kernel_calls`` is DP kernel invocations: prefix blocks built plus
    single calls.  It depends on execution (racing thread units may build
    one block twice), so it is a diagnostic, not a work counter.
    """

    def __init__(self) -> None:
        self.count = 0
        self.cache_hits = 0
        self.kernel_calls = 0


def _measure(
    distance: Distance,
    first: Sequence,
    second: Sequence,
    radius: float,
    counter: _VerificationCounter,
    cache: Optional[DistanceCache],
    fresh: Optional[Callable[[], float]] = None,
) -> float:
    """One verification-time distance request, early-abandoned past ``radius``.

    The returned value is exact whenever it is at most ``radius`` (which is
    all verification decisions need); beyond the radius it may be ``inf``.
    Results -- including abandoned lower bounds -- go through the shared
    cache so Type III's repeated re-verification of the same chain at
    growing radii never recomputes a pair.  A cache miss calls ``fresh``
    when given (a prefix block's answer), the single kernel call otherwise;
    either way it counts as one computation and is stored once.
    """
    if cache is not None:
        cached = cache.lookup(first, second, cutoff=radius)
        if cached is not None:
            counter.cache_hits += 1
            return cached
    if fresh is None:
        counter.kernel_calls += 1
        value = distance.bounded(first, second, radius)
    else:
        value = fresh()
    counter.count += 1
    if cache is not None:
        cache.store(first, second, value, cutoff=radius)
    return value


class _Requests:
    """The distance requests of one chain's verification.

    Every request makes one cache lookup and, on a miss, one counter
    increment and one cache store, whatever answers it.  ``scratch`` is the
    caller's per-query memo (the pipeline's
    :class:`~repro.core.pipeline.QueryScratch`), or ``None``.  With it, the
    two subsequences of a request are cut once per span, and a request the
    cache misses is answered from the scratch's prefix blocks where the
    distance has them (``prefix_block``): one early-abandoned DP table per
    ``(sequence, query start, database start)`` holds every admissible pair
    that shares those starts, bit-identical to the single call.  Other
    requests -- lock-step and non-family distances, or no scratch -- make
    the single call.
    """

    def __init__(
        self,
        chain: CandidateChain,
        query: Sequence,
        db_sequence: Sequence,
        distance: Distance,
        radius: float,
        config: MatcherConfig,
        counter: _VerificationCounter,
        cache: Optional[DistanceCache],
        scratch,
    ) -> None:
        self.chain = chain
        self.query = query
        self.db_sequence = db_sequence
        self.distance = distance
        self.radius = radius
        self.config = config
        self.counter = counter
        self.cache = cache
        self.scratch = scratch
        self.blocks = (
            scratch.blocks
            if scratch is not None and getattr(distance, "prefix_block", None) is not None
            else None
        )
        #: ``(query stop, database stop, query values, database values)`` a
        #: new block reaches, worked out on the chain's first block.
        self._reach: Optional[tuple] = None

    def measure(self, q_start: int, q_stop: int, x_start: int, x_stop: int) -> float:
        """One request through :func:`_measure`, a prefix block answering a miss."""
        scratch = self.scratch
        if scratch is None:
            first = self.query.subsequence(q_start, q_stop)
            second = self.db_sequence.subsequence(x_start, x_stop)
        else:
            first = scratch.span(None, self.query, q_start, q_stop)
            second = scratch.span(self.chain.source_id, self.db_sequence, x_start, x_stop)
        q_len = q_stop - q_start
        x_len = x_stop - x_start
        fresh = None
        if self.blocks is not None:

            def fresh() -> float:
                return self._block(q_start, x_start, q_len, x_len).value(q_len, x_len)

        return _measure(self.distance, first, second, self.radius, self.counter, self.cache, fresh)

    def _block(self, q_start: int, x_start: int, q_len: int, x_len: int):
        """The memo's block for these starts, (re)built if it cannot answer.

        A new block reaches the chain's admissible stops (Section 7: ``lambda/2
        + lambda0`` past the chain on the query side, ``lambda/2`` on the
        database side) and any block it replaces, clipped to lengths the
        constraints can pair (``|n - m| <= lambda0``).
        """
        key = (self.chain.source_id, q_start, x_start)
        block = self.blocks.get(key)
        if block is not None and block.covers(q_len, x_len, self.radius):
            return block
        config = self.config
        shift = config.max_shift
        if self._reach is None:
            reach = config.window_length
            self._reach = (
                min(len(self.query), self.chain.query_stop + reach + shift),
                min(len(self.db_sequence), self.chain.db_stop + reach),
                as_array(self.query),
                as_array(self.db_sequence),
            )
        q_reach, x_reach, query, target = self._reach
        n, m = max(q_reach - q_start, q_len), max(x_reach - x_start, x_len)
        if block is not None:
            n, m = max(n, block.n), max(m, block.m)
        n = min(n, m + shift)
        m = min(m, n + shift)
        block = self.distance.prefix_block(
            query[q_start : q_start + n],
            target[x_start : x_start + m],
            config.min_length,
            shift,
            self.radius,
        )
        self.counter.kernel_calls += 1
        self.blocks[key] = block
        return block


def verify_chain(
    chain: CandidateChain,
    query: Sequence,
    db_sequence: Sequence,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
    counter: Optional[_VerificationCounter] = None,
    cache: Optional[DistanceCache] = None,
    scratch=None,
) -> Optional[SubsequenceMatch]:
    """Verify ``chain`` and greedily extend it into the longest passing match.

    The strategy starts from the smallest admissible pair containing the
    chain's span, checks it, and then repeatedly tries to extend either end
    of either subsequence by one element, keeping any extension that stays
    within ``radius``.  The result is a locally-maximal match; ``None`` means
    not even the minimal admissible pair is within ``radius``.  ``scratch``
    is the optional per-query memo of cut subsequences and prefix blocks
    (see :class:`_Requests`).
    """
    counter = counter if counter is not None else _VerificationCounter()
    requests = _Requests(
        chain, query, db_sequence, distance, radius, config, counter, cache, scratch
    )
    query_length = len(query)
    db_length = len(db_sequence)

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
            q_start, q_stop, query_length, x_start, x_stop, db_length, config.max_shift
        )
        span = (q_start, q_stop, x_start, x_stop)
        if span in seen_spans:
            continue
        seen_spans.add(span)
        if not _admissible(q_start, q_stop, x_start, x_stop, config):
            continue
        value = requests.measure(q_start, q_stop, x_start, x_stop)
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
            if not _admissible(q0, q1, x0, x1, config):
                continue
            if (q1 - q0) + (x1 - x0) <= best.query_length + best.db_length:
                continue
            value = requests.measure(q0, q1, x0, x1)
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

    ``direction`` chooses which end grows first: ``"right"`` extends the stop
    as far as it can and then the start, ``"left"`` the other way round, and
    ``"both"`` alternates one element at a time, the stop first, until one
    end is stuck and the other takes the rest.  The result reaches ``target``
    whenever the sequence allows it.  (Closed form of that one-element-at-a-
    time growth: verification calls this twice per anchoring, per chain.)
    """
    need = target - (stop - start)
    if need <= 0:
        return start, stop
    right_room = max(0, limit - stop)
    left_room = max(0, start)
    if direction == "right":
        right = min(need, right_room)
        left = min(need - right, left_room)
    elif direction == "left":
        left = min(need, left_room)
        right = min(need - left, right_room)
    else:
        right = min(right_room, max((need + 1) // 2, need - left_room))
        left = min(left_room, need - right)
    return start - left, stop + right


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


class StartPairBlocks:
    """The admissible pairs of one (query, database sequence), by start pair.

    Start pair ``(q, x)`` holds the pairs ``(Q[q:q + L], X[x:x + J])`` with
    ``L, J >= lambda`` and ``|L - J| <= lambda0``.  By the prefix property
    (SPRING, Sakurai et al., ICDE 2007) one ``prefix_block`` sweep yields
    them all; a distance without it (lock-step, LCSS) makes one ``bounded``
    call per pair.  Values are exact wherever they are at most the cutoff.
    """

    def __init__(
        self,
        query: Sequence,
        target: Sequence,
        distance: Distance,
        config: MatcherConfig,
        counter: Optional[_VerificationCounter] = None,
    ) -> None:
        self.query, self.target = as_array(query), as_array(target)
        self.distance = distance
        self.min_length, self.shift = config.min_length, config.max_shift
        self.counter = counter if counter is not None else _VerificationCounter()
        self._block = getattr(distance, "prefix_block", None)
        # (L, J) of every cell of the largest block, laid out as PrefixBlock.cells.
        lengths = np.arange(self.min_length, len(self.query) + 1)[:, None]
        self._rows, self._columns = np.broadcast_arrays(
            lengths, lengths + np.arange(-self.shift, self.shift + 1)
        )

    def cells(
        self, q_start: int, x_start: int, cutoff: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(L, J, distance)`` arrays of the start pair's admissible pairs, ascending.

        ``None`` if there are none, or the block abandoned before row lambda.
        """
        n = len(self.query) - q_start
        m = min(len(self.target) - x_start, n + self.shift)
        n = min(n, m + self.shift)
        if min(n, m) < self.min_length:
            return None
        self.counter.count += 1
        first, second = self.query[q_start : q_start + n], self.target[x_start : x_start + m]
        if self._block is not None:
            self.counter.kernel_calls += 1
            block = self._block(first, second, self.min_length, self.shift, cutoff)
            if block.rows < self.min_length:
                return None
        columns = self._columns[: n - self.min_length + 1]
        # The first rows also hold J < lambda, and the last ones J > m.
        admissible = (columns >= self.min_length) & (columns <= m)
        q_lengths, x_lengths = self._rows[: len(columns)][admissible], columns[admissible]
        if self._block is not None:
            return q_lengths, x_lengths, block.cells[admissible]
        self.counter.kernel_calls += len(q_lengths)
        pairs = zip(q_lengths.tolist(), x_lengths.tolist())
        values = [self.distance.bounded(first[:a], second[:b], cutoff) for a, b in pairs]
        return q_lengths, x_lengths, np.asarray(values, dtype=np.float64)


def enumerate_matches(
    query: Sequence,
    database: SequenceDatabase,
    starts: Dict[str, Iterable[Tuple[int, int]]],
    distance: Distance,
    radius: float,
    config: MatcherConfig,
    counter: Optional[_VerificationCounter] = None,
    max_results: Optional[int] = None,
) -> List[SubsequenceMatch]:
    """Every admissible pair within ``radius`` from the given start pairs.

    ``starts`` maps source ids to distinct, ascending ``(q_start, x_start)``
    pairs: :func:`chain_start_pairs` for exhaustive Type I, every start pair
    for brute force.  Results are in brute force's order: sources in
    database order, then ascending offsets.  ``max_results`` stops the sweep
    after the start pair that reaches it and keeps the first that many.
    """
    sources = [source_id for source_id in database.ids() if source_id in starts]
    found: List[Tuple[int, int, int, int, int, float]] = []
    for position, source_id in enumerate(sources):
        blocks = StartPairBlocks(query, database[source_id], distance, config, counter)
        for q_start, x_start in starts[source_id]:
            if max_results is not None and len(found) >= max_results:
                break
            cells = blocks.cells(q_start, x_start, radius)
            if cells is None:
                continue
            q_lengths, x_lengths, values = cells
            hits = values <= radius
            if hits.any():
                q_stops = (q_start + q_lengths[hits]).tolist()
                x_stops = (x_start + x_lengths[hits]).tolist()
                found.extend(
                    (position, q_start, q_stop, x_start, x_stop, value)
                    for q_stop, x_stop, value in zip(q_stops, x_stops, values[hits].tolist())
                )
    found.sort()
    kept = found[:max_results]
    return [SubsequenceMatch(value, sources[at], *span) for at, *span, value in kept]
