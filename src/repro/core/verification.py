"""Step 5b: verifying candidate chains as actual subsequence matches.

A candidate chain says "the windows ``[db_start, db_stop)`` of sequence ``s``
matched the query region ``[query_start, query_stop)`` segment by segment".
Verification turns that hint into concrete pairs of subsequences whose
distance is actually within the query radius.  Section 7 of the paper bounds
where the endpoints of such subsequences can lie; within those bounds this
module offers two strategies:

* :func:`verify_chain` -- check the chain's own span and then greedily grow
  it while the distance stays within the radius (the practical strategy the
  matcher uses for Type I, II, III and top-k);
* :func:`enumerate_matches` -- exhaustive Type I: every admissible pair
  within the radius from the start pairs the chains allow; brute force
  sweeps all of them.

Both run on one engine, :class:`StartPairBlocks`: one DP table per start
pair, of one shape, holds every admissible pair of that start pair.  The
greedy strategy asks it one pair at a time, through one request protocol
(:class:`_Requests`: span cut, cache lookup, engine value on a miss, cache
store), and the engine keeps each start pair's block for the next request.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateChain
from repro.core.config import MatcherConfig
from repro.core.queries import SubsequenceMatch
from repro.distances.alignment import PrefixBlock
from repro.distances.base import Distance, as_array
from repro.distances.cache import DistanceCache
from repro.indexing.stats import DistanceCounter
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


def _cut(owner: Optional[str], sequence: Sequence, start: int, stop: int) -> Sequence:
    """``sequence[start:stop]``, cut afresh (the memo-less form of ``QueryScratch.span``)."""
    return sequence.subsequence(start, stop)


class _Requests:
    """The one protocol of a verification-time distance request.

    A request cuts its two spans -- only under a cache, whose keys they
    are -- and looks the pair up; a hit counts in ``cache_hits``.  A miss
    takes the value of ``engine`` (:meth:`StartPairBlocks.value`), counts
    one computation (``total``) and is stored once.  Values are exact whenever they are
    at most the cutoff (all verification decisions need); beyond it they may
    be ``inf``.  Results -- abandoned lower bounds included -- go through
    the shared cache, so Type III's re-verification of the same chain at
    growing radii never recomputes a pair.  ``span`` cuts the spans:
    :meth:`~repro.core.pipeline.QueryScratch.span` shares them per query.
    """

    __slots__ = ("query", "target", "source_id", "engine", "counter", "cache", "span")

    def __init__(
        self,
        query: Sequence,
        target: Sequence,
        source_id: str,
        engine: StartPairBlocks,
        counter: DistanceCounter,
        cache: Optional[DistanceCache],
        span: Callable[[Optional[str], Sequence, int, int], Sequence] = _cut,
    ) -> None:
        self.query = query
        self.target = target
        self.source_id = source_id
        self.engine = engine
        self.counter = counter
        self.cache = cache
        self.span = span

    def measure(self, q_start: int, q_stop: int, x_start: int, x_stop: int, cutoff: float) -> float:
        """``d(Q[q_start:q_stop], X[x_start:x_stop])``, early-abandoned past ``cutoff``."""
        counter = self.counter
        cache = self.cache
        if cache is not None:
            first = self.span(None, self.query, q_start, q_stop)
            second = self.span(self.source_id, self.target, x_start, x_stop)
            cached = cache.lookup(first, second, cutoff=cutoff)
            if cached is not None:
                counter.cache_hits += 1
                return cached
        value = self.engine.value(
            q_start, x_start, q_stop - q_start, x_stop - x_start, cutoff, counter
        )
        counter.total += 1
        if cache is not None:
            cache.store(first, second, value, cutoff=cutoff)
        return value


def verify_chain(
    chain: CandidateChain,
    query: Sequence,
    db_sequence: Sequence,
    distance: Distance,
    radius: float,
    config: MatcherConfig,
    counter: Optional[DistanceCounter] = None,
    cache: Optional[DistanceCache] = None,
    scratch=None,
) -> Optional[SubsequenceMatch]:
    """Verify ``chain`` and greedily extend it into the longest passing match.

    The strategy starts from the smallest admissible pair containing the
    chain's span, checks it, and then repeatedly tries to extend either end
    of either subsequence by one element, keeping any extension that stays
    within ``radius``.  The result is a locally-maximal match; ``None`` means
    not even the minimal admissible pair is within ``radius``.  ``scratch``
    is the optional per-query memo of cut spans and block engines (the
    pipeline's :class:`~repro.core.pipeline.QueryScratch`); without it the
    chain gets a private engine.  Every request goes through
    :class:`_Requests`.
    """
    counter = counter if counter is not None else DistanceCounter()
    engines, span = ({}, _cut) if scratch is None else (scratch.blocks, scratch.span)
    engine = engines.get(chain.source_id)
    if engine is None:
        engine = engines[chain.source_id] = StartPairBlocks(query, db_sequence, distance, config)
    requests = _Requests(query, db_sequence, chain.source_id, engine, counter, cache, span)
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
        value = requests.measure(q_start, q_stop, x_start, x_stop, radius)
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
            value = requests.measure(q0, q1, x0, x1, radius)
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
    (SPRING, Sakurai et al., ICDE 2007) one ``prefix_block`` sweep of the
    start pair's table yields them all; a distance without it (lock-step,
    LCSS) makes one ``bounded`` call per pair.  Values are exact wherever
    they are at most the cutoff.

    The table has one shape per start pair: ``n = |Q| - q`` rows and ``m =
    min(|X| - x, n + lambda0)`` columns, then ``n = min(n, m + lambda0)``;
    every admissible ``(L, J)`` has ``L <= n`` and ``J <= m``.  Two entries
    read it: :meth:`cells` yields every admissible pair of a start pair and
    keeps nothing (exhaustive Type I, brute force); :meth:`value` answers
    one request and keeps the start pair's block for the next (the greedy
    verification of every other query type).  ``counter`` serves
    :meth:`cells`; :meth:`value` counts on the counter it is handed.
    """

    def __init__(
        self,
        query: Sequence,
        target: Sequence,
        distance: Distance,
        config: MatcherConfig,
        counter: Optional[DistanceCounter] = None,
    ) -> None:
        self.query, self.target = as_array(query), as_array(target)
        self.distance = distance
        self.min_length, self.shift = config.min_length, config.max_shift
        self.counter = counter if counter is not None else DistanceCounter()
        self._block = getattr(distance, "prefix_block", None)
        #: :meth:`value`'s blocks, by start pair.
        self._kept: Dict[Tuple[int, int], PrefixBlock] = {}
        # (L, J) of every cell of the largest block, laid out as PrefixBlock.cells.
        lengths = np.arange(self.min_length, len(self.query) + 1)[:, None]
        self._rows, self._columns = np.broadcast_arrays(
            lengths, lengths + np.arange(-self.shift, self.shift + 1)
        )

    def _shape(self, q_start: int, x_start: int) -> Tuple[int, int]:
        """``(n, m)``: rows and columns of the start pair's table."""
        n = len(self.query) - q_start
        m = min(len(self.target) - x_start, n + self.shift)
        return min(n, m + self.shift), m

    def value(
        self, q_start: int, x_start: int, rows: int, columns: int, cutoff: float, counter
    ) -> float:
        """``bounded(Q[q:q + rows], X[x:x + columns], cutoff)`` of one admissible pair.

        The start pair's block is kept and answers every later request it
        covers; it is swept again, and replaced, only for a row past its
        completed ones at a cutoff above its own (a wider pass of a radius
        sweep).  Kernel calls land on ``counter``, the asking unit's.
        """
        if self._block is None:
            counter.kernel_calls += 1
            first = self.query[q_start : q_start + rows]
            return self.distance.bounded(first, self.target[x_start : x_start + columns], cutoff)
        block = self._kept.get((q_start, x_start))
        if block is None or not block.covers(rows, cutoff):
            counter.kernel_calls += 1
            n, m = self._shape(q_start, x_start)
            first, second = self.query[q_start : q_start + n], self.target[x_start : x_start + m]
            block = self._block(first, second, self.min_length, self.shift, cutoff)
            self._kept[q_start, x_start] = block
        return block.value(rows, columns)

    def cells(
        self, q_start: int, x_start: int, cutoff: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(L, J, distance)`` arrays of the start pair's admissible pairs, ascending.

        ``None`` if there are none, or the block abandoned before row lambda.
        """
        n, m = self._shape(q_start, x_start)
        if min(n, m) < self.min_length:
            return None
        self.counter.total += 1
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
    counter: Optional[DistanceCounter] = None,
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
