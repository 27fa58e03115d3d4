"""Reference (one distance call per pair) brute force: the test oracle.

The original enumeration of ``core/bruteforce.py``, retained as the
small-input check of the start-pair block engine.  It walks every
admissible ``(q_start, q_stop, x_start, x_stop)`` in brute force's order and
makes one unbounded distance call per pair.  Nothing under ``src/`` imports
it.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.queries import SubsequenceMatch


def admissible_pairs(query, target, config) -> Iterator[Tuple[int, int, int, int]]:
    """Yield every admissible (q_start, q_stop, x_start, x_stop) combination."""
    for q_start in range(len(query)):
        for q_stop in range(q_start + config.min_length, len(query) + 1):
            q_len = q_stop - q_start
            for x_start in range(len(target)):
                shortest = max(config.min_length, q_len - config.max_shift)
                longest = q_len + config.max_shift
                for x_len in range(shortest, longest + 1):
                    x_stop = x_start + x_len
                    if x_stop > len(target):
                        break
                    yield q_start, q_stop, x_start, x_stop


def every_pair(query, database, distance, config) -> List[SubsequenceMatch]:
    """Every admissible pair with its distance, in brute force's order."""
    pairs = []
    for sequence in database:
        for q_start, q_stop, x_start, x_stop in admissible_pairs(query, sequence, config):
            value = distance(
                query.subsequence(q_start, q_stop), sequence.subsequence(x_start, x_stop)
            )
            pairs.append(
                SubsequenceMatch(
                    distance=value,
                    source_id=sequence.seq_id or "seq",
                    query_start=q_start,
                    query_stop=q_stop,
                    db_start=x_start,
                    db_stop=x_stop,
                )
            )
    return pairs


def reference_matches(pairs, radius) -> List[SubsequenceMatch]:
    """``brute_force_matches`` from :func:`every_pair`'s list."""
    return [pair for pair in pairs if pair.distance <= radius]


def reference_nearest(pairs):
    """``brute_force_nearest`` from :func:`every_pair`'s list: the first minimum."""
    best = None
    for pair in pairs:
        if best is None or pair.distance < best.distance:
            best = pair
    return best
