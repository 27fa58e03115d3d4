"""The paper's guarantee against brute force: where the differential oracle will live.

ROADMAP item 1 (open): every Type I / II / III answer must equal
``core/bruteforce.py`` for any consistent metric distance.  Exhaustive
Type I now offers every start up to the chain's last window and every stop
down to its first, so a subsequence that starts or stops *inside* a chain
is found (the first reproducer below).  It is still built from one chain at
a time: when two whole windows of ``SX`` are matched by query segments that
do not chain, no single chain reaches both ends.  The second reproducer
pins that shape as a strict expected failure; the fix must delete the
marker.
"""

import numpy as np
import pytest

from repro import (
    DiscreteFrechet,
    MatcherConfig,
    RangeQuery,
    Sequence,
    SequenceDatabase,
    SequenceKind,
    SubsequenceMatcher,
)
from repro.core.bruteforce import brute_force_matches

INDEXES = ["linear-scan", "reference-net"]


def _identities(matches):
    return {
        (match.source_id, match.query_start, match.query_stop, match.db_start, match.db_stop)
        for match in matches
    }


def _exhaustive_and_brute(x, q, radius, config):
    """Identity sets of exhaustive Type I and brute force, in that order."""
    database = SequenceDatabase(SequenceKind.TIME_SERIES)
    database.add(Sequence(np.asarray(x, dtype=float), SequenceKind.TIME_SERIES), seq_id="x")
    query = Sequence(np.asarray(q, dtype=float), SequenceKind.TIME_SERIES)
    matcher = SubsequenceMatcher(database, DiscreteFrechet(), config)
    ours = matcher.execute(RangeQuery(radius=radius, exhaustive=True).bind(query)).matches
    brute = brute_force_matches(query, database, DiscreteFrechet(), radius, config)
    return _identities(ours), _identities(brute)


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("index", INDEXES)
def test_exhaustive_range_query_reaches_inner_offsets(index, executor):
    rng = np.random.default_rng(0)
    x = rng.normal(size=24).cumsum() * 3
    config = MatcherConfig(min_length=8, max_shift=0, index=index, executor=executor, workers=2)
    # windows: x[0:4], x[4:8], ...; (q 1:9, x 1:9), (q 1:10, x 1:10) and
    # (q 2:10, x 2:10) start inside the chain's first window.
    ours, brute = _exhaustive_and_brute(x, x[0:10].copy(), 0.0, config)
    assert len(brute) == 6
    assert ours == brute


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: no single chain spans both windows")
@pytest.mark.parametrize("index", INDEXES)
def test_exhaustive_range_query_spans_windows_matched_by_unchained_segments(index):
    x = [-4.2, 0.6, 3.8, 2.0, 2.2, 1.8, -1.9, -1.6, -1.7, -0.8, 0.8, 3.5, 3.2, 3.9]
    q = [3.7, 1.9, 1.7, 1.6, -1.8, -1.2, -1.9, -0.7, 0.9, 3.1]
    config = MatcherConfig(min_length=8, max_shift=0, index=index)
    # Segments q[1:5] ~ x[4:8] and q[6:10] ~ x[8:12] do not chain (their
    # starts are 5 apart, not 4), and neither chain reaches the other's end:
    # brute force finds 7, missing (q 0:10, x 2:12), (q 1:10, x 3:12) and
    # (q 1:10, x 4:13).
    ours, brute = _exhaustive_and_brute(x, q, 0.5, config)
    assert len(brute) == 7
    assert ours == brute
