"""One search entry per index.

``MetricIndex.batch_range_query`` is the search of every index, and
``range_query`` is a batch of one: both return the same keys, in the same
order, with the same distances -- per index and distance family.
``LinearScanIndex.add`` packs an item before registering it and
refuses one it cannot pack, as ``ReferenceNet.add`` does.
"""

import numpy as np
import pytest

from repro import (
    ERP,
    PROTEIN_ALPHABET,
    DiscreteFrechet,
    DistanceCache,
    Levenshtein,
    LinearScanIndex,
    ReferenceNet,
    ReproError,
    Sequence,
)
INDEXES = {
    "scan": lambda distance: LinearScanIndex(distance),
    "scan+prefilter": lambda distance: LinearScanIndex(
        distance, prefilter=True, cache=DistanceCache()
    ),
    "net": lambda distance: ReferenceNet(distance),
    "net+prefilter": lambda distance: ReferenceNet(
        distance, prefilter=True, cache=DistanceCache()
    ),
}


def _series(generator, count, prefix):
    return [
        Sequence.from_values(generator.normal(size=8), seq_id=f"{prefix}{i}")
        for i in range(count)
    ]


def _strings(generator, count, prefix):
    # A five-letter slice of the alphabet keeps edit distances small enough
    # for the radius to catch some windows.
    letters = PROTEIN_ALPHABET.symbols[:5]
    return [
        Sequence.from_string(
            "".join(generator.choice(list(letters), size=8)), PROTEIN_ALPHABET, f"{prefix}{i}"
        )
        for i in range(count)
    ]


#: distance, operand factory, radius
FAMILIES = {
    "frechet": (DiscreteFrechet, _series, 1.5),
    "erp": (ERP, _series, 6.0),
    "levenshtein": (Levenshtein, _strings, 4.0),
}


def _outcome(matches):
    return [(match.key, match.distance) for match in matches]


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("index_name", list(INDEXES))
def test_range_query_is_a_batch_of_one(index_name, family):
    make_distance, operands, radius = FAMILIES[family]
    generator = np.random.default_rng(17)
    items = operands(generator, 40, "w")
    queries = operands(generator, 4, "q") + [items[5]]
    single, alone, batched = (INDEXES[index_name](make_distance()) for _ in range(3))
    for index in (single, alone, batched):
        for position, item in enumerate(items):
            index.add(item, key=position)
    rows = batched.batch_range_query(queries, radius)
    for query, row in zip(queries, rows):
        expected = _outcome(single.range_query(query, radius))
        assert _outcome(alone.batch_range_query([query], radius)[0]) == expected
        assert _outcome(row) == expected
    assert any(rows), "the radius should catch some windows"
    assert batched.batch_range_query([], radius) == []


@pytest.mark.parametrize(
    "bad",
    [5.0, np.zeros((2, 2, 2)), np.zeros((0, 1))],
    ids=["scalar", "three-dimensional", "empty"],
)
@pytest.mark.parametrize("filled", [False, True], ids=["empty-index", "filled-index"])
def test_an_unpackable_item_is_refused_like_the_net(bad, filled):
    refused = {}
    for make_index in (LinearScanIndex, ReferenceNet):
        index = make_index(DiscreteFrechet())
        if filled:
            for key in range(3):
                index.add(np.arange(4.0) + key, key=key)
        keys = index.keys()
        with pytest.raises(ReproError) as raised:
            index.add(bad, key="bad")
        refused[make_index] = type(raised.value)
        assert len(index) == len(keys)
        assert index.keys() == keys
        assert "bad" not in index
        # Nothing half-registered: the index still answers.
        found = index.range_query(np.arange(4.0), 0.5)
        assert [match.key for match in found] == ([0] if filled else [])
    assert refused[LinearScanIndex] is refused[ReferenceNet]
