"""Shared fixtures for the test-suite.

Fixtures are intentionally tiny: the framework's asymptotics are covered by
the benchmarks, while the tests exercise correctness on inputs small enough
that brute-force oracles stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DNA_ALPHABET,
    PROTEIN_ALPHABET,
    DiscreteFrechet,
    ERP,
    Euclidean,
    Levenshtein,
    MatcherConfig,
    Sequence,
    SequenceDatabase,
    SequenceKind,
)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def dna_sequence():
    """A short DNA string sequence."""
    return Sequence.from_string("ACGTACGTGGTACA", DNA_ALPHABET, seq_id="dna-1")


@pytest.fixture
def protein_sequence():
    """A short protein string sequence."""
    return Sequence.from_string("ACDEFGHIKLMNPQRSTVWY", PROTEIN_ALPHABET, seq_id="prot-1")


@pytest.fixture
def ramp_series():
    """A simple increasing scalar time series."""
    return Sequence.from_values(np.linspace(0.0, 9.0, 40), seq_id="ramp")


@pytest.fixture
def noisy_sine():
    """A noisy sine wave time series."""
    generator = np.random.default_rng(7)
    xs = np.linspace(0.0, 6.0, 60)
    return Sequence.from_values(np.sin(xs) + 0.05 * generator.normal(size=60), seq_id="sine")


@pytest.fixture
def small_trajectory():
    """A short 2-D trajectory."""
    points = np.column_stack([np.linspace(0, 5, 25), np.linspace(1, 3, 25)])
    return Sequence.from_points(points, seq_id="traj-1")


@pytest.fixture
def string_database():
    """A tiny string database with a planted shared motif."""
    database = SequenceDatabase(SequenceKind.STRING, name="tiny-strings")
    motif = "ACDEFGHIKL"
    database.add(
        Sequence.from_string("MNPQRSTVWY" + motif + "MNPQRSTVWY", PROTEIN_ALPHABET, "s1")
    )
    database.add(
        Sequence.from_string("YWVTSRQPNM" + motif + "YWVTSRQPNM", PROTEIN_ALPHABET, "s2")
    )
    database.add(
        Sequence.from_string("LKIHGFEDCA" * 3, PROTEIN_ALPHABET, "s3")
    )
    return database


@pytest.fixture
def series_database():
    """A tiny time-series database with a planted shared pattern."""
    generator = np.random.default_rng(3)
    pattern = np.sin(np.linspace(0.0, 3.0, 20)) * 4.0
    database = SequenceDatabase(SequenceKind.TIME_SERIES, name="tiny-series")
    first = np.concatenate([generator.uniform(8, 12, size=15), pattern, generator.uniform(8, 12, size=15)])
    second = np.concatenate([generator.uniform(-12, -8, size=10), pattern + 0.1, generator.uniform(-12, -8, size=20)])
    third = generator.uniform(20, 30, size=50)
    database.add(Sequence.from_values(first, seq_id="t1"))
    database.add(Sequence.from_values(second, seq_id="t2"))
    database.add(Sequence.from_values(third, seq_id="t3"))
    return database


@pytest.fixture
def small_config():
    """A matcher configuration suitable for the tiny fixture databases."""
    return MatcherConfig(min_length=10, max_shift=1)


@pytest.fixture
def euclidean():
    return Euclidean()


@pytest.fixture
def levenshtein():
    return Levenshtein()


@pytest.fixture
def erp():
    return ERP()


@pytest.fixture
def frechet():
    return DiscreteFrechet()


@pytest.fixture
def random_vectors(rng):
    """A list of small random vectors for index tests."""
    return [rng.normal(size=4) for _ in range(120)]


#: The index configurations the matcher-level equivalence matrices run: both
#: indexes, each also in its other setting -- the net capped at two parents
#: per node (the paper's ``nummax``), the scan without lower-bound prefilters.
INDEX_VARIANTS = {
    "reference-net": {"index": "reference-net"},
    "reference-net-nummax2": {"index": "reference-net", "nummax": 2},
    "linear-scan": {"index": "linear-scan"},
    "linear-scan-raw": {"index": "linear-scan", "prefilter": False},
}


@pytest.fixture(params=list(INDEX_VARIANTS.values()), ids=list(INDEX_VARIANTS))
def index_options(request):
    """``MatcherConfig`` keyword arguments selecting one index configuration."""
    return dict(request.param)
