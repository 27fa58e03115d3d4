"""Tests for the Levenshtein and weighted Levenshtein distances."""

import pytest

from repro import DNA_ALPHABET, DistanceError, Levenshtein, PROTEIN_ALPHABET, Sequence, WeightedLevenshtein
from repro.distances import combined_bound


def seq(text, alphabet=DNA_ALPHABET):
    return Sequence.from_string(text, alphabet)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("ACGT", "ACGT", 0),
            ("ACGT", "ACGA", 1),
            ("ACGT", "ACG", 1),
            ("ACGT", "CGT", 1),
            ("A", "T", 1),
            ("ACGT", "TGCA", 4),
            ("AAAA", "AA", 2),
            ("GATTACA", "GCATGCT", 4),
        ],
    )
    def test_known_values(self, first, second, expected):
        assert Levenshtein()(seq(first), seq(second)) == expected

    def test_symmetry(self):
        distance = Levenshtein()
        a, b = seq("ACGGTAC"), seq("TACGGA")
        assert distance(a, b) == distance(b, a)

    def test_length_difference_lower_bound(self):
        distance = Levenshtein()
        a, b = seq("ACGTACGT"), seq("ACG")
        assert combined_bound(distance, a, b) == 5
        assert combined_bound(distance, a, b) <= distance(a, b)

    def test_flags(self):
        distance = Levenshtein()
        assert distance.is_metric and distance.is_consistent
        assert distance.supports_unequal_lengths

    def test_alignment_couplings_cover_matched_positions(self):
        distance = Levenshtein()
        alignment = distance.alignment(seq("ACGT"), seq("AGT"))
        assert alignment.cost == 1
        # Couplings must be strictly increasing in both coordinates.
        for (i1, j1), (i2, j2) in zip(alignment.couplings, alignment.couplings[1:]):
            assert i2 > i1 and j2 > j1

    def test_works_on_protein_alphabet(self):
        a = Sequence.from_string("ACDEFG", PROTEIN_ALPHABET)
        b = Sequence.from_string("ACDQFG", PROTEIN_ALPHABET)
        assert Levenshtein()(a, b) == 1


class TestWeightedLevenshtein:
    def test_defaults_match_unit_costs(self):
        weighted = WeightedLevenshtein()
        plain = Levenshtein()
        a, b = seq("ACGTAC"), seq("AGTTC")
        assert weighted(a, b) == plain(a, b)

    def test_custom_substitution_cost(self):
        # Make A<->C substitutions cheap.
        costs = {(0, 1): 0.2, (1, 0): 0.2}
        weighted = WeightedLevenshtein(substitution_costs=costs)
        assert weighted(seq("A"), seq("C")) == pytest.approx(0.2)

    def test_custom_gap_costs(self):
        weighted = WeightedLevenshtein(insertion_cost=2.0, deletion_cost=3.0)
        assert weighted(seq("AC"), seq("ACG")) == pytest.approx(2.0)
        assert weighted(seq("ACG"), seq("AC")) == pytest.approx(3.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(DistanceError):
            WeightedLevenshtein(insertion_cost=-1.0)
        with pytest.raises(DistanceError):
            WeightedLevenshtein(substitution_costs={(0, 1): -0.5})

    def test_metric_flag_is_caller_declared(self):
        assert not WeightedLevenshtein().is_metric
        assert WeightedLevenshtein(metric=True).is_metric

    def test_rejects_multidimensional_elements(self):
        trajectory = Sequence.from_points([[0, 0], [1, 1]])
        with pytest.raises(DistanceError):
            WeightedLevenshtein()(trajectory, trajectory)

    def test_consistency_flag(self):
        assert WeightedLevenshtein().is_consistent
