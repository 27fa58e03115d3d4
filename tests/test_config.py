"""Tests for MatcherConfig validation and derived quantities."""

import pytest

from repro import ConfigurationError, MatcherConfig


class TestValidation:
    def test_minimal_valid_config(self):
        config = MatcherConfig(min_length=10)
        assert config.window_length == 5
        assert config.max_shift == 0

    def test_min_length_too_small(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=1)

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=10, max_shift=-1)

    def test_invalid_eps_prime(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=10, eps_prime=0.0)

    def test_invalid_nummax(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=10, nummax=0)

    def test_unknown_index(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=10, index="b-tree")

    def test_num_references_is_not_a_field(self):
        with pytest.raises(TypeError):
            MatcherConfig(min_length=10, num_references=5)

    def test_all_known_indexes_accepted(self):
        for name in ("reference-net", "linear-scan"):
            assert MatcherConfig(min_length=10, index=name).index == name

    @pytest.mark.parametrize("name", ["cover-tree", "reference-based", "vp-tree"])
    def test_retired_indexes_rejected(self, name):
        with pytest.raises(ConfigurationError):
            MatcherConfig(min_length=10, index=name)

    def test_frozen(self):
        config = MatcherConfig(min_length=10)
        with pytest.raises(Exception):
            config.min_length = 20


class TestDerivedQuantities:
    def test_window_length_is_half_lambda(self):
        assert MatcherConfig(min_length=20).window_length == 10
        assert MatcherConfig(min_length=21).window_length == 10

    def test_segment_lengths_without_shift(self):
        config = MatcherConfig(min_length=20)
        assert list(config.segment_lengths) == [10]

    def test_segment_lengths_with_shift(self):
        config = MatcherConfig(min_length=20, max_shift=2)
        assert list(config.segment_lengths) == [8, 9, 10, 11, 12]

    def test_segment_lengths_clipped_at_one(self):
        config = MatcherConfig(min_length=4, max_shift=5)
        assert config.segment_lengths.start == 1

    def test_segment_count_matches_paper_bound(self):
        # At most (2*lambda0 + 1) distinct segment lengths.
        config = MatcherConfig(min_length=30, max_shift=3)
        assert len(config.segment_lengths) == 2 * 3 + 1
