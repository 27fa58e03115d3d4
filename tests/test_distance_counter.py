"""Tests for distance-evaluation accounting."""

from repro import CountingDistance, DistanceCounter, Euclidean


class TestDistanceCounter:
    def test_starts_at_zero(self):
        assert DistanceCounter().total == 0

    def test_increment(self):
        counter = DistanceCounter()
        counter.total += 1
        counter.total += 4
        assert counter.total == 5

    def test_reset(self):
        counter = DistanceCounter()
        for name in DistanceCounter.FIELDS:
            setattr(counter, name, 3)
        counter.reset()
        assert counter.mark() == (0,) * len(DistanceCounter.FIELDS)

    def test_mark_and_since(self):
        counter = DistanceCounter()
        counter.total += 2
        mark = counter.mark()
        counter.total += 3
        assert counter.since(mark).total == 3
        assert counter.total == 5

    def test_repr(self):
        counter = DistanceCounter()
        counter.total += 7
        assert "total=7" in repr(counter)


class TestCountingDistance:
    def test_counts_calls(self):
        counting = CountingDistance(Euclidean())
        counting([1.0, 2.0], [1.0, 3.0])
        counting([1.0, 2.0], [1.0, 3.0])
        assert counting.counter.total == 2

    def test_returns_inner_value(self):
        counting = CountingDistance(Euclidean())
        assert counting([0.0], [3.0]) == 3.0

    def test_shares_external_counter(self):
        counter = DistanceCounter()
        first = CountingDistance(Euclidean(), counter)
        second = CountingDistance(Euclidean(), counter)
        first([0.0], [1.0])
        second([0.0], [1.0])
        assert counter.total == 2

    def test_exposes_inner_metadata(self):
        counting = CountingDistance(Euclidean())
        assert counting.name == "euclidean"
        assert counting.is_metric

    def test_repr_mentions_total(self):
        counting = CountingDistance(Euclidean())
        counting([0.0], [1.0])
        assert "total=1" in repr(counting)
