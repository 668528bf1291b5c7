"""Tests for CountSketch and the averaged estimator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.sketch.countsketch import AveragedCountSketch, CountSketch
from repro.streams.generators import stream_from_vector, zipfian_frequency_vector
from repro.streams.stream import TurnstileStream


class TestCountSketchBasics:
    def test_single_item_exact(self):
        sketch = CountSketch(16, buckets=8, rows=5, seed=0)
        sketch.update(3, 7.0)
        assert sketch.estimate(3) == pytest.approx(7.0)

    def test_linearity_updates_cancel(self):
        sketch = CountSketch(16, buckets=8, rows=5, seed=0)
        sketch.update(3, 7.0)
        sketch.update(3, -7.0)
        assert sketch.estimate(3) == pytest.approx(0.0)

    def test_update_stream_matches_individual_updates(self, small_vector, small_stream):
        a = CountSketch(len(small_vector), buckets=32, rows=5, seed=1)
        b = CountSketch(len(small_vector), buckets=32, rows=5, seed=1)
        a.update_stream(small_stream)
        for update in small_stream:
            b.update(update.index, update.delta)
        assert np.allclose(a.estimate_all(), b.estimate_all())

    def test_update_vector_matches_stream(self, small_vector, small_stream):
        a = CountSketch(len(small_vector), buckets=32, rows=5, seed=2)
        b = CountSketch(len(small_vector), buckets=32, rows=5, seed=2)
        a.update_stream(small_stream)
        b.update_vector(small_vector)
        assert np.allclose(a.estimate_all(), b.estimate_all(), atol=1e-9)

    def test_out_of_range_update(self):
        sketch = CountSketch(4, 4, 3, seed=0)
        with pytest.raises(InvalidParameterError):
            sketch.update(4, 1.0)

    def test_space_counters(self):
        sketch = CountSketch(16, buckets=8, rows=5, seed=0)
        assert sketch.space_counters() == 40

    def test_error_bounded_by_l2_guarantee(self):
        n = 128
        vector = zipfian_frequency_vector(n, seed=3)
        sketch = CountSketch(n, buckets=64, rows=7, seed=4)
        sketch.update_vector(vector)
        errors = np.abs(sketch.estimate_all() - vector)
        bound = sketch.l2_error_bound(np.linalg.norm(vector), confidence_factor=4.0)
        assert np.mean(errors <= bound) > 0.95

    def test_heavy_hitter_recovered(self):
        n = 256
        vector = np.ones(n)
        vector[17] = 500.0
        sketch = CountSketch(n, buckets=32, rows=7, seed=5)
        sketch.update_vector(vector)
        assert 17 in sketch.heavy_hitters(threshold=250.0)

    def test_merge(self):
        a = CountSketch(16, 8, 5, seed=6)
        b = CountSketch(16, 8, 5, seed=6)
        a.update(1, 3.0)
        b.update(1, 4.0)
        a.merge(b)
        assert a.estimate(1) == pytest.approx(7.0)

    def test_merge_incompatible_rejected(self):
        a = CountSketch(16, 8, 5, seed=6)
        b = CountSketch(16, 8, 5, seed=7)
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(-10, 10)),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_order_invariance(self, pairs):
        updates = [(i, float(d)) for i, d in pairs]
        forward = CountSketch(16, 8, 5, seed=8)
        backward = CountSketch(16, 8, 5, seed=8)
        forward.update_stream(TurnstileStream(16, updates))
        backward.update_stream(TurnstileStream(16, list(reversed(updates))))
        assert np.allclose(forward.estimate_all(), backward.estimate_all())


class TestAveragedCountSketch:
    def test_estimate_close_to_truth(self, small_vector):
        n = len(small_vector)
        bank = AveragedCountSketch(n, buckets=32, rows=5, num_instances=6, seed=0)
        bank.update_vector(small_vector)
        heavy = int(np.argmax(np.abs(small_vector)))
        assert bank.estimate(heavy) == pytest.approx(small_vector[heavy], rel=0.2)

    def test_instance_estimates_count(self, small_vector):
        bank = AveragedCountSketch(len(small_vector), 32, 5, num_instances=6, seed=1)
        bank.update_vector(small_vector)
        assert len(bank.instance_estimates(0)) == 6

    def test_grouped_estimates(self, small_vector):
        bank = AveragedCountSketch(len(small_vector), 32, 5, num_instances=6, seed=2)
        bank.update_vector(small_vector)
        groups = bank.grouped_estimates(0, group_size=2)
        assert len(groups) == 3

    def test_grouped_estimates_group_too_large(self, small_vector):
        bank = AveragedCountSketch(len(small_vector), 32, 5, num_instances=2, seed=3)
        bank.update_vector(small_vector)
        with pytest.raises(InvalidParameterError):
            bank.grouped_estimates(0, group_size=5)

    def test_space_counters_sum(self):
        bank = AveragedCountSketch(16, 8, 5, num_instances=3, seed=4)
        assert bank.space_counters() == 3 * 40

    def test_averaging_never_exceeds_worst_instance(self, heavy_vector):
        # The averaged point query is a mean of the per-instance estimates,
        # so its error is bounded by the worst single-instance error.
        n = len(heavy_vector)
        bank = AveragedCountSketch(n, buckets=16, rows=3, num_instances=10, seed=5)
        bank.update_vector(heavy_vector)
        small_coords = np.flatnonzero(np.abs(heavy_vector) < 10)[:10]
        for i in small_coords:
            instance_errors = np.abs(bank.instance_estimates(int(i)) - heavy_vector[i])
            bank_error = abs(bank.estimate(int(i)) - heavy_vector[i])
            assert bank_error <= instance_errors.max() + 1e-9
