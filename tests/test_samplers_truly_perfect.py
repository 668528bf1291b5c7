"""Unit and distributional tests for the insertion-only truly perfect samplers."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, StreamError
from repro.functions import CapFunction, LogFunction, LpFunction, SoftCapFunction
from repro.samplers import ExponentialRaceSampler, TrulyPerfectGSampler, max_unit_increment
from repro.streams import insertion_only_stream
from repro.utils.stats import total_variation_distance


def small_vector():
    return np.array([12.0, 3.0, 0.0, 7.0, 1.0, 0.0, 20.0, 5.0])


class TestMaxUnitIncrement:
    def test_concave_function_maximum_at_one(self):
        g = LogFunction()
        assert max_unit_increment(g, 100.0) == pytest.approx(np.log(2.0))

    def test_convex_function_maximum_at_top(self):
        g = LpFunction(2.0)
        assert max_unit_increment(g, 10.0) == pytest.approx(100.0 - 81.0)

    def test_cap_function_increment_bounded_by_threshold(self):
        g = CapFunction(threshold=4.0, p=2.0)
        assert max_unit_increment(g, 100.0) <= 4.0 + 1e-12


class TestTrulyPerfectGSampler:
    def test_rejects_turnstile_updates(self):
        sampler = TrulyPerfectGSampler(8, LogFunction(), max_value=50.0, seed=0)
        with pytest.raises(StreamError):
            sampler.update(0, -1.0)

    def test_rejects_fractional_updates(self):
        sampler = TrulyPerfectGSampler(8, LogFunction(), max_value=50.0, seed=0)
        with pytest.raises(StreamError):
            sampler.update(0, 0.5)

    def test_rejects_nonzero_at_zero(self):
        shifted = lambda z: abs(z) + 1.0  # noqa: E731 - deliberate tiny lambda
        with pytest.raises(InvalidParameterError):
            TrulyPerfectGSampler(8, shifted, max_value=10.0, seed=0)

    def test_sample_before_updates_is_none(self):
        sampler = TrulyPerfectGSampler(8, LogFunction(), max_value=50.0, seed=0)
        assert sampler.sample() is None

    def test_space_counters_scale_with_repetitions(self):
        small = TrulyPerfectGSampler(8, LogFunction(), max_value=50.0,
                                     num_repetitions=10, seed=0)
        large = TrulyPerfectGSampler(8, LogFunction(), max_value=50.0,
                                     num_repetitions=40, seed=0)
        assert large.space_counters() == 4 * small.space_counters()

    def test_sampled_indices_lie_on_support(self):
        vector = small_vector()
        stream = insertion_only_stream(vector, seed=3)
        support = set(np.flatnonzero(vector))
        for seed in range(20):
            sampler = TrulyPerfectGSampler(len(vector), LogFunction(), max_value=64.0,
                                           num_repetitions=64, seed=seed)
            sampler.update_stream(stream)
            draw = sampler.sample()
            if draw is not None:
                assert draw.index in support

    def test_distribution_matches_log_target(self):
        vector = np.array([30.0, 1.0, 0.0, 8.0, 2.0, 0.0, 15.0, 4.0])
        stream = insertion_only_stream(vector, seed=11)
        g = LogFunction()
        target = g.target_distribution(vector)
        counts = np.zeros(len(vector))
        draws = 600
        for seed in range(draws):
            sampler = TrulyPerfectGSampler(len(vector), g, max_value=32.0,
                                           num_repetitions=96, seed=seed)
            sampler.update_stream(stream)
            drawn = sampler.sample()
            if drawn is not None:
                counts[drawn.index] += 1
        assert counts.sum() > 0.8 * draws
        empirical = counts / counts.sum()
        assert total_variation_distance(empirical, target) < 0.1

    def test_target_distribution_helper(self):
        vector = small_vector()
        sampler = TrulyPerfectGSampler(len(vector), LpFunction(1.0), max_value=32.0, seed=0)
        target = sampler.target_distribution(vector)
        assert target == pytest.approx(np.abs(vector) / np.abs(vector).sum())


class TestExponentialRaceSampler:
    def test_rejects_turnstile_updates(self):
        sampler = ExponentialRaceSampler(8, SoftCapFunction(tau=0.5), seed=0)
        with pytest.raises(StreamError):
            sampler.update(2, -3.0)

    def test_never_fails_after_positive_mass(self):
        vector = small_vector()
        stream = insertion_only_stream(vector, seed=5)
        sampler = ExponentialRaceSampler(len(vector), LogFunction(), seed=1)
        sampler.update_stream(stream)
        drawn = sampler.sample()
        assert drawn is not None
        assert vector[drawn.index] > 0

    def test_two_word_query_state(self):
        sampler = ExponentialRaceSampler(8, LogFunction(), seed=0)
        assert sampler.sample_state_words == 2

    def test_space_counters_include_level_tracker(self):
        vector = small_vector()
        stream = insertion_only_stream(vector, seed=5)
        sampler = ExponentialRaceSampler(len(vector), LogFunction(), seed=1)
        sampler.update_stream(stream)
        support_size = int(np.count_nonzero(vector))
        assert sampler.space_counters() == 2 + support_size

    def test_merge_combines_disjoint_shards(self):
        vector = small_vector()
        left = vector.copy()
        right = vector.copy()
        left[4:] = 0.0
        right[:4] = 0.0
        g = LogFunction()
        shard_a = ExponentialRaceSampler(len(vector), g, seed=2)
        shard_b = ExponentialRaceSampler(len(vector), g, seed=3)
        shard_a.update_stream(insertion_only_stream(left, seed=6))
        shard_b.update_stream(insertion_only_stream(right, seed=7))
        merged = shard_a.merge(shard_b)
        drawn = merged.sample()
        assert drawn is not None
        assert vector[drawn.index] > 0

    def test_merge_rejects_mismatched_universe(self):
        a = ExponentialRaceSampler(8, LogFunction(), seed=0)
        b = ExponentialRaceSampler(16, LogFunction(), seed=1)
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    def test_distribution_matches_soft_cap_target(self):
        vector = np.array([25.0, 2.0, 0.0, 9.0, 1.0, 0.0, 14.0, 6.0])
        stream = insertion_only_stream(vector, seed=13)
        g = SoftCapFunction(tau=0.2)
        target = g.target_distribution(vector)
        counts = np.zeros(len(vector))
        draws = 800
        for seed in range(draws):
            sampler = ExponentialRaceSampler(len(vector), g, seed=seed)
            sampler.update_stream(stream)
            drawn = sampler.sample()
            counts[drawn.index] += 1
        empirical = counts / counts.sum()
        assert total_variation_distance(empirical, target) < 0.08

    def test_distribution_matches_l1_target(self):
        vector = np.array([40.0, 5.0, 0.0, 10.0, 3.0, 2.0, 0.0, 20.0])
        stream = insertion_only_stream(vector, seed=17)
        g = LpFunction(1.0)
        target = g.target_distribution(vector)
        counts = np.zeros(len(vector))
        draws = 800
        for seed in range(draws):
            sampler = ExponentialRaceSampler(len(vector), g, seed=seed)
            sampler.update_stream(stream)
            drawn = sampler.sample()
            counts[drawn.index] += 1
        empirical = counts / counts.sum()
        assert total_variation_distance(empirical, target) < 0.08
