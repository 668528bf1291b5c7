"""Tests for the adversarial-leakage and distributed-sampling applications."""

import numpy as np
import pytest

from repro.applications import (
    DistributedSamplingCoordinator,
    PropertyLeakingSampler,
    SetFrequencyObserver,
    leakage_experiment,
    shard_assignment,
    split_stream,
)
from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.samplers import ExactLpSampler
from repro.sketch import FpEstimator
from repro.streams import stream_from_vector, zipfian_frequency_vector
from repro.utils.stats import total_variation_distance


def leak_vector(n=32, seed=0):
    rng = np.random.default_rng(seed)
    vector = rng.integers(1, 30, size=n).astype(float)
    return vector


class TestPropertyLeakingSampler:
    def test_bias_direction_follows_property_bit(self):
        vector = leak_vector()
        n = len(vector)
        leak_set = list(range(n // 2))
        unbiased = np.abs(vector) ** 3 / np.sum(np.abs(vector) ** 3)
        reference = unbiased[leak_set].sum()

        up = PropertyLeakingSampler(n, 3.0, 0.3, leak_set, property_bit=True, seed=1)
        down = PropertyLeakingSampler(n, 3.0, 0.3, leak_set, property_bit=False, seed=1)
        up.update_stream(stream_from_vector(vector, seed=2))
        down.update_stream(stream_from_vector(vector, seed=2))
        assert up.biased_distribution()[leak_set].sum() > reference
        assert down.biased_distribution()[leak_set].sum() < reference

    def test_bias_stays_within_advertised_budget(self):
        vector = leak_vector()
        n = len(vector)
        leak_set = list(range(n // 2))
        sampler = PropertyLeakingSampler(n, 3.0, 0.2, leak_set, property_bit=True, seed=3)
        sampler.update_stream(stream_from_vector(vector, seed=4))
        unbiased = np.abs(vector) ** 3 / np.sum(np.abs(vector) ** 3)
        biased = sampler.biased_distribution()
        ratios = biased / unbiased
        assert np.all(ratios <= 1.2 / (1 - 0.2) + 1e-9)
        assert np.all(ratios >= 0.8 / (1 + 0.2) - 1e-9)

    def test_rejects_leak_set_outside_universe(self):
        with pytest.raises(InvalidParameterError):
            PropertyLeakingSampler(8, 3.0, 0.1, [9], property_bit=True)


class TestSetFrequencyObserver:
    def test_observe_counts_hits(self):
        from repro.samplers.base import Sample

        observer = SetFrequencyObserver([0, 1], reference_mass=0.5)
        samples = [Sample(index=0), Sample(index=2), None, Sample(index=1)]
        assert observer.observe(samples) == pytest.approx(2.0 / 3.0)
        assert observer.guess_property(samples) is True

    def test_observe_requires_successful_samples(self):
        observer = SetFrequencyObserver([0], reference_mass=0.5)
        with pytest.raises(InvalidParameterError):
            observer.observe([None, None])


class TestLeakageExperiment:
    def test_leaky_sampler_leaks_and_perfect_sampler_does_not(self):
        vector = leak_vector(n=24, seed=5)
        n = len(vector)
        stream = stream_from_vector(vector, seed=6)
        leak_set = list(range(n // 2))
        unbiased = np.abs(vector) ** 3 / np.sum(np.abs(vector) ** 3)
        reference = float(unbiased[leak_set].sum())

        def leaky_factory(bit, trial):
            sampler = PropertyLeakingSampler(n, 3.0, 0.35, leak_set, property_bit=bit,
                                             seed=trial)
            sampler.update_stream(stream)
            return sampler

        def perfect_factory(bit, trial):
            sampler = ExactLpSampler(n, 3.0, seed=trial)
            sampler.update_stream(stream)
            return sampler

        leaky = leakage_experiment(leaky_factory, leak_set, reference,
                                   num_trials=30, queries_per_trial=250, seed=7)
        perfect = leakage_experiment(perfect_factory, leak_set, reference,
                                     num_trials=30, queries_per_trial=250, seed=8)
        assert leaky.attack_success_rate > 0.85
        assert perfect.attack_success_rate < 0.75
        assert leaky.advantage > perfect.advantage


class TestSharding:
    def test_assignment_is_deterministic_and_in_range(self):
        first = shard_assignment(100, 4, seed=3)
        second = shard_assignment(100, 4, seed=3)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 4

    def test_split_stream_partitions_updates(self):
        vector = leak_vector(n=40, seed=9)
        stream = stream_from_vector(vector, seed=10)
        assignment = shard_assignment(40, 3, seed=11)
        shards = split_stream(stream, assignment, 3)
        assert sum(shard.length for shard in shards) == stream.length
        total = np.zeros(40)
        for shard in shards:
            total += shard.frequency_vector()
        assert total == pytest.approx(vector)

    def test_split_rejects_wrong_assignment_length(self):
        vector = leak_vector(n=10)
        stream = stream_from_vector(vector, seed=1)
        with pytest.raises(InvalidParameterError):
            split_stream(stream, np.zeros(5, dtype=np.int64), 2)


class _ExactMomentEstimator:
    """Tiny exact F_p estimator used to isolate coordinator behaviour."""

    def __init__(self, n, p):
        self._values = np.zeros(n)
        self._p = p

    def update(self, index, delta):
        self._values[index] += delta

    def estimate(self):
        return float(np.sum(np.abs(self._values) ** self._p))

    def space_counters(self):
        return len(self._values)


class TestDistributedSamplingCoordinator:
    def build(self, n, p=3.0, num_shards=3, seed=0):
        sampler_factory = lambda shard, seed_value: ExactLpSampler(n, p, seed=seed_value)  # noqa: E731
        estimator_factory = lambda shard, seed_value: _ExactMomentEstimator(n, p)  # noqa: E731
        return DistributedSamplingCoordinator(n, num_shards, sampler_factory,
                                              estimator_factory, seed=seed)

    def test_sample_before_updates_raises(self):
        coordinator = self.build(16)
        with pytest.raises(SamplerStateError):
            coordinator.sample()

    def test_shard_weights_sum_to_one(self):
        n = 32
        vector = zipfian_frequency_vector(n, seed=12)
        coordinator = self.build(n, seed=13)
        coordinator.update_stream(stream_from_vector(vector, seed=14))
        weights = coordinator.shard_weights()
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0)

    def test_global_distribution_matches_lp_target(self):
        n = 24
        vector = zipfian_frequency_vector(n, skew=1.4, scale=50.0, seed=15)
        stream = stream_from_vector(vector, seed=16)
        coordinator = self.build(n, p=3.0, num_shards=4, seed=17)
        coordinator.update_stream(stream)
        target = coordinator.target_distribution(vector, 3.0)
        counts = np.zeros(n)
        draws = 1500
        for _ in range(draws):
            drawn = coordinator.sample()
            counts[drawn.index] += 1
        empirical = counts / counts.sum()
        assert total_variation_distance(empirical, target) < 0.08

    def test_sample_metadata_records_shard(self):
        n = 16
        vector = np.ones(n)
        coordinator = self.build(n, seed=18)
        coordinator.update_stream(stream_from_vector(vector, seed=19))
        drawn = coordinator.sample()
        assert 0 <= drawn.metadata["shard"] < coordinator.num_shards
        assert drawn.metadata["shard"] == coordinator.shard_of(drawn.index)

    def test_space_counters_positive(self):
        coordinator = self.build(8)
        assert coordinator.space_counters() > 0

    @pytest.mark.parametrize("ingest", ["update_batch", "update"])
    def test_shard_weights_refresh_after_ingest(self, ingest):
        # The F_p estimators memoise their estimate per ingest state; a
        # coordinator queried mid-stream must weight its shards exactly as
        # one that only ever saw the whole stream.
        n = 64
        stream = stream_from_vector(zipfian_frequency_vector(n, seed=20), seed=21)
        half = len(stream) // 2
        halves = [(stream.indices[:half], stream.deltas[:half]),
                  (stream.indices[half:], stream.deltas[half:])]

        def build():
            return DistributedSamplingCoordinator(
                n, 3,
                lambda shard, seed_value: ExactLpSampler(n, 3.0, seed=seed_value),
                lambda shard, seed_value: FpEstimator(
                    n, 3.0, groups=3, repetitions_per_group=10, seed=seed_value),
                seed=22)

        def feed(coordinator, indices, deltas):
            if ingest == "update_batch":
                coordinator.update_batch(indices, deltas)
            else:
                for index, delta in zip(indices.tolist(), deltas.tolist()):
                    coordinator.update(index, delta)

        queried, fresh = build(), build()
        feed(queried, *halves[0])
        for _ in range(3):
            queried.sample()
        stale = queried.shard_weights()
        feed(queried, *halves[1])
        for indices, deltas in halves:
            feed(fresh, indices, deltas)
        expected = fresh.shard_weights()
        assert expected.tobytes() != stale.tobytes()
        assert queried.shard_weights().tobytes() == expected.tobytes()
