"""Tests for the F_p estimators (Theorem 5.1 contract)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.sketch.countsketch import CountSketchEnsemble
from repro.sketch.fp_estimator import (
    FpEstimator,
    FpEstimatorEnsemble,
    MaxStabilityFpEstimator,
)
from repro.streams.generators import stream_from_vector, zipfian_frequency_vector
from repro.streams.stream import TurnstileStream
from repro.utils.snapshot import snapshot_bytes


def exact_fp(vector: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(vector) ** p))


def bits(value: float) -> str:
    """Exact bit pattern of an estimate, for bitwise comparisons."""
    return float(value).hex()


class TestMaxStabilityFpEstimator:
    def test_query_before_update_rejected(self):
        estimator = MaxStabilityFpEstimator(8, 3.0, seed=0)
        with pytest.raises(SamplerStateError):
            estimator.estimate()

    def test_repetition_minimum(self):
        with pytest.raises(InvalidParameterError):
            MaxStabilityFpEstimator(8, 3.0, repetitions=2)

    def test_exact_recovery_single_run_reasonable(self, small_vector, small_stream):
        estimator = MaxStabilityFpEstimator(len(small_vector), 3.0, repetitions=80,
                                            seed=1, exact_recovery=True)
        estimator.update_stream(small_stream)
        truth = exact_fp(small_vector, 3.0)
        assert 0.5 * truth <= estimator.estimate() <= 2.0 * truth

    def test_unbiasedness_exact_recovery(self):
        # E[F_hat_p] = F_p with relative variance 1/(k-2); averaging over
        # seeds should concentrate tightly around the truth.
        vector = zipfian_frequency_vector(48, seed=2)
        stream = stream_from_vector(vector, seed=3)
        truth = exact_fp(vector, 3.0)
        estimates = []
        for seed in range(60):
            estimator = MaxStabilityFpEstimator(48, 3.0, repetitions=30, seed=seed,
                                                exact_recovery=True)
            estimator.update_stream(stream)
            estimates.append(estimator.estimate())
        assert np.mean(estimates) == pytest.approx(truth, rel=0.15)

    def test_variance_bound_matches_theory(self):
        vector = zipfian_frequency_vector(32, seed=4)
        stream = stream_from_vector(vector, seed=5)
        truth = exact_fp(vector, 3.0)
        estimates = []
        repetitions = 40
        for seed in range(80):
            estimator = MaxStabilityFpEstimator(32, 3.0, repetitions=repetitions, seed=seed,
                                                exact_recovery=True)
            estimator.update_stream(stream)
            estimates.append(estimator.estimate())
        relative_variance = np.var(estimates) / truth**2
        # Theory: 1/(k-2) ~ 0.026; allow generous slack for sampling noise.
        assert relative_variance < 4.0 / (repetitions - 2)

    def test_sketched_recovery_constant_factor(self, heavy_vector, heavy_stream):
        estimator = MaxStabilityFpEstimator(len(heavy_vector), 3.0, repetitions=40, seed=6)
        estimator.update_stream(heavy_stream)
        truth = exact_fp(heavy_vector, 3.0)
        assert 0.3 * truth <= estimator.estimate() <= 3.0 * truth

    def test_handles_cancellations(self, cancellation_vector, cancellation_stream):
        estimator = MaxStabilityFpEstimator(len(cancellation_vector), 3.0, repetitions=40,
                                            seed=7, exact_recovery=True)
        estimator.update_stream(cancellation_stream)
        truth = exact_fp(cancellation_vector, 3.0)
        assert 0.3 * truth <= estimator.estimate() <= 3.0 * truth

    def test_zero_vector_reports_zero(self):
        estimator = MaxStabilityFpEstimator(8, 3.0, repetitions=10, seed=8,
                                            exact_recovery=True)
        estimator.update(0, 5.0)
        estimator.update(0, -5.0)
        assert estimator.estimate() == pytest.approx(0.0)

    def test_out_of_range_update(self):
        estimator = MaxStabilityFpEstimator(4, 3.0, seed=9)
        with pytest.raises(InvalidParameterError):
            estimator.update(4, 1.0)

    def test_space_counters_positive(self):
        estimator = MaxStabilityFpEstimator(16, 3.0, repetitions=5, seed=10)
        assert estimator.space_counters() > 0

    def test_variance_bound_property(self):
        estimator = MaxStabilityFpEstimator(16, 3.0, repetitions=52, seed=11)
        assert estimator.estimate_variance_bound() <= 1.0 / 50.0


class TestFpEstimator:
    def test_median_of_groups_two_approximation(self, small_vector, small_stream):
        estimator = FpEstimator(len(small_vector), 3.0, groups=7,
                                repetitions_per_group=20, seed=0, exact_recovery=True)
        estimator.update_stream(small_stream)
        truth = exact_fp(small_vector, 3.0)
        assert 0.5 * truth <= estimator.estimate() <= 2.0 * truth

    def test_update_paths_agree(self, small_vector, small_stream):
        a = FpEstimator(len(small_vector), 3.0, groups=3, repetitions_per_group=10,
                        seed=1, exact_recovery=True)
        b = FpEstimator(len(small_vector), 3.0, groups=3, repetitions_per_group=10,
                        seed=1, exact_recovery=True)
        a.update_stream(small_stream)
        for update in small_stream:
            b.update(update.index, update.delta)
        assert a.estimate() == pytest.approx(b.estimate(), rel=1e-9)

    def test_space_counters(self):
        estimator = FpEstimator(16, 3.0, groups=3, repetitions_per_group=5, seed=2)
        assert estimator.space_counters() > 0


MEMO_N = 48


def memo_stream(seed: int) -> TurnstileStream:
    return stream_from_vector(zipfian_frequency_vector(MEMO_N, seed=seed),
                              seed=seed + 1)


MUTATIONS = {
    "update": lambda estimator: estimator.update(7, 3.5),
    "update_batch": lambda estimator: estimator.update_batch(
        [1, 7, 7, 30], [2.0, -1.5, 4.0, 9.0]),
    "update_stream": lambda estimator: estimator.update_stream(memo_stream(40)),
}


@pytest.fixture
def member_estimate_calls(monkeypatch):
    """Record every ``CountSketchEnsemble.estimate_all_members`` call."""
    calls = []
    original = CountSketchEnsemble.estimate_all_members

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CountSketchEnsemble, "estimate_all_members", counted)
    return calls


def memo_ensemble(exact_recovery: bool, stream) -> FpEstimatorEnsemble:
    ensemble = FpEstimatorEnsemble([
        MaxStabilityFpEstimator(MEMO_N, 3.0, repetitions=10, seed=seed,
                                exact_recovery=exact_recovery)
        for seed in (11, 12, 13)
    ])
    ensemble.update_stream(stream)
    return ensemble


def replica_bits(ensemble: FpEstimatorEnsemble) -> list[str]:
    return [bits(ensemble.estimate_replica(replica))
            for replica in range(ensemble.num_replicas)]


class TestEstimateMemo:
    """``F̂_p`` is computed once per ingest state and dropped on every change.

    Freshness is checked against an identically seeded twin that received
    the same mutations and was never queried: the queried estimator must
    answer bit-for-bit what the twin's first query computes.
    """

    def test_repeated_estimate_reuses_the_memo(self, member_estimate_calls):
        estimator = MaxStabilityFpEstimator(MEMO_N, 3.0, repetitions=10, seed=1)
        estimator.update_stream(memo_stream(2))
        first = estimator.estimate()
        assert len(member_estimate_calls) == 1
        assert bits(estimator.estimate()) == bits(first)
        assert len(member_estimate_calls) == 1

    def test_median_of_groups_computes_once_per_group(self, member_estimate_calls):
        estimator = FpEstimator(MEMO_N, 3.0, groups=5, repetitions_per_group=10,
                                seed=3)
        estimator.update_stream(memo_stream(4))
        first = estimator.estimate()
        assert len(member_estimate_calls) == 5
        for _ in range(3):
            assert bits(estimator.estimate()) == bits(first)
        assert len(member_estimate_calls) == 5

    @pytest.mark.parametrize("exact_recovery", [False, True], ids=["sketch", "exact"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_drops_the_memo(self, mutation, exact_recovery):
        def build():
            estimator = MaxStabilityFpEstimator(MEMO_N, 3.0, repetitions=10,
                                                seed=5, exact_recovery=exact_recovery)
            estimator.update_stream(memo_stream(6))
            return estimator

        queried, twin = build(), build()
        stale = queried.estimate()
        MUTATIONS[mutation](queried)
        MUTATIONS[mutation](twin)
        fresh = twin.estimate()
        assert bits(fresh) != bits(stale)
        assert bits(queried.estimate()) == bits(fresh)

    @pytest.mark.parametrize("exact_recovery", [False, True], ids=["sketch", "exact"])
    def test_ensemble_update_batch_drops_the_memo(self, exact_recovery):
        queried = memo_ensemble(exact_recovery, memo_stream(14))
        twin = memo_ensemble(exact_recovery, memo_stream(14))
        stale = replica_bits(queried)
        extra = memo_stream(15)
        queried.update_batch(extra.indices, extra.deltas)
        twin.update_batch(extra.indices, extra.deltas)
        fresh = replica_bits(twin)
        assert all(new != old for new, old in zip(fresh, stale))
        assert replica_bits(queried) == fresh

    @pytest.mark.parametrize("exact_recovery", [False, True], ids=["sketch", "exact"])
    def test_ensemble_merge_drops_the_memo(self, exact_recovery):
        queried = memo_ensemble(exact_recovery, memo_stream(16))
        twin = memo_ensemble(exact_recovery, memo_stream(16))
        stale = replica_bits(queried)
        queried.merge(memo_ensemble(exact_recovery, memo_stream(17)))
        twin.merge(memo_ensemble(exact_recovery, memo_stream(17)))
        fresh = replica_bits(twin)
        assert all(new != old for new, old in zip(fresh, stale))
        assert replica_bits(queried) == fresh

    @pytest.mark.parametrize("estimator_cls", [MaxStabilityFpEstimator, FpEstimator])
    def test_snapshot_bytes_do_not_depend_on_queries(self, estimator_cls):
        estimator = estimator_cls(MEMO_N, 3.0, seed=18)
        estimator.update_stream(memo_stream(19))
        before = snapshot_bytes(estimator)
        estimator.estimate()
        assert snapshot_bytes(estimator) == before

    @pytest.mark.parametrize("exact_recovery", [False, True], ids=["sketch", "exact"])
    def test_state_without_memo_field_restores(self, exact_recovery):
        original = MaxStabilityFpEstimator(MEMO_N, 3.0, repetitions=10, seed=20,
                                           exact_recovery=exact_recovery)
        original.update_stream(memo_stream(21))
        expected = original.estimate()
        # Estimators pickled before the memo existed carry exactly this
        # state: every attribute except the memo.
        state = pickle.loads(pickle.dumps(
            {key: value for key, value in vars(original).items()
             if key != "_estimate_memo"}))
        restored = MaxStabilityFpEstimator.__new__(MaxStabilityFpEstimator)
        restored.__setstate__(state)
        assert bits(restored.estimate()) == bits(expected)
        assert b"_estimate_memo" not in pickle.dumps(original)
