"""Draw-sequence regression for the batched query path of Algorithms 1-2.

``JW18LpSamplerEnsemble`` answers the rejection walk from arrays computed
once per ingest state for all ``N`` replicas, and the sketch ensembles take
their medians with :func:`repro.utils.batching.median_of_rows`.  This suite
keeps the per-replica walk those replace as a reference — ``argsort``
top-2, one ``np.median`` point query per call, a scalar gap test — and
asserts that both produce the same samples, the same ``clip_events`` and
the same generator states, for the sampler and for every replica.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.perfect_lp_general import make_perfect_lp_sampler
from repro.samplers.base import Sample
from repro.samplers.jw18_lp_sampler import _top_and_gap
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.table_cache import table_mode

SAMPLES_PER_STATE = 4


# --------------------------------------------------------------------------
# The per-replica reference walk
# --------------------------------------------------------------------------


def reference_all_estimates(sketch) -> np.ndarray:
    """``(M, n)`` estimates of a CountSketch ensemble via ``np.median``."""
    keys = np.arange(sketch._n, dtype=np.int64)
    shape = (sketch.num_members, sketch._rows, sketch._n)
    buckets = sketch._bucket_family.hash_all(keys).reshape(shape)
    signs = sketch._sign_family.sign_all(keys).reshape(shape)
    members = np.arange(sketch.num_members)[:, None, None]
    rows = np.arange(sketch._rows)[None, :, None]
    return np.median(signs * sketch._table[members, rows, buckets], axis=1)


def reference_value_members(ensemble, replica: int, index: int) -> np.ndarray:
    """One replica's value-bank estimates at ``index``: a point query."""
    value, group = ensemble._value, ensemble._value_group
    lo, hi = replica * group * value._rows, (replica + 1) * group * value._rows
    key = np.asarray([index], dtype=np.int64)
    buckets = value._bucket_family.hash_slice(lo, hi, key).reshape(group, -1)
    signs = value._sign_family.sign_slice(lo, hi, key).reshape(group, -1)
    members = np.arange(replica * group, (replica + 1) * group)[:, None]
    rows = np.arange(value._rows)[None, :]
    return np.median(signs * value._table[members, rows, buckets], axis=1)


def reference_l2_scale(ams, member: int) -> float:
    groups = (ams._counters[member] ** 2).reshape(ams._depth, ams._width)
    return float(np.sqrt(float(np.median(groups.mean(axis=1)))))


def reference_scaled_estimates(ensemble) -> np.ndarray:
    if ensemble._estimates_cache is None:
        ensemble._estimates_cache = reference_all_estimates(ensemble._main)
    return ensemble._estimates_cache


def reference_sample_replica(ensemble, replica: int):
    """The per-replica ``sample_replica`` walk (sketch mode)."""
    if ensemble._num_updates == 0:
        return None
    magnitudes = np.abs(reference_scaled_estimates(ensemble)[replica])
    if not np.any(magnitudes > 0):
        return None
    order = np.argsort(-magnitudes)
    best = int(order[0])
    runner_up = float(magnitudes[order[1]]) if ensemble._n > 1 else 0.0
    gap = float(magnitudes[best]) - runner_up
    threshold = 0.0
    if ensemble._gap_test:
        scale = reference_l2_scale(ensemble._ams, replica)
        jitter = ensemble._rngs[replica].uniform(0.5, 1.5)
        threshold = (ensemble._gap_multiplier * jitter * scale
                     / math.sqrt(ensemble._buckets))
        if gap <= threshold:
            return None
    exponentials = ensemble._exponentials[replica]
    scaled = float(np.mean(reference_value_members(ensemble, replica, best)))
    return Sample(
        index=best,
        value_estimate=scaled * exponentials[best] ** (1.0 / ensemble._p),
        metadata={
            "gap": gap,
            "gap_threshold": threshold,
            "scaled_maximum": float(magnitudes[best]),
            "exponential": float(exponentials[best]),
        },
    )


def reference_independent_estimates(ensemble, replica: int, index: int,
                                    count: int) -> np.ndarray:
    unscale = ensemble._exponentials[replica, index] ** (1.0 / ensemble._p)
    estimates = reference_value_members(ensemble, replica, index)
    group_size = max(1, len(estimates) // count)
    groups = []
    for group_index in range(count):
        start = (group_index * group_size) % len(estimates)
        chunk = estimates[start:start + group_size]
        if len(chunk) < group_size:
            chunk = np.concatenate([chunk, estimates[: group_size - len(chunk)]])
        groups.append(float(np.mean(chunk)))
    return np.asarray(groups) * unscale


def reference_fp_estimate(fp_sketch) -> float:
    """The median over the groups, each group's repetitions one range of
    the stacked CountSketch ensemble."""
    groups = fp_sketch._ensemble
    reps = groups._repetitions
    all_maxima = np.max(np.abs(reference_all_estimates(groups._sketch)), axis=1)
    estimates = []
    for group in range(groups.num_replicas):
        maxima = all_maxima[group * reps:(group + 1) * reps]
        if np.any(maxima <= 0):
            estimates.append(0.0)
            continue
        inverse_moments = maxima ** (-groups._p)
        estimates.append(float((reps - 1) / inverse_moments.sum()))
    return float(np.median(estimates))


def reference_sample(sampler):
    """``RejectionLpSamplerBase.sample`` over the per-replica walk."""
    if sampler._num_updates == 0:
        return None
    f2_estimate = sampler._f2_sketch.estimate_f2()
    fp_estimate = reference_fp_estimate(sampler._fp_sketch)
    if fp_estimate <= 0:
        return None
    scale = f2_estimate / (sampler._rejection_constant
                           * sampler._n ** sampler._space_exponent * fp_estimate)
    needed = max(sampler._num_estimates_needed(), 1)
    ensemble = sampler._l2_ensemble
    attempts = 0
    for replica in range(ensemble.num_replicas):
        drawn = reference_sample_replica(ensemble, replica)
        if drawn is None:
            continue
        estimates = reference_independent_estimates(
            ensemble, replica, drawn.index, needed)
        pivot = drawn.value_estimate
        if pivot is None or pivot == 0.0:
            pivot = float(np.mean(estimates)) or 1.0
        attempts += 1
        power_estimate = abs(sampler._estimate_power(drawn.index, estimates, pivot))
        acceptance = scale * power_estimate
        if acceptance > 1.0:
            sampler._clip_events += 1
            acceptance = 1.0
        if sampler._rng.random() < acceptance:
            return Sample(
                index=drawn.index,
                value_estimate=float(np.mean(estimates)),
                metadata={
                    "acceptance_probability": acceptance,
                    "attempts": attempts,
                    "f2_estimate": f2_estimate,
                    "fp_estimate": fp_estimate,
                    "backend": sampler._backend,
                },
            )
    return None


# --------------------------------------------------------------------------
# Comparisons
# --------------------------------------------------------------------------


def assert_same_outcome(left, right, context: str) -> None:
    assert (left is None) == (right is None), context
    if left is not None:
        assert (left.index, left.value_estimate, left.metadata) == (
            right.index, right.value_estimate, right.metadata), context


def assert_same_generators(left, right, context: str) -> None:
    assert left._clip_events == right._clip_events, context
    assert left._rng.bit_generator.state == right._rng.bit_generator.state, context
    for replica, (mine, theirs) in enumerate(zip(left._l2_ensemble._rngs,
                                                 right._l2_ensemble._rngs)):
        assert (mine.bit_generator.state
                == theirs.bit_generator.state), f"{context} replica {replica}"


def _stream_halves(n: int, seed: int):
    vector = zipfian_frequency_vector(n, skew=1.1, scale=60.0, seed=seed)
    stream = turnstile_stream_with_cancellations(vector, churn=1.0, seed=seed + 1)
    half = len(stream) // 2
    return [(stream.indices[:half], stream.deltas[:half]),
            (stream.indices[half:], stream.deltas[half:])]


def _plant_tie_and_empty(sampler, estimates: np.ndarray, n: int) -> None:
    """Replica 0 gets a tied top magnitude, replica 1 no mass at all."""
    estimates = estimates.copy()
    top = np.abs(estimates[0]).max() + 1.0
    estimates[0, [n // 3, n - 2, 5]] = [top, -top, top]
    estimates[1] = 0.0
    sampler._l2_ensemble._estimates_cache = estimates


@pytest.mark.parametrize("mode", ("cached", "blocked"))
@pytest.mark.parametrize("n", (64, 256))
@pytest.mark.parametrize("p", (3, 4, 2.5))
def test_batched_walk_matches_per_replica_walk(p, n, mode) -> None:
    seed = 1000 + n + int(10 * p)
    with table_mode(mode):
        batched = make_perfect_lp_sampler(n, p, seed=seed)
        walked = make_perfect_lp_sampler(n, p, seed=seed)
    for state, (indices, deltas) in enumerate(_stream_halves(n, seed)):
        batched.update_batch(indices, deltas)
        walked.update_batch(indices, deltas)
        if state == 0:
            estimates = batched._l2_ensemble._scaled_estimates()
            np.testing.assert_array_equal(
                estimates, reference_scaled_estimates(walked._l2_ensemble))
            _plant_tie_and_empty(batched, estimates, n)
            _plant_tie_and_empty(walked, estimates, n)
        for call in range(SAMPLES_PER_STATE):
            context = f"p={p} n={n} {mode} state {state} call {call}"
            assert_same_outcome(batched.sample(), reference_sample(walked), context)
            assert_same_generators(batched, walked, context)


def test_top_and_gap_matches_argsort_on_ties() -> None:
    """Rows with tied tops, NaNs, no mass and unique tops all follow argsort."""
    rng = np.random.default_rng(7)
    magnitudes = rng.choice([0.0, 1.0, 2.0, 3.0], size=(200, 37))
    magnitudes[:40] = rng.random((40, 37))
    magnitudes[50] = 0.0
    magnitudes[51, 9] = np.nan
    magnitudes[52] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf on row 52
        top, gap = _top_and_gap(magnitudes)
    for row, values in enumerate(magnitudes):
        if not np.any(values > 0):
            assert top[row] == -1, row
            continue
        order = np.argsort(-values)
        assert top[row] == order[0], row
        np.testing.assert_equal(gap[row], float(values[order[0]])
                                - float(values[order[1]]))


# --------------------------------------------------------------------------
# Query caches stay out of pickles
# --------------------------------------------------------------------------


def test_pickled_sampler_drops_query_caches_and_draws_on() -> None:
    n, p = 64, 3
    indices, deltas = _stream_halves(n, 3)[0]
    sampler = make_perfect_lp_sampler(n, p, seed=21)
    sampler.update_batch(indices, deltas)
    sampler.sample()
    ensemble = sampler._l2_ensemble
    assert ensemble._estimates_cache is not None
    assert ensemble._candidates is not None
    state = ensemble.__getstate__()
    assert state["_estimates_cache"] is None and state["_candidates"] is None
    restored = pickle.loads(pickle.dumps(sampler))
    assert ensemble._candidates is not None
    for call in range(SAMPLES_PER_STATE):
        assert_same_outcome(sampler.sample(), restored.sample(), f"call {call}")
        assert_same_generators(sampler, restored, f"call {call}")


def test_pickled_precision_ensemble_drops_estimate_cache() -> None:
    n = 48
    indices, deltas = _stream_halves(n, 5)[0]
    ensemble = build_ensemble([PrecisionLpSampler(n, 2.0, epsilon=0.25, seed=s)
                               for s in range(6)])
    ensemble.update_batch(indices, deltas)
    ensemble.sample_replica(0)
    assert ensemble._estimates_cache is not None
    restored = pickle.loads(pickle.dumps(ensemble))
    assert restored._estimates_cache is None
    for replica in range(6):
        left, right = ensemble.sample_replica(replica), restored.sample_replica(replica)
        assert_same_outcome(left, right, f"replica {replica}")
