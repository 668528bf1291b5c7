"""Sharded-vs-monolithic bitwise equivalence of the execution layer.

The sharded execution engine (:mod:`repro.utils.sharding`) promises that
splitting work across workers and merging back reproduces the monolithic
replica-ensemble engine exactly:

* **Replica sharding** (mode a): partitioning the replica axis into shard
  ensembles — 1 shard, a few, one shard per replica, uneven splits, shard
  counts exceeding the replica count — and concatenating the shards back is
  bit-identical in state and samples for *every* registered native ensemble
  (and the generic fallback), under both the serial and the
  ``multiprocessing`` back-end.

* **Stream sharding** (mode b): splitting a cancellation-heavy turnstile
  stream by coordinate ownership, ingesting each sub-stream into a
  same-seed ensemble copy, and folding the copies together entrywise is
  bit-identical to a monolithic ensemble that ingests the per-shard
  sub-streams sequentially (the exact-merge reference of the module
  docstring), for every linear-sketch ensemble.  Against the original
  interleaved update order the merged state agrees up to float
  re-association, which a separate tolerance test pins down.

State is compared with ``np.testing.assert_array_equal`` (bitwise, no
tolerance) exactly as in ``tests/test_ensemble_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N, assert_samples_equal

from repro.applications.distributed import shard_assignment, split_stream
from repro.evaluation.distribution_tests import (
    evaluate_sampler_distribution,
    lp_target_weights,
)
from repro.samplers.jw18_lp_sampler import JW18LpSampler
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.sketch.ams import AMSSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.fp_estimator import MaxStabilityFpEstimator
from repro.sketch.pstable import PStableSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    replica_sharded_ensemble,
    sharded_ensemble_samples,
    stream_sharded_ensemble,
)

REPLICAS = 10
STREAM_REPLICAS = 6
SHARD_COUNTS = (1, 2, 3, REPLICAS, REPLICAS + 3)


@pytest.fixture(scope="module")
def stream():
    """A cancellation-heavy turnstile stream over a skewed vector."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


@pytest.fixture(scope="module")
def long_stream():
    """A longer cancellation-heavy stream (sub-streams stay batch-sized).

    Built as the concatenation of a realising cancellation stream and two
    pure-churn streams (net zero), so every stream shard is long enough to
    keep the CountSketch-backed update paths on their fused-scatter branch
    while the churn still exercises mid-stream sign flips.
    """
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=15)
    vector[7] = 0.0
    combined = turnstile_stream_with_cancellations(vector, churn=1.5, seed=16)
    zeros = np.zeros(N)
    for extra_seed in (17, 18):
        churn_only = turnstile_stream_with_cancellations(zeros, churn=2.0,
                                                         seed=extra_seed)
        combined = combined.concatenated_with(churn_only)
    return combined


def _assert_query_equal(case, left, right, context):
    if case.returns_sample:
        assert_samples_equal(left, right, context)
    else:
        np.testing.assert_array_equal(np.asarray(left), np.asarray(right),
                                      err_msg=context)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_replica_sharded_matches_monolithic(case, stream) -> None:
    """Every shard split reproduces the monolithic ensemble bit-for-bit."""
    monolithic = build_ensemble([case.factory(seed) for seed in range(REPLICAS)])
    monolithic.update_stream(stream)
    reference_states = [case.ensemble_state(monolithic, r) for r in range(REPLICAS)]
    reference_out = [case.ensemble_query(monolithic, r) for r in range(REPLICAS)]

    for num_shards in SHARD_COUNTS:
        merged = replica_sharded_ensemble(
            [case.factory(seed) for seed in range(REPLICAS)], stream,
            config=ExecutionConfig(num_shards=num_shards))
        assert type(merged) is type(monolithic), (case.name, num_shards)
        assert merged.num_replicas == REPLICAS
        for replica in range(REPLICAS):
            state = case.ensemble_state(merged, replica)
            assert state.keys() == reference_states[replica].keys()
            for key in state:
                np.testing.assert_array_equal(
                    np.asarray(reference_states[replica][key]),
                    np.asarray(state[key]),
                    err_msg=f"{case.name}[shards={num_shards}][{replica}].{key}")
            _assert_query_equal(
                case, reference_out[replica], case.ensemble_query(merged, replica),
                f"{case.name}[shards={num_shards}][{replica}]")


MP_CASE_NAMES = ("countsketch", "pstable-cauchy", "jw18-sketch", "jw18-oracle",
                 "perfect-l0", "precision")


@pytest.mark.parametrize("case",
                         [c for c in CASES if c.name in MP_CASE_NAMES],
                         ids=lambda case: case.name)
def test_replica_sharded_multiprocessing_matches_serial(case, stream) -> None:
    """Worker-process execution never changes a bit of any replica's output."""
    monolithic = build_ensemble(
        [case.factory(seed) for seed in range(STREAM_REPLICAS)])
    monolithic.update_stream(stream)
    forked = replica_sharded_ensemble(
        [case.factory(seed) for seed in range(STREAM_REPLICAS)], stream,
        config=ExecutionConfig(num_shards=2, execution="multiprocessing",
                               processes=2))
    assert type(forked) is type(monolithic)
    for replica in range(STREAM_REPLICAS):
        state = case.ensemble_state(forked, replica)
        reference = case.ensemble_state(monolithic, replica)
        assert state.keys() == reference.keys()
        for key in state:
            np.testing.assert_array_equal(
                np.asarray(reference[key]), np.asarray(state[key]),
                err_msg=f"{case.name}[{replica}].{key}")
        _assert_query_equal(
            case, case.ensemble_query(monolithic, replica),
            case.ensemble_query(forked, replica), f"{case.name}[{replica}]")


def test_sharded_ensemble_samples_matches_sequential_loop(stream) -> None:
    """The sharded samples helper reproduces the sequential draw loop."""
    factory = next(c for c in CASES if c.name == "jw18-sketch").factory
    sequential = []
    for seed in range(STREAM_REPLICAS):
        instance = factory(seed)
        instance.update_stream(stream)
        sequential.append(instance.sample())
    via_engine = sharded_ensemble_samples(
        factory, range(STREAM_REPLICAS), stream,
        config=ExecutionConfig(num_shards=3))
    assert len(via_engine) == len(sequential)
    for position, (left, right) in enumerate(zip(sequential, via_engine)):
        assert_samples_equal(left, right, f"sharded-samples[{position}]")


@dataclass(frozen=True)
class StreamCase:
    """One stream-sharding equivalence scenario (linear-sketch ensembles).

    Configurations keep the CountSketch-style tables *narrower* than the
    per-shard sub-streams so every ingest runs the fused bincount branch,
    whose per-batch table contribution is a pure function of the batch —
    the property that makes the fold-left shard merge bitwise against the
    shard-sequential monolithic ingest (see the sharding module docstring).
    """

    name: str
    factory: Callable[[int], object]
    state: Callable[[object, int], dict]
    query: Callable[[object, int], object]
    returns_sample: bool = False


STREAM_CASES = [
    StreamCase(
        "countsketch",
        lambda s: CountSketch(N, 16, 5, seed=s),
        lambda ens, r: {"table": ens._table[r]},
        lambda ens, r: ens.estimate_all_member(r),
    ),
    StreamCase(
        "ams",
        lambda s: AMSSketch(N, width=8, depth=3, seed=s),
        lambda ens, r: {"counters": ens._counters[r]},
        lambda ens, r: ens.estimate_f2_member(r),
    ),
    StreamCase(
        "pstable-cauchy",
        lambda s: PStableSketch(N, 1.0, num_rows=24, seed=s),
        lambda ens, r: {"state": ens._state[r]},
        lambda ens, r: ens.estimate_norm_replica(r),
    ),
    StreamCase(
        "pstable-fractional",
        lambda s: PStableSketch(N, 1.5, num_rows=16, seed=s),
        lambda ens, r: {"state": ens._state[r]},
        lambda ens, r: ens.estimate_norm_replica(r),
    ),
    StreamCase(
        "fp-estimator-oracle",
        lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=6, seed=s,
                                          exact_recovery=True),
        lambda ens, r: {"vectors": ens._scaled_vectors[r]},
        lambda ens, r: ens.estimate_replica(r),
    ),
    StreamCase(
        "fp-estimator-sketch",
        lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=4, buckets=8,
                                          rows=3, seed=s),
        lambda ens, r: {"tables": ens._sketch._table[
            r * ens._repetitions:(r + 1) * ens._repetitions]},
        lambda ens, r: ens.estimate_replica(r),
    ),
    StreamCase(
        "jw18-sketch",
        lambda s: JW18LpSampler(N, 2.0, seed=s, buckets=16, rows=3,
                                value_instances=3, value_buckets=16,
                                value_rows=3),
        lambda ens, r: {
            "main": ens._main._table[r],
            "value": ens._value._table[r * ens._value_group:
                                       (r + 1) * ens._value_group],
            "ams": ens._ams._counters[r],
        },
        lambda ens, r: ens.sample_replica(r),
        returns_sample=True,
    ),
    StreamCase(
        "jw18-oracle",
        lambda s: JW18LpSampler(N, 2.0, seed=s, exact_recovery=True),
        lambda ens, r: {"scaled": ens._scaled_vectors[r]},
        lambda ens, r: ens.sample_replica(r),
        returns_sample=True,
    ),
    StreamCase(
        "precision",
        lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.9, seed=s),
        lambda ens, r: {"sketch": ens._sketch._table[r],
                        "ams": ens._ams._counters[r]},
        lambda ens, r: ens.sample_replica(r),
        returns_sample=True,
    ),
]


@pytest.mark.parametrize("case", STREAM_CASES, ids=lambda case: case.name)
def test_stream_sharded_matches_monolithic(case, long_stream) -> None:
    """Merged stream shards equal the shard-sequential monolithic run bitwise."""
    for num_shards in (1, 2, 3):
        assignment = shard_assignment(N, num_shards, seed=17)
        substreams = split_stream(long_stream, assignment, num_shards)
        for substream in substreams:
            # The purity precondition: one fused batch per sub-stream.
            assert substream.length < 8192

        monolithic = build_ensemble(
            [case.factory(seed) for seed in range(STREAM_REPLICAS)])
        for substream in substreams:
            monolithic.update_stream(substream)

        merged = stream_sharded_ensemble(
            case.factory, range(STREAM_REPLICAS), long_stream,
            assignment=assignment,
            config=ExecutionConfig(num_shards=num_shards))
        assert type(merged) is type(monolithic)
        for replica in range(STREAM_REPLICAS):
            state = case.state(merged, replica)
            reference = case.state(monolithic, replica)
            assert state.keys() == reference.keys()
            for key in state:
                np.testing.assert_array_equal(
                    np.asarray(reference[key]), np.asarray(state[key]),
                    err_msg=f"{case.name}[shards={num_shards}][{replica}].{key}")
            _assert_query_equal(
                case, case.query(monolithic, replica), case.query(merged, replica),
                f"{case.name}[shards={num_shards}][{replica}]")


@pytest.mark.parametrize("case", STREAM_CASES, ids=lambda case: case.name)
def test_stream_sharded_close_to_original_order(case, long_stream) -> None:
    """Against the original interleaved order the merge is linear-exact.

    Bitwise identity cannot hold across arbitrary re-associations of float
    additions, but the merged state must agree with the original-order
    monolithic ingest to tight tolerance (the states are short sums of
    comparable-magnitude terms), and exactly for per-coordinate state.
    """
    assignment = shard_assignment(N, 3, seed=23)
    monolithic = build_ensemble(
        [case.factory(seed) for seed in range(STREAM_REPLICAS)])
    monolithic.update_stream(long_stream)
    merged = stream_sharded_ensemble(
        case.factory, range(STREAM_REPLICAS), long_stream,
        assignment=assignment, config=ExecutionConfig(num_shards=3))
    for replica in range(STREAM_REPLICAS):
        state = case.state(merged, replica)
        reference = case.state(monolithic, replica)
        for key in state:
            np.testing.assert_allclose(
                np.asarray(reference[key]), np.asarray(state[key]),
                rtol=1e-9, atol=1e-9,
                err_msg=f"{case.name}[{replica}].{key}")


def test_stream_sharded_multiprocessing_matches_serial(long_stream) -> None:
    """The stream-sharding back-ends produce bitwise-identical merges."""
    for factory in (lambda s: CountSketch(N, 16, 5, seed=s),
                    lambda s: PStableSketch(N, 1.0, num_rows=24, seed=s)):
        serial = stream_sharded_ensemble(
            factory, range(4), long_stream,
            config=ExecutionConfig(num_shards=3),
            assignment_seed=29)
        forked = stream_sharded_ensemble(
            factory, range(4), long_stream,
            config=ExecutionConfig(num_shards=3, execution="multiprocessing",
                                   processes=2),
            assignment_seed=29)
        serial_state = getattr(serial, "_table", None)
        if serial_state is None:
            serial_state = serial._state
            forked_state = forked._state
        else:
            forked_state = forked._table
        np.testing.assert_array_equal(serial_state, forked_state)


@pytest.mark.parametrize("execution", ["threaded", "multiprocessing"])
def test_distribution_harness_execution_knob_is_draw_identical(
        stream, execution) -> None:
    """The evaluation harness returns the same report under every back-end."""
    vector = stream.frequency_vector()
    factory = lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.5, seed=s)  # noqa: E731
    serial = evaluate_sampler_distribution(
        factory, stream, lp_target_weights(vector, 2.0), num_draws=16,
        max_attempts_per_draw=2)
    sharded = evaluate_sampler_distribution(
        factory, stream, lp_target_weights(vector, 2.0), num_draws=16,
        max_attempts_per_draw=2,
        config=ExecutionConfig(num_shards=3, execution=execution, processes=2))
    assert serial.num_draws == sharded.num_draws
    assert serial.num_failures == sharded.num_failures
    np.testing.assert_array_equal(serial.empirical, sharded.empirical)
    assert serial.tvd == sharded.tvd
    assert serial.chi_square == sharded.chi_square
