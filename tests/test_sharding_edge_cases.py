"""Adversarial edge cases for the ensemble/sharding execution engine.

Covers the degenerate inputs the sharded execution layer must handle
exactly (or refuse loudly): zero- and one-replica ensembles, shard counts
exceeding the replica count (empty shards), empty streams, stream shards
that own no touched coordinate, ``concat``/``merge`` of incompatible
ensembles, and invalid execution modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.distributed import shard_assignment, split_stream
from repro.core.cap_sampler import CapSampler
from repro.evaluation.distribution_tests import evaluate_sampler_distribution
from repro.exceptions import InvalidParameterError
from repro.samplers.jw18_lp_sampler import JW18LpSampler, JW18LpSamplerEnsemble
from repro.samplers.l0_sampler import PerfectL0Sampler
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.sketch.fp_estimator import FpEstimatorEnsemble, MaxStabilityFpEstimator
from repro.sketch.pstable import PStableEnsemble, PStableSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams.stream import TurnstileStream
from repro.utils.ensemble import (
    LevelStackEnsemble,
    SamplerEnsemble,
    build_ensemble,
)
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    concat_ensembles,
    ingest_sharded,
    merge_ensembles,
    replica_sharded_ensemble,
    shard_ranges,
    shard_replicas,
    sharded_ensemble_samples,
    stream_sharded_ensemble,
)

N = 24


@pytest.fixture(scope="module")
def stream():
    vector = zipfian_frequency_vector(N, skew=1.2, scale=60.0, seed=41)
    vector[2] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=42)


class TestShardRanges:
    def test_even_and_uneven_splits_cover_exactly_once(self):
        assert shard_ranges(6, 3) == [(0, 2), (2, 4), (4, 6)]
        assert shard_ranges(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert shard_ranges(2, 5) == [(0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]

    def test_invalid_arguments_raise(self):
        with pytest.raises(InvalidParameterError):
            shard_ranges(4, 0)
        with pytest.raises(InvalidParameterError):
            shard_ranges(-1, 2)

    def test_shard_replicas_preserves_order_and_keeps_empty_shards(self):
        groups = shard_replicas(list(range(5)), 3)
        assert groups == [[0, 1], [2, 3], [4]]
        groups = shard_replicas([7], 3)
        assert groups == [[7], [], []]


class TestDegenerateReplicaCounts:
    def test_zero_replica_ensembles_are_refused(self):
        with pytest.raises(InvalidParameterError):
            build_ensemble([])
        with pytest.raises(InvalidParameterError):
            replica_sharded_ensemble([], config=ExecutionConfig(num_shards=2))
        with pytest.raises(InvalidParameterError):
            stream_sharded_ensemble(lambda s: CountSketch(N, 8, 3, seed=s),
                                    [], TurnstileStream(N),
                                    config=ExecutionConfig(num_shards=2))

    def test_empty_seed_list_yields_no_samples(self, stream):
        assert sharded_ensemble_samples(
            lambda s: JW18LpSampler(N, 2.0, seed=s), [], stream,
            config=ExecutionConfig(num_shards=2)) == []

    def test_single_replica_survives_any_shard_count(self, stream):
        solo = JW18LpSampler(N, 2.0, seed=3)
        solo.update_stream(stream)
        expected = solo.sample()
        for num_shards in (1, 4):
            merged = replica_sharded_ensemble(
                [JW18LpSampler(N, 2.0, seed=3)], stream,
                config=ExecutionConfig(num_shards=num_shards))
            assert isinstance(merged, JW18LpSamplerEnsemble)
            assert merged.num_replicas == 1
            drawn = merged.sample_replica(0)
            assert (drawn is None) == (expected is None)
            if expected is not None:
                assert drawn.index == expected.index
                assert drawn.value_estimate == expected.value_estimate

    def test_more_shards_than_replicas_skips_empty_shards(self, stream):
        merged = replica_sharded_ensemble(
            [PStableSketch(N, 1.0, num_rows=12, seed=s) for s in range(3)],
            stream, config=ExecutionConfig(num_shards=9))
        assert isinstance(merged, PStableEnsemble)
        assert merged.num_replicas == 3
        solo = PStableSketch(N, 1.0, num_rows=12, seed=1)
        solo.update_stream(stream)
        np.testing.assert_array_equal(solo._ensemble._state[0], merged._state[1])


class TestEmptyStreams:
    def test_replica_sharded_empty_stream_matches_monolithic(self):
        empty = TurnstileStream(N)
        monolithic = build_ensemble(
            [JW18LpSampler(N, 2.0, seed=s) for s in range(4)])
        monolithic.update_stream(empty)
        merged = replica_sharded_ensemble(
            [JW18LpSampler(N, 2.0, seed=s) for s in range(4)], empty,
            config=ExecutionConfig(num_shards=2))
        for replica in range(4):
            assert monolithic.sample_replica(replica) is None
            assert merged.sample_replica(replica) is None

    def test_stream_sharded_empty_stream_yields_empty_state(self):
        empty = TurnstileStream(N)
        merged = stream_sharded_ensemble(
            lambda s: CountSketch(N, 8, 3, seed=s), range(3), empty,
            config=ExecutionConfig(num_shards=2))
        assert isinstance(merged, CountSketchEnsemble)
        assert not merged._table.any()

    def test_one_shot_iterable_streams_are_materialised_once(self):
        # A lazy iterator handed to the sharded engine must be drained
        # exactly once; every shard replays the materialised copy, so the
        # result still matches the monolithic ingest of the same iterator.
        updates = [(i % N, float(1 + (i % 3) - (i % 2) * 2)) for i in range(36)]
        monolithic = build_ensemble(
            [AMSSketch(N, width=4, depth=2, seed=s) for s in range(4)])
        monolithic.update_stream(iter(updates))
        for execution in ("serial", "multiprocessing"):
            merged = replica_sharded_ensemble(
                [AMSSketch(N, width=4, depth=2, seed=s) for s in range(4)],
                iter(updates),
                config=ExecutionConfig(num_shards=2, execution=execution,
                                       processes=2))
            np.testing.assert_array_equal(monolithic._counters, merged._counters)
            np.testing.assert_array_equal(monolithic._num_updates,
                                          merged._num_updates)

    def test_shard_receiving_zero_updates_is_a_clean_no_op(self, stream):
        # Every coordinate is owned by shard 0, so shards 1 and 2 receive
        # zero updates; the merge must still equal the monolithic ingest.
        assignment = np.zeros(N, dtype=np.int64)
        monolithic = build_ensemble(
            [CountSketch(N, 8, 3, seed=s) for s in range(3)])
        monolithic.update_stream(stream)
        merged = stream_sharded_ensemble(
            lambda s: CountSketch(N, 8, 3, seed=s), range(3), stream,
            assignment=assignment, config=ExecutionConfig(num_shards=3))
        np.testing.assert_array_equal(monolithic._table, merged._table)


class TestConcatValidation:
    def test_countsketch_concat_mismatched_shapes_raise(self, stream):
        narrow = build_ensemble([CountSketch(N, 8, 3, seed=s) for s in range(2)])
        wide = build_ensemble([CountSketch(N, 16, 3, seed=s) for s in range(2)])
        with pytest.raises(InvalidParameterError):
            CountSketchEnsemble.concat([narrow, wide])

    def test_ams_concat_mismatched_shapes_raise(self):
        a = build_ensemble([AMSSketch(N, width=8, depth=3, seed=s) for s in range(2)])
        b = build_ensemble([AMSSketch(N, width=4, depth=3, seed=s) for s in range(2)])
        with pytest.raises(InvalidParameterError):
            AMSEnsemble.concat([a, b])

    def test_pstable_concat_mismatched_rows_raise(self):
        a = build_ensemble([PStableSketch(N, 1.0, num_rows=8, seed=s)
                            for s in range(2)])
        b = build_ensemble([PStableSketch(N, 1.0, num_rows=16, seed=s)
                            for s in range(2)])
        with pytest.raises(InvalidParameterError):
            PStableEnsemble.concat([a, b])

    def test_jw18_concat_mismatched_value_banks_raise(self):
        a = build_ensemble([JW18LpSampler(N, 2.0, seed=s, value_instances=4)
                            for s in range(2)])
        b = build_ensemble([JW18LpSampler(N, 2.0, seed=s, value_instances=2)
                            for s in range(2)])
        with pytest.raises(InvalidParameterError):
            JW18LpSamplerEnsemble.concat([a, b])

    def test_fp_concat_mismatched_repetitions_raise(self):
        a = build_ensemble([MaxStabilityFpEstimator(N, 3.0, repetitions=4,
                                                    seed=s, exact_recovery=True)
                            for s in range(2)])
        b = build_ensemble([MaxStabilityFpEstimator(N, 3.0, repetitions=6,
                                                    seed=s, exact_recovery=True)
                            for s in range(2)])
        with pytest.raises(InvalidParameterError):
            FpEstimatorEnsemble.concat([a, b])

    def test_concat_of_mixed_types_raises(self):
        sketches = build_ensemble([CountSketch(N, 8, 3, seed=0)])
        projections = build_ensemble([PStableSketch(N, 1.0, num_rows=8, seed=0)])
        with pytest.raises(InvalidParameterError):
            concat_ensembles([sketches, projections])

    def test_concat_of_nothing_raises(self):
        with pytest.raises(InvalidParameterError):
            concat_ensembles([])
        with pytest.raises(InvalidParameterError):
            merge_ensembles([])


class TestMergeValidation:
    def test_merge_requires_shared_hash_functions(self):
        mine = build_ensemble([CountSketch(N, 8, 3, seed=s) for s in range(2)])
        theirs = build_ensemble([CountSketch(N, 8, 3, seed=s + 50)
                                 for s in range(2)])
        with pytest.raises(InvalidParameterError):
            mine.merge(theirs)

    def test_merge_requires_shared_replica_seeds(self):
        mine = build_ensemble([JW18LpSampler(N, 2.0, seed=s) for s in range(2)])
        theirs = build_ensemble([JW18LpSampler(N, 2.0, seed=s + 50)
                                 for s in range(2)])
        with pytest.raises(InvalidParameterError):
            mine.merge(theirs)

    def test_merge_requires_matching_types(self):
        sketches = build_ensemble([CountSketch(N, 8, 3, seed=0)])
        projections = build_ensemble([PStableSketch(N, 1.0, num_rows=8, seed=0)])
        with pytest.raises(InvalidParameterError):
            sketches.merge(projections)

    def test_instance_state_ensembles_refuse_stream_merging(self, stream):
        fallback = build_ensemble([CapSampler(N, 9.0, 2.0, seed=s,
                                              num_repetitions=3)
                                   for s in range(2)])
        assert isinstance(fallback, SamplerEnsemble)
        with pytest.raises(InvalidParameterError):
            fallback.merge(fallback)
        # Level stacks DO merge since the fingerprint-union protocol —
        # but only same-seed copies; mismatched level assignments refuse.
        stacks = build_ensemble([PerfectL0Sampler(N, sparsity=6, seed=s)
                                 for s in range(2)])
        assert isinstance(stacks, LevelStackEnsemble)
        other_seeds = build_ensemble([PerfectL0Sampler(N, sparsity=6, seed=s)
                                      for s in (7, 8)])
        with pytest.raises(InvalidParameterError):
            stacks.merge(other_seeds)
        fewer = build_ensemble([PerfectL0Sampler(N, sparsity=6, seed=0)])
        with pytest.raises(InvalidParameterError):
            stacks.merge(fewer)
        with pytest.raises(InvalidParameterError):
            stacks.merge(fallback)


class TestExecutionValidation:
    def test_unknown_execution_mode_raises(self, stream):
        with pytest.raises(InvalidParameterError):
            ingest_sharded([build_ensemble([CountSketch(N, 8, 3, seed=0)])],
                           [stream],
                           config=ExecutionConfig(execution="threads"))
        with pytest.raises(InvalidParameterError):
            sharded_ensemble_samples(
                lambda s: JW18LpSampler(N, 2.0, seed=s), range(2), stream,
                config=ExecutionConfig(num_shards=2, execution="bogus"))
        with pytest.raises(InvalidParameterError):
            evaluate_sampler_distribution(
                lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.5, seed=s),
                stream, np.ones(N), num_draws=2,
                config=ExecutionConfig(execution="bogus"))

    def test_mismatched_shard_and_stream_counts_raise(self, stream):
        ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=0)])]
        with pytest.raises(InvalidParameterError):
            ingest_sharded(ensembles, [stream, stream])

    def test_stream_sharding_needs_shards_or_assignment(self, stream):
        with pytest.raises(InvalidParameterError):
            stream_sharded_ensemble(lambda s: CountSketch(N, 8, 3, seed=s),
                                    range(2), stream)

    def test_out_of_range_assignment_owners_are_refused(self, stream):
        # Owners >= num_shards would silently drop their updates.
        bad = np.arange(N, dtype=np.int64) % 5
        with pytest.raises(InvalidParameterError):
            stream_sharded_ensemble(lambda s: CountSketch(N, 8, 3, seed=s),
                                    range(2), stream,
                                    config=ExecutionConfig(num_shards=3),
                                    assignment=bad)
        with pytest.raises(InvalidParameterError):
            stream_sharded_ensemble(lambda s: CountSketch(N, 8, 3, seed=s),
                                    range(2), stream,
                                    config=ExecutionConfig(num_shards=3),
                                    assignment=bad - 5)
        # Negative owners must be refused even when num_shards is inferred
        # from the assignment itself.
        mixed = bad.copy()
        mixed[0] = -1
        with pytest.raises(InvalidParameterError):
            stream_sharded_ensemble(lambda s: CountSketch(N, 8, 3, seed=s),
                                    range(2), stream, assignment=mixed)

    def test_unpicklable_ensembles_fail_loudly_under_multiprocessing(self, stream):
        # The engine must name the remedy instead of surfacing a raw
        # pickling error from the pool.  (CapSampler used to be the
        # specimen here, until its closure became a bound method and the
        # whole G-sampler family turned picklable — so plant a closure.)
        samplers = [CapSampler(N, 9.0, 2.0, seed=s, num_repetitions=3)
                    for s in range(4)]
        for sampler in samplers:
            sampler._unpicklable_probe = lambda: None
        with pytest.raises(InvalidParameterError, match="picklable"):
            replica_sharded_ensemble(
                samplers,
                stream,
                config=ExecutionConfig(num_shards=2,
                                       execution="multiprocessing",
                                       processes=2))


class TestMergeCopyFirst:
    """The ``copy_first`` knob of :func:`merge_ensembles` (both behaviours)."""

    def _shards(self, stream):
        assignment = shard_assignment(N, 3, seed=9)
        substreams = split_stream(stream, assignment, 3)
        shards = []
        for substream in substreams:
            ensemble = build_ensemble([CountSketch(N, 8, 3, seed=s)
                                       for s in range(2)])
            ensemble.update_stream(substream)
            shards.append(ensemble)
        return shards

    def test_default_merge_mutates_first_shard_in_place(self, stream):
        # The documented zero-copy fast path of the in-process back-ends.
        shards = self._shards(stream)
        before = shards[0]._table.copy()
        merged = merge_ensembles(shards)
        assert merged is shards[0]
        assert not np.array_equal(before, shards[0]._table)

    def test_copy_first_leaves_every_shard_pristine(self, stream):
        shards = self._shards(stream)
        tables = [shard._table.copy() for shard in shards]
        reference = merge_ensembles(self._shards(stream))._table
        merged = merge_ensembles(shards, copy_first=True)
        assert merged is not shards[0]
        for shard, table in zip(shards, tables):
            np.testing.assert_array_equal(shard._table, table)
        np.testing.assert_array_equal(merged._table, reference)

    def test_copy_first_merge_is_repeatable_without_double_counting(self, stream):
        # A re-dispatching caller may re-merge the same retained shard
        # list; with the in-place fold shard 0 would absorb the others
        # twice.
        shards = self._shards(stream)
        reference = merge_ensembles(self._shards(stream))._table
        first = merge_ensembles(shards, copy_first=True)
        second = merge_ensembles(shards, copy_first=True)
        np.testing.assert_array_equal(first._table, reference)
        np.testing.assert_array_equal(second._table, reference)

    def test_copy_first_single_shard_passes_through(self, stream):
        shards = self._shards(stream)[:1]
        assert merge_ensembles(shards, copy_first=True) is shards[0]


class _BareArrayStream:
    """Array-backed stream-shaped object *without* an explicit universe."""

    def __init__(self, indices, deltas):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.deltas = np.asarray(deltas, dtype=float)


class TestUniverseSizeStrictness:
    """Shard payloads must carry the coordinator's explicit universe."""

    def test_stream_without_universe_is_refused(self, stream):
        # Inference from a sub-stream's own indices would let two shards
        # disagree about n; the payload builders refuse instead.
        bare = _BareArrayStream([0, 1, 0], [1.0, -2.0, 3.0])
        ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s)])
                     for s in range(2)]
        with pytest.raises(InvalidParameterError, match="universe"):
            ingest_sharded(ensembles, [bare, bare],
                           config=ExecutionConfig(execution="multiprocessing",
                                                  processes=2))
        with pytest.raises(InvalidParameterError, match="universe"):
            ingest_sharded(ensembles, [bare, bare],
                           config=ExecutionConfig(execution="distributed"))

    def test_substream_missing_tail_coordinate_keeps_full_universe(self, stream):
        # Shard 0 owns only coordinate 0, so its sub-stream never touches
        # the tail of the universe — inferring n there would shrink the
        # shard's sketches and the merge would fail far from the cause.
        # The coordinator's n must reach every sub-stream.
        assignment = (np.arange(N) >= 1).astype(np.int64)
        substreams = split_stream(stream, assignment, 2)
        assert int(substreams[0].indices.max(initial=0)) < N - 1
        for substream in substreams:
            assert substream.n == N

        serial = stream_sharded_ensemble(
            lambda s: CountSketch(N, 8, 3, seed=s), range(2), stream,
            assignment=assignment, config=ExecutionConfig(num_shards=2))
        forked = stream_sharded_ensemble(
            lambda s: CountSketch(N, 8, 3, seed=s), range(2), stream,
            assignment=assignment,
            config=ExecutionConfig(num_shards=2, execution="multiprocessing",
                                   processes=2))
        np.testing.assert_array_equal(serial._table, forked._table)


class TestShardAssignmentOracle:
    def test_assignment_is_deterministic_vectorised_and_in_range(self):
        first = shard_assignment(5000, 7, seed=3)
        second = shard_assignment(5000, 7, seed=3)
        np.testing.assert_array_equal(first, second)
        assert first.dtype == np.int64
        assert first.min() >= 0 and first.max() < 7
        # Roughly balanced: no shard is empty or dominant at this size.
        counts = np.bincount(first, minlength=7)
        assert counts.min() > 0.5 * 5000 / 7
        assert counts.max() < 2.0 * 5000 / 7

    def test_different_seeds_decorrelate_assignments(self):
        first = shard_assignment(2000, 4, seed=1)
        second = shard_assignment(2000, 4, seed=2)
        assert (first != second).mean() > 0.5

    def test_split_stream_respects_the_assignment(self, stream):
        assignment = shard_assignment(N, 3, seed=9)
        shards = split_stream(stream, assignment, 3)
        assert sum(shard.length for shard in shards) == stream.length
        for shard_id, shard in enumerate(shards):
            if shard.length:
                assert np.all(assignment[shard.indices] == shard_id)
