"""Stream-sharded merge of the level-stack (``L_0``/distinct) substrate.

:class:`~repro.sketch.sparse_recovery.KSparseRecovery` state is linear —
every cell holds three linear aggregates and the fingerprints live in the
Mersenne-prime field — but it is organised as per-level grids of cells
rather than one stacked array, so stream sharding needs the dedicated
entrywise ``merge`` added by this PR (:meth:`KSparseRecovery.merge`,
:meth:`PerfectL0Sampler.merge`, :meth:`RoughL0Estimator.merge`, and
:meth:`~repro.utils.ensemble.LevelStackEnsemble.merge`).

The suite pins the fold-left contract of the sharding module docstring on
integer-delta streams (the regime of every ``L_0`` workload, where float
sums of integers are exact and fingerprint arithmetic is exact in any
order): merged shard copies are *bitwise* equal — cell weights, cell and
global fingerprints, samples — to a monolithic structure that ingested the
per-shard sub-streams sequentially, and to one that ingested the original
interleaved stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.distributed import shard_assignment, split_stream
from repro.exceptions import InvalidParameterError
from repro.samplers.l0_sampler import PerfectL0Sampler
from repro.sketch.distinct import RoughL0Estimator
from repro.sketch.sparse_recovery import KSparseRecovery
from repro.streams.stream import TurnstileStream
from repro.utils.ensemble import LevelStackEnsemble, build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import merge_ensembles, stream_sharded_ensemble

N = 48
REPLICAS = 4


@pytest.fixture(scope="module")
def integer_stream():
    """A cancellation-heavy integer-delta turnstile stream."""
    rng = np.random.default_rng(7)
    length = 300
    indices = rng.integers(0, N, size=length)
    deltas = rng.integers(-5, 6, size=length).astype(float)
    return TurnstileStream.from_arrays(N, indices, deltas)


def assert_level_stacks_equal(left, right, context: str) -> None:
    """Bitwise comparison of two level-stack instances' full state."""
    assert left._num_updates == right._num_updates, context
    assert len(left._levels) == len(right._levels), context
    for depth, (mine, theirs) in enumerate(zip(left._levels, right._levels)):
        assert mine._global_fingerprint._value == \
            theirs._global_fingerprint._value, f"{context}[level={depth}]"
        for row, (row_mine, row_theirs) in enumerate(zip(mine._cells,
                                                         theirs._cells)):
            for bucket, (cell, other) in enumerate(zip(row_mine, row_theirs)):
                where = f"{context}[level={depth}][{row},{bucket}]"
                assert cell._weight == other._weight, where
                assert cell._weighted_index == other._weighted_index, where
                assert cell._fingerprint._value == other._fingerprint._value, where
                assert cell._num_updates == other._num_updates, where


CASES = [
    ("perfect-l0", lambda s: PerfectL0Sampler(N, sparsity=8, seed=s)),
    ("rough-l0", lambda s: RoughL0Estimator(N, sparsity=8, seed=s)),
]


@pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
def test_stream_sharded_level_stacks_match_monolithic(
        name, factory, integer_stream) -> None:
    """Merged shard copies equal the shard-sequential monolithic run bitwise."""
    for num_shards in (1, 2, 3):
        assignment = shard_assignment(N, num_shards, seed=17)
        substreams = split_stream(integer_stream, assignment, num_shards)

        monolithic = build_ensemble([factory(seed) for seed in range(REPLICAS)])
        assert isinstance(monolithic, LevelStackEnsemble)
        for substream in substreams:
            monolithic.update_stream(substream)

        merged = stream_sharded_ensemble(
            factory, range(REPLICAS), integer_stream,
            assignment=assignment,
            config=ExecutionConfig(num_shards=num_shards))
        assert type(merged) is LevelStackEnsemble
        for replica in range(REPLICAS):
            context = f"{name}[shards={num_shards}][{replica}]"
            assert_level_stacks_equal(monolithic.replicas[replica],
                                      merged.replicas[replica], context)


@pytest.mark.parametrize("name,factory", CASES, ids=[c[0] for c in CASES])
def test_stream_sharded_level_stacks_match_interleaved_order(
        name, factory, integer_stream) -> None:
    """Integer streams: the merge is exact against the original order too."""
    assignment = shard_assignment(N, 3, seed=23)
    monolithic = build_ensemble([factory(seed) for seed in range(REPLICAS)])
    monolithic.update_stream(integer_stream)
    merged = stream_sharded_ensemble(
        factory, range(REPLICAS), integer_stream,
        assignment=assignment, config=ExecutionConfig(num_shards=3))
    for replica in range(REPLICAS):
        assert_level_stacks_equal(monolithic.replicas[replica],
                                  merged.replicas[replica], f"{name}[{replica}]")


def test_merged_sampler_queries_match_monolithic(integer_stream) -> None:
    """Post-merge queries reproduce the monolithic draws and estimates."""
    assignment = shard_assignment(N, 3, seed=31)

    sampler_mono = PerfectL0Sampler(N, sparsity=8, seed=5)
    sampler_mono.update_stream(integer_stream)
    shard_copies = []
    for substream in split_stream(integer_stream, assignment, 3):
        copy = PerfectL0Sampler(N, sparsity=8, seed=5)
        copy.update_stream(substream)
        shard_copies.append(copy)
    merged = shard_copies[0]
    for copy in shard_copies[1:]:
        merged = merged.merge(copy)
    mono_sample = sampler_mono.sample()
    merged_sample = merged.sample()
    assert mono_sample is not None and merged_sample is not None
    assert mono_sample.index == merged_sample.index
    assert mono_sample.exact_value == merged_sample.exact_value

    estimator_mono = RoughL0Estimator(N, sparsity=8, seed=6)
    estimator_mono.update_stream(integer_stream)
    estimator_shards = []
    for substream in split_stream(integer_stream, assignment, 3):
        copy = RoughL0Estimator(N, sparsity=8, seed=6)
        copy.update_stream(substream)
        estimator_shards.append(copy)
    merged_estimator = estimator_shards[0]
    for copy in estimator_shards[1:]:
        merged_estimator.merge(copy)
    assert estimator_mono.estimate() == merged_estimator.estimate()


def test_merge_fold_order_is_exact_on_integer_streams(integer_stream) -> None:
    """Any fold order of the shard ensembles gives the same state."""
    factory = lambda s: PerfectL0Sampler(N, sparsity=8, seed=s)  # noqa: E731
    assignment = shard_assignment(N, 3, seed=37)
    substreams = split_stream(integer_stream, assignment, 3)

    def shard_ensembles():
        ensembles = []
        for substream in substreams:
            ensemble = build_ensemble([factory(seed) for seed in range(3)])
            ensemble.update_stream(substream)
            ensembles.append(ensemble)
        return ensembles

    forward = merge_ensembles(shard_ensembles())
    backward = merge_ensembles(list(reversed(shard_ensembles())))
    for replica in range(3):
        assert_level_stacks_equal(forward.replicas[replica],
                                  backward.replicas[replica],
                                  f"fold-order[{replica}]")


def test_ksparse_recovery_merge_recovers_union(integer_stream) -> None:
    """Direct KSparseRecovery merge: shard halves decode the union vector."""
    vector = np.zeros(N)
    vector[[2, 11, 29, 40]] = [3.0, -2.0, 7.0, 1.0]
    updates = [(2, 3.0), (11, -2.0), (29, 7.0), (40, 1.0)]

    whole = KSparseRecovery(N, k=6, seed=13)
    first = KSparseRecovery(N, k=6, seed=13)
    second = KSparseRecovery(N, k=6, seed=13)
    for index, delta in updates:
        whole.update(index, delta)
        (first if index < 20 else second).update(index, delta)
    merged = first.merge(second)
    assert merged is first
    recovered = merged.recover()
    assert recovered is not None
    assert {(item.index, item.value) for item in recovered} == \
        {(index, delta) for index, delta in updates}
    reference = whole.recover()
    assert reference is not None
    assert [(item.index, item.value) for item in recovered] == \
        [(item.index, item.value) for item in reference]


def test_merge_validation_refuses_mismatches() -> None:
    """Merging requires same seed/configuration at every layer."""
    base = KSparseRecovery(N, k=4, seed=1)
    with pytest.raises(InvalidParameterError):
        base.merge(KSparseRecovery(N, k=4, seed=2))  # different hashes
    with pytest.raises(InvalidParameterError):
        base.merge(KSparseRecovery(N, k=5, seed=1))  # different sparsity
    with pytest.raises(InvalidParameterError):
        base.merge(KSparseRecovery(N // 2, k=4, seed=1))  # different universe
    with pytest.raises(InvalidParameterError):
        base.merge(object())  # not a recovery structure

    sampler = PerfectL0Sampler(N, sparsity=4, seed=3)
    with pytest.raises(InvalidParameterError):
        sampler.merge(PerfectL0Sampler(N, sparsity=4, seed=4))
    with pytest.raises(InvalidParameterError):
        sampler.merge(RoughL0Estimator(N, sparsity=4, seed=3))

    estimator = RoughL0Estimator(N, sparsity=4, seed=5)
    with pytest.raises(InvalidParameterError):
        estimator.merge(RoughL0Estimator(N, sparsity=4, seed=6))
    with pytest.raises(InvalidParameterError):
        estimator.merge(sampler)
