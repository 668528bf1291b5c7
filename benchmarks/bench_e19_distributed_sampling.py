"""E19 — distributed sampling across shards (Section 1.3 motivation).

Paper artifact: the distributed-databases motivation — independent local
samplers on disjoint shards combined by a coordinator should reproduce the
global sampling law without accumulating per-shard bias as machines are
added.

Expected shape: the TVD between the coordinator's empirical law and the
global |x_i|^p / F_p target stays at the sampling-noise floor regardless of
the number of shards.
"""

from __future__ import annotations

import numpy as np

from _harness import EXPERIMENT_SEED, print_rows
from repro.applications import DistributedSamplingCoordinator
from repro.samplers import ExactLpSampler
from repro.streams import stream_from_vector, zipfian_frequency_vector
from repro.utils.execution_config import ExecutionConfig
from repro.utils.stats import expected_tvd_noise_floor, total_variation_distance


class _LocalMomentEstimator:
    """Per-shard exact F_p accumulator standing in for Ganguly's estimator."""

    def __init__(self, n: int, p: float):
        self._values = np.zeros(n)
        self._p = p

    def update(self, index: int, delta: float) -> None:
        self._values[index] += delta

    def estimate(self) -> float:
        return float(np.sum(np.abs(self._values) ** self._p))

    def space_counters(self) -> int:
        return len(self._values)


def run_experiment(n: int = 48, p: float = 3.0, draws: int = 2000):
    vector = zipfian_frequency_vector(n, skew=1.3, scale=70.0, seed=EXPERIMENT_SEED)
    stream = stream_from_vector(vector, updates_per_unit=2, seed=EXPERIMENT_SEED + 1)
    target = np.abs(vector) ** p
    target = target / target.sum()

    rows = []
    for num_shards in (1, 4, 8):
        coordinator = DistributedSamplingCoordinator(
            n, num_shards,
            sampler_factory=lambda shard, seed: ExactLpSampler(n, p, seed=seed),
            estimator_factory=lambda shard, seed: _LocalMomentEstimator(n, p),
            seed=EXPERIMENT_SEED + num_shards,
        )
        coordinator.update_stream(stream)
        counts = np.zeros(n)
        for _ in range(draws):
            drawn = coordinator.sample()
            counts[drawn.index] += 1
        empirical = counts / counts.sum()
        rows.append([
            num_shards,
            draws,
            round(total_variation_distance(empirical, target), 4),
            round(expected_tvd_noise_floor(target, draws), 4),
        ])
    return rows


def test_e19_distributed_sampling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_rows(
        "E19: distributed L_p sampling across shards (global law vs shard count)",
        ["shards", "draws", "TVD to global target", "noise floor"],
        rows,
    )
    for _shards, _draws, tvd, floor in rows:
        # Shard-and-merge does not accumulate bias: the global law stays at
        # the sampling-noise floor for every shard count.
        assert tvd <= 2.0 * floor + 0.02


def run_bulk_experiment(n: int = 48, p: float = 3.0, draws: int = 600):
    """E19b: the coordinator's ensemble-backed bulk path.

    ``bulk_samples`` builds ``draws`` *independent* replicas of every
    shard's local sampler (stacked into the registered native ensemble),
    and each unit of replicas ingests its shard's sub-stream once through
    the sharded execution layer and draws where it runs, serving each draw
    from its own replica — one-shot draws, the regime the paper's samplers
    are defined for, instead of re-querying a single long-lived local
    sampler.  Serially each shard is one unit; under the ``threaded``
    back-end (machines working in parallel inside one process, zero
    pickling) a shard's replicas split into units of at most
    ``ceil(draws / processes)``, which must serve draw-for-draw identical
    samples.  Under ``distributed`` the same units go to worker hosts,
    which send back the draws, never the sketches.
    """
    vector = zipfian_frequency_vector(n, skew=1.3, scale=70.0, seed=EXPERIMENT_SEED)
    stream = stream_from_vector(vector, updates_per_unit=2, seed=EXPERIMENT_SEED + 1)
    target = np.abs(vector) ** p
    target = target / target.sum()

    def build_coordinator(num_shards: int) -> DistributedSamplingCoordinator:
        coordinator = DistributedSamplingCoordinator(
            n, num_shards,
            sampler_factory=lambda shard, seed: ExactLpSampler(n, p, seed=seed),
            estimator_factory=lambda shard, seed: _LocalMomentEstimator(n, p),
            seed=EXPERIMENT_SEED + 60 + num_shards,
        )
        coordinator.update_stream(stream)
        return coordinator

    rows = []
    for num_shards in (2, 4):
        samples = build_coordinator(num_shards).bulk_samples(stream, draws)
        # A same-seed coordinator driven through the threaded back-end
        # serves the exact same draw sequence (execution is a pure
        # wall-clock knob at every layer).
        threaded = build_coordinator(num_shards).bulk_samples(
            stream, draws,
            config=ExecutionConfig(execution="threaded", processes=2))
        assert len(threaded) == len(samples)
        for left, right in zip(samples, threaded):
            assert (left is None) == (right is None)
            if left is not None:
                assert (left.index, left.exact_value, left.metadata) == \
                    (right.index, right.exact_value, right.metadata)
        counts = np.zeros(n)
        for drawn in samples:
            if drawn is not None:
                counts[drawn.index] += 1
        successes = int(counts.sum())
        empirical = counts / successes
        rows.append([
            num_shards,
            successes,
            round(total_variation_distance(empirical, target), 4),
            round(expected_tvd_noise_floor(target, successes), 4),
        ])
    return rows


def test_e19b_distributed_bulk_sampling(benchmark):
    rows = benchmark.pedantic(run_bulk_experiment, rounds=1, iterations=1)
    print_rows(
        "E19b: ensemble-backed bulk draws through the coordinator",
        ["shards", "successful draws", "TVD to global target", "noise floor"],
        rows,
    )
    for _shards, successes, tvd, floor in rows:
        # Independent one-shot replicas served per draw: the exact local
        # samplers never fail, and the global law stays at the noise floor.
        assert successes > 0
        assert tvd <= 2.0 * floor + 0.02
