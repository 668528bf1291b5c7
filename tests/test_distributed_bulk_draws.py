"""Bulk draws where the replicas run: draws back instead of sketches.

``DistributedSamplingCoordinator.bulk_samples`` and
``sharded_ensemble_samples`` have every unit of replicas ingest its stream
*and draw* where it runs (:func:`repro.utils.sharding.ingest_sharded` with
``draw``), so a worker replies with one-shot samples instead of the
ingested sketch tables.  ``bulk_samples`` splits each shard's draws into
units of at most ``ceil(D / W)`` replicas, ``W`` being the back-end's
width, and the distributed executor hands units out largest first to the
least-loaded worker.  A fresh ensemble pickles its zero tables as shapes.

This suite pins that every one of those paths keeps the serial draws,
bit for bit — under all four back-ends, after a worker dies holding a
unit, and with no worker at all — and that the wire, the unit split and
the pickles are as small as promised.
"""

from __future__ import annotations

import hashlib
import pickle
import socket
import threading

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, REPLICAS, assert_samples_equal
from test_ensemble_equivalence import N as EQUIVALENCE_N

from repro.applications.distributed import DistributedSamplingCoordinator
from repro.evaluation.distribution_tests import evaluate_sampler_distribution
from repro.samplers.jw18_lp_sampler import JW18LpSamplerEnsemble, PerfectL2Sampler
from repro.sketch.fp_estimator import FpEstimator
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.coordinator import (
    INGEST_DELAY_ENV,
    RetryPolicy,
    dispatch_plan,
    last_gather_stats,
    spawn_local_workers,
    stop_local_workers,
    worker_pool,
)
from repro.utils.ensemble import ZeroState, build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    parallel_width,
    sharded_ensemble_samples,
    usable_cpu_count,
)

N = 256
DRAWS = 40
SEED = 1  # shard weights 0.111 / 0.889 on this stream


def l2_shard_sampler(shard: int, seed: int) -> PerfectL2Sampler:
    """Sketch-mode shard sampler (module level, so payloads pickle)."""
    return PerfectL2Sampler(N, seed)


def f2_shard_estimator(shard: int, seed: int) -> FpEstimator:
    return FpEstimator(N, 2.0, seed=seed)


@pytest.fixture(scope="module")
def stream():
    vector = zipfian_frequency_vector(N, seed=11)
    return turnstile_stream_with_cancellations(vector, seed=12)


@pytest.fixture(scope="module")
def equivalence_stream():
    """The stream of ``tests/test_ensemble_equivalence.py``."""
    vector = zipfian_frequency_vector(EQUIVALENCE_N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


@pytest.fixture(scope="module")
def workers():
    """Two real localhost workers, shared across the module."""
    processes, addresses = spawn_local_workers(2)
    yield addresses
    stop_local_workers(processes)


def coordinator(stream, n: int = N, sampler=l2_shard_sampler,
                estimator=f2_shard_estimator) -> DistributedSamplingCoordinator:
    built = DistributedSamplingCoordinator(n, 2, sampler, estimator, seed=SEED)
    built.update_stream(stream, batch_size=64)
    return built


@pytest.fixture(scope="module")
def serial_draws(stream):
    return coordinator(stream).bulk_samples(stream, DRAWS)


def assert_same_draws(got, expected) -> None:
    """Index, value estimate, exact value, weight and metadata per draw."""
    assert len(got) == len(expected)
    for position, (left, right) in enumerate(zip(expected, got)):
        assert_samples_equal(left, right, f"draw {position}")


def unreachable_address():
    """A bound-then-closed port: connection refused at probe time."""
    probe = socket.create_server(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def test_shard_weights_are_skewed(stream, serial_draws) -> None:
    """The scenario the suite is about: one shard serves most draws."""
    weights = coordinator(stream).shard_weights()
    assert weights.max() >= 0.8
    shards = [drawn.metadata["shard"] for drawn in serial_draws
              if drawn is not None]
    assert max(np.bincount(shards, minlength=2)) >= 0.8 * len(shards)


@pytest.mark.parametrize("execution",
                         ["serial", "threaded", "multiprocessing", "distributed"])
def test_bulk_draws_equal_serial_under_every_backend(execution, stream, workers,
                                                     serial_draws) -> None:
    config = ExecutionConfig(execution=execution, processes=2)
    with worker_pool(workers):
        got = coordinator(stream).bulk_samples(stream, DRAWS, config=config)
        stats = last_gather_stats()
    assert_same_draws(got, serial_draws)
    if execution == "distributed":
        # 3/37 draws at units of ceil(40 / 2) = 20: three units, none lost.
        assert stats.shards == 3
        assert stats.reachable_workers == 2
        assert stats.redispatches == stats.degraded_serial_shards == 0


def test_unit_killed_on_its_worker_redispatches_same_draws(stream,
                                                           serial_draws) -> None:
    healthy_procs, healthy_addrs = spawn_local_workers(1)
    # The victim holds every ingest for 30 s, so the kill lands while it
    # holds a unit (after dispatch, before any reply).
    victim_procs, victim_addrs = spawn_local_workers(
        1, env={INGEST_DELAY_ENV: "30"})
    killer = threading.Timer(1.0, victim_procs[0].kill)
    try:
        killer.start()
        with worker_pool(healthy_addrs + victim_addrs) as executor:
            got = coordinator(stream).bulk_samples(
                stream, DRAWS, config=ExecutionConfig(execution="distributed"))
    finally:
        killer.cancel()
        stop_local_workers(healthy_procs + victim_procs)
    stats = executor.last_stats
    assert stats.dead_workers == 1
    assert stats.redispatches >= 1
    assert stats.degraded_serial_shards == 0
    assert_same_draws(got, serial_draws)


def test_no_reachable_worker_draws_in_process(stream, serial_draws) -> None:
    dark = [unreachable_address(), unreachable_address()]
    with worker_pool(dark, retry_policy=RetryPolicy(max_attempts=1)) as executor:
        got = coordinator(stream).bulk_samples(
            stream, DRAWS, config=ExecutionConfig(execution="distributed"))
    stats = executor.last_stats
    assert stats.reachable_workers == 0
    assert stats.degraded_serial_shards == stats.shards == 3
    assert_same_draws(got, serial_draws)


def test_bulk_job_receives_draws_not_tables() -> None:
    """100 draws over n = 1024: the gather carried 16.5 MB of tables."""
    n = 1024

    def sampler(shard, seed):
        return PerfectL2Sampler(n, seed)

    def estimator(shard, seed):
        return FpEstimator(n, 2.0, seed=seed)

    vector = zipfian_frequency_vector(n, seed=21)
    job_stream = turnstile_stream_with_cancellations(vector, seed=22)
    processes, addresses = spawn_local_workers(2)
    try:
        with worker_pool(addresses):
            coordinator(job_stream, n, sampler, estimator).bulk_samples(
                job_stream, 100, config=ExecutionConfig(execution="distributed"))
            stats = last_gather_stats()
    finally:
        stop_local_workers(processes)
    assert stats.degraded_serial_shards == 0
    assert stats.bytes_received < 64 * 1024
    assert stats.wire_bytes_received < 64 * 1024


# ---------------------------------------------------------------------------
# Units and widths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("execution, units", [
    ("serial", [3, 37]),  # width 1: each shard stays one ensemble
    ("threaded", [3, 20, 17]),
])
def test_units_hold_at_most_draws_over_width(execution, units, stream,
                                             serial_draws, monkeypatch) -> None:
    import repro.applications.distributed as distributed

    sizes = []
    ingest = distributed.ingest_sharded

    def recording(ensembles, streams, **kwargs):
        sizes.extend(ensemble.num_replicas for ensemble in ensembles)
        return ingest(ensembles, streams, **kwargs)

    monkeypatch.setattr(distributed, "ingest_sharded", recording)
    got = coordinator(stream).bulk_samples(
        stream, DRAWS, config=ExecutionConfig(execution=execution, processes=2))
    assert sizes == units
    assert_same_draws(got, serial_draws)


@pytest.mark.parametrize("sizes, loads, plan", [
    # The dev-seed shape: 81/19 draws at units of 50 run 50/50.
    ([50, 31, 19], [0, 0], [(0, 0), (1, 1), (2, 1)]),
    # Largest first, ties in unit order; each to the least-loaded link,
    # ties to the first.
    ([1, 5, 2, 4, 3], [0, 0], [(1, 0), (3, 1), (4, 1), (2, 0), (0, 0)]),
    ([3, 3, 3], [0, 0, 0], [(0, 0), (1, 1), (2, 2)]),
    # Links already carrying replicas take the next units last.
    ([2, 2], [7, 0, 1], [(0, 1), (1, 2)]),
    ([], [0, 0], []),
])
def test_dispatch_plan_is_largest_first_to_least_loaded(sizes, loads,
                                                        plan) -> None:
    assert dispatch_plan(sizes, loads) == plan


def test_parallel_width_per_backend() -> None:
    assert parallel_width(None) == 1
    assert parallel_width(ExecutionConfig(processes=4)) == 1
    assert parallel_width(ExecutionConfig(execution="threaded",
                                          processes=3)) == 3
    assert parallel_width(ExecutionConfig(execution="multiprocessing")) == \
        usable_cpu_count()
    assert parallel_width(ExecutionConfig(
        execution="distributed", workers=("127.0.0.1:1", "127.0.0.1:2"))) == 2
    with worker_pool(["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]):
        assert parallel_width(ExecutionConfig(execution="distributed")) == 3
    with worker_pool([]):
        assert parallel_width(ExecutionConfig(execution="distributed")) == 1


def test_distributed_sharded_samples_default_to_worker_count(stream,
                                                             workers) -> None:
    """Three workers get three shards, whatever the local CPU count."""
    processes, extra = spawn_local_workers(1)
    factory = lambda seed: PerfectL2Sampler(N, seed)  # noqa: E731
    try:
        expected = sharded_ensemble_samples(factory, range(9), stream)
        with worker_pool(workers + extra):
            got = sharded_ensemble_samples(
                factory, range(9), stream,
                config=ExecutionConfig(execution="distributed"))
            assert last_gather_stats().shards == 3
            evaluate_sampler_distribution(
                factory, stream, np.abs(stream.frequency_vector()) ** 2,
                num_draws=6, max_attempts_per_draw=1,
                config=ExecutionConfig(execution="distributed"))
            assert last_gather_stats().shards == 3
    finally:
        stop_local_workers(processes)
    assert_same_draws(got, expected)


# ---------------------------------------------------------------------------
# Zero state stays home
# ---------------------------------------------------------------------------


def test_fresh_l2_ensemble_pickles_without_zero_tables() -> None:
    """8.26 MB when the zero tables travelled; then ingests bitwise."""
    fresh = build_ensemble([PerfectL2Sampler(1024, seed) for seed in range(50)])
    assert isinstance(fresh, JW18LpSamplerEnsemble)
    payload = pickle.dumps(fresh, protocol=5)
    assert len(payload) <= 1_500_000
    restored = pickle.loads(payload)
    for name in ("_main", "_value"):
        table = getattr(restored, name)._table
        assert table.shape == getattr(fresh, name)._table.shape
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert table.flags.writeable and not table.any()
    vector = zipfian_frequency_vector(1024, seed=31)
    replay = turnstile_stream_with_cancellations(vector, seed=32)
    fresh.update_stream(replay, batch_size=256)
    restored.update_stream(replay, batch_size=256)
    assert pickle.dumps(restored, protocol=5) == pickle.dumps(fresh, protocol=5)
    for replica in (0, 17, 49):
        assert_samples_equal(restored.sample_replica(replica),
                             fresh.sample_replica(replica), f"replica {replica}")


#: Level-stack ensembles keep their replicas as instances, whose pickles
#: change memo layout after a round trip whatever their state (so they are
#: compared through their own suites); they hold no zero state either.
ROUND_TRIP_CASES = [case for case in CASES
                    if case.name not in ("perfect-l0", "rough-l0")]


@pytest.mark.parametrize("case", ROUND_TRIP_CASES, ids=lambda case: case.name)
def test_fresh_ensemble_round_trip_ingests_bitwise(case,
                                                   equivalence_stream) -> None:
    fresh = build_ensemble([case.factory(seed) for seed in range(3)])
    restored = pickle.loads(pickle.dumps(fresh, protocol=5))
    fresh.update_stream(equivalence_stream)
    restored.update_stream(equivalence_stream)
    assert pickle.dumps(restored, protocol=5) == pickle.dumps(fresh, protocol=5)


def test_zero_state_marker_only_in_fresh_pickles(stream) -> None:
    fresh = build_ensemble([PerfectL2Sampler(N, seed) for seed in range(3)])
    state = fresh._main.__getstate__()
    assert state["_table"] == ZeroState(fresh._main._table.shape,
                                        np.dtype(np.float64))
    assert isinstance(fresh._main._table, np.ndarray)  # the live one stays
    fresh.update_stream(stream)
    assert fresh._main.__getstate__()["_table"] is fresh._main._table


#: ``sha256(pickle.dumps(ensemble, protocol=5))`` of each case's ensemble
#: over seeds ``range(REPLICAS)`` after ingesting the equivalence suite's
#: stream, as computed before fresh ensembles dropped their zero tables:
#: the rule must leave an ingested ensemble's pickle byte for byte as it was.
INGESTED_DIGESTS = {
    "countsketch": "6fd80b98d321d49cc3d694f471e02404e396d1b74ea36f3c6c21d9ef823d7491",
    "countmin": "991117134c16816aa4c78744480156526e02167a15f94942e4a9a8986f24535d",
    "ams": "6af2a768194a7348741f9a120fa5750ddabb882241ad356f8d3ead1a6b6624f3",
    "pstable-cauchy": "3d4a56b2757f80cdaf1db1845c6bd849593a992cbf0db6368fadf26790b84465",
    "pstable-fractional": "4c5cfaecb97908d3091148bc91ace0c6217211f9615e42fc0722f4b5a670e8ef",
    "fp-estimator-oracle": "1266b6a88f136f8a274ea93dcd236ad8b2c44d47ba52e4497979b903cbb1a4eb",
    "fp-estimator-sketch": "ed109069ab4b34a138ccba3341f0b11be7904e9fa7ac4abaecf6828cb18da820",
    "jw18-sketch": "e134ed18026dd2dec5d22c388eedc74e1d05882c5aaae22149e19bbfce8a6c14",
    "jw18-oracle": "dc28894920d0c2f7d92fc47eee3f07b594fede8ec79a1ea819d054cb48409f18",
    "precision": "36f20890f25f89d61755cf025fa1b0a5346a0794a7528e19b483b01defd557a4",
    "perfect-l0": "4fcc8ea9b28b0c0c0c2f05a90ce654c20785c198a82a88eb974613d8232a2463",
    "rough-l0": "0aaea69eadd329ce7ab38d6e54d4813d84d5308fc48ff801ebd5dfbb2adc5958",
    "cap-sampler-fallback": "20fb1827ee0d11e1541f46eef7a2a8a20e05726890ae0a46f0a3d87b7d3ad604",
}


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_ingested_ensemble_pickles_as_before(case, equivalence_stream) -> None:
    ensemble = build_ensemble([case.factory(seed) for seed in range(REPLICAS)])
    ensemble.update_stream(equivalence_stream)
    digest = hashlib.sha256(pickle.dumps(ensemble, protocol=5)).hexdigest()
    assert digest == INGESTED_DIGESTS[case.name]
