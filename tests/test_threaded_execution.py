"""Threaded in-process execution back-end: bitwise equivalence + payloads.

The ``threaded`` back-end of :mod:`repro.utils.sharding` drives shard
ensembles from a :class:`~concurrent.futures.ThreadPoolExecutor` inside one
process: zero pickling, shared read-only stream arrays, and per-shard
GIL-releasing kernels.  Its contract is the same as every other back-end —
*never change a single bit of any replica's output* — which this suite
enforces under real thread contention (1/2/4 workers, shard counts above
the worker count) for every registered native ensemble and the generic
fallback.

The multiprocessing back-end's pool-initializer handoff is also pinned
here: worker payloads carry only ``(ensemble, stream slot, batch size)``,
so their pickled size must be independent of the stream length (the old
per-payload ``(indices, deltas)`` copies re-pickled the shared stream once
per shard).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N, assert_samples_equal

from repro.sketch.countsketch import CountSketch
from repro.sketch.pstable import PStableSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams.stream import TurnstileStream
from repro.utils import sharding
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    _shard_payloads,
    ingest_sharded,
    replica_sharded_ensemble,
    stream_sharded_ensemble,
)

REPLICAS = 8
THREAD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def stream():
    """A cancellation-heavy turnstile stream over a skewed vector."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=41)
    vector[6] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=42)


def _assert_query_equal(case, left, right, context):
    if case.returns_sample:
        assert_samples_equal(left, right, context)
    else:
        np.testing.assert_array_equal(np.asarray(left), np.asarray(right),
                                      err_msg=context)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_threaded_matches_monolithic_under_contention(case, stream) -> None:
    """1/2/4-thread execution is bit-identical to the monolithic ensemble.

    Shard count (4) deliberately exceeds the smaller worker counts so
    threads pick up several shards each, and the shared stream object is
    read concurrently — the contention pattern of a real parallel ingest.
    """
    monolithic = build_ensemble([case.factory(seed) for seed in range(REPLICAS)])
    monolithic.update_stream(stream)
    reference_states = [case.ensemble_state(monolithic, r) for r in range(REPLICAS)]
    reference_out = [case.ensemble_query(monolithic, r) for r in range(REPLICAS)]

    for threads in THREAD_COUNTS:
        merged = replica_sharded_ensemble(
            [case.factory(seed) for seed in range(REPLICAS)], stream,
            config=ExecutionConfig(num_shards=4, execution="threaded",
                                   processes=threads))
        assert type(merged) is type(monolithic), (case.name, threads)
        assert merged.num_replicas == REPLICAS
        for replica in range(REPLICAS):
            state = case.ensemble_state(merged, replica)
            assert state.keys() == reference_states[replica].keys()
            for key in state:
                np.testing.assert_array_equal(
                    np.asarray(reference_states[replica][key]),
                    np.asarray(state[key]),
                    err_msg=f"{case.name}[threads={threads}][{replica}].{key}")
            _assert_query_equal(
                case, reference_out[replica], case.ensemble_query(merged, replica),
                f"{case.name}[threads={threads}][{replica}]")


def test_threaded_stream_sharding_matches_serial(stream) -> None:
    """Stream sharding under the threaded back-end merges bitwise like serial."""
    for factory in (lambda s: CountSketch(N, 16, 5, seed=s),
                    lambda s: PStableSketch(N, 1.0, num_rows=24, seed=s)):
        serial = stream_sharded_ensemble(
            factory, range(4), stream,
            config=ExecutionConfig(num_shards=3),
            assignment_seed=29)
        threaded = stream_sharded_ensemble(
            factory, range(4), stream,
            config=ExecutionConfig(num_shards=3, execution="threaded",
                                   processes=2),
            assignment_seed=29)
        serial_state = getattr(serial, "_table", None)
        if serial_state is None:
            serial_state, threaded_state = serial._state, threaded._state
        else:
            threaded_state = threaded._table
        np.testing.assert_array_equal(serial_state, threaded_state)


def test_threaded_ingest_returns_the_same_objects(stream) -> None:
    """Threaded ingest mutates the given ensembles in place (no pickling)."""
    ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s)])
                 for s in range(3)]
    returned = ingest_sharded(
        ensembles, [stream] * 3,
        config=ExecutionConfig(execution="threaded", processes=2))
    assert all(left is right for left, right in zip(returned, ensembles))


def test_threaded_default_worker_count_is_affinity_aware(
        monkeypatch, stream) -> None:
    """The default thread count is usable_cpu_count(), not os.cpu_count().

    A cgroup-limited CI runner must not oversubscribe: the pool is sized by
    the scheduler-affinity CPU count exactly like the multiprocessing
    worker default.
    """
    captured = {}
    real_executor = sharding.ThreadPoolExecutor

    class CapturingExecutor(real_executor):
        def __init__(self, max_workers=None, **kwargs):
            captured["max_workers"] = max_workers
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(sharding, "ThreadPoolExecutor", CapturingExecutor)
    monkeypatch.setattr(sharding, "usable_cpu_count", lambda: 3)
    ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s)])
                 for s in range(4)]
    ingest_sharded(ensembles, [stream] * 4,
                   config=ExecutionConfig(execution="threaded"))
    assert captured["max_workers"] == 3


def test_worker_payload_size_independent_of_stream_length() -> None:
    """Multiprocessing payloads must not grow with the stream.

    The pool initializer installs the materialised stream table once per
    worker; each shard payload references a stream *slot*.  A regression to
    per-payload stream arrays would show up as pickled-payload growth.
    """
    rng = np.random.default_rng(3)

    def payloads_for(num_updates: int):
        indices = rng.integers(0, N, size=num_updates)
        deltas = rng.choice(np.asarray([-1.0, 1.0]), size=num_updates)
        stream = TurnstileStream.from_arrays(N, indices, deltas)
        ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s)])
                     for s in range(3)]
        return _shard_payloads(ensembles, [stream] * 3, None)

    table_short, payloads_short = payloads_for(64)
    table_long, payloads_long = payloads_for(64_000)

    # The shared stream dedupes to ONE table entry however many shards
    # reference it, and the long stream lives only in the table.
    assert len(table_short) == len(table_long) == 1
    assert len(payloads_short) == len(payloads_long) == 3
    for short, long in zip(payloads_short, payloads_long):
        assert long[1] == short[1] == 0  # both reference slot 0
        assert len(pickle.dumps(long)) == len(pickle.dumps(short))


def test_worker_payloads_keep_distinct_streams_distinct() -> None:
    """Stream sharding's per-shard sub-streams each get their own slot."""
    rng = np.random.default_rng(5)
    streams = []
    for _ in range(3):
        indices = rng.integers(0, N, size=50)
        deltas = rng.choice(np.asarray([-1.0, 1.0]), size=50)
        streams.append(TurnstileStream.from_arrays(N, indices, deltas))
    ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s)])
                 for s in range(3)]
    table, payloads = _shard_payloads(ensembles, streams, 128)
    assert len(table) == 3
    assert [payload[1] for payload in payloads] == [0, 1, 2]
    assert all(payload[2] == 128 for payload in payloads)
