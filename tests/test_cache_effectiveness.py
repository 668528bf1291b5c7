"""Cache-effectiveness regressions: evaluate-once semantics and payloads.

Before the keyed table cache, ``R`` same-parameter hash families each
evaluated their own ``(rows, n)`` tables — stream-sharded ensemble runs
paid the evaluation once *per shard copy*, retry rounds once per attempt.
This suite pins down the new accounting with the cache hit/miss counters:

* a stream-sharded run with ``S`` same-seed ensemble copies evaluates each
  distinct table exactly once (``misses == distinct tables``, everything
  else hits);
* ``R`` standalone same-parameter sketches share one evaluation;
* multiprocessing shard payload bytes are independent of the *table* size
  (tables are dropped at pickle time and re-derived from the cache), on
  top of the existing stream-length independence.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.sketch.ams import AMSSketch
from repro.sketch.countsketch import CountSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    _shard_payloads,
    replica_sharded_ensemble,
    stream_sharded_ensemble,
)
from repro.utils.table_cache import (
    cache_budget,
    cache_clear,
    cache_stats,
    set_cache_budget,
)

N = 48
SHARDS = 5
REPLICAS = 6


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    previous = cache_budget()
    yield
    set_cache_budget(previous)
    cache_clear()


@pytest.fixture()
def stream():
    vector = zipfian_frequency_vector(N, skew=1.1, scale=60.0, seed=5)
    return turnstile_stream_with_cancellations(vector, churn=1.2, seed=6)


def test_stream_sharded_copies_evaluate_each_table_once(stream) -> None:
    """S same-seed ensemble copies share one evaluation per distinct table.

    Every shard of a stream-sharded run holds a copy of the ensemble built
    from the same seeds, so all copies key into the same cached bucket and
    sign tables: one miss each, ``S - 1`` hits each (pre-cache: ``S``
    evaluations each).
    """
    ensemble = stream_sharded_ensemble(
        lambda seed: CountSketch(N, 16, 5, seed=seed, table_mode="cached"),
        range(REPLICAS), stream,
        config=ExecutionConfig(num_shards=SHARDS, execution="serial"))
    stats = cache_stats()
    # One concatenated bucket-family table + one sign-family table.
    assert stats.misses == 2
    assert stats.hits == 2 * (SHARDS - 1)
    # Queries on the merged ensemble reuse the already-attached tables.
    ensemble.estimate_all_member(0)
    assert cache_stats().misses == 2


def test_replica_sharded_shards_have_disjoint_tables(stream) -> None:
    """Replica sharding splits *distinct* families across shards — every
    shard misses its own tables once and nothing is evaluated twice."""
    instances = [CountSketch(N, 16, 5, seed=s, table_mode="cached")
                 for s in range(REPLICAS)]
    ensemble = replica_sharded_ensemble(
        instances, stream,
        config=ExecutionConfig(num_shards=3, execution="serial"))
    stats = cache_stats()
    assert stats.misses == 2 * 3  # bucket + sign per shard ensemble
    assert stats.hits == 0
    ensemble.estimate_member(0, 1)  # concat keeps the built tables attached
    assert cache_stats().misses == 2 * 3


def test_standalone_same_seed_instances_share_one_evaluation(stream) -> None:
    sketches = [CountSketch(N, 16, 5, seed=7, table_mode="cached")
                for _ in range(REPLICAS)]
    for sketch in sketches:
        sketch.update_stream(stream)
    stats = cache_stats()
    assert stats.misses == 2
    assert stats.hits == 2 * (REPLICAS - 1)
    tables = [sketch._ensemble._bucket_of.base for sketch in sketches]
    assert all(table is tables[0] for table in tables)


def test_rebuilt_sketches_hit_the_cache_after_unpickling(stream) -> None:
    """The retry-round pattern: a pickled copy re-derives its tables from
    the cache instead of re-evaluating (misses stay constant)."""
    original = AMSSketch(N, width=8, depth=3, seed=3, table_mode="cached")
    clone = pickle.loads(pickle.dumps(original))  # counters empty, no tables
    assert clone._ensemble._signs is None
    original.update_stream(stream)
    baseline = cache_stats().misses
    clone.update_stream(stream)
    stats = cache_stats()
    assert stats.misses == baseline  # pure hit: no re-evaluation
    assert stats.hits >= 1
    np.testing.assert_array_equal(original._ensemble._counters[0],
                                  clone._ensemble._counters[0])


def _payload_bytes(universe: int, stream) -> list[int]:
    """Pickled per-shard payload sizes for a sharded run over ``universe``,
    with every ensemble's tables forcibly materialised first."""
    ensembles = [build_ensemble([CountSketch(universe, 8, 3, seed=s,
                                             table_mode="cached")])
                 for s in range(3)]
    for ensemble in ensembles:
        ensemble._ensure_tables()  # (M, rows, universe) int64 — the payload trap
    _, payloads = _shard_payloads(ensembles, [stream] * 3, None)
    return [len(pickle.dumps(payload)) for payload in payloads]


def test_mp_payload_bytes_independent_of_table_size(stream) -> None:
    """Shard payloads carry coefficient matrices (cache keys), never the
    evaluated ``(rows, n)`` tables — so payload bytes must not scale with
    the universe even when the tables are already built."""
    small = _payload_bytes(64, stream)
    large = _payload_bytes(64 * 128, stream)
    table_growth = (64 * 128 - 64) * 3 * 8  # bytes if tables leaked
    for small_bytes, large_bytes in zip(small, large):
        assert abs(large_bytes - small_bytes) < table_growth // 100, (
            small, large)


def test_protocol5_frames_no_larger_than_default_pickle(stream) -> None:
    """The protocol-5 out-of-band framing (what the multiprocessing pool
    and the socket transport now ship) never costs payload bytes over the
    default-protocol pickling it replaced — out-of-band buffers skip the
    in-stream copy, so total frame bytes stay unchanged or smaller."""
    from repro.utils.sharding import _dump_payload

    ensembles = [build_ensemble([CountSketch(N, 8, 3, seed=s,
                                             table_mode="cached")])
                 for s in range(3)]
    for ensemble in ensembles:
        ensemble._ensure_tables()
    _, payloads = _shard_payloads(ensembles, [stream] * 3, None)
    for payload in payloads:
        frames = _dump_payload(payload)
        framed_bytes = sum(len(frame) for frame in frames)
        assert framed_bytes <= len(pickle.dumps(payload)), (
            framed_bytes, len(pickle.dumps(payload)))


def test_eviction_only_costs_reevaluation_in_sharded_runs(stream) -> None:
    """A run under a starved budget (nothing stays resident) produces the
    same ensemble state as an unbounded run — eviction is a pure
    performance event."""
    factory = lambda seed: CountSketch(N, 16, 5, seed=seed, table_mode="cached")
    unbounded = stream_sharded_ensemble(
        factory, range(4), stream,
        config=ExecutionConfig(num_shards=3, execution="serial"))
    cache_clear()
    set_cache_budget(0)  # every lookup misses and bypasses storage
    starved = stream_sharded_ensemble(
        factory, range(4), stream,
        config=ExecutionConfig(num_shards=3, execution="serial"))
    stats = cache_stats()
    assert stats.hits == 0
    assert stats.oversize > 0
    np.testing.assert_array_equal(unbounded.member_tables(),
                                  starved.member_tables())
