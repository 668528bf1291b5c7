"""Concurrency and fork safety of the keyed table cache.

The cache contract under concurrent use (see
:mod:`repro.utils.table_cache`):

* two threads requesting the same key get the *same* read-only array with
  bit-identical contents — no torn reads, no duplicate builds;
* a forked multiprocessing worker repopulates its own cache state instead
  of trusting the copy-on-write snapshot inherited from the parent;
* :class:`~repro.utils.table_cache.TableKey` survives pickling round-trips
  (keys — not payloads — are what shard payloads carry).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.table_cache import (
    cache_budget,
    cache_clear,
    cache_stats,
    cached_table,
    family_table_key,
    set_cache_budget,
)

UNIVERSE = 300


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    previous = cache_budget()
    yield
    set_cache_budget(previous)
    cache_clear()


def _family(seed: int, members: int = 6) -> KWiseHashFamily:
    return KWiseHashFamily.from_rng(np.random.default_rng(seed), members, 3, 977)


class TestThreadSafety:
    def test_concurrent_same_key_requests_share_one_build(self) -> None:
        family = _family(1)
        reference = family.hash_all(np.arange(UNIVERSE, dtype=np.int64))
        barrier = threading.Barrier(8)

        def fetch(_):
            barrier.wait()  # maximise overlap of the racing lookups
            return family.hash_table(UNIVERSE)

        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(fetch, range(8)))
        first = tables[0]
        assert all(table is first for table in tables)
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, reference)
        stats = cache_stats()
        assert stats.misses == 1
        assert stats.hits == 7

    def test_no_torn_reads_under_eviction_churn(self) -> None:
        """Readers racing against builds that continuously evict each other
        must always observe complete, bit-exact tables."""
        families = [_family(seed) for seed in range(4)]
        references = [f.hash_all(np.arange(UNIVERSE, dtype=np.int64))
                      for f in families]
        set_cache_budget(references[0].nbytes)  # one resident table at a time
        errors: list[str] = []

        def hammer(worker: int) -> None:
            for round_index in range(25):
                pick = (worker + round_index) % len(families)
                table = families[pick].hash_table(UNIVERSE)
                if not np.array_equal(table, references[pick]):
                    errors.append(f"worker {worker} round {round_index}")

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        assert errors == []
        assert cache_stats().evictions > 0

    def test_sign_and_bucket_tables_race_without_mixups(self) -> None:
        bucket = _family(9)
        sign = SignHashFamily.from_rng(np.random.default_rng(9), 6, 4)

        def fetch(which: int):
            if which % 2:
                return "sign", sign.sign_table(UNIVERSE)
            return "bucket", bucket.hash_table(UNIVERSE)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(fetch, range(12)))
        for kind, table in results:
            if kind == "sign":
                assert set(np.unique(table)).issubset({-1, 1})
            else:
                assert table.min() >= 0 and table.max() < 977


def _child_probe(family_coefficients, conn) -> None:
    """Runs in a forked child: report inherited stats, then rebuild."""
    family = KWiseHashFamily.from_coefficients(family_coefficients, 977)
    stats_before = cache_stats()  # fork check must wipe inherited entries
    table = family.hash_table(UNIVERSE)
    stats_after = cache_stats()
    conn.send((stats_before.entries, stats_before.hits, stats_before.misses,
               stats_after.misses, table.tolist(), os.getpid()))
    conn.close()


class TestForkSafety:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only semantics")
    def test_forked_worker_repopulates_instead_of_inheriting(self) -> None:
        family = _family(21)
        parent_table = family.hash_table(UNIVERSE)
        assert cache_stats().entries == 1
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        child = context.Process(target=_child_probe,
                                args=(family.coefficients, child_conn))
        child.start()
        (entries_before, hits_before, misses_before, misses_after,
         child_table, child_pid) = parent_conn.recv()
        child.join(timeout=30)
        assert child_pid != os.getpid()
        # The child saw an empty cache with reset counters ...
        assert (entries_before, hits_before, misses_before) == (0, 0, 0)
        # ... rebuilt the table itself ...
        assert misses_after == 1
        # ... and the rebuild is bit-identical to the parent's table.
        np.testing.assert_array_equal(
            np.asarray(child_table, dtype=np.int64), parent_table)
        # The parent's cache is untouched by the child's activity.
        assert cache_stats().entries == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only semantics")
    def test_two_threads_in_worker_pool_agree_bitwise(self) -> None:
        """The threaded sharding back-end's actual access pattern: same-seed
        ensemble copies on two threads touching the cache concurrently."""
        from repro.sketch.countsketch import CountSketch

        stream_indices = np.arange(UNIVERSE, dtype=np.int64)
        deltas = np.ones(UNIVERSE)

        def ingest(seed: int) -> np.ndarray:
            sketch = CountSketch(UNIVERSE, 16, 5, seed=7, table_mode="cached")
            sketch.update_batch(stream_indices, deltas)
            return sketch._ensemble._table[0]

        with ThreadPoolExecutor(max_workers=2) as pool:
            left, right = list(pool.map(ingest, range(2)))
        np.testing.assert_array_equal(left, right)


class TestKeyPickling:
    def test_table_key_round_trips(self) -> None:
        family = _family(5)
        key = family.table_key(UNIVERSE)
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)
        # Round-tripped keys address the same cache slot.
        table = cached_table(key, lambda: family.hash_all(
            np.arange(UNIVERSE, dtype=np.int64)))
        again = cached_table(clone, lambda: pytest.fail("should be a hit"))
        assert again is table

    def test_key_distinguishes_kind_range_and_universe(self) -> None:
        family = _family(5)
        base = family.table_key(UNIVERSE)
        assert family.table_key(UNIVERSE + 1) != base
        assert family.table_key(UNIVERSE, kind="sign") != base
        other = KWiseHashFamily.from_coefficients(family.coefficients, 978)
        assert other.table_key(UNIVERSE) != base
        twin = KWiseHashFamily.from_coefficients(
            family.coefficients.copy(), 977)
        assert twin.table_key(UNIVERSE) == base

    def test_family_table_key_hashes_coefficient_bytes(self) -> None:
        coefficients = np.arange(12, dtype=np.uint64).reshape(3, 4)
        key = family_table_key("kwise", coefficients, 10, 50)
        assert (key.members, key.k, key.range_size, key.universe) == (3, 4, 10, 50)
        bumped = coefficients.copy()
        bumped[0, 0] += 1
        assert family_table_key("kwise", bumped, 10, 50) != key
