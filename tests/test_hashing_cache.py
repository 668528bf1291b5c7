"""Property suite for the keyed table cache and blocked hash evaluation.

Hypothesis draws random ``(members, k, range_size, seed, block, key
order)`` configurations and checks the three invariants the cache module
promises (see :mod:`repro.utils.table_cache`):

* blocked/sliced evaluation is **bitwise** equal to the materialised path
  for any chunking — by key block, by member slice, and at arbitrary key
  permutations;
* cache hits return the same arrays a cold miss produced;
* eviction and :func:`cache_clear` never change results (they only cost a
  re-evaluation of deterministic builders).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.sketch.countsketch import CountSketch
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.table_cache import (
    DEFAULT_TABLE_BLOCK,
    TABLE_MODES,
    cache_budget,
    cache_clear,
    cache_stats,
    default_table_mode,
    resolve_table_block,
    resolve_table_mode,
    set_cache_budget,
    set_default_table_mode,
    table_mode,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty cache and default budget."""
    cache_clear()
    previous = cache_budget()
    yield
    set_cache_budget(previous)
    cache_clear()


FAMILY_CONFIGS = st.tuples(
    st.integers(min_value=1, max_value=12),     # members
    st.integers(min_value=1, max_value=6),      # k
    st.integers(min_value=1, max_value=2**40),  # range_size
    st.integers(min_value=0, max_value=2**31),  # seed
    st.integers(min_value=1, max_value=200),    # universe
    st.integers(min_value=1, max_value=64),     # block
)


def _family(members: int, k: int, range_size: int, seed: int) -> KWiseHashFamily:
    rng = np.random.default_rng(seed)
    return KWiseHashFamily.from_rng(rng, members, k, range_size)


class TestBlockedEvaluationBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(FAMILY_CONFIGS)
    def test_hash_blocks_reassemble_materialised_table(self, config) -> None:
        members, k, range_size, seed, universe, block = config
        family = _family(members, k, range_size, seed)
        whole = family.hash_all(np.arange(universe, dtype=np.int64))
        chunks = []
        covered = 0
        for start, stop, chunk in family.hash_blocks(universe, block):
            assert start == covered and stop - start <= block
            covered = stop
            chunks.append(chunk)
        assert covered == universe
        np.testing.assert_array_equal(np.concatenate(chunks, axis=1), whole)

    @settings(max_examples=60, deadline=None)
    @given(FAMILY_CONFIGS, st.randoms(use_true_random=False))
    def test_hash_slice_matches_sliced_full_evaluation(self, config, rnd) -> None:
        members, k, range_size, seed, universe, _ = config
        family = _family(members, k, range_size, seed)
        keys = list(range(universe))
        rnd.shuffle(keys)
        keys = np.asarray(keys, dtype=np.int64)
        whole = family.hash_all(keys)
        start = rnd.randrange(members)
        stop = rnd.randrange(start + 1, members + 1)
        np.testing.assert_array_equal(
            family.hash_slice(start, stop, keys), whole[start:stop])

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_CONFIGS)
    def test_sign_blocks_and_slices_match_sign_all(self, config) -> None:
        members, k, _, seed, universe, block = config
        rng = np.random.default_rng(seed)
        family = SignHashFamily.from_rng(rng, members, max(k, 2))
        whole = family.sign_all(np.arange(universe, dtype=np.int64))
        chunks = [chunk for _, _, chunk in family.sign_blocks(universe, block)]
        np.testing.assert_array_equal(np.concatenate(chunks, axis=1), whole)
        np.testing.assert_array_equal(
            family.sign_slice(0, members, np.arange(universe, dtype=np.int64)),
            whole)

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_CONFIGS, st.randoms(use_true_random=False))
    def test_gather_from_table_equals_direct_evaluation(self, config, rnd) -> None:
        """The invariant the ``blocked`` consumers rely on: evaluating at a
        key subset (in any order, with repeats) equals gathering those
        columns from the full table."""
        members, k, range_size, seed, universe, _ = config
        family = _family(members, k, range_size, seed)
        table = family.hash_table(universe)
        keys = np.asarray([rnd.randrange(universe)
                           for _ in range(rnd.randrange(1, 64))], dtype=np.int64)
        np.testing.assert_array_equal(family.hash_all(keys), table[:, keys])


class TestCacheSemantics:
    @settings(max_examples=40, deadline=None)
    @given(FAMILY_CONFIGS)
    def test_hits_return_the_cold_miss_arrays(self, config) -> None:
        members, k, range_size, seed, universe, _ = config
        cache_clear()
        family = _family(members, k, range_size, seed)
        twin = KWiseHashFamily.from_coefficients(
            family.coefficients.copy(), range_size)
        cold = family.hash_table(universe)
        warm = twin.hash_table(universe)
        assert warm is cold  # same object: no torn or divergent copies
        assert not cold.flags.writeable
        stats = cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        np.testing.assert_array_equal(
            cold, family.hash_all(np.arange(universe, dtype=np.int64)))

    @settings(max_examples=40, deadline=None)
    @given(FAMILY_CONFIGS)
    def test_clear_and_rebuild_changes_nothing(self, config) -> None:
        members, k, range_size, seed, universe, _ = config
        family = _family(members, k, range_size, seed)
        before = family.hash_table(universe).copy()
        cache_clear()
        assert cache_stats().entries == 0
        np.testing.assert_array_equal(family.hash_table(universe), before)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=2, max_value=6))
    def test_eviction_never_changes_results(self, seed, tables) -> None:
        """An LRU budget that can hold only one table at a time forces an
        eviction on every lookup; every result stays bitwise equal to the
        uncached evaluation."""
        cache_clear()
        universe = 64
        families = [_family(4, 3, 997 + i, seed + i) for i in range(tables)]
        references = [f.hash_all(np.arange(universe, dtype=np.int64))
                      for f in families]
        nbytes = references[0].nbytes
        set_cache_budget(nbytes)  # exactly one resident table
        for _ in range(3):
            for family, reference in zip(families, references):
                np.testing.assert_array_equal(
                    family.hash_table(universe), reference)
        stats = cache_stats()
        assert stats.entries == 1
        assert stats.evictions > 0
        assert stats.current_bytes <= nbytes

    def test_oversize_tables_bypass_storage_but_still_build(self) -> None:
        family = _family(4, 3, 997, seed=11)
        reference = family.hash_all(np.arange(64, dtype=np.int64))
        set_cache_budget(reference.nbytes - 1)
        table = family.hash_table(64)
        np.testing.assert_array_equal(table, reference)
        assert not table.flags.writeable
        stats = cache_stats()
        assert stats.oversize == 1
        assert stats.entries == 0
        # A second request re-builds (no storage) and still agrees.
        np.testing.assert_array_equal(family.hash_table(64), reference)

    def test_distinct_kinds_do_not_collide(self) -> None:
        """Sign tables (int and float kinds) keyed over the same
        coefficients must never alias the bucket-value table."""
        rng = np.random.default_rng(0)
        family = SignHashFamily.from_rng(rng, 3, 4)
        raw = family._family.hash_table(16)       # bucket values in {0, 1}
        signs = family.sign_table(16)             # values in {-1, +1}
        floats = family.sign_table_float(16)
        assert cache_stats().entries == 3
        assert signs.dtype == np.int8 and floats.dtype == np.float64
        np.testing.assert_array_equal(np.where(raw == 1, 1, -1), signs)
        np.testing.assert_array_equal(signs.astype(float), floats)

    def test_cached_countsketch_holds_three_bytes_per_row_and_key(self) -> None:
        """A cached-mode CountSketch with 129..2**15 buckets keeps int16
        buckets and int8 signs: ``rows * n * 3`` bytes of tables."""
        n, buckets, rows = 1000, 300, 5
        before = cache_stats().current_bytes
        sketch = CountSketch(n, buckets, rows, seed=3, table_mode="cached")
        sketch.update_batch(np.arange(10), np.ones(10))
        assert cache_stats().current_bytes - before == rows * n * 3


class TestModeKnobs:
    def test_resolve_validates_modes_and_blocks(self) -> None:
        assert resolve_table_mode(None) == default_table_mode()
        for mode in TABLE_MODES:
            assert resolve_table_mode(mode) == mode
        with pytest.raises(InvalidParameterError):
            resolve_table_mode("mmap")
        assert resolve_table_block(None) == DEFAULT_TABLE_BLOCK
        assert resolve_table_block(7) == 7
        with pytest.raises(InvalidParameterError):
            resolve_table_block(0)

    def test_table_mode_context_manager_scopes_the_default(self) -> None:
        baseline = default_table_mode()
        with table_mode("blocked"):
            assert default_table_mode() == "blocked"
            with table_mode("private"):
                assert default_table_mode() == "private"
            assert default_table_mode() == "blocked"
        assert default_table_mode() == baseline
        with pytest.raises(InvalidParameterError):
            set_default_table_mode("everything-at-once")

    def test_negative_budget_rejected_and_previous_kept(self) -> None:
        previous = cache_budget()
        with pytest.raises(InvalidParameterError):
            set_cache_budget(-1)
        assert cache_budget() == previous
