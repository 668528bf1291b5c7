"""Tests for the k-wise independent hash families."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sketch.hashing import (MERSENNE_PRIME, KWiseHash, KWiseHashFamily,
                                  PairwiseHash, SignHash, SignHashFamily, UniformHash)
from repro.utils.batching import polyval_mersenne, polyval_mersenne_at


class TestKWiseHash:
    def test_range(self):
        hasher = KWiseHash(4, 10, seed=0)
        values = hasher(np.arange(1000))
        assert values.min() >= 0
        assert values.max() < 10

    def test_deterministic(self):
        a = KWiseHash(2, 100, seed=1)
        b = KWiseHash(2, 100, seed=1)
        keys = np.arange(50)
        assert np.array_equal(a(keys), b(keys))

    def test_seed_changes_function(self):
        keys = np.arange(200)
        a = KWiseHash(2, 1000, seed=1)(keys)
        b = KWiseHash(2, 1000, seed=2)(keys)
        assert not np.array_equal(a, b)

    def test_scalar_input(self):
        hasher = KWiseHash(3, 7, seed=3)
        value = hasher(5)
        assert isinstance(value, int)
        assert 0 <= value < 7

    def test_scalar_matches_vector(self):
        hasher = KWiseHash(3, 7, seed=3)
        assert hasher(5) == hasher(np.asarray([5]))[0]

    def test_roughly_uniform(self):
        hasher = KWiseHash(2, 4, seed=4)
        values = hasher(np.arange(4000))
        counts = np.bincount(values, minlength=4)
        assert counts.min() > 800

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            KWiseHash(0, 10)
        with pytest.raises(InvalidParameterError):
            KWiseHash(2, 0)

    def test_pairwise_collision_rate(self):
        # Pairwise independence implies collision probability ~ 1/range.
        hasher = PairwiseHash(64, seed=5)
        values = hasher(np.arange(2000))
        collisions = 0
        pairs = 0
        rng = np.random.default_rng(0)
        for _ in range(4000):
            i, j = rng.integers(0, 2000, size=2)
            if i == j:
                continue
            pairs += 1
            collisions += values[i] == values[j]
        rate = collisions / pairs
        assert rate < 3.0 / 64


class TestSignHash:
    def test_values_are_signs(self):
        sign = SignHash(seed=0)
        values = sign(np.arange(500))
        assert set(np.unique(values)).issubset({-1, 1})

    def test_scalar(self):
        sign = SignHash(seed=0)
        assert sign(7) in (-1, 1)

    def test_roughly_balanced(self):
        sign = SignHash(seed=1)
        values = sign(np.arange(4000))
        assert abs(values.mean()) < 0.1

    def test_default_independence_level(self):
        assert SignHash(seed=2).k == 4


class TestUniformHash:
    def test_unit_interval(self):
        uniform = UniformHash(seed=0)
        values = uniform(np.arange(1000))
        assert values.min() >= 0.0
        assert values.max() < 1.0

    def test_deterministic_per_key(self):
        uniform = UniformHash(seed=3)
        assert uniform(42) == uniform(42)

    def test_mean_near_half(self):
        uniform = UniformHash(seed=4)
        values = uniform(np.arange(5000))
        assert abs(values.mean() - 0.5) < 0.05


def _object_dtype_reference(coefficients: np.ndarray, keys, range_size: int):
    """The pre-vectorisation ``KWiseHash.__call__``: exact Python-int Horner.

    Kept verbatim (object-dtype arithmetic, per-step modular reduction) as
    the ground truth the ``uint64``-limb kernel must reproduce bit for bit.
    """
    arr = np.atleast_1d(np.asarray(keys, dtype=np.int64)).astype(object)
    result = np.zeros(arr.shape, dtype=object)
    for coefficient in np.asarray(coefficients, dtype=np.uint64)[::-1]:
        result = (result * arr + int(coefficient)) % MERSENNE_PRIME
    return (result % range_size).astype(np.int64)


class TestVectorizedKernelBitIdentity:
    """The uint64-limb evaluation is bit-identical to the object-dtype path."""

    def test_randomized_configurations(self):
        rng = np.random.default_rng(20250730)
        for _ in range(150):
            k = int(rng.integers(1, 9))
            range_size = int(rng.integers(1, 2**53))
            seed = int(rng.integers(0, 2**63))
            hashed = KWiseHash(k, range_size, seed)
            keys = rng.integers(-2**62, 2**62, size=64)
            np.testing.assert_array_equal(
                hashed(keys),
                _object_dtype_reference(hashed.coefficients, keys, range_size),
                err_msg=f"k={k} range={range_size} seed={seed}",
            )

    def test_uint64_keys_reduce_exactly(self):
        from repro.utils.batching import polyval_mersenne

        hashed = KWiseHash(3, 977, seed=21)
        huge = np.asarray([MERSENNE_PRIME + 5, 2**63 + 11, 2**64 - 1],
                          dtype=np.uint64)
        values = polyval_mersenne(hashed.coefficients, huge)
        expected = polyval_mersenne(
            hashed.coefficients,
            np.asarray([int(key) % MERSENNE_PRIME for key in huge.tolist()],
                       dtype=np.int64))
        np.testing.assert_array_equal(values, expected)

    def test_scalar_and_edge_keys(self):
        hashed = KWiseHash(4, 1000, seed=11)
        for key in (0, 1, -1, 2**62, -(2**62), MERSENNE_PRIME, MERSENNE_PRIME + 1):
            reference = int(_object_dtype_reference(
                hashed.coefficients, key, 1000)[0])
            assert hashed(int(key)) == reference

    def test_family_matches_standalone_members(self):
        seeds = [3, 14, 159, 2653]
        family = KWiseHashFamily(4, 321, seeds)
        keys = np.arange(200)
        stacked = np.stack([KWiseHash(4, 321, s)(keys) for s in seeds])
        np.testing.assert_array_equal(family.hash_all(keys), stacked)

    def test_family_chunked_evaluation_matches_unchunked(self):
        rng = np.random.default_rng(0)
        family = KWiseHashFamily.from_rng(rng, 64, 4, 97)
        keys = np.arange(300)
        whole = family.hash_all(keys)
        old_chunk = KWiseHashFamily._EVAL_CHUNK_CELLS
        try:
            KWiseHashFamily._EVAL_CHUNK_CELLS = 128
            np.testing.assert_array_equal(family.hash_all(keys), whole)
        finally:
            KWiseHashFamily._EVAL_CHUNK_CELLS = old_chunk

    def test_sign_family_matches_sign_hashes(self):
        seeds = [7, 77, 777]
        family = SignHashFamily(seeds)
        keys = np.arange(128)
        stacked = np.stack([SignHash(seed=s)(keys) for s in seeds])
        np.testing.assert_array_equal(family.sign_all(keys), stacked)

    # The Horner kernel takes a two-limb step when every point is below
    # 2^32 and mersenne_mulmod's four-limb step otherwise; both defer the
    # reduction to one fold at the end.  These cases pin the bounds that
    # deferral relies on and the branch between the two steps.

    @pytest.mark.parametrize("k", range(1, 9))
    def test_worst_case_accumulator(self, k):
        coefficients = np.full((1, k), MERSENNE_PRIME - 1, dtype=np.uint64)
        keys = np.asarray([0, 1, 2**32 - 2, 2**32 - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            polyval_mersenne(coefficients, keys)[0].astype(np.int64),
            _object_dtype_reference(coefficients[0], keys, MERSENNE_PRIME))

    @pytest.mark.parametrize("point", [1, 2**32])
    def test_sum_landing_on_the_prime_reduces_to_zero(self, point):
        # (p - x) + 1·x is p before the last subtraction, in either step.
        coefficients = np.asarray([[MERSENNE_PRIME - point, 1]], dtype=np.uint64)
        assert int(polyval_mersenne(coefficients, np.asarray([point]))[0, 0]) == 0

    @pytest.mark.parametrize("edge", [
        [2**32 - 1], [2**32], [MERSENNE_PRIME - 1], [MERSENNE_PRIME],
        [MERSENNE_PRIME + 1], [-1]])
    def test_two_limb_branch_boundary(self, edge):
        rng = np.random.default_rng(17)
        coefficients = rng.integers(0, MERSENNE_PRIME, size=(6, 5)).astype(np.uint64)
        keys = np.concatenate([rng.integers(0, 2**32 - 1, size=40), edge])
        values = polyval_mersenne(coefficients, keys)
        for member in range(6):
            np.testing.assert_array_equal(
                values[member].astype(np.int64),
                _object_dtype_reference(coefficients[member], keys,
                                        MERSENNE_PRIME))

    @pytest.mark.parametrize("high", [2**20, 2**40])
    def test_polyval_at_estimate_at_broadcast(self, high):
        # (M, rows) polynomials against one (M, 1) key per member, the
        # shape CountSketchEnsemble.estimate_at evaluates.
        rng = np.random.default_rng(23)
        coefficients = rng.integers(0, MERSENNE_PRIME, size=(7, 5, 4)).astype(np.uint64)
        keys = rng.integers(0, high, size=(7, 1))
        values = polyval_mersenne_at(coefficients, keys)
        assert values.shape == (7, 5)
        for member in range(7):
            for row in range(5):
                reference = _object_dtype_reference(
                    coefficients[member, row], keys[member], MERSENNE_PRIME)
                assert int(values[member, row]) == int(reference[0])

    @pytest.mark.parametrize("members,keys", [(1, 1000), (9, 77), (40, 3)])
    def test_chunks_straddle_both_axes(self, members, keys, monkeypatch):
        rng = np.random.default_rng(members)
        family = KWiseHashFamily.from_rng(rng, members, 4, 1009)
        points = rng.integers(0, 2**32, size=keys)
        monkeypatch.setattr(KWiseHashFamily, "_EVAL_CHUNK_CELLS", 64)
        table = family.hash_all(points)
        for member in range(members):
            np.testing.assert_array_equal(
                table[member],
                _object_dtype_reference(family.coefficients[member], points, 1009))

    @pytest.mark.parametrize("range_size", [
        1, 2, 3, 128, 129, 2**15, 2**40, 2**53 - 1])
    def test_ranges_mask_and_modulo(self, range_size):
        rng = np.random.default_rng(range_size % 1000)
        family = KWiseHashFamily.from_rng(rng, 5, 3, range_size)
        keys = np.arange(300)
        table = family.hash_all(keys)
        assert table.dtype == family.dtype
        at = family.hash_at(np.arange(5)[:, None], keys[None, :])
        np.testing.assert_array_equal(at, table)
        for member in range(5):
            np.testing.assert_array_equal(
                table[member].astype(np.int64),
                _object_dtype_reference(family.coefficients[member], keys,
                                        range_size))
        hashed = KWiseHash(3, range_size, seed=range_size % 97)
        np.testing.assert_array_equal(
            hashed(keys), _object_dtype_reference(hashed.coefficients, keys,
                                                  range_size))


def _traced_peak(evaluate) -> int:
    """Bytes ``evaluate()`` allocates at its peak, above what was live."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        evaluate()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()


class TestEvaluationMemory:
    """``hash_all`` chunks along members *and* keys, so its ``uint64``
    temporaries stay cache-sized however large the universe is; the peak is
    the narrow output plus a few chunks."""

    def test_one_member_sign_table_over_four_million_keys(self):
        family = SignHashFamily.from_rng(np.random.default_rng(0), 1)
        keys = np.arange(2**22)
        # 4 MiB of int8 output.
        assert _traced_peak(lambda: family.sign_all(keys)) <= 16 * 2**20

    def test_seven_member_bucket_table_over_a_million_keys(self):
        family = KWiseHashFamily.from_rng(np.random.default_rng(0), 7, 2, 4096)
        keys = np.arange(2**20)
        # 14 MiB of int16 output.
        assert _traced_peak(lambda: family.hash_all(keys)) <= 24 * 2**20
