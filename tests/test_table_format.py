"""The narrow table format: dtype rule, values, and same-bits ingest.

Family evaluations return bucket values in the narrowest signed integer
dtype that holds ``range_size - 1`` and signs as int8 (see the "Table
format" section of :mod:`repro.sketch.hashing`).  These tests pin

* the dtype at each boundary, with values equal to the int64
  :class:`~repro.sketch.hashing.KWiseHash` reference, on every evaluation
  path (whole, chunked, sliced, cached, blocked, point);
* CountSketch and CountMin ingest at ``buckets = 2**15`` (int16, the top
  bucket reachable) and ``2**15 + 1`` (int32), with more than ``2**16``
  flat counter cells, bitwise against the int64-table formula: an index
  built as ``int16_table + python_int`` would wrap and fail here;
* AMS counters bitwise against float64 signs gathered F-ordered and fed
  to the same BLAS product.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countmin import CountMin, CountMinEnsemble
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.sketch.hashing import (KWiseHash, KWiseHashFamily, SignHashFamily,
                                  table_dtype)
from repro.utils.table_cache import TABLE_MODES, cache_clear


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    yield
    cache_clear()


# --------------------------------------------------------------------------
# The dtype rule and the values
# --------------------------------------------------------------------------

BOUNDARIES = [
    (1, np.int8), (128, np.int8), (129, np.int16),
    (2**15, np.int16), (2**15 + 1, np.int32),
    (2**31, np.int32), (2**31 + 1, np.int64),
]


@pytest.mark.parametrize("range_size,dtype", BOUNDARIES,
                         ids=[str(r) for r, _ in BOUNDARIES])
def test_table_dtype_is_the_narrowest_holding_the_range(range_size, dtype) -> None:
    assert table_dtype(range_size) == np.dtype(dtype)
    assert np.iinfo(dtype).max >= range_size - 1


@pytest.mark.parametrize("range_size,dtype", BOUNDARIES,
                         ids=[str(r) for r, _ in BOUNDARIES])
def test_every_evaluation_path_is_narrow_and_equals_kwise_hash(
        range_size, dtype, monkeypatch) -> None:
    hashes = [KWiseHash(2, range_size, seed=seed) for seed in range(4)]
    family = KWiseHashFamily.from_hashes(hashes)
    universe = 40
    keys = np.arange(universe, dtype=np.int64)
    reference = np.stack([h(keys) for h in hashes])
    assert reference.dtype == np.int64
    members = np.asarray([[0, 3], [2, 1]])
    at = np.asarray([[5], [37]])
    blocks = [chunk for _, _, chunk in family.hash_blocks(universe, 16)]
    monkeypatch.setattr(KWiseHashFamily, "_EVAL_CHUNK_CELLS", 8)
    chunked = family.hash_all(keys)
    for name, table, expected in [
            ("hash_table", family.hash_table(universe), reference),
            ("hash_all chunked", chunked, reference),
            ("hash_slice", family.hash_slice(1, 3, keys), reference[1:3]),
            ("hash_blocks", np.concatenate(blocks, axis=1), reference),
            ("hash_at", family.hash_at(members, at), reference[members, at])]:
        assert table.dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(table.astype(np.int64), expected,
                                      err_msg=name)


def test_every_sign_evaluation_is_int8_plus_or_minus_one(monkeypatch) -> None:
    family = SignHashFamily(seeds=[3, 4, 5])
    universe = 50
    keys = np.arange(universe, dtype=np.int64)
    bits = family._family.hash_all(keys)
    reference = np.where(bits == 1, 1, -1)
    members = np.asarray([[0], [2]])
    at = np.asarray([[7], [49]])
    blocks = [chunk for _, _, chunk in family.sign_blocks(universe, 16)]
    monkeypatch.setattr(KWiseHashFamily, "_EVAL_CHUNK_CELLS", 8)
    for name, signs, expected in [
            ("sign_all", family.sign_all(keys), reference),
            ("sign_table", family.sign_table(universe), reference),
            ("sign_slice", family.sign_slice(1, 3, keys), reference[1:3]),
            ("sign_blocks", np.concatenate(blocks, axis=1), reference),
            ("sign_at", family.sign_at(members, at), reference[members, at])]:
        assert signs.dtype == np.int8, name
        np.testing.assert_array_equal(signs, expected, err_msg=name)


# --------------------------------------------------------------------------
# CountSketch / CountMin ingest against the int64-table formula
# --------------------------------------------------------------------------

#: ``(buckets, table dtype)``: the int16 top and the first int32 size.
BUCKET_SIZES = [(2**15, np.int16), (2**15 + 1, np.int32)]
N = 20_000
MEMBERS = 2
ROWS = 3


def _batches(buckets: int, top_keys: np.ndarray):
    """One bincount-path batch (``B >= buckets``) and one ``np.add.at``
    batch, both carrying the keys that hash to the top bucket."""
    rng = np.random.default_rng(buckets)
    large = np.concatenate([top_keys, rng.integers(0, N, size=buckets + 100)])
    small = np.concatenate([top_keys, rng.integers(0, N, size=50)])
    return [(large, rng.standard_normal(large.size) * 5.0),
            (small, rng.standard_normal(small.size) * 5.0)]


def _wide_tables(bucket_family, sign_family, members: int):
    """The int64 bucket table and int64 sign table, ``(members, rows, n)``."""
    keys = np.arange(N, dtype=np.int64)
    shape = (members, ROWS, N)
    buckets = bucket_family.hash_all(keys).astype(np.int64).reshape(shape)
    signs = (None if sign_family is None
             else sign_family.sign_all(keys).astype(np.int64).reshape(shape))
    return buckets, signs


def _reference_scatter(table, buckets, values, bincount: bool) -> None:
    """The int64-table scatter: flat index, then bincount or ``add.at``."""
    members, rows, width = table.shape
    if bincount:
        flat = buckets + (np.arange(rows, dtype=np.int64)[None, :, None] * width
                          + np.arange(members, dtype=np.int64)[:, None, None]
                          * rows * width)
        counts = np.bincount(flat.ravel(), weights=values.ravel(),
                             minlength=table.size)
        table += counts.reshape(table.shape)
    else:
        np.add.at(table, (np.arange(members)[:, None, None],
                          np.arange(rows)[None, :, None], buckets), values)


def _top_keys(buckets_table, buckets: int) -> np.ndarray:
    """Keys whose bucket is ``buckets - 1`` in some member row."""
    keys = np.flatnonzero((buckets_table == buckets - 1).any(axis=(0, 1)))
    assert keys.size, "the top bucket must be reachable"
    return keys


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("buckets,dtype", BUCKET_SIZES,
                         ids=[str(b) for b, _ in BUCKET_SIZES])
def test_countsketch_ensemble_matches_int64_formula(buckets, dtype, mode) -> None:
    ensemble = CountSketchEnsemble(
        [CountSketch(N, buckets, ROWS, seed=s, table_mode=mode)
         for s in range(MEMBERS)])
    assert ensemble._bucket_family.dtype == np.dtype(dtype)
    assert MEMBERS * ROWS * buckets > 2**16
    wide_buckets, wide_signs = _wide_tables(
        ensemble._bucket_family, ensemble._sign_family, MEMBERS)
    reference = np.zeros((MEMBERS, ROWS, buckets))
    for indices, deltas in _batches(buckets, _top_keys(wide_buckets, buckets)):
        ensemble.update_batch(indices, deltas)
        _reference_scatter(reference, wide_buckets[:, :, indices],
                           wide_signs[:, :, indices] * deltas,
                           bincount=indices.size >= buckets)
    np.testing.assert_array_equal(ensemble.member_tables(), reference)
    assert np.count_nonzero(reference[:, :, buckets - 1])


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("buckets,dtype", BUCKET_SIZES,
                         ids=[str(b) for b, _ in BUCKET_SIZES])
def test_countsketch_matches_int64_formula(buckets, dtype, mode) -> None:
    sketch = CountSketch(N, buckets, ROWS, seed=9, table_mode=mode)
    wide_buckets, wide_signs = _wide_tables(
        sketch._ensemble._bucket_family, sketch._ensemble._sign_family, 1)
    reference = np.zeros((1, ROWS, buckets))
    for indices, deltas in _batches(buckets, _top_keys(wide_buckets, buckets)):
        sketch.update_batch(indices, deltas)
        _reference_scatter(reference, wide_buckets[:, :, indices],
                           wide_signs[:, :, indices] * deltas,
                           bincount=indices.size >= buckets)
    np.testing.assert_array_equal(sketch._ensemble._table[0], reference[0])


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("buckets,dtype", BUCKET_SIZES,
                         ids=[str(b) for b, _ in BUCKET_SIZES])
def test_countmin_ensemble_matches_int64_formula(buckets, dtype, mode) -> None:
    ensemble = CountMinEnsemble(
        [CountMin(N, buckets, ROWS, seed=s, table_mode=mode)
         for s in range(MEMBERS)])
    assert ensemble._bucket_family.dtype == np.dtype(dtype)
    wide_buckets, _ = _wide_tables(ensemble._bucket_family, None, MEMBERS)
    reference = np.zeros((MEMBERS, ROWS, buckets))
    for indices, deltas in _batches(buckets, _top_keys(wide_buckets, buckets)):
        ensemble.update_batch(indices, deltas)
        _reference_scatter(reference, wide_buckets[:, :, indices],
                           np.broadcast_to(deltas, (MEMBERS, ROWS, deltas.size)),
                           bincount=False)
    np.testing.assert_array_equal(ensemble._table, reference)
    assert np.count_nonzero(reference[:, :, buckets - 1])


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("buckets,dtype", BUCKET_SIZES,
                         ids=[str(b) for b, _ in BUCKET_SIZES])
def test_countmin_matches_int64_formula(buckets, dtype, mode) -> None:
    sketch = CountMin(N, buckets, ROWS, seed=9, table_mode=mode)
    wide_buckets, _ = _wide_tables(sketch._ensemble._bucket_family, None, 1)
    reference = np.zeros((1, ROWS, buckets))
    for indices, deltas in _batches(buckets, _top_keys(wide_buckets, buckets)):
        sketch.update_batch(indices, deltas)
        _reference_scatter(reference, wide_buckets[:, :, indices],
                           np.broadcast_to(deltas, (1, ROWS, deltas.size)),
                           bincount=False)
    np.testing.assert_array_equal(sketch._ensemble._table[0], reference[0])


def test_countsketch_scalar_update_takes_python_int_deltas() -> None:
    """An int8 sign times a Python int stays int8 under NEP 50; the scalar
    update must still add the full delta."""
    sketch = CountSketch(100, 8, 3, seed=1)
    sketch.update(5, 1000)
    reference = CountSketch(100, 8, 3, seed=1)
    reference.update(5, 1000.0)
    np.testing.assert_array_equal(sketch._ensemble._table[0],
                                  reference._ensemble._table[0])
    assert np.abs(sketch._ensemble._table[0]).max() == 1000.0


# --------------------------------------------------------------------------
# AMS against float64 signs, F-ordered gather, same BLAS product
# --------------------------------------------------------------------------

AMS_N = 3000
AMS_WIDTH, AMS_DEPTH = 16, 5


def _float_signs(family) -> np.ndarray:
    """The float64 sign matrix the kernels used to cache, C-contiguous."""
    return family.sign_all(np.arange(AMS_N, dtype=np.int64)).astype(
        np.int64).astype(float)


def _ams_batches():
    rng = np.random.default_rng(21)
    return [(rng.integers(0, AMS_N, size=size), rng.standard_normal(size) * 3.0)
            for size in (1, 7, 500, 4096)]


@pytest.mark.parametrize("mode", TABLE_MODES)
def test_ams_sketch_matches_float64_gather_and_gemv(mode) -> None:
    sketch = AMSSketch(AMS_N, AMS_WIDTH, AMS_DEPTH, seed=4, table_mode=mode)
    signs = _float_signs(sketch._ensemble._sign_family)
    reference = np.zeros(AMS_WIDTH * AMS_DEPTH)
    for indices, deltas in _ams_batches():
        sketch.update_batch(indices, deltas)
        reference += signs[:, indices] @ deltas
    np.testing.assert_array_equal(sketch._ensemble._counters[0], reference)
    vector = np.random.default_rng(22).standard_normal(AMS_N)
    sketch.update_vector(vector)
    reference += signs @ vector
    np.testing.assert_array_equal(sketch._ensemble._counters[0], reference)


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-member"])
def test_ams_ensemble_matches_float64_gather_and_dot(mode, shared) -> None:
    members = 4
    counters = AMS_WIDTH * AMS_DEPTH
    ensemble = AMSEnsemble([
        AMSSketch(AMS_N, AMS_WIDTH, AMS_DEPTH, seed=s, table_mode=mode)
        for s in range(members)])
    signs = _float_signs(ensemble._sign_family).reshape(members, counters, AMS_N)
    reference = np.zeros((members, counters))
    scratch = np.empty(counters)
    rng = np.random.default_rng(23)
    for indices, deltas in _ams_batches():
        if not shared:
            deltas = rng.standard_normal((members, indices.size))
        ensemble.update_batch(indices, deltas)
        for member in range(members):
            np.dot(signs[member][:, indices],
                   deltas if shared else deltas[member], out=scratch)
            reference[member] += scratch
    np.testing.assert_array_equal(ensemble._counters, reference)
