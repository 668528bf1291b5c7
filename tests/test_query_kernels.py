"""The query-side kernels equal the numpy calls they replace.

:func:`repro.utils.batching.median_of_rows` selects the median over a
sketch's rows with a min/max network; it must equal ``np.median`` under
``np.testing.assert_array_equal`` (NaN where ``np.median`` gives NaN, zero
signs aside) for every row count, including the counts that fall back to
``np.median``.  The pointwise hash evaluation behind single-cell point
queries must equal the corresponding cells of a full family evaluation.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.batching import median_of_rows, polyval_mersenne, polyval_mersenne_at

SPECIAL_VALUES = [-np.inf, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, np.nan]


@pytest.mark.parametrize("rows", range(1, 8))
def test_median_of_rows_matches_np_median_on_random_tables(rows) -> None:
    rng = np.random.default_rng(rows)
    tables = rng.standard_normal((9, rows, 31))
    # Repeated values make ties, integers make exact-zero averages.
    tables[:3] = rng.integers(-2, 3, size=(3, rows, 31))
    np.testing.assert_array_equal(median_of_rows(tables, axis=1),
                                  np.median(tables, axis=1))
    np.testing.assert_array_equal(median_of_rows(tables[0], axis=0),
                                  np.median(tables[0], axis=0))
    last = np.ascontiguousarray(np.moveaxis(tables, 1, -1))
    np.testing.assert_array_equal(median_of_rows(last, axis=-1),
                                  np.median(last, axis=-1))


@pytest.mark.parametrize("rows", range(1, 6))
def test_median_of_rows_matches_np_median_on_every_special_tuple(rows) -> None:
    """All 8**rows tuples of infinities, signed zeros, ones and NaN."""
    tuples = np.array(list(itertools.product(SPECIAL_VALUES, repeat=rows)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in means
        for values, axis in ((tuples, 1), (np.ascontiguousarray(tuples.T), 0)):
            np.testing.assert_array_equal(median_of_rows(values, axis=axis),
                                          np.median(values, axis=axis))


def test_median_of_rows_of_five_rows_is_an_input_element() -> None:
    """The network selects; it never averages an odd row count."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((5, 1000))
    median = median_of_rows(values)
    assert np.all(np.any(values == median, axis=0))


def test_polyval_mersenne_at_matches_the_diagonal_of_polyval_mersenne() -> None:
    rng = np.random.default_rng(3)
    coefficients = rng.integers(0, (1 << 61) - 1, size=(12, 4)).astype(np.uint64)
    keys = rng.integers(-2**40, 2**40, size=12)
    full = polyval_mersenne(coefficients, keys)
    np.testing.assert_array_equal(polyval_mersenne_at(coefficients, keys),
                                  np.diagonal(full))


def test_hash_at_and_sign_at_match_full_family_cells() -> None:
    rng = np.random.default_rng(5)
    buckets = KWiseHashFamily.from_rng(rng, 30, 2, 17)
    signs = SignHashFamily.from_rng(rng, 30, 4)
    keys = np.arange(50, dtype=np.int64)
    members = rng.integers(0, 30, size=(8, 5))
    at = rng.integers(0, 50, size=(8, 1))
    np.testing.assert_array_equal(buckets.hash_at(members, at),
                                  buckets.hash_all(keys)[members, at])
    np.testing.assert_array_equal(signs.sign_at(members, at),
                                  signs.sign_all(keys)[members, at])
