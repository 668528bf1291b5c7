"""The query-side kernels equal the numpy calls they replace.

:func:`repro.utils.batching.median_of_rows` selects the median over a
sketch's rows with a min/max network; it must equal ``np.median`` under
``np.testing.assert_array_equal`` (NaN where ``np.median`` gives NaN, zero
signs aside) for every row count, including the counts that fall back to
``np.median``.  The pointwise hash evaluation behind single-cell point
queries must equal the corresponding cells of a full family evaluation.
Every point query refuses a coordinate outside the universe, in both
table modes and both sampler backends, instead of wrapping it or hashing
it, and every ensemble query refuses a member or replica index outside
the ensemble instead of wrapping it to another member.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from repro import (AMSSketch, AveragedCountSketch, CountMin, CountSketch,
                   JW18LpSampler, build_ensemble, make_perfect_lp_sampler,
                   table_mode)
from repro.exceptions import InvalidParameterError
from repro.samplers.precision_sampling import PrecisionLpSampler
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


N = 64
OUTSIDE = [-1, N]
MODES = ["cached", "blocked"]


def _fed(structure):
    rng = np.random.default_rng(9)
    structure.update_batch(rng.integers(0, N, size=200),
                           rng.standard_normal(200))
    return structure


def _refuses(query) -> None:
    with pytest.raises(InvalidParameterError, match="outside universe"):
        query()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", OUTSIDE)
def test_countsketch_point_queries_refuse_keys_outside_the_universe(mode, key):
    with table_mode(mode):
        ensemble = _fed(build_ensemble(
            [CountSketch(N, 16, 5, seed=s) for s in range(3)]))
        averaged = _fed(AveragedCountSketch(N, 16, 5, 4, seed=1))
    _refuses(lambda: ensemble.estimate_member(0, key))
    _refuses(lambda: ensemble.estimate_members_at(slice(None), key))
    _refuses(lambda: ensemble.estimate_at(np.arange(3), [1, key, 2]))
    _refuses(lambda: averaged.estimate(key))
    _refuses(lambda: averaged.instance_estimates(key))
    _refuses(lambda: averaged.grouped_estimates(key, 2))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", OUTSIDE)
@pytest.mark.parametrize("exact", [False, True])
def test_jw18_value_estimates_refuse_keys_outside_the_universe(mode, key, exact):
    with table_mode(mode):
        sampler = _fed(JW18LpSampler(N, 2.0, seed=4, exact_recovery=exact))
        ensemble = _fed(build_ensemble(
            [JW18LpSampler(N, 2.0, seed=s, exact_recovery=exact)
             for s in range(3)]))
    ensemble.sample_replica(0)  # fills the per-state candidate arrays
    _refuses(lambda: sampler.estimate_value(key))
    _refuses(lambda: sampler.independent_value_estimates(key, 2))
    _refuses(lambda: ensemble.estimate_value(0, key))
    _refuses(lambda: ensemble.independent_value_estimates(0, key, 2))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", OUTSIDE)
@pytest.mark.parametrize("backend", ["sketch", "oracle"])
def test_perfect_lp_value_estimate_refuses_keys_outside_the_universe(
        mode, key, backend):
    with table_mode(mode):
        sampler = _fed(make_perfect_lp_sampler(N, 3, seed=2, backend=backend))
    _refuses(lambda: sampler.estimate_value(key))


#: Ensemble size of the member/replica index tests; -1 and M are the
#: first indices outside it on either side.
M = 3


@pytest.fixture(scope="module", params=MODES)
def ensembles(request):
    """One fed 3-member ensemble of each queried substrate, per table mode."""
    with table_mode(request.param):
        return {
            "countsketch": _fed(build_ensemble(
                [CountSketch(N, 16, 5, seed=s) for s in range(M)])),
            "countmin": _fed(build_ensemble(
                [CountMin(N, 16, 5, seed=s) for s in range(M)])),
            "ams": _fed(build_ensemble([AMSSketch(N, seed=s) for s in range(M)])),
            "jw18": _fed(build_ensemble(
                [JW18LpSampler(N, 2.0, seed=s) for s in range(M)])),
            "precision": _fed(build_ensemble(
                [PrecisionLpSampler(N, 1.5, seed=s) for s in range(M)])),
        }


MEMBER_QUERIES = {
    "countsketch.estimate_member":
        lambda e, m: e["countsketch"].estimate_member(m, 5),
    "countsketch.estimate_at":
        lambda e, m: e["countsketch"].estimate_at(np.array([0, m]), 5),
    "countsketch.estimate_all_member":
        lambda e, m: e["countsketch"].estimate_all_member(m),
    "countmin.estimate_member":
        lambda e, m: e["countmin"].estimate_member(m, 5),
    "countmin.estimate_all_member":
        lambda e, m: e["countmin"].estimate_all_member(m),
    "ams.estimate_f2_member": lambda e, m: e["ams"].estimate_f2_member(m),
    "jw18.estimate_value": lambda e, m: e["jw18"].estimate_value(m, 5),
    "jw18.independent_value_estimates":
        lambda e, m: e["jw18"].independent_value_estimates(m, 5, 2),
    "jw18.sample_replica": lambda e, m: e["jw18"].sample_replica(m),
    "precision.sample_replica": lambda e, m: e["precision"].sample_replica(m),
}


@pytest.mark.parametrize("member", [-1, M])
@pytest.mark.parametrize("query", list(MEMBER_QUERIES))
def test_ensemble_queries_refuse_member_indices_outside_the_ensemble(
        ensembles, query, member):
    """-1 must not wrap to the last member, and M must not surface as a
    raw numpy error or a silent FAIL."""
    with pytest.raises(InvalidParameterError,
                       match=rf"(member|replica) index {member} outside "
                             rf"\[0, {M}\)"):
        MEMBER_QUERIES[query](ensembles, member)


def test_ensemble_queries_accept_numpy_integer_indices(ensembles):
    sketch = ensembles["countsketch"]
    assert sketch.estimate_member(np.int64(2), 5) == sketch.estimate_member(2, 5)
    np.testing.assert_array_equal(sketch.estimate_all_member(np.int32(1)),
                                  sketch.estimate_all_member(1))
    assert (ensembles["ams"].estimate_f2_member(np.uint8(2))
            == ensembles["ams"].estimate_f2_member(2))
    with pytest.raises(InvalidParameterError, match="outside"):
        sketch.estimate_member(np.int64(-1), 5)
