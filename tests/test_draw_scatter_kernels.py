"""Bit identity of the per-replica draw and scatter kernels.

Three kernels carry Monte-Carlo replicas at generator speed, and each is
held here to the form it replaced:

* a CountSketch member draws its bucket and sign coefficients with one
  ``rng.integers`` call straight into its ensemble's stacked coefficient
  matrix, whose zero leads are forced once per stack; the reference is
  the two per-family ``from_rng`` draws (bucket family, then sign family);
* every tuple-indexed ``np.add.at`` became :func:`flat_scatter_add`, one
  linearised index; the reference is a per-row ``np.add.at`` over one
  sketch's hash tables, or a per-replica one over the oracle vectors;
* the rejection walk gathers its ``Q`` value estimates in one indexed
  read, which keeps the wrap of the per-group loop it replaced, and the
  Taylor series reads binomial coefficients computed once.

Every comparison is bitwise: coefficients, tables, counters, generator
states and pickle bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.samplers.jw18_lp_sampler import (
    JW18LpSamplerEnsemble,
    draw_jw18_replica,
)
from repro.sketch import countsketch as countsketch_module
from repro.sketch.countmin import CountMinEnsemble
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.sketch.fp_estimator import FpEstimatorEnsemble
from repro.sketch.hashing import (
    MERSENNE_PRIME,
    KWiseHashFamily,
    SignHashFamily,
    _with_nonzero_leads,
)
from repro.utils.batching import flat_scatter_add
from repro.utils.rng import ensure_rng, replica_seed
from repro.utils.taylor import (
    _binomial_coefficients,
    generalized_binomial,
    taylor_power_estimate,
)

N = 97
MODES = ("cached", "private", "blocked")


def _reference_families(seed, rows: int, buckets: int):
    """The two per-family draws a CountSketch made before stacking."""
    rng = ensure_rng(replica_seed(seed))
    return (KWiseHashFamily.from_rng(rng, rows, 2, buckets),
            SignHashFamily.from_rng(rng, rows, 4))


def _seeds(kind: str) -> list:
    if kind == "int":
        return [3, 11, 2**62 + 5]
    if kind == "numpy-int":
        return list(np.asarray([3, 11, 2**62 + 5], dtype=np.int64))
    return [np.random.default_rng(seed) for seed in (3, 11, 2**62 + 5)]


# ---------------------------------------------------------------------------
# Stacked CountSketch draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["int", "numpy-int", "generator"])
@pytest.mark.parametrize("rows", [1, 5])
def test_stacked_draw_equals_two_family_draws(kind, rows) -> None:
    """One ``integers`` call per member gives the coefficient matrices,
    the generator states and the pickle of the two per-family draws."""
    seeds = _seeds(kind)
    reference_seeds = _seeds(kind)
    ensemble = CountSketchEnsemble.from_seeds(N, 13, rows, seeds)
    drawn = [_reference_families(seed, rows, 13) for seed in reference_seeds]
    bucket = KWiseHashFamily.concatenate([b for b, _ in drawn])
    sign = SignHashFamily.concatenate([s for _, s in drawn])
    for got, want in ((ensemble._bucket_family, bucket),
                      (ensemble._sign_family, sign)):
        assert got.coefficients.dtype == want.coefficients.dtype == np.uint64
        assert got.coefficients.flags.c_contiguous
        np.testing.assert_array_equal(got.coefficients, want.coefficients)
        assert pickle.dumps(got) == pickle.dumps(want)
    if kind == "generator":
        for got, want in zip(seeds, reference_seeds):
            assert got.bit_generator.state == want.bit_generator.state
    reference = CountSketchEnsemble.__new__(CountSketchEnsemble)
    reference._setup(N, rows, 13, ensemble.table_mode, ensemble._table_block,
                     bucket, sign)
    assert pickle.dumps(ensemble) == pickle.dumps(reference)


def test_view_leaves_its_generator_where_two_draws_did() -> None:
    """A CountSketch built from a generator consumes it exactly as the two
    per-family draws did, so what the caller draws next is unchanged."""
    rng, reference = np.random.default_rng(8), np.random.default_rng(8)
    sketch = CountSketch(N, 16, 5, seed=rng)
    bucket, sign = _reference_families(reference, 5, 16)
    np.testing.assert_array_equal(sketch._ensemble._bucket_family.coefficients,
                                  bucket.coefficients)
    np.testing.assert_array_equal(sketch._ensemble._sign_family.coefficients,
                                  sign.coefficients)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.integers(0, 2**40) == reference.integers(0, 2**40)


def test_draw_helper_returns_bucket_then_sign_coefficients() -> None:
    """The raw draw is the bucket family's ``(rows, 2)`` then the sign
    family's ``(rows, 4)``, before the leads are forced."""
    raw = countsketch_module.draw_countsketch_hashes(21, 3)
    assert raw.dtype == np.int64 and raw.shape == (18,)
    rng = np.random.default_rng(21)
    bucket = rng.integers(0, MERSENNE_PRIME, size=(3, 2), dtype=np.int64)
    sign = rng.integers(0, MERSENNE_PRIME, size=(3, 4), dtype=np.int64)
    np.testing.assert_array_equal(raw, np.concatenate([bucket.ravel(),
                                                       sign.ravel()]))


def test_lead_helper_forces_only_zero_leads() -> None:
    crafted = np.asarray([[0, 0], [5, 0], [0, 7], [9, 1]], dtype=np.int64)
    forced = _with_nonzero_leads(crafted.copy())
    assert forced.dtype == np.uint64
    np.testing.assert_array_equal(forced, [[0, 1], [5, 1], [0, 7], [9, 1]])
    # A constant polynomial (k = 1) has no lead to force.
    np.testing.assert_array_equal(
        _with_nonzero_leads(np.zeros((3, 1), dtype=np.int64)), np.zeros((3, 1)))
    np.testing.assert_array_equal(
        _with_nonzero_leads(np.asarray([4, 0], dtype=np.int64)), [4, 1])


def test_stacked_draw_forces_every_members_zero_leads(monkeypatch) -> None:
    """``from_seeds`` forces the leads of the whole stack: a draw whose
    every coefficient is zero becomes polynomials with lead 1."""
    monkeypatch.setattr(countsketch_module, "draw_countsketch_hashes",
                        lambda seed, rows: np.zeros(rows * 6, dtype=np.int64))
    ensemble = CountSketchEnsemble.from_seeds(N, 8, 3, [1, 2])
    bucket = ensemble._bucket_family.coefficients
    sign = ensemble._sign_family.coefficients
    assert bucket.shape == (6, 2) and sign.shape == (6, 4)
    np.testing.assert_array_equal(bucket[:, -1], 1)
    np.testing.assert_array_equal(sign[:, -1], 1)
    np.testing.assert_array_equal(bucket[:, :-1], 0)
    np.testing.assert_array_equal(sign[:, :-1], 0)


@pytest.mark.parametrize("seed", [0, 17, np.int64(2**61), "generator"])
def test_jw18_substrate_seeds_equal_three_scalar_draws(seed) -> None:
    if isinstance(seed, str):
        seed, reference = np.random.default_rng(5), np.random.default_rng(5)
    else:
        reference = seed
    rng, exponentials, seeds = draw_jw18_replica(replica_seed(seed), 16, False)
    want = ensure_rng(replica_seed(reference))
    np.testing.assert_array_equal(exponentials, want.exponential(size=16))
    assert seeds == tuple(int(want.integers(0, 2**63 - 1)) for _ in range(3))
    assert all(type(value) is int for value in seeds)
    assert rng.bit_generator.state == want.bit_generator.state


# ---------------------------------------------------------------------------
# The flat scatter
# ---------------------------------------------------------------------------


def _batches(rng, batch: int, count: int = 4):
    """Small batches with repeated coordinates and exact cancellations."""
    batches = []
    for _ in range(count):
        indices = rng.integers(0, N, size=batch)
        deltas = rng.standard_normal(batch) * 10.0 ** rng.integers(-3, 4, batch)
        # The second half undoes part of the first, coordinate by coordinate.
        half = batch // 2
        indices[half:2 * half] = indices[:half]
        deltas[half:2 * half] = -deltas[:half]
        batches.append((indices, deltas))
    return batches


def _hash_tables(ensemble, signed: bool = True):
    keys = np.arange(N, dtype=np.int64)
    shape = (ensemble.num_members, ensemble._rows, N)
    buckets = ensemble._bucket_family.hash_all(keys).reshape(shape)
    signs = (ensemble._sign_family.sign_all(keys).reshape(shape)
             if signed else np.ones(shape, dtype=np.int8))
    return buckets, signs


def _per_row_reference(ensemble, batches, deltas_of, signed=True):
    """One ``np.add.at`` per (member, row) and batch, in batch order."""
    buckets, signs = _hash_tables(ensemble, signed)
    table = np.zeros_like(ensemble._table)
    for indices, deltas in batches:
        member_deltas = deltas_of(deltas)
        for member in range(ensemble.num_members):
            for row in range(ensemble._rows):
                np.add.at(table[member, row], buckets[member, row, indices],
                          signs[member, row, indices] * member_deltas[member])
    return table


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deltas_shape", ["shared", "per-member", "per-group"])
def test_countsketch_small_batches_match_per_row_reference(mode,
                                                           deltas_shape) -> None:
    members, rows, buckets = 6, 5, 40
    rng = np.random.default_rng(31)
    batches = _batches(rng, 24)  # fewer updates than buckets: element-wise
    ensemble = CountSketchEnsemble.from_seeds(N, buckets, rows, range(members),
                                              table_mode=mode)
    if deltas_shape == "shared":
        shape_deltas = lambda deltas: deltas                      # noqa: E731
        deltas_of = lambda deltas: [deltas] * members             # noqa: E731
    elif deltas_shape == "per-member":
        scale = np.arange(1.0, members + 1.0)[:, None]
        shape_deltas = lambda deltas: scale * deltas              # noqa: E731
        deltas_of = shape_deltas
    else:
        scale = np.asarray([[1.0], [-0.5], [3.0]])
        shape_deltas = lambda deltas: scale * deltas              # noqa: E731
        deltas_of = lambda deltas: np.repeat(scale * deltas, 2, axis=0)  # noqa: E731
    for indices, deltas in batches:
        ensemble.update_batch(indices, shape_deltas(deltas))
    want = _per_row_reference(ensemble, batches, deltas_of)
    assert ensemble.member_tables().tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_countmin_small_batches_match_per_row_reference(mode) -> None:
    rng = np.random.default_rng(32)
    batches = _batches(rng, 20)
    ensemble = CountMinEnsemble.from_seeds(N, 32, 4, range(5), table_mode=mode)
    for indices, deltas in batches:
        ensemble.update_batch(indices, deltas)
    want = _per_row_reference(ensemble, batches,
                              lambda deltas: [deltas] * 5, signed=False)
    assert ensemble._table.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_update_vector_matches_per_row_reference(mode) -> None:
    """Two dense vectors into a three-member ensemble and into a view."""
    rng = np.random.default_rng(33)
    vectors = [rng.standard_normal(N), -rng.standard_normal(N)]
    ensemble = CountSketchEnsemble.from_seeds(N, 16, 5, [4, 5, 6],
                                              table_mode=mode,
                                              table_block=10)
    sketch = CountSketch(N, 16, 5, seed=5, table_mode=mode, table_block=10)
    for vector in vectors:
        ensemble.update_vector(vector)
        sketch.update_vector(vector)
    keys = np.arange(N)
    want = _per_row_reference(ensemble, [(keys, vector) for vector in vectors],
                              lambda vector: [vector] * 3)
    assert ensemble.member_tables().tobytes() == want.tobytes()
    assert sketch._ensemble.member_tables().tobytes() == want[1:2].tobytes()


def test_jw18_oracle_ingest_matches_per_replica_reference() -> None:
    ensemble = JW18LpSamplerEnsemble.from_seeds(N, 1.5, range(4),
                                                exact_recovery=True)
    batches = _batches(np.random.default_rng(34), 30)
    want = np.zeros((4, N))
    for indices, deltas in batches:
        ensemble.update_batch(indices, deltas)
        for replica in range(4):
            np.add.at(want[replica], indices,
                      deltas * ensemble._inverse_scale[replica, indices])
    assert ensemble._scaled_vectors.tobytes() == want.tobytes()


def test_fp_oracle_ingest_matches_per_repetition_reference() -> None:
    ensemble = FpEstimatorEnsemble.from_seeds(N, 3.0, range(3), repetitions=7,
                                              exact_recovery=True)
    batches = _batches(np.random.default_rng(35), 30)
    want = np.zeros((3, 7, N))
    for indices, deltas in batches:
        ensemble.update_batch(indices, deltas)
        for replica in range(3):
            for repetition in range(7):
                np.add.at(want[replica, repetition], indices,
                          deltas * ensemble._inverse_scales[replica, repetition,
                                                            indices])
    assert ensemble._scaled_vectors.tobytes() == want.tobytes()


def test_flat_scatter_broadcasts_values_and_keeps_index_order() -> None:
    target = np.zeros((2, 3))
    flat = np.asarray([[0, 5, 0], [4, 0, 5]])
    flat_scatter_add(target, flat, np.asarray([1e16, 1.0, -1e16]))
    reference = np.zeros(6)
    for index, value in zip(flat.ravel(), [1e16, 1.0, -1e16] * 2):
        reference[index] += value
    assert target.ravel().tobytes() == reference.tobytes()


def test_flat_scatter_refuses_a_target_it_would_copy() -> None:
    target = np.zeros((4, 3)).T
    with pytest.raises(InvalidParameterError, match="C-contiguous"):
        flat_scatter_add(target, np.asarray([0, 1]), np.asarray([1.0, 2.0]))
    assert not target.any()


# ---------------------------------------------------------------------------
# The value-estimate gather and the Taylor coefficients
# ---------------------------------------------------------------------------


def _loop_reference(estimates: np.ndarray, count: int,
                    group_size: int) -> np.ndarray:
    """The per-group loop the gather replaced."""
    groups = []
    for group_index in range(count):
        start = (group_index * group_size) % len(estimates)
        chunk = estimates[start:start + group_size]
        if len(chunk) < group_size:
            chunk = np.concatenate([chunk, estimates[: group_size - len(chunk)]])
        groups.append(float(np.mean(chunk)))
    return np.asarray(groups)


@pytest.fixture(scope="module")
def value_bank():
    ensemble = JW18LpSamplerEnsemble.from_seeds(64, 2.0, range(3),
                                                value_instances=8)
    rng = np.random.default_rng(36)
    ensemble.update_batch(rng.integers(0, 64, size=200),
                          rng.standard_normal(200))
    return ensemble


@pytest.mark.parametrize("count,group_size", [
    (1, None), (3, None), (4, None), (8, None), (24, None), (40, None),
    (5, 3), (7, 8), (3, 5), (9, 2)])
def test_value_gather_equals_per_group_loop(value_bank, count,
                                            group_size) -> None:
    for replica, index in ((0, 5), (2, 63)):
        members = value_bank._value.estimate_members_at(
            slice(replica * 8, replica * 8 + 8), index)
        unscale = value_bank._exponentials[replica, index] ** 0.5
        size = group_size if group_size is not None else max(1, 8 // count)
        want = _loop_reference(members, count, size) * unscale
        got = value_bank.independent_value_estimates(replica, index, count,
                                                     group_size)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [24, 40])
def test_value_estimates_wrap_with_the_bank_period(value_bank, count) -> None:
    """Algorithm 2's ``Q`` estimates from an 8-member bank repeat with
    period 8: estimate ``g`` is member ``g mod 8``.  The conformance tests
    in ROADMAP.md are to say whether that wrap moves the law."""
    estimates = value_bank.independent_value_estimates(1, 7, count)
    members = value_bank._value.estimate_members_at(slice(8, 16), 7)
    unscale = value_bank._exponentials[1, 7] ** 0.5
    assert estimates.tobytes() == (members[np.arange(count) % 8]
                                   * unscale).tobytes()
    assert len(np.unique(estimates)) <= 8


def test_value_gather_refuses_groups_larger_than_the_bank(value_bank) -> None:
    with pytest.raises(InvalidParameterError, match="group_size"):
        value_bank.independent_value_estimates(0, 3, 2, group_size=9)
    with pytest.raises(InvalidParameterError, match="group_size"):
        value_bank.independent_value_estimates(0, 3, 2, group_size=0)


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2, -1.5, 3.25, 7.0])
def test_binomial_coefficients_equal_generalized_binomial(exponent) -> None:
    coefficients = _binomial_coefficients(float(exponent), 60)
    assert len(coefficients) == 61
    for q, coefficient in enumerate(coefficients):
        assert coefficient == generalized_binomial(exponent, q)
        assert np.float64(coefficient).tobytes() == np.float64(
            generalized_binomial(exponent, q)).tobytes()


def test_taylor_estimate_equals_the_quadratic_series() -> None:
    rng = np.random.default_rng(37)
    for _ in range(50):
        exponent = float(rng.uniform(-2.0, 4.0))
        terms = int(rng.integers(0, 41))
        estimates = rng.uniform(0.5, 1.5, size=terms)
        pivot = float(rng.uniform(0.8, 1.2))
        total, running = 0.0, 1.0
        for q in range(terms + 1):
            total += (generalized_binomial(exponent, q)
                      * pivot ** (exponent - q) * running)
            if q < terms:
                running *= estimates[q] - pivot
        got = taylor_power_estimate(estimates, pivot, exponent, terms)
        assert np.float64(got).tobytes() == np.float64(total).tobytes()
