"""Property-style edge cases of the batch-update engine.

Shared registry (``CASES`` from :mod:`test_batch_equivalence`) driven
through the corner cases the batch API contracts promise:

* an empty batch is a no-op on every structure;
* a single-element batch is state-identical to one scalar ``update``;
* mismatched ``indices``/``deltas`` lengths raise
  :class:`~repro.exceptions.InvalidParameterError` everywhere;
* out-of-range indices are rejected with exactly the same exception type
  the scalar path raises (``InvalidParameterError`` for sketches,
  ``StreamError`` for the insertion-only reservoir family).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ReproError
from repro.streams.stream import FrequencyVector, TurnstileStream
from repro.streams.updates import StreamKind
from repro.utils.batching import coerce_batch, iter_batches, stream_arrays

from test_batch_equivalence import CASE_IDS, CASES, SEED, assert_snapshots_equal, snapshot


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_empty_batch_is_a_noop(case) -> None:
    fresh = case.factory(SEED)
    touched = case.factory(SEED)
    touched.update_batch([], [])
    touched.update_batch(np.asarray([], dtype=np.int64), np.asarray([], dtype=float))
    assert_snapshots_equal(snapshot(fresh), snapshot(touched), case.name)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_single_element_batch_matches_scalar_update(case) -> None:
    scalar = case.factory(SEED)
    batched = case.factory(SEED)
    scalar.update(2, 3.0)
    batched.update_batch([2], [3.0])
    assert_snapshots_equal(snapshot(scalar), snapshot(batched), case.name)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_mismatched_lengths_raise_invalid_parameter(case) -> None:
    structure = case.factory(SEED)
    with pytest.raises(InvalidParameterError):
        structure.update_batch([1, 2, 3], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        structure.update_batch([1], [])
    with pytest.raises(InvalidParameterError):
        # 2-D input is not a batch.
        structure.update_batch([[1, 2]], [[1.0, 2.0]])


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_out_of_range_indices_match_scalar_rejection(case) -> None:
    """The batch path rejects bad indices with the scalar path's exception type."""
    bad_indices = [-1] if case.universe is None else [-1, case.universe]
    for bad in bad_indices:
        probe = case.factory(SEED)
        with pytest.raises(ReproError) as scalar_error:
            probe.update(bad, 1.0)
        structure = case.factory(SEED)
        with pytest.raises(scalar_error.type):
            structure.update_batch([1, bad], [1.0, 1.0])


def test_nan_delta_in_large_batch_errors_like_scalar_replay() -> None:
    """A NaN delta must raise on the vectorized fingerprint path, not corrupt it."""
    from repro.sketch.sparse_recovery import KSparseRecovery

    scalar = KSparseRecovery(8, 2, rows=3, seed=1)
    with pytest.raises(ValueError):
        scalar.update(3, float("nan"))
    batched = KSparseRecovery(8, 2, rows=3, seed=1)
    deltas = np.ones(40)
    deltas[7] = np.nan
    with pytest.raises(ValueError):
        batched.update_batch(np.arange(40) % 8, deltas)


def test_batches_iterator_validates_size() -> None:
    stream = TurnstileStream(8, [(1, 1.0), (2, -1.0)])
    with pytest.raises(InvalidParameterError):
        list(stream.batches(0))
    with pytest.raises(InvalidParameterError):
        list(stream.batches(-3))


def test_iter_batches_validates_size() -> None:
    indices, deltas = coerce_batch([1, 2, 3], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        list(iter_batches(indices, deltas, 0))
    chunks = list(iter_batches(indices, deltas, 2))
    assert [len(i) for i, _ in chunks] == [2, 1]


def test_replay_stream_consumes_generators_lazily_in_chunks() -> None:
    """Plain iterables are chunked as they stream, not materialised whole."""
    from repro.utils.batching import replay_stream

    received: list[int] = []

    class Spy:
        def update_batch(self, indices, deltas):
            assert len(indices) == len(deltas)
            received.append(len(indices))

    replay_stream(Spy(), ((i % 4, 1.0) for i in range(25)), batch_size=10)
    assert received == [10, 10, 5]


def test_lazy_replay_rejects_fractional_indices_like_array_path() -> None:
    """A float-typed index column errors on every ingest path, never truncates."""
    with pytest.raises(InvalidParameterError):
        FrequencyVector(8).update_stream([(2.7, 1.0)])
    with pytest.raises(InvalidParameterError):
        FrequencyVector(8).update_stream(((i + 0.5, 1.0) for i in range(3)))
    with pytest.raises(InvalidParameterError):
        stream_arrays([(2.7, 1.0)])


def test_stream_arrays_handles_streams_updates_and_pairs() -> None:
    stream = TurnstileStream(8, [(1, 1.0), (2, -1.0), (1, 0.5)])
    from_stream = stream_arrays(stream)
    from_updates = stream_arrays(list(stream))
    from_pairs = stream_arrays([(1, 1.0), (2, -1.0), (1, 0.5)])
    from_generator = stream_arrays((i, d) for i, d in [(1, 1.0), (2, -1.0), (1, 0.5)])
    for indices, deltas in (from_stream, from_updates, from_pairs, from_generator):
        np.testing.assert_array_equal(indices, [1, 2, 1])
        np.testing.assert_allclose(deltas, [1.0, -1.0, 0.5])
    empty_indices, empty_deltas = stream_arrays([])
    assert empty_indices.size == 0 and empty_deltas.size == 0


def test_frequency_vector_strict_turnstile_batch_still_validates_prefixes() -> None:
    """STRICT_TURNSTILE batches replay scalar so prefix dips are still caught."""
    vector = FrequencyVector(4, kind=StreamKind.STRICT_TURNSTILE)
    # Fine: the prefix never dips negative even though it touches zero.
    vector.update_batch([0, 0, 0], [2.0, -2.0, 1.0])
    assert vector[0] == 1.0
    from repro.exceptions import StreamError

    dipping = FrequencyVector(4, kind=StreamKind.STRICT_TURNSTILE)
    with pytest.raises(StreamError):
        # The final vector would be non-negative, but the prefix dips below
        # zero — a post-batch check could not see this.
        dipping.update_batch([1, 1], [-1.0, 2.0])


def test_frequency_vector_insertion_only_batch_rejects_negative_deltas() -> None:
    from repro.exceptions import StreamError

    vector = FrequencyVector(4, kind=StreamKind.INSERTION_ONLY)
    with pytest.raises(StreamError):
        vector.update_batch([0, 1], [1.0, -1.0])


def test_fractional_or_nonfinite_indices_are_rejected_not_truncated() -> None:
    """Swapped indices/deltas arguments must error, not corrupt the sketch."""
    with pytest.raises(InvalidParameterError):
        coerce_batch([1.5, 2.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        coerce_batch(np.asarray([np.nan]), [1.0])
    with pytest.raises(InvalidParameterError):
        coerce_batch(np.asarray([np.inf]), [1.0])
    # Integer-valued floats are fine (e.g. arrays that round-tripped
    # through a float pipeline).
    indices, _ = coerce_batch(np.asarray([1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_array_equal(indices, [1, 2])
    # Out-of-int64-range indices raise the library error, not OverflowError.
    with pytest.raises(InvalidParameterError):
        coerce_batch([2**70], [1.0])


def _countsketch_ensemble():
    from repro.sketch.countsketch import CountSketch, CountSketchEnsemble

    ensemble = CountSketchEnsemble([CountSketch(10, 4, 3, seed=s)
                                    for s in range(2)])
    return ensemble, lambda: ensemble.member_tables().copy()


def _ams_ensemble():
    from repro.sketch.ams import AMSEnsemble, AMSSketch

    ensemble = AMSEnsemble([AMSSketch(10, 4, 3, seed=s) for s in range(2)])
    return ensemble, lambda: ensemble._counters.copy()


@pytest.mark.parametrize("bad_index", [3.7, np.nan, np.inf],
                         ids=["fractional", "nan", "inf"])
@pytest.mark.parametrize("build", [_countsketch_ensemble, _ams_ensemble],
                         ids=["countsketch-ensemble", "ams-ensemble"])
def test_ensembles_refuse_fractional_indices(build, bad_index) -> None:
    """The native ensembles validate indices like the standalone sketches:
    ``[3.7]`` must raise, not land on coordinate 3."""
    ensemble, state = build()
    before = state()
    with pytest.raises(InvalidParameterError, match="integer-valued"):
        ensemble.update_batch(np.asarray([bad_index]), np.asarray([1.0]))
    np.testing.assert_array_equal(state(), before)
    # An integer-valued float index is still the coordinate it names.
    ensemble.update_batch(np.asarray([3.0]), np.asarray([1.0]))
    reference, reference_state = build()
    reference.update_batch(np.asarray([3]), np.asarray([1.0]))
    np.testing.assert_array_equal(state(), reference_state())


def test_batch_coercion_accepts_lists_tuples_and_mixed_dtypes() -> None:
    indices, deltas = coerce_batch((np.int32(1), 2), [np.float32(1.5), 2])
    assert indices.dtype == np.int64 and deltas.dtype == np.float64
    np.testing.assert_array_equal(indices, [1, 2])
    np.testing.assert_allclose(deltas, [1.5, 2.0])
