"""Batch-update engine shared by every sketch and sampler.

Every structure in the library is driven by turnstile updates.  The scalar
entry point ``update(index, delta)`` is convenient but runs one interpreter
round-trip per update, which dominates the cost of the (tiny) numpy work the
linear substrates actually do.  This module provides the machinery that lets
the whole library ingest updates in *batches*:

``coerce_batch(indices, deltas)``
    Validate and normalise a batch into parallel ``int64`` / ``float64``
    arrays, raising :class:`~repro.exceptions.InvalidParameterError` on
    mismatched lengths or non-1-D input.
``stream_arrays(stream)``
    Extract ``(indices, deltas)`` arrays from a
    :class:`~repro.streams.stream.TurnstileStream` (zero-copy) or any
    iterable of ``Update`` records / ``(index, delta)`` pairs.
``replay_stream(sampler, stream, batch_size=None)``
    The single shared ``update_stream`` implementation: chunk the stream
    into batches of ``batch_size`` (default :data:`DEFAULT_BATCH_SIZE`) and
    feed each chunk to ``sampler.update_batch``.
``BatchUpdateMixin``
    Base class giving every sketch/sampler a correct ``update_batch``
    fallback (scalar replay in stream order, preserving any per-update
    randomness consumption) and the shared batched ``update_stream``.

Linear substrates override ``update_batch`` with genuinely vectorised numpy
implementations (scatter-adds, matrix products, vectorised modular
fingerprints); order-sensitive samplers (reservoirs, exponential races)
keep the fallback, which is bit-identical to scalar replay by construction.
The query side shares one kernel too: :func:`median_of_rows`, the exact
median over a sketch's rows that every stacked point query ends in.

The module deliberately imports nothing outside :mod:`numpy` and the
exception hierarchy so that both the ``sketch`` and ``samplers`` packages
can use it without import cycles; :mod:`repro.samplers.base` re-exports the
public names as the documented API surface.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MERSENNE_PRIME_61",
    "BatchUpdateMixin",
    "aggregate_batch",
    "aggregate_scatter",
    "coerce_batch",
    "coerce_indices",
    "check_batch_bounds",
    "check_member_index",
    "flat_scatter_add",
    "fused_bincount_add",
    "stream_arrays",
    "iter_batches",
    "mersenne_mulmod",
    "mersenne_powmod",
    "median_of_rows",
    "polyval_mersenne",
    "polyval_mersenne_at",
    "replay_stream",
    "deepest_levels",
    "route_subsampled_batch",
]

#: Default number of updates per chunk when replaying a stream through
#: ``update_batch``.  Large enough that numpy dispatch overhead is amortised,
#: small enough that per-batch scratch arrays stay cache-friendly.
DEFAULT_BATCH_SIZE = 8192

#: The Mersenne prime ``2^61 - 1`` underlying every modular fingerprint and
#: k-wise independent hash family in the library.
MERSENNE_PRIME_61 = (1 << 61) - 1

_EMPTY_INDICES = np.asarray([], dtype=np.int64)
_EMPTY_DELTAS = np.asarray([], dtype=float)

_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
_MASK61 = np.uint64(MERSENNE_PRIME_61)
_TWO32 = np.uint64(1 << 32)
_SHIFT29 = np.uint64(29)
_SHIFT32 = np.uint64(32)
_SHIFT61 = np.uint64(61)


def mersenne_mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorised ``(a * b) mod (2^61 - 1)``, ``b`` below the prime.

    The 122-bit product is assembled from 32-bit limbs entirely in
    ``uint64`` arithmetic: with ``a = ah·2^32 + al`` and likewise for ``b``,
    ``a·b = ah·bh·2^64 + (ah·bl + al·bh)·2^32 + al·bl``, and the powers of
    two reduce via ``2^61 ≡ 1`` (so ``2^64 ≡ 8``).  Every intermediate fits
    in 64 bits, which is what makes the modular arithmetic batchable in
    numpy; operands broadcast against each other like any ufunc.  ``a`` may
    be up to ``2^62`` (one deferred coefficient addition).  It is the
    Horner step of :func:`polyval_mersenne` only for points at or above
    ``2^32``; points below ``2^32`` (every table build) take the cheaper
    two-limb step of :func:`_horner_mersenne`.  Sparse recovery's
    fingerprints call it directly.  The body reuses its large temporaries
    in place.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    ah, al = a >> np.uint64(32), a & _MASK32
    bh, bl = b >> np.uint64(32), b & _MASK32
    total = ah * bh                     # < 2^59, carries factor 2^64 ≡ 8
    total <<= np.uint64(3)
    mid = ah * bl                       # mid < 2^63, carries factor 2^32
    mid += al * bh
    total += mid >> np.uint64(29)
    mid &= _MASK29
    mid <<= np.uint64(32)
    total += mid
    lo = al * bl                        # full 64-bit product
    total += lo >> np.uint64(61)
    lo &= _MASK61
    total += lo
    # Fold-reduce in place (total < 2^63 at this point).
    scratch = total >> np.uint64(61)
    total &= _MASK61
    total += scratch
    np.right_shift(total, np.uint64(61), out=scratch)
    total &= _MASK61
    total += scratch
    np.subtract(total, _MASK61, out=total, where=total >= _MASK61)
    return total


def mersenne_powmod(base: int, exponents: np.ndarray) -> np.ndarray:
    """Vectorised ``base ** exponents mod (2^61 - 1)`` by square-and-multiply.

    The square chain of the (scalar) base runs in exact Python integers;
    the per-exponent multiplies are the vectorised
    :func:`mersenne_mulmod`, so the cost is ``O(log(max exponent))``
    numpy passes over the exponent array.
    """
    exponents = np.asarray(exponents, dtype=np.uint64)
    result = np.ones_like(exponents)
    square = int(base) % MERSENNE_PRIME_61
    max_bits = int(exponents.max()).bit_length() if exponents.size else 0
    for bit in range(max_bits):
        mask = (exponents >> np.uint64(bit)) & np.uint64(1) == np.uint64(1)
        if mask.any():
            result[mask] = mersenne_mulmod(result[mask], np.uint64(square))
        square = (square * square) % MERSENNE_PRIME_61
    return result


def _reduce_keys(keys: np.ndarray) -> np.ndarray:
    """Integer keys reduced modulo the prime (Python-sign semantics)."""
    keys = np.asarray(keys)
    if keys.dtype.kind == "u":
        # Unsigned keys reduce in the uint64 domain; mixing uint64 with a
        # signed modulus would silently promote to float64 and lose the
        # low bits of large keys.
        return keys.astype(np.uint64) % np.uint64(MERSENNE_PRIME_61)
    if keys.dtype != np.int64:
        keys = keys.astype(np.int64)
    if keys.size and keys.min() >= 0 and keys.max() < MERSENNE_PRIME_61:
        # Coordinates are already reduced: a min, a max and a copy beat
        # an int64 modulo (0.5 against 4.7 ns per key on a 2-core Xeon).
        return keys.astype(np.uint64)
    return np.mod(keys, np.int64(MERSENNE_PRIME_61)).astype(np.uint64)


def _horner_mersenne(coefficients: np.ndarray, reduced: np.ndarray,
                     shape: tuple) -> np.ndarray:
    """Horner sweep of ``coefficients`` (``(..., k)``) at broadcast points.

    Precondition: every coefficient and every point in ``reduced`` is below
    the prime ``p = 2^61 - 1``.  The result has ``shape`` and is fully
    reduced.

    When every point is below ``2^32`` (every table build: the keys are
    coordinates), a step needs two limb products instead of four.  With
    ``r = rh·2^32 + rl`` and ``x < 2^32``, ``rh·x < 2^63`` carries the
    factor ``2^32`` and ``rl·x < 2^64`` none; each is folded with
    ``2^61 ≡ 1`` but not reduced.  Invariant: the accumulator is below
    ``2^63`` when a step starts.  The folded product is below
    ``2^62 + 2^34`` and adding a coefficient below ``2^61`` keeps it below
    ``2^63``, so one reduction at the end is enough.  Larger points take
    :func:`mersenne_mulmod`'s four-limb step.  The sweep runs in place on
    one accumulator and two scratch arrays, with no allocation per step.
    """
    k = coefficients.shape[-1]
    acc = np.empty(shape, dtype=np.uint64)
    acc[...] = coefficients[..., k - 1]
    high = np.empty_like(acc)
    if reduced.size and reduced.max() >= _TWO32:
        for power in range(k - 2, -1, -1):
            acc = mersenne_mulmod(acc, reduced)
            acc += coefficients[..., power]
    elif k > 1:
        low = np.empty_like(acc)
        for power in range(k - 2, -1, -1):
            np.right_shift(acc, _SHIFT32, out=high)
            high *= reduced                 # rh·x < 2^63, times 2^32
            acc &= _MASK32
            acc *= reduced                  # rl·x < 2^64
            np.right_shift(acc, _SHIFT61, out=low)
            acc &= _MASK61
            acc += low                      # rl·x folded: < 2^61 + 8
            # rh·x·2^32 ≡ (rh·x >> 29) + (rh·x mod 2^29)·2^32.
            np.right_shift(high, _SHIFT29, out=low)
            acc += low
            high &= _MASK29
            high <<= _SHIFT32
            acc += high                     # < 2^62 + 2^34
            acc += coefficients[..., power]  # < 2^63
    # acc < 2^63: one fold leaves it below p + 4, one subtraction below p.
    np.right_shift(acc, _SHIFT61, out=high)
    acc &= _MASK61
    acc += high
    np.subtract(acc, _MASK61, out=high)
    np.minimum(acc, high, out=acc)          # a wrapped difference is larger
    return acc


def polyval_mersenne(coefficients: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Evaluate stacked polynomials over ``GF(2^61 - 1)`` at integer points.

    ``coefficients`` has shape ``(..., k)`` (``uint64`` values below the
    prime, constant term first); ``keys`` is a 1-D integer array of
    evaluation points (reduced modulo the prime, Python-sign semantics).
    Returns the ``(..., len(keys))`` array of Horner evaluations — one full
    hash *family* is evaluated at every point in a single ``uint64``-limb
    pass, which is what lets replica ensembles build all of their hash
    tables at once.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    reduced = _reduce_keys(keys)
    lead_shape = coefficients.shape[:-1]
    return _horner_mersenne(coefficients[..., None, :], reduced,
                            lead_shape + reduced.shape)


def polyval_mersenne_at(coefficients: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Evaluate each stacked polynomial at its *own* point.

    ``coefficients`` has shape ``S + (k,)`` and ``keys`` broadcasts against
    ``S``; entry ``j`` of the result is polynomial ``j`` at ``keys[j]``.
    The arithmetic is :func:`polyval_mersenne`'s, cell for cell, so a
    point query can evaluate just the hash cells it reads.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint64)
    reduced = _reduce_keys(keys)
    return _horner_mersenne(
        coefficients, reduced,
        np.broadcast_shapes(coefficients.shape[:-1], reduced.shape))


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise median of three arrays."""
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def median_of_rows(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """``np.median(values, axis=axis)`` for the few rows of a sketch table.

    Up to five rows, the median is picked by a compare-exchange network of
    ``np.minimum``/``np.maximum`` across the rows axis: a handful of
    elementwise passes instead of ``np.median``'s partition and mean.  The
    network selects elements (an even count averages the middle two exactly
    as ``np.median`` does), so the result equals ``np.median`` under
    ``np.testing.assert_array_equal``: a NaN anywhere in a column reaches
    its median through the min/max chain, and adding ``0.0`` returns a zero
    median as ``+0.0`` like ``np.median``'s mean.  Other row counts call
    ``np.median``.
    """
    values = np.asarray(values, dtype=float)
    rows = values.shape[axis]
    if not 1 <= rows <= 5:
        return np.median(values, axis=axis)
    v = np.moveaxis(values, axis, 0)
    if rows == 1:
        return v[0] + 0.0
    if rows == 2:
        return (v[0] + v[1] + 0.0) / 2
    if rows == 3:
        return _median3(v[0], v[1], v[2]) + 0.0
    # The smallest and the largest of the first four values each have three
    # values on one side, so neither is the median of four or five values:
    # keep the middle two of the four, low <= high.
    low = np.maximum(np.minimum(v[0], v[1]), np.minimum(v[2], v[3]))
    high = np.minimum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
    if rows == 4:
        return (low + high + 0.0) / 2
    return _median3(v[4], low, high) + 0.0


def coerce_indices(indices) -> np.ndarray:
    """Convert batch indices to int64, refusing non-integer values.

    The index half of :func:`coerce_batch`, shared with the ensembles whose
    deltas are not ``(B,)``.  Fractional and non-finite indices raise
    instead of being truncated onto the wrong coordinate (e.g. swapped
    indices/deltas arguments); the scalar paths would error too.

    Raises
    ------
    InvalidParameterError
        If an index is fractional, non-finite or not integer-like.
    """
    try:
        raw_indices = np.asarray(indices)
        if raw_indices.dtype.kind in "fc":
            if not np.all(np.isfinite(raw_indices)) or np.any(
                    raw_indices != np.trunc(raw_indices)):
                raise InvalidParameterError(
                    "batch indices must be integer-valued"
                )
        return raw_indices.astype(np.int64, copy=False)
    except InvalidParameterError:
        raise
    except (TypeError, ValueError, OverflowError) as error:
        raise InvalidParameterError(f"batch indices are not integer-like: {error}")


def coerce_batch(indices, deltas) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise a batch into parallel ``(int64, float64)`` arrays.

    Raises
    ------
    InvalidParameterError
        If an index is not integer-valued (see :func:`coerce_indices`),
        either argument is not 1-D or the lengths differ.
    """
    indices = coerce_indices(indices)
    try:
        deltas = np.asarray(deltas, dtype=float)
    except (TypeError, ValueError, OverflowError) as error:
        raise InvalidParameterError(f"batch deltas are not float-like: {error}")
    if indices.ndim != 1 or deltas.ndim != 1:
        raise InvalidParameterError(
            f"batch indices and deltas must be 1-D, got shapes "
            f"{indices.shape} and {deltas.shape}"
        )
    if indices.shape[0] != deltas.shape[0]:
        raise InvalidParameterError(
            f"batch indices and deltas must have the same length, got "
            f"{indices.shape[0]} and {deltas.shape[0]}"
        )
    return indices, deltas


def check_batch_bounds(indices: np.ndarray, n: int) -> None:
    """Reject out-of-universe indices with the scalar paths' error type."""
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
        bad = int(indices[(indices < 0) | (indices >= n)][0])
        raise InvalidParameterError(f"index {bad} outside universe [0, {n})")


def check_member_index(index, count: int, kind: str = "member") -> None:
    """Reject an ensemble member or replica index outside ``[0, count)``.

    ``index`` is one integer (Python or numpy) or an integer array, which
    costs one min/max.  Ensemble queries index stacked arrays, where a
    negative index would silently answer for another member.
    """
    if isinstance(index, np.ndarray):
        if not index.size:
            return
        low, high = int(index.min()), int(index.max())
    else:
        low = high = operator.index(index)
    if low < 0 or high >= count:
        bad = low if low < 0 else high
        raise InvalidParameterError(
            f"{kind} index {bad} outside [0, {count})")


def stream_arrays(stream) -> Tuple[np.ndarray, np.ndarray]:
    """``(indices, deltas)`` arrays of a stream or iterable of updates.

    :class:`~repro.streams.stream.TurnstileStream` (anything exposing
    parallel ``indices`` / ``deltas`` arrays) is handled zero-copy; other
    iterables may contain ``Update`` records or ``(index, delta)`` pairs —
    both unpack to two items.
    """
    indices = getattr(stream, "indices", None)
    deltas = getattr(stream, "deltas", None)
    if isinstance(indices, np.ndarray) and isinstance(deltas, np.ndarray):
        return indices, deltas
    index_list: list = []
    delta_list: list = []
    for item in stream:
        index, delta = item
        index_list.append(index)
        delta_list.append(delta)
    if not index_list:
        return _EMPTY_INDICES, _EMPTY_DELTAS
    # coerce_batch validates integer-ness so a float-typed index column is
    # rejected here exactly as on the array path, never truncated.
    return coerce_batch(index_list, delta_list)


def iter_batches(indices: np.ndarray, deltas: np.ndarray,
                 batch_size: int | None = None) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, deltas)`` chunks of at most ``batch_size`` updates."""
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
    for start in range(0, len(indices), batch_size):
        stop = start + batch_size
        yield indices[start:stop], deltas[start:stop]


def replay_stream(sampler, stream, batch_size: int | None = None) -> None:
    """Shared ``update_stream``: replay ``stream`` through ``update_batch``.

    This is the one replay loop in the library; every sketch and sampler
    routes its ``update_stream`` here (via :class:`BatchUpdateMixin`), so
    batched ingest speedups apply uniformly and the iterable-handling logic
    exists exactly once.

    Array-backed streams are chunked zero-copy.  Plain iterables (including
    unbounded generators) are consumed lazily, one ``batch_size`` chunk at a
    time, so replay memory stays ``O(batch_size)`` regardless of stream
    length.
    """
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise InvalidParameterError(f"batch_size must be positive, got {batch_size}")
    indices = getattr(stream, "indices", None)
    deltas = getattr(stream, "deltas", None)
    if isinstance(indices, np.ndarray) and isinstance(deltas, np.ndarray):
        for batch_indices, batch_deltas in iter_batches(indices, deltas, batch_size):
            sampler.update_batch(batch_indices, batch_deltas)
        return
    index_chunk: list = []
    delta_chunk: list = []

    def flush() -> None:
        # coerce_batch validates integer-ness so the lazy path rejects a
        # fractional index exactly as the array path does.
        batch_indices, batch_deltas = coerce_batch(index_chunk, delta_chunk)
        sampler.update_batch(batch_indices, batch_deltas)
        index_chunk.clear()
        delta_chunk.clear()

    for item in stream:
        index, delta = item
        index_chunk.append(index)
        delta_chunk.append(delta)
        if len(index_chunk) >= batch_size:
            flush()
    if index_chunk:
        flush()


class BatchUpdateMixin:
    """Default batch machinery for sketches and samplers.

    Subclasses get:

    * ``update_batch(indices, deltas)`` — validated scalar replay in stream
      order.  Linear structures override this with a vectorised
      implementation; order-sensitive samplers (reservoirs, races) keep the
      fallback so that per-update randomness is consumed exactly as in the
      scalar path.
    * ``update_stream(stream, *, batch_size=None)`` — the shared chunked
      replay of :func:`replay_stream`.
    """

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates by scalar replay (order-preserving)."""
        indices, deltas = coerce_batch(indices, deltas)
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            self.update(index, delta)

    def update_stream(self, stream, *, batch_size: int | None = None) -> None:
        """Replay a whole stream of updates in chunks of ``batch_size``."""
        replay_stream(self, stream, batch_size=batch_size)


def fused_bincount_add(target, flat, values, minlength: int) -> None:
    """The fused large-batch scatter: weighted bincount, added in place.

    ``flat`` holds already-linearised cell indices into a zero-based
    length-``minlength`` view of ``target`` (C order), ``values`` the
    matching weights.  One weighted bincount materialises the per-cell
    sums, which are then accumulated into ``target`` without a second
    temporary.  Both steps release the GIL at these array sizes, which
    is what lets the ``threaded`` sharding back-end overlap shard ingests.
    The callers gather their columns with ``np.take``, which returns them
    C-contiguous, so ``flat`` and ``values`` are C-contiguous too and the
    ``ravel`` calls here are views, not hidden copies.
    """
    counts = np.bincount(flat.ravel(), weights=values.ravel(),
                         minlength=minlength)
    np.add(target, counts.reshape(target.shape), out=target)


def flat_scatter_add(target: np.ndarray, flat: np.ndarray, values) -> None:
    """The element-wise scatter: ``np.add.at`` through one linearised index.

    ``flat`` holds cell indices into ``target`` in C order, as for
    :func:`fused_bincount_add`, and ``values`` the matching weights (any
    shape that broadcasts to ``flat``'s).  Both go to ``np.add.at`` as 1-D
    arrays, which NumPy runs on its indexed fast loop: about 3 ns per
    element for a ``(200, 5, 128)`` update block, against 28 ns for the
    ``(member, row, bucket)`` tuple index on a 2-core Xeon with NumPy 2.4.
    ``np.add.at`` applies the updates in index order under either form, so
    every cell receives its updates in the same order and the result is
    bitwise the same.

    ``target`` must be C-contiguous and writable: flattening any other
    layout would scatter into a copy and drop the updates, so it is
    refused.
    """
    if not target.flags.c_contiguous:
        raise InvalidParameterError("flat_scatter_add needs a C-contiguous target")
    values = np.broadcast_to(values, flat.shape)
    np.add.at(target.reshape(-1), flat.ravel(), values.ravel())


def aggregate_batch(indices: np.ndarray, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a batch to ``(distinct indices, summed deltas)``.

    Linear structures may aggregate repeated coordinates before touching
    their tables; this is the shared group-by step.
    """
    unique, inverse = np.unique(indices, return_inverse=True)
    return unique, np.bincount(inverse, weights=deltas)


def aggregate_scatter(indices: np.ndarray, deltas: np.ndarray,
                      lookup) -> Tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Assemble one table-scatter for a batch from per-coordinate patterns.

    ``lookup(index)`` must return the coordinate's cached scatter pattern as
    parallel ``(rows, columns, coefficients)`` arrays.  The batch is
    aggregated per distinct coordinate (linearity), every pattern is scaled
    by its aggregated delta, and the concatenated triple — ready for one
    :func:`flat_scatter_add` at ``rows * columns_per_row + columns`` — is
    returned, or ``None`` when nothing lands in the table.
    """
    unique, aggregated = aggregate_batch(indices, deltas)
    row_parts: list[np.ndarray] = []
    column_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    for item, total in zip(unique.tolist(), aggregated.tolist()):
        rows, columns, coefficients = lookup(int(item))
        if rows.size:
            row_parts.append(rows)
            column_parts.append(columns)
            value_parts.append(total * coefficients)
    if not row_parts:
        return None
    return (np.concatenate(row_parts), np.concatenate(column_parts),
            np.concatenate(value_parts))


def deepest_levels(level_variates: np.ndarray, indices: np.ndarray,
                   num_levels: int) -> np.ndarray:
    """Vectorised deepest subsampling level per coordinate.

    Coordinate ``i`` with uniform level variate ``u_i`` participates in
    levels ``0 .. floor(-log2(u_i))`` (capped at ``num_levels - 1``;
    ``u_i <= 0`` participates everywhere).  Shared by the perfect ``L_0``
    sampler and the rough ``L_0`` estimator so the scalar and batched
    routing use the same floating-point computation.
    """
    u = np.asarray(level_variates)[indices]
    with np.errstate(divide="ignore"):
        levels = np.floor(-np.log2(np.where(u > 0.0, u, 1.0)))
    levels = np.where(u > 0.0, levels, float(num_levels - 1))
    return np.minimum(levels, num_levels - 1).astype(np.int64)


def route_subsampled_batch(levels, deepest: np.ndarray, indices: np.ndarray,
                           deltas: np.ndarray) -> None:
    """Feed each subsampling level its participating sub-batch.

    ``deepest[j]`` is the deepest level update ``j``'s coordinate joins
    (see :func:`deepest_levels`); level ``l`` receives, in stream order,
    exactly the updates with ``deepest >= l``.  Shared by the perfect
    ``L_0`` sampler and the rough ``L_0`` estimator.
    """
    for level in range(int(deepest.max()) + 1):
        selected = deepest >= level
        levels[level].update_batch(indices[selected], deltas[selected])
