"""k-wise independent hash families.

All sketches in the library draw their hash functions from
:class:`KWiseHash`, a random polynomial of degree ``k - 1`` over the
Mersenne prime ``2^61 - 1``.  Evaluating a random degree-``(k-1)``
polynomial at distinct points yields a k-wise independent family, which is
the standard derandomisation-friendly construction used by CountSketch
(pairwise buckets, 4-wise signs) and the AMS sketch (4-wise signs).

Evaluation is fully vectorised: Horner's rule runs over ``uint64``-limb
modular arithmetic (:func:`repro.utils.batching.polyval_mersenne`), which is
bit-identical to exact integer arithmetic — modular reduction is exact — but
avoids the ``object``-dtype Python-int round-trips entirely.  Table keys are
coordinates below ``2^32``, so each Horner step splits the accumulator into
two 32-bit limbs and forms only two limb products, folded with
``2^61 ≡ 1`` but not reduced; the accumulator stays below ``2^63``, and one
reduction at the end makes it exact (points at or above ``2^32`` take the
four-limb :func:`~repro.utils.batching.mersenne_mulmod` step).  The range
is then a mask when it is a power of two (signs: ``& 1``) and a modulo
otherwise.  The *family* classes (:class:`KWiseHashFamily`,
:class:`SignHashFamily`) stack the coefficient vectors of many independent
hash functions and evaluate all of them at every requested point;
:meth:`KWiseHashFamily.hash_all` cuts the ``(members, keys)`` table into
member blocks × key blocks of at most
:attr:`KWiseHashFamily._EVAL_CHUNK_CELLS` cells, so the ``uint64``
temporaries stay cache-sized at any universe size and only the narrow
output grows with it.  Replica ensembles use the families to build the
hash tables of hundreds of sketch replicas in one call, and single
sketches use them to build all of their rows at once.

Shared-table cache contract
---------------------------
An evaluated table is a pure function of ``(coefficients, range_size,
universe)`` — the modular Horner sweep is exact — so same-parameter
families share evaluated tables through the process-wide keyed cache in
:mod:`repro.utils.table_cache`:

* :meth:`KWiseHashFamily.hash_table` / :meth:`SignHashFamily.sign_table`
  return the full-universe table via the cache (read-only; hits return the
  identical array a cold miss produced, so stream-sharded ensemble copies,
  retry rounds, and re-built sketches evaluate each distinct table once
  per process instead of once per instance).
* :meth:`KWiseHashFamily.hash_blocks` / :meth:`SignHashFamily.sign_blocks`
  stream the same table in coordinate chunks without ever materialising
  the ``(F, n)`` whole, and :meth:`KWiseHashFamily.hash_slice` /
  :meth:`SignHashFamily.sign_slice` evaluate a member sub-range at
  arbitrary keys — the primitives behind the consumers' ``blocked`` table
  mode — and :meth:`KWiseHashFamily.hash_at` /
  :meth:`SignHashFamily.sign_at` evaluate single ``(member, key)`` cells
  for point queries.  Because every cell is computed independently, any
  chunking (by member, by key, or cell by cell) is bit-identical to the
  monolithic evaluation.
* Families pickle as coefficients only (a few hundred bytes); consumers
  drop their table references when pickled and re-derive them from the
  cache on first use, so multiprocessing payloads stay table-independent.

Table format
------------
Every family evaluation (:meth:`KWiseHashFamily.hash_all` and everything
built on it, :meth:`KWiseHashFamily.hash_at`, and the sign evaluations)
returns one narrow format: bucket values come in the narrowest signed
integer dtype that holds ``range_size - 1`` (:func:`table_dtype`; int8 up
to 128 buckets, int16 up to ``2**15``, int32 up to ``2**31``, int64
beyond), and signs come as int8.  The sketch kernels gather a batch's
columns from these tables on every update, and those gathers are
memory-bound, so a table's width is its gather cost: int16 buckets and
int8 signs read a quarter and an eighth of the bytes int64 did, and the
cache holds as much less.  The values are the same, so every counter is
bitwise unchanged.

*NEP 50 warning.*  Under NumPy 2, ``int16_table + python_int`` stays int16
and wraps silently once the sum passes ``2**15 - 1``.  A flat index built
from a table must combine it with an int64 *array* (a row or member
offset ``np.arange(..., dtype=np.int64) * buckets``), never with a bare
Python int, so that the sum is promoted to int64 before it can overflow.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.batching import (
    MERSENNE_PRIME_61,
    polyval_mersenne,
    polyval_mersenne_at,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.table_cache import (
    cached_table,
    family_table_key,
    resolve_table_block,
)

MERSENNE_PRIME = MERSENNE_PRIME_61

_NARROW_DTYPES = tuple(np.dtype(d) for d in (np.int8, np.int16, np.int32))


def table_dtype(range_size: int) -> np.dtype:
    """The narrowest signed integer dtype holding every value in
    ``[0, range_size)`` — the dtype of a family's evaluated tables."""
    for dtype in _NARROW_DTYPES:
        if range_size - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.dtype(np.int64)


def _reduce_to_range(values: np.ndarray, range_size: int) -> np.ndarray:
    """Map ``uint64`` hash values into ``[0, range_size)`` in place.

    A power-of-two range is a mask (signs: ``& 1``); any other range is
    ``values - (values // range_size) * range_size``.  Both are exactly
    ``values % range_size``, but NumPy's ``//`` by a scalar multiplies by a
    precomputed reciprocal where ``%`` divides: 1.7 against 4.0 ns per
    value on a 2-core Xeon with NumPy 2.4.
    """
    if range_size & (range_size - 1) == 0:
        values &= np.uint64(range_size - 1)
    else:
        modulus = np.uint64(range_size)
        quotient = values // modulus
        quotient *= modulus
        values -= quotient
    return values


def _signs_from_bits(bits: np.ndarray) -> np.ndarray:
    """Map freshly evaluated ``{0, 1}`` int8 hash bits to ``{-1, +1}`` signs
    in place (bit ``1`` is sign ``+1``)."""
    bits *= 2
    bits -= 1
    return bits


def _with_nonzero_leads(coefficients: np.ndarray) -> np.ndarray:
    """Raw ``int64`` coefficient draws, last axis the polynomial, as the
    ``uint64`` coefficients of hash functions.

    A zero leading (last) coefficient is set to 1 in place first, which
    keeps every polynomial's degree exactly ``k - 1``.  Every draw of hash
    coefficients ends here: :class:`KWiseHash`,
    :meth:`KWiseHashFamily.from_rng`, and CountSketch's stacked member
    draws (:meth:`repro.sketch.countsketch.CountSketchEnsemble.from_seeds`),
    which force the leads of a whole ensemble in one call.
    """
    if coefficients.shape[-1] > 1:
        leads = coefficients[..., -1]
        leads[leads == 0] = 1
    return coefficients.astype(np.uint64)


def _draw_coefficients(k: int, seed: SeedLike) -> np.ndarray:
    """Draw the ``k`` polynomial coefficients of one hash function.

    This is the single place coefficients are drawn, so a family member
    built from seed ``s`` is coefficient-for-coefficient identical to a
    standalone :class:`KWiseHash` built from the same seed.
    """
    rng = ensure_rng(seed)
    return _with_nonzero_leads(
        rng.integers(0, MERSENNE_PRIME, size=k, dtype=np.int64))


class KWiseHash:
    """A k-wise independent hash ``h : Z -> [0, range_size)``.

    Parameters
    ----------
    k:
        Independence level (``k >= 2``); degree of the random polynomial
        plus one.
    range_size:
        Size of the output range.
    seed:
        Seed or generator for drawing the polynomial coefficients.
    """

    def __init__(self, k: int, range_size: int, seed: SeedLike = None) -> None:
        if k < 1:
            raise InvalidParameterError("k must be at least 1")
        if range_size < 1:
            raise InvalidParameterError("range_size must be at least 1")
        self._k = int(k)
        self._range_size = int(range_size)
        self._coefficients = _draw_coefficients(self._k, seed)

    @property
    def k(self) -> int:
        """Independence level of the family."""
        return self._k

    @property
    def range_size(self) -> int:
        """Output range size."""
        return self._range_size

    @property
    def coefficients(self) -> np.ndarray:
        """The ``uint64`` polynomial coefficients (constant term first)."""
        return self._coefficients

    def __call__(self, keys: int | np.ndarray) -> int | np.ndarray:
        """Hash a key (or an array of keys) into ``[0, range_size)``."""
        scalar = np.isscalar(keys)
        arr = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        values = polyval_mersenne(self._coefficients, arr)
        hashed = _reduce_to_range(values, self._range_size).astype(np.int64)
        if scalar:
            return int(hashed[0])
        return hashed


class KWiseHashFamily:
    """``F`` independent k-wise hash functions evaluated in one pass.

    Each member is coefficient-for-coefficient identical to
    ``KWiseHash(k, range_size, seeds[f])``; :meth:`hash_all` evaluates every
    member's polynomial at every key with a single vectorised
    ``uint64``-limb Horner sweep, so building the hash tables of many sketch
    rows (or many sketch *replicas*) costs one numpy call instead of ``F``
    object-dtype loops.
    """

    def __init__(self, k: int, range_size: int, seeds: Sequence[int]) -> None:
        if k < 1:
            raise InvalidParameterError("k must be at least 1")
        if range_size < 1:
            raise InvalidParameterError("range_size must be at least 1")
        self._k = int(k)
        self._range_size = int(range_size)
        self._coefficients = np.stack(
            [_draw_coefficients(self._k, int(seed)) for seed in seeds]
        ) if len(seeds) else np.empty((0, self._k), dtype=np.uint64)

    @classmethod
    def from_rng(cls, rng: np.random.Generator, size: int, k: int,
                 range_size: int) -> "KWiseHashFamily":
        """Draw a whole family's coefficient matrix in one vectorised call.

        This is the fast path sketch constructors use: one
        ``rng.integers`` call replaces ``size`` per-member generator
        constructions.  The members are still independent uniformly random
        degree-``(k-1)`` polynomials (leading coefficient forced non-zero),
        exactly the distribution :class:`KWiseHash` draws from.
        """
        if k < 1:
            raise InvalidParameterError("k must be at least 1")
        if range_size < 1:
            raise InvalidParameterError("range_size must be at least 1")
        coefficients = rng.integers(0, MERSENNE_PRIME, size=(size, k),
                                    dtype=np.int64)
        family = cls.__new__(cls)
        family._k = int(k)
        family._range_size = int(range_size)
        family._coefficients = _with_nonzero_leads(coefficients)
        return family

    @classmethod
    def from_coefficients(cls, coefficients: np.ndarray, range_size: int) -> "KWiseHashFamily":
        """Wrap an existing ``(F, k)`` ``uint64`` coefficient matrix."""
        coefficients = np.asarray(coefficients, dtype=np.uint64)
        if coefficients.ndim != 2:
            raise InvalidParameterError("coefficient matrix must be 2-D")
        family = cls.__new__(cls)
        family._k = int(coefficients.shape[1])
        family._range_size = int(range_size)
        family._coefficients = coefficients
        return family

    @classmethod
    def concatenate(cls, families: Sequence["KWiseHashFamily"]) -> "KWiseHashFamily":
        """Stack several same-``(k, range)`` families into one (for ensembles)."""
        if not families:
            raise InvalidParameterError("need at least one family")
        first = families[0]
        if any(f.k != first.k or f.range_size != first.range_size for f in families):
            raise InvalidParameterError("families must share k and range_size")
        return cls.from_coefficients(
            np.concatenate([f.coefficients for f in families]), first.range_size
        )

    @classmethod
    def from_hashes(cls, hashes: Sequence[KWiseHash]) -> "KWiseHashFamily":
        """Stack already-constructed hashes (must share ``k`` and range)."""
        if not hashes:
            raise InvalidParameterError("family needs at least one hash")
        first = hashes[0]
        if any(h.k != first.k or h.range_size != first.range_size for h in hashes):
            raise InvalidParameterError("family members must share k and range_size")
        family = cls.__new__(cls)
        family._k = first.k
        family._range_size = first.range_size
        family._coefficients = np.stack([h.coefficients for h in hashes])
        return family

    @property
    def size(self) -> int:
        """Number of member hash functions."""
        return self._coefficients.shape[0]

    @property
    def k(self) -> int:
        """Independence level of every member."""
        return self._k

    @property
    def range_size(self) -> int:
        """Output range size of every member."""
        return self._range_size

    @property
    def coefficients(self) -> np.ndarray:
        """The ``(F, k)`` ``uint64`` coefficient matrix."""
        return self._coefficients

    #: Cap on ``members * keys`` cells per evaluation chunk.  The Horner
    #: sweep is memory-bound, so :meth:`hash_all` cuts a table into member
    #: blocks × key blocks whose three ``uint64`` temporaries stay resident
    #: in the CPU caches at any universe size.  Measured on a 2-core Xeon
    #: (4 MiB L2) for 10 000 members × 64 keys at ``k = 4``: 2^15 cells
    #: (256 KiB per temporary) was fastest.  This is purely an execution
    #: constant, unrelated to the keyed *table* cache in
    #: :mod:`repro.utils.table_cache`.
    _EVAL_CHUNK_CELLS = 1 << 15

    @property
    def dtype(self) -> np.dtype:
        """Dtype of every evaluated table (see :func:`table_dtype`)."""
        return table_dtype(self._range_size)

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        """``(F, len(keys))`` table of every member at every key, in
        :attr:`dtype`."""
        arr = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        members = self._coefficients.shape[0]
        # Allocated narrow, so no full-size uint64 or int64 table exists.
        out = np.empty((members, arr.size), dtype=self.dtype)
        key_step = max(1, min(arr.size, self._EVAL_CHUNK_CELLS))
        member_step = max(1, self._EVAL_CHUNK_CELLS // key_step)
        for start in range(0, members, member_step):
            stop = min(members, start + member_step)
            for first in range(0, arr.size, key_step):
                last = min(arr.size, first + key_step)
                values = polyval_mersenne(self._coefficients[start:stop],
                                          arr[first:last])
                out[start:stop, first:last] = _reduce_to_range(
                    values, self._range_size)
        return out

    def table_key(self, universe: int, kind: str = "kwise"):
        """The :class:`~repro.utils.table_cache.TableKey` of this family's
        full-universe table (picklable; shared by byte-identical families)."""
        return family_table_key(kind, self._coefficients, self._range_size,
                                int(universe))

    def hash_table(self, universe: int) -> np.ndarray:
        """The ``(F, universe)`` table over ``[0, universe)`` via the cache.

        The returned array is read-only and bit-identical to
        ``hash_all(np.arange(universe))``; same-coefficient families in the
        same process share one evaluation.
        """
        return cached_table(
            self.table_key(universe),
            lambda: self.hash_all(np.arange(int(universe), dtype=np.int64)),
        )

    # Alias kept only because the perfbench tracer patches this name by
    # ``inspect.getattr_static``, which raises on a missing attribute; no
    # library code calls it.
    hash_table_tensor = hash_table

    def hash_slice(self, start: int, stop: int, keys: np.ndarray) -> np.ndarray:
        """``hash_all(keys)`` restricted to members ``[start, stop)``.

        Evaluates only the selected coefficient rows, so the cost is
        ``(stop - start) * len(keys)`` cells; bit-identical to slicing the
        full evaluation (every ``(member, key)`` cell is independent).
        """
        return KWiseHashFamily.from_coefficients(
            self._coefficients[int(start):int(stop)], self._range_size
        ).hash_all(keys)

    def hash_at(self, members: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Member ``members[j]`` at key ``keys[j]`` (the two broadcast).

        Point queries use it to evaluate only the cells they read; each
        cell equals the same cell of :meth:`hash_all`.
        """
        values = polyval_mersenne_at(self._coefficients[members], keys)
        return _reduce_to_range(values, self._range_size).astype(self.dtype)

    def hash_blocks(self, universe: int, block: int | None = None,
                    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Stream the full-universe table as ``(start, stop, chunk)`` triples.

        Each ``chunk`` is the ``(F, stop - start)`` evaluation at
        coordinates ``[start, stop)``; concatenating the chunks along axis 1
        reproduces ``hash_all(np.arange(universe))`` bitwise, but only one
        chunk exists at a time — peak memory is ``O(F * block)``.
        """
        universe = int(universe)
        step = resolve_table_block(block)
        for start in range(0, universe, step):
            stop = min(universe, start + step)
            yield start, stop, self.hash_all(
                np.arange(start, stop, dtype=np.int64))


class SignHashFamily:
    """``F`` independent k-wise Rademacher sign hashes evaluated in one pass."""

    def __init__(self, seeds: Sequence[int], k: int = 4) -> None:
        self._family = KWiseHashFamily(k, 2, seeds)

    @classmethod
    def from_rng(cls, rng: np.random.Generator, size: int, k: int = 4) -> "SignHashFamily":
        """Draw a whole sign family's coefficients in one vectorised call."""
        family = cls.__new__(cls)
        family._family = KWiseHashFamily.from_rng(rng, size, k, 2)
        return family

    @classmethod
    def from_coefficients(cls, coefficients: np.ndarray) -> "SignHashFamily":
        """Wrap an existing ``(F, k)`` ``uint64`` coefficient matrix."""
        family = cls.__new__(cls)
        family._family = KWiseHashFamily.from_coefficients(coefficients, 2)
        return family

    @classmethod
    def from_hashes(cls, hashes: Sequence["SignHash"]) -> "SignHashFamily":
        """Stack already-constructed sign hashes."""
        family = cls.__new__(cls)
        family._family = KWiseHashFamily.from_hashes([h._hash for h in hashes])
        return family

    @classmethod
    def concatenate(cls, families: Sequence["SignHashFamily"]) -> "SignHashFamily":
        """Stack several same-``k`` sign families into one (for ensembles)."""
        family = cls.__new__(cls)
        family._family = KWiseHashFamily.concatenate([f._family for f in families])
        return family

    @property
    def size(self) -> int:
        """Number of member sign hashes."""
        return self._family.size

    @property
    def coefficients(self) -> np.ndarray:
        """The ``(F, k)`` ``uint64`` coefficient matrix."""
        return self._family.coefficients

    def sign_all(self, keys: np.ndarray) -> np.ndarray:
        """``(F, len(keys))`` table of ``{-1, +1}`` signs (int8)."""
        return _signs_from_bits(self._family.hash_all(keys))

    def table_key(self, universe: int, kind: str = "sign"):
        """The cache key of this family's full-universe sign table."""
        return self._family.table_key(universe, kind=kind)

    def sign_table(self, universe: int) -> np.ndarray:
        """The ``(F, universe)`` int8 sign table via the cache (read-only)."""
        return cached_table(
            self.table_key(universe),
            lambda: self.sign_all(np.arange(int(universe), dtype=np.int64)),
        )

    def sign_table_float(self, universe: int) -> np.ndarray:
        """The sign table cast to ``float64``, via the cache (own ``kind``).

        No library code calls it: the AMS kernels gather int8 signs from
        :meth:`sign_table` and cast after the gather.  It is kept only
        because the perfbench tracer patches this name by
        ``inspect.getattr_static``, which raises on a missing attribute.
        """
        return cached_table(
            self.table_key(universe, kind="sign-f8"),
            lambda: self.sign_all(
                np.arange(int(universe), dtype=np.int64)).astype(float),
        )

    # Aliases kept only for the perfbench tracer (see
    # ``KWiseHashFamily.hash_table_tensor``); no library code calls them.
    sign_table_tensor = sign_table
    sign_table_float_tensor = sign_table_float

    def sign_slice(self, start: int, stop: int, keys: np.ndarray) -> np.ndarray:
        """``sign_all(keys)`` restricted to members ``[start, stop)`` (int8)."""
        return _signs_from_bits(self._family.hash_slice(start, stop, keys))

    def sign_at(self, members: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Int8 sign of member ``members[j]`` at key ``keys[j]`` (see
        :meth:`KWiseHashFamily.hash_at`)."""
        return _signs_from_bits(self._family.hash_at(members, keys))

    def sign_blocks(self, universe: int, block: int | None = None,
                    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Stream the int8 sign table as ``(start, stop, chunk)`` triples."""
        for start, stop, bits in self._family.hash_blocks(universe, block):
            yield start, stop, _signs_from_bits(bits)


class PairwiseHash(KWiseHash):
    """Pairwise independent hash (``k = 2``), used for CountSketch buckets."""

    def __init__(self, range_size: int, seed: SeedLike = None) -> None:
        super().__init__(2, range_size, seed)


class SignHash:
    """A k-wise independent Rademacher sign hash ``sigma : Z -> {-1, +1}``.

    CountSketch needs 4-wise independent signs for its variance bound, and
    the AMS sketch needs 4-wise independent signs for the standard
    second-moment analysis; ``k`` defaults to 4.
    """

    def __init__(self, seed: SeedLike = None, k: int = 4) -> None:
        self._hash = KWiseHash(k, 2, seed)

    @property
    def k(self) -> int:
        """Independence level."""
        return self._hash.k

    def __call__(self, keys: int | np.ndarray) -> int | np.ndarray:
        bits = self._hash(keys)
        if np.isscalar(bits):
            return 1 if bits == 1 else -1
        return np.where(np.asarray(bits) == 1, 1, -1).astype(np.int64)


class UniformHash:
    """A hash to the unit interval ``[0, 1)`` with k-wise independent bits.

    Used by samplers that need per-item uniform variates that are
    reproducible across the stream (e.g. subsampling levels in the perfect
    ``L_0`` sampler): the same key always maps to the same variate.
    """

    _RESOLUTION = 1 << 53

    def __init__(self, seed: SeedLike = None, k: int = 2) -> None:
        self._hash = KWiseHash(k, self._RESOLUTION, seed)

    def __call__(self, keys: int | np.ndarray) -> float | np.ndarray:
        values = self._hash(keys)
        if np.isscalar(values):
            return float(values) / self._RESOLUTION
        return np.asarray(values, dtype=float) / self._RESOLUTION
