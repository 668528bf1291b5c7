"""Random-number-generator plumbing.

Every stochastic component of the library accepts either an integer seed or
an existing :class:`numpy.random.Generator`.  Centralising the conversion
here keeps experiments reproducible: a single root seed deterministically
derives every hash function, every exponential scaling variable, and every
rejection coin used in a run.

The paper's algorithms assume access to independent random variables per
coordinate (a "random oracle" prior to derandomisation).  We emulate that
oracle with :func:`derive_seed`, which hashes a root seed together with an
arbitrary key (for instance a coordinate index) into a fresh 64-bit seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_UINT64_MASK = (1 << 64) - 1

_SPLITMIX_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (uint64 in, uint64 out).

    This is the library's cheap counter-mixing kernel: a full-avalanche
    64-bit finaliser evaluated with a handful of vectorised numpy passes.
    The ``p``-stable coefficient oracle chains it per ``(seed, row, index)``
    cell and :func:`repro.applications.distributed.shard_assignment` uses it
    to hash whole universes of coordinates at array speed (the old path
    called the blake2b-based :func:`derive_seed` once per coordinate).

    Runs in place on a fresh copy — counter grids for replica ensembles are
    large, so the mixing is memory-bound and temporaries are reused.
    """
    values = np.array(values, dtype=np.uint64, copy=True)
    values += _SPLITMIX_GOLDEN
    scratch = values >> np.uint64(30)
    values ^= scratch
    values *= _SPLITMIX_MIX1
    np.right_shift(values, np.uint64(27), out=scratch)
    values ^= scratch
    values *= _SPLITMIX_MIX2
    np.right_shift(values, np.uint64(31), out=scratch)
    values ^= scratch
    return values


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def replica_seed(seed: SeedLike) -> SeedLike:
    """``seed``, with a numpy integer converted to a Python ``int``.

    Both seed a generator identically, but the generator keeps its seed
    and pickles it with its type, so the ensembles' ``from_seeds`` convert
    the seed arrays they are given: a pickle then does not depend on
    whether a seed arrived as ``int`` or as ``numpy.int64``.
    """
    return int(seed) if isinstance(seed, np.integer) else seed


def spawn_rng(seed: SeedLike, n_children: int) -> list[np.random.Generator]:
    """Spawn ``n_children`` statistically independent child generators.

    Children are derived through :meth:`numpy.random.SeedSequence.spawn`
    when an integer/None seed is supplied, and through ``generator.spawn``
    when a generator is supplied, so independent subsystems (for example the
    ``N`` parallel ``L_2`` samplers of Algorithm 1) never share a stream.
    """
    if n_children < 0:
        raise ValueError("n_children must be non-negative")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n_children))
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n_children)]


def derive_seed(root_seed: int, *keys: Union[int, str]) -> int:
    """Derive a deterministic 64-bit seed from ``root_seed`` and ``keys``.

    This provides the per-coordinate "random oracle" used to lazily generate
    exponential random variables: ``derive_seed(seed, i)`` always yields the
    same child seed for coordinate ``i`` regardless of the order in which
    coordinates are touched by the stream.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for key in keys:
        hasher.update(b"|")
        hasher.update(str(key).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little") & _UINT64_MASK


def oracle_rng(root_seed: int, *keys: Union[int, str]) -> np.random.Generator:
    """Return the generator of the random oracle cell addressed by ``keys``."""
    return np.random.default_rng(derive_seed(root_seed, *keys))


def random_seed_array(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` independent 63-bit seeds from ``rng`` as an int64 array."""
    return rng.integers(0, 2**63 - 1, size=size, dtype=np.int64)


def interleave_seeds(seeds: Iterable[int], salt: Optional[str] = None) -> int:
    """Combine several seeds (and an optional salt) into one derived seed."""
    hasher = hashlib.blake2b(digest_size=8)
    for seed in seeds:
        hasher.update(str(int(seed)).encode("utf-8"))
        hasher.update(b",")
    if salt is not None:
        hasher.update(salt.encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little") & _UINT64_MASK
