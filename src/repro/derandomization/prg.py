"""Seed-bounded pseudorandom generators for the derandomisation experiments.

The paper derandomises its samplers with two generator instantiations
(Section 3, following [JW18]): one fooling the CountSketch randomness
(Lemma 3.20) and one fooling the exponential scaling variables through the
half-space PRG of [GKM18] (Theorem 3.19).  Both constructions are about the
word-RAM bit model; in a NumPy simulation the honest substitute is a
*seed-bounded* generator whose entire output is a
deterministic function of an explicitly sized seed, so that experiments can
measure how the output distribution of a sampler degrades as the seed
shrinks.

* :class:`HashPRG` — counter-mode BLAKE2 generator: cell ``(key)`` of the
  oracle is a pure function of ``(seed, key)``; the seed length in bits is
  explicit and small.
* :class:`BlockPRG` — a Nisan-style block generator: an ``r``-bit seed per
  block plus a per-level hash family, included as the classical comparison
  point.
* :func:`exponential_from_prg`, :func:`signs_from_prg`,
  :func:`uniforms_from_prg` — adapters producing the random variables the
  samplers consume (exponentials, Rademacher signs, uniforms) from a PRG,
  so a sampler can be run "fully derandomised" end to end.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.validation import require_positive_int

_MANTISSA_BITS = 53
_MANTISSA_SCALE = float(1 << _MANTISSA_BITS)


class HashPRG:
    """Counter-mode hash generator with an explicit seed length.

    Parameters
    ----------
    seed_bits:
        Number of seed bits; the seed itself is drawn once from
        ``numpy.random`` (or passed explicitly) and truncated to this many
        bits, so two generators with the same ``(seed, seed_bits)`` agree on
        every cell.
    seed:
        Explicit integer seed (truncated to ``seed_bits``); ``None`` draws
        one from fresh entropy.
    """

    def __init__(self, seed_bits: int = 64, seed: int | None = None) -> None:
        require_positive_int(seed_bits, "seed_bits")
        if seed_bits > 512:
            raise InvalidParameterError("seed_bits above 512 is not meaningful for BLAKE2")
        self._seed_bits = seed_bits
        if seed is None:
            seed = int(np.random.default_rng().integers(0, 2**62))
        self._seed = int(seed) & ((1 << seed_bits) - 1)

    @property
    def seed_bits(self) -> int:
        """The declared seed length in bits."""
        return self._seed_bits

    @property
    def seed(self) -> int:
        """The (truncated) seed value."""
        return self._seed

    def seed_length_words(self) -> int:
        """Seed length in 64-bit words (the unit of the space model)."""
        return max(1, math.ceil(self._seed_bits / 64))

    def cell(self, *keys: int | str) -> int:
        """The 64-bit pseudorandom cell addressed by ``keys``."""
        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(self._seed.to_bytes(64, "little", signed=False))
        hasher.update(str(self._seed_bits).encode("utf-8"))
        for key in keys:
            hasher.update(b"|")
            hasher.update(str(key).encode("utf-8"))
        return int.from_bytes(hasher.digest(), "little")

    def uniform(self, *keys: int | str) -> float:
        """A uniform variate in ``[0, 1)`` addressed by ``keys``."""
        return (self.cell(*keys) >> (64 - _MANTISSA_BITS)) / _MANTISSA_SCALE

    def uniforms(self, count: int, *keys: int | str) -> np.ndarray:
        """``count`` uniform variates addressed by ``keys`` and a counter."""
        require_positive_int(count, "count")
        return np.asarray([self.uniform(*keys, counter) for counter in range(count)])


class BlockPRG:
    """Nisan-style block generator: ``num_blocks`` blocks from a short seed.

    The classical space-bounded PRG stretches a seed of
    ``O(block_bits * num_levels)`` bits into ``num_blocks * block_bits``
    pseudorandom bits by repeated hashing; this implementation mirrors the
    recursion shape (each level halves the number of missing blocks) while
    using BLAKE2 as the per-level hash family.  Its purpose in the library
    is purely comparative: benchmark E16 contrasts its seed length against
    the :class:`HashPRG` the samplers actually use.

    Parameters
    ----------
    num_blocks:
        Number of output blocks (rounded up to a power of two internally).
    block_bits:
        Bits per output block.
    seed:
        Integer seed; ``None`` draws one from fresh entropy.
    """

    def __init__(self, num_blocks: int, block_bits: int = 64, seed: int | None = None) -> None:
        require_positive_int(num_blocks, "num_blocks")
        require_positive_int(block_bits, "block_bits")
        self._num_blocks = num_blocks
        self._block_bits = block_bits
        self._num_levels = max(1, math.ceil(math.log2(num_blocks))) if num_blocks > 1 else 1
        if seed is None:
            seed = int(np.random.default_rng().integers(0, 2**62))
        self._seed = int(seed)

    @property
    def num_levels(self) -> int:
        """Depth of the recursion (``ceil(log2(num_blocks))``)."""
        return self._num_levels

    def seed_length_bits(self) -> int:
        """Seed length of the construction: one block plus one hash key per level."""
        return self._block_bits * (1 + 2 * self._num_levels)

    def seed_length_words(self) -> int:
        """Seed length in 64-bit words."""
        return max(1, math.ceil(self.seed_length_bits() / 64))

    def block(self, index: int) -> int:
        """The ``index``-th output block, derived through the level hashes."""
        if not (0 <= index < self._num_blocks):
            raise InvalidParameterError(
                f"block index {index} outside [0, {self._num_blocks})"
            )
        # Walk the recursion tree: at each level the block inherits the seed
        # block and is refreshed by that level's hash keyed with the branch
        # bit, mirroring Nisan's G(x, h_1..h_k) construction.
        value = self._seed
        for level in range(self._num_levels):
            branch_bit = (index >> level) & 1
            hasher = hashlib.blake2b(digest_size=8)
            hasher.update(value.to_bytes(16, "little", signed=False))
            hasher.update(bytes([branch_bit]))
            hasher.update(level.to_bytes(2, "little"))
            hasher.update(self._seed.to_bytes(16, "little", signed=False))
            value = int.from_bytes(hasher.digest(), "little")
        mask = (1 << self._block_bits) - 1
        return value & mask

    def uniform(self, index: int) -> float:
        """Block ``index`` mapped to a uniform variate in ``[0, 1)``."""
        return self.block(index) / float(1 << self._block_bits)


def uniforms_from_prg(prg: HashPRG, count: int, *keys: int | str) -> np.ndarray:
    """``count`` uniforms in ``(0, 1)`` from a :class:`HashPRG` cell family."""
    values = prg.uniforms(count, *keys)
    return np.clip(values, 1e-15, 1.0 - 1e-15)


def exponential_from_prg(prg: HashPRG, count: int, *keys: int | str) -> np.ndarray:
    """``count`` standard exponential variates via inverse-CDF from the PRG."""
    return -np.log1p(-uniforms_from_prg(prg, count, *keys))


def signs_from_prg(prg: HashPRG, count: int, *keys: int | str) -> np.ndarray:
    """``count`` Rademacher signs from the PRG."""
    return np.where(uniforms_from_prg(prg, count, *keys) < 0.5, -1.0, 1.0)


def seed_length_bound(n: int, epsilon: float, num_testers: int = 1) -> int:
    """The Theorem 3.19 seed-length bound ``O(lambda log(nM/eps) (log log nM/eps)^2)``.

    Returned in bits with the constant set to one, so experiments can place
    the simulated generators' seed lengths on the theorem's scale.
    """
    require_positive_int(n, "n")
    if not (0 < epsilon < 1):
        raise InvalidParameterError("epsilon must lie in (0, 1)")
    require_positive_int(num_testers, "num_testers")
    log_term = math.log2(max(2.0, n / epsilon))
    return int(math.ceil(num_testers * log_term * max(1.0, math.log2(log_term)) ** 2))


def empirical_distribution_shift(samples_true: Sequence[int],
                                 samples_prg: Sequence[int], n: int) -> float:
    """Total variation distance between sample histograms (true vs derandomised)."""
    require_positive_int(n, "n")
    true_counts = np.bincount(np.asarray(list(samples_true), dtype=np.int64), minlength=n)
    prg_counts = np.bincount(np.asarray(list(samples_prg), dtype=np.int64), minlength=n)
    if true_counts.sum() == 0 or prg_counts.sum() == 0:
        raise InvalidParameterError("both sample sets must be non-empty")
    true_pmf = true_counts / true_counts.sum()
    prg_pmf = prg_counts / prg_counts.sum()
    return float(0.5 * np.abs(true_pmf - prg_pmf).sum())
