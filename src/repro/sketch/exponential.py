"""Exponential random variables, max-stability scaling, and anti-ranks.

The backbone of every sampler in the paper is the max-stability property of
exponential random variables (Lemma 1.16): if ``e_1, ..., e_n`` are i.i.d.
standard exponentials and ``z_i = x_i / e_i^{1/p}``, then

    ``Pr[argmax_i |z_i| = i] = |x_i|^p / ||x||_p^p``

and ``max_i |z_i| = ||x||_p / e^{1/p}`` for a fresh standard exponential
``e``.  This module packages that machinery:

* :class:`ExponentialScaler` — a per-coordinate exponential scaling that can
  be applied lazily to stream updates (a "random oracle" keyed by
  coordinate), including the duplicated variant of Section 3 where each
  coordinate conceptually owns ``n^c`` copies and only the maximum matters.
* :func:`anti_rank_vector` — the anti-rank permutation ``D(1), ..., D(n)``.
* Helpers implementing the distributional identities of Propositions
  1.12-1.15 that tests verify empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


def sample_exponentials(n: int, rng: np.random.Generator, rate: float = 1.0) -> np.ndarray:
    """Draw ``n`` independent exponential variables with the given rate."""
    require_positive_int(n, "n")
    if rate <= 0:
        raise InvalidParameterError("rate must be positive")
    return rng.exponential(scale=1.0 / rate, size=n)


def scale_vector(vector: np.ndarray, exponentials: np.ndarray, p: float) -> np.ndarray:
    """The scaled vector ``z_i = x_i / e_i^{1/p}`` of Lemma 1.16."""
    vector = np.asarray(vector, dtype=float)
    exponentials = np.asarray(exponentials, dtype=float)
    if vector.shape != exponentials.shape:
        raise InvalidParameterError("vector and exponentials must have the same shape")
    if p <= 0:
        raise InvalidParameterError("p must be positive")
    if np.any(exponentials <= 0):
        raise InvalidParameterError("exponential variables must be positive")
    return vector / exponentials ** (1.0 / p)


def anti_rank_vector(scaled: np.ndarray) -> np.ndarray:
    """Anti-rank permutation: indices sorted by decreasing ``|z_i|``.

    ``anti_rank_vector(z)[k-1]`` is the paper's ``D(k)``.
    """
    scaled = np.asarray(scaled, dtype=float)
    return np.argsort(-np.abs(scaled), kind="stable")


def argmax_scaled(vector: np.ndarray, exponentials: np.ndarray, p: float) -> int:
    """Index of the maximum-magnitude scaled coordinate (a perfect L_p draw)."""
    return int(np.argmax(np.abs(scale_vector(vector, exponentials, p))))


def max_stability_maximum(vector: np.ndarray, p: float, rng: np.random.Generator) -> float:
    """Draw ``max_i |z_i|``, distributed as ``||x||_p / e^{1/p}`` (Lemma 1.16)."""
    vector = np.asarray(vector, dtype=float)
    exponentials = sample_exponentials(len(vector), rng)
    return float(np.max(np.abs(scale_vector(vector, exponentials, p))))


@dataclass(frozen=True)
class ScaledCoordinate:
    """A coordinate's lazily generated scale factors.

    Attributes
    ----------
    inverse_scale:
        ``1 / e_i^{1/p}`` — the factor every update to coordinate ``i`` is
        multiplied by before entering the sketch of the scaled vector.
    duplication_boost:
        ``n^{c/p}``-style boost coming from taking the maximum over the
        conceptual ``duplication ** 1`` copies (see
        :class:`ExponentialScaler`); equals one when duplication is one.
    """

    inverse_scale: float
    duplication_boost: float

    @property
    def combined(self) -> float:
        """The full multiplier applied to the coordinate."""
        return self.inverse_scale * self.duplication_boost


class ExponentialScaler:
    """Per-coordinate exponential scaling with optional duplication.

    The scaler assigns to every coordinate ``i`` an exponential variable
    ``e_i`` (drawn lazily from a seeded per-coordinate generator so that the
    same coordinate always receives the same variable, as a random oracle
    would) and exposes the multiplier ``1 / e_i^{1/p}``.

    With ``duplication = K > 1`` the scaler simulates the Section 3 device of
    duplicating each coordinate ``K`` times and keeping only the maximum
    scaled copy: by max-stability the maximum of ``K`` i.i.d. copies of
    ``x_i / e^{1/p}`` is distributed as ``K^{1/p} x_i / e^{1/p}``, so the
    scaler multiplies by ``K^{1/p}`` and records which conceptual copy
    attained the maximum only when residuals are requested explicitly.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order of the target sampler.
    seed:
        Root seed of the per-coordinate oracle.
    duplication:
        Number of conceptual copies per coordinate (``n^c`` for a constant
        ``c`` in the paper; a parameter here, so experiments can vary it).
    """

    def __init__(self, n: int, p: float, seed: SeedLike = None, duplication: int = 1) -> None:
        require_positive_int(n, "n")
        require_positive_int(duplication, "duplication")
        if p <= 0:
            raise InvalidParameterError("p must be positive")
        self._n = n
        self._p = float(p)
        self._duplication = duplication
        rng = ensure_rng(seed)
        self._root_seed = int(rng.integers(0, 2**63 - 1))
        self._cache: dict[int, float] = {}

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    @property
    def duplication(self) -> int:
        """Number of conceptual copies per coordinate."""
        return self._duplication

    def exponential(self, index: int) -> float:
        """The (maximum-copy) exponential variable assigned to ``index``.

        With duplication ``K`` this is the *minimum* of ``K`` i.i.d.
        exponentials (because the maximum scaled copy corresponds to the
        minimum exponential), which is itself exponential with rate ``K``.
        """
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self._root_seed, index))
        value = float(rng.exponential(scale=1.0 / self._duplication))
        self._cache[index] = value
        return value

    def coordinate(self, index: int) -> ScaledCoordinate:
        """The scaling factors of coordinate ``index``."""
        exponential = self.exponential(index)
        return ScaledCoordinate(
            inverse_scale=exponential ** (-1.0 / self._p),
            duplication_boost=1.0,
        )

    def multiplier(self, index: int) -> float:
        """The multiplier ``1 / e_i^{1/p}`` applied to updates of ``index``."""
        return self.coordinate(index).combined

    def multipliers(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`multiplier` over an index array."""
        return np.asarray([self.multiplier(int(index)) for index in np.asarray(indices)])

    def scale_full_vector(self, vector: np.ndarray) -> np.ndarray:
        """Scale a full frequency vector coordinate-wise."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._n,):
            raise InvalidParameterError("vector shape must match the universe size")
        factors = self.multipliers(np.arange(self._n))
        return vector * factors

    def residual_multipliers(self, index: int, count: int) -> np.ndarray:
        """Multipliers of ``count`` non-maximum duplicated copies of ``index``.

        Used by the two-stage CountSketch of Algorithm 4: the second stage
        sketches the duplicated scaled vector with the per-coordinate maxima
        removed.  Conditioned on the maximum copy, the remaining copies'
        exponentials are i.i.d. exponentials truncated below by the
        maximum's value; we draw them from the coordinate's oracle stream so
        repeated calls are consistent.
        """
        if count < 0:
            raise InvalidParameterError("count must be non-negative")
        if count == 0:
            return np.asarray([])
        rng = np.random.default_rng((self._root_seed, index, 1))
        floor = self.exponential(index)
        # Conditional on the minimum being `floor`, the other copies are
        # i.i.d. Exp(1) shifted above `floor` (memorylessness).
        residual_exponentials = floor + rng.exponential(scale=1.0, size=count)
        return residual_exponentials ** (-1.0 / self._p)


def top_two_gap(scaled: np.ndarray) -> tuple[int, float]:
    """Index of the maximum scaled coordinate and its gap to the runner-up."""
    scaled = np.abs(np.asarray(scaled, dtype=float))
    if scaled.size < 2:
        raise InvalidParameterError("need at least two coordinates to compute a gap")
    order = np.argsort(-scaled)
    return int(order[0]), float(scaled[order[0]] - scaled[order[1]])


def heaviness_ratio(scaled: np.ndarray) -> float:
    """``max_i z_i^2 / ||z||_2^2`` — the quantity bounded by Lemma 1.17."""
    scaled = np.asarray(scaled, dtype=float)
    squares = scaled**2
    total = squares.sum()
    if total == 0:
        raise InvalidParameterError("scaled vector must be non-zero")
    return float(squares.max() / total)
