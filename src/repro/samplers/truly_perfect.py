"""Truly perfect ``G``-samplers for insertion-only streams.

These are the two insertion-only baselines of Table 1 that the paper's
turnstile samplers are contrasted against:

* :class:`TrulyPerfectGSampler` — the unit-decomposition rejection sampler in
  the spirit of [JWZ22].  For a monotone ``G`` with ``G(0) = 0`` it outputs a
  coordinate with probability *exactly* ``G(x_i) / sum_j G(x_j)`` (no
  ``1/poly(n)`` additive distortion at all), using a constant number of words
  per repetition and ``O(H ||x||_1 / G(X))`` repetitions in expectation.
* :class:`ExponentialRaceSampler` — an exponential-race sampler in the spirit
  of [PW25]: every unit of inserted mass joins a race with an exponentially
  distributed key whose rate is the increment ``G(r) - G(r-1)`` it
  contributes; the winner of the race is distributed exactly proportionally
  to ``G(x_i)`` by min-stability of exponentials.  The query-time state is two
  words (the winning key and its index).

Both samplers require the **insertion-only** model with integer increments —
exactly the restriction the paper highlights (truly perfect samplers are
impossible on turnstile streams [JWZ22]) — and neither produces an estimate
of the sampled value, again matching the remarks in Section 1.1.

Substitution note: [PW25] obtains the exponential race with
two machine words *total* by exploiting the Lévy-process structure of ``G``
in the random-oracle model.  Our simulation tracks the exact per-coordinate
levels (``O(support)`` auxiliary words) to compute the increment rates, which
preserves the output distribution and the single-pass structure; the
two-word query state is what :meth:`ExponentialRaceSampler.space_counters`
reports as ``sample_state_words``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError, StreamError
from repro.functions.base import GFunction, as_g_function
from repro.samplers.base import BatchUpdateMixin, Sample
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


def max_unit_increment(g: GFunction, max_value: float) -> float:
    """The largest one-unit increment ``G(r) - G(r-1)`` over ``r in [1, max_value]``.

    This is the normaliser ``H`` of the unit-level rejection step: for
    concave ``G`` (logarithm, cap, soft cap, M-estimators in the tail) the
    maximum is at ``r = 1``; for convex ``G`` (``|z|^p`` with ``p > 1``) it is
    at ``r = max_value``.  We evaluate the increments directly, which is
    exact for every monotone ``G`` in the library.
    """
    top = max(1, int(math.ceil(max_value)))
    levels = np.arange(0, top + 1, dtype=float)
    values = g.evaluate(levels)
    increments = np.diff(values)
    if np.any(increments < -1e-12):
        raise InvalidParameterError(f"{g.name} is not monotone on [0, {top}]")
    return float(increments.max(initial=0.0))


class _UnitReservoir:
    """Weighted reservoir over the units of ``L_1`` mass of an insertion-only stream.

    Keeps a uniformly random unit of the total inserted mass together with
    the number of units of the *same coordinate* that arrived after it (the
    "suffix count" ``R``).  Both quantities fit in a constant number of
    words and are exactly what the unit-level rejection step needs, because
    the suffix counts ``0, 1, ..., x_i - 1`` enumerate the units of
    coordinate ``i`` and the increments ``G(R+1) - G(R)`` telescope to
    ``G(x_i)``.
    """

    __slots__ = ("_rng", "total_mass", "index", "suffix_count")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.total_mass = 0
        self.index: Optional[int] = None
        self.suffix_count = 0

    def update(self, index: int, delta: int) -> None:
        if self.index == index:
            self.suffix_count += delta
        new_total = self.total_mass + delta
        # The sampled unit is replaced by one of the `delta` new units with
        # probability delta / new_total (standard weighted reservoir step).
        if self._rng.random() < delta / new_total:
            self.index = index
            # The replacement unit is uniform among the delta new units, so
            # the number of same-coordinate units arriving after it within
            # this update is uniform on {0, ..., delta - 1}.
            self.suffix_count = int(self._rng.integers(0, delta))
        self.total_mass = new_total


class TrulyPerfectGSampler(BatchUpdateMixin):
    """Truly perfect ``G``-sampler for insertion-only integer streams ([JWZ22]).

    Parameters
    ----------
    n:
        Universe size.
    g:
        A monotone :class:`~repro.functions.base.GFunction` (or bare
        callable) with ``G(0) = 0``.
    max_value:
        An a-priori bound on the largest coordinate magnitude, used to set
        the rejection normaliser ``H`` (the largest one-unit increment of
        ``G``).  Matching the paper, this plays the role of the stream
        length bound ``m``.
    num_repetitions:
        Number of independent unit reservoirs; each is a constant number of
        words.  The default targets a constant success probability when
        ``G(X) >= ||x||_1 * H / 8``; pass a larger value for slowly
        growing ``G`` on spread-out streams.
    seed:
        Root seed for the reservoirs and the rejection coins.
    """

    def __init__(self, n: int, g: GFunction, *, max_value: float,
                 num_repetitions: int | None = None, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        self._n = n
        self._g = as_g_function(g)
        if self._g(0.0) != 0.0:
            raise InvalidParameterError("truly perfect sampling requires G(0) = 0")
        if max_value < 1:
            raise InvalidParameterError("max_value must be at least 1")
        self._max_value = float(max_value)
        self._max_increment = max_unit_increment(self._g, max_value)
        if self._max_increment <= 0:
            raise InvalidParameterError("G has no positive increment; nothing to sample")
        rng = ensure_rng(seed)
        self._rng = rng
        if num_repetitions is None:
            num_repetitions = 64
        require_positive_int(num_repetitions, "num_repetitions")
        self._num_repetitions = num_repetitions
        self._reservoirs = [_UnitReservoir(child) for child in rng.spawn(num_repetitions)]
        self._num_updates = 0

    @property
    def num_repetitions(self) -> int:
        """Number of independent unit reservoirs maintained."""
        return self._num_repetitions

    @property
    def max_increment(self) -> float:
        """The rejection normaliser ``H`` (largest one-unit increment of ``G``)."""
        return self._max_increment

    def space_counters(self) -> int:
        """Words of state: three words per reservoir."""
        return 3 * self._num_repetitions

    def update(self, index: int, delta: float) -> None:
        """Process an insertion of ``delta`` (a positive integer) to ``index``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if delta <= 0:
            raise StreamError("truly perfect samplers require insertion-only streams")
        delta_int = int(round(delta))
        if abs(delta - delta_int) > 1e-9 or delta_int <= 0:
            raise StreamError("truly perfect samplers require positive integer increments")
        for reservoir in self._reservoirs:
            reservoir.update(index, delta_int)
        self._num_updates += 1

    # ``update_batch`` is the order-preserving scalar fallback from
    # BatchUpdateMixin: the unit reservoirs consume randomness per update,
    # so the batch must replay in stream order to stay exact.

    def sample(self) -> Optional[Sample]:
        """Return a truly perfect ``G``-sample, or ``None`` if every repetition rejects."""
        if self._num_updates == 0:
            return None
        for repetition, reservoir in enumerate(self._reservoirs):
            if reservoir.index is None:
                continue
            suffix = reservoir.suffix_count
            increment = self._g(float(suffix + 1)) - self._g(float(suffix))
            if increment < 0:
                raise InvalidParameterError(f"{self._g.name} is not monotone")
            acceptance = min(1.0, increment / self._max_increment)
            if self._rng.random() < acceptance:
                return Sample(
                    index=reservoir.index,
                    metadata={
                        "repetition": repetition,
                        "suffix_count": suffix,
                        "acceptance_probability": acceptance,
                    },
                )
        return None

    def target_distribution(self, vector: np.ndarray) -> np.ndarray:
        """The exact pmf ``G(x_i)/sum_j G(x_j)`` this sampler targets."""
        return self._g.target_distribution(np.asarray(vector, dtype=float))


class ExponentialRaceSampler(BatchUpdateMixin):
    """Exponential-race truly perfect ``G``-sampler for insertion-only streams ([PW25]).

    Every unit of inserted mass at coordinate ``i`` (raising its level from
    ``r - 1`` to ``r``) enters a race with an independent key distributed as
    ``Exp(G(r) - G(r-1))``.  The minimum key of coordinate ``i`` is then
    ``Exp(G(x_i))`` by min-stability, so the global winner is distributed
    exactly proportionally to ``G(x_i)``: a truly perfect sample that never
    fails (as long as the stream is non-empty and ``G`` gives it positive
    mass).

    Parameters
    ----------
    n:
        Universe size.
    g:
        Monotone :class:`~repro.functions.base.GFunction` with ``G(0) = 0``.
        The Lévy-exponent class of [PW25] (soft cap, ``log(1+z)``,
        ``z^p`` for ``p < 1``) is the headline use case, but any monotone
        ``G`` works in this simulation.
    seed:
        Root seed of the per-unit key oracle.
    """

    def __init__(self, n: int, g: GFunction, *, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        self._n = n
        self._g = as_g_function(g)
        if self._g(0.0) != 0.0:
            raise InvalidParameterError("the exponential race requires G(0) = 0")
        self._rng = ensure_rng(seed)
        self._levels: dict[int, int] = {}
        self._best_key = math.inf
        self._best_index: Optional[int] = None
        self._num_updates = 0

    @property
    def sample_state_words(self) -> int:
        """The two-word query state of the race (winning key + index)."""
        return 2

    def space_counters(self) -> int:
        """Auxiliary level-tracking words plus the two-word race state.

        The level tracker is this simulation's substitution (see the
        module docstring); [PW25] removes it for the Lévy class via
        random-oracle Lévy-process machinery.
        """
        return self.sample_state_words + len(self._levels)

    def update(self, index: int, delta: float) -> None:
        """Process an insertion of ``delta`` (positive integer) to ``index``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if delta <= 0:
            raise StreamError("the exponential race requires insertion-only streams")
        delta_int = int(round(delta))
        if abs(delta - delta_int) > 1e-9 or delta_int <= 0:
            raise StreamError("the exponential race requires positive integer increments")
        level = self._levels.get(index, 0)
        new_level = level + delta_int
        increment = self._g(float(new_level)) - self._g(float(level))
        if increment < 0:
            raise InvalidParameterError(f"{self._g.name} is not monotone")
        if increment > 0:
            # Exp(increment) is the minimum of the per-unit keys contributed
            # by this block of units, by min-stability.
            key = self._rng.exponential(1.0 / increment)
            if key < self._best_key:
                self._best_key = key
                self._best_index = index
        self._levels[index] = new_level
        self._num_updates += 1

    # ``update_batch`` is the order-preserving scalar fallback from
    # BatchUpdateMixin: each update draws an exponential race key, so the
    # batch must replay in stream order to keep the race reproducible.

    def sample(self) -> Optional[Sample]:
        """Return the winner of the race — a truly perfect ``G``-sample."""
        if self._best_index is None:
            return None
        return Sample(
            index=self._best_index,
            metadata={"winning_key": self._best_key},
        )

    def merge(self, other: "ExponentialRaceSampler") -> "ExponentialRaceSampler":
        """Merge two races over disjoint sub-streams (distributed sampling).

        The merge keeps the smaller winning key; it is exact when the two
        samplers processed disjoint portions of the stream (each coordinate's
        mass routed entirely to one sampler), which is the sharded setting of
        the distributed-databases application.
        """
        if other._n != self._n:
            raise InvalidParameterError("cannot merge races over different universes")
        merged = ExponentialRaceSampler(self._n, self._g, seed=self._rng)
        merged._levels = dict(self._levels)
        for index, level in other._levels.items():
            merged._levels[index] = merged._levels.get(index, 0) + level
        if self._best_key <= other._best_key:
            merged._best_key, merged._best_index = self._best_key, self._best_index
        else:
            merged._best_key, merged._best_index = other._best_key, other._best_index
        merged._num_updates = self._num_updates + other._num_updates
        return merged

    def target_distribution(self, vector: np.ndarray) -> np.ndarray:
        """The exact pmf ``G(x_i)/sum_j G(x_j)`` this sampler targets."""
        return self._g.target_distribution(np.asarray(vector, dtype=float))
