"""Duplication and fast-update machinery of Algorithm 4 (Section 3).

Algorithm 4 conceptually duplicates every coordinate ``n^c`` times, scales
each copy by an independent inverse exponential ``1/e^{1/p}``, and rounds the
scale factors down to powers of ``(1 + eta)`` (``rnd_eta``).  Materialising
``n^c`` copies per update is hopeless, and the paper's fast-update scheme
avoids it by exploiting two facts:

* the *multiset* of rounded scale factors of a coordinate is fully described
  by the counts ``D_q`` of copies landing on each support value
  ``I_q = (1+eta)^q``, and ``D_q ~ Binomial(duplication, p_q)`` where ``p_q``
  is the probability an inverse exponential rounds to ``I_q``;
* the contribution of those copies to a CountSketch bucket is a *signed
  count* times ``I_q``, and the signed count of ``a`` Rademacher signs is
  distributed as ``2 * Binomial(a, 1/2) - a``.

:class:`DiscretizedDuplication` draws the per-coordinate count profile (from
a seeded per-coordinate oracle, so the same coordinate always produces the
same profile regardless of how many updates touch it), either through the
fast binomial path or through explicit enumeration of the copies (the slow
path used as a ground-truth ablation and in the update-time benchmark E9).

:class:`FastUpdateState` converts a count profile into a fixed sparse set of
per-(row, bucket) coefficients for the second-stage CountSketch, so that
each stream update to coordinate ``i`` costs ``O(rows * support(eta))``
regardless of the duplication parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.batching import aggregate_scatter
from repro.utils.rounding import DiscretizedSupport, discretize_support
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class CoordinateProfile:
    """The duplication profile of one coordinate.

    Attributes
    ----------
    max_factor:
        ``rnd_eta`` value of the largest scale factor among the copies —
        the multiplier of the coordinate in the first-stage CountSketch.
    residual_values:
        Support values ``I_q`` that hold at least one *non-maximum* copy.
    residual_counts:
        Number of non-maximum copies on each of those support values.
    """

    max_factor: float
    residual_values: np.ndarray
    residual_counts: np.ndarray

    @property
    def residual_l2(self) -> float:
        """``sqrt(sum_q count_q * I_q^2)`` — the residual copies' L2 scale."""
        return float(np.sqrt(np.sum(self.residual_counts * self.residual_values**2)))

    @property
    def total_copies(self) -> int:
        """Total number of copies represented (including the maximum)."""
        return int(self.residual_counts.sum()) + 1


class DiscretizedDuplication:
    """Per-coordinate duplicated, discretised exponential scale factors.

    Parameters
    ----------
    p:
        Moment order of the sampler the duplication serves.
    eta:
        ``rnd_eta`` discretisation parameter (the paper uses
        ``eta = O(epsilon)/sqrt(log n)``).
    duplication:
        Number of conceptual copies per coordinate (``n^c`` for a constant
        ``c`` in the paper; a parameter here, so experiments can vary it).
    dynamic_range:
        Bound ``R`` such that all scale factors of interest lie within
        ``[1/R, R]``; factors outside clamp to the boundary.
    seed:
        Root seed of the per-coordinate oracle.
    """

    def __init__(self, p: float, eta: float, duplication: int,
                 dynamic_range: float = 1e6, seed: SeedLike = None) -> None:
        if p <= 0:
            raise InvalidParameterError("p must be positive")
        require_positive_int(duplication, "duplication")
        self._p = float(p)
        self._duplication = duplication
        self._support: DiscretizedSupport = discretize_support(eta, dynamic_range)
        rng = ensure_rng(seed)
        self._root_seed = int(rng.integers(0, 2**63 - 1))
        self._landing_probabilities = self._compute_landing_probabilities()
        self._profile_cache: dict[int, CoordinateProfile] = {}

    @property
    def support(self) -> DiscretizedSupport:
        """The discretised support of ``rnd_eta(1/e^{1/p})``."""
        return self._support

    @property
    def duplication(self) -> int:
        """Number of conceptual copies per coordinate."""
        return self._duplication

    @property
    def landing_probabilities(self) -> np.ndarray:
        """``p_q``: probability a single copy rounds to support value ``I_q``."""
        return self._landing_probabilities.copy()

    def _compute_landing_probabilities(self) -> np.ndarray:
        """Distribution of ``rnd_eta(1/e^{1/p})`` over the truncated support.

        For ``V = e^{-1/p}`` with ``e ~ Exp(1)`` the cdf is
        ``P[V <= v] = exp(-v^{-p})``; a copy rounds to ``I_q`` when
        ``V in [I_q, I_{q+1})``.  Mass below the support floor is folded into
        the first cell and mass above the ceiling into the last cell,
        mirroring the truncation of the dynamic range.
        """
        values = self._support.values
        upper = np.empty_like(values)
        upper[:-1] = values[1:]
        upper[-1] = np.inf

        def cdf(v: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", over="ignore"):
                return np.exp(-np.power(v, -self._p))

        lower_cdf = cdf(values)
        upper_cdf = np.where(np.isinf(upper), 1.0, cdf(upper))
        probabilities = upper_cdf - lower_cdf
        # Fold the truncated tails.
        probabilities[0] += lower_cdf[0]
        probabilities = np.clip(probabilities, 0.0, 1.0)
        total = probabilities.sum()
        if total <= 0:
            raise InvalidParameterError("landing probabilities degenerate; check eta/range")
        return probabilities / total

    # ------------------------------------------------------------------ #
    # Per-coordinate profiles
    # ------------------------------------------------------------------ #
    def _fast_counts(self, rng: np.random.Generator) -> np.ndarray:
        """Counts over the support via one multinomial draw (fast update)."""
        return rng.multinomial(self._duplication, self._landing_probabilities)

    def _explicit_counts(self, rng: np.random.Generator) -> np.ndarray:
        """Counts via explicit enumeration of every copy (slow path)."""
        exponentials = rng.exponential(size=self._duplication)
        factors = exponentials ** (-1.0 / self._p)
        counts = np.zeros(len(self._support), dtype=np.int64)
        for factor in factors:
            counts[self._support.index_of(float(factor))] += 1
        return counts

    def profile(self, index: int, fast: bool = True) -> CoordinateProfile:
        """The (cached) duplication profile of coordinate ``index``."""
        cached = self._profile_cache.get(index)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self._root_seed, index))
        counts = self._fast_counts(rng) if fast else self._explicit_counts(rng)
        nonzero = np.flatnonzero(counts)
        if nonzero.size == 0:
            # Degenerate (duplication = 0 cannot happen; all mass truncated).
            max_index = 0
            residual_values = np.asarray([])
            residual_counts = np.asarray([], dtype=np.int64)
        else:
            max_index = int(nonzero[-1])
            residual = counts.copy()
            residual[max_index] -= 1
            keep = np.flatnonzero(residual)
            residual_values = self._support.values[keep]
            residual_counts = residual[keep]
        profile = CoordinateProfile(
            max_factor=float(self._support.values[max_index]),
            residual_values=residual_values,
            residual_counts=residual_counts,
        )
        self._profile_cache[index] = profile
        return profile

    def max_factor(self, index: int, fast: bool = True) -> float:
        """The first-stage multiplier of coordinate ``index``."""
        return self.profile(index, fast=fast).max_factor


class FastUpdateState:
    """Sparse per-coordinate coefficients for the second-stage CountSketch.

    The second-stage table of Algorithm 4 conceptually has
    ``(n * duplication)^{1 - 2/p}`` buckets per row, but only the first
    ``buckets`` of them are materialised — residual copies hashing anywhere
    else are simply discarded (line 10 of Algorithm 4).  For a coordinate
    with residual copy counts ``{I_q: a_q}``, the kept copies' contribution
    to a materialised bucket ``(row, bucket)`` is
    ``delta * sum_q I_q * S_{q,row,bucket}`` where ``S`` is the net sign of
    the kept copies of value ``I_q`` hashed to that bucket.  The number of
    kept copies is ``Binomial(a_q, buckets / conceptual_buckets)``, their
    allocation is multinomial over the materialised buckets, and the net
    signs are ``2 * Binomial(a, 1/2) - a`` — all fixed once per coordinate,
    drawn lazily from a seeded oracle, and collapsed into a sparse
    coefficient list reused by every subsequent update of the coordinate.
    """

    def __init__(self, duplication: DiscretizedDuplication, rows: int, buckets: int,
                 seed: SeedLike = None, fast: bool = True,
                 conceptual_buckets: int | None = None) -> None:
        require_positive_int(rows, "rows")
        require_positive_int(buckets, "buckets")
        self._duplication = duplication
        self._rows = rows
        self._buckets = buckets
        if conceptual_buckets is None:
            conceptual_buckets = buckets
        require_positive_int(conceptual_buckets, "conceptual_buckets")
        if conceptual_buckets < buckets:
            raise InvalidParameterError(
                "conceptual_buckets cannot be smaller than the materialised buckets"
            )
        self._conceptual_buckets = conceptual_buckets
        self._keep_probability = buckets / conceptual_buckets
        self._fast = fast
        rng = ensure_rng(seed)
        self._root_seed = int(rng.integers(0, 2**63 - 1))
        self._coefficients_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the target table."""
        return (self._rows, self._buckets)

    def coefficients(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, buckets, coefficients)`` arrays for coordinate ``index``.

        ``table[rows[k], buckets[k]] += delta * coefficients[k]`` applies the
        coordinate's full residual contribution for a stream update of size
        ``delta``.
        """
        cached = self._coefficients_cache.get(index)
        if cached is not None:
            return cached
        profile = self._duplication.profile(index, fast=self._fast)
        rng = np.random.default_rng((self._root_seed, index))
        coefficient_map: dict[tuple[int, int], float] = {}
        for value, count in zip(profile.residual_values, profile.residual_counts):
            count = int(count)
            if count == 0:
                continue
            for row in range(self._rows):
                kept = int(rng.binomial(count, self._keep_probability)) \
                    if self._keep_probability < 1.0 else count
                if kept == 0:
                    continue
                allocation = rng.multinomial(kept, np.full(self._buckets, 1.0 / self._buckets))
                occupied = np.flatnonzero(allocation)
                for bucket in occupied:
                    copies_here = int(allocation[bucket])
                    positives = rng.binomial(copies_here, 0.5)
                    net_sign = 2 * positives - copies_here
                    if net_sign == 0:
                        continue
                    key = (row, int(bucket))
                    coefficient_map[key] = coefficient_map.get(key, 0.0) + net_sign * float(value)
        if coefficient_map:
            keys = np.asarray(list(coefficient_map.keys()), dtype=np.int64)
            rows = keys[:, 0]
            buckets = keys[:, 1]
            coefficients = np.asarray(list(coefficient_map.values()), dtype=float)
        else:
            rows = np.asarray([], dtype=np.int64)
            buckets = np.asarray([], dtype=np.int64)
            coefficients = np.asarray([], dtype=float)
        result = (rows, buckets, coefficients)
        self._coefficients_cache[index] = result
        return result

    def apply_update(self, table: np.ndarray, index: int, delta: float) -> None:
        """Add the residual contribution of one stream update to ``table``."""
        if table.shape != (self._rows, self._buckets):
            raise InvalidParameterError("table shape does not match the fast-update state")
        rows, buckets, coefficients = self.coefficients(index)
        if rows.size:
            np.add.at(table, (rows, buckets), delta * coefficients)

    def apply_update_batch(self, table: np.ndarray, indices: np.ndarray,
                           deltas: np.ndarray) -> None:
        """Add the residual contributions of a whole batch to ``table``.

        Repeated coordinates are aggregated first (the residual table is a
        linear function of the stream), the cached sparse coefficient lists
        of the distinct coordinates are concatenated, and the whole batch
        lands in one ``np.add.at`` scatter.
        """
        if table.shape != (self._rows, self._buckets):
            raise InvalidParameterError("table shape does not match the fast-update state")
        indices = np.asarray(indices, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=float)
        if indices.size == 0:
            return
        scatter = aggregate_scatter(indices, deltas, self.coefficients)
        if scatter is not None:
            rows, buckets, values = scatter
            np.add.at(table, (rows, buckets), values)

    def residual_l2_scale(self, index: int) -> float:
        """L2 scale of the coordinate's residual copies (for norm estimation)."""
        return self._duplication.profile(index, fast=self._fast).residual_l2


def default_eta(epsilon: float, n: int) -> float:
    """The paper's discretisation choice ``eta = O(epsilon) / sqrt(log n)``."""
    if not (0 < epsilon < 1):
        raise InvalidParameterError("epsilon must lie in (0, 1)")
    return float(epsilon / max(1.0, math.sqrt(math.log2(max(n, 4)))))
