"""Algorithm 5: moment estimation for a post-stream query subset (Theorem 1.6).

The task: process a turnstile stream over ``[0, n)``, then receive a query
set ``Q`` (a range query, an iceberg query, or the complement of a set of
"right to be forgotten" requests) and output a ``(1 + eps)``-approximation
of ``||x_Q||_p^p = sum_{i in Q} |x_i|^p``, assuming ``||x_Q||_p^p`` holds at
least an ``alpha``-fraction of the total moment.

The estimator pairs an ``L_p`` sampler with an unbiased ``F_p`` estimator
(Ganguly's estimator, Theorem 5.1 — realised here by
:class:`~repro.sketch.fp_estimator.MaxStabilityFpEstimator`):

    for each repetition ``r``:   draw ``i_r`` ~ L_p(x),   C_r = unbiased F̂_p
    output  Z = (1/R) * sum_{r : i_r in Q} C_r.

``E[Z] = ||x_Q||_p^p`` (up to the sampler's additive slack) and
``Var[Z] <= ||x_Q||_p^p * ||x||_p^p / R``, so ``R = O(1/(alpha eps^2))``
repetitions give the ``(1 + eps)`` guarantee — a full ``1/alpha`` factor
less space than the naive CountSketch approach, which is implemented as
:class:`CountSketchSubsetBaseline` for the comparison experiment E6.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.perfect_lp_general import make_perfect_lp_sampler
from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.samplers.base import BatchUpdateMixin, coerce_batch
from repro.sketch.countsketch import CountSketch
from repro.sketch.fp_estimator import MaxStabilityFpEstimator
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.validation import (
    require_in_open_interval,
    require_moment_order,
    require_positive_int,
)


class SubsetMomentEstimator(BatchUpdateMixin):
    """``(1 + eps)``-approximation of ``||x_Q||_p^p`` for a post-stream ``Q``.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order, ``p > 2``.
    epsilon:
        Target relative error.
    alpha:
        Assumed lower bound on ``||x_Q||_p^p / ||x||_p^p``; drives the
        number of repetitions ``R = O(1/(alpha * eps^2))``.
    repetitions:
        Overrides the default ``R``.
    sampler_backend:
        ``"oracle"`` or ``"sketch"`` — backend of the per-repetition perfect
        ``L_p`` samplers (see the backends of :mod:`repro.core.lp_base`);
        the ``F_p`` estimators are always honest sketches unless
        ``estimator_exact_recovery`` is set.
    repetition_constant:
        The constant in ``R = ceil(constant / (alpha * eps^2))``.
    """

    def __init__(self, n: int, p: float, epsilon: float, alpha: float, *,
                 seed: SeedLike = None, repetitions: int | None = None,
                 sampler_backend: str = "oracle",
                 estimator_exact_recovery: bool = False,
                 fp_repetitions: int = 60,
                 repetition_constant: float = 4.0) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=2.0)
        require_in_open_interval(epsilon, "epsilon", 0.0, 1.0)
        require_in_open_interval(alpha, "alpha", 0.0, 1.0 + 1e-12)
        self._n = n
        self._p = float(p)
        self._epsilon = float(epsilon)
        self._alpha = float(alpha)
        rng = ensure_rng(seed)
        if repetitions is None:
            repetitions = int(math.ceil(repetition_constant / (alpha * epsilon**2)))
        require_positive_int(repetitions, "repetitions")
        self._repetitions = repetitions

        sampler_seeds = random_seed_array(rng, repetitions)
        estimator_seeds = random_seed_array(rng, repetitions)
        # The analysis assumes (near-)perfect samplers whose failure
        # probability is negligible; a failed repetition contributes zero and
        # would bias the estimate downward, so the per-repetition samplers
        # are configured with a small failure probability and additionally
        # retried at query time.
        self._samplers = [
            make_perfect_lp_sampler(n, p, int(seed_value), backend=sampler_backend,
                                    failure_probability=0.02)
            for seed_value in sampler_seeds
        ]
        self._estimators = [
            MaxStabilityFpEstimator(
                n, p, repetitions=fp_repetitions, seed=int(seed_value),
                exact_recovery=estimator_exact_recovery,
            )
            for seed_value in estimator_seeds
        ]
        self._num_updates = 0

    @property
    def repetitions(self) -> int:
        """Number of (sampler, estimator) repetitions ``R``."""
        return self._repetitions

    def space_counters(self) -> int:
        """Stored counters across all repetitions."""
        total = sum(sampler.space_counters() for sampler in self._samplers)
        total += sum(estimator.space_counters() for estimator in self._estimators)
        return total

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update to every repetition."""
        for sampler in self._samplers:
            sampler.update(index, delta)
        for estimator in self._estimators:
            estimator.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch to every repetition (vectorised per structure)."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        for sampler in self._samplers:
            sampler.update_batch(indices, deltas)
        for estimator in self._estimators:
            estimator.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Post-stream query
    # ------------------------------------------------------------------ #
    def estimate(self, query_set: Sequence[int]) -> float:
        """Estimate ``||x_Q||_p^p`` for the post-stream query set ``Q``.

        Repetitions whose sampler reported ``FAIL`` contribute zero, exactly
        as a failed sample falling outside ``Q`` would; with perfect
        samplers the failure probability is ``1/poly(n)`` so the induced
        bias is negligible.
        """
        if self._num_updates == 0:
            raise SamplerStateError("estimator queried before any update")
        members = set(int(index) for index in query_set)
        if any(index < 0 or index >= self._n for index in members):
            raise InvalidParameterError("query set contains indices outside the universe")
        total = 0.0
        successes = 0
        for sampler, estimator in zip(self._samplers, self._estimators):
            drawn = None
            for _attempt in range(3):
                drawn = sampler.sample()
                if drawn is not None:
                    break
            if drawn is None:
                continue
            successes += 1
            if drawn.index in members:
                total += estimator.estimate()
        if successes == 0:
            raise SamplerStateError("every repetition's sampler failed")
        return total / self._repetitions

    def estimate_complement(self, forget_set: Sequence[int]) -> float:
        """Estimate the moment of the *retained* coordinates.

        Convenience wrapper for the right-to-be-forgotten workload: the
        caller passes the forget requests and the estimator queries their
        complement.
        """
        forgotten = set(int(index) for index in forget_set)
        retained = [index for index in range(self._n) if index not in forgotten]
        return self.estimate(retained)


class CountSketchSubsetBaseline(BatchUpdateMixin):
    """The naive CountSketch baseline Theorem 1.6 is compared against.

    Maintain a single CountSketch of the stream; at query time estimate
    every coordinate of ``Q`` individually and sum ``|x̂_i|^p``.  To push the
    total error below ``eps * ||x_Q||_p^p`` the table needs roughly
    ``1/(alpha^2 eps^2) * n^{1-2/p}`` buckets — a factor ``1/alpha`` more
    than Algorithm 5 (this gap is exactly what benchmark E6 measures).

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order.
    buckets, rows:
        Table dimensions; the benchmark sets ``buckets`` to match the
        *space* of the estimator it is compared against.
    """

    def __init__(self, n: int, p: float, buckets: int, rows: int = 5,
                 seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0)
        self._n = n
        self._p = float(p)
        self._sketch = CountSketch(n, buckets, rows, seed)
        self._num_updates = 0

    def space_counters(self) -> int:
        """Stored counters of the underlying CountSketch."""
        return self._sketch.space_counters()

    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update."""
        self._sketch.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch through the underlying CountSketch scatter-add."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        self._sketch.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    def estimate(self, query_set: Sequence[int]) -> float:
        """Estimate ``||x_Q||_p^p`` by summing powered point queries."""
        if self._num_updates == 0:
            raise SamplerStateError("baseline queried before any update")
        members = [int(index) for index in query_set]
        if any(index < 0 or index >= self._n for index in members):
            raise InvalidParameterError("query set contains indices outside the universe")
        estimates = np.asarray([self._sketch.estimate(index) for index in members])
        return float(np.sum(np.abs(estimates) ** self._p))


def exact_subset_moment(vector: np.ndarray, query_set: Sequence[int], p: float) -> float:
    """Ground-truth ``||x_Q||_p^p`` used by tests and benchmarks."""
    vector = np.asarray(vector, dtype=float)
    members = np.asarray(sorted(set(int(index) for index in query_set)), dtype=np.int64)
    if members.size and (members.min() < 0 or members.max() >= len(vector)):
        raise InvalidParameterError("query set contains indices outside the universe")
    return float(np.sum(np.abs(vector[members]) ** p))
