"""Shared sampling-and-rejection machinery of Algorithms 1 and 2.

Both perfect ``L_p`` samplers for ``p > 2`` follow the same skeleton:

1. maintain ``N = Theta(n^{1-2/p} log(1/delta))`` independent perfect
   ``L_2`` samplers on the stream, plus an AMS estimate ``F̂_2`` and a
   constant-factor ``F_p`` estimate ``F̂_p``;
2. at query time walk the ``L_2`` samples; for a sample landing on
   coordinate ``j``, build a (nearly unbiased) estimate of ``|x_j|^{p-2}``
   and accept ``j`` with probability

       ``F̂_2 / (C * n^{1-2/p} * F̂_p) * |x̂_j^{p-2}|``;

3. return the first accepted coordinate, or ``FAIL`` if every candidate was
   rejected.

Conditioned on acceptance the output distribution is exactly
``|x_j|^p / ||x||_p^p`` up to the ``1/poly(n)`` additive slack, because the
``L_2`` sampling weight ``x_j^2 / F_2`` times the acceptance weight
``x_j^{p-2} F_2 / (C n^{1-2/p} F_p)`` is proportional to ``x_j^p``
(Lemmas 2.4 and 2.8).  The two algorithms differ only in *how* the
``|x_j|^{p-2}`` estimate is produced — a product of ``p - 2`` independent
coordinate estimates for integer ``p`` (Algorithm 1) versus the truncated
Taylor expansion of Lemma 2.7 for fractional ``p`` (Algorithm 2) — so this
module hosts the common driver and the two subclasses plug in their
exponent estimator.

Two execution backends are offered:

``"sketch"``
    The honest streaming algorithm: real ``L_2`` sampler instances with
    CountSketch recovery, AMS ``F_2`` estimation and the max-stability
    ``F_p`` estimator.  Space is ``n^{1-2/p} * polylog`` counters.
``"oracle"``
    The same sampling-and-rejection logic driven by the exact frequency
    vector (exponential scalings and rejection coins remain random).  It
    realises the identical target distribution assuming the sketches
    succeed, and exists so distribution-level experiments can afford tens of
    thousands of independent draws.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import BatchUpdateMixin, Sample, check_batch_bounds, coerce_batch
from repro.samplers.jw18_lp_sampler import JW18LpSamplerEnsemble
from repro.sketch.ams import AMSSketch
from repro.sketch.fp_estimator import FpEstimator
# Not called here since the L_2 replicas are built from seeds; perfbench's
# tracer patches ``lp_base.build_ensemble`` by name, so the import stays.
from repro.utils.ensemble import build_ensemble  # noqa: F401
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.validation import (
    require_in_open_interval,
    require_moment_order,
    require_positive_int,
)

_VALID_BACKENDS = ("sketch", "oracle")


class RejectionLpSamplerBase(BatchUpdateMixin):
    """Common driver of Algorithms 1 and 2 (do not instantiate directly).

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order, ``p > 2``.
    seed:
        Root seed; all internal randomness derives from it.
    num_l2_samples:
        Number ``N`` of independent ``L_2`` samples to draw.  ``None``
        selects ``ceil(C * n^{1-2/p} * ln(1/failure_probability))`` with the
        rejection constant ``C`` below.
    rejection_constant:
        The constant ``C`` in the acceptance denominator
        ``C * n^{1-2/p} * F̂_p``; the paper uses 8 (Algorithm 1).  Larger
        values make clipping (acceptance probability exceeding one) rarer at
        the cost of more ``L_2`` samples.
    failure_probability:
        Sizes the default ``N`` as if every ``L_2`` draw succeeded, so it
        is not the ``FAIL`` rate the sampler reaches.  The ``L_2`` gap test
        itself fails on a fraction ``f`` of draws (about 0.17 at
        ``n = 1024, p = 3`` on a sliding-window stream, 0.27 at
        ``n = 64, p = 2.5``), which leaves ``FAIL`` at about
        ``exp(-N (1 - f) / (C n^{1-2/p}))``: 0.39 predicted against 0.42
        measured at ``n = 1024, p = 3`` with the default one third.
    backend:
        ``"sketch"`` or ``"oracle"`` (see module docstring).
    value_instances:
        Number of CountSketch instances per ``L_2`` sampler available for
        independent coordinate estimates (sketch backend only).
    epsilon:
        Accuracy of the optional ``(1 + epsilon)`` value estimate attached
        to the returned sample.
    """

    def __init__(self, n: int, p: float, seed: SeedLike = None, *,
                 num_l2_samples: int | None = None,
                 rejection_constant: float = 8.0,
                 failure_probability: float = 1.0 / 3.0,
                 backend: str = "sketch",
                 value_instances: int = 8,
                 epsilon: float = 0.25) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=2.0)
        require_in_open_interval(failure_probability, "failure_probability", 0.0, 1.0)
        require_in_open_interval(epsilon, "epsilon", 0.0, 1.0)
        if backend not in _VALID_BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {_VALID_BACKENDS}, got {backend!r}"
            )
        if rejection_constant < 1.0:
            raise InvalidParameterError("rejection_constant must be at least 1")

        self._n = n
        self._p = float(p)
        self._backend = backend
        self._rejection_constant = float(rejection_constant)
        self._epsilon = float(epsilon)
        rng = ensure_rng(seed)
        self._rng = rng

        self._space_exponent = 1.0 - 2.0 / self._p
        base_samples = self._rejection_constant * n**self._space_exponent
        if num_l2_samples is None:
            num_l2_samples = int(math.ceil(base_samples * math.log(1.0 / failure_probability))) + 4
        require_positive_int(num_l2_samples, "num_l2_samples")
        self._num_l2_samples = num_l2_samples

        if backend == "sketch":
            seeds = random_seed_array(rng, num_l2_samples + 2)
            # The N parallel L_2 samplers are the sampler's inner repetition
            # loop: one native replica ensemble, so one batch of stream
            # updates lands in all of them at once.  It is built from their
            # seeds, drawing exactly what N PerfectL2Sampler constructors
            # would, without building them.
            self._l2_ensemble = JW18LpSamplerEnsemble.from_seeds(
                n, 2.0, seeds[:num_l2_samples],
                value_instances=value_instances)
            self._f2_sketch = AMSSketch(n, width=16, depth=5, seed=int(seeds[-2]))
            self._fp_sketch = FpEstimator(
                n, self._p, groups=5, repetitions_per_group=20, seed=int(seeds[-1]),
            )
            self._exact_vector = None
        else:
            self._l2_ensemble = None
            self._f2_sketch = None
            self._fp_sketch = None
            self._exact_vector = np.zeros(n, dtype=float)

        self._num_updates = 0
        self._clip_events = 0

    # ------------------------------------------------------------------ #
    # Properties and bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    @property
    def backend(self) -> str:
        """Execution backend (``"sketch"`` or ``"oracle"``)."""
        return self._backend

    @property
    def num_l2_samples(self) -> int:
        """Number of internal ``L_2`` samples the sampler draws."""
        return self._num_l2_samples

    @property
    def clip_events(self) -> int:
        """How many acceptance probabilities had to be clipped at one.

        The analysis guarantees the acceptance probability is below one when
        the ``F_2``/``F_p`` estimates are 2-approximations; clipping counts
        the (rare) violations so experiments can report them.
        """
        return self._clip_events

    def space_counters(self) -> int:
        """Stored counters across all internal structures."""
        if self._backend == "oracle":
            return self._n
        total = self._l2_ensemble.space_counters()
        total += self._f2_sketch.space_counters()
        total += self._fp_sketch.space_counters()
        return total

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update to every internal structure."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if self._backend == "oracle":
            self._exact_vector[index] += delta
        else:
            self._l2_ensemble.update_batch(np.asarray([index], dtype=np.int64),
                                           np.asarray([float(delta)]))
            self._f2_sketch.update(index, delta)
            self._fp_sketch.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch to every internal structure (vectorised per structure)."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        if self._backend == "oracle":
            np.add.at(self._exact_vector, indices, deltas)
        else:
            self._l2_ensemble.update_batch(indices, deltas)
            self._f2_sketch.update_batch(indices, deltas)
            self._fp_sketch.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Exponent estimation hook (implemented by Algorithms 1 and 2)
    # ------------------------------------------------------------------ #
    def _estimate_power(self, index: int, estimates: np.ndarray, pivot: float) -> float:
        """Estimate ``|x_index|^{p-2}`` from independent coordinate estimates."""
        raise NotImplementedError

    def _num_estimates_needed(self) -> int:
        """How many independent coordinate estimates the exponent estimator needs."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _moment_estimates(self) -> tuple[float, float]:
        """Return the ``(F̂_2, F̂_p)`` pair used in the acceptance probability."""
        if self._backend == "oracle":
            f2 = float(np.sum(self._exact_vector**2))
            fp = float(np.sum(np.abs(self._exact_vector) ** self._p))
            return f2, fp
        return self._f2_sketch.estimate_f2(), self._fp_sketch.estimate()

    def _candidate_samples(self):
        """Yield ``(index, estimates, pivot)`` triples for each ``L_2`` draw."""
        needed = self._num_estimates_needed()
        if self._backend == "oracle":
            vector = self._exact_vector
            nonzero = np.flatnonzero(vector)
            if nonzero.size == 0:
                return
            squares = vector**2
            probabilities = squares / squares.sum()
            draws = self._rng.choice(self._n, size=self._num_l2_samples, p=probabilities)
            for index in draws:
                index = int(index)
                exact = float(vector[index])
                estimates = np.full(max(needed, 1), exact)
                yield index, estimates, exact
        else:
            ensemble = self._l2_ensemble
            for replica in range(ensemble.num_replicas):
                drawn = ensemble.sample_replica(replica)
                if drawn is None:
                    continue
                index = drawn.index
                estimates = ensemble.independent_value_estimates(
                    replica, index, max(needed, 1))
                pivot = drawn.value_estimate
                if pivot is None or pivot == 0.0:
                    pivot = float(np.mean(estimates)) or 1.0
                yield index, estimates, pivot

    def sample(self) -> Optional[Sample]:
        """Return a perfect ``L_p`` draw, or ``None`` for the ``FAIL`` symbol."""
        if self._num_updates == 0:
            return None
        f2_estimate, fp_estimate = self._moment_estimates()
        if fp_estimate <= 0:
            return None
        scale = f2_estimate / (
            self._rejection_constant * self._n**self._space_exponent * fp_estimate
        )
        attempts = 0
        for index, estimates, pivot in self._candidate_samples():
            attempts += 1
            power_estimate = abs(self._estimate_power(index, estimates, pivot))
            acceptance = scale * power_estimate
            if acceptance > 1.0:
                self._clip_events += 1
                acceptance = 1.0
            if self._rng.random() < acceptance:
                value_estimate = float(np.mean(estimates)) if len(estimates) else None
                return Sample(
                    index=index,
                    value_estimate=value_estimate,
                    metadata={
                        "acceptance_probability": acceptance,
                        "attempts": attempts,
                        "f2_estimate": f2_estimate,
                        "fp_estimate": fp_estimate,
                        "backend": self._backend,
                    },
                )
        return None

    def estimate_value(self, index: int) -> float:
        """A standalone estimate of ``x_index`` (exact in oracle mode)."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if self._backend == "oracle":
            return float(self._exact_vector[index])
        ensemble = self._l2_ensemble
        estimates = [ensemble.estimate_value(replica, index)
                     for replica in range(min(8, ensemble.num_replicas))]
        return float(np.mean(estimates))
