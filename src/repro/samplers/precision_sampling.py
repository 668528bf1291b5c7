"""Approximate ``L_p`` sampler via precision sampling ([AKO11]/[JST11] style).

This baseline implements the pre-[JW18] generation of turnstile samplers
that Table 1 compares against: each coordinate is scaled by an independent
uniform "precision" ``1 / u_i^{1/p}``, the heaviest scaled coordinate is
recovered with a CountSketch, and the draw is accepted only if the recovered
value clears a threshold proportional to an estimated ``||x||_p``.  The
resulting sampling probabilities carry a multiplicative ``(1 ± eps)``
distortion (they are *approximate*, not perfect), which is exactly the
deficiency the paper's perfect samplers remove.

The sampler supports ``p in (0, 2]``; for ``p > 2`` the required CountSketch
width becomes polynomial in ``n`` (the same obstruction discussed in
Section 2.1 of the paper), so construction refuses larger ``p``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import BatchUpdateMixin, Sample, check_batch_bounds, coerce_batch
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.utils.batching import check_member_index
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble, require_fresh
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_in_open_interval, require_moment_order, require_positive_int


class PrecisionLpSampler(BatchUpdateMixin):
    """Approximate (``(1 ± eps)``-relative-error) ``L_p`` sampler, ``p <= 2``.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order in ``(0, 2]``.
    epsilon:
        Target relative distortion of the sampling probabilities; the
        CountSketch width scales like ``1 / eps^{max(1, p)}``.
    seed:
        Seed for the precisions, hashes, and the acceptance test.
    """

    def __init__(self, n: int, p: float, epsilon: float = 0.25,
                 seed: SeedLike = None, rows: int = 5) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        require_in_open_interval(epsilon, "epsilon", 0.0, 1.0)
        self._n = n
        self._p = float(p)
        self._epsilon = float(epsilon)
        rng = ensure_rng(seed)
        self._rng = rng
        log_n = max(2.0, math.log2(max(n, 4)))
        buckets = int(math.ceil(log_n**2 / epsilon ** max(1.0, p)))
        self._buckets = buckets

        self._precisions = rng.random(n)
        # Guard against a zero precision (probability zero event numerically).
        self._precisions[self._precisions == 0] = np.finfo(float).tiny
        self._inverse_scale = self._precisions ** (-1.0 / self._p)

        self._sketch = CountSketch(n, buckets, rows, int(rng.integers(0, 2**63 - 1)))
        self._ams = AMSSketch(n, width=12, depth=5, seed=int(rng.integers(0, 2**63 - 1)))
        self._num_updates = 0

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    @property
    def epsilon(self) -> float:
        """Target relative distortion."""
        return self._epsilon

    def space_counters(self) -> int:
        """Stored counters (CountSketch cells + AMS counters)."""
        return self._sketch.space_counters() + self._ams.space_counters()

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        self._sketch.update(index, delta * self._inverse_scale[index])
        self._ams.update(index, delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch: scaled deltas to the CountSketch, raw to the AMS."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[indices]
        self._sketch.update_batch(indices, scaled)
        self._ams.update_batch(indices, deltas)
        self._num_updates += int(indices.size)

    def sample(self) -> Optional[Sample]:
        """Return an approximate ``L_p`` draw, or ``None`` on failure."""
        if self._num_updates == 0:
            return None
        estimates = self._sketch.estimate_all()
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        best = int(np.argmax(magnitudes))

        # Acceptance threshold: the recovered scaled maximum should exceed
        # ||x||_p / eps^{1/p}; we only have an L2-based proxy of the norm,
        # which is where the (1 +/- eps) distortion of this family of
        # samplers comes from.
        l2_estimate = self._ams.estimate_l2()
        norm_proxy = l2_estimate / max(self._n, 2) ** max(0.0, 1.0 / 2.0 - 1.0 / self._p)
        threshold = norm_proxy * self._epsilon ** (-1.0 / self._p)
        if magnitudes[best] < threshold:
            return None
        recovered_value = estimates[best] * self._precisions[best] ** (1.0 / self._p)
        return Sample(
            index=best,
            value_estimate=float(recovered_value),
            metadata={
                "scaled_maximum": float(magnitudes[best]),
                "threshold": float(threshold),
            },
        )


class PrecisionLpSamplerEnsemble(ReplicaEnsemble):
    """``R`` independent precision samplers driven by one shared ingest pass.

    The per-replica precisions and their scalings are stacked into
    ``(R, n)`` matrices; each batch is scaled for every replica at once and
    lands in all of the recovery CountSketches through one fused scatter
    (raw deltas go to the stacked AMS sketches).  Query math runs per
    replica on identically laid-out slices, so state and samples are
    bit-identical to driving each instance separately.  The ensemble keeps
    no instance: ``epsilon`` is the same for every replica and is an
    ensemble field.  Replicas must be fresh (un-updated) when the ensemble
    is built.
    """

    def __init__(self, instances) -> None:
        require_fresh(instances, lambda inst: inst._num_updates > 0, "precision")
        first = instances[0]
        if any((inst._n, inst._p, inst._epsilon, inst._buckets)
               != (first._n, first._p, first._epsilon, first._buckets)
               for inst in instances):
            raise InvalidParameterError(
                "ensemble replicas must share (n, p, epsilon, buckets)")
        self._setup(first._n, first._p, first._epsilon,
                    np.stack([inst._precisions for inst in instances]),
                    np.stack([inst._inverse_scale for inst in instances]),
                    CountSketchEnsemble([inst._sketch for inst in instances]),
                    AMSEnsemble([inst._ams for inst in instances]))

    def _setup(self, n, p, epsilon, precisions, inverse_scale, sketch, ams,
               num_updates: int = 0) -> None:
        """Set every field."""
        self._n = n
        self._p = p
        self._epsilon = epsilon
        self._precisions = precisions
        self._inverse_scale = inverse_scale
        self._sketch = sketch
        self._ams = ams
        self._num_updates = num_updates
        self._estimates_cache: np.ndarray | None = None

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self._precisions.shape[0]

    def space_counters(self) -> int:
        """Stored counters across all replicas (CountSketch cells + AMS
        counters), as the standalone samplers count."""
        return self._sketch.space_counters() + self._ams.space_counters()

    @classmethod
    def concat(cls, ensembles: "list[PrecisionLpSamplerEnsemble]") -> "PrecisionLpSamplerEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        Precisions, scalings and substrate state are concatenated as-is;
        every shard must have ingested the same stream (replica sharding
        shares the stream), so the shared update count comes from the first
        shard.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any((e._n, e._p, e._epsilon) != (first._n, first._p, first._epsilon)
               for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, p, epsilon)")
        merged = cls.__new__(cls)
        merged._setup(first._n, first._p, first._epsilon,
                      np.concatenate([e._precisions for e in ensembles]),
                      np.concatenate([e._inverse_scale for e in ensembles]),
                      CountSketchEnsemble.concat([e._sketch for e in ensembles]),
                      AMSEnsemble.concat([e._ams for e in ensembles]),
                      first._num_updates)
        return merged

    def merge(self, other: "PrecisionLpSamplerEnsemble") -> "PrecisionLpSamplerEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        The recovery CountSketches and AMS sketches are linear, so
        same-seed shard copies fed disjoint stream shards add into the
        ensemble of the concatenated stream.  In place; returns ``self``.
        """
        if not isinstance(other, PrecisionLpSamplerEnsemble):
            raise InvalidParameterError(
                "can only merge PrecisionLpSamplerEnsemble with its own kind")
        if ((other._n, other._p, other._epsilon)
                != (self._n, self._p, self._epsilon)
                or other.num_replicas != self.num_replicas
                or not np.array_equal(self._inverse_scale, other._inverse_scale)):
            raise InvalidParameterError(
                "can only merge identically seeded, identically configured ensembles")
        # Validate both substrates before touching either, so a mismatched
        # peer cannot leave the CountSketch bank merged but the AMS bank not.
        self._sketch.check_mergeable(other._sketch)
        self._ams.check_mergeable(other._ams)
        self._sketch.merge(other._sketch)
        self._ams.merge(other._ams)
        self._num_updates += other._num_updates
        self._estimates_cache = None
        return self

    def update_batch(self, indices, deltas) -> None:
        """Scale one batch for every replica and ingest it everywhere."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[:, indices]
        self._sketch.update_batch(indices, scaled)
        self._ams.update_batch(indices, deltas)
        self._num_updates += int(indices.size)
        self._estimates_cache = None

    def __getstate__(self):
        """Pickle without the estimate cache; the next query recomputes it
        from the sketch tables."""
        state = self.__dict__.copy()
        state["_estimates_cache"] = None
        return state

    def __setstate__(self, state):
        """Restore with an empty estimate cache (also for snapshots that
        kept it)."""
        self.__dict__.update(state)
        self._estimates_cache = None

    def sample_replica(self, replica: int) -> Optional[Sample]:
        """One-shot draw of replica ``replica`` (mirrors ``sample()``)."""
        check_member_index(replica, self.num_replicas, "replica")
        if self._num_updates == 0:
            return None
        if self._estimates_cache is None:
            self._estimates_cache = self._sketch.estimate_all_members()
        estimates = self._estimates_cache[replica]
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        best = int(np.argmax(magnitudes))

        l2_estimate = self._ams.estimate_l2_member(replica)
        norm_proxy = l2_estimate / max(self._n, 2) ** max(0.0, 1.0 / 2.0 - 1.0 / self._p)
        threshold = norm_proxy * self._epsilon ** (-1.0 / self._p)
        if magnitudes[best] < threshold:
            return None
        recovered_value = (estimates[best]
                           * self._precisions[replica, best] ** (1.0 / self._p))
        return Sample(
            index=best,
            value_estimate=float(recovered_value),
            metadata={
                "scaled_maximum": float(magnitudes[best]),
                "threshold": float(threshold),
            },
        )


register_ensemble(PrecisionLpSampler, PrecisionLpSamplerEnsemble)
