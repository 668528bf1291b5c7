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

The sampler is written once, in :class:`PrecisionLpSamplerEnsemble`:
:class:`PrecisionLpSampler` is a view of a one-replica ensemble (see
:mod:`repro.utils.ensemble`), and :func:`draw_precision_replica` is the one
copy of the draw order both use.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import Sample
from repro.sketch.ams import AMSEnsemble
from repro.sketch.countsketch import CountSketchEnsemble
from repro.utils.batching import check_member_index
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, replica_seed
from repro.utils.validation import require_in_open_interval, require_moment_order, require_positive_int


def draw_precision_replica(seed: SeedLike, n: int):
    """What one precision sampler draws at construction, in its order.

    Returns ``(precisions, sketch_seed, ams_seed)``: the ``n`` uniform
    precisions (a zero, a probability-zero event numerically, is raised to
    the smallest positive float), then the seeds of the recovery
    CountSketch and of the AMS sketch.
    :meth:`PrecisionLpSamplerEnsemble.from_seeds`, and so every
    :class:`PrecisionLpSampler`, draws through this.
    """
    rng = ensure_rng(seed)
    precisions = rng.random(n)
    precisions[precisions == 0] = np.finfo(float).tiny
    return (precisions, int(rng.integers(0, 2**63 - 1)),
            int(rng.integers(0, 2**63 - 1)))


class PrecisionLpSampler(ReplicaView):
    """Approximate (``(1 ± eps)``-relative-error) ``L_p`` sampler, ``p <= 2``.

    A view of a one-replica :class:`PrecisionLpSamplerEnsemble`.

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
        self._ensemble = PrecisionLpSamplerEnsemble.from_seeds(
            n, p, [seed], epsilon=epsilon, rows=rows)
        self._n = n
        self._p = float(p)
        self._epsilon = float(epsilon)

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    @property
    def epsilon(self) -> float:
        """Target relative distortion."""
        return self._epsilon

    def sample(self) -> Optional[Sample]:
        """Return an approximate ``L_p`` draw, or ``None`` on failure."""
        return self._ensemble._sample(0)


class PrecisionLpSamplerEnsemble(ReplicaEnsemble):
    """``R`` independent precision samplers driven by one shared ingest pass.

    The per-replica precisions and their scalings are stacked into
    ``(R, n)`` matrices; each batch is scaled for every replica at once and
    lands in all of the recovery CountSketches through one fused scatter
    (raw deltas go to the stacked AMS sketches).  Query math runs per
    replica on identically laid-out slices, so state and samples are
    bit-identical however the replicas are stacked.  ``epsilon`` is the
    same for every replica and is an ensemble field.  Built from
    :class:`PrecisionLpSampler` views it concatenates their one-replica
    ensembles; :meth:`from_seeds` draws the replicas directly.
    """

    #: The estimate cache: recomputed from the sketch tables by the next query.
    _DERIVED = ("_estimates_cache",)

    @classmethod
    def from_seeds(cls, n: int, p: float, seeds, *, epsilon: float = 0.25,
                   rows: int = 5) -> "PrecisionLpSamplerEnsemble":
        """The ensemble of ``PrecisionLpSampler(n, p, epsilon, s, rows)``
        for ``s`` in ``seeds``, each drawn by :func:`draw_precision_replica`."""
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        require_in_open_interval(epsilon, "epsilon", 0.0, 1.0)
        require_replicas(seeds)
        p = float(p)
        log_n = max(2.0, math.log2(max(n, 4)))
        buckets = int(math.ceil(log_n**2 / epsilon ** max(1.0, p)))
        precisions = np.empty((len(seeds), n))
        inverse_scale = np.empty((len(seeds), n))
        sketch_seeds, ams_seeds = [], []
        for replica, seed in enumerate(seeds):
            drawn, sketch_seed, ams_seed = draw_precision_replica(
                replica_seed(seed), n)
            precisions[replica] = drawn
            # Row by row: the scaling is one sampler's (n,) computation.
            inverse_scale[replica] = drawn ** (-1.0 / p)
            sketch_seeds.append(sketch_seed)
            ams_seeds.append(ams_seed)
        ensemble = cls.__new__(cls)
        ensemble._setup(n, p, float(epsilon), precisions, inverse_scale,
                        CountSketchEnsemble.from_seeds(n, buckets, rows,
                                                       sketch_seeds),
                        AMSEnsemble.from_seeds(n, 12, 5, ams_seeds))
        return ensemble

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

    def _has_ingested(self) -> bool:
        """Whether the replicas have ingested an update."""
        return self._num_updates > 0

    def space_counters(self) -> int:
        """Stored counters across all replicas (CountSketch cells + AMS
        counters)."""
        return self._sketch.space_counters() + self._ams.space_counters()

    @classmethod
    def concat(cls, ensembles: "list[PrecisionLpSamplerEnsemble]") -> "PrecisionLpSamplerEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        Precisions, scalings and substrate state are concatenated as-is;
        every shard must have ingested the same stream (replica sharding
        shares the stream), so the shared update count comes from the first
        shard.
        """
        require_replicas(ensembles)
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
        self.check_mergeable(other)
        self._sketch.merge(other._sketch)
        self._ams.merge(other._ams)
        self._num_updates += other._num_updates
        self._estimates_cache = None
        return self

    def _merge_identity(self) -> dict:
        return {"n": self._n, "p": self._p, "epsilon": self._epsilon,
                "num_replicas": self.num_replicas,
                "precision scales": self._inverse_scale}

    def check_mergeable(self, other: "PrecisionLpSamplerEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        Both substrates are validated too, before either is touched, so a
        mismatched peer cannot leave the CountSketch bank merged but the
        AMS bank not.
        """
        super().check_mergeable(other)
        self._sketch.check_mergeable(other._sketch)
        self._ams.check_mergeable(other._ams)

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Scale one validated batch for every replica and ingest it
        everywhere."""
        scaled = deltas * self._inverse_scale[:, indices]
        self._sketch.update_batch(indices, scaled)
        self._ams.update_batch(indices, deltas)
        self._num_updates += int(indices.size)
        self._estimates_cache = None

    def sample_replica(self, replica: int) -> Optional[Sample]:
        """Return replica ``replica``'s approximate ``L_p`` draw, or
        ``None`` on failure."""
        check_member_index(replica, self.num_replicas, "replica")
        return self._sample(replica)

    def _sample(self, replica: int) -> Optional[Sample]:
        """The draw of a valid replica; the views call this directly."""
        if self._num_updates == 0:
            return None
        if self._estimates_cache is None:
            self._estimates_cache = self._sketch.estimate_all_members()
        estimates = self._estimates_cache[replica]
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        best = int(np.argmax(magnitudes))

        # Acceptance threshold: the recovered scaled maximum should exceed
        # ||x||_p / eps^{1/p}; we only have an L2-based proxy of the norm,
        # which is where the (1 +/- eps) distortion of this family of
        # samplers comes from.
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
