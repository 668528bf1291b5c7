"""Frequency-moment (``F_p``) estimation for ``p > 2``.

Two estimators are provided, both linear sketches over turnstile streams:

:class:`MaxStabilityFpEstimator`
    An unbiased estimator built on the max-stability identity of
    Lemma 1.16: for a fresh standard exponential ``e``,
    ``M = max_i |x_i|^p / e_i = F_p / e``.  Repeating ``k`` times and noting
    that ``1/M_j ~ Exp(1) / F_p`` are i.i.d., the statistic
    ``F̂_p = (k - 1) / sum_j (1/M_j)`` is *exactly* unbiased with variance
    ``F_p^2 / (k - 2)``.  With ``k >= 52`` this meets the contract of
    Theorem 5.1 (Ganguly's estimator): ``E[F̂_p] = F_p`` and
    ``Var[F̂_p] <= F_p^2 / 50``.  Each repetition recovers its maximum from
    a CountSketch of the scaled vector with ``Theta(n^{1-2/p})`` buckets
    (Lemma 1.17/1.19 guarantee the maximum is recoverable at that width).
    This replaces Ganguly's Taylor-polynomial estimator with an estimator of
    identical guarantees built from machinery the paper already uses.

:class:`FpEstimator`
    The constant-factor (2-approximation) estimator ``FpEst`` required by
    line 4 of Algorithm 1 and line 7 of Algorithm 2, realised as a
    median-of-groups of max-stability estimates for a high-probability
    guarantee.

Both are views (see :mod:`repro.utils.ensemble`) of
:class:`FpEstimatorEnsemble`, where the substrate is written once:
``MaxStabilityFpEstimator`` of a one-replica ensemble, ``FpEstimator`` of
a ``groups``-replica one.  :func:`draw_max_stability_replica` is the one
copy of the draw order.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.sketch.countsketch import CountSketchEnsemble
from repro.utils.batching import check_member_index, flat_scatter_add
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array, replica_seed
from repro.utils.validation import require_moment_order, require_positive_int


def draw_max_stability_replica(seed: SeedLike, n: int, p: float,
                               repetitions: int, exact_recovery: bool):
    """What one max-stability estimator draws at construction, in its order.

    Returns ``(inverse_scales, sketch_seeds)``: the ``(repetitions, n)``
    scale factors ``1 / e_{r,i}^{1/p}``, then, in sketch mode, the seeds of
    the repetitions' CountSketches (``None`` in oracle mode).
    :class:`MaxStabilityFpEstimator`, :class:`FpEstimator` and
    :meth:`FpEstimatorEnsemble.from_seeds` all draw through this.
    """
    rng = ensure_rng(seed)
    inverse_scales = rng.exponential(size=(repetitions, n)) ** (-1.0 / p)
    if exact_recovery:
        return inverse_scales, None
    return inverse_scales, random_seed_array(rng, repetitions)


class MaxStabilityFpEstimator(ReplicaView):
    """Unbiased ``F_p`` estimation through exponential max-stability.

    A view of a one-replica :class:`FpEstimatorEnsemble`.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order, ``p > 0`` (the interesting regime here is ``p > 2``).
    repetitions:
        Number of independent max-stability repetitions ``k``.  The variance
        is ``F_p^2 / (k - 2)``; the default of 60 gives ``<= F_p^2 / 58``.
    buckets, rows:
        CountSketch dimensions per repetition used to recover the maximum of
        the scaled vector.  ``buckets=None`` selects
        ``ceil(4 * n^{1-2/p} * log2(n))`` per Lemma 3.4's scale.
    exact_recovery:
        If ``True`` the scaled vectors are tracked exactly instead of being
        sketched.  This oracle mode exists for tests and ground-truth
        pipelines; the estimator's statistical behaviour is identical when
        the CountSketch succeeds.
    """

    def __init__(self, n: int, p: float, repetitions: int = 60,
                 buckets: int | None = None, rows: int = 5,
                 seed: SeedLike = None, exact_recovery: bool = False) -> None:
        self._ensemble = FpEstimatorEnsemble.from_seeds(
            n, p, [seed], repetitions=repetitions, buckets=buckets, rows=rows,
            exact_recovery=exact_recovery)
        self._n = n
        self._repetitions = repetitions

    @property
    def repetitions(self) -> int:
        """Number of independent max-stability repetitions."""
        return self._repetitions

    def estimate(self) -> float:
        """The unbiased estimate ``F̂_p = (k - 1) / sum_j M_j^{-1}``.

        Computed once per ingest state and reused until the state changes
        (see :meth:`FpEstimatorEnsemble.estimate_replica`).
        """
        return self._ensemble.estimate_replica(0)

    def estimate_variance_bound(self) -> float:
        """The a-priori variance bound ``F_p^2 / (repetitions - 2)`` (relative form)."""
        return 1.0 / (self._repetitions - 2)


class FpEstimatorEnsemble(ReplicaEnsemble):
    """``R`` independent max-stability ``F_p`` estimators, stacked.

    The ``(R, repetitions, n)`` scale factors are stacked beside the
    state.  In oracle (``exact_recovery``) mode the ``R * repetitions``
    scaled vectors live in one ``(R, repetitions, n)`` array, and every
    batch lands in all of them with a single scatter-add.  In sketch mode
    the repetitions' CountSketches of every replica are one
    :class:`~repro.sketch.countsketch.CountSketchEnsemble` of
    ``R * repetitions`` members (replica-major), and every batch lands in
    all of them with one fused scatter of the per-member scaled deltas.
    Either way each replica's state is bitwise that of the estimator with
    its seed.

    The estimates of every replica are computed together, once per
    ingest state, and reused until the state changes: :meth:`update_batch`
    and :meth:`merge` (and so the views' ingest) drop them.  The estimate
    draws no randomness, so the memo changes no returned value.
    """

    _ZERO_STATE = ("_scaled_vectors", "_num_updates")

    @classmethod
    def from_seeds(cls, n: int, p: float, seeds, *, repetitions: int = 60,
                   buckets: int | None = None, rows: int = 5,
                   exact_recovery: bool = False) -> "FpEstimatorEnsemble":
        """The ensemble of ``MaxStabilityFpEstimator(n, p, ..., seed=s)``
        for ``s`` in ``seeds``, each drawn by
        :func:`draw_max_stability_replica`."""
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0)
        require_positive_int(repetitions, "repetitions")
        if repetitions < 3:
            raise InvalidParameterError("repetitions must be at least 3 for finite variance")
        require_replicas(seeds)
        p = float(p)
        if buckets is None:
            exponent = max(0.0, 1.0 - 2.0 / max(p, 2.0))
            buckets = int(np.ceil(4 * n**exponent * max(1.0, np.log2(max(n, 2))))) + 4
        inverse_scales = np.empty((len(seeds), repetitions, n))
        sketch_seeds = []
        for replica, seed in enumerate(seeds):
            inverse_scales[replica], drawn = draw_max_stability_replica(
                replica_seed(seed), n, p, repetitions, exact_recovery)
            sketch_seeds.append(drawn)
        sketch = None
        if not exact_recovery:
            sketch = CountSketchEnsemble.from_seeds(
                n, int(buckets), int(rows), np.concatenate(sketch_seeds))
        ensemble = cls.__new__(cls)
        ensemble._setup(n, p, repetitions, exact_recovery, inverse_scales,
                        sketch)
        return ensemble

    def _setup(self, n: int, p: float, repetitions: int, exact: bool,
               inverse_scales: np.ndarray,
               sketch: CountSketchEnsemble | None,
               scaled_vectors: np.ndarray | None = None,
               num_updates: np.ndarray | None = None) -> None:
        """Set every field; missing state starts at zero."""
        replicas = inverse_scales.shape[0]
        self._n = n
        self._p = p
        self._repetitions = repetitions
        self._exact = exact
        self._inverse_scales = inverse_scales
        self._sketch = sketch
        if exact and scaled_vectors is None:
            scaled_vectors = np.zeros((replicas, repetitions, n), dtype=float)
        self._scaled_vectors = scaled_vectors
        if num_updates is None:
            num_updates = np.zeros(replicas, dtype=np.int64)
        self._num_updates = num_updates
        self._estimate_memo = None

    def __getstate__(self):
        """Pickle without the estimate memo, so a snapshot's bytes depend
        only on the stream state; the next query recomputes it."""
        state = super().__getstate__()
        del state["_estimate_memo"]
        return state

    def __setstate__(self, state):
        """Restore with no memo."""
        super().__setstate__(state)
        self._estimate_memo = None

    def _has_ingested(self) -> bool:
        """Whether any replica has ingested an update."""
        return bool(self._num_updates.any())

    def _shared(self) -> tuple:
        """The configuration every replica shares."""
        return (self._n, self._p, self._exact, self._repetitions)

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self._inverse_scales.shape[0]

    def space_counters(self) -> int:
        """Total stored counters across all replicas (sketch cells plus
        scale factors, or the exact scaled vectors in oracle mode)."""
        if self._exact:
            return int(self._scaled_vectors.size)
        return self._sketch.space_counters() + self._inverse_scales.size

    @classmethod
    def concat(cls, ensembles: "list[FpEstimatorEnsemble]") -> "FpEstimatorEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        Scale factors, update counts and the state (scaled vectors, or the
        repetitions' CountSketch ensembles) are concatenated as-is.
        """
        require_replicas(ensembles)
        first = ensembles[0]
        if any(e._shared() != first._shared() for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share (n, p, repetitions, recovery mode)")
        sketch = scaled_vectors = None
        if first._exact:
            scaled_vectors = np.concatenate(
                [e._scaled_vectors for e in ensembles])
        else:
            sketch = CountSketchEnsemble.concat([e._sketch for e in ensembles])
        merged = cls.__new__(cls)
        merged._setup(first._n, first._p, first._repetitions, first._exact,
                      np.concatenate([e._inverse_scales for e in ensembles]),
                      sketch, scaled_vectors,
                      np.concatenate([e._num_updates for e in ensembles]))
        return merged

    def merge(self, other: "FpEstimatorEnsemble") -> "FpEstimatorEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        The scaled vectors (oracle mode) and the per-repetition CountSketch
        tables (sketch mode) are linear in the stream, so same-seed shard
        copies add into the estimator of the concatenated stream.  In
        place; returns ``self``.
        """
        self.check_mergeable(other)
        if self._exact:
            np.add(self._scaled_vectors, other._scaled_vectors,
                   out=self._scaled_vectors)
        else:
            self._sketch.merge(other._sketch)
        self._num_updates += other._num_updates
        self._estimate_memo = None
        return self

    def _merge_identity(self) -> dict:
        return {"n": self._n, "recovery mode": self._exact,
                "repetitions": self._repetitions,
                "num_replicas": self.num_replicas,
                "exponential scale factors": self._inverse_scales}

    def check_mergeable(self, other: "FpEstimatorEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        The scale factors and, in sketch mode, the whole CountSketch
        ensemble are validated before anything is merged.
        """
        super().check_mergeable(other)
        if not self._exact:
            self._sketch.check_mergeable(other._sketch)

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Scale one validated batch per repetition and ingest it everywhere."""
        scaled = deltas * self._inverse_scales[:, :, indices]
        if self._exact:
            vectors = np.arange(self.num_replicas * self._repetitions,
                                dtype=np.int64).reshape(self.num_replicas,
                                                        self._repetitions, 1)
            flat_scatter_add(self._scaled_vectors, vectors * self._n + indices,
                             scaled)
        else:
            self._sketch.update_batch(indices,
                                      scaled.reshape(-1, indices.size))
        self._num_updates += int(indices.size)
        self._estimate_memo = None

    def _maxima(self) -> np.ndarray:
        """``(R, repetitions)`` recovered maxima ``max_i |z^{(r, j)}_i|``.

        In sketch mode the estimates are formed one replica's repetitions
        at a time, so no ``(R * repetitions, n)`` matrix is held.
        """
        if self._exact:
            return np.max(np.abs(self._scaled_vectors), axis=2)
        reps = self._repetitions
        return np.stack([
            np.max(np.abs(self._sketch._estimate_all_range(
                replica * reps, (replica + 1) * reps)), axis=1)
            for replica in range(self.num_replicas)])

    def _estimate_of(self, maxima: np.ndarray) -> float:
        """``(k - 1) / sum_j M_j^{-1}`` of one replica's maxima."""
        if np.any(maxima <= 0):
            # All-zero repetitions can only occur for the zero vector (or a
            # catastrophically failed sketch); report zero moment.
            return 0.0
        inverse_moments = maxima ** (-self._p)
        return float((self._repetitions - 1) / inverse_moments.sum())

    def estimate_replica(self, replica: int) -> float:
        """The unbiased ``F̂_p`` estimate of one replica.

        Every replica's estimate is computed on the first query after an
        ingest and reused until the next one.
        """
        check_member_index(replica, self.num_replicas, "replica")
        if self._num_updates[replica] == 0:
            raise SamplerStateError("Fp estimator queried before any update")
        if self._estimate_memo is None:
            self._estimate_memo = [self._estimate_of(maxima)
                                   for maxima in self._maxima()]
        return self._estimate_memo[replica]


register_ensemble(MaxStabilityFpEstimator, FpEstimatorEnsemble)


class FpEstimator(ReplicaView):
    """High-probability constant-factor ``F_p`` approximation (``FpEst``).

    A median over ``groups`` independent max-stability estimators: each
    group is within a factor 2 of ``F_p`` with probability at least 3/4
    (Chebyshev with the ``1/(k-2)`` relative variance), so the median is a
    2-approximation with probability ``1 - exp(-Omega(groups))``.  The
    groups are the replicas of one :class:`FpEstimatorEnsemble`, so a batch
    reaches all of them with one scatter and their estimates are computed
    together once per ingest state; repeated :meth:`estimate` calls between
    updates cost only the median.

    Parameters
    ----------
    n, p:
        Universe size and moment order.
    groups:
        Number of independent estimators to take the median over.
    repetitions_per_group:
        Max-stability repetitions inside each group.
    exact_recovery:
        Forwarded to the per-group estimators (oracle mode for tests).
    """

    def __init__(self, n: int, p: float, groups: int = 7,
                 repetitions_per_group: int = 20, buckets: int | None = None,
                 rows: int = 5, seed: SeedLike = None,
                 exact_recovery: bool = False) -> None:
        require_positive_int(groups, "groups")
        self._ensemble = FpEstimatorEnsemble.from_seeds(
            n, p, random_seed_array(ensure_rng(seed), groups),
            repetitions=repetitions_per_group, buckets=buckets, rows=rows,
            exact_recovery=exact_recovery)
        self._n = n

    def estimate(self) -> float:
        """Median-of-groups estimate of ``F_p``."""
        ensemble = self._ensemble
        return float(np.median([ensemble.estimate_replica(group)
                                for group in range(ensemble.num_replicas)]))
