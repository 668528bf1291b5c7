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
    identical guarantees built from machinery the paper already uses; the
    substitution is recorded in DESIGN.md.

:class:`FpEstimator`
    The constant-factor (2-approximation) estimator ``FpEst`` required by
    line 4 of Algorithm 1 and line 7 of Algorithm 2, realised as a
    median-of-groups of max-stability estimates for a high-probability
    guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.sketch.countsketch import CountSketchEnsemble
from repro.utils.batching import BatchUpdateMixin, check_batch_bounds, coerce_batch
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble, require_fresh
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_moment_order,
    require_positive_int,
)


class MaxStabilityFpEstimator(BatchUpdateMixin):
    """Unbiased ``F_p`` estimation through exponential max-stability.

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
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0)
        require_positive_int(repetitions, "repetitions")
        if repetitions < 3:
            raise InvalidParameterError("repetitions must be at least 3 for finite variance")
        self._n = n
        self._p = float(p)
        self._repetitions = repetitions
        self._exact_recovery = exact_recovery
        rng = ensure_rng(seed)
        if buckets is None:
            exponent = max(0.0, 1.0 - 2.0 / max(self._p, 2.0))
            buckets = int(np.ceil(4 * n**exponent * max(1.0, np.log2(max(n, 2))))) + 4
        self._buckets = int(buckets)
        self._rows = int(rows)

        # Per-repetition exponential scale factors 1 / e_{r,i}^{1/p}.
        self._inverse_scales = rng.exponential(size=(repetitions, n)) ** (-1.0 / self._p)
        if exact_recovery:
            self._scaled_vectors = np.zeros((repetitions, n), dtype=float)
            self._sketch_ensemble: CountSketchEnsemble | None = None
        else:
            # The repetitions' CountSketches are one stacked ensemble,
            # built from their seeds without building the sketches, so
            # every batch lands in all of them with one scatter.
            self._sketch_ensemble = CountSketchEnsemble.from_seeds(
                n, self._buckets, self._rows,
                random_seed_array(rng, repetitions))
            self._scaled_vectors = None
        self._num_updates = 0
        self._estimate_memo: float | None = None

    @property
    def repetitions(self) -> int:
        """Number of independent max-stability repetitions."""
        return self._repetitions

    def space_counters(self) -> int:
        """Counters held by the estimator (sketch cells plus scale factors)."""
        if self._exact_recovery:
            return self._repetitions * self._n
        return self._sketch_ensemble.space_counters() + self._inverse_scales.size

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        scaled_deltas = delta * self._inverse_scales[:, index]
        if self._exact_recovery:
            self._scaled_vectors[:, index] += scaled_deltas
        else:
            self._sketch_ensemble.update_batch(
                np.asarray([index], dtype=np.int64), scaled_deltas[:, None])
        self._num_updates += 1
        self._estimate_memo = None

    def update_batch(self, indices, deltas) -> None:
        """Apply a whole batch, vectorised across all repetitions at once."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scales[:, indices]
        if self._exact_recovery:
            repetition_index = np.arange(self._repetitions)[:, None]
            np.add.at(self._scaled_vectors, (repetition_index, indices[None, :]),
                      scaled)
        else:
            self._sketch_ensemble.update_batch(indices, scaled)
        self._num_updates += int(indices.size)
        self._estimate_memo = None

    def __getstate__(self):
        """Pickle without the estimate memo, so a snapshot's bytes depend
        only on the stream state; the next query recomputes it."""
        state = self.__dict__.copy()
        del state["_estimate_memo"]
        return state

    def __setstate__(self, state):
        """Restore with no memo (also for pickles written before it existed)."""
        self.__dict__.update(state)
        self._estimate_memo = None

    def _maximum_scaled_magnitudes(self) -> np.ndarray:
        """Per-repetition recovered maxima ``max_i |z^{(r)}_i|``."""
        if self._exact_recovery:
            return np.max(np.abs(self._scaled_vectors), axis=1)
        estimates = self._sketch_ensemble.estimate_all_members()
        return np.max(np.abs(estimates), axis=1)

    def estimate(self) -> float:
        """The unbiased estimate ``F̂_p = (k - 1) / sum_j M_j^{-1}``.

        Computed once per ingest state and reused until the state changes:
        :meth:`update` and :meth:`update_batch` (and so ``update_stream``)
        drop the memo, as do :meth:`FpEstimatorEnsemble.update_batch` and
        :meth:`FpEstimatorEnsemble.merge` in sketch mode.  The estimate
        draws no randomness, so the memo changes no returned value.
        """
        if self._estimate_memo is None:
            self._estimate_memo = self._compute_estimate()
        return self._estimate_memo

    def _compute_estimate(self) -> float:
        if self._num_updates == 0:
            raise SamplerStateError("Fp estimator queried before any update")
        maxima = self._maximum_scaled_magnitudes()
        if np.any(maxima <= 0):
            # All-zero repetitions can only occur for the zero vector (or a
            # catastrophically failed sketch); report zero moment.
            return 0.0
        inverse_moments = maxima ** (-self._p)
        return float((self._repetitions - 1) / inverse_moments.sum())

    def estimate_variance_bound(self) -> float:
        """The a-priori variance bound ``F_p^2 / (repetitions - 2)`` (relative form)."""
        return 1.0 / (self._repetitions - 2)


class FpEstimatorEnsemble(ReplicaEnsemble):
    """``R`` independent max-stability ``F_p`` estimators, stacked.

    In oracle (``exact_recovery``) mode — the mode distribution-level
    experiments replicate by the hundreds — the ``R * repetitions`` scaled
    vectors live in one ``(R, repetitions, n)`` array beside the stacked
    scale factors, and every batch lands in all of them with a single
    scatter-add; no instance is kept.  In sketch mode each replica
    ingests the batch through its own ``update_batch`` (one fused scatter
    into its inner CountSketch ensemble), so the state lives inside the
    replica instances exactly as in the standalone path, the ensemble
    keeps them (:attr:`replicas`), and each replica keeps its
    once-per-ingest-state estimate memo.  Either way the replicas must be
    fresh when the ensemble is built.
    """

    def __init__(self, instances) -> None:
        require_fresh(instances, lambda inst: inst._num_updates > 0, "F_p")
        first = instances[0]
        if any((inst._n, inst._p, inst._repetitions, inst._exact_recovery)
               != (first._n, first._p, first._repetitions, first._exact_recovery)
               for inst in instances):
            raise InvalidParameterError(
                "ensemble members must share (n, p, repetitions, recovery mode)")
        self._n = first._n
        self._p = first._p
        self._exact = first._exact_recovery
        self._repetitions = first._repetitions
        if self._exact:
            self._instances = None
            self._inverse_scales = np.stack(
                [inst._inverse_scales for inst in instances])
            self._scaled_vectors = np.zeros(
                (len(instances), self._repetitions, self._n), dtype=float)
            self._num_updates = np.zeros(len(instances), dtype=np.int64)
        else:
            self._instances = list(instances)

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        if self._exact:
            return self._scaled_vectors.shape[0]
        return len(self._instances)

    @property
    def replicas(self) -> list:
        """The sketch-mode replica instances, which hold the state.

        Oracle mode keeps stacked arrays and no instance, so it has no
        such attribute.
        """
        if self._exact:
            raise AttributeError(
                "an oracle-mode FpEstimatorEnsemble keeps stacked arrays, "
                "not replica instances")
        return self._instances

    def space_counters(self) -> int:
        """Total stored counters across all replicas."""
        if self._exact:
            return int(self._scaled_vectors.size)
        return sum(instance.space_counters() for instance in self._instances)

    @classmethod
    def concat(cls, ensembles: "list[FpEstimatorEnsemble]") -> "FpEstimatorEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        In oracle mode the stacked scale factors, scaled vectors, and update
        counts are concatenated as-is; in sketch mode the state already
        lives inside the replica instances, so concatenation is pure
        instance-list flattening.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any((e._n, e._p, e._exact, e._repetitions)
               != (first._n, first._p, first._exact, first._repetitions)
               for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share (n, p, repetitions, recovery mode)")
        merged = cls.__new__(cls)
        merged._n = first._n
        merged._p = first._p
        merged._exact = first._exact
        merged._repetitions = first._repetitions
        if first._exact:
            merged._instances = None
            merged._inverse_scales = np.concatenate(
                [e._inverse_scales for e in ensembles])
            merged._scaled_vectors = np.concatenate(
                [e._scaled_vectors for e in ensembles])
            merged._num_updates = np.concatenate(
                [e._num_updates for e in ensembles])
        else:
            merged._instances = [inst for e in ensembles for inst in e._instances]
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
            self._num_updates += other._num_updates
            return self
        for mine, theirs in zip(self._instances, other._instances):
            mine._sketch_ensemble.merge(theirs._sketch_ensemble)
            mine._num_updates += theirs._num_updates
            mine._estimate_memo = None
        return self

    def check_mergeable(self, other: "FpEstimatorEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        In sketch mode this validates every replica's scale factors *and*
        its inner CountSketch ensemble before the first replica is merged
        — a mid-loop mismatch previously left earlier replicas already
        folded (silent partial corruption).
        """
        require_merge_peer(self, other)
        require_merge_compatible(
            "Fp-estimator ensembles",
            {"n": self._n, "recovery mode": self._exact,
             "repetitions": self._repetitions,
             "num_replicas": self.num_replicas},
            {"n": other._n, "recovery mode": other._exact,
             "repetitions": other._repetitions,
             "num_replicas": other.num_replicas})
        if self._exact:
            require_merge_compatible(
                "Fp-estimator ensembles",
                {"exponential scale factors": self._inverse_scales},
                {"exponential scale factors": other._inverse_scales})
            return
        for mine, theirs in zip(self._instances, other._instances):
            require_merge_compatible(
                "Fp-estimator replicas",
                {"exponential scale factors": mine._inverse_scales},
                {"exponential scale factors": theirs._inverse_scales})
            mine._sketch_ensemble.check_mergeable(theirs._sketch_ensemble)

    def update_batch(self, indices, deltas) -> None:
        """Apply one validated batch to every replica."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        if self._exact:
            scaled = deltas * self._inverse_scales[:, :, indices]
            replica_index = np.arange(self.num_replicas)[:, None, None]
            repetition_index = np.arange(self._repetitions)[None, :, None]
            np.add.at(self._scaled_vectors,
                      (replica_index, repetition_index,
                       indices[None, None, :]),
                      scaled)
            self._num_updates += int(indices.size)
        else:
            for instance in self._instances:
                instance.update_batch(indices, deltas)

    def estimate_replica(self, replica: int) -> float:
        """The unbiased ``F̂_p`` estimate of one replica.

        Sketch mode returns the replica's memoised estimate; oracle mode
        recomputes it from the stacked scaled vectors.
        """
        if not self._exact:
            return self._instances[replica].estimate()
        if self._num_updates[replica] == 0:
            raise SamplerStateError("Fp estimator queried before any update")
        maxima = np.max(np.abs(self._scaled_vectors[replica]), axis=1)
        if np.any(maxima <= 0):
            return 0.0
        inverse_moments = maxima ** (-self._p)
        return float((self._repetitions - 1) / inverse_moments.sum())

    def sample_replica(self, replica: int):
        """Fp estimators have no ``sample``; the ensemble is query-only."""
        raise NotImplementedError("FpEstimatorEnsemble is query-only")


register_ensemble(MaxStabilityFpEstimator, FpEstimatorEnsemble)


class FpEstimator(BatchUpdateMixin):
    """High-probability constant-factor ``F_p`` approximation (``FpEst``).

    A median over ``groups`` independent :class:`MaxStabilityFpEstimator`
    instances: each group is within a factor 2 of ``F_p`` with probability
    at least 3/4 (Chebyshev with the ``1/(k-2)`` relative variance), so the
    median is a 2-approximation with probability ``1 - exp(-Omega(groups))``.

    Each group computes its estimate once per ingest state (see
    :meth:`MaxStabilityFpEstimator.estimate`), so repeated :meth:`estimate`
    calls between updates cost only the median; :meth:`update`,
    :meth:`update_batch` and ``update_stream`` drop every group's memo.

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
        rng = ensure_rng(seed)
        seeds = random_seed_array(rng, groups)
        self._groups = [
            MaxStabilityFpEstimator(
                n, p, repetitions=repetitions_per_group, buckets=buckets, rows=rows,
                seed=int(seed_value), exact_recovery=exact_recovery,
            )
            for seed_value in seeds
        ]

    def space_counters(self) -> int:
        """Total counters across all groups."""
        return sum(group.space_counters() for group in self._groups)

    def update(self, index: int, delta: float) -> None:
        """Apply an update to every group."""
        for group in self._groups:
            group.update(index, delta)

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch to every group (vectorised inside each group)."""
        indices, deltas = coerce_batch(indices, deltas)
        for group in self._groups:
            group.update_batch(indices, deltas)

    def estimate(self) -> float:
        """Median-of-groups estimate of ``F_p``."""
        return float(np.median([group.estimate() for group in self._groups]))
