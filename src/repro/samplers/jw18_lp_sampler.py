"""Perfect ``L_p`` sampler for ``p in (0, 2]`` in the style of [JW18].

This is the substrate Theorem 1.10 provides to Algorithms 1-3 of the paper.
The construction follows the exponential-scaling blueprint:

1. every coordinate ``i`` is assigned an independent standard exponential
   ``e_i`` and the stream is rerouted to the *scaled* vector
   ``z_i = x_i / e_i^{1/p}``;
2. by Lemma 1.16, ``argmax_i |z_i|`` is distributed exactly as
   ``|x_i|^p / ||x||_p^p``, so a perfect sample is obtained by recovering
   the maximum of ``z``;
3. the maximum is a ``1/log^2 n``-heavy hitter of ``z`` with high
   probability (Lemma 1.17), so a CountSketch with ``polylog(n)`` buckets
   recovers it; an AMS sketch of ``z`` provides the ``L_2`` scale used by a
   gap-based statistical test that declares ``FAIL`` whenever the top two
   estimates are too close for the CountSketch error to separate them
   (failure probability a constant, as Definition 1.9 permits);
4. the value of the sampled coordinate is estimated by averaging
   ``polylog(n)`` further independent CountSketch instances of ``z`` and
   multiplying back by ``e_i^{1/p}`` (Corollary 2.3).

The implementation supports an ``exact_recovery`` oracle mode in which the
scaled vector is tracked exactly instead of sketched.  The sampling
*distribution* is identical when the sketches succeed; oracle mode exists so
that distribution-level statistical tests (thousands of independent draws)
run at laptop speed.  DESIGN.md records this as an evaluation device, not as
part of the algorithm.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import BatchUpdateMixin, Sample, check_batch_bounds, coerce_batch
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countsketch import AveragedCountSketch, CountSketch, CountSketchEnsemble
from repro.utils.batching import check_member_index
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_moment_order, require_positive_int


class JW18LpSampler(BatchUpdateMixin):
    """Perfect ``L_p`` sampler for ``p in (0, 2]`` on turnstile streams.

    Parameters
    ----------
    n:
        Universe size.
    p:
        Moment order in ``(0, 2]``.
    buckets, rows:
        Dimensions of the CountSketch used to recover the maximum of the
        scaled vector; ``buckets=None`` selects ``Theta(log^2 n)``.
    value_instances, value_buckets, value_rows:
        Configuration of the averaged CountSketch bank used for value
        estimation (Corollary 2.3); ``value_instances`` controls how many
        *independent* coordinate estimates downstream algorithms may draw.
    gap_test:
        Whether to run the statistical gap test (the paper's samplers do;
        disabling it is useful in ablations).
    gap_multiplier:
        The gap threshold is ``gap_multiplier * R / sqrt(buckets)`` where
        ``R`` is the AMS estimate of ``||z||_2``, randomised by a uniform
        factor in ``[1/2, 3/2]`` as in Algorithm 4.
    exact_recovery:
        Oracle mode (see module docstring).
    """

    def __init__(self, n: int, p: float, seed: SeedLike = None, *,
                 buckets: int | None = None, rows: int = 5,
                 value_instances: int = 8, value_buckets: int | None = None,
                 value_rows: int = 5, gap_test: bool = True,
                 gap_multiplier: float = 2.0,
                 exact_recovery: bool = False) -> None:
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        self._n = n
        self._p = float(p)
        self._gap_test = gap_test
        self._gap_multiplier = float(gap_multiplier)
        self._exact_recovery = exact_recovery
        rng = ensure_rng(seed)
        self._rng = rng

        log_n = max(2.0, math.log2(max(n, 4)))
        if buckets is None:
            buckets = int(math.ceil(4 * log_n**2))
        if value_buckets is None:
            value_buckets = int(math.ceil(4 * log_n**2))
        self._buckets = int(buckets)

        # Independent exponentials; dense because every coordinate may be
        # touched and the evaluation harness compares against them directly.
        self._exponentials = rng.exponential(size=n)
        self._inverse_scale = self._exponentials ** (-1.0 / self._p)

        if exact_recovery:
            self._scaled_vector = np.zeros(n, dtype=float)
            self._main_sketch: CountSketch | None = None
            self._value_bank: AveragedCountSketch | None = None
            self._ams: AMSSketch | None = None
        else:
            self._scaled_vector = None
            self._main_sketch = CountSketch(
                n, self._buckets, rows, int(rng.integers(0, 2**63 - 1))
            )
            self._value_bank = AveragedCountSketch(
                n, int(value_buckets), value_rows, value_instances,
                int(rng.integers(0, 2**63 - 1)),
            )
            self._ams = AMSSketch(n, width=12, depth=5, seed=int(rng.integers(0, 2**63 - 1)))
        self._num_updates = 0

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    def space_counters(self) -> int:
        """Stored counters (sketch cells, or the exact scaled vector in oracle mode)."""
        if self._exact_recovery:
            return self._n
        return (
            self._main_sketch.space_counters()
            + self._value_bank.space_counters()
            + self._ams.space_counters()
        )

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #
    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)`` to the scaled vector."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        scaled_delta = delta * self._inverse_scale[index]
        if self._exact_recovery:
            self._scaled_vector[index] += scaled_delta
        else:
            self._main_sketch.update(index, scaled_delta)
            self._value_bank.update(index, scaled_delta)
            self._ams.update(index, scaled_delta)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates to the scaled vector in one pass."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[indices]
        if self._exact_recovery:
            np.add.at(self._scaled_vector, indices, scaled)
        else:
            self._main_sketch.update_batch(indices, scaled)
            self._value_bank.update_batch(indices, scaled)
            self._ams.update_batch(indices, scaled)
        self._num_updates += int(indices.size)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _scaled_estimates(self) -> np.ndarray:
        if self._exact_recovery:
            return self._scaled_vector
        return self._main_sketch.estimate_all()

    def _l2_scale(self) -> float:
        if self._exact_recovery:
            return float(np.linalg.norm(self._scaled_vector))
        return self._ams.estimate_l2()

    def sample(self) -> Optional[Sample]:
        """Return a perfect ``L_p`` draw, or ``None`` on the ``FAIL`` event."""
        if self._num_updates == 0:
            return None
        estimates = self._scaled_estimates()
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        order = np.argsort(-magnitudes)
        best = int(order[0])
        runner_up_magnitude = float(magnitudes[order[1]]) if self._n > 1 else 0.0
        gap = float(magnitudes[best]) - runner_up_magnitude

        threshold = 0.0
        if self._gap_test and not self._exact_recovery:
            scale = self._l2_scale()
            jitter = self._rng.uniform(0.5, 1.5)
            threshold = self._gap_multiplier * jitter * scale / math.sqrt(self._buckets)
            if gap <= threshold:
                return None

        value_estimate = self.estimate_value(best)
        return Sample(
            index=best,
            value_estimate=value_estimate,
            metadata={
                "gap": gap,
                "gap_threshold": threshold,
                "scaled_maximum": float(magnitudes[best]),
                "exponential": float(self._exponentials[best]),
            },
        )

    def estimate_value(self, index: int) -> float:
        """Estimate ``x_index`` by unscaling the averaged CountSketch estimate."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if self._exact_recovery:
            scaled = float(self._scaled_vector[index])
        else:
            scaled = self._value_bank.estimate(index)
        return scaled * self._exponentials[index] ** (1.0 / self._p)

    def independent_value_estimates(self, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """``count`` (nearly) independent estimates of ``x_index``.

        Algorithm 1 consumes ``p - 2`` independent estimates and Algorithm 2
        consumes ``Q = O(log n)`` of them; each estimate here is the average
        of an independent group of CountSketch instances, unscaled by
        ``e_index^{1/p}``.  In oracle mode all estimates equal the exact
        value.
        """
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_positive_int(count, "count")
        unscale = self._exponentials[index] ** (1.0 / self._p)
        if self._exact_recovery:
            return np.full(count, float(self._scaled_vector[index]) * unscale)
        estimates = self._value_bank.instance_estimates(index)
        if group_size is None:
            group_size = max(1, len(estimates) // count)
        groups = []
        for group_index in range(count):
            start = (group_index * group_size) % len(estimates)
            chunk = estimates[start:start + group_size]
            if len(chunk) < group_size:
                chunk = np.concatenate([chunk, estimates[: group_size - len(chunk)]])
            groups.append(float(np.mean(chunk)))
        return np.asarray(groups) * unscale

    def scaled_vector_estimate(self) -> np.ndarray:
        """The estimated scaled vector (exact in oracle mode)."""
        return np.array(self._scaled_estimates(), copy=True)


class _Candidates(NamedTuple):
    """Per-replica query arrays of one ingest state (see
    :meth:`JW18LpSamplerEnsemble._candidate_arrays`)."""

    top: np.ndarray                #: top coordinate, -1 if the replica has no mass
    gap: np.ndarray                #: top magnitude minus the runner-up's
    scale: Optional[np.ndarray]    #: AMS ``||z||_2`` estimates (sketch mode)
    values: Optional[np.ndarray]   #: ``(R, value_instances)`` estimates at ``top``


def _top_and_gap(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's top coordinate (-1 without mass) and its gap to the runner-up.

    Equals the scalar walk of ``sample()`` — ``argsort(-|z|)``, top minus
    second — row for row: ``argmax`` finds a unique top; a row whose top
    is tied, or that holds a NaN, takes the ``argsort`` index instead,
    because there the two may pick different coordinates.  ``magnitudes``
    is written to and restored, so it holds no second ``(R, n)`` copy.
    """
    replicas, n = magnitudes.shape
    rows = np.arange(replicas)
    top = np.argmax(magnitudes, axis=1)
    maximum = magnitudes[rows, top]
    runner_up = np.zeros(replicas)
    if n > 1:
        magnitudes[rows, top] = -np.inf
        runner_up = magnitudes.max(axis=1)
        magnitudes[rows, top] = maximum
    gap = maximum - runner_up
    top[~(maximum > 0)] = -1
    for row in np.flatnonzero(((runner_up == maximum) & (maximum > 0))
                              | np.isnan(maximum)):
        values = magnitudes[row]
        if not np.any(values > 0):
            top[row] = -1
            continue
        # Reached only with n > 1: a single positive value is never tied.
        order = np.argsort(-values)
        top[row] = order[0]
        gap[row] = float(values[order[0]]) - float(values[order[1]])
    return top, gap


class JW18LpSamplerEnsemble(ReplicaEnsemble):
    """``R`` independent JW18 samplers driven by one shared ingest pass.

    The per-replica exponential scalings are stacked into an ``(R, n)``
    matrix; every stream batch is scaled for all replicas at once and lands
    in the replicas' substrates through three native ensembles (the main
    CountSketch, the flattened ``R * value_instances`` value-bank members,
    and the AMS sketches) — or, in oracle mode, one stacked
    ``(R, n)`` scaled-vector scatter.  Queries derive each replica's top
    coordinate, gap, ``L_2`` scale and value estimates for all replicas at
    once per ingest state; each draw then consumes its replica's own
    generator exactly as the standalone ``sample()`` does, so both state
    and samples are bit-identical to driving each instance separately.

    Replicas must be *fresh* (un-updated) when the ensemble is built: the
    stacked state starts from the instances' (zero) tables.
    """

    def __init__(self, instances) -> None:
        super().__init__(instances)
        first = instances[0]
        def _config(inst):
            value_instances = (None if inst._exact_recovery
                               else inst._value_bank.num_instances)
            return (inst._n, inst._p, inst._exact_recovery, inst._gap_test,
                    inst._gap_multiplier, inst._buckets, value_instances)

        if any(_config(inst) != _config(first) for inst in instances):
            raise InvalidParameterError(
                "ensemble replicas must share (n, p, mode, gap and value-bank "
                "configuration)")
        self._n = first._n
        self._p = first._p
        self._exact = first._exact_recovery
        self._inverse_scale = np.stack([inst._inverse_scale for inst in instances])
        if self._exact:
            self._scaled_vectors = np.zeros((len(instances), self._n), dtype=float)
            self._main = None
            self._value = None
            self._ams = None
            self._value_group = 0
        else:
            self._scaled_vectors = None
            self._main = CountSketchEnsemble(
                [inst._main_sketch for inst in instances])
            self._value = CountSketchEnsemble.concat(
                [inst._value_bank._ensemble for inst in instances])
            self._value_group = first._value_bank.num_instances
            self._ams = AMSEnsemble([inst._ams for inst in instances])
        self._num_updates = 0
        self._drop_query_caches()

    @classmethod
    def concat(cls, ensembles: "list[JW18LpSamplerEnsemble]") -> "JW18LpSamplerEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        The per-replica exponential scalings and all substrate state (main
        sketches, flattened value banks, AMS counters — or the oracle
        scaled vectors) are concatenated as-is.  Every shard must have
        ingested the same stream (replica sharding shares the stream), so
        the shared update count is taken from the first shard.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any((e._n, e._p, e._exact, e._value_group)
               != (first._n, first._p, first._exact, first._value_group)
               for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share (n, p, mode, value-bank configuration)")
        merged = cls.__new__(cls)
        ReplicaEnsemble.__init__(
            merged, [inst for e in ensembles for inst in e._instances])
        merged._n = first._n
        merged._p = first._p
        merged._exact = first._exact
        merged._value_group = first._value_group
        merged._inverse_scale = np.concatenate(
            [e._inverse_scale for e in ensembles])
        if first._exact:
            merged._scaled_vectors = np.concatenate(
                [e._scaled_vectors for e in ensembles])
            merged._main = None
            merged._value = None
            merged._ams = None
        else:
            merged._scaled_vectors = None
            merged._main = CountSketchEnsemble.concat([e._main for e in ensembles])
            merged._value = CountSketchEnsemble.concat([e._value for e in ensembles])
            merged._ams = AMSEnsemble.concat([e._ams for e in ensembles])
        merged._num_updates = first._num_updates
        merged._drop_query_caches()
        return merged

    def merge(self, other: "JW18LpSamplerEnsemble") -> "JW18LpSamplerEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        All substrates are linear sketches of the (per-replica) scaled
        vector, so same-seed shard copies fed disjoint stream shards add
        into the ensemble of the concatenated stream; the query-time
        generators of ``self``'s replicas are untouched by ingest and keep
        producing the monolithic draw sequence.  In place; returns ``self``.
        """
        if not isinstance(other, JW18LpSamplerEnsemble):
            raise InvalidParameterError(
                "can only merge JW18LpSamplerEnsemble with its own kind")
        if ((other._n, other._p, other._exact, other._value_group)
                != (self._n, self._p, self._exact, self._value_group)
                or other.num_replicas != self.num_replicas
                or not np.array_equal(self._inverse_scale, other._inverse_scale)):
            raise InvalidParameterError(
                "can only merge identically seeded, identically configured ensembles")
        if self._exact:
            self._scaled_vectors += other._scaled_vectors
        else:
            # Validate all three substrates before touching any, so a
            # mismatched peer cannot leave a partially merged replica.
            self._main.check_mergeable(other._main)
            self._value.check_mergeable(other._value)
            self._ams.check_mergeable(other._ams)
            self._main.merge(other._main)
            self._value.merge(other._value)
            self._ams.merge(other._ams)
        self._num_updates += other._num_updates
        self._drop_query_caches()
        return self

    def update_batch(self, indices, deltas) -> None:
        """Scale one batch for every replica and ingest it everywhere."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scaled = deltas * self._inverse_scale[:, indices]
        if self._exact:
            replica_index = np.arange(self.num_replicas)[:, None]
            np.add.at(self._scaled_vectors, (replica_index, indices[None, :]),
                      scaled)
        else:
            self._main.update_batch(indices, scaled)
            self._value.update_batch(indices, scaled)
            self._ams.update_batch(indices, scaled)
        self._num_updates += int(indices.size)
        self._drop_query_caches()

    def _drop_query_caches(self) -> None:
        """Forget what the queries derived from the current ingest state."""
        self._estimates_cache = None
        self._candidates = None

    def __getstate__(self):
        """Pickle without the query caches; they are recomputed from the
        sketch tables by the next query."""
        state = self.__dict__.copy()
        state["_estimates_cache"] = None
        state["_candidates"] = None
        return state

    def __setstate__(self, state):
        """Restore with empty query caches (also for snapshots that kept
        ``_estimates_cache``)."""
        self.__dict__.update(state)
        self._drop_query_caches()

    def _scaled_estimates(self) -> np.ndarray:
        """The ``(R, n)`` matrix of per-replica scaled-vector estimates."""
        if self._estimates_cache is None:
            if self._exact:
                self._estimates_cache = self._scaled_vectors
            else:
                self._estimates_cache = self._main.estimate_all_members()
        return self._estimates_cache

    def _candidate_arrays(self) -> _Candidates:
        """The per-replica query arrays of the current ingest state.

        Computed once per state for all ``R`` replicas, so each
        :meth:`sample_replica` call only reads them: the main-sketch
        estimates, their top coordinate and gap, the AMS scales, and the
        value-bank members' estimates at each replica's top coordinate
        (only those ``R * value_instances * rows`` cells are read).
        """
        if self._candidates is None:
            top, gap = _top_and_gap(np.abs(self._scaled_estimates()))
            scale = values = None
            if not self._exact:
                scale = np.sqrt(self._ams.estimate_f2_members())
                keys = np.repeat(np.maximum(top, 0), self._value_group)
                values = self._value.estimate_at(
                    np.arange(self._value.num_members), keys,
                ).reshape(self.num_replicas, self._value_group)
            self._candidates = _Candidates(top, gap, scale, values)
        return self._candidates

    def _value_member_estimates(self, replica: int, index: int) -> np.ndarray:
        """Per-member value-bank estimates of one replica at one coordinate."""
        candidates = self._candidates
        if candidates is not None and index == candidates.top[replica]:
            return candidates.values[replica]
        members = slice(replica * self._value_group,
                        (replica + 1) * self._value_group)
        return self._value.estimate_members_at(members, index)

    def estimate_value(self, replica: int, index: int) -> float:
        """Replica's estimate of ``x_index`` (matches the standalone method)."""
        check_member_index(replica, self.num_replicas, "replica")
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        instance = self._instances[replica]
        if self._exact:
            scaled = float(self._scaled_vectors[replica, index])
        else:
            scaled = float(np.mean(self._value_member_estimates(replica, index)))
        return scaled * instance._exponentials[index] ** (1.0 / self._p)

    def independent_value_estimates(self, replica: int, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """Replica's ``count`` (nearly) independent estimates of ``x_index``."""
        check_member_index(replica, self.num_replicas, "replica")
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_positive_int(count, "count")
        instance = self._instances[replica]
        unscale = instance._exponentials[index] ** (1.0 / self._p)
        if self._exact:
            return np.full(count, float(self._scaled_vectors[replica, index]) * unscale)
        estimates = self._value_member_estimates(replica, index)
        if group_size is None:
            group_size = max(1, len(estimates) // count)
        groups = []
        for group_index in range(count):
            start = (group_index * group_size) % len(estimates)
            chunk = estimates[start:start + group_size]
            if len(chunk) < group_size:
                chunk = np.concatenate([chunk, estimates[: group_size - len(chunk)]])
            groups.append(float(np.mean(chunk)))
        return np.asarray(groups) * unscale

    def sample_replica(self, replica: int) -> Optional[Sample]:
        """One-shot draw of replica ``replica`` (mirrors ``sample()``).

        Reads the per-state arrays of :meth:`_candidate_arrays`; the gap
        test's jitter still comes from the replica's own generator, and the
        threshold and value arithmetic stay scalar, as in ``sample()``.
        """
        check_member_index(replica, self.num_replicas, "replica")
        if self._num_updates == 0:
            return None
        candidates = self._candidate_arrays()
        best = int(candidates.top[replica])
        if best < 0:
            return None
        instance = self._instances[replica]
        gap = float(candidates.gap[replica])

        threshold = 0.0
        if instance._gap_test and not self._exact:
            scale = float(candidates.scale[replica])
            jitter = instance._rng.uniform(0.5, 1.5)
            threshold = (instance._gap_multiplier * jitter * scale
                         / math.sqrt(instance._buckets))
            if gap <= threshold:
                return None

        value_estimate = self.estimate_value(replica, best)
        return Sample(
            index=best,
            value_estimate=value_estimate,
            metadata={
                "gap": gap,
                "gap_threshold": threshold,
                "scaled_maximum": abs(float(self._scaled_estimates()[replica, best])),
                "exponential": float(instance._exponentials[best]),
            },
        )


register_ensemble(JW18LpSampler, JW18LpSamplerEnsemble)


class PerfectL2Sampler(JW18LpSampler):
    """Perfect ``L_2`` sampler — the exact substrate Algorithms 1-2 call for."""

    def __init__(self, n: int, seed: SeedLike = None, **kwargs) -> None:
        super().__init__(n, 2.0, seed, **kwargs)
