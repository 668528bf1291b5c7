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
run at laptop speed.  It is an evaluation device, not part of the
algorithm.

The sampler is written once, in :class:`JW18LpSamplerEnsemble` (``R``
samplers stacked along a replica axis): :class:`JW18LpSampler` is a view of
a one-replica ensemble (see :mod:`repro.utils.ensemble`), and
:func:`draw_jw18_replica` is the one copy of the draw order both use.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import Sample
from repro.sketch.ams import AMSEnsemble
from repro.sketch.countsketch import CountSketchEnsemble, averaged_member_seeds
from repro.utils.batching import check_member_index
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, replica_seed
from repro.utils.validation import require_moment_order, require_positive_int

#: Shape ``(width, depth)`` of every sampler's AMS sketch of ``z``.
_AMS_SHAPE = (12, 5)


def _sketch_widths(n: int, buckets: int | None,
                   value_buckets: int | None) -> tuple[int, int]:
    """Main-sketch and value-bank buckets; ``None`` selects ``4 log^2 n``."""
    log_n = max(2.0, math.log2(max(n, 4)))
    if buckets is None:
        buckets = int(math.ceil(4 * log_n**2))
    if value_buckets is None:
        value_buckets = int(math.ceil(4 * log_n**2))
    return int(buckets), int(value_buckets)


def draw_jw18_replica(seed: SeedLike, n: int, exact_recovery: bool):
    """What one JW18 sampler draws at construction, in its order.

    Returns ``(rng, exponentials, substrate_seeds)``: the generator, left
    where ``sample()``'s gap-test jitter continues; the ``n`` standard
    exponentials; and, in sketch mode, the seeds of the main CountSketch,
    the value bank and the AMS sketch (``None`` in oracle mode).
    :meth:`JW18LpSamplerEnsemble.from_seeds`, and so every
    :class:`JW18LpSampler`, draws through this.
    """
    rng = ensure_rng(seed)
    # Independent exponentials; dense because every coordinate may be
    # touched and the evaluation harness compares against them directly.
    exponentials = rng.exponential(size=n)
    if exact_recovery:
        return rng, exponentials, None
    return rng, exponentials, tuple(int(rng.integers(0, 2**63 - 1))
                                    for _ in range(3))


class JW18LpSampler(ReplicaView):
    """Perfect ``L_p`` sampler for ``p in (0, 2]`` on turnstile streams.

    A view of a one-replica :class:`JW18LpSamplerEnsemble`.

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
        self._ensemble = JW18LpSamplerEnsemble.from_seeds(
            n, p, [seed], buckets=buckets, rows=rows,
            value_instances=value_instances, value_buckets=value_buckets,
            value_rows=value_rows, gap_test=gap_test,
            gap_multiplier=gap_multiplier, exact_recovery=exact_recovery)
        self._n = n
        self._p = float(p)

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def p(self) -> float:
        """Moment order."""
        return self._p

    def sample(self) -> Optional[Sample]:
        """Return a perfect ``L_p`` draw, or ``None`` on the ``FAIL`` event."""
        return self._ensemble._sample(0)

    def estimate_value(self, index: int) -> float:
        """Estimate ``x_index`` by unscaling the averaged CountSketch estimate."""
        return self._ensemble.estimate_value(0, index)

    def independent_value_estimates(self, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """``count`` (nearly) independent estimates of ``x_index``.

        Algorithm 1 consumes ``p - 2`` independent estimates and Algorithm 2
        consumes ``Q = O(log n)`` of them; each estimate here is the average
        of an independent group of CountSketch instances, unscaled by
        ``e_index^{1/p}``.  In oracle mode all estimates equal the exact
        value.
        """
        return self._ensemble.independent_value_estimates(
            0, index, count, group_size)

    def scaled_vector_estimate(self) -> np.ndarray:
        """The estimated scaled vector (exact in oracle mode)."""
        return np.array(self._ensemble._scaled_estimates()[0], copy=True)


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

    The per-replica exponentials and their scalings are stacked into
    ``(R, n)`` matrices; every stream batch is scaled for all replicas at
    once and lands in the replicas' substrates through three native
    ensembles (the main CountSketch, the flattened ``R * value_instances``
    value-bank members, and the AMS sketches) — or, in oracle mode, one
    stacked ``(R, n)`` scaled-vector scatter.  Queries derive each
    replica's top coordinate, gap, ``L_2`` scale and value estimates for
    all replicas at once per ingest state; each draw then consumes its
    replica's own query-time generator (kept in a list), so both state and
    samples are bit-identical however the replicas are stacked.

    That is all the ensemble keeps.  The gap test, its multiplier and the
    main-sketch width are the same for every replica and are ensemble
    fields.  Built from :class:`JW18LpSampler` views it concatenates their
    one-replica ensembles; :meth:`from_seeds` draws the replicas directly.
    """

    #: Query caches: recomputed from the sketch tables by the next query.
    _DERIVED = ("_estimates_cache", "_candidates")

    @classmethod
    def from_seeds(cls, n: int, p: float, seeds, *,
                   buckets: int | None = None, rows: int = 5,
                   value_instances: int = 8, value_buckets: int | None = None,
                   value_rows: int = 5, gap_test: bool = True,
                   gap_multiplier: float = 2.0,
                   exact_recovery: bool = False) -> "JW18LpSamplerEnsemble":
        """The ensemble of ``JW18LpSampler(n, p, s, **config)`` for ``s``
        in ``seeds``, without building those samplers.

        Each replica draws through :func:`draw_jw18_replica`, and its
        substrates through the CountSketch and AMS ``from_seeds``, so
        replica ``r``'s state, draws and generator are bitwise those of the
        sampler with seed ``seeds[r]``.
        """
        require_positive_int(n, "n")
        require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        require_replicas(seeds)
        p = float(p)
        buckets, value_buckets = _sketch_widths(n, buckets, value_buckets)
        replicas = len(seeds)
        rngs = []
        substrate_seeds = []
        exponentials = np.empty((replicas, n))
        inverse_scale = np.empty((replicas, n))
        for replica, seed in enumerate(seeds):
            rng, drawn, seeds_of_replica = draw_jw18_replica(
                replica_seed(seed), n, exact_recovery)
            rngs.append(rng)
            substrate_seeds.append(seeds_of_replica)
            exponentials[replica] = drawn
            # Row by row: the scaling is one sampler's (n,) computation.
            inverse_scale[replica] = drawn ** (-1.0 / p)
        if exact_recovery:
            substrates = (None, None, None, 0)
        else:
            require_positive_int(value_instances, "value_instances")
            main_seeds, value_seeds, ams_seeds = zip(*substrate_seeds)
            width, depth = _AMS_SHAPE
            substrates = (
                CountSketchEnsemble.from_seeds(n, buckets, rows, main_seeds),
                CountSketchEnsemble.from_seeds(
                    n, value_buckets, value_rows,
                    np.concatenate([averaged_member_seeds(seed, value_instances)
                                    for seed in value_seeds])),
                AMSEnsemble.from_seeds(n, width, depth, ams_seeds),
                value_instances)
        ensemble = cls.__new__(cls)
        ensemble._setup(n, p, exact_recovery, gap_test, float(gap_multiplier),
                        buckets, rngs, exponentials, inverse_scale,
                        *substrates)
        return ensemble

    def _setup(self, n, p, exact, gap_test, gap_multiplier, buckets, rngs,
               exponentials, inverse_scale, main, value, ams, value_group,
               scaled_vectors=None, num_updates: int = 0) -> None:
        """Set every field; missing oracle-mode vectors start at zero."""
        self._n = n
        self._p = p
        self._exact = exact
        self._gap_test = gap_test
        self._gap_multiplier = gap_multiplier
        self._buckets = buckets
        self._rngs = rngs
        self._exponentials = exponentials
        self._inverse_scale = inverse_scale
        self._main = main
        self._value = value
        self._ams = ams
        self._value_group = value_group
        if exact and scaled_vectors is None:
            scaled_vectors = np.zeros((len(rngs), n), dtype=float)
        self._scaled_vectors = scaled_vectors
        self._num_updates = num_updates
        self._drop_query_caches()

    def _shared(self) -> tuple:
        """The configuration every replica shares."""
        return (self._n, self._p, self._exact, self._gap_test,
                self._gap_multiplier, self._buckets, self._value_group)

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return len(self._rngs)

    def _has_ingested(self) -> bool:
        """Whether the replicas have ingested an update."""
        return self._num_updates > 0

    def space_counters(self) -> int:
        """Stored counters across all replicas (sketch cells, or the exact
        scaled vectors in oracle mode)."""
        if self._exact:
            return int(self._scaled_vectors.size)
        return (self._main.space_counters() + self._value.space_counters()
                + self._ams.space_counters())

    @classmethod
    def concat(cls, ensembles: "list[JW18LpSamplerEnsemble]") -> "JW18LpSamplerEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        The per-replica generators, exponentials, scalings and all
        substrate state (main sketches, flattened value banks, AMS counters
        — or the oracle scaled vectors) are concatenated as-is.  Every
        shard must have ingested the same stream (replica sharding shares
        the stream), so the shared update count is taken from the first
        shard.
        """
        require_replicas(ensembles)
        first = ensembles[0]
        if any(e._shared() != first._shared() for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share (n, p, mode, gap and value-bank "
                "configuration)")
        if first._exact:
            substrates = (None, None, None, 0)
            scaled_vectors = np.concatenate(
                [e._scaled_vectors for e in ensembles])
        else:
            substrates = (
                CountSketchEnsemble.concat([e._main for e in ensembles]),
                CountSketchEnsemble.concat([e._value for e in ensembles]),
                AMSEnsemble.concat([e._ams for e in ensembles]),
                first._value_group)
            scaled_vectors = None
        merged = cls.__new__(cls)
        merged._setup(first._n, first._p, first._exact, first._gap_test,
                      first._gap_multiplier, first._buckets,
                      [rng for e in ensembles for rng in e._rngs],
                      np.concatenate([e._exponentials for e in ensembles]),
                      np.concatenate([e._inverse_scale for e in ensembles]),
                      *substrates, scaled_vectors, first._num_updates)
        return merged

    def merge(self, other: "JW18LpSamplerEnsemble") -> "JW18LpSamplerEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        All substrates are linear sketches of the (per-replica) scaled
        vector, so same-seed shard copies fed disjoint stream shards add
        into the ensemble of the concatenated stream; the query-time
        generators of ``self``'s replicas are untouched by ingest and keep
        producing the monolithic draw sequence.  In place; returns ``self``.
        """
        self.check_mergeable(other)
        if self._exact:
            self._scaled_vectors += other._scaled_vectors
        else:
            self._main.merge(other._main)
            self._value.merge(other._value)
            self._ams.merge(other._ams)
        self._num_updates += other._num_updates
        self._drop_query_caches()
        return self

    def _merge_identity(self) -> dict:
        return {"configuration": self._shared(),
                "num_replicas": self.num_replicas,
                "exponential scales": self._inverse_scale}

    def check_mergeable(self, other: "JW18LpSamplerEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        In sketch mode all three substrates are validated too, before any
        is touched, so a mismatched peer cannot leave a partially merged
        replica.
        """
        super().check_mergeable(other)
        if not self._exact:
            self._main.check_mergeable(other._main)
            self._value.check_mergeable(other._value)
            self._ams.check_mergeable(other._ams)

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Scale one validated batch for every replica and ingest it
        everywhere."""
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
        """Replica's estimate of ``x_index``: its value bank's averaged
        estimate, unscaled by ``e_index^{1/p}``."""
        check_member_index(replica, self.num_replicas, "replica")
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        if self._exact:
            scaled = float(self._scaled_vectors[replica, index])
        else:
            scaled = float(np.mean(self._value_member_estimates(replica, index)))
        return scaled * self._exponentials[replica, index] ** (1.0 / self._p)

    def independent_value_estimates(self, replica: int, index: int, count: int,
                                    group_size: int | None = None) -> np.ndarray:
        """Replica's ``count`` (nearly) independent estimates of ``x_index``."""
        check_member_index(replica, self.num_replicas, "replica")
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        require_positive_int(count, "count")
        unscale = self._exponentials[replica, index] ** (1.0 / self._p)
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
        """Return replica ``replica``'s perfect ``L_p`` draw, or ``None`` on
        the ``FAIL`` event."""
        check_member_index(replica, self.num_replicas, "replica")
        return self._sample(replica)

    def _sample(self, replica: int) -> Optional[Sample]:
        """The draw of a valid replica; the views call this directly.

        Reads the per-state arrays of :meth:`_candidate_arrays`, which
        equal the scalar walk ``argsort(-|z|)`` over one replica's
        estimates; the gap test's jitter comes from the replica's own
        generator, and the threshold and value arithmetic stay scalar.
        """
        if self._num_updates == 0:
            return None
        candidates = self._candidate_arrays()
        best = int(candidates.top[replica])
        if best < 0:
            return None
        gap = float(candidates.gap[replica])

        threshold = 0.0
        if self._gap_test and not self._exact:
            scale = float(candidates.scale[replica])
            jitter = self._rngs[replica].uniform(0.5, 1.5)
            threshold = (self._gap_multiplier * jitter * scale
                         / math.sqrt(self._buckets))
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
                "exponential": float(self._exponentials[replica, best]),
            },
        )


register_ensemble(JW18LpSampler, JW18LpSamplerEnsemble)


class PerfectL2Sampler(JW18LpSampler):
    """Perfect ``L_2`` sampler — the exact substrate Algorithms 1-2 call for."""

    def __init__(self, n: int, seed: SeedLike = None, **kwargs) -> None:
        super().__init__(n, 2.0, seed, **kwargs)
