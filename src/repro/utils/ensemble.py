"""Replica-ensemble engine: run ``R`` independent replicas in one pass.

Every distributional claim in the paper is checked empirically by drawing
hundreds of one-shot samples from fresh, *independent* sampler instances,
and Algorithms 1-2 themselves run ``N = Theta(n^{1-2/p})`` independent
``L_2`` samplers beside one ``F_2`` and one ``F_p`` sketch.  The replica
axis is embarrassingly vectorisable — the hot substrates are linear
sketches whose per-replica state is a small array — so ``R`` replicas are
one more leading axis on the same numpy kernels, and a lone sketch is the
``R = 1`` case of that stacked form.

Views: each substrate is written once
-------------------------------------
Seven substrates keep their state, ingest kernel, queries, table modes,
pickling rule and merge check in one array-stacked ensemble only:
``CountSketchEnsemble``, ``CountMinEnsemble``, ``AMSEnsemble``,
``PStableEnsemble``, ``FpEstimatorEnsemble``, ``JW18LpSamplerEnsemble``
and ``PrecisionLpSamplerEnsemble``.  The standalone classes
(``CountSketch``, ``AMSSketch``, ``FpEstimator``, ``JW18LpSampler``, ...)
are views (:class:`ReplicaView`): each holds a one-replica ensemble built by
that ensemble's ``from_seeds`` (``FpEstimator`` holds ``groups``
replicas), plus the shape scalars its public API reads, and answers every
call with replica 0.  Each substrate module has one draw helper per
replica (``draw_countsketch_hashes``, ``draw_jw18_replica``, ...), which
both the view and ``from_seeds`` go through, so a view with seed ``s`` is
bitwise replica ``r`` of any ensemble whose ``r``-th seed is ``s``.

A view and its ensemble's public ``update_batch`` share one private
``_ingest`` kernel, and a sampler view and ``sample_replica`` share one
private ``_sample``: a view never enters its ensemble's public ingest or
draw, so code that wraps those names (a profiler, a tracer) sees each
update and each draw once.

Replica-axis layout
-------------------
* ``CountSketchEnsemble`` holds tables of shape ``(M, rows, buckets)`` and
  hash tables of shape ``(M, rows, n)`` for ``M`` member sketches, built by
  evaluating *one* concatenated :class:`~repro.sketch.hashing.KWiseHashFamily`
  over the universe (shared through the keyed cache of
  :mod:`repro.utils.table_cache` in ``cached`` table mode, or never
  materialised at all in ``blocked`` mode — both bit-identical);
  ``CountMinEnsemble`` is the same without signs;
* ``AMSEnsemble`` holds counters ``(M, width * depth)`` and signs
  ``(M, width * depth, n)`` (same table modes);
* ``PStableEnsemble`` holds projection states ``(R, num_rows)`` with the
  counter-based stable-coefficient oracle evaluated over the whole
  ``(R, num_rows, batch)`` grid at once;
* ``FpEstimatorEnsemble`` holds ``(R, repetitions, n)`` exponential scales
  beside either ``(R, repetitions, n)`` scaled vectors (oracle mode) or one
  ``CountSketchEnsemble`` over all ``R * repetitions`` repetitions;
* the sampler ensembles stack their sub-structure ensembles and broadcast
  the per-replica scaled deltas ``(R, B)`` into them in one ingest pass.

That stacked state, plus the per-replica parameters the queries read
(scales, query-time generators), is *all* an ensemble keeps: pickles,
worker payloads and snapshots carry counters and hash coefficients, not
object graphs.  One batch of stream updates reaches *all* replicas with a
single scatter-add / matrix product per substrate, and per-cell
accumulation follows the single-sketch order, so replica state is
bit-identical however the replicas are stacked (asserted against a
test-side single-sketch reference by
``tests/test_ensemble_equivalence.py``).

The registry
------------
Standalone classes register their ensemble with :func:`register_ensemble`;
:func:`build_ensemble` dispatches on the type of the probe instances
(walking the MRO, so e.g. ``PerfectL2Sampler`` finds the ``JW18LpSampler``
builder).  For views the builder is the ensemble's constructor, which
concatenates the views' one-replica ensembles.  It refuses views that have
already ingested (an ensemble starts from zero state) and mismatched
configurations, and :func:`build_ensemble` then falls back to
:class:`SamplerEnsemble`, which shares the materialised stream and the
chunked replay across replicas but keeps per-replica state inside the
instances themselves.  Composite samplers build their *inner* repetition
loops (value-estimation banks, max-stability repetitions, the ``N``
parallel ``L_2`` samplers of Algorithms 1-2) straight from seeds.

:func:`ensemble_samples` is the evaluation-facing entry point: build ``R``
replicas from a seed-indexed factory, ingest one shared stream, and return
the ``R`` one-shot samples.  ``benchmarks/_harness.py::empirical_counts``
and :func:`repro.evaluation.distribution_tests.evaluate_sampler_distribution`
route through it.

Sharded execution (:mod:`repro.utils.sharding`) builds on two merge
protocols every ensemble carries: ``concat`` reassembles replica-sharded
runs along the replica axis (pure array concatenation — bit-identical for
any shard split), and ``merge`` folds stream-sharded same-seed copies
together by entrywise state addition (defined for the linear-sketch
ensembles only; the base class refuses).
"""

from __future__ import annotations

from contextlib import nullcontext as _NULL_SCOPE
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.batching import (
    BatchUpdateMixin,
    check_batch_bounds,
    coerce_batch,
    replay_stream,
    stream_arrays,
)
from repro.utils.execution_config import ExecutionConfig
from repro.utils.validation import require_merge_compatible, require_merge_peer

__all__ = [
    "ReplicaEnsemble",
    "ReplicaView",
    "SamplerEnsemble",
    "LevelStackEnsemble",
    "register_ensemble",
    "registered_ensemble_builder",
    "build_ensemble",
    "ensemble_samples",
    "group_chunks",
    "member_chunks",
]

#: Soft cap on the number of scatter elements materialised per numpy call
#: when an ensemble broadcasts a batch across members; chunks split only
#: between whole members (or delta groups), so no cell's accumulation
#: order depends on it.  Each element costs about 20 bytes of temporaries
#: (float64 values, int64 flat indices, gathered columns), so 2^16 keeps a
#: chunk near 1.3 MB: inside a 2 MiB L2, and small enough that malloc
#: reuses the freed temporaries instead of faulting in fresh pages for
#: every chunk.  Measured on ``make_perfect_lp_sampler(1024, 3)``, 39
#: batches of 1024 updates, median ms and minor faults per batch over 3-5
#: runs (2-core Xeon VM, default malloc settings): 2^15 64.1 ms / 579,
#: 2^16 62.9 / 594, 2^17 66.0 / 2,031, 2^18 70.0 / 3,572, 2^20 90.2 /
#: ~7,000.
SCATTER_CHUNK_ELEMENTS = 1 << 16


def require_replicas(items: Sequence) -> None:
    """Raise unless ``items`` (seeds, views or ensembles) is non-empty."""
    if len(items) == 0:
        raise InvalidParameterError("an ensemble needs at least one replica")


class ReplicaEnsemble:
    """Base class for ``R`` independent replicas with one shared ingest pass.

    Subclasses own the replicas' state and implement ``num_replicas``,
    ``space_counters``, ``concat`` and ``sample_replica``/queries.  The
    array-stacked ensembles (CountSketch, CountMin, AMS, p-stable, F_p,
    JW18 and precision) keep only their stacked arrays (hash families,
    tables, counters, scales) and the per-replica parameters their queries
    read, and implement ``_ingest``, the one ingest kernel their
    ``update_batch`` and their views share.  Built from views, they stack
    the views' one-replica ensembles (see :meth:`__init__`).
    :class:`SamplerEnsemble` and :class:`LevelStackEnsemble` keep their
    instances, because there the instances are the state; only they have
    ``replicas``.
    """

    def __init__(self, views: Sequence) -> None:
        """Stack fresh views (:class:`ReplicaView`) of this ensemble's kind.

        The result is the ``concat`` of the views' one-replica ensembles,
        so it keeps none of the views.  It starts from their zero state, so
        the state of a view that has already ingested would be lost without
        a trace: such a view is refused, as are views of another kind, and
        ``concat`` refuses mismatched configurations.
        :func:`build_ensemble` then falls back to :class:`SamplerEnsemble`,
        which keeps the views with their state.
        """
        kind = type(self).__name__.removesuffix("Ensemble")
        ensembles = [getattr(view, "_ensemble", None) for view in views]
        require_replicas(ensembles)
        if any(type(ensemble) is not type(self) for ensemble in ensembles):
            raise InvalidParameterError(
                f"{type(self).__name__} stacks {kind} views only")
        if any(ensemble._has_ingested() for ensemble in ensembles):
            raise InvalidParameterError(
                f"a native {kind} ensemble starts from zero state, so its "
                "replicas must be fresh; one has already ingested updates")
        self.__dict__.update(type(self).concat(ensembles).__dict__)

    #: Fields derived from the state (hash tables, query caches): pickled
    #: as ``None``, so pickles, worker payloads and snapshots stay
    #: independent of table size, and re-derived lazily after a restore.
    _DERIVED: tuple = ()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.update(dict.fromkeys(self._DERIVED))
        return state

    def __setstate__(self, state):
        """Restore with every derived field unset, also when a state from
        an earlier build kept one: an unpickled ensemble always rebuilds
        its tables from its hash families (and the process-local cache),
        bit-identically to a freshly built one."""
        state.update(dict.fromkeys(self._DERIVED))
        self.__dict__.update(state)

    def _has_ingested(self) -> bool:
        """Whether any replica holds ingested state."""
        raise NotImplementedError

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a validated batch to every replica.

        ``indices`` are ``int64`` coordinates inside the universe and
        ``deltas`` the matching ``(B,)`` floats.  :meth:`update_batch` and
        the ensemble's :class:`ReplicaView` both call this, so the kernel
        exists once.
        """
        raise NotImplementedError

    @classmethod
    def concat(cls, ensembles: "Sequence[ReplicaEnsemble]") -> "ReplicaEnsemble":
        """Flatten several ensembles of this type along the replica axis.

        This is the replica-sharding merge protocol: a sharded run splits
        the replica range into shard ensembles, drives each one separately
        (possibly in another process), and ``concat`` reassembles the full
        ensemble — replica order is the shard order, and per-replica state
        is carried over untouched.
        """
        raise NotImplementedError

    def merge(self, other: "ReplicaEnsemble") -> "ReplicaEnsemble":
        """Entrywise-merge a same-seed ensemble fed a disjoint stream shard.

        This is the stream-sharding merge protocol, defined only for
        *linear-sketch* ensembles (state is a linear function of the
        stream, so per-shard states add entrywise).  Ensembles whose state
        lives in rng-consuming or dict-backed instances cannot be merged
        this way and raise.
        """
        raise InvalidParameterError(
            f"{type(self).__name__} does not support stream-sharded merging: "
            "its per-replica state is not a stacked linear sketch")

    def _merge_identity(self) -> dict:
        """The parameters a merge peer must share: seeds, shape, mode."""
        raise NotImplementedError

    def check_mergeable(self, other: "ReplicaEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(f"{type(self).__name__}s",
                                 self._merge_identity(),
                                 other._merge_identity())

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        raise NotImplementedError

    def update_batch(self, indices, deltas) -> None:
        """Apply one batch of turnstile updates to every replica."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        self._ingest(indices, deltas)

    def update_stream(self, stream, *, batch_size: int | None = None) -> None:
        """Replay a stream once, shared across all replicas."""
        replay_stream(self, stream, batch_size=batch_size)

    def space_counters(self) -> int:
        """Total stored counters across all replicas."""
        raise NotImplementedError

    def sample_replica(self, replica: int):
        """One-shot sample of replica ``replica`` (or ``None`` on FAIL).

        Sketch ensembles have no ``sample``: they are query-only and raise.
        """
        raise NotImplementedError(f"{type(self).__name__} is query-only")

    def replica_samples(self) -> list:
        """The ``R`` one-shot samples, one per replica."""
        return [self.sample_replica(r) for r in range(self.num_replicas)]


class ReplicaView(BatchUpdateMixin):
    """A standalone sketch or sampler: replica 0 of a one-replica ensemble.

    Subclasses set ``self._ensemble`` (built by the ensemble's
    ``from_seeds``) and ``self._n`` and forward their queries to replica 0.
    Ingest validates the batch as every standalone class does and runs the
    ensemble's private ``_ingest``, never its public ``update_batch``.
    Pickling, table modes and merge checks are the ensemble's.
    """

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)`` as a one-update batch."""
        self._apply([index], [delta])

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates through the ensemble's ingest kernel."""
        self._apply(indices, deltas)

    def _apply(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size:
            check_batch_bounds(indices, self._n)
            self._ensemble._ingest(indices, deltas)

    def space_counters(self) -> int:
        """Stored counters: sketch cells, plus stored scale factors or the
        exact scaled vectors where the substrate keeps them."""
        return self._ensemble.space_counters()

    def check_mergeable(self, other) -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        self._ensemble.check_mergeable(other._ensemble)


class _InstanceEnsemble(ReplicaEnsemble):
    """Replicas whose state lives inside the instances themselves."""

    def __init__(self, instances: Sequence) -> None:
        require_replicas(instances)
        self._instances = list(instances)

    @classmethod
    def concat(cls, ensembles: "Sequence[ReplicaEnsemble]") -> "ReplicaEnsemble":
        """Re-wrap the combined instance list (the state is in them)."""
        require_replicas(ensembles)
        if any(type(e) is not cls for e in ensembles):
            raise InvalidParameterError(
                "can only concat ensembles of one type; got "
                f"{sorted({type(e).__name__ for e in ensembles})}")
        return cls([inst for e in ensembles for inst in e._instances])

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return len(self._instances)

    @property
    def replicas(self) -> list:
        """The per-replica instances, which hold the replicas' state."""
        return self._instances

    def space_counters(self) -> int:
        """Total stored counters across all replicas."""
        return sum(instance.space_counters() for instance in self._instances)


class SamplerEnsemble(_InstanceEnsemble):
    """Generic fallback ensemble: per-replica state stays in the instances.

    The stream is materialised and validated once and each chunk is fed to
    every replica's (already vectorised) ``update_batch``, so the ``R ×``
    cost of stream extraction, coercion, and bounds checking is paid once.
    Works for any :class:`~repro.samplers.base.StreamingSampler`.
    """

    def update_batch(self, indices, deltas) -> None:
        """Feed one validated batch to every replica."""
        indices, deltas = coerce_batch(indices, deltas)
        for instance in self._instances:
            instance.update_batch(indices, deltas)

    def update_stream(self, stream, *, batch_size: int | None = None) -> None:
        """Replay a stream once, shared across all replicas.

        Duck-typed samplers that only implement ``update_stream`` (no
        ``update_batch``) still work: the stream is materialised once and
        each replica replays it through its own entry point.
        """
        if all(hasattr(instance, "update_batch") for instance in self._instances):
            replay_stream(self, stream, batch_size=batch_size)
            return
        if not (isinstance(getattr(stream, "indices", None), np.ndarray)
                and isinstance(getattr(stream, "deltas", None), np.ndarray)):
            from repro.streams.updates import Update

            # Materialise one-shot iterables as Update records, which
            # support both `.index`/`.delta` access and tuple unpacking,
            # so any replica update_stream protocol can replay them.
            indices, deltas = stream_arrays(stream)
            stream = [Update(index, delta)
                      for index, delta in zip(indices.tolist(), deltas.tolist())]
        for instance in self._instances:
            instance.update_stream(stream)

    def sample_replica(self, replica: int):
        """Delegate to the replica instance (state lives there)."""
        return self._instances[replica].sample()


class LevelStackEnsemble(_InstanceEnsemble):
    """Native ensemble for subsampling-level stacks (L_0 machinery).

    Used by :class:`~repro.samplers.l0_sampler.PerfectL0Sampler` and
    :class:`~repro.sketch.distinct.RoughL0Estimator`: the per-replica level
    variates are stacked into an ``(R, n)`` matrix so each batch's
    deepest-level routing is computed for all replicas with one gather,
    and the per-level sparse-recovery updates (which own dict/fingerprint
    state) run on the replica instances themselves — state remains inside
    the instances exactly as in the standalone path.
    """

    def __init__(self, instances: Sequence) -> None:
        super().__init__(instances)
        first = instances[0]
        if any(inst._n != first._n for inst in instances):
            raise InvalidParameterError("replicas must share the universe size")
        self._n = first._n
        self._deepest = np.stack([inst._deepest_of for inst in instances])

    def update_batch(self, indices, deltas) -> None:
        """Route one batch through every replica's level stack."""
        from repro.utils.batching import route_subsampled_batch

        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        deepest_all = self._deepest[:, indices]
        for replica, instance in enumerate(self._instances):
            route_subsampled_batch(instance._levels, deepest_all[replica],
                                   indices, deltas)
            instance._num_updates += int(indices.size)

    def merge(self, other: "LevelStackEnsemble") -> "LevelStackEnsemble":
        """Entrywise-merge a same-seed ensemble fed a disjoint stream shard.

        The per-replica state lives in the instances' level stacks, whose
        per-level fingerprint/aggregate state is linear over the
        Mersenne-prime field (see
        :meth:`repro.sketch.sparse_recovery.KSparseRecovery.merge`), so
        the fold delegates replica-for-replica to the instances' ``merge``
        — the fold-left contract of the sharding module docstring, exact
        for the integer-delta streams of every ``L_0`` workload.  In
        place; returns ``self``.
        """
        self.check_mergeable(other)
        for mine, theirs in zip(self._instances, other._instances):
            mine.merge(theirs)
        return self

    def check_mergeable(self, other: "LevelStackEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing.

        Recurses into every replica's own ``check_mergeable`` so a
        mismatched peer (e.g. a snapshot from a different build) is
        refused before the first replica is touched — a mid-loop failure
        could otherwise leave earlier replicas already merged.
        """
        if not isinstance(other, LevelStackEnsemble):
            raise InvalidParameterError(
                "can only merge LevelStackEnsemble with its own kind")
        if other.num_replicas != self.num_replicas or other._n != self._n \
                or not np.array_equal(self._deepest, other._deepest):
            raise InvalidParameterError(
                "can only merge same-seed ensembles (identical replica "
                "counts, universe, and level assignments)")
        for mine, theirs in zip(self._instances, other._instances):
            mine.check_mergeable(theirs)

    def sample_replica(self, replica: int):
        """Delegate to the replica instance (state lives there)."""
        return self._instances[replica].sample()


_ENSEMBLE_BUILDERS: dict[type, Callable[[Sequence], ReplicaEnsemble]] = {}


def register_ensemble(scalar_cls: type,
                      builder: Callable[[Sequence], ReplicaEnsemble]) -> None:
    """Register a native ensemble builder for a scalar sketch/sampler class.

    ``builder(instances)`` receives the list of already-constructed scalar
    instances, reads their hash coefficients and scales, and returns the
    native ensemble, which keeps none of them.  It raises
    :class:`~repro.exceptions.InvalidParameterError` for replicas it cannot
    stack (mismatched configurations, or replicas that have already
    ingested), and :func:`build_ensemble` then falls back to
    :class:`SamplerEnsemble`.  Registration happens at module import time
    in each substrate's module, so any code able to construct an instance
    automatically sees its native ensemble.
    """
    _ENSEMBLE_BUILDERS[scalar_cls] = builder


def registered_ensemble_builder(cls: type) -> Optional[Callable]:
    """The builder registered for ``cls`` (walking the MRO), or ``None``."""
    for klass in cls.__mro__:
        builder = _ENSEMBLE_BUILDERS.get(klass)
        if builder is not None:
            return builder
    return None


def build_ensemble(instances: Sequence) -> ReplicaEnsemble:
    """Wrap replica instances in their native ensemble (or the fallback)."""
    require_replicas(instances)
    builder = registered_ensemble_builder(type(instances[0]))
    if builder is None:
        return SamplerEnsemble(instances)
    try:
        return builder(instances)
    except InvalidParameterError:
        # Heterogeneous configurations across replicas (different shapes /
        # modes), or replicas that already hold ingested state, cannot be
        # stacked; fall back to the per-instance path, which keeps them.
        return SamplerEnsemble(instances)


def ensemble_samples(factory: Callable[[int], object], seeds: Iterable[int],
                     stream=None, *, batch_size: int | None = None,
                     config: Optional[ExecutionConfig] = None) -> list:
    """Draw one sample from each of ``len(seeds)`` independent replicas.

    ``factory(seed)`` must return a fresh sampler; the replicas are stacked
    into the registered native ensemble (or the generic fallback), the
    stream is ingested once for all of them, and the per-replica one-shot
    samples are returned in seed order.  Results are bit-identical to the
    sequential construct/replay/sample loop over the same seeds.

    ``config.table_mode`` selects the hash-table mode the instances are
    constructed under; ``config.batch_size`` applies when ``batch_size``
    is not given.
    """
    if config is not None and batch_size is None:
        batch_size = config.batch_size
    scope = (config.table_mode_scope() if config is not None
             else _NULL_SCOPE())
    with scope:
        instances = [factory(seed) for seed in seeds]
        if not instances:
            return []
        ensemble = build_ensemble(instances)
    if stream is not None:
        ensemble.update_stream(stream, batch_size=batch_size)
    return ensemble.replica_samples()


def member_chunks(num_members: int, per_member_elements: int):
    """Yield ``(start, stop)`` member ranges keeping scatters under
    :data:`SCATTER_CHUNK_ELEMENTS` (read at call time)."""
    if per_member_elements <= 0:
        yield 0, num_members
        return
    chunk = max(1, SCATTER_CHUNK_ELEMENTS // per_member_elements)
    for start in range(0, num_members, chunk):
        yield start, min(num_members, start + chunk)


def group_chunks(groups: int, per_group: int, per_member_elements: int):
    """Yield ``(start, stop, group_start, group_stop)``: member ranges of
    whole delta groups under :data:`SCATTER_CHUNK_ELEMENTS`, except that a
    group which alone exceeds the cap is split into member chunks."""
    if per_group * per_member_elements <= SCATTER_CHUNK_ELEMENTS:
        for lo, hi in member_chunks(groups, per_group * per_member_elements):
            yield lo * per_group, hi * per_group, lo, hi
        return
    for group in range(groups):
        first = group * per_group
        for lo, hi in member_chunks(per_group, per_member_elements):
            yield first + lo, first + hi, group, group + 1
