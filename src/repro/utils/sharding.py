"""Sharded execution of replica ensembles with exact merge semantics.

Section 1.3 of the paper motivates perfect ``L_p`` sampling with
*distributed databases*: the dataset is partitioned across machines, every
machine maintains a small linear summary of its local portion, and a
coordinator combines the local summaries into global samples — the
"aggregate summary" argument, exact because linear sketches over disjoint
sub-streams merge by addition.  This module is that execution layer for the
library's replica-ensemble engine (:mod:`repro.utils.ensemble`): it splits
a Monte-Carlo/evaluation workload across workers along either axis and
merges the per-worker results back together, preserving the engine's
bit-identity contract.

Mode (a) — replica sharding (:func:`replica_sharded_ensemble`)
    The *replica* range is partitioned: each shard stacks a contiguous
    slice of the ``R`` replica instances into its own native
    :class:`~repro.utils.ensemble.ReplicaEnsemble` and ingests the full
    shared stream.  Per-replica state computation is untouched — a replica
    runs the exact same kernels whether its ensemble holds 1 or 1000
    members — so merging the shards back with the ensemble ``concat``
    protocol (pure array concatenation along the replica axis) is
    *bit-identical* to the monolithic ensemble, for every native ensemble
    and for the generic fallback.  In the distributed-databases picture
    this is the coordinator fanning independent replicas out to machines
    that each see the whole stream.

Mode (b) — stream sharding (:func:`stream_sharded_ensemble`)
    The *stream* is partitioned by a coordinate-ownership hash
    (:func:`repro.applications.distributed.shard_assignment`): every shard
    holds a same-seed *copy* of the whole ensemble, ingests only its own
    sub-stream, and the coordinator folds the shard states together with
    the ensemble ``merge`` protocol — entrywise addition of the stacked
    linear-sketch state, the ensemble-level extension of
    :meth:`repro.sketch.countsketch.CountSketch.merge` /
    :meth:`repro.sketch.pstable.PStableSketch.merge`.  The same-seed
    copies share their evaluated hash tables through the keyed cache of
    :mod:`repro.utils.table_cache` (``S`` shards evaluate each distinct
    table once, not ``S`` times), and the table-consuming sketches pickle
    *without* their tables — shard payloads carry coefficient matrices
    (cache keys), never ``(rows, n)`` payloads, so multiprocessing
    payload bytes stay independent of both stream length and table size;
    forked workers repopulate their own cache rather than trusting
    copy-on-write snapshots.  This is exactly
    Section 1.3's aggregate-summary step: local linear summaries add into
    the summary of the union stream, with no per-shard bias accumulating
    as machines are added.  Merging is defined for the linear-sketch
    ensembles (CountSketch, AMS, p-stable, the Fp estimators, and the
    JW18/precision sampler ensembles built from them); ensembles whose
    state lives in rng-consuming instances refuse.

Merge-order semantics (what the equivalence suite pins down)
    Per-coordinate state (oracle-mode scaled vectors) merges bit-identically
    in any order, because coordinate ownership is disjoint across shards.
    Bucketed state (sketch tables, projections) receives contributions from
    several shards per cell, so exact bitwise agreement with a monolithic
    run holds when the fold-left shard merge replays the same per-cell
    addition order — i.e. against a monolithic ensemble that ingests the
    per-shard sub-streams sequentially, each as one batch (the per-batch
    table contributions of the vectorised update paths are pure functions
    of the batch).  Against the original interleaved stream order the
    merged state is equal up to float re-association only — the standard
    caveat of any distributed linear-sketch merge — and integer-delta
    streams (exact float arithmetic) are bitwise in every order.

Execution back-ends
    ============================ ======================================================
    ``execution=``               contract
    ============================ ======================================================
    ``serial`` (default)         In-process, one shard after another.  Zero overhead
                                 beyond the shard bookkeeping; the reference the
                                 other two back-ends are asserted bitwise against.
    ``threaded``                 In-process ``ThreadPoolExecutor`` (default worker
                                 count: :func:`usable_cpu_count`, so cgroup-limited
                                 runners never oversubscribe).  Zero pickling: each
                                 thread drives its own shard ensemble's arrays, and
                                 the hot per-replica kernels — the AMS/p-stable gemv
                                 grids (BLAS ``np.dot`` into pre-allocated per-shard
                                 output buffers) and the CountSketch fused
                                 ``bincount`` scatter — release the GIL, so shard
                                 ingests overlap on real cores.  Beats
                                 ``multiprocessing`` whenever worker start-up plus
                                 pickling the ensemble state both ways costs more
                                 than the residual GIL-held bookkeeping — i.e. for
                                 short streams, large universes (big hash tables
                                 would be pickled), and compute-bound oracle grids.
    ``multiprocessing``          One worker process per shard (fork-preferring).
                                 The materialised stream is installed once per
                                 worker by a pool initializer; per-shard payloads
                                 carry only the ensemble and a stream slot index,
                                 so payload size is independent of stream length.
                                 Wins over ``threaded`` when the per-shard work
                                 holds the GIL (Python-level level-stack loops) or
                                 the streams are long enough to amortise start-up.
    ``distributed``              One shard per remote worker *host* reached over
                                 the checksummed socket transport of
                                 :mod:`repro.utils.transport`, scattered and
                                 gathered by :mod:`repro.utils.coordinator`.
                                 Workers that die mid-ingest are detected by
                                 heartbeat/timeout and their shards re-dispatch
                                 to survivors (spare capacity sized by the retry
                                 EWMA); with no reachable workers the run
                                 degrades to the in-process serial loop.  Same
                                 bits in every one of those paths.
    ============================ ======================================================

    All back-ends run the same numpy kernels on the same arrays over the
    same batch boundaries, so the execution mode never changes a single
    bit of the result — parallelism is free to be a pure wall-clock knob.

    A caller that keeps only the draws (:func:`sharded_ensemble_samples`,
    the coordinator's ``bulk_samples``) asks :func:`ingest_sharded` to
    ``draw``: each shard is sampled where it was ingested, so a worker
    process or host sends back its replicas' one-shot samples instead of
    its sketch tables, and a fresh shard ensemble travels out with its
    zero tables pickled as shapes.  Merges and concats keep receiving
    ensembles, because they need the state.
    Benchmarks E9d and E9f (``benchmarks/bench_e9_update_time.py``) track
    the back-ends against the monolithic ensemble in ``BENCH_e9.json``,
    and the CI regression gate (``benchmarks/check_bench_regression.py``)
    fails on tracked-metric slowdowns.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.batching import stream_arrays
from repro.utils.ensemble import (
    ReplicaEnsemble,
    build_ensemble,
    require_replicas,
)
from repro.utils.execution_config import EXECUTION_MODES, ExecutionConfig
from repro.utils.transport import dumps_frames, frames_as_bytes, loads_frames

__all__ = [
    "EXECUTION_MODES",
    "usable_cpu_count",
    "concat_ensembles",
    "ingest_sharded",
    "merge_ensembles",
    "parallel_width",
    "replica_sharded_ensemble",
    "shard_ranges",
    "shard_replicas",
    "sharded_ensemble_samples",
    "stream_sharded_ensemble",
]

def usable_cpu_count() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware).

    ``os.cpu_count()`` reports the host's cores even inside a 1-CPU
    container quota; the scheduler affinity mask is what bounds real
    parallelism, so worker defaults (and benchmark assertions) use it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:
            pass
    return os.cpu_count() or 1


def shard_ranges(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, nearly equal ``(start, stop)`` ranges covering ``total``.

    The first ``total % num_shards`` shards receive one extra element, so
    splits of a non-divisible replica count are uneven by at most one; with
    ``num_shards > total`` the tail shards are empty ranges.
    """
    if total < 0:
        raise InvalidParameterError("total must be non-negative")
    if num_shards < 1:
        raise InvalidParameterError("num_shards must be at least 1")
    base, extra = divmod(total, num_shards)
    ranges = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def shard_replicas(instances: Sequence, num_shards: int) -> list[list]:
    """Partition replica instances into per-shard lists (empty shards kept)."""
    return [list(instances[start:stop])
            for start, stop in shard_ranges(len(instances), num_shards)]


def concat_ensembles(ensembles: Sequence[ReplicaEnsemble]) -> ReplicaEnsemble:
    """Merge replica-shard ensembles back along the replica axis.

    Dispatches to the shards' ``concat`` protocol; all shards must be the
    same ensemble type (a homogeneous replica factory guarantees this).
    A single shard is returned unchanged.
    """
    ensembles = list(ensembles)
    if not ensembles:
        raise InvalidParameterError("need at least one ensemble to concat")
    first_type = type(ensembles[0])
    if any(type(e) is not first_type for e in ensembles):
        raise InvalidParameterError(
            "cannot concat ensembles of different types: "
            f"{sorted({type(e).__name__ for e in ensembles})}")
    if len(ensembles) == 1:
        return ensembles[0]
    return first_type.concat(ensembles)


def merge_ensembles(ensembles: Sequence[ReplicaEnsemble], *,
                    copy_first: bool = False) -> ReplicaEnsemble:
    """Fold stream-shard ensembles together entrywise (left to right).

    The fold order is the shard order; see the module docstring for the
    exact bitwise semantics this pins down.  By default the first shard is
    mutated in place and returned — the zero-copy fast path the in-process
    back-ends rely on.  With ``copy_first=True`` the fold starts from a
    pickle-roundtrip clone of the first shard, leaving every input shard
    untouched: a caller that retains the shard list (the distributed
    coordinator keeps shards around for re-dispatch after a worker death)
    must not observe shard 0 silently absorbing the others, and a repeated
    merge must not double-count it.  The clone is bit-identical state-wise
    (the equivalence suites pin pickle round-trips), and cheaper than a
    deepcopy because table-consuming sketches pickle without their
    evaluated hash tables and re-derive them from the keyed cache.
    """
    ensembles = list(ensembles)
    if not ensembles:
        raise InvalidParameterError("need at least one ensemble to merge")
    merged = ensembles[0]
    if copy_first and len(ensembles) > 1:
        # frames_as_bytes forces real copies of the out-of-band buffers —
        # loading the live memoryviews back would *alias* shard 0's arrays
        # and the fold would mutate it through the "clone".
        merged = loads_frames(frames_as_bytes(dumps_frames(merged)))
    for ensemble in ensembles[1:]:
        merged = merged.merge(ensemble)
    return merged


def _universe_size(stream) -> int:
    """The *explicit* universe size (``.n``) of an array-backed stream.

    Inferring ``max(indices) + 1`` here would let two shards of the same
    logical stream disagree about the universe — a sub-stream whose tail
    coordinates happen to be owned by another shard infers a smaller ``n``,
    and the mismatch only surfaces later as a merge-shape error far from
    the cause (or, for an empty sub-stream, as a silently wrong 1-element
    universe).  Every shard payload must carry the coordinator's ``n``.
    """
    n = getattr(stream, "n", None)
    if n is None:
        raise InvalidParameterError(
            "shard stream has no explicit universe size: two shards of one "
            "logical stream must agree on n, which cannot be inferred from "
            "a sub-stream's own indices — wrap the arrays with "
            "TurnstileStream.from_arrays(n, indices, deltas) carrying the "
            "coordinator's universe")
    return int(n)


def _materialise_streams(streams: Sequence) -> list:
    """Replace one-shot iterables with replayable array-backed streams.

    Shards replay their stream independently (and the shared-stream replica
    mode hands the *same* object to every shard), so a lazy iterable must
    be materialised exactly once — otherwise the first shard would drain it
    and later shards would silently ingest nothing.  Repeated occurrences
    of one iterator object map to one materialised stream; array-backed
    streams pass through zero-copy.
    """
    from repro.streams.stream import TurnstileStream

    cache: dict[int, TurnstileStream] = {}
    materialised = []
    for stream in streams:
        indices = getattr(stream, "indices", None)
        deltas = getattr(stream, "deltas", None)
        if isinstance(indices, np.ndarray) and isinstance(deltas, np.ndarray):
            materialised.append(stream)
            continue
        key = id(stream)
        if key not in cache:
            arrays = stream_arrays(stream)
            n = int(arrays[0].max()) + 1 if arrays[0].size else 1
            cache[key] = TurnstileStream.from_arrays(n, arrays[0], arrays[1])
        materialised.append(cache[key])
    return materialised


#: Worker-side stream table, installed once per worker process by
#: :func:`_install_worker_streams`.  Each entry is ``(n, indices, deltas)``.
_WORKER_STREAMS: list | None = None


def _install_worker_streams(stream_table) -> None:
    """Pool initializer: materialise the shared stream table once per worker.

    The table is shipped exactly once per worker (inherited for free under
    the fork start method, pickled once in the initargs otherwise) instead
    of once per shard payload — with replica sharding every shard ingests
    the *same* stream, so the old per-payload ``(indices, deltas)`` copies
    re-pickled the stream ``num_shards`` times.
    """
    global _WORKER_STREAMS
    _WORKER_STREAMS = list(stream_table)


def _shard_payloads(ensembles: Sequence[ReplicaEnsemble], streams: Sequence,
                    batch_size: Optional[int], draw: bool = False):
    """Deduplicated ``(stream_table, payloads)`` for the worker pool.

    Streams are deduplicated by identity so the shared-stream replica mode
    contributes one table entry no matter how many shards ingest it; each
    payload carries only ``(ensemble, slot, batch_size, draw)`` — its size
    is independent of stream length (regression-tested).
    """
    slot_of: dict[int, int] = {}
    stream_table: list = []
    payloads = []
    for ensemble, stream in zip(ensembles, streams):
        key = id(stream)
        slot = slot_of.get(key)
        if slot is None:
            indices, deltas = stream_arrays(stream)
            slot = len(stream_table)
            stream_table.append((_universe_size(stream),
                                 np.asarray(indices), np.asarray(deltas)))
            slot_of[key] = slot
        payloads.append((ensemble, slot, batch_size, draw))
    return stream_table, payloads


def _dump_payload(payload) -> list[bytes]:
    """Serialise a shard payload/result as protocol-5 frames.

    All payload pickling — here and on the socket transport — runs at
    ``pickle.HIGHEST_PROTOCOL`` with out-of-band buffers, so large numpy
    state (stacked ensemble tables, stream arrays) is exported as raw
    buffer frames instead of being re-copied into the pickle byte stream.
    Frames are materialised to ``bytes`` because they outlive the pool
    call that carries them.
    """
    return frames_as_bytes(dumps_frames(payload))


def _ingest_shard(payload):
    """Worker body: ingest one shard's sub-stream and return the ensemble,
    or with ``draw`` its replicas' one-shot samples.

    Module-level so every ``multiprocessing`` start method can import it;
    the stream arrives via the worker's installed table as raw
    ``(n, indices, deltas)`` arrays and is rebuilt into a
    :class:`~repro.streams.stream.TurnstileStream` so the worker replays
    through exactly the same ``update_stream`` chunking as the serial path
    (bit-identity requires identical batch boundaries).
    """
    ensemble, slot, batch_size, draw = payload
    from repro.streams.stream import TurnstileStream

    n, indices, deltas = _WORKER_STREAMS[slot]
    stream = TurnstileStream.from_arrays(n, indices, deltas)
    ensemble.update_stream(stream, batch_size=batch_size)
    return ensemble.replica_samples() if draw else ensemble


def _ingest_shard_frames(frames):
    """Pool task: decode protocol-5 payload frames, ingest, re-frame result."""
    return _dump_payload(_ingest_shard(loads_frames(frames)))


def parallel_width(config: Optional[ExecutionConfig] = None) -> int:
    """How many shards the back-end of ``config`` runs at once.

    The worker count under ``distributed`` (``config.workers``, else the
    active :func:`repro.utils.coordinator.worker_pool` or the default
    registry; at least 1, since with no worker the run degrades to
    serial), ``processes`` (default :func:`usable_cpu_count`) under
    ``threaded`` and ``multiprocessing``, and 1 under ``serial``.
    """
    cfg = ExecutionConfig() if config is None else config
    if cfg.execution == "serial":
        return 1
    if cfg.execution == "distributed":
        from repro.utils.coordinator import worker_count

        return max(1, len(cfg.workers) if cfg.workers else worker_count())
    return int(cfg.processes or usable_cpu_count())


def ingest_sharded(ensembles: Sequence[ReplicaEnsemble], streams: Sequence,
                   *, config: Optional[ExecutionConfig] = None,
                   batch_size: Optional[int] = None,
                   draw: bool = False) -> list:
    """Ingest ``streams[i]`` into ``ensembles[i]``, serially or in parallel.

    ``serial`` ingests in-process and returns the same ensemble objects;
    ``threaded`` drives the same in-process objects from a thread pool
    (bounded by ``processes``, default :func:`usable_cpu_count` — the
    affinity-aware count, so cgroup-quota'd CI runners never
    oversubscribe), relying on the ensembles' GIL-releasing kernels to
    overlap; ``multiprocessing`` forks one worker per shard (same bound)
    and returns the ensembles shipped back from the workers — freshly
    unpickled objects whose state is bit-identical to the serial path,
    because every back-end runs the same kernels over the same batch
    boundaries.  ``distributed`` ships the shards to socket worker hosts
    through :func:`repro.utils.coordinator.distributed_ingest` (worker
    addresses come from the coordinator's registry, not ``processes``) and
    shares that contract — including when a worker dies mid-ingest and its
    shard re-dispatches, and when no worker is reachable at all (the run
    degrades to this function's serial loop).

    With ``draw`` each shard is drawn where it was ingested and the result
    is, per shard, the list of its replicas' one-shot samples
    (``replica_samples()``) instead of the ensemble: a worker process or
    host sends back draws, not sketch tables.  A draw is a pure function
    of the replica's state and its own query-time generator, so the
    samples equal the serial ones under every back-end.

    ``config`` selects the back-end: its ``execution``/``processes``/
    ``batch_size`` fields (an explicit ``batch_size`` argument wins), and
    its ``workers``/``cluster_secret`` fields scope a
    :func:`repro.utils.coordinator.worker_pool` around a distributed
    ingest instead of relying on the process-wide registry.
    """
    cfg = ExecutionConfig() if config is None else config
    execution = cfg.execution
    if batch_size is None:
        batch_size = cfg.batch_size
    ensembles = list(ensembles)
    streams = _materialise_streams(streams)
    if len(ensembles) != len(streams):
        raise InvalidParameterError(
            f"got {len(ensembles)} ensembles but {len(streams)} streams")
    if execution == "distributed":
        # Imported lazily: the coordinator sits above this module (it
        # reuses the retry EWMA constants from the evaluation layer).
        from repro.utils.coordinator import distributed_ingest, worker_pool

        if cfg.workers:
            pool_kwargs = {}
            if cfg.cluster_secret is not None:
                pool_kwargs["secret"] = cfg.cluster_secret.encode(
                    "utf-8", "surrogateescape")
            with worker_pool(cfg.workers, **pool_kwargs):
                return distributed_ingest(ensembles, streams,
                                          batch_size=batch_size, draw=draw)
        return distributed_ingest(ensembles, streams, batch_size=batch_size,
                                  draw=draw)
    processes = min(parallel_width(cfg), max(len(ensembles), 1))
    # A 1-thread pool is exactly the serial loop, so `threaded` degrades to
    # it for free; `multiprocessing` keeps its 1-worker pool instead — its
    # contract (pickling failures surface, results come back freshly
    # unpickled) must not silently change on 1-CPU runners.
    if execution == "serial" or len(ensembles) <= 1 or (
            execution == "threaded" and processes <= 1):
        for ensemble, stream in zip(ensembles, streams):
            ensemble.update_stream(stream, batch_size=batch_size)
        return _drawn(ensembles, draw)
    if execution == "threaded":
        # In-process and zero-copy: each thread owns its shard ensemble's
        # arrays, the shared stream is only ever read, and the hot kernels
        # drop the GIL, so no pickling (and no result shipping) is needed.
        with ThreadPoolExecutor(max_workers=processes) as pool:
            list(pool.map(
                lambda pair: pair[0].update_stream(pair[1],
                                                   batch_size=batch_size),
                zip(ensembles, streams)))
        return _drawn(ensembles, draw)
    stream_table, payloads = _shard_payloads(ensembles, streams, batch_size,
                                             draw)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    try:
        framed = [_dump_payload(payload) for payload in payloads]
        with context.Pool(processes=processes,
                          initializer=_install_worker_streams,
                          initargs=(stream_table,)) as pool:
            results = pool.map(_ingest_shard_frames, framed)
        return [loads_frames(frames) for frames in results]
    except (AttributeError, TypeError, pickle.PicklingError) as error:
        # Ensembles travel to the workers by pickle; instances holding
        # closures or other unpicklable members can only run in-process.
        # pool.map also re-raises genuine worker exceptions of these types,
        # which must surface untouched — only serialisation failures get
        # the remedial message.
        if "pickle" not in str(error).lower():
            raise
        raise InvalidParameterError(
            "multiprocessing execution requires picklable ensembles "
            f"(use execution='serial' or 'threaded' instead): {error}") from error


def _drawn(ensembles: Sequence[ReplicaEnsemble], draw: bool) -> list:
    """In-process results: the ensembles, or with ``draw`` their samples."""
    if not draw:
        return list(ensembles)
    return [ensemble.replica_samples() for ensemble in ensembles]


def replica_sharded_ensemble(instances: Sequence, stream=None, *,
                             config: Optional[ExecutionConfig] = None,
                             batch_size: Optional[int] = None) -> ReplicaEnsemble:
    """Mode (a): shard the replica axis, ingest one shared stream, concat.

    The replica instances are split into ``num_shards`` contiguous groups,
    each group is stacked into its own native ensemble (empty groups are
    skipped), every shard ingests the *same* stream, and the shards are
    concatenated back into one ensemble whose replica order — and every
    replica's state and one-shot sample — is bit-identical to building the
    monolithic ensemble directly.

    The shard count and back-end come from ``config``.
    """
    cfg = ExecutionConfig() if config is None else config
    num_shards = cfg.num_shards
    if num_shards is None:
        raise InvalidParameterError(
            "replica sharding needs num_shards (pass config="
            "ExecutionConfig(num_shards=...))")
    instances = list(instances)
    require_replicas(instances)
    groups = [group for group in shard_replicas(instances, num_shards) if group]
    ensembles = [build_ensemble(group) for group in groups]
    if stream is not None:
        ensembles = ingest_sharded(ensembles, [stream] * len(ensembles),
                                   config=cfg, batch_size=batch_size)
    return concat_ensembles(ensembles)


def stream_sharded_ensemble(factory: Callable[[int], object],
                            seeds: Iterable[int], stream, *,
                            config: Optional[ExecutionConfig] = None,
                            assignment: Optional[np.ndarray] = None,
                            assignment_seed: int = 0,
                            batch_size: Optional[int] = None) -> ReplicaEnsemble:
    """Mode (b): shard the stream by coordinate, ingest copies, merge.

    Every shard builds its own same-seed copy of the replica ensemble (so
    all copies share hash functions, scalings, and coefficient oracles),
    ingests the sub-stream of the coordinates it owns, and the copies are
    folded together with the linear-sketch ``merge`` protocol — entrywise
    state addition, the coordinator step of Section 1.3.  The returned
    ensemble is the first shard's copy with the others folded in; it keeps
    that copy's per-replica query-time generators, which ingest never
    consumes, so post-merge samples follow the monolithic draw sequence.

    ``assignment`` (a length-``n`` coordinate-to-shard array) may be given
    directly; otherwise it is derived from ``config.num_shards`` and
    ``assignment_seed`` via the vectorised
    :func:`repro.applications.distributed.shard_assignment` oracle.
    """
    from repro.applications.distributed import shard_assignment, split_stream

    cfg = ExecutionConfig() if config is None else config
    num_shards = cfg.num_shards
    seeds = list(seeds)
    require_replicas(seeds)
    if assignment is None:
        if num_shards is None:
            raise InvalidParameterError(
                "stream sharding needs num_shards or an explicit assignment")
        assignment = shard_assignment(stream.n, num_shards, seed=assignment_seed)
    else:
        assignment = np.asarray(assignment, dtype=np.int64)
        if num_shards is None:
            num_shards = int(assignment.max()) + 1 if assignment.size else 1
        if assignment.size and (assignment.min() < 0
                                or assignment.max() >= num_shards):
            # An owner outside [0, num_shards) would silently drop every
            # update to its coordinates — refuse instead (negative owners
            # can slip through even when num_shards is inferred).
            raise InvalidParameterError(
                f"assignment owners must lie in [0, {num_shards}); got range "
                f"[{int(assignment.min())}, {int(assignment.max())}]")
    substreams = split_stream(stream, assignment, num_shards)
    with cfg.table_mode_scope():
        ensembles = [build_ensemble([factory(seed) for seed in seeds])
                     for _ in range(num_shards)]
    ensembles = ingest_sharded(ensembles, substreams, config=cfg,
                               batch_size=batch_size)
    # The distributed coordinator may retain shard ensembles (re-dispatch
    # bookkeeping, gather stats); merge into a clone so they stay pristine.
    return merge_ensembles(ensembles,
                           copy_first=(cfg.execution == "distributed"))


def sharded_ensemble_samples(factory: Callable[[int], object],
                             seeds: Iterable[int], stream=None, *,
                             config: Optional[ExecutionConfig] = None,
                             batch_size: Optional[int] = None) -> list:
    """Sharded drop-in for :func:`repro.utils.ensemble.ensemble_samples`.

    Builds the ``len(seeds)`` replicas, splits them into
    ``config.num_shards`` contiguous shard ensembles (default: the
    back-end's :func:`parallel_width` — the worker count under
    ``distributed``, ``processes`` or the CPU count otherwise), and has
    every shard ingest the stream *and draw* where it runs
    (:func:`ingest_sharded` with ``draw``): a process or host worker sends
    back its replicas' one-shot samples, never their sketches.  Returns
    the samples in seed order, bit-identical to the monolithic engine and
    hence to the sequential construct/replay/sample loop.
    """
    cfg = ExecutionConfig() if config is None else config
    with cfg.table_mode_scope():
        instances = [factory(seed) for seed in seeds]
    if not instances:
        return []
    num_shards = min(int(cfg.num_shards or parallel_width(cfg)),
                     len(instances))
    ensembles = [build_ensemble(group)
                 for group in shard_replicas(instances, num_shards) if group]
    if stream is None:
        drawn = _drawn(ensembles, draw=True)
    else:
        drawn = ingest_sharded(ensembles, [stream] * len(ensembles),
                               config=cfg, batch_size=batch_size, draw=True)
    return [sample for samples in drawn for sample in samples]
