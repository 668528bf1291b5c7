"""Utility helpers shared by every subsystem of :mod:`repro`.

The submodules are deliberately small and dependency-free so they can be
used by sketches, samplers, the evaluation harness, and the benchmarks
without import cycles:

``rng``
    Seed handling and child-generator spawning built on
    :class:`numpy.random.Generator`.
``validation``
    Argument checking helpers that raise
    :class:`repro.exceptions.InvalidParameterError` with uniform messages.
``rounding``
    The ``rnd_eta`` geometric discretisation used by the fast-update sketch
    of Algorithm 4.
``taylor``
    The truncated Taylor-series estimator of ``x**(p-2)`` from Lemma 2.7,
    used by the fractional-``p`` perfect sampler (Algorithm 2).
``stats``
    Empirical-distribution statistics (total variation distance, chi-square
    goodness of fit) used by tests, benchmarks, and the evaluation harness.
``batching``
    The vectorised batch-update engine (``update_batch`` coercion, chunked
    stream replay, and the :class:`~repro.utils.batching.BatchUpdateMixin`
    base class) shared by every sketch and sampler; re-exported by
    :mod:`repro.samplers.base` as the documented API surface.  Also hosts
    the shared ``uint64``-limb Mersenne-prime kernels (``mersenne_mulmod``,
    ``polyval_mersenne``) used by the hash families and fingerprints.
``execution_config``
    The frozen :class:`~repro.utils.execution_config.ExecutionConfig`
    bundling table mode, execution mode, shard/worker counts, worker
    addresses and the cluster secret — the one object threaded through
    the ensemble helpers, sharding, the evaluation harness, and the
    service.
``ensemble``
    The replica-ensemble engine: stack ``R`` independent replicas of a
    sketch/sampler into one vectorised structure with a single shared
    ingest pass (see :func:`repro.utils.ensemble.ensemble_samples` and the
    per-substrate native ensembles registered by the sketch/sampler
    modules).
``sharding``
    Sharded execution of replica ensembles: split the replica axis or the
    stream across workers (serial or ``multiprocessing``) and merge back
    bit-identically via the ensemble ``concat`` / ``merge`` protocols —
    the Section 1.3 aggregate-summary layer.
``table_cache``
    The keyed, thread-safe, fork-aware cache of evaluated hash tables plus
    the ``table_mode`` knobs (``cached`` / ``private`` / ``blocked``) the
    table-consuming sketches use to share or stream their per-coordinate
    tables; all modes are bit-identical.
``transport``
    The socket wire format of both servers: CRC-covered
    length-prefixed frames around pickle protocol 5 with out-of-band
    buffers, negotiated per-frame compression, and the mutual
    HMAC-SHA256 cluster-secret handshake run before any payload byte is
    unpickled.
``server``
    The one request/reply server core of both daemons, the distributed
    worker and the sampler service: each is an op table on its
    handshake-first asyncio loop.  It also owns the client connection
    and the spawn/stop harness of their subprocesses.
``coordinator``
    The scatter/gather layer over ``transport``: worker processes
    (``serve_worker`` / ``spawn_local_workers``), the
    :class:`~repro.utils.coordinator.DistributedExecutor` with
    heartbeat-based dead-worker detection, ``RetryPolicy`` backoff,
    restarted-worker rejoin, and serial degradation — see its module
    docstring for the deployment/security model.
``chaos``
    A scripted fault-injection TCP proxy (latency, throttling, torn
    frames, byte corruption, refused connections) used by the chaos
    suite to prove the distributed back-end stays bit-identical to
    serial execution while the network misbehaves.
"""

from repro.utils.execution_config import ExecutionConfig
from repro.utils.batching import (
    DEFAULT_BATCH_SIZE,
    MERSENNE_PRIME_61,
    BatchUpdateMixin,
    coerce_batch,
    iter_batches,
    mersenne_mulmod,
    mersenne_powmod,
    polyval_mersenne,
    replay_stream,
    stream_arrays,
)
from repro.utils.ensemble import (
    LevelStackEnsemble,
    ReplicaEnsemble,
    SamplerEnsemble,
    build_ensemble,
    ensemble_samples,
    register_ensemble,
)
from repro.utils.rng import spawn_rng, ensure_rng, derive_seed, splitmix64
from repro.utils.sharding import (
    concat_ensembles,
    ingest_sharded,
    merge_ensembles,
    replica_sharded_ensemble,
    shard_ranges,
    shard_replicas,
    sharded_ensemble_samples,
    stream_sharded_ensemble,
)
from repro.utils.rounding import round_down_to_power, discretize_support
from repro.utils.table_cache import (
    CacheStats,
    TableKey,
    cache_budget,
    cache_clear,
    cache_stats,
    cached_table,
    default_table_mode,
    set_cache_budget,
    set_default_table_mode,
    table_mode,
)
from repro.utils.taylor import TaylorPowerEstimator, taylor_power_estimate
from repro.utils.stats import (
    total_variation_distance,
    empirical_distribution,
    chi_square_statistic,
    relative_error,
)

__all__ = [
    "ExecutionConfig",
    "DEFAULT_BATCH_SIZE",
    "MERSENNE_PRIME_61",
    "BatchUpdateMixin",
    "LevelStackEnsemble",
    "ReplicaEnsemble",
    "SamplerEnsemble",
    "build_ensemble",
    "ensemble_samples",
    "register_ensemble",
    "mersenne_mulmod",
    "mersenne_powmod",
    "polyval_mersenne",
    "coerce_batch",
    "iter_batches",
    "replay_stream",
    "stream_arrays",
    "spawn_rng",
    "ensure_rng",
    "derive_seed",
    "splitmix64",
    "concat_ensembles",
    "ingest_sharded",
    "merge_ensembles",
    "replica_sharded_ensemble",
    "shard_ranges",
    "shard_replicas",
    "sharded_ensemble_samples",
    "stream_sharded_ensemble",
    "round_down_to_power",
    "discretize_support",
    "CacheStats",
    "TableKey",
    "cache_budget",
    "cache_clear",
    "cache_stats",
    "cached_table",
    "default_table_mode",
    "set_cache_budget",
    "set_default_table_mode",
    "table_mode",
    "TaylorPowerEstimator",
    "taylor_power_estimate",
    "total_variation_distance",
    "empirical_distribution",
    "chi_square_statistic",
    "relative_error",
]
