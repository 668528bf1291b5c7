"""repro — Perfect Sampling in Turnstile Streams Beyond Small Moments.

A production-quality reproduction of Woodruff, Xie, and Zhou (PODS 2025):
perfect and approximate ``L_p`` samplers for ``p > 2`` on turnstile streams,
perfect polynomial samplers, cap/logarithmic/general ``G``-samplers, and the
subset-moment estimation application, together with every sketching
substrate they rely on (CountSketch, AMS, ``F_p`` estimation, perfect
``L_0``/``L_2`` samplers, exact sparse recovery) and classical baselines.

Quickstart
----------
>>> import numpy as np
>>> from repro import PerfectLpSampler, stream_from_vector
>>> vector = np.array([40.0, 1.0, 3.0, 0.0, 12.0])
>>> sampler = PerfectLpSampler(5, p=3.0, seed=0, backend="oracle")
>>> sampler.update_stream(stream_from_vector(vector, seed=1))
>>> draw = sampler.sample()
>>> draw is None or 0 <= draw.index < 5
True

Batched ingest
--------------
Every sketch and sampler also accepts whole *batches* of updates through
``update_batch(indices, deltas)`` — parallel arrays applied with a handful
of numpy operations instead of one Python call per update — and
``update_stream`` replays streams through it in chunks.  For hot ingest
paths, feed arrays directly:

>>> from repro import CountSketch, TurnstileStream
>>> sketch = CountSketch(8, buckets=16, rows=5, seed=0)
>>> stream = TurnstileStream(8, [(3, 2.0), (5, -1.0), (3, 1.0), (1, 4.0)])
>>> for indices, deltas in stream.batches(2):   # zero-copy chunks
...     sketch.update_batch(indices, deltas)
>>> sketch.estimate(3)
3.0

The batch path is state-equivalent to replaying ``update`` one call at a
time (``tests/test_batch_equivalence.py`` enforces this for every public
sketch and sampler) and is 1-2 orders of magnitude faster on the
CountSketch-backed samplers (benchmark E9).

Shared hash tables and huge universes
-------------------------------------
Same-parameter hash families share one evaluated per-coordinate table
through a keyed, thread-safe, fork-aware process cache (the default
``cached`` table mode), so replicas, shard copies, and retry rounds stop
paying the evaluation repeatedly.  The ``blocked`` mode goes further and
never materialises the ``(rows, n)`` table at all — at ``n = 10^7`` that
is a ~50x peak-memory reduction (benchmark E9e).  Both are bit-identical
to the private per-instance path:

>>> from repro import cache_clear, cache_stats, table_mode
>>> cache_clear()
>>> a = CountSketch(1000, buckets=16, rows=5, seed=7)
>>> b = CountSketch(1000, buckets=16, rows=5, seed=7)   # same parameters
>>> a.update(3, 1.0); b.update(3, 1.0)
>>> (cache_stats().misses, cache_stats().hits)          # one eval, shared
(2, 2)
>>> with table_mode("blocked"):                         # never materialise
...     big = CountSketch(10_000_000, buckets=16, rows=5, seed=7)
>>> big.update(9_999_999, 2.0)
>>> big.estimate(9_999_999)
2.0

Snapshots and the long-lived service
------------------------------------
Any sketch, sampler, or ensemble round-trips through a versioned,
CRC-checked on-disk snapshot — and because ``merge`` composes snapshots,
a saved base merged with a delta sketch is exactly an incremental
checkpoint:

>>> import tempfile, os
>>> from repro import load_snapshot, save_snapshot
>>> path = os.path.join(tempfile.mkdtemp(), "sketch.rsnp")
>>> _ = save_snapshot(sketch, path)
>>> restored = load_snapshot(path, expected_type=CountSketch)
>>> restored.estimate(3)
3.0

``repro.service`` wraps that in a daemon: ``spawn_service`` starts a
subprocess serving one object over loopback TCP — concurrent ingest and
allowlisted queries, periodic checkpoints, restore-on-start after a
crash (see ``repro/service/sampler_service.py`` for the consistency
model and deployment posture).  The service and the distributed workers
run on one server core, so with ``REPRO_CLUSTER_SECRET`` set both refuse
any peer that fails the handshake before they unpickle a byte.

Execution config
----------------
Every execution knob — hash-table mode, execution mode, shard/worker
counts, worker addresses, cluster secret — rides on one frozen
:class:`~repro.utils.execution_config.ExecutionConfig`, passed as
``config=`` to ``ensemble_samples``, the sharding helpers,
``evaluate_sampler_distribution``, the distributed coordinator's
``bulk_samples`` and the service.  Every execution mode runs the same
numpy kernels over the same batches, so the draws never depend on it.
Where only draws are kept (``sharded_ensemble_samples``,
``bulk_samples``), each shard of replicas is ingested and drawn where it
runs: a worker process or host receives the fresh shard (its zero tables
pickled as shapes) and the stream once, and sends back the samples, not
the sketches.  Under ``"distributed"`` the shards default to one per
worker and go out largest first to the least-loaded worker:

>>> from repro import ExecutionConfig, ensemble_samples, sharded_ensemble_samples
>>> def make(seed):
...     return PerfectLpSampler(5, p=3.0, seed=seed, backend="oracle")
>>> replay = stream_from_vector(vector, seed=1)
>>> serial = ensemble_samples(make, range(6), replay)
>>> config = ExecutionConfig(execution="threaded", num_shards=2)
>>> sharded = sharded_ensemble_samples(make, range(6), replay, config=config)
>>> [s and s.index for s in serial] == [s and s.index for s in sharded]
True

See ``examples/`` for end-to-end scenarios, ``benchmarks/`` for the
experiment suite, and ``perfbench/README.md`` for the end-to-end
benchmark with its per-layer breakdown.
"""

from repro.exceptions import (
    EstimationError,
    InvalidParameterError,
    ReproError,
    SamplerStateError,
    StreamError,
)
from repro.streams import (
    FrequencyVector,
    StreamKind,
    TurnstileStream,
    Update,
    forget_request_set,
    gaussian_vector,
    insertion_only_stream,
    planted_heavy_hitter_vector,
    random_query_set,
    stream_from_vector,
    turnstile_stream_with_cancellations,
    uniform_frequency_vector,
    zipfian_frequency_vector,
)
from repro.sketch import (
    AMSSketch,
    AMSEnsemble,
    AveragedCountSketch,
    CountMin,
    CountMinEnsemble,
    CountSketch,
    CountSketchEnsemble,
    ExponentialScaler,
    FpEstimator,
    FpEstimatorEnsemble,
    KMinimumValues,
    KSparseRecovery,
    KWiseHash,
    MaxStabilityFpEstimator,
    OneSparseRecovery,
    PairwiseHash,
    PStableSketch,
    PStableEnsemble,
    RoughL0Estimator,
    SignHash,
)
from repro.functions import (
    CapFunction,
    FairFunction,
    GFunction,
    HuberFunction,
    L1L2Function,
    LevyExponentFunction,
    LogFunction,
    LpFunction,
    PolynomialGFunction,
    SoftCapFunction,
    SoftConcaveSublinearFunction,
    SupportFunction,
)
from repro.utils.execution_config import ExecutionConfig
from repro.utils.ensemble import (
    ReplicaEnsemble,
    SamplerEnsemble,
    build_ensemble,
    ensemble_samples,
)
from repro.utils.sharding import (
    concat_ensembles,
    merge_ensembles,
    replica_sharded_ensemble,
    sharded_ensemble_samples,
    stream_sharded_ensemble,
)
from repro.utils.chaos import ChaosProxy, Fault
from repro.utils.coordinator import (
    DistributedExecutor,
    GatherStats,
    RetryPolicy,
    WorkerError,
    distributed_ingest,
    last_gather_stats,
    spawn_local_workers,
    stop_local_workers,
    worker_pool,
)
from repro.utils.transport import AuthenticationError, TransportError
from repro.utils.snapshot import (
    SnapshotError,
    load_snapshot,
    object_from_snapshot,
    read_snapshot,
    save_snapshot,
    snapshot_bytes,
    snapshot_metadata,
)
from repro.service import (
    SamplerService,
    ServiceClient,
    ServiceError,
    spawn_service,
    stop_service,
)
from repro.utils.table_cache import (
    CacheStats,
    cache_budget,
    cache_clear,
    cache_stats,
    set_cache_budget,
    table_mode,
)
from repro.samplers import (
    DEFAULT_BATCH_SIZE,
    BatchUpdateMixin,
    ExactGSampler,
    ExactLpSampler,
    ExponentialRaceSampler,
    JW18LpSampler,
    JW18LpSamplerEnsemble,
    PerfectL0Sampler,
    PerfectL2Sampler,
    PrecisionLpSampler,
    PrecisionLpSamplerEnsemble,
    ReservoirL1Sampler,
    Sample,
    StreamingSampler,
    TrulyPerfectGSampler,
    replay_stream,
)
from repro.applications import (
    DistributedSamplingCoordinator,
    DuplicateFinder,
    LpSamplingHeavyHitters,
    PropertyLeakingSampler,
    RightToBeForgottenEstimator,
    leakage_experiment,
)
from repro.core import (
    ApproximateLpSampler,
    CapSampler,
    CountSketchSubsetBaseline,
    DiscretizedDuplication,
    FastUpdateState,
    LogSampler,
    PerfectLpSampler,
    PerfectLpSamplerInteger,
    PolynomialFunction,
    PolynomialSampler,
    RejectionGSampler,
    SubsetMomentEstimator,
)
from repro.core.perfect_lp_general import make_perfect_lp_sampler
from repro.lower_bound import (
    HardInstance,
    SamplingDistinguisher,
    distinguishing_accuracy,
    sample_alpha,
    sample_beta,
)
from repro.evaluation import (
    DistributionReport,
    SamplerComparisonRow,
    evaluate_sampler_distribution,
    fit_space_exponent,
    measure_space,
    regenerate_table1,
)

__version__ = "1.0.0"

__all__ = [
    # exceptions
    "ReproError",
    "InvalidParameterError",
    "StreamError",
    "SamplerStateError",
    "EstimationError",
    # streams
    "Update",
    "StreamKind",
    "TurnstileStream",
    "FrequencyVector",
    "stream_from_vector",
    "insertion_only_stream",
    "turnstile_stream_with_cancellations",
    "zipfian_frequency_vector",
    "uniform_frequency_vector",
    "planted_heavy_hitter_vector",
    "gaussian_vector",
    "random_query_set",
    "forget_request_set",
    # sketches
    "KWiseHash",
    "PairwiseHash",
    "SignHash",
    "CountSketch",
    "AveragedCountSketch",
    "CountSketchEnsemble",
    "AMSEnsemble",
    "PStableEnsemble",
    "FpEstimatorEnsemble",
    "JW18LpSamplerEnsemble",
    "PrecisionLpSamplerEnsemble",
    "CountMinEnsemble",
    "ReplicaEnsemble",
    "SamplerEnsemble",
    "build_ensemble",
    "ensemble_samples",
    # execution config
    "ExecutionConfig",
    "concat_ensembles",
    "merge_ensembles",
    "replica_sharded_ensemble",
    "sharded_ensemble_samples",
    "stream_sharded_ensemble",
    # distributed execution (socket transport + scatter/gather coordinator)
    "DistributedExecutor",
    "GatherStats",
    "RetryPolicy",
    "WorkerError",
    "TransportError",
    "AuthenticationError",
    "ChaosProxy",
    "Fault",
    "distributed_ingest",
    "last_gather_stats",
    "spawn_local_workers",
    "stop_local_workers",
    "worker_pool",
    # snapshots + the long-lived sampler service
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "read_snapshot",
    "snapshot_bytes",
    "snapshot_metadata",
    "object_from_snapshot",
    "SamplerService",
    "ServiceClient",
    "ServiceError",
    "spawn_service",
    "stop_service",
    "CacheStats",
    "cache_budget",
    "cache_clear",
    "cache_stats",
    "set_cache_budget",
    "table_mode",
    "CountMin",
    "AMSSketch",
    "FpEstimator",
    "MaxStabilityFpEstimator",
    "ExponentialScaler",
    "OneSparseRecovery",
    "KSparseRecovery",
    "PStableSketch",
    "KMinimumValues",
    "RoughL0Estimator",
    # G-functions
    "GFunction",
    "LpFunction",
    "SupportFunction",
    "LogFunction",
    "CapFunction",
    "PolynomialGFunction",
    "HuberFunction",
    "FairFunction",
    "L1L2Function",
    "SoftCapFunction",
    "LevyExponentFunction",
    "SoftConcaveSublinearFunction",
    # substrate samplers and the batch-update engine
    "Sample",
    "StreamingSampler",
    "BatchUpdateMixin",
    "DEFAULT_BATCH_SIZE",
    "replay_stream",
    "ExactLpSampler",
    "ExactGSampler",
    "PerfectL0Sampler",
    "PerfectL2Sampler",
    "JW18LpSampler",
    "ReservoirL1Sampler",
    "PrecisionLpSampler",
    "TrulyPerfectGSampler",
    "ExponentialRaceSampler",
    # applications
    "RightToBeForgottenEstimator",
    "LpSamplingHeavyHitters",
    "DuplicateFinder",
    "PropertyLeakingSampler",
    "leakage_experiment",
    "DistributedSamplingCoordinator",
    # the paper's contribution
    "PerfectLpSampler",
    "PerfectLpSamplerInteger",
    "make_perfect_lp_sampler",
    "PolynomialSampler",
    "PolynomialFunction",
    "ApproximateLpSampler",
    "DiscretizedDuplication",
    "FastUpdateState",
    "LogSampler",
    "CapSampler",
    "RejectionGSampler",
    "SubsetMomentEstimator",
    "CountSketchSubsetBaseline",
    # lower bound
    "HardInstance",
    "sample_alpha",
    "sample_beta",
    "SamplingDistinguisher",
    "distinguishing_accuracy",
    # evaluation
    "DistributionReport",
    "evaluate_sampler_distribution",
    "measure_space",
    "fit_space_exponent",
    "SamplerComparisonRow",
    "regenerate_table1",
]
