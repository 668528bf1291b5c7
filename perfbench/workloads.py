"""The four closed-loop workloads of the benchmark.

Each workload builds its inputs from the seed, runs a fixed amount of work
(chosen from ``--seconds`` so that a run measures about that long), checks
the program's outputs, and returns its end-to-end metrics.  The timed part
runs inside ``ctx.window()``; output checks that need a reference
computation run outside it, so a traced run attributes only the workload
itself.  Every call into the library goes through a module attribute
(``sampler_service.spawn_service``, ...) so that the traced run's wrappers
see it.

Every end-to-end metric is reported on every workload.  Where a metric has
no natural meaning on a workload, the workload measures the nearest
operation it does have; ``README.md`` lists each definition.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from perfbench import tracing
from repro.applications import distributed
from repro.core import perfect_lp_general
from repro.evaluation import distribution_tests
from repro.samplers.jw18_lp_sampler import PerfectL2Sampler
from repro.service import sampler_service
from repro.sketch.countsketch import CountSketch
from repro.sketch.fp_estimator import FpEstimator
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams.workloads import sliding_window_stream
from repro.utils import coordinator, snapshot, table_cache
from repro.utils.execution_config import ExecutionConfig
from repro.utils.stats import expected_tvd_noise_floor, total_variation_distance


# ---------------------------------------------------------------------------
# Run context and bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """What a workload needs from the runner."""

    seed: int
    seconds: float
    workdir: str
    recorder: object = None          # tracing.Recorder in a traced pass
    trace_dir: str | None = None     # where traced children write spans
    wall_s: float = 0.0
    cache_totals: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @contextmanager
    def window(self):
        """The measured part of a workload (traced when tracing is on).

        The table cache starts cold; its counters are folded into
        ``cache_totals`` whenever the workload clears it and at the end.
        """
        table_cache.cache_clear()
        if self.recorder is not None:
            self.recorder.enabled = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            if self.recorder is not None:
                self.recorder.enabled = False
            self.cache_clear()

    def cache_clear(self) -> None:
        """Empty the table cache, keeping the counters it had."""
        stats = table_cache.cache_stats()
        for name in ("hits", "misses", "evictions"):
            key = f"table_cache.{name}"
            self.cache_totals[key] = (self.cache_totals.get(key, 0)
                                      + getattr(stats, name))
        table_cache.cache_clear()

    @contextmanager
    def children(self, role: str, **extra):
        """Environment for child processes spawned inside the block.

        ``extra`` entries always apply; in a traced pass the children also
        get the tracing bootstrap on their path.
        """
        env = {key: str(value) for key, value in extra.items()}
        if self.trace_dir is not None:
            here = os.path.dirname(os.path.abspath(__file__))
            root = os.path.dirname(here)
            env.update({
                tracing.TRACE_DIR_ENV: self.trace_dir,
                tracing.ROLE_ENV: role,
                "PYTHONPATH": os.pathsep.join(
                    [os.path.join(root, "src"), os.path.join(here, "boot"),
                     root]),
            })
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        try:
            yield
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    def subseed(self, *path: int) -> int:
        """A 63-bit seed derived from the run seed and ``path``."""
        sequence = np.random.SeedSequence([self.seed, *path])
        return int(sequence.generate_state(1, np.uint64)[0] >> np.uint64(1))

    def units(self, per_unit_s: float, minimum: int) -> int:
        """Fixed amount of work for this ``--seconds`` (same on every run)."""
        return max(minimum, int(round(self.seconds / per_unit_s)))


class Tally:
    """Operation counts and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Run one timed operation; ``(seconds, result)``, result None on error."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as error:  # a failed operation is data, keep going
            self.fail(f"{getattr(fn, '__name__', fn)}: "
                      f"{type(error).__name__}: {error}")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, result

    def check(self, ok: bool, message: str) -> None:
        """Count one output check."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def percentile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


@dataclass
class Outcome:
    metrics: dict
    tally: Tally


def _metrics(*, setup, ingest_rate, queries, draws_per_s, checkpoints,
             peak_rss) -> dict:
    return {
        "setup_s": float(np.median(setup)),
        "ingest_updates_per_s": ingest_rate,
        "query_ms_p50": percentile_ms(queries, 50),
        "query_ms_p90": percentile_ms(queries, 90),
        "draws_per_s": draws_per_s,
        "checkpoint_ms_p50": percentile_ms(checkpoints, 50),
        "peak_rss_mb": peak_rss,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

LP_VALUE_TOLERANCE = 0.25


def check_lp_draw(tally: Tally, exact: np.ndarray, drawn, where) -> None:
    """A draw lies in the support and estimates its value within 25 %."""
    truth = float(exact[drawn.index])
    tally.check(truth != 0.0,
                f"{where}: index {drawn.index} is outside the support")
    tally.check(truth != 0.0 and abs(drawn.value_estimate - truth)
                <= LP_VALUE_TOLERANCE * abs(truth),
                f"{where}: value estimate {drawn.value_estimate} for "
                f"x[{drawn.index}] = {truth}")


def check_conformance(tally: Tally, counts: np.ndarray, failures: int,
                      target: np.ndarray) -> None:
    """The tier-1 rule: TVD <= 2.5 x noise floor + 0.03, FAIL <= 20 %."""
    draws = int(counts.sum())
    tally.check(draws > 0, "no successful draw")
    if draws:
        tvd = total_variation_distance(counts / draws, target / target.sum())
        floor = expected_tvd_noise_floor(target, draws)
        tally.check(tvd <= 2.5 * floor + 0.03,
                    f"TVD {tvd:.4f} exceeds 2.5 x floor {floor:.4f} + 0.03")
    tally.check(failures <= 0.2 * (draws + failures),
                f"{failures} FAIL of {draws + failures} draws exceeds 20 %")


def check_restore(tally: Tally, final, reference: np.ndarray) -> None:
    """The restored service answers bit-identically to the reference."""
    tally.check(final is not None and np.array_equal(final, reference),
                "restored service state differs from the reference sketch")


def _draw_key(drawn):
    return None if drawn is None else (drawn.index, drawn.value_estimate)


def check_same_draws(tally: Tally, got: list, expected: list) -> None:
    """Distributed draws equal the serial ones, draw for draw."""
    tally.check([_draw_key(d) for d in got] == [_draw_key(d) for d in expected],
                "distributed draws differ from execution='serial'")


# ---------------------------------------------------------------------------
# lp_stream: Algorithm 1 as an analyst runs it
# ---------------------------------------------------------------------------

LP_N = 1024
LP_P = 3
LP_BATCH = 1024
LP_WINDOW = 12288
LP_ITEMS = 82944             # 46 % of the 153600 updates are deletions
LP_SETUPS = 3
LP_SAMPLES = 4               # sample() calls after every batch
LP_ROUND_S = 0.36            # one ingest batch plus its samples
LP_MIN_ROUNDS = 25           # 100 queries: ten beyond p90
LP_CHECKPOINTS = 3           # each snapshot of the sampler is ~46 MB


def lp_stream(ctx: Context) -> Outcome:
    tally = Tally()
    stream = sliding_window_stream(LP_N, window=LP_WINDOW, total_items=LP_ITEMS,
                                   skew=1.1, seed=ctx.subseed(1))
    indices, deltas = stream.indices, stream.deltas
    rounds = min(ctx.units(LP_ROUND_S, LP_MIN_ROUNDS),
                 len(indices) // LP_BATCH - 1)
    path = os.path.join(ctx.workdir, "lp_stream.rsnp")
    setup, ingest, queries, checkpoints = [], [], [], []
    exact = np.zeros(LP_N)
    with ctx.window():
        for attempt in range(LP_SETUPS):
            sampler = None
            gc.collect()
            ctx.cache_clear()
            start = time.perf_counter()
            sampler = perfect_lp_general.make_perfect_lp_sampler(
                LP_N, LP_P, seed=ctx.subseed(2, attempt))
            sampler.update_batch(indices[:LP_BATCH], deltas[:LP_BATCH])
            setup.append(time.perf_counter() - start)
            tally.attempted += 1
        np.add.at(exact, indices[:LP_BATCH], deltas[:LP_BATCH])
        for k in range(1, rounds + 1):
            chunk = slice(k * LP_BATCH, (k + 1) * LP_BATCH)
            seconds, _ = tally.op(sampler.update_batch, indices[chunk],
                                  deltas[chunk])
            ingest.append(seconds)
            np.add.at(exact, indices[chunk], deltas[chunk])
            for _ in range(LP_SAMPLES):
                seconds, drawn = tally.op(sampler.sample)
                queries.append(seconds)
                if drawn is not None:
                    check_lp_draw(tally, exact, drawn, f"round {k}")
            if k % max(1, rounds // LP_CHECKPOINTS) == 0:
                seconds, _ = tally.op(snapshot.save_snapshot, sampler, path)
                checkpoints.append(seconds)
    return Outcome(_metrics(
        setup=setup, ingest_rate=LP_BATCH / np.median(ingest),
        queries=queries, draws_per_s=len(queries) / (sum(ingest) + sum(queries)),
        checkpoints=checkpoints, peak_rss=own_peak_rss_mb()), tally)


# ---------------------------------------------------------------------------
# mc_draws: the conformance-harness path (Algorithm 2, many replicas)
# ---------------------------------------------------------------------------

MC_N = 64
MC_P = 2.5
MC_DRAWS_PER_JOB = 50
MC_JOB_S = 5.0               # one job plus its probes
MC_MIN_JOBS = 2
MC_PROBES_PER_JOB = 5
MC_PROBE_INGESTS = 5         # warm re-ingests of the stream per probe
MC_PROBE_QUERIES = 10        # sample() calls per probe after the first


def mc_draws(ctx: Context) -> Outcome:
    tally = Tally()
    vector = zipfian_frequency_vector(MC_N, seed=ctx.subseed(1))
    stream = turnstile_stream_with_cancellations(vector, seed=ctx.subseed(2))
    target = np.abs(vector) ** MC_P
    jobs = ctx.units(MC_JOB_S, MC_MIN_JOBS)
    path = os.path.join(ctx.workdir, "mc_draws.rsnp")
    setup, ingest, queries, checkpoints = [], [], [], []
    counts = np.zeros(MC_N)
    failures = 0
    job_s = 0.0
    with ctx.window():
        for job in range(jobs):
            # Probes: one replica as the engine builds it for every draw;
            # the time to its first draw is this workload's set-up.
            for probe in range(MC_PROBES_PER_JOB):
                ctx.cache_clear()
                start = time.perf_counter()
                sampler = perfect_lp_general.PerfectLpSampler(
                    MC_N, MC_P, seed=ctx.subseed(3, job, probe))
                sampler.update_stream(stream)
                sampler.sample()
                setup.append(time.perf_counter() - start)
                tally.attempted += 1
                for _ in range(MC_PROBE_QUERIES):
                    seconds, _ = tally.op(sampler.sample)
                    queries.append(seconds)
                for _ in range(MC_PROBE_INGESTS):
                    seconds, _ = tally.op(sampler.update_stream, stream)
                    ingest.append(seconds)
                seconds, _ = tally.op(snapshot.save_snapshot, sampler, path)
                checkpoints.append(seconds)
            ctx.cache_clear()
            gc.collect()
            base = ctx.subseed(4, job)

            def factory(seed, base=base):
                return perfect_lp_general.PerfectLpSampler(
                    MC_N, MC_P, seed=base + seed)

            seconds, report = tally.op(
                distribution_tests.evaluate_sampler_distribution,
                factory, stream, target, MC_DRAWS_PER_JOB)
            job_s += seconds
            if report is not None:
                counts += np.rint(report.empirical * report.num_draws)
                failures += report.num_failures
    check_conformance(tally, counts, failures, target)
    return Outcome(_metrics(
        setup=setup, ingest_rate=len(stream) / np.median(ingest),
        queries=queries, draws_per_s=jobs * MC_DRAWS_PER_JOB / job_s,
        checkpoints=checkpoints, peak_rss=own_peak_rss_mb()), tally)


# ---------------------------------------------------------------------------
# service_mixed: the E21 CountSketch behind the sampler service
# ---------------------------------------------------------------------------

SVC_N = 100_000
SVC_BUCKETS = 256
SVC_ROWS = 5
SVC_BATCH = 4096
SVC_QUERY_EVERY = 2          # estimate_all + heavy_hitters after every 2nd batch
SVC_CHECKPOINT_EVERY = 20
SVC_SPAWNS = 3
SVC_BATCH_S = 0.025          # one batch plus its share of the reads
SVC_MIN_BATCHES = 100        # 100 queries: ten beyond p90
SVC_TAIL = 7                 # batches sent only after the crash
SVC_SPEC = "repro.sketch.countsketch:CountSketch"


def _stopped(process) -> None:
    """Release the pipes ``spawn_service`` opened to a stopped service."""
    for pipe in (process.stdout, process.stderr):
        pipe.close()


def _service_batches(ctx: Context, count: int):
    rng = np.random.default_rng(ctx.subseed(1))
    weights = 1.0 / np.arange(1, SVC_N + 1) ** 1.1
    weights /= weights.sum()
    for _ in range(count):
        indices = rng.choice(SVC_N, size=SVC_BATCH, p=weights).astype(np.int64)
        deltas = rng.choice([-1.0, 1.0, 2.0], size=SVC_BATCH)
        yield indices, deltas


def service_mixed(ctx: Context) -> Outcome:
    tally = Tally()
    count = ctx.units(SVC_BATCH_S, SVC_MIN_BATCHES)
    batches = list(_service_batches(ctx, count + SVC_TAIL))
    kwargs = {"n": SVC_N, "buckets": SVC_BUCKETS, "rows": SVC_ROWS,
              "seed": ctx.subseed(2)}
    path = os.path.join(ctx.workdir, "service.rsnp")
    setup, ingest, queries, checkpoints = [], [], [], []
    answered = 0
    final = None
    process = address = None
    try:
        with ctx.children("service"), ctx.window():
            for attempt in range(SVC_SPAWNS):
                if process is not None:
                    sampler_service.stop_service(process, address)
                    _stopped(process)
                # Every set-up builds a fresh sketch (a stop checkpoints).
                if os.path.exists(path):
                    os.remove(path)
                start = time.perf_counter()
                process, address = sampler_service.spawn_service(
                    SVC_SPEC, kwargs, snapshot_path=path)
                client = sampler_service.ServiceClient(address)
                tally.check(client.ping(), "service did not answer ping")
                setup.append(time.perf_counter() - start)
                if attempt < SVC_SPAWNS - 1:
                    client.close()
            loop_start = time.perf_counter()
            checkpointed = 0
            for k, (indices, deltas) in enumerate(batches[:count], start=1):
                seconds, _ = tally.op(client.ingest, indices, deltas)
                ingest.append(seconds)
                if k % SVC_QUERY_EVERY == 0:
                    for method, args in (("estimate_all", ()),
                                         ("heavy_hitters", (50.0,))):
                        seconds, result = tally.op(client.query, method, *args)
                        queries.append(seconds)
                        answered += result is not None
                if k % SVC_CHECKPOINT_EVERY == 0:
                    seconds, reply = tally.op(client.checkpoint)
                    checkpoints.append(seconds)
                    if reply is not None:
                        checkpointed = reply["sequence"]
            loop_s = time.perf_counter() - loop_start
            # Crash, restore from the last checkpoint, replay the rest.
            peak = child_peak_rss_mb(process.pid)
            client.close()
            if ctx.trace_dir is not None:
                tracing.request_dump(process, ctx.trace_dir)
            process.send_signal(signal.SIGKILL)
            process.wait()
            _stopped(process)
            process, address = sampler_service.spawn_service(
                SVC_SPEC, kwargs, snapshot_path=path)
            with sampler_service.ServiceClient(address) as client:
                stats = client.stats()
                tally.check(stats["restored_sequence"] == checkpointed,
                            f"restored sequence {stats['restored_sequence']} "
                            f"!= checkpoint {checkpointed}")
                for indices, deltas in batches[checkpointed:]:
                    tally.op(client.ingest, indices, deltas)
                _, final = tally.op(client.query, "estimate_all")
            peak = max(peak, child_peak_rss_mb(process.pid))
            sampler_service.stop_service(process, address)
            _stopped(process)
            process = None
    finally:
        # An unexpected error must not leave the service running.
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()
    reference = CountSketch(SVC_N, SVC_BUCKETS, SVC_ROWS, kwargs["seed"])
    for indices, deltas in batches:
        reference.update_batch(indices, deltas)
    check_restore(tally, final, reference.estimate_all())
    return Outcome(_metrics(
        setup=setup, ingest_rate=SVC_BATCH / np.median(ingest),
        queries=queries, draws_per_s=answered / loop_s,
        checkpoints=checkpoints, peak_rss=peak), tally)


# ---------------------------------------------------------------------------
# distributed_draws: the scatter/gather coordinator and its workers
# ---------------------------------------------------------------------------

DIST_N = 1024
DIST_SHARDS = 2
DIST_DRAWS = 100
DIST_JOB_S = 4.5             # spawn, ingest, bulk_samples, checkpoint, queries
DIST_MIN_JOBS = 2
DIST_QUERIES_PER_JOB = 25
DIST_BATCH = 256
DIST_SECRET = "perfbench-cluster-secret"


def l2_shard_sampler(shard: int, seed: int):
    """Shard-local sampler (module level, so the coordinator pickles)."""
    return PerfectL2Sampler(DIST_N, seed)


def f2_shard_estimator(shard: int, seed: int):
    """Shard-selection weight: an ``F_2`` estimate of the shard."""
    return FpEstimator(DIST_N, 2.0, seed=seed)


def distributed_draws(ctx: Context) -> Outcome:
    """Each job gets fresh workers, so a worker's table cache holds one job."""
    tally = Tally()
    vector = zipfian_frequency_vector(DIST_N, seed=ctx.subseed(1))
    stream = turnstile_stream_with_cancellations(vector, seed=ctx.subseed(2))
    jobs = ctx.units(DIST_JOB_S, DIST_MIN_JOBS)
    path = os.path.join(ctx.workdir, "coordinator.rsnp")
    setup, ingest, queries, checkpoints = [], [], [], []
    job_s = bulk_s = 0.0
    peak = 0.0
    first_job = []
    gathered = {"wire_bytes_sent": 0, "wire_bytes_received": 0,
                "redispatches": 0, "degraded_serial_shards": 0}
    processes = []
    try:
        with ctx.children("worker", REPRO_CLUSTER_SECRET=DIST_SECRET), \
                ctx.window():
            for job in range(jobs):
                ctx.cache_clear()
                start = time.perf_counter()
                processes, addresses = coordinator.spawn_local_workers(
                    DIST_SHARDS)
                for address in addresses:
                    echoed = coordinator.worker_echo(
                        address, job, secret=DIST_SECRET.encode())
                    tally.check(echoed == job, "worker echo mismatch")
                setup.append(time.perf_counter() - start)
                config = ExecutionConfig(
                    execution="distributed", cluster_secret=DIST_SECRET,
                    workers=tuple(f"{host}:{port}" for host, port in addresses))
                job_start = time.perf_counter()
                coordinating = distributed.DistributedSamplingCoordinator(
                    DIST_N, DIST_SHARDS, l2_shard_sampler, f2_shard_estimator,
                    seed=ctx.subseed(3, job))
                for start in range(0, len(stream), DIST_BATCH):
                    chunk = slice(start, start + DIST_BATCH)
                    seconds, _ = tally.op(coordinating.update_batch,
                                          stream.indices[chunk],
                                          stream.deltas[chunk])
                    ingest.append(seconds)
                seconds, results = tally.op(coordinating.bulk_samples, stream,
                                            DIST_DRAWS, config=config)
                bulk_s += seconds
                job_s += time.perf_counter() - job_start
                stats = coordinator.last_gather_stats()
                for key in gathered:
                    gathered[key] += getattr(stats, key)
                if job == 0:
                    first_job = results or []
                peak = max([peak] + [child_peak_rss_mb(process.pid)
                                     for process in processes])
                coordinator.stop_local_workers(processes)
                processes = []
                seconds, _ = tally.op(snapshot.save_snapshot, coordinating, path)
                checkpoints.append(seconds)
                for _ in range(DIST_QUERIES_PER_JOB):
                    seconds, _ = tally.op(coordinating.sample)
                    queries.append(seconds)
    finally:
        if processes:
            coordinator.stop_local_workers(processes)
    # The same job under execution="serial" must give the same draws; its
    # time is the base of distributed.speedup_vs_serial.
    table_cache.cache_clear()
    serial = distributed.DistributedSamplingCoordinator(
        DIST_N, DIST_SHARDS, l2_shard_sampler, f2_shard_estimator,
        seed=ctx.subseed(3, 0))
    serial.update_stream(stream, batch_size=DIST_BATCH)
    start = time.perf_counter()
    expected = serial.bulk_samples(stream, DIST_DRAWS,
                                   config=ExecutionConfig(execution="serial"))
    serial_s = time.perf_counter() - start
    table_cache.cache_clear()
    check_same_draws(tally, first_job, expected)
    ctx.extras.update(gathered)
    ctx.extras["serial_s"] = serial_s
    ctx.extras["speedup_vs_serial"] = serial_s / (bulk_s / jobs)
    return Outcome(_metrics(
        setup=setup, ingest_rate=DIST_BATCH / np.median(ingest),
        queries=queries, draws_per_s=jobs * DIST_DRAWS / job_s,
        checkpoints=checkpoints, peak_rss=max(peak, own_peak_rss_mb())),
        tally)


WORKLOADS = {
    "lp_stream": lp_stream,
    "mc_draws": mc_draws,
    "service_mixed": service_mixed,
    "distributed_draws": distributed_draws,
}
