"""E9 — per-update cost: fast-update (binomial counting) vs explicit duplication,
plus scalar-vs-batched ingest throughput for the CountSketch-backed samplers,
plus the replica-ensemble draw throughput (E9c) recorded in ``BENCH_e9.json``.

Paper artifact: the fast-update scheme of Section 3 / Theorem 3.21, which
keeps the update time polylogarithmic regardless of the duplication
parameter by replacing explicit copies with multinomial/binomial counts.

The benchmark times, per stream update, the approximate sampler's two update
paths and an explicit-enumeration strawman that touches every duplicated
copy individually.

Expected shape: the fast-update sampler's per-update cost barely moves when
the duplication parameter grows (its work is dominated by the fixed sketch
stages), while the explicit-enumeration strawman's cost grows with the
duplication count — absolute constants are not comparable (the strawman does
nothing but one vectorised pass over the copies), so the benchmark judges
growth ratios, not absolute times.

The second experiment exercises the library-wide batch-update engine:
ingesting a stream over a universe of ``n = 10^5`` through ``update_batch``
must be at least 5x faster per update than scalar ``update`` replay on the
CountSketch-backed samplers (in practice the gap is 1-2 orders of
magnitude).  ``REPRO_BENCH_QUICK=1`` shrinks stream lengths for CI smoke
runs without changing the universe size or the assertions.

The third experiment (E9c) measures the replica-ensemble engine on
``empirical_counts``-style Monte-Carlo workloads (hundreds of one-shot
draws from fresh independent replicas over a small universe): for
CountSketch-backed samplers (JW18, precision) and the ``p``-stable sketch
the ensemble path must be at least 10x faster than per-instance scalar
replay while producing bit-identical draws.  All measured rows — scalar
vs batched vs ensemble — are serialised to ``BENCH_e9.json`` (path
overridable via ``REPRO_BENCH_JSON``) so the perf trajectory is tracked
from this PR onward.

The fifth experiment (E9e) is the memory-ceiling harness for the shared
table cache PR: tracemalloc peak of a batched CountSketch ingest with
materialised ``(rows, n)`` hash tables vs the ``blocked`` evaluation mode
that never builds them (full mode: ``n = 10^7``, 7 rows, >= 10x peak
reduction asserted; quick mode asserts the ordering on a small universe).

E9g times ``CountSketch.update_vector`` on a dense vector, the
gradient-style input in which every coordinate changes (the access
pattern of ``CSVec.updateVec``), in microseconds per coordinate, and
checks the table bitwise against a per-row ``np.add.at`` reference.  It
prints its row only: it is not in ``BENCH_e9.json`` and not gated.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np

from _harness import EXPERIMENT_SEED, print_rows
from repro.core.approximate_lp import ApproximateLpSampler
from repro.core.fast_update import DiscretizedDuplication
from repro.evaluation.throughput import (
    measure_ensemble_draws,
    measure_update_throughput,
    write_bench_json,
)
from repro.evaluation.space_model import fit_space_exponent, measure_space
from repro.samplers.jw18_lp_sampler import JW18LpSampler, PerfectL2Sampler
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.sketch.countsketch import CountSketch
from repro.sketch.pstable import PStableSketch
from repro.streams.generators import stream_from_vector, zipfian_frequency_vector
from repro.streams.stream import TurnstileStream
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import replica_sharded_ensemble, usable_cpu_count
from repro.utils.table_cache import cache_clear, table_mode

QUICK_MODE = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false", "False")
BENCH_JSON_PATH = os.environ.get("REPRO_BENCH_JSON", "BENCH_e9.json")

#: Collected rows from the sections below, serialised by whichever test
#: runs last so a partial (single-test) run still emits a valid file.
_BENCH_PAYLOAD: dict = {
    "benchmark": "E9",
    "quick_mode": QUICK_MODE,
    "universe_update_throughput_n": 100_000,
}


def _flush_bench_json() -> None:
    write_bench_json(BENCH_JSON_PATH, _BENCH_PAYLOAD)


def _time_sampler_updates(sampler, stream) -> float:
    start = time.perf_counter()
    for update in stream:
        sampler.update(update.index, update.delta)
    elapsed = time.perf_counter() - start
    return elapsed / max(stream.length, 1)


def _time_explicit_enumeration(stream, p, duplication, seed) -> float:
    """Strawman: touch every duplicated copy explicitly on each update."""
    rng = np.random.default_rng(seed)
    per_coordinate = {}
    start = time.perf_counter()
    sink = 0.0
    for update in stream:
        factors = per_coordinate.get(update.index)
        if factors is None:
            factors = rng.exponential(size=duplication) ** (-1.0 / p)
            per_coordinate[update.index] = factors
        sink += float(np.sum(update.delta * factors))
    elapsed = time.perf_counter() - start
    assert np.isfinite(sink)
    return elapsed / max(stream.length, 1)


def run_experiment():
    n, p = 256, 3.0
    vector = zipfian_frequency_vector(n, skew=1.2, scale=150.0, seed=EXPERIMENT_SEED)
    updates_per_unit = 4 if QUICK_MODE else 8
    stream = stream_from_vector(vector, updates_per_unit=updates_per_unit,
                                seed=EXPERIMENT_SEED + 1)

    rows = []
    for duplication in (256, 4096):
        fast = ApproximateLpSampler(n, p, epsilon=0.3, seed=EXPERIMENT_SEED,
                                    duplication=duplication, fast_update=True,
                                    track_value=False, fp_repetitions=5)
        fast_time = _time_sampler_updates(fast, stream)

        slow_profile = ApproximateLpSampler(n, p, epsilon=0.3, seed=EXPERIMENT_SEED,
                                            duplication=duplication, fast_update=False,
                                            track_value=False, fp_repetitions=5)
        profile_time = _time_sampler_updates(slow_profile, stream)

        explicit_time = _time_explicit_enumeration(stream, p, duplication,
                                                   EXPERIMENT_SEED + 2)
        rows.append([duplication, round(1e6 * fast_time, 1),
                     round(1e6 * profile_time, 1), round(1e6 * explicit_time, 1)])
    return rows


def test_e9_update_time(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_rows(
        "E9: per-update time (microseconds) vs duplication parameter",
        ["duplication", "fast update (binomial)", "explicit-profile sampler",
         "explicit enumeration strawman"],
        rows,
    )
    small, large = rows[0], rows[1]
    # Fast update time is insensitive to duplication (within a 5x band).
    assert large[1] < 5 * small[1] + 50
    # The explicit-enumeration strawman's cost grows with the duplication
    # parameter, and it grows faster than the fast-update path's cost does.
    strawman_growth = large[3] / max(small[3], 1e-9)
    fast_growth = large[1] / max(small[1], 1e-9)
    assert strawman_growth > 2.0
    assert fast_growth < strawman_growth


def run_batched_ingest():
    """Scalar vs batched ingest on CountSketch-backed samplers at n = 10^5."""
    n = 100_000
    # Quick mode keeps the (interpreter-speed) scalar replay short via
    # scalar_limit but ingests a near-full stream through the batched
    # path: the batched per-update figure is the regression-gated metric,
    # and at CountSketch speed (~0.1 us/update) a short stream leaves a
    # ~3 ms timed region whose scheduler noise swings the gate by >1.5x.
    num_updates = 120_000 if QUICK_MODE else 200_000
    scalar_limit = 8_000 if QUICK_MODE else 20_000
    rng = np.random.default_rng(EXPERIMENT_SEED + 9)
    indices = rng.integers(0, n, size=num_updates)
    deltas = rng.choice(np.asarray([-1.0, 1.0, 2.0]), size=num_updates)
    stream = TurnstileStream.from_arrays(n, indices, deltas)

    samplers = [
        ("CountSketch", lambda: CountSketch(n, 4096, 5, EXPERIMENT_SEED)),
        ("PrecisionLpSampler(p=2)",
         lambda: PrecisionLpSampler(n, 2.0, epsilon=0.25, seed=EXPERIMENT_SEED)),
        ("JW18LpSampler(p=2)",
         lambda: JW18LpSampler(n, 2.0, EXPERIMENT_SEED, value_instances=4)),
    ]
    rows = []
    json_rows = []
    for label, factory in samplers:
        measured = measure_update_throughput(factory, stream,
                                             batch_sizes=(8192,),
                                             scalar_limit=scalar_limit)
        scalar, batched = measured[0], measured[1]
        rows.append([
            label,
            round(scalar.microseconds_per_update, 2),
            round(batched.microseconds_per_update, 3),
            round(batched.speedup_vs_scalar, 1),
            int(batched.updates_per_second),
        ])
        json_rows.append({
            "sampler": label,
            "scalar_us_per_update": scalar.microseconds_per_update,
            "batched_us_per_update": batched.microseconds_per_update,
            "speedup_batched_vs_scalar": batched.speedup_vs_scalar,
            "batched_updates_per_second": batched.updates_per_second,
        })
    _BENCH_PAYLOAD["update_throughput"] = json_rows
    _flush_bench_json()
    return rows


def test_e9_batched_ingest_throughput(benchmark):
    rows = benchmark.pedantic(run_batched_ingest, rounds=1, iterations=1)
    print_rows(
        "E9b: scalar vs batched ingest (n = 1e5, CountSketch-backed samplers)",
        ["sampler", "scalar us/update", "batched us/update",
         "speedup", "batched updates/s"],
        rows,
    )
    # The acceptance bar: batched ingest is at least 5x scalar replay on
    # every CountSketch-backed sampler (measured headroom is far larger).
    for row in rows:
        assert row[3] >= 5.0, f"{row[0]} speedup {row[3]} below 5x"


def run_dense_vector_update():
    """E9g: dense-vector ingest, ``CountSketch(10^5, 256, 5).update_vector``.

    The first call builds the hash tables and is not timed; the median of
    the timed calls is reported per vector and per coordinate.  The table
    after every call must equal, bit for bit, one ``np.add.at`` per row
    over the same vectors.
    """
    n, buckets, rows = 100_000, 256, 5
    repeats = 5 if QUICK_MODE else 20
    rng = np.random.default_rng(EXPERIMENT_SEED + 11)
    vector = rng.standard_normal(n)
    sketch = CountSketch(n, buckets, rows, EXPERIMENT_SEED)
    sketch.update_vector(vector)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        sketch.update_vector(vector)
        seconds.append(time.perf_counter() - start)
    ensemble = sketch._ensemble
    keys = np.arange(n, dtype=np.int64)
    bucket_of = ensemble._bucket_family.hash_all(keys)
    signed = ensemble._sign_family.sign_all(keys) * vector
    reference = np.zeros((rows, buckets))
    for _ in range(1 + repeats):
        for row in range(rows):
            np.add.at(reference[row], bucket_of[row], signed[row])
    assert ensemble.member_tables()[0].tobytes() == reference.tobytes()
    per_vector = float(np.median(seconds))
    return [["CountSketch(n=1e5, 256, 5)", repeats,
             round(per_vector * 1e3, 3), round(per_vector * 1e6 / n, 4)]]


def test_e9g_dense_vector_update(benchmark):
    rows = benchmark.pedantic(run_dense_vector_update, rounds=1, iterations=1)
    print_rows(
        "E9g: dense-vector update_vector (n = 1e5, every coordinate changes)",
        ["sketch", "vectors", "ms/vector", "us/coordinate"],
        rows,
    )


def run_ensemble_draws():
    """E9c: empirical_counts-style draws — per-instance vs replica ensemble.

    The workload mirrors the distribution experiments (E1/E3/E12/Table 1):
    hundreds of one-shot draws from fresh independent replicas over a
    small universe, on a cancellation-heavy turnstile stream.  Results of
    the ensemble path are bit-identical to the per-instance paths (see
    tests/test_ensemble_equivalence.py); this benchmark measures the
    wall-clock gap.
    """
    n = 64
    draws = 160 if QUICK_MODE else 800
    num_updates = 600 if QUICK_MODE else 2000
    rng = np.random.default_rng(EXPERIMENT_SEED + 17)
    indices = rng.integers(0, n, size=num_updates)
    deltas = rng.choice(np.asarray([-2.0, -1.0, 1.0, 2.0, 3.0]), size=num_updates)
    stream = TurnstileStream.from_arrays(n, indices, deltas)

    norm_query = lambda sketch: sketch.estimate_norm()  # noqa: E731
    norm_ensemble_query = lambda ens, r: ens.estimate_norm_replica(r)  # noqa: E731
    cases = [
        ("JW18LpSampler(p=2, sketch)", "countsketch",
         lambda s: JW18LpSampler(n, 2.0, seed=s), None, None),
        ("PrecisionLpSampler(p=2)", "countsketch",
         lambda s: PrecisionLpSampler(n, 2.0, epsilon=0.25, seed=s), None, None),
        ("JW18LpSampler(p=2, oracle)", "exact-vector",
         lambda s: JW18LpSampler(n, 2.0, seed=s, exact_recovery=True), None, None),
        ("PStableSketch(p=1)", "p-stable",
         lambda s: PStableSketch(n, 1.0, num_rows=96, seed=s),
         norm_query, norm_ensemble_query),
    ]
    measured = []
    rows = []
    for label, backing, factory, query, ensemble_query in cases:
        row = measure_ensemble_draws(
            factory, stream, draws, label=label, query=query,
            ensemble_query=ensemble_query,
            scalar_probe=8 if QUICK_MODE else 16,
            batched_probe=40 if QUICK_MODE else 100,
        )
        measured.append((backing, row))
        rows.append([
            label, backing, row.draws, row.stream_length,
            round(row.scalar_seconds, 2), round(row.batched_seconds, 2),
            round(row.ensemble_seconds, 2),
            round(row.speedup_vs_scalar, 1), round(row.speedup_vs_batched, 2),
            int(row.draws_per_second),
        ])
    _BENCH_PAYLOAD["ensemble_draws"] = [
        {"backing": backing, **{k: getattr(row, k) for k in row.__dataclass_fields__}}
        for backing, row in measured
    ]
    _flush_bench_json()
    return rows


def run_sharded_execution():
    """E9d: sharded execution — monolithic vs serial vs threaded vs 2 workers.

    The replica axis of an ensemble is split into 2 shard ensembles that
    are driven in-process one after another (pure overhead measurement:
    the sharding layer must not cost anything), from a 2-thread in-process
    pool (``threaded`` — zero pickling, the gemv kernels release the GIL),
    or in 2 worker processes via ``multiprocessing`` (the wall-clock win
    of parallel ingest when start-up amortises).  Every mode produces
    bit-identical per-replica results — asserted here and enforced by
    tests/test_sharding_equivalence.py + tests/test_threaded_execution.py
    — so the execution knob is purely a throughput choice.  The
    representative workload is the ``p``-stable ensemble, whose
    counter-based coefficient oracle is compute-bound (splitmix mixing +
    trig over the whole replica grid) and ships only ``O(R * num_rows)``
    state back from the workers.
    """
    n = 512
    workers = 2
    draws = 64 if QUICK_MODE else 240
    num_updates = 1_500 if QUICK_MODE else 6_000
    rng = np.random.default_rng(EXPERIMENT_SEED + 23)
    indices = rng.integers(0, n, size=num_updates)
    deltas = rng.choice(np.asarray([-2.0, -1.0, 1.0, 2.0, 3.0]), size=num_updates)
    stream = TurnstileStream.from_arrays(n, indices, deltas)

    factory = lambda s: PStableSketch(n, 1.0, num_rows=128, seed=s)  # noqa: E731
    query = lambda ensemble, r: ensemble.estimate_norm_replica(r)  # noqa: E731

    def timed(mode):
        instances = [factory(seed) for seed in range(draws)]
        start = time.perf_counter()
        if mode == "monolithic":
            ensemble = build_ensemble(instances)
            ensemble.update_stream(stream)
        else:
            ensemble = replica_sharded_ensemble(
                instances, stream,
                config=ExecutionConfig(num_shards=workers, execution=mode,
                                       processes=workers))
        results = np.asarray([query(ensemble, r) for r in range(draws)])
        return time.perf_counter() - start, results

    monolithic_seconds, monolithic_results = timed("monolithic")
    serial_seconds, serial_results = timed("serial")
    threaded_seconds, threaded_results = timed("threaded")
    forked_seconds, forked_results = timed("multiprocessing")

    # The execution knob must never change a bit of any replica's output.
    np.testing.assert_array_equal(monolithic_results, serial_results)
    np.testing.assert_array_equal(monolithic_results, threaded_results)
    np.testing.assert_array_equal(monolithic_results, forked_results)

    # Affinity-aware: a 1-CPU container quota on a many-core host must not
    # arm the parallel-speedup assertions.
    cpus = usable_cpu_count()
    row = {
        "sampler": "PStableSketch(p=1, rows=128)",
        "draws": draws,
        "stream_length": num_updates,
        "workers": workers,
        "cpu_count": cpus,
        "monolithic_seconds": monolithic_seconds,
        "serial_sharded_seconds": serial_seconds,
        "threaded_seconds": threaded_seconds,
        "multiprocessing_seconds": forked_seconds,
        "sharding_overhead_vs_monolithic": serial_seconds / monolithic_seconds,
        "speedup_threaded_vs_serial_sharded": serial_seconds / threaded_seconds,
        "speedup_threaded_vs_monolithic": monolithic_seconds / threaded_seconds,
        "speedup_mp_vs_serial_sharded": serial_seconds / forked_seconds,
        "speedup_mp_vs_monolithic": monolithic_seconds / forked_seconds,
    }
    _BENCH_PAYLOAD["sharded_execution"] = row
    _flush_bench_json()
    return row


def test_e9d_sharded_execution(benchmark):
    row = benchmark.pedantic(run_sharded_execution, rounds=1, iterations=1)
    print_rows(
        "E9d: sharded replica execution (2 shards; bit-identical results)",
        ["sampler", "draws", "monolithic s", "serial-sharded s",
         "2-thread s", "2-worker mp s", "threaded speedup vs serial",
         "mp speedup vs serial", "cpus"],
        [[row["sampler"], row["draws"], round(row["monolithic_seconds"], 3),
          round(row["serial_sharded_seconds"], 3),
          round(row["threaded_seconds"], 3),
          round(row["multiprocessing_seconds"], 3),
          round(row["speedup_threaded_vs_serial_sharded"], 2),
          round(row["speedup_mp_vs_serial_sharded"], 2), row["cpu_count"]]],
    )
    # Timing assertions only run on the full workload: the quick-mode (CI
    # smoke) runs are tens of milliseconds, where scheduler noise on shared
    # builders swamps the ratios; bit-identity above is asserted always.
    if not QUICK_MODE:
        # Serial sharding is a pure reorganisation of the same work; its
        # overhead over the monolithic ensemble must stay small.
        assert row["sharding_overhead_vs_monolithic"] < 1.6, row
        # The parallel-speedup bars need real parallel hardware; mirroring
        # the multiprocessing rule, they arm only on >= 2 *usable* cores
        # (affinity/cgroup aware), so quota-limited builders record honest
        # sub-1x numbers without failing.
        if row["cpu_count"] >= 2:
            # Threaded execution pays no pickling and no process start-up;
            # its bar is the in-process serial reorganisation of the same
            # kernels.
            assert row["speedup_threaded_vs_serial_sharded"] > 1.05, row
            assert row["speedup_mp_vs_serial_sharded"] > 1.15, row


def run_distributed_execution():
    """E9f: distributed execution — scatter/gather overhead vs multiprocessing.

    The E9d workload (replica-sharded ``p``-stable ensemble, 2 shards)
    driven through ``execution="distributed"``: two localhost worker
    subprocesses behind the socket transport, scattered and gathered by
    the coordinator.  Worker spawn is excluded from the timing — workers
    are long-lived hosts in the deployment picture; what this section
    tracks is the steady-state scatter/gather overhead *relative to the
    multiprocessing back-end on the same machine*
    (``overhead_vs_multiprocessing``, a ratio, so builder speed cancels
    out of the regression gate), plus the raw transport round-trip
    throughput of a 1 MiB echo payload and the wire-traffic/re-dispatch
    accounting of the run.  Bit-identity to the serial back-end is
    asserted always, as everywhere else in the execution layer.

    Two hardening-PR rows ride along: ``compressed_link`` repeats the
    sharded run with negotiated per-frame compression and records the
    wire-byte ratio plus the time cost relative to the uncompressed
    distributed run (``overhead_vs_uncompressed``, the ratio the
    regression gate tracks), and ``retry_echo`` measures the cost of the
    :class:`~repro.utils.coordinator.RetryPolicy` wrapper on a healthy
    link (where it must be pure bookkeeping: zero retries, zero backoff).
    """
    from repro.utils.coordinator import (
        RetryPolicy,
        spawn_local_workers,
        stop_local_workers,
        worker_echo,
        worker_pool,
    )

    n = 512
    workers = 2
    draws = 64 if QUICK_MODE else 240
    num_updates = 1_500 if QUICK_MODE else 6_000
    rng = np.random.default_rng(EXPERIMENT_SEED + 23)
    indices = rng.integers(0, n, size=num_updates)
    deltas = rng.choice(np.asarray([-2.0, -1.0, 1.0, 2.0, 3.0]), size=num_updates)
    stream = TurnstileStream.from_arrays(n, indices, deltas)

    factory = lambda s: PStableSketch(n, 1.0, num_rows=128, seed=s)  # noqa: E731
    query = lambda ensemble, r: ensemble.estimate_norm_replica(r)  # noqa: E731

    def timed(mode):
        instances = [factory(seed) for seed in range(draws)]
        start = time.perf_counter()
        ensemble = replica_sharded_ensemble(
            instances, stream,
            config=ExecutionConfig(num_shards=workers, execution=mode,
                                   processes=workers))
        results = np.asarray([query(ensemble, r) for r in range(draws)])
        return time.perf_counter() - start, results

    serial_seconds, serial_results = timed("serial")
    forked_seconds, forked_results = timed("multiprocessing")

    retry_policy = RetryPolicy(max_attempts=3, base_delay=0.02,
                               max_delay=0.2, deadline=20.0)
    processes, addresses = spawn_local_workers(workers)
    try:
        with worker_pool(addresses) as executor:
            distributed_seconds, distributed_results = timed("distributed")
        stats = executor.last_stats

        # Same workload over a compressed link: the negotiated per-frame
        # codec must shrink the wire traffic (sketch state is mostly
        # small-integer arrays) without changing a bit of the results.
        with worker_pool(addresses, compression="auto",
                         retry_policy=retry_policy) as executor:
            compressed_seconds, compressed_results = timed("distributed")
        compressed_stats = executor.last_stats

        # Transport round trip: 1 MiB of float64 through one worker and
        # back (pickle protocol 5, out-of-band buffers, CRC per frame).
        echo_payload = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
        start = time.perf_counter()
        echoed = worker_echo(addresses[0], echo_payload)
        echo_seconds = time.perf_counter() - start
        np.testing.assert_array_equal(echoed, echo_payload)

        # Same echo through the retry wrapper: on a healthy link the
        # policy is pure bookkeeping around one attempt.
        start = time.perf_counter()
        echoed = worker_echo(addresses[0], echo_payload, retry=retry_policy)
        retry_echo_seconds = time.perf_counter() - start
        np.testing.assert_array_equal(echoed, echo_payload)
    finally:
        stop_local_workers(processes)

    # The execution knob must never change a bit of any replica's output.
    np.testing.assert_array_equal(serial_results, forked_results)
    np.testing.assert_array_equal(serial_results, distributed_results)
    np.testing.assert_array_equal(serial_results, compressed_results)

    rows = [
        {
            "case": "replica_sharded_pstable",
            "sampler": "PStableSketch(p=1, rows=128)",
            "draws": draws,
            "stream_length": num_updates,
            "workers": workers,
            "cpu_count": usable_cpu_count(),
            "serial_sharded_seconds": serial_seconds,
            "multiprocessing_seconds": forked_seconds,
            "distributed_seconds": distributed_seconds,
            "overhead_vs_multiprocessing": distributed_seconds / forked_seconds,
            "overhead_vs_serial_sharded": distributed_seconds / serial_seconds,
            "bytes_sent": stats.bytes_sent,
            "bytes_received": stats.bytes_received,
            "redispatches": stats.redispatches,
            "dead_workers": stats.dead_workers,
        },
        {
            "case": "compressed_link",
            "compression": compressed_stats.compression,
            "distributed_seconds": compressed_seconds,
            "overhead_vs_uncompressed": compressed_seconds
                                        / distributed_seconds,
            "bytes_sent": compressed_stats.bytes_sent,
            "wire_bytes_sent": compressed_stats.wire_bytes_sent,
            "wire_ratio_sent": compressed_stats.wire_bytes_sent
                               / max(compressed_stats.bytes_sent, 1),
            "wire_ratio_received": compressed_stats.wire_bytes_received
                                   / max(compressed_stats.bytes_received, 1),
            "connect_retries": compressed_stats.connect_retries,
            "backoff_seconds": compressed_stats.backoff_seconds,
        },
        {
            "case": "transport_echo_1mib",
            "payload_bytes": int(echo_payload.nbytes),
            "roundtrip_seconds": echo_seconds,
            "mib_per_second": (2 * echo_payload.nbytes / 2**20)
                              / max(echo_seconds, 1e-9),
        },
        {
            "case": "retry_echo_1mib",
            "payload_bytes": int(echo_payload.nbytes),
            "roundtrip_seconds": retry_echo_seconds,
            "overhead_vs_plain_echo": retry_echo_seconds
                                      / max(echo_seconds, 1e-9),
        },
    ]
    _BENCH_PAYLOAD["distributed_execution"] = rows
    _flush_bench_json()
    return rows


def test_e9f_distributed_execution(benchmark):
    rows = benchmark.pedantic(run_distributed_execution, rounds=1, iterations=1)
    sharded, compressed, echo, retry_echo = rows
    print_rows(
        "E9f: distributed execution (2 localhost workers; bit-identical results)",
        ["case", "serial s", "mp s", "distributed s",
         "overhead vs mp", "sent KiB", "recv KiB", "echo MiB/s"],
        [[sharded["case"], round(sharded["serial_sharded_seconds"], 3),
          round(sharded["multiprocessing_seconds"], 3),
          round(sharded["distributed_seconds"], 3),
          round(sharded["overhead_vs_multiprocessing"], 2),
          round(sharded["bytes_sent"] / 1024, 1),
          round(sharded["bytes_received"] / 1024, 1),
          round(echo["mib_per_second"], 1)]],
    )
    print_rows(
        "E9f hardening: compressed link + retry wrapper (healthy cluster)",
        ["codec", "wire ratio sent", "wire ratio recv",
         "overhead vs raw link", "retries", "retry echo overhead"],
        [[compressed["compression"],
          round(compressed["wire_ratio_sent"], 3),
          round(compressed["wire_ratio_received"], 3),
          round(compressed["overhead_vs_uncompressed"], 2),
          compressed["connect_retries"],
          round(retry_echo["overhead_vs_plain_echo"], 2)]],
    )
    # Bit-identity is asserted inside the run; here the accounting must be
    # sane: a healthy 2-worker run re-dispatches nothing and ships real
    # payload traffic both ways.
    assert sharded["dead_workers"] == 0 and sharded["redispatches"] == 0
    assert sharded["bytes_sent"] > 0 and sharded["bytes_received"] > 0
    assert np.isfinite(sharded["overhead_vs_multiprocessing"])
    assert sharded["overhead_vs_multiprocessing"] > 0
    # The compressed link negotiated a real codec, shipped fewer wire
    # bytes than payload bytes, and never needed the retry machinery.
    assert compressed["compression"] is not None
    assert 0.0 < compressed["wire_ratio_sent"] < 1.0
    assert compressed["connect_retries"] == 0
    assert compressed["backoff_seconds"] == 0.0
    assert np.isfinite(compressed["overhead_vs_uncompressed"])
    assert retry_echo["overhead_vs_plain_echo"] > 0


def _peak_traced_bytes(fn):
    """``(peak_bytes, fn())`` with the Python/numpy allocation peak traced.

    numpy routes its data allocations through ``PyTraceMalloc_Track``, so
    tracemalloc's peak covers the evaluated hash tables — the allocation
    this harness exists to measure.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def run_memory_ceiling():
    """E9e: peak ingest memory — materialised tables vs blocked evaluation.

    The materialised path (``cached``/``private`` table modes) evaluates
    ``(rows, n)`` bucket and sign tables up front: at ``n = 10^7``, 7 rows
    and 4096 buckets that is 210 MB (~200 MiB) of int16 buckets and int8
    signs, 3 bytes per cell, before the first counter moves.  The
    evaluation's transient uint64 Horner temporaries are bounded by
    ``KWiseHashFamily._EVAL_CHUNK_CELLS`` (a few 256 KiB chunks), not by
    the universe, but the ``np.arange(n)`` key array (76 MiB) is
    materialised with the table.  The
    ``blocked`` mode evaluates hash columns only at the keys an operation
    touches, so a batched ingest of a 2*10^5-update stream peaks at the
    size of its per-batch index set instead of the universe.  Both paths
    are bit-identical (tests/test_table_mode_equivalence.py); this harness
    records the memory gap and the blocked-mode ingest throughput.

    Quick mode shrinks the universe (2*10^5) and stream so CI smoke
    asserts the ordering only; the full run asserts the >= 10x peak
    reduction recorded in BENCH_e9.json.
    """
    n = 200_000 if QUICK_MODE else 10_000_000
    rows, buckets = 7, 4096
    num_updates = 50_000 if QUICK_MODE else 200_000
    rng = np.random.default_rng(EXPERIMENT_SEED + 29)
    indices = rng.integers(0, n, size=num_updates)
    deltas = rng.choice(np.asarray([-2.0, -1.0, 1.0, 2.0]), size=num_updates)
    probe = rng.integers(0, n, size=64)

    def build_and_ingest(mode):
        sketch = CountSketch(n, buckets, rows, EXPERIMENT_SEED,
                             table_mode=mode)
        start = time.perf_counter()
        sketch.update_batch(indices, deltas)
        ingest_seconds = time.perf_counter() - start
        estimates = np.asarray([sketch.estimate(int(i)) for i in probe])
        return ingest_seconds, estimates

    measured = {}
    for mode in ("cached", "blocked"):
        cache_clear()
        peak, (_, traced_estimates) = _peak_traced_bytes(
            lambda: build_and_ingest(mode))
        # Re-run untraced for honest timing (tracemalloc taxes allocation).
        cache_clear()
        ingest_seconds, estimates = build_and_ingest(mode)
        cache_clear()
        np.testing.assert_array_equal(traced_estimates, estimates)
        measured[mode] = (peak, ingest_seconds, estimates)

    # The memory knob must not change a bit of any estimate.
    np.testing.assert_array_equal(measured["cached"][2],
                                  measured["blocked"][2])

    cached_peak, cached_seconds, _ = measured["cached"]
    blocked_peak, blocked_seconds, _ = measured["blocked"]
    row = {
        "sketch": f"CountSketch(n={n}, buckets={buckets}, rows={rows})",
        "universe": n,
        "rows": rows,
        "stream_length": num_updates,
        "materialised_peak_bytes": cached_peak,
        "blocked_peak_bytes": blocked_peak,
        "peak_reduction_factor": cached_peak / max(blocked_peak, 1),
        "materialised_ingest_updates_per_second":
            num_updates / max(cached_seconds, 1e-9),
        "blocked_ingest_updates_per_second":
            num_updates / max(blocked_seconds, 1e-9),
    }
    _BENCH_PAYLOAD["memory_ceiling"] = row
    _flush_bench_json()
    return row


def test_e9e_memory_ceiling(benchmark):
    row = benchmark.pedantic(run_memory_ceiling, rounds=1, iterations=1)
    print_rows(
        "E9e: peak ingest memory — materialised tables vs blocked evaluation",
        ["sketch", "stream", "materialised peak MiB", "blocked peak MiB",
         "reduction", "blocked updates/s"],
        [[row["sketch"], row["stream_length"],
          round(row["materialised_peak_bytes"] / 2**20, 1),
          round(row["blocked_peak_bytes"] / 2**20, 1),
          round(row["peak_reduction_factor"], 1),
          int(row["blocked_ingest_updates_per_second"])]],
    )
    # The ordering holds at any size; the 10x bar needs the full-mode
    # universe (quick mode's small tables sit too close to the per-batch
    # working set to show the full gap).
    assert row["blocked_peak_bytes"] < row["materialised_peak_bytes"], row
    if not QUICK_MODE:
        assert row["peak_reduction_factor"] >= 10.0, row


def run_space_at_scale():
    """E2 re-run at the universe sizes the blocked tables unlock.

    The original E2 sweep (benchmarks/bench_e2_space_scaling.py) fits the
    ``n^{1-2/p}`` exponent at n = 256..16384 — the pre-cache ceiling where
    per-instance ``(rows, n)`` hash tables were affordable.  Under the
    ``blocked`` table mode the same structures instantiate at n = 10^7:
    this section records their counter counts, the local space slope over
    the top decade, and the tracemalloc peak of blocked-mode construction.

    At this scale the story inverts in the right way: sketch *counters*
    (the quantity the paper's theorems bound), not hash tables, dominate
    the footprint.  The polylog L_2 substrate stays tiny (tens of
    thousands of counters, slope ~0.1-0.2), while the p = 3 sampler's
    counters remain well below its duplicated universe.  The local slope
    of the p = 3 sampler at n = 10^6..10^7 sits near 1 because its
    polylog/duplication factors have not yet been overtaken — the
    asymptotic 1 - 2/p band is fitted in E2 proper; here the recorded
    numbers track the *reachable scale*, which is the point of this row.
    """
    sizes = (20_000, 200_000) if QUICK_MODE else (1_000_000, 10_000_000)
    structures = [
        ("approximate L_p (p=3)",
         lambda n: ApproximateLpSampler(n, 3.0, epsilon=0.5,
                                        seed=EXPERIMENT_SEED, duplication=16,
                                        track_value=False, fp_repetitions=5)),
        ("perfect L_2 substrate (polylog)",
         lambda n: PerfectL2Sampler(n, seed=EXPERIMENT_SEED,
                                    value_instances=2)),
    ]
    rows = []
    json_rows = []
    for label, factory in structures:
        with table_mode("blocked"):
            cache_clear()
            start = time.perf_counter()
            peak, measurements = _peak_traced_bytes(
                lambda: measure_space(factory, sizes, label=label))
            elapsed = time.perf_counter() - start
            cache_clear()
        slope = fit_space_exponent(measurements)
        counters = [m.counters for m in measurements]
        rows.append([label, sizes[-1], counters[-1], round(slope, 3),
                     round(peak / 2**20, 1), round(elapsed, 1)])
        json_rows.append({
            "structure": label,
            "universe_sizes": list(sizes),
            "counters": counters,
            "local_space_slope": slope,
            "blocked_construction_peak_bytes": peak,
            "seconds": elapsed,
        })
    _BENCH_PAYLOAD["space_at_scale"] = json_rows
    _flush_bench_json()
    return rows


def test_e2_space_at_scale(benchmark):
    rows = benchmark.pedantic(run_space_at_scale, rounds=1, iterations=1)
    print_rows(
        "E2 at scale: blocked-mode instantiation at the new universe ceiling",
        ["structure", "largest n", "counters", "local slope",
         "construction peak MiB", "seconds"],
        rows,
    )
    by_label = {row[0]: row for row in rows}
    p3 = by_label["approximate L_p (p=3)"]
    polylog = by_label["perfect L_2 substrate (polylog)"]
    # The polylog substrate stays polylog at the new ceiling ...
    assert polylog[2] < 100_000, polylog
    assert polylog[3] < 0.35, polylog
    assert polylog[3] < p3[3], rows
    # ... the p = 3 sampler's counters stay below its duplicated universe
    # (16 n coordinates sketched into fewer counters) ...
    assert p3[2] < 16 * p3[1], p3
    # ... and blocked construction never pays the old per-family
    # (rows, n) bucket + sign table floor (rows = 7 as in E9e).
    table_floor_bytes = 2 * 7 * polylog[1] * 8
    assert polylog[4] * 2**20 < table_floor_bytes, polylog


def test_e9c_ensemble_draw_throughput(benchmark):
    rows = benchmark.pedantic(run_ensemble_draws, rounds=1, iterations=1)
    print_rows(
        "E9c: empirical-counts draws — scalar vs batched vs ensemble (wall-clock s)",
        ["sampler", "backing", "draws", "stream", "scalar s", "batched s",
         "ensemble s", "x vs scalar", "x vs batched", "draws/s"],
        rows,
    )
    # Acceptance bar (PR: vectorized replica-ensemble engine): at least 10x
    # over per-instance scalar replay for a CountSketch-backed sampler and
    # for the p-stable sketch.  Quick mode (CI smoke) uses a reduced bar to
    # absorb shared-runner noise on the smaller workload.
    floor = 3.0 if QUICK_MODE else 10.0
    for row in rows:
        if row[1] in ("countsketch", "p-stable"):
            assert row[7] >= floor, (
                f"{row[0]} ensemble speedup {row[7]}x below {floor}x")
