"""Distributed execution: transport integrity, bit-identity, fault injection.

The ``execution="distributed"`` back-end must meet the same bar as every
in-process back-end — bitwise identity to the serial reference for all
registered ensemble cases — *and* keep meeting it while workers misbehave:

* a worker SIGKILLed mid-ingest (its shards re-dispatch to a survivor),
* a connection dropped mid-frame (checksummed framing turns the torn
  message into a dead worker, never into a corrupted ensemble),
* a worker stalling past the heartbeat timeout,
* no reachable worker at all (clean degradation to in-process serial).

Every scenario asserts the gathered result against the serial back-end
with ``np.testing.assert_array_equal`` (no tolerance) and checks that the
re-dispatch accounting is observable through :class:`GatherStats`.

Workers are real subprocesses spawned through the localhost harness
(:func:`repro.utils.coordinator.spawn_local_workers`) — the same harness
the ``distributed-smoke`` CI job uses; the mid-frame/stall scenarios use
in-test fake workers whose misbehaviour is scripted exactly.
"""

from __future__ import annotations

import math
import os
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N, assert_samples_equal

from repro.applications.distributed import DistributedSamplingCoordinator
from repro.evaluation.distribution_tests import (
    RETRY_SPARE_MARGIN,
    evaluate_sampler_distribution,
    lp_target_weights,
)
from repro.exceptions import InvalidParameterError
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.sketch.countsketch import CountSketch
from repro.sketch.pstable import PStableSketch
from repro.streams.generators import (
    stream_from_vector,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils import transport
from repro.utils.coordinator import (
    IGNORE_TERM_ENV,
    DistributedExecutor,
    GatherStats,
    RetryPolicy,
    WorkerError,
    default_workers,
    distributed_ingest,
    last_gather_stats,
    parse_address,
    shutdown_worker,
    spawn_local_workers,
    stop_local_workers,
    worker_echo,
    worker_pool,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import (
    EXECUTION_MODES,
    replica_sharded_ensemble,
    stream_sharded_ensemble,
)
from repro.utils.transport import (
    TransportError,
    dumps_frames,
    frames_as_bytes,
    loads_frames,
    recv_frames,
    recv_message,
    send_frames,
    send_message,
)

STREAM_REPLICAS = 6
#: Ensemble cases whose members pickle (same subset the mp suite uses).
DIST_CASE_NAMES = ("countsketch", "pstable-cauchy", "jw18-sketch",
                   "jw18-oracle", "perfect-l0", "precision")
DIST_CASES = [case for case in CASES if case.name in DIST_CASE_NAMES]


# ---------------------------------------------------------------------------
# Transport layer
# ---------------------------------------------------------------------------


class TestTransport:
    def test_frames_roundtrip_over_socketpair(self) -> None:
        payload = {"arrays": [np.arange(5000, dtype=np.float64),
                              np.arange(7, dtype=np.int64)],
                   "nested": ("text", 3.5)}
        left, right = socket.socketpair()
        with left, right:
            send_message(left, payload)
            echoed = recv_message(right)
        np.testing.assert_array_equal(echoed["arrays"][0], payload["arrays"][0])
        np.testing.assert_array_equal(echoed["arrays"][1], payload["arrays"][1])
        assert echoed["nested"] == payload["nested"]

    def test_out_of_band_buffers_are_separate_frames(self) -> None:
        array = np.arange(4096, dtype=np.float64)
        frames = dumps_frames({"a": array})
        # Protocol 5 exports the array as a raw out-of-band buffer frame.
        assert len(frames) >= 2
        assert any(memoryview(frame).nbytes == array.nbytes
                   for frame in frames[1:])
        rebuilt = loads_frames(frames_as_bytes(frames))
        np.testing.assert_array_equal(rebuilt["a"], array)

    def test_unpickled_arrays_are_writable(self) -> None:
        # Byte-backed out-of-band buffers would rebuild read-only arrays;
        # a worker must be able to keep ingesting into unpickled state.
        frames = frames_as_bytes(dumps_frames(np.zeros(128)))
        rebuilt = loads_frames(frames)
        rebuilt[0] = 1.0
        assert rebuilt[0] == 1.0

    def test_pickle_protocol_is_highest(self) -> None:
        import pickle

        assert transport.PICKLE_PROTOCOL == pickle.HIGHEST_PROTOCOL
        assert transport.PICKLE_PROTOCOL >= 5

    def test_corrupted_payload_raises_transport_error(self) -> None:
        frames = dumps_frames({"x": np.arange(64)})
        left, right = socket.socketpair()
        with left, right:
            send_frames(left, frames)
            raw = bytearray()
            left.close()
            while True:
                chunk = right.recv(1 << 16)
                if not chunk:
                    break
                raw += chunk
            # Flip one bit in the last frame's payload region.
            raw[-1] ^= 0x01
        replay_left, replay_right = socket.socketpair()
        with replay_left, replay_right:
            replay_left.sendall(raw)
            replay_left.close()
            with pytest.raises(TransportError, match="checksum"):
                recv_frames(replay_right)

    def test_truncated_message_raises_transport_error(self) -> None:
        frames = dumps_frames({"x": np.arange(64)})
        left, right = socket.socketpair()
        with left, right:
            send_frames(left, frames)
            raw = b""
            left.close()
            while True:
                chunk = right.recv(1 << 16)
                if not chunk:
                    break
                raw += chunk
        replay_left, replay_right = socket.socketpair()
        with replay_left, replay_right:
            replay_left.sendall(raw[:len(raw) // 2])
            replay_left.close()
            with pytest.raises(TransportError, match="mid-frame"):
                recv_frames(replay_right)

    def test_bad_magic_raises_transport_error(self) -> None:
        # A well-formed v2 header (valid header CRC) with the wrong magic:
        # the parser must blame the magic, not the checksum.
        prefix = struct.pack(">2sBI", b"XX", transport.PROTOCOL_VERSION, 0)
        left, right = socket.socketpair()
        with left, right:
            left.sendall(prefix + struct.pack(">I", zlib.crc32(prefix)))
            with pytest.raises(TransportError, match="magic"):
                recv_frames(right)

    def test_corrupted_header_raises_transport_error(self) -> None:
        # Any bit flip inside the message header itself trips the header CRC.
        message = bytearray(transport.encode_frames([b"payload"]))
        message[2] ^= 0x40  # the version byte
        with pytest.raises(TransportError, match="checksum|version"):
            transport.decode_frames(bytes(message))

    def test_wrong_version_raises_transport_error(self) -> None:
        prefix = struct.pack(">2sBI", b"RS", transport.PROTOCOL_VERSION + 9, 0)
        left, right = socket.socketpair()
        with left, right:
            left.sendall(prefix + struct.pack(">I", zlib.crc32(prefix)))
            with pytest.raises(TransportError, match="version"):
                recv_frames(right)

    def test_compressed_roundtrip_is_bit_identical(self) -> None:
        payload = {"arrays": [np.zeros(4096), np.arange(2048)],
                   "text": "x" * 10000}
        plain = frames_as_bytes(dumps_frames(payload))
        wire = transport.encode_frames(plain, compression="zlib")
        assert len(wire) < sum(len(frame) for frame in plain)
        assert transport.decode_frames(wire) == plain

    def test_small_frames_bypass_compression(self) -> None:
        frames = [b"tiny"]
        compressed = transport.encode_frames(frames, compression="zlib")
        raw = transport.encode_frames(frames)
        assert compressed == raw  # below min_compress_bytes: identical wire

    def test_empty_frame_list_refused(self) -> None:
        with pytest.raises(TransportError, match="empty"):
            loads_frames([])

    def test_str_secret_handshakes_with_bytes_secret(self) -> None:
        # A str secret is encoded UTF-8, exactly like the environment
        # variable, so mixed str/bytes configuration must authenticate.
        left, right = socket.socketpair()
        with left, right:
            server = threading.Thread(
                target=transport.server_handshake, args=(right,),
                kwargs={"secret": b"s3cret"})
            server.start()
            negotiated = transport.client_handshake(left, secret="s3cret")
            server.join(timeout=5.0)
            assert negotiated.authenticated
        with pytest.raises(InvalidParameterError, match="secret"):
            transport.client_handshake(left, secret=123)

    def test_received_frame_is_used_in_place(self) -> None:
        """A received frame is read into one writable buffer, which the
        unpickled array then views: 32 MiB arrive in about 32 MiB."""
        import tracemalloc

        array = np.arange(4 << 20, dtype=np.float64)  # 32 MiB
        left, right = socket.socketpair()
        with left, right:
            sender = threading.Thread(target=send_message,
                                      args=(left, {"a": array}))
            tracemalloc.start()
            try:
                sender.start()
                received = recv_message(right)
                sender.join(timeout=30.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        np.testing.assert_array_equal(received["a"], array)
        assert received["a"].flags.writeable
        assert peak <= 40 * 2**20, f"receive peaked at {peak / 2**20:.1f} MiB"

    def test_parse_address(self) -> None:
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address(("localhost", 1)) == ("localhost", 1)
        with pytest.raises(InvalidParameterError):
            parse_address("9000")


# ---------------------------------------------------------------------------
# Localhost worker harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workers():
    """Two real localhost worker subprocesses, shared across the module."""
    processes, addresses = spawn_local_workers(2)
    yield addresses
    stop_local_workers(processes)


@pytest.fixture(scope="module")
def stream():
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


def _fake_worker(script):
    """A scripted in-test worker: answers the heartbeat, then misbehaves.

    ``script(conn)`` runs after the version/auth handshake and the
    ping/pong probe on the accepted coordinator connection; the listener
    closes when it returns.  Returns the ``(host, port)`` address.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()

    def serve() -> None:
        with listener:
            conn, _ = listener.accept()
            with conn:
                transport.server_handshake(conn)
                message = recv_message(conn)
                assert message == {"op": "ping"}
                send_message(conn, {"op": "pong"})
                script(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return address


# ---------------------------------------------------------------------------
# Bit-identity of the healthy path
# ---------------------------------------------------------------------------


def test_distributed_mode_registered() -> None:
    assert "distributed" in EXECUTION_MODES


def test_worker_echo_roundtrip(workers) -> None:
    payload = {"arr": np.arange(257, dtype=np.float64)}
    echoed = worker_echo(workers[0], payload)
    np.testing.assert_array_equal(echoed["arr"], payload["arr"])


@pytest.mark.parametrize("case", DIST_CASES, ids=lambda case: case.name)
def test_replica_sharded_distributed_matches_serial(case, stream,
                                                    workers) -> None:
    """Socket-worker execution never changes a bit of any replica's output."""
    serial = replica_sharded_ensemble(
        [case.factory(seed) for seed in range(STREAM_REPLICAS)], stream,
        config=ExecutionConfig(num_shards=3, execution="serial"))
    with worker_pool(workers) as executor:
        distributed = replica_sharded_ensemble(
            [case.factory(seed) for seed in range(STREAM_REPLICAS)], stream,
            config=ExecutionConfig(num_shards=3, execution="distributed"))
    assert type(distributed) is type(serial)
    stats = executor.last_stats
    assert stats.shards == 3 and stats.reachable_workers == 2
    assert stats.dead_workers == 0 and stats.degraded_serial_shards == 0
    for replica in range(STREAM_REPLICAS):
        state = case.ensemble_state(distributed, replica)
        reference = case.ensemble_state(serial, replica)
        assert state.keys() == reference.keys()
        for key in state:
            np.testing.assert_array_equal(
                np.asarray(reference[key]), np.asarray(state[key]),
                err_msg=f"{case.name}[{replica}].{key}")
        left = case.ensemble_query(serial, replica)
        right = case.ensemble_query(distributed, replica)
        if case.returns_sample:
            assert_samples_equal(left, right, f"{case.name}[{replica}]")
        else:
            np.testing.assert_array_equal(np.asarray(left), np.asarray(right),
                                          err_msg=f"{case.name}[{replica}]")


def test_stream_sharded_distributed_matches_serial(stream, workers) -> None:
    """Stream shards gathered over sockets merge to the serial bits."""
    for factory in (lambda s: CountSketch(N, 16, 5, seed=s),
                    lambda s: PStableSketch(N, 1.0, num_rows=24, seed=s)):
        serial = stream_sharded_ensemble(
            factory, range(4), stream,
            config=ExecutionConfig(num_shards=3),
            assignment_seed=29)
        with worker_pool(workers):
            distributed = stream_sharded_ensemble(
                factory, range(4), stream,
                config=ExecutionConfig(num_shards=3, execution="distributed"),
                assignment_seed=29)
        serial_state = getattr(serial, "_table", None)
        if serial_state is None:
            serial_state, dist_state = serial._state, distributed._state
        else:
            dist_state = distributed._table
        np.testing.assert_array_equal(serial_state, dist_state)


def test_distribution_harness_distributed_is_draw_identical(stream,
                                                            workers) -> None:
    """``evaluate_sampler_distribution`` is report-identical over sockets."""
    vector = stream.frequency_vector()
    factory = lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.5, seed=s)  # noqa: E731
    serial = evaluate_sampler_distribution(
        factory, stream, lp_target_weights(vector, 2.0), num_draws=16,
        max_attempts_per_draw=2)
    with worker_pool(workers):
        distributed = evaluate_sampler_distribution(
            factory, stream, lp_target_weights(vector, 2.0), num_draws=16,
            max_attempts_per_draw=2,
            config=ExecutionConfig(num_shards=3, execution="distributed"))
    assert serial.num_draws == distributed.num_draws
    assert serial.num_failures == distributed.num_failures
    np.testing.assert_array_equal(serial.empirical, distributed.empirical)
    assert serial.tvd == distributed.tvd
    assert serial.chi_square == distributed.chi_square


def test_bulk_samples_distributed_matches_serial(workers) -> None:
    """The application-layer bulk path serves identical draws over sockets."""
    n = 48
    vector = zipfian_frequency_vector(n, skew=1.3, scale=70.0, seed=101)
    bulk_stream = stream_from_vector(vector, updates_per_unit=2, seed=102)

    def build() -> DistributedSamplingCoordinator:
        coordinator = DistributedSamplingCoordinator(
            n, 3,
            sampler_factory=_exact_sampler_factory,
            estimator_factory=_exact_estimator_factory,
            seed=103)
        coordinator.update_stream(bulk_stream)
        return coordinator

    serial = build().bulk_samples(bulk_stream, 24)
    with worker_pool(workers):
        distributed = build().bulk_samples(
            bulk_stream, 24, config=ExecutionConfig(execution="distributed"))
    assert len(distributed) == len(serial)
    for position, (left, right) in enumerate(zip(serial, distributed)):
        assert (left is None) == (right is None), position
        if left is not None:
            assert (left.index, left.exact_value, left.metadata) == \
                (right.index, right.exact_value, right.metadata), position


class _MomentEstimator:
    """Minimal picklable local moment estimator for the bulk test."""

    def __init__(self, n: int, p: float) -> None:
        self._values = np.zeros(n)
        self._p = p

    def update(self, index: int, delta: float) -> None:
        self._values[index] += delta

    def estimate(self) -> float:
        return float(np.sum(np.abs(self._values) ** self._p))

    def space_counters(self) -> int:
        return len(self._values)


def _exact_sampler_factory(shard: int, seed: int) -> PrecisionLpSampler:
    # Picklable (no closures), with a registered native ensemble — the
    # replica payloads must survive the trip to the worker hosts.
    return PrecisionLpSampler(48, 2.0, epsilon=0.9, seed=seed)


def _exact_estimator_factory(shard: int, seed: int) -> _MomentEstimator:
    return _MomentEstimator(48, 3.0)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def _serial_reference(stream):
    factory = lambda s: CountSketch(N, 16, 5, seed=s)  # noqa: E731
    return factory, stream_sharded_ensemble(
        factory, range(4), stream,
        config=ExecutionConfig(num_shards=4),
        assignment_seed=41)


def test_worker_killed_mid_ingest_redispatches(stream) -> None:
    """SIGKILL mid-ingest: shards re-route to the survivor, bits unchanged."""
    factory, serial = _serial_reference(stream)
    healthy_procs, healthy_addrs = spawn_local_workers(1)
    # The victim holds every ingest for 30s, guaranteeing the kill lands
    # strictly mid-ingest (after dispatch, before any reply).
    victim_procs, victim_addrs = spawn_local_workers(
        1, env={"REPRO_WORKER_INGEST_DELAY": "30"})
    try:
        killer = threading.Timer(1.0, victim_procs[0].kill)
        killer.start()
        try:
            with worker_pool(healthy_addrs + victim_addrs) as executor:
                distributed = stream_sharded_ensemble(
                    factory, range(4), stream,
                    config=ExecutionConfig(num_shards=4,
                                           execution="distributed"),
                    assignment_seed=41)
        finally:
            killer.cancel()
    finally:
        stop_local_workers(healthy_procs + victim_procs)
    stats = executor.last_stats
    assert stats.dead_workers == 1
    assert stats.redispatches >= 1
    assert stats.degraded_serial_shards == 0
    assert executor.failure_rate_ewma > 0.0
    np.testing.assert_array_equal(serial._table, distributed._table)


def test_connection_dropped_mid_frame_redispatches(stream) -> None:
    """A torn frame is a dead worker, not a corrupted ensemble."""
    factory, serial = _serial_reference(stream)

    def drop_mid_frame(conn) -> None:
        recv_frames(conn)  # consume the first ingest payload in full
        # Reply with a torn message: valid header announcing one frame,
        # a frame header promising 4096 bytes, then half of them and EOF.
        prefix = struct.pack(">2sBI", b"RS", transport.PROTOCOL_VERSION, 1)
        conn.sendall(prefix + struct.pack(">I", zlib.crc32(prefix)))
        frame_header = struct.pack(">QBQ", 4096, 0, 4096)
        conn.sendall(frame_header)
        conn.sendall(struct.pack(">I", zlib.crc32(frame_header)))
        conn.sendall(b"\x00" * 2048)

    faulty = _fake_worker(drop_mid_frame)
    healthy_procs, healthy_addrs = spawn_local_workers(1)
    try:
        with worker_pool([faulty] + healthy_addrs) as executor:
            distributed = stream_sharded_ensemble(
                factory, range(4), stream,
                config=ExecutionConfig(num_shards=4, execution="distributed"),
                assignment_seed=41)
    finally:
        stop_local_workers(healthy_procs)
    stats = executor.last_stats
    assert stats.dead_workers == 1
    assert stats.redispatches >= 1
    np.testing.assert_array_equal(serial._table, distributed._table)


def test_worker_stalled_past_heartbeat_redispatches(stream) -> None:
    """A silent worker trips the heartbeat timeout and loses its shards."""
    factory, serial = _serial_reference(stream)

    def stall(conn) -> None:
        recv_frames(conn)  # accept the payload, then never answer
        time.sleep(6.0)

    faulty = _fake_worker(stall)
    healthy_procs, healthy_addrs = spawn_local_workers(1)
    try:
        with worker_pool([faulty] + healthy_addrs,
                         heartbeat_timeout=1.0) as executor:
            distributed = stream_sharded_ensemble(
                factory, range(4), stream,
                config=ExecutionConfig(num_shards=4, execution="distributed"),
                assignment_seed=41)
    finally:
        stop_local_workers(healthy_procs)
    stats = executor.last_stats
    assert stats.dead_workers == 1
    assert stats.redispatches >= 1
    np.testing.assert_array_equal(serial._table, distributed._table)


def test_no_reachable_workers_degrades_to_serial(stream) -> None:
    """With every worker unreachable the run is the serial loop, observably."""
    factory, serial = _serial_reference(stream)
    # A bound-then-closed port: connection refused at probe time.
    probe = socket.create_server(("127.0.0.1", 0))
    unreachable = probe.getsockname()
    probe.close()
    with worker_pool([unreachable]) as executor:
        distributed = stream_sharded_ensemble(
            factory, range(4), stream,
            config=ExecutionConfig(num_shards=4, execution="distributed"),
            assignment_seed=41)
    stats = executor.last_stats
    assert stats.reachable_workers == 0
    assert stats.degraded_serial_shards == stats.shards == 4
    assert stats.redispatches == 0
    np.testing.assert_array_equal(serial._table, distributed._table)
    assert last_gather_stats() == stats


def test_no_registered_workers_degrades_to_serial(stream, monkeypatch) -> None:
    """Default registry empty → distributed silently runs serial in-process."""
    monkeypatch.delenv("REPRO_DISTRIBUTED_WORKERS", raising=False)
    assert default_workers() == []
    factory, serial = _serial_reference(stream)
    distributed = stream_sharded_ensemble(
        factory, range(4), stream,
        config=ExecutionConfig(num_shards=4, execution="distributed"),
        assignment_seed=41)
    np.testing.assert_array_equal(serial._table, distributed._table)
    assert last_gather_stats().degraded_serial_shards == 4


def test_workers_env_registry(stream, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_DISTRIBUTED_WORKERS",
                       "127.0.0.1:6001, 127.0.0.1:6002")
    assert default_workers() == [("127.0.0.1", 6001), ("127.0.0.1", 6002)]


def test_spare_capacity_sized_by_retry_ewma() -> None:
    """Spare dispatch slots follow the retry engine's EWMA formula."""
    executor = DistributedExecutor([], failure_rate_prior=0.5)
    assert executor.spare_slots(4) == min(
        3, math.ceil(0.5 * 4 * RETRY_SPARE_MARGIN))
    # No failures ever observed → no spares held back.
    assert DistributedExecutor([]).spare_slots(4) == 0
    # A single shard can never be held back.
    assert executor.spare_slots(1) == 0


def test_spare_slots_observed_in_stats(stream, workers) -> None:
    """A prior-seeded executor visibly holds shards back from wave one."""
    factory, serial = _serial_reference(stream)
    with worker_pool(workers, failure_rate_prior=0.5) as executor:
        distributed = stream_sharded_ensemble(
            factory, range(4), stream,
            config=ExecutionConfig(num_shards=4, execution="distributed"),
            assignment_seed=41)
    stats = executor.last_stats
    assert stats.spare_slots == min(3, math.ceil(0.5 * 4 * RETRY_SPARE_MARGIN))
    assert stats.spare_slots > 0
    assert stats.dead_workers == 0
    # A clean run decays the failure EWMA below the prior.
    assert stats.failure_rate_ewma < 0.5
    np.testing.assert_array_equal(serial._table, distributed._table)


# ---------------------------------------------------------------------------
# Retry policy, remedial errors, and worker lifecycle
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(deadline=0.0)

    def test_next_delay_is_bounded_decorrelated_jitter(self) -> None:
        import random

        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        rng = random.Random(7)
        delay = policy.base_delay
        for _ in range(200):
            delay = policy.next_delay(delay, rng)
            assert policy.base_delay <= delay <= policy.max_delay

    def test_call_retries_then_succeeds(self) -> None:
        attempts = []
        backoffs = []

        def flaky() -> str:
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.02)
        result = policy.call(flaky, sleep=lambda _: None,
                             on_backoff=lambda *a: backoffs.append(a))
        assert result == "done"
        assert len(attempts) == 3
        assert len(backoffs) == 2  # one backoff per failed attempt

    def test_call_exhausts_attempts(self) -> None:
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02)
        calls = []

        def always_fails() -> None:
            calls.append(1)
            raise TransportError("still down")

        with pytest.raises(TransportError, match="still down"):
            policy.call(always_fails, sleep=lambda _: None)
        assert len(calls) == 3

    def test_deadline_aborts_before_sleeping_past_it(self) -> None:
        policy = RetryPolicy(max_attempts=100, base_delay=0.5, max_delay=1.0,
                             deadline=1.0)
        clock = {"now": 0.0}

        def tick_sleep(seconds: float) -> None:
            clock["now"] += seconds

        calls = []

        def always_fails() -> None:
            calls.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            policy.call(always_fails, sleep=tick_sleep,
                        clock=lambda: clock["now"])
        # Far fewer than 100 attempts: the deadline cut the schedule short.
        assert len(calls) <= 4

    def test_authentication_error_is_not_retried(self) -> None:
        calls = []

        def wrong_secret() -> None:
            calls.append(1)
            raise transport.AuthenticationError("mismatch")

        policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.02)
        with pytest.raises(transport.AuthenticationError):
            policy.call(wrong_secret, sleep=lambda _: None)
        assert len(calls) == 1


def test_worker_echo_unreachable_raises_worker_error() -> None:
    """A connect failure surfaces as WorkerError naming the address."""
    probe = socket.create_server(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()
    with pytest.raises(WorkerError, match=f"{host}:{port}"):
        worker_echo((host, port), b"payload",
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                      max_delay=0.02))


def test_worker_echo_compressed_roundtrip(workers) -> None:
    payload = {"blob": np.zeros(100_000)}
    echoed = worker_echo(workers[0], payload, compression="auto")
    np.testing.assert_array_equal(echoed["blob"], payload["blob"])


def test_sigterm_exits_gracefully() -> None:
    """The SIGTERM handler closes the listener and exits with status 0."""
    processes, _ = spawn_local_workers(1)
    stop_local_workers(processes)
    assert processes[0].returncode == 0


def test_dev_mode_worker_writes_nothing_to_stderr() -> None:
    """A worker executes its module once: under ``PYTHONDEVMODE=1`` it
    serves and stops with nothing on stderr.  (Run as ``python -m
    repro.utils.coordinator``, it warned that runpy found the module
    already imported by the package.)"""
    processes, addresses = spawn_local_workers(1, env={"PYTHONDEVMODE": "1"})
    # stop_local_workers closes the pipe; a duplicate of its read end keeps
    # everything the worker wrote until it exited.
    with os.fdopen(os.dup(processes[0].stderr.fileno())) as stderr:
        try:
            assert worker_echo(addresses[0], b"ping") == b"ping"
        finally:
            stop_local_workers(processes)
        assert stderr.read() == ""
    assert processes[0].returncode == 0


def test_sigterm_ignored_pins_kill_fallback() -> None:
    """A worker that ignores SIGTERM rides the wait-then-kill fallback."""
    processes, _ = spawn_local_workers(1, env={IGNORE_TERM_ENV: "1"})
    stop_local_workers(processes, wait_timeout=1.0)
    assert processes[0].returncode == -9  # SIGKILL, not a clean exit


def test_spawn_rejects_mismatched_ports() -> None:
    with pytest.raises(InvalidParameterError, match="ports"):
        spawn_local_workers(2, ports=[5000])


def test_direct_distributed_ingest_and_shutdown(stream) -> None:
    """The raw coordinator entry point and the polite shutdown op."""
    processes, addresses = spawn_local_workers(1)
    try:
        ensembles = [build_ensemble([CountSketch(N, 16, 5, seed=s)])
                     for s in range(2)]
        reference = [build_ensemble([CountSketch(N, 16, 5, seed=s)])
                     for s in range(2)]
        for ensemble in reference:
            ensemble.update_stream(stream)
        with worker_pool(addresses):
            results = distributed_ingest(ensembles, [stream, stream])
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got._table, want._table)
        assert isinstance(last_gather_stats(), GatherStats)
        assert shutdown_worker(addresses[0])
        processes[0].wait(timeout=10.0)
    finally:
        stop_local_workers(processes)
