"""Chaos-proxy fault schedules: distributed execution vs a hostile network.

The fault-injection suite of the distributed back-end.  A
:class:`~repro.utils.chaos.ChaosProxy` sits between the coordinator and a
real worker subprocess and applies a scripted fault — latency, bandwidth
throttling, torn frames, flipped payload bytes, refused connections, flap
schedules — while every registered picklable ensemble case runs through
``execution="distributed"``.  The assertion is always the same and always
exact: the gathered ensembles match the serial back-end bit for bit
(``np.testing.assert_array_equal``, no tolerance), and the failure
handling is observable through :class:`~repro.utils.coordinator.GatherStats`.

On top of the schedule sweep, scenario tests pin the security and
recovery behaviours individually:

* a cluster-secret mismatch is refused with a remedial error *before any
  payload unpickling* (proven with a pickle whose deserialisation has an
  observable side effect),
* a connection cut mid-handshake never wedges the run,
* a worker killed and *restarted at the same address* rejoins mid-run
  and demonstrably receives re-dispatched shards (rejoin count > 0),
* a compressed link with flipped bytes fails the frame CRC and
  re-dispatches like any other transport fault.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import ExitStack

import numpy as np
import pytest

from test_distributed_execution import DIST_CASES, STREAM_REPLICAS
from test_ensemble_equivalence import N, assert_samples_equal

from repro.sketch.countsketch import CountSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils import transport
from repro.utils.chaos import ChaosProxy, Fault
from repro.utils.coordinator import (
    RetryPolicy,
    spawn_local_workers,
    stop_local_workers,
    worker_echo,
    worker_pool,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import replica_sharded_ensemble
from repro.utils.transport import AuthenticationError

#: Fast-failure policy for the sweep: quick backoff, generous deadline.
POLICY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.2,
                     deadline=20.0)

#: The fault schedules of the acceptance contract.  ``plan`` faults are
#: consumed connection by connection (later connections are clean —
#: which is exactly how links recover and rejoin); ``default`` faults
#: shape every connection.  ``both`` wraps *both* workers in proxies so
#: there is no clean survivor and recovery must come from rejoin.
SCHEDULES = {
    "delay": dict(default=Fault.delayed(0.003),
                  expect=dict(dead=0, reachable=2)),
    "throttle": dict(default=Fault.throttled(1_000_000.0),
                     expect=dict(dead=0, reachable=2)),
    "truncate-frame": dict(plan=[Fault.truncate(after=2000)],
                           expect=dict(dead_min=1, degraded=0)),
    "corrupt-crc": dict(plan=[Fault.corrupt(after=1200)],
                        expect=dict(dead_min=1, degraded=0)),
    "refuse-connect": dict(default=Fault.refuse_connect(),
                           expect=dict(reachable=1, dead=0, degraded=0)),
    "flap": dict(plan=[Fault.refuse_connect()],
                 expect=dict(dead=0, reachable=2, retries_min=1)),
    "link-cut-rejoin": dict(plan=[Fault.truncate(after=2500)], both=True,
                            expect=dict(rejoin_min=1, degraded=0)),
}


@pytest.fixture(scope="module")
def workers():
    processes, addresses = spawn_local_workers(2)
    yield addresses
    stop_local_workers(processes)


@pytest.fixture(scope="module")
def stream():
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


def _assert_case_identical(case, serial, distributed) -> None:
    assert type(distributed) is type(serial)
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


def _serial_reference(case, stream):
    """The serial-execution reference, built fresh per comparison.

    Not cached across tests on purpose: ``ensemble_query`` draws from
    sampling cases, which consumes sampler state, so a reused reference
    would answer later comparisons with different (second-draw) bits.
    """
    return replica_sharded_ensemble(
        [case.factory(seed) for seed in range(STREAM_REPLICAS)], stream,
        config=ExecutionConfig(num_shards=3, execution="serial"))


def _run_under_schedule(case, stream, workers, spec, **pool_kwargs):
    serial = _serial_reference(case, stream)
    with ExitStack() as stack:
        addresses = [stack.enter_context(ChaosProxy(
            workers[0], spec.get("plan", ()),
            default=spec.get("default"))).address]
        if spec.get("both"):
            addresses.append(stack.enter_context(ChaosProxy(
                workers[1], spec.get("plan", ()),
                default=spec.get("default"))).address)
        else:
            addresses.append(workers[1])
        with worker_pool(addresses, retry_policy=POLICY,
                         **pool_kwargs) as executor:
            distributed = replica_sharded_ensemble(
                [case.factory(seed) for seed in range(STREAM_REPLICAS)],
                stream,
                config=ExecutionConfig(num_shards=3, execution="distributed"))
    return serial, distributed, executor.last_stats


def _check_expectations(stats, expect) -> None:
    if "dead" in expect:
        assert stats.dead_workers == expect["dead"], stats
    if "dead_min" in expect:
        assert stats.dead_workers >= expect["dead_min"], stats
    if "reachable" in expect:
        assert stats.reachable_workers == expect["reachable"], stats
    if "degraded" in expect:
        assert stats.degraded_serial_shards == expect["degraded"], stats
    if "retries_min" in expect:
        assert stats.connect_retries >= expect["retries_min"], stats
    if "rejoin_min" in expect:
        assert stats.rejoined_workers >= expect["rejoin_min"], stats


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("case", DIST_CASES, ids=lambda case: case.name)
def test_case_bit_identical_under_fault_schedule(case, schedule, stream,
                                                 workers) -> None:
    """Every picklable ensemble case survives every fault schedule exactly."""
    spec = SCHEDULES[schedule]
    serial, distributed, stats = _run_under_schedule(
        case, stream, workers, spec)
    _check_expectations(stats, spec["expect"])
    _assert_case_identical(case, serial, distributed)


def test_compressed_link_corruption_redispatches(stream, workers) -> None:
    """Flipped bytes on a zlib link fail the CRC, not the ensemble."""
    case = DIST_CASES[0]
    spec = dict(plan=[Fault.corrupt(after=1200)])
    serial, distributed, stats = _run_under_schedule(
        case, stream, workers, spec, compression="auto")
    assert stats.compression == "zlib"
    assert stats.dead_workers >= 1
    assert stats.degraded_serial_shards == 0
    _assert_case_identical(case, serial, distributed)


@pytest.mark.parametrize("case", DIST_CASES, ids=lambda case: case.name)
def test_compressed_link_is_bit_identical(case, stream, workers) -> None:
    """Negotiated zlib compression changes the wire, never the bits."""
    serial, distributed, stats = _run_under_schedule(
        case, stream, workers, {}, compression="auto")
    assert stats.compression == "zlib"
    assert stats.wire_bytes_sent < stats.bytes_sent  # it actually compressed
    _assert_case_identical(case, serial, distributed)


def test_mid_handshake_disconnect_does_not_wedge(stream, workers) -> None:
    """A link cut during the hello is an unreachable worker, nothing more."""
    case = DIST_CASES[0]
    spec = dict(plan=[Fault.truncate(after=64)] * POLICY.max_attempts)
    serial, distributed, stats = _run_under_schedule(
        case, stream, workers, spec)
    assert stats.reachable_workers == 1  # the direct worker carried the run
    assert stats.degraded_serial_shards == 0
    _assert_case_identical(case, serial, distributed)


# ---------------------------------------------------------------------------
# Worker restart and rejoin (real process death, same address)
# ---------------------------------------------------------------------------


def test_worker_restart_rejoins_and_takes_shards(stream) -> None:
    """A worker killed mid-run and restarted at its old address rejoins.

    The only worker holds each ingest long enough for a kill to land
    mid-run; a new worker process then binds the *same* port.  The
    coordinator must re-probe the dead address, rejoin the restarted
    worker, and push the lost shards through it — no serial degradation,
    rejoin count observable in the stats.
    """
    num_shards = 6

    def build():
        return build_ensemble([CountSketch(N, 16, 5, seed=s)
                               for s in range(4)])

    reference = [build() for _ in range(num_shards)]
    for ensemble in reference:
        ensemble.update_stream(stream)

    processes, addresses = spawn_local_workers(
        1, env={"REPRO_WORKER_INGEST_DELAY": "0.4"})
    port = addresses[0][1]
    restarted: list = []

    def kill_and_restart() -> None:
        time.sleep(0.8)
        processes[0].kill()
        processes[0].wait()
        time.sleep(0.2)
        replacement, _ = spawn_local_workers(1, ports=[port])
        restarted.extend(replacement)

    chaos_thread = threading.Thread(target=kill_and_restart)
    chaos_thread.start()
    try:
        with worker_pool(addresses, heartbeat_timeout=5.0,
                         retry_policy=RetryPolicy(deadline=30.0)) as executor:
            results = executor.ingest([build() for _ in range(num_shards)],
                                      [stream] * num_shards)
        stats = executor.last_stats
    finally:
        chaos_thread.join()
        stop_local_workers(processes)
        stop_local_workers(restarted)
    assert stats.rejoined_workers >= 1
    assert stats.redispatches >= 1
    assert stats.degraded_serial_shards == 0
    assert stats.dead_workers >= 1
    import pickle

    for got, want in zip(results, reference):
        assert pickle.dumps(got) == pickle.dumps(want)


# ---------------------------------------------------------------------------
# Authentication: refusal happens before any unpickling
# ---------------------------------------------------------------------------


class _EvilPayload:
    """Pickle whose deserialisation has an observable side effect."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __reduce__(self):
        return (os.mkdir, (self.marker,))


@pytest.fixture()
def secure_worker():
    processes, addresses = spawn_local_workers(
        1, env={"REPRO_CLUSTER_SECRET": "chaos-suite-secret"})
    yield addresses[0]
    stop_local_workers(processes)


def test_secret_mismatch_refused_with_remedial_error(secure_worker) -> None:
    with pytest.raises(AuthenticationError, match="secret"):
        worker_echo(secure_worker, b"payload", secret=b"the-wrong-secret",
                    timeout=10.0)
    # The worker survives the refusal and serves the right secret.
    assert worker_echo(secure_worker, b"payload",
                       secret=b"chaos-suite-secret", timeout=10.0) == b"payload"


def test_unauthenticated_coordinator_refused_with_remedy(secure_worker) -> None:
    with pytest.raises(AuthenticationError, match="REPRO_CLUSTER_SECRET"):
        worker_echo(secure_worker, b"payload", secret=None, timeout=10.0)


def test_ingest_secret_mismatch_propagates_not_degrades(secure_worker,
                                                        stream) -> None:
    """Auth misconfiguration must surface, never silently run serial."""
    def build():
        return build_ensemble([CountSketch(N, 16, 5, seed=0)])

    with pytest.raises(AuthenticationError):
        with worker_pool([secure_worker], secret=b"the-wrong-secret"):
            from repro.utils.coordinator import distributed_ingest

            distributed_ingest([build()], [stream])


def test_raw_pickle_never_unpickled_before_auth(secure_worker, tmp_path) -> None:
    """An unauthenticated peer's bytes are refused before deserialisation.

    The payload's ``__reduce__`` creates a directory if it is ever
    unpickled; a worker that refuses the connection *before* touching the
    pickle leaves no trace.  This is the RCE boundary the handshake
    exists to protect.
    """
    marker = str(tmp_path / "pwned")
    evil = transport.encode_frames(transport.frames_as_bytes(
        transport.dumps_frames(_EvilPayload(marker))))
    with socket.create_connection(secure_worker, timeout=10.0) as sock:
        sock.sendall(evil)
        sock.settimeout(5.0)
        # The worker drops the connection without replying in kind; give
        # it a moment to have processed (and refused) the bytes.
        try:
            while sock.recv(1 << 16):
                pass
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and not os.path.isdir(marker):
        # The worker is done with our connection once it serves another:
        try:
            worker_echo(secure_worker, b"alive",
                        secret=b"chaos-suite-secret", timeout=5.0)
            break
        except Exception:
            time.sleep(0.1)
    assert not os.path.isdir(marker), \
        "worker unpickled attacker bytes before authentication"
    # And the worker is still alive for authenticated peers.
    assert worker_echo(secure_worker, b"alive",
                       secret=b"chaos-suite-secret", timeout=10.0) == b"alive"


# ---------------------------------------------------------------------------
# Proxy teardown hygiene (threads joined, sockets closed)
# ---------------------------------------------------------------------------


def _echo_server():
    """A minimal upstream echoing one connection at a time."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                try:
                    while True:
                        data = conn.recv(1 << 16)
                        if not data:
                            break
                        conn.sendall(data)
                except OSError:
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener


def _assert_link_dead(link) -> None:
    for pump in link.threads:
        assert not pump.is_alive(), "pump thread leaked"
    for sock in (link.client, link.upstream):
        assert sock.fileno() == -1, "link socket leaked"


def test_proxy_close_joins_pumps_and_closes_sockets() -> None:
    """``ChaosProxy.close()`` returns promptly and leaves no accept or pump
    thread and no open link socket."""
    upstream = _echo_server()
    proxy = ChaosProxy(upstream.getsockname()[:2])
    try:
        with socket.create_connection(proxy.address, timeout=10.0) as sock:
            sock.sendall(b"ping")
            assert sock.recv(4) == b"ping"
            # Leave the connection open: close() must tear it down.
            assert proxy.connections == 1
            started = time.monotonic()
            proxy.close()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"close() took {elapsed:.2f} s"
        assert not proxy._accept_thread.is_alive(), "accept thread leaked"
        assert proxy._links, "link was never registered"
        for link in proxy._links:
            _assert_link_dead(link)
    finally:
        proxy.close()
        upstream.close()


def test_finished_connection_releases_sockets_before_proxy_close() -> None:
    """A naturally finished link closes its sockets without waiting for
    proxy teardown — long-lived proxies must not accumulate descriptors."""
    upstream = _echo_server()
    try:
        with ChaosProxy(upstream.getsockname()[:2]) as proxy:
            with socket.create_connection(proxy.address, timeout=10.0) as sock:
                sock.sendall(b"ping")
                assert sock.recv(4) == b"ping"
            # Client closed: both pumps should wind down and the last one
            # out closes the link's sockets while the proxy stays up.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                links = list(proxy._links)
                if links and all(not t.is_alive()
                                 for link in links for t in link.threads):
                    break
                time.sleep(0.01)
            assert proxy._links, "link was never registered"
            for link in proxy._links:
                _assert_link_dead(link)
    finally:
        upstream.close()
