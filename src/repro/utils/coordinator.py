"""Host-level scatter/gather coordinator for sharded ensemble execution.

Section 1.3 of the paper motivates perfect ``L_p`` sampling with
distributed databases: machines keep local linear summaries and a
coordinator combines them exactly.  The sharded execution layer
(:mod:`repro.utils.sharding`) already runs that picture in-process
(``serial``/``threaded``) and across fork-spawned processes
(``multiprocessing``); this module is the third tier — ``distributed`` —
where the "machines" are independent worker *processes reachable only over
a socket*, the deployment shape of real hosts.  Payloads travel through
the checksummed, protocol-5 framing of :mod:`repro.utils.transport`; the
gathered shard ensembles reassemble through the exact same
``concat``/``merge`` protocols as every other back-end, so the distributed
tier inherits the library-wide bit-identity contract: byte-for-byte the
serial result, worker deaths included.

Failure handling is first-class, borrowing the *fast-reroute* controller
shape used in programmable-switch networks: a link-failure controller does
not ask a dead next-hop to retry — it detects the loss (missing
heartbeats) and re-routes the affected traffic onto a pre-computed backup
path within the surviving topology.  Here the "traffic" is a shard
payload, detection is heartbeat-probe + per-reply timeout + any transport
error, and the backup path is a surviving worker: the coordinator keeps
each dispatched payload's serialised frames until its result has been
gathered, so a lost shard re-dispatches instantly, without re-pickling,
to the next live worker.  Spare dispatch capacity is sized by the same
failure-rate EWMA the over-provisioned retry engine of
:func:`repro.evaluation.distribution_tests.overprovisioned_draws` uses for
spare replicas: a coordinator that has observed workers die holds back
``ceil(EWMA * shards * margin)`` shards from the first scatter wave and
late-binds them to workers that proved alive, shrinking the re-dispatch
bill when deaths repeat.

Real networks add two failure modes the fast-reroute picture does not
cover, both handled by the :class:`RetryPolicy` threaded through every
connection-making entry point.  *Transient* connect/dispatch failures
(SYN drops, listen-backlog overflow, a worker restarting exactly now) are
retried with exponential backoff and decorrelated jitter under an overall
deadline — the jitter de-synchronises a fleet of coordinators hammering
the same recovering worker.  And a worker that *died* is not dead
forever: between dispatch rounds the coordinator re-probes every dead
address, so a worker restarted at the same endpoint **rejoins the run in
flight** and takes load again; when every link is down the coordinator
waits out the probe backoff (bounded by the policy deadline) before
giving up.  Only then does it degrade to in-process serial ingest — same
bits, no sockets.  Rejoins, retries, and backoff time are all reported in
:class:`GatherStats`.

Workers (:func:`serve_worker`) are deliberately dumb: an ``echo``/
``ingest`` op table on the server core of :mod:`repro.utils.server`, they
cache streams by slot per connection (the same install-once-per-worker
dedup as the multiprocessing back-end's pool initializer), ingest shard
ensembles on request, and ship them back.
Spawn localhost workers in-process-tree with :func:`spawn_local_workers`
(the CI harness and the fault-injection suite do), or run
``python -m repro.utils.coordinator --serve`` on any host.

Security and deployment model
-----------------------------

**Threat model.**  It holds for both servers of the library, these
workers and the sampler service of :mod:`repro.service.sampler_service`,
which run on that one core.  A shard payload or a service request is a
pickle: anyone who can make a server unpickle bytes of their choosing
owns the process (arbitrary code execution), so the boundary that matters
is *who can get bytes accepted by the unpickler*.  Three tiers:

1. **Trusted single host (default).**  No cluster secret configured;
   servers bind localhost.  Anything on the machine can connect — the
   same trust boundary as the multiprocessing back-end's pipes.  This is
   the mode the test-suite and CI harnesses use.
2. **Shared-secret cluster (LAN you mostly trust).**  Distribute one
   secret to every host — environment variable ``REPRO_CLUSTER_SECRET``,
   or ``REPRO_CLUSTER_SECRET_FILE`` pointing at a mounted secret file
   (the shape container orchestrators produce).  Every connection then
   starts with the HMAC-SHA256 challenge/response of
   :func:`repro.utils.transport.client_handshake` /
   :func:`~repro.utils.transport.server_handshake`: fresh 32-byte nonces
   both ways, mutual proofs (a client unpickles the server's replies, so
   servers must authenticate clients *and vice versa*), and
   the negotiated protocol version + compression codec bound into the
   proofs so a man in the middle cannot downgrade either.  **No pickle
   bytes are read before the handshake completes** — an unauthenticated
   or wrong-secret peer is refused with a remedial error naming the
   variables to fix.  What this tier does *not* give you: secrecy (frames
   are plaintext), per-message authentication (the HMAC covers only the
   handshake; an attacker who can inject into an *established* TCP
   stream can still forge frames), or replay protection beyond the
   per-connection nonces.
3. **Untrusted networks.**  Do not point this transport at them
   directly.  Tunnel the links through TLS termination or ssh port
   forwarding so the cleartext TCP stream never crosses the hostile
   segment; the handshake then still protects against a mis-pointed
   coordinator or a port-squatting impostor inside the tunnel.

**Secret distribution and rotation.**  The secret is a shared symmetric
key: provision it out of band (config management, container secrets),
never on the command line (visible in ``ps``).  Rotation is restart-time
only — there is no re-keying protocol; restart servers with the new
secret, then clients.  A server refuses mismatched clients (and logs to
stderr) without dying, so a mid-rotation fleet degrades to "stale
coordinators can't dispatch" rather than crashing.

**Compression** is negotiated per connection (off unless the coordinator
offers it — see ``DistributedExecutor(compression=...)``): zlib, chosen
in the same hello that carries the auth challenge, applied per frame
above a size threshold so control messages stay cheap.  Corrupted
compressed frames fail the CRC *before* decompression and surface as
dead-worker re-dispatch like every other transport fault.

Remaining gaps, recorded in ROADMAP.md: native TLS on the socket (today:
tunnel), and dynamic worker discovery/registration (today: static
addresses via ``REPRO_DISTRIBUTED_WORKERS``, :func:`set_default_workers`,
or :func:`worker_pool`).
"""

from __future__ import annotations

import math
import os
import random
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.evaluation.distribution_tests import (
    RETRY_EWMA_ALPHA,
    RETRY_SPARE_MARGIN,
)
from repro.exceptions import InvalidParameterError, ReproError
from repro.utils.server import (
    UNSET,
    Connection,
    Server,
    parse_address,
    resolve_secret,
    run,
    spawn,
    stop,
)
from repro.utils.transport import (
    DEFAULT_MIN_COMPRESS_BYTES,
    AuthenticationError,
    TransportError,
    available_codecs,
    dumps_frames,
    frames_as_bytes,
    frames_nbytes,
    loads_frames,
    recv_frames_counted,
    send_frames,
)

__all__ = [
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "DistributedExecutor",
    "GatherStats",
    "RetryPolicy",
    "WorkerError",
    "default_workers",
    "distributed_ingest",
    "last_gather_stats",
    "parse_address",
    "serve_worker",
    "set_default_workers",
    "shutdown_worker",
    "spawn_local_workers",
    "stop_local_workers",
    "worker_echo",
    "worker_pool",
]

#: Seconds the coordinator waits for any single worker reply before the
#: worker is declared dead (the timeout half of dead-worker detection; the
#: other half is the connect-time heartbeat probe).  Must exceed the
#: longest expected single-shard ingest.
DEFAULT_HEARTBEAT_TIMEOUT = 60.0
#: Seconds allowed for the TCP connect + handshake + heartbeat probe of
#: one worker.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Environment variables understood by workers / the default registry.
WORKERS_ENV = "REPRO_DISTRIBUTED_WORKERS"
INGEST_DELAY_ENV = "REPRO_WORKER_INGEST_DELAY"
#: Fault hook for the stop-harness tests: a worker started with this set
#: ignores SIGTERM, pinning :func:`stop_local_workers`' kill fallback.
IGNORE_TERM_ENV = "REPRO_WORKER_IGNORE_TERM"


class WorkerError(ReproError):
    """A worker task failed for a reason re-dispatch cannot fix.

    Raised when a worker was alive and replied that the shard task itself
    failed (an ingest error, an unpicklable reply) — deterministic
    failures that would reproduce on every worker — and by
    :func:`worker_echo` when a worker could not be reached at all, so the
    caller always gets the worker *address* in the error instead of a
    bare socket error.  Unlike
    :class:`~repro.utils.transport.TransportError` inside a gather, this
    is never answered by re-dispatch.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with decorrelated jitter under a deadline.

    Governs every connection-making path of the distributed tier:
    coordinator connects (initial scatter *and* the dead-address re-probes
    that let restarted workers rejoin a run), :func:`worker_echo`, and
    :func:`shutdown_worker`.  The sleep before retry ``k`` is drawn as
    ``min(max_delay, uniform(base_delay, 3 * previous_sleep))`` — the
    *decorrelated jitter* schedule, which de-synchronises many clients
    retrying against the same recovering endpoint while still backing off
    exponentially in expectation.

    Attributes
    ----------
    max_attempts:
        Total tries per operation (1 = no retry).
    base_delay:
        Lower bound of every jittered sleep, and the first sleep's seed.
    max_delay:
        Upper cap on any single sleep.
    deadline:
        Overall budget in seconds: an operation whose *next* sleep would
        land past ``start + deadline`` fails with the last error instead
        of sleeping.  Inside a gather this also bounds the total
        wait-for-rejoin time once every link is down.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    deadline: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if not (0.0 < self.base_delay <= self.max_delay):
            raise InvalidParameterError(
                "need 0 < base_delay <= max_delay, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}")
        if self.deadline <= 0.0:
            raise InvalidParameterError(
                f"deadline must be positive, got {self.deadline}")

    def next_delay(self, previous: float, rng: random.Random) -> float:
        """The next decorrelated-jitter sleep after a ``previous`` sleep."""
        upper = max(previous, self.base_delay) * 3.0
        return min(self.max_delay, rng.uniform(self.base_delay, upper))

    def call(self, fn: Callable, *,
             retry_on: tuple = (OSError, TransportError),
             rng: Optional[random.Random] = None,
             sleep: Callable[[float], None] = time.sleep,
             clock: Callable[[], float] = time.monotonic,
             on_backoff: Optional[Callable] = None):
        """Run ``fn`` with retries; returns its result or raises the last error.

        Only ``retry_on`` exceptions are retried —
        :class:`~repro.utils.transport.AuthenticationError` deliberately
        is not in the default tuple, because a secret mismatch does not
        heal with time.  ``on_backoff(attempt, delay, error)`` is invoked
        before each sleep (the executor uses it for
        :class:`GatherStats` accounting); ``rng``/``sleep``/``clock`` are
        injectable for deterministic tests.
        """
        rng = random.Random() if rng is None else rng
        start = clock()
        delay = self.base_delay
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on as error:
                if attempt >= self.max_attempts:
                    raise
                delay = self.next_delay(delay, rng)
                if clock() + delay > start + self.deadline:
                    raise
                if on_backoff is not None:
                    on_backoff(attempt, delay, error)
                sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


def _codec_offer(compression: Optional[str]):
    """Map a ``compression`` knob to the handshake codec offer.

    ``None``/``"none"`` offers nothing (uncompressed link), ``"auto"``
    offers every codec this build speaks, and a codec name offers exactly
    that codec.
    """
    if compression in (None, "none"):
        return ()
    if compression == "auto":
        return None  # client_handshake default: all available codecs
    return (compression,)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _handle_ingest(message: dict, stream_cache: dict) -> dict:
    """Ingest one shard ensemble exactly as the serial back-end would.

    The stream arrives once per ``slot`` per connection as raw
    ``(n, indices, deltas)`` arrays and is rebuilt into a
    :class:`~repro.streams.stream.TurnstileStream`, so the worker replays
    through the same ``update_stream`` chunking as every other back-end
    (bit-identity requires identical batch boundaries).
    """
    from repro.streams.stream import TurnstileStream

    delay = float(os.environ.get(INGEST_DELAY_ENV, "0") or 0.0)
    if delay > 0:  # fault-injection hook: hold the shard "mid-ingest"
        time.sleep(delay)
    slot = message["slot"]
    stream = message.get("stream")
    if stream is not None:
        n, indices, deltas = stream
        stream_cache[slot] = TurnstileStream.from_arrays(n, indices, deltas)
    if slot not in stream_cache:
        return {"ok": False,
                "error": f"stream slot {slot} was never installed"}
    ensemble = message["ensemble"]
    ensemble.update_stream(stream_cache[slot],
                           batch_size=message.get("batch_size"))
    return {"ok": True, "ensemble": ensemble}


def serve_worker(host: str = "127.0.0.1", port: int = 0, *,
                 secret=UNSET, codecs: Optional[Sequence[str]] = None) -> None:
    """Run a worker until a ``shutdown`` op or SIGTERM (exit status 0).

    The worker is the ``echo``/``ingest`` op table on the server core
    (:mod:`repro.utils.server`), whose handshake takes ``secret`` (default:
    the environment's).  A connection's state is its stream cache, keyed
    by slot.  :data:`IGNORE_TERM_ENV` makes the worker ignore SIGTERM (the
    fault hook that pins :func:`stop_local_workers`' kill fallback).
    """
    if os.environ.get(IGNORE_TERM_ENV, "") not in ("", "0"):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    run(Server({"echo": lambda message, state: {
                    "ok": True, "payload": message.get("payload")},
                "ingest": _handle_ingest},
               host=host, port=port, secret=secret, codecs=codecs))


def spawn_local_workers(num_workers: int, *, env: Optional[dict] = None,
                        ports: Optional[Sequence[int]] = None,
                        startup_timeout: float = 60.0,
                        ) -> tuple[list, list[tuple[str, int]]]:
    """Spawn ``num_workers`` localhost worker subprocesses.

    Each worker binds an OS-assigned port (or ``ports[i]`` when given —
    how the rejoin tests restart a worker at its old address) and
    announces it on stdout; returns ``(processes, addresses)`` once every
    worker is listening.  ``env`` entries overlay the inherited
    environment (the fault-injection suite uses :data:`INGEST_DELAY_ENV`
    to hold a worker mid-ingest, and ``REPRO_CLUSTER_SECRET`` to spawn
    authenticated workers).  Callers own the processes — stop them with
    :func:`stop_local_workers`.
    """
    if num_workers < 1:
        raise InvalidParameterError("num_workers must be at least 1")
    if ports is not None and len(ports) != num_workers:
        raise InvalidParameterError(
            f"got {len(ports)} ports for {num_workers} workers")
    ports = [0] * num_workers if ports is None else ports
    return spawn([["repro.utils.coordinator", "--serve", "--host",
                   "127.0.0.1", "--port", str(int(port))] for port in ports],
                 name="worker", env=env, startup_timeout=startup_timeout)


def stop_local_workers(processes: Sequence, *, wait_timeout: float = 5.0) -> None:
    """Terminate workers from :func:`spawn_local_workers` (exit status 0);
    kill those that ignore SIGTERM (wedged, or :data:`IGNORE_TERM_ENV`)."""
    stop(processes, wait_timeout=wait_timeout)


def shutdown_worker(address, *, timeout: float = DEFAULT_CONNECT_TIMEOUT,
                    retry: Optional[RetryPolicy] = None,
                    secret=UNSET) -> bool:
    """Politely stop one worker; ``True`` when it acknowledged.

    Connect failures are retried under ``retry`` when given.  A worker
    that cannot be reached (or refuses the handshake) yields ``False`` —
    shutdown is best-effort by design.
    """
    def attempt() -> bool:
        with Connection(address, timeout=timeout, secret=secret) as link:
            reply = link.request({"op": "shutdown"})
        return bool(isinstance(reply, dict) and reply.get("ok"))

    try:
        return retry.call(attempt) if retry is not None else attempt()
    except (OSError, TransportError, AuthenticationError):
        return False


def worker_echo(address, payload, *,
                timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                retry: Optional[RetryPolicy] = None,
                compression: Optional[str] = None,
                secret=UNSET) -> object:
    """Round-trip ``payload`` through a worker (transport benchmarking).

    Reachability failures are wrapped into :class:`WorkerError` carrying
    the worker address — the same remedial-context contract as every
    other coordinator path — after exhausting ``retry`` when one is
    given.  ``compression`` is the link knob of
    :class:`DistributedExecutor` (``None``/``"auto"``/codec name);
    :class:`~repro.utils.transport.AuthenticationError` propagates
    unwrapped, because retrying or blaming the link cannot fix a secret
    mismatch.
    """
    host, port = parse_address(address)

    def attempt():
        with Connection((host, port), timeout=timeout, secret=secret,
                        codecs=_codec_offer(compression)) as link:
            return link.request({"op": "echo", "payload": payload})

    try:
        reply = retry.call(attempt) if retry is not None else attempt()
    except (OSError, TransportError) as error:
        raise WorkerError(
            f"echo to worker {host}:{port} failed: {error}") from error
    if not (isinstance(reply, dict) and reply.get("ok")):
        raise WorkerError(f"echo to worker {host}:{port} failed: {reply!r}")
    return reply["payload"]


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GatherStats:
    """Diagnostics of one scatter/gather run (observable re-dispatch bill).

    Attributes
    ----------
    shards:
        Number of shard payloads in the run.
    workers:
        Worker addresses configured.
    reachable_workers:
        Workers that completed the handshake + heartbeat probe during the
        initial connect wave.
    dead_workers:
        Workers declared dead *during* the run (timeout / transport error).
    redispatches:
        Shard payloads sent a second-or-later time after their worker died.
    spare_slots:
        Shards held back from the first scatter wave (EWMA-sized spare
        capacity) and late-bound to workers that proved alive.
    degraded_serial_shards:
        Shards ingested in-process because no worker could serve them.
    bytes_sent, bytes_received:
        Payload traffic (uncompressed frame bytes, excluding headers).
    failure_rate_ewma:
        The coordinator's worker-failure EWMA after this run.
    rejoined_workers:
        Successful re-probes of a previously dead/unreachable address —
        a worker restarted at the same endpoint that took load mid-run.
    connect_retries:
        Failed connect attempts that were retried or re-probed (initial
        backoff retries + dead-address probes that did not connect).
    backoff_seconds:
        Total time slept in retry backoff and rejoin-probe waits.
    wire_bytes_sent, wire_bytes_received:
        Actual wire traffic including frame headers and the effect of
        compression (compare with ``bytes_sent``/``bytes_received`` for
        the compression ratio).
    compression:
        Codec negotiated for the run's links (``None`` = uncompressed).
    """

    shards: int
    workers: int
    reachable_workers: int
    dead_workers: int = 0
    redispatches: int = 0
    spare_slots: int = 0
    degraded_serial_shards: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    failure_rate_ewma: float = 0.0
    rejoined_workers: int = 0
    connect_retries: int = 0
    backoff_seconds: float = 0.0
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    compression: Optional[str] = None


class _WorkerLink(Connection):
    """One live coordinator-to-worker connection with in-flight bookkeeping."""

    def __init__(self, address: tuple[str, int], *, connect_timeout: float,
                 reply_timeout: float, secret: Optional[bytes] = None,
                 codecs=None,
                 min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> None:
        super().__init__(address, timeout=connect_timeout, secret=secret,
                         codecs=codecs)
        try:
            reply = self.request({"op": "ping"})
            if not (isinstance(reply, dict) and reply.get("op") == "pong"):
                raise TransportError(f"worker {address} failed the heartbeat "
                                     f"probe: {reply!r}")
        except BaseException:
            self.close()  # no half-open sockets on a failed probe
            raise
        self.sock.settimeout(reply_timeout)
        self.min_compress_bytes = min_compress_bytes
        self.installed_slots: set[int] = set()
        self.inflight: list[int] = []  # shard ids, in send order

    def send(self, frames) -> int:
        """Send one framed message on the negotiated codec; wire bytes."""
        return send_frames(self.sock, frames, compression=self.codec,
                           min_compress_bytes=self.min_compress_bytes)



@dataclass
class _ProbeState:
    """Backoff bookkeeping for one dead/unreachable worker address."""

    delay: float
    next_time: float
    was_reachable: bool


class DistributedExecutor:
    """Scatter shard payloads to socket workers, gather, survive deaths.

    Parameters
    ----------
    addresses:
        Worker endpoints (``"host:port"`` strings or ``(host, port)``
        pairs).  An empty list is legal: every ingest degrades to the
        in-process serial path (recorded in :class:`GatherStats`).
    heartbeat_timeout:
        Seconds to wait for any single worker reply before declaring the
        worker dead and re-dispatching its outstanding shards.
    connect_timeout:
        Seconds allowed for the connect + handshake + heartbeat probe per
        worker (per attempt; ``retry_policy`` governs attempts).
    failure_rate_prior:
        Pre-seeds the worker-failure EWMA (same role as the retry
        engine's ``failure_rate_prior``): a coordinator that expects
        deaths holds back spare dispatch capacity from the first wave.
    retry_policy:
        :class:`RetryPolicy` for connects, dead-address re-probes
        (worker rejoin), and the wait-for-rejoin budget once every link
        is down.  Defaults to ``RetryPolicy()``.
    compression:
        Link compression offered in the handshake: ``None``/``"none"``
        (default, uncompressed), ``"auto"`` (negotiate the best codec
        both ends speak), or a codec name from
        :func:`~repro.utils.transport.available_codecs`.
    secret:
        Cluster secret for the authenticated handshake; defaults to
        :func:`~repro.utils.transport.resolve_cluster_secret` (the
        environment).  Pass ``None`` to force unauthenticated mode.
    min_compress_bytes:
        Per-frame compression threshold (smaller frames go raw).
    """

    def __init__(self, addresses: Sequence, *,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
                 failure_rate_prior: float = 0.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 compression: Optional[str] = None,
                 secret=UNSET,
                 min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> None:
        if not (0.0 <= failure_rate_prior < 1.0):
            raise InvalidParameterError(
                f"failure_rate_prior must lie in [0, 1), got {failure_rate_prior}")
        if compression not in (None, "none", "auto") and \
                compression not in available_codecs():
            raise InvalidParameterError(
                f"unknown compression {compression!r}; expected None, "
                f"'none', 'auto', or one of {available_codecs()}")
        self._addresses = [parse_address(address) for address in addresses]
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._connect_timeout = float(connect_timeout)
        self._failure_ewma = float(failure_rate_prior)
        self._observed = failure_rate_prior > 0.0
        self._retry_policy = RetryPolicy() if retry_policy is None else retry_policy
        self._compression = compression
        self._secret = resolve_secret(secret)
        self._min_compress_bytes = int(min_compress_bytes)
        self.last_stats: Optional[GatherStats] = None

    @property
    def failure_rate_ewma(self) -> float:
        """Current worker-failure EWMA (sizes the next run's spare slots)."""
        return self._failure_ewma

    def spare_slots(self, num_shards: int) -> int:
        """EWMA-sized spare dispatch capacity for a ``num_shards`` run.

        Mirrors the retry engine's spare-replica formula: no spares until a
        failure has been observed (or a prior supplied), then
        ``ceil(EWMA * shards * margin)`` shards are late-bound.  At least
        one shard always rides the first wave so a fully-spared run still
        probes the workers.
        """
        if num_shards <= 1 or not self._observed or self._failure_ewma <= 0.0:
            return 0
        return min(num_shards - 1, int(math.ceil(
            self._failure_ewma * num_shards * RETRY_SPARE_MARGIN)))

    def _open_link(self, address: tuple[str, int]) -> _WorkerLink:
        return _WorkerLink(
            address, connect_timeout=self._connect_timeout,
            reply_timeout=self._heartbeat_timeout, secret=self._secret,
            codecs=_codec_offer(self._compression),
            min_compress_bytes=self._min_compress_bytes)

    def ingest(self, ensembles: Sequence, streams: Sequence, *,
               batch_size: Optional[int] = None) -> list:
        """Ingest ``streams[i]`` into ``ensembles[i]`` across the workers.

        Returns freshly unpickled ensembles in shard order, bit-identical
        to the serial back-end (same kernels, same batch boundaries —
        exactly the multiprocessing contract, carried over a socket).
        Shards lost to worker deaths re-dispatch to survivors from their
        retained payload frames; dead addresses are re-probed with
        backoff between rounds, so a worker restarted at the same
        endpoint rejoins the run and takes load again.  With no link left
        the coordinator waits out the probe schedule (bounded by the
        retry policy's deadline) before degrading the remainder to
        in-process serial ingest.  Diagnostics land in :attr:`last_stats`.
        """
        ensembles = list(ensembles)
        streams = list(streams)
        if len(ensembles) != len(streams):
            raise InvalidParameterError(
                f"got {len(ensembles)} ensembles but {len(streams)} streams")
        num_shards = len(ensembles)
        results: list = [None] * num_shards

        # Deduplicate streams by identity (the shared-stream replica mode
        # hands one object to every shard) into per-slot array tuples.
        from repro.utils.sharding import _universe_size
        from repro.utils.batching import stream_arrays

        slot_of: dict[int, int] = {}
        slot_payload: list = []
        shard_slot: list[int] = []
        for stream in streams:
            key = id(stream)
            if key not in slot_of:
                indices, deltas = stream_arrays(stream)
                slot_of[key] = len(slot_payload)
                slot_payload.append((_universe_size(stream),
                                     np.asarray(indices), np.asarray(deltas)))
            shard_slot.append(slot_of[key])

        policy = self._retry_policy
        rng = random.Random()
        links: list[_WorkerLink] = []
        opened: list[_WorkerLink] = []  # every link ever created, for cleanup
        probe_states: dict[tuple[str, int], _ProbeState] = {}
        dead = redispatches = degraded = rejoined = 0
        connect_retries = 0
        backoff_seconds = 0.0
        bytes_sent = bytes_received = 0
        wire_sent = wire_received = 0
        recovery_deadline: Optional[float] = None
        sends_of_shard = [0] * num_shards
        # Retained wire frames per shard, pickled once; a re-dispatch
        # resends these bytes instead of re-pickling the payload.
        shard_frames: dict[int, list[bytes]] = {}

        def on_backoff(attempt: int, delay: float, error: Exception) -> None:
            nonlocal connect_retries, backoff_seconds
            connect_retries += 1
            backoff_seconds += delay

        def ingest_op(shard: int, stream) -> dict:
            return {"op": "ingest", "slot": shard_slot[shard],
                    "stream": stream, "ensemble": ensembles[shard],
                    "batch_size": batch_size}

        def frames_for(shard: int) -> list[bytes]:
            if shard not in shard_frames:  # stream-less: see _send below
                shard_frames[shard] = frames_as_bytes(
                    dumps_frames(ingest_op(shard, None)))
            return shard_frames[shard]

        def _send(link: _WorkerLink, shard: int) -> None:
            nonlocal bytes_sent, wire_sent, redispatches
            slot = shard_slot[shard]
            if slot not in link.installed_slots:
                # First shard of this slot on this worker: ship the stream
                # alongside (the cached frames carry `stream: None`).
                frames = dumps_frames(ingest_op(shard, slot_payload[slot]))
                frames_for(shard)  # retain the stream-less copy for re-dispatch
            else:
                frames = frames_for(shard)
            wire_sent += link.send(frames)
            link.installed_slots.add(slot)
            bytes_sent += frames_nbytes(frames)
            sends_of_shard[shard] += 1
            if sends_of_shard[shard] > 1:
                redispatches += 1
            link.inflight.append(shard)

        def mark_dead(link: _WorkerLink) -> None:
            nonlocal dead, recovery_deadline
            link.close()
            if link in links:
                links.remove(link)
            dead += 1
            if recovery_deadline is None:
                recovery_deadline = time.monotonic() + policy.deadline
            probe_states[link.address] = _ProbeState(
                delay=policy.base_delay,
                next_time=time.monotonic() + policy.base_delay,
                was_reachable=True)

        def probe_dead(now: float) -> None:
            """Re-probe dead addresses whose backoff expired (rejoin path)."""
            nonlocal rejoined, connect_retries
            for address, state in list(probe_states.items()):
                if state.next_time > now:
                    continue
                try:
                    link = self._open_link(address)
                except (OSError, TransportError):
                    connect_retries += 1
                    state.delay = policy.next_delay(state.delay, rng)
                    state.next_time = now + state.delay
                else:
                    opened.append(link)
                    links.append(link)
                    del probe_states[address]
                    rejoined += 1

        try:
            for address in self._addresses:
                try:
                    link = policy.call(
                        lambda addr=address: self._open_link(addr),
                        rng=rng, on_backoff=on_backoff)
                except (OSError, TransportError):
                    # Unreachable at scatter time: not part of the first
                    # wave, but re-probed between rounds like any dead
                    # address (a late-starting worker still joins the run).
                    probe_states[address] = _ProbeState(
                        delay=policy.base_delay,
                        next_time=time.monotonic() + policy.base_delay,
                        was_reachable=False)
                    continue
                opened.append(link)
                links.append(link)
            reachable = len(links)

            def dispatch(shards: Sequence[int]) -> list[int]:
                """Round-robin ``shards`` over live links; returns undispatched."""
                unsent = []
                for position, shard in enumerate(shards):
                    if not links:
                        unsent.extend(shards[position:])
                        break
                    link = links[position % len(links)]
                    try:
                        _send(link, shard)
                    except TransportError:
                        # The send itself failed: this worker is dead too, and
                        # everything already in flight on it is lost with it.
                        unsent.extend(link.inflight)
                        link.inflight.clear()
                        mark_dead(link)
                        unsent.append(shard)
                return unsent

            def gather() -> list[int]:
                """Collect every in-flight reply; returns shards needing re-send."""
                nonlocal bytes_received, wire_received
                lost: list[int] = []
                for link in list(links):
                    while link.inflight:
                        shard = link.inflight[0]
                        try:
                            frames, wire = recv_frames_counted(link.sock)
                            reply = loads_frames(frames)
                        except (TransportError, OSError):
                            # Dead or stalled worker: every outstanding shard
                            # on this link re-routes to a survivor.
                            lost.extend(link.inflight)
                            link.inflight.clear()
                            mark_dead(link)
                            break
                        link.inflight.pop(0)
                        if not (isinstance(reply, dict) and reply.get("ok")):
                            raise WorkerError(
                                f"worker {link.address} failed shard {shard}: "
                                f"{reply.get('error') if isinstance(reply, dict) else reply!r}")
                        wire_received += wire
                        bytes_received += frames_nbytes(frames)
                        results[shard] = reply["ensemble"]
                return lost

            spares = self.spare_slots(num_shards) if links else 0
            pending: list[int] = list(range(num_shards))
            reserve = pending[num_shards - spares:] if spares else []
            first_wave = pending[:num_shards - spares] if spares else pending

            if links:
                todo = dispatch(first_wave)
                todo.extend(reserve)
                while True:
                    todo.extend(gather())
                    if not todo:
                        break
                    now = time.monotonic()
                    if recovery_deadline is not None and now > recovery_deadline:
                        break  # recovery budget spent; remainder goes serial
                    probe_dead(now)
                    if not links:
                        # Every link is down.  Wait out the probe backoff
                        # for addresses that were reachable at some point
                        # this run — a restarted worker rejoins here — but
                        # never for addresses that were *always* dark.
                        waitable = [state for state in probe_states.values()
                                    if state.was_reachable]
                        if not waitable or recovery_deadline is None:
                            break
                        wake = min(state.next_time for state in waitable)
                        pause = min(max(wake - now, 0.0),
                                    max(recovery_deadline - now, 0.0))
                        if pause > 0.0:
                            time.sleep(pause)
                            backoff_seconds += pause
                        continue
                    batch, todo = todo, []
                    todo.extend(dispatch(batch))
            else:
                todo = list(pending)

            # Last resort: no (remaining) workers — ingest in-process, which
            # is the serial back-end itself, so the contract still holds.
            for shard in todo:
                if results[shard] is not None:
                    continue
                ensembles[shard].update_stream(streams[shard],
                                               batch_size=batch_size)
                results[shard] = ensembles[shard]
                degraded += 1
        finally:
            # Close even on the error paths (unpicklable payload, a worker's
            # deterministic failure): a leaked connection would pin its
            # single-coordinator worker on a dead socket for good.
            for link in opened:
                link.close()

        if reachable:
            rate = dead / max(reachable, 1)
            self._failure_ewma = rate if not self._observed else (
                RETRY_EWMA_ALPHA * rate
                + (1.0 - RETRY_EWMA_ALPHA) * self._failure_ewma)
            self._observed = True

        negotiated = sorted({link.codec for link in opened if link.codec})
        self.last_stats = GatherStats(
            shards=num_shards,
            workers=len(self._addresses),
            reachable_workers=reachable,
            dead_workers=dead,
            redispatches=redispatches,
            spare_slots=spares,
            degraded_serial_shards=degraded,
            bytes_sent=bytes_sent,
            bytes_received=bytes_received,
            failure_rate_ewma=self._failure_ewma,
            rejoined_workers=rejoined,
            connect_retries=connect_retries,
            backoff_seconds=backoff_seconds,
            wire_bytes_sent=wire_sent,
            wire_bytes_received=wire_received,
            compression=";".join(negotiated) if negotiated else None,
        )
        return results


# ---------------------------------------------------------------------------
# Default worker registry and the sharding-layer entry point
# ---------------------------------------------------------------------------

_DEFAULT_WORKERS: list[tuple[str, int]] = []
_ACTIVE_EXECUTOR: Optional[DistributedExecutor] = None
_LAST_STATS: Optional[GatherStats] = None


def set_default_workers(addresses: Optional[Sequence]) -> None:
    """Install the process-wide worker list used by ``execution="distributed"``.

    ``None`` (or an empty sequence) clears the registry, falling back to
    the :data:`WORKERS_ENV` environment variable.
    """
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = ([] if addresses is None
                        else [parse_address(address) for address in addresses])


def default_workers() -> list[tuple[str, int]]:
    """The effective worker list: registry, else :data:`WORKERS_ENV`."""
    if _DEFAULT_WORKERS:
        return list(_DEFAULT_WORKERS)
    configured = os.environ.get(WORKERS_ENV, "").strip()
    if not configured:
        return []
    return [parse_address(part.strip())
            for part in configured.split(",") if part.strip()]


@contextmanager
def worker_pool(addresses: Sequence, **executor_kwargs):
    """Scope an executor over ``addresses`` for ``execution="distributed"``.

    Every distributed ingest inside the block routes through one shared
    :class:`DistributedExecutor` (so its failure EWMA accumulates across
    calls); yields the executor for stats inspection.  ``executor_kwargs``
    pass straight through — ``retry_policy``, ``compression``, ``secret``,
    the timeouts — so this is also the per-scope configuration surface of
    the hardened transport.
    """
    global _ACTIVE_EXECUTOR
    executor = DistributedExecutor(addresses, **executor_kwargs)
    previous = _ACTIVE_EXECUTOR
    _ACTIVE_EXECUTOR = executor
    try:
        yield executor
    finally:
        _ACTIVE_EXECUTOR = previous


def last_gather_stats() -> Optional[GatherStats]:
    """Stats of the most recent distributed ingest in this process."""
    return _LAST_STATS


def distributed_ingest(ensembles: Sequence, streams: Sequence, *,
                       batch_size: Optional[int] = None) -> list:
    """`ingest_sharded`'s ``execution="distributed"`` back-end.

    Routes through the active :func:`worker_pool` executor when one is in
    scope, else a one-shot executor over :func:`default_workers` (which
    may be empty — the run then degrades to in-process serial ingest,
    observable via :func:`last_gather_stats`).
    """
    global _LAST_STATS
    executor = _ACTIVE_EXECUTOR
    if executor is None:
        executor = DistributedExecutor(default_workers())
    results = executor.ingest(ensembles, streams, batch_size=batch_size)
    _LAST_STATS = executor.last_stats
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.utils.coordinator --serve [--host H] [--port P]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run a repro distributed-execution worker.")
    parser.add_argument("--serve", action="store_true",
                        help="start a worker server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = OS-assigned, announced on stdout)")
    args = parser.parse_args(argv)
    if not args.serve:
        parser.error("nothing to do (pass --serve)")
    serve_worker(args.host, args.port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
