"""A long-lived sampler service: ingest continuously, query concurrently.

The sketches in this library are linear, mergeable, in-memory objects;
this module keeps one alive behind a socket so a turnstile stream can be
ingested for hours while samples, estimates, and heavy-hitter reports are
served from the same state.  One :class:`SamplerService` owns one served
object (any sketch/sampler/ensemble the snapshot layer can persist),
an asyncio accept loop, and a checkpoint schedule.

Consistency model
-----------------
Queries linearize between ingest batches.  All state-touching work —
applying a batch, answering a query, pickling a checkpoint — runs under
one internal lock, so a query never observes a torn batch and a
checkpoint is always a batch boundary.  The NumPy kernels release the
GIL and run on the event loop's thread pool, so socket accept/parse/reply
work for other clients overlaps with a long ingest instead of queueing
behind it; the lock serialises *state*, not the network.

Checkpoint / restore contract
-----------------------------
Checkpoints are :mod:`repro.utils.snapshot` files written atomically to
one configured path, stamped with the ingest sequence number (the count
of applied batches) in the snapshot's ``extra`` metadata.  On start the
service restores from that path if it exists and reports the restored
sequence in ``stats``/on the hello line; a client that retains (or can
re-fetch) the batches after that sequence replays them and the service is
then *bit-identical* to one that never died — the sketches are
deterministic given (seed, batch sequence), which is what the kill/restore
smoke test asserts.  Because snapshots merge (see
:func:`repro.utils.snapshot.save_snapshot`), a restored service can also
absorb a delta snapshot via the ``merge_snapshot`` op instead of a replay.

Security model / deployment posture
-----------------------------------
The wire protocol is pickle over the CRC-framed transport, and unpickling
executes code: a connection to this service is *root on the process*.
The daemon therefore binds ``127.0.0.1`` by default and must only be
exposed on trusted networks (ssh tunnels, private overlay, or a
same-host supervisor) — it intentionally has no authentication layer
yet, unlike the coordinator's handshake (see
:mod:`repro.utils.coordinator`); wiring the same cluster-secret handshake
into the asyncio path is a known gap tracked in the roadmap.  CRCs on
every frame and on the snapshot prefix detect corruption, not tampering.

Operations (request/response, one pickled dict each way)
--------------------------------------------------------
``ping`` → ``{"op": "pong"}``;
``ingest {indices, deltas}`` → ``{"ok", "sequence"}``;
``query {method, args?, kwargs?}`` (allowlisted read-only methods) →
``{"ok", "result"}``;
``merge_snapshot {data}`` → entrywise-add a delta snapshot's state
(validated completely before any mutation);
``checkpoint`` → ``{"ok", "sequence", "nbytes"}``;
``stats`` → counters including ``sequence`` and ``restored_sequence``;
``shutdown`` → ``{"ok": True}`` and the server drains and exits.

Run as a daemon with ``python -m repro.service --spec
module:callable --kwargs '{...}' --snapshot PATH``; the bound port is
announced on stdout as ``REPRO-SERVICE LISTENING <port>`` (the
:func:`spawn_service` harness reads it, mirroring the worker idiom in
:mod:`repro.utils.coordinator`).
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import importlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError, ReproError
from repro.utils import transport
from repro.utils.snapshot import object_from_snapshot, read_snapshot, save_snapshot
from repro.utils.transport import TransportError

__all__ = [
    "QUERY_ALLOWLIST",
    "SamplerService",
    "ServiceClient",
    "serve",
    "spawn_service",
    "stop_service",
]

#: Read-only methods a ``query`` op may invoke on the served object.
#: Everything here must leave the state untouched — the service relies on
#: that to answer queries without invalidating its checkpoint sequence.
QUERY_ALLOWLIST = frozenset({
    "sample",
    "sample_replica",
    "estimate",
    "estimate_all",
    "estimate_all_members",
    "estimate_l2",
    "estimate_f2",
    "estimate_l2_member",
    "estimate_f2_member",
    "estimate_fp",
    "heavy_hitters",
    "space_counters",
    "num_replicas",
})

_READY_PREFIX = "REPRO-SERVICE LISTENING "


class ServiceError(ReproError):
    """A service-level failure reported to the client as ``ok: False``."""


class SamplerService:
    """One served object + asyncio accept loop + checkpoint schedule.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh served object; only
        invoked when there is no snapshot to restore.
    snapshot_path:
        Where checkpoints are written (atomically) and restored from on
        start.  ``None`` disables checkpointing and restore.
    checkpoint_interval:
        Seconds between automatic checkpoints (``None`` disables the
        timer; the ``checkpoint`` op always works).
    host, port:
        Listen address; port 0 asks the OS.
    config:
        An optional :class:`~repro.utils.execution_config.ExecutionConfig`.
        The service is a long-lived process, so the config is installed
        process-wide via :meth:`ExecutionConfig.apply_defaults` at start,
        and the served object is built under its table-mode scope.
    """

    def __init__(self, factory, *, snapshot_path: Optional[str] = None,
                 checkpoint_interval: Optional[float] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 compression: Optional[str] = None,
                 expected_type: Optional[type] = None,
                 config=None) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise InvalidParameterError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}")
        self._config = config
        self._factory = factory
        self._snapshot_path = snapshot_path
        self._checkpoint_interval = checkpoint_interval
        self._host = host
        self._port = port
        self._compression = compression
        self._expected_type = expected_type
        self._obj = None
        self._state_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._shutdown = asyncio.Event()
        self.sequence = 0          # applied ingest batches, lifetime
        self.restored_sequence = 0  # sequence carried by the restored snapshot
        self.updates = 0
        self.queries = 0
        self.checkpoints = 0

    # -- lifecycle ---------------------------------------------------------

    def _restore_or_build(self) -> None:
        if self._config is not None:
            # Long-lived daemon: the config's registry-backed fields
            # (default table mode, distributed worker list) become the
            # process defaults once, at startup.
            self._config.apply_defaults()
        if self._snapshot_path and os.path.exists(self._snapshot_path):
            # A service configured for one class must refuse another
            # class's checkpoint instead of serving garbage answers.
            self._obj, meta = read_snapshot(
                self._snapshot_path, expected_type=self._expected_type)
            self.sequence = int(meta.get("extra", {}).get("sequence", 0))
            self.restored_sequence = self.sequence
        else:
            scope = (self._config.table_mode_scope()
                     if self._config is not None else nullcontext())
            with scope:
                self._obj = self._factory()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid once started."""
        if self._server is None:
            raise ServiceError("service is not listening yet")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Restore (or build) the served object and start listening."""
        self._restore_or_build()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port)
        if self._checkpoint_interval is not None and self._snapshot_path:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`stop`) arrives."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop listening, cancel the checkpoint timer, final checkpoint."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._snapshot_path and self._obj is not None:
            await self._checkpoint()
        self._shutdown.set()

    # -- checkpointing -----------------------------------------------------

    async def _checkpoint(self) -> dict:
        loop = asyncio.get_event_loop()
        async with self._state_lock:
            # The lock pins the sequence to the pickled state: a
            # checkpoint is always an exact batch boundary.
            nbytes = await loop.run_in_executor(None, functools.partial(
                save_snapshot, self._obj, self._snapshot_path,
                extra={"sequence": self.sequence}))
            sequence = self.sequence
        self.checkpoints += 1
        return {"ok": True, "sequence": sequence, "nbytes": nbytes}

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._checkpoint_interval)
            await self._checkpoint()

    # -- protocol ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await _read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away
                except TransportError as error:
                    # Garbled frame: report once, then drop the link —
                    # the stream position is unrecoverable.
                    await _write_message(
                        writer, {"ok": False,
                                 "error": f"transport: {error}"},
                        compression=self._compression)
                    return
                reply = await self._dispatch(message)
                await _write_message(writer, reply,
                                     compression=self._compression)
                if isinstance(message, dict) \
                        and message.get("op") == "shutdown":
                    self._shutdown.set()
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message) -> dict:
        if not isinstance(message, dict):
            return {"ok": False, "error": "malformed message"}
        op = message.get("op")
        try:
            if op == "ping":
                return {"op": "pong"}
            if op == "ingest":
                return await self._handle_ingest(message)
            if op == "query":
                return await self._handle_query(message)
            if op == "merge_snapshot":
                return await self._handle_merge_snapshot(message)
            if op == "checkpoint":
                if not self._snapshot_path:
                    return {"ok": False,
                            "error": "service has no snapshot path"}
                return await self._checkpoint()
            if op == "stats":
                return {
                    "ok": True,
                    "sequence": self.sequence,
                    "restored_sequence": self.restored_sequence,
                    "updates": self.updates,
                    "queries": self.queries,
                    "checkpoints": self.checkpoints,
                    "class": type(self._obj).__name__,
                }
            if op == "shutdown":
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as error:  # ship the failure, keep serving
            return {"ok": False,
                    "error": f"{type(error).__name__}: {error}"}

    async def _handle_ingest(self, message: dict) -> dict:
        indices = message.get("indices")
        deltas = message.get("deltas")
        if indices is None or deltas is None:
            return {"ok": False, "error": "ingest needs indices and deltas"}
        loop = asyncio.get_event_loop()
        async with self._state_lock:
            await loop.run_in_executor(
                None, self._obj.update_batch, indices, deltas)
            self.sequence += 1
            self.updates += len(indices)
            return {"ok": True, "sequence": self.sequence}

    async def _handle_merge_snapshot(self, message: dict) -> dict:
        """Absorb a delta snapshot via the merge protocol.

        ``merge`` validates the peer completely before mutating (the
        ``check_mergeable`` contract), so a snapshot from a mismatched
        build is refused with the state untouched.
        """
        data = message.get("data")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            return {"ok": False, "error": "merge_snapshot needs bytes"}
        loop = asyncio.get_event_loop()
        async with self._state_lock:
            delta, _ = await loop.run_in_executor(
                None, functools.partial(object_from_snapshot, bytes(data),
                                        expected_type=type(self._obj)))
            await loop.run_in_executor(None, self._obj.merge, delta)
            self.sequence += 1
            return {"ok": True, "sequence": self.sequence}

    async def _handle_query(self, message: dict) -> dict:
        name = message.get("method")
        if name not in QUERY_ALLOWLIST:
            return {"ok": False,
                    "error": f"method {name!r} is not an allowed query"}
        attr = getattr(self._obj, name, None)
        if attr is None:
            return {"ok": False,
                    "error": f"{type(self._obj).__name__} has no "
                             f"query {name!r}"}
        args = message.get("args") or ()
        kwargs = message.get("kwargs") or {}
        loop = asyncio.get_event_loop()
        async with self._state_lock:
            if callable(attr):
                result = await loop.run_in_executor(
                    None, functools.partial(attr, *args, **kwargs))
            else:
                result = attr  # properties like num_replicas
            self.queries += 1
            return {"ok": True, "result": result, "sequence": self.sequence}


# ---------------------------------------------------------------------------
# asyncio framing shims (drive the sans-IO transport parser)
# ---------------------------------------------------------------------------


async def _read_message(reader: asyncio.StreamReader):
    """Receive one framed, pickled message from an asyncio stream."""
    parser = transport.frame_reader()
    size = next(parser)
    while True:
        data = await reader.readexactly(size)
        try:
            size = parser.send(data)
        except StopIteration as done:
            frames, _ = done.value
            return transport.loads_frames(frames)


async def _write_message(writer: asyncio.StreamWriter, obj, *,
                         compression: Optional[str] = None) -> None:
    writer.write(transport.encode_frames(transport.dumps_frames(obj),
                                         compression=compression))
    await writer.drain()


# ---------------------------------------------------------------------------
# Synchronous client (tests, benchmarks, operational tooling)
# ---------------------------------------------------------------------------


class ServiceClient:
    """Blocking request/response client for one service connection.

    The service protocol is symmetric with the coordinator transport, so
    the client is a thin wrapper over
    :func:`repro.utils.transport.send_message` /
    :func:`~repro.utils.transport.recv_message` with op helpers.  Use as
    a context manager.
    """

    def __init__(self, address, *, timeout: float = 60.0,
                 compression: Optional[str] = None) -> None:
        from repro.utils.coordinator import parse_address

        self._sock = socket.create_connection(parse_address(address),
                                              timeout=timeout)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._compression = compression

    def request(self, message: dict):
        """Send one op dict, return the service's reply dict."""
        transport.send_message(self._sock, message,
                               compression=self._compression)
        return transport.recv_message(self._sock)

    def _checked(self, message: dict) -> dict:
        reply = self.request(message)
        if not (isinstance(reply, dict) and reply.get("ok")):
            error = reply.get("error") if isinstance(reply, dict) else reply
            raise ServiceError(f"service refused {message.get('op')!r}: "
                               f"{error}")
        return reply

    def ping(self) -> bool:
        return self.request({"op": "ping"}) == {"op": "pong"}

    def ingest(self, indices, deltas) -> int:
        """Apply one update batch; returns the new sequence number."""
        return self._checked({"op": "ingest", "indices": indices,
                              "deltas": deltas})["sequence"]

    def query(self, method: str, *args, **kwargs):
        """Invoke an allowlisted read-only method on the served object."""
        return self._checked({"op": "query", "method": method,
                              "args": args, "kwargs": kwargs})["result"]

    def checkpoint(self) -> dict:
        """Force a snapshot now; returns ``{"sequence", "nbytes", ...}``."""
        return self._checked({"op": "checkpoint"})

    def stats(self) -> dict:
        return self._checked({"op": "stats"})

    def shutdown(self) -> None:
        self._checked({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Daemon entry point + subprocess harness
# ---------------------------------------------------------------------------


def _resolve_spec(spec: str):
    """``module:qualname`` → the callable it names."""
    module_name, sep, qualname = spec.partition(":")
    if not sep or not module_name or not qualname:
        raise InvalidParameterError(
            f"--spec must look like 'module:callable', got {spec!r}")
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise InvalidParameterError(f"{spec!r} does not name a callable")
    return target


def serve(factory, *, snapshot_path: Optional[str] = None,
          checkpoint_interval: Optional[float] = None,
          host: str = "127.0.0.1", port: int = 0,
          compression: Optional[str] = None,
          expected_type: Optional[type] = None,
          config=None) -> None:
    """Run a service in the foreground until a ``shutdown`` op arrives.

    Announces ``REPRO-SERVICE LISTENING <port>`` on stdout once bound.
    SIGTERM triggers a clean stop (final checkpoint included), so
    supervisors get durability for free; SIGKILL is the crash the
    restore path exists for.
    """

    async def main() -> None:
        service = SamplerService(
            factory, snapshot_path=snapshot_path,
            checkpoint_interval=checkpoint_interval,
            host=host, port=port, compression=compression,
            expected_type=expected_type, config=config)
        _, bound_port = await service.start()
        loop = asyncio.get_event_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, service._shutdown.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread / platforms without signal support
        print(f"{_READY_PREFIX}{bound_port}", flush=True)
        await service.serve_until_shutdown()

    asyncio.run(main())


def spawn_service(spec: str, kwargs: Optional[dict] = None, *,
                  snapshot_path: Optional[str] = None,
                  checkpoint_interval: Optional[float] = None,
                  port: int = 0, startup_timeout: float = 60.0,
                  config=None,
                  ) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Spawn a localhost service subprocess; returns ``(process, address)``.

    Mirrors :func:`repro.utils.coordinator.spawn_local_workers`: the
    child announces its bound port on stdout and the caller owns the
    process (stop it with :func:`stop_service`, or SIGKILL it to
    exercise the restore path).

    ``config`` (an :class:`~repro.utils.execution_config.ExecutionConfig`)
    is forwarded to the child as ``--execution-config`` JSON.  The
    ``cluster_secret`` field is deliberately *not* serialised — command
    lines are world-readable on most systems; secrets reach the child
    through the environment (``REPRO_CLUSTER_SECRET``) instead.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    command = [sys.executable, "-m", "repro.service",
               "--spec", spec, "--host", "127.0.0.1", "--port", str(port)]
    if kwargs:
        command += ["--kwargs", json.dumps(kwargs)]
    if snapshot_path:
        command += ["--snapshot", snapshot_path]
    if checkpoint_interval is not None:
        command += ["--checkpoint-interval", str(checkpoint_interval)]
    if config is not None:
        import dataclasses as _dataclasses
        fields = {name: value for name, value
                  in _dataclasses.asdict(config).items()
                  if value is not None and name != "cluster_secret"}
        command += ["--execution-config", json.dumps(fields)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, env=env)
    deadline = time.monotonic() + startup_timeout
    line = process.stdout.readline()
    while line and not line.startswith(_READY_PREFIX):
        if time.monotonic() > deadline:
            break
        line = process.stdout.readline()
    if not line.startswith(_READY_PREFIX):
        stderr = ""
        if process.poll() is not None:
            stderr = process.stderr.read()
        process.kill()
        raise TransportError("service subprocess failed to announce a port"
                             + (f": {stderr.strip()}" if stderr else ""))
    return process, ("127.0.0.1", int(line[len(_READY_PREFIX):]))


def stop_service(process: subprocess.Popen, address=None, *,
                 timeout: float = 10.0) -> None:
    """Stop a spawned service: polite shutdown op, then terminate/kill."""
    if address is not None and process.poll() is None:
        try:
            with ServiceClient(address, timeout=timeout) as client:
                client.shutdown()
        except (OSError, ReproError):
            pass
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)


def _main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Serve a sketch/sampler behind a socket.")
    parser.add_argument("--spec", required=True,
                        help="module:callable building the served object")
    parser.add_argument("--kwargs", default=None,
                        help="JSON kwargs for the spec callable")
    parser.add_argument("--snapshot", default=None,
                        help="checkpoint/restore path")
    parser.add_argument("--checkpoint-interval", type=float, default=None,
                        help="seconds between automatic checkpoints")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--compression", default=None,
                        help="reply compression codec (e.g. zlib)")
    parser.add_argument("--execution-config", default=None,
                        help="JSON ExecutionConfig fields (table_mode, "
                             "workers, ...); secrets travel via the "
                             "environment, never this flag")
    options = parser.parse_args(argv)
    target = _resolve_spec(options.spec)
    kwargs = json.loads(options.kwargs) if options.kwargs else {}
    config = None
    if options.execution_config:
        from repro.utils.execution_config import ExecutionConfig
        fields = json.loads(options.execution_config)
        if "workers" in fields and fields["workers"] is not None:
            fields["workers"] = tuple(fields["workers"])
        config = ExecutionConfig(**fields)
    serve(functools.partial(target, **kwargs),
          snapshot_path=options.snapshot,
          checkpoint_interval=options.checkpoint_interval,
          host=options.host, port=options.port,
          compression=options.compression,
          expected_type=target if isinstance(target, type) else None,
          config=config)


if __name__ == "__main__":
    _main()
