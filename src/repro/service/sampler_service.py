"""A long-lived sampler service: ingest continuously, query concurrently.

The sketches in this library are linear, mergeable, in-memory objects;
this module keeps one alive behind a socket so a turnstile stream can be
ingested for hours while samples, estimates, and heavy-hitter reports are
served from the same state.  One :class:`SamplerService` owns one served
object (any sketch/sampler/ensemble the snapshot layer can persist) and a
checkpoint schedule, and serves it as an op table on the server core of
:mod:`repro.utils.server`, the same core the distributed worker runs on.

Consistency model
-----------------
Queries linearize between ingest batches.  Every op — applying a batch,
answering a query, pickling a checkpoint — runs to completion on the
event loop's thread, with no ``await`` inside it, so a query never
observes a torn batch and a checkpoint is always a batch boundary.  Other
clients' requests wait for the op in hand; their handshakes run in
threads meanwhile.

Checkpoint / restore contract
-----------------------------
Checkpoints are :mod:`repro.utils.snapshot` files written atomically to
one configured path, stamped with the ingest sequence number (the count
of applied batches) in the snapshot's ``extra`` metadata.  On start the
service restores from that path if it exists and reports the restored
sequence in ``stats``; a client that retains (or can re-fetch) the
batches after that sequence replays them and the service is then
*bit-identical* to one that never died — the sketches are
deterministic given (seed, batch sequence), which is what the kill/restore
smoke test asserts.  Because snapshots merge (see
:func:`repro.utils.snapshot.save_snapshot`), a restored service can also
absorb a delta snapshot via the ``merge_snapshot`` op instead of a replay.

Security model / deployment posture
-----------------------------------
The wire protocol is pickle over the CRC-framed transport, and unpickling
executes code, so the service follows the three trust tiers of
:mod:`repro.utils.coordinator`, which it shares with the distributed
worker: every connection runs the cluster-secret handshake before the
core reads a pickle byte, and with ``REPRO_CLUSTER_SECRET`` (or
``REPRO_CLUSTER_SECRET_FILE``) set an unauthenticated or wrong-secret peer
is refused.  Without a secret the daemon is for a trusted single host,
and it binds ``127.0.0.1`` by default.  CRCs on every frame and on the
snapshot prefix detect corruption, not tampering.

Operations (request/response, one pickled dict each way)
--------------------------------------------------------
``ingest {indices, deltas}`` → ``{"ok", "sequence"}``;
``query {method, args?, kwargs?}`` (allowlisted read-only methods) →
``{"ok", "result"}``;
``merge_snapshot {data}`` → entrywise-add a delta snapshot's state
(validated completely before any mutation);
``checkpoint`` → ``{"ok", "sequence", "nbytes"}``;
``stats`` → counters including ``sequence`` and ``restored_sequence``;
and the core's ``ping`` and ``shutdown`` (the server drains and exits).

Run as a daemon with ``python -m repro.service --spec
module:callable --kwargs '{...}' --snapshot PATH``; the bound port is
announced on stdout as ``REPRO LISTENING <port>``, which the
:func:`spawn_service` harness reads.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import importlib
import json
import os
import subprocess
from contextlib import nullcontext, suppress
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError, ReproError
from repro.utils.server import UNSET, Connection, Server, run, spawn, stop
from repro.utils.snapshot import object_from_snapshot, read_snapshot, save_snapshot

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


class ServiceError(ReproError):
    """A service-level failure reported to the client as ``ok: False``."""


class SamplerService(Server):
    """One served object as an op table on the server core.

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
    secret:
        Cluster secret of the handshake; defaults to the environment's
        (``REPRO_CLUSTER_SECRET``), like the distributed worker's.
    config:
        An optional :class:`~repro.utils.execution_config.ExecutionConfig`.
        The service is a long-lived process, so the config is installed
        process-wide via :meth:`ExecutionConfig.apply_defaults` at start,
        and the served object is built under its table-mode scope.
    """

    def __init__(self, factory, *, snapshot_path: Optional[str] = None,
                 checkpoint_interval: Optional[float] = None,
                 host: str = "127.0.0.1", port: int = 0, secret=UNSET,
                 expected_type: Optional[type] = None,
                 config=None) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise InvalidParameterError(
                f"checkpoint_interval must be positive, "
                f"got {checkpoint_interval}")
        super().__init__({"ingest": self._ingest, "query": self._query,
                          "merge_snapshot": self._merge_snapshot,
                          "checkpoint": self._checkpoint,
                          "stats": self._stats},
                         host=host, port=port, secret=secret)
        self._config = config
        self._factory = factory
        self._snapshot_path = snapshot_path
        self._checkpoint_interval = checkpoint_interval
        self._expected_type = expected_type
        self._obj = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self.sequence = 0          # applied ingest batches, lifetime
        self.restored_sequence = 0  # sequence carried by the restored snapshot
        self.updates = 0
        self.queries = 0
        self.checkpoints = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Restore (or build) the served object and start listening."""
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
        address = await super().start()
        if self._checkpoint_interval is not None and self._snapshot_path:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())
        return address

    async def close(self) -> None:
        """Cancel the checkpoint timer, stop serving, final checkpoint."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            with suppress(asyncio.CancelledError):  # a failure still raises
                await self._checkpoint_task
        await super().close()
        if self._snapshot_path and self._obj is not None:
            self._checkpoint()

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._checkpoint_interval)
            self._checkpoint()

    # -- ops (each runs to completion on the event loop) -------------------

    def _checkpoint(self, message=None, state=None) -> dict:
        if not self._snapshot_path:
            return {"ok": False, "error": "service has no snapshot path"}
        nbytes = save_snapshot(self._obj, self._snapshot_path,
                               extra={"sequence": self.sequence})
        self.checkpoints += 1
        return {"ok": True, "sequence": self.sequence, "nbytes": nbytes}

    def _stats(self, message, state) -> dict:
        return {"ok": True, "sequence": self.sequence,
                "restored_sequence": self.restored_sequence,
                "updates": self.updates, "queries": self.queries,
                "checkpoints": self.checkpoints,
                "class": type(self._obj).__name__}

    def _ingest(self, message, state) -> dict:
        indices, deltas = message.get("indices"), message.get("deltas")
        if indices is None or deltas is None:
            return {"ok": False, "error": "ingest needs indices and deltas"}
        self._obj.update_batch(indices, deltas)
        self.sequence += 1
        self.updates += len(indices)
        return {"ok": True, "sequence": self.sequence}

    def _merge_snapshot(self, message, state) -> dict:
        """Absorb a delta snapshot via the merge protocol.

        ``merge`` validates the peer completely before mutating (the
        ``check_mergeable`` contract), so a snapshot from a mismatched
        build is refused with the state untouched.
        """
        data = message.get("data")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            return {"ok": False, "error": "merge_snapshot needs bytes"}
        delta, _ = object_from_snapshot(bytes(data),
                                        expected_type=type(self._obj))
        self._obj.merge(delta)
        self.sequence += 1
        return {"ok": True, "sequence": self.sequence}

    def _query(self, message, state) -> dict:
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
        # Properties like num_replicas are answered as they are.
        result = attr(*args, **kwargs) if callable(attr) else attr
        self.queries += 1
        return {"ok": True, "result": result, "sequence": self.sequence}


class ServiceClient(Connection):
    """Blocking client for one service connection: the server core's
    :class:`~repro.utils.server.Connection` (``secret`` defaults to the
    environment's, like the service's; the link stays uncompressed) plus
    op helpers, which all go through :meth:`request`."""

    def __init__(self, address, *, timeout: float = 60.0,
                 secret=UNSET) -> None:
        super().__init__(address, timeout=timeout, secret=secret)

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
          host: str = "127.0.0.1", port: int = 0, secret=UNSET,
          expected_type: Optional[type] = None,
          config=None) -> None:
    """Run a service in the foreground (:func:`repro.utils.server.run`).

    A ``shutdown`` op or SIGTERM stops it cleanly, final checkpoint
    included; SIGKILL is the crash the restore path exists for.
    """
    run(SamplerService(factory, snapshot_path=snapshot_path,
                       checkpoint_interval=checkpoint_interval,
                       host=host, port=port, secret=secret,
                       expected_type=expected_type, config=config))


def spawn_service(spec: str, kwargs: Optional[dict] = None, *,
                  snapshot_path: Optional[str] = None,
                  checkpoint_interval: Optional[float] = None,
                  port: int = 0, startup_timeout: float = 60.0,
                  config=None,
                  ) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Spawn a localhost service subprocess; returns ``(process, address)``.

    The server core's harness, as for
    :func:`repro.utils.coordinator.spawn_local_workers`: the child
    announces its bound port on stdout and the caller owns the process
    (stop it with :func:`stop_service`, or SIGKILL it to exercise the
    restore path).

    ``config`` (an :class:`~repro.utils.execution_config.ExecutionConfig`)
    is forwarded to the child as ``--execution-config`` JSON.  The
    ``cluster_secret`` field is deliberately *not* serialised — command
    lines are world-readable on most systems; secrets reach the child
    through the environment (``REPRO_CLUSTER_SECRET``) instead.
    """
    command = ["repro.service", "--spec", spec, "--host", "127.0.0.1",
               "--port", str(port)]
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
    processes, addresses = spawn([command], name="service",
                                 startup_timeout=startup_timeout)
    return processes[0], addresses[0]


def stop_service(process: subprocess.Popen, address=None, *,
                 timeout: float = 10.0) -> None:
    """Stop a spawned service: polite shutdown op, then terminate/kill."""
    if address is not None and process.poll() is None:
        try:
            with ServiceClient(address, timeout=timeout) as client:
                client.shutdown()
            process.wait(timeout=timeout)
        except (OSError, ReproError, subprocess.TimeoutExpired):
            pass
    stop([process], wait_timeout=timeout)


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
          expected_type=target if isinstance(target, type) else None,
          config=config)


if __name__ == "__main__":
    _main()
