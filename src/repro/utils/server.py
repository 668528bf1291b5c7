"""The one request/reply server core behind both daemons of the library.

The distributed worker (:func:`repro.utils.coordinator.serve_worker`) and
the :class:`~repro.service.sampler_service.SamplerService` are *op tables*
on :class:`Server`: dicts from an op name to a synchronous ``fn(message,
state) -> reply``, ``state`` being a dict per connection.  Each accepted
connection first runs :func:`repro.utils.transport.server_handshake` in a
thread off the event loop, so no pickle byte is read before the peer has
passed it (the trust tiers are in :mod:`repro.utils.coordinator`); then it
loops: read one frame, ``await server._dispatch(message, state)``, write
the reply.  Ops run to completion on the loop thread, one at a time.  A
request that fails its frame checks drops the connection without a reply
(the coordinator re-dispatches on that).  The module also owns the client
:class:`Connection` and the subprocess harness, :func:`spawn` and
:func:`stop`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.utils import transport
from repro.utils.transport import AuthenticationError, TransportError

__all__ = ["Connection", "Server", "parse_address", "run", "spawn", "stop"]

#: Seconds an accepted connection has to finish the handshake.
HANDSHAKE_TIMEOUT = 30.0
#: A daemon prints this prefix and its port once it listens.
READY_PREFIX = "REPRO LISTENING "
#: Default of every ``secret=``: the environment's cluster secret.
UNSET = object()


def resolve_secret(secret) -> Optional[bytes]:
    """``secret`` itself, or the environment's when it is :data:`UNSET`."""
    return transport.resolve_cluster_secret() if secret is UNSET else secret


def parse_address(address) -> tuple[str, int]:
    """Normalise ``"host:port"`` strings / ``(host, port)`` pairs."""
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise InvalidParameterError(
                f"worker address must look like 'host:port', got {address!r}")
        return host, int(port)
    host, port = address
    return str(host), int(port)


def _nodelay(sock: socket.socket) -> None:
    """Disable Nagle, which holds each small message for ~40 ms."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # non-TCP sockets (e.g. test socketpairs) have no Nagle


class Connection:
    """One client connection: connect, handshake, then :meth:`request`.

    ``codecs`` is :func:`~repro.utils.transport.client_handshake`'s offer
    (``()``: uncompressed).  A failed handshake leaves no socket open.
    """

    def __init__(self, address, *, timeout: float, secret=UNSET,
                 codecs: Optional[Sequence[str]] = ()) -> None:
        self.address = parse_address(address)
        self.sock = socket.create_connection(self.address, timeout=timeout)
        try:
            _nodelay(self.sock)
            self.codec = transport.client_handshake(
                self.sock, secret=resolve_secret(secret), codecs=codecs).codec
        except BaseException:
            self.close()
            raise

    def request(self, message):
        """Send one op dict; return the server's reply."""
        transport.send_message(self.sock, message, compression=self.codec)
        return transport.recv_message(self.sock)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Server:
    """An op table behind the handshake-first asyncio accept loop.

    ``ping`` answers ``{"op": "pong"}`` and ``shutdown`` ``{"ok": True}``
    before the server stops; a malformed message, an unknown op or an op
    that raises gets ``{"ok": False, "error": ...}`` and the connection
    keeps serving.  Subclasses extend :meth:`start` and :meth:`close`.
    """

    def __init__(self, ops: dict, *, host: str = "127.0.0.1", port: int = 0,
                 secret=UNSET, codecs: Optional[Sequence[str]] = None) -> None:
        self.ops = ops
        self._bind = (host, port)
        self._secret = resolve_secret(secret)
        self._codecs = codecs
        self._listener: Optional[socket.socket] = None
        self._accepting: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()
        self._tasks: set = set()
        self._sockets: set = set()  # every live connection's socket

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._listener = socket.create_server(self._bind)
        self._listener.setblocking(False)
        self._accepting = asyncio.ensure_future(self._accept_loop())
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        """Ask the server to stop (the ``shutdown`` op and SIGTERM do)."""
        self._stopping.set()

    async def close(self) -> None:
        """Stop accepting, drop every connection (stalled handshakes too)
        and wait for their tasks to end."""
        self.stop()
        if self._accepting is not None:
            self._accepting.cancel()
            await asyncio.gather(self._accepting, return_exceptions=True)
        for conn in list(self._sockets):
            try:  # wakes a blocked recv or send, in a thread or on the loop
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._listener is not None:
            self._listener.close()

    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _ = await loop.sock_accept(self._listener)
            except OSError as error:  # e.g. out of descriptors: back off
                print(f"accept failed: {error}", file=sys.stderr, flush=True)
                await asyncio.sleep(0.1)
                continue
            task = asyncio.ensure_future(self._serve(loop, conn))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _serve(self, loop, conn: socket.socket) -> None:
        _nodelay(conn)
        conn.settimeout(HANDSHAKE_TIMEOUT)
        self._sockets.add(conn)
        state: dict = {}
        try:
            codec = (await asyncio.to_thread(
                transport.server_handshake, conn, secret=self._secret,
                codecs=self._codecs)).codec
            conn.setblocking(False)
            while not self._stopping.is_set():
                frames = await _receive(loop, conn)
                try:
                    reply = await self._dispatch(
                        transport.loads_frames(frames), state)
                except Exception as error:  # intact frames, unloadable pickle
                    reply = _failure(error)
                try:
                    frames = transport.dumps_frames(reply)
                except Exception as error:  # an unpicklable reply
                    frames = transport.dumps_frames(_failure(error))
                await loop.sock_sendall(conn, transport.encode_frames(
                    frames, compression=codec))
        except AuthenticationError as error:
            print(f"refused connection: {error}", file=sys.stderr, flush=True)
        except (TransportError, OSError):
            pass  # a garbled hello, a torn request or a vanished peer
        finally:
            self._sockets.discard(conn)
            conn.close()

    async def _dispatch(self, message, state: dict):
        """Answer one request from the op table (awaited once per request)."""
        if not isinstance(message, dict):
            return {"ok": False, "error": "malformed message"}
        op = message.get("op")
        if op == "ping":
            return {"op": "pong"}
        if op == "shutdown":  # the loop writes this reply, then ends
            self.stop()
            return {"ok": True}
        handler = self.ops.get(op) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(message, state)
        except Exception as error:  # ship the failure, keep serving
            return _failure(error)


def _failure(error: Exception) -> dict:
    return {"ok": False, "error": f"{type(error).__name__}: {error}"}


async def _receive(loop, conn: socket.socket) -> list:
    """One request's frames, each read into a buffer of its own, which
    :func:`~repro.utils.transport.loads_frames` then uses in place."""
    parser = transport.frame_reader()
    size = next(parser)
    while True:
        buffer = bytearray(size)
        view, got = memoryview(buffer), 0
        while got < size:
            count = await loop.sock_recv_into(conn, view[got:])
            if not count:
                raise TransportError(
                    f"connection closed mid-frame ({got}/{size} bytes)")
            got += count
        try:
            size = parser.send(buffer)
        except StopIteration as done:
            return done.value[0]


def run(server: Server) -> None:
    """Serve in the foreground until ``shutdown`` or SIGTERM (unless the
    process ignores SIGTERM); print the ready line once listening."""

    async def main() -> None:
        _, port = await server.start()
        if signal.getsignal(signal.SIGTERM) is not signal.SIG_IGN:
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, server.stop)
            except (NotImplementedError, RuntimeError):
                pass  # not the main thread
        print(f"{READY_PREFIX}{port}", flush=True)
        await server._stopping.wait()
        await server.close()

    asyncio.run(main())


def spawn(commands: Sequence[Sequence[str]], *, name: str,
          env: Optional[dict] = None, startup_timeout: float = 60.0,
          ) -> tuple[list, list[tuple[str, int]]]:
    """Start one localhost ``python -m <command>`` daemon per command.

    ``env`` overlays the inherited environment (secrets travel there, not
    on command lines).  Returns ``(processes, addresses)`` once every
    daemon printed its ready line, else stops them all and raises.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.pathsep.join(filter(None, [src_dir,
                                         os.environ.get("PYTHONPATH")]))
    merged_env = {**os.environ, "PYTHONPATH": path,
                  **{key: str(value) for key, value in (env or {}).items()}}
    processes: list = []
    addresses = []
    try:
        for command in commands:
            processes.append(subprocess.Popen(
                [sys.executable, "-m", *command], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=merged_env))
        deadline = time.monotonic() + startup_timeout
        for process in processes:
            line = process.stdout.readline()
            while line and not line.startswith(READY_PREFIX) \
                    and time.monotonic() < deadline:
                line = process.stdout.readline()  # skip interpreter noise
            if not line.startswith(READY_PREFIX):
                stderr = (process.stderr.read() if process.poll() is not None
                          else "")
                raise TransportError(
                    f"{name} subprocess failed to announce a port"
                    + (f": {stderr.strip()}" if stderr else ""))
            addresses.append(("127.0.0.1", int(line[len(READY_PREFIX):])))
    except BaseException:
        stop(processes)
        raise
    return processes, addresses


def stop(processes: Sequence, *, wait_timeout: float = 5.0) -> None:
    """Terminate daemons from :func:`spawn`, kill any still running after
    ``wait_timeout`` seconds, and close their pipes."""
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=wait_timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        for pipe in (process.stdout, process.stderr):
            if pipe is not None:
                pipe.close()
