"""Fault-injection TCP proxy for exercising the distributed transport.

The distributed back-end's correctness claim is not "works on a quiet
localhost" but "bit-identical to serial execution *while the network
misbehaves*".  Proving that needs the misbehaviour to be reproducible:
:class:`ChaosProxy` is a man-in-the-middle TCP forwarder that sits
between a coordinator and a worker and applies a scripted
:class:`Fault` to each accepted connection — added latency, bandwidth
throttling, hard-closing the link after *N* bytes (which tears a frame
mid-flight), flipping payload bytes (which must trip the transport CRCs,
never corrupt an ensemble), or refusing the connection outright.  A
*plan* is a sequence of faults consumed connection by connection, so
flap schedules ("refuse twice, then behave") and
restart-rejoin scenarios script naturally; connections beyond the plan
get the proxy's default fault (clean passthrough unless configured
otherwise).

The proxy is intentionally byte-level and protocol-blind: it never
parses frames, so every fault it injects is one a real network could
produce, and the transport layer gets no hints.  The chaos suite
(``tests/test_chaos_distributed.py``) drives every registered picklable
ensemble case through each fault schedule and asserts the gathered bits
against the serial reference.

>>> from repro.utils.chaos import ChaosProxy, Fault
>>> # refuse the first connect, garble the second, then behave:
>>> plan = [Fault.refuse_connect(), Fault.corrupt(after=1024)]
>>> # with ChaosProxy(worker_address, plan) as proxy:
>>> #     worker_pool([proxy.address]) ...
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import InvalidParameterError

__all__ = ["ChaosProxy", "Fault"]

#: Forwarding chunk size on clean links; shaped faults use smaller chunks
#: so per-chunk delays and byte-offset faults land with fine granularity.
_CLEAN_CHUNK = 1 << 16
_SHAPED_CHUNK = 1 << 10

_DIRECTIONS = ("up", "down", "both")


@dataclass(frozen=True)
class Fault:
    """The scripted misbehaviour of one proxied connection.

    Compose via the named constructors (:meth:`clean`,
    :meth:`refuse_connect`, :meth:`delayed`, :meth:`throttled`,
    :meth:`truncate`, :meth:`corrupt`) or set fields directly to stack
    several behaviours on one connection.  Directions are from the
    coordinator's point of view: ``"up"`` is coordinator→worker,
    ``"down"`` is worker→coordinator.

    Attributes
    ----------
    refuse:
        Accept then immediately close the connection without ever
        contacting the upstream worker (connection-refused from the
        peer's perspective, modulo the accept).
    delay:
        Seconds slept before forwarding each chunk, both directions —
        a symmetric latency add.
    bytes_per_sec:
        Bandwidth cap, enforced by sleeping ``len(chunk)/bytes_per_sec``
        per forwarded chunk.
    drop_after:
        Hard-close both sides of the link once this many bytes have been
        forwarded in ``drop_direction`` — mid-handshake disconnects
        (small values) and torn frames (values landing inside a payload)
        are both this fault.
    drop_direction, corrupt_direction:
        Which flow the byte counters above watch: ``"up"``, ``"down"``,
        or ``"both"``.
    corrupt_after:
        XOR ``0x01`` into every byte forwarded in ``corrupt_direction``
        from this byte offset on — the transport CRCs must catch it on
        the first garbled frame.
    """

    refuse: bool = False
    delay: float = 0.0
    bytes_per_sec: Optional[float] = None
    drop_after: Optional[int] = None
    drop_direction: str = "up"
    corrupt_after: Optional[int] = None
    corrupt_direction: str = "down"

    def __post_init__(self) -> None:
        if self.delay < 0.0:
            raise InvalidParameterError(f"delay must be >= 0, got {self.delay}")
        if self.bytes_per_sec is not None and self.bytes_per_sec <= 0.0:
            raise InvalidParameterError(
                f"bytes_per_sec must be positive, got {self.bytes_per_sec}")
        for name in ("drop_direction", "corrupt_direction"):
            if getattr(self, name) not in _DIRECTIONS:
                raise InvalidParameterError(
                    f"{name} must be one of {_DIRECTIONS}, "
                    f"got {getattr(self, name)!r}")

    @classmethod
    def clean(cls) -> "Fault":
        """Transparent passthrough (the implicit default)."""
        return cls()

    @classmethod
    def refuse_connect(cls) -> "Fault":
        """Close the connection immediately; the worker is never dialled."""
        return cls(refuse=True)

    @classmethod
    def delayed(cls, seconds: float) -> "Fault":
        """Add ``seconds`` of latency before every forwarded chunk."""
        return cls(delay=seconds)

    @classmethod
    def throttled(cls, bytes_per_sec: float) -> "Fault":
        """Cap the link's bandwidth in both directions."""
        return cls(bytes_per_sec=bytes_per_sec)

    @classmethod
    def truncate(cls, after: int, direction: str = "up") -> "Fault":
        """Hard-close the link after ``after`` bytes flow in ``direction``."""
        return cls(drop_after=after, drop_direction=direction)

    @classmethod
    def corrupt(cls, after: int, direction: str = "down") -> "Fault":
        """Flip a bit in every byte past offset ``after`` in ``direction``."""
        return cls(corrupt_after=after, corrupt_direction=direction)


class _Link:
    """One proxied connection: two pump threads and shared teardown."""

    def __init__(self, client: socket.socket, upstream: socket.socket,
                 fault: Fault) -> None:
        self.client = client
        self.upstream = upstream
        self.fault = fault
        self._lock = threading.Lock()
        self._dropped = 0  # bytes seen by the drop counter, both pumps
        self._running_pumps = 2
        self.threads = [
            threading.Thread(target=self._pump, args=(client, upstream, "up"),
                             daemon=True),
            threading.Thread(target=self._pump, args=(upstream, client, "down"),
                             daemon=True),
        ]
        for thread in self.threads:
            thread.start()

    def join(self, timeout: float) -> None:
        """Join both pump threads, spending at most ``timeout`` seconds.

        Called by :meth:`ChaosProxy.close` after the sockets are shut
        down, so the recv each pump may be blocked in returns promptly;
        the bound is a backstop, not an expected wait.
        """
        deadline = time.monotonic() + timeout
        for thread in self.threads:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            thread.join(timeout=remaining)

    def close(self) -> None:
        # shutdown() before close(): the peer of each socket must see the
        # teardown *now*.  A bare close() from this thread would not send
        # FIN while the other pump thread sits blocked in recv() on the
        # same socket (the in-flight syscall keeps the file description
        # alive), which would wedge the proxied worker forever.
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _counts(self, watched: str, direction: str) -> bool:
        return watched == "both" or watched == direction

    def _pump(self, src: socket.socket, dst: socket.socket,
              direction: str) -> None:
        try:
            self._pump_inner(src, dst, direction)
        finally:
            # Last pump out closes both sockets: a link whose two flows
            # ended naturally (clean EOF each way) must not hold open file
            # descriptors until the proxy itself is torn down.
            with self._lock:
                self._running_pumps -= 1
                last_out = self._running_pumps == 0
            if last_out:
                self.close()

    def _pump_inner(self, src: socket.socket, dst: socket.socket,
                    direction: str) -> None:
        fault = self.fault
        shaped = (fault.delay > 0.0 or fault.bytes_per_sec is not None
                  or fault.drop_after is not None
                  or fault.corrupt_after is not None)
        chunk_size = _SHAPED_CHUNK if shaped else _CLEAN_CHUNK
        forwarded = 0  # this direction only, for corrupt offsets
        try:
            while True:
                chunk = src.recv(chunk_size)
                if not chunk:
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                if fault.delay > 0.0:
                    time.sleep(fault.delay)
                if fault.bytes_per_sec is not None:
                    time.sleep(len(chunk) / fault.bytes_per_sec)
                send = chunk
                kill_after_send = False
                if fault.drop_after is not None and self._counts(
                        fault.drop_direction, direction):
                    with self._lock:
                        remaining = fault.drop_after - self._dropped
                        self._dropped += len(chunk)
                    if remaining <= 0:
                        self.close()
                        return
                    if len(chunk) > remaining:
                        send = chunk[:remaining]
                        kill_after_send = True
                if fault.corrupt_after is not None and self._counts(
                        fault.corrupt_direction, direction):
                    start = max(fault.corrupt_after - forwarded, 0)
                    if start < len(send):
                        garbled = bytearray(send)
                        for position in range(start, len(garbled)):
                            garbled[position] ^= 0x01
                        send = bytes(garbled)
                forwarded += len(chunk)
                dst.sendall(send)
                if kill_after_send:
                    self.close()
                    return
        except OSError:
            self.close()


class ChaosProxy:
    """A scripted-fault TCP proxy in front of one worker address.

    Parameters
    ----------
    upstream:
        The real worker endpoint, ``(host, port)`` or ``"host:port"``.
    plan:
        Faults applied to successive connections, in accept order; the
        first connection gets ``plan[0]``, and so on.  Connections past
        the end of the plan get ``default``.
    default:
        Fault for connections beyond the plan (clean passthrough when
        omitted) — set it to shape *every* connection, e.g. a permanent
        latency or bandwidth profile.
    host:
        Interface the proxy listens on.

    Use as a context manager; point the coordinator at
    :attr:`address` instead of the worker.  Counters
    (:attr:`connections`, :attr:`refused`) let tests assert how much of
    the plan actually fired.
    """

    def __init__(self, upstream, plan: Sequence[Fault] = (), *,
                 default: Optional[Fault] = None,
                 host: str = "127.0.0.1") -> None:
        from repro.utils.coordinator import parse_address

        self._upstream = parse_address(upstream)
        self._plan = list(plan)
        self._default = Fault() if default is None else default
        self._listener = socket.create_server((host, 0))
        self._address = self._listener.getsockname()[:2]
        self._closed = False
        self._lock = threading.Lock()
        self._links: list[_Link] = []
        self.connections = 0
        self.refused = 0
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` coordinators should dial."""
        return self._address

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                index = self.connections
                self.connections += 1
            fault = (self._plan[index] if index < len(self._plan)
                     else self._default)
            if fault.refuse:
                with self._lock:
                    self.refused += 1
                conn.close()
                continue
            try:
                upstream = socket.create_connection(self._upstream, timeout=10.0)
            except OSError:
                conn.close()
                continue
            upstream.settimeout(None)
            with self._lock:
                self._links.append(_Link(conn, upstream, fault))

    def close(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = list(self._links)
        # On Linux, close() alone does not wake a thread blocked in
        # accept(); shutdown() does, so the join below returns at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for link in links:
            link.close()
        self._accept_thread.join(timeout=5.0)
        # Closing the sockets unblocks any pump stuck in recv(); join the
        # pump threads so close() returns with no proxy threads running
        # and no leaked file descriptors.  The budget is shared across
        # links — a single wedged thread cannot stall teardown unboundedly.
        deadline = time.monotonic() + 5.0
        for link in links:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            link.join(remaining)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
