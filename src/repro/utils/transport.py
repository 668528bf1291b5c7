"""Length-prefixed socket framing for pickled shard payloads.

The host-level distributed backend (:mod:`repro.utils.coordinator`) moves
replica- and stream-shard payloads between a coordinator and worker
processes over TCP, and the sampler service takes its requests the same
way: both servers run on :mod:`repro.utils.server`.  This module owns
the wire format *and* the connection-setup handshake; it knows nothing
about ensembles or streams — it ships arbitrary picklable objects as
*frame lists*, verifies their integrity end to end, and authenticates the
peers before a single pickle byte is accepted.

Serialisation: pickle protocol 5 with out-of-band buffers
    Payloads are pickled at :data:`PICKLE_PROTOCOL`
    (``pickle.HIGHEST_PROTOCOL`` — protocol 5 on every supported
    interpreter) with a ``buffer_callback``, so large numpy state — stacked
    ensemble tables, stream index/delta arrays — is exported as raw
    :class:`pickle.PickleBuffer` views instead of being copied into the
    pickle byte stream.  The pickle body and its buffers travel as separate
    frames and are reunited by :func:`loads_frames`; the buffers are
    written to the socket directly from the originals (no intermediate
    pickle-stream copy), which is the double-copy fix the multiprocessing
    back-end shares via :func:`dumps_frames`.

Wire format version 2 (one *message* per payload, integers big-endian)::

    MAGIC (2s) | VERSION (B) | num_frames (I) | header_crc32 (I)
    then per frame:
        wire_length (Q) | flags (B) | raw_length (Q) | frame_crc32 (I)
        raw wire bytes (wire_length of them)

    ``header_crc32`` covers the first 7 header bytes; ``frame_crc32``
    covers the 17 frame-header bytes *and* the wire payload.  Between
    them, **every** single corrupted byte of a message — magic, version,
    frame count, any length, the flags, the checksum fields themselves,
    or any payload byte — surfaces as :class:`TransportError` at the
    frame boundary instead of as a pickle error (or, worse, a silently
    wrong unpickled object) downstream.  ``flags`` selects the per-frame
    compression codec (``0`` = raw); ``raw_length`` is the decompressed
    size, bounded before any decompression so a corrupted-or-hostile
    header cannot demand a huge allocation ("zip bomb" guard).

Compression
    :func:`send_frames` optionally compresses each frame with a named
    codec from :data:`available_codecs` (``zlib``).  Frames smaller than
    ``min_compress_bytes`` bypass compression, so control messages (pings,
    handshakes, shard acks) stay cheap; a frame that fails to shrink is
    sent raw.  The codec in use is negotiated per connection by the
    handshake below — the receiver needs no configuration, the flags byte
    is self-describing.

Authenticated handshake (HMAC-SHA256 challenge/response)
    ``pickle`` over an open port is remote code execution for anyone who
    can reach the socket, so when a *cluster secret* is configured (see
    :func:`resolve_cluster_secret`) both endpoints must prove knowledge of
    it **before any pickled payload is read**.  The handshake is four
    framed messages whose payloads are JSON (never pickle):

    1. client hello — supported protocol versions, offered codecs, a
       32-byte random nonce, and whether the client expects auth;
    2. server hello — the chosen version + codec, the server's nonce, and
       (with a secret) the server's HMAC proof;
    3. client auth — the client's HMAC proof;
    4. server verdict — ``{"ok": true}`` or a refusal.

    Each proof is ``HMAC-SHA256(secret, role | nonce_a | nonce_b |
    transcript)`` where the transcript binds the *negotiated* version and
    codec, so a man-in-the-middle cannot strip compression or downgrade
    the protocol without breaking both proofs.  Authentication is mutual:
    the coordinator unpickles worker replies, so a rogue "worker" is every
    bit as dangerous as a rogue coordinator.  Secret mismatch and
    missing-secret asymmetries are refused with a remedial
    :class:`AuthenticationError` naming the environment variables to fix;
    when *neither* side has a secret the handshake still runs (version and
    codec negotiation) but skips the proofs — the localhost/test mode.

    What the handshake does **not** provide: confidentiality or
    per-message authentication.  After the handshake the frames are
    CRC-checked (integrity against *accidents*, not attackers) but
    unencrypted and unsigned — an active attacker on the path can inject
    traffic into an established connection.  Deploy across untrusted
    networks only inside TLS or an ssh tunnel (see the security section of
    :mod:`repro.utils.coordinator`).

All wire-level failures — short reads (peer closed mid-frame), bad
magic/version, checksum mismatches, oversized counts, malformed handshake
messages — raise :class:`TransportError` (or its :class:`HandshakeError`
subclass), which the coordinator treats as "this worker is dead" and
answers with retry/re-dispatch.  :class:`AuthenticationError` is
deliberately *not* a :class:`TransportError`: a secret mismatch is a
configuration problem that retrying cannot fix, so it propagates to the
caller instead of being absorbed by dead-worker handling.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import json
import os
import pickle
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.exceptions import InvalidParameterError, ReproError

__all__ = [
    "PICKLE_PROTOCOL",
    "PROTOCOL_VERSION",
    "AuthenticationError",
    "HandshakeError",
    "Negotiated",
    "TransportError",
    "available_codecs",
    "client_handshake",
    "decode_frames",
    "dumps_frames",
    "encode_frames",
    "encode_parts",
    "frame_reader",
    "frames_as_bytes",
    "frames_nbytes",
    "loads_frames",
    "read_frames",
    "recv_frames",
    "recv_frames_counted",
    "recv_message",
    "resolve_cluster_secret",
    "send_frames",
    "send_message",
    "server_handshake",
]

#: Pickle protocol for every shard payload (wire and multiprocessing):
#: the highest available, which is 5 (out-of-band buffers) on all
#: supported interpreters — not the smaller implicit default protocol.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Wire-format version emitted and accepted by this build.  Version 1
#: (PR 7, no header CRC / compression flags) is retired; the handshake
#: negotiates versions explicitly, so a mismatched peer gets a remedial
#: refusal instead of a silent parse failure.
PROTOCOL_VERSION = 2

_MAGIC = b"RS"  # "repro shard"
_HEADER = struct.Struct(">2sBII")          # magic, version, num_frames, crc
_FRAME_HEADER = struct.Struct(">QBQ")      # wire_length, flags, raw_length
_FRAME_CRC = struct.Struct(">I")
#: Sanity bounds refused on receipt (a corrupted header must not make the
#: receiver try to allocate petabytes or loop forever).
_MAX_FRAMES = 1 << 20
_MAX_FRAME_BYTES = 1 << 40
#: Pre-authentication cap: handshake messages are tiny JSON, so anything
#: above this is garbage (or an attacker feeding bytes before auth).
HANDSHAKE_MAX_FRAME_BYTES = 1 << 20
#: :func:`loads_frames` unpickles a writable buffer in place only at this
#: alignment.  numpy rebuilds an out-of-band array as a view of its
#: buffer, and a float64 view that is not 8-byte aligned is summed in
#: buffered blocks of 8192 elements, so a reduction over more elements
#: than that would round differently from the array it was pickled from.
_BUFFER_ALIGNMENT = 8

#: Frames below this many bytes skip compression even on a compressed
#: link: zlib on a 100-byte control message costs more than it saves.
DEFAULT_MIN_COMPRESS_BYTES = 512

#: Environment variables holding the cluster secret (value, or a path to
#: a file whose stripped contents are the secret).
CLUSTER_SECRET_ENV = "REPRO_CLUSTER_SECRET"
CLUSTER_SECRET_FILE_ENV = "REPRO_CLUSTER_SECRET_FILE"

_FLAG_RAW = 0


class TransportError(ReproError):
    """A wire-level failure: truncated, corrupted, or malformed message.

    The scatter/gather coordinator maps this onto dead-worker handling
    (the shard is retried / re-dispatched to a survivor); it never
    indicates a problem with the payload itself.
    """


class HandshakeError(TransportError):
    """The connection-setup handshake failed at the protocol level.

    Covers malformed hello messages, version mismatches, and peers that
    are not speaking this protocol at all.  A :class:`TransportError`
    subclass, so the coordinator's dead-worker handling absorbs it — a
    peer that garbles the handshake might be a worker mid-restart.
    """


class AuthenticationError(ReproError):
    """The peer failed (or refused) the cluster-secret HMAC handshake.

    Deliberately *not* a :class:`TransportError`: retrying or
    re-dispatching cannot fix a configuration mismatch, so the error
    propagates to the caller with a remedial message instead of being
    silently absorbed as a dead worker.
    """


# ---------------------------------------------------------------------------
# Compression codecs
# ---------------------------------------------------------------------------


def _zlib_decompress(data: bytes, raw_length: int) -> bytes:
    # decompressobj(max_length=…) bounds the output allocation: a frame
    # header lying about raw_length cannot make us materialise a bomb.
    obj = zlib.decompressobj()
    try:
        out = obj.decompress(data, raw_length)
    except zlib.error as error:
        raise TransportError(f"zlib decompression failed: {error}") from error
    if not obj.eof or obj.unconsumed_tail:
        raise TransportError("compressed frame longer than its declared "
                             "raw length")
    return out


#: name -> (flags value, compress, decompress(data, raw_length)), in
#: the preference order offered in the handshake.
_CODECS: dict = {
    "zlib": (1, lambda data: zlib.compress(data, 6), _zlib_decompress),
}
_FLAG_DECODERS = {flag: (name, decompress)
                  for name, (flag, _, decompress) in _CODECS.items()}


def available_codecs() -> tuple[str, ...]:
    """Compression codecs this build can speak, in preference order."""
    return tuple(_CODECS)


def _codec_compressor(name: str) -> Callable[[bytes], bytes]:
    if name not in _CODECS:
        raise InvalidParameterError(
            f"unknown compression codec {name!r}; available: "
            f"{', '.join(available_codecs()) or 'none'}")
    return _CODECS[name][1]


# ---------------------------------------------------------------------------
# Frame (de)serialisation
# ---------------------------------------------------------------------------


def dumps_frames(obj) -> list:
    """Serialise ``obj`` into ``[pickle_body, *out_of_band_buffers]``.

    The first frame is the protocol-5 pickle stream; the rest are the raw
    buffer views (``memoryview``) exported through ``buffer_callback`` in
    pickling order.  Views alias the original arrays — send them before
    mutating the source object, or wrap with :func:`frames_as_bytes`.
    """
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(obj, protocol=PICKLE_PROTOCOL,
                        buffer_callback=buffers.append)
    return [body] + [buffer.raw() for buffer in buffers]


def _usable_in_place(frame) -> bool:
    """Whether an out-of-band buffer can back its array without a copy:
    writable, and aligned to :data:`_BUFFER_ALIGNMENT`."""
    view = memoryview(frame)
    if view.readonly:
        return False
    if view.nbytes == 0:
        return True
    address = ctypes.addressof(ctypes.c_char.from_buffer(view))
    return address % _BUFFER_ALIGNMENT == 0


def loads_frames(frames: Sequence) -> object:
    """Rebuild the object serialised by :func:`dumps_frames`.

    Out-of-band buffer frames arriving read-only (frames that crossed a
    pool queue or an asyncio stream, decompressed frames, or views of an
    immutable ``bytes`` message) are copied into mutable
    ``bytearray``\\ s first: numpy reconstructs an out-of-band array as a
    zero-copy view over its buffer, inheriting the buffer's writability,
    and a read-only ensemble state could not ingest further updates.  So
    are writable buffers that are not aligned (see
    :data:`_BUFFER_ALIGNMENT`).  Every other writable buffer passes
    through zero-copy — which also means it *aliases* the original; force
    the copy (e.g. via :func:`frames_as_bytes`) when an independent clone
    is required.
    """
    if not frames:
        raise TransportError("cannot unpickle an empty frame list")
    buffers = [frame if _usable_in_place(frame) else bytearray(frame)
               for frame in frames[1:]]
    return pickle.loads(frames[0], buffers=buffers)


def frames_as_bytes(frames: Sequence) -> list[bytes]:
    """Materialise every frame as an independent ``bytes`` object.

    Needed where frames outlive (or travel without) the source arrays —
    e.g. multiprocessing pool arguments, or the coordinator's re-dispatch
    copies that must stay valid after the original payload is gone.
    """
    return [frame if type(frame) is bytes else bytes(frame)
            for frame in frames]


def frames_nbytes(frames: Sequence) -> int:
    """Total payload bytes across ``frames`` (excluding wire headers)."""
    return sum(memoryview(frame).nbytes for frame in frames)


def encode_parts(frames: Sequence, *, compression: Optional[str] = None,
                 min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> list:
    """Wire parts (headers interleaved with payload views) for ``frames``.

    The one encoder behind :func:`encode_frames`, :func:`send_frames` and
    the snapshot writer.  Raw frames are returned as views of the
    originals, never copied, so the parts alias the source arrays until
    they are written.
    """
    frames = list(frames)
    compress = _codec_compressor(compression) if compression else None
    flag_value = _CODECS[compression][0] if compression else _FLAG_RAW
    header = _HEADER.pack(_MAGIC, PROTOCOL_VERSION, len(frames), 0)
    header = header[:7] + _FRAME_CRC.pack(zlib.crc32(header[:7]))
    parts: list = [header]
    for frame in frames:
        view = memoryview(frame).cast("B")
        raw_length = view.nbytes
        payload = view
        flags = _FLAG_RAW
        if compress is not None and raw_length >= min_compress_bytes:
            compressed = compress(view.tobytes())
            if len(compressed) < raw_length:  # only when it actually shrinks
                payload = compressed
                flags = flag_value
        frame_header = _FRAME_HEADER.pack(
            memoryview(payload).nbytes, flags, raw_length)
        checksum = zlib.crc32(payload, zlib.crc32(frame_header))
        parts.append(frame_header + _FRAME_CRC.pack(checksum))
        parts.append(payload)
    return parts


def encode_frames(frames: Sequence, *, compression: Optional[str] = None,
                  min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> bytes:
    """One contiguous wire message for ``frames`` (testing / proxies).

    :func:`send_frames` is the streaming equivalent (no concatenation);
    this helper exists so the fault-injection and property suites can
    corrupt, truncate, and replay messages byte by byte.
    """
    return b"".join(encode_parts(frames, compression=compression,
                                 min_compress_bytes=min_compress_bytes))


def send_frames(sock: socket.socket, frames: Sequence, *,
                compression: Optional[str] = None,
                min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> int:
    """Write one framed message to ``sock``; returns wire bytes written.

    Each frame is checksummed and length-prefixed; buffers are written
    directly (``sendall`` per part) without concatenating into one big
    intermediate bytes object.  ``compression`` names a codec from
    :func:`available_codecs` applied per frame above the
    ``min_compress_bytes`` threshold (and only when it shrinks the frame).
    """
    parts = encode_parts(frames, compression=compression,
                         min_compress_bytes=min_compress_bytes)
    total = 0
    try:
        for part in parts:
            sock.sendall(part)
            total += memoryview(part).nbytes
    except OSError as error:
        raise TransportError(f"send failed after {total} bytes: {error}") from error
    return total


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    """Read exactly ``size`` bytes or raise on EOF/timeout/reset.

    The bytes land in one preallocated ``bytearray`` through ``recv_into``:
    read once, never copied, writable and aligned as allocated, so
    :func:`loads_frames` uses a received frame in place (as it does the
    frames of :func:`read_frames`).  Never reads past ``size``: the bytes
    after a handshake belong to whoever reads the socket next.
    """
    try:
        received = bytearray(size)
    except MemoryError as error:  # a corrupted length field, in practice
        raise TransportError(f"cannot buffer a {size}-byte frame") from error
    view = memoryview(received)
    got = 0
    while got < size:
        try:
            count = sock.recv_into(view[got:])
        except OSError as error:
            raise TransportError(
                f"recv failed at {got}/{size} bytes: {error}") from error
        if not count:
            raise TransportError(
                f"connection closed mid-frame ({got}/{size} bytes)")
        got += count
    return received


def frame_reader(*, max_frame_bytes: int = _MAX_FRAME_BYTES):
    """Sans-IO parser for one wire message, usable from sync or async IO.

    A generator that *yields* the number of bytes it needs next and is
    resumed with exactly those bytes via ``gen.send(data)``; when the
    message is complete it returns (``StopIteration.value``) the tuple
    ``(frames, wire_bytes)``.  The driver owns the IO — blocking sockets
    (:func:`recv_frames`), in-memory buffers (:func:`decode_frames`), and
    ``asyncio`` streams (the sampler service) all run this exact state
    machine, so every integrity guarantee the property suite proves
    offline holds for every transport.
    """
    header = yield _HEADER.size
    magic, version, num_frames, header_crc = _HEADER.unpack(header)
    if zlib.crc32(header[:7]) != header_crc:
        raise TransportError("message header failed its checksum "
                             "(corrupted in transit)")
    if magic != _MAGIC:
        raise TransportError(f"bad frame magic {magic!r} (expected {_MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise TransportError(
            f"unsupported transport version {version} "
            f"(this build speaks {PROTOCOL_VERSION})")
    if num_frames > _MAX_FRAMES:
        raise TransportError(f"implausible frame count {num_frames}")
    wire_bytes = _HEADER.size
    frames = []
    for position in range(num_frames):
        frame_header = yield _FRAME_HEADER.size
        (checksum,) = _FRAME_CRC.unpack((yield _FRAME_CRC.size))
        wire_length, flags, raw_length = _FRAME_HEADER.unpack(frame_header)
        if wire_length > max_frame_bytes or raw_length > max_frame_bytes:
            raise TransportError(
                f"implausible frame length {max(wire_length, raw_length)} "
                f"(frame {position}, cap {max_frame_bytes})")
        data = yield wire_length
        if zlib.crc32(data, zlib.crc32(frame_header)) != checksum:
            raise TransportError(
                f"checksum mismatch on frame {position} "
                f"({wire_length} bytes): payload corrupted in transit")
        wire_bytes += _FRAME_HEADER.size + _FRAME_CRC.size + wire_length
        if flags == _FLAG_RAW:
            if raw_length != wire_length:
                raise TransportError(
                    f"raw frame {position} declares {raw_length} bytes but "
                    f"carries {wire_length}")
        else:
            if flags not in _FLAG_DECODERS:
                raise TransportError(
                    f"unknown compression flag {flags} on frame {position}")
            _, decompress = _FLAG_DECODERS[flags]
            data = decompress(data, raw_length)
            if len(data) != raw_length:
                raise TransportError(
                    f"frame {position} decompressed to {len(data)} bytes, "
                    f"expected {raw_length}")
        frames.append(data)
    return frames, wire_bytes


def _read_frames(read_exact: Callable[[int], bytes], *,
                 max_frame_bytes: int = _MAX_FRAME_BYTES,
                 ) -> tuple[list[bytes], int]:
    """Parse one message via ``read_exact``; ``(frames, wire_bytes)``.

    The synchronous driver for :func:`frame_reader`, shared by the socket
    receiver and the in-memory decoder so both have identical integrity
    semantics — the property suite corrupts and truncates messages
    offline and trusts that a socket peer would have failed the same way.
    """
    parser = frame_reader(max_frame_bytes=max_frame_bytes)
    size = next(parser)
    while True:
        try:
            size = parser.send(read_exact(size))
        except StopIteration as done:
            return done.value


def recv_frames_counted(sock: socket.socket, *,
                        max_frame_bytes: int = _MAX_FRAME_BYTES,
                        ) -> tuple[list, int]:
    """Read one framed message; returns ``(frames, wire_bytes_read)``.

    Raw frames are ``bytearray``\\ s (see :func:`_recv_exact`), compressed
    ones the ``bytes`` they decompress to.
    """
    return _read_frames(lambda size: _recv_exact(sock, size),
                        max_frame_bytes=max_frame_bytes)


def recv_frames(sock: socket.socket, *,
                max_frame_bytes: int = _MAX_FRAME_BYTES) -> list:
    """Read one framed message from ``sock``, verifying every checksum."""
    frames, _ = recv_frames_counted(sock, max_frame_bytes=max_frame_bytes)
    return frames


def decode_frames(data, *,
                  max_frame_bytes: int = _MAX_FRAME_BYTES) -> list:
    """Parse one in-memory wire message produced by :func:`encode_frames`.

    Raw frames come back as ``memoryview`` slices of ``data``, not copies
    (compressed ones decompress into new ``bytes``); they compare equal to
    the bytes they hold, and keep ``data`` alive while they do.
    Strict: a truncated buffer raises the same mid-frame
    :class:`TransportError` a closed socket would, and trailing bytes
    after the message are refused (a socket leaves them for the next
    message; a byte buffer has no next message).
    """
    view = memoryview(data).cast("B")
    offset = 0

    def read_exact(size: int) -> memoryview:
        nonlocal offset
        if offset + size > len(view):
            raise TransportError(
                f"connection closed mid-frame "
                f"({len(view) - offset}/{size} bytes)")
        chunk = view[offset:offset + size]
        offset += size
        return chunk

    frames, _ = _read_frames(read_exact, max_frame_bytes=max_frame_bytes)
    if offset != len(view):
        raise TransportError(
            f"{len(view) - offset} trailing bytes after the message")
    return frames


def read_frames(stream, *, size: int,
                max_frame_bytes: int = _MAX_FRAME_BYTES) -> list:
    """Parse one wire message from a binary file holding ``size`` more bytes.

    Each raw frame is read with ``readinto`` into a ``bytearray`` of its
    own, so every byte is read once and never copied, and each frame is
    writable and aligned as allocated: :func:`loads_frames` uses its
    out-of-band buffers in place.  A length field that claims more than
    the rest of the file is refused before anything is allocated.  As
    strict as :func:`decode_frames`: a short file raises a mid-frame
    :class:`TransportError` and trailing bytes are refused.
    """
    remaining = size

    def read_exact(count: int) -> bytearray:
        nonlocal remaining
        if count > remaining:
            raise TransportError(
                f"connection closed mid-frame ({remaining}/{count} bytes)")
        chunk = bytearray(count)
        got = stream.readinto(chunk)
        if got != count:
            raise TransportError(
                f"connection closed mid-frame ({got}/{count} bytes)")
        remaining -= count
        return chunk

    frames, _ = _read_frames(read_exact, max_frame_bytes=max_frame_bytes)
    if remaining or stream.read(1):
        raise TransportError(
            f"{max(remaining, 1)} trailing bytes after the message")
    return frames


def send_message(sock: socket.socket, obj, *,
                 compression: Optional[str] = None,
                 min_compress_bytes: int = DEFAULT_MIN_COMPRESS_BYTES) -> int:
    """Pickle ``obj`` (protocol 5, out-of-band buffers) and send it."""
    return send_frames(sock, dumps_frames(obj), compression=compression,
                       min_compress_bytes=min_compress_bytes)


def recv_message(sock: socket.socket) -> object:
    """Receive and unpickle one message sent by :func:`send_message`."""
    return loads_frames(recv_frames(sock))


# ---------------------------------------------------------------------------
# Cluster secret + authenticated handshake
# ---------------------------------------------------------------------------


def resolve_cluster_secret(env: Optional[dict] = None) -> Optional[bytes]:
    """The configured cluster secret, or ``None`` (unauthenticated mode).

    Checked in order: the :data:`CLUSTER_SECRET_ENV` environment variable
    (the secret itself), then :data:`CLUSTER_SECRET_FILE_ENV` (a path
    whose stripped file contents are the secret — the shape configuration
    management tools and container secret mounts produce).  An empty or
    unreadable secret file is a configuration error, not silent
    no-auth mode.
    """
    env = os.environ if env is None else env
    value = env.get(CLUSTER_SECRET_ENV)
    if value:
        return value.encode("utf-8")
    path = env.get(CLUSTER_SECRET_FILE_ENV)
    if not path:
        return None
    try:
        with open(path, "rb") as handle:
            secret = handle.read().strip()
    except OSError as error:
        raise InvalidParameterError(
            f"cannot read cluster secret file {path!r} "
            f"(from {CLUSTER_SECRET_FILE_ENV}): {error}") from error
    if not secret:
        raise InvalidParameterError(
            f"cluster secret file {path!r} (from {CLUSTER_SECRET_FILE_ENV}) "
            "is empty; remove the variable for unauthenticated localhost "
            "mode or provision a real secret")
    return secret


def _normalize_secret(secret) -> Optional[bytes]:
    """Accept ``str`` secrets alongside raw ``bytes``.

    Encoded UTF-8, exactly as :func:`resolve_cluster_secret` encodes the
    environment variable, so ``secret="s"`` and ``REPRO_CLUSTER_SECRET=s``
    always agree.
    """
    if secret is None or isinstance(secret, bytes):
        return secret
    if isinstance(secret, bytearray):
        return bytes(secret)
    if isinstance(secret, str):
        return secret.encode("utf-8")
    raise InvalidParameterError(
        f"cluster secret must be bytes or str, got {type(secret).__name__}")


@dataclass(frozen=True)
class Negotiated:
    """Outcome of a completed handshake: what this connection speaks."""

    version: int
    codec: Optional[str]
    authenticated: bool


_HELLO_CLIENT = b"REPRO-HS1-CLIENT"
_HELLO_SERVER = b"REPRO-HS1-SERVER"
_AUTH_CLIENT = b"REPRO-HS1-AUTH"
_VERDICT = b"REPRO-HS1-OK"
_REFUSED = b"REPRO-HS1-REFUSED"
_NONCE_BYTES = 32

_NO_SECRET_REMEDY = (
    "set the same REPRO_CLUSTER_SECRET (or REPRO_CLUSTER_SECRET_FILE) on "
    "every server and client host, or unset it everywhere for the "
    "unauthenticated localhost mode")


def _transcript(version: int, codec: Optional[str]) -> bytes:
    """Canonical byte encoding of the negotiated parameters.

    Folded into both HMAC proofs so neither the protocol version nor the
    compression codec can be downgraded by a man in the middle.
    """
    return json.dumps({"version": version, "codec": codec},
                      sort_keys=True).encode("utf-8")


def _proof(secret: bytes, role: bytes, nonce_a: bytes, nonce_b: bytes,
           transcript: bytes) -> str:
    message = b"|".join((b"repro-hs1", role, nonce_a, nonce_b, transcript))
    return hmac.new(secret, message, hashlib.sha256).hexdigest()


def _send_handshake(sock: socket.socket, marker: bytes, payload: dict) -> None:
    send_frames(sock, [marker,
                       json.dumps(payload, sort_keys=True).encode("utf-8")])


def _recv_handshake(sock: socket.socket) -> tuple[bytes, dict]:
    """One handshake message: ``(marker, json payload)`` — never pickle."""
    frames = recv_frames(sock, max_frame_bytes=HANDSHAKE_MAX_FRAME_BYTES)
    if len(frames) != 2:
        raise HandshakeError(
            f"handshake message must be [marker, json], got "
            f"{len(frames)} frame(s)")
    marker = bytes(frames[0])
    try:
        payload = json.loads(bytes(frames[1]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HandshakeError(f"malformed handshake payload: {error}") from error
    if not isinstance(payload, dict):
        raise HandshakeError("handshake payload must be a JSON object")
    return marker, payload


def _raise_refusal(payload: dict) -> None:
    message = str(payload.get("error", "peer refused the handshake"))
    if payload.get("kind") == "auth":
        raise AuthenticationError(message)
    raise HandshakeError(message)


def client_handshake(sock: socket.socket, *, secret: Optional[bytes] = None,
                     codecs: Optional[Sequence[str]] = None) -> Negotiated:
    """Run the client side of the connection handshake.

    ``codecs`` is the ordered list of compression codecs to offer
    (default: everything in :func:`available_codecs`; pass ``()`` to
    force uncompressed frames).  Returns the negotiated parameters; the
    caller must use ``Negotiated.codec`` for every subsequent
    :func:`send_message` on this socket.
    """
    secret = _normalize_secret(secret)
    offered = list(available_codecs() if codecs is None else codecs)
    for name in offered:
        _codec_compressor(name)  # validate early, before touching the wire
    nonce_c = os.urandom(_NONCE_BYTES)
    _send_handshake(sock, _HELLO_CLIENT, {
        "versions": [PROTOCOL_VERSION],
        "codecs": offered,
        "auth": secret is not None,
        "nonce": nonce_c.hex(),
    })
    marker, reply = _recv_handshake(sock)
    if marker == _REFUSED:
        _raise_refusal(reply)
    if marker != _HELLO_SERVER:
        raise HandshakeError(f"unexpected handshake message {marker!r} "
                             "(expected the server hello)")
    version = reply.get("version")
    codec = reply.get("codec")
    if version != PROTOCOL_VERSION:
        raise HandshakeError(
            f"peer chose unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})")
    if codec is not None and codec not in offered:
        raise HandshakeError(f"peer chose codec {codec!r} which was "
                             "never offered")
    try:
        nonce_s = bytes.fromhex(reply.get("nonce", ""))
    except ValueError:
        nonce_s = b""
    if len(nonce_s) != _NONCE_BYTES:
        raise HandshakeError("server hello carries a malformed nonce")
    transcript = _transcript(version, codec)
    if secret is not None:
        if not reply.get("auth_required"):
            raise AuthenticationError(
                "this side has a cluster secret but the server performs no "
                f"authentication; {_NO_SECRET_REMEDY}")
        expected = _proof(secret, b"server", nonce_c, nonce_s, transcript)
        if not hmac.compare_digest(str(reply.get("proof", "")), expected):
            raise AuthenticationError(
                "cluster-secret mismatch: the server's HMAC proof failed "
                f"verification; {_NO_SECRET_REMEDY}")
        proof_c = _proof(secret, b"client", nonce_s, nonce_c, transcript)
    else:
        if reply.get("auth_required"):
            raise AuthenticationError(
                "the server requires an authenticated handshake but no "
                f"cluster secret is configured here; {_NO_SECRET_REMEDY}")
        proof_c = ""
    _send_handshake(sock, _AUTH_CLIENT, {"proof": proof_c})
    marker, verdict = _recv_handshake(sock)
    if marker == _REFUSED:
        _raise_refusal(verdict)
    if marker != _VERDICT or not verdict.get("ok"):
        raise HandshakeError(f"unexpected handshake verdict {marker!r}")
    return Negotiated(version=version, codec=codec,
                      authenticated=secret is not None)


def _refuse(conn: socket.socket, kind: str, message: str) -> None:
    try:
        _send_handshake(conn, _REFUSED, {"kind": kind, "error": message})
    except TransportError:
        pass  # the peer is gone; the local error below still fires
    if kind == "auth":
        raise AuthenticationError(message)
    raise HandshakeError(message)


def server_handshake(conn: socket.socket, *, secret: Optional[bytes] = None,
                     codecs: Optional[Sequence[str]] = None) -> Negotiated:
    """Run the server side of the connection handshake.

    Refuses — with a remedial JSON message, then the matching local
    exception — protocol-version mismatches, auth asymmetries (exactly
    one side configured with a secret), and HMAC proof failures.  No
    pickled payload is read before this returns: the hello is framed
    JSON, and a legacy peer that leads with a pickled message fails the
    marker check (its pickle bytes are never unpickled).
    """
    secret = _normalize_secret(secret)
    marker, hello = _recv_handshake(conn)
    if marker != _HELLO_CLIENT:
        _refuse(conn, "protocol",
                "peer did not send a repro handshake hello; this endpoint "
                "accepts no unauthenticated/unnegotiated payloads")
    versions = hello.get("versions") or []
    if PROTOCOL_VERSION not in versions:
        _refuse(conn, "protocol",
                f"no common protocol version: peer speaks {versions}, "
                f"this build speaks [{PROTOCOL_VERSION}]")
    peer_wants_auth = bool(hello.get("auth"))
    if (secret is not None) and not peer_wants_auth:
        _refuse(conn, "auth",
                "this server requires an authenticated handshake but the "
                f"client offered none; {_NO_SECRET_REMEDY}")
    if (secret is None) and peer_wants_auth:
        _refuse(conn, "auth",
                "the client offered an authenticated handshake but "
                f"this server has no cluster secret; {_NO_SECRET_REMEDY}")
    try:
        nonce_c = bytes.fromhex(hello.get("nonce", ""))
    except ValueError:
        nonce_c = b""
    if len(nonce_c) != _NONCE_BYTES:
        _refuse(conn, "protocol", "client hello carries a malformed nonce")
    peer_codecs = hello.get("codecs") or []
    supported = available_codecs() if codecs is None else tuple(codecs)
    codec = next((name for name in supported if name in peer_codecs), None)
    nonce_s = os.urandom(_NONCE_BYTES)
    transcript = _transcript(PROTOCOL_VERSION, codec)
    reply = {"version": PROTOCOL_VERSION, "codec": codec,
             "nonce": nonce_s.hex(), "auth_required": secret is not None}
    if secret is not None:
        reply["proof"] = _proof(secret, b"server", nonce_c, nonce_s,
                                transcript)
    _send_handshake(conn, _HELLO_SERVER, reply)
    marker, auth = _recv_handshake(conn)
    if marker != _AUTH_CLIENT:
        _refuse(conn, "protocol",
                f"unexpected handshake message {marker!r} "
                "(expected the client auth)")
    if secret is not None:
        expected = _proof(secret, b"client", nonce_s, nonce_c, transcript)
        if not hmac.compare_digest(str(auth.get("proof", "")), expected):
            _refuse(conn, "auth",
                    "cluster-secret mismatch: the client's HMAC proof "
                    f"failed verification; {_NO_SECRET_REMEDY}")
    _send_handshake(conn, _VERDICT, {"ok": True})
    return Negotiated(version=PROTOCOL_VERSION, codec=codec,
                      authenticated=secret is not None)
