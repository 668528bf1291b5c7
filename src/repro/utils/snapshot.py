"""Versioned, CRC-checked snapshots of sketches, samplers, and ensembles.

Everything the library builds — single sketches, replica ensembles, level
stacks, complete samplers — already pickles into *table-independent*
state: ``__getstate__`` drops the derived hash/sign tables and keeps only
the defining coefficients, so an unpickled object re-derives its tables
bit-identically in any process (see :mod:`repro.utils.table_cache`).
This module turns that property into a durable on-disk format with the
same integrity discipline as the socket transport: every byte of a
snapshot is covered by a CRC, and any single-byte corruption or
truncation is refused with :class:`SnapshotError` instead of surfacing
as a pickle error or a silently wrong object.

Snapshot format version 2 (integers big-endian)::

    MAGIC (4s = b"RSNP") | FORMAT_VERSION (B) | header_crc32 (I)
    then one transport wire message (:func:`repro.utils.transport.encode_parts`):
        frame 0:  UTF-8 JSON metadata {"format": "repro-snapshot",
                  "snapshot_version": 2, "class": "<module>.<qualname>",
                  "extra": {...caller metadata...}}
        frame 1:  pickle protocol-5 body of the object
        frames 2+: out-of-band pickle buffers (large numpy state)

    ``header_crc32`` covers the 5 magic/version bytes; the transport
    message carries its own header CRC plus a CRC per frame, so the
    metadata, the pickle stream, and every buffer byte are all checked.
    The metadata frame is JSON — a snapshot's identity (format version,
    object class, caller extras such as a service ingest sequence) can be
    inspected with :func:`snapshot_metadata` without unpickling anything.

    Version 2 differs from version 1 only in the pickled objects:
    version-1 ensembles reference the deleted array-backend module, so
    the header check refuses them before anything is unpickled.

Raw frames
    Frames are written raw (transport flag 0).  What a snapshot carries is
    mostly counters of scaled vectors ``x_i / e_i^{1/p}``, full-entropy
    floats that deflate barely at all: on a ``PerfectLpSampler(1024, 3)``
    after 56 ingest batches, zlib level 6 took 0.80 s to shrink 19.2 MB of
    counters to 16.8 MB, the bulk of a ~1.1 s checkpoint.  Readers still
    accept zlib-flagged frames, the default of earlier builds, so every
    version-2 file those wrote still loads; the decompressed size is
    bounded before decompression (zip-bomb guard inherited from the
    transport).

Incremental checkpointing
    Snapshots compose through the ``merge`` protocol: linear-sketch state
    is entrywise-additive, so ``load_snapshot(base).merge(delta)`` *is*
    the checkpoint-plus-delta object, bit-identical to having ingested
    the full stream in one process.  The sampler service
    (:mod:`repro.service.sampler_service`) relies on exactly this for its
    kill/restore guarantee.

Trust model
    Loading a snapshot unpickles it, and unpickling attacker-controlled
    bytes is arbitrary code execution — the CRCs detect *accidents*
    (torn writes, bit rot, truncated copies), not tampering.  Load
    snapshots only from filesystems with the same trust level as the
    code itself, exactly the posture the distributed backend documents
    for its post-handshake frames (see :mod:`repro.utils.coordinator`).
    ``extra`` metadata is JSON, never pickle, so *inspection* via
    :func:`snapshot_metadata` is safe on untrusted files.

Writes are streamed and atomic: :func:`save_snapshot` writes the frame
headers and the pickle's out-of-band buffer views straight into a
same-directory temporary file — one pickle, one CRC pass and one write,
with no full-size copy of the state — fsyncs, then ``os.replace``\\ s it
over the target, so a crash mid-write leaves either the old snapshot or
the new one — never a torn file (the load-side CRCs would catch a torn
file anyway; atomicity keeps the *previous* checkpoint available instead
of merely detecting the loss of the new one).  Because the buffers are
read from the live arrays while the file is written, the object must not
be mutated during the call.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from typing import Optional

from repro.exceptions import ReproError
from repro.utils.transport import (
    TransportError,
    decode_frames,
    dumps_frames,
    encode_parts,
    loads_frames,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "load_snapshot",
    "object_from_snapshot",
    "read_snapshot",
    "save_snapshot",
    "snapshot_bytes",
    "snapshot_metadata",
]

#: On-disk format version emitted and accepted by this build.
SNAPSHOT_VERSION = 2

_MAGIC = b"RSNP"  # "repro snapshot"
_PREFIX = struct.Struct(">4sB")       # magic, format version
_PREFIX_CRC = struct.Struct(">I")     # crc32 over the prefix bytes
_FORMAT_NAME = "repro-snapshot"


class SnapshotError(ReproError):
    """A snapshot is corrupted, truncated, or not a snapshot at all.

    Raised for every integrity failure — bad magic, unsupported format
    version, CRC mismatch anywhere in the payload, malformed metadata —
    so callers can treat "this checkpoint is unusable" as one condition
    regardless of which byte went bad.
    """


def _qualified_name(obj: object) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _snapshot_parts(obj: object, extra: Optional[dict]) -> list:
    """The snapshot of ``obj`` as a list of bytes-like parts.

    The prefix with its CRC, then the transport parts of the metadata
    frame and the pickle frames.  The buffer parts are views of ``obj``'s
    arrays, not copies, and their CRCs are taken now: a mutation of
    ``obj`` before the parts are written makes them disagree.
    """
    if extra is not None and not isinstance(extra, dict):
        raise SnapshotError(
            f"snapshot extra metadata must be a dict, got "
            f"{type(extra).__name__}")
    meta = {
        "format": _FORMAT_NAME,
        "snapshot_version": SNAPSHOT_VERSION,
        "class": _qualified_name(obj),
        "extra": dict(extra) if extra else {},
    }
    try:
        meta_frame = json.dumps(meta, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"snapshot extra metadata is not JSON-serialisable: "
            f"{error}") from error
    prefix = _PREFIX.pack(_MAGIC, SNAPSHOT_VERSION)
    return ([prefix + _PREFIX_CRC.pack(zlib.crc32(prefix))]
            + encode_parts([meta_frame] + dumps_frames(obj)))


def snapshot_bytes(obj: object, *, extra: Optional[dict] = None) -> bytes:
    """Serialise ``obj`` into one self-checking snapshot byte string.

    ``extra`` is caller metadata (JSON-serialisable dict) stored in the
    metadata frame — e.g. the sampler service records its ingest
    sequence number so a restore knows which deltas to replay.  The
    in-memory twin of :func:`save_snapshot` (the same bytes that function
    writes), used for checkpoint round-trips that never touch disk and by
    the corruption property suite.
    """
    return b"".join(_snapshot_parts(obj, extra))


def _split_snapshot(data: bytes) -> list[bytes]:
    """Verify the outer prefix and return the decoded transport frames."""
    header_size = _PREFIX.size + _PREFIX_CRC.size
    if len(data) < header_size:
        raise SnapshotError(
            f"snapshot truncated inside its header "
            f"({len(data)}/{header_size} bytes)")
    magic, version = _PREFIX.unpack_from(data)
    (prefix_crc,) = _PREFIX_CRC.unpack_from(data, _PREFIX.size)
    if zlib.crc32(data[:_PREFIX.size]) != prefix_crc:
        raise SnapshotError("snapshot header failed its checksum "
                            "(corrupted on disk or in transit)")
    if magic != _MAGIC:
        raise SnapshotError(
            f"bad snapshot magic {magic!r} (expected {_MAGIC!r}); "
            "this is not a repro snapshot")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version} "
            f"(this build reads version {SNAPSHOT_VERSION})")
    try:
        frames = decode_frames(data[header_size:])
    except TransportError as error:
        raise SnapshotError(f"snapshot payload corrupted: {error}") from error
    if not frames:
        raise SnapshotError("snapshot carries no frames")
    return frames


def _parse_metadata(meta_frame: bytes) -> dict:
    try:
        meta = json.loads(bytes(meta_frame).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(
            f"snapshot metadata frame is not valid JSON: {error}") from error
    if not isinstance(meta, dict) or meta.get("format") != _FORMAT_NAME:
        raise SnapshotError("snapshot metadata frame does not describe a "
                            f"{_FORMAT_NAME} payload")
    return meta


def snapshot_metadata(data: bytes) -> dict:
    """The metadata dict of an in-memory snapshot, without unpickling.

    Safe on untrusted bytes: only the CRC-checked JSON frame is parsed;
    the pickle body is never touched.
    """
    return _parse_metadata(_split_snapshot(data)[0])


def _resolve_recorded_class(qualified: str) -> Optional[type]:
    """Best-effort lookup of a metadata class name, import side-effect free.

    Only modules that are *already imported* are consulted — resolving
    untrusted metadata must never trigger an import.  Returns ``None``
    when the name cannot be resolved that way (the caller then falls back
    to the post-unpickle ``isinstance`` check).
    """
    module_name, _, qualname = qualified.rpartition(".")
    while module_name:
        module = sys.modules.get(module_name)
        if module is not None:
            target = module
            for part in qualname.split("."):
                target = getattr(target, part, None)
                if target is None:
                    return None
            return target if isinstance(target, type) else None
        # The class may be nested: walk the dot split leftwards.
        module_name, _, head = module_name.rpartition(".")
        qualname = f"{head}.{qualname}"
    return None


def object_from_snapshot(data: bytes, *,
                         expected_type: Optional[type] = None,
                         ) -> tuple[object, dict]:
    """Rebuild ``(obj, metadata)`` from :func:`snapshot_bytes` output.

    ``expected_type`` guards against loading the wrong kind of state
    (e.g. a service configured for a ``CountSketch`` handed an ensemble
    checkpoint): the check runs against the metadata's recorded class
    name *before* unpickling, then against the loaded object.
    """
    frames = _split_snapshot(data)
    meta = _parse_metadata(frames[0])
    if len(frames) < 2:
        raise SnapshotError("snapshot carries metadata but no object body")
    if expected_type is not None:
        recorded = _resolve_recorded_class(str(meta.get("class", "")))
        if recorded is not None and not issubclass(recorded, expected_type):
            raise SnapshotError(
                f"snapshot holds {meta.get('class')!r}, not the expected "
                f"{expected_type.__name__!r}")
    obj = loads_frames(frames[1:])
    if expected_type is not None and not isinstance(obj, expected_type):
        raise SnapshotError(
            f"snapshot holds {meta.get('class', type(obj).__name__)!r}, "
            f"not the expected {expected_type.__name__!r}")
    return obj, meta


def save_snapshot(obj: object, path, *,
                  extra: Optional[dict] = None) -> int:
    """Atomically write a snapshot of ``obj`` to ``path``; bytes written.

    The file holds exactly :func:`snapshot_bytes` of ``obj``, but its
    parts are streamed into a same-directory temporary file instead of
    joined first, so no full-size copy of the state is made.  The file
    is flushed and fsynced, then renamed over ``path`` — concurrent
    readers see either the previous snapshot or the complete new one.
    The out-of-band buffers are read from ``obj``'s live arrays during
    the write, so the caller must not mutate ``obj`` until this returns
    (the sampler service holds its state lock across the call).
    """
    parts = _snapshot_parts(obj, extra)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp_path = os.path.join(directory,
                            f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.writelines(parts)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as error:
        raise SnapshotError(
            f"cannot write snapshot to {path!r}: {error}") from error
    finally:
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return sum(memoryview(part).nbytes for part in parts)


def read_snapshot(path, *, expected_type: Optional[type] = None,
                  ) -> tuple[object, dict]:
    """Load ``(obj, metadata)`` from a snapshot file written by
    :func:`save_snapshot`."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SnapshotError(
            f"cannot read snapshot {os.fspath(path)!r}: {error}") from error
    return object_from_snapshot(data, expected_type=expected_type)


def load_snapshot(path, *, expected_type: Optional[type] = None) -> object:
    """Load just the object from a snapshot file (metadata discarded)."""
    obj, _ = read_snapshot(path, expected_type=expected_type)
    return obj
