"""Snapshot format: round-trips, incremental checkpoints, corruption.

Three promises of :mod:`repro.utils.snapshot`, each enforced over the
full ensemble registry (the ``CASES`` list of
:mod:`test_ensemble_equivalence`):

* **Round-trip exactness** — save → load reproduces replica state
  bitwise and every query/sample identically, for solo instances and
  stacked ensembles alike, through both the in-memory and the atomic
  file path.
* **Incremental checkpointing** — a snapshot of a half-ingested object,
  restored and ``merge``\\ d with a same-seed delta object that ingested
  the other half, equals full one-process ingestion: bitwise for
  integer-exact substrates (sign hashes, Mersenne-field recovery), to
  strict tolerance for irrational-coefficient substrates (the same split
  :mod:`test_merge_properties` pins down).
* **Corruption rejection** — every single-byte corruption, every strict
  truncation, and trailing garbage raise :class:`SnapshotError`
  (exhaustive per example, hypothesis supplying payload diversity —
  mirroring the transport property suite).

The writer streams raw frames: the file :func:`save_snapshot` writes is
byte-for-byte :func:`snapshot_bytes`, it makes no full-size copy of the
state, and zlib-flagged frames still load.  Files of earlier format
versions are refused before anything is unpickled, and a restore holds
one copy of the file.
"""

from __future__ import annotations

import json
import struct
import tracemalloc
import zlib

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from test_ensemble_equivalence import CASES, N, assert_samples_equal  # noqa: E402

from repro.sketch.countsketch import CountSketch  # noqa: E402
from repro.streams.generators import (  # noqa: E402
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.ensemble import build_ensemble  # noqa: E402
from repro.utils.snapshot import (  # noqa: E402
    SNAPSHOT_VERSION,
    SnapshotError,
    load_snapshot,
    object_from_snapshot,
    read_snapshot,
    save_snapshot,
    snapshot_bytes,
    snapshot_metadata,
)
from repro.utils.transport import (  # noqa: E402
    dumps_frames,
    encode_frames,
    frames_nbytes,
)

REPLICAS = 5

#: Cases whose merge is exact in integer arithmetic (sign-hash and
#: Mersenne-field substrates); the rest scale updates by irrational
#: coefficients, where merge re-associates float sums (last-ulp).
EXACT_MERGE = {"countsketch", "countmin", "ams", "perfect-l0", "rough-l0"}

#: The generic fallback ensemble refuses stream-sharded merging by design.
MERGE_CASES = [case for case in CASES if case.name != "cap-sampler-fallback"]


@pytest.fixture(scope="module")
def stream():
    """A cancellation-heavy turnstile stream over a skewed vector."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


def _assert_states_equal(left: dict, right: dict, context: str) -> None:
    assert left.keys() == right.keys(), context
    for key in left:
        np.testing.assert_array_equal(np.asarray(left[key]),
                                      np.asarray(right[key]),
                                      err_msg=f"{context}.{key}")


def _assert_query_equal(case, left_out, right_out, context: str) -> None:
    if case.returns_sample:
        assert_samples_equal(left_out, right_out, context)
    else:
        np.testing.assert_array_equal(np.asarray(left_out),
                                      np.asarray(right_out),
                                      err_msg=context)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_solo_instance_roundtrip(case, stream) -> None:
    """save → load reproduces a standalone instance exactly."""
    instance = case.factory(0)
    instance.update_stream(stream)
    restored, meta = object_from_snapshot(snapshot_bytes(instance))
    assert meta["snapshot_version"] == SNAPSHOT_VERSION
    assert meta["class"].endswith(type(instance).__qualname__)
    _assert_states_equal(case.solo_state(instance), case.solo_state(restored),
                         case.name)
    _assert_query_equal(case, case.solo_query(instance),
                        case.solo_query(restored), case.name)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_ensemble_roundtrip_through_file(case, stream, tmp_path) -> None:
    """save_snapshot → load_snapshot is exact for every stacked ensemble,
    and the streamed file is exactly the in-memory snapshot."""
    ensemble = build_ensemble([case.factory(seed) for seed in range(REPLICAS)])
    ensemble.update_stream(stream)
    path = tmp_path / f"{case.name}.rsnp"
    nbytes = save_snapshot(ensemble, path, extra={"case": case.name})
    assert nbytes == path.stat().st_size
    assert path.read_bytes() == snapshot_bytes(ensemble,
                                               extra={"case": case.name})
    restored, meta = read_snapshot(path, expected_type=type(ensemble))
    assert meta["extra"] == {"case": case.name}
    for replica in range(REPLICAS):
        _assert_states_equal(case.ensemble_state(ensemble, replica),
                             case.ensemble_state(restored, replica),
                             f"{case.name}[{replica}]")
        _assert_query_equal(case, case.ensemble_query(ensemble, replica),
                            case.ensemble_query(restored, replica),
                            f"{case.name}[{replica}]")


def test_save_makes_no_full_size_copy(tmp_path) -> None:
    """32 MiB of counters are written from the array itself: the traced
    peak stays under 1 MiB (a joined or compressed body would not)."""
    state = {"counters": np.random.default_rng(0).standard_normal(4 << 20)}
    path = tmp_path / "counters.rsnp"
    tracemalloc.start()
    try:
        save_snapshot(state, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"save_snapshot peaked at {peak / 2**20:.1f} MiB"
    restored = load_snapshot(path)
    np.testing.assert_array_equal(restored["counters"], state["counters"])


def _integer_batches():
    """Two disjoint integer-delta batch phases (merge-exact arithmetic)."""
    rng = np.random.default_rng(11)
    return [(rng.integers(0, N, size=90),
             rng.integers(-9, 10, size=90).astype(float))
            for _ in range(2)]


@pytest.mark.parametrize("case", MERGE_CASES, ids=lambda case: case.name)
def test_saved_base_plus_delta_is_incremental_checkpoint(case) -> None:
    """restore(checkpoint) . merge(delta) == uninterrupted full ingest."""
    (idx1, del1), (idx2, del2) = _integer_batches()
    seeds = range(3)

    base = build_ensemble([case.factory(seed) for seed in seeds])
    base.update_batch(idx1, del1)
    checkpoint = snapshot_bytes(base)

    delta = build_ensemble([case.factory(seed) for seed in seeds])
    delta.update_batch(idx2, del2)

    full = build_ensemble([case.factory(seed) for seed in seeds])
    full.update_batch(idx1, del1)
    full.update_batch(idx2, del2)

    restored, _ = object_from_snapshot(checkpoint)
    restored.merge(delta)

    for replica in range(3):
        left = case.ensemble_state(full, replica)
        right = case.ensemble_state(restored, replica)
        assert left.keys() == right.keys()
        for key in left:
            if case.name in EXACT_MERGE:
                np.testing.assert_array_equal(
                    np.asarray(left[key]), np.asarray(right[key]),
                    err_msg=f"{case.name}[{replica}].{key}")
            else:
                np.testing.assert_allclose(
                    np.asarray(left[key]), np.asarray(right[key]),
                    rtol=1e-12, atol=1e-12,
                    err_msg=f"{case.name}[{replica}].{key}")
        if case.name in EXACT_MERGE:
            _assert_query_equal(case, case.ensemble_query(full, replica),
                                case.ensemble_query(restored, replica),
                                f"{case.name}[{replica}]")


# ---------------------------------------------------------------------------
# Metadata, type guard, atomicity
# ---------------------------------------------------------------------------


def _zlib_snapshot(obj, extra: dict, version: int = SNAPSHOT_VERSION) -> bytes:
    """A snapshot with zlib-flagged frames, as earlier builds wrote them by
    default and negotiated worker links still send: the same prefix and
    metadata, with every frame of 512+ bytes deflated when that shrinks
    it."""
    meta = {"format": "repro-snapshot", "snapshot_version": version,
            "class": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "extra": extra}
    prefix = struct.pack(">4sB", b"RSNP", version)
    frames = [json.dumps(meta, sort_keys=True).encode("utf-8")]
    return (prefix + struct.pack(">I", zlib.crc32(prefix))
            + encode_frames(frames + dumps_frames(obj), compression="zlib"))


def _small_snapshot(seed: int, codec) -> bytes:
    sketch = CountSketch(8, 4, 2, seed=seed)
    rng = np.random.default_rng(seed)
    sketch.update_batch(rng.integers(0, 8, size=32),
                        rng.integers(-9, 10, size=32).astype(float))
    extra = {"sequence": int(seed)}
    if codec == "zlib":
        return _zlib_snapshot(sketch, extra)
    return snapshot_bytes(sketch, extra=extra)


def test_zlib_flagged_snapshot_loads_and_version_2_is_refused(tmp_path) -> None:
    """A zlib-flagged file of this format version restores to an object
    that answers alike; a version-2 zlib file of an earlier build is
    refused before its body is unpickled."""
    sketch = CountSketch(1024, 64, 5, seed=7)
    rng = np.random.default_rng(7)
    sketch.update_batch(rng.integers(0, 1024, size=4096),
                        rng.integers(-9, 10, size=4096).astype(float))
    blob = _zlib_snapshot(sketch, {"sequence": 12})
    assert len(blob) < frames_nbytes(dumps_frames(sketch)) // 2  # deflated
    path = tmp_path / "zlib.rsnp"
    path.write_bytes(blob)
    restored, meta = read_snapshot(path, expected_type=CountSketch)
    assert meta["extra"] == {"sequence": 12}
    np.testing.assert_array_equal(restored.estimate_all(),
                                  sketch.estimate_all())
    for index in (0, 5, 1023):
        assert restored.estimate(index) == sketch.estimate(index)

    earlier = tmp_path / "earlier.rsnp"
    earlier.write_bytes(_zlib_snapshot(_LoadRecorder(), {}, version=2))
    _LOADED.clear()
    with pytest.raises(SnapshotError, match="version 2"):
        load_snapshot(earlier)
    assert _LOADED == []


def test_metadata_inspection_without_unpickling() -> None:
    blob = _small_snapshot(3, "zlib")
    meta = snapshot_metadata(blob)
    assert meta["format"] == "repro-snapshot"
    assert meta["snapshot_version"] == SNAPSHOT_VERSION
    assert meta["class"].endswith("CountSketch")
    assert meta["extra"] == {"sequence": 3}


def test_expected_type_mismatch_is_refused() -> None:
    from repro.sketch.ams import AMSSketch

    blob = _small_snapshot(3, None)
    with pytest.raises(SnapshotError, match="not the expected"):
        object_from_snapshot(blob, expected_type=AMSSketch)


def test_non_json_extra_is_refused_at_save_time() -> None:
    sketch = CountSketch(8, 4, 2, seed=0)
    with pytest.raises(SnapshotError, match="JSON"):
        snapshot_bytes(sketch, extra={"bad": object()})
    with pytest.raises(SnapshotError, match="dict"):
        snapshot_bytes(sketch, extra=[1, 2])


def test_save_leaves_no_temporary_files(tmp_path) -> None:
    """The atomic-write staging file never survives a successful save."""
    path = tmp_path / "sketch.rsnp"
    save_snapshot(CountSketch(8, 4, 2, seed=0), path)
    save_snapshot(CountSketch(8, 4, 2, seed=1), path)  # overwrite in place
    assert [entry.name for entry in tmp_path.iterdir()] == ["sketch.rsnp"]
    assert isinstance(load_snapshot(path, expected_type=CountSketch),
                      CountSketch)


#: Tags appended by :func:`_record_load` whenever a recorder is unpickled.
_LOADED: list = []


def _record_load(tag):
    _LOADED.append(tag)
    return tag


class _LoadRecorder:
    """Unpickles to ``_record_load("loaded")`` — a visible side effect."""

    def __reduce__(self):
        return (_record_load, ("loaded",))


@pytest.mark.parametrize("version", [1, 2, 3])
def test_earlier_version_is_refused_before_unpickling(tmp_path,
                                                      version) -> None:
    """A version-1, -2 or -3 file fails the header check; its body never
    loads.

    Version-1 ensembles reference the deleted array-backend module,
    version-2 native ensembles carry the replica instances that format 3
    dropped, and version-3 standalone sketches and samplers keep the
    arrays that format 4 moved into their one-replica ensembles, so the
    header check must refuse them with a :class:`SnapshotError` naming the
    version instead of failing inside pickle or restoring an object of the
    wrong layout.
    """
    path = tmp_path / "recorder.rsnp"
    save_snapshot(_LoadRecorder(), path)
    _LOADED.clear()
    assert load_snapshot(path) == "loaded"
    assert _LOADED == ["loaded"]
    _LOADED.clear()

    data = bytearray(path.read_bytes())
    assert data[4] == SNAPSHOT_VERSION == 4
    data[4] = version
    data[5:9] = struct.pack(">I", zlib.crc32(bytes(data[:5])))
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match=f"version {version}"):
        load_snapshot(path)
    assert _LOADED == []


def test_restore_holds_one_copy_of_the_file(tmp_path) -> None:
    """A 32 MiB snapshot restores within 40 MiB of traced memory (it
    peaked at three times the file when the read, the header slice, each
    frame and each buffer were copied), into a writable array."""
    state = np.random.default_rng(3).standard_normal(1 << 22)
    path = tmp_path / "big.rsnp"
    save_snapshot(state, path)
    tracemalloc.start()
    try:
        restored = load_snapshot(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, f"restore peaked at {peak / 2**20:.1f} MiB"
    assert restored.flags.writeable and restored.flags.aligned
    np.testing.assert_array_equal(restored, state)
    restored += 1.0


def test_writable_snapshot_buffer_restores_aligned_arrays() -> None:
    """Frames decoded from a writable buffer are views at arbitrary
    offsets; an unaligned float64 view would sum in 8192-element blocks and
    round differently, so such buffers are copied, not used in place."""
    state = np.random.default_rng(5).standard_normal(3 * 8192 + 5)
    for pad in range(8):
        blob = bytearray(snapshot_bytes(state, extra={"pad": "x" * pad}))
        restored = object_from_snapshot(blob)[0]
        assert restored.flags.aligned and restored.flags.writeable
        assert restored.sum() == state.sum()


def test_loading_non_snapshot_bytes_is_refused(tmp_path) -> None:
    with pytest.raises(SnapshotError, match="truncated"):
        object_from_snapshot(b"RS")
    with pytest.raises(SnapshotError):
        object_from_snapshot(b"\x00" * 64)
    missing = tmp_path / "never-written.rsnp"
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(missing)


# ---------------------------------------------------------------------------
# Corruption properties (exhaustive per example, mirroring the transport)
# ---------------------------------------------------------------------------

_CODECS = st.sampled_from([None, "zlib"])


class TestCorruption:
    @given(seed=st.integers(0, 2**20), codec=_CODECS)
    @settings(max_examples=6, deadline=None)
    def test_every_single_byte_corruption_raises(self, seed, codec) -> None:
        """No byte of a snapshot is outside a checksum's protection."""
        blob = _small_snapshot(seed, codec)
        for offset in range(len(blob)):
            for mask in (0x01, 0x80):
                corrupted = bytearray(blob)
                corrupted[offset] ^= mask
                with pytest.raises(SnapshotError):
                    object_from_snapshot(bytes(corrupted))

    @given(seed=st.integers(0, 2**20), codec=_CODECS)
    @settings(max_examples=6, deadline=None)
    def test_every_truncation_raises(self, seed, codec) -> None:
        blob = _small_snapshot(seed, codec)
        for cut in range(len(blob)):
            with pytest.raises(SnapshotError):
                object_from_snapshot(blob[:cut])

    @given(seed=st.integers(0, 2**20), codec=_CODECS,
           tail=st.binary(min_size=1, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_trailing_garbage_raises(self, seed, codec, tail) -> None:
        blob = _small_snapshot(seed, codec)
        with pytest.raises(SnapshotError):
            object_from_snapshot(blob + tail)

    @given(seed=st.integers(0, 2**20), codec=_CODECS)
    @settings(max_examples=6, deadline=None)
    def test_metadata_inspection_rejects_corruption_too(self, seed,
                                                        codec) -> None:
        """``snapshot_metadata`` (safe on untrusted bytes) is as strict."""
        blob = _small_snapshot(seed, codec)
        for offset in range(0, len(blob), 7):
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0x10
            with pytest.raises(SnapshotError):
                snapshot_metadata(bytes(corrupted))
