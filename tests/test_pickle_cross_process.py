"""Cross-process pickle round-trips for the table-consuming sketches.

``CountSketch``, ``AMSSketch`` and ``CountMin`` drop their per-coordinate
hash tables in ``__getstate__`` (they are re-derived lazily, in ``cached``
mode through the process-wide table cache).  The contract this suite pins
down is that an unpickled sketch in a **fresh process** — where the table
cache is cold and the lazy rebuild actually runs — re-derives its tables
bit-identically and keeps answering queries and absorbing updates exactly
like the original, in every ``table_mode``.

Each case ingests a stream, pickles the sketch, and hands the bytes to a
subprocess that resumes ingestion and reports digests of the counter
table, the re-derived hash tables, and the query answers; the parent
computes the same digests on an uninterrupted run and compares them
byte for byte.

A second group pins the ``__setstate__`` hardening: states that *do*
carry table arrays (snapshots from builds whose ``__getstate__`` kept
them) must have the tables nulled on restore so the deterministic lazy
rebuild is always the code path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.sketch.ams import AMSSketch
from repro.sketch.countmin import CountMin
from repro.sketch.countsketch import CountSketch
from repro.utils.table_cache import TABLE_MODES

N = 512
SEED = 20240917

SKETCH_FACTORIES = {
    "countsketch": lambda mode: CountSketch(N, 32, 5, seed=SEED,
                                            table_mode=mode),
    "ams": lambda mode: AMSSketch(N, width=12, depth=5, seed=SEED,
                                  table_mode=mode),
    "countmin": lambda mode: CountMin(N, 32, 5, seed=SEED, table_mode=mode),
}

#: Runs inside the child: unpickle, resume ingestion with the replay
#: batch, and report digests of every observable surface.  Import of
#: ``repro`` happens fresh, so the table cache is guaranteed cold.
_CHILD_SCRIPT = """
import hashlib, json, pickle, sys
import numpy as np

payload = pickle.load(sys.stdin.buffer)
sketch = pickle.loads(payload["pickle"])
indices = np.asarray(payload["indices"], dtype=np.int64)
deltas = np.asarray(payload["deltas"], dtype=float)
sketch.update_batch(indices, deltas)
print(json.dumps(_digests(sketch)))
"""


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _digests(sketch) -> dict:
    """Digest every observable surface: counters, tables, query answers."""
    out = {}
    ensemble = sketch._ensemble
    if isinstance(sketch, CountSketch):
        out["table"] = _digest(ensemble._table[0])
        out["estimates"] = _digest(sketch.estimate_all())
        ensemble._ensure_tables()
        if ensemble._bucket_of is not None:
            out["bucket_of"] = _digest(ensemble._bucket_of[0])
            out["sign_of"] = _digest(ensemble._sign_of[0])
    elif isinstance(sketch, AMSSketch):
        out["counters"] = _digest(ensemble._counters[0])
        out["l2"] = repr(sketch.estimate_l2())
        ensemble._ensure_signs()
        if ensemble._signs is not None:
            out["signs"] = _digest(ensemble._signs[0])
    else:
        out["table"] = _digest(ensemble._table[0])
        out["estimates"] = _digest(sketch.estimate_all())
        ensemble._ensure_tables()
        if ensemble._bucket_of is not None:
            out["bucket_of"] = _digest(ensemble._bucket_of[0])
    return out


# The child re-creates the digest helpers from their source so the
# subprocess needs nothing beyond the installed package and the payload.
import inspect  # noqa: E402

_DIGEST_SOURCE = "\n".join([
    inspect.getsource(_digest),
    inspect.getsource(_digests),
])


def _streams():
    rng = np.random.default_rng(7)
    first = (rng.integers(0, N, size=400), rng.normal(size=400))
    second = (rng.integers(0, N, size=300), rng.normal(size=300))
    return first, second


@pytest.mark.parametrize("mode", TABLE_MODES)
@pytest.mark.parametrize("kind", sorted(SKETCH_FACTORIES))
def test_unpickled_sketch_matches_bitwise_in_fresh_process(kind, mode):
    """Cold-cache re-derivation in a subprocess is bit-identical."""
    (idx1, del1), (idx2, del2) = _streams()

    reference = SKETCH_FACTORIES[kind](mode)
    reference.update_batch(idx1, del1)
    pickled = pickle.dumps(reference)
    reference.update_batch(idx2, del2)
    expected = _digests(reference)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    script = ("import hashlib, numpy as np\n"
              "from repro.sketch.ams import AMSSketch\n"
              "from repro.sketch.countsketch import CountSketch\n"
              f"{_DIGEST_SOURCE}\n{_CHILD_SCRIPT}")
    child = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps({
            "pickle": pickled,
            "indices": idx2.tolist(),
            "deltas": del2.tolist(),
        }),
        capture_output=True, env=env, timeout=120, check=True)
    got = json.loads(child.stdout.decode())
    assert got == expected


@pytest.mark.parametrize("kind", sorted(SKETCH_FACTORIES))
def test_setstate_nulls_stale_tables(kind):
    """States carrying table arrays (older builds) are nulled on restore."""
    sketch = SKETCH_FACTORIES[kind]("private")
    idx, deltas = _streams()[0]
    sketch.update_batch(idx, deltas)
    expected = _digests(sketch)

    # The tables and the pickling rule belong to the view's ensemble.
    ensemble = sketch._ensemble
    state = ensemble.__getstate__()
    # Forge a snapshot from a build that kept the tables, with *stale*
    # contents: restore must discard them, not trust them.
    for name in ("_bucket_of", "_sign_of", "_signs"):
        if name in state:
            state[name] = np.zeros((2, 2))
    restored = copy.copy(sketch)
    restored._ensemble = type(ensemble).__new__(type(ensemble))
    restored._ensemble.__setstate__(state)
    for name in ("_bucket_of", "_sign_of", "_signs"):
        if name in state:
            assert getattr(restored._ensemble, name) is None
    assert _digests(restored) == expected
