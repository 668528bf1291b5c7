"""Table-mode equivalence: cached vs private vs blocked, bit for bit.

The tentpole guarantee of the keyed table cache
(:mod:`repro.utils.table_cache`): the table-materialisation mode is a pure
performance knob.  For every registered ensemble case — simple sketches,
composite samplers, oracle and sketch backends — and every execution
back-end, running under ``cached`` (shared tables) or ``blocked`` (never
materialised) produces state and query/sample outputs **bitwise equal** to
``private`` (the pre-cache per-instance behaviour).

The mode flows to composite samplers through the process default
(:func:`repro.utils.table_cache.table_mode` context manager), exactly how
production callers select it, so these tests also pin down the
construction-time latching.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N, assert_samples_equal

from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import replica_sharded_ensemble
from repro.utils.table_cache import cache_clear, table_mode

REPLICAS = 6
ALTERNATE_MODES = ("cached", "blocked")

#: Ensembles that survive pickling to worker processes (mirrors the
#: MP_CASE_NAMES gate of test_sharding_equivalence.py).
MP_CASE_NAMES = ("countsketch", "pstable-cauchy", "jw18-sketch", "jw18-oracle",
                 "perfect-l0", "precision")


@pytest.fixture(scope="module")
def stream():
    """The same cancellation-heavy turnstile stream the equivalence suite
    uses (zipfian vector, churn 1.5)."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    yield
    cache_clear()


def _assert_query_equal(case, left, right, context):
    if case.returns_sample:
        assert_samples_equal(left, right, context)
    else:
        np.testing.assert_array_equal(np.asarray(left), np.asarray(right),
                                      err_msg=context)


def _assert_state_equal(reference, state, context):
    assert reference.keys() == state.keys()
    for key in reference:
        np.testing.assert_array_equal(
            np.asarray(reference[key]), np.asarray(state[key]),
            err_msg=f"{context}.{key}")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@pytest.mark.parametrize("mode", ALTERNATE_MODES)
def test_standalone_modes_match_private(case, mode, stream) -> None:
    """Per-instance ingest and queries are mode-independent bitwise."""
    with table_mode("private"):
        reference = [case.factory(seed) for seed in range(REPLICAS)]
    for instance in reference:
        instance.update_stream(stream)
    with table_mode(mode):
        candidates = [case.factory(seed) for seed in range(REPLICAS)]
    for instance in candidates:
        instance.update_stream(stream)
    for seed, (left, right) in enumerate(zip(reference, candidates)):
        _assert_state_equal(case.solo_state(left), case.solo_state(right),
                            f"{case.name}[{mode}][{seed}]")
        _assert_query_equal(case, case.solo_query(left), case.solo_query(right),
                            f"{case.name}[{mode}][{seed}]")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@pytest.mark.parametrize("mode", ALTERNATE_MODES)
def test_ensemble_modes_match_private(case, mode, stream) -> None:
    """Stacked-ensemble ingest and per-replica queries are mode-independent."""
    with table_mode("private"):
        reference = build_ensemble([case.factory(seed)
                                    for seed in range(REPLICAS)])
    assert isinstance(reference, case.expected_ensemble)
    reference.update_stream(stream)
    with table_mode(mode):
        candidate = build_ensemble([case.factory(seed)
                                    for seed in range(REPLICAS)])
    assert type(candidate) is type(reference)
    candidate.update_stream(stream)
    for replica in range(REPLICAS):
        _assert_state_equal(case.ensemble_state(reference, replica),
                            case.ensemble_state(candidate, replica),
                            f"{case.name}[{mode}][{replica}]")
        _assert_query_equal(case,
                            case.ensemble_query(reference, replica),
                            case.ensemble_query(candidate, replica),
                            f"{case.name}[{mode}][{replica}]")


def _sharded_run(case, mode, stream, execution):
    with table_mode(mode):
        instances = [case.factory(seed) for seed in range(REPLICAS)]
    return replica_sharded_ensemble(
        instances, stream,
        config=ExecutionConfig(num_shards=2, execution=execution,
                               processes=2 if execution != "serial" else None))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@pytest.mark.parametrize("execution", ("serial", "threaded"))
@pytest.mark.parametrize("mode", ALTERNATE_MODES)
def test_sharded_modes_match_private(case, execution, mode, stream) -> None:
    """Sharded execution (in-process back-ends) is mode-independent for
    every registered case."""
    reference = _sharded_run(case, "private", stream, execution)
    candidate = _sharded_run(case, mode, stream, execution)
    assert type(candidate) is type(reference)
    for replica in range(REPLICAS):
        _assert_state_equal(case.ensemble_state(reference, replica),
                            case.ensemble_state(candidate, replica),
                            f"{case.name}[{execution}][{mode}][{replica}]")
        _assert_query_equal(case,
                            case.ensemble_query(reference, replica),
                            case.ensemble_query(candidate, replica),
                            f"{case.name}[{execution}][{mode}][{replica}]")


@pytest.mark.parametrize("case",
                         [c for c in CASES if c.name in MP_CASE_NAMES],
                         ids=lambda case: case.name)
@pytest.mark.parametrize("mode", ALTERNATE_MODES)
def test_sharded_modes_match_private_multiprocessing(case, mode, stream) -> None:
    """Worker-process execution is mode-independent: forked workers
    repopulate their own caches (``cached``) or stream their tables
    (``blocked``) and still reproduce the private-mode bits."""
    reference = _sharded_run(case, "private", stream, "serial")
    candidate = _sharded_run(case, mode, stream, "multiprocessing")
    assert type(candidate) is type(reference)
    for replica in range(REPLICAS):
        _assert_state_equal(case.ensemble_state(reference, replica),
                            case.ensemble_state(candidate, replica),
                            f"{case.name}[mp][{mode}][{replica}]")
        _assert_query_equal(case,
                            case.ensemble_query(reference, replica),
                            case.ensemble_query(candidate, replica),
                            f"{case.name}[mp][{mode}][{replica}]")


def test_mixed_mode_members_are_rejected_cleanly() -> None:
    """An ensemble cannot silently mix table modes across members."""
    from repro.exceptions import InvalidParameterError
    from repro.sketch.countsketch import CountSketch, CountSketchEnsemble

    members = [CountSketch(N, 16, 5, seed=0, table_mode="cached"),
               CountSketch(N, 16, 5, seed=1, table_mode="blocked")]
    with pytest.raises(InvalidParameterError):
        CountSketchEnsemble(members)


def test_default_mode_is_cached() -> None:
    """The process default is ``cached`` — the shared-table fast path —
    and constructors latch it at build time."""
    from repro.sketch.countsketch import CountSketch
    from repro.utils.table_cache import default_table_mode

    assert default_table_mode() == "cached"
    assert CountSketch(N, 16, 5, seed=0).table_mode == "cached"
    with table_mode("blocked"):
        assert CountSketch(N, 16, 5, seed=0).table_mode == "blocked"
