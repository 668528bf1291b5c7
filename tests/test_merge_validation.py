"""Merge validation: mismatched peers are refused with state untouched.

Merging snapshots (or shards) that were built from different seeds or
configurations must raise a clear :class:`InvalidParameterError` — and,
critically, must raise *before the first mutation*.  The historical
hazard is multi-part merges (substrate banks, per-cell recovery
structures, per-level stacks): a mid-loop validation failure would leave
the earlier parts already merged, silently corrupting the survivor.  The
``check_mergeable`` protocol (validate everything, recursively, mutate
nothing) closes that hole; this suite proves it by pickling the left
operand before each refused merge and asserting the bytes are unchanged
after — a bitwise no-mutation witness over the full ensemble registry
plus the recovery structures where the bug class originally lived.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N

from repro.exceptions import InvalidParameterError
from repro.sketch.countmin import CountMin
from repro.sketch.countsketch import CountSketch
from repro.sketch.sparse_recovery import KSparseRecovery, OneSparseRecovery
from repro.utils.ensemble import build_ensemble

#: The generic fallback ensemble refuses every merge by design; there is
#: no "mismatched peer" distinction to probe.
MERGE_CASES = [case for case in CASES if case.name != "cap-sampler-fallback"]


def _ingested(factory, seeds, batches):
    ensemble = build_ensemble([factory(seed) for seed in seeds])
    for indices, deltas in batches:
        ensemble.update_batch(indices, deltas)
    return ensemble


def _batches(count: int = 2):
    rng = np.random.default_rng(23)
    return [(rng.integers(0, N, size=60),
             rng.integers(-9, 10, size=60).astype(float))
            for _ in range(count)]


@pytest.mark.parametrize("case", MERGE_CASES, ids=lambda case: case.name)
def test_mismatched_seed_peer_is_refused_without_mutation(case) -> None:
    """A different-build peer raises; the left operand stays bit-identical."""
    batches = _batches()
    left = _ingested(case.factory, range(3), batches)
    alien = _ingested(case.factory, range(50, 53), batches)

    before = pickle.dumps(left)
    with pytest.raises(InvalidParameterError):
        left.merge(alien)
    assert pickle.dumps(left) == before, \
        f"{case.name}: refused merge mutated the left operand"


@pytest.mark.parametrize("case", MERGE_CASES, ids=lambda case: case.name)
def test_matched_peer_still_merges(case) -> None:
    """The validation layer must not refuse legitimate same-seed shards."""
    first, second = _batches()
    left = _ingested(case.factory, range(3), [first])
    right = _ingested(case.factory, range(3), [second])
    assert left.merge(right) is left


def test_wrong_type_peer_names_both_types() -> None:
    sketch = CountSketch(N, 8, 3, seed=1)
    with pytest.raises(InvalidParameterError,
                       match="CountSketch.*CountMin"):
        sketch.merge(CountMin(N, 8, 3, seed=1))


def test_shape_mismatch_error_names_the_parameter() -> None:
    sketch = CountSketch(N, 8, 3, seed=1)
    with pytest.raises(InvalidParameterError, match="shape"):
        sketch.merge(CountSketch(N, 16, 3, seed=1))


def test_countmin_merge_is_linear_and_validated() -> None:
    """The (new) CountMin merge adds tables; mismatched seeds refuse."""
    (idx1, del1), (idx2, del2) = _batches()
    left = CountMin(N, 8, 3, seed=4)
    left.update_batch(idx1, np.abs(del1))
    right = CountMin(N, 8, 3, seed=4)
    right.update_batch(idx2, np.abs(del2))
    full = CountMin(N, 8, 3, seed=4)
    full.update_batch(idx1, np.abs(del1))
    full.update_batch(idx2, np.abs(del2))
    assert left.merge(right) is left
    np.testing.assert_array_equal(left._ensemble._table[0],
                                  full._ensemble._table[0])
    np.testing.assert_array_equal(left.estimate_all(), full.estimate_all())

    alien = CountMin(N, 8, 3, seed=5)
    before = pickle.dumps(left)
    with pytest.raises(InvalidParameterError, match="bucket hash"):
        left.merge(alien)
    assert pickle.dumps(left) == before


# ---------------------------------------------------------------------------
# The recovery structures where the partial-mutation bug class lived
# ---------------------------------------------------------------------------


def _one_sparse(seed: int, updates) -> OneSparseRecovery:
    recovery = OneSparseRecovery(seed=seed)
    for index, delta in updates:
        recovery.update(index, delta)
    return recovery


def test_one_sparse_mismatched_fingerprint_leaves_state_untouched() -> None:
    """Historically ``merge`` summed weights *before* fingerprint
    validation could raise — a refused merge had already corrupted the
    aggregates.  Validation now runs first."""
    left = _one_sparse(7, [(3, 2.0), (9, 1.0)])
    alien = _one_sparse(8, [(5, 4.0)])
    before = pickle.dumps(left)
    with pytest.raises(InvalidParameterError):
        left.merge(alien)
    assert pickle.dumps(left) == before


def test_k_sparse_mismatched_peer_leaves_every_cell_untouched() -> None:
    """A mid-grid validation failure must not leave earlier cells merged."""
    updates = [(1, 3.0), (4, -2.0), (11, 5.0)]
    left = KSparseRecovery(N, 4, seed=3)
    alien = KSparseRecovery(N, 4, seed=9)
    for index, delta in updates:
        left.update(index, delta)
        alien.update(index, delta)
    before = pickle.dumps(left)
    with pytest.raises(InvalidParameterError):
        left.merge(alien)
    assert pickle.dumps(left) == before
