"""Seed-for-seed equivalence of replica ensembles and standalone instances.

The replica-ensemble engine (:mod:`repro.utils.ensemble`) promises that
stacking ``R`` replicas and driving them through one shared ingest pass is
*bit-identical* — state and query/sample outputs — to constructing each
replica from the same seed and driving it separately.  This suite enforces
that promise for every registered native ensemble (and for the generic
fallback) on turnstile streams with cancellations.

The standalone sketches and samplers are one-replica views of these
ensembles, so each replica is compared both with the view of its seed and
with the single-sketch reference of ``tests/substrate_reference.py``,
which keeps the formulas the standalone classes ran before they became
views.  Classes that are not views are their own reference.

Float state is compared with ``np.testing.assert_array_equal`` (bitwise,
not approximate): the ensembles are engineered to run the *same* kernels
per replica — identical per-cell scatter order, identical gemv layouts —
so no tolerance is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core.cap_sampler import CapSampler
from repro.samplers.base import Sample
from repro.samplers.jw18_lp_sampler import JW18LpSampler, JW18LpSamplerEnsemble
from repro.samplers.l0_sampler import PerfectL0Sampler
from repro.samplers.precision_sampling import (
    PrecisionLpSampler,
    PrecisionLpSamplerEnsemble,
)
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countmin import CountMin, CountMinEnsemble
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.sketch.distinct import RoughL0Estimator
from repro.sketch.fp_estimator import (
    FpEstimator,
    FpEstimatorEnsemble,
    MaxStabilityFpEstimator,
)
from repro.sketch.pstable import PStableEnsemble, PStableSketch
from repro.streams.generators import (
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.utils import ensemble as ensemble_module
from repro.utils.ensemble import (
    LevelStackEnsemble,
    SamplerEnsemble,
    build_ensemble,
    ensemble_samples,
)
from repro.utils.table_cache import table_mode
from substrate_reference import (
    AMSReference,
    CountMinReference,
    CountSketchReference,
    FpEstimatorReference,
    JW18Reference,
    MaxStabilityReference,
    PrecisionReference,
    PStableReference,
)

N = 40
REPLICAS = 14


@pytest.fixture(scope="module")
def stream():
    """A cancellation-heavy turnstile stream over a skewed vector."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


def assert_samples_equal(left, right, context: str) -> None:
    """Bitwise comparison of two optional :class:`Sample` outcomes."""
    assert (left is None) == (right is None), context
    if left is None:
        return
    assert isinstance(left, Sample) and isinstance(right, Sample), context
    assert left.index == right.index, context
    assert left.value_estimate == right.value_estimate, context
    assert left.exact_value == right.exact_value, context
    assert left.weight == right.weight, context
    assert left.metadata == right.metadata, context


@dataclass(frozen=True)
class Case:
    """One ensemble-vs-standalone equivalence scenario."""

    name: str
    factory: Callable[[int], object]
    expected_ensemble: type
    #: state extractor for replica ``r`` of an ensemble (a view's state is
    #: replica 0 of its own ensemble)
    ensemble_state: Callable[[object, int], dict]
    #: query on a standalone instance or a reference
    solo_query: Callable[[object], object]
    #: query on replica ``r`` of the ensemble
    ensemble_query: Callable[[object, int], object]
    #: the single-sketch reference for a seed; ``None`` for classes that
    #: are not views, which are their own reference
    reference: Callable[[int], object] | None = None
    #: whether queries return Sample objects (field-wise comparison)
    returns_sample: bool = False

    def solo_state(self, instance) -> dict:
        """State of a standalone instance: a view's state is replica 0 of
        its own ensemble (classes that are not views report none)."""
        return self.ensemble_state(getattr(instance, "_ensemble", None), 0)


def _jw18_state(ensemble, r):
    if ensemble._exact:
        return {"scaled": ensemble._scaled_vectors[r]}
    group = ensemble._value_group
    return {
        "main": ensemble._main._table[r],
        "value": ensemble._value._table[r * group:(r + 1) * group],
        "ams": ensemble._ams._counters[r],
    }


def _fp_state(ensemble, r):
    if ensemble._exact:
        return {"vectors": ensemble._scaled_vectors[r]}
    reps = ensemble._repetitions
    return {"tables": ensemble._sketch._table[r * reps:(r + 1) * reps]}


def _countsketch_solo_queries(inst) -> np.ndarray:
    """``estimate_all`` and point queries, once per ensemble method below."""
    every = inst.estimate_all()
    points = [inst.estimate(index) for index in range(N)]
    return np.stack([every, every, points, points, points])


def _countsketch_ensemble_queries(ens, r) -> np.ndarray:
    """Every ensemble query path answered for member ``r``."""
    return np.stack([
        ens.estimate_all_member(r),
        ens.estimate_all_members()[r],
        [ens.estimate_members_at(slice(r, None), index)[0] for index in range(N)],
        [ens.estimate_members_at(np.asarray([0, r]), index)[1]
         for index in range(N)],
        [ens.estimate_member(r, index) for index in range(N)],
    ])


def _countmin_solo_queries(inst) -> np.ndarray:
    """``estimate_all`` and every point query of a standalone CountMin."""
    return np.stack([inst.estimate_all(),
                     [inst.estimate(index) for index in range(N)]])


def _countmin_ensemble_queries(ens, r) -> np.ndarray:
    """The matching per-member CountMin ensemble queries."""
    return np.stack([ens.estimate_all_member(r),
                     [ens.estimate_member(r, index) for index in range(N)]])


CASES = [
    Case(
        "countsketch",
        lambda s: CountSketch(N, 16, 5, seed=s),
        CountSketchEnsemble,
        lambda ens, r: {"table": ens._table[r]},
        _countsketch_solo_queries,
        _countsketch_ensemble_queries,
        lambda s: CountSketchReference(N, 16, 5, s),
    ),
    Case(
        "countmin",
        lambda s: CountMin(N, buckets=16, rows=5, seed=s),
        CountMinEnsemble,
        lambda ens, r: {"table": ens._table[r]},
        _countmin_solo_queries,
        _countmin_ensemble_queries,
        lambda s: CountMinReference(N, 16, 5, s),
    ),
    Case(
        "ams",
        lambda s: AMSSketch(N, width=8, depth=3, seed=s),
        AMSEnsemble,
        lambda ens, r: {"counters": ens._counters[r]},
        lambda inst: [inst.estimate_f2()] * 2,
        lambda ens, r: [ens.estimate_f2_member(r), ens.estimate_f2_members()[r]],
        lambda s: AMSReference(N, 8, 3, s),
    ),
    Case(
        "pstable-cauchy",
        lambda s: PStableSketch(N, 1.0, num_rows=24, seed=s),
        PStableEnsemble,
        lambda ens, r: {"state": ens._state[r]},
        lambda inst: inst.estimate_norm(),
        lambda ens, r: ens.estimate_norm_replica(r),
        lambda s: PStableReference(N, 1.0, 24, s),
    ),
    Case(
        "pstable-fractional",
        lambda s: PStableSketch(N, 1.5, num_rows=16, seed=s),
        PStableEnsemble,
        lambda ens, r: {"state": ens._state[r]},
        lambda inst: inst.estimate_norm(),
        lambda ens, r: ens.estimate_norm_replica(r),
        lambda s: PStableReference(N, 1.5, 16, s),
    ),
    Case(
        "fp-estimator-oracle",
        lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=6, seed=s,
                                          exact_recovery=True),
        FpEstimatorEnsemble,
        _fp_state,
        lambda inst: inst.estimate(),
        lambda ens, r: ens.estimate_replica(r),
        lambda s: MaxStabilityReference(N, 3.0, 6, s, exact_recovery=True),
    ),
    Case(
        "fp-estimator-sketch",
        lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=5, seed=s),
        FpEstimatorEnsemble,
        _fp_state,
        lambda inst: inst.estimate(),
        lambda ens, r: ens.estimate_replica(r),
        lambda s: MaxStabilityReference(N, 3.0, 5, s),
    ),
    Case(
        "jw18-sketch",
        lambda s: JW18LpSampler(N, 2.0, seed=s, value_instances=4),
        JW18LpSamplerEnsemble,
        _jw18_state,
        lambda inst: inst.sample(),
        lambda ens, r: ens.sample_replica(r),
        lambda s: JW18Reference(N, 2.0, s, value_instances=4),
        returns_sample=True,
    ),
    Case(
        "jw18-oracle",
        lambda s: JW18LpSampler(N, 2.0, seed=s, exact_recovery=True),
        JW18LpSamplerEnsemble,
        _jw18_state,
        lambda inst: inst.sample(),
        lambda ens, r: ens.sample_replica(r),
        lambda s: JW18Reference(N, 2.0, s, exact_recovery=True),
        returns_sample=True,
    ),
    Case(
        "precision",
        lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.25, seed=s),
        PrecisionLpSamplerEnsemble,
        lambda ens, r: {"sketch": ens._sketch._table[r],
                        "ams": ens._ams._counters[r]},
        lambda inst: inst.sample(),
        lambda ens, r: ens.sample_replica(r),
        lambda s: PrecisionReference(N, 2.0, 0.25, s),
        returns_sample=True,
    ),
    Case(
        "perfect-l0",
        lambda s: PerfectL0Sampler(N, sparsity=8, seed=s),
        LevelStackEnsemble,
        lambda ens, r: {},
        lambda inst: inst.sample(),
        lambda ens, r: ens.sample_replica(r),
        returns_sample=True,
    ),
    Case(
        "rough-l0",
        lambda s: RoughL0Estimator(N, sparsity=10, seed=s),
        LevelStackEnsemble,
        lambda ens, r: {},
        lambda inst: inst.estimate(),
        lambda ens, r: ens.replicas[r].estimate(),
    ),
    Case(
        "cap-sampler-fallback",
        lambda s: CapSampler(N, 9.0, 2.0, seed=s, num_repetitions=4),
        SamplerEnsemble,
        lambda ens, r: {},
        lambda inst: inst.sample(),
        lambda ens, r: ens.sample_replica(r),
        returns_sample=True,
    ),
]


def _assert_state_equal(left: dict, right: dict, context: str) -> None:
    assert left.keys() == right.keys(), context
    for key in left:
        np.testing.assert_array_equal(
            np.asarray(left[key]), np.asarray(right[key]),
            err_msg=f"{context}.{key}")


def _assert_outputs_equal(case, left, right, context: str) -> None:
    if case.returns_sample:
        assert_samples_equal(left, right, context)
    else:
        np.testing.assert_array_equal(np.asarray(left), np.asarray(right),
                                      err_msg=context)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_ensemble_matches_standalone_replicas(case, stream) -> None:
    """Replica state and outputs match the view of the same seed and the
    single-sketch reference bit-for-bit."""
    solo_instances = [case.factory(seed) for seed in range(REPLICAS)]
    references = [(case.reference or case.factory)(seed)
                  for seed in range(REPLICAS)]
    for instance in solo_instances + references:
        instance.update_stream(stream)

    ensemble = build_ensemble([case.factory(seed) for seed in range(REPLICAS)])
    assert isinstance(ensemble, case.expected_ensemble), type(ensemble)
    ensemble.update_stream(stream)

    for replica, (solo, reference) in enumerate(zip(solo_instances, references)):
        context = f"{case.name}[{replica}]"
        ens_state = case.ensemble_state(ensemble, replica)
        _assert_state_equal(case.solo_state(solo), ens_state,
                            f"{context} view")
        _assert_state_equal(getattr(reference, "state", dict)(), ens_state,
                            f"{context} reference")
        ens_out = case.ensemble_query(ensemble, replica)
        _assert_outputs_equal(case, case.solo_query(solo), ens_out,
                              f"{context} view")
        _assert_outputs_equal(case, case.solo_query(reference), ens_out,
                              f"{context} reference")


@pytest.mark.parametrize("exact", [True, False], ids=["oracle", "sketch"])
def test_fp_estimator_groups_match_reference(exact, stream) -> None:
    """``FpEstimator``'s groups are the replicas of one ensemble; each
    equals its own single-estimator reference, and so does the median."""
    for seed in range(4):
        view = FpEstimator(N, 3.0, groups=3, repetitions_per_group=5,
                           seed=seed, exact_recovery=exact)
        reference = FpEstimatorReference(N, 3.0, 3, 5, seed, exact)
        view.update_stream(stream)
        reference.update_stream(stream)
        for group in range(3):
            np.testing.assert_array_equal(
                next(iter(_fp_state(view._ensemble, group).values())),
                reference.state()[f"group{group}"])
        assert view.estimate() == reference.estimate()


@pytest.mark.parametrize("case", [c for c in CASES if c.returns_sample],
                         ids=lambda case: case.name)
def test_ensemble_samples_helper_matches_sequential_loop(case, stream) -> None:
    """The factory-level helper reproduces the sequential draw loop."""
    sequential = []
    for seed in range(REPLICAS):
        instance = case.factory(seed)
        instance.update_stream(stream)
        sequential.append(instance.sample())
    via_engine = ensemble_samples(case.factory, range(REPLICAS), stream)
    assert len(via_engine) == len(sequential)
    for position, (left, right) in enumerate(zip(sequential, via_engine)):
        assert_samples_equal(left, right, f"{case.name}[{position}]")


def test_chunked_ensemble_ingest_matches_single_batch(stream) -> None:
    """Chunked shared replay equals one-shot ingest for stacked ensembles."""
    one_shot = build_ensemble([CountSketch(N, 16, 5, seed=s) for s in range(6)])
    one_shot.update_stream(stream)
    chunked = build_ensemble([CountSketch(N, 16, 5, seed=s) for s in range(6)])
    chunked.update_stream(stream, batch_size=7)
    # Chunk boundaries re-associate float additions only across batches the
    # scalar path would also split, so state matches to the last ulp only
    # when per-cell order is preserved — which the engine guarantees within
    # each batch; across different chunkings we allow tiny re-association.
    np.testing.assert_allclose(one_shot._table, chunked._table,
                               rtol=1e-12, atol=1e-12)


def _scatter_tables(mode: str) -> list:
    """Member tables after each chunked scatter path, in one table mode,
    then the estimates the chunked query sweep reads from them.

    Batches of 7, 60 and 3000 updates take the ``np.add.at`` path (fewer
    updates than buckets) and the fused bincount, the largest splitting
    the default cap into several member chunks; CountSketch deltas come
    as ``(B,)``, ``(M, B)`` and grouped ``(G, B)`` rows.
    """
    rng = np.random.default_rng(17)
    with table_mode(mode):
        sketches = build_ensemble([CountSketch(N, 16, 5, seed=s)
                                   for s in range(6)])
        counts = build_ensemble([CountMin(N, 16, 5, seed=s)
                                 for s in range(6)])
    tables = []
    for batch in (7, 60, 3000):
        indices = rng.integers(0, N, size=batch)
        for rows in (None, 6, 3):
            shape = batch if rows is None else (rows, batch)
            sketches.update_batch(indices, rng.standard_normal(shape))
            tables.append(sketches.member_tables().copy())
        counts.update_batch(indices, rng.standard_normal(batch))
        tables.append(counts._table.copy())
    sketches.update_vector(rng.standard_normal(N))
    tables.append(sketches.member_tables().copy())
    tables.append(sketches.estimate_all_members())
    return tables


@pytest.mark.parametrize("mode", ["cached", "blocked"])
def test_scatter_chunk_cap_does_not_change_bits(mode, monkeypatch) -> None:
    """Chunks split between whole members or groups, never inside one, so
    every cell accumulates in the same order whatever the cap."""
    reference = _scatter_tables(mode)
    for cap in (1, 1 << 40):
        monkeypatch.setattr(ensemble_module, "SCATTER_CHUNK_ELEMENTS", cap)
        for step, (left, right) in enumerate(
                zip(reference, _scatter_tables(mode), strict=True)):
            np.testing.assert_array_equal(
                left, right, err_msg=f"cap {cap}, step {step}")


def test_shared_delta_batch_scatters_in_member_chunks() -> None:
    """``(B,)`` deltas form one group of every member; the scatter still
    splits it into member chunks instead of materialising all at once."""
    import tracemalloc

    from repro.sketch.countsketch import CountSketchEnsemble

    sketches = CountSketchEnsemble.from_seeds(4096, 64, 5, range(200))
    rng = np.random.default_rng(31)
    indices = rng.integers(0, 4096, size=4096)
    deltas = rng.standard_normal(4096)
    sketches.update_batch(indices[:8], deltas[:8])  # build the tables first
    tracemalloc.start()
    try:
        sketches.update_batch(indices, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"scatter peaked at {peak / 2**20:.1f} MiB"


def test_duck_typed_update_stream_only_samplers_replay_records() -> None:
    """Replicas without ``update_batch`` replay materialised Update records."""

    class RecordOnlySampler:
        def __init__(self) -> None:
            self.totals: dict[int, float] = {}

        def update_stream(self, stream) -> None:
            for update in stream:
                # Old-protocol consumers read attributes, not tuples.
                self.totals[update.index] = (
                    self.totals.get(update.index, 0.0) + update.delta)

        def sample(self):
            return None

    ensemble = SamplerEnsemble([RecordOnlySampler(), RecordOnlySampler()])
    ensemble.update_stream(iter([(1, 2.0), (3, -1.0), (1, 0.5)]))
    for instance in ensemble.replicas:
        assert instance.totals == {1: 2.5, 3: -1.0}


def test_heterogeneous_replicas_fall_back_to_generic_ensemble() -> None:
    """Mismatched replica configurations stack via the generic fallback."""
    instances = [CountSketch(N, 16, 5, seed=0), CountSketch(N, 8, 5, seed=1)]
    ensemble = build_ensemble(instances)
    assert isinstance(ensemble, SamplerEnsemble)


def test_mismatched_value_banks_fall_back_to_generic_ensemble(stream) -> None:
    """Replicas with different value-bank widths must not be mis-grouped."""
    instances = [JW18LpSampler(N, 2.0, seed=0, value_instances=4),
                 JW18LpSampler(N, 2.0, seed=1, value_instances=2)]
    ensemble = build_ensemble(instances)
    assert isinstance(ensemble, SamplerEnsemble)
    # The fallback still produces the per-instance samples.
    ensemble.update_stream(stream)
    solo = [JW18LpSampler(N, 2.0, seed=s, value_instances=4 - 2 * s)
            for s in range(2)]
    for instance in solo:
        instance.update_stream(stream)
    for replica, instance in enumerate(solo):
        assert_samples_equal(instance.sample(), ensemble.sample_replica(replica),
                             f"mismatched-banks[{replica}]")
