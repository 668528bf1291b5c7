"""Native ensembles keep stacked state only, and composites build from seeds.

A native replica ensemble holds its stacked arrays (hash coefficients,
tables, counters, scales) and the per-replica parameters its queries read;
it keeps none of the instances it was built from.  This suite pins that
down from four sides:

* **Bytes and objects** — pickles of the paper's samplers carry no replica
  templates: their size and out-of-band frame count stay within bounds,
  and no scalar sketch or sampler object is reachable from a native
  ensemble.
* **``from_seeds`` bit identity** — ``CountSketchEnsemble``,
  ``AMSEnsemble`` and ``JW18LpSamplerEnsemble`` built from seeds equal the
  registry path over standalone instances bitwise (state, queries, draws,
  generator states), and so does the rejection driver's ``L_2`` ensemble.
* **Stale-replica refusal** — a replica that has already ingested cannot
  be stacked into zero state: the native constructors raise, and
  :func:`build_ensemble` falls back to :class:`SamplerEnsemble`, which
  keeps the instances with their state.
* **``space_counters`` parity** — an ensemble counts what its standalone
  replicas count (the E2 space fits read this number).
"""

from __future__ import annotations

import io
import pickle

import numpy as np
import pytest

from test_ensemble_equivalence import CASES, N, assert_samples_equal

from repro.core.perfect_lp_general import PerfectLpSampler, make_perfect_lp_sampler
from repro.exceptions import InvalidParameterError
from repro.samplers.jw18_lp_sampler import (
    JW18LpSampler,
    JW18LpSamplerEnsemble,
    PerfectL2Sampler,
)
from repro.samplers.precision_sampling import (
    PrecisionLpSampler,
    PrecisionLpSamplerEnsemble,
)
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.countmin import CountMin, CountMinEnsemble
from repro.sketch.countsketch import (
    AveragedCountSketch,
    CountSketch,
    CountSketchEnsemble,
)
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
from repro.utils.ensemble import SamplerEnsemble, build_ensemble
from repro.utils.rng import ensure_rng, random_seed_array
from repro.utils.table_cache import table_mode
from repro.utils.transport import dumps_frames

MODES = ("cached", "blocked")
SEEDS = [11, 2**40 + 3, 7, 123456789]

#: Scalar classes whose instances no native ensemble may hold.
SCALAR_CLASSES = (CountSketch, CountMin, AMSSketch, PStableSketch,
                  MaxStabilityFpEstimator, FpEstimator, JW18LpSampler,
                  PrecisionLpSampler, AveragedCountSketch)


@pytest.fixture(scope="module")
def stream():
    """A cancellation-heavy turnstile stream over a skewed vector."""
    vector = zipfian_frequency_vector(N, skew=1.2, scale=90.0, seed=5)
    vector[3] = 0.0
    return turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)


class _TypeRecorder(pickle.Pickler):
    """A pickler that records the type of every object it reduces."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=5)
        self.types: set = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


def pickled_types(obj) -> set:
    """Every type reachable from ``obj`` through its pickle."""
    recorder = _TypeRecorder(io.BytesIO())
    recorder.dump(obj)
    return recorder.types


def held_scalars(obj, allowed=()) -> list:
    """Names of the scalar sketch/sampler classes ``obj`` pickles, bar
    ``allowed``."""
    return sorted(klass.__name__ for klass in pickled_types(obj)
                  if issubclass(klass, SCALAR_CLASSES)
                  and not issubclass(klass, allowed))


# ---------------------------------------------------------------------------
# Bytes and objects
# ---------------------------------------------------------------------------


def test_perfect_lp_sampler_pickle_carries_no_templates() -> None:
    """46.4 MB in 3,589 frames when the ensemble kept its templates."""
    sampler = make_perfect_lp_sampler(1024, 3, seed=0)
    assert len(pickle.dumps(sampler, protocol=5)) <= 20_000_000
    assert len(dumps_frames(sampler)) <= 300
    # The F_2 sketch and the F_p estimator are the sampler's own
    # structures (one-replica views); nothing of the N L_2 samplers, or of
    # the F_p groups, survives as an object.
    assert held_scalars(sampler, allowed=(AMSSketch, FpEstimator)) == []


def test_l2_ensemble_payload_carries_no_templates() -> None:
    """What ``bulk_samples`` ships per shard: 22.7 MB with templates."""
    ensemble = build_ensemble([PerfectL2Sampler(1024, seed) for seed in range(50)])
    assert isinstance(ensemble, JW18LpSamplerEnsemble)
    assert len(pickle.dumps(ensemble, protocol=5)) <= 9_000_000
    assert held_scalars(ensemble) == []


#: The array-stacked cases; the rest keep their instances as their state.
NATIVE_CASES = [case for case in CASES
                if case.name not in ("perfect-l0", "rough-l0",
                                     "cap-sampler-fallback")]


@pytest.mark.parametrize("case", NATIVE_CASES, ids=lambda case: case.name)
def test_native_ensembles_hold_no_instance(case, stream) -> None:
    ensemble = build_ensemble([case.factory(seed) for seed in range(5)])
    assert isinstance(ensemble, case.expected_ensemble)
    ensemble.update_stream(stream)
    assert not hasattr(ensemble, "replicas")
    assert not hasattr(ensemble, "_instances") or ensemble._instances is None
    assert held_scalars(ensemble) == []


# ---------------------------------------------------------------------------
# from_seeds equals the registry path
# ---------------------------------------------------------------------------


def assert_same_pickle(left, right) -> None:
    """Equal pickles: every array, scalar and generator state agrees."""
    assert pickle.dumps(left, protocol=5) == pickle.dumps(right, protocol=5)


@pytest.mark.parametrize("mode", MODES)
def test_countsketch_from_seeds_matches_registry(mode, stream) -> None:
    with table_mode(mode):
        seeded = CountSketchEnsemble.from_seeds(N, 16, 5, SEEDS)
        built = build_ensemble([CountSketch(N, 16, 5, seed) for seed in SEEDS])
    assert seeded.table_mode == built.table_mode == mode
    assert_same_pickle(seeded, built)
    seeded.update_stream(stream)
    built.update_stream(stream)
    assert_same_pickle(seeded, built)
    np.testing.assert_array_equal(seeded.estimate_all_members(),
                                  built.estimate_all_members())
    for index in (0, 3, N - 1):
        np.testing.assert_array_equal(seeded.estimate_members_at(slice(None), index),
                                      built.estimate_members_at(slice(None), index))


@pytest.mark.parametrize("mode", MODES)
def test_ams_from_seeds_matches_registry(mode, stream) -> None:
    with table_mode(mode):
        seeded = AMSEnsemble.from_seeds(N, 8, 3, SEEDS)
        built = build_ensemble([AMSSketch(N, 8, 3, seed) for seed in SEEDS])
    assert seeded.table_mode == built.table_mode == mode
    assert_same_pickle(seeded, built)
    seeded.update_stream(stream)
    built.update_stream(stream)
    assert_same_pickle(seeded, built)
    np.testing.assert_array_equal(seeded.estimate_f2_members(),
                                  built.estimate_f2_members())


def _assert_same_draws(seeded, built, draws: int = 20) -> None:
    """``draws`` draws round-robin over the replicas, then generator states."""
    replicas = seeded.num_replicas
    for draw in range(draws):
        replica = draw % replicas
        assert_samples_equal(seeded.sample_replica(replica),
                             built.sample_replica(replica), f"draw {draw}")
        np.testing.assert_array_equal(
            seeded.independent_value_estimates(replica, draw % N, 3),
            built.independent_value_estimates(replica, draw % N, 3))
    for left, right in zip(seeded._rngs, built._rngs, strict=True):
        assert left.bit_generator.state == right.bit_generator.state


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("exact", [False, True], ids=["sketch", "oracle"])
def test_jw18_from_seeds_matches_registry(mode, exact, stream) -> None:
    config = dict(value_instances=4, gap_multiplier=1.5, exact_recovery=exact)
    with table_mode(mode):
        seeded = JW18LpSamplerEnsemble.from_seeds(N, 1.5, SEEDS, **config)
        built = build_ensemble([JW18LpSampler(N, 1.5, seed, **config)
                                for seed in SEEDS])
    assert_same_pickle(seeded, built)
    seeded.update_stream(stream)
    built.update_stream(stream)
    assert_same_pickle(seeded, built)
    _assert_same_draws(seeded, built)
    assert_same_pickle(seeded, built)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, p", [(64, 3), (48, 2.5)])
def test_rejection_l2_ensemble_matches_standalone_replicas(mode, n, p) -> None:
    """The driver's L_2 ensemble is what ``build_ensemble`` of the N
    standalone ``PerfectL2Sampler``\\ s gives."""
    seed = 31 + n
    with table_mode(mode):
        sampler = PerfectLpSampler(n, p, seed=seed, value_instances=6)
        seeds = random_seed_array(ensure_rng(seed),
                                  sampler.num_l2_samples + 2)
        built = build_ensemble([
            PerfectL2Sampler(n, int(s), value_instances=6)
            for s in seeds[:sampler.num_l2_samples]])
    seeded = sampler._l2_ensemble
    assert_same_pickle(seeded, built)
    vector = zipfian_frequency_vector(n, skew=1.1, scale=60.0, seed=n)
    updates = turnstile_stream_with_cancellations(vector, churn=1.0, seed=n + 1)
    seeded.update_stream(updates)
    built.update_stream(updates)
    assert_same_pickle(seeded, built)
    _assert_same_draws(seeded, built)


# ---------------------------------------------------------------------------
# Shared per-replica values are validated
# ---------------------------------------------------------------------------


def test_concat_refuses_mismatched_shared_values() -> None:
    jw18 = [JW18LpSamplerEnsemble.from_seeds(N, 2.0, [seed],
                                             gap_multiplier=multiplier)
            for seed, multiplier in ((1, 2.0), (2, 3.0))]
    precision = [build_ensemble([PrecisionLpSampler(N, 2.0, epsilon, seed)])
                 for seed, epsilon in ((1, 0.25), (2, 0.3))]
    fp = [build_ensemble([MaxStabilityFpEstimator(N, p, repetitions=4, seed=1,
                                                  exact_recovery=True)])
          for p in (3.0, 4.0)]
    for kind, pair in ((JW18LpSamplerEnsemble, jw18),
                       (PrecisionLpSamplerEnsemble, precision),
                       (FpEstimatorEnsemble, fp)):
        assert all(type(ensemble) is kind for ensemble in pair)
        with pytest.raises(InvalidParameterError):
            kind.concat(pair)
    with pytest.raises(InvalidParameterError):
        JW18LpSamplerEnsemble([JW18LpSampler(N, 2.0, 1, gap_test=True),
                               JW18LpSampler(N, 2.0, 2, gap_test=False)])


# ---------------------------------------------------------------------------
# Stale replicas are refused, and the fallback keeps their state
# ---------------------------------------------------------------------------

#: The native types, F_p in both modes: ``(native class, factory, query)``.  ``query``
#: answers from a standalone instance and consumes nothing it would not.
STALE_TYPES = {
    "countsketch": (CountSketchEnsemble,
                    lambda s: CountSketch(N, 16, 5, seed=s),
                    lambda inst: inst.estimate_all()),
    "countmin": (CountMinEnsemble,
                 lambda s: CountMin(N, buckets=16, rows=5, seed=s),
                 lambda inst: inst.estimate_all()),
    "ams": (AMSEnsemble,
            lambda s: AMSSketch(N, width=8, depth=3, seed=s),
            lambda inst: inst.estimate_f2()),
    "pstable": (PStableEnsemble,
                lambda s: PStableSketch(N, 1.5, num_rows=16, seed=s),
                lambda inst: inst.estimate_norm()),
    "fp-oracle": (FpEstimatorEnsemble,
                  lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=6, seed=s,
                                                    exact_recovery=True),
                  lambda inst: inst.estimate()),
    "fp-sketch": (FpEstimatorEnsemble,
                  lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=5, seed=s),
                  lambda inst: inst.estimate()),
    "jw18": (JW18LpSamplerEnsemble,
             lambda s: JW18LpSampler(N, 2.0, seed=s, value_instances=4),
             lambda inst: inst.sample()),
    "precision": (PrecisionLpSamplerEnsemble,
                  lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.25, seed=s),
                  lambda inst: inst.sample()),
}


def _updated(factory, stream, seeds=range(4)) -> list:
    instances = [factory(seed) for seed in seeds]
    for instance in instances:
        instance.update_stream(stream)
    return instances


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(STALE_TYPES))
def test_updated_replicas_fall_back_with_their_state(name, mode, stream) -> None:
    native, factory, query = STALE_TYPES[name]
    with table_mode(mode):
        instances = _updated(factory, stream)
        twins = _updated(factory, stream)
    ensemble = build_ensemble(instances)
    assert type(ensemble) is SamplerEnsemble
    assert all(mine is theirs for mine, theirs
               in zip(ensemble.replicas, instances, strict=True))
    for replica, twin in enumerate(twins):
        if name in ("jw18", "precision"):
            assert_samples_equal(ensemble.sample_replica(replica), query(twin),
                                 f"{name}[{replica}]")
        else:
            np.testing.assert_array_equal(query(ensemble.replicas[replica]),
                                          query(twin))
    with pytest.raises(InvalidParameterError, match="fresh"):
        native(instances)


@pytest.mark.parametrize("name", sorted(STALE_TYPES))
def test_one_stale_replica_among_fresh_ones_is_refused(name, stream) -> None:
    native, factory, _ = STALE_TYPES[name]
    instances = [factory(seed) for seed in range(3)]
    instances[1].update_stream(stream)
    with pytest.raises(InvalidParameterError, match="fresh"):
        native(instances)
    assert type(build_ensemble(instances)) is SamplerEnsemble


# ---------------------------------------------------------------------------
# space_counters parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_space_counters_match_standalone_replicas(case, stream) -> None:
    instances = [case.factory(seed) for seed in range(5)]
    expected = sum(instance.space_counters() for instance in instances)
    ensemble = build_ensemble([case.factory(seed) for seed in range(5)])
    assert isinstance(ensemble, case.expected_ensemble)
    assert ensemble.space_counters() == expected
    ensemble.update_stream(stream)
    assert ensemble.space_counters() == expected
