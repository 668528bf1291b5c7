"""Batch-vs-sequential equivalence for every public sketch and sampler.

The batch-update engine promises that ``update_batch(indices, deltas)`` (and
the chunked ``update_stream`` built on it) is *state-equivalent* to replaying
``update(index, delta)`` over the batch in stream order.  This module
enforces that promise through a shared registry: every public structure is
instantiated three times from the same seed and driven with

* scalar replay (one ``update`` call per stream update),
* one whole-stream ``update_batch`` call (so the batch necessarily contains
  repeated indices and, for turnstile workloads, cancelling updates), and
* chunked ``update_stream`` with a deliberately odd ``batch_size``,

after which the complete recursive internal state (tables, counters, Python
integer fingerprints, caches, RNG states) and the query outputs
(``sample()`` / ``estimate()`` / ``recover()``) must agree.  Integer state —
including the Mersenne-prime fingerprints of the sparse-recovery stack —
must match exactly; floating-point state is compared at ``rtol=1e-9``
(aggregated additions may legally re-associate floating-point sums).
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.core.approximate_lp import ApproximateLpSampler
from repro.core.cap_sampler import CapSampler
from repro.core.log_sampler import LogSampler
from repro.core.perfect_lp_general import make_perfect_lp_sampler
from repro.core.perfect_lp_integer import PerfectLpSamplerInteger
from repro.core.polynomial_sampler import PolynomialFunction, PolynomialSampler
from repro.core.subset_norm import CountSketchSubsetBaseline, SubsetMomentEstimator
from repro.functions.library import LogFunction
from repro.samplers.exact import ExactLpSampler
from repro.samplers.jw18_lp_sampler import JW18LpSampler
from repro.samplers.l0_sampler import PerfectL0Sampler
from repro.samplers.precision_sampling import PrecisionLpSampler
from repro.samplers.reservoir import KReservoirL1Sampler, ReservoirL1Sampler
from repro.samplers.truly_perfect import ExponentialRaceSampler, TrulyPerfectGSampler
from repro.sketch.ams import AMSSketch
from repro.sketch.countmin import CountMin
from repro.sketch.countsketch import AveragedCountSketch, CountSketch
from repro.sketch.distinct import KMinimumValues, RoughL0Estimator
from repro.sketch.fp_estimator import FpEstimator, MaxStabilityFpEstimator
from repro.sketch.pstable import PStableSketch
from repro.sketch.sparse_recovery import KSparseRecovery, OneSparseRecovery
from repro.streams.generators import (
    insertion_only_stream,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams.stream import FrequencyVector, TurnstileStream

N = 24
SEED = 1234


# --------------------------------------------------------------------- #
# Recursive state snapshots
# --------------------------------------------------------------------- #
_ATOMIC = (bool, int, float, complex, str, bytes, type(None))
_CALLABLE_TYPES = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
                   types.LambdaType, np.ufunc, type)


def snapshot(value, _seen: set[int] | None = None):
    """Recursively reduce an object graph to comparable plain structures."""
    if _seen is None:
        _seen = set()
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, _CALLABLE_TYPES):
        return "<callable>"
    if id(value) in _seen:
        return "<cycle>"
    _seen.add(id(value))
    if isinstance(value, dict):
        return {key: snapshot(item, _seen) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [snapshot(item, _seen) for item in value]
    state = {}
    if hasattr(value, "__dict__"):
        for name, attr in vars(value).items():
            state[name] = snapshot(attr, _seen)
    for slot in getattr(type(value), "__slots__", ()):
        if hasattr(value, slot):
            state[slot] = snapshot(getattr(value, slot), _seen)
    if not state:
        return f"<{type(value).__name__}>"
    return state


def assert_snapshots_equal(left, right, path: str = "root") -> None:
    """Compare two snapshots: exact for ints/keys, ``rtol=1e-9`` for floats."""
    if isinstance(left, dict):
        assert isinstance(right, dict), path
        assert left.keys() == right.keys(), f"{path}: keys differ"
        for key in left:
            assert_snapshots_equal(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list):
        assert isinstance(right, list), path
        assert len(left) == len(right), f"{path}: lengths differ"
        for position, (a, b) in enumerate(zip(left, right)):
            assert_snapshots_equal(a, b, f"{path}[{position}]")
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), path
        assert left.shape == right.shape, f"{path}: shapes differ"
        if left.dtype.kind in "fc":
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12,
                                       err_msg=path)
        else:
            np.testing.assert_array_equal(left, right, err_msg=path)
    elif isinstance(left, float):
        assert isinstance(right, float), path
        assert math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12) or (
            math.isnan(left) and math.isnan(right)
        ), f"{path}: {left} != {right}"
    else:
        assert left == right, f"{path}: {left!r} != {right!r}"


# --------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Case:
    """One registry entry: how to build, feed, and query a structure."""

    name: str
    factory: Callable[[int], object]
    stream: str = "turnstile"          # "turnstile" | "insertion"
    universe: int | None = N           # None: no bounded universe (OneSparse)
    query: Callable[[object], object] = lambda s: s.sample()


def _log_g():
    return LogFunction()


CASES = [
    # --- linear sketch substrates -------------------------------------- #
    Case("countsketch", lambda s: CountSketch(N, 16, 5, s),
         query=lambda s: s.estimate_all()),
    Case("averaged-countsketch", lambda s: AveragedCountSketch(N, 16, 3, 4, s),
         query=lambda s: s.estimate(3)),
    Case("countmin", lambda s: CountMin(N, 16, 4, s),
         query=lambda s: s.estimate_all()),
    Case("ams", lambda s: AMSSketch(N, width=8, depth=3, seed=s),
         query=lambda s: s.estimate_f2()),
    Case("pstable", lambda s: PStableSketch(N, 1.5, num_rows=16, seed=s),
         query=lambda s: s.estimate_norm()),
    Case("fp-max-stability-sketched",
         lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=5, buckets=16,
                                           rows=3, seed=s),
         query=lambda s: s.estimate()),
    Case("fp-max-stability-exact",
         lambda s: MaxStabilityFpEstimator(N, 3.0, repetitions=5, seed=s,
                                           exact_recovery=True),
         query=lambda s: s.estimate()),
    Case("fp-estimator",
         lambda s: FpEstimator(N, 3.0, groups=3, repetitions_per_group=4,
                               buckets=16, rows=3, seed=s),
         query=lambda s: s.estimate()),
    Case("one-sparse-recovery", lambda s: OneSparseRecovery(s), universe=None,
         query=lambda s: (s.is_zero(), s.recover())),
    Case("k-sparse-recovery", lambda s: KSparseRecovery(N, 4, rows=4, seed=s),
         query=lambda s: (s.is_zero(), s.recover())),
    Case("k-minimum-values", lambda s: KMinimumValues(N, k=8, seed=s),
         query=lambda s: s.estimate()),
    Case("rough-l0", lambda s: RoughL0Estimator(N, sparsity=8, seed=s),
         query=lambda s: s.estimate()),
    Case("frequency-vector", lambda s: FrequencyVector(N),
         query=lambda s: (s.values, s.lp_norm(2.0))),
    # --- substrate samplers -------------------------------------------- #
    Case("jw18-l2-sketched", lambda s: JW18LpSampler(N, 2.0, s)),
    Case("jw18-l2-oracle", lambda s: JW18LpSampler(N, 2.0, s, exact_recovery=True)),
    Case("perfect-l0", lambda s: PerfectL0Sampler(N, sparsity=8, seed=s)),
    Case("precision-lp", lambda s: PrecisionLpSampler(N, 2.0, epsilon=0.25, seed=s)),
    Case("exact-lp", lambda s: ExactLpSampler(N, 2.0, s)),
    Case("reservoir", lambda s: ReservoirL1Sampler(N, s), stream="insertion"),
    Case("k-reservoir", lambda s: KReservoirL1Sampler(N, 3, s), stream="insertion",
         query=lambda s: s.samples()),
    Case("truly-perfect-g",
         lambda s: TrulyPerfectGSampler(N, _log_g(), max_value=400.0,
                                        num_repetitions=8, seed=s),
         stream="insertion"),
    Case("exponential-race",
         lambda s: ExponentialRaceSampler(N, _log_g(), seed=s),
         stream="insertion"),
    # --- the paper's algorithms ---------------------------------------- #
    Case("perfect-lp-oracle",
         lambda s: make_perfect_lp_sampler(N, 3.0, s, backend="oracle",
                                           num_l2_samples=4)),
    Case("perfect-lp-sketched",
         lambda s: make_perfect_lp_sampler(N, 3.0, s, backend="sketch",
                                           num_l2_samples=3)),
    Case("perfect-lp-integer-oracle",
         lambda s: PerfectLpSamplerInteger(N, 3.0, s, backend="oracle",
                                           num_l2_samples=4)),
    Case("approximate-lp",
         lambda s: ApproximateLpSampler(N, 3.0, epsilon=0.3, seed=s,
                                        duplication=32, fp_repetitions=3)),
    Case("polynomial-oracle",
         lambda s: PolynomialSampler(
             N, PolynomialFunction.from_terms([(1.0, 1.0), (0.5, 3.0)]),
             s, backend="oracle", num_lp_samples=4)),
    Case("cap-sampler",
         lambda s: CapSampler(N, 8.0, 2.0, s, sparsity=8, num_repetitions=4)),
    Case("log-sampler",
         lambda s: LogSampler(N, max_value=500.0, seed=s, sparsity=8,
                              num_repetitions=4)),
    Case("subset-moment",
         lambda s: SubsetMomentEstimator(N, 3.0, 0.3, 0.5, seed=s, repetitions=2,
                                         sampler_backend="oracle",
                                         fp_repetitions=4),
         query=lambda s: s.estimate(range(N // 2))),
    Case("subset-baseline",
         lambda s: CountSketchSubsetBaseline(N, 3.0, buckets=16, rows=3, seed=s),
         query=lambda s: s.estimate(range(N // 2))),
]

CASE_IDS = [case.name for case in CASES]


# --------------------------------------------------------------------- #
# Shared streams: cancellations, repeated indices, mixed signs
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def streams() -> dict[str, TurnstileStream]:
    vector = zipfian_frequency_vector(N, skew=1.2, scale=60.0, seed=5)
    vector[4] = 0.0
    turnstile = turnstile_stream_with_cancellations(vector, churn=1.5, seed=6)
    insertion = insertion_only_stream(vector, seed=7)
    return {"turnstile": turnstile, "insertion": insertion}


def _replay_scalar(structure, stream: TurnstileStream) -> None:
    for update in stream:
        structure.update(update.index, update.delta)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_batch_matches_scalar_replay(case: Case, streams) -> None:
    """Whole-stream ``update_batch`` == scalar replay: state and query."""
    stream = streams[case.stream]
    assert stream.length > 0
    # The whole stream as ONE batch: guaranteed repeated indices inside the
    # batch, and (for the turnstile workload) cancelling +/- updates.
    assert len(np.unique(stream.indices)) < stream.length

    scalar = case.factory(SEED)
    batched = case.factory(SEED)
    _replay_scalar(scalar, stream)
    batched.update_batch(stream.indices, stream.deltas)

    assert_snapshots_equal(snapshot(scalar), snapshot(batched), case.name)
    assert_snapshots_equal(snapshot(case.query(scalar)),
                           snapshot(case.query(batched)),
                           f"{case.name}.query")


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_chunked_update_stream_matches_scalar_replay(case: Case, streams) -> None:
    """``update_stream`` with an odd chunk size == scalar replay."""
    stream = streams[case.stream]
    scalar = case.factory(SEED)
    chunked = case.factory(SEED)
    _replay_scalar(scalar, stream)
    chunked.update_stream(stream, batch_size=7)
    assert_snapshots_equal(snapshot(scalar), snapshot(chunked), case.name)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_update_stream_accepts_any_iterable(case: Case, streams) -> None:
    """Lists of ``Update`` records and generators of pairs both replay."""
    stream = streams[case.stream]
    from_stream = case.factory(SEED)
    from_updates = case.factory(SEED)
    from_pairs = case.factory(SEED)
    from_stream.update_stream(stream)
    from_updates.update_stream(list(stream))
    from_pairs.update_stream(
        (int(i), float(d)) for i, d in zip(stream.indices, stream.deltas)
    )
    reference = snapshot(from_stream)
    assert_snapshots_equal(reference, snapshot(from_updates), case.name)
    assert_snapshots_equal(reference, snapshot(from_pairs), case.name)


def test_turnstile_stream_batches_cover_stream_in_order(streams) -> None:
    stream = streams["turnstile"]
    chunks = list(stream.batches(7))
    assert all(len(i) == len(d) for i, d in chunks)
    assert sum(len(i) for i, _ in chunks) == stream.length
    np.testing.assert_array_equal(np.concatenate([i for i, _ in chunks]),
                                  stream.indices)
    np.testing.assert_array_equal(np.concatenate([d for _, d in chunks]),
                                  stream.deltas)
    # Chunks are read-only views, not copies.
    indices, deltas = chunks[0]
    assert not indices.flags.writeable and not deltas.flags.writeable


def test_fingerprint_state_is_bit_identical(streams) -> None:
    """The sparse-recovery fingerprints must match *exactly*, not approximately."""
    stream = streams["turnstile"]
    scalar = KSparseRecovery(N, 4, rows=4, seed=9)
    batched = KSparseRecovery(N, 4, rows=4, seed=9)
    _replay_scalar(scalar, stream)
    batched.update_batch(stream.indices, stream.deltas)
    assert scalar._global_fingerprint._value == batched._global_fingerprint._value
    for row_scalar, row_batched in zip(scalar._cells, batched._cells):
        for cell_scalar, cell_batched in zip(row_scalar, row_batched):
            assert cell_scalar._fingerprint._value == cell_batched._fingerprint._value
