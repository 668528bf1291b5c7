"""Property-based merge semantics of sketches and ensembles (hypothesis).

The math pins down where merging must be exact: linear sketches are linear
*functions* of the stream, so sketch ``merge`` and ensemble stream-``merge``
are associative and order-insensitive — exactly so in integer arithmetic
(sign-hash substrates on integer-delta streams never round), and up to
float re-association for irrational-coefficient substrates (``p``-stable
projections, exponential scalings), where all merge orders agree to
tolerance.  Replica-axis ``concat`` is pure array concatenation and hence
associative bitwise for any state.

Where the math does *not* promise order-insensitivity — samplers that
consume generator state per update — the suite documents the failure with
strict ``xfail`` markers instead of pretending.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.samplers.reservoir import ReservoirL1Sampler
from repro.sketch.ams import AMSSketch
from repro.sketch.countsketch import CountSketch, CountSketchEnsemble
from repro.sketch.pstable import PStableSketch
from repro.streams.stream import TurnstileStream
from repro.utils.ensemble import build_ensemble
from repro.utils.sharding import concat_ensembles, merge_ensembles

N = 16
REPLICAS = 3

update_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=N - 1),
              st.integers(min_value=-20, max_value=20)),
    min_size=3,
    max_size=48,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _stream(pairs) -> TurnstileStream:
    return TurnstileStream(N, [(i, float(d)) for i, d in pairs])


def _three_parts(pairs):
    third = max(1, len(pairs) // 3)
    return pairs[:third], pairs[third:2 * third], pairs[2 * third:]


class TestScalarSketchMergeProperties:
    @given(update_lists, seeds)
    @settings(max_examples=30, deadline=None)
    def test_countsketch_merge_is_associative_and_exact(self, pairs, seed):
        """Integer streams: every merge order equals the one-shot sketch bitwise."""
        parts = _three_parts(pairs)

        def fed(part):
            sketch = CountSketch(N, 8, 3, seed=seed)
            sketch.update_stream(_stream(part))
            return sketch

        left = fed(parts[0])
        left.merge(fed(parts[1]))
        left.merge(fed(parts[2]))

        middle = fed(parts[1])
        middle.merge(fed(parts[2]))
        right = fed(parts[0])
        right.merge(middle)

        single = CountSketch(N, 8, 3, seed=seed)
        single.update_stream(_stream(pairs))

        np.testing.assert_array_equal(left._ensemble._table[0],
                                      right._ensemble._table[0])
        np.testing.assert_array_equal(left._ensemble._table[0],
                                      single._ensemble._table[0])

    @given(update_lists, seeds)
    @settings(max_examples=30, deadline=None)
    def test_ams_merge_is_order_insensitive_and_exact(self, pairs, seed):
        """Integer streams: AMS counters merge exactly in either order."""
        parts = _three_parts(pairs)

        def fed(part):
            sketch = AMSSketch(N, width=6, depth=2, seed=seed)
            sketch.update_stream(_stream(part))
            return sketch

        forward = fed(parts[0]).merge(fed(parts[1])).merge(fed(parts[2]))
        backward = fed(parts[2]).merge(fed(parts[1])).merge(fed(parts[0]))
        single = AMSSketch(N, width=6, depth=2, seed=seed)
        single.update_stream(_stream(pairs))

        np.testing.assert_array_equal(forward._ensemble._counters[0],
                                      backward._ensemble._counters[0])
        np.testing.assert_array_equal(forward._ensemble._counters[0],
                                      single._ensemble._counters[0])
        assert (forward._ensemble._num_updates[0]
                == single._ensemble._num_updates[0])

    @given(update_lists, seeds)
    @settings(max_examples=30, deadline=None)
    def test_pstable_merge_is_associative_up_to_float_reassociation(
            self, pairs, seed):
        """Irrational coefficients: merge orders agree to tolerance, not bitwise."""
        parts = _three_parts(pairs)

        def fed(part):
            sketch = PStableSketch(N, 1.0, num_rows=8, seed=seed)
            sketch.update_stream(_stream(part))
            return sketch

        chained = fed(parts[0]).merge(fed(parts[1])).merge(fed(parts[2]))
        nested = fed(parts[0]).merge(fed(parts[1]).merge(fed(parts[2])))
        single = PStableSketch(N, 1.0, num_rows=8, seed=seed)
        single.update_stream(_stream(pairs))

        np.testing.assert_allclose(chained._ensemble._state[0],
                                   nested._ensemble._state[0],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(chained._ensemble._state[0],
                                   single._ensemble._state[0],
                                   rtol=1e-9, atol=1e-9)
        assert (chained._ensemble._num_updates[0]
                == single._ensemble._num_updates[0])


class TestEnsembleMergeProperties:
    @given(update_lists, st.lists(st.integers(min_value=0, max_value=2),
                                  min_size=N, max_size=N))
    @settings(max_examples=30, deadline=None)
    def test_stream_merge_matches_monolithic_for_any_assignment(
            self, pairs, owners):
        """Integer streams: arbitrary 3-way splits merge bitwise, any order."""
        assignment = np.asarray(owners, dtype=np.int64)
        stream = _stream(pairs)

        def shard_copy(shard):
            ensemble = build_ensemble(
                [CountSketch(N, 8, 3, seed=s) for s in range(REPLICAS)])
            mask = assignment[stream.indices] == shard
            ensemble.update_stream(TurnstileStream.from_arrays(
                N, stream.indices[mask], stream.deltas[mask]))
            return ensemble

        monolithic = build_ensemble(
            [CountSketch(N, 8, 3, seed=s) for s in range(REPLICAS)])
        monolithic.update_stream(stream)

        forward = merge_ensembles([shard_copy(s) for s in range(3)])
        backward = merge_ensembles([shard_copy(s) for s in (2, 1, 0)])
        np.testing.assert_array_equal(monolithic._table, forward._table)
        np.testing.assert_array_equal(monolithic._table, backward._table)

    @given(update_lists, seeds)
    @settings(max_examples=20, deadline=None)
    def test_concat_is_associative_bitwise(self, pairs, seed):
        """Replica-axis concat re-associates freely without changing a bit."""
        stream = _stream(pairs)

        def shard(seed_range):
            ensemble = build_ensemble(
                [PStableSketch(N, 1.0, num_rows=8, seed=seed + s)
                 for s in seed_range])
            ensemble.update_stream(stream)
            return ensemble

        flat = concat_ensembles([shard(range(2)), shard(range(2, 3)),
                                 shard(range(3, 5))])
        nested = concat_ensembles([
            concat_ensembles([shard(range(2)), shard(range(2, 3))]),
            shard(range(3, 5)),
        ])
        assert flat.num_replicas == nested.num_replicas == 5
        np.testing.assert_array_equal(flat._state, nested._state)
        np.testing.assert_array_equal(flat._roots, nested._roots)

    @given(update_lists, seeds)
    @settings(max_examples=20, deadline=None)
    def test_countsketch_ensemble_concat_keeps_member_alignment(
            self, pairs, seed):
        """Concat after ingest preserves each member's table and hashes."""
        stream = _stream(pairs)

        def member(offset):
            ensemble = build_ensemble([CountSketch(N, 8, 3, seed=seed + offset)])
            ensemble.update_stream(stream)
            return ensemble

        merged = CountSketchEnsemble.concat([member(0), member(1), member(2)])
        for position in range(3):
            solo = CountSketch(N, 8, 3, seed=seed + position)
            solo.update_stream(stream)
            np.testing.assert_array_equal(solo._ensemble._table[0],
                                          merged._table[position])
            np.testing.assert_array_equal(solo.estimate_all(),
                                          merged.estimate_all_member(position))


class TestOrderSensitiveSamplersAreDocumented:
    """Where the math does NOT promise order-insensitivity, say so loudly."""

    @pytest.mark.xfail(
        strict=True,
        reason="reservoir sampling consumes generator state per update; "
               "replaying the stream in a different order changes which "
               "element is retained — merge/shard semantics are undefined "
               "for rng-consuming samplers, which is why SamplerEnsemble "
               "refuses stream-sharded merging",
    )
    def test_reservoir_sampler_is_order_insensitive(self):
        updates = [(i % N, 1.0) for i in range(64)]
        forward = ReservoirL1Sampler(N, seed=7)
        forward.update_stream(TurnstileStream(N, updates))
        backward = ReservoirL1Sampler(N, seed=7)
        backward.update_stream(TurnstileStream(N, list(reversed(updates))))
        assert forward.sample().index == backward.sample().index

    @pytest.mark.xfail(
        strict=True,
        reason="the JW18 gap test consumes the instance generator at query "
               "time; querying a replica twice is not idempotent, so merged "
               "ensembles must be sampled exactly once per replica (the "
               "engine's one-shot contract)",
    )
    def test_jw18_sampling_is_idempotent(self):
        from repro.samplers.jw18_lp_sampler import JW18LpSampler

        sampler = JW18LpSampler(N, 2.0, seed=0)
        stream = TurnstileStream(
            N, [(i % N, float(1 + (i % 3))) for i in range(80)])
        sampler.update_stream(stream)
        first = sampler.sample()
        second = sampler.sample()
        # Both draws succeed on this seed/stream, but the randomised gap
        # thresholds differ because each query consumed the generator.
        assert first is not None and second is not None
        assert first.metadata["gap_threshold"] == second.metadata["gap_threshold"]
