"""Tests for the evaluation harness (distribution reports, space model, Table 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.distribution_tests import (
    evaluate_sampler_distribution,
    lp_target_weights,
    support_target_weights,
)
from repro.evaluation.harness import format_table1, regenerate_table1
from repro.evaluation.space_model import (
    SpaceMeasurement,
    fit_space_exponent,
    measure_space,
    polylog_counters,
    theoretical_space_exponent,
)
from repro.exceptions import InvalidParameterError
from repro.samplers.exact import ExactLpSampler
from repro.sketch.countsketch import CountSketch
from repro.streams.generators import stream_from_vector


class TestDistributionEvaluation:
    def test_exact_sampler_report(self, small_vector, small_stream):
        report = evaluate_sampler_distribution(
            lambda seed: ExactLpSampler(len(small_vector), 2.0, seed=seed),
            small_stream,
            lp_target_weights(small_vector, 2.0),
            num_draws=400,
        )
        assert report.num_failures == 0
        assert report.tvd < 3 * report.tvd_noise_floor + 0.02
        assert report.failure_rate == 0.0
        assert report.empirical.shape == (len(small_vector),)

    def test_reuse_sampler_mode(self, small_vector, small_stream):
        report = evaluate_sampler_distribution(
            lambda seed: ExactLpSampler(len(small_vector), 2.0, seed=seed),
            small_stream,
            lp_target_weights(small_vector, 2.0),
            num_draws=400,
            reuse_sampler=True,
        )
        assert report.num_draws == 400

    def test_target_length_mismatch(self, small_stream):
        with pytest.raises(InvalidParameterError):
            evaluate_sampler_distribution(
                lambda seed: ExactLpSampler(small_stream.n, 2.0, seed=seed),
                small_stream,
                np.ones(3),
                num_draws=10,
            )

    def test_always_failing_sampler_raises(self, small_vector, small_stream):
        class FailingSampler:
            def __init__(self, seed):
                pass

            def update(self, index, delta):
                pass

            def update_stream(self, stream):
                pass

            def sample(self):
                return None

            def space_counters(self):
                return 0

        with pytest.raises(InvalidParameterError):
            evaluate_sampler_distribution(
                lambda seed: FailingSampler(seed),
                small_stream,
                lp_target_weights(small_vector, 2.0),
                num_draws=5,
                max_attempts_per_draw=2,
            )

    def test_weight_helpers(self, small_vector):
        lp = lp_target_weights(small_vector, 3.0)
        support = support_target_weights(small_vector)
        assert lp.shape == small_vector.shape
        assert set(np.unique(support)).issubset({0.0, 1.0})


class TestSpaceModel:
    def test_theoretical_exponent(self):
        assert theoretical_space_exponent(2.0) == 0.0
        assert theoretical_space_exponent(4.0) == pytest.approx(0.5)
        with pytest.raises(InvalidParameterError):
            theoretical_space_exponent(0.0)

    def test_fit_recovers_planted_exponent(self):
        measurements = [SpaceMeasurement(n=n, counters=int(7 * n**0.5))
                        for n in [256, 1024, 4096, 16384]]
        assert fit_space_exponent(measurements) == pytest.approx(0.5, abs=0.02)

    def test_fit_requires_two_points(self):
        with pytest.raises(InvalidParameterError):
            fit_space_exponent([SpaceMeasurement(n=8, counters=10)])

    def test_measure_space_uses_factory(self):
        measurements = measure_space(
            lambda n: CountSketch(n, buckets=max(4, int(n**0.5)), rows=5, seed=0),
            [64, 256, 1024],
            label="countsketch",
        )
        assert [m.n for m in measurements] == [64, 256, 1024]
        exponent = fit_space_exponent(measurements)
        assert exponent == pytest.approx(0.5, abs=0.1)

    def test_polylog_counters(self):
        assert polylog_counters(256, power=2) == pytest.approx(64.0)


class TestTable1:
    def test_regenerated_table_shape_and_quality(self):
        rows = regenerate_table1(n=40, draws=60, seed=3)
        names = [row.sampler for row in rows]
        assert len(rows) == 8
        assert any("p = 3" in name for name in names)
        # Perfect samplers should not be wildly off their targets even with
        # few draws; measured TVD stays below 0.5 for every row.
        assert all(row.measured_tvd < 0.5 for row in rows)
        rendered = format_table1(rows)
        assert "Reservoir sampling" in rendered
        assert "This paper" in rendered
