"""E6 — subset moment estimation vs the naive CountSketch baseline.

Paper artifact: Theorem 1.6 / 5.3 (Algorithm 5).  Estimating ||x_Q||_p^p for
a post-stream query set Q with a 1/alpha space advantage over the naive
CountSketch approach.  The benchmark sweeps (alpha, eps) on range-query and
forget-set workloads, reporting the sampling estimator's relative error and
the error of a CountSketch baseline given a comparable counter budget.

Expected shape: the sampling estimator meets (roughly) its eps target for
every configuration, while the equal-budget baseline's error blows up
whenever the query set avoids the heavy hitters — the regime in which the
paper claims the 1/alpha advantage.
"""

from __future__ import annotations

import numpy as np

from _harness import EXPERIMENT_SEED, print_rows
from repro.core.subset_norm import (
    CountSketchSubsetBaseline,
    SubsetMomentEstimator,
    exact_subset_moment,
)
from repro.streams.generators import (
    forget_request_set,
    stream_from_vector,
    zipfian_frequency_vector,
)


def run_experiment():
    n, p = 512, 3.0
    rng = np.random.default_rng(EXPERIMENT_SEED)
    vector = rng.integers(1, 6, size=n).astype(float)
    heavy = rng.choice(n, size=4, replace=False)
    vector[heavy] = 120.0
    stream = stream_from_vector(vector, updates_per_unit=2, seed=EXPERIMENT_SEED + 1)
    total_moment = exact_subset_moment(vector, range(n), p)

    # Query sets engineered so that ||x_Q||_p^p holds an alpha-fraction of
    # the total moment in the band ~0.05-0.3: each
    # query keeps one of the four heavy items plus many light items, or
    # forgets two heavy users and retains the rest.
    half = [i for i in range(n // 2) if i not in set(heavy.tolist())]
    range_query = sorted(half + [int(heavy[0])])
    retained_after_forget = sorted(set(range(n)) - set(heavy[:2].tolist()))

    queries = {
        "range query (1 heavy + light tail)": range_query,
        "forget 2 heavy users (retained set)": retained_after_forget,
    }

    rows = []
    for label, query in queries.items():
        truth = exact_subset_moment(vector, query, p)
        alpha = max(truth / total_moment, 0.01)
        for epsilon in (0.2, 0.35):
            estimator = SubsetMomentEstimator(
                n, p, epsilon=epsilon, alpha=alpha, seed=EXPERIMENT_SEED + 3,
                repetitions=min(400, int(np.ceil(6.0 / (alpha * epsilon**2)))),
                estimator_exact_recovery=True,
            )
            estimator.update_stream(stream)
            estimate = estimator.estimate(query)
            sampler_error = abs(estimate - truth) / truth

            baseline = CountSketchSubsetBaseline(n, p, buckets=32, rows=5,
                                                 seed=EXPERIMENT_SEED + 4)
            baseline.update_stream(stream)
            baseline_error = abs(baseline.estimate(query) - truth) / truth
            rows.append([label, round(alpha, 3), epsilon, estimator.repetitions,
                         round(sampler_error, 3), round(baseline_error, 3)])
    return rows


def test_e6_subset_norm(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_rows(
        "E6: subset moment estimation (Algorithm 5) vs CountSketch baseline",
        ["query workload", "alpha", "eps", "repetitions",
         "sampler rel. error", "baseline rel. error"],
        rows,
    )
    for row in rows:
        _label, _alpha, epsilon, _reps, sampler_error, baseline_error = row
        # The sampling estimator respects (a small multiple of) its accuracy
        # target; the equal-budget baseline is far off on these adversarial
        # query sets.
        assert sampler_error < 4 * epsilon
        assert baseline_error > sampler_error
