#!/usr/bin/env python
"""CI benchmark-regression gate for the perf-tracking JSONs.

Compares a freshly produced benchmark JSON (CI runs the quick-mode E9
smoke against ``BENCH_e9.json``, and the service-smoke job runs the
quick-mode E21 service benchmark against ``BENCH_e21.json``) with the
committed baseline and **fails on a > 1.5x slowdown** of any tracked
metric.  Sections absent from either file are skipped, so one gate
script serves both JSONs: each invocation checks exactly the rows its
baseline/fresh pair share.

Tracked metrics are deliberately restricted to quantities stable across
quick/full workload sizes: the *batched per-unit costs* (microseconds per
batched update at the fixed ``n = 1e5`` universe), which measure the hot
kernels themselves and are insensitive to the stream-length reduction of
quick mode, and the E9f distributed-vs-multiprocessing *overhead ratio*,
where machine speed cancels out of the quotient.  Raw wall-clock section times
and draws/s change with the quick-mode workload sizes, and the *scalar*
us/update rows amortise lazy hash-table construction over a
mode-dependent update count — none of those are comparable across modes,
so none are tracked.  Metrics absent from either side — e.g. sections the
baseline predates, or full-mode-only rows — are skipped with a note
rather than failed, so a quick-mode fresh run checks exactly the rows
both files share.

The 1.5x factor absorbs shared-runner noise on top of the ~2x headroom the
batched kernels have over the acceptance bars; override it with
``--factor`` or the ``REPRO_BENCH_REGRESSION_FACTOR`` environment variable
when a specific builder needs a different tolerance.

Usage (the CI wiring)::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_e9.json --fresh BENCH_e9.fresh.json

Exit status 0 when every shared tracked metric is within the factor,
1 on regression, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: (section, row key field, metric field) triples tracked by the gate.
#: All are lower-is-better per-unit costs of the batched (production)
#: ingest path, stable across quick/full workload sizes.
TRACKED_METRICS = [
    ("update_throughput", "sampler", "batched_us_per_update"),
    # Scatter/gather cost of the distributed back-end *relative to* the
    # multiprocessing back-end on the same machine — a ratio, so builder
    # speed cancels and quick/full workload sizes stay comparable.
    ("distributed_execution", "case", "overhead_vs_multiprocessing"),
    # Time cost of the negotiated per-frame compression *relative to*
    # the uncompressed distributed run of the same workload (the
    # ``compressed_link`` row) — again a ratio, so a codec or framing
    # change that makes compression expensive fails the gate even on a
    # slow shared runner.
    ("distributed_execution", "case", "overhead_vs_uncompressed"),
    # E21 (BENCH_e21.json): median per-batch ingest cost through the
    # long-lived sampler service *relative to* the same batch pushed
    # into an in-process sketch — a ratio of medians, so builder speed
    # cancels and the quick-mode smoke stays comparable to the
    # committed full-mode baseline.  Guards the socket/pickle/asyncio
    # wrapper against protocol or serialization regressions.
    ("service_load", "case", "overhead_vs_direct_ingest"),
]

DEFAULT_FACTOR = 1.5


def _rows_by_key(payload: dict, section: str, key_field: str) -> dict:
    rows = payload.get(section)
    if not isinstance(rows, list):
        return {}
    return {row[key_field]: row for row in rows
            if isinstance(row, dict) and key_field in row}


def compare(baseline: dict, fresh: dict, factor: float) -> tuple[list, list]:
    """``(checked, regressions)`` row tuples for the tracked metrics.

    Each entry is ``(metric path, baseline value, fresh value, ratio)``;
    a metric lands in ``regressions`` when ``fresh > factor * baseline``.
    """
    checked = []
    regressions = []
    for section, key_field, metric in TRACKED_METRICS:
        baseline_rows = _rows_by_key(baseline, section, key_field)
        fresh_rows = _rows_by_key(fresh, section, key_field)
        for key in baseline_rows:
            label = f"{section}[{key}].{metric}"
            if key not in fresh_rows:
                print(f"SKIP {label}: row absent from fresh run")
                continue
            base_value = baseline_rows[key].get(metric)
            fresh_value = fresh_rows[key].get(metric)
            if base_value is None or fresh_value is None:
                print(f"SKIP {label}: metric absent on one side")
                continue
            if not (base_value > 0):
                print(f"SKIP {label}: non-positive baseline {base_value}")
                continue
            ratio = fresh_value / base_value
            entry = (label, base_value, fresh_value, ratio)
            checked.append(entry)
            if ratio > factor:
                regressions.append(entry)
    return checked, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_e9.json to compare against")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced BENCH_e9 JSON (quick mode ok)")
    parser.add_argument("--factor", type=float, default=float(
        os.environ.get("REPRO_BENCH_REGRESSION_FACTOR", DEFAULT_FACTOR)),
        help="fail when fresh > factor * baseline (default %(default)s)")
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.fresh) as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read benchmark JSON: {error}", file=sys.stderr)
        return 2

    checked, regressions = compare(baseline, fresh, args.factor)
    for label, base_value, fresh_value, ratio in checked:
        status = "FAIL" if ratio > args.factor else "ok"
        print(f"{status:4s} {label}: baseline {base_value:.4f} -> "
              f"fresh {fresh_value:.4f} ({ratio:.2f}x)")
    if not checked:
        print("no shared tracked metrics; nothing to gate", file=sys.stderr)
        return 2
    if regressions:
        print(f"{len(regressions)} tracked metric(s) regressed beyond "
              f"{args.factor}x", file=sys.stderr)
        return 1
    print(f"all {len(checked)} tracked metrics within {args.factor}x "
          "of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
