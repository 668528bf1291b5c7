"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lp_stream --seed 20250614 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the same fixed work twice,
untraced and then traced, and prints every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list the
metrics for a reader.  The process pins its environment (``config.json``)
and re-executes itself once before importing numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def pin_environment(pins: dict) -> None:
    """Re-execute with ``pins`` in the environment unless already there.

    Thread-pool sizes and the malloc arena count are read when the
    interpreter and BLAS start, so they cannot be changed in-process.
    """
    if all(os.environ.get(key) == value for key, value in pins.items()):
        return
    env = dict(os.environ, **pins)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, spec: dict) -> dict:
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plain = workloads.Context(args.seed, args.seconds, workdir)
        outcome = workload(plain)
        tallies = [outcome.tally]
        if args.trace:
            trace_dir = os.path.join(workdir, "spans")
            os.makedirs(trace_dir)
            recorder = tracing.Recorder("harness")
            tracing.install(recorder)
            traced = workloads.Context(args.seed, args.seconds, workdir,
                                       recorder=recorder, trace_dir=trace_dir)
            try:
                tallies.append(workload(traced).tally)
            finally:
                recorder.unpatch()
            trace = tracing.Trace(recorder, tracing.load_child_dumps(trace_dir))
            trace.counts.update(traced.cache_totals)
            extras = dict(traced.extras)
            for key in ("serial_s", "speedup_vs_serial"):
                if key in plain.extras:
                    extras[key] = plain.extras[key]
            values = tracing.per_layer_metrics(
                trace, wall_s=traced.wall_s, untraced_wall_s=plain.wall_s,
                extras=extras)
            wanted = spec["per_layer"]
        else:
            values = {name: (value, None)
                      for name, value in outcome.metrics.items()}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it
    metrics = {}
    for entry in wanted:
        value, unit = values[entry["name"]]
        if unit is not None and unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    errors = [error for tally in tallies for error in tally.errors]
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    failed = sum(tally.failed for tally in tallies)
    return {
        "correct": failed == 0,
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library sources under {ROOT}/src; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [workload["name"] for workload in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pin_environment(_load(os.path.join(HERE, "config.json"))["environment"])
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    result = run(args, spec)
    width = max(len(name) for name in [*result["metrics"], "failed_ops_ratio"])
    for name, metric in result["metrics"].items():
        print(f"{name:<{width}}  {metric['value']:>14.6g}  {metric['unit']}")
    print(f"{'failed_ops_ratio':<{width}}  "
          f"{result['failed'] / result['attempted']:>14.6g}  ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
