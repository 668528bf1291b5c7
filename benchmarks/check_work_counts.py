#!/usr/bin/env python
"""Deterministic work gate: perfbench's per-layer counts must not move.

Runs each perfbench workload once at the tiny sizes of
``perfbench/selftest.py``, traced (``--trace 1``), under the environment
pinned in ``perfbench/config.json``, and compares every per-layer metric
whose unit is ``count`` or ``bytes`` *exactly* with the committed
``benchmarks/work_counts.json``.  A seeded run does a fixed amount of
work, so these numbers repeat across processes and machines: a change
that makes a kernel touch twice the cells, or a view that enters a traced
ingest twice, shows up as a changed count, not as timing noise.  Every
run must also finish with ``failed = 0``.

Usage::

    python benchmarks/check_work_counts.py            # compare
    python benchmarks/check_work_counts.py --write    # regenerate the file

Exit status 0 when every count matches and no run failed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS_PATH = os.path.join(HERE, "work_counts.json")
SEED = 7

#: Runs one tiny traced workload; the parent pins the environment first.
_CHILD = """
import sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench import run, selftest, workloads
for name, value in selftest.TINY.items():
    setattr(workloads, name, value)
sys.exit(run.main(["--workload", {workload!r}, "--seed", "{seed}",
                   "--seconds", "0.1", "--trace", "1"]))
"""


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def work_metric_names() -> list:
    """The per-layer metrics of ``BENCHMARK.json`` that count work."""
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    return [entry["name"] for entry in spec["per_layer"]
            if entry["unit"] in ("count", "bytes")]


def run_workload(workload: str) -> dict:
    """One tiny traced run in a fresh, environment-pinned process."""
    pins = _load(os.path.join(ROOT, "perfbench", "config.json"))["environment"]
    code = _CHILD.format(root=ROOT, src=os.path.join(ROOT, "src"),
                         workload=workload, seed=SEED)
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, env=dict(os.environ, **pins), timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} exited {completed.returncode}:\n"
                           f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {os.path.relpath(COUNTS_PATH, ROOT)}")
    args = parser.parse_args(argv)
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    names = work_metric_names()
    observed = {}
    problems = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        start = time.perf_counter()
        result = run_workload(workload)
        print(f"{workload}: {time.perf_counter() - start:.1f} s, "
              f"failed {result['failed']} of {result['attempted']}")
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed operations")
        observed[workload] = {name: result["metrics"][name]["value"]
                              for name in names}
    if args.write:
        with open(COUNTS_PATH, "w") as handle:
            json.dump(observed, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {os.path.relpath(COUNTS_PATH, ROOT)}")
    else:
        expected = _load(COUNTS_PATH)
        for workload, counts in observed.items():
            for name, value in counts.items():
                want = expected.get(workload, {}).get(name)
                if value != want:
                    problems.append(f"{workload}: {name} = {value}, "
                                    f"expected {want}")
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("every work count matches" if not args.write else "no failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
