"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

They run each workload end to end through ``run.py``'s entry point with
shrunken constants, check that every metric is printed by name with its
unit, that every output check rejects a corrupted result, and that the
per-layer counts repeat exactly across two traced runs with one seed.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import run, workloads  # noqa: E402
from repro.samplers.base import Sample  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)

TINY = {
    "LP_N": 64, "LP_BATCH": 64, "LP_WINDOW": 256, "LP_ITEMS": 1728,
    "LP_SETUPS": 1, "LP_MIN_ROUNDS": 6, "LP_SAMPLES": 2,
    "MC_DRAWS_PER_JOB": 8, "MC_MIN_JOBS": 1, "MC_PROBES_PER_JOB": 2,
    "MC_PROBE_QUERIES": 3, "MC_PROBE_INGESTS": 2,
    "SVC_N": 2000, "SVC_BATCH": 256, "SVC_MIN_BATCHES": 12,
    "SVC_CHECKPOINT_EVERY": 5, "SVC_SPAWNS": 1,
    "DIST_N": 128, "DIST_DRAWS": 12, "DIST_MIN_JOBS": 1,
    "DIST_QUERIES_PER_JOB": 5, "DIST_BATCH": 64,
}

#: Counts that must repeat exactly and be non-zero on each workload.
REPEATED = {
    "lp_stream": ["hashing.cells", "countsketch.update_cells",
                  "lp_base.candidates"],
    "mc_draws": ["hashing.cells", "countsketch.update_cells",
                 "lp_base.candidates", "retry.replicas_built"],
    "service_mixed": ["hashing.cells", "countsketch.update_cells",
                      "transport.bytes_sent"],
    "distributed_draws": ["hashing.cells", "countsketch.update_cells",
                          "transport.bytes_sent"],
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "pin_environment", lambda pins: None)


def run_main(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(REPEATED))
def test_prints_every_metric_with_unit(tiny, capsys, workload):
    table, result = run_main(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]
        assert any(line.split()[0] == entry["name"]
                   and line.split()[-1] == entry["unit"] for line in table)


@pytest.mark.parametrize("workload", list(REPEATED))
def test_traced_counts_repeat_exactly(tiny, capsys, workload):
    runs = [run_main(capsys, workload, trace=1)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"]
        assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
        assert result["metrics"]["trace.unattributed_ratio"]["value"] < 0.1
    for entry in SPEC["per_layer"]:
        if entry["unit"] in ("count", "bytes"):
            first, second = (r["metrics"][entry["name"]]["value"] for r in runs)
            assert first == second, entry["name"]
    for name in REPEATED[workload]:
        assert runs[0]["metrics"][name]["value"] > 0, name


def test_lp_check_rejects_corrupted_draws():
    exact = np.array([0.0, 4.0, -2.0])
    tally = workloads.Tally()
    workloads.check_lp_draw(tally, exact, Sample(index=1, value_estimate=4.2), 1)
    assert tally.failed == 0
    workloads.check_lp_draw(tally, exact, Sample(index=0, value_estimate=1.0), 2)
    assert tally.failed >= 1
    failed = tally.failed
    workloads.check_lp_draw(tally, exact, Sample(index=2, value_estimate=-3.0), 3)
    assert tally.failed == failed + 1


def test_conformance_check_rejects_corrupted_draws():
    target = np.array([8.0, 1.0, 1.0])
    tally = workloads.Tally()
    workloads.check_conformance(tally, np.array([80.0, 10.0, 10.0]), 5, target)
    assert tally.failed == 0
    workloads.check_conformance(tally, np.array([10.0, 10.0, 80.0]), 5, target)
    assert tally.failed == 1
    workloads.check_conformance(tally, np.array([80.0, 10.0, 10.0]), 50, target)
    assert tally.failed == 2


def test_restore_check_rejects_corrupted_state():
    reference = np.linspace(-1.0, 1.0, 7)
    tally = workloads.Tally()
    workloads.check_restore(tally, reference.copy(), reference)
    assert tally.failed == 0
    corrupted = reference.copy()
    corrupted[3] = np.nextafter(corrupted[3], 2.0)
    workloads.check_restore(tally, corrupted, reference)
    workloads.check_restore(tally, None, reference)
    assert tally.failed == 2


def test_serial_check_rejects_corrupted_draws():
    draws = [Sample(index=3, value_estimate=1.5), None,
             Sample(index=5, value_estimate=-2.0)]
    tally = workloads.Tally()
    workloads.check_same_draws(tally, draws, list(draws))
    assert tally.failed == 0
    shifted = [Sample(index=4, value_estimate=1.5), None, draws[2]]
    workloads.check_same_draws(tally, shifted, draws)
    assert tally.failed == 1


def test_bare_directory_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
