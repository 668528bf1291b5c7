"""Pytest configuration for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one experiment artifact (the
regenerated Table 1 or one theorem-level experiment E1-E21).
Helpers shared by the benchmark bodies live in ``_harness.py``; this
conftest only provides fixtures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `_harness` importable regardless of the pytest import mode.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def experiment_seed() -> int:
    """Session-wide root seed so benchmark numbers are reproducible."""
    return 20250614
