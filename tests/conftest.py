"""Shared fixtures for the test suite.

Fixtures keep universes small so that even the fully sketched (non-oracle)
code paths run in seconds; distribution-level statistical tests use the
oracle backends (see :mod:`repro.core.lp_base`).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import settings as _hypothesis_settings

    # The `ci` profile makes the property suites (tests/test_merge_properties.py)
    # deterministic across CI matrix entries: derandomize replaces the
    # random example seed with a stable derivation from each test's source,
    # and print_blob emits the `@reproduce_failure` blob (the seed-equivalent
    # reproduction handle) whenever an example fails.  Select it with
    # HYPOTHESIS_PROFILE=ci (the CI workflow does) or --hypothesis-profile.
    _hypothesis_settings.register_profile(
        "ci", derandomize=True, print_blob=True, deadline=None)
    _profile = os.environ.get("HYPOTHESIS_PROFILE")
    if _profile:
        _hypothesis_settings.load_profile(_profile)
except ImportError:  # pragma: no cover - hypothesis is optional outside CI
    pass

from repro.streams.generators import (
    planted_heavy_hitter_vector,
    stream_from_vector,
    turnstile_stream_with_cancellations,
    zipfian_frequency_vector,
)
from repro.streams.stream import TurnstileStream


@pytest.fixture(scope="session")
def small_vector() -> np.ndarray:
    """A small, skewed integer vector with one explicit zero coordinate."""
    vector = zipfian_frequency_vector(24, skew=1.3, scale=120.0, seed=11)
    vector[5] = 0.0
    return vector


@pytest.fixture(scope="session")
def small_stream(small_vector: np.ndarray) -> TurnstileStream:
    """A turnstile stream realising :func:`small_vector` with mixed-sign updates."""
    return stream_from_vector(small_vector, updates_per_unit=3, seed=12)


@pytest.fixture(scope="session")
def heavy_vector() -> np.ndarray:
    """A vector with two planted heavy hitters (the p > 2 stress case)."""
    return planted_heavy_hitter_vector(32, num_heavy=2, heavy_value=300.0,
                                       noise_value=4.0, seed=21)


@pytest.fixture(scope="session")
def heavy_stream(heavy_vector: np.ndarray) -> TurnstileStream:
    """A turnstile stream realising :func:`heavy_vector`."""
    return stream_from_vector(heavy_vector, updates_per_unit=2, seed=22)


@pytest.fixture(scope="session")
def cancellation_vector() -> np.ndarray:
    """Vector whose realising stream contains heavy insert/delete churn."""
    vector = zipfian_frequency_vector(20, skew=1.1, scale=60.0, seed=31)
    vector[3] = 0.0
    vector[7] = 0.0
    return vector


@pytest.fixture(scope="session")
def cancellation_stream(cancellation_vector: np.ndarray) -> TurnstileStream:
    """Turnstile stream with churn = 2x the final mass (deletions included)."""
    return turnstile_stream_with_cancellations(cancellation_vector, churn=2.0, seed=32)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(987)
