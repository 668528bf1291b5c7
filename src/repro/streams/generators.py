"""Synthetic workload generators.

The paper contains no empirical section, so every experiment
(``benchmarks/bench_e*.py``) is driven by synthetic workloads produced here.  The generators cover the
regimes the paper's introduction motivates:

* **Zipfian / power-law frequency vectors** — the canonical skewed workload
  of network monitoring and database query logs, where ``L_p`` sampling for
  large ``p`` emphasises dominant items.
* **Planted heavy hitters** — a handful of coordinates holding most of the
  ``F_p`` mass, the regime where the rejection step of Algorithm 1 is
  stressed (large ``x_j^{p-2} F_2 / F_p`` ratios).
* **Turnstile streams with cancellations** — insertions followed by partial
  deletions, exercising the property that distinguishes turnstile samplers
  from insertion-only ones.
* **Gaussian and planted-spike vectors** — the hard distributions of
  Definition 4.1 used by the lower-bound experiment (E4).
* **Query sets / forget-request sets** — post-stream subsets ``Q`` for the
  norm-estimation application (Theorem 1.6) and the right-to-be-forgotten
  scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.streams.stream import TurnstileStream
from repro.streams.updates import StreamKind
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int, require_probability


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload configuration used by the experiment harness.

    Attributes
    ----------
    name:
        Human-readable identifier recorded in benchmark output.
    n:
        Universe size.
    kind:
        Stream model of the generated stream.
    parameters:
        Generator-specific parameters (documented per generator).
    """

    name: str
    n: int
    kind: StreamKind
    parameters: dict


def zipfian_frequency_vector(n: int, skew: float = 1.1, scale: float = 1000.0,
                             seed: SeedLike = None, shuffle: bool = True) -> np.ndarray:
    """A Zipfian (power-law) frequency vector ``x_i ~ scale / rank^skew``.

    Parameters
    ----------
    n:
        Universe size.
    skew:
        Zipf exponent; larger values concentrate more mass on few items.
    scale:
        Magnitude of the largest coordinate.
    shuffle:
        If true the ranks are assigned to random coordinates so that heavy
        items are not clustered at the start of the universe.
    """
    require_positive_int(n, "n")
    if skew <= 0:
        raise InvalidParameterError("skew must be positive")
    rng = ensure_rng(seed)
    ranks = np.arange(1, n + 1, dtype=float)
    values = scale / ranks**skew
    values = np.round(values)
    values[values == 0] = 1.0
    if shuffle:
        rng.shuffle(values)
    return values


def uniform_frequency_vector(n: int, low: float = 1.0, high: float = 100.0,
                             seed: SeedLike = None) -> np.ndarray:
    """A frequency vector with i.i.d. uniform integer magnitudes."""
    require_positive_int(n, "n")
    if high < low:
        raise InvalidParameterError("high must be at least low")
    rng = ensure_rng(seed)
    return rng.integers(int(low), int(high) + 1, size=n).astype(float)


def planted_heavy_hitter_vector(n: int, num_heavy: int = 2, heavy_value: float = 500.0,
                                noise_value: float = 5.0, seed: SeedLike = None) -> np.ndarray:
    """A vector with ``num_heavy`` planted dominant coordinates.

    The remaining coordinates hold small uniform noise in
    ``[1, noise_value]``, so for ``p > 2`` nearly all of ``F_p`` lives on the
    planted set.
    """
    require_positive_int(n, "n")
    require_positive_int(num_heavy, "num_heavy")
    if num_heavy > n:
        raise InvalidParameterError("num_heavy cannot exceed n")
    rng = ensure_rng(seed)
    values = rng.integers(1, max(2, int(noise_value)) + 1, size=n).astype(float)
    heavy_positions = rng.choice(n, size=num_heavy, replace=False)
    values[heavy_positions] = heavy_value
    return values


def gaussian_vector(n: int, seed: SeedLike = None) -> np.ndarray:
    """A draw from ``N(0, I_n)`` (the distribution ``alpha`` of Definition 4.1)."""
    require_positive_int(n, "n")
    rng = ensure_rng(seed)
    return rng.standard_normal(n)


def stream_from_vector(vector: np.ndarray, updates_per_unit: int = 1,
                       seed: SeedLike = None,
                       kind: StreamKind = StreamKind.TURNSTILE) -> TurnstileStream:
    """Decompose a target frequency vector into a random stream of updates.

    Each coordinate's value is split into ``updates_per_unit`` (or fewer)
    signed increments whose sum equals the coordinate exactly, and all
    increments are interleaved in a random order.  The induced frequency
    vector of the result equals ``vector`` up to floating-point rounding.
    """
    vector = np.asarray(vector, dtype=float)
    n = int(vector.shape[0])
    require_positive_int(n, "n")
    require_positive_int(updates_per_unit, "updates_per_unit")
    rng = ensure_rng(seed)

    indices: list[int] = []
    deltas: list[float] = []
    for i, value in enumerate(vector):
        if value == 0.0:
            continue
        pieces = min(updates_per_unit, max(1, int(abs(value)))) if updates_per_unit > 1 else 1
        if pieces == 1:
            indices.append(i)
            deltas.append(float(value))
            continue
        weights = rng.dirichlet(np.ones(pieces))
        parts = weights * value
        # Force the exact total so ground truth comparisons are exact.
        parts[-1] = value - parts[:-1].sum()
        for part in parts:
            indices.append(i)
            deltas.append(float(part))

    order = rng.permutation(len(indices))
    indices_arr = np.asarray(indices, dtype=np.int64)[order]
    deltas_arr = np.asarray(deltas, dtype=float)[order]
    if kind is StreamKind.INSERTION_ONLY and np.any(deltas_arr < 0):
        raise InvalidParameterError(
            "cannot produce an insertion-only stream from a vector with negative entries"
        )
    return TurnstileStream.from_arrays(n, indices_arr, deltas_arr, kind=kind)


def insertion_only_stream(vector: np.ndarray, seed: SeedLike = None,
                          updates_per_unit: int = 4) -> TurnstileStream:
    """An insertion-only stream realising a non-negative frequency vector."""
    vector = np.asarray(vector, dtype=float)
    if np.any(vector < 0):
        raise InvalidParameterError("insertion-only streams require a non-negative vector")
    rng = ensure_rng(seed)
    indices: list[int] = []
    deltas: list[float] = []
    for i, value in enumerate(vector):
        if value == 0:
            continue
        remaining = value
        pieces = max(1, min(updates_per_unit, int(value)))
        for piece in range(pieces):
            if piece == pieces - 1:
                chunk = remaining
            else:
                chunk = np.floor(remaining / (pieces - piece))
                chunk = max(chunk, 0.0)
            if chunk > 0:
                indices.append(i)
                deltas.append(float(chunk))
                remaining -= chunk
        if remaining > 0:
            indices.append(i)
            deltas.append(float(remaining))
    order = rng.permutation(len(indices))
    return TurnstileStream.from_arrays(
        len(vector),
        np.asarray(indices, dtype=np.int64)[order],
        np.asarray(deltas, dtype=float)[order],
        kind=StreamKind.INSERTION_ONLY,
    )


def turnstile_stream_with_cancellations(vector: np.ndarray, churn: float = 1.0,
                                        seed: SeedLike = None) -> TurnstileStream:
    """A turnstile stream whose final vector is ``vector`` despite heavy churn.

    For every coordinate the stream first inserts an *inflated* value
    ``x_i + c_i`` and later deletes ``c_i``, where ``c_i`` is proportional to
    ``churn`` times the coordinate magnitude (plus a baseline for zero
    coordinates).  The intermediate vector is therefore much larger than the
    final one — exactly the situation where insertion-only samplers break
    and turnstile samplers are required.
    """
    vector = np.asarray(vector, dtype=float)
    if churn < 0:
        raise InvalidParameterError("churn must be non-negative")
    rng = ensure_rng(seed)
    n = len(vector)
    indices: list[int] = []
    deltas: list[float] = []
    baseline = max(1.0, float(np.abs(vector).mean()))
    for i, value in enumerate(vector):
        extra = churn * (abs(value) if value != 0 else baseline)
        extra = float(np.round(extra))
        insert = value + extra
        if insert != 0:
            indices.append(i)
            deltas.append(float(insert))
        if extra != 0:
            indices.append(i)
            deltas.append(float(-extra))
    order = rng.permutation(len(indices))
    return TurnstileStream.from_arrays(
        n,
        np.asarray(indices, dtype=np.int64)[order],
        np.asarray(deltas, dtype=float)[order],
        kind=StreamKind.TURNSTILE,
    )


def random_query_set(n: int, fraction: float, seed: SeedLike = None) -> np.ndarray:
    """A uniformly random query subset ``Q`` holding ``fraction`` of the universe."""
    require_positive_int(n, "n")
    require_probability(fraction, "fraction")
    rng = ensure_rng(seed)
    size = max(1, int(round(fraction * n)))
    return np.sort(rng.choice(n, size=size, replace=False))


def forget_request_set(vector: np.ndarray, forget_fraction: float,
                       seed: SeedLike = None, bias_heavy: bool = False) -> np.ndarray:
    """Indices whose owners requested deletion ("right to be forgotten").

    Returns the *retained* set ``Q`` (the complement of the forget requests),
    which is what Theorem 1.6 queries.  With ``bias_heavy`` the forget
    requests preferentially hit heavy coordinates, which is the adversarial
    case for naive estimators.
    """
    vector = np.asarray(vector, dtype=float)
    n = len(vector)
    require_probability(forget_fraction, "forget_fraction")
    rng = ensure_rng(seed)
    num_forget = int(round(forget_fraction * n))
    if num_forget == 0:
        return np.arange(n)
    if bias_heavy:
        weights = np.abs(vector) + 1e-12
        weights = weights / weights.sum()
        forgotten = rng.choice(n, size=num_forget, replace=False, p=weights)
    else:
        forgotten = rng.choice(n, size=num_forget, replace=False)
    mask = np.ones(n, dtype=bool)
    mask[forgotten] = False
    return np.flatnonzero(mask)


def standard_workloads(n: int, seed: int = 0) -> list[WorkloadSpec]:
    """The named workloads used across the benchmarks."""
    return [
        WorkloadSpec("zipf-1.1", n, StreamKind.TURNSTILE, {"skew": 1.1, "seed": seed}),
        WorkloadSpec("uniform", n, StreamKind.TURNSTILE, {"low": 1, "high": 100, "seed": seed}),
        WorkloadSpec(
            "planted-heavy", n, StreamKind.TURNSTILE,
            {"num_heavy": 2, "heavy_value": 500.0, "seed": seed},
        ),
        WorkloadSpec(
            "cancellation-heavy", n, StreamKind.TURNSTILE, {"churn": 2.0, "seed": seed},
        ),
    ]


def realize_workload(spec: WorkloadSpec) -> TurnstileStream:
    """Materialise a :class:`WorkloadSpec` into a concrete stream."""
    params = dict(spec.parameters)
    seed = params.pop("seed", 0)
    if spec.name.startswith("zipf"):
        vector = zipfian_frequency_vector(spec.n, seed=seed, **params)
        return stream_from_vector(vector, updates_per_unit=2, seed=seed + 1)
    if spec.name == "uniform":
        vector = uniform_frequency_vector(spec.n, seed=seed, **params)
        return stream_from_vector(vector, updates_per_unit=2, seed=seed + 1)
    if spec.name == "planted-heavy":
        vector = planted_heavy_hitter_vector(spec.n, seed=seed, **params)
        return stream_from_vector(vector, updates_per_unit=2, seed=seed + 1)
    if spec.name == "cancellation-heavy":
        churn = params.pop("churn", 1.0)
        vector = zipfian_frequency_vector(spec.n, seed=seed)
        return turnstile_stream_with_cancellations(vector, churn=churn, seed=seed + 1)
    raise InvalidParameterError(f"unknown workload name {spec.name!r}")
