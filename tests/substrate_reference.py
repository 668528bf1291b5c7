"""Single-sketch reference implementations of the stacked substrates.

The library writes each substrate once, as a replica ensemble, and its
standalone classes are one-replica views of that ensemble.  A bitwise
suite that compares a view with its ensemble would compare the ensemble
with itself, so the suites compare both with these references instead.
Each one is the single-sketch formula the standalone classes ran before
they became views: its own draw from the raw hash families and
generators, hash tables materialised over the whole universe, the per-row
``np.add.at`` / ``np.bincount`` scatter into a ``(rows, buckets)`` table,
the ``signs[:, idx].astype(float) @ deltas`` gemv, the
``stable_coefficient_block(...) @ aggregated`` projection, ``np.median``
over rows, and the scalar JW18 and precision ``sample()`` walks.

Every reference exposes ``state()``, a dict of its arrays keyed like the
``ensemble_state`` extractors of ``tests/test_ensemble_equivalence.py``,
and the query methods of the class it mirrors.
"""

from __future__ import annotations

import math

import numpy as np

from repro.samplers.base import Sample
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.sketch.pstable import stable_coefficient_block, stable_median_scale
from repro.utils.batching import BatchUpdateMixin, coerce_batch

_SEED_BOUND = 2**63 - 1


def _seed_array(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, _SEED_BOUND, size=size, dtype=np.int64)


class CountSketchReference(BatchUpdateMixin):
    """One CountSketch: a ``(rows, buckets)`` table and full hash tables."""

    def __init__(self, n: int, buckets: int, rows: int, seed) -> None:
        rng = np.random.default_rng(seed)
        keys = np.arange(n, dtype=np.int64)
        self.buckets, self.rows = buckets, rows
        self.bucket_of = KWiseHashFamily.from_rng(rng, rows, 2, buckets).hash_all(keys)
        self.sign_of = SignHashFamily.from_rng(rng, rows, 4).sign_all(keys)
        self.table = np.zeros((rows, buckets))

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        buckets = self.bucket_of[:, indices]
        signs = self.sign_of[:, indices]
        if indices.size >= self.buckets:
            flat = buckets + np.arange(self.rows)[:, None] * self.buckets
            counts = np.bincount(flat.ravel(), weights=(signs * deltas).ravel(),
                                 minlength=self.rows * self.buckets)
            self.table += counts.reshape(self.rows, self.buckets)
            return
        for row in range(self.rows):
            np.add.at(self.table[row], buckets[row], deltas * signs[row])

    def update(self, index: int, delta: float) -> None:
        rows = np.arange(self.rows)
        self.table[rows, self.bucket_of[:, index]] += self.sign_of[:, index] * float(delta)

    def estimate_all(self) -> np.ndarray:
        rows = np.arange(self.rows)[:, None]
        return np.median(self.sign_of * self.table[rows, self.bucket_of], axis=0)

    def estimate(self, index: int) -> float:
        rows = np.arange(self.rows)
        values = self.sign_of[:, index] * self.table[rows, self.bucket_of[:, index]]
        return float(np.median(values))

    def state(self) -> dict:
        return {"table": self.table}


class CountMinReference(BatchUpdateMixin):
    """One CountMin sketch: a per-row ``np.add.at`` into its table."""

    def __init__(self, n: int, buckets: int, rows: int, seed,
                 conservative: bool = True) -> None:
        rng = np.random.default_rng(seed)
        self.rows, self.conservative = rows, conservative
        self.bucket_of = KWiseHashFamily.from_rng(rng, rows, 2, buckets).hash_all(
            np.arange(n, dtype=np.int64))
        self.table = np.zeros((rows, buckets))

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        for row in range(self.rows):
            np.add.at(self.table[row], self.bucket_of[row, indices], deltas)

    def _reduce(self, values: np.ndarray, axis: int = 0):
        return values.min(axis=axis) if self.conservative else np.median(values, axis=axis)

    def estimate_all(self) -> np.ndarray:
        rows = np.arange(self.rows)[:, None]
        return self._reduce(self.table[rows, self.bucket_of])

    def estimate(self, index: int) -> float:
        return float(self._reduce(self.table[np.arange(self.rows), self.bucket_of[:, index]]))

    def state(self) -> dict:
        return {"table": self.table}


class AMSReference(BatchUpdateMixin):
    """One AMS sketch: a gather of the int8 signs, cast, then one gemv."""

    def __init__(self, n: int, width: int, depth: int, seed) -> None:
        rng = np.random.default_rng(seed)
        self.width, self.depth = width, depth
        self.signs = SignHashFamily.from_rng(rng, width * depth, 4).sign_all(
            np.arange(n, dtype=np.int64))
        self.counters = np.zeros(width * depth)

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        self.counters += self.signs[:, indices].astype(float) @ deltas

    def estimate_f2(self) -> float:
        groups = (self.counters ** 2).reshape(self.depth, self.width)
        return float(np.median(groups.mean(axis=1)))

    def estimate_l2(self) -> float:
        return float(np.sqrt(self.estimate_f2()))

    def state(self) -> dict:
        return {"counters": self.counters}


class PStableReference(BatchUpdateMixin):
    """One p-stable sketch: aggregate the batch, then one oracle gemv."""

    def __init__(self, n: int, p: float, num_rows: int, seed) -> None:
        self.p, self.num_rows = float(p), num_rows
        self.root = int(np.random.default_rng(seed).integers(0, 2**62))
        self.scale = stable_median_scale(self.p, np.random.default_rng(self.root + 1))
        self.projections = np.zeros(num_rows)

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        unique, inverse = np.unique(indices, return_inverse=True)
        aggregated = np.bincount(inverse, weights=deltas)
        self.projections += stable_coefficient_block(
            self.root, self.p, self.num_rows, unique) @ aggregated

    def estimate_norm(self) -> float:
        return float(np.median(np.abs(self.projections)) / self.scale)

    def state(self) -> dict:
        return {"state": self.projections}


class MaxStabilityReference(BatchUpdateMixin):
    """One max-stability F_p estimator over its repetitions' own sketches."""

    def __init__(self, n: int, p: float, repetitions: int, seed,
                 exact_recovery: bool = False, rows: int = 5) -> None:
        rng = np.random.default_rng(seed)
        self.p, self.repetitions, self.exact = float(p), repetitions, exact_recovery
        exponent = max(0.0, 1.0 - 2.0 / max(self.p, 2.0))
        buckets = int(np.ceil(4 * n**exponent * max(1.0, np.log2(max(n, 2))))) + 4
        self.inverse_scales = rng.exponential(size=(repetitions, n)) ** (-1.0 / self.p)
        if exact_recovery:
            self.vectors = np.zeros((repetitions, n))
        else:
            self.sketches = [CountSketchReference(n, buckets, rows, member)
                             for member in _seed_array(rng, repetitions)]

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        scaled = deltas * self.inverse_scales[:, indices]
        if self.exact:
            np.add.at(self.vectors, (np.arange(self.repetitions)[:, None],
                                     indices[None, :]), scaled)
            return
        for sketch, row in zip(self.sketches, scaled):
            sketch.update_batch(indices, row)

    def estimate(self) -> float:
        if self.exact:
            maxima = np.max(np.abs(self.vectors), axis=1)
        else:
            maxima = np.asarray([np.max(np.abs(sketch.estimate_all()))
                                 for sketch in self.sketches])
        if np.any(maxima <= 0):
            return 0.0
        return float((self.repetitions - 1) / (maxima ** (-self.p)).sum())

    def state(self) -> dict:
        if self.exact:
            return {"vectors": self.vectors}
        return {"tables": np.stack([sketch.table for sketch in self.sketches])}


class FpEstimatorReference(BatchUpdateMixin):
    """``FpEstimator``: the median of independent max-stability groups."""

    def __init__(self, n: int, p: float, groups: int, repetitions: int,
                 seed, exact_recovery: bool = False) -> None:
        rng = np.random.default_rng(seed)
        self.groups = [MaxStabilityReference(n, p, repetitions, group, exact_recovery)
                       for group in _seed_array(rng, groups)]

    def update_batch(self, indices, deltas) -> None:
        for group in self.groups:
            group.update_batch(indices, deltas)

    def estimate(self) -> float:
        return float(np.median([group.estimate() for group in self.groups]))

    def state(self) -> dict:
        return {f"group{g}": next(iter(group.state().values()))
                for g, group in enumerate(self.groups)}


def _log_width(n: int) -> int:
    log_n = max(2.0, math.log2(max(n, 4)))
    return int(math.ceil(4 * log_n**2))


class JW18Reference(BatchUpdateMixin):
    """One JW18 sampler and its scalar ``sample()`` walk."""

    def __init__(self, n: int, p: float, seed, *, value_instances: int = 8,
                 gap_test: bool = True, gap_multiplier: float = 2.0,
                 exact_recovery: bool = False) -> None:
        self.n, self.p, self.exact = n, float(p), exact_recovery
        self.gap_test, self.gap_multiplier = gap_test, gap_multiplier
        self.buckets = _log_width(n)
        self.rng = np.random.default_rng(seed)
        self.exponentials = self.rng.exponential(size=n)
        self.inverse_scale = self.exponentials ** (-1.0 / self.p)
        self.num_updates = 0
        if exact_recovery:
            self.vector = np.zeros(n)
            return
        main, value, ams = (int(self.rng.integers(0, _SEED_BOUND)) for _ in range(3))
        self.main = CountSketchReference(n, self.buckets, 5, main)
        self.value = [CountSketchReference(n, _log_width(n), 5, member)
                      for member in _seed_array(np.random.default_rng(value),
                                                value_instances)]
        self.ams = AMSReference(n, 12, 5, ams)

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        scaled = deltas * self.inverse_scale[indices]
        if self.exact:
            np.add.at(self.vector, indices, scaled)
        else:
            for sketch in (self.main, *self.value, self.ams):
                sketch.update_batch(indices, scaled)
        self.num_updates += int(indices.size)

    def estimate_value(self, index: int) -> float:
        if self.exact:
            scaled = float(self.vector[index])
        else:
            scaled = float(np.mean([sketch.estimate(index) for sketch in self.value]))
        return scaled * self.exponentials[index] ** (1.0 / self.p)

    def sample(self):
        if self.num_updates == 0:
            return None
        estimates = self.vector if self.exact else self.main.estimate_all()
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        order = np.argsort(-magnitudes)
        best = int(order[0])
        runner_up = float(magnitudes[order[1]]) if self.n > 1 else 0.0
        gap = float(magnitudes[best]) - runner_up
        threshold = 0.0
        if self.gap_test and not self.exact:
            jitter = self.rng.uniform(0.5, 1.5)
            threshold = (self.gap_multiplier * jitter * self.ams.estimate_l2()
                         / math.sqrt(self.buckets))
            if gap <= threshold:
                return None
        return Sample(index=best, value_estimate=self.estimate_value(best),
                      metadata={"gap": gap, "gap_threshold": threshold,
                                "scaled_maximum": float(magnitudes[best]),
                                "exponential": float(self.exponentials[best])})

    def state(self) -> dict:
        if self.exact:
            return {"scaled": self.vector}
        return {"main": self.main.table,
                "value": np.stack([sketch.table for sketch in self.value]),
                "ams": self.ams.counters}


class PrecisionReference(BatchUpdateMixin):
    """One precision sampler and its scalar ``sample()`` walk."""

    def __init__(self, n: int, p: float, epsilon: float, seed, rows: int = 5) -> None:
        rng = np.random.default_rng(seed)
        self.n, self.p, self.epsilon = n, float(p), float(epsilon)
        log_n = max(2.0, math.log2(max(n, 4)))
        buckets = int(math.ceil(log_n**2 / epsilon ** max(1.0, p)))
        self.precisions = rng.random(n)
        self.precisions[self.precisions == 0] = np.finfo(float).tiny
        self.inverse_scale = self.precisions ** (-1.0 / self.p)
        self.sketch = CountSketchReference(n, buckets, rows, int(rng.integers(0, _SEED_BOUND)))
        self.ams = AMSReference(n, 12, 5, int(rng.integers(0, _SEED_BOUND)))
        self.num_updates = 0

    def update_batch(self, indices, deltas) -> None:
        indices, deltas = coerce_batch(indices, deltas)
        self.sketch.update_batch(indices, deltas * self.inverse_scale[indices])
        self.ams.update_batch(indices, deltas)
        self.num_updates += int(indices.size)

    def sample(self):
        if self.num_updates == 0:
            return None
        estimates = self.sketch.estimate_all()
        magnitudes = np.abs(estimates)
        if not np.any(magnitudes > 0):
            return None
        best = int(np.argmax(magnitudes))
        norm_proxy = (self.ams.estimate_l2()
                      / max(self.n, 2) ** max(0.0, 1.0 / 2.0 - 1.0 / self.p))
        threshold = norm_proxy * self.epsilon ** (-1.0 / self.p)
        if magnitudes[best] < threshold:
            return None
        value = estimates[best] * self.precisions[best] ** (1.0 / self.p)
        return Sample(index=best, value_estimate=float(value),
                      metadata={"scaled_maximum": float(magnitudes[best]),
                                "threshold": float(threshold)})

    def state(self) -> dict:
        return {"sketch": self.sketch.table, "ams": self.ams.counters}
