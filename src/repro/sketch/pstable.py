"""Indyk-style ``p``-stable sketches for ``L_p`` norm estimation, ``p in (0, 2]``.

The paper's Algorithms 1-3 need constant-factor ``F_2`` approximations (from
AMS) and ``F_p`` approximations for ``p > 2`` (from the Ganguly-style
estimator).  For completeness of the substrate — and as a baseline for the
``p <= 2`` regime that the related-work samplers [MW10, AKO11, JST11, JW18]
live in — this module provides the classical linear sketch of [Ind06]:

* project the frequency vector onto ``k`` i.i.d. ``p``-stable directions
  maintained incrementally under turnstile updates;
* estimate ``||x||_p`` by the median of absolute sketch coordinates divided
  by the median of the absolute ``p``-stable distribution.

``p``-stable variates are generated with the Chambers–Mallows–Stuck
transform, keyed per (row, coordinate) through the library's seeded random
oracle so the sketch is a genuine linear function of the stream.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.utils.batching import (
    BatchUpdateMixin,
    aggregate_batch,
    check_batch_bounds,
    coerce_batch,
)
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble, require_fresh
from repro.utils.rng import SeedLike, ensure_rng, splitmix64
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_moment_order,
    require_positive_int,
)


def chambers_mallows_stuck(p: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` standard ``p``-stable variates (symmetric, beta = 0).

    Uses the Chambers–Mallows–Stuck representation
    ``X = sin(p U) / cos(U)^{1/p} * (cos((1-p) U) / E)^{(1-p)/p}`` with
    ``U`` uniform on ``(-pi/2, pi/2)`` and ``E`` standard exponential.  For
    ``p = 2`` this reduces (in distribution) to a scaled Gaussian and for
    ``p = 1`` to a Cauchy variate.
    """
    p = require_moment_order(p, "p", minimum=0.0, maximum=2.0)
    uniforms = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    exponentials = rng.exponential(1.0, size=size)
    if abs(p - 1.0) < 1e-12:
        return np.tan(uniforms)
    first = np.sin(p * uniforms) / np.cos(uniforms) ** (1.0 / p)
    second = (np.cos((1.0 - p) * uniforms) / exponentials) ** ((1.0 - p) / p)
    return first * second


_U64 = np.uint64
_UNIT = 1.0 / float(1 << 53)

# The splitmix64 kernel lives in repro.utils.rng (it is shared with the
# vectorised shard-assignment oracle); the alias keeps this module's
# counter-mixing call sites unchanged and bit-identical.
_splitmix64 = splitmix64


def _counter_uniform(counters: np.ndarray) -> np.ndarray:
    """Uniform ``[0, 1)`` variates from uint64 counters (two mix rounds)."""
    mixed = _splitmix64(_splitmix64(counters))
    mixed >>= _U64(11)
    return mixed.astype(float) * _UNIT


def stable_coefficient_block(root_seed: int | np.ndarray, p: float,
                             num_rows: int, indices: np.ndarray) -> np.ndarray:
    """The stable projection coefficients of a set of coordinates.

    This is the library's *counter-based* random oracle for ``p``-stable
    sketches: the Chambers–Mallows–Stuck inputs of cell
    ``(root_seed, row, index)`` are derived from a splitmix64-mixed counter,
    so the whole ``(num_rows, len(indices))`` block — or, when
    ``root_seed`` is an array of ``R`` replica seeds, the full
    ``(R, num_rows, len(indices))`` grid — is produced by a handful of
    vectorised numpy passes.  Deterministic per cell, hence
    order-independent: updates commute and merged sketches agree, and a
    replica ensemble computing the grid in one shot is bit-identical to
    each replica computing its own block.
    """
    indices = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    roots = np.asarray(root_seed, dtype=np.uint64)
    scalar_root = roots.ndim == 0
    roots = np.atleast_1d(roots)
    rows = np.arange(num_rows, dtype=np.uint64)
    # Chain the three coordinates through the mixer: seed, then index, then
    # the (row, stream) tag; each step is a full 64-bit finaliser, so
    # structured inputs cannot collide systematically.
    base = _splitmix64(_splitmix64(roots)[:, None] ^ indices[None, :])
    tags = (rows << _U64(1))[None, :, None]
    u1 = _counter_uniform(base[:, None, :] ^ tags)
    uniforms = u1
    uniforms -= 0.5
    uniforms *= math.pi
    if abs(p - 1.0) < 1e-12:
        # Cauchy case: only the angular variate is consumed.
        block = np.tan(uniforms)
    else:
        u2 = _counter_uniform(base[:, None, :] ^ (tags | _U64(1)))
        exponentials = -np.log1p(-u2)
        first = np.sin(p * uniforms) / np.cos(uniforms) ** (1.0 / p)
        second = (np.cos((1.0 - p) * uniforms) / exponentials) ** ((1.0 - p) / p)
        block = first * second
    if scalar_root:
        return block[0]
    return block


def stable_median_scale(p: float, rng: np.random.Generator | None = None,
                        num_samples: int = 200_000) -> float:
    """The median of ``|X|`` for a standard ``p``-stable ``X`` (the estimator's scale).

    Closed forms exist for ``p = 1`` (``tan(pi/4) = 1``) and ``p = 2``
    (``sqrt(2) * Phi^{-1}(3/4)``); other orders are calibrated by Monte
    Carlo once per sketch construction.
    """
    if abs(p - 1.0) < 1e-12:
        return 1.0
    if abs(p - 2.0) < 1e-12:
        from scipy.stats import norm

        return float(math.sqrt(2.0) * norm.ppf(0.75))
    rng = ensure_rng(rng)
    draws = np.abs(chambers_mallows_stuck(p, rng, num_samples))
    return float(np.median(draws))


class PStableSketch(BatchUpdateMixin):
    """Linear ``L_p`` norm sketch for ``p in (0, 2]`` ([Ind06]).

    Parameters
    ----------
    n:
        Universe size.
    p:
        Norm order in ``(0, 2]``.
    num_rows:
        Number of stable projections; the estimator's relative error decays
        like ``1/sqrt(num_rows)``.
    seed:
        Root seed; per-(row, coordinate) stable coefficients are derived from
        it through the random oracle so updates commute.
    """

    def __init__(self, n: int, p: float, num_rows: int = 64, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        self._n = n
        self._p = require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        require_positive_int(num_rows, "num_rows")
        self._num_rows = num_rows
        rng = ensure_rng(seed)
        self._root_seed = int(rng.integers(0, 2**62))
        self._state = np.zeros(num_rows, dtype=float)
        self._scale = stable_median_scale(self._p, ensure_rng(self._root_seed + 1))
        self._coefficient_cache: dict[int, np.ndarray] = {}
        # The cache is a pure recomputation shortcut (coefficients are
        # deterministic per index); bound the retained *floats*, not the
        # entry count, so wide sketches cannot hoard memory — the sketch's
        # whole point is O(num_rows) state.
        self._coefficient_cache_limit = max(1, (1 << 20) // num_rows)
        self._num_updates = 0

    @property
    def p(self) -> float:
        """Norm order."""
        return self._p

    @property
    def num_rows(self) -> int:
        """Number of stable projections."""
        return self._num_rows

    def space_counters(self) -> int:
        """One counter per projection."""
        return self._num_rows

    def _coefficients(self, index: int) -> np.ndarray:
        """The ``num_rows`` stable coefficients of coordinate ``index``.

        Evaluated from the counter-based oracle
        (:func:`stable_coefficient_block`) and cached (bounded): repeated
        touches cost one dict lookup instead of a kernel evaluation.
        """
        cached = self._coefficient_cache.get(index)
        if cached is None:
            cached = stable_coefficient_block(
                self._root_seed, self._p, self._num_rows,
                np.asarray([index], dtype=np.int64))[:, 0]
            if len(self._coefficient_cache) >= self._coefficient_cache_limit:
                self._coefficient_cache.clear()
            self._coefficient_cache[index] = cached
        return cached

    def update(self, index: int, delta: float) -> None:
        """Apply a turnstile update to every projection."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        self._state += delta * self._coefficients(index)
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch through one coefficient-matrix / delta product.

        Repeated indices are aggregated first (the sketch is linear); the
        coefficients of every distinct coordinate come from one vectorised
        oracle evaluation and the remaining numpy work is a single
        ``matrix @ aggregated_deltas``.
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        unique, aggregated = aggregate_batch(indices, deltas)
        matrix = stable_coefficient_block(self._root_seed, self._p,
                                          self._num_rows, unique)
        # Keep the per-index cache in sync with the scalar path (the oracle
        # is deterministic, so batch-computed columns equal scalar draws).
        for position, item in enumerate(unique.tolist()):
            if item not in self._coefficient_cache:
                if len(self._coefficient_cache) >= self._coefficient_cache_limit:
                    self._coefficient_cache.clear()
                self._coefficient_cache[item] = np.ascontiguousarray(
                    matrix[:, position])
        self._state += matrix @ aggregated
        self._num_updates += int(indices.size)

    def estimate_norm(self) -> float:
        """Median estimator of ``||x||_p``."""
        if self._num_updates == 0:
            raise SamplerStateError("the sketch has not seen any updates")
        return float(np.median(np.abs(self._state)) / self._scale)

    def estimate_moment(self) -> float:
        """Estimate of ``F_p = ||x||_p^p``."""
        return self.estimate_norm() ** self._p

    def check_mergeable(self, other: "PStableSketch") -> None:
        """Raise unless ``other`` can merge with ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "p-stable sketches",
            {"n": self._n, "p": self._p, "num_rows": self._num_rows,
             "root seed": self._root_seed},
            {"n": other._n, "p": other._p, "num_rows": other._num_rows,
             "root seed": other._root_seed})

    def merge(self, other: "PStableSketch") -> "PStableSketch":
        """Merge two sketches built with the same seed over disjoint sub-streams."""
        self.check_mergeable(other)
        merged = PStableSketch.__new__(PStableSketch)
        merged._n = self._n
        merged._p = self._p
        merged._num_rows = self._num_rows
        merged._root_seed = self._root_seed
        merged._scale = self._scale
        merged._coefficient_cache = {}
        merged._coefficient_cache_limit = self._coefficient_cache_limit
        merged._state = self._state + other._state
        merged._num_updates = self._num_updates + other._num_updates
        return merged


class PStableEnsemble(ReplicaEnsemble):
    """``R`` independent ``p``-stable sketches with stacked projections.

    The per-replica projection states live in one ``(R, num_rows)`` array;
    each batch is aggregated once (shared ``np.unique``/``bincount``) and
    the stable coefficients of every ``(replica, row, coordinate)`` cell
    come from a single vectorised evaluation of the counter-based oracle.
    Per-replica accumulation runs the standalone ``matrix @ aggregated``
    product on identically laid-out slices, so replica state is
    bit-identical to driving each sketch separately.
    """

    def __init__(self, instances) -> None:
        require_fresh(instances, lambda inst: inst._num_updates > 0, "p-stable")
        first = instances[0]
        if any((inst._n, inst._p, inst._num_rows) != (first._n, first._p, first._num_rows)
               for inst in instances):
            raise InvalidParameterError("ensemble members must share (n, p, num_rows)")
        self._n = first._n
        self._p = first._p
        self._num_rows = first._num_rows
        self._roots = np.asarray([inst._root_seed for inst in instances],
                                 dtype=np.uint64)
        self._scales = np.asarray([inst._scale for inst in instances])
        self._state = np.zeros((len(instances), self._num_rows), dtype=float)
        self._num_updates = np.zeros(len(instances), dtype=np.int64)

    @classmethod
    def concat(cls, ensembles: "list[PStableEnsemble]") -> "PStableEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        Per-replica projection states, root seeds, scales, and update counts
        are concatenated as-is, so merging the shards of a replica-sharded
        run is pure array concatenation.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any((e._n, e._p, e._num_rows) != (first._n, first._p, first._num_rows)
               for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, p, num_rows)")
        merged = cls.__new__(cls)
        merged._n = first._n
        merged._p = first._p
        merged._num_rows = first._num_rows
        merged._roots = np.concatenate([e._roots for e in ensembles])
        merged._scales = np.concatenate([e._scales for e in ensembles])
        merged._state = np.concatenate([e._state for e in ensembles])
        merged._num_updates = np.concatenate([e._num_updates for e in ensembles])
        return merged

    def merge(self, other: "PStableEnsemble") -> "PStableEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        The ensemble analogue of :meth:`PStableSketch.merge`: the sketch is
        linear, so a coordinator holding per-shard copies (same replica
        seeds, disjoint stream shards) obtains the global state by adding
        the stacked projection states.  In place; returns ``self``.
        """
        self.check_mergeable(other)
        np.add(self._state, other._state, out=self._state)
        self._num_updates += other._num_updates
        return self

    def check_mergeable(self, other: "PStableEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "p-stable ensembles",
            {"n": self._n, "p": self._p, "num_rows": self._num_rows,
             "replica seeds": self._roots},
            {"n": other._n, "p": other._p, "num_rows": other._num_rows,
             "replica seeds": other._roots})

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self._state.shape[0]

    def space_counters(self) -> int:
        """Total stored counters across all replicas."""
        return int(np.prod(self._state.shape))

    def update_batch(self, indices, deltas) -> None:
        """Apply one batch to every replica with one shared oracle pass."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        unique, aggregated = aggregate_batch(indices, deltas)
        # Evaluate the oracle grid in replica chunks so its temporaries stay
        # cache-resident (the kernel is memory-bound on big grids).
        cells = self._num_rows * max(unique.size, 1)
        step = max(1, (1 << 18) // cells)
        # Per-replica gemv into one scratch row allocated once per batch,
        # accumulated in place: the BLAS product and the add release the
        # GIL and no per-replica temporaries are allocated under it, so the
        # `threaded` sharding back-end overlaps shard ingests in one
        # process (the scratch is call-local, hence thread-private).
        # ``np.dot`` with ``out=`` is the identical BLAS call as ``@`` —
        # replica state stays bit-identical to the standalone sketch.
        scratch = np.empty(self._num_rows, dtype=float)
        for start in range(0, self.num_replicas, step):
            stop = min(self.num_replicas, start + step)
            blocks = stable_coefficient_block(
                self._roots[start:stop], self._p, self._num_rows, unique)
            for replica in range(start, stop):
                np.dot(blocks[replica - start], aggregated, out=scratch)
                state = self._state[replica]
                np.add(state, scratch, out=state)
        self._num_updates += int(indices.size)

    def estimate_norm_replica(self, replica: int) -> float:
        """Median estimator of ``||x||_p`` for one replica."""
        if self._num_updates[replica] == 0:
            raise SamplerStateError("the sketch has not seen any updates")
        return float(np.median(np.abs(self._state[replica]))
                     / self._scales[replica])

    def estimate_moment_replica(self, replica: int) -> float:
        """``F_p`` estimate of one replica."""
        return self.estimate_norm_replica(replica) ** self._p

    def sample_replica(self, replica: int):
        """PStableSketch has no ``sample``; the ensemble is query-only."""
        raise NotImplementedError("PStableEnsemble is query-only")


register_ensemble(PStableSketch, PStableEnsemble)
