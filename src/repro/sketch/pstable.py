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

The substrate is written once, in :class:`PStableEnsemble` (``R``
sketches' projections stacked along a replica axis): :class:`PStableSketch`
is a view of a one-replica ensemble (see :mod:`repro.utils.ensemble`), and
:func:`draw_pstable_replica` is the one copy of the draw both use.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.utils.batching import aggregate_batch, check_member_index
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, replica_seed, splitmix64
from repro.utils.validation import require_moment_order, require_positive_int


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


def draw_pstable_replica(seed: SeedLike, p: float) -> tuple[int, float]:
    """The ``(root seed, median scale)`` one p-stable sketch draws from ``seed``.

    :class:`PStableSketch` and :meth:`PStableEnsemble.from_seeds` both
    call this, so the draw exists once.
    """
    root_seed = int(ensure_rng(seed).integers(0, 2**62))
    return root_seed, stable_median_scale(p, ensure_rng(root_seed + 1))


class PStableSketch(ReplicaView):
    """Linear ``L_p`` norm sketch for ``p in (0, 2]`` ([Ind06]).

    A view of a one-replica :class:`PStableEnsemble`.

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
        self._ensemble = PStableEnsemble.from_seeds(n, p, num_rows, [seed])
        self._n = n
        self._p = self._ensemble._p
        self._num_rows = num_rows

    @property
    def p(self) -> float:
        """Norm order."""
        return self._p

    @property
    def num_rows(self) -> int:
        """Number of stable projections."""
        return self._num_rows

    def estimate_norm(self) -> float:
        """Median estimator of ``||x||_p``."""
        return self._ensemble.estimate_norm_replica(0)

    def estimate_moment(self) -> float:
        """Estimate of ``F_p = ||x||_p^p``."""
        return self._ensemble.estimate_moment_replica(0)

    def merge(self, other: "PStableSketch") -> "PStableSketch":
        """Merge two sketches built with the same seed over disjoint sub-streams.

        Returns a new sketch and leaves both operands untouched.
        """
        self.check_mergeable(other)
        merged = copy.copy(self)
        merged._ensemble = PStableEnsemble.concat([self._ensemble]).merge(
            other._ensemble)
        return merged


class PStableEnsemble(ReplicaEnsemble):
    """``R`` independent ``p``-stable sketches with stacked projections.

    The per-replica projection states live in one ``(R, num_rows)`` array;
    each batch is aggregated once (shared ``np.unique``/``bincount``) and
    the stable coefficients of every ``(replica, row, coordinate)`` cell
    come from a single vectorised evaluation of the counter-based oracle.
    Each replica accumulates through its own ``matrix @ aggregated``
    product on an identically laid-out slice, so replica state is
    bit-identical however the replicas are stacked.  Built from
    :class:`PStableSketch` views it concatenates their one-replica
    ensembles; :meth:`from_seeds` draws the replicas directly.
    """

    _ZERO_STATE = ("_state", "_num_updates")

    @classmethod
    def from_seeds(cls, n: int, p: float, num_rows: int,
                   seeds) -> "PStableEnsemble":
        """The ensemble of ``PStableSketch(n, p, num_rows, s)`` for ``s``
        in ``seeds``, each replica drawn by :func:`draw_pstable_replica`."""
        require_positive_int(n, "n")
        p = require_moment_order(p, "p", minimum=0.0, maximum=2.0)
        require_positive_int(num_rows, "num_rows")
        require_replicas(seeds)
        drawn = [draw_pstable_replica(replica_seed(seed), p) for seed in seeds]
        ensemble = cls.__new__(cls)
        ensemble._setup(n, p, num_rows,
                        np.asarray([root for root, _ in drawn], dtype=np.uint64),
                        np.asarray([scale for _, scale in drawn]),
                        np.zeros((len(drawn), num_rows), dtype=float),
                        np.zeros(len(drawn), dtype=np.int64))
        return ensemble

    def _setup(self, n: int, p: float, num_rows: int, roots: np.ndarray,
               scales: np.ndarray, state: np.ndarray,
               num_updates: np.ndarray) -> None:
        """Set every field."""
        self._n = n
        self._p = p
        self._num_rows = num_rows
        self._roots = roots
        self._scales = scales
        self._state = state
        self._num_updates = num_updates

    def _has_ingested(self) -> bool:
        """Whether any replica has ingested an update."""
        return bool(self._num_updates.any())

    @classmethod
    def concat(cls, ensembles: "list[PStableEnsemble]") -> "PStableEnsemble":
        """Stack replica-shard ensembles along the replica axis (no recompute).

        Per-replica projection states, root seeds, scales, and update counts
        are concatenated as-is, so merging the shards of a replica-sharded
        run is pure array concatenation.
        """
        require_replicas(ensembles)
        first = ensembles[0]
        if any((e._n, e._p, e._num_rows) != (first._n, first._p, first._num_rows)
               for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, p, num_rows)")
        merged = cls.__new__(cls)
        merged._setup(first._n, first._p, first._num_rows,
                      np.concatenate([e._roots for e in ensembles]),
                      np.concatenate([e._scales for e in ensembles]),
                      np.concatenate([e._state for e in ensembles]),
                      np.concatenate([e._num_updates for e in ensembles]))
        return merged

    def merge(self, other: "PStableEnsemble") -> "PStableEnsemble":
        """Entrywise-add a same-seed ensemble built over a disjoint sub-stream.

        The sketch is linear, so a coordinator holding per-shard copies
        (same replica seeds, disjoint stream shards) obtains the global
        state by adding the stacked projection states.  In place; returns
        ``self``.
        """
        self.check_mergeable(other)
        np.add(self._state, other._state, out=self._state)
        self._num_updates += other._num_updates
        return self

    def _merge_identity(self) -> dict:
        return {"n": self._n, "p": self._p, "num_rows": self._num_rows,
                "replica seeds": self._roots}

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self._state.shape[0]

    def space_counters(self) -> int:
        """Total stored counters across all replicas."""
        return int(np.prod(self._state.shape))

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply one validated batch to every replica with one shared oracle
        pass.

        Repeated indices are aggregated first (the sketch is linear); the
        coefficients of every distinct coordinate come from vectorised
        oracle evaluations, and each replica's remaining work is a single
        ``matrix @ aggregated_deltas``.
        """
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
        # ``np.dot`` with ``out=`` is the identical BLAS call as ``@``.
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
        check_member_index(replica, self.num_replicas, "replica")
        if self._num_updates[replica] == 0:
            raise SamplerStateError("the sketch has not seen any updates")
        return float(np.median(np.abs(self._state[replica]))
                     / self._scales[replica])

    def estimate_moment_replica(self, replica: int) -> float:
        """``F_p`` estimate of one replica."""
        return self.estimate_norm_replica(replica) ** self._p


register_ensemble(PStableSketch, PStableEnsemble)
