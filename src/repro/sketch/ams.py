"""AMS sketch for ``F_2`` estimation [AMS99].

Algorithm 1 (line 3) uses an AMS estimate ``F̂_2`` that is a 2-approximation
of ``F_2(x) = ||x||_2^2`` with high probability.  The classical tug-of-war
construction suffices: each of ``width`` counters maintains
``Z_j = sum_i sigma_j(i) x_i`` for a 4-wise independent sign function
``sigma_j``; ``Z_j^2`` is an unbiased estimate of ``F_2`` with variance at
most ``2 F_2^2``, and a median of means over ``depth`` groups of ``width``
counters gives the high-probability guarantee.

The substrate is written once, in :class:`AMSEnsemble` (``M`` sketches'
counters stacked along a member axis): :class:`AMSSketch` is a view of a
one-member ensemble (see :mod:`repro.utils.ensemble`), and
:func:`draw_ams_signs` is the one copy of the draw both use.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.sketch.hashing import SignHashFamily
from repro.utils.batching import (
    check_batch_bounds,
    check_member_index,
    coerce_indices,
    median_of_rows,
)
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, replica_seed
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import require_positive_int


def draw_ams_signs(seed: SeedLike, width: int, depth: int) -> SignHashFamily:
    """The sign family one AMS sketch draws from ``seed``.

    :class:`AMSSketch` and :meth:`AMSEnsemble.from_seeds` both call this,
    so the draw exists once.
    """
    return SignHashFamily.from_rng(ensure_rng(seed), width * depth, 4)


class AMSSketch(ReplicaView):
    """Tug-of-war sketch estimating ``F_2 = ||x||_2^2`` of a turnstile stream.

    A view of a one-member :class:`AMSEnsemble`.  Sign-hash coefficients
    are drawn at construction (one vectorised call); the dense
    ``(width * depth, n)`` int8 sign matrix is materialised lazily on first
    use, so short-lived instances pay almost nothing up front.

    Parameters
    ----------
    n:
        Universe size.
    width:
        Number of independent counters per group (averaging reduces
        variance by ``1/width``).
    depth:
        Number of groups (the median over groups boosts confidence).
    """

    def __init__(self, n: int, width: int = 16, depth: int = 5, seed: SeedLike = None,
                 table_mode: str | None = None,
                 table_block: int | None = None) -> None:
        self._ensemble = AMSEnsemble.from_seeds(
            n, width, depth, [seed], table_mode=table_mode,
            table_block=table_block)
        self._n = n
        self._width = width
        self._depth = depth

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._ensemble.table_mode

    @property
    def shape(self) -> tuple[int, int]:
        """``(depth, width)`` of the counter grid."""
        return (self._depth, self._width)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add a whole frequency vector at once."""
        self._ensemble.update_vector(vector)

    def merge(self, other: "AMSSketch") -> "AMSSketch":
        """Merge another sketch built with the same seed/shape (linearity).

        The tug-of-war counters are linear in the stream, so two sketches
        sharing sign functions and fed disjoint sub-streams add entrywise
        into the sketch of the concatenated stream.  In place; returns
        ``self``.
        """
        self.check_mergeable(other)
        self._ensemble.merge(other._ensemble)
        return self

    def estimate_f2(self) -> float:
        """Median-of-means estimate of ``F_2``."""
        return self._ensemble.estimate_f2_member(0)

    def estimate_l2(self) -> float:
        """Estimate of ``||x||_2`` (square root of the F_2 estimate)."""
        return self._ensemble.estimate_l2_member(0)


class AMSEnsemble(ReplicaEnsemble):
    """``M`` independent AMS sketches with stacked counters and signs.

    The members' int8 sign matrices are built with one concatenated family
    evaluation (shape ``(M, width * depth, n)``); counters live in one
    ``(M, width * depth)`` array.  Each member's counters accumulate
    through its own gather + matrix-vector product on a contiguous
    ``(C, B)`` layout, so member state is bit-identical however the
    members are stacked.  Built from :class:`AMSSketch` views it
    concatenates their one-member ensembles; :meth:`from_seeds` draws the
    members directly.
    """

    _DERIVED = ("_signs",)
    _ZERO_STATE = ("_counters", "_num_updates")

    @classmethod
    def from_seeds(cls, n: int, width: int, depth: int, seeds,
                   table_mode: str | None = None,
                   table_block: int | None = None) -> "AMSEnsemble":
        """The ensemble of ``AMSSketch(n, width, depth, s, ...)`` for ``s``
        in ``seeds``, without building those sketches.

        Each member's family comes from :func:`draw_ams_signs`, the one
        copy of the draw, so member ``r`` is bitwise the sketch
        ``AMSSketch(n, width, depth, seeds[r], ...)``.
        """
        require_positive_int(n, "n")
        require_positive_int(width, "width")
        require_positive_int(depth, "depth")
        require_replicas(seeds)
        table_mode = resolve_table_mode(table_mode)
        table_block = resolve_table_block(table_block)
        ensemble = cls.__new__(cls)
        ensemble._setup(n, width, depth, table_mode, table_block,
                        SignHashFamily.concatenate(
                            [draw_ams_signs(replica_seed(seed), width, depth)
                             for seed in seeds]))
        return ensemble

    def _setup(self, n: int, width: int, depth: int, table_mode: str,
               table_block: int, sign_family: SignHashFamily,
               counters: np.ndarray | None = None,
               num_updates: np.ndarray | None = None) -> None:
        """Set every field; missing counters start at zero."""
        self._n = n
        self._width = width
        self._depth = depth
        self._table_mode = table_mode
        self._table_block = table_block
        self._sign_family = sign_family
        # The stacked (M, counters, n) sign matrix is built lazily in one
        # concatenated family evaluation (shared through the keyed cache in
        # ``cached`` mode, never materialised in ``blocked`` mode).
        self._signs = None
        members = sign_family.size // (width * depth)
        if counters is None:
            counters = np.zeros((members, width * depth), dtype=float)
            num_updates = np.zeros(members, dtype=np.int64)
        self._counters = counters
        self._num_updates = num_updates

    def _ensure_signs(self) -> None:
        """Materialise the stacked int8 sign matrix on first use (lazy)."""
        if self._signs is None:
            members = self.num_members
            counters = self._counters.shape[1]
            if self._table_mode == "cached":
                self._signs = self._sign_family.sign_table(
                    self._n).reshape(members, counters, self._n)
            else:
                all_indices = np.arange(self._n, dtype=np.int64)
                self._signs = self._sign_family.sign_all(all_indices).reshape(
                    members, counters, self._n)

    def _member_signs(self, member: int, indices: np.ndarray):
        """One member's ``(counters, B)`` float sign columns (mode-aware).

        F-order contract: the fancy-index gather ``signs[member][:, indices]``
        reads the int8 matrix and comes out **F-contiguous** (the advanced
        axis varies slowest in memory), and BLAS picks its accumulation
        order from the operand layout, so the gemv's bits depend on it.
        The cast to float comes *after* the gather and keeps that layout,
        and the ``blocked`` branch lays its fresh evaluation out the same
        way, so both paths feed the gemv identically laid-out float
        operands.  Gather one member at a time: a gather of every member
        at once, sliced afterwards, gives each member's block a leading
        dimension other than ``counters`` and changes the gemv's bits.
        """
        if self._table_mode == "blocked":
            counters = self._counters.shape[1]
            return np.asfortranarray(
                self._sign_family.sign_slice(
                    member * counters, (member + 1) * counters,
                    indices)).astype(float)
        self._ensure_signs()
        return self._signs[member][:, indices].astype(float)

    def _has_ingested(self) -> bool:
        """Whether any member has ingested an update."""
        return bool(self._num_updates.any())

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode shared by every member."""
        return self._table_mode

    @classmethod
    def concat(cls, ensembles: "list[AMSEnsemble]") -> "AMSEnsemble":
        """Stack replica-shard ensembles along the member axis (no recompute).

        Sign matrices, counters, and update counts are concatenated as-is
        (existing counter state is preserved), so merging the shards of a
        replica-sharded run never re-evaluates a hash family.
        """
        require_replicas(ensembles)
        first = ensembles[0]
        if any((e._n, e._depth, e._width) != (first._n, first._depth, first._width)
               for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, width, depth)")
        if any(e._table_mode != first._table_mode for e in ensembles):
            raise InvalidParameterError("ensembles must share table_mode")
        merged = cls.__new__(cls)
        merged._setup(first._n, first._width, first._depth, first._table_mode,
                      first._table_block,
                      SignHashFamily.concatenate(
                          [e._sign_family for e in ensembles]),
                      np.concatenate([e._counters for e in ensembles]),
                      np.concatenate([e._num_updates for e in ensembles]))
        if any(e._signs is not None for e in ensembles):
            for ensemble in ensembles:
                ensemble._ensure_signs()
            merged._signs = np.concatenate(
                [e._signs for e in ensembles])
        return merged

    def merge(self, other: "AMSEnsemble") -> "AMSEnsemble":
        """Entrywise-add a same-sign ensemble built over a disjoint sub-stream.

        The tug-of-war counters are linear in the stream; stream sharding
        holds a same-seed copy of the ensemble per shard and the
        coordinator adds the stacked counters.  In place; returns ``self``.
        """
        self.check_mergeable(other)
        np.add(self._counters, other._counters, out=self._counters)
        self._num_updates += other._num_updates
        return self

    def _merge_identity(self) -> dict:
        return {"n": self._n, "depth": self._depth, "width": self._width,
                "num_members": self.num_members,
                "sign hash coefficients": self._sign_family.coefficients}

    @property
    def num_members(self) -> int:
        """Number of member sketches ``M``."""
        return self._counters.shape[0]

    @property
    def num_replicas(self) -> int:
        """Number of replicas: one per member sketch."""
        return self.num_members

    def space_counters(self) -> int:
        """Total stored counters across all members."""
        return int(np.prod(self._counters.shape))

    def update_batch(self, indices, deltas) -> None:
        """Apply one batch to every member.

        ``deltas`` may be ``(B,)`` (shared) or ``(M, B)`` (per member).
        """
        indices = coerce_indices(indices)
        if indices.ndim != 1:
            raise InvalidParameterError("ensemble indices must be 1-D")
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim != 1 and tuple(deltas.shape) != (self.num_members,
                                                        indices.size):
            raise InvalidParameterError(
                f"ensemble deltas must be (B,) or (M, B); got {deltas.shape}")
        self._ingest(indices, deltas)

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Accumulate a validated batch: one gather + gemv per member."""
        # C-contiguity matters for bit-identity: each member's gemv must see
        # a contiguous delta vector (broadcast products can come out
        # F-contiguous, whose row slices are strided and accumulate in a
        # different order inside BLAS).
        deltas = np.ascontiguousarray(deltas)
        shared = deltas.ndim == 1
        # The per-member gemv grid writes into one scratch row allocated
        # once per batch and accumulates in place: the BLAS product and the
        # vector add both release the GIL, and no per-member temporaries
        # are allocated under it — this is what lets the `threaded`
        # sharding back-end overlap shard ingests inside one process (the
        # scratch is call-local, so it is thread-private by construction).
        # ``np.dot(..., out=)`` runs the identical BLAS routine as ``@``.
        scratch = np.empty(self._counters.shape[1], dtype=float)
        for member in range(self.num_members):
            selected = self._member_signs(member, indices)
            np.dot(selected, deltas if shared else deltas[member], out=scratch)
            counters = self._counters[member]
            np.add(counters, scratch, out=counters)
        self._num_updates += int(indices.size)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add a whole frequency vector to every member."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._n,):
            raise InvalidParameterError("vector shape must match the universe size")
        keys = np.arange(self._n, dtype=np.int64)
        counters = self._counters.shape[1]
        for member in range(self.num_members):
            if self._table_mode == "blocked":
                # The gemv over the whole universe cannot be key-block
                # split without re-associating each counter's sum, so bit
                # identity needs one *transient* full sign evaluation here
                # — built, multiplied and freed, never cached or stored.
                # Dense-vector ingest is a bulk-load path, not the
                # streaming path the blocked mode exists for.
                signs = self._sign_family.sign_slice(
                    member * counters, (member + 1) * counters, keys)
            else:
                self._ensure_signs()
                signs = self._signs[member]
            # Cast the int8 matrix first, so the product is a float BLAS
            # gemv in both branches: NumPy does not promise which loop,
            # and so which summation order, a mixed int8 @ float takes.
            self._counters[member] += signs.astype(float) @ vector
        self._num_updates += int(np.count_nonzero(vector))

    def estimate_f2_member(self, member: int) -> float:
        """Median-of-means ``F_2`` estimate of one member."""
        check_member_index(member, self.num_members)
        if self._num_updates[member] == 0:
            raise SamplerStateError("AMS sketch queried before any update")
        squares = self._counters[member] ** 2
        groups = squares.reshape(self._depth, self._width)
        return float(median_of_rows(groups.mean(axis=1)))

    def estimate_f2_members(self) -> np.ndarray:
        """``(M,)`` median-of-means ``F_2`` estimates of every member.

        One reshape, mean and median over ``(M, depth, width)``; each entry
        equals :meth:`estimate_f2_member` of that member.
        """
        if not np.all(self._num_updates):
            raise SamplerStateError("AMS sketch queried before any update")
        squares = self._counters ** 2
        groups = squares.reshape(self.num_members, self._depth, self._width)
        return median_of_rows(groups.mean(axis=2), axis=1)

    def estimate_l2_member(self, member: int) -> float:
        """``||x||_2`` estimate of one member."""
        return float(np.sqrt(self.estimate_f2_member(member)))


register_ensemble(AMSSketch, AMSEnsemble)
