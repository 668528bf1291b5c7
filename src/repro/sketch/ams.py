"""AMS sketch for ``F_2`` estimation [AMS99].

Algorithm 1 (line 3) uses an AMS estimate ``F̂_2`` that is a 2-approximation
of ``F_2(x) = ||x||_2^2`` with high probability.  The classical tug-of-war
construction suffices: each of ``width`` counters maintains
``Z_j = sum_i sigma_j(i) x_i`` for a 4-wise independent sign function
``sigma_j``; ``Z_j^2`` is an unbiased estimate of ``F_2`` with variance at
most ``2 F_2^2``, and a median of means over ``depth`` groups of ``width``
counters gives the high-probability guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.sketch.hashing import SignHashFamily
from repro.utils.batching import (
    BatchUpdateMixin,
    check_batch_bounds,
    check_member_index,
    coerce_batch,
    coerce_indices,
    median_of_rows,
)
from repro.utils.ensemble import ReplicaEnsemble, register_ensemble, require_fresh
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_positive_int,
)


def draw_ams_signs(seed: SeedLike, width: int, depth: int) -> SignHashFamily:
    """The sign family one AMS sketch draws from ``seed``.

    :class:`AMSSketch` and :meth:`AMSEnsemble.from_seeds` both call this,
    so the draw exists once.
    """
    return SignHashFamily.from_rng(ensure_rng(seed), width * depth, 4)


class AMSSketch(BatchUpdateMixin):
    """Tug-of-war sketch estimating ``F_2 = ||x||_2^2`` of a turnstile stream.

    Sign-hash coefficients are drawn at construction (one vectorised call);
    the dense ``(width * depth, n)`` int8 sign matrix is materialised lazily
    on first use, so short-lived instances pay almost nothing up front.
    Many sketches of one shape are cheaper as an :class:`AMSEnsemble`,
    which stacks their coefficients and counters.

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
        require_positive_int(n, "n")
        require_positive_int(width, "width")
        require_positive_int(depth, "depth")
        self._n = n
        self._width = width
        self._depth = depth
        self._table_mode = resolve_table_mode(table_mode)
        self._table_block = resolve_table_block(table_block)
        self._sign_family = draw_ams_signs(seed, width, depth)
        # Shape (depth * width, n): one row of signs per counter (lazy).
        self._signs: np.ndarray | None = None
        self._counters = np.zeros(width * depth, dtype=float)
        self._num_updates = 0

    def _ensure_signs(self) -> None:
        """Materialise the dense int8 sign matrix on first use (lazy)."""
        if self._signs is None:
            if self._table_mode == "cached":
                self._signs = self._sign_family.sign_table(self._n)
                return
            all_indices = np.arange(self._n, dtype=np.int64)
            self._signs = self._sign_family.sign_all(all_indices)

    def _sign_columns(self, indices: np.ndarray) -> np.ndarray:
        """``(counters, B)`` float sign columns at the given keys.

        F-order contract: the fancy-index gather ``signs[:, indices]``
        comes out **F-contiguous** (the advanced axis varies slowest in
        memory), and BLAS picks its accumulation order from the operand
        layout, so the gemv's bits depend on it.  The gather reads the
        int8 table and the cast to float comes *after* it (``astype``
        keeps F order); the ``blocked`` branch lays its fresh evaluation
        out F-contiguous before the same cast, so both paths feed the gemv
        identically laid-out float operands.
        """
        if self._table_mode == "blocked":
            return np.asfortranarray(
                self._sign_family.sign_all(indices)).astype(float)
        self._ensure_signs()
        return self._signs[:, indices].astype(float)

    def __getstate__(self):
        """Pickle without the dense sign matrix (re-derived lazily from the
        cache), keeping multiprocessing payloads table-independent."""
        state = self.__dict__.copy()
        state["_signs"] = None
        return state

    def __setstate__(self, state):
        """Restore, forcing the sign matrix to re-derive in this process.

        Defensive against snapshots written by builds whose
        ``__getstate__`` kept the matrix: nulling here guarantees an
        unpickled sketch always rebuilds from its hash family (and the
        process-local cache), bit-identically to a freshly built one.
        """
        state["_signs"] = None
        self.__dict__.update(state)

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._table_mode

    @property
    def shape(self) -> tuple[int, int]:
        """``(depth, width)`` of the counter grid."""
        return (self._depth, self._width)

    def space_counters(self) -> int:
        """Number of stored counters."""
        return self._width * self._depth

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        signs = self._sign_columns(np.asarray([index], dtype=np.int64))
        self._counters += signs[:, 0] * delta
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Apply a whole batch through one dense sign-matrix accumulation."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        self._counters += self._sign_columns(indices) @ deltas
        self._num_updates += int(indices.size)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add a whole frequency vector at once."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._n,):
            raise InvalidParameterError("vector shape must match the universe size")
        if self._table_mode == "blocked":
            # The gemv over the whole universe cannot be key-block split
            # without re-associating each counter's sum, so bit-identity
            # requires one *transient* full sign evaluation here — built,
            # multiplied, and freed (never cached or stored).  Dense-vector
            # ingest is a bulk-load path, not the streaming path the
            # blocked mode exists for.
            signs = self._sign_family.sign_all(
                np.arange(self._n, dtype=np.int64)).astype(float)
            self._counters += signs @ vector
            self._num_updates += int(np.count_nonzero(vector))
            return
        # Cast the int8 matrix first, so the product is the same float
        # BLAS gemv as in the blocked branch: NumPy does not promise which
        # loop, and so which summation order, a mixed int8 @ float takes.
        self._ensure_signs()
        self._counters += self._signs.astype(float) @ vector
        self._num_updates += int(np.count_nonzero(vector))

    def merge(self, other: "AMSSketch") -> "AMSSketch":
        """Merge another sketch built with the same seed/shape (linearity).

        The tug-of-war counters are linear in the stream, so two sketches
        sharing sign functions and fed disjoint sub-streams add entrywise
        into the sketch of the concatenated stream.  In place; returns
        ``self``.
        """
        self.check_mergeable(other)
        self._counters += other._counters
        self._num_updates += other._num_updates
        return self

    def check_mergeable(self, other: "AMSSketch") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "AMS sketches",
            {"n": self._n, "shape": self.shape,
             "sign hash coefficients": self._sign_family.coefficients},
            {"n": other._n, "shape": other.shape,
             "sign hash coefficients": other._sign_family.coefficients})

    def estimate_f2(self) -> float:
        """Median-of-means estimate of ``F_2``."""
        if self._num_updates == 0:
            raise SamplerStateError("AMS sketch queried before any update")
        squares = self._counters**2
        groups = squares.reshape(self._depth, self._width)
        return float(np.median(groups.mean(axis=1)))

    def estimate_l2(self) -> float:
        """Estimate of ``||x||_2`` (square root of the F_2 estimate)."""
        return float(np.sqrt(self.estimate_f2()))


class AMSEnsemble(ReplicaEnsemble):
    """``M`` independent AMS sketches with stacked counters and signs.

    The members' int8 sign matrices are built with one concatenated family
    evaluation (shape ``(M, width * depth, n)``); counters live in one
    ``(M, width * depth)`` array.  The per-member counter accumulation is
    the *same* gather + matrix-vector product the standalone sketch runs
    (contiguous ``(C, B)`` layout), so member state is bit-identical to
    driving each sketch separately.

    The ensemble keeps no :class:`AMSSketch`: built from instances, it
    takes their sign coefficients and refuses any that has ingested;
    :meth:`from_seeds` builds it without building any.
    """

    def __init__(self, instances) -> None:
        require_fresh(instances, lambda inst: inst._num_updates > 0, "AMS")
        first = instances[0]
        if any(inst.shape != first.shape or inst._n != first._n
               for inst in instances):
            raise InvalidParameterError("ensemble members must share (n, width, depth)")
        if any(inst._table_mode != first._table_mode for inst in instances):
            raise InvalidParameterError("ensemble members must share table_mode")
        self._setup(first._n, first._width, first._depth, first._table_mode,
                    first._table_block,
                    SignHashFamily.concatenate(
                        [inst._sign_family for inst in instances]))

    @classmethod
    def from_seeds(cls, n: int, width: int, depth: int, seeds,
                   table_mode: str | None = None,
                   table_block: int | None = None) -> "AMSEnsemble":
        """The ensemble of ``AMSSketch(n, width, depth, s, ...)`` for ``s``
        in ``seeds``, without building those sketches.

        Each member's family comes from :func:`draw_ams_signs`, the draw
        the standalone constructor makes, so the result is bitwise the
        ensemble :func:`~repro.utils.ensemble.build_ensemble` returns for
        the standalone instances.
        """
        require_positive_int(n, "n")
        require_positive_int(width, "width")
        require_positive_int(depth, "depth")
        if len(seeds) == 0:
            raise InvalidParameterError("an ensemble needs at least one replica")
        ensemble = cls.__new__(cls)
        ensemble._setup(n, width, depth, resolve_table_mode(table_mode),
                        resolve_table_block(table_block),
                        SignHashFamily.concatenate(
                            [draw_ams_signs(int(seed), width, depth)
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

        Same F-order contract as :meth:`AMSSketch._sign_columns`: the
        gather ``signs[member][:, indices]`` reads the int8 matrix and is
        F-contiguous, the cast to float comes after it and keeps that
        layout, and the ``blocked`` branch lays its fresh evaluation out
        the same way, so the per-member gemv accumulates bit-identically
        (BLAS order follows operand layout).  Gather one member at a time:
        a gather of every member at once, sliced afterwards, gives each
        member's block a leading dimension other than ``counters`` and
        changes the gemv's bits.
        """
        if self._table_mode == "blocked":
            counters = self._counters.shape[1]
            return np.asfortranarray(
                self._sign_family.sign_slice(
                    member * counters, (member + 1) * counters,
                    indices)).astype(float)
        self._ensure_signs()
        return self._signs[member][:, indices].astype(float)

    def __getstate__(self):
        """Pickle without the stacked sign matrix (re-derived lazily from
        the cache), keeping multiprocessing payloads table-independent."""
        state = self.__dict__.copy()
        state["_signs"] = None
        return state

    def __setstate__(self, state):
        """Restore, forcing the stacked matrix to re-derive (see
        :meth:`AMSSketch.__setstate__`)."""
        state["_signs"] = None
        self.__dict__.update(state)

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
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
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

        The ensemble analogue of :meth:`AMSSketch.merge`; used by stream
        sharding, where every shard holds a same-seed copy of the ensemble
        and the coordinator adds the stacked counters.  In place; returns
        ``self``.
        """
        self.check_mergeable(other)
        np.add(self._counters, other._counters, out=self._counters)
        self._num_updates += other._num_updates
        return self

    def check_mergeable(self, other: "AMSEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "AMS ensembles",
            {"n": self._n, "depth": self._depth, "width": self._width,
             "num_members": self.num_members,
             "sign hash coefficients": self._sign_family.coefficients},
            {"n": other._n, "depth": other._depth, "width": other._width,
             "num_members": other.num_members,
             "sign hash coefficients": other._sign_family.coefficients})

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
        Each member's accumulation is the standalone gather + ``gemv`` on
        identically laid-out arrays, so the result is bit-identical to the
        per-instance path.
        """
        indices = coerce_indices(indices)
        if indices.ndim != 1:
            raise InvalidParameterError("ensemble indices must be 1-D")
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        # C-contiguity matters for bit-identity: each member's gemv must see
        # the same contiguous-vector layout the standalone sketch sees
        # (broadcast products can come out F-contiguous, whose row slices
        # are strided and accumulate in a different order inside BLAS).
        deltas = np.ascontiguousarray(deltas, dtype=float)
        shared = deltas.ndim == 1
        if not shared and tuple(deltas.shape) != (self.num_members,
                                                  indices.size):
            raise InvalidParameterError(
                f"ensemble deltas must be (B,) or (M, B); got {deltas.shape}")
        # The per-member gemv grid writes into one scratch row allocated
        # once per batch and accumulates in place: the BLAS product and the
        # vector add both release the GIL, and no per-member temporaries
        # are allocated under it — this is what lets the `threaded`
        # sharding back-end overlap shard ingests inside one process (the
        # scratch is call-local, so it is thread-private by construction).
        # ``np.dot(..., out=)`` runs the identical BLAS routine as ``@``,
        # so member state stays bit-identical to the standalone sketch.
        scratch = np.empty(self._counters.shape[1], dtype=float)
        for member in range(self.num_members):
            selected = self._member_signs(member, indices)
            np.dot(selected, deltas if shared else deltas[member], out=scratch)
            counters = self._counters[member]
            np.add(counters, scratch, out=counters)
        self._num_updates += int(indices.size)

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

    def sample_replica(self, replica: int):
        """AMS has no ``sample``; ensembles of it are query-only."""
        raise NotImplementedError("AMSEnsemble is query-only")


register_ensemble(AMSSketch, AMSEnsemble)
