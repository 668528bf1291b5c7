"""CountSketch heavy-hitter sketches [CCF04].

:class:`CountSketch`
    The classic table with ``rows`` rows and ``buckets`` buckets per row.
    Every coordinate hashes to exactly one bucket per row with a 4-wise
    independent sign; the point query is the median of the signed bucket
    values over rows.  The guarantee (used throughout Section 2 and 3 of
    the paper) is an additive error of ``O(||x_tail||_2 / sqrt(buckets))``
    per query with high probability in the number of rows.

:class:`CountSketchEnsemble`
    ``M`` such sketches stacked along a leading member axis.  This is where
    the substrate is written: the scatter kernel, the three table modes,
    the lazy hash-table build, the queries, the pickling rule and the merge
    check.  A :class:`CountSketch` is a view of a one-member ensemble (see
    :mod:`repro.utils.ensemble`), and :func:`draw_countsketch_hashes` is
    the one copy of the draw order both use.

:class:`AveragedCountSketch`
    ``polylog(n)`` independent CountSketch instances whose point queries are
    averaged — the estimator of Corollary 2.2/2.3, which turns the
    heavy-hitter guarantee into a *relative* error estimate for coordinates
    that are ``1/polylog(n)``-heavy and gives (conditionally) unbiased
    estimates for the rejection step of Algorithms 1 and 2.

All sketches are linear: they support positive and negative updates and can
be merged by adding tables entrywise.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.batching import (
    BatchUpdateMixin,
    check_batch_bounds,
    check_member_index,
    coerce_batch,
    coerce_indices,
    fused_bincount_add,
    median_of_rows,
)
from repro.utils.ensemble import (
    ReplicaEnsemble,
    ReplicaView,
    group_chunks,
    member_chunks,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array, replica_seed
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import require_positive_int


def draw_countsketch_hashes(seed: SeedLike, rows: int, buckets: int):
    """The ``(bucket, sign)`` families one CountSketch draws from ``seed``.

    :class:`CountSketch` and :meth:`CountSketchEnsemble.from_seeds` both
    call this, so the draw order exists once: the bucket family's
    coefficients first, then the sign family's.
    """
    rng = ensure_rng(seed)
    return (KWiseHashFamily.from_rng(rng, rows, 2, buckets),
            SignHashFamily.from_rng(rng, rows, 4))


def averaged_member_seeds(seed: SeedLike, num_instances: int) -> np.ndarray:
    """The member seeds an :class:`AveragedCountSketch` derives from ``seed``."""
    return random_seed_array(ensure_rng(seed), num_instances)


class CountSketch(ReplicaView):
    """Classic CountSketch over the universe ``[0, n)``.

    A view of a one-member :class:`CountSketchEnsemble`, built by
    :meth:`CountSketchEnsemble.from_seeds` from ``seed``: construction
    draws the hash-family coefficients (two vectorised ``rng.integers``
    calls) but defers the O(n * rows) per-coordinate hash tables until the
    sketch is first touched, so short-lived instances pay almost nothing up
    front.  Many sketches of one shape are cheaper still as one
    :class:`CountSketchEnsemble`, whose member ``r`` is bitwise the sketch
    with the ensemble's ``r``-th seed.

    Parameters
    ----------
    n:
        Universe size (hash tables are precomputed per coordinate on first
        use, which is the natural choice for the moderate universes of
        this library).
    buckets:
        Number of buckets per row.
    rows:
        Number of rows (the estimate is a median over rows).
    seed:
        Seed or generator for hash functions.
    table_mode:
        How the per-coordinate hash tables are materialised — ``"cached"``
        (shared through :mod:`repro.utils.table_cache`), ``"private"``
        (per-instance copies, the pre-cache behaviour) or ``"blocked"``
        (never materialised; columns are evaluated per batch and
        full-universe queries sweep the universe in ``table_block``-sized
        chunks).  ``None`` takes the process default.  All three modes are
        bit-identical.
    table_block:
        Coordinates per chunk for ``blocked``-mode universe sweeps.
    """

    def __init__(self, n: int, buckets: int, rows: int, seed: SeedLike = None,
                 table_mode: str | None = None,
                 table_block: int | None = None) -> None:
        self._ensemble = CountSketchEnsemble.from_seeds(
            n, buckets, rows, [seed], table_mode=table_mode,
            table_block=table_block)
        self._n = n
        self._buckets = buckets
        self._rows = rows

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._ensemble.table_mode

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the sketch table."""
        return (self._rows, self._buckets)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add an entire frequency vector to the sketch in one shot."""
        self._ensemble.update_vector(vector)

    def estimate(self, index: int) -> float:
        """Point query: the median-of-rows estimate of coordinate ``index``."""
        return self._ensemble.estimate_member(0, index)

    def estimate_all(self) -> np.ndarray:
        """Vector of point-query estimates for every coordinate."""
        return self._ensemble.estimate_all_member(0)

    def heavy_hitters(self, threshold: float) -> np.ndarray:
        """Indices whose estimated magnitude is at least ``threshold``."""
        estimates = self.estimate_all()
        return np.flatnonzero(np.abs(estimates) >= threshold)

    def merge(self, other: "CountSketch") -> None:
        """Merge another sketch built with the same seed/shape (linearity)."""
        self.check_mergeable(other)
        self._ensemble.merge(other._ensemble)

    def l2_error_bound(self, l2_norm: float, confidence_factor: float = 3.0) -> float:
        """The standard per-query error scale ``confidence * ||x||_2 / sqrt(buckets)``."""
        return confidence_factor * l2_norm / np.sqrt(self._buckets)


class BucketTableEnsemble(ReplicaEnsemble):
    """``M`` sketches whose members hash each coordinate to one bucket per
    row of an ``(M, rows, buckets)`` table: the layout
    :class:`CountSketchEnsemble` and
    :class:`~repro.sketch.countmin.CountMinEnsemble` share.

    Subclasses set ``_n``, ``_rows``, ``_buckets``, ``_table_mode``,
    ``_table_block``, ``_bucket_family``, ``_bucket_of`` and ``_table``.
    """

    _DERIVED = ("_bucket_of",)
    #: The hash-family fields, concatenated by :meth:`concat`.
    _FAMILIES = ("_bucket_family",)

    def _has_ingested(self) -> bool:
        """Whether any member table holds a non-zero counter."""
        return bool(self._table.any())

    def _shared(self) -> tuple:
        """What every member shares: universe, shape and table mode."""
        return (self._n, self._rows, self._buckets, self._table_mode)

    @classmethod
    def concat(cls, ensembles: "list[BucketTableEnsemble]") -> "BucketTableEnsemble":
        """Flatten several same-shape ensembles into one (no recompute).

        Used by composite replica ensembles to merge the per-replica inner
        ensembles (value banks, max-stability repetitions) into a single
        stacked structure; hash families and member tables are concatenated
        as-is (existing counter state is preserved), and unbuilt hash
        tables stay unbuilt so the merged ensemble evaluates them in one
        family pass on first touch.
        """
        require_replicas(ensembles)
        first = ensembles[0]
        if any(e._shared() != first._shared() for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share n, shape, table mode and query")
        merged = copy.copy(first)
        for name in cls._FAMILIES:
            families = [getattr(e, name) for e in ensembles]
            setattr(merged, name, type(families[0]).concatenate(families))
        if any(e._has_ingested() for e in ensembles):
            merged._table = np.concatenate([e._table for e in ensembles])
        else:
            # Fresh ensembles: allocate the merged zero table directly
            # instead of concatenating hundreds of small zero arrays.
            merged._table = np.zeros(
                (merged._bucket_family.size // first._rows, first._rows,
                 first._buckets), dtype=float)
        built = any(e._bucket_of is not None for e in ensembles)
        for ensemble in ensembles if built else ():
            ensemble._ensure_tables()
        for name in cls._DERIVED:
            setattr(merged, name, np.concatenate(
                [getattr(e, name) for e in ensembles]) if built else None)
        return merged

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode shared by every member."""
        return self._table_mode

    @property
    def num_members(self) -> int:
        """Total number of member sketches ``M``."""
        return self._table.shape[0]

    @property
    def num_replicas(self) -> int:
        """Number of replicas: one per member sketch."""
        return self.num_members

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of every member table."""
        return (self._rows, self._buckets)

    def space_counters(self) -> int:
        """Total stored counters across all members."""
        return int(np.prod(self._table.shape))

    def _universe_table(self, cached, evaluate) -> np.ndarray:
        """A family's ``(M, rows, n)`` table over the whole universe:
        ``cached(n)`` through the keyed table cache in ``cached`` mode, a
        private ``evaluate(keys)`` otherwise."""
        table = (cached(self._n) if self._table_mode == "cached"
                 else evaluate(np.arange(self._n, dtype=np.int64)))
        return table.reshape(-1, self._rows, self._n)

    def _slice_table(self, evaluate, start: int, stop: int,
                     indices: np.ndarray) -> np.ndarray:
        """Members ``[start, stop)`` of a family at ``indices``, evaluated
        directly as ``(stop - start, rows, B)`` (``blocked`` mode)."""
        return evaluate(start * self._rows, stop * self._rows,
                        indices).reshape(stop - start, self._rows, indices.size)

    def merge(self, other: "BucketTableEnsemble") -> "BucketTableEnsemble":
        """Entrywise-add a same-hash ensemble built over a disjoint sub-stream.

        The tables are linear in the stream, so member ``m`` of ``other``
        must share member ``m``'s hash functions, which is exactly the
        situation of stream sharding — every shard holds a copy of the
        ensemble built from the same seeds and ingests its own sub-stream;
        the coordinator adds the stacked tables.  In place; returns
        ``self``.
        """
        self.check_mergeable(other)
        np.add(self._table, other._table, out=self._table)
        return self


class CountSketchEnsemble(BucketTableEnsemble):
    """``M`` independent CountSketch members as one stacked-array structure.

    The members' hash tables are built with a single concatenated
    family evaluation over the universe (shape ``(M, rows, n)``) and all
    member tables live in one ``(M, rows, buckets)`` array, so a batch of
    stream updates lands in every member with one scatter-add.  Per-cell
    accumulation order is the single sketch's per-row scatter order, so
    member state is bit-identical however the members are stacked.

    ``update_batch`` accepts deltas of shape ``(B,)`` (shared by every
    member), ``(M, B)`` (per member), or ``(G, B)`` with ``M = G * F``
    (per *replica* of a composite ensemble whose replicas own ``F``
    members each, e.g. the value-estimation banks of the JW18 sampler).

    Built from :class:`CountSketch` views it concatenates their one-member
    ensembles (see :class:`~repro.utils.ensemble.ReplicaEnsemble`);
    :meth:`from_seeds` draws the members directly.
    """

    _DERIVED = ("_bucket_of", "_sign_of")
    _FAMILIES = ("_bucket_family", "_sign_family")

    @classmethod
    def from_seeds(cls, n: int, buckets: int, rows: int, seeds,
                   table_mode: str | None = None,
                   table_block: int | None = None) -> "CountSketchEnsemble":
        """The ensemble of ``CountSketch(n, buckets, rows, s, ...)`` for
        ``s`` in ``seeds``, without building those sketches.

        Each member's families come from :func:`draw_countsketch_hashes`,
        the one copy of the draw order, so member ``r`` is bitwise the
        sketch ``CountSketch(n, buckets, rows, seeds[r], ...)``.
        """
        require_positive_int(n, "n")
        require_positive_int(buckets, "buckets")
        require_positive_int(rows, "rows")
        require_replicas(seeds)
        table_mode = resolve_table_mode(table_mode)
        table_block = resolve_table_block(table_block)
        drawn = [draw_countsketch_hashes(replica_seed(seed), rows, buckets)
                 for seed in seeds]
        ensemble = cls.__new__(cls)
        ensemble._setup(n, rows, buckets, table_mode, table_block,
                        KWiseHashFamily.concatenate([b for b, _ in drawn]),
                        SignHashFamily.concatenate([s for _, s in drawn]))
        return ensemble

    def _setup(self, n: int, rows: int, buckets: int, table_mode: str,
               table_block: int, bucket_family: KWiseHashFamily,
               sign_family: SignHashFamily,
               table: np.ndarray | None = None) -> None:
        """Set every field; a missing ``table`` starts at zero."""
        self._n = n
        self._rows = rows
        self._buckets = buckets
        self._table_mode = table_mode
        self._table_block = table_block
        self._bucket_family = bucket_family
        self._sign_family = sign_family
        # Hash tables are built lazily in one concatenated family
        # evaluation: composite ensembles that concat() several member
        # ensembles therefore evaluate the hashes of *all* replicas in a
        # single pass on first touch.
        self._bucket_of = None
        self._sign_of = None
        if table is None:
            table = np.zeros((bucket_family.size // rows, rows, buckets),
                             dtype=float)
        self._table = table

    def _ensure_tables(self) -> None:
        """Build the stacked per-coordinate hash tables on first use."""
        if self._bucket_of is None:
            self._bucket_of = self._universe_table(
                self._bucket_family.hash_table, self._bucket_family.hash_all)
            self._sign_of = self._universe_table(
                self._sign_family.sign_table, self._sign_family.sign_all)

    def _member_columns(self, start: int, stop: int, indices: np.ndarray):
        """``(stop - start, rows, B)`` bucket/sign values of a member chunk.

        The materialised gather is ``np.take(..., axis=-1)`` and returns
        C-contiguous columns; the slice-slice-array index
        ``table[start:stop, :, indices]`` would return a transposed view
        whose ``ravel`` in :func:`fused_bincount_add` silently copies.  In
        ``blocked`` mode the member slice of the concatenated families is
        evaluated directly, with the same values as the gather.  The
        downstream bincount/scatter kernels read operands element-wise in
        C order regardless of memory layout, so the accumulation is
        bitwise-equal either way.
        """
        if self._table_mode == "blocked":
            return (self._slice_table(self._bucket_family.hash_slice,
                                      start, stop, indices),
                    self._slice_table(self._sign_family.sign_slice,
                                      start, stop, indices))
        self._ensure_tables()
        return (np.take(self._bucket_of[start:stop], indices, axis=-1),
                np.take(self._sign_of[start:stop], indices, axis=-1))

    def _merge_identity(self) -> dict:
        return {"n": self._n, "shape": self.shape,
                "num_members": self.num_members,
                "bucket hash coefficients": self._bucket_family.coefficients,
                "sign hash coefficients": self._sign_family.coefficients}

    def _coerce_deltas(self, deltas, batch: int) -> np.ndarray:
        """Normalise deltas to ``(G, B)`` with ``M`` divisible by ``G``."""
        deltas = np.asarray(deltas, dtype=float)
        if deltas.ndim == 1:
            deltas = deltas[None, :]
        if deltas.ndim != 2 or deltas.shape[1] != batch:
            raise InvalidParameterError(
                f"ensemble deltas must be (B,), (M, B) or (G, B); got {deltas.shape}"
            )
        if self.num_members % deltas.shape[0] != 0:
            raise InvalidParameterError(
                f"delta groups {deltas.shape[0]} do not divide members "
                f"{self.num_members}"
            )
        return deltas

    def update_batch(self, indices, deltas) -> None:
        """Apply one batch to every member with chunked fused scatter-adds."""
        indices = coerce_indices(indices)
        if indices.ndim != 1:
            raise InvalidParameterError("ensemble indices must be 1-D")
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        self._ingest(indices, self._coerce_deltas(deltas, indices.size))

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Scatter a validated batch into every member table.

        ``deltas`` is ``(B,)`` or ``(G, B)`` (see :meth:`_coerce_deltas`).
        Large batches (at least ``buckets`` updates) go through one flat
        weighted ``np.bincount`` per member chunk, several times faster
        than ``np.add.at``; smaller ones keep the element-wise scatter,
        which avoids touching the whole table.  The branch depends only on
        the batch length, and each cell accumulates the batch's updates in
        batch order either way, so every member is bitwise the single
        sketch fed the same batches.  Relative to one-update-at-a-time
        replay, the bincount branch sums each batch's contributions before
        adding them to the table, a legal re-association within the batch
        engine's documented ``rtol=1e-9`` float contract (the same class of
        re-association the AMS and p-stable batch paths perform).
        """
        if deltas.ndim == 1:
            deltas = deltas[None, :]
        groups = deltas.shape[0]
        per_group = self.num_members // groups
        batch = indices.size
        row_index = np.arange(self._rows)[None, :, None]
        use_bincount = batch >= self._buckets
        cells_per_member = self._rows * self._buckets
        # Chunk along whole replica groups so the per-group delta rows
        # broadcast cleanly and no member range is visited twice.
        for start, stop, group_start, group_stop in group_chunks(
                groups, per_group, self._rows * batch):
            buckets, signs = self._member_columns(start, stop, indices)
            chunk = stop - start
            if group_stop - group_start == 1:
                values = signs * deltas[group_start]
            else:
                block = deltas[group_start:group_stop]
                values = (signs.reshape(group_stop - group_start, per_group,
                                        self._rows, batch)
                          * block[:, None, None, :]).reshape(chunk, self._rows,
                                                             batch)
            if use_bincount:
                # The fused scatter: one flat weighted bincount per member
                # chunk, accumulated into the table slice in place (see
                # ``fused_bincount_add`` — both the bincount and the
                # in-place add release the GIL on these array sizes, which
                # is what lets the `threaded` sharding back-end overlap
                # shard ingests in one process; the small-batch scatter
                # fallback below holds it — large-batch ingest is the path
                # worth parallelising).
                flat = buckets + (row_index * self._buckets
                                  + np.arange(chunk, dtype=np.int64)[:, None, None]
                                  * cells_per_member)
                fused_bincount_add(self._table[start:stop], flat, values,
                                   chunk * cells_per_member)
            else:
                member_index = np.arange(start, stop)[:, None, None]
                np.add.at(self._table, (member_index, row_index, buckets),
                          values)

    def update(self, index: int, delta: float) -> None:
        """Apply one scalar update to every member."""
        self.update_batch(np.asarray([index], dtype=np.int64),
                          np.asarray([float(delta)]))

    def update_vector(self, vector: np.ndarray) -> None:
        """Add an entire frequency vector to every member."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._n,):
            raise InvalidParameterError("vector shape must match the universe size")
        row_index = np.arange(self._rows)[None, :, None]
        if self._table_mode == "blocked":
            # Key-block outer, member-chunk inner: every (member, row,
            # bucket) cell still accumulates its keys in ascending order,
            # so the result is bitwise equal to the monolithic scatter.
            for kstart in range(0, self._n, self._table_block):
                kstop = min(self._n, kstart + self._table_block)
                keys = np.arange(kstart, kstop, dtype=np.int64)
                segment = vector[kstart:kstop]
                for start, stop in member_chunks(self.num_members,
                                                 self._rows * keys.size):
                    member_index = np.arange(start, stop)[:, None, None]
                    buckets, signs = self._member_columns(start, stop, keys)
                    np.add.at(self._table,
                              (member_index, row_index, buckets),
                              signs * segment)
            return
        self._ensure_tables()
        for start, stop in member_chunks(self.num_members, self._rows * self._n):
            member_index = np.arange(start, stop)[:, None, None]
            values = self._sign_of[start:stop] * vector
            np.add.at(self._table,
                      (member_index, row_index, self._bucket_of[start:stop]),
                      values)

    def estimate_member(self, member: int, index: int) -> float:
        """Point query: member ``member``'s median-of-rows estimate of
        coordinate ``index``."""
        return float(self.estimate_at(np.asarray([member]), index)[0])

    def estimate_members_at(self, members: slice | np.ndarray,
                            index: int) -> np.ndarray:
        """Per-member point queries at one coordinate for a member range."""
        return self.estimate_at(np.arange(self.num_members)[members], index)

    def estimate_at(self, members: np.ndarray, keys) -> np.ndarray:
        """Point query of member ``members[j]`` at coordinate ``keys[j]``.

        ``keys`` may be one coordinate shared by every listed member.  Only
        the ``len(members) * rows`` cells the queries read are touched:
        gathered from the hash tables when this process has built them,
        evaluated from the hash families otherwise (``blocked`` mode, or an
        ensemble unpickled from a worker), never by building the tables.
        """
        members = np.asarray(members, dtype=np.int64)
        check_member_index(members, self.num_members)
        keys = np.asarray(keys, dtype=np.int64)
        check_batch_bounds(keys, self._n)
        keys = np.broadcast_to(keys, members.shape)
        cells = members[:, None] * self._rows + np.arange(self._rows)
        if self._bucket_of is None:
            buckets = self._bucket_family.hash_at(cells, keys[:, None])
            signs = self._sign_family.sign_at(cells, keys[:, None])
        else:
            where = (members[:, None], np.arange(self._rows)[None, :],
                     keys[:, None])
            buckets = self._bucket_of[where]
            signs = self._sign_of[where]
        return self._signed_median(cells, buckets, signs)

    def _signed_median(self, cells: np.ndarray, buckets: np.ndarray,
                       signs: np.ndarray) -> np.ndarray:
        """Median over rows (axis 1) of ``sign * table[cell, bucket]``.

        ``cells`` numbers ``(member, row)`` pairs as ``member * rows + row``,
        so one flat ``take`` reads every counter.  The median is
        :func:`~repro.utils.batching.median_of_rows`, which equals
        ``np.median`` over the rows.
        """
        values = self._table.reshape(-1).take(
            cells * self._buckets + buckets)
        values *= signs
        return median_of_rows(values, axis=1)

    def _estimate_all_range(self, start: int, stop: int) -> np.ndarray:
        """``(stop - start, n)`` estimates of members ``[start, stop)``.

        The median is taken per coordinate, so any sweep over key blocks
        gives the same bits.  ``blocked`` mode evaluates one ``table_block``
        of hashes at a time; the materialised modes read member and key
        blocks of at most :data:`~repro.utils.ensemble.SCATTER_CHUNK_ELEMENTS`
        counters, whose temporaries malloc reuses.  (One whole-table gather
        at ``n = 10^5`` faulted in 8 MB afresh per call: 60 % of its 6 ms on
        a 2-core Xeon VM.)
        """
        count = stop - start
        cells = (np.arange(start, stop)[:, None] * self._rows
                 + np.arange(self._rows))[:, :, None]
        out = np.empty((count, self._n), dtype=float)
        if self._table_mode == "blocked":
            for kstart in range(0, self._n, self._table_block):
                kstop = min(self._n, kstart + self._table_block)
                keys = np.arange(kstart, kstop, dtype=np.int64)
                buckets, signs = self._member_columns(start, stop, keys)
                out[:, kstart:kstop] = self._signed_median(cells, buckets, signs)
            return out
        self._ensure_tables()
        for mstart, mstop in member_chunks(count, self._rows * self._n):
            members = slice(start + mstart, start + mstop)
            # member_chunks splits any range; here it splits the keys.
            for kstart, kstop in member_chunks(self._n,
                                               (mstop - mstart) * self._rows):
                out[mstart:mstop, kstart:kstop] = self._signed_median(
                    cells[mstart:mstop],
                    self._bucket_of[members, :, kstart:kstop],
                    self._sign_of[members, :, kstart:kstop])
        return out

    def estimate_all_member(self, member: int) -> np.ndarray:
        """Point-query estimates of one member for every coordinate."""
        check_member_index(member, self.num_members)
        return self._estimate_all_range(member, member + 1)[0]

    def estimate_all_members(self) -> np.ndarray:
        """``(M, n)`` matrix of every member's point-query estimates."""
        return self._estimate_all_range(0, self.num_members)

    def member_tables(self) -> np.ndarray:
        """The stacked ``(M, rows, buckets)`` tables."""
        return self._table


register_ensemble(CountSketch, CountSketchEnsemble)


class AveragedCountSketch(BatchUpdateMixin):
    """Average of ``num_instances`` independent CountSketch point queries.

    This is the estimator used in lines 8-9 of Algorithm 1 (and 11-12 of
    Algorithm 2): averaging ``polylog(n)`` independent instances drives the
    additive error down to ``||x||_2 / polylog(n)`` (Lemma 2.1 /
    Corollary 2.2), and distinct instances supply the *independent* nearly
    unbiased coordinate estimates consumed by the product/Taylor estimators.
    """

    def __init__(self, n: int, buckets: int, rows: int, num_instances: int,
                 seed: SeedLike = None, table_mode: str | None = None,
                 table_block: int | None = None) -> None:
        require_positive_int(num_instances, "num_instances")
        # The instances are one stacked CountSketchEnsemble, built from the
        # member seeds without building the member sketches: it holds
        # their hash coefficients, tables and counters.
        self._ensemble = CountSketchEnsemble.from_seeds(
            n, buckets, rows, averaged_member_seeds(seed, num_instances),
            table_mode=table_mode, table_block=table_block)
        self._n = n

    @property
    def num_instances(self) -> int:
        """Number of independent CountSketch instances."""
        return self._ensemble.num_members

    def space_counters(self) -> int:
        """Total counters across all instances."""
        return self._ensemble.space_counters()

    def update(self, index: int, delta: float) -> None:
        """Apply an update to every instance."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        self._ensemble.update(index, delta)

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates to every instance in one fused scatter."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        self._ensemble.update_batch(indices, deltas)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add a frequency vector to every instance."""
        self._ensemble.update_vector(vector)

    def estimate(self, index: int) -> float:
        """Averaged point query over all instances."""
        return float(np.mean(self.instance_estimates(index)))

    def instance_estimates(self, index: int) -> np.ndarray:
        """The vector of per-instance point queries (independent estimates)."""
        return self._ensemble.estimate_members_at(slice(None), index)

    def grouped_estimates(self, index: int, group_size: int) -> np.ndarray:
        """Averages of disjoint groups of instances.

        Algorithm 1 needs ``p - 2`` *independent* estimates each formed by
        averaging ``polylog(n)`` instances; grouping provides exactly that
        without building ``(p - 2) * polylog(n)`` separate objects at call
        sites.
        """
        require_positive_int(group_size, "group_size")
        estimates = self.instance_estimates(index)
        num_groups = len(estimates) // group_size
        if num_groups == 0:
            raise InvalidParameterError("group_size exceeds the number of instances")
        trimmed = estimates[: num_groups * group_size]
        return trimmed.reshape(num_groups, group_size).mean(axis=1)
