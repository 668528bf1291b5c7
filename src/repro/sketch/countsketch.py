"""CountSketch heavy-hitter sketches [CCF04] and the JW18 variant.

Three flavours are provided:

:class:`CountSketch`
    The classic table with ``rows`` rows and ``buckets`` buckets per row.
    Every coordinate hashes to exactly one bucket per row with a 4-wise
    independent sign; the point query is the median of the signed bucket
    values over rows.  The guarantee (used throughout Section 2 and 3 of
    the paper) is an additive error of ``O(||x_tail||_2 / sqrt(buckets))``
    per query with high probability in the number of rows.

:class:`RandomBucketCountSketch`
    The modification introduced by [JW18] and re-used by Algorithm 4 of the
    paper: instead of hashing each item to one bucket per row, each
    (row, bucket, item) triple carries an i.i.d. Bernoulli(1/buckets)
    indicator ``h_{i,j,k}``, so an item may occupy several buckets of a row
    or none at all.  The estimate is the median over *all* buckets that
    contain the item.  This version decouples bucket occupancy from the
    anti-rank conditioning in the sampler analysis.

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

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sketch.hashing import KWiseHashFamily, SignHashFamily
from repro.utils.batching import (
    BatchUpdateMixin,
    aggregate_scatter,
    check_batch_bounds,
    check_member_index,
    coerce_batch,
    coerce_indices,
    fused_bincount_add,
    median_of_rows,
)
from repro.utils.ensemble import ReplicaEnsemble, member_chunks, register_ensemble
from repro.utils.rng import SeedLike, ensure_rng, random_seed_array
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_positive_int,
)


class CountSketch(BatchUpdateMixin):
    """Classic CountSketch over the universe ``[0, n)``.

    Construction draws the hash-family coefficients (two vectorised
    ``rng.integers`` calls) but defers the O(n * rows) per-coordinate hash
    tables until the sketch is first touched, so short-lived instances —
    e.g. the probe instances of oracle-backend benchmarks and the replicas
    handed to :class:`CountSketchEnsemble` (which builds the tables of all
    members in one concatenated family evaluation) — pay almost nothing up
    front.

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
        require_positive_int(n, "n")
        require_positive_int(buckets, "buckets")
        require_positive_int(rows, "rows")
        self._n = n
        self._buckets = buckets
        self._rows = rows
        self._table_mode = resolve_table_mode(table_mode)
        self._table_block = resolve_table_block(table_block)
        rng = ensure_rng(seed)
        self._bucket_family = KWiseHashFamily.from_rng(rng, rows, 2, buckets)
        self._sign_family = SignHashFamily.from_rng(rng, rows, 4)
        self._bucket_of: np.ndarray | None = None
        self._sign_of: np.ndarray | None = None
        self._table = np.zeros((rows, buckets), dtype=float)

    def _ensure_tables(self) -> None:
        """Materialise the per-coordinate hash tables on first use (lazy).

        ``cached`` mode fetches read-only shared tables from the keyed
        cache; ``private`` evaluates per-instance copies.  ``blocked`` mode
        never reaches here — its consumers evaluate columns on demand via
        :meth:`_columns`.
        """
        if self._bucket_of is None:
            if self._table_mode == "cached":
                self._bucket_of = self._bucket_family.hash_table(self._n)
                self._sign_of = self._sign_family.sign_table(self._n)
            else:
                all_indices = np.arange(self._n, dtype=np.int64)
                self._bucket_of = self._bucket_family.hash_all(all_indices)
                self._sign_of = self._sign_family.sign_all(all_indices)

    def _columns(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, B)`` narrow bucket and int8 sign columns at the given keys.

        The gather is ``np.take(..., axis=-1)``, which returns the columns
        C-contiguous (``table[:, indices]`` returns them F-ordered), so the
        kernels' ``ravel`` makes no hidden copy.  ``blocked`` mode
        evaluates them directly — bit-identical to gathering from the
        materialised table because every ``(member, key)`` cell of the
        Horner sweep is independent.
        """
        if self._table_mode == "blocked":
            return (self._bucket_family.hash_all(indices),
                    self._sign_family.sign_all(indices))
        self._ensure_tables()
        return (np.take(self._bucket_of, indices, axis=-1),
                np.take(self._sign_of, indices, axis=-1))

    def __getstate__(self):
        """Pickle without the per-coordinate tables.

        The tables are re-derived lazily (from the cache in ``cached``
        mode), so multiprocessing shard payloads stay independent of both
        stream length and table size.
        """
        state = self.__dict__.copy()
        state["_bucket_of"] = None
        state["_sign_of"] = None
        return state

    def __setstate__(self, state):
        """Restore, forcing the tables to re-derive in this process.

        Defensive against snapshots written by builds whose
        ``__getstate__`` kept the tables: nulling here guarantees an
        unpickled sketch always rebuilds from its hash families (and the
        process-local cache), bit-identically to a freshly built one.
        """
        state["_bucket_of"] = None
        state["_sign_of"] = None
        self.__dict__.update(state)

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._table_mode

    @property
    def n(self) -> int:
        """Universe size."""
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the sketch table."""
        return (self._rows, self._buckets)

    def space_counters(self) -> int:
        """Number of stored counters (table cells); hash seeds excluded."""
        return self._rows * self._buckets

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        buckets, signs = self._columns(np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        # float(): int8 signs times a Python int delta would stay int8 and
        # overflow (NEP 50).
        self._table[rows, buckets[:, 0]] += signs[:, 0] * float(delta)

    def update_batch(self, indices, deltas) -> None:
        """Apply a whole batch of updates with one fused scatter-add.

        Large batches go through ``np.bincount`` (several times faster than
        ``np.add.at``); tiny batches keep the element-wise scatter, which
        avoids touching the whole table.  The branch condition depends only
        on the batch length, and per-cell accumulation follows batch order
        in both, so :class:`CountSketchEnsemble` — which uses the same rule
        — stays bit-identical to this path.  Relative to *scalar* ``update``
        replay, the bincount branch sums each batch's contributions before
        adding them to the table, a legal re-association within the batch
        engine's documented ``rtol=1e-9`` float contract (the same class of
        re-association the AMS and p-stable batch paths perform).
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        buckets, signs = self._columns(indices)
        if indices.size >= self._buckets:
            flat = buckets + (np.arange(self._rows, dtype=np.int64)[:, None]
                              * self._buckets)
            values = signs * deltas
            counts = np.bincount(flat.ravel(), weights=values.ravel(),
                                 minlength=self._rows * self._buckets)
            self._table += counts.reshape(self._rows, self._buckets)
            return
        for row in range(self._rows):
            signed = deltas * signs[row]
            np.add.at(self._table[row], buckets[row], signed)

    def update_vector(self, vector: np.ndarray) -> None:
        """Add an entire frequency vector to the sketch in one shot."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._n,):
            raise InvalidParameterError("vector shape must match the universe size")
        if self._table_mode == "blocked":
            # Key-block splitting keeps each table cell's accumulation
            # sequence in ascending key order — the same per-cell order as
            # the monolithic ``np.add.at`` — so this is bitwise equal.
            for start, stop, buckets in self._bucket_family.hash_blocks(
                    self._n, self._table_block):
                signs = self._sign_family.sign_all(
                    np.arange(start, stop, dtype=np.int64))
                segment = vector[start:stop]
                for row in range(self._rows):
                    np.add.at(self._table[row], buckets[row],
                              segment * signs[row])
            return
        self._ensure_tables()
        for row in range(self._rows):
            signed = vector * self._sign_of[row]
            np.add.at(self._table[row], self._bucket_of[row], signed)

    def estimate(self, index: int) -> float:
        """Point query: the median-of-rows estimate of coordinate ``index``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        buckets, signs = self._columns(np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        values = signs[:, 0] * self._table[rows, buckets[:, 0]]
        return float(np.median(values))

    def estimate_all(self) -> np.ndarray:
        """Vector of point-query estimates for every coordinate."""
        if self._table_mode == "blocked":
            # The median is taken per coordinate (column-wise), so a
            # key-block sweep reproduces the monolithic result bitwise.
            out = np.empty(self._n, dtype=float)
            rows = np.arange(self._rows)[:, None]
            for start, stop, buckets in self._bucket_family.hash_blocks(
                    self._n, self._table_block):
                signs = self._sign_family.sign_all(
                    np.arange(start, stop, dtype=np.int64))
                values = signs * self._table[rows, buckets]
                out[start:stop] = np.median(values, axis=0)
            return out
        self._ensure_tables()
        rows = np.arange(self._rows)[:, None]
        values = self._sign_of * self._table[rows, self._bucket_of]
        return np.median(values, axis=0)

    def heavy_hitters(self, threshold: float) -> np.ndarray:
        """Indices whose estimated magnitude is at least ``threshold``."""
        estimates = self.estimate_all()
        return np.flatnonzero(np.abs(estimates) >= threshold)

    def check_mergeable(self, other: "CountSketch") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "CountSketch",
            {"n": self._n, "shape": self.shape,
             "bucket hash coefficients": self._bucket_family.coefficients,
             "sign hash coefficients": self._sign_family.coefficients},
            {"n": other._n, "shape": other.shape,
             "bucket hash coefficients": other._bucket_family.coefficients,
             "sign hash coefficients": other._sign_family.coefficients})

    def merge(self, other: "CountSketch") -> None:
        """Merge another sketch built with the same seed/shape (linearity)."""
        self.check_mergeable(other)
        self._table += other._table

    def l2_error_bound(self, l2_norm: float, confidence_factor: float = 3.0) -> float:
        """The standard per-query error scale ``confidence * ||x||_2 / sqrt(buckets)``."""
        return confidence_factor * l2_norm / np.sqrt(self._buckets)


class CountSketchEnsemble(ReplicaEnsemble):
    """``M`` independent CountSketch members as one stacked-array structure.

    The members' hash tables are built with a single concatenated
    family evaluation over the universe (shape ``(M, rows, n)``) and all
    member tables live in one ``(M, rows, buckets)`` array, so a batch of
    stream updates lands in every member with one scatter-add.  Per-cell
    accumulation order matches the standalone per-row scatter exactly, so
    member state is bit-identical to driving each sketch separately.

    ``update_batch`` accepts deltas of shape ``(B,)`` (shared by every
    member), ``(M, B)`` (per member), or ``(G, B)`` with ``M = G * F``
    (per *replica* of a composite ensemble whose replicas own ``F``
    members each, e.g. the value-estimation banks of the JW18 sampler).
    """

    def __init__(self, instances) -> None:
        super().__init__(instances)
        first = instances[0]
        if any(inst.shape != first.shape or inst._n != first._n
               for inst in instances):
            raise InvalidParameterError("ensemble members must share (n, buckets, rows)")
        self._n = first._n
        self._rows, self._buckets = first.shape
        if any(inst._table_mode != first._table_mode for inst in instances):
            raise InvalidParameterError("ensemble members must share table_mode")
        self._table_mode = first._table_mode
        self._table_block = first._table_block
        members = len(instances)
        self._bucket_family = KWiseHashFamily.concatenate(
            [inst._bucket_family for inst in instances])
        self._sign_family = SignHashFamily.concatenate(
            [inst._sign_family for inst in instances])
        # Hash tables are built lazily in one concatenated family
        # evaluation: composite ensembles that concat() several member
        # ensembles therefore evaluate the hashes of *all* replicas in a
        # single pass on first touch.
        self._bucket_of = None
        self._sign_of = None
        self._table = np.zeros(
            (members, self._rows, self._buckets), dtype=float)

    def _ensure_tables(self) -> None:
        """Build the stacked per-coordinate hash tables on first use."""
        if self._bucket_of is None:
            members = self.num_members
            if self._table_mode == "cached":
                self._bucket_of = self._bucket_family.hash_table(
                    self._n).reshape(members, self._rows, self._n)
                self._sign_of = self._sign_family.sign_table(
                    self._n).reshape(members, self._rows, self._n)
            else:
                all_indices = np.arange(self._n, dtype=np.int64)
                self._bucket_of = self._bucket_family.hash_all(
                    all_indices).reshape(members, self._rows, self._n)
                self._sign_of = self._sign_family.sign_all(
                    all_indices).reshape(members, self._rows, self._n)

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
            chunk = stop - start
            lo, hi = start * self._rows, stop * self._rows
            buckets = self._bucket_family.hash_slice(lo, hi, indices).reshape(
                chunk, self._rows, indices.size)
            signs = self._sign_family.sign_slice(lo, hi, indices).reshape(
                chunk, self._rows, indices.size)
            return buckets, signs
        self._ensure_tables()
        return (np.take(self._bucket_of[start:stop], indices, axis=-1),
                np.take(self._sign_of[start:stop], indices, axis=-1))

    def __getstate__(self):
        """Pickle without the stacked tables (re-derived lazily from the
        cache), keeping multiprocessing shard payloads table-independent."""
        state = self.__dict__.copy()
        state["_bucket_of"] = None
        state["_sign_of"] = None
        return state

    def __setstate__(self, state):
        """Restore, forcing the stacked tables to re-derive (see
        :meth:`CountSketch.__setstate__`)."""
        state["_bucket_of"] = None
        state["_sign_of"] = None
        self.__dict__.update(state)

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode shared by every member."""
        return self._table_mode

    @classmethod
    def concat(cls, ensembles: "list[CountSketchEnsemble]") -> "CountSketchEnsemble":
        """Flatten several same-shape ensembles into one (no recompute).

        Used by composite replica ensembles to merge the per-replica inner
        ensembles (value banks, max-stability repetitions) into a single
        stacked structure; hash families and member tables are concatenated
        as-is (existing counter state is preserved), and unbuilt hash
        tables stay unbuilt so the merged ensemble evaluates them in one
        family pass on first touch.
        """
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any(e.shape != first.shape or e._n != first._n for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, buckets, rows)")
        if any(e._table_mode != first._table_mode for e in ensembles):
            raise InvalidParameterError("ensembles must share table_mode")
        merged = cls.__new__(cls)
        ReplicaEnsemble.__init__(
            merged, [inst for e in ensembles for inst in e._instances])
        merged._n = first._n
        merged._rows = first._rows
        merged._buckets = first._buckets
        merged._table_mode = first._table_mode
        merged._table_block = first._table_block
        merged._bucket_family = KWiseHashFamily.concatenate(
            [e._bucket_family for e in ensembles])
        merged._sign_family = SignHashFamily.concatenate(
            [e._sign_family for e in ensembles])
        if all(e._bucket_of is None for e in ensembles):
            merged._bucket_of = None
            merged._sign_of = None
        else:
            for ensemble in ensembles:
                ensemble._ensure_tables()
            merged._bucket_of = np.concatenate(
                [e._bucket_of for e in ensembles])
            merged._sign_of = np.concatenate(
                [e._sign_of for e in ensembles])
        members = sum(e._table.shape[0] for e in ensembles)
        if all(not e._table.any() for e in ensembles):
            # Fresh ensembles: allocate the merged zero table directly
            # instead of concatenating hundreds of small zero arrays.
            merged._table = np.zeros(
                (members, first._rows, first._buckets), dtype=float)
        else:
            merged._table = np.concatenate(
                [e._table for e in ensembles])
        return merged

    def merge(self, other: "CountSketchEnsemble") -> "CountSketchEnsemble":
        """Entrywise-add a same-hash ensemble built over a disjoint sub-stream.

        The ensemble analogue of :meth:`CountSketch.merge` (linearity):
        member ``m`` of ``other`` must share member ``m``'s hash functions,
        which is exactly the situation of stream sharding — every shard
        holds a copy of the ensemble built from the same seeds and ingests
        its own sub-stream; the coordinator adds the stacked tables.  In
        place; returns ``self``.
        """
        self.check_mergeable(other)
        np.add(self._table, other._table, out=self._table)
        return self

    def check_mergeable(self, other: "CountSketchEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "CountSketch ensembles",
            {"n": self._n, "shape": self.shape,
             "num_members": self.num_members,
             "bucket hash coefficients": self._bucket_family.coefficients,
             "sign hash coefficients": self._sign_family.coefficients},
            {"n": other._n, "shape": other.shape,
             "num_members": other.num_members,
             "bucket hash coefficients": other._bucket_family.coefficients,
             "sign hash coefficients": other._sign_family.coefficients})

    @property
    def num_members(self) -> int:
        """Total number of member sketches ``M``."""
        return self._table.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of every member table."""
        return (self._rows, self._buckets)

    def space_counters(self) -> int:
        """Total stored counters across all members."""
        return int(np.prod(self._table.shape))

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
        raw_deltas = deltas
        indices = coerce_indices(indices)
        if indices.ndim != 1:
            raise InvalidParameterError("ensemble indices must be 1-D")
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        deltas = self._coerce_deltas(raw_deltas, indices.size)
        groups = deltas.shape[0]
        per_group = self.num_members // groups
        batch = indices.size
        row_index = np.arange(self._rows)[None, :, None]
        # Same large-batch rule as the standalone sketch so per-cell
        # accumulation matches it bit-for-bit.
        use_bincount = batch >= self._buckets
        cells_per_member = self._rows * self._buckets
        # Chunk along whole replica groups so the per-group delta rows
        # broadcast cleanly and no member range is visited twice.
        for group_start, group_stop in member_chunks(
                groups, per_group * self._rows * batch):
            start = group_start * per_group
            stop = group_stop * per_group
            buckets, signs = self._member_columns(start, stop, indices)
            chunk = stop - start
            if groups == 1:
                values = signs * deltas[0]
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
        """Point query of one member (matches ``CountSketch.estimate``)."""
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
        so one flat ``take`` reads every counter; the product is the one
        ``CountSketch.estimate_all`` forms, so the median matches it.
        """
        values = self._table.reshape(-1).take(
            cells * self._buckets + buckets)
        values *= signs
        return median_of_rows(values, axis=1)

    def _estimate_all_range(self, start: int, stop: int) -> np.ndarray:
        """``(stop - start, n)`` estimates of members ``[start, stop)``."""
        cells = (np.arange(start, stop)[:, None] * self._rows
                 + np.arange(self._rows))[:, :, None]
        if self._table_mode == "blocked":
            # The median is taken per coordinate, so a key-block sweep
            # reproduces the monolithic result bitwise.
            out = np.empty((stop - start, self._n), dtype=float)
            for kstart in range(0, self._n, self._table_block):
                kstop = min(self._n, kstart + self._table_block)
                keys = np.arange(kstart, kstop, dtype=np.int64)
                buckets, signs = self._member_columns(start, stop, keys)
                out[:, kstart:kstop] = self._signed_median(cells, buckets, signs)
            return out
        self._ensure_tables()
        return self._signed_median(cells, self._bucket_of[start:stop],
                                   self._sign_of[start:stop])

    def estimate_all_member(self, member: int) -> np.ndarray:
        """``estimate_all`` of one member (bit-identical to standalone)."""
        check_member_index(member, self.num_members)
        return self._estimate_all_range(member, member + 1)[0]

    def estimate_all_members(self) -> np.ndarray:
        """``(M, n)`` matrix of every member's point-query estimates."""
        return self._estimate_all_range(0, self.num_members)

    def member_tables(self) -> np.ndarray:
        """The stacked ``(M, rows, buckets)`` tables."""
        return self._table

    def sample_replica(self, replica: int):
        """CountSketch has no ``sample``; ensembles of it are query-only."""
        raise NotImplementedError("CountSketchEnsemble is query-only")


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
        rng = ensure_rng(seed)
        seeds = random_seed_array(rng, num_instances)
        # The inner repetition loop dispatches to the native ensemble: the
        # member sketches are cheap seed carriers and all their hash tables
        # and counters live in one stacked CountSketchEnsemble.
        self._ensemble = CountSketchEnsemble(
            [CountSketch(n, buckets, rows, int(seed_value),
                         table_mode=table_mode, table_block=table_block)
             for seed_value in seeds]
        )
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


class RandomBucketCountSketch(BatchUpdateMixin):
    """CountSketch with Bernoulli bucket membership (the [JW18] variant).

    Every (row, bucket, item) triple holds an independent indicator that is
    one with probability ``1/buckets``; the signed contributions of an item
    go to every bucket whose indicator fired, and the point query is the
    median over those buckets.  Membership is realised lazily per item from
    a seeded generator so the memory cost stays ``O(rows * buckets)``.
    """

    def __init__(self, n: int, buckets: int, rows: int, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        require_positive_int(buckets, "buckets")
        require_positive_int(rows, "rows")
        self._n = n
        self._buckets = buckets
        self._rows = rows
        rng = ensure_rng(seed)
        self._membership_seed = int(rng.integers(0, 2**63 - 1))
        self._sign_seed = int(rng.integers(0, 2**63 - 1))
        self._table = np.zeros((rows, buckets), dtype=float)
        self._membership_cache: dict[int, list[np.ndarray]] = {}
        self._sign_cache: dict[int, np.ndarray] = {}
        # Flattened (rows, buckets, signed-coefficients) triples per item:
        # the scatter pattern an update of that item applies to the table.
        self._flat_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the sketch table."""
        return (self._rows, self._buckets)

    def space_counters(self) -> int:
        """Number of stored counters (table cells)."""
        return self._rows * self._buckets

    def _membership(self, index: int) -> list[np.ndarray]:
        """Buckets of each row containing ``index`` (lazily drawn, cached)."""
        cached = self._membership_cache.get(index)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self._membership_seed, index))
        membership = [
            np.flatnonzero(rng.random(self._buckets) < 1.0 / self._buckets)
            for _ in range(self._rows)
        ]
        self._membership_cache[index] = membership
        return membership

    def _sign(self, index: int) -> np.ndarray:
        """Per-row Rademacher signs of ``index`` (lazily drawn, cached)."""
        cached = self._sign_cache.get(index)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self._sign_seed, index))
        signs = rng.choice(np.asarray([-1.0, 1.0]), size=self._rows)
        self._sign_cache[index] = signs
        return signs

    # Cap on cached flat scatter patterns: the cache is a pure
    # recomputation shortcut on top of the membership/sign oracles, so
    # bounding it keeps heavy-churn ingest from doubling the per-touched-
    # coordinate memory the underlying caches already hold.
    _FLAT_CACHE_LIMIT = 1 << 16

    def _flat_scatter(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The item's scatter pattern as flat (rows, buckets, signed) arrays."""
        cached = self._flat_cache.get(index)
        if cached is not None:
            return cached
        membership = self._membership(index)
        signs = self._sign(index)
        row_ids = [np.full(buckets.size, row, dtype=np.int64)
                   for row, buckets in enumerate(membership)]
        signed = [np.full(buckets.size, signs[row])
                  for row, buckets in enumerate(membership)]
        if membership and any(buckets.size for buckets in membership):
            flat = (np.concatenate(row_ids), np.concatenate(membership),
                    np.concatenate(signed))
        else:
            empty_int = np.asarray([], dtype=np.int64)
            flat = (empty_int, empty_int, np.asarray([], dtype=float))
        if len(self._flat_cache) >= self._FLAT_CACHE_LIMIT:
            self._flat_cache.clear()
        self._flat_cache[index] = flat
        return flat

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        rows, buckets, signed = self._flat_scatter(index)
        if rows.size:
            self._table[rows, buckets] += signed * delta

    def update_batch(self, indices, deltas) -> None:
        """Apply a batch of updates with one scatter-add over the table.

        Repeated indices within the batch are aggregated first (the sketch
        is linear), so the numpy work per batch is a single ``np.add.at``
        plus one cached membership lookup per *distinct* item — the
        Bernoulli membership oracle is inherently per-item randomness.
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        scatter = aggregate_scatter(indices, deltas, self._flat_scatter)
        if scatter is not None:
            rows, buckets, values = scatter
            np.add.at(self._table, (rows, buckets), values)

    def estimate(self, index: int) -> float:
        """Median estimate over every bucket containing ``index``."""
        membership = self._membership(index)
        signs = self._sign(index)
        values: list[float] = []
        for row in range(self._rows):
            buckets = membership[row]
            if buckets.size:
                values.extend(signs[row] * self._table[row, buckets])
        if not values:
            return 0.0
        return float(np.median(values))

    def estimate_all(self) -> np.ndarray:
        """Point-query estimates for every coordinate of the universe."""
        return np.asarray([self.estimate(index) for index in range(self._n)])
