"""CountMin sketch.

CountMin is not used inside the paper's algorithms (CountSketch is), but it
is the most widely deployed heavy-hitter sketch in practice and serves as an
auxiliary baseline in examples and ablation benchmarks: comparing the
CountSketch-based estimates of Algorithms 1-4 against CountMin point queries
illustrates why the (signed, two-sided-error) CountSketch guarantee is the
right substrate for turnstile sampling.

For strict-turnstile streams the point query overestimates by at most
``||x||_1 / buckets`` per row with constant probability; the estimate is the
minimum over rows.  For general turnstile streams the median over rows is
used instead (the "CountMedian" variant), because the minimum is only valid
when all contributions are non-negative.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sketch.hashing import KWiseHashFamily
from repro.utils.batching import (
    BatchUpdateMixin,
    check_batch_bounds,
    check_member_index,
    coerce_batch,
)
from repro.utils.ensemble import (
    ReplicaEnsemble,
    member_chunks,
    register_ensemble,
    require_fresh,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import (
    require_merge_compatible,
    require_merge_peer,
    require_positive_int,
)


class CountMin(BatchUpdateMixin):
    """CountMin / CountMedian sketch over the universe ``[0, n)``.

    Parameters
    ----------
    n:
        Universe size.
    buckets:
        Buckets per row; the L1 error scale is ``||x||_1 / buckets``.
    rows:
        Number of rows.
    conservative:
        If ``True`` the query uses the minimum over rows (valid for
        strict-turnstile streams); if ``False`` the median is used, which
        stays correct in expectation for general turnstile streams.
    table_mode:
        ``"cached"`` / ``"private"`` / ``"blocked"`` table materialisation
        (see :mod:`repro.utils.table_cache`); ``None`` takes the process
        default.  All three modes are bit-identical.
    table_block:
        Coordinates per chunk for ``blocked``-mode universe sweeps.
    """

    def __init__(self, n: int, buckets: int, rows: int, seed: SeedLike = None,
                 conservative: bool = True, table_mode: str | None = None,
                 table_block: int | None = None) -> None:
        require_positive_int(n, "n")
        require_positive_int(buckets, "buckets")
        require_positive_int(rows, "rows")
        self._n = n
        self._buckets = buckets
        self._rows = rows
        self._conservative = conservative
        self._table_mode = resolve_table_mode(table_mode)
        self._table_block = resolve_table_block(table_block)
        rng = ensure_rng(seed)
        # Hash coefficients are drawn eagerly (one vectorised call); the
        # O(n * rows) per-coordinate bucket table is built lazily on first
        # use so short-lived instances pay almost nothing up front.
        self._bucket_family = KWiseHashFamily.from_rng(rng, rows, 2, buckets)
        self._bucket_of: np.ndarray | None = None
        self._table = np.zeros((rows, buckets), dtype=float)

    def _ensure_tables(self) -> None:
        """Materialise the per-coordinate bucket table on first use (lazy)."""
        if self._bucket_of is None:
            if self._table_mode == "cached":
                self._bucket_of = self._bucket_family.hash_table(self._n)
                return
            all_indices = np.arange(self._n, dtype=np.int64)
            self._bucket_of = self._bucket_family.hash_all(all_indices)

    def _columns(self, indices: np.ndarray) -> np.ndarray:
        """``(rows, B)`` narrow bucket columns at the given keys (mode-aware).

        The gather is ``np.take(..., axis=-1)``, which returns the columns
        C-contiguous, so each row ``buckets[row]`` the scatter reads is
        contiguous (``table[:, indices]`` would return them F-ordered).
        """
        if self._table_mode == "blocked":
            return self._bucket_family.hash_all(indices)
        self._ensure_tables()
        return np.take(self._bucket_of, indices, axis=-1)

    def __getstate__(self):
        """Pickle without the bucket table (re-derived lazily from the
        cache), keeping multiprocessing payloads table-independent."""
        state = self.__dict__.copy()
        state["_bucket_of"] = None
        return state

    def __setstate__(self, state):
        """Restore, forcing the bucket table to re-derive in this process.

        Defensive against snapshots written by builds whose
        ``__getstate__`` kept the table: nulling here guarantees an
        unpickled sketch always rebuilds from its hash family (and the
        process-local cache), bit-identically to a freshly built one.
        """
        state["_bucket_of"] = None
        self.__dict__.update(state)

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._table_mode

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the sketch table."""
        return (self._rows, self._buckets)

    def space_counters(self) -> int:
        """Number of stored counters (table cells)."""
        return self._rows * self._buckets

    def update(self, index: int, delta: float) -> None:
        """Apply the stream update ``(index, delta)``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        buckets = self._columns(np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        self._table[rows, buckets[:, 0]] += delta

    def update_batch(self, indices, deltas) -> None:
        """Apply a whole batch of updates with one scatter-add per row."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        buckets = self._columns(indices)
        for row in range(self._rows):
            np.add.at(self._table[row], buckets[row], deltas)

    def estimate(self, index: int) -> float:
        """Point query for coordinate ``index``."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        buckets = self._columns(np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        values = self._table[rows, buckets[:, 0]]
        if self._conservative:
            return float(values.min())
        return float(np.median(values))

    def estimate_all(self) -> np.ndarray:
        """Point-query estimates for every coordinate."""
        if self._table_mode == "blocked":
            # min / median are per-coordinate reductions, so a key-block
            # sweep reproduces the monolithic result bitwise.
            out = np.empty(self._n, dtype=float)
            rows = np.arange(self._rows)[:, None]
            for start, stop, buckets in self._bucket_family.hash_blocks(
                    self._n, self._table_block):
                values = self._table[rows, buckets]
                out[start:stop] = (values.min(axis=0) if self._conservative
                                   else np.median(values, axis=0))
            return out
        self._ensure_tables()
        rows = np.arange(self._rows)[:, None]
        values = self._table[rows, self._bucket_of]
        if self._conservative:
            return values.min(axis=0)
        return np.median(values, axis=0)

    def heavy_hitters(self, threshold: float) -> np.ndarray:
        """Indices whose estimate is at least ``threshold``."""
        return np.flatnonzero(self.estimate_all() >= threshold)

    def check_mergeable(self, other: "CountMin") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "CountMin sketches",
            {"n": self._n, "shape": self.shape,
             "conservative": self._conservative,
             "bucket hash coefficients": self._bucket_family.coefficients},
            {"n": other._n, "shape": other.shape,
             "conservative": other._conservative,
             "bucket hash coefficients": other._bucket_family.coefficients})

    def merge(self, other: "CountMin") -> "CountMin":
        """Merge a same-seed sketch fed a disjoint sub-stream (linearity).

        The table is a linear function of the stream, so two sketches
        sharing hash functions add entrywise into the sketch of the
        concatenated stream — which also makes saved CountMin snapshots
        composable with delta sketches for incremental checkpointing.
        In place; returns ``self``.
        """
        self.check_mergeable(other)
        self._table += other._table
        return self


class CountMinEnsemble(ReplicaEnsemble):
    """``M`` independent CountMin sketches with stacked tables.

    The members' bucket tables come from one concatenated
    :class:`~repro.sketch.hashing.KWiseHashFamily` evaluation and all
    member tables live in one ``(M, rows, buckets)`` array.  Every batch
    lands in all members with one chunked scatter-add whose element
    order is member-major, row-major, batch-minor — exactly the order of
    the standalone sketch's per-row ``np.add.at`` loop — so member state
    is bit-identical to driving each sketch separately.
    """

    def __init__(self, instances) -> None:
        require_fresh(instances, lambda inst: inst._table.any(), "CountMin")
        first = instances[0]
        if any(inst.shape != first.shape or inst._n != first._n
               for inst in instances):
            raise InvalidParameterError(
                "ensemble members must share (n, buckets, rows)")
        if any(inst._table_mode != first._table_mode for inst in instances):
            raise InvalidParameterError("ensemble members must share table_mode")
        if any(inst._conservative != first._conservative for inst in instances):
            raise InvalidParameterError(
                "ensemble members must share the conservative flag")
        self._setup(first, KWiseHashFamily.concatenate(
            [inst._bucket_family for inst in instances]),
            np.zeros((len(instances), first._rows, first._buckets),
                     dtype=float))

    def _setup(self, like, bucket_family: KWiseHashFamily,
               table: np.ndarray) -> None:
        """Set every field, taking shape, mode and flag from ``like``."""
        self._n = like._n
        self._rows = like._rows
        self._buckets = like._buckets
        self._conservative = like._conservative
        self._table_mode = like._table_mode
        self._table_block = like._table_block
        self._bucket_family = bucket_family
        self._bucket_of = None
        self._table = table

    def _ensure_tables(self) -> None:
        """Build the stacked bucket table on first use."""
        if self._bucket_of is None:
            members = self.num_members
            if self._table_mode == "cached":
                self._bucket_of = self._bucket_family.hash_table(
                    self._n).reshape(members, self._rows, self._n)
            else:
                all_indices = np.arange(self._n, dtype=np.int64)
                self._bucket_of = self._bucket_family.hash_all(
                    all_indices).reshape(members, self._rows, self._n)

    def _member_columns(self, start: int, stop: int, indices: np.ndarray):
        """``(stop - start, rows, B)`` bucket columns of a member chunk.

        The materialised gather is ``np.take(..., axis=-1)``, which reads
        the table in memory order and returns C-contiguous columns;
        ``table[start:stop, :, indices]`` would build a transposed view,
        several times slower.  The scatter visits cells in C order either
        way, so the counters are the same bits.
        """
        if self._table_mode == "blocked":
            chunk = stop - start
            lo, hi = start * self._rows, stop * self._rows
            buckets = self._bucket_family.hash_slice(lo, hi, indices).reshape(
                chunk, self._rows, indices.size)
            return buckets
        self._ensure_tables()
        return np.take(self._bucket_of[start:stop], indices, axis=-1)

    def __getstate__(self):
        """Pickle without the stacked bucket table (re-derived lazily)."""
        state = self.__dict__.copy()
        state["_bucket_of"] = None
        return state

    def __setstate__(self, state):
        state["_bucket_of"] = None
        self.__dict__.update(state)

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

    @classmethod
    def concat(cls, ensembles: "list[CountMinEnsemble]") -> "CountMinEnsemble":
        """Stack replica-shard ensembles along the member axis (no recompute)."""
        if not ensembles:
            raise InvalidParameterError("need at least one ensemble")
        first = ensembles[0]
        if any(e.shape != first.shape or e._n != first._n for e in ensembles):
            raise InvalidParameterError("ensembles must share (n, buckets, rows)")
        if any(e._table_mode != first._table_mode
               or e._conservative != first._conservative for e in ensembles):
            raise InvalidParameterError(
                "ensembles must share table_mode and the conservative flag")
        members = sum(e._table.shape[0] for e in ensembles)
        if all(not e._table.any() for e in ensembles):
            table = np.zeros((members, first._rows, first._buckets),
                             dtype=float)
        else:
            table = np.concatenate([e._table for e in ensembles])
        merged = cls.__new__(cls)
        merged._setup(first, KWiseHashFamily.concatenate(
            [e._bucket_family for e in ensembles]), table)
        if any(e._bucket_of is not None for e in ensembles):
            for ensemble in ensembles:
                ensemble._ensure_tables()
            merged._bucket_of = np.concatenate(
                [e._bucket_of for e in ensembles])
        return merged

    def merge(self, other: "CountMinEnsemble") -> "CountMinEnsemble":
        """Entrywise-add a same-hash ensemble fed a disjoint sub-stream."""
        self.check_mergeable(other)
        np.add(self._table, other._table, out=self._table)
        return self

    def check_mergeable(self, other: "CountMinEnsemble") -> None:
        """Raise unless ``other`` can merge into ``self``; mutate nothing."""
        require_merge_peer(self, other)
        require_merge_compatible(
            "CountMin ensembles",
            {"n": self._n, "shape": self.shape,
             "num_members": self.num_members,
             "conservative": self._conservative,
             "bucket hash coefficients": self._bucket_family.coefficients},
            {"n": other._n, "shape": other.shape,
             "num_members": other.num_members,
             "conservative": other._conservative,
             "bucket hash coefficients": other._bucket_family.coefficients})

    def update_batch(self, indices, deltas) -> None:
        """Apply one batch to every member with chunked scatter-adds.

        The scatter tuple broadcasts to ``(chunk, rows, B)`` and
        ``np.add.at`` visits cells member-major, row-major, batch-minor —
        the accumulation order of the standalone per-row loop — so the
        ensemble is bitwise equal to per-instance ingest.
        """
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        row_index = np.arange(self._rows)[None, :, None]
        for start, stop in member_chunks(self.num_members,
                                         self._rows * indices.size):
            buckets = self._member_columns(start, stop, indices)
            member_index = np.arange(start, stop)[:, None, None]
            np.add.at(self._table, (member_index, row_index, buckets), deltas)

    def estimate_member(self, member: int, index: int) -> float:
        """Point query of one member (matches ``CountMin.estimate``)."""
        check_member_index(member, self.num_members)
        if not (0 <= index < self._n):
            raise InvalidParameterError(
                f"index {index} outside universe [0, {self._n})")
        buckets = self._member_columns(
            member, member + 1, np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        values = self._table[member, rows, buckets[0, :, 0]]
        if self._conservative:
            return float(values.min())
        return float(np.median(values))

    def estimate_all_member(self, member: int) -> np.ndarray:
        """``estimate_all`` of one member (bit-identical to standalone)."""
        check_member_index(member, self.num_members)
        table = self._table
        rows = np.arange(self._rows)[:, None]
        if self._table_mode == "blocked":
            out = np.empty(self._n, dtype=float)
            for kstart in range(0, self._n, self._table_block):
                kstop = min(self._n, kstart + self._table_block)
                keys = np.arange(kstart, kstop, dtype=np.int64)
                buckets = self._member_columns(member, member + 1, keys)
                values = table[member, rows, buckets[0]]
                out[kstart:kstop] = (values.min(axis=0) if self._conservative
                                     else np.median(values, axis=0))
            return out
        self._ensure_tables()
        values = table[member, rows, self._bucket_of[member]]
        if self._conservative:
            return values.min(axis=0)
        return np.median(values, axis=0)

    def heavy_hitters_member(self, member: int, threshold: float) -> np.ndarray:
        """Indices whose estimate is at least ``threshold`` for one member."""
        return np.flatnonzero(self.estimate_all_member(member) >= threshold)

    def sample_replica(self, replica: int):
        """CountMin has no ``sample``; ensembles of it are query-only."""
        raise NotImplementedError("CountMinEnsemble is query-only")


register_ensemble(CountMin, CountMinEnsemble)
