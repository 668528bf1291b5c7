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

The substrate is written once, in :class:`CountMinEnsemble` (``M`` sketches
stacked along a member axis): :class:`CountMin` is a view of a one-member
ensemble (see :mod:`repro.utils.ensemble`), and
:func:`draw_countmin_hashes` is the one copy of the draw order both use.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.sketch.countsketch import BucketTableEnsemble
from repro.sketch.hashing import KWiseHashFamily
from repro.utils.batching import check_member_index, flat_scatter_add
from repro.utils.ensemble import (
    ReplicaView,
    member_chunks,
    register_ensemble,
    require_replicas,
)
from repro.utils.rng import SeedLike, ensure_rng, replica_seed
from repro.utils.table_cache import resolve_table_block, resolve_table_mode
from repro.utils.validation import require_positive_int


def draw_countmin_hashes(seed: SeedLike, rows: int,
                         buckets: int) -> KWiseHashFamily:
    """The bucket family one CountMin sketch draws from ``seed``.

    :class:`CountMin` and :meth:`CountMinEnsemble.from_seeds` both call
    this, so the draw exists once.
    """
    return KWiseHashFamily.from_rng(ensure_rng(seed), rows, 2, buckets)


class CountMin(ReplicaView):
    """CountMin / CountMedian sketch over the universe ``[0, n)``.

    A view of a one-member :class:`CountMinEnsemble`.  Hash coefficients
    are drawn eagerly (one vectorised call); the O(n * rows) per-coordinate
    bucket table is built lazily on first use, so short-lived instances pay
    almost nothing up front.

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
        self._ensemble = CountMinEnsemble.from_seeds(
            n, buckets, rows, [seed], conservative=conservative,
            table_mode=table_mode, table_block=table_block)
        self._n = n
        self._buckets = buckets
        self._rows = rows

    @property
    def table_mode(self) -> str:
        """The table-materialisation mode latched at construction."""
        return self._ensemble.table_mode

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, buckets)`` of the sketch table."""
        return (self._rows, self._buckets)

    def estimate(self, index: int) -> float:
        """Point query for coordinate ``index``."""
        return self._ensemble.estimate_member(0, index)

    def estimate_all(self) -> np.ndarray:
        """Point-query estimates for every coordinate."""
        return self._ensemble.estimate_all_member(0)

    def heavy_hitters(self, threshold: float) -> np.ndarray:
        """Indices whose estimate is at least ``threshold``."""
        return self._ensemble.heavy_hitters_member(0, threshold)

    def merge(self, other: "CountMin") -> "CountMin":
        """Merge a same-seed sketch fed a disjoint sub-stream (linearity).

        The table is a linear function of the stream, so two sketches
        sharing hash functions add entrywise into the sketch of the
        concatenated stream — which also makes saved CountMin snapshots
        composable with delta sketches for incremental checkpointing.
        In place; returns ``self``.
        """
        self.check_mergeable(other)
        self._ensemble.merge(other._ensemble)
        return self


class CountMinEnsemble(BucketTableEnsemble):
    """``M`` independent CountMin sketches with stacked tables.

    The members' bucket tables come from one concatenated
    :class:`~repro.sketch.hashing.KWiseHashFamily` evaluation and all
    member tables live in one ``(M, rows, buckets)`` array.  Every batch
    lands in all members with one chunked scatter-add whose element
    order is member-major, row-major, batch-minor — each member's cells
    accumulate in the single sketch's per-row order — so member state is
    bit-identical however the members are stacked.  Built from
    :class:`CountMin` views it concatenates their one-member ensembles;
    :meth:`from_seeds` draws the members directly.
    """

    @classmethod
    def from_seeds(cls, n: int, buckets: int, rows: int, seeds, *,
                   conservative: bool = True, table_mode: str | None = None,
                   table_block: int | None = None) -> "CountMinEnsemble":
        """The ensemble of ``CountMin(n, buckets, rows, s, ...)`` for ``s``
        in ``seeds``, each member drawn by :func:`draw_countmin_hashes`."""
        require_positive_int(n, "n")
        require_positive_int(buckets, "buckets")
        require_positive_int(rows, "rows")
        require_replicas(seeds)
        table_mode = resolve_table_mode(table_mode)
        table_block = resolve_table_block(table_block)
        family = KWiseHashFamily.concatenate(
            [draw_countmin_hashes(replica_seed(seed), rows, buckets)
             for seed in seeds])
        ensemble = cls.__new__(cls)
        ensemble._setup(n, rows, buckets, conservative, table_mode,
                        table_block, family,
                        np.zeros((len(seeds), rows, buckets), dtype=float))
        return ensemble

    def _setup(self, n: int, rows: int, buckets: int, conservative: bool,
               table_mode: str, table_block: int,
               bucket_family: KWiseHashFamily, table: np.ndarray) -> None:
        """Set every field."""
        self._n = n
        self._rows = rows
        self._buckets = buckets
        self._conservative = conservative
        self._table_mode = table_mode
        self._table_block = table_block
        self._bucket_family = bucket_family
        self._bucket_of = None
        self._table = table

    def _ensure_tables(self) -> None:
        """Build the stacked bucket table on first use."""
        if self._bucket_of is None:
            self._bucket_of = self._universe_table(
                self._bucket_family.hash_table, self._bucket_family.hash_all)

    def _member_columns(self, start: int, stop: int, indices: np.ndarray):
        """``(stop - start, rows, B)`` bucket columns of a member chunk.

        The materialised gather is ``np.take(..., axis=-1)``, which reads
        the table in memory order and returns C-contiguous columns;
        ``table[start:stop, :, indices]`` would build a transposed view,
        several times slower.  The scatter visits cells in C order either
        way, so the counters are the same bits.
        """
        if self._table_mode == "blocked":
            return self._slice_table(self._bucket_family.hash_slice,
                                     start, stop, indices)
        self._ensure_tables()
        return np.take(self._bucket_of[start:stop], indices, axis=-1)

    def _shared(self) -> tuple:
        """What every member shares: universe, shape, table mode and query."""
        return super()._shared() + (self._conservative,)

    def _merge_identity(self) -> dict:
        return {"n": self._n, "shape": self.shape,
                "num_members": self.num_members,
                "conservative": self._conservative,
                "bucket hash coefficients": self._bucket_family.coefficients}

    def _ingest(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply one validated batch to every member with chunked scatter-adds.

        The flat cell index (:meth:`_flat_cells`) has shape
        ``(chunk, rows, B)`` and ``np.add.at`` visits it member-major,
        row-major, batch-minor — the accumulation order of a per-row loop
        over one sketch — so member state does not depend on how members
        are stacked.
        """
        for start, stop in member_chunks(self.num_members,
                                         self._rows * indices.size):
            buckets = self._member_columns(start, stop, indices)
            flat_scatter_add(self._table[start:stop],
                             self._flat_cells(buckets), deltas)

    def estimate_member(self, member: int, index: int) -> float:
        """Point query of one member for coordinate ``index``."""
        check_member_index(member, self.num_members)
        if not (0 <= index < self._n):
            raise InvalidParameterError(
                f"index {index} outside universe [0, {self._n})")
        buckets = self._member_columns(
            member, member + 1, np.asarray([index], dtype=np.int64))
        rows = np.arange(self._rows)
        return float(self._over_rows(self._table[member, rows, buckets[0, :, 0]]))

    def _over_rows(self, values: np.ndarray) -> np.ndarray:
        """The query's reduction over rows (axis 0): min or median."""
        return values.min(axis=0) if self._conservative else np.median(values, axis=0)

    def estimate_all_member(self, member: int) -> np.ndarray:
        """Point-query estimates of one member for every coordinate.

        ``min`` and ``np.median`` reduce per coordinate, so the
        ``blocked``-mode key-block sweep reproduces the materialised
        result bitwise.
        """
        check_member_index(member, self.num_members)
        table = self._table
        rows = np.arange(self._rows)[:, None]
        if self._table_mode == "blocked":
            out = np.empty(self._n, dtype=float)
            for kstart in range(0, self._n, self._table_block):
                kstop = min(self._n, kstart + self._table_block)
                keys = np.arange(kstart, kstop, dtype=np.int64)
                buckets = self._member_columns(member, member + 1, keys)
                out[kstart:kstop] = self._over_rows(table[member, rows, buckets[0]])
            return out
        self._ensure_tables()
        return self._over_rows(table[member, rows, self._bucket_of[member]])

    def heavy_hitters_member(self, member: int, threshold: float) -> np.ndarray:
        """Indices whose estimate is at least ``threshold`` for one member."""
        return np.flatnonzero(self.estimate_all_member(member) >= threshold)


register_ensemble(CountMin, CountMinEnsemble)
