"""Distributed sampling over sharded streams.

Section 1.3's distributed-databases motivation: the dataset is partitioned
across machines, each machine runs an independent sampler over its local
portion, and a coordinator combines the local summaries into global
samples.  Because the paper's samplers are linear-sketch based (and the
insertion-only race sampler is mergeable), the combination step is exact up
to the per-shard estimation error:

1. shard the universe by a hash, so every coordinate's updates are routed to
   exactly one machine;
2. every machine maintains (a) a local ``F_p`` estimate and (b) a local
   ``L_p`` sampler over its own sub-stream;
3. to draw a global sample, the coordinator picks a shard with probability
   proportional to its ``F_p`` estimate and forwards the query to that
   shard's local sampler.

With perfect local samplers and unbiased local ``F_p`` estimates the global
distribution is ``|x_i|^p / F_p`` up to the relative error of the shard-
selection weights, and the per-shard bias does not accumulate as more
machines are added — which is exactly the aggregate-summary argument of the
paper's motivation section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError, SamplerStateError
from repro.samplers.base import BatchUpdateMixin, Sample, check_batch_bounds, coerce_batch
from repro.streams.stream import TurnstileStream
from repro.streams.updates import StreamKind
from repro.utils.ensemble import build_ensemble
from repro.utils.execution_config import ExecutionConfig
from repro.utils.rng import SeedLike, derive_seed, ensure_rng, splitmix64
from repro.utils.sharding import ingest_sharded, parallel_width
from repro.utils.validation import require_positive_int

SamplerFactory = Callable[[int, int], object]
EstimatorFactory = Callable[[int, int], object]

_UINT64_MASK = (1 << 64) - 1


def shard_assignment(n: int, num_shards: int, seed: int = 0) -> np.ndarray:
    """Assign every coordinate to one of ``num_shards`` machines by hashing.

    The assignment oracle is the vectorised splitmix64 kernel chained over
    ``(seed, index)`` — two full 64-bit finaliser rounds, the same idiom as
    the ``p``-stable coefficient oracle — so universe-sized assignments are
    a handful of numpy passes instead of an O(n) Python loop over the
    blake2b-based :func:`~repro.utils.rng.derive_seed` (the previous
    implementation, whose per-coordinate cost dominated coordinator
    construction for large universes).  Deterministic per ``(seed, index)``
    and independent of evaluation order, like every oracle in the library.
    """
    require_positive_int(n, "n")
    require_positive_int(num_shards, "num_shards")
    root = splitmix64(np.asarray([int(seed) & _UINT64_MASK], dtype=np.uint64))[0]
    indices = np.arange(n, dtype=np.uint64)
    mixed = splitmix64(root ^ indices)
    return (mixed % np.uint64(num_shards)).astype(np.int64)


def split_stream(stream: TurnstileStream, assignment: np.ndarray,
                 num_shards: int) -> list[TurnstileStream]:
    """Split a stream into per-shard sub-streams according to ``assignment``."""
    if len(assignment) != stream.n:
        raise InvalidParameterError("assignment length must equal the universe size")
    indices = stream.indices
    deltas = stream.deltas
    shards = []
    owners = assignment[indices]
    for shard in range(num_shards):
        mask = owners == shard
        shards.append(TurnstileStream.from_arrays(
            stream.n, indices[mask], deltas[mask], kind=StreamKind.TURNSTILE,
        ))
    return shards


@dataclass
class _Shard:
    """One machine: a local sampler plus a local moment estimator."""

    sampler: object
    estimator: object
    num_updates: int = 0


class DistributedSamplingCoordinator(BatchUpdateMixin):
    """Coordinator combining per-shard samplers into global ``L_p`` samples.

    Parameters
    ----------
    n:
        Universe size.
    num_shards:
        Number of machines.
    sampler_factory:
        ``sampler_factory(shard_id, seed)`` builds the local sampler of a
        shard (any :class:`~repro.samplers.base.StreamingSampler`).
    estimator_factory:
        ``estimator_factory(shard_id, seed)`` builds the local moment
        estimator; it must expose ``update(index, delta)`` and
        ``estimate() -> float``.
    seed:
        Root seed for shard assignment and the coordinator's choices.
    """

    def __init__(self, n: int, num_shards: int, sampler_factory: SamplerFactory,
                 estimator_factory: EstimatorFactory, seed: SeedLike = None) -> None:
        require_positive_int(n, "n")
        require_positive_int(num_shards, "num_shards")
        self._n = n
        self._num_shards = num_shards
        rng = ensure_rng(seed)
        self._rng = rng
        assignment_seed = int(rng.integers(0, 2**62))
        self._assignment = shard_assignment(n, num_shards, seed=assignment_seed)
        self._sampler_factory = sampler_factory
        # Replica seeds of the bulk path are derived (not drawn from the
        # generator) so adding bulk draws never shifts the coordinator's
        # existing seed schedule.
        self._bulk_seed = derive_seed(assignment_seed, "bulk")
        self._shards = [
            _Shard(
                sampler=sampler_factory(shard, int(rng.integers(0, 2**62))),
                estimator=estimator_factory(shard, int(rng.integers(0, 2**62))),
            )
            for shard in range(num_shards)
        ]
        self._num_updates = 0

    @property
    def num_shards(self) -> int:
        """Number of machines."""
        return self._num_shards

    @property
    def assignment(self) -> np.ndarray:
        """The coordinate-to-shard assignment (read-only copy)."""
        return self._assignment.copy()

    def space_counters(self) -> int:
        """Total counters across all machines."""
        total = 0
        for shard in self._shards:
            total += shard.sampler.space_counters()
            if hasattr(shard.estimator, "space_counters"):
                total += shard.estimator.space_counters()
        return total

    def shard_of(self, index: int) -> int:
        """The machine responsible for a coordinate."""
        if not (0 <= index < self._n):
            raise InvalidParameterError(f"index {index} outside universe [0, {self._n})")
        return int(self._assignment[index])

    def update(self, index: int, delta: float) -> None:
        """Route a turnstile update to the responsible machine."""
        shard = self._shards[self.shard_of(index)]
        shard.sampler.update(index, delta)
        shard.estimator.update(index, delta)
        shard.num_updates += 1
        self._num_updates += 1

    def update_batch(self, indices, deltas) -> None:
        """Route a batch to the responsible machines, one sub-batch per shard."""
        indices, deltas = coerce_batch(indices, deltas)
        if indices.size == 0:
            return
        check_batch_bounds(indices, self._n)
        owners = self._assignment[indices]
        for shard_id in np.unique(owners).tolist():
            shard = self._shards[int(shard_id)]
            mask = owners == shard_id
            shard_indices = indices[mask]
            shard_deltas = deltas[mask]
            # Factories may build third-party structures that only implement
            # scalar ``update``; replay for those.
            for structure in (shard.sampler, shard.estimator):
                structure_batch = getattr(structure, "update_batch", None)
                if structure_batch is not None:
                    structure_batch(shard_indices, shard_deltas)
                else:
                    for index, delta in zip(shard_indices.tolist(),
                                            shard_deltas.tolist()):
                        structure.update(index, delta)
            shard.num_updates += int(shard_indices.size)
        self._num_updates += int(indices.size)

    def shard_weights(self) -> np.ndarray:
        """Per-shard moment estimates used as shard-selection weights."""
        if self._num_updates == 0:
            raise SamplerStateError("the coordinator has not seen any updates")
        weights = np.zeros(self._num_shards, dtype=float)
        for shard_id, shard in enumerate(self._shards):
            if shard.num_updates == 0:
                continue
            weights[shard_id] = max(0.0, float(shard.estimator.estimate()))
        if weights.sum() <= 0:
            raise SamplerStateError("every shard reports zero moment mass")
        return weights / weights.sum()

    def sample(self) -> Optional[Sample]:
        """Draw a global sample: pick a shard by weight, then query it locally."""
        weights = self.shard_weights()
        shard_id = int(self._rng.choice(self._num_shards, p=weights))
        drawn = self._shards[shard_id].sampler.sample()
        return self._tag_shard(drawn, shard_id)

    @staticmethod
    def _tag_shard(drawn: Optional[Sample], shard_id: int) -> Optional[Sample]:
        """Attach the serving shard to a local sample's metadata."""
        if drawn is None:
            return None
        metadata = dict(drawn.metadata)
        metadata["shard"] = shard_id
        return Sample(
            index=drawn.index,
            value_estimate=drawn.value_estimate,
            exact_value=drawn.exact_value,
            weight=drawn.weight,
            metadata=metadata,
        )

    def bulk_samples(self, stream: TurnstileStream, num_draws: int, *,
                     config: Optional[ExecutionConfig] = None,
                     batch_size: Optional[int] = None) -> list[Optional[Sample]]:
        """Ensemble-backed bulk path: many one-shot global draws at once.

        Repeated :meth:`sample` calls re-query each shard's single local
        sampler, so the draws share that sampler's randomness.  This path
        instead serves every draw from its own *independent* replica of the
        chosen shard's local sampler: the per-draw shard choices are made
        up front from the usual estimator weights, and each shard builds
        one replica per draw it serves (seeded per ``(shard, draw)``, so the
        replica set is independent of how draws land).  Only ``num_draws``
        replicas are built in total; shards that serve no draw are skipped.

        The replicas of a shard are stacked into units of at most
        ``ceil(num_draws / W)`` replicas each, where ``W`` is the back-end's
        :func:`~repro.utils.sharding.parallel_width` (the worker count
        under ``distributed``, 1 under ``serial``, so serial keeps one
        ensemble per shard).  Every unit ingests its shard's sub-stream
        *and draws* where it runs, through the sharded execution layer
        (``config.execution`` is ``serial``; ``threaded`` — an in-process
        thread pool with zero pickling; ``multiprocessing``; or
        ``distributed`` — socket worker hosts behind the scatter/gather
        coordinator of :mod:`repro.utils.coordinator`, the literal Section
        1.3 picture of machines working in parallel, dead-worker
        re-dispatch included).  A worker receives the fresh unit (its zero
        tables pickle as shapes) and the sub-stream once, and sends back
        only the unit's one-shot samples; the executor hands the largest
        units out first to the least-loaded worker, so a skewed shard
        split still keeps every worker busy.  The draws are bit-identical
        under every back-end and every split.

        The coordinator itself must already have ingested the stream (the
        shard-selection weights come from the shard estimators); ``stream``
        must be that same global stream.
        """
        require_positive_int(num_draws, "num_draws")
        weights = self.shard_weights()
        choices = self._rng.choice(self._num_shards, size=num_draws,
                                   p=weights).tolist()
        draws_of_shard: dict[int, list[int]] = {}
        for draw, shard_id in enumerate(choices):
            draws_of_shard.setdefault(shard_id, []).append(draw)
        substreams = split_stream(stream, self._assignment, self._num_shards)
        unit_size = -(-num_draws // parallel_width(config))
        units = [(shard, draws[start:start + unit_size])
                 for shard, draws in sorted(draws_of_shard.items())
                 for start in range(0, len(draws), unit_size)]
        ensembles = [
            build_ensemble([
                self._sampler_factory(
                    shard, derive_seed(self._bulk_seed, shard, draw))
                for draw in draws
            ])
            for shard, draws in units
        ]
        drawn = ingest_sharded(
            ensembles, [substreams[shard] for shard, _ in units],
            config=config, batch_size=batch_size, draw=True)
        results: list[Optional[Sample]] = [None] * num_draws
        for (shard, draws), samples in zip(units, drawn):
            for draw, sample in zip(draws, samples):
                results[draw] = self._tag_shard(sample, shard)
        return results

    def target_distribution(self, vector: Sequence[float], p: float) -> np.ndarray:
        """The global ``L_p`` target pmf (for tests and benchmarks)."""
        weights = np.abs(np.asarray(vector, dtype=float)) ** p
        total = weights.sum()
        if total <= 0:
            raise InvalidParameterError("the vector carries no sampling mass")
        return weights / total
