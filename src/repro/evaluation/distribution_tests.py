"""Empirical distribution evaluation of samplers.

A sampler factory is driven for many independent draws against a fixed
stream; the resulting empirical distribution is compared to the target pmf
with total variation distance and a chi-square statistic, and the failure
rate is recorded.  This is the common engine behind experiments E1, E3, E5,
E7, E8, E11, E12 and behind the statistical unit tests.

The draws are executed through the replica-ensemble engine
(:func:`repro.utils.ensemble.ensemble_samples`): all per-draw replicas are
stacked into the sampler's registered native ensemble (or the generic
shared-stream fallback) and the stream is ingested once for the whole
round, which removes the ``R ×`` per-instance cost of the old loop while
producing draw-for-draw identical results (replica state and samples are
bit-identical to the sequential path).  Retries run through the
ensemble-aware :func:`overprovisioned_draws` engine, which sizes spare
replicas by a failure-rate EWMA and consumes them in-round instead of
paying per-attempt rebuild rounds — with the exact same per-draw outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.samplers.base import Sample
from repro.streams.stream import TurnstileStream
from repro.utils.ensemble import ensemble_samples
from repro.utils.execution_config import ExecutionConfig
from repro.utils.sharding import sharded_ensemble_samples
from repro.utils.stats import (
    chi_square_statistic,
    expected_tvd_noise_floor,
    normalize_weights,
    total_variation_distance,
)
from repro.utils.validation import require_positive_int

SamplerFactory = Callable[[int], object]

#: Smoothing factor of the per-round failure-rate EWMA of the retry engine.
RETRY_EWMA_ALPHA = 0.5
#: Safety margin on the EWMA estimate when sizing a round's spare replicas.
RETRY_SPARE_MARGIN = 1.5


@dataclass(frozen=True)
class RetryStats:
    """Diagnostics of one :func:`overprovisioned_draws` run.

    Attributes
    ----------
    rounds:
        Number of shared-ingest ensemble rounds executed.
    replicas_built:
        Total replicas constructed and ingested across all rounds
        (primaries plus spares).
    spares_built:
        Replicas built speculatively for a draw's *next* attempt.
    spares_consumed:
        Spares that actually served a draw whose primary attempt failed —
        each one is a rebuild round the old per-attempt engine would have
        needed a later round for.
    failure_rate_ewma:
        Final EWMA estimate of the per-attempt failure rate.
    """

    rounds: int
    replicas_built: int
    spares_built: int
    spares_consumed: int
    failure_rate_ewma: float


def overprovisioned_draws(
    draw_samples: Callable[[Sequence[int]], list],
    num_draws: int,
    max_attempts_per_draw: int,
    *,
    failure_rate_prior: float = 0.0,
) -> tuple[list, RetryStats]:
    """Ensemble-aware retry engine: over-provision spares, consume on failure.

    The per-attempt engine this replaces rebuilt failed draws in fresh
    rounds: attempt ``k`` ran only after *every* draw's attempt ``k - 1``
    had been ingested and queried, so a 10% failure rate paid a whole extra
    shared-ingest round (stream materialisation, hash-family evaluation
    over the universe, ensemble assembly) to redo 10% of the replicas.
    With the replica-ensemble engine the marginal cost of one more replica
    inside a round is tiny compared to the round itself, so this engine
    *over-provisions*: every round ingests, alongside each pending draw's
    primary attempt, spare replicas evaluating the *next* attempt of the
    first ``ceil(EWMA * pending * RETRY_SPARE_MARGIN)`` pending draws.  A
    draw whose primary fails consumes its spare immediately — only draws
    that fail both (or hold no spare) roll into a rebuild round.

    Draw-for-draw reproducibility is exact: the seed schedule is the
    per-attempt engine's ``draw * max_attempts + attempt + 1``, replicas
    are independent (ensemble cohorts never change a replica's outcome —
    the engine's bit-identity contract), and a draw's result is still the
    first non-``None`` sample in attempt order, so every draw's outcome —
    and the failure count — is identical to the sequential path
    (asserted by ``tests/test_retry_overprovision.py``).

    The failure rate is tracked as an EWMA over rounds
    (:data:`RETRY_EWMA_ALPHA`); ``failure_rate_prior`` pre-seeds it so
    callers who know their sampler's failure probability skip the
    spare-less first round.  Returns ``(results, stats)`` with one entry
    per draw (``None`` for a draw that exhausted its attempts).
    """
    require_positive_int(num_draws, "num_draws")
    require_positive_int(max_attempts_per_draw, "max_attempts_per_draw")
    if not (0.0 <= failure_rate_prior < 1.0):
        raise InvalidParameterError(
            f"failure_rate_prior must lie in [0, 1), got {failure_rate_prior}")

    def seed_of(draw: int, attempt: int) -> int:
        return draw * max_attempts_per_draw + attempt + 1

    results: list = [None] * num_draws
    attempt_of = [0] * num_draws
    pending = list(range(num_draws))
    ewma = float(failure_rate_prior)
    observed = failure_rate_prior > 0.0
    rounds = replicas_built = spares_built = spares_consumed = 0
    while pending:
        eligible = [draw for draw in pending
                    if attempt_of[draw] + 1 < max_attempts_per_draw]
        spare_count = 0
        if observed and ewma > 0.0:
            spare_count = min(len(eligible), int(math.ceil(
                ewma * len(pending) * RETRY_SPARE_MARGIN)))
        spare_draws = eligible[:spare_count]
        seeds = [seed_of(draw, attempt_of[draw]) for draw in pending]
        seeds += [seed_of(draw, attempt_of[draw] + 1) for draw in spare_draws]
        samples = draw_samples(seeds)
        rounds += 1
        replicas_built += len(seeds)
        spares_built += len(spare_draws)
        spare_result = dict(zip(spare_draws, samples[len(pending):]))
        failed_primaries = 0
        still_pending = []
        for draw, result in zip(pending, samples[:len(pending)]):
            attempt_of[draw] += 1
            if result is not None:
                results[draw] = result
                continue
            failed_primaries += 1
            if draw in spare_result:
                # The spare IS attempt a+1 of this draw: consume it now
                # instead of paying a rebuild round for it.
                spares_consumed += 1
                attempt_of[draw] += 1
                spare = spare_result[draw]
                if spare is not None:
                    results[draw] = spare
                    continue
            if attempt_of[draw] < max_attempts_per_draw:
                still_pending.append(draw)
        rate = failed_primaries / len(pending)
        ewma = rate if not observed else (
            RETRY_EWMA_ALPHA * rate + (1.0 - RETRY_EWMA_ALPHA) * ewma)
        observed = True
        pending = still_pending
    return results, RetryStats(
        rounds=rounds,
        replicas_built=replicas_built,
        spares_built=spares_built,
        spares_consumed=spares_consumed,
        failure_rate_ewma=ewma,
    )


@dataclass(frozen=True)
class DistributionReport:
    """Summary of an empirical-distribution experiment.

    Attributes
    ----------
    num_draws:
        Number of successful draws that entered the empirical distribution.
    num_failures:
        Number of draws on which the sampler reported ``FAIL`` (after the
        per-draw retry budget).
    tvd:
        Total variation distance between the empirical and target pmfs.
    tvd_noise_floor:
        Expected TVD of a same-size sample drawn exactly from the target —
        the irreducible statistical noise the measurement carries.
    chi_square:
        Pearson chi-square statistic of the empirical counts against the
        target.
    chi_square_dof:
        Degrees of freedom of the chi-square statistic.
    empirical:
        The empirical pmf over the universe.
    target:
        The target pmf over the universe.
    """

    num_draws: int
    num_failures: int
    tvd: float
    tvd_noise_floor: float
    chi_square: float
    chi_square_dof: int
    empirical: np.ndarray
    target: np.ndarray

    @property
    def failure_rate(self) -> float:
        """Fraction of requested draws that ended in ``FAIL``."""
        total = self.num_draws + self.num_failures
        return self.num_failures / total if total else 0.0

    @property
    def excess_tvd(self) -> float:
        """TVD beyond the sampling-noise floor (clipped at zero)."""
        return max(0.0, self.tvd - self.tvd_noise_floor)


def evaluate_sampler_distribution(
    sampler_factory: SamplerFactory,
    stream: TurnstileStream,
    target_weights: Sequence[float],
    num_draws: int,
    *,
    max_attempts_per_draw: int = 4,
    reuse_sampler: bool = False,
    config: Optional[ExecutionConfig] = None,
    failure_rate_prior: float = 0.0,
) -> DistributionReport:
    """Measure a sampler family's empirical distribution against a target.

    Parameters
    ----------
    sampler_factory:
        Maps an integer seed to a fresh sampler implementing the
        :class:`~repro.samplers.base.StreamingSampler` protocol.
    stream:
        The stream replayed into every sampler instance.
    target_weights:
        Unnormalised target weights ``G(x_i)`` (normalised internally).
    num_draws:
        Number of independent draws requested.
    max_attempts_per_draw:
        How many fresh sampler instances to try before recording a failure
        for that draw.
    reuse_sampler:
        If ``True`` a single sampler instance is built and queried
        repeatedly (only meaningful for samplers whose draws are
        independent across queries, such as the exact oracles); the default
        builds an independent instance per draw, matching the one-shot
        nature of the paper's samplers.
    config:
        An :class:`~repro.utils.execution_config.ExecutionConfig`
        bundling the execution knobs.  ``execution="serial"`` (the
        default) runs the monolithic replica-ensemble engine; every other
        mode splits each round's replicas across ``num_shards`` shard
        ensembles through
        :func:`~repro.utils.sharding.sharded_ensemble_samples`, by default
        one per unit of the back-end's width
        (:func:`~repro.utils.sharding.parallel_width`: the worker count
        under ``"distributed"``, else ``processes`` or the affinity-aware
        usable CPU count).  ``"threaded"`` drives them from an in-process
        thread pool (zero pickling — the shard kernels release the GIL),
        ``"multiprocessing"`` executes them in worker processes, and
        ``"distributed"`` ships them to socket worker hosts through the
        scatter/gather coordinator (with none reachable the run degrades
        to serial); a worker process or host ingests and draws its shard
        and sends back only the samples.  Replica sharding is
        bit-identical to the monolithic engine, so the report is
        draw-for-draw independent of the execution mode — it is purely a
        wall-clock/parallelism choice.
    failure_rate_prior:
        Pre-seeds the retry engine's failure-rate EWMA (see
        :func:`overprovisioned_draws`) so the first round already carries
        spare replicas; the report is identical for any value — only the
        round count changes.
    """
    require_positive_int(num_draws, "num_draws")
    cfg = ExecutionConfig() if config is None else config

    def draw_samples(seeds: Sequence[int]) -> list:
        if cfg.execution == "serial":
            return ensemble_samples(sampler_factory, seeds, stream,
                                    config=config)
        return sharded_ensemble_samples(sampler_factory, seeds, stream,
                                        config=cfg)

    target = normalize_weights(target_weights)
    n = stream.n
    if len(target) != n:
        raise InvalidParameterError("target weights must match the stream universe")

    counts = np.zeros(n, dtype=float)
    failures = 0
    if reuse_sampler:
        with cfg.table_mode_scope():
            shared_sampler = sampler_factory(0)
        shared_sampler.update_stream(stream)
        for draw in range(num_draws):
            result: Optional[Sample] = shared_sampler.sample()
            if result is None:
                failures += 1
            else:
                counts[result.index] += 1.0
    else:
        # The over-provisioned retry engine: same per-draw seed schedule
        # as the sequential loop (so every draw's outcome is identical to
        # the per-instance path), but failed draws consume in-round spare
        # replicas before paying a rebuild round.
        samples, _ = overprovisioned_draws(
            draw_samples, num_draws, max_attempts_per_draw,
            failure_rate_prior=failure_rate_prior)
        for result in samples:
            if result is None:
                failures += 1
            else:
                counts[result.index] += 1.0

    successes = int(counts.sum())
    if successes == 0:
        raise InvalidParameterError("sampler failed on every draw; cannot build a distribution")
    empirical = counts / successes
    tvd = total_variation_distance(empirical, target)
    chi_square, dof = chi_square_statistic(counts, target)
    return DistributionReport(
        num_draws=successes,
        num_failures=failures,
        tvd=tvd,
        tvd_noise_floor=expected_tvd_noise_floor(target, successes),
        chi_square=chi_square,
        chi_square_dof=dof,
        empirical=empirical,
        target=target,
    )


def lp_target_weights(vector: np.ndarray, p: float) -> np.ndarray:
    """Target weights ``|x_i|^p`` of an ``L_p`` sampler."""
    return np.abs(np.asarray(vector, dtype=float)) ** p


def support_target_weights(vector: np.ndarray) -> np.ndarray:
    """Target weights of an ``L_0`` sampler (uniform over the support)."""
    return (np.asarray(vector, dtype=float) != 0).astype(float)
