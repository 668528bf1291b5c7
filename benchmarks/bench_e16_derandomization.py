"""E16 — derandomisation: seed-bounded generators vs true randomness.

Paper artifact: Section 3's derandomisation (Theorem 3.19 / Theorem 3.21),
which replaces the sampler's exponential and CountSketch randomness with a
PRG that fools half-space testers.  The simulation substitutes a
seed-bounded hash generator (see :mod:`repro.derandomization.prg`); this benchmark
measures (a) the acceptance bias of the gap-test half-space tester under the
generator and (b) the total-variation shift of an exponential-race L_1
sampler when its randomness comes from the generator, as the seed length
shrinks.

Expected shape: with 32-64 seed bits both the tester bias and the sampler's
distribution shift are statistically indistinguishable from zero (well below
the sampling-noise floor); the Nisan-style block generator needs a seed that
grows with log(number of blocks), placing both constructions on the
Theorem 3.19 scale.
"""

from __future__ import annotations

import numpy as np

from _harness import EXPERIMENT_SEED, print_rows
from repro.derandomization import (
    BlockPRG,
    HashPRG,
    acceptance_bias,
    empirical_distribution_shift,
    exponential_from_prg,
    gap_test_tester,
    seed_length_bound,
)
from repro.streams import zipfian_frequency_vector


def run_experiment(n: int = 48, draws: int = 2500):
    rng = np.random.default_rng(EXPERIMENT_SEED)
    vector = zipfian_frequency_vector(n, skew=1.3, scale=60.0, seed=EXPERIMENT_SEED)
    weights = np.abs(vector)
    tester = gap_test_tester(scaled_dimension=2, gap_threshold=1)

    rows = []
    for seed_bits in (16, 32, 64):
        prg = HashPRG(seed_bits=seed_bits, seed=int(rng.integers(0, 2**31)))

        # (a) gap-tester acceptance bias on exponential inputs.
        true_inputs = rng.exponential(1.0, size=(draws, 2))
        prg_inputs = np.column_stack([
            exponential_from_prg(prg, draws, "bias", 0),
            exponential_from_prg(prg, draws, "bias", 1),
        ])
        bias = acceptance_bias(tester, true_inputs, prg_inputs)

        # (b) distribution shift of an exponential-race L_1 sampler whose
        # per-coordinate exponentials come from the PRG instead of the RNG.
        true_samples = []
        prg_samples = []
        for draw in range(draws):
            true_keys = rng.exponential(1.0, size=n) / weights
            true_samples.append(int(np.argmin(true_keys)))
            prg_exponentials = exponential_from_prg(prg, n, "race", draw)
            prg_samples.append(int(np.argmin(prg_exponentials / weights)))
        shift = empirical_distribution_shift(true_samples, prg_samples, n)
        noise_floor = np.sqrt(n / (2.0 * np.pi * draws))

        rows.append([
            f"hash PRG, {seed_bits}-bit seed",
            round(bias, 4),
            round(shift, 4),
            round(float(noise_floor), 4),
            max(1, seed_bits // 64),
        ])

    block = BlockPRG(num_blocks=n * draws, block_bits=64, seed=7)
    rows.append([
        "Nisan-style block PRG (seed only)",
        "-",
        "-",
        "-",
        block.seed_length_words(),
    ])
    rows.append([
        "Theorem 3.19 bound (bits, const=1)",
        "-",
        "-",
        "-",
        seed_length_bound(n, 0.1) // 64 + 1,
    ])
    return rows


def test_e16_derandomization(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_rows(
        "E16: derandomisation — gap-tester bias and sampler distribution shift vs seed length",
        ["generator", "tester bias", "sampler TVD shift", "2x noise floor", "seed words"],
        rows,
    )
    hash_rows = [row for row in rows if isinstance(row[1], float)]
    for _label, bias, shift, floor, _words in hash_rows:
        # The generator fools the gap tester and leaves the sampling law
        # within (a small multiple of) the two-sample noise floor.
        assert bias < 0.05
        assert shift < 2.5 * floor
