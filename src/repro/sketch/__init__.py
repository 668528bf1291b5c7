"""Linear-sketch substrates used by every sampler in the library.

``hashing``
    k-wise independent hash families over ``[0, n)`` and Rademacher sign
    hashes, implemented with random polynomials over a Mersenne prime.
``countsketch``
    The CountSketch heavy-hitter sketch [CCF04] and the averaged
    multi-instance estimator of Corollary 2.2.
``countmin``
    CountMin sketch, used as an auxiliary baseline in examples/ablations.
``ams``
    The AMS sketch [AMS99] for unbiased ``F_2`` estimation.
``pstable``
    Indyk's ``p``-stable sketch for ``L_p`` norms, ``p in (0, 2]``.
``fp_estimator``
    Unbiased max-stability ``F_p`` estimation for ``p > 2``, Theorem 5.1's
    role in Algorithms 1, 2, and 5.

Each of the sketches is written once, as a replica ensemble
(``CountSketchEnsemble``, ...); the single-sketch classes are one-replica
views of it (see :mod:`repro.utils.ensemble`).
``exponential``
    Exponential random variables, max-stability scaling, anti-rank vectors,
    and duplication simulation (Lemmas 1.16-1.19 and Section 3).
``sparse_recovery``
    Exact 1-sparse and k-sparse recovery with fingerprint verification,
    the substrate of the perfect ``L_0`` sampler (Theorem 5.4).
"""

from repro.sketch.hashing import (KWiseHash, KWiseHashFamily, PairwiseHash,
                                  SignHash, SignHashFamily)
from repro.sketch.countsketch import (AveragedCountSketch, CountSketch,
                                      CountSketchEnsemble)
from repro.sketch.countmin import CountMin, CountMinEnsemble
from repro.sketch.ams import AMSEnsemble, AMSSketch
from repro.sketch.fp_estimator import FpEstimator, FpEstimatorEnsemble, MaxStabilityFpEstimator
from repro.sketch.exponential import ExponentialScaler, anti_rank_vector, scale_vector
from repro.sketch.sparse_recovery import OneSparseRecovery, KSparseRecovery
from repro.sketch.pstable import (PStableEnsemble, PStableSketch,
                                  chambers_mallows_stuck, stable_coefficient_block,
                                  stable_median_scale)
from repro.sketch.distinct import KMinimumValues, RoughL0Estimator

__all__ = [
    "KWiseHash",
    "KWiseHashFamily",
    "SignHashFamily",
    "PairwiseHash",
    "SignHash",
    "CountSketch",
    "CountSketchEnsemble",
    "AveragedCountSketch",
    "CountMin",
    "CountMinEnsemble",
    "AMSSketch",
    "AMSEnsemble",
    "FpEstimator",
    "FpEstimatorEnsemble",
    "MaxStabilityFpEstimator",
    "ExponentialScaler",
    "anti_rank_vector",
    "scale_vector",
    "OneSparseRecovery",
    "KSparseRecovery",
    "PStableSketch",
    "PStableEnsemble",
    "stable_coefficient_block",
    "chambers_mallows_stuck",
    "stable_median_scale",
    "KMinimumValues",
    "RoughL0Estimator",
]
