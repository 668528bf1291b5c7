"""Truncated Taylor-series estimation of fractional powers (Lemma 2.7).

Algorithm 2 needs an (almost) unbiased estimate of ``x**(p-2)`` for a
fractional exponent, given

* a *pivot* ``y`` that is a constant-factor approximation of ``x`` (obtained
  from the value estimate attached to the perfect ``L_2`` sample), and
* ``Q`` independent, nearly-unbiased estimates ``x_hat^{(1)}, ..., x_hat^{(Q)}``
  of ``x`` (obtained from independent averaged CountSketch instances).

The estimator expands ``x**r`` (with ``r = p - 2``) around ``y``:

    ``x**r = sum_{q >= 0} C(r, q) * y**(r - q) * (x - y)**q``

and truncates the series at ``Q = O(log n)`` terms, replacing the ``q``-th
power ``(x - y)**q`` by the product of ``q`` *independent* estimates
``prod_{a<=q} (x_hat^{(a)} - y)`` so that the expectation factorises.
Lemma 2.7 shows the truncation error is ``x**r / poly(n)`` whenever the pivot
satisfies ``|x - y| <= x / 100``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError


def generalized_binomial(r: float, q: int) -> float:
    """The generalised binomial coefficient ``C(r, q)`` for real ``r``.

    ``C(r, q) = r (r-1) ... (r-q+1) / q!`` with ``C(r, 0) = 1``.
    """
    if q < 0:
        raise InvalidParameterError("q must be non-negative")
    coefficient = 1.0
    for a in range(q):
        coefficient *= (r - a) / (a + 1)
    return coefficient


@functools.lru_cache(maxsize=256)
def _binomial_coefficients(exponent: float, num_terms: int) -> tuple[float, ...]:
    """``C(exponent, q)`` for ``q = 0 .. num_terms``, computed once per pair.

    One running product, which is the arithmetic of
    :func:`generalized_binomial` in its order: ``C(r, q)`` is
    ``C(r, q - 1) * ((r - (q - 1)) / q)`` in both, so each value is
    bitwise :func:`generalized_binomial`'s, at ``O(Q)`` cost for all of
    them instead of ``O(Q^2)`` per series.  Cached per
    ``(exponent, num_terms)``, so a :class:`TaylorPowerEstimator` computes
    them once and holds nothing extra in its pickle.
    """
    coefficients = [1.0]
    for a in range(num_terms):
        coefficients.append(coefficients[-1] * ((exponent - a) / (a + 1)))
    return tuple(coefficients)


def taylor_power_estimate(estimates: Sequence[float], pivot: float, exponent: float,
                          num_terms: int | None = None) -> float:
    """Estimate ``x**exponent`` from independent estimates of ``x``.

    Parameters
    ----------
    estimates:
        Independent (nearly) unbiased estimates ``x_hat^{(a)}`` of ``x``.
        At least ``num_terms`` estimates must be supplied because the
        ``q``-th series term consumes ``q`` distinct estimates.
    pivot:
        The expansion point ``y`` (a constant-factor approximation of ``x``).
    exponent:
        The target power ``r`` (``p - 2`` in Algorithm 2); any real number.
    num_terms:
        Number of series terms ``Q`` to keep (defaults to ``len(estimates)``).

    Returns
    -------
    float
        The truncated-series estimate of ``x**exponent``.
    """
    estimates = np.asarray(list(estimates), dtype=float)
    if num_terms is None:
        num_terms = len(estimates)
    if num_terms < 0:
        raise InvalidParameterError("num_terms must be non-negative")
    if len(estimates) < num_terms:
        raise InvalidParameterError(
            f"need at least {num_terms} estimates, got {len(estimates)}"
        )
    if pivot == 0.0:
        raise InvalidParameterError("pivot must be non-zero")

    total = 0.0
    running_product = 1.0
    coefficients = _binomial_coefficients(float(exponent), int(num_terms))
    for q in range(num_terms + 1):
        term = coefficients[q] * pivot ** (exponent - q) * running_product
        total += term
        if q < num_terms:
            running_product *= estimates[q] - pivot
    return total


@dataclass
class TaylorPowerEstimator:
    """Reusable configuration of the Lemma 2.7 estimator.

    Attributes
    ----------
    exponent:
        Target power ``r`` (``p - 2`` for Algorithm 2, ``p_d - p`` for the
        polynomial sampler of Algorithm 3).
    num_terms:
        Truncation point ``Q``; the paper takes ``Q = O(log n)``.
    """

    exponent: float
    num_terms: int

    def __post_init__(self) -> None:
        if self.num_terms < 0:
            raise InvalidParameterError("num_terms must be non-negative")

    def required_estimates(self) -> int:
        """Number of independent coordinate estimates the estimator consumes."""
        return self.num_terms

    def estimate(self, estimates: Sequence[float], pivot: float) -> float:
        """Apply the estimator; see :func:`taylor_power_estimate`."""
        return taylor_power_estimate(estimates, pivot, self.exponent, self.num_terms)

    def truncation_error_bound(self, x: float, pivot: float) -> float:
        """Upper bound on the deterministic truncation error ``|x^r - series|``.

        Uses the geometric tail bound from the proof of Lemma 2.7: when
        ``|x - y| <= |x| * rho`` with ``rho < 1`` the tail after ``Q`` terms
        is at most ``|x|^r * sum_{q > Q} |C(r, q)| * rho^q``.
        """
        if x == 0.0:
            return 0.0
        rho = abs(x - pivot) / abs(x)
        if rho >= 1.0:
            return math.inf
        tail = 0.0
        # A few hundred terms is ample: the summand decays geometrically.
        for q in range(self.num_terms + 1, self.num_terms + 400):
            tail += abs(generalized_binomial(self.exponent, q)) * rho**q
        return abs(x) ** self.exponent * tail


def default_num_terms(n: int, constant: float = 4.0) -> int:
    """The paper's choice ``Q = O(log n)`` with an explicit constant."""
    if n < 2:
        return 1
    return max(1, int(math.ceil(constant * math.log2(n))))
