"""Radial auxiliary output family on C^N.

Density (natural log internally; rates/entropies are reported in bits at
the interfaces):

    r(y) = Gamma(N) |det A|^2 / (pi^N beta^alpha Gamma(alpha))
           * ||A y||^(2(alpha - N)) * exp(-||A y||^2 / beta)

The squared radius ||A Y||^2 is Gamma(alpha, beta), the direction of A Y
is uniform on the complex unit sphere.  The canonical parameterization
fits beta = E||A Y||^2 and alpha = 1/log(beta) from a sample population.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from . import linalg
from .errors import InvalidParam, InvalidRegime, SingularPoint
from .linalg import LN2

# Calibration constants for the double-log remainder bound: remainder (bits)
# <= REMAINDER_SLOPE * log2(log2(beta)) + REMAINDER_OFFSET.  Fixed by the
# self-consistency experiment, reused by the converse bound reports.
REMAINDER_SLOPE = 2.0
REMAINDER_OFFSET = 5.0

_NORM_SQ_FLOOR = 1e-300


def remainder_slack_bits(scale):
    """Calibrated double-log slack, in bits, for a power scale (beta or P)."""
    return REMAINDER_SLOPE * np.log2(np.log2(max(scale, 4.0))) + REMAINDER_OFFSET


@dataclass
class AuxDistParams:
    """Parameters of one member of the radial family on C^N."""

    n: int
    a: np.ndarray  # N x N nonsingular
    alpha: float
    beta: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParam("alpha and beta must be positive")
        if self.a.shape != (self.n, self.n):
            raise InvalidParam("A must be N x N")
        sign, ld = np.linalg.slogdet(self.a)
        if abs(sign) == 0 or not np.isfinite(ld):
            raise InvalidParam("A must be nonsingular")
        self.log_abs_det_a_sq = 2.0 * ld  # natural log of |det A|^2


def log_normalizer(p):
    """Natural log of the density normalization constant."""
    return (
        gammaln(p.n)
        + p.log_abs_det_a_sq
        - p.n * np.log(np.pi)
        - p.alpha * np.log(p.beta)
        - gammaln(p.alpha)
    )


def check_not_singular(norm_sq, p):
    """Raise SingularPoint when alpha < N and some of the norms ||A y||^2
    (an array, or the least of a population) underflows to the origin,
    where the density is singular."""
    if p.alpha < p.n and np.any(np.asarray(norm_sq) < _NORM_SQ_FLOOR):
        raise SingularPoint("density is singular at the origin for alpha < N")


def log_density_from_norm_sq(norm_sq, p):
    """Natural-log density given precomputed ||A y||^2 (vectorized).

    Raises SingularPoint as :func:`check_not_singular` does.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    check_not_singular(norm_sq, p)
    safe = np.maximum(norm_sq, _NORM_SQ_FLOOR)
    return log_normalizer(p) + (p.alpha - p.n) * np.log(safe) - norm_sq / p.beta


class NormSqSums(NamedTuple):
    """Count and sum of a population of ||A Y||^2: all the canonical fit
    needs, so a streamed caller can accumulate them chunk by chunk."""

    count: int
    total: float


def fit_params(norm_sq_samples, n, a):
    """Canonical fit: beta = mean(||A Y||^2), alpha = 1/ln(beta).

    ``norm_sq_samples`` holds the samples, or their :class:`NormSqSums`.
    Raises InvalidRegime when there are no samples or their mean is <= 1
    (alpha would be nonpositive).
    """
    sums = norm_sq_samples
    if not isinstance(sums, NormSqSums):
        sums = NormSqSums(np.size(sums), np.sum(sums))
    if sums.count == 0:
        raise InvalidRegime("no samples to fit")
    beta = float(sums.total / sums.count)
    if beta <= 1.0:
        raise InvalidRegime(f"mean ||A Y||^2 = {beta:.4g} <= 1; alpha undefined")
    return AuxDistParams(n=n, a=a, alpha=1.0 / np.log(beta), beta=beta)


@dataclass
class CrossEntropyReport:
    """Monte-Carlo cross entropy of a population against a fitted member,
    split into the two leading terms and the double-log remainder (bits)."""

    cross_entropy_bits: float
    leading_bits: float
    remainder_bits: float
    std_error_bits: float
    beta: float
    slack_bits: float = field(default=0.0)

    def within_slack(self):
        return self.remainder_bits <= self.slack_bits


def cross_entropy_expansion(samples, params):
    """E_P[-log2 r(Y)] by Monte Carlo, with the leading-term split.

    ``samples`` are vectors in C^N drawn from the true population P;
    ``params`` should be fitted per the canonical rule from the same
    population.  Leading terms: -log|det A|^2 + N E[log ||A Y||^2].
    """
    samples = np.asarray(samples, dtype=complex)
    norm_sq = linalg.norm_sq(samples @ params.a.T)
    neg_logs = -log_density_from_norm_sq(norm_sq, params) / LN2
    ce = float(np.mean(neg_logs))
    se = float(np.std(neg_logs) / np.sqrt(neg_logs.size))
    log_terms = np.log(np.maximum(norm_sq, _NORM_SQ_FLOOR)) / LN2
    leading = float(-params.log_abs_det_a_sq / LN2 + params.n * np.mean(log_terms))
    return CrossEntropyReport(
        cross_entropy_bits=ce,
        leading_bits=leading,
        remainder_bits=ce - leading,
        std_error_bits=se,
        beta=params.beta,
        slack_bits=remainder_slack_bits(params.beta),
    )
