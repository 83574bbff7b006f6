"""Radial auxiliary output family on C^N.

Density of a whitened output w = A y (natural log internally;
rates/entropies are reported in bits at the interfaces):

    r(w) = Gamma(N) / (pi^N beta^alpha Gamma(alpha))
           * ||w||^(2(alpha - N)) * exp(-||w||^2 / beta)

The squared radius ||W||^2 is Gamma(alpha, beta), the direction of W is
uniform on the complex unit sphere.  The whitening map A enters the
density of y only as the entropy shift ln |det A|^2, which the caller
adds (:func:`simomac.converse._whiten` gives ||A y||^2 and
:func:`simomac.converse._log_det` the shift, without forming A).  The
canonical parameterization fits beta = E||W||^2 and alpha = 1/log(beta)
from a sample population.
"""

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

from . import linalg
from .errors import InvalidRegime, SingularPoint, real
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
    alpha: float
    beta: float

    def __post_init__(self):
        real("alpha must be finite and positive", self.alpha, above=0)
        real("beta must be finite and positive", self.beta, above=0)


def log_normalizer(p):
    """Natural log of the density normalization constant."""
    return (
        lgamma(p.n)
        - p.n * np.log(np.pi)
        - p.alpha * np.log(p.beta)
        - lgamma(p.alpha)
    )


def check_not_singular(norm_sq, p):
    """Raise SingularPoint when alpha < N and some of the norms ||w||^2
    (an array, or the least of a population) underflows to the origin,
    where the density is singular."""
    if p.alpha < p.n and np.any(np.asarray(norm_sq) < _NORM_SQ_FLOOR):
        raise SingularPoint("density is singular at the origin for alpha < N")


def log_density_from_norm_sq(norm_sq, p):
    """Natural-log density given precomputed ||w||^2 (vectorized).

    Raises SingularPoint as :func:`check_not_singular` does.
    """
    norm_sq = np.asarray(norm_sq, dtype=float)
    check_not_singular(norm_sq, p)
    return radial_log_density(log_norm_sq(norm_sq), norm_sq, log_normalizer(p), p.alpha - p.n,
                              p.beta)


def log_norm_sq(norm_sq):
    """ln ||w||^2, the norms floored at the smallest one the density reads."""
    return np.log(np.maximum(norm_sq, _NORM_SQ_FLOOR))


def radial_log_density(log_sq, norm_sq, log_norm, shape, beta, at=None):
    """Natural-log density from the two terms it reads, ln ||w||^2
    (:func:`log_norm_sq`) and ||w||^2, and a member's
    :func:`log_normalizer`, alpha - N and beta, with no singularity check.

    The density is linear in the two terms, so a caller may pass their
    conditional means in place of sampled values: the mean of the result
    is unchanged.  With ``at``, an integer array of the norms' shape, the
    member's three are tables indexed by it, so that one call evaluates
    each norm under a member of its own; each table is gathered only when
    it is read, so no more than three arrays of the norms' shape are held
    at once.
    """
    def member(table):
        return table if at is None else np.take(table, at)

    log_density = member(shape) * log_sq
    log_density += member(log_norm)  # in place: a chunk's (B, T) temporaries stay few
    log_density -= norm_sq / member(beta)
    return log_density


@dataclass
class NormSqSums:
    """Count, sum and least value of ||W||^2 per aux group, as arrays of
    the group shape (0-d for one population): all the canonical fit and
    :func:`check_not_singular` need, so a streamed caller folds its chunks'
    sums (:meth:`fold`) and keeps no norm."""

    count: np.ndarray
    total: np.ndarray
    least: np.ndarray

    @classmethod
    def of(cls, norms, group=None, shape=()):
        """The sums of ``norms``, each in the group of its flat index
        ``group`` into ``shape``; one population when ``group`` is None."""
        pop = np.ravel(norms)
        group = np.zeros(pop.size, dtype=np.intp) if group is None else np.ravel(group)
        size = int(np.prod(shape))
        least = np.full(size, np.inf)
        np.minimum.at(least, group, pop)
        # an empty population's weighted bincount is integer: the sums are float
        total = np.bincount(group, pop, size).astype(float, copy=False)
        return cls(np.bincount(group, minlength=size).reshape(shape), total.reshape(shape),
                   least.reshape(shape))

    def fold(self, other):
        """Add another set of sums of the same groups to these."""
        self.count += other.count
        self.total += other.total
        np.minimum(self.least, other.least, out=self.least)

    def pooled(self, at):
        """One population's sums: those of the groups at index ``at``, pooled."""
        return NormSqSums(self.count[at].sum(), self.total[at].sum(), self.least[at].min())


def fit_params(sums, n):
    """Canonical fit on one population's :class:`NormSqSums`:
    beta = mean(||W||^2), alpha = 1/ln(beta).

    Raises InvalidRegime when there are no samples or their mean is <= 1
    (alpha would be nonpositive).
    """
    if sums.count == 0:
        raise InvalidRegime("no samples to fit")
    beta = float(sums.total / sums.count)
    if beta <= 1.0:
        raise InvalidRegime(f"mean ||A Y||^2 = {beta:.4g} <= 1; alpha undefined")
    return AuxDistParams(n=n, alpha=1.0 / np.log(beta), beta=beta)


@dataclass
class CrossEntropyReport:
    """Monte-Carlo cross entropy of a population against a fitted member,
    split into the leading term and the double-log remainder (bits)."""

    cross_entropy_bits: float
    leading_bits: float
    remainder_bits: float
    std_error_bits: float
    beta: float
    slack_bits: float = field(default=0.0)

    def within_slack(self):
        """Whether |remainder| <= slack, the two-sided double-log bound."""
        return abs(self.remainder_bits) <= self.slack_bits


def cross_entropy_expansion(samples, params):
    """E_P[-log2 r(W)] by Monte Carlo, with the leading-term split.

    ``samples`` are whitened vectors in C^N drawn from the true population
    P; ``params`` should be fitted per the canonical rule from the same
    population.  Leading term: N E[log ||W||^2].
    """
    norm_sq = linalg.norm_sq(np.asarray(samples, dtype=complex))
    neg_logs = -log_density_from_norm_sq(norm_sq, params) / LN2
    ce, se = map(float, linalg.mean_and_std_error(linalg.moments_of(neg_logs)))
    log_terms = log_norm_sq(norm_sq) / LN2
    leading = float(params.n * np.mean(log_terms))
    return CrossEntropyReport(
        cross_entropy_bits=ce,
        leading_bits=leading,
        remainder_bits=ce - leading,
        std_error_bits=se,
        beta=params.beta,
        slack_bits=remainder_slack_bits(params.beta),
    )
