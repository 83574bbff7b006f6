"""Training-based achievable rates for the block-fading SIMO channel/MAC.

Pilot(s) in dedicated slots, linear MMSE channel estimation, data decoded
with the estimate treated as the true channel and the estimation error as
independent worst-case Gaussian noise.  Pilot power = data power = P; only
the pre-logs matter for the DoF claims.

Closed-form MMSE is available for Gaussian fading: with a pilot of
amplitude sqrt(P), hhat ~ CN(0, P/(1+P) I_N) and the per-entry error
variance is 1/(1+P).  The rates depend on the channel only through the
squared norms of the CN(0, I_N) directions and, for the MAC, their Gram
determinant, so those statistics are drawn from their exact laws, chunk by
chunk, and only the moments of the per-trial rates are kept, merged
chunk by chunk: memory does not grow with the trial count.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import at_powers, one_or_all
from .errors import RegimeUnsupported, real
from .linalg import mean_and_std_error, merge_moments, moments_of

# Trials per chunk of the channel statistics.  The chunk length fixes how
# the draws interleave, so the rates depend on it.
_CHUNK_TRIALS = 2**13


@dataclass
class RateEstimate:
    """Monte-Carlo rate estimate in bits per channel use."""

    rate: float
    std_error: float


def _mmse_stats(P):
    """(estimate variance per entry, error variance per entry)."""
    return P / (1.0 + P), 1.0 / (1.0 + P)


def _streamed_rates(cfg, cfgs, draw, per_trial):
    """(mean, standard error) of the per-trial rates at each of ``cfgs``.

    ``draw(rng, size)`` gives one chunk's channel statistics, drawn from
    ``cfg.rng()`` chunk after chunk, once for every power;
    ``per_trial(c, *stats)`` maps them to the chunk's rates at c.P.  Only
    each power's count, mean and M2 are kept, merged in chunk order.
    """
    rng, moments = cfg.rng(), [(0, 0.0, 0.0)] * len(cfgs)
    for lo in range(0, cfg.trials, _CHUNK_TRIALS):
        stats = draw(rng, min(_CHUNK_TRIALS, cfg.trials - lo))
        for k, c in enumerate(cfgs):
            moments[k] = merge_moments(moments[k], moments_of(per_trial(c, *stats)))
    return [mean_and_std_error(m) for m in moments]


def single_user_training_rate(cfg, *, powers=None):
    """One pilot slot, T-1 data slots; rate (T-1)/T E log2(1 + SINR_eff).

    T = 1 degenerates to zero pre-log (no data slots); returns rate 0.
    With ``powers``, returns one RateEstimate per power, equal to the call
    with cfg at that P: the estimate is hhat = sqrt(P/(1+P)) g for one
    CN(0, I_N) draw g, so ||g||^2 ~ Gamma(N, 1) is drawn once for the
    whole grid, in chunks (:func:`_streamed_rates`).
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    cfgs = [c for _, c in at_powers([], cfg, powers)]
    if t < 2:
        return one_or_all([RateEstimate(0.0, 0.0) for _ in cfgs], powers)

    def per_trial(c, g2):
        est_var, err_var = _mmse_stats(c.P)
        return (t - 1) / t * np.log2(1.0 + c.P * est_var / (1.0 + c.P * err_var) * g2)

    moments = _streamed_rates(cfg, cfgs, lambda rng, size: (rng.standard_gamma(n, size),),
                              per_trial)
    return one_or_all([RateEstimate(float(r), float(se)) for r, se in moments], powers)


def tdma_rates(cfg, tau=0.5):
    """Time division between the users with block fractions (tau, 1-tau)."""
    real("tau must lie in [0, 1]", tau, least=0, most=1)
    single = single_user_training_rate(cfg)
    r1 = RateEstimate(tau * single.rate, tau * single.std_error)
    r2 = RateEstimate((1.0 - tau) * single.rate, (1.0 - tau) * single.std_error)
    return r1, r2


def _gram_draws(n, rng, size):
    """Squared norms ||h_k||^2, (size, 2), and the Gram determinant
    det(H^H H) = ||h_1||^2 ||h_2||^2 - |h_1^H h_2|^2, (size,), of H = [h_1 h_2]
    with i.i.d. h_1, h_2 ~ CN(0, I_N), drawn from their exact laws.

    ||h_1||^2 ~ Gamma(N, 1).  Given h_1, c = u^H h_2 with u = h_1/||h_1||
    is CN(0, 1) and h_2's part orthogonal to u is CN(0, I_{N-1}) in that
    complement, both independent of h_1: so |c|^2 ~ Exp(1),
    ||h_2||^2 = |c|^2 + G with G ~ Gamma(N-1, 1), |h_1^H h_2|^2 =
    ||h_1||^2 |c|^2 and det(H^H H) = ||h_1||^2 G (no G, and a zero
    determinant, at N = 1).  Three variates per trial, drawn in that
    order.
    """
    g1 = rng.standard_gamma(n, size)
    c2 = rng.standard_exponential(size)
    gains_sq = np.empty((size, 2))
    gains_sq[:, 0] = g1
    gains_sq[:, 1] = c2
    det = np.zeros(size)
    if n > 1:
        rest = rng.standard_gamma(n - 1, size)
        gains_sq[:, 1] += rest
        det = g1 * rest
    return gains_sq, det


def _gram_log2_det(gains_sq, det, rho):
    """log2 det(I_2 + rho H^H H) per trial from the :func:`_gram_draws`
    statistics of H = [h_1 h_2], in closed form:
    1 + rho (|h_1|^2 + |h_2|^2) + rho^2 det(H^H H), a sum of non-negative
    terms, so no digits cancel."""
    return np.log2(1.0 + rho * (gains_sq[:, 0] + gains_sq[:, 1]) + rho * rho * det)


def mac_training_rates(cfg, *, powers=None):
    """Two orthogonal pilot slots, T-2 joint data slots.

    Each user's rate is the symmetric point of the estimated coherent
    2-user MAC (half the sum rate, capped by the single-user constraint),
    with the combined estimation error of both users treated as Gaussian
    noise.  Requires T >= 3; falls back conceptually to tdma_rates above.
    With ``powers``, returns one (R1, R2) pair per power, equal to the
    call with cfg at that P; as in :func:`single_user_training_rate`,
    the channel statistics (:func:`_gram_draws`) are drawn once for the
    whole grid, in chunks.
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    if t < 3:
        raise RegimeUnsupported("MAC training needs T >= 3; use tdma_rates")
    cfgs = [c for _, c in at_powers([], cfg, powers)]

    def per_trial(c, gains_sq, det):
        est_var, err_var = _mmse_stats(c.P)
        # hhat = sqrt(est_var) g, so rho H^H H = (rho est_var) G^H G
        rho = c.P / (1.0 + 2.0 * c.P * err_var) * est_var
        sum_rate = _gram_log2_det(gains_sq, det, rho)
        indiv = np.log2(1.0 + rho * gains_sq)  # (chunk, 2)
        return (t - 2) / t * np.minimum(0.5 * sum_rate[:, None], indiv)

    moments = _streamed_rates(cfg, cfgs, partial(_gram_draws, n), per_trial)
    return one_or_all([(RateEstimate(float(r[0]), float(se[0])),
                        RateEstimate(float(r[1]), float(se[1]))) for r, se in moments], powers)
