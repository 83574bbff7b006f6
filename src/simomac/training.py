"""Training-based achievable rates for the block-fading SIMO channel/MAC.

Pilot(s) in dedicated slots, linear MMSE channel estimation, data decoded
with the estimate treated as the true channel and the estimation error as
independent worst-case Gaussian noise.  Pilot power = data power = P; only
the pre-logs matter for the DoF claims.

Closed-form MMSE is available for Gaussian fading: with a pilot of
amplitude sqrt(P), hhat ~ CN(0, P/(1+P) I_N) and the per-entry error
variance is 1/(1+P).  The rates depend on the channel only through the
squared norms of the CN(0, I_N) directions and, for the MAC, their Gram
determinant, so those statistics are drawn from their exact laws on the
one Monte-Carlo engine (:func:`~simomac.linalg.streamed_moments`, at
footprint 1), which keeps only the moments of the per-trial rates: memory
does not grow with the trial count, nor do the rates depend on the CPUs.
"""

from dataclasses import dataclass

import numpy as np

from .channel import at_powers, one_or_all
from .errors import RegimeUnsupported, real
from .linalg import abs_sq, mean_and_std_error, sample_split_gaussian, streamed_moments


@dataclass
class RateEstimate:
    """Monte-Carlo rate estimate in bits per channel use."""

    rate: float
    std_error: float


def _mmse_stats(P):
    """(estimate variance per entry, error variance per entry)."""
    return P / (1.0 + P), 1.0 / (1.0 + P)


def single_user_training_rate(cfg, *, powers=None):
    """One pilot slot, T-1 data slots; rate (T-1)/T E log2(1 + SINR_eff).

    T = 1 degenerates to zero pre-log (no data slots); returns rate 0.
    With ``powers``, returns one RateEstimate per power, equal to the call
    with cfg at that P: the estimate is hhat = sqrt(P/(1+P)) g for one
    CN(0, I_N) draw g, so ||g||^2 ~ Gamma(N, 1) is drawn once for the
    whole grid, in chunks, on seed stream 3.
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    cfgs = [c for _, c in at_powers([], cfg, powers)]
    if t < 2:
        return one_or_all([RateEstimate(0.0, 0.0) for _ in cfgs], powers)

    def rates(rng, size):
        g2 = rng.standard_gamma(n, size)
        for c in cfgs:  # one power's rates held at a time
            est_var, err_var = _mmse_stats(c.P)
            yield (t - 1) / t * np.log2(1.0 + c.P * est_var / (1.0 + c.P * err_var) * g2)

    moments = [mean_and_std_error(m) for m in streamed_moments(rates, cfg.trials, 1, cfg.seed, 3)]
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
    with i.i.d. h_1, h_2 ~ CN(0, I_N), from the split of h_2 against h_1's
    direction (:func:`~simomac.linalg.sample_split_gaussian`):
    ||h_1||^2 = G0, ||h_2||^2 = |g|^2 + G and det(H^H H) = G0 G."""
    g0, g, rest = sample_split_gaussian(n, 1, rng, size)
    gains_sq = np.column_stack([g0, abs_sq(g[:, 0]) + rest[:, 0]])
    return gains_sq, g0 * rest[:, 0]


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
    whole grid, in chunks, on seed stream 4.
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    if t < 3:
        raise RegimeUnsupported("MAC training needs T >= 3; use tdma_rates")
    cfgs = [c for _, c in at_powers([], cfg, powers)]

    def rates(rng, size):
        gains_sq, det = _gram_draws(n, rng, size)
        for c in cfgs:  # one power's rates held at a time
            est_var, err_var = _mmse_stats(c.P)
            # hhat = sqrt(est_var) g, so rho H^H H = (rho est_var) G^H G
            rho = c.P / (1.0 + 2.0 * c.P * err_var) * est_var
            sum_rate = _gram_log2_det(gains_sq, det, rho)
            indiv = np.log2(1.0 + rho * gains_sq)  # (chunk, 2)
            yield (t - 2) / t * np.minimum(0.5 * sum_rate[:, None], indiv)

    moments = [mean_and_std_error(m) for m in streamed_moments(rates, cfg.trials, 1, cfg.seed, 4)]
    return one_or_all([(RateEstimate(float(r[0]), float(se[0])),
                        RateEstimate(float(r[1]), float(se[1]))) for r, se in moments], powers)
