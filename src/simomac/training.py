"""Training-based achievable rates for the block-fading SIMO channel/MAC.

Pilot(s) in dedicated slots, linear MMSE channel estimation, data decoded
with the estimate treated as the true channel and the estimation error as
independent worst-case Gaussian noise.  Pilot power = data power = P; only
the pre-logs matter for the DoF claims.

Closed-form MMSE is available for Gaussian fading: with a pilot of
amplitude sqrt(P), hhat ~ CN(0, P/(1+P) I_N) and the per-entry error
variance is 1/(1+P).
"""

from dataclasses import dataclass

import numpy as np

from .channel import at_powers, one_or_all
from .errors import InvalidParam, RegimeUnsupported
from .linalg import abs_sq, norm_sq, sample_complex_gaussian


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
    CN(0, I_N) draw g, so ||g||^2 is drawn once for the whole grid.
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    cfgs = [c for _, c in at_powers([], cfg, powers)]
    if t < 2:
        rates = [RateEstimate(0.0, 0.0) for _ in cfgs]
    else:
        g2 = norm_sq(sample_complex_gaussian(n, cfg.rng(), size=cfg.trials))
        rates = []
        for c in cfgs:
            est_var, err_var = _mmse_stats(c.P)
            per_trial = (t - 1) / t * np.log2(1.0 + c.P * est_var / (1.0 + c.P * err_var) * g2)
            rates.append(RateEstimate(float(per_trial.mean()),
                                      float(per_trial.std() / np.sqrt(cfg.trials))))
    return one_or_all(rates, powers)


def tdma_rates(cfg, tau=0.5):
    """Time division between the users with block fractions (tau, 1-tau)."""
    if not 0.0 <= tau <= 1.0:
        raise InvalidParam("tau must lie in [0, 1]")
    single = single_user_training_rate(cfg)
    r1 = RateEstimate(tau * single.rate, tau * single.std_error)
    r2 = RateEstimate((1.0 - tau) * single.rate, (1.0 - tau) * single.std_error)
    return r1, r2


def _gram_stats(h):
    """Squared norms ||h_k||^2, (B, 2), and |h_1^H h_2|^2, (B,), of
    h: (B, 2, N)."""
    return norm_sq(h), abs_sq(np.einsum("bn,bn->b", h[:, 0].conj(), h[:, 1]))


def _gram_log2_det(gains_sq, cross, rho):
    """log2 det(I_2 + rho H^H H) per trial from the :func:`_gram_stats` of
    H = [h_1 h_2], in closed form:
    (1 + rho |h_1|^2)(1 + rho |h_2|^2) - rho^2 |h_1^H h_2|^2."""
    gains = 1.0 + rho * gains_sq
    return np.log2(gains[:, 0] * gains[:, 1] - rho * rho * cross)


def mac_training_rates(cfg, *, powers=None):
    """Two orthogonal pilot slots, T-2 joint data slots.

    Each user's rate is the symmetric point of the estimated coherent
    2-user MAC (half the sum rate, capped by the single-user constraint),
    with the combined estimation error of both users treated as Gaussian
    noise.  Requires T >= 3; falls back conceptually to tdma_rates above.
    With ``powers``, returns one (R1, R2) pair per power, equal to the
    call with cfg at that P; as in :func:`single_user_training_rate`,
    the channel statistics are drawn once for the whole grid.
    """
    t, n = cfg.T, cfg.N
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form MMSE requires Gaussian fading")
    if t < 3:
        raise RegimeUnsupported("MAC training needs T >= 3; use tdma_rates")
    cfgs = [c for _, c in at_powers([], cfg, powers)]
    gains_sq, cross = _gram_stats(sample_complex_gaussian(n, cfg.rng(), size=(cfg.trials, 2)))
    pairs = []
    for c in cfgs:
        est_var, err_var = _mmse_stats(c.P)
        # hhat = sqrt(est_var) g, so rho H^H H = (rho est_var) G^H G
        rho = c.P / (1.0 + 2.0 * c.P * err_var) * est_var
        sum_rate = _gram_log2_det(gains_sq, cross, rho)
        indiv = np.log2(1.0 + rho * gains_sq)  # (trials, 2)
        per_trial = (t - 2) / t * np.minimum(0.5 * sum_rate[:, None], indiv)
        r = per_trial.mean(axis=0)
        se = per_trial.std(axis=0) / np.sqrt(cfg.trials)
        pairs.append((RateEstimate(float(r[0]), float(se[0])),
                      RateEstimate(float(r[1]), float(se[1]))))
    return one_or_all(pairs, powers)


def rate_slope(cfg_factory, p_db_points):
    """Least-squares slope of rate vs log2 P over the given dB grid.

    ``cfg_factory(P_linear)`` builds the config; the rate callable is the
    first return value when the scheme returns a pair.
    """
    xs, ys = [], []
    for p_db in p_db_points:
        p_lin = 10.0 ** (p_db / 10.0)
        est = cfg_factory(p_lin)
        rate = est[0].rate if isinstance(est, tuple) else est.rate
        xs.append(np.log2(p_lin))
        ys.append(rate)
    xs, ys = np.asarray(xs), np.asarray(ys)
    return float(np.polyfit(xs, ys, 1)[0])
