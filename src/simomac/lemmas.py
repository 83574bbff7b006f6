"""Self-consistency suites for the four supporting results used by the
bounds: entropy shift under linear maps, the concave log-moment lower
bound, average-to-peak truncation via Markov, and the radial-family
cross-entropy remainder.  Each check returns a small dict with a margin
and a pass flag so the CLI can report them uniformly.
"""

import numpy as np

from .auxdist import cross_entropy_expansion, fit_params
from .channel import InputDistribution, truncate_to_peak
from .errors import InvalidParam
from .linalg import LOG2_PI_E, log_det_hermitian_psd, sample_complex_gaussian


def _rng(seed):
    """Generator on ``seed``; raises InvalidParam for a negative seed."""
    if seed < 0:
        raise InvalidParam(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def entropy_shift_invariance(n=2, dim=4, count=20, seed=0):
    """h(WA) - n*log2 det(A^H A) is a constant depending only on W.

    For W with i.i.d. CN(0,1) entries the closed form of h(WA) is
    available (rows are Gaussian with covariance A^H A up to conjugation),
    so the residual must be n*dim*log2(pi e) for every full-rank A.
    Returns the max-min spread of the residual over random A.
    """
    rng = _rng(seed)
    residuals = []
    for _ in range(count):
        a = sample_complex_gaussian(dim, rng, size=dim)  # (dim, dim), full rank a.s.
        gram = a.conj().T @ a
        log_det = log_det_hermitian_psd(gram)
        h_wa = n * (dim * LOG2_PI_E + log_det)
        residuals.append(h_wa - n * log_det)
    spread = float(max(residuals) - min(residuals))
    return {"check": "entropy_shift_invariance", "margin": spread, "slack": 0.1,
            "passed": spread < 0.1}


def log_moment_lower_bound(alpha=0.9, seed=0, trials=200_000):
    """E[log(1+X)] >= alpha*log(1+E[X]) + const for alpha < 1.

    Checked on exponential and Gamma test variables across eight decades
    of mean: the margin E[log2(1+X)] - alpha*log2(1+E[X]) must be bounded
    below uniformly and nondecreasing once the mean exceeds 1 (so the
    constant depends on alpha only, not on the scale).
    """
    rng = _rng(seed)
    margins = []
    for mean in [10.0**k for k in range(0, 9)]:
        for draw in (
            lambda: rng.exponential(mean, size=trials),
            lambda: rng.gamma(0.5, mean / 0.5, size=trials),
            lambda: rng.gamma(2.0, mean / 2.0, size=trials),
        ):
            x = draw()
            margins.append(float(np.mean(np.log2(1.0 + x)) - alpha * np.log2(1.0 + mean)))
    margins = np.asarray(margins).reshape(9, 3)
    # the margin may dip at moderate scales but must be uniformly bounded
    # below and eventually increasing (slope -> (1-alpha)*log2(10) per decade)
    eventually_up = bool(np.all(np.diff(margins[-5:], axis=0) > 0.0))
    lower = float(margins.min())
    passed = eventually_up and lower > -5.0
    return {"check": "log_moment_lower_bound", "margin": lower, "slack": -5.0,
            "eventually_increasing": eventually_up, "passed": passed}


def truncation_markov_bound(T=4, P=100.0, beta=1.5, seed=0, trials=200_000):
    """Empirical Pr(||X||^2 >= P^beta) <= T*P^(1-beta), one-sided + 3*SE."""
    rng = _rng(seed)
    dist = InputDistribution(kind="exponential_norm", T=T, P=P)
    _, rep = truncate_to_peak(dist, P, beta, rng, trials=trials)
    margin = rep.markov_bound + 3 * rep.truncation_prob_se - rep.truncation_prob
    return {"check": "truncation_markov_bound", "margin": float(margin),
            "slack": 3 * rep.truncation_prob_se, "passed": margin >= 0.0}


def aux_remainder_bound(beta_targets=(1e3, 1e6), n=2, seed=0, trials=200_000):
    """Fitted radial-family cross entropy stays within the calibrated
    double-log remainder for Gaussian populations of the given scale."""
    rng = _rng(seed)
    results = []
    for target in beta_targets:
        sigma_sq = target / n
        y = np.sqrt(sigma_sq) * sample_complex_gaussian(n, rng, size=trials)
        norm_sq = np.linalg.norm(y, axis=1) ** 2
        params = fit_params(norm_sq, n, np.eye(n))
        results.append(cross_entropy_expansion(y, params))
    margin = min(r.slack_bits - abs(r.remainder_bits) for r in results)
    return {"check": "aux_remainder_bound", "margin": float(margin),
            "slack": float(min(r.slack_bits for r in results)),
            "passed": all(r.within_slack() for r in results)}


def run_all(seed=0):
    return [
        entropy_shift_invariance(seed=seed),
        log_moment_lower_bound(seed=seed),
        truncation_markov_bound(seed=seed),
        aux_remainder_bound(seed=seed),
    ]
