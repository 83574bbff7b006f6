"""Self-consistency suites for the four supporting results used by the
bounds: entropy shift under linear maps (through the bounds' own
whitening kernel and ln |det A|^2), the concave log-moment lower bound,
average-to-peak truncation via Markov, and the radial-family
cross-entropy remainder.
Each check returns a small dict with a margin and a pass flag so the CLI
can report them uniformly.
"""

import numpy as np

from .auxdist import NormSqSums, cross_entropy_expansion, fit_params, log_density_from_norm_sq
from .channel import InputDistribution, truncate_to_peak
from .converse import _log_det, _project, _whiten
from .errors import counts
from .linalg import TOL_ALGEBRAIC, norm_sq, sample_complex_gaussian


def _rng(seed):
    """Generator on ``seed``; raises InvalidParam unless it is an integer >= 0."""
    return np.random.default_rng(*counts("seed", seed, least=0))


def entropy_shift_invariance(seed=0):
    """-ln q(Y) of the duality bounds equals the aux density evaluated
    directly with each slot's whitening matrix.

    The bounds evaluate the density of a non-pilot slot y_i of Y as
    |det A|^2 q(A y_i), A = (s_i I + (c_i + d_i / ||y_v||^2) y_v y_v^H)^{-1/2}:
    the entropy shift h(A W) = h(W) + log |det A|^2 under a linear map.
    :func:`~simomac.converse._whiten` gives ||A y_i||^2 and its scales
    from the parts of :func:`~simomac.converse._project`,
    from which :func:`~simomac.converse._log_det` gives ln |det A|^2, both
    without forming A and as the evaluation pass calls them; here A is
    formed from an eigendecomposition, and the aux member is evaluated at
    A y_i with 2 ln |det A| (slogdet) added.
    Twenty random (2, 4) outputs with random pilot slots and scales s, c
    and d; returns the largest relative difference between the two values
    of -ln q(Y).
    """
    n, dim, count = 2, 4, 20
    rng = _rng(seed)
    y = np.sqrt(10.0) * sample_complex_gaussian(dim, rng, size=(count, n))
    v = rng.integers(dim, size=count)
    s = rng.uniform(0.5, 2.0, size=(count, dim))
    c = rng.uniform(0.0, 2.0, size=(count, dim))
    d = rng.uniform(0.0, 20.0, size=(count, dim))
    white, denom = _whiten(_project(y, v), v, s, c, d)
    log_det = _log_det(s, denom, v, n)
    unit = fit_params(NormSqSums.of(white), n)
    whitened = -(log_density_from_norm_sq(white, unit).sum(axis=1) + log_det.sum(axis=1))
    direct = np.zeros(count)
    for b in range(count):
        y_v = y[b, :, v[b]]
        nv2 = norm_sq(y_v)
        for i in range(dim):
            m = s[b, i] * np.eye(n) + (c[b, i] + d[b, i] / nv2) * np.outer(y_v, y_v.conj())
            lam, vec = np.linalg.eigh(m)
            a = np.eye(n) if i == v[b] else (vec / np.sqrt(lam)) @ vec.conj().T
            direct[b] -= (log_density_from_norm_sq(norm_sq(a @ y[b, :, i]), unit)
                          + 2.0 * np.linalg.slogdet(a)[1])
    err = float(np.max(np.abs(whitened - direct) / np.abs(direct)))
    return {"check": "entropy_shift_invariance", "margin": err, "slack": TOL_ALGEBRAIC,
            "passed": err <= TOL_ALGEBRAIC}


def log_moment_lower_bound(seed=0):
    """E[log(1+X)] >= alpha*log(1+E[X]) + const for alpha = 0.9 < 1.

    Checked on exponential and Gamma test variables across eight decades
    of mean: the margin E[log2(1+X)] - alpha*log2(1+E[X]) must be bounded
    below uniformly and nondecreasing once the mean exceeds 1 (so the
    constant depends on alpha only, not on the scale).
    """
    alpha, trials = 0.9, 200_000
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


def truncation_markov_bound(seed=0):
    """Empirical Pr(||X||^2 >= P^beta) <= T*P^(1-beta), one-sided + 3*SE, for
    the exponential-norm input at T = 4, P = 100, beta = 1.5 (200k draws)."""
    rng = _rng(seed)
    dist = InputDistribution(kind="exponential_norm", T=4, P=100.0)
    _, rep = truncate_to_peak(dist, dist.P, 1.5, rng, trials=200_000)
    margin = rep.markov_bound + 3 * rep.truncation_prob_se - rep.truncation_prob
    return {"check": "truncation_markov_bound", "margin": float(margin),
            "slack": 3 * rep.truncation_prob_se, "passed": margin >= 0.0}


def aux_remainder_bound(seed=0):
    """Fitted radial-family cross entropy stays within the calibrated
    double-log remainder for Gaussian populations on C^2 of scale 1e3 and
    1e6 (200k draws each)."""
    n = 2
    rng = _rng(seed)
    results = []
    for target in (1e3, 1e6):
        y = np.sqrt(target / n) * sample_complex_gaussian(n, rng, size=200_000)
        params = fit_params(NormSqSums.of(np.linalg.norm(y, axis=1) ** 2), n)
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
