import numpy as np
import pytest

from simomac.auxdist import (
    AuxDistParams,
    cross_entropy_expansion,
    fit_params,
    log_density_from_norm_sq,
    remainder_slack_bits,
)
from simomac.errors import InvalidParam, InvalidRegime, SingularPoint
from simomac.linalg import sample_complex_gaussian

LN2 = np.log(2.0)


class TestParams:
    def test_invalid_alpha_beta(self):
        with pytest.raises(InvalidParam):
            AuxDistParams(n=2, a=np.eye(2), alpha=-1.0, beta=1.0)
        with pytest.raises(InvalidParam):
            AuxDistParams(n=2, a=np.eye(2), alpha=1.0, beta=0.0)

    def test_singular_a_rejected(self):
        with pytest.raises(InvalidParam):
            AuxDistParams(n=2, a=np.zeros((2, 2)), alpha=1.0, beta=1.0)

    def test_fit_requires_scale_above_one(self):
        with pytest.raises(InvalidRegime):
            fit_params(np.full(100, 0.5), 2, np.eye(2))
        with pytest.raises(InvalidRegime):
            fit_params(np.empty(0), 2, np.eye(2))


class TestDensity:
    def test_gaussian_special_case(self):
        # alpha = N, beta = 1, A = I reduces to CN(0, I)
        p = AuxDistParams(n=2, a=np.eye(2), alpha=2.0, beta=1.0)
        y = np.array([0.3 + 0.1j, -0.2j])
        expected = -2 * np.log(np.pi) - np.linalg.norm(y) ** 2
        assert log_density_from_norm_sq(np.linalg.norm(y) ** 2, p) == pytest.approx(
            expected, abs=1e-12)

    def test_singular_at_origin_when_alpha_below_n(self):
        p = AuxDistParams(n=2, a=np.eye(2), alpha=0.2, beta=10.0)
        with pytest.raises(SingularPoint):
            log_density_from_norm_sq(np.array([0.0, 1.0]), p)

    def test_sampled_radius_follows_gamma_moments(self):
        # ||A Y||^2 is Gamma(alpha, beta) under the density, so its mean is
        # alpha beta; checked as E_q[(r/q) ||A Y||^2] under a Gaussian proposal
        rng = np.random.default_rng(1)
        p = AuxDistParams(n=3, a=np.diag([1.0, 2.0, 0.5]), alpha=0.7, beta=5.0)
        sigma_sq = 20.0
        y = np.sqrt(sigma_sq) * sample_complex_gaussian(3, rng, size=400_000)
        s = np.linalg.norm(y @ p.a.T, axis=-1) ** 2
        log_q = -3 * np.log(np.pi * sigma_sq) - np.linalg.norm(y, axis=-1) ** 2 / sigma_sq
        ws = np.exp(log_density_from_norm_sq(s, p) - log_q) * s
        assert ws.mean() == pytest.approx(0.7 * 5.0, abs=3 * ws.std() / np.sqrt(ws.size))

    def test_density_integrates_via_importance_sampling(self):
        # E_r[1] = 1 checked as E_q[r/q] under a Gaussian proposal
        rng = np.random.default_rng(2)
        p = AuxDistParams(n=1, a=np.eye(1), alpha=0.8, beta=2.0)
        sigma_sq = 4.0
        y = np.sqrt(sigma_sq) * sample_complex_gaussian(1, rng, size=400_000)
        norm_sq = np.abs(y[:, 0]) ** 2
        log_r = log_density_from_norm_sq(norm_sq, p)
        log_q = -np.log(np.pi * sigma_sq) - norm_sq / sigma_sq
        w = np.exp(log_r - log_q)
        assert w.mean() == pytest.approx(1.0, abs=0.02)


class TestCrossEntropyExpansion:
    def test_gaussian_population_within_slack(self):
        rng = np.random.default_rng(3)
        sigma_sq, n = 100.0, 2
        y = np.sqrt(sigma_sq) * sample_complex_gaussian(n, rng, size=200_000)
        params = fit_params(np.linalg.norm(y, axis=1) ** 2, n, np.eye(n))
        rep = cross_entropy_expansion(y, params)
        assert rep.beta == pytest.approx(n * sigma_sq, rel=0.02)
        assert abs(rep.remainder_bits) <= 2 * np.log2(np.log2(n * sigma_sq)) + 5

    def test_rescaled_a_refit_stays_within_slack(self):
        rng = np.random.default_rng(4)
        n, c = 2, 7.0
        y = np.sqrt(50.0) * sample_complex_gaussian(n, rng, size=200_000)
        for a in (np.eye(n), c * np.eye(n)):
            params = fit_params(np.linalg.norm(y @ a.T, axis=1) ** 2, n, a)
            rep = cross_entropy_expansion(y, params)
            assert rep.within_slack()

    def test_leading_term_invariant_under_scaling(self):
        # -log2 |det(cA)|^2 falls by exactly 2N log2(c) while
        # N E[log2 ||cAY||^2] rises by the same amount, so the leading
        # split is scale-free; only the fitted (alpha, beta) remainder moves
        rng = np.random.default_rng(5)
        n, c = 2, 3.0
        y = np.sqrt(50.0) * sample_complex_gaussian(n, rng, size=100_000)
        reps = []
        for a in (np.eye(n), c * np.eye(n)):
            params = fit_params(np.linalg.norm(y @ a.T, axis=1) ** 2, n, a)
            reps.append(cross_entropy_expansion(y, params))
        assert reps[1].leading_bits - reps[0].leading_bits == pytest.approx(
            0.0, abs=1e-9
        )
        assert reps[1].beta == pytest.approx(c**2 * reps[0].beta, rel=1e-12)

    def test_slack_grows_double_logarithmically(self):
        assert remainder_slack_bits(1e6) == pytest.approx(
            2 * np.log2(np.log2(1e6)) + 5
        )
        assert remainder_slack_bits(2.0) == remainder_slack_bits(4.0)
