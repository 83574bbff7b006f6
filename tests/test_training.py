import tracemalloc

import numpy as np
import pytest

from simomac import linalg
from simomac.channel import ChannelConfig
from simomac.errors import InvalidParam, RegimeUnsupported
from simomac.linalg import abs_sq, norm_sq, sample_complex_gaussian
from simomac.training import (
    _gram_draws,
    _gram_log2_det,
    mac_training_rates,
    single_user_training_rate,
    tdma_rates,
)


def _cfg(t, n, p, trials=50_000, seed=0):
    return ChannelConfig(T=t, N=n, P=p, trials=trials, seed=seed)


def _explicit_gram_stats(h):
    """||h_k||^2, (B, 2), and det(H^H H) = ||h_1||^2 ||h_2||^2 - |h_1^H h_2|^2,
    (B,), of explicit draws h: (B, 2, N)."""
    gains_sq = norm_sq(h)
    cross = abs_sq(np.einsum("bn,bn->b", h[:, 0].conj(), h[:, 1]))
    return gains_sq, gains_sq[:, 0] * gains_sq[:, 1] - cross


def _gram_summary(gains_sq, det):
    """Means and variances of ||h_1||^2, ||h_2||^2, |h_1^H h_2|^2, and
    corr(||h_2||^2, |h_1^H h_2|^2), with |h_1^H h_2|^2 recovered from the
    Gram determinant (which is 0 at N = 1, and has no spread to compare)."""
    cols = np.column_stack([gains_sq, gains_sq[:, 0] * gains_sq[:, 1] - det])
    return np.concatenate([cols.mean(axis=0), cols.var(axis=0),
                           [np.corrcoef(cols[:, 1], cols[:, 2])[0, 1]]])


def _summary_and_se(gains_sq, det, batches=20):
    """_gram_summary of all trials, and its standard errors from the
    spread over ``batches`` equal batches (batch means)."""
    parts = [_gram_summary(g, c) for g, c in zip(np.array_split(gains_sq, batches),
                                                  np.array_split(det, batches))]
    return _gram_summary(gains_sq, det), np.std(parts, axis=0, ddof=1) / np.sqrt(batches)


class TestSingleUser:
    def test_degenerate_coherence(self):
        est = single_user_training_rate(_cfg(1, 2, 10.0))
        assert est.rate == 0.0

    def test_rate_monotone_in_power(self):
        prev = None
        for p_db in (0, 10, 20, 30):
            est = single_user_training_rate(_cfg(4, 2, 10.0 ** (p_db / 10)))
            if prev is not None:
                assert est.rate >= prev.rate - 2 * (est.std_error + prev.std_error)
            prev = est

    def test_slope_prelog(self):
        powers = [10.0 ** (p_db / 10.0) for p_db in (30, 40, 50)]
        rates = [est.rate for est in single_user_training_rate(_cfg(4, 2, 1.0), powers=powers)]
        slope = np.polyfit(np.log2(powers), rates, 1)[0]
        assert slope == pytest.approx(3 / 4, abs=0.05)

    def test_non_gaussian_unsupported(self):
        cfg = ChannelConfig(T=4, N=2, P=10.0, fading_kind="iid_uniform_annulus")
        with pytest.raises(RegimeUnsupported):
            single_user_training_rate(cfg)


class TestTdma:
    def test_split(self):
        r1, r2 = tdma_rates(_cfg(4, 2, 100.0), tau=0.25)
        single = single_user_training_rate(_cfg(4, 2, 100.0))
        assert r1.rate == pytest.approx(0.25 * single.rate)
        assert r2.rate == pytest.approx(0.75 * single.rate)

    def test_invalid_tau(self):
        with pytest.raises(InvalidParam):
            tdma_rates(_cfg(4, 2, 10.0), tau=1.5)


class TestMac:
    def test_needs_three_slots(self):
        with pytest.raises(RegimeUnsupported):
            mac_training_rates(_cfg(2, 2, 10.0))

    def test_symmetric_users(self):
        r1, r2 = mac_training_rates(_cfg(8, 2, 1000.0))
        assert r1.rate == pytest.approx(r2.rate, abs=3 * (r1.std_error + r2.std_error))

    def test_slope_prelog(self):
        powers = [10.0 ** (p_db / 10.0) for p_db in (30, 40, 50)]
        rates = [r1.rate for r1, _ in mac_training_rates(_cfg(8, 2, 1.0), powers=powers)]
        slope = np.polyfit(np.log2(powers), rates, 1)[0]
        assert slope == pytest.approx(3 / 4, abs=0.05)


class TestGramDeterminant:
    @pytest.mark.parametrize("rho", [0.5, 1e3, 1e6])
    def test_closed_form_matches_slogdet(self, rho):
        h = sample_complex_gaussian(3, np.random.default_rng(2), size=(20_000, 2))
        hm = np.swapaxes(h, 1, 2)  # (B, N, 2): columns h_1, h_2
        gram = np.eye(2) + rho * np.einsum("bnk,bnl->bkl", hm.conj(), hm)
        ref = np.linalg.slogdet(gram)[1] / np.log(2.0)
        np.testing.assert_allclose(_gram_log2_det(*_explicit_gram_stats(h), rho), ref,
                                   rtol=1e-12, atol=0)

    def test_single_antenna_keeps_every_digit(self):
        # at N = 1, det(I_2 + rho H^H H) = 1 + rho (||h_1||^2 + ||h_2||^2): no
        # rho^2 terms to cancel, even at rho = 1e14
        rho = 1e14
        gains_sq, det = _gram_draws(1, np.random.default_rng(0), 100_000)
        exact = np.log2(1.0 + rho * (gains_sq[:, 0] + gains_sq[:, 1]))
        np.testing.assert_allclose(_gram_log2_det(gains_sq, det, rho), exact, rtol=1e-12, atol=0)


class TestGramDraws:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_law_matches_explicit_draws(self, n):
        # the exact-law draws against Gram statistics of explicit CN(0, I_N)
        # vectors: means, variances and corr(||h_2||^2, |h_1^H h_2|^2)
        # within 4 combined standard errors
        trials = 200_000
        drawn, drawn_se = _summary_and_se(*_gram_draws(n, np.random.default_rng(11), trials))
        h = sample_complex_gaussian(n, np.random.default_rng(12), size=(trials, 2))
        explicit, explicit_se = _summary_and_se(*_explicit_gram_stats(h))
        assert np.all(np.abs(drawn - explicit) <= 4 * np.hypot(drawn_se, explicit_se))

    def test_single_antenna_has_no_orthogonal_part(self):
        # at N = 1, |h_1^H h_2|^2 = ||h_1||^2 ||h_2||^2, so det(H^H H) is 0
        _, det = _gram_draws(1, np.random.default_rng(3), 1_000)
        assert np.array_equal(det, np.zeros(1_000))

    def test_rates_independent_of_cpu_count(self, monkeypatch):
        # seven chunks of one stream each, folded in chunk order: the rates
        # at three powers are the same, bit for bit, on one thread and three
        cfg = _cfg(3, 4, 100.0, trials=100_000, seed=5)

        def both(threads):
            monkeypatch.setattr(linalg, "cpu_count", lambda: threads)
            return (single_user_training_rate(cfg, powers=[1e2, 1e3, 1e4]),
                    mac_training_rates(cfg, powers=[1e2, 1e3, 1e4]))

        assert len(linalg.trial_chunks(cfg.trials, 1)) == 7
        assert both(1) == both(3)

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # both rates at three powers keep per-power moments only.  On one
        # thread: twenty-five times the trials, in chunks of the same
        # 16,000 trials, the same peak within 10 %.  On two, the peak at
        # either trial count stays within 10 % of two one-thread peaks: all
        # that two chunks in flight at once may hold
        def peak(trials, threads):
            monkeypatch.setattr(linalg, "cpu_count", lambda: threads)
            cfg = _cfg(3, 4, 100.0, trials=trials)
            tracemalloc.start()
            try:
                single_user_training_rate(cfg, powers=[1e2, 1e3, 1e4])
                mac_training_rates(cfg, powers=[1e2, 1e3, 1e4])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = [peak(trials, 1) for trials in (16_000, 400_000)]
        assert abs(one[1] - one[0]) <= 0.1 * one[0]
        for trials in (16_000, 400_000):
            assert peak(trials, 2) <= 1.1 * 2 * one[0]
