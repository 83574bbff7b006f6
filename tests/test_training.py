import numpy as np
import pytest

from simomac.channel import ChannelConfig
from simomac.errors import InvalidParam, RegimeUnsupported
from simomac.linalg import sample_complex_gaussian
from simomac.training import _log2_det_gram
from simomac.training import (
    mac_training_rates,
    rate_slope,
    single_user_training_rate,
    tdma_rates,
)


def _cfg(t, n, p, trials=50_000, seed=0):
    return ChannelConfig(T=t, N=n, P=p, trials=trials, seed=seed)


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
        slope = rate_slope(
            lambda p: single_user_training_rate(_cfg(4, 2, p)), [30, 40, 50]
        )
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
        slope = rate_slope(lambda p: mac_training_rates(_cfg(8, 2, p)), [30, 40, 50])
        assert slope == pytest.approx(3 / 4, abs=0.05)


class TestGramDeterminant:
    @pytest.mark.parametrize("rho", [0.5, 1e3, 1e6])
    def test_closed_form_matches_slogdet(self, rho):
        h = sample_complex_gaussian(3, np.random.default_rng(2), size=(20_000, 2))
        hm = np.swapaxes(h, 1, 2)  # (B, N, 2): columns h_1, h_2
        gram = np.eye(2) + rho * np.einsum("bnk,bnl->bkl", hm.conj(), hm)
        ref = np.linalg.slogdet(gram)[1] / np.log(2.0)
        np.testing.assert_allclose(_log2_det_gram(h, rho), ref, rtol=1e-12, atol=0)
