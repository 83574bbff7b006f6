import numpy as np
import pytest

from simomac import linalg
from simomac.channel import (
    ANNULUS_R_HI,
    ANNULUS_R_LO,
    ChannelConfig,
    InputDistribution,
    sample_channel,
    sample_fading,
    sample_outputs,
    superpose,
    truncate_to_peak,
)
from simomac.errors import InvalidParam
from simomac.knn_entropy import knn_entropy_bits
from simomac.linalg import sample_complex_gaussian


class TestFading:
    def test_gaussian_power(self):
        rng = np.random.default_rng(0)
        h = sample_fading("iid_complex_gaussian", 2, rng, size=1_000_000)
        assert np.mean(np.linalg.norm(h, axis=1) ** 2) == pytest.approx(2.0, rel=0.01)

    def test_annulus_power_and_oracle(self):
        r_lo, r_hi = ANNULUS_R_LO, ANNULUS_R_HI
        assert (r_lo**2 + r_lo * r_hi + r_hi**2) / 3.0 == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(1)
        h = sample_fading("iid_uniform_annulus", 1, rng, size=1_000_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("kind", ["iid_complex_gaussian", "iid_uniform_annulus"])
    def test_entropy_finite(self, kind):
        rng = np.random.default_rng(2)
        h = sample_fading(kind, 1, rng, size=100_000)
        assert knn_entropy_bits(h) > -20.0

    def test_unknown_kind(self):
        with pytest.raises(InvalidParam):
            sample_fading("rayleigh", 1, np.random.default_rng(0))


def _point(x):
    x = np.asarray(x, dtype=float)
    return InputDistribution(kind="deterministic_point", T=x.size, P=1.0, params={"x": x})


class TestSampleOutputs:
    def test_pure_noise_power(self):
        rng = np.random.default_rng(3)
        n, t, b = 2, 4, 100_000
        cfg = ChannelConfig(T=t, N=n, P=1.0, trials=b)
        zeros = _point(np.zeros(t))
        _, y = sample_outputs([zeros, zeros], cfg, rng)
        assert np.mean(np.linalg.norm(y, axis=(1, 2)) ** 2) == pytest.approx(
            n * t, rel=0.01
        )

    def test_signal_rank(self):
        # deterministic inputs draw nothing, so equal seeds give equal
        # fading and noise and the difference is h1 x1^T + h2 x2^T
        n, t = 4, 6
        cfg = ChannelConfig(T=t, N=n, P=1.0, trials=1)
        _, y = sample_outputs([_point(np.ones(t)), _point(np.arange(t))], cfg,
                              np.random.default_rng(4))
        _, z = sample_outputs([_point(np.zeros(t)), _point(np.zeros(t))], cfg,
                              np.random.default_rng(4))
        assert np.linalg.matrix_rank(y[0] - z[0], tol=1e-9) == 2

    def test_total_power_identity(self):
        rng = np.random.default_rng(5)
        n, t, b = 2, 3, 200_000
        cfg = ChannelConfig(T=t, N=n, P=1.0, trials=b)
        (x1, x2), y = sample_outputs([_point([1.0, 2.0, 0.0]), _point([0.0, 1.0, 1.0])],
                                     cfg, rng)
        assert x1.shape == x2.shape == (b, t)
        expected = n * (t + 5.0 + 2.0)
        assert np.mean(np.linalg.norm(y, axis=(1, 2)) ** 2) == pytest.approx(
            expected, rel=0.01
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        cfg = ChannelConfig(T=4, N=2, P=1.0, trials=10)
        with pytest.raises(InvalidParam):
            sample_outputs([_point(np.ones(4)), _point(np.ones(3))], cfg, rng)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            ChannelConfig(T=0, N=1, P=1.0)
        with pytest.raises(InvalidParam):
            ChannelConfig(T=1, N=1, P=-1.0)
        with pytest.raises(InvalidParam):
            ChannelConfig(T=1, N=1, P=1.0, fading_kind="nope")
        with pytest.raises(InvalidParam, match="seed"):
            ChannelConfig(T=1, N=1, P=1.0, seed=-1)

    def test_independent_streams(self):
        cfg = ChannelConfig(T=2, N=2, P=1.0, seed=5)
        a = cfg.rng(0).standard_normal(4)
        b = cfg.rng(1).standard_normal(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, cfg.rng(0).standard_normal(4))


class TestInputDistributions:
    def test_average_constraint_empirical(self):
        rng = np.random.default_rng(7)
        t, p, b = 4, 10.0, 200_000
        for kind in ("pilot_data_product", "exponential_norm"):
            d = InputDistribution(kind=kind, T=t, P=p)
            x = d.sample(rng, size=b)
            power = np.linalg.norm(x, axis=1) ** 2
            se = power.std() / np.sqrt(b)
            assert power.mean() <= p * t + 3 * se

    def test_peak_constraint_sure(self):
        rng = np.random.default_rng(8)
        d = InputDistribution(kind="isotropic_peak", T=4, P=9.0)
        x = d.sample(rng, size=10_000)
        assert np.linalg.norm(x, axis=1).max() ** 2 <= 9.0 + 1e-9
        assert d.peak_bound == 9.0

    def test_exponent_profile_magnitudes(self):
        rng = np.random.default_rng(9)
        d = InputDistribution(
            kind="exponent_profile_peak", T=3, P=100.0,
            params={"exponents": [1.0, 0.5, 0.0]},
        )
        x = d.sample(rng, size=10)
        assert np.allclose(np.abs(x), [10.0, 100.0**0.25, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(InvalidParam):
            InputDistribution(kind="lattice", T=2, P=1.0)


class TestTruncation:
    def test_markov_bound_and_conditioning(self):
        rng = np.random.default_rng(10)
        t, p, beta = 4, 100.0, 1.5
        d = InputDistribution(kind="exponential_norm", T=t, P=p)
        trunc, rep = truncate_to_peak(d, p, beta, rng, trials=200_000)
        assert rep.truncation_prob <= rep.markov_bound + 3 * rep.truncation_prob_se
        x = trunc.sample(rng, size=50_000)
        assert (np.linalg.norm(x, axis=1) ** 2 < p**beta).all()
        assert rep.rate_gap_order_term > 0.0

    def test_beta_must_exceed_one(self):
        d = InputDistribution(kind="exponential_norm", T=2, P=10.0)
        with pytest.raises(InvalidParam):
            truncate_to_peak(d, 10.0, 1.0, np.random.default_rng(0))


class TestSampleOutputsDraws:
    def test_no_users_is_pure_noise(self):
        cfg = ChannelConfig(T=3, N=2, P=1.0, trials=40)
        _, y = sample_outputs([], cfg, np.random.default_rng(8))
        z = sample_complex_gaussian(3, np.random.default_rng(8), size=(40, 2))
        assert np.array_equal(y, z)

    def test_matches_sum_of_user_terms_plus_noise(self):
        # inputs, then fading, then noise, summed user by user
        cfg = ChannelConfig(T=4, N=3, P=10.0, trials=50)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=10.0)
        (x1, x2), y = sample_outputs([iso, iso], cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        r1, r2 = iso.sample(rng, size=50), iso.sample(rng, size=50)
        h1 = sample_complex_gaussian(3, rng, size=50)
        h2 = sample_complex_gaussian(3, rng, size=50)
        z = sample_complex_gaussian(4, rng, size=(50, 3))
        ref = h1[:, :, None] * r1[:, None, :] + h2[:, :, None] * r2[:, None, :] + z
        assert np.array_equal(x1, r1) and np.array_equal(x2, r2)
        assert np.array_equal(y, ref)

    @pytest.mark.parametrize("entries", [1, 2**15])
    def test_into_buffers(self, monkeypatch, entries):
        # the noise and Y written into the caller's arrays, the second
        # user's term added one slot or all slots at a time
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        cfg = ChannelConfig(T=4, N=3, P=10.0, trials=50)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=10.0)
        xs, ref = sample_outputs([iso, iso], cfg, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        iso.sample(rng, size=50), iso.sample(rng, size=50)
        noise = np.empty((50, 3, 4), dtype=complex)
        draw = np.empty((50, 3, 4))
        y = np.empty((50, 3, 4), dtype=complex)
        channel = sample_channel(2, cfg, rng, out=noise, scratch=draw)
        assert channel[1] is noise
        assert superpose(xs, channel, out=y) is y
        assert np.array_equal(y, ref)
