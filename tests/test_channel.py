from dataclasses import replace

import numpy as np
import pytest

from simomac.channel import (
    ANNULUS_R_HI,
    ANNULUS_R_LO,
    INPUT_KINDS,
    ChannelConfig,
    InputDistribution,
    sample_channel,
    sample_fading,
    sample_inputs,
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
        xs = sample_inputs([zeros, zeros], cfg, rng)
        y = superpose(xs, sample_channel(2, cfg, rng))
        assert np.mean(np.linalg.norm(y, axis=(1, 2)) ** 2) == pytest.approx(
            n * t, rel=0.01
        )

    def test_signal_rank(self):
        # deterministic inputs draw nothing, so equal seeds give equal
        # fading and noise and the difference is h1 x1^T + h2 x2^T
        n, t = 4, 6
        cfg = ChannelConfig(T=t, N=n, P=1.0, trials=1)
        xs = sample_inputs([_point(np.ones(t)), _point(np.arange(t))], cfg,
                           np.random.default_rng(4))
        y = superpose(xs, sample_channel(2, cfg, np.random.default_rng(4)))
        zs = sample_inputs([_point(np.zeros(t)), _point(np.zeros(t))], cfg,
                           np.random.default_rng(4))
        z = superpose(zs, sample_channel(2, cfg, np.random.default_rng(4)))
        assert np.linalg.matrix_rank(y[0] - z[0], tol=1e-9) == 2

    def test_total_power_identity(self):
        rng = np.random.default_rng(5)
        n, t, b = 2, 3, 200_000
        cfg = ChannelConfig(T=t, N=n, P=1.0, trials=b)
        x1, x2 = sample_inputs([_point([1.0, 2.0, 0.0]), _point([0.0, 1.0, 1.0])], cfg, rng)
        y = superpose([x1, x2], sample_channel(2, cfg, rng))
        assert x1.shape == x2.shape == (b, t)
        expected = n * (t + 5.0 + 2.0)
        assert np.mean(np.linalg.norm(y, axis=(1, 2)) ** 2) == pytest.approx(
            expected, rel=0.01
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        cfg = ChannelConfig(T=4, N=2, P=1.0, trials=10)
        with pytest.raises(InvalidParam):
            sample_inputs([_point(np.ones(4)), _point(np.ones(3))], cfg, rng)


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

    def test_exponent_profile_magnitudes(self):
        rng = np.random.default_rng(9)
        d = InputDistribution(
            kind="exponent_profile_peak", T=3, P=100.0,
            params={"exponents": [1.0, 0.5, 0.0]},
        )
        x = d.sample(rng, size=10)
        assert np.allclose(np.abs(x), [10.0, 100.0**0.25, 1.0])

    def test_exponent_profile_is_amps_times_phase(self):
        # the draws are amps e^{i ph} for uniform phases, bit for bit
        exponents = [1.0, 0.5, 0.25, 0.0]
        d = InputDistribution(kind="exponent_profile_peak", T=4, P=1000.0,
                              params={"exponents": exponents})
        x = d.sample(np.random.default_rng(21), size=200_000)
        ph = np.random.default_rng(21).uniform(0.0, 2.0 * np.pi, size=(200_000, 4))
        ref = 1000.0 ** (np.asarray(exponents) / 2.0) * np.exp(1j * ph)
        assert np.array_equal(x.view(float), ref.view(float))

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_sample_is_the_power_map_of_one_draw(self, kind):
        # sample() at each power is at_power of one P-free draw, bit for bit,
        # and leaves the generator where the draw leaves it; the draw itself
        # is reused, so at_power must not write into it
        params = {"deterministic_point": {"x": [1.0, 2j, 0.5 - 0.5j]},
                  "exponent_profile_peak": {"exponents": [1.0, 0.5, 0.0]},
                  "pilot_data_product": {"pilot_power": 3.0}}.get(kind, {})
        law = InputDistribution(kind=kind, T=3, P=10.0, params=params)
        draw_rng = np.random.default_rng(4)
        draw = law.draw(draw_rng, 500)
        for p in (0.5, 10.0, 1e4, 1e12):
            at = replace(law, P=p)
            rng = np.random.default_rng(4)
            x = at.sample(rng, size=500)
            assert np.array_equal(x.view(float), at.at_power(draw).view(float))
            assert rng.bit_generator.state == draw_rng.bit_generator.state

    def test_exponential_is_scaled_standard_exponential(self):
        # the exponential_norm map rests on this identity, bit for bit
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        scale = 3 * 1e4 / 7.0
        x = a.exponential(scale, size=1000)
        assert np.array_equal(x, scale * b.standard_exponential(1000))
        assert a.bit_generator.state == b.bit_generator.state

    def test_unknown_kind(self):
        with pytest.raises(InvalidParam):
            InputDistribution(kind="lattice", T=2, P=1.0)

    @pytest.mark.parametrize("kind,t,p,params", [
        ("isotropic_peak", 0, 1.0, {}),
        ("isotropic_peak", 2, -5.0, {}),
        ("isotropic_peak", 2, 0.0, {}),
        ("isotropic_peak", 2, float("nan"), {}),
        ("isotropic_peak", 2, float("inf"), {}),
        ("exponent_profile_peak", 2, 10.0, {}),
        ("exponent_profile_peak", 2, 10.0, {"exponents": [1.0]}),
        ("exponent_profile_peak", 2, 10.0, {"exponents": [1.0, float("nan")]}),
        ("deterministic_point", 2, 10.0, {"x": [1.0, 0.0, 0.0]}),
        ("deterministic_point", 2, 10.0, {}),
        # a negative data power once gave a NaN bound and two raw RuntimeWarnings
        ("pilot_data_product", 4, 10.0, {"data_power": -1.0}),
        ("pilot_data_product", 4, 10.0, {"data_power": float("inf")}),
        ("pilot_data_product", 4, 10.0, {"pilot_power": -1.0}),
        ("pilot_data_product", 4, 10.0, {"pilot_power": float("nan")}),
    ])
    def test_invalid_law_raises_invalid_param(self, kind, t, p, params):
        with pytest.raises(InvalidParam):
            InputDistribution(kind=kind, T=t, P=p, params=params)

    @pytest.mark.parametrize("key", ["pilot_power", "data_power"])
    def test_silent_pilot_or_data_allowed(self, key):
        silent = InputDistribution(kind="pilot_data_product", T=4, P=10.0, params={key: 0.0})
        assert np.isfinite(silent.sample(np.random.default_rng(0), size=100)).all()


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

    def test_needs_trials(self):
        # no draw: the tail probability would be the mean of an empty sample
        d = InputDistribution(kind="exponential_norm", T=2, P=10.0)
        with pytest.raises(InvalidParam, match="trials"):
            truncate_to_peak(d, 10.0, 1.5, np.random.default_rng(0), trials=0)


class TestSampleOutputsDraws:
    def test_no_users_is_pure_noise(self):
        cfg = ChannelConfig(T=3, N=2, P=1.0, trials=40)
        y = superpose([], sample_channel(0, cfg, np.random.default_rng(8)))
        z = sample_complex_gaussian(3, np.random.default_rng(8), size=(40, 2))
        assert np.array_equal(y, z)

    def test_matches_sum_of_user_terms_plus_noise(self):
        # inputs, then user 1's fading, the noise and user 2's fading,
        # summed user by user
        cfg = ChannelConfig(T=4, N=3, P=10.0, trials=50)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=10.0)
        rng = np.random.default_rng(9)
        x1, x2 = sample_inputs([iso, iso], cfg, rng)
        y = superpose([x1, x2], sample_channel(2, cfg, rng))
        rng = np.random.default_rng(9)
        r1, r2 = iso.sample(rng, size=50), iso.sample(rng, size=50)
        h1 = sample_complex_gaussian(3, rng, size=50)
        z = sample_complex_gaussian(4, rng, size=(50, 3))
        h2 = sample_complex_gaussian(3, rng, size=50)
        ref = h1[:, :, None] * r1[:, None, :] + h2[:, :, None] * r2[:, None, :] + z
        assert np.array_equal(x1, r1) and np.array_equal(x2, r2)
        assert np.array_equal(y, ref)

    def test_one_user_draw_starts_a_two_user_draw(self):
        # h1 and Z come first, so the single-user bound sees the same h1
        # and Z alone as beside the MAC bound
        cfg = ChannelConfig(T=4, N=3, P=10.0, trials=50)
        (h1,), z = sample_channel(1, cfg, np.random.default_rng(10))
        (g1, g2), w = sample_channel(2, cfg, np.random.default_rng(10))
        assert np.array_equal(h1, g1) and np.array_equal(z, w)
        assert g2.shape == g1.shape and not np.array_equal(g2, g1)

    @pytest.mark.parametrize("trials", [1, 2**15])
    def test_into_buffers(self, trials):
        # the noise and Y written into the caller's arrays, for a
        # single-trial block and a large one
        cfg = ChannelConfig(T=4, N=3, P=10.0, trials=trials)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=10.0)
        rng = np.random.default_rng(9)
        xs = sample_inputs([iso, iso], cfg, rng)
        ref = superpose(xs, sample_channel(2, cfg, rng))
        rng = np.random.default_rng(9)
        iso.sample(rng, size=trials), iso.sample(rng, size=trials)
        noise = np.empty((trials, 3, 4), dtype=complex)
        draw = np.empty((trials, 3, 4))
        y = np.empty((trials, 3, 4), dtype=complex)
        channel = sample_channel(2, cfg, rng, out=noise, scratch=draw)
        assert channel[1] is noise
        assert superpose(xs, channel, out=y) is y
        assert np.array_equal(y, ref)
