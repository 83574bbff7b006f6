import numpy as np
import pytest

from simomac.channel import ChannelConfig, InputDistribution
from simomac.converse import mutual_information_lower_estimate
from simomac.errors import InvalidParam
from simomac.knn_entropy import complex_to_real, knn_entropy_bits
from simomac.linalg import sample_complex_gaussian


class TestEmbedding:
    def test_shape_and_content(self):
        z = np.array([[1 + 2j, 3 - 1j]])
        r = complex_to_real(z)
        assert r.shape == (1, 4)
        assert np.array_equal(r, [[1.0, 3.0, 2.0, -1.0]])


class TestEstimator:
    def test_real_gaussian(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100_000, 2))
        expected = np.log2(2 * np.pi * np.e)  # two unit-variance coordinates
        assert knn_entropy_bits(x) == pytest.approx(expected, abs=0.05)

    def test_complex_gaussian(self):
        rng = np.random.default_rng(1)
        z = sample_complex_gaussian(1, rng, size=100_000)
        assert knn_entropy_bits(z) == pytest.approx(np.log2(np.pi * np.e), abs=0.05)

    def test_scaling_shift(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50_000, 1))
        h1 = knn_entropy_bits(x)
        h2 = knn_entropy_bits(4.0 * x)
        assert h2 - h1 == pytest.approx(2.0, abs=0.05)


class TestTooFewPoints:
    def test_at_most_k_points_rejected(self):
        x = np.random.default_rng(3).normal(size=(4, 2))
        with pytest.raises(InvalidParam):
            knn_entropy_bits(x, k=4)
        assert np.isfinite(knn_entropy_bits(x, k=3))

    def test_nonpositive_k_rejected(self):
        x = np.random.default_rng(4).normal(size=(100, 2))
        for k in (0, -1):
            with pytest.raises(InvalidParam):
                knn_entropy_bits(x, k=k)

    def test_estimator_with_too_few_trials_raises(self):
        cfg = ChannelConfig(T=4, N=2, P=100.0, trials=3)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(InvalidParam):
            mutual_information_lower_estimate(iso, cfg)
