import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma, gammaln

from simomac import converse, knn_entropy, linalg
from simomac.channel import ChannelConfig, InputDistribution
from simomac.converse import mutual_information_lower_estimate
from simomac.errors import InvalidParam
from simomac.knn_entropy import complex_to_real, kth_neighbour_distance, knn_entropy_bits
from simomac.linalg import sample_complex_gaussian

MIN_DIM = knn_entropy._ENGINE_MIN_DIM
# Columns per GEMM tile of the search at 16 real dimensions.
TILE_16 = knn_entropy._GEMM_MNK // (knn_entropy._ROWS * 18)


def _tree_distance(x, k=4):
    """The reference: the (k+1)-th neighbour distance from scipy's k-d tree."""
    return cKDTree(x, leafsize=64).query(x, k=k + 1)[0][:, k]


def _scipy_entropy_bits(x, k=4):
    """The estimator as written with scipy's digamma and gammaln."""
    n, d = x.shape
    eps = np.maximum(_tree_distance(x, k), 1e-300)
    log_ball = (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0 + 1.0)
    return (digamma(n) - digamma(k) + log_ball + d * np.mean(np.log(eps))) / np.log(2.0)


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

    @pytest.mark.parametrize("samples", [np.full((10, 16), np.nan), np.full((10, 2), np.nan),
                                         np.full((10, 2), np.inf), np.ones(10),
                                         np.full((10, 2), "a")],
                             ids=["nan_16", "nan_2", "inf_2", "one_dim", "str"])
    def test_bad_samples_rejected(self, samples):
        with pytest.raises(InvalidParam):
            knn_entropy_bits(samples)

    def test_non_integer_k_rejected(self):
        x = np.random.default_rng(4).normal(size=(100, 2))
        with pytest.raises(InvalidParam):
            knn_entropy_bits(x, k=2.5)

    def test_estimator_with_too_few_trials_raises(self):
        cfg = ChannelConfig(T=4, N=2, P=100.0, trials=3)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(InvalidParam):
            mutual_information_lower_estimate(iso, cfg)


def _oracle_knn_set(p_db):
    """The k-NN sample set of the benchmark's validity check (T=4, N=2,
    exponent profile [1, 1/2, 1/4, 0], 50k trials, 10k k-NN samples,
    seed 1), captured from ``mutual_information_lower_estimate``."""
    p = 10.0 ** (p_db / 10.0)
    cfg = ChannelConfig(T=4, N=2, P=p, trials=50_000, seed=1)
    prof = InputDistribution(kind="exponent_profile_peak", T=4, P=p,
                             params={"exponents": [1.0, 0.5, 0.25, 0.0]})
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(converse, "knn_entropy_bits", lambda y, k: seen.append(y) or 0.0)
        mutual_information_lower_estimate(prof, cfg, max_knn_samples=10_000)
    return complex_to_real(seen[0])


class TestExactSearch:
    """The numpy search returns the k-d tree's distances bit for bit."""

    @pytest.mark.parametrize("p_db", [10, 30])
    def test_oracle_sets(self, p_db):
        x = _oracle_knn_set(p_db)
        assert x.shape == (10_000, 16)
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))

    def test_summation_tail(self):
        # d = 10: two blocks of four coordinates, then two added one by one
        x = np.random.default_rng(10).normal(size=(3_000, 10))
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))

    @pytest.fixture
    def fallback_rows(self, monkeypatch):
        """Rows the search hands to its exact fallback, as they arrive."""
        rows = []
        real = knn_entropy._exact_kth_sq_dist

        def exact(x, idx, k):
            rows.append(idx.size)
            return real(x, idx, k)

        monkeypatch.setattr(knn_entropy, "_exact_kth_sq_dist", exact)
        return rows

    def test_shifted_set_falls_back(self, fallback_rows):
        # |x|^2 ~ 1.6e9 makes the float32 margin dwarf the neighbour distances
        x = np.random.default_rng(11).normal(size=(1_500, 16)) + 1e4
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))
        assert sum(fallback_rows) == len(x)

    def test_offset_set_needs_the_margin(self, fallback_rows):
        # an offset of 15 leaves every row on the candidate path, with
        # float32 errors large enough that a search without the rounding
        # margin returns wrong distances for some rows
        x = np.random.default_rng(14).normal(size=(3_000, 16)) + 15.0
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))
        assert sum(fallback_rows) == 0

    def test_duplicate_points(self):
        # points with 1, 2 and 7 copies: the last have k = 4 or more copies
        # of themselves besides, so their distance is 0
        rng = np.random.default_rng(12)
        base = rng.normal(size=(600, 12))
        x = np.concatenate([base, base[:200], *[base[:20]] * 5])
        x = x[rng.permutation(len(x))]
        eps = kth_neighbour_distance(x, 4)
        assert np.array_equal(eps, _tree_distance(x))
        assert np.count_nonzero(eps == 0.0) == 7 * 20

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_k_plus_one_points(self, k):
        x = np.random.default_rng(13).normal(size=(k + 1, 16))
        assert np.array_equal(kth_neighbour_distance(x, k), _tree_distance(x, k))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [
        TILE_16 - 1,  # below one tile: the stacked product is empty
        TILE_16,  # one tile, no columns left over
        knn_entropy._SEGMENT + 3 * TILE_16 + 5,  # last segment ends in a partial tile
        3 * knn_entropy._ROWS + 1,  # a last block of one row
    ])
    def test_tile_and_block_edges(self, monkeypatch, n, workers):
        # d = 16: tiles of _GEMM_MNK // (_ROWS (d + 2)) columns per GEMM call
        monkeypatch.setattr(linalg, "cpu_count", lambda: workers)
        x = np.random.default_rng(n).normal(size=(n, 16))
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))

    @pytest.mark.parametrize("d", [MIN_DIM - 1, MIN_DIM])
    def test_either_side_of_the_switch(self, d):
        x = np.random.default_rng(d).normal(size=(2_000, d)) * 3.0
        assert np.array_equal(kth_neighbour_distance(x, 4), _tree_distance(x))


class TestAgainstScipyFormula:
    @pytest.mark.parametrize("n, d", [(5, 16), (3_000, 2), (3_000, MIN_DIM - 1),
                                      (3_000, MIN_DIM), (5_000, 16)])
    def test_within_1e_12(self, n, d):
        x = np.random.default_rng(n + d).normal(size=(n, d))
        assert abs(knn_entropy_bits(x) - _scipy_entropy_bits(x)) <= 1e-12
