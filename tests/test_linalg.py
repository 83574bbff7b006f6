from math import factorial

import numpy as np
import pytest

from simomac.errors import DegenerateInput
from simomac.linalg import abs_sq, norm_sq
from simomac.linalg import (
    TOL_ALGEBRAIC,
    TOL_STRUCTURAL,
    apply_rotation,
    log_divided_difference_exp,
    merge_moments,
    rotation_unitary_from,
    sample_complex_gaussian,
    sample_uniform_complex_sphere,
)


class TestRotationUnitary:
    def test_aligned_input_gives_identity_up_to_phase(self):
        x = np.array([0, 0, 2.0 + 0j])
        u = rotation_unitary_from(x)
        assert np.allclose(u, np.eye(3), atol=TOL_STRUCTURAL)

    def test_two_dim_spectral_identity(self):
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        u = rotation_unitary_from(x)
        lhs = np.outer(np.conj(x), x)
        rhs = u @ np.diag([0.0, np.linalg.norm(x) ** 2]) @ u.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_random_vector_properties(self):
        rng = np.random.default_rng(3)
        x = sample_complex_gaussian(6, rng)
        u = rotation_unitary_from(x)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= TOL_STRUCTURAL
        rotated = x @ u
        assert np.abs(rotated[:-1]).max() <= TOL_STRUCTURAL * np.linalg.norm(x)
        assert rotated[-1] == pytest.approx(np.linalg.norm(x), abs=TOL_ALGEBRAIC)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            rotation_unitary_from(np.zeros(4))

    def test_deterministic(self):
        x = np.array([1 + 2j, -0.5j, 3.0])
        assert np.array_equal(rotation_unitary_from(x), rotation_unitary_from(x))


class TestApplyRotation:
    def test_rows_match_unitary(self):
        rng = np.random.default_rng(11)
        x = sample_complex_gaussian(5, rng, size=6)
        x[::2, -1] = 0.0  # zero last entry: the phase-1 branch
        a = sample_complex_gaussian(5, rng, size=(6, 3))
        out = apply_rotation(a, x)
        for b in range(6):
            assert np.abs(out[b] - a[b] @ rotation_unitary_from(x[b])).max() <= 1e-12
        rotated = apply_rotation(x[:, None, :], x)[:, 0]
        nrm = np.linalg.norm(x, axis=1)
        assert np.abs(rotated[:, :-1]).max() <= TOL_STRUCTURAL * nrm.max()
        assert np.abs(rotated[:, -1] - nrm).max() <= TOL_ALGEBRAIC

    def test_zero_vector_leaves_rows_unchanged(self):
        rng = np.random.default_rng(12)
        x = sample_complex_gaussian(4, rng, size=3)
        x[1] = 0.0
        a = sample_complex_gaussian(4, rng, size=(3, 2))
        assert np.array_equal(apply_rotation(a, x)[1], a[1])


class TestSamplers:
    def test_sphere_unit_norm(self):
        rng = np.random.default_rng(17)
        u = sample_uniform_complex_sphere(4, rng, size=1000)
        assert np.abs(np.linalg.norm(u, axis=-1) - 1.0).max() <= 1e-14

    def test_gaussian_covariance(self):
        rng = np.random.default_rng(19)
        z = sample_complex_gaussian(3, rng, size=1_000_000)
        cov = z.conj().T @ z / z.shape[0]
        assert np.abs(cov - np.eye(3)).max() <= 0.01

    def test_reproducible_streams(self):
        a = sample_complex_gaussian(5, np.random.default_rng(23), size=10)
        b = sample_complex_gaussian(5, np.random.default_rng(23), size=10)
        assert np.array_equal(a, b)


def divided_difference_exp(nodes):
    """exp[nodes] per row, from the log form."""
    return np.exp(log_divided_difference_exp(nodes)[0])


def _mp_divided_difference_exp(nodes):
    """60-digit (ln exp[nodes], exp[nodes[1:]] / exp[nodes]) at distinct nodes,
    from the sum over nodes of exp(x_i) / prod_(j != i) (x_i - x_j)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = [mpmath.mpf(float(v)) for v in nodes]

        def dd(xs):
            return mpmath.fsum(mpmath.exp(a) / mpmath.fprod(a - b for b in xs[:i] + xs[i + 1:])
                               for i, a in enumerate(xs))

        whole = dd(x)
        return float(mpmath.log(whole)), float(dd(x[1:]) / whole)


class TestDividedDifferenceExp:
    def test_single_node_is_exp(self):
        a = np.array([[-30.0], [-1.5], [0.0], [2.0]])
        assert np.allclose(divided_difference_exp(a), np.exp(a[:, 0]), rtol=1e-14, atol=0)
        assert np.array_equal(log_divided_difference_exp(a)[1], np.zeros(4))

    def test_two_distinct_nodes(self):
        # one batch mixing rows that need 0, 4 and 11 squarings
        a = np.array([-3.25, -60.0, -9000.0, 0.5])
        b = np.array([0.5, 0.0, -1.0, -3.25])
        dd = divided_difference_exp(np.stack([a, b], axis=1))
        assert np.allclose(dd, (np.exp(a) - np.exp(b)) / (a - b), rtol=1e-14, atol=0)

    def test_all_nodes_equal(self):
        for t in range(2, 7):
            for a in (-40.0, -2.0, 0.0, 1.0):
                dd = divided_difference_exp(np.full((1, t), a))[0]
                assert dd == pytest.approx(np.exp(a) / factorial(t - 1), rel=1e-13)

    def test_repeated_nodes_against_multiprecision(self):
        # exactly repeated nodes, as a rank-N mixture matrix produces them
        mpmath = pytest.importorskip("mpmath")
        nodes = [-7.90548452, -7.90548452, -4.67070486, 0.0]
        with mpmath.workdps(60):
            j = mpmath.zeros(4, 4)
            for i, x in enumerate(nodes):
                j[i, i] = mpmath.mpf(x)
                if i < 3:
                    j[i, i + 1] = 1
            ref = float(mpmath.expm(j)[0, 3])
        assert divided_difference_exp(np.array([nodes]))[0] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("t", [2, 3, 4, 8])
    def test_log_and_ratio_against_multiprecision(self, t):
        # largest node first at 0, the others spread below it over 1e-3 to
        # 1e30, where exp[nodes] itself, about spread^-(T-1), underflows
        rng = np.random.default_rng(t)
        spreads = 10.0 ** np.array([-3, -1, 0, 1, 3, 6, 10, 15, 20, 25, 30])
        nodes = np.zeros((spreads.size, t))
        nodes[:, 1:] = -np.sort(rng.uniform(0, 1, (spreads.size, t - 1)), axis=1) * spreads[:, None]
        log_dd, ratio = log_divided_difference_exp(nodes)
        for row, got_log, got_ratio in zip(nodes, log_dd, ratio):
            ref_log, ref_ratio = _mp_divided_difference_exp(row)
            assert got_log == pytest.approx(ref_log, rel=1e-15, abs=1e-13)
            assert got_ratio == pytest.approx(ref_ratio, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("t", [16, 32])
    def test_log_and_ratio_where_the_divided_difference_underflows(self, t):
        # exp[nodes] is about spread^-(T-1), below the least double here,
        # as at the mixture's eigenvalues at T = 32 from about 90 dB
        rng = np.random.default_rng(t)
        spreads = 10.0 ** np.array([25, 30])
        nodes = np.zeros((spreads.size, t))
        nodes[:, 1:] = -np.sort(rng.uniform(0, 1, (spreads.size, t - 1)), axis=1) * spreads[:, None]
        log_dd, ratio = log_divided_difference_exp(nodes)
        for row, got_log, got_ratio in zip(nodes, log_dd, ratio):
            ref_log, ref_ratio = _mp_divided_difference_exp(row)
            assert ref_log < np.log(np.finfo(float).tiny)
            assert got_log == pytest.approx(ref_log, rel=1e-15, abs=1e-13)
            assert got_ratio == pytest.approx(ref_ratio, rel=1e-13, abs=1e-13)

    def test_shifted_nodes_keep_the_ratio(self):
        # ln exp[mu + a] = a + ln exp[mu], and the ratio does not move
        nodes = np.array([[0.0, -0.5, -2.0, -7.0]])
        log_dd, ratio = log_divided_difference_exp(nodes)
        for a in (-1e3, -3.0, 5.0, 600.0):
            got_log, got_ratio = log_divided_difference_exp(nodes + a)
            assert got_log[0] == pytest.approx(log_dd[0] + a, rel=1e-15, abs=1e-13)
            assert got_ratio[0] == pytest.approx(ratio[0], rel=1e-13)

    def test_haar_average_of_exponential_quadratic_form(self):
        # E_u[exp(u^H M u)] = (T-1)! exp[eig M] for u uniform on the sphere
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(sample_complex_gaussian(3, rng, size=3))
        m = q @ np.diag([-1.0, 0.5, 1.5]) @ q.conj().T
        u = sample_uniform_complex_sphere(3, rng, size=200_000)
        vals = np.exp(np.einsum("bi,ij,bj->b", u.conj(), m, u).real)
        se = vals.std() / np.sqrt(vals.size)
        expected = 2.0 * divided_difference_exp(np.linalg.eigvalsh(m)[None])[0]
        assert abs(vals.mean() - expected) <= 4 * se

    @pytest.mark.parametrize("t", [2, 3, 4, 6])
    def test_bingham_mean_of_quadratic_form(self, t):
        # under the law on the sphere with density proportional to
        # exp(u^H M u), E[u^H M u] = mu_max + R - (T-1) with R the ratio at
        # the eigenvalues taken largest first (the Leibniz rule on
        # (z e^z)[mu]); checked by importance weights on uniform draws
        rng = np.random.default_rng(31 + t)
        q, _ = np.linalg.qr(sample_complex_gaussian(t, rng, size=t))
        mu = np.linspace(2.0, -1.5, t)
        m = q @ np.diag(mu) @ q.conj().T
        u = sample_uniform_complex_sphere(t, rng, size=400_000)
        quad = np.einsum("bi,ij,bj->b", u.conj(), m, u).real
        w = np.exp(quad - mu[0])
        mean = (w * quad).sum() / w.sum()
        se = np.sqrt(np.mean((w * (quad - mean)) ** 2) / w.size) / w.mean()
        (ratio,) = log_divided_difference_exp(mu[None])[1]
        assert abs(mean - (mu[0] + ratio - (t - 1))) <= 4 * se


class TestSamplerAndNorms:
    @pytest.mark.parametrize("n,size", [(3, None), (4, 7), (3, (5, 2))])
    def test_complex_gaussian_matches_two_draw_formula(self, n, size):
        # the real parts are drawn first, then the imaginary parts
        got = sample_complex_gaussian(n, np.random.default_rng(11), size=size)
        rng = np.random.default_rng(11)
        shp = (n,) if size is None else tuple(np.atleast_1d(size)) + (n,)
        ref = (rng.standard_normal(shp) + 1j * rng.standard_normal(shp)) / np.sqrt(2)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(float), ref.view(float))

    def test_complex_gaussian_into_buffers(self):
        # the same draw, written into the caller's array
        ref = sample_complex_gaussian(4, np.random.default_rng(5), size=(6, 2))
        out = np.empty((6, 2, 4), dtype=complex)
        for _ in range(2):
            got = sample_complex_gaussian(4, np.random.default_rng(5), size=(6, 2), out=out)
            assert got is out
            assert np.array_equal(got.view(float), ref.view(float))

    @pytest.mark.parametrize("shape,axis", [((50, 4, 3), 1), ((50, 4, 3), -1),
                                            ((7,), -1), ((0, 3), -1), ((4, 0), -1),
                                            ((0, 2, 3), 1)])
    def test_norm_sq_and_abs_sq_match_numpy(self, shape, axis):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for arr in (a, a.real.copy()):
            got = norm_sq(arr, axis=axis)
            ref = np.linalg.norm(arr, axis=axis) ** 2
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(abs_sq(arr), np.abs(arr) ** 2, rtol=1e-13, atol=0)
            assert abs_sq(arr).dtype == np.float64


class TestMergeMoments:
    @pytest.mark.parametrize("cols", [None, 2])
    def test_groups_merge_to_the_whole(self, cols):
        # uneven groups, empty ones first and in the middle, merged one by
        # one against numpy on all values at once
        rng = np.random.default_rng(4)
        shape = (1000,) if cols is None else (1000, cols)
        x = 1e3 + rng.normal(size=shape)
        merged = (0, 0.0, 0.0)
        for part in np.split(x, [0, 10, 10, 400, 997]):
            mean = part.mean(axis=0) if len(part) else np.zeros(x.shape[1:])
            merged = merge_moments(merged, (len(part), mean, ((part - mean) ** 2).sum(axis=0)))
        n, mu, m2 = merged
        assert n == 1000
        np.testing.assert_allclose(mu, x.mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(m2 / n, x.var(axis=0), rtol=1e-10)
