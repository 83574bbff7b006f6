from math import factorial

import numpy as np
import pytest

from simomac import linalg
from simomac.errors import DegenerateInput, NumericalDomain
from simomac.linalg import abs_sq, norm_sq
from simomac.linalg import (
    TOL_ALGEBRAIC,
    TOL_STRUCTURAL,
    apply_rotation,
    column_blocks,
    divided_difference_exp,
    log_det_hermitian_psd,
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

    @pytest.mark.parametrize("entries", [1, 7, 2**15])
    def test_column_blocks_do_not_change_the_result(self, monkeypatch, entries):
        # 1: one column per block; 7: blocks of 2 columns; default: one block
        rng = np.random.default_rng(13)
        x = sample_complex_gaussian(5, rng, size=3)
        a = sample_complex_gaussian(5, rng, size=(3, 1))
        whole = apply_rotation(a, x)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        assert np.array_equal(apply_rotation(a, x), whole)
        in_place = a.copy()
        assert apply_rotation(in_place, x, out=in_place) is in_place
        assert np.array_equal(in_place, whole)


@pytest.mark.parametrize("rows,t", [(1, 5), (3, 7), (2**15, 4), (2**16, 3), (100, 1)])
def test_column_blocks_cover_every_column_once(rows, t):
    blocks = column_blocks(rows, t)
    assert [i for blk in blocks for i in range(t)[blk]] == list(range(t))
    assert all(len(range(t)[blk]) * rows <= max(rows, 2**15) for blk in blocks)


class TestLogDet:
    def test_identity(self):
        assert log_det_hermitian_psd(np.eye(3)) == pytest.approx(0.0)

    def test_rank_one_update(self):
        rng = np.random.default_rng(5)
        x = sample_complex_gaussian(4, rng)
        m = np.eye(4) + np.outer(x, np.conj(x))
        expected = np.log2(1 + np.linalg.norm(x) ** 2)
        assert log_det_hermitian_psd(m) == pytest.approx(expected, abs=TOL_ALGEBRAIC)

    def test_matches_brute_force_determinant(self):
        rng = np.random.default_rng(7)
        a = sample_complex_gaussian(4, rng, size=4)
        m = a.conj().T @ a + 0.1 * np.eye(4)
        brute = np.log2(np.linalg.det(m).real)
        assert log_det_hermitian_psd(m) == pytest.approx(brute, abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(9)
        a = sample_complex_gaussian(3, rng, size=3)
        m = a.conj().T @ a + 0.5 * np.eye(3)
        u = rotation_unitary_from(sample_complex_gaussian(3, rng))
        assert log_det_hermitian_psd(u @ m @ u.conj().T) == pytest.approx(
            log_det_hermitian_psd(m), abs=1e-9
        )

    def test_non_hermitian_rejected(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NumericalDomain):
            log_det_hermitian_psd(m)

    def test_singular_rejected(self):
        with pytest.raises(NumericalDomain):
            log_det_hermitian_psd(np.zeros((2, 2)))


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


class TestDividedDifferenceExp:
    def test_single_node_is_exp(self):
        a = np.array([[-30.0], [-1.5], [0.0], [2.0]])
        assert np.allclose(divided_difference_exp(a), np.exp(a[:, 0]), rtol=1e-14, atol=0)

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
        # the same draw, written into the caller's arrays
        ref = sample_complex_gaussian(4, np.random.default_rng(5), size=(6, 2))
        out, scratch = np.empty((6, 2, 4), dtype=complex), np.empty((6, 2, 4))
        for _ in range(2):
            got = sample_complex_gaussian(4, np.random.default_rng(5), size=(6, 2),
                                          out=out, scratch=scratch)
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
