import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from math import lgamma

import numpy as np
import pytest

from simomac import converse, linalg
from simomac.auxdist import (AuxDistParams, NormSqSums, log_density_from_norm_sq, log_norm_sq,
                              log_normalizer)
from simomac.channel import (
    ANNULUS_R_HI,
    ANNULUS_R_LO,
    FADING_ENTROPY_DEFICIT,
    ChannelConfig,
    InputDistribution,
    sample_channel,
    sample_fading,
    sample_inputs,
    superpose,
)
from simomac.converse import (
    _h_given_x,
    _log2_det,
    _mac_high_t_rhs,
    _mac_low_t,
    _mac_low_t_rhs,
    _rotated_levels,
    _strongest_pilot,
    _user1_levels,
    duality_bound_mac_user1,
    duality_bound_single_user,
    duality_bounds,
    isotropic_mixture_mi_estimate,
    mutual_information_lower_estimate,
)
from simomac.errors import InvalidParam, InvalidRegime, RegimeUnsupported
from simomac.knn_entropy import knn_entropy_bits
from simomac.linalg import (LN2, abs_sq, apply_rotation, log_divided_difference_exp, norm_sq,
                            sample_complex_gaussian)
from simomac.region import regime_objective

LOG2_PI_E = np.log2(np.pi * np.e)


def _cfg(t=4, n=2, p=100.0, trials=30_000, seed=0, fading="iid_complex_gaussian"):
    return ChannelConfig(T=t, N=n, P=p, trials=trials, seed=seed, fading_kind=fading)


def _pilot(x, slots=None):
    """The pilot slot that the single-user genie picks for each row of x."""
    mag = abs_sq(np.atleast_2d(np.asarray(x, dtype=complex)))
    s = converse._slot_levels(mag, 0.0)
    return _strongest_pilot(mag, s, _cfg(t=mag.shape[1]), slots or mag.shape[1])[0]


def _single_user_on_slots(input_dist, cfg, slots):
    """The single-user bound with its pilot the strongest of the first
    ``slots`` slots, as the MAC bound's (T-1)-slot genie picks it."""
    ((rep,),) = converse._streamed_bounds([([input_dist], cfg)],
                                          [converse._single_user_bound(slots)])
    return rep


def _chunk_bounds(starts):
    """(lo, hi) of each chunk of a linalg.trial_chunks range; the bounds'
    fit (s = 0) and evaluation (s = 1) streams are
    linalg.trial_chunks((trials + 1 - s) // 2, T)."""
    return [(lo, min(lo + starts.step, starts.stop)) for lo in starts]


def _iso(cfg):
    """The isotropic peak-power input at cfg's T and P."""
    return InputDistribution(kind="isotropic_peak", T=cfg.T, P=cfg.P)


def _mac_high_t(mag, s, cfg):
    """The pilot rule of the T >= N+1 genie: the strongest of the first T - 1 slots."""
    return _strongest_pilot(mag, s, cfg, cfg.T - 1)


_MAC_RHS = {_mac_high_t: _mac_high_t_rhs, _mac_low_t: _mac_low_t_rhs}


def _mac_engine(engine, mag, s2, t, n=2, p=100.0):
    """(v, s, c, rhs, branch) of a MAC genie engine and its right-hand
    side for one trial, from |x1t|^2 of the rotated input and
    s2 = ||x2||^2."""
    mag, s2, cfg = np.array([mag], dtype=float), np.array([s2]), _cfg(t=t, n=n, p=p)
    s = converse._slot_levels(mag, s2)
    v, c, _, branch = engine(mag, s, cfg)
    return v, s, c, _MAC_RHS[engine](mag, s2, v, branch, cfg), branch


def _mac_chunk(x1, x2, fading="iid_complex_gaussian", n=2):
    """(rhs, h(Y | X1, X2), log2 det) of the T >= N+1 MAC genie for one trial."""
    x1, x2 = (np.asarray(x, dtype=complex)[None] for x in (x1, x2))
    cfg = _cfg(t=x1.shape[1], n=n, fading=fading)
    x1t, s2 = _rotated_levels([x1, x2])
    mag = abs_sq(x1t)
    v, _, _, branch = _mac_high_t(mag, converse._slot_levels(mag, s2), cfg)
    rhs = _mac_high_t_rhs(mag, s2, v, branch, cfg)
    return rhs[0], _h_given_x(mag, s2, cfg)[0], _log2_det(mag, s2)[0]


class TestGenieIndices:
    def test_single_strongest(self):
        assert _pilot([1.0, 3.0, 2.0]) == [1]

    def test_single_tie_to_smallest(self):
        assert _pilot([2.0, 2.0]) == [0]

    def test_single_dominates_all(self):
        x = sample_complex_gaussian(5, np.random.default_rng(0), size=50)
        v = _pilot(x)
        assert (np.abs(x[np.arange(50), v])[:, None] >= np.abs(x)).all()
        # restricted to the first slots, the pilot is the strongest of those
        assert (_pilot(x, slots=3) == np.argmax(np.abs(x[:, :3]), axis=1)).all()

    def test_mac_high_t_skips_last_slot(self):
        v, *_, branch = _mac_engine(_mac_high_t, [1.0, 25.0, 100.0], 0.0, t=3)
        assert v == [1] and branch == [0]  # the one branch

    def test_mac_low_t_sigma_weights(self):
        # sigma^2 = (1, 1, 4): ratios (1, 1, 2.5) -> last slot, branch 0
        v, *_, branch = _mac_engine(_mac_low_t, [1.0, 1.0, 10.0], 3.0, t=3)
        assert v == [2] and branch == [0]
        # ratios (6, 1, 2) -> slot 0; 8 >= max{6, 4}: the last entry dominates
        v, *_, branch = _mac_engine(_mac_low_t, [6.0, 1.0, 8.0], 3.0, t=3)
        assert v == [0] and branch == [2]

    def test_mac_all_zero_tie_rule(self):
        v, *_, branch = _mac_engine(_mac_low_t, [0.0, 0.0, 0.0], 0.0, t=3)
        assert v == [0] and branch == [1]

    @pytest.mark.parametrize("t,n", [(4, 2), (3, 4)])
    def test_every_genie_reads_only_the_inputs(self, t, n):
        # every bound's pilot(mag, s, cfg) is a function of the inputs:
        # c = 1 and d = 0 for the strongest-slot genies; c = 1 / s_v and
        # d = 0 for the (V, U) genie, but c = 0 and d = P at the last slot
        # in branch 2
        rng = np.random.default_rng(4)
        cfg = _cfg(t=t, n=n, p=10.0)
        mag, s2 = rng.exponential(5.0, size=(300, t)), rng.exponential(2.0, size=300)
        s = converse._slot_levels(mag, s2)
        for bound in (converse._single_user_bound(t), converse._mac_bound(cfg)):
            v, c, d, branch = bound.pilot(mag, s, cfg)
            c, d = np.broadcast_to(c, s.shape), np.broadcast_to(d, s.shape)
            if bound.branches == 1:
                assert (c == 1.0).all() and (d == 0.0).all() and (branch == 0).all()
                continue
            assert set(branch) == {0, 1, 2}
            last = np.zeros(s.shape, dtype=bool)
            last[:, -1] = branch == 2
            assert (c[last] == 0.0).all() and (d[last] == cfg.P).all()
            c_v = np.broadcast_to(1.0 / s[np.arange(300), v][:, None], s.shape)
            assert np.array_equal(c[~last], c_v[~last]) and (d[~last] == 0.0).all()


class TestRotatedOutputs:
    def test_drawn_rotated_equal_rotated_outputs(self):
        # (h1 x1^T + h2 x2^T + Z) U = h1 (x1^T U) + ||x2|| h2 e_T^T + Z U, U = U(x2):
        # given the noise Z U, the MAC's levels give the rotated outputs
        rng = np.random.default_rng(21)
        t, n = 5, 3
        x1, x2 = (sample_complex_gaussian(t, rng, size=1) for _ in range(2))
        hs = [sample_complex_gaussian(n, rng, size=1) for _ in range(2)]
        z = sample_complex_gaussian(t, rng, size=(1, n))
        ref = apply_rotation(superpose([x1, x2], (hs, z)), x2)
        yt = converse._outputs(*_rotated_levels([x1, x2]), (hs, apply_rotation(z, x2)))
        assert np.abs(yt - ref).max() <= 1e-12 * np.abs(ref).max()


class TestConditionalEntropy:
    def test_pure_noise(self):
        cfg = _cfg()
        _, h, log2_det = _mac_chunk(np.zeros(4), np.zeros(4))
        assert h == pytest.approx(cfg.N * cfg.T * LOG2_PI_E)
        assert log2_det == 0.0

    def test_dominant_branch_single_user_case(self):
        # off Gaussian fading h(Y|X) is N [log2 det + T log2(pi e) - K D] with
        # K = 1 user of nonzero input, a lower bound, and flagged
        cfg = _cfg(fading="iid_uniform_annulus")
        x1 = np.array([1.0, 2.0, 0.0, 1.0])
        _, h, _ = _mac_chunk(x1, np.zeros(4), fading=cfg.fading_kind)
        rule = np.log2(1 + np.linalg.norm(x1) ** 2) + cfg.T * LOG2_PI_E \
            - FADING_ENTROPY_DEFICIT[cfg.fading_kind]
        assert h == pytest.approx(cfg.N * rule, abs=1e-9)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, _cfg(trials=2_000, fading=cfg.fading_kind))
        assert rep.remainder_terms["h_order_one_flagged"] is True

    def test_exact_needs_gaussian_fading(self):
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(RegimeUnsupported):
            mutual_information_lower_estimate(iso, _cfg(fading="iid_uniform_annulus"))

    def test_exact_matches_knn_oracle(self):
        rng = np.random.default_rng(0)
        t, n, trials = 4, 2, 50_000
        x1 = sample_complex_gaussian(t, rng)
        x2 = sample_complex_gaussian(t, rng)
        _, exact, _ = _mac_chunk(x1, x2, n=n)
        h1 = sample_complex_gaussian(n, rng, size=trials)
        h2 = sample_complex_gaussian(n, rng, size=trials)
        z = sample_complex_gaussian(t, rng, size=(trials, n))
        y = h1[:, :, None] * x1 + h2[:, :, None] * x2 + z
        est = knn_entropy_bits(y.reshape(trials, -1))
        assert abs(est - exact) / (n * t) <= 0.15  # bits per complex dimension


def _annulus_h_given_x(x, b, rng, grid=2001, block=500):
    """Monte-Carlo h(Y | x) in bits and its standard error for N = 1 and
    annulus fading, from b outputs Y = h x^T + Z.

    With h = r e^{i phi}, the phase averages in closed form,
    p(y | x) = pi^-T e^-||y||^2 E_r[exp(-r^2 ||x||^2) I0(2 r |y^H x|)], and
    the trapezoid rule on ``grid`` points of [r_lo, r_hi] takes E_r.
    """
    from scipy.special import i0e

    r = np.linspace(ANNULUS_R_LO, ANNULUS_R_HI, grid)
    w = np.full(grid, (r[1] - r[0]) / (ANNULUS_R_HI - ANNULUS_R_LO))
    w[[0, -1]] /= 2
    y = sample_fading("iid_uniform_annulus", 1, rng, size=b) * x \
        + sample_complex_gaussian(x.size, rng, size=b)
    c = np.abs(y.conj() @ x)
    ln_p = -x.size * np.log(np.pi) - norm_sq(y)
    for i in range(0, b, block):
        z = 2.0 * r * c[i:i + block, None]
        e = -r * r * norm_sq(x) + z + np.log(i0e(z))
        top = e.max(axis=1)
        ln_p[i:i + block] += top + np.log(np.exp(e - top[:, None]) @ w)
    bits = -ln_p / np.log(2.0)
    return bits.mean(), bits.std() / np.sqrt(b)


class TestLowerBoundRule:
    """h(Y | X) >= N [log2 det + T log2(pi e) - K D] off Gaussian fading."""

    def test_annulus_deficit_matches_integration(self):
        from scipy.integrate import dblquad

        def density(r):
            return 1.0 / (2.0 * np.pi * r * (ANNULUS_R_HI - ANNULUS_R_LO))

        h, _ = dblquad(lambda phi, r: -density(r) * np.log2(density(r)) * r,
                       ANNULUS_R_LO, ANNULUS_R_HI, 0.0, 2.0 * np.pi)
        deficit = FADING_ENTROPY_DEFICIT["iid_uniform_annulus"]
        assert deficit == pytest.approx(LOG2_PI_E - h, abs=1e-12)
        assert deficit == pytest.approx(0.6656, abs=1e-4)
        assert FADING_ENTROPY_DEFICIT["iid_complex_gaussian"] == 0.0

    @pytest.mark.parametrize("p", [1.0, 30.0, 1000.0])
    def test_rule_brackets_quadrature_h(self, p):
        # the rule is at most h(Y | x) and at least h(Y | x) - N K D, K = 1
        cfg = _cfg(t=2, n=1, p=p, fading="iid_uniform_annulus")
        x = np.full(2, np.sqrt(p / 2), dtype=complex)
        h, se = _annulus_h_given_x(x, 4_000, np.random.default_rng(5))
        rule = _h_given_x(abs_sq(x)[None], 0.0, cfg)[0]
        assert h - FADING_ENTROPY_DEFICIT[cfg.fading_kind] - 3 * se <= rule <= h + 3 * se

    def test_counts_users_of_nonzero_input(self):
        # K = 0, 1, 1, 2: the deficit counts users, it is not OR-ed
        cfg = _cfg(t=2, n=3, fading="iid_uniform_annulus")
        mag = np.array([[0.0, 0.0], [0.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        s2 = np.array([0.0, 0.0, 9.0, 9.0])
        gap = 3 * (_log2_det(mag, s2) + 2 * LOG2_PI_E) - _h_given_x(mag, s2, cfg)
        deficit = FADING_ENTROPY_DEFICIT[cfg.fading_kind]
        assert gap == pytest.approx(3 * deficit * np.array([0, 1, 1, 2]), abs=1e-12)


class TestLog2Det:
    @staticmethod
    def _mp_log2_det(x1, x2):
        """log2 det(I + x1 x1^H + x2 x2^H) in 60-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            m = mpmath.eye(len(x1))
            for x in (x1, x2):
                col = mpmath.matrix([mpmath.mpc(complex(e)) for e in x])
                m += col * col.H
            return float(mpmath.log(mpmath.re(mpmath.det(m)), 2))

    @pytest.mark.parametrize("p", [1.0, 1e4, 1e12])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_matches_mpmath_determinant(self, p, parallel):
        # nearly parallel inputs make (1 + ||x1||^2)(1 + ||x2||^2) - |x2^H x1|^2
        # lose about 5 digits at P = 1e12; the sum of non-negative terms loses
        # only the rotation's rounding, eps ||x1|| against the orthogonal part
        rng = np.random.default_rng(3)
        t = 4
        x2 = sample_complex_gaussian(t, rng, size=6)
        x2 *= np.sqrt(p) / np.linalg.norm(x2, axis=1, keepdims=True)
        x1 = np.sqrt(p) * sample_complex_gaussian(t, rng, size=6)
        if parallel:
            x1 = x2 * np.exp(0.7j) + 1e-6 * x1
        x1t = apply_rotation(x1[:, None, :], x2)[:, 0]
        got = _log2_det(abs_sq(x1t), norm_sq(x2))
        ref = [self._mp_log2_det(a, b) for a, b in zip(x1, x2)]
        assert np.abs(got - ref).max() <= 1e-8

    def test_exact_in_the_rotated_frame(self):
        # x2 along the last slot, where U(x2) = I: nearly parallel inputs at
        # P = 1e12 keep every digit
        rng = np.random.default_rng(4)
        p, t = 1e12, 4
        x2 = np.zeros((6, t), dtype=complex)
        x2[:, -1] = np.sqrt(p)
        x1 = x2 * np.exp(0.7j) + 1e-6 * np.sqrt(p) * sample_complex_gaussian(t, rng, size=6)
        got = _log2_det(abs_sq(x1), norm_sq(x2))
        ref = [self._mp_log2_det(a, b) for a, b in zip(x1, x2)]
        assert np.abs(got - ref).max() <= 1e-13
        assert _log2_det(np.zeros((1, t)), 0.0) == 0.0


def _f_penalty(x1t, x2_norm, t, n=2):
    """User 1's f penalty: the T >= N+1 right-hand side minus the dominant
    h(Y | X) term N log2 det, with x2 along the last slot, where U(x2) = I."""
    x2 = np.zeros(t)
    x2[-1] = x2_norm
    rhs, _, log2_det = _mac_chunk(x1t, x2, n=n)
    return rhs - n * log2_det


class TestEvalF:
    def test_zero_inputs(self):
        assert _f_penalty(np.zeros(4), 0.0, 4) == 0.0

    def test_single_nonzero_entry(self):
        p, t, n = 50.0, 4, 2
        x1t = np.zeros(t)
        x1t[0] = np.sqrt(p)
        assert _f_penalty(x1t, 0.0, t, n) == pytest.approx((t - 1) * np.log2(1 + p))

    def test_exponent_slopes_match_bracket(self):
        from fractions import Fraction

        from simomac.region import _bracket_f

        rng = np.random.default_rng(1)
        t, n = 4, 2
        grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
        for _ in range(20):
            eb1, e1t, e2 = (grid[i] for i in rng.integers(0, 3, size=3))

            def f_at(p):
                x1t = np.zeros(t, dtype=complex)
                x1t[0] = p ** (float(eb1) / 2)
                x1t[-1] = p ** (float(e1t) / 2)
                return _f_penalty(x1t, p ** (float(e2) / 2), t, n)

            slope = (f_at(1e8) - f_at(1e6)) / (np.log2(1e8) - np.log2(1e6))
            assert slope == pytest.approx(float(_bracket_f(eb1, e1t, e2, t, n)), abs=0.02)


class TestEvalG:
    """The T <= N right-hand side per branch (T = 3, N = 2, P = 10):
    branch 0 N log2(1+s2+xT) + (T-1) log2(1 + xT/(1+s2)); branch 1
    (N+T-2) log2(1+m) + N log2(1+s2) + log2(1 + m/(1+s2)); branch 2
    (N+T-2) log2(1+m) + N log2((1+s2+xT)/(1+s2+P)) + N log2(1+s2)
    + log2(1 + P/(1+s2)), where m = |x_v|^2, xT = |x_T|^2, s2 = ||x2||^2."""

    @staticmethod
    def _rhs(x1t, s2):
        *_, rhs, branch = _mac_engine(_mac_low_t, abs_sq(np.asarray(x1t, dtype=complex)), s2,
                                      t=3, p=10.0)
        return rhs[0], branch[0]

    def test_zero_inputs_first_case(self):
        assert self._rhs(np.zeros(3), 0.0) == (0.0, 1)

    def test_dominant_last_entry_third_case(self):
        # m = 1, xT = 10, 1 + s2 = 2: ratio 5 > 1 -> branch 0
        rhs, branch = self._rhs([1.0, 0.0, np.sqrt(10.0)], 1.0)
        assert branch == 0
        assert rhs == pytest.approx(2 * np.log2(12.0) + 2 * np.log2(6.0))

    def test_middle_case_hand_value(self):
        # m = 3, xT = 4, 1 + s2 = 2, P = 10: ratio 2 < 3 and 4 >= max(3, 2)
        # -> branch 2: 3 log2(4) + 2 log2(6/12) + 2 log2(2) + log2(6)
        rhs, branch = self._rhs([np.sqrt(3.0), 0.0, 2.0], 1.0)
        assert branch == 2
        assert rhs == pytest.approx(6.0 + np.log2(6.0))

    def test_boundary_tie_resolves_to_branch_2(self):
        # all squared magnitudes chosen exactly representable:
        # m = 1, xT = 1.5625, 1 + s2 = 1.5625, so the ratio ties with m
        # exactly: the pilot stays on slot 0 (first maximum), and
        # xT >= max(m, 1 + s2) holds with equality, so branch 2 applies
        rhs, branch = self._rhs([1.0, 0.0, 1.25], 0.5625)
        assert np.isfinite(rhs) and branch == 2
        tie = 3 * np.log2(2.0) + 2 * np.log2(3.125 / 11.5625) + 2 * np.log2(1.5625) \
            + np.log2(1.0 + 10.0 / 1.5625)
        assert rhs == pytest.approx(tie)
        # the branch-1 value at the tie point is finite and different
        base = 3 * np.log2(2.0) + 2 * np.log2(1.5625) + np.log2(1.0 + 1.0 / 1.5625)
        assert np.isfinite(base) and rhs != pytest.approx(base)

    def test_mixed_batch_equals_single_trials(self):
        # one trial at a time against a batch that holds all three branches:
        # each trial keeps its own branch's value, bit for bit
        rng = np.random.default_rng(8)
        mag, s2 = rng.exponential(5.0, size=(300, 3)), rng.exponential(2.0, size=300)
        cfg = _cfg(t=3, p=10.0)
        v, *_, branch = _mac_low_t(mag, converse._slot_levels(mag, s2), cfg)
        rhs = _mac_low_t_rhs(mag, s2, v, branch, cfg)
        assert set(branch) == {0, 1, 2}
        single = [_mac_engine(_mac_low_t, m, s, t=3, p=10.0)[3][0] for m, s in zip(mag, s2)]
        assert np.array_equal(rhs, single)


class TestSingleUserBound:
    def test_zero_input_bound_nonnegative(self):
        cfg = _cfg()
        zero = InputDistribution(kind="deterministic_point", T=4, P=100.0,
                                 params={"x": np.zeros(4)})
        rep = duality_bound_single_user(zero, cfg)
        assert rep.value >= -3 * rep.std_error

    def test_genie_cost_constant(self):
        cfg = _cfg()
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_single_user(iso, cfg)
        assert rep.remainder_terms["genie_cost_bits"] == pytest.approx(np.log2(4))

    def test_proposition_inequality_shared_samples(self):
        cfg = _cfg(trials=40_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_single_user(iso, cfg)
        slack = rep.remainder_terms["log_log_slack_bits"]
        assert rep.value <= rep.analytic_rhs_value + slack + 3 * rep.std_error

    @pytest.mark.parametrize("fading,flagged", [("iid_complex_gaussian", False),
                                                ("iid_uniform_annulus", True)])
    def test_h_given_x_flagged_off_gaussian_fading(self, fading, flagged):
        # h(Y|X) is exact under Gaussian fading only, a lower bound otherwise
        cfg = _cfg(trials=2_000, fading=fading)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_single_user(iso, cfg)
        assert rep.remainder_terms["h_order_one_flagged"] is flagged

    def test_low_snr_raises(self):
        cfg = _cfg(t=2, n=1, p=0.01, trials=5_000)
        zero = InputDistribution(kind="deterministic_point", T=2, P=0.01,
                                 params={"x": np.zeros(2)})
        with pytest.raises(InvalidRegime, match="category"):
            duality_bound_single_user(zero, cfg)

    def test_empty_evaluation_half_raises(self):
        # one trial is fitted and none is left to evaluate the bound on
        cfg = _cfg(t=4, n=2, trials=1)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(InvalidParam, match="trials >= 2"):
            duality_bound_single_user(iso, cfg)


class TestMacBound:
    def test_regime_mismatch(self):
        # at T = 1 neither genie exists
        one = InputDistribution(kind="isotropic_peak", T=1, P=100.0)
        with pytest.raises(RegimeUnsupported, match="T >= 2"):
            duality_bound_mac_user1(one, one, _cfg(t=1, n=2))

    def test_genie_follows_regime_objective(self):
        # the one place that picks the MAC genie is region.regime_objective
        for t in range(1, 17):
            for n in range(1, 9):
                cfg = _cfg(t=t, n=n)
                if t == 1:
                    with pytest.raises(RegimeUnsupported):
                        converse._mac_bound(cfg)
                    continue
                bound = converse._mac_bound(cfg)
                if regime_objective(t, n) == "f_exponent":
                    assert bound.genie_cost == np.log2(t - 1) and bound.branches == 1
                else:
                    assert bound.genie_cost == np.log2(2 * t) and bound.branches == 3

    def test_genie_costs(self):
        cfg = _cfg(t=4, n=2, trials=20_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg)
        assert rep.remainder_terms["genie_cost_bits"] == pytest.approx(np.log2(3))
        cfg2 = _cfg(t=2, n=2, trials=20_000)
        i1 = InputDistribution(kind="isotropic_peak", T=2, P=100.0)
        rep2 = duality_bound_mac_user1(i1, i1, cfg2)
        assert rep2.remainder_terms["genie_cost_bits"] == pytest.approx(np.log2(4))
        assert set(rep2.branch_counts) == {0, 1, 2}
        # the report shape: branch counts and the non-pilot pool for the
        # T <= N genie only; every bound gives its evaluation trial count
        su = duality_bound_single_user(iso, cfg)
        branched = ("branch_counts", "nonpilot_pooled_fit")
        assert all(getattr(r, k) is None for r in (su, rep) for k in branched)
        assert all(getattr(rep2, k) is not None for k in branched)
        for r in (su, rep, rep2):
            assert r.eval_trials == 10_000
            assert set(r.remainder_terms) == {"log_log_slack_bits", "genie_cost_bits",
                                              "h_order_one_flagged"}

    @pytest.mark.parametrize("fading", ["iid_complex_gaussian", "iid_uniform_annulus"])
    def test_silent_interferer_matches_single_user(self, fading):
        # with x2 = 0 the rotation is the identity and the MAC machinery
        # must reduce to the single-user bound restricted to T-1 genie
        # slots; the analytic sides coincide exactly, the MC sides differ
        # only through fit-category pooling, whatever the fading: both
        # bounds subtract the same h(Y | X)
        p = 1000.0
        cfg = _cfg(p=p, trials=100_000, seed=29, fading=fading)
        i1 = InputDistribution(kind="isotropic_peak", T=4, P=p)
        zero2 = InputDistribution(kind="deterministic_point", T=4, P=p,
                                  params={"x": np.zeros(4)})
        mac = duality_bound_mac_user1(i1, zero2, cfg)
        su = _single_user_on_slots(i1, cfg, 3)
        assert mac.analytic_rhs_value == pytest.approx(
            su.analytic_rhs_value, abs=0.01
        )
        assert mac.value == pytest.approx(su.value, abs=0.15)

    def test_proposition_inequality_shared_samples(self):
        cfg = _cfg(trials=40_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg)
        slack = rep.remainder_terms["log_log_slack_bits"]
        assert rep.value <= rep.analytic_rhs_value + slack + 3 * rep.std_error


class TestMiEstimates:
    def test_dimension_cap(self):
        cfg = _cfg(t=10, n=2)
        iso = InputDistribution(kind="isotropic_peak", T=10, P=100.0)
        with pytest.raises(InvalidParam):
            mutual_information_lower_estimate(iso, cfg)

    def test_mixture_needs_gaussian_fading(self):
        with pytest.raises(RegimeUnsupported):
            isotropic_mixture_mi_estimate(_cfg(fading="iid_uniform_annulus"))

    def test_mixture_against_knn_low_snr(self):
        # at low SNR the k-NN route is still trustworthy; the two
        # estimators must agree with the k-NN on its biased (high) side
        cfg = _cfg(p=10.0, trials=20_000, seed=5)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=10.0)
        mi_knn = mutual_information_lower_estimate(iso, cfg)
        mi_exact, se = isotropic_mixture_mi_estimate(cfg, trials=4_000)
        assert mi_knn == pytest.approx(mi_exact, abs=0.3)
        assert mi_knn >= mi_exact - 3 * se

    def test_knn_estimate_draws_outputs_for_its_samples_only(self):
        # all 50k inputs are drawn, but fading, noise and outputs only for
        # the 10k k-NN samples; outputs for every trial peaked at 17 MiB
        cfg = _cfg(t=4, n=2, p=100.0, trials=50_000, seed=0)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        tracemalloc.start()
        try:
            mi = mutual_information_lower_estimate(iso, cfg, max_knn_samples=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(mi)
        assert peak < 12 * 2**20

    def test_mixture_rejects_nonpositive_trials(self):
        for trials in (0, -5):
            with pytest.raises(InvalidParam):
                isotropic_mixture_mi_estimate(_cfg(), trials=trials)

    def test_mixture_memory_is_blocked(self):
        # y alone is 10 MiB here; unblocked (B, T, T) temporaries reach ~210 MiB
        cfg = ChannelConfig(T=16, N=4, P=1000.0, trials=10_000, seed=0)
        tracemalloc.start()
        try:
            isotropic_mixture_mi_estimate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_mixture_memory_does_not_grow_with_samples(self, monkeypatch):
        # chunks of 16 samples at T = 32 (footprint T^2).  On one thread:
        # ten times the samples, the same peak within 10 %.  On two, the
        # peak at either sample count stays within 10 % of two one-thread
        # peaks: all that two chunks in flight at once may hold
        cfg = ChannelConfig(T=32, N=8, P=1000.0, trials=10_000, seed=0)

        def peak(samples, threads):
            monkeypatch.setattr(linalg, "cpu_count", lambda: threads)
            tracemalloc.start()
            try:
                isotropic_mixture_mi_estimate(cfg, trials=samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = [peak(samples, 1) for samples in (1_000, 10_000)]
        assert abs(one[1] - one[0]) <= 0.1 * one[0]
        for samples in (1_000, 10_000):
            assert peak(samples, 2) <= 1.1 * 2 * one[0]

    def test_mixture_independent_of_cpu_count(self, monkeypatch):
        # 1,025 samples at T = 4 make two chunks, folded in chunk order
        cfg = _cfg(p=100.0, seed=3)
        assert len(linalg.trial_chunks(1_025, cfg.T**2)) == 2
        results = []
        for threads in (1, 3):
            monkeypatch.setattr(linalg, "cpu_count", lambda: threads)
            results.append(isotropic_mixture_mi_estimate(cfg, trials=1_025))
        assert results[0] == results[1]

    @pytest.mark.parametrize("t,n", [(1, 2), (4, 1)])
    def test_mixture_single_slot_or_antenna_is_quiet(self, t, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mi, se = isotropic_mixture_mi_estimate(_cfg(t=t, n=n), trials=2_000)
        if t == 1:  # one slot carries no direction, so no information
            assert (mi, se) == (0.0, 0.0)
        else:
            assert np.isfinite(mi) and np.isfinite(se) and se > 0

    @pytest.mark.parametrize("t,n", [(32, 8), (4, 2), (3, 4)])
    def test_mixture_slope_up_to_the_power_limit(self, t, n):
        # the statistic takes no difference of two O(P) terms and nothing
        # underflows, so the pre-log (T-1)/T holds up to 290 dB
        dbs = np.array([100.0, 200.0, 290.0])
        mi = [isotropic_mixture_mi_estimate(_cfg(t=t, n=n, p=10 ** (db / 10)), trials=3_000)[0]
              for db in dbs]
        slopes = np.diff(mi) / np.diff(dbs / 10 * np.log2(10))
        assert np.abs(slopes - (t - 1) / t).max() <= 1e-3

    @pytest.mark.parametrize("p_db", [10, 30])
    def test_mixture_is_the_conditioned_information_density(self, p_db):
        # on the oracle's own draws, rebuilt chunk by chunk in the frame
        # where the input's direction u is e_1, the sampled information
        # density ln p(Y | x) - ln p(Y) has the oracle's mean at a larger
        # spread (their difference per sample is u^H A u - E[u^H A u | Y]),
        # and the plain -ln p(Y) - h(Y | X), which adds the zero-mean
        # ln p(Y | x) + h(Y | X) = u^H A u - ||Y||^2 + NT, a larger spread still
        cfg = _cfg(p=10 ** (p_db / 10), seed=4)
        b, t = 3_000, cfg.T
        mi, se = isotropic_mixture_mi_estimate(cfg, trials=b)
        starts = linalg.trial_chunks(b, t * t)
        y = np.concatenate([
            converse._mixture_outputs(cfg, np.random.default_rng(linalg.chunk_seed(cfg.seed, 2, i)),
                                      min(starts.step, b - lo))
            for i, lo in enumerate(starts)])
        c = cfg.P / (1.0 + cfg.P)
        mu = np.linalg.eigvalsh(c * np.einsum("bns,bnt->bst", y, y.conj()))[:, ::-1]
        log_dd, ratio = log_divided_difference_exp(mu - mu[:, :1])
        quad = c * norm_sq(y[:, :, 0])  # u^H A u at u = e_1
        sampled = (quad - mu[:, 0] - log_dd - lgamma(t)) / (t * LN2)
        diff = (quad - mu[:, 0] - ratio + (t - 1)) / (t * LN2)
        plain = sampled - (quad - norm_sq(y.reshape(b, -1)) + cfg.N * t) / (t * LN2)
        assert mi == pytest.approx((sampled - diff).mean(), rel=1e-12)  # the oracle's draws
        assert abs(mi - sampled.mean()) <= 3 * diff.std() / np.sqrt(b)
        assert se <= 0.9 * sampled.std() / np.sqrt(b)
        assert se <= 0.65 * plain.std() / np.sqrt(b)


def _eval_chunks(bound, inputs, cfg, trials, chunk=50_000):
    """The engine's evaluation terms of ``bound`` on ``trials`` fresh
    trials, drawn ``chunk`` at a time through the source that production
    runs for cfg's fading (the drawn one under Gaussian fading): (white, v,
    branch, log_sq, lin, variate) concatenated, branch 0 when unbranched,
    with the control variate ln(||y_perp||^2 / sigma^2) - psi(N - 1) of
    each non-pilot slot (0 at the pilot) under the Gaussian-fading row
    model."""
    parts = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(-(-trials // chunk)):
        rng = np.random.default_rng(seed)
        xs = sample_inputs(inputs, cfg, rng, size=chunk)
        source = converse._SOURCES[cfg.fading_kind](len(inputs), cfg, rng, chunk, {})
        x1t, s2 = bound.levels(xs)
        mag = abs_sq(x1t)
        s = converse._slot_levels(mag, s2)
        v, c, d, branch = bound.pilot(mag, s, cfg)
        chunk_parts = source(x1t, s2, mag, s, v)
        white, denom = converse._whiten(chunk_parts, v, s, c, d)
        log_sq, lin = converse._conditioned_terms(white, denom, mag, v, s, chunk_parts.model,
                                                  cfg.N)
        sigma2, _ = converse._residual_variance(mag, s, v)
        off = np.arange(cfg.T) != v[:, None]
        variate = np.log(np.where(off, chunk_parts.perp, sigma2) / sigma2) \
            - converse._digamma(cfg.N - 1)
        parts.append((white, v, branch, log_sq, lin, np.where(off, variate, 0.0)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _within(diff, sigmas):
    """|mean| of a sample of differences within ``sigmas`` standard errors."""
    return abs(diff.mean()) <= sigmas * diff.std() / np.sqrt(diff.size)


def _paired_statistics(monkeypatch, inputs, cfg, powers, fading_check=None):
    """duality_bounds on ``inputs`` at ``powers``, and for each point and
    bound, keyed (P, len(names)), the (conditioned, sampled, log-sampled)
    statistics of its evaluation trials: the engine's own, the one that
    reads the sampled norms' terms, and the engine's with the sampled
    ln ||w_t||^2 in place of its own, on the same draws and fitted
    members, all formed by the engine's kernel functions from each chunk's
    whitening inputs, from the source that production runs, and pilot."""
    stats = {}
    real = converse._PointSums.eval_chunk

    def eval_chunk(acc, parts, mag, s2, v, s, c, d, branch):
        white, denom = converse._whiten(parts, v, s, c, d)
        group = acc._groups(v, branch)
        log_sq, lin = converse._conditioned_terms(white, denom, mag, v, s, parts.model,
                                                  acc.cfg.N)
        log_det = converse._log_det(s, denom, v, acc.cfg.N)
        h_given_x = converse._h_given_x(mag, s2, acc.cfg)
        log_sampled = log_norm_sq(white)
        np.put(log_sampled, np.arange(len(v)) * white.shape[1] + v,
               np.take(log_sq, np.arange(len(v)) * white.shape[1] + v))
        pair = (acc.statistic(group, log_det, log_sq, lin, h_given_x),
                acc.statistic(group, log_det, log_norm_sq(white), white, h_given_x),
                acc.statistic(group, log_det, log_sampled, lin, h_given_x))
        stats.setdefault((acc.cfg.P, len(acc.bound.names)), []).append(pair)
        if fading_check:
            fading_check(acc, white, group, log_det, log_sq, lin, h_given_x, pair[0])
        return real(acc, parts, mag, s2, v, s, c, d, branch)

    monkeypatch.setattr(converse._PointSums, "eval_chunk", eval_chunk)
    reports = converse.duality_bounds(*inputs, cfg, powers=powers)
    paired = {key: tuple(np.concatenate(p) for p in zip(*chunks)) for key, chunks in stats.items()}
    return reports, paired


class TestConditionedStatistic:
    """The Rao-Blackwellised terms of -ln q(Y) under Gaussian fading."""

    @pytest.mark.parametrize("case", ["single_user", "last_slot", "branch0", "branch1",
                                      "branch2"])
    def test_conditional_means_are_unbiased(self, case):
        # each replaced term minus its sampled value has mean 0 over 2e5
        # trials: the non-pilot ||w_t||^2 given (x, y_v), the pilot's
        # ln ||y_v||^2 and ||y_v||^2 given x; for the T <= N genie branch 2
        # needs a weak user 2, so both users draw exponential norms.  The
        # control variate of each non-pilot ln ||w_t||^2, the log of a
        # Gamma(N - 1, 1) orthogonal part less its mean psi(N - 1), has
        # mean 0 too
        if case == "single_user":
            cfg = _cfg(t=4, n=2, p=100.0, seed=11)
            bound, inputs = converse._single_user_bound(4), [_iso(cfg)]
        elif case == "last_slot":
            cfg = _cfg(t=4, n=2, p=100.0, seed=12)
            bound, inputs = converse._mac_bound(cfg), [_iso(cfg), _iso(cfg)]
        else:
            cfg = _cfg(t=2, n=2, p=100.0, seed=13)
            bound = converse._mac_bound(cfg)
            inputs = [InputDistribution(kind="exponential_norm", T=2, P=p) for p in (100.0, 1.0)]
        white, v, branch, log_sq, lin, variate = _eval_chunks(bound, inputs, cfg, 200_000)
        rows = np.arange(len(v))
        slots = np.arange(cfg.T) != v[:, None]
        if case == "last_slot":
            slots[:, :-1] = False
        trials = branch == int(case[-1]) if case.startswith("branch") else rows >= 0
        assert trials.sum() >= 30_000
        off = np.where(slots, white - lin, 0.0).sum(axis=1)[trials]
        assert _within(off, 4)
        assert _within(np.where(slots, variate, 0.0).sum(axis=1)[trials], 4)
        pv = rows[trials], v[trials]
        assert _within(log_norm_sq(white[pv]) - log_sq[pv], 4)
        assert _within(white[pv] - lin[pv], 4)

    @pytest.mark.parametrize("t,n", [(3, 4), (4, 2)])
    def test_same_mean_smaller_error_on_the_same_draws(self, monkeypatch, t, n):
        # the engine's value and error are those of the conditioned
        # statistic; against the sampled one on the same draws its paired
        # mean difference is within 3 SE, and its SE is at most 0.7x.  At
        # N >= 3 the control variate of ln ||w_t||^2 alone keeps the mean
        # (3 SE) and cuts the SE to at most 0.6x; at N = 2 the log term is
        # the sampled one
        cfg = _cfg(t=t, n=n, p=10.0, trials=100_000, seed=0)
        (single, mac), paired = _paired_statistics(monkeypatch, [_iso(cfg), _iso(cfg)], cfg,
                                                   [10.0, 1000.0])
        for k, p in enumerate((10.0, 1000.0)):
            for rep, names in ((single[k], 2), (mac[k], 3)):
                cond, sampled, log_sampled = paired[(p, names)]
                assert cond.size == rep.eval_trials == 50_000
                assert rep.value == pytest.approx(cond.mean(), rel=1e-12)
                assert rep.std_error == pytest.approx(cond.std() / np.sqrt(cond.size), rel=1e-9)
                assert _within(cond - sampled, 3)
                assert cond.std() <= 0.7 * sampled.std()
                if n >= 3:
                    assert _within(cond - log_sampled, 3)
                    assert cond.std() <= 0.6 * log_sampled.std()
                else:
                    assert np.array_equal(cond, log_sampled)

    def test_annulus_reads_the_sampled_norms(self, monkeypatch):
        # off Gaussian fading the terms are the sampled norms' own, and the
        # statistic is the density of the whitened norms, bit for bit
        def check(acc, white, group, log_det, log_sq, lin, h_given_x, stat):
            assert lin is white
            assert np.array_equal(log_sq, np.log(np.maximum(white, 1e-300)))
            log_norm, shape, beta = acc.table[:, group]
            ln_q = log_norm + shape * np.log(np.maximum(white, 1e-300)) - white / beta
            neg_q = -(ln_q.sum(axis=1) + log_det.sum(axis=1)) / np.log(2.0)
            assert np.array_equal(stat, (neg_q - h_given_x + acc.bound.genie_cost) / acc.cfg.T)
            seen.append(len(stat))

        seen = []
        cfg = _cfg(t=3, n=4, p=100.0, trials=4_000, seed=5, fading="iid_uniform_annulus")
        _, paired = _paired_statistics(monkeypatch, [_iso(cfg), _iso(cfg)], cfg, [100.0, 1e4],
                                       fading_check=check)
        assert sum(seen) == 4 * 2_000
        for cond, sampled, _ in paired.values():
            assert np.array_equal(cond, sampled)

    @pytest.mark.parametrize("n,fading", [(4, "iid_complex_gaussian"), (2, "iid_complex_gaussian"),
                                          (4, "iid_uniform_annulus")])
    def test_log_term_carries_the_variate_from_three_antennas(self, n, fading):
        # the non-pilot ln ||w_t||^2 is ln ||w_t||^2 less the control
        # variate under Gaussian fading with N >= 3, and the sampled
        # ln ||w_t||^2 bit for bit at N = 2 and off Gaussian fading; both
        # genies of the MAC at T = 3 and the single-user one
        cfg = _cfg(t=3, n=n, p=1000.0, seed=14, fading=fading)
        for bound in (converse._single_user_bound(3), converse._mac_bound(cfg)):
            white, v, _, log_sq, _, variate = _eval_chunks(bound, [_iso(cfg), _iso(cfg)], cfg,
                                                           4_000, chunk=2_000)
            off = np.arange(cfg.T) != v[:, None]
            if n >= 3 and fading == "iid_complex_gaussian":
                assert np.allclose(log_sq[off], np.log(white[off]) - variate[off], rtol=1e-13,
                                   atol=1e-13)
            else:
                assert np.array_equal(log_sq[off], log_norm_sq(white[off]))

    @pytest.mark.parametrize("interferer", [True, False])
    def test_residual_variance_keeps_every_digit(self, interferer):
        # K_tt - |K_tv|^2 / K_vv loses every digit at 140 dB; the sum of
        # non-negative terms matches 60-digit arithmetic to 1e-12
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        p, b, t = 1e14, 40, 4
        x1 = np.sqrt(p) * sample_complex_gaussian(t, rng, size=b)
        mag = abs_sq(x1) / t
        s2 = p * rng.uniform(0.5, 2.0, size=b) if interferer else 0.0
        v = np.arange(b) % t  # the pilot on the last, interfered slot too
        sigma2, k_vv = converse._residual_variance(mag, converse._slot_levels(mag, s2), v)
        s2s = np.broadcast_to(s2, (b,))
        with mpmath.workdps(60):
            for i in range(b):
                m = [mpmath.mpf(float(e)) for e in mag[i]]
                k = [1 + m[j] + (mpmath.mpf(float(s2s[i])) if j == t - 1 else 0) for j in range(t)]
                assert float(k[v[i]]) == pytest.approx(k_vv[i], rel=1e-15)
                for j in range(t):
                    if j != v[i]:
                        ref = k[j] - m[j] * m[v[i]] / k[v[i]]
                        assert abs(sigma2[i, j] / ref - 1) <= 1e-12

    def test_digamma_of_integers(self):
        mpmath = pytest.importorskip("mpmath")
        for n in (1, 2, 3, 8, 40):
            assert converse._digamma(n) == pytest.approx(float(mpmath.digamma(n)), rel=1e-14)


def _same_law(a, b, sigmas=4):
    """Whether samples a and b agree in mean and in variance within
    ``sigmas`` combined standard errors, the variance's from the fourth
    central moment."""
    def moments(x):
        dev = x - x.mean()
        var = (dev * dev).mean()
        return x.mean(), var / x.size, var, ((dev**4).mean() - var * var) / x.size

    (ma, sa, va, sva), (mb, sb, vb, svb) = moments(a), moments(b)
    return abs(ma - mb) <= sigmas * np.sqrt(sa + sb) and abs(va - vb) <= sigmas * np.sqrt(sva + svb)


# Fixed inputs per genie case: (bound, T, N values, x1, x2); x2 along the
# last slot leaves x1 unrotated, and with ||x2||^2 = 3 the (V, U) genie
# takes the branch of the case's name (mag / s = (1, 2.5) or (1, 1, 2.5)
# puts the pilot last; (6, 8) and (6, 1, 8) have the last entry dominate)
_LAW_CASES = {
    "single_user": ("single_user", 3, (1, 2, 4), [2.0, 5.0j, 0.5 + 0.5j], None),
    "mac_high_t": ("mac", None, (1, 2, 4), None, None),
    "branch0_t2": ("mac", 2, (2,), [1.0, np.sqrt(10.0)], 3.0),
    "branch1_t2": ("mac", 2, (2,), [np.sqrt(6.0), np.sqrt(2.0)], 3.0),
    "branch2_t2": ("mac", 2, (2,), [np.sqrt(6.0), np.sqrt(8.0)], 3.0),
    "branch0_t3": ("mac", 3, (4,), [1.0, 1.0, np.sqrt(10.0)], 3.0),
    "branch1_t3": ("mac", 3, (4,), [np.sqrt(6.0), 1.0, np.sqrt(2.0)], 3.0),
    "branch2_t3": ("mac", 3, (4,), [np.sqrt(6.0), 1.0, np.sqrt(8.0)], 3.0),
}


class TestDrawnSource:
    """Under Gaussian fading the bounds draw each slot's whitening inputs
    from their law given X instead of projecting drawn outputs."""

    @staticmethod
    def _parts(source, bound, x1, x2, cfg, trials, chunk=50_000):
        """(v, branch, nv2, along, perp, white) of ``trials`` draws of the
        fixed inputs (x1, x2) through ``source``, made as source(2, cfg,
        rng, size, scratch) for each ``chunk`` of trials."""
        xs = [np.broadcast_to(np.asarray(x, dtype=complex), (chunk, cfg.T)).copy()
              for x in (x1, x2)]
        out, scratch = [], {}
        for seed in np.random.SeedSequence(cfg.seed).spawn(trials // chunk):
            parts_of = source(2, cfg, np.random.default_rng(seed), chunk, scratch)
            x1t, s2 = bound.levels(xs)
            mag = abs_sq(x1t)
            s = converse._slot_levels(mag, s2)
            v, c, d, branch = bound.pilot(mag, s, cfg)
            parts = parts_of(x1t, s2, mag, s, v)
            white, _ = converse._whiten(parts, v, s, c, d)
            out.append((v, branch, parts.nv2, parts.along, parts.perp, white))
        return tuple(np.concatenate(p) for p in zip(*out))

    @pytest.mark.parametrize("case", list(_LAW_CASES))
    def test_each_slot_has_the_law_of_the_outputs(self, case):
        # for fixed inputs, per slot, ||y_v||^2, the parts along and
        # orthogonal to u and the whitened norm of the drawn source agree
        # in mean and variance, within 4 standard errors over 2e5 draws,
        # with the outputs source's on drawn Gaussian outputs
        kind, t, ns, x1, x2 = _LAW_CASES[case]
        for n in ns:
            t_n = n + 1 if t is None else t
            cfg = _cfg(t=t_n, n=n, p=100.0, seed=40 + n)
            if x1 is None:  # generic inputs, rotated by U(x2)
                rng = np.random.default_rng(n)
                x1_n, x2_n = (3.0 * sample_complex_gaussian(t_n, rng) for _ in range(2))
            else:
                x1_n, x2_n = x1, np.zeros(t_n)
                x2_n[-1] = np.sqrt(x2 or 0.0)
            bound = converse._single_user_bound(t_n) if kind == "single_user" \
                else converse._mac_bound(cfg)
            drawn = self._parts(converse._drawn_source, bound, x1_n, x2_n, cfg, 200_000)
            outputs = self._parts(converse._output_source, bound, x1_n, x2_n, cfg, 200_000)
            v, branch = drawn[0][0], drawn[1][0]
            assert (drawn[0] == v).all() and (outputs[0] == v).all() and (drawn[1] == branch).all()
            if case.startswith("branch"):
                assert branch == int(case[6])
            elif kind == "mac":
                assert bound.branches == 1 and v < t_n - 1
            assert _same_law(drawn[2], outputs[2])
            for got in (drawn, outputs):  # at the pilot: along ||y_v||^2, perp 0
                assert np.allclose(got[3][:, v], got[2], rtol=1e-12, atol=0.0)
                assert (got[4][:, v] == 0.0).all()
            for slot in set(range(t_n)) - {v}:
                for k in (3, 5):
                    assert _same_law(drawn[k][:, slot], outputs[k][:, slot])
                if n == 1:  # no orthogonal part: rounding only, for the outputs
                    assert (drawn[4][:, slot] == 0.0).all()
                    assert outputs[4][:, slot].max() <= 1e-20 * outputs[3][:, slot].max()
                else:
                    assert _same_law(drawn[4][:, slot], outputs[4][:, slot])

    @pytest.mark.parametrize("t,n,p,trials", [(4, 2, 10.0, 40_000), (3, 4, 100.0, 40_000),
                                              (32, 8, 100.0, 10_000)])
    def test_bounds_match_the_outputs_source(self, monkeypatch, t, n, p, trials):
        # both bounds through the drawn source, with its Rao-Blackwellised
        # terms, against the outputs source's sampled ones on the same
        # inputs: within 4 combined standard errors
        cfg = _cfg(t=t, n=n, p=p, trials=trials, seed=6)
        drawn = duality_bounds(_iso(cfg), _iso(cfg), cfg)
        monkeypatch.setitem(converse._SOURCES, cfg.fading_kind, converse._output_source)
        outputs = duality_bounds(_iso(cfg), _iso(cfg), cfg)
        for a, b in zip(drawn, outputs):
            assert a.std_error < b.std_error
            assert abs(a.value - b.value) <= 4 * np.hypot(a.std_error, b.std_error)


class TestPooledFit:
    def test_sparse_branch_is_reported(self):
        # at T=3, N=4, 20 dB the pilot lands on the last slot (branch 0)
        # in well under 1 % of the trials: too few to fit on their own
        cfg = _cfg(t=3, n=4, p=100.0, trials=20_000, seed=1)
        iso = InputDistribution(kind="isotropic_peak", T=3, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg)
        pooled = rep.pooled_fit
        assert rep.branch_counts[0] < 100
        assert "branch0/pilot" in pooled
        assert set(pooled) <= set(rep.fitted)
        assert "branch1/pilot" not in pooled

    def test_own_fit_first_then_branches_then_nonpilot(self):
        # synthetic fit sums per (branch, category): a group with >= 100
        # samples is fitted on its own unless its mean is <= 1; a group
        # with fewer falls to its pool over branches; the last category
        # (mean 0.5 in every branch) falls on to the non-pilot pool
        cfg = _cfg(t=3, n=4, p=100.0, trials=1_000)
        acc = converse._PointSums.empty(converse._mac_bound(cfg), cfg)
        count = np.array([[150, 150, 150], [150, 150, 150], [50, 150, 150]])
        mean = np.array([[5.0, 4.0, 0.5], [0.5, 2.0, 0.5], [5.0, 3.0, 0.5]])
        acc.rows.fold(NormSqSums(count, count * mean, np.ones((3, 3))))
        acc.fit()
        branches = (150 * 5.0 + 150 * 0.5 + 50 * 5.0) / 350
        nonpilot = 150 * (4.0 + 2.0 + 3.0 + 3 * 0.5) / 900
        assert [(label, pool, member.beta) for label, member, pool in acc.members] == [
            ("branch0/pilot", None, 5.0), ("branch0/middle", None, 4.0),
            ("branch0/last", "nonpilot", nonpilot), ("branch1/pilot", "branches", branches),
            ("branch1/middle", None, 2.0), ("branch1/last", "nonpilot", nonpilot),
            ("branch2/pilot", "branches", branches), ("branch2/middle", None, 3.0),
            ("branch2/last", "nonpilot", nonpilot)]

    def test_unbranched_bounds_never_pool(self):
        cfg = _cfg(t=4, n=2, trials=300)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        assert duality_bound_single_user(iso, cfg).pooled_fit == []
        mac = duality_bound_mac_user1(iso, iso, cfg)
        assert mac.pooled_fit == []


class TestStreamingEngine:
    @pytest.mark.parametrize("bound", ["mac", "single_user", "both"])
    def test_memory_is_chunked(self, bound):
        # one (B, N, T) complex array alone is 40 MiB here
        cfg = ChannelConfig(T=32, N=8, P=100.0, trials=10_000, seed=0)
        iso = InputDistribution(kind="isotropic_peak", T=32, P=100.0)
        tracemalloc.start()
        try:
            if bound == "mac":
                duality_bound_mac_user1(iso, iso, cfg)
            elif bound == "both":
                duality_bounds(iso, iso, cfg)
            else:
                duality_bound_single_user(iso, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # both bounds at two powers keep per-chunk rows only.  On one
        # thread: ten times the trials, the same peak within 10 %.  On two,
        # how the threads' chunks overlap in time varies from run to run,
        # and so does the peak, so there the peak at either trial count
        # stays within 10 % of two one-thread peaks: all that two chunks in
        # flight at once may hold
        iso = InputDistribution(kind="isotropic_peak", T=32, P=100.0)

        def peak(trials, threads):
            monkeypatch.setattr(linalg, "cpu_count", lambda: threads)
            cfg = ChannelConfig(T=32, N=8, P=100.0, trials=trials, seed=0)
            tracemalloc.start()
            try:
                duality_bounds(iso, iso, cfg, powers=[100.0, 1000.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = [peak(trials, 1) for trials in (2_000, 20_000)]
        assert abs(one[1] - one[0]) <= 0.1 * one[0]
        for trials in (2_000, 20_000):
            assert peak(trials, 2) <= 1.1 * 2 * one[0]

    @pytest.mark.parametrize("t,n,trials,step,flat,square", [
        (32, 8, 5_000, 500, 5_000, 16), (32, 1, 5_000, 500, 5_000, 16),
        (3, 4, 50_000, 5000, 12_500, 1_786), (16_384, 1, 5, 2, 5, 2)])
    def test_chunk_length_rule(self, t, n, trials, step, flat, square):
        # ceil(trials / 2) fit trials, the rest evaluate; both streams are
        # cut into chunks of the same length, as equal as the cap of
        # max(2, 2^14 // T) trials allows, whatever N: 5 x 500 (cap 512)
        # and 5 x 5,000 (cap 5,461).  The same rule at footprint 1 (the
        # training rates: cap 2^14) and T^2 (the mixture: cap 16 at T = 32,
        # 1,820 at T = 3 and 2 at T = 2^14) cuts all the trials into chunks
        # of ``flat`` and ``square`` trials
        cfg = _cfg(t=t, n=n, trials=trials)
        fit = {5_000: 2_500, 50_000: 25_000, 5: 3}[trials]
        for starts, size, length in (
                (linalg.trial_chunks((cfg.trials + 1) // 2, cfg.T), fit, step),
                (linalg.trial_chunks(cfg.trials // 2, cfg.T), trials - fit, step),
                (linalg.trial_chunks(trials, 1), trials, flat),
                (linalg.trial_chunks(trials, t * t), trials, square)):
            assert _chunk_bounds(starts) == [
                (lo, min(lo + length, size)) for lo in range(0, size, length)]

    def test_three_chunks_and_an_odd_remainder(self, monkeypatch):
        # T = 2: 2 slots per trial, so at most 100 trials per chunk; the
        # 301 fit trials make three chunks of 76 and an odd remainder of 73,
        # the 300 evaluation trials three chunks of 100
        monkeypatch.setattr(linalg, "_CHUNK_SLOTS", 200)
        cfg = _cfg(t=2, n=2, p=10.0, trials=601, seed=2)
        assert _chunk_bounds(linalg.trial_chunks((cfg.trials + 1) // 2, cfg.T)) == [
            (0, 76), (76, 152), (152, 228), (228, 301)]
        assert _chunk_bounds(linalg.trial_chunks(cfg.trials // 2, cfg.T)) == [
            (0, 100), (100, 200), (200, 300)]
        iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
        rep = duality_bound_mac_user1(iso, iso, cfg)
        assert sum(rep.branch_counts.values()) == 601 // 2
        again = duality_bound_mac_user1(iso, iso, cfg)
        assert (rep.value, rep.std_error) == (again.value, again.std_error)

    @pytest.mark.parametrize("fading", ["iid_complex_gaussian", "iid_uniform_annulus"])
    def test_fit_stream_with_more_chunks(self, monkeypatch, fading):
        # T = 4 caps a chunk at 4,096 trials: the 8,193 fit trials take
        # three chunks, the 8,192 evaluation trials two longer chunks, so
        # off Gaussian fading each thread's output buffers grow with the
        # longer chunks
        cfg = _cfg(t=4, n=2, p=100.0, trials=16_385, seed=3, fading=fading)
        assert _chunk_bounds(linalg.trial_chunks((cfg.trials + 1) // 2, cfg.T)) == [
            (0, 2_731), (2_731, 5_462), (5_462, 8_193)]
        assert _chunk_bounds(linalg.trial_chunks(cfg.trials // 2, cfg.T)) == [
            (0, 4_096), (4_096, 8_192)]
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        monkeypatch.setattr(linalg, "cpu_count", lambda: 1)
        one = duality_bounds(iso, iso, cfg)
        monkeypatch.setattr(linalg, "cpu_count", lambda: 3)
        assert duality_bounds(iso, iso, cfg) == one

    def test_many_threads_fold_every_chunk(self, monkeypatch):
        # 201 chunks over the two passes, on more threads than CPUs,
        # switching threads every microsecond: a lost or misplaced row would
        # change the report, also on a three-power grid of both bounds
        monkeypatch.setattr(linalg, "_CHUNK_SLOTS", 20)
        cfg = _cfg(t=2, n=2, p=100.0, trials=2_001, seed=8)
        iso = InputDistribution(kind="isotropic_peak", T=2, P=100.0)
        powers = [10.0, 100.0, 1000.0]

        def both():
            # errors compare by type and message, should a point fail (at
            # 30 dB branch 0 has evaluation trials but no fit trial, and its
            # middle slot is fitted on the pool of every non-pilot group)
            single, mac = duality_bounds(iso, iso, cfg, powers=powers)
            return duality_bound_mac_user1(iso, iso, cfg), [
                (type(rep), str(rep)) if isinstance(rep, Exception) else rep
                for rep in single + mac]

        monkeypatch.setattr(linalg, "cpu_count", lambda: 1)
        one = both()
        monkeypatch.setattr(linalg, "cpu_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = both()
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_thread_keeps_one_scratch(self, monkeypatch, workers):
        # every chunk a thread runs sees that thread's dict, and only it
        monkeypatch.setattr(linalg, "cpu_count", lambda: workers)
        seen = {}

        def run(i, scratch):
            seen[i] = (threading.get_ident(), id(scratch))

        linalg.run_chunks(run, 40)
        assert sorted(seen) == list(range(40))
        assert len(set(seen.values())) == len({thread for thread, _ in seen.values()})
        assert len(set(seen.values())) <= workers

    def test_fold_sees_every_result_in_chunk_order(self, monkeypatch):
        # chunks finish out of order on more threads than CPUs, switching
        # threads every microsecond; the folds must still come in order
        monkeypatch.setattr(linalg, "cpu_count", lambda: 6)
        folded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            linalg.run_chunks(lambda i, scratch: i, 300, fold=folded.append)
        finally:
            sys.setswitchinterval(interval)
        assert folded == list(range(300))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunk_error_stops_the_run(self, monkeypatch, workers):
        # 20 chunks per stream; every chunk from chunk 1 on raises when it
        # draws
        monkeypatch.setattr(linalg, "_CHUNK_SLOTS", 200)
        monkeypatch.setattr(linalg, "cpu_count", lambda: workers)
        started = []
        real = converse.sample_point_inputs

        def sample_point_inputs(points, seed, size):
            stream, chunk = seed.spawn_key
            started.append((stream, chunk))
            if chunk >= 1:
                raise InvalidParam(f"chunk {chunk} failed")
            return real(points, seed, size)

        monkeypatch.setattr(converse, "sample_point_inputs", sample_point_inputs)
        cfg = _cfg(t=2, n=2, p=10.0, trials=4_000, seed=4)
        iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
        assert len(linalg.trial_chunks((cfg.trials + 1) // 2, cfg.T)) == 20
        threads = threading.active_count()
        with pytest.raises(InvalidParam, match="^chunk 1 failed$"):
            duality_bound_single_user(iso, cfg)
        assert threading.active_count() == threads
        # fit chunk 0 is the only one that succeeds, each thread stops
        # after its first failure, and the evaluation pass never starts
        assert {(0, 0), (0, 1)} <= set(started)
        assert len(started) <= 1 + workers

    def test_folded_chunks_match_the_direct_statistic(self):
        # the terms ln ||w||^2 and ||w||^2 that -ln q reads are synthetic
        # conditional means, not those of the norms
        self._folded_against_direct("conditioned")

    def test_sampled_terms_give_the_density_of_the_norms(self):
        self._folded_against_direct("sampled")

    @staticmethod
    def _folded_against_direct(terms):
        """Fit and evaluation chunks of synthetic norms, folded one by one,
        against the bound statistic of all evaluation trials at once with
        each group's density, read from the chunks' ``terms``.  Each chunk
        runs through fit_chunk or eval_chunk with the whitening kernel,
        ln |det A|^2, the terms, h(Y | X) and the rhs giving its values."""
        cfg = _cfg(t=3, n=4, p=100.0, trials=1_000)
        bound = converse._mac_bound(cfg)  # branched: T <= N
        acc = converse._PointSums.empty(bound, cfg)
        rng = np.random.default_rng(6)

        def chunk(b):
            # (white, v, branch, log_det, log_sq, lin, rhs, h_given_x)
            white = rng.gamma(3.0, 2.0, size=(b, 3))
            log_sq, lin = (rng.normal(size=(b, 3)), rng.gamma(2.0, 3.0, size=(b, 3)))
            if terms == "sampled":
                log_sq, lin = log_norm_sq(white), white
            return (white, rng.integers(0, 3, size=b), rng.integers(0, 3, size=b),
                    rng.normal(size=(b, 3)), log_sq, lin, rng.normal(size=b), rng.normal(size=b))

        def fold(work, white, v, branch, log_det, log_sq, lin, rhs, h_given_x):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(converse, "_whiten", lambda *args: (white, None))
                mp.setattr(converse, "_log_det", lambda *args: log_det)
                mp.setattr(converse, "_conditioned_terms", lambda *args: (log_sq, lin))
                mp.setattr(converse, "_h_given_x", lambda *args: h_given_x)
                mp.setattr(acc, "bound", replace(bound, rhs=lambda *args: rhs))
                acc.fold(*work(converse._Parts(None, None, None), None, None, v, None, None,
                               None, branch))

        for b in (300, 200):
            fold(acc.fit_chunk, *chunk(b))
        acc.fit()
        chunks = [chunk(b) for b in (250, 180, 70)]
        for c in chunks:
            fold(acc.eval_chunk, *c)
        rep = acc.report()

        white, v, br, log_det, log_sq, lin, rhs, h = (np.concatenate(p) for p in zip(*chunks))
        group = converse._categories(v, 3, 3) + 3 * br[:, None]
        ln_q = np.zeros(white.shape)
        for label, (alpha, beta) in rep.fitted.items():
            k = 3 * int(label[6]) + converse.MAC_CATEGORIES.index(label.split("/")[1])
            member = AuxDistParams(n=4, alpha=alpha, beta=beta)
            at = group == k
            ln_q[at] = log_normalizer(member) + (alpha - 4) * log_sq[at] - lin[at] / beta
            if terms == "sampled":
                assert ln_q[at] == pytest.approx(log_density_from_norm_sq(white[at], member),
                                                 rel=1e-13)
        neg_q = -(ln_q.sum(axis=1) + log_det.sum(axis=1)) / np.log(2.0)
        stat = (neg_q - h + bound.genie_cost) / 3
        assert rep.value == pytest.approx(stat.mean(), rel=1e-12)
        assert rep.std_error == pytest.approx(stat.std() / np.sqrt(500), rel=1e-9)
        assert rep.eval_trials == 500
        assert rep.analytic_rhs_value == pytest.approx(
            np.mean((rhs - h + bound.genie_cost) / 3), rel=1e-9)
        assert rep.branch_counts == {k: int((br == k).sum()) for k in range(3)}

    def test_whitening_by_chunks_is_bit_identical(self):
        # both sources' parts, the whitened norms and the scales of a chunk
        # are those of its rows in a longer chunk, bit for bit
        rng = np.random.default_rng(7)
        b, n, t = 301, 3, 5
        yt = sample_complex_gaussian(t, rng, size=(b, n))
        v = rng.integers(0, t, size=b)
        s = 1.0 + rng.uniform(size=(b, t))
        c = rng.uniform(size=(b, t))
        d = rng.uniform(size=(b, t))
        mag = rng.exponential(5.0, size=(b, t))
        draws = (rng.gamma(n, size=b), sample_complex_gaussian(t, rng, size=b),
                 rng.gamma(n - 1, size=(b, t)))

        def kernel(at):
            projected = converse._project(yt[at], v[at])
            drawn = converse._drawn_parts(tuple(x[at] for x in draws), mag[at], s[at], v[at])
            return (*projected[:3], *converse._whiten(projected, v[at], s[at], c[at], d[at]),
                    *drawn[:3], *drawn.model, *converse._whiten(drawn, v[at], s[at], c[at], d[at]))

        whole = kernel(np.s_[:])
        parts = [kernel(np.s_[i:i + 100]) for i in range(0, b, 100)]
        assert len(whole) == 13
        for k in range(len(whole)):
            assert np.array_equal(whole[k], np.concatenate([p[k] for p in parts]))

    def test_whitening_parts_keep_their_digits(self):
        # at 140 dB ||y||^2 - |<y, u>|^2 keeps one to three digits; the
        # outputs source's parts of the projection form and their whitened
        # sum match 60-digit arithmetic on the same outputs per slot: the
        # part along u to 16 eps, the orthogonal part and the sum to
        # 4 eps (1 + |<y, u>| / ||y_perp||), the orthogonal part's
        # rounding being of order eps |<y, u>| against ||y_perp||, with
        # |<y, u>| of order sqrt(P) (measured over seeds 0-59: 3.6 eps,
        # and 1.03 and 0.90 times eps (1 + |<y, u>| / ||y_perp||))
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        cfg = _cfg(t=4, n=2, p=1e14)
        rng = np.random.default_rng(cfg.seed)
        b = 40  # 120 non-pilot slots
        channel = sample_channel(1, cfg, rng, size=b)
        x1t, s2 = _user1_levels(sample_inputs([_iso(cfg)], cfg, rng, size=b))
        mag = abs_sq(x1t)
        s = converse._slot_levels(mag, s2)
        v, c, d, _ = _strongest_pilot(mag, s, cfg, cfg.T)
        yt = converse._outputs(x1t, s2, channel)
        parts = converse._project(yt, v)
        white, _ = converse._whiten(parts, v, s, c, d)
        with mpmath.workdps(60):
            for i in range(b):
                y = [[mpmath.mpc(complex(e)) for e in row] for row in yt[i]]
                norm_v = mpmath.sqrt(sum(abs(row[v[i]]) ** 2 for row in y))
                assert abs(parts.nv2[i] / norm_v**2 - 1) <= 16 * eps
                u = [row[v[i]] / norm_v for row in y]
                for j in range(cfg.T):
                    if j == v[i]:
                        continue
                    inner = sum(mpmath.conj(un) * row[j] for un, row in zip(u, y))
                    ref_perp = sum(abs(row[j] - inner * un) ** 2 for un, row in zip(u, y))
                    ref_along = abs(inner) ** 2
                    ref_white = ref_perp / s[i, j] + ref_along / (s[i, j] + c * norm_v**2 + d)
                    slack = 4 * eps * (1 + float(mpmath.sqrt(ref_along / ref_perp)))
                    assert abs(parts.along[i, j] / ref_along - 1) <= 16 * eps
                    assert abs(parts.perp[i, j] / ref_perp - 1) <= slack
                    assert abs(white[i, j] / ref_white - 1) <= slack

    def test_branch2_last_slot_whitens_by_s_plus_p(self):
        # in branch 2 the last slot's scale along the pilot output is
        # s_T + P bit for bit, also where a scale P / ||y_v||^2 times
        # ||y_v||^2 misses P: at P = 100 and ||y_v||^2 = 11 it is
        # 100.00000000000001
        cfg = _cfg(t=3, n=2, p=100.0)
        mag, s2 = np.array([[6.0, 1.0, 8.0]]), np.array([3.0])
        s = converse._slot_levels(mag, s2)
        v, c, d, branch = _mac_low_t(mag, s, cfg)
        assert v == [0] and branch == [2]
        yt = sample_complex_gaussian(3, np.random.default_rng(3), size=(1, 2))
        yt[0, :, 0] = [3.0 + 1.0j, 1.0]  # ||y_v||^2 = 11 exactly
        assert s[0, -1] + (cfg.P / 11.0) * 11.0 != s[0, -1] + cfg.P
        _, denom = converse._whiten(converse._project(yt, v), v, s, c, d)
        assert denom[0, -1] == s[0, -1] + cfg.P
        assert denom[0, 1] == s[0, 1] + c[0, 1] * 11.0

    def test_log_det_uses_denom_up(self):
        # ln |det A|^2 is formed in the buffer of the kernel's scales denom,
        # with the values of -((n - 1) ln s + ln denom), bit for bit
        rng = np.random.default_rng(9)
        b, n, t = 200, 3, 4
        yt = sample_complex_gaussian(t, rng, size=(b, n))
        v = rng.integers(0, t, size=b)
        s, c = 1.0 + rng.uniform(size=(b, t)), rng.uniform(size=(b, t))
        _, denom = converse._whiten(converse._project(yt, v), v, s, c, 0.0)
        direct = -((n - 1) * np.log(s) + np.log(denom))
        direct[np.arange(b), v] = 0.0
        log_det = converse._log_det(s, denom, v, n)
        assert np.shares_memory(log_det, denom)
        assert np.array_equal(log_det, direct)

    def test_single_user_shares_user1_draws_with_mac(self, monkeypatch):
        # user 1's inputs come first in every chunk's stream, so with a
        # silent interferer both analytic sides see the same inputs
        monkeypatch.setattr(linalg, "_CHUNK_SLOTS", 4 * 250)
        p = 1000.0
        cfg = _cfg(p=p, trials=1_001, seed=29)
        i1 = InputDistribution(kind="isotropic_peak", T=4, P=p)
        zero2 = InputDistribution(kind="deterministic_point", T=4, P=p,
                                  params={"x": np.zeros(4)})
        mac = duality_bound_mac_user1(i1, zero2, cfg)
        su = _single_user_on_slots(i1, cfg, 3)
        assert mac.analytic_rhs_value == pytest.approx(
            su.analytic_rhs_value, rel=1e-12)
