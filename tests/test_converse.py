import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from simomac import converse
from simomac.channel import ChannelConfig, InputDistribution
from simomac.converse import (
    REGIME_T_GE_N_PLUS_1,
    REGIME_T_LE_N,
    _exact_log2_det,
    _mac_genie,
    _mac_high_t,
    _mac_low_t,
    _single_user_genie,
    duality_bound_mac_user1,
    duality_bound_single_user,
    isotropic_mixture_mi_estimate,
    mutual_information_lower_estimate,
)
from simomac.errors import InvalidParam, InvalidRegime, RegimeUnsupported
from simomac.knn_entropy import knn_entropy_bits
from simomac.linalg import abs_sq, sample_complex_gaussian

LOG2_PI_E = np.log2(np.pi * np.e)


def _cfg(t=4, n=2, p=100.0, trials=30_000, seed=0, fading="iid_complex_gaussian"):
    return ChannelConfig(T=t, N=n, P=p, trials=trials, seed=seed, fading_kind=fading)


def _pilot(x, slots=None):
    """The pilot slot that _single_user_genie picks for each row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    y = np.zeros((len(x), 2, x.shape[1]), dtype=complex)
    return _single_user_genie([x], y, _cfg(t=x.shape[1]), slots=slots or x.shape[1])[1]


def _mac_engine(engine, mag, s2, t, n=2, p=100.0):
    """(v, s, c, rhs, branch) of a MAC genie engine for one trial, from
    |x1t|^2 of the rotated input and s2 = ||x2||^2."""
    yt = np.zeros((1, n, t), dtype=complex)
    return engine(np.array([mag], dtype=float), np.array([s2]), yt, _cfg(t=t, n=n, p=p))


def _mac_chunk(x1, x2, fading="iid_complex_gaussian", n=2):
    """_mac_genie's (rhs, h(Y | X1, X2)) for one trial of the T >= N+1 regime."""
    x1, x2 = (np.asarray(x, dtype=complex)[None] for x in (x1, x2))
    y = np.zeros((1, n, x1.shape[1]), dtype=complex)
    out = _mac_genie([x1, x2], y, _cfg(t=x1.shape[1], n=n, fading=fading), engine=_mac_high_t)
    return out[4][0], out[5][0]


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
        assert v == [1] and branch is None

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

    def test_unknown_regime(self):
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(InvalidParam):
            duality_bound_mac_user1(iso, iso, _cfg(trials=100), "bogus")


class TestConditionalEntropy:
    def test_pure_noise(self):
        cfg = _cfg()
        _, h = _mac_chunk(np.zeros(4), np.zeros(4))
        assert h == pytest.approx(cfg.N * cfg.T * LOG2_PI_E)
        assert _exact_log2_det(np.zeros(4), np.zeros(4)) == 0.0

    def test_dominant_branch_single_user_case(self):
        # off Gaussian fading only the dominant term is kept, and flagged
        cfg = _cfg(fading="iid_uniform_annulus")
        x1 = np.array([1.0, 2.0, 0.0, 1.0])
        _, h = _mac_chunk(x1, np.zeros(4), fading=cfg.fading_kind)
        assert h == pytest.approx(cfg.N * np.log2(1 + np.linalg.norm(x1) ** 2), abs=1e-9)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, _cfg(trials=2_000, fading=cfg.fading_kind),
                                      REGIME_T_GE_N_PLUS_1)
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
        _, exact = _mac_chunk(x1, x2, n=n)
        h1 = sample_complex_gaussian(n, rng, size=trials)
        h2 = sample_complex_gaussian(n, rng, size=trials)
        z = sample_complex_gaussian(t, rng, size=(trials, n))
        y = h1[:, :, None] * x1 + h2[:, :, None] * x2 + z
        est = knn_entropy_bits(y.reshape(trials, -1))
        assert abs(est - exact) / (n * t) <= 0.15  # bits per complex dimension


def _f_penalty(x1t, x2_norm, t, n=2):
    """User 1's f penalty: the T >= N+1 right-hand side minus the dominant
    h(Y | X) term, with x2 along the last slot, where U(x2) = I."""
    x2 = np.zeros(t)
    x2[-1] = x2_norm
    rhs, h = _mac_chunk(x1t, x2, fading="iid_uniform_annulus", n=n)
    return rhs - h


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
        assert rep.value <= rep.components["analytic_rhs_value"] + slack + 3 * rep.std_error

    @pytest.mark.parametrize("fading,flagged", [("iid_complex_gaussian", False),
                                                ("iid_uniform_annulus", True)])
    def test_h_given_x_flagged_off_gaussian_fading(self, fading, flagged):
        # h(Y|X) is the Gaussian-fading value, exact only for Gaussian fading
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
        cfg = _cfg(t=4, n=2)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(RegimeUnsupported):
            duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        one = InputDistribution(kind="isotropic_peak", T=1, P=100.0)
        with pytest.raises(RegimeUnsupported):
            duality_bound_mac_user1(one, one, _cfg(t=1, n=2), REGIME_T_LE_N)

    def test_genie_costs(self):
        cfg = _cfg(t=4, n=2, trials=20_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_GE_N_PLUS_1)
        assert rep.remainder_terms["genie_cost_bits"] == pytest.approx(np.log2(3))
        cfg2 = _cfg(t=2, n=2, trials=20_000)
        i1 = InputDistribution(kind="isotropic_peak", T=2, P=100.0)
        rep2 = duality_bound_mac_user1(i1, i1, cfg2, REGIME_T_LE_N)
        assert rep2.remainder_terms["genie_cost_bits"] == pytest.approx(np.log2(4))
        assert set(rep2.components["branch_counts"]) == {0, 1, 2}

    def test_silent_interferer_matches_single_user(self):
        # with x2 = 0 the rotation is the identity and the MAC machinery
        # must reduce to the single-user bound restricted to T-1 genie
        # slots; the analytic sides coincide exactly, the MC sides differ
        # only through fit-category pooling
        p = 1000.0
        cfg = _cfg(p=p, trials=100_000, seed=29)
        i1 = InputDistribution(kind="isotropic_peak", T=4, P=p)
        zero2 = InputDistribution(kind="deterministic_point", T=4, P=p,
                                  params={"x": np.zeros(4)})
        mac = duality_bound_mac_user1(i1, zero2, cfg, REGIME_T_GE_N_PLUS_1)
        su = duality_bound_single_user(i1, cfg, genie_slots=3)
        assert mac.components["analytic_rhs_value"] == pytest.approx(
            su.components["analytic_rhs_value"], abs=0.01
        )
        assert mac.value == pytest.approx(su.value, abs=0.15)

    def test_proposition_inequality_shared_samples(self):
        cfg = _cfg(trials=40_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_GE_N_PLUS_1)
        slack = rep.remainder_terms["log_log_slack_bits"]
        assert rep.value <= rep.components["analytic_rhs_value"] + slack + 3 * rep.std_error


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

    def test_mixture_independent_of_block_size(self, monkeypatch):
        cfg = _cfg(p=100.0, seed=3)
        results = []
        for block in (1, 2048):
            monkeypatch.setattr(converse, "_MIXTURE_BLOCK", block)
            results.append(isotropic_mixture_mi_estimate(cfg, trials=1_025))
        assert results[0] == results[1]

    @pytest.mark.parametrize("t,n", [(1, 2), (4, 1)])
    def test_mixture_single_slot_or_antenna_is_quiet(self, t, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mi, se = isotropic_mixture_mi_estimate(_cfg(t=t, n=n), trials=2_000)
        assert np.isfinite(mi) and np.isfinite(se) and se > 0


class TestGenieSlots:
    @pytest.mark.parametrize("slots", [0, 5])
    def test_out_of_range_raises(self, slots):
        cfg = _cfg(t=4, n=2, trials=1_000)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        with pytest.raises(InvalidParam, match="genie_slots"):
            duality_bound_single_user(iso, cfg, genie_slots=slots)


class TestPooledFit:
    def test_sparse_branch_is_reported(self):
        # at T=3, N=4, 20 dB the pilot lands on the last slot (branch 0)
        # in well under 1 % of the trials: too few to fit on their own
        cfg = _cfg(t=3, n=4, p=100.0, trials=20_000, seed=1)
        iso = InputDistribution(kind="isotropic_peak", T=3, P=100.0)
        rep = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        pooled = rep.components["pooled_fit"]
        assert rep.components["branch_counts"][0] < 100
        assert "branch0/pilot" in pooled
        assert set(pooled) <= set(rep.components["fitted"])
        assert "branch1/pilot" not in pooled

    def test_unbranched_bounds_never_pool(self):
        cfg = _cfg(t=4, n=2, trials=300)
        iso = InputDistribution(kind="isotropic_peak", T=4, P=100.0)
        assert duality_bound_single_user(iso, cfg).components["pooled_fit"] == []
        mac = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_GE_N_PLUS_1)
        assert mac.components["pooled_fit"] == []


class TestStreamingEngine:
    @pytest.mark.parametrize("bound", ["mac", "single_user"])
    def test_memory_is_chunked(self, bound):
        # one (B, N, T) complex array alone is 40 MiB here
        cfg = ChannelConfig(T=32, N=8, P=100.0, trials=10_000, seed=0)
        iso = InputDistribution(kind="isotropic_peak", T=32, P=100.0)
        tracemalloc.start()
        try:
            if bound == "mac":
                duality_bound_mac_user1(iso, iso, cfg, REGIME_T_GE_N_PLUS_1)
            else:
                duality_bound_single_user(iso, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("t,n,trials,step", [(32, 8, 2_500, 256), (3, 4, 50_000, 5460),
                                                  (1024, 1024, 5, 2)])
    def test_chunk_length_rule(self, t, n, trials, step):
        cfg = _cfg(t=t, n=n, trials=trials)
        bounds = [(lo, hi) for lo, hi, _ in converse._trial_chunks(cfg)]
        assert bounds == [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]

    def test_three_chunks_and_an_odd_remainder(self, monkeypatch):
        # T = N = 2: 4 entries per trial, so 100 trials per chunk
        monkeypatch.setattr(converse, "_CHUNK_ENTRIES", 400)
        cfg = _cfg(t=2, n=2, p=10.0, trials=301, seed=2)
        bounds = [(lo, hi) for lo, hi, _ in converse._trial_chunks(cfg)]
        assert bounds == [(0, 100), (100, 200), (200, 300), (300, 301)]
        iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
        rep = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        assert sum(rep.components["branch_counts"].values()) == 301 // 2
        again = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        assert (rep.value, rep.std_error) == (again.value, again.std_error)

    def test_many_threads_fold_every_chunk(self, monkeypatch):
        # 201 chunks on more threads than CPUs, switching threads every
        # microsecond: a lost or misplaced row would change the report
        monkeypatch.setattr(converse, "_CHUNK_ENTRIES", 40)
        cfg = _cfg(t=2, n=2, p=100.0, trials=2_001, seed=8)
        iso = InputDistribution(kind="isotropic_peak", T=2, P=100.0)
        monkeypatch.setattr(converse, "_cpu_count", lambda: 1)
        one = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        monkeypatch.setattr(converse, "_cpu_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N)
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_thread_keeps_one_scratch(self, monkeypatch, workers):
        # every chunk a thread runs sees that thread's dict, and only it
        monkeypatch.setattr(converse, "_cpu_count", lambda: workers)
        seen = {}

        def run(i, lo, hi, seed, scratch):
            seen[i] = (threading.get_ident(), id(scratch))

        converse._run_chunks(run, [(0, 1, None)] * 40)
        assert sorted(seen) == list(range(40))
        assert len(set(seen.values())) == len({thread for thread, _ in seen.values()})
        assert len(set(seen.values())) <= workers

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunk_error_stops_the_run(self, monkeypatch, workers):
        # 20 chunks; every chunk from chunk 1 on raises when it draws
        monkeypatch.setattr(converse, "_CHUNK_ENTRIES", 400)
        monkeypatch.setattr(converse, "_cpu_count", lambda: workers)
        started = []
        real = converse.sample_inputs

        def sample_inputs(inputs, cfg, rng, size=None):
            chunk = rng.bit_generator.seed_seq.spawn_key[-1]
            started.append(chunk)
            if chunk >= 1:
                raise InvalidParam(f"chunk {chunk} failed")
            return real(inputs, cfg, rng, size)

        monkeypatch.setattr(converse, "sample_inputs", sample_inputs)
        cfg = _cfg(t=2, n=2, p=10.0, trials=2_000, seed=4)
        iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
        threads = threading.active_count()
        with pytest.raises(InvalidParam, match="^chunk 1 failed$"):
            duality_bound_single_user(iso, cfg)
        assert threading.active_count() == threads
        # chunk 0 is the only one that succeeds, and each thread stops
        # after its first failure
        assert {0, 1} <= set(started)
        assert len(started) <= 1 + workers

    def test_whitening_by_chunks_is_bit_identical(self):
        rng = np.random.default_rng(7)
        b, n, t = 301, 3, 5
        yt = sample_complex_gaussian(t, rng, size=(b, n))
        v = rng.integers(0, t, size=b)
        s = 1.0 + rng.uniform(size=(b, t))
        c = rng.uniform(size=(b, t))
        whole = converse._whiten(yt, v, s, c)
        parts = [converse._whiten(yt[i:i + 100], v[i:i + 100], s[i:i + 100], c[i:i + 100])
                 for i in range(0, b, 100)]
        for k in range(2):
            assert np.array_equal(whole[k], np.concatenate([p[k] for p in parts]))

    def test_single_user_shares_user1_draws_with_mac(self, monkeypatch):
        # user 1's inputs come first in every chunk's stream, so with a
        # silent interferer both analytic sides see the same inputs
        monkeypatch.setattr(converse, "_CHUNK_ENTRIES", 8 * 250)
        p = 1000.0
        cfg = _cfg(p=p, trials=1_001, seed=29)
        i1 = InputDistribution(kind="isotropic_peak", T=4, P=p)
        zero2 = InputDistribution(kind="deterministic_point", T=4, P=p,
                                  params={"x": np.zeros(4)})
        mac = duality_bound_mac_user1(i1, zero2, cfg, REGIME_T_GE_N_PLUS_1)
        su = duality_bound_single_user(i1, cfg, genie_slots=3)
        assert mac.components["analytic_rhs_value"] == pytest.approx(
            su.components["analytic_rhs_value"], rel=1e-12)
