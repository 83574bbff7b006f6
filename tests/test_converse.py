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
    conditional_entropy_given_inputs,
    duality_bound_mac_user1,
    duality_bound_single_user,
    eval_f,
    eval_g,
    genie_index_mac,
    genie_index_single,
    isotropic_mixture_mi_estimate,
    mutual_information_lower_estimate,
)
from simomac.errors import InvalidParam, InvalidRegime, RegimeUnsupported
from simomac.knn_entropy import knn_entropy_bits
from simomac.linalg import sample_complex_gaussian

LOG2_PI_E = np.log2(np.pi * np.e)


def _cfg(t=4, n=2, p=100.0, trials=30_000, seed=0, fading="iid_complex_gaussian"):
    return ChannelConfig(T=t, N=n, P=p, trials=trials, seed=seed, fading_kind=fading)


class TestGenieIndices:
    def test_single_strongest(self):
        assert genie_index_single([1.0, 3.0, 2.0]).v == 1

    def test_single_tie_to_smallest(self):
        assert genie_index_single([2.0, 2.0]).v == 0

    def test_single_dominates_all(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = sample_complex_gaussian(5, rng)
            v = genie_index_single(x).v
            assert (np.abs(x[v]) >= np.abs(x)).all()

    def test_mac_high_t_skips_last_slot(self):
        g = genie_index_mac([1.0, 5.0, 2.0], 0.0, REGIME_T_GE_N_PLUS_1)
        assert g.v == 1 and g.u is None

    def test_mac_low_t_sigma_weights(self):
        g = genie_index_mac([1.0, 1.0, np.sqrt(10.0)], 3.0, REGIME_T_LE_N)
        # sigma^2 = (1, 1, 4): ratios (1, 1, 2.5) -> last slot; 10 >= max{1, 4}
        assert g.v == 2 and g.u == 1

    def test_mac_all_zero_tie_rule(self):
        g = genie_index_mac([0.0, 0.0, 0.0], 0.0, REGIME_T_LE_N)
        assert g.v == 0 and g.u == 0

    def test_unknown_regime(self):
        with pytest.raises(InvalidParam):
            genie_index_mac([1.0], 0.0, "bogus")


class TestConditionalEntropy:
    def test_pure_noise(self):
        cfg = _cfg()
        rep = conditional_entropy_given_inputs(np.zeros(4), np.zeros(4), cfg)
        assert rep.bits == pytest.approx(cfg.N * cfg.T * LOG2_PI_E)
        assert not rep.order_one_flagged

    def test_dominant_branch_single_user_case(self):
        cfg = _cfg()
        x1 = np.array([1.0, 2.0, 0.0, 1.0])
        rep = conditional_entropy_given_inputs(x1, np.zeros(4), cfg, branch="dominant")
        assert rep.bits == pytest.approx(
            cfg.N * np.log2(1 + np.linalg.norm(x1) ** 2), abs=1e-9
        )
        assert rep.order_one_flagged

    def test_exact_needs_gaussian_fading(self):
        cfg = _cfg(fading="iid_uniform_annulus")
        with pytest.raises(RegimeUnsupported):
            conditional_entropy_given_inputs(np.zeros(4), np.zeros(4), cfg)

    def test_exact_matches_knn_oracle(self):
        rng = np.random.default_rng(0)
        t, n, trials = 4, 2, 50_000
        x1 = sample_complex_gaussian(t, rng)
        x2 = sample_complex_gaussian(t, rng)
        cfg = _cfg(t, n)
        exact = conditional_entropy_given_inputs(x1, x2, cfg).bits
        h1 = sample_complex_gaussian(n, rng, size=trials)
        h2 = sample_complex_gaussian(n, rng, size=trials)
        z = sample_complex_gaussian(t, rng, size=(trials, n))
        y = h1[:, :, None] * x1 + h2[:, :, None] * x2 + z
        est = knn_entropy_bits(y.reshape(trials, -1))
        assert abs(est - exact) / (n * t) <= 0.15  # bits per complex dimension


class TestEvalF:
    def test_zero_inputs(self):
        assert eval_f(np.zeros(4), np.zeros(4), 2) == 0.0

    def test_single_nonzero_entry(self):
        p, t, n = 50.0, 4, 2
        x1t = np.zeros(t)
        x1t[0] = np.sqrt(p)
        assert eval_f(x1t, np.zeros(t), n) == pytest.approx((t - 1) * np.log2(1 + p))

    def test_exponent_slopes_match_bracket(self):
        from fractions import Fraction

        from simomac.region import _user_bracket_f

        rng = np.random.default_rng(1)
        t, n = 4, 2
        grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
        for _ in range(20):
            eb1, e1t, e2 = (grid[i] for i in rng.integers(0, 3, size=3))

            def build(p):
                x1t = np.zeros(t, dtype=complex)
                x1t[0] = p ** (float(eb1) / 2)
                x1t[-1] = p ** (float(e1t) / 2)
                x2 = np.zeros(t, dtype=complex)
                x2[0] = p ** (float(e2) / 2)
                return x1t, x2

            slope = (eval_f(*build(1e8), n) - eval_f(*build(1e6), n)) / (
                np.log2(1e8) - np.log2(1e6)
            )
            assert slope == pytest.approx(float(_user_bracket_f(eb1, e1t, e2, t, n)),
                                          abs=0.02)


class TestEvalG:
    def test_zero_inputs_first_case(self):
        assert eval_g(np.zeros(3), np.zeros(3), 10.0, 2) == 0.0

    def test_dominant_last_entry_third_case(self):
        x1t = np.array([1.0, 0.0, np.sqrt(10.0)])
        x2 = np.array([1.0, 0.0, 0.0])  # 1 + ||x2||^2 = 2
        expected = 2 * np.log2(1 + 5.0)
        assert eval_g(x1t, x2, 10.0, 2) == pytest.approx(expected)

    def test_middle_case_hand_value(self):
        # m = 3, xT = 4, 1+||x2||^2 = 2, P = 10:
        # ratio 2 < 3 and 4 > max(3, 2) -> middle branch
        # (T-2)log2(4) + N log2(6/12) + log2(6) = 2 - 2 + log2(6)
        x1t = np.array([np.sqrt(3.0), 0.0, 2.0])
        x2 = np.array([1.0, 0.0, 0.0])
        assert eval_g(x1t, x2, 10.0, 2) == pytest.approx(np.log2(6.0))

    def test_boundary_tie_resolves_to_base_case(self):
        # all squared magnitudes chosen exactly representable:
        # m = 1, |x_T|^2 = 1.5625, 1 + ||x2||^2 = 1.5625, so the ratio
        # ties with m exactly and the base-case formula applies
        x1t = np.array([1.0, 0.0, 1.25])
        x2 = np.array([0.75, 0.0, 0.0])
        tie = eval_g(x1t, x2, 10.0, 2)
        assert np.isfinite(tie)
        base = (3 - 2) * np.log2(2.0) + np.log2(1.0 + 1.0 / 1.5625)
        assert tie == pytest.approx(base)
        # the competing branch value at the tie point is finite too
        dominant = (3 - 1) * np.log2(2.0)
        assert np.isfinite(dominant) and tie != pytest.approx(dominant)


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
