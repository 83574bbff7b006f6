"""End-to-end acceptance checks.

Each test states its numerical tolerance and wall-clock budget inline and
prints a one-line verdict so a full run doubles as a report.
"""

import subprocess
import sys
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from simomac import cli, lemmas, region
from simomac.channel import FADING_KINDS, ChannelConfig, InputDistribution
from simomac.converse import (
    duality_bound_single_user,
    isotropic_mixture_mi_estimate,
    mutual_information_lower_estimate,
)
from simomac.training import mac_training_rates, single_user_training_rate

T_RANGE = range(1, 17)
N_RANGE = range(1, 9)


def _verdict(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}")


def test_01_region_exactness():
    start = time.perf_counter()
    # the CLI suite: inner region = outer region for every T <= 16, N <= 8
    checks = cli._verify_region()
    failed = [c["check"] for c in checks if not c["passed"]]
    assert [c["check"] for c in checks] == [f"region_equal_T{t}_N{n}"
                                            for t in T_RANGE for n in N_RANGE]
    assert not failed, failed
    elapsed = time.perf_counter() - start
    _verdict("region_exactness", True, f"({elapsed:.2f}s, 128 pairs)")
    assert elapsed < 1.0


def test_02_corner_values():
    reg = region.outer_region(5, 3)
    assert set(reg.vertices) == {
        (F(0), F(0)), (F(4, 5), F(0)), (F(0), F(4, 5)), (F(3, 5), F(3, 5)),
    }
    for t, n in [(2, 4), (7, 1)]:
        reg = region.outer_region(t, n)
        assert reg.halfspaces == ((F(1), F(1), F(t - 1, t)),)
    _verdict("corner_values", True)


def test_03_optimizer_tightness():
    start = time.perf_counter()
    # the CLI suite: exact optimizer = polytope for T <= 16, N <= 8 at five
    # weight pairs, and the grid oracle at (4,2), (5,3), (3,4) with lambda = (1,1)
    checks = cli._verify_optimizer()
    failed = [c["check"] for c in checks if not c["passed"]]
    assert len(checks) == 101 and not failed, failed
    # breakpoint enumeration vs refined grid oracle on the cases the suite leaves out
    for t, n, lam in [(8, 5, (F(1), F(1))), (4, 2, (F(1), F(0))), (5, 3, (F(1), F(0))),
                      (3, 4, (F(1), F(0))), (8, 5, (F(1), F(0)))]:
        objective = region.regime_objective(t, n)
        sup, _ = region.weighted_sum_dof_sup(*lam, t, n, objective)
        grid, _ = region.grid_oracle_sup(*lam, t, n, objective)
        tol = region.grid_oracle_tolerance(t, n)
        assert 0.0 <= float(sup) - float(grid) <= tol, (t, n, lam)
    elapsed = time.perf_counter() - start
    _verdict("optimizer_tightness", True, f"({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_04_looseness_instance():
    t, n = 3, 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f_sup, _ = region.weighted_sum_dof_sup(F(1), F(1), t, n, "f_exponent")
    g_sup, _ = region.weighted_sum_dof_sup(F(1), F(1), t, n, "g_exponent")
    polytope = region.max_weighted_dof(region.outer_region(t, n), F(1), F(1))
    assert f_sup > polytope
    assert g_sup == polytope
    _verdict("looseness_instance", True, f"(f={f_sup} > {polytope} = g)")


def test_05_achievability_slopes():
    start = time.perf_counter()
    trials = 100_000
    powers = [10.0 ** (p_db / 10.0) for p_db in (30, 40, 50)]
    for t, n in [(4, 2), (8, 2)]:
        cfg = ChannelConfig(T=t, N=n, P=powers[0], trials=trials, seed=0)
        rates = [est.rate for est in single_user_training_rate(cfg, powers=powers)]
        slope = np.polyfit(np.log2(powers), rates, 1)[0]
        target = 1.0 - 1.0 / t
        assert slope == pytest.approx(target, abs=0.05), (t, n, slope)
    cfg = ChannelConfig(T=8, N=2, P=powers[0], trials=trials, seed=0)
    rates = [r1.rate for r1, _ in mac_training_rates(cfg, powers=powers)]
    mac_slope = np.polyfit(np.log2(powers), rates, 1)[0]
    assert mac_slope == pytest.approx(1.0 - 2.0 / 8, abs=0.05)
    elapsed = time.perf_counter() - start
    _verdict("achievability_slopes", True, f"({elapsed:.1f}s, mac={mac_slope:.3f})")
    assert elapsed < 300.0


def test_06_duality_bound_validity():
    start = time.perf_counter()
    t, n, trials = 4, 2, 200_000
    values = {}
    for p_db in (10, 20, 30):
        p = 10.0 ** (p_db / 10.0)
        cfg = ChannelConfig(T=t, N=n, P=p, trials=trials, seed=0)
        fams = {
            "isotropic": InputDistribution(kind="isotropic_peak", T=t, P=p),
            "expprofile": InputDistribution(
                kind="exponent_profile_peak", T=t, P=p,
                params={"exponents": [1.0, 0.5, 0.25, 0.0]}),
            "determ": InputDistribution(
                kind="deterministic_point", T=t, P=p,
                params={"x": np.sqrt(p / 4) * np.ones(t)}),
        }
        for name, dist in fams.items():
            rep = duality_bound_single_user(dist, cfg)
            if name == "isotropic":
                # closed-form mixture density: unbiased at every SNR,
                # unlike the k-NN route which overshoots at high SNR
                mi, se = isotropic_mixture_mi_estimate(cfg)
                assert rep.value >= mi - 3 * (se + rep.std_error), (p_db, name)
            else:
                mi = mutual_information_lower_estimate(dist, cfg)
                assert rep.value >= mi - 3 * rep.std_error, (p_db, name)
            values[(p_db, name)] = rep.value
    p40 = 10.0 ** 4.0
    cfg40 = ChannelConfig(T=t, N=n, P=p40, trials=trials, seed=0)
    iso40 = InputDistribution(kind="isotropic_peak", T=t, P=p40)
    v40 = duality_bound_single_user(iso40, cfg40).value
    slope = (v40 - values[(30, "isotropic")]) / (np.log2(p40) - np.log2(1000.0))
    assert slope <= (t - 1) / t + 0.05, slope
    elapsed = time.perf_counter() - start
    _verdict("duality_bound_validity", True,
             f"({elapsed:.1f}s, slope30-40dB={slope:.3f})")
    assert elapsed < 600.0


def test_07_proposition_inequalities():
    start = time.perf_counter()
    # the CLI suite: both fadings at 20 and 30 dB, 100k trials; every genie
    # branch of the T <= N bound must be seen
    checks = cli._verify_props(0)
    failed = [c["check"] for c in checks if not c["passed"]]
    assert [c["check"] for c in checks] == [
        f"prop_{name}_{kind}_{p_db}dB" for kind in FADING_KINDS for p_db in (20, 30)
        for name in ("mac_low_t_all_branches", "single_user", "mac_high_t", "mac_low_t")]
    assert not failed, failed
    elapsed = time.perf_counter() - start
    _verdict("proposition_inequalities", True, f"({elapsed:.1f}s)")
    assert elapsed < 600.0


def test_08_lemma_suites():
    start = time.perf_counter()
    results = lemmas.run_all(seed=0)
    for res in results:
        assert res["passed"], res
    elapsed = time.perf_counter() - start
    _verdict("lemma_suites", True, f"({elapsed:.1f}s, {len(results)} checks)")
    assert elapsed < 120.0


def test_09_cli_determinism():
    def run(argv):
        out = subprocess.run([sys.executable, "-m", "simomac.cli", *argv],
                             capture_output=True, check=True)
        return out.stdout

    bounds = ["bounds", "--T", "4", "--N", "2", "--P-dB", "20,30",
              "--trials", "20000", "--seed", "7"]
    assert run(bounds) == run(bounds)
    reg = ["region", "--T", "5", "--N", "3"]
    assert run(reg) == run(reg)
    _verdict("cli_determinism", True)
