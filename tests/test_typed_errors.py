"""Every valid (T, N, P, trials, fading, input) gives finite numbers or a
typed SimomacError, and a count that is not an integer, or a power that is
not finite and positive, raises InvalidParam before anything is drawn."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simomac import lemmas
from simomac.auxdist import AuxDistParams
from simomac.channel import (
    FADING_KINDS,
    INPUT_KINDS,
    ChannelConfig,
    InputDistribution,
    truncate_to_peak,
)
from simomac.converse import (
    BoundReport,
    duality_bound_single_user,
    duality_bounds,
    isotropic_mixture_mi_estimate,
    mutual_information_lower_estimate,
)
from simomac.errors import InvalidParam, SimomacError
from simomac.training import mac_training_rates, single_user_training_rate, tdma_rates


def _cfg(**kwargs):
    return ChannelConfig(**{"T": 4, "N": 2, "P": 100.0, "trials": 1000, **kwargs})


def _iso(t=4):
    return InputDistribution(kind="isotropic_peak", T=t, P=100.0)


def _exp_norm():
    return InputDistribution(kind="exponential_norm", T=4, P=100.0)


@pytest.mark.parametrize("call", [
    lambda: single_user_training_rate(_cfg(T=2.5)),
    lambda: duality_bound_single_user(_iso(), _cfg(T=4.0)),
    lambda: duality_bound_single_user(_iso(), _cfg(N=2.0)),
    lambda: duality_bound_single_user(_iso(), _cfg(trials=1000.5)),
    lambda: duality_bound_single_user(_iso(), _cfg(seed=1.5)),
    lambda: duality_bound_single_user(_iso(4.0), _cfg()),
    lambda: isotropic_mixture_mi_estimate(_cfg(), trials=2.5),
    lambda: mutual_information_lower_estimate(_iso(), _cfg(), max_knn_samples=0),
    lambda: truncate_to_peak(_exp_norm(), -1.0, 1.5, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 0.0, 1.5, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), math.nan, 1.5, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 100.0, math.nan, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 100.0, math.inf, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 1e200, 2.0, np.random.default_rng(0)),
    lambda: lemmas.truncation_markov_bound(seed=1.5),
    lambda: _cfg(P=10**400),
    lambda: InputDistribution(kind="isotropic_peak", T=4, P=10**400),
    lambda: InputDistribution(kind="pilot_data_product", T=4, P=100.0,
                              params={"pilot_power": 10**400}),
    lambda: truncate_to_peak(_exp_norm(), 10**400, 1.5, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 100.0, 10**400, np.random.default_rng(0)),
    lambda: InputDistribution(kind="exponent_profile_peak", T=2, P=100.0,
                              params={"exponents": [10**400, 0]}),
    lambda: InputDistribution(kind="exponent_profile_peak", T=2, P=100.0,
                              params={"exponents": ["a", 0]}),
    lambda: InputDistribution(kind="deterministic_point", T=2, P=100.0,
                              params={"x": [10**400, 0]}),
    lambda: _cfg(P="a"),
    lambda: _cfg(P=None),
    lambda: _cfg(P=1j),
    lambda: _cfg(P=np.array([1.0, 2.0])),
    lambda: InputDistribution(kind="isotropic_peak", T=4, P=1j),
    lambda: InputDistribution(kind="pilot_data_product", T=4, P=100.0,
                              params={"data_power": 1j}),
    lambda: InputDistribution(kind="exponent_profile_peak", T=2, P=100.0,
                              params={"exponents": [1j, 0]}),
    lambda: truncate_to_peak(_exp_norm(), 1j, 1.5, np.random.default_rng(0)),
    lambda: truncate_to_peak(_exp_norm(), 100.0, 1.5j, np.random.default_rng(0)),
    lambda: duality_bounds(_iso(), _iso(), _cfg(), powers=10.0),
    lambda: single_user_training_rate(_cfg(), powers=10.0),
    lambda: mac_training_rates(_cfg(), powers=10.0),
    lambda: duality_bound_single_user(_iso(), _cfg(), powers=[1j]),
    lambda: single_user_training_rate(_cfg(), powers=[1j]),
    lambda: mac_training_rates(_cfg(), powers=[100.0, 1j]),
    lambda: tdma_rates(_cfg(), tau="a"),
    lambda: AuxDistParams(2, math.nan, 1.0),
    lambda: AuxDistParams(2, 1.0, math.nan),
], ids=["training_T", "bound_T", "bound_N", "bound_trials", "bound_seed", "input_T",
        "mixture_trials", "knn_samples", "truncate_negative_P", "truncate_zero_P",
        "truncate_nan_P", "truncate_nan_beta", "truncate_inf_beta", "truncate_overflow_P_beta",
        "lemma_seed", "config_int_P", "input_int_P", "pilot_int_power", "truncate_int_P",
        "truncate_int_beta", "exponents_int", "exponents_str", "point_int", "config_str_P",
        "config_none_P", "config_complex_P", "config_array_P", "input_complex_P",
        "data_complex_power", "exponents_complex", "truncate_complex_P",
        "truncate_complex_beta", "bounds_scalar_powers", "training_scalar_powers",
        "mac_training_scalar_powers", "bound_complex_power", "training_complex_power",
        "mac_training_complex_power", "tdma_str_tau", "aux_nan_alpha", "aux_nan_beta"])
def test_bad_count_or_power_raises_invalid_param(call):
    with pytest.raises(InvalidParam):
        call()


def test_nan_power_is_not_reported_as_out_of_range():
    with pytest.raises(InvalidParam, match="finite and positive"):
        _cfg(P=math.nan)


def _entries(x1, x2, cfg, powers):
    """Every entry of the ``powers=`` calls of :func:`duality_bounds` and
    both training rates, and the mixture MI at each power: a BoundReport,
    a RateEstimate, an (mi, se) pair, or the SimomacError of one point or
    of a whole call."""
    out = []
    for call in (lambda: [e for grid in duality_bounds(x1, x2, cfg, powers=powers) for e in grid],
                 lambda: single_user_training_rate(cfg, powers=powers),
                 lambda: [r for pair in mac_training_rates(cfg, powers=powers) for r in pair],
                 lambda: [isotropic_mixture_mi_estimate(replace(cfg, P=p)) for p in powers]):
        try:
            out += call()
        except SimomacError as exc:
            out.append(exc)
    return out


def _finite(entry):
    if isinstance(entry, BoundReport):
        nums = (entry.value, entry.std_error, entry.analytic_rhs_value)
    elif isinstance(entry, tuple):
        nums = entry
    else:
        nums = (entry.rate, entry.std_error)
    return all(math.isfinite(x) for x in nums)


@st.composite
def _laws(draw, t, p):
    """Any input law on T = t slots at P = p with valid parameters, zero
    pilot or data powers and zero deterministic points among them."""
    kind = draw(st.sampled_from(INPUT_KINDS))
    params = {}
    if kind == "deterministic_point":
        amps = draw(st.lists(st.sampled_from([0.0, 1.0, 1e3]), min_size=t, max_size=t))
        params["x"] = np.zeros(t) if draw(st.booleans()) else np.asarray(amps) * (1.0 - 1j)
    elif kind == "exponent_profile_peak":
        params["exponents"] = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                            min_size=t, max_size=t))
    elif kind == "pilot_data_product":
        for key in ("pilot_power", "data_power"):
            power = draw(st.sampled_from([None, 0.0, 1.0, 1e4]))
            if power is not None:
                params[key] = power
    return InputDistribution(kind=kind, T=t, P=p, params=params)


@st.composite
def _cases(draw):
    t, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    p_dbs = draw(st.lists(st.floats(-30.0, 290.0), min_size=1, max_size=3))
    powers = [10.0 ** (db / 10.0) for db in p_dbs]
    cfg = ChannelConfig(T=t, N=n, P=powers[0], fading_kind=draw(st.sampled_from(FADING_KINDS)),
                        trials=draw(st.integers(2, 1000)), seed=draw(st.integers(0, 2**16)))
    return draw(_laws(t, powers[0])), draw(_laws(t, powers[0])), cfg, powers


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_cases())
def test_every_entry_is_finite_or_a_typed_error(case):
    x1, x2, cfg, powers = case
    entries = _entries(x1, x2, cfg, powers)
    assert len(entries) >= 3
    assert all(isinstance(e, SimomacError) or _finite(e) for e in entries)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(t=st.integers(2, 5), n=st.integers(1, 4), trials=st.integers(2, 1000),
       seed=st.integers(0, 2**16), bad=st.sampled_from(["T", "N", "trials", "seed"]),
       make=st.sampled_from([float, np.float64, lambda k: k + 0.5]))
def test_non_integer_counts_raise_invalid_param(t, n, trials, seed, bad, make):
    counts = {"T": t, "N": n, "trials": trials, "seed": seed}
    counts[bad] = make(counts[bad])
    try:
        iso = InputDistribution(kind="isotropic_peak", T=counts["T"], P=100.0)
        cfg = ChannelConfig(P=100.0, **counts)
    except SimomacError as exc:
        entries = [exc]
    else:
        entries = _entries(iso, iso, cfg, [100.0])
    assert entries and all(isinstance(e, InvalidParam) for e in entries)
