"""A ``powers=`` call is the per-power calls, bit for bit.

The duality bounds draw every trial chunk's fading and noise once for
the whole grid, from a stream of their own, and each point's inputs from
the chunk's stream, as a call of its own would; the training rates draw
their channel statistics once.  Every entry of a grid call must therefore equal the call
at that power alone, errors included, and the bounds must not depend on
how many threads ran their chunks.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simomac import converse
from simomac.channel import FADING_KINDS, ChannelConfig, InputDistribution
from simomac.converse import (
    REGIME_T_GE_N_PLUS_1,
    REGIME_T_LE_N,
    duality_bound_mac_user1,
    duality_bound_single_user,
)
from simomac.errors import InvalidParam, SimomacError
from simomac.training import mac_training_rates, single_user_training_rate


def _call(fn, *args, **kwargs):
    """fn's result, or the SimomacError it raised."""
    try:
        return fn(*args, **kwargs)
    except SimomacError as exc:
        return exc


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _input(kind, t, p, exponents, max_p):
    if kind == "exponent_profile":
        return InputDistribution(kind="exponent_profile_peak", T=t, P=p,
                                 params={"exponents": exponents})
    if kind == "truncated":
        # the threshold stays put while P moves, so the rejection loop, and
        # with it the generator state, differs between the points
        return InputDistribution(kind="exponential_norm", T=t, P=p, constraint="peak",
                                 truncate_above=t * max_p)
    return InputDistribution(kind="isotropic_peak", T=t, P=p)


def _on_threads(workers, fn, *args, **kwargs):
    """_call(fn, ...) with the bounds' trial chunks run on ``workers``
    threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(converse, "_cpu_count", lambda: workers)
        return _call(fn, *args, **kwargs)


def _check_grid(kind, t, n, trials, fading, p_dbs, seed, exponents, workers=1):
    """The grid calls, with the bounds on ``workers`` threads, against the
    per-power calls on one thread."""
    powers = [10.0 ** (db / 10.0) for db in p_dbs]
    cfg = ChannelConfig(T=t, N=n, P=powers[0], fading_kind=fading, trials=trials, seed=seed)
    dist = _input(kind, t, powers[0], exponents, max(powers))
    at = [(replace(dist, P=p), replace(cfg, P=p)) for p in powers]

    grid = _on_threads(workers, duality_bound_single_user, dist, cfg, powers=powers)
    assert len(grid) == len(powers)
    for got, (d, c) in zip(grid, at):
        assert _same(got, _on_threads(1, duality_bound_single_user, d, c))

    regime = REGIME_T_GE_N_PLUS_1 if t >= n + 1 else REGIME_T_LE_N
    grid = _on_threads(workers, duality_bound_mac_user1, dist, dist, cfg, regime, powers=powers)
    if t == 1:  # neither MAC regime exists
        assert isinstance(grid, SimomacError)
    else:
        for got, (d, c) in zip(grid, at):
            assert _same(got, _on_threads(1, duality_bound_mac_user1, d, d, c, regime))

    for rates in (single_user_training_rate, mac_training_rates):
        grid = _call(rates, cfg, powers=powers)
        singles = [_call(rates, c) for _, c in at]
        if isinstance(grid, SimomacError):
            assert all(_same(grid, s) for s in singles)
        else:
            assert all(_same(g, s) for g, s in zip(grid, singles))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["isotropic", "exponent_profile", "truncated"]),
    t=st.integers(1, 6),
    n=st.integers(1, 4),
    trials=st.integers(2, 600),
    fading=st.sampled_from(FADING_KINDS),
    p_dbs=st.lists(st.integers(-10, 60), min_size=1, max_size=4, unique=True),
    seed=st.integers(0, 2**16),
    exponent_grid=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=6, max_size=6),
    workers=st.integers(1, 3),
)
def test_grid_equals_per_power_calls(kind, t, n, trials, fading, p_dbs, seed, exponent_grid,
                                     workers):
    # 192 entries per chunk: up to 4 chunks at N = T = 1, up to 75 at N T = 24
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(converse, "_CHUNK_ENTRIES", 192)
        _check_grid(kind, t, n, trials, fading, p_dbs, seed, exponent_grid[:t], workers)


@pytest.mark.parametrize("kind", ["isotropic", "truncated"])
def test_grid_over_several_chunks(monkeypatch, kind):
    # T = 3, N = 2: 6 entries per trial, so 100 trials per chunk and an
    # odd remainder chunk
    monkeypatch.setattr(converse, "_CHUNK_ENTRIES", 600)
    _check_grid(kind, 3, 2, 451, "iid_complex_gaussian", [0, 20, 40], 5, [1.0, 0.5, 0.0])


@pytest.mark.parametrize("kind", ["isotropic", "truncated"])
def test_shared_draws_are_counted_once(monkeypatch, kind):
    # the points share the fading and noise of every chunk, whatever the
    # input law: only the inputs are drawn again
    calls = []
    real = converse.sample_channel
    monkeypatch.setattr(converse, "sample_channel",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    cfg = ChannelConfig(T=2, N=2, P=10.0, trials=1_000, seed=1)
    dist = _input(kind, 2, 10.0, None, 1000.0)
    duality_bound_single_user(dist, cfg, powers=[10.0, 100.0, 1000.0])
    assert len(calls) == len(list(converse._trial_chunks(cfg)))


def test_empty_grid_raises():
    cfg = ChannelConfig(T=2, N=2, P=10.0, trials=100)
    iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
    with pytest.raises(InvalidParam, match="powers"):
        duality_bound_single_user(iso, cfg, powers=[])


def test_grid_memory():
    # three points keep their evaluation halves plus one held noise chunk
    cfg = ChannelConfig(T=3, N=4, P=100.0, trials=100_000, seed=0)
    iso = InputDistribution(kind="isotropic_peak", T=3, P=100.0)
    tracemalloc.start()
    try:
        reports = duality_bound_mac_user1(iso, iso, cfg, REGIME_T_LE_N,
                                          powers=[1e2, 1e3, 1e4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(r.value) for r in reports)
    assert peak < 30 * 2**20
