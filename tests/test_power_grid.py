"""A ``powers=`` call is the per-power calls, bit for bit.

The duality bounds draw every trial chunk's fading and noise once for
the whole grid, from a stream of their own, and each point's inputs from
the chunk's stream, as a call of its own would: the P-free part once for
the whole grid, unless the law is truncated; the training rates draw
their channel statistics once.  Every entry of a grid call must therefore equal the call
at that power alone, errors included, and the bounds must not depend on
how many threads ran their chunks.  ``duality_bounds`` runs both bounds
in the same fit and evaluation passes over the same draws, so each of
its entries must equal the call of that bound alone.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simomac import channel, converse, linalg
from simomac.channel import FADING_KINDS, INPUT_KINDS, ChannelConfig, InputDistribution
from simomac.converse import duality_bound_mac_user1, duality_bound_single_user, duality_bounds
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


# every input law, pilot_data_product also with explicit pilot and data
# powers, and a truncated law
KINDS = [*INPUT_KINDS, "pilot_data_explicit", "truncated"]


def _input(kind, t, p, exponents, max_p):
    """The law ``kind`` at P = p; ``exponents`` (T entries) shape the
    exponent profile and the deterministic point."""
    if kind == "exponent_profile_peak":
        return InputDistribution(kind=kind, T=t, P=p, params={"exponents": exponents})
    if kind == "deterministic_point":
        x = np.sqrt(p) * (1.0 + 1j * np.asarray(exponents))
        return InputDistribution(kind=kind, T=t, P=p, params={"x": x})
    if kind == "pilot_data_explicit":
        # powers that stay put while P moves
        return InputDistribution(kind="pilot_data_product", T=t, P=p,
                                 params={"pilot_power": max_p, "data_power": p / 2.0})
    if kind == "truncated":
        # the threshold stays put while P moves, so the rejection loop, and
        # with it the generator state, differs between the points
        return InputDistribution(kind="exponential_norm", T=t, P=p, truncate_above=t * max_p)
    return InputDistribution(kind=kind, T=t, P=p)


def _on_threads(workers, fn, *args, **kwargs):
    """_call(fn, ...) with its trial chunks run on ``workers`` threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "cpu_count", lambda: workers)
        return _call(fn, *args, **kwargs)


def _check_grid(kind, t, n, trials, fading, p_dbs, seed, exponents, workers=1):
    """The grid calls on ``workers`` threads against the per-power calls
    on one thread."""
    powers = [10.0 ** (db / 10.0) for db in p_dbs]
    cfg = ChannelConfig(T=t, N=n, P=powers[0], fading_kind=fading, trials=trials, seed=seed)
    dist = _input(kind, t, powers[0], exponents, max(powers))
    at = [(replace(dist, P=p), replace(cfg, P=p)) for p in powers]

    grid = _on_threads(workers, duality_bound_single_user, dist, cfg, powers=powers)
    assert len(grid) == len(powers)
    single_alone = [_on_threads(1, duality_bound_single_user, d, c) for d, c in at]
    for got, alone in zip(grid, single_alone):
        assert _same(got, alone)

    grid = _on_threads(workers, duality_bound_mac_user1, dist, dist, cfg, powers=powers)
    both = _on_threads(workers, duality_bounds, dist, dist, cfg, powers=powers)
    if t == 1:  # neither MAC genie exists
        assert isinstance(grid, SimomacError)
        assert _same(both, grid)
    else:
        single, mac = both
        assert len(single) == len(mac) == len(powers)
        for got, got_single, got_mac, (d, c), su in zip(grid, single, mac, at, single_alone):
            alone = _on_threads(1, duality_bound_mac_user1, d, d, c)
            assert _same(got, alone) and _same(got_mac, alone)
            assert _same(got_single, su)

    for rates in (single_user_training_rate, mac_training_rates):
        grid = _on_threads(workers, rates, cfg, powers=powers)
        singles = [_call(rates, c) for _, c in at]
        if isinstance(grid, SimomacError):
            assert all(_same(grid, s) for s in singles)
        else:
            assert all(_same(g, s) for g, s in zip(grid, singles))


# about 20 examples for each of the 7 kinds
@settings(max_examples=140, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
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
    # 96 trial-slots per chunk: up to 8 chunks at T = 1, up to 38 at T = 6
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CHUNK_SLOTS", 96)
        _check_grid(kind, t, n, trials, fading, p_dbs, seed, exponent_grid[:t], workers)


@pytest.mark.parametrize("kind", KINDS)
def test_grid_over_several_chunks(monkeypatch, kind):
    # T = 3: 3 slots per trial, so at most 100 trials per chunk: 226 fit
    # trials in chunks of 76, 76 and 74, 225 evaluation trials in three of
    # 75
    monkeypatch.setattr(linalg, "_CHUNK_SLOTS", 300)
    _check_grid(kind, 3, 2, 451, "iid_complex_gaussian", [0, 20, 40], 5, [1.0, 0.5, 0.0])


@pytest.mark.parametrize("fading", FADING_KINDS)
@pytest.mark.parametrize("kind", ["isotropic_peak", "truncated"])
def test_shared_draws_are_counted_once(monkeypatch, kind, fading):
    # the points, and both bounds of duality_bounds, share the source of
    # every chunk of both streams (its channel, or under Gaussian fading
    # its drawn whitening statistics), whatever the input law; an
    # untruncated law's P-free input draw is made once per chunk, whatever
    # the grid length, a truncated law's inputs once per point; no chunk is
    # drawn twice.  Under Gaussian fading no channel or output is drawn,
    # and the row model is built once per chunk of every point and bound;
    # off it the outputs are projected once per chunk of every point and
    # bound.  Both passes build the slot levels once (_slot_levels) and
    # whiten once (_whiten) per chunk of every point and bound; the fit
    # pass takes no log: ln |det A|^2 (_log_det), h(Y | X) and the
    # right-hand sides come from the evaluation chunks
    calls = Counter()

    def count(owner, name, key):
        table = isinstance(owner, dict)  # a dict entry, or a module or class attribute
        real = owner[name] if table else getattr(owner, name)
        (monkeypatch.setitem if table else monkeypatch.setattr)(
            owner, name, lambda *args, **kwargs: calls.update([key]) or real(*args, **kwargs))

    count(converse._SOURCES, fading, "source")
    count(converse, "sample_channel", "channel")
    count(converse, "_drawn_parts", "drawn")
    count(converse, "_residual_variance", "row_model")
    count(converse, "_project", "project")
    count(InputDistribution, "draw", "draw")
    count(channel, "sample_inputs", "point")
    count(converse, "_slot_levels", "slot_levels")
    count(converse, "_whiten", "whiten")
    count(converse, "_log_det", "log_det")
    count(converse, "_h_given_x", "h_given_x")
    for rhs in ("_single_user_rhs", "_mac_high_t_rhs", "_mac_low_t_rhs"):
        count(converse, rhs, "rhs")
    cfg = ChannelConfig(T=2, N=2, P=10.0, trials=1_000, seed=1, fading_kind=fading)
    dist = _input(kind, 2, 10.0, None, 1000.0)
    evaluation = len(linalg.trial_chunks(cfg.trials // 2, cfg.T))
    chunks = len(linalg.trial_chunks((cfg.trials + 1) // 2, cfg.T)) + evaluation
    gaussian = fading == "iid_complex_gaussian"
    for powers in ([10.0], [10.0, 100.0, 1000.0]):
        for fn, args, users, bounds in ((duality_bound_single_user, (dist, cfg), 1, 1),
                                        (duality_bounds, (dist, dist, cfg), 2, 2)):
            calls.clear()
            fn(*args, powers=powers)
            assert calls["source"] == chunks
            assert calls["channel"] == (0 if gaussian else chunks)
            if kind == "truncated":
                assert calls["point"] == len(powers) * chunks
            else:
                assert calls["draw"] == users * chunks and calls["point"] == 0
            whitened = len(powers) * bounds * chunks
            assert calls["slot_levels"] == calls["whiten"] == whitened
            assert calls["drawn"] == calls["row_model"] == (whitened if gaussian else 0)
            assert calls["project"] == (0 if gaussian else whitened)
            for key in ("log_det", "h_given_x", "rhs"):
                assert calls[key] == len(powers) * bounds * evaluation


def test_empty_grid_raises():
    cfg = ChannelConfig(T=2, N=2, P=10.0, trials=100)
    iso = InputDistribution(kind="isotropic_peak", T=2, P=10.0)
    with pytest.raises(InvalidParam, match="powers"):
        duality_bound_single_user(iso, cfg, powers=[])


def test_grid_memory():
    # three points keep per-chunk rows only; each thread reuses its own noise buffer
    cfg = ChannelConfig(T=3, N=4, P=100.0, trials=100_000, seed=0)
    iso = InputDistribution(kind="isotropic_peak", T=3, P=100.0)
    tracemalloc.start()
    try:
        reports = duality_bound_mac_user1(iso, iso, cfg, powers=[1e2, 1e3, 1e4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(r.value) for r in reports)
    assert peak < 30 * 2**20
