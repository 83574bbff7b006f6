"""Genie-aided duality upper bounds for the single-user SIMO channel and
the two-user MAC.

All rate quantities are bits per channel use.  The duality bounds draw
and whiten their Monte-Carlo trials in fixed-size chunks from streams
of their own, the fading and noise once for every power and both
bounds, and run the chunks on every CPU the process may use; each chunk
writes its own rows, which are folded in chunk order, so the results do
not depend on the CPU count.  The auxiliary-output parameters (alpha, beta per slot category)
are fitted on the even half of the trials, kept only as per-chunk
sums, and the bound is evaluated on the odd half, to avoid fitting
bias; and all double-log remainder terms are carried explicitly in the
returned reports with the calibrated constants from
:mod:`simomac.auxdist`.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .auxdist import (
    NormSqSums,
    check_not_singular,
    fit_params,
    log_density_from_norm_sq,
    remainder_slack_bits,
)
from .channel import (
    InputDistribution,
    at_powers,
    one_or_all,
    sample_channel,
    sample_inputs,
    sample_outputs,
    superpose,
)
from .errors import InvalidParam, InvalidRegime, RegimeUnsupported, SimomacError
from .knn_entropy import knn_entropy_bits
from .linalg import (
    LN2,
    LOG2_PI_E,
    abs_sq,
    apply_rotation,
    divided_difference_exp,
    norm_sq,
    run_chunks,
)
from .region import regime_objective

# Samples per batched eigendecomposition in the mixture MI estimate.
_MIXTURE_BLOCK = 512

# Complex entries (trials x N x T) per chunk of the duality bounds: the
# (chunk, N, T) arrays stay at 1 MiB whatever the trial count, so one
# chunk in flight per CPU holds little memory.
_CHUNK_ENTRIES = 2**16


@dataclass
class BoundReport:
    """A Monte-Carlo bound value with its provenance."""

    value: float  # bits per channel use
    std_error: float
    remainder_terms: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Conditional entropy h(Y | X1, X2)
# ---------------------------------------------------------------------------

def _exact_log2_det(x1, x2):
    """log2 det(I_T + x1 x1^H + x2 x2^H), batched over leading axis."""
    ip = abs_sq(np.einsum("...t,...t->...", np.conj(x2), x1))
    return np.log2((1.0 + norm_sq(x1)) * (1.0 + norm_sq(x2)) - ip)


def _gaussian_h_given_x(log2_det, cfg):
    """h(Y | X) in bits under Gaussian fading, N log2_det + N T log2(pi e),
    from log2_det = log2 det(I_T + sum_k x_k x_k^H)."""
    return cfg.N * log2_det + cfg.N * cfg.T * LOG2_PI_E


# ---------------------------------------------------------------------------
# Duality-bound core shared by the three bounds
# ---------------------------------------------------------------------------

def _trial_chunks(cfg):
    """(start, stop, seed) for each chunk of the cfg.trials trials, in order.

    A chunk holds max(2, even part of ``_CHUNK_ENTRIES // (N T)``) trials,
    the last one possibly fewer, so a trial's parity is the same in its
    chunk as over all trials.  Chunk i's seed is the i-th SeedSequence
    spawned from SeedSequence((seed, 0)).
    """
    step = max(2, _CHUNK_ENTRIES // (cfg.N * cfg.T) // 2 * 2)
    starts = range(0, cfg.trials, step)
    seeds = np.random.SeedSequence((cfg.seed, 0)).spawn(len(starts))
    for lo, seed in zip(starts, seeds):
        yield lo, min(lo + step, cfg.trials), seed


def _whiten(yt, v, s, c):
    """Squared whitened norms ||A y_i||^2 and ln |det A|^2, each (B, T).

    yt: (B, N, T) outputs (rotated for the MAC); v: (B,) pilot slot; s, c:
    (B, T) whitening scales, non-pilot slot i being whitened by
    A = (s_i I + c_i y_v y_v^H)^{-1/2} and the pilot slot left as is.
    Each row depends on its own trial only, so chunks whiten independently.
    """
    b, n, _ = yt.shape
    rows = np.arange(b)
    y_v = yt[rows, :, v]
    nv2 = norm_sq(y_v)
    ip = abs_sq(np.einsum("bnt,bn->bt", yt, np.conj(y_v)))
    denom = s + c * nv2[:, None]
    white = norm_sq(yt, axis=1) / s - (c / s) * ip / denom
    log_det = -((n - 1) * np.log(s) + np.log(denom))  # ln |det A|^2
    white[rows, v] = nv2
    log_det[rows, v] = 0.0
    return white, log_det


def _categories(v, t, n_names):
    """(B, T) aux category per slot: 0 for the pilot slot v, n_names - 1
    for the last slot when it is not the pilot, 1 otherwise."""
    slot = np.arange(t)
    return np.where(slot == v[:, None], 0, np.where(slot == t - 1, n_names - 1, 1))


@dataclass
class _PointSums:
    """What one power point of a streamed bound keeps over all chunks.

    The fit (even) trials leave only the count, sum and least value of
    their whitened norms per (chunk, branch, category); the evaluation
    (odd) trials keep their whitened norms, the row sum of ln |det A|^2,
    the analytic right-hand side, h(Y | X), the pilot slot and the branch.
    Every chunk writes rows of its own only, so chunks may be folded in
    concurrently.
    """

    count: np.ndarray  # (chunks, branches, categories)
    total: np.ndarray
    least: np.ndarray
    white: np.ndarray  # (B // 2, T)
    log_det: np.ndarray  # (B // 2,)
    rhs: np.ndarray
    h_given_x: np.ndarray
    v: np.ndarray
    branch: np.ndarray

    @classmethod
    def empty(cls, cfg, n_chunks, n_branches, n_names):
        half, groups = cfg.trials // 2, (n_chunks, n_branches, n_names)
        return cls(np.zeros(groups, dtype=np.int64), np.zeros(groups), np.full(groups, np.inf),
                   np.empty((half, cfg.T)), np.empty(half), np.empty(half), np.empty(half),
                   np.empty(half, dtype=np.min_scalar_type(cfg.T)),
                   np.zeros(half, dtype=np.int8))

    def add_chunk(self, i, lo, white, log_det, v, rhs, h_given_x, branch):
        """Fold chunk i's trials [lo, lo + len(white)) in; lo is even."""
        fit, ev = slice(0, None, 2), slice(1, None, 2)
        n_names = self.count.shape[2]
        group = _categories(v[fit], white.shape[1], n_names)
        if branch is not None:
            group += n_names * branch[fit, None]
        group, pop = group.ravel(), white[fit].ravel()
        # chunk i's rows, flattened in (branch, category) order, as views
        count, total, least = (a[i].reshape(-1) for a in (self.count, self.total, self.least))
        count[:] = np.bincount(group, minlength=count.size)
        total[:] = np.bincount(group, pop, count.size)
        np.minimum.at(least, group, pop)
        rows = slice(lo // 2, lo // 2 + len(white) // 2)
        self.white[rows] = white[ev]
        self.log_det[rows] = log_det[ev].sum(axis=1)
        self.rhs[rows], self.h_given_x[rows], self.v[rows] = rhs[ev], h_given_x[ev], v[ev]
        if branch is not None:
            self.branch[rows] = branch[ev]

    def fit_and_evaluate(self, n, names, branched):
        """Per evaluation trial -log2 q(Y) for the genie-aided auxiliary
        output density, {label: (alpha, beta)} and [labels fitted on
        pooled samples].

        ``names`` labels the categories of :func:`_categories`.  The
        per-chunk rows are reduced by chunk index, whatever order the
        chunks finished in; then one canonical radial member is fitted per
        (branch, category) on the fit trials' sums; when branched, a
        branch with fewer than 100 fit samples, or mean <= 1, is fitted on
        the sums pooled over branches.  Groups are visited in (branch,
        category) order, those seen in either half only.
        """
        count, total = self.count.sum(axis=0), self.total.sum(axis=0)
        least = self.least.min(axis=0)
        cat = _categories(self.v, self.white.shape[1], len(names))
        ln_q = np.zeros(self.white.shape)
        fitted, pooled = {}, []
        # a mask, not np.unique, which imports numpy.ma on its first call
        seen = count.sum(axis=1) > 0
        seen[self.branch] = True
        for br in np.flatnonzero(seen):
            in_branch = (self.branch == br)[:, None]
            for c, name in enumerate(names):
                sel = (cat == c) & in_branch
                if not (count[br, c] or sel.any()):
                    continue
                label = f"branch{br}/{name}" if branched else name
                sums = NormSqSums(count[br, c], total[br, c])
                if branched and (sums.count < 100 or sums.total / sums.count <= 1.0):
                    sums = NormSqSums(count[:, c].sum(), total[:, c].sum())
                    pooled.append(label)
                try:
                    params = fit_params(sums, n, np.eye(n))
                except InvalidRegime as exc:
                    raise InvalidRegime(f"category {label!r}: {exc}") from None
                fitted[label] = (params.alpha, params.beta)
                check_not_singular(least[br, c], params)
                ln_q[sel] = log_density_from_norm_sq(self.white[sel], params)
        return -(ln_q.sum(axis=1) + self.log_det) / LN2, fitted, pooled


@dataclass(frozen=True)
class _Bound:
    """One duality bound of a streamed pass.

    ``genie(xs, channel, cfg, out)`` maps one chunk's inputs and
    :func:`sample_channel` draw to (yt, v, s, c, rhs, h_given_x, branch):
    the outputs to whiten, built in the thread's (chunk, N, T) buffer
    ``out``, the pilot slot and whitening scales of :func:`_whiten`, the
    analytic right-hand side, h(Y | X) and the aux branch (None when
    unbranched).  ``names`` labels the aux categories.
    """

    genie: Callable
    names: tuple
    genie_cost: float
    flags: dict
    branched: bool = False


def _streamed_bounds(points, bounds):
    """For each of ``bounds``, one BoundReport per (inputs, cfg) point of
    :func:`at_powers`, or the SimomacError its fit or evaluation raised.

    The trials are drawn chunk by chunk (:func:`_trial_chunks`), the
    chunks spread over the CPUs by :func:`~simomac.linalg.run_chunks`.  Each chunk draws
    its channel once, for every point and every bound, from a generator
    on the first child of the chunk's seed, in the order h1, Z, h2 of
    :func:`sample_channel`: a pass with one user draws exactly the first
    two.  Each point then draws its inputs (x1 first) from a fresh
    generator on the chunk's seed, so every point sees the draws of a
    call of its own, and every bound of a point sees the same draws as a
    pass for that bound alone.  Each thread draws the noise and builds
    each bound's outputs in turn in (chunk, N, T) buffers of its own,
    reused from chunk to chunk and bound to bound, so their memory is not
    faulted in afresh.  Every (B, N, T) array but the noise lives for one
    bound of one point of one chunk.
    """
    inputs0, cfg0 = points[0]
    if cfg0.trials < 2:
        raise InvalidParam("the bound needs trials >= 2: even trials fit, odd trials evaluate")
    chunks = list(_trial_chunks(cfg0))
    sums = [[_PointSums.empty(cfg, len(chunks), 3 if bound.branched else 1, len(bound.names))
             for bound in bounds] for _, cfg in points]
    step = chunks[0][1] - chunks[0][0]  # the longest chunk

    def run_chunk(i, lo, hi, seed, scratch):
        if not scratch:
            shape = (step, cfg0.N, cfg0.T)
            scratch.update(noise=np.empty(shape, dtype=complex), draw=np.empty(shape),
                           y=np.empty(shape, dtype=complex))
        noise, draw, y_buf = (scratch[key][:hi - lo] for key in ("noise", "draw", "y"))
        channel_seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (0,))
        channel = sample_channel(len(inputs0), cfg0, np.random.default_rng(channel_seed),
                                 size=hi - lo, out=noise, scratch=draw)
        for (inputs, cfg), point_sums in zip(points, sums):
            xs = sample_inputs(inputs, cfg, np.random.default_rng(seed), size=hi - lo)
            for k, (bound, acc) in enumerate(zip(bounds, point_sums), 1):
                yt, v, s, c, rhs, h_given_x, br = bound.genie(xs, channel, cfg, y_buf)
                if k == len(bounds):
                    del xs  # no later bound needs the inputs: free them before whitening
                acc.add_chunk(i, lo, *_whiten(yt, v, s, c), v, rhs, h_given_x, br)

    run_chunks(run_chunk, chunks)
    reports = [[] for _ in bounds]
    for (_, cfg), point_sums in zip(points, sums):
        for bound, acc, out in zip(bounds, point_sums, reports):
            try:
                neg_q, fitted, pooled = acc.fit_and_evaluate(cfg.N, bound.names, bound.branched)
            except SimomacError as exc:
                out.append(exc)
                continue
            rep = _bound_report(neg_q, acc.rhs, acc.h_given_x, bound.genie_cost, cfg, fitted,
                                bound.flags, acc.branch if bound.branched else None)
            rep.components["pooled_fit"] = pooled
            out.append(rep)
    return reports


def _bound_report(neg_q, rhs, h_given_x, genie_cost, cfg, fitted, flags=None, branch=None):
    """BoundReport from the evaluation trials' -log2 q(Y), analytic
    right-hand side, h(Y | X) and branch."""
    t = cfg.T
    stat = (neg_q - h_given_x + genie_cost) / t
    components = {
        "neg_log_q_per_cu": float((neg_q / t).mean()),
        "h_y_given_x_per_cu": float((h_given_x / t).mean()),
        "analytic_rhs_value": float(((rhs - h_given_x + genie_cost) / t).mean()),
        "fitted": fitted,
    }
    if branch is not None:
        per_branch = {k: branch == k for k in (0, 1, 2)}
        components["branch_counts"] = {k: int(m.sum()) for k, m in per_branch.items()}
        components["branch_neg_log_q_per_cu"] = {
            k: float((neg_q[m] / t).mean()) if m.any() else None for k, m in per_branch.items()
        }
        components["branch_rhs_per_cu"] = {
            k: float((rhs[m] / t).mean()) if m.any() else None for k, m in per_branch.items()
        }
    return BoundReport(
        value=float(stat.mean()),
        std_error=float(stat.std() / np.sqrt(stat.size)),
        remainder_terms={
            "log_log_slack_bits": remainder_slack_bits(cfg.P),
            "genie_cost_bits": float(genie_cost),
            **(flags or {}),
        },
        components=components,
    )


# ---------------------------------------------------------------------------
# Single-user duality bound
# ---------------------------------------------------------------------------

def _single_user_genie(xs, channel, cfg, out, slots):
    """Outputs y = h1 x1^T + Z of user 1 alone; the strongest of the first
    ``slots`` slots as the pilot, no whitening scales; the Proposition
    right-hand side and the Gaussian-fading h(Y | X) on the same trials."""
    n, t = cfg.N, cfg.T
    x = xs[0]
    mag = abs_sq(x)
    v = np.argmax(mag[:, :slots], axis=1)
    xv2 = mag[np.arange(v.size), v]
    off = np.arange(t) != v[:, None]
    ratios = mag / (1.0 + xv2)[:, None]
    rhs = (n + t - 1) * np.log2(1.0 + xv2) + n * np.where(
        off, np.log2(1.0 + ratios), 0.0
    ).sum(axis=1)
    h_given_x = _gaussian_h_given_x(np.log2(1.0 + norm_sq(x)), cfg)
    ones = np.ones(mag.shape)
    return superpose(xs[:1], channel, out=out), v, ones, ones, rhs, h_given_x, None


def _single_user_bound(cfg, slots):
    """The single-user bound of :func:`_streamed_bounds`, its pilot the
    strongest of the first ``slots`` slots (1 <= slots <= T)."""
    # h(Y|X) is the Gaussian-fading value; flag it for other fading
    flags = {"h_order_one_flagged": cfg.fading_kind != "iid_complex_gaussian"}
    return _Bound(partial(_single_user_genie, slots=slots), ("pilot", "offpilot"),
                  np.log2(slots), flags)


def duality_bound_single_user(input_dist, cfg, *, powers=None):
    """Duality upper bound on the single-user rate (bits/channel use).

    Returns a BoundReport whose components include the analytic
    Proposition-style right-hand side evaluated on the same samples.

    With ``powers``, returns one entry per power, equal to the call with
    the input and cfg at that P: its BoundReport, or the SimomacError its
    fit or evaluation raised.  Every trial chunk's fading and noise are
    drawn once for the whole grid (see :func:`_streamed_bounds`).
    """
    bound = _single_user_bound(cfg, cfg.T)
    (reports,) = _streamed_bounds(at_powers([input_dist], cfg, powers), [bound])
    return one_or_all(reports, powers)


# ---------------------------------------------------------------------------
# MAC duality bound on user 1
# ---------------------------------------------------------------------------

MAC_CATEGORIES = ("pilot", "middle", "last")


def _mac_high_t(mag, s2, yt, cfg):
    """(T-1)-slot genie for the T >= N+1 regime; the last slot is whitened
    against the interference power.  mag: |x1t|^2 of the rotated input;
    s2: ||x2||^2.  Returns (v, s, c, analytic rhs, branch=None)."""
    b, n, t = yt.shape
    v = np.argmax(mag[:, : t - 1], axis=1)
    s = np.ones((b, t))
    s[:, -1] = 1.0 + s2

    # analytic right-hand side evaluated on the same samples
    mv = mag[np.arange(b), v]
    head_ratios = mag[:, : t - 1] / (1.0 + mv)[:, None]
    head_mask = np.arange(t - 1) != v[:, None]
    rhs = (
        (n + t - 2) * np.log2(1.0 + mv)
        + n * np.where(head_mask, np.log2(1.0 + head_ratios), 0.0).sum(axis=1)
        + n * np.log2(1.0 + s2)
        + np.log2(1.0 + mv / (1.0 + s2))
        + n * np.log2(1.0 + mag[:, -1] / (1.0 + s2 + mv))
    )
    return v, s, np.ones((b, t)), rhs, None


def _mac_low_t(mag, s2, yt, cfg):
    """(V, U)-genie for the T <= N regime with the three aux branches:
    0 when the pilot is the last slot, 1 otherwise, 2 when moreover the
    last entry dominates everything."""
    b, n, t = yt.shape
    p = cfg.P
    sigma = np.ones((b, t))
    sigma[:, -1] = 1.0 + s2
    v = np.argmax(mag / sigma, axis=1)
    head_max = mag[:, : t - 1].max(axis=1)
    u = mag[:, -1] >= np.maximum(head_max, 1.0 + s2)
    branch = np.where(v == t - 1, 0, np.where(u, 2, 1))

    rows = np.arange(b)
    c = np.repeat(1.0 / sigma[rows, v][:, None], t, axis=1)
    # branch 2 rescales the pilot direction by P / ||Y_v||^2
    nv2 = norm_sq(yt[rows, :, v])
    c[:, -1] = np.where(branch == 2, p / np.maximum(nv2, 1e-300), c[:, -1])

    # analytic per-branch right-hand sides (shared samples)
    mv = mag[rows, v]
    rhs = np.zeros(b)
    b0, b1, b2 = branch == 0, branch == 1, branch == 2
    xt2 = mag[:, -1]
    rhs[b0] = (
        n * np.log2(1.0 + s2[b0] + xt2[b0])
        + (t - 1) * np.log2(1.0 + xt2[b0] / (1.0 + s2[b0]))
    )
    rhs[b1] = (
        (n + t - 2) * np.log2(1.0 + mv[b1])
        + n * np.log2(1.0 + s2[b1])
        + np.log2(1.0 + mv[b1] / (1.0 + s2[b1]))
    )
    rhs[b2] = (
        (n + t - 2) * np.log2(1.0 + mv[b2])
        + n * np.log2((1.0 + s2[b2] + xt2[b2]) / (1.0 + s2[b2] + p))
        + n * np.log2(1.0 + s2[b2])
        + np.log2(1.0 + p / (1.0 + s2[b2]))
    )
    return v, sigma, c, rhs, branch


def _mac_genie(xs, channel, cfg, out, engine):
    """One chunk of the MAC bound: the outputs rotated by U(x2), built in
    ``out``; the regime's ``engine`` on them; h(Y | X1, X2) (its dominant
    term only, flagged, off Gaussian fading).

    Since x2^T U(x2) = ||x2|| e_T^T, the rotated outputs are
    (h1 x1^T + h2 x2^T + Z) U = h1 (x1^T U) + ||x2|| h2 e_T^T + Z U.  Given
    x2, U is a fixed unitary, and i.i.d. CN(0, 1) noise is unitarily
    invariant (Marzetta & Hochwald, IEEE Trans. IT 1999), so Z U has the
    law of Z whatever x1, x2, h1 and h2 are: the outputs are drawn
    already rotated, with Z in place of Z U, and only user 1's (B, T)
    input is rotated.
    """
    x1, x2 = xs
    hs, _ = channel
    x1t = apply_rotation(x1[:, None, :], x2)[:, 0]
    s2 = norm_sq(x2)
    yt = superpose([x1t], channel, out=out)
    yt[:, :, -1] += np.sqrt(s2)[:, None] * hs[1]
    mag = abs_sq(x1t)
    v, s, c, rhs, branch = engine(mag, s2, yt, cfg)
    if cfg.fading_kind == "iid_complex_gaussian":
        h_given_x = _gaussian_h_given_x(_exact_log2_det(x1, x2), cfg)
    else:
        head = mag[:, :-1].sum(axis=1)
        h_given_x = cfg.N * np.log2((1.0 + s2) * (1.0 + head) + mag[:, -1])
    return yt, v, s, c, rhs, h_given_x, branch


def _mac_bound(cfg):
    """The MAC user-1 bound of :func:`_streamed_bounds`; raises
    RegimeUnsupported at T = 1, where neither genie exists."""
    t = cfg.T
    if t < 2:
        raise RegimeUnsupported("the MAC bound needs T >= 2")
    flags = {"h_order_one_flagged": cfg.fading_kind != "iid_complex_gaussian"}
    if regime_objective(t, cfg.N) == "f_exponent":
        return _Bound(partial(_mac_genie, engine=_mac_high_t), MAC_CATEGORIES,
                      np.log2(t - 1), flags)
    return _Bound(partial(_mac_genie, engine=_mac_low_t), MAC_CATEGORIES, np.log2(2 * t),
                  flags, branched=True)


def duality_bound_mac_user1(input1, input2, cfg, *, powers=None):
    """Duality upper bound on R1 for the two-user MAC (bits/channel use).

    The genie follows :func:`~simomac.region.regime_objective`: with the
    f bracket (T >= N+1) the (T-1)-slot genie, cost log2(T-1); with the g
    bracket the (V, U) genie with three aux branches, cost log2(2T).
    Raises RegimeUnsupported at T = 1.  Components carry the per-branch
    contributions and the analytic right-hand side on the shared
    samples.  ``powers`` works as in :func:`duality_bound_single_user`.
    """
    bound = _mac_bound(cfg)
    (reports,) = _streamed_bounds(at_powers([input1, input2], cfg, powers), [bound])
    return one_or_all(reports, powers)


def duality_bounds(input1, input2, cfg, *, powers=None):
    """(:func:`duality_bound_single_user` of input1, :func:`duality_bound_mac_user1`)
    from one pass over the trials.

    Both bounds see the same chunks, h1, Z and x1, and each equals its
    own call bit for bit (see :func:`_streamed_bounds`).  Raises
    RegimeUnsupported at T = 1 before drawing anything.  ``powers`` works
    as in :func:`duality_bound_single_user`; without it, the single-user
    error is raised before the MAC one.
    """
    bounds = [_single_user_bound(cfg, cfg.T), _mac_bound(cfg)]
    single, mac = _streamed_bounds(at_powers([input1, input2], cfg, powers), bounds)
    return one_or_all(single, powers), one_or_all(mac, powers)


# ---------------------------------------------------------------------------
# Plug-in mutual-information estimates (oracles for the bounds)
# ---------------------------------------------------------------------------

def isotropic_mixture_mi_estimate(cfg, trials=None):
    """Unbiased MC estimate of (1/T) I(X;Y) for the isotropic peak-P input.

    Given x, the output is exactly Gaussian, and the Haar average of the
    likelihood over input directions has a closed form:
    E_u[exp(u^H M u)] = (T-1)! * (divided difference of exp at eig(M)).
    This gives E[-log p(Y)] without density-estimation bias, unlike the
    k-NN route, which over-estimates h(Y) badly at high SNR in 2NT dims.
    The outputs are drawn once; then each block of ``_MIXTURE_BLOCK``
    samples gets one batched ``eigvalsh`` of M and one
    :func:`~simomac.linalg.divided_difference_exp` (batched Pade scaling
    and squaring of the bidiagonal exponential) at the eigenvalues
    shifted by their maximum, so temporaries stay O(block * T^2).

    Raises InvalidParam if ``trials`` < 1.
    """
    from math import lgamma

    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form mixture needs Gaussian fading")
    n, t, p = cfg.N, cfg.T, cfg.P
    b = trials if trials is not None else min(cfg.trials, 10_000)
    if b < 1:
        raise InvalidParam("trials must be >= 1")
    iso = InputDistribution(kind="isotropic_peak", T=t, P=p)
    _, y = sample_outputs([iso], cfg, cfg.rng(stream=2), size=b)
    c = p / (1.0 + p)
    ln_p = np.empty(b)
    for i in range(0, b, _MIXTURE_BLOCK):
        yb = y[i:i + _MIXTURE_BLOCK]
        mu = np.linalg.eigvalsh(c * np.einsum("bns,bnt->bst", yb, yb.conj()))
        mu_max = mu[:, -1]
        dd = divided_difference_exp(mu - mu_max[:, None])
        ln_p[i:i + _MIXTURE_BLOCK] = (
            mu_max + np.log(np.maximum(dd, 1e-300)) - norm_sq(yb.reshape(len(yb), -1))
        )
    ln_p += lgamma(t) - n * t * np.log(np.pi) - n * np.log(1.0 + p)
    neg_log_p = -ln_p / LN2
    h_cond = _gaussian_h_given_x(np.log2(1.0 + p), cfg)  # ||x||^2 = P surely
    mi = (neg_log_p.mean() - h_cond) / t
    se = float(neg_log_p.std() / np.sqrt(b) / t)
    return mi, se


def mutual_information_lower_estimate(input_dist, cfg, k=4, max_knn_samples=20_000):
    """(1/T) * [kNN-hat h(Y) - exact h(Y|X)] for the single-user channel.

    A plug-in estimate, not a lower bound: the k-NN entropy of Y is biased
    high at high SNR in 2NT real dimensions, so the estimate can exceed
    the mutual information by a factor of two or more.  Dimension is capped
    (T <= 8, N <= 4) for estimator sanity.  The k-NN search is the cost
    bottleneck (quadratic in the sample count), so h(Y) uses the outputs
    of the first m = min(trials, ``max_knn_samples``) inputs only: all
    ``cfg.trials`` inputs are drawn, then the fading and noise of those
    m, so no output beyond them is formed.  The exact conditional part
    averages over all the inputs, which are dropped before the search.
    """
    if cfg.T > 8 or cfg.N > 4:
        raise InvalidParam("k-NN estimate capped at T <= 8, N <= 4")
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("plug-in estimate needs the exact Gaussian branch")
    rng = cfg.rng(stream=1)
    (x,) = sample_inputs([input_dist], cfg, rng)
    m = min(cfg.trials, max_knn_samples)
    y = superpose([x[:m]], sample_channel(1, cfg, rng, size=m))
    h_cond = _gaussian_h_given_x(np.log2(1.0 + norm_sq(x)), cfg).mean()
    del x
    h_y = knn_entropy_bits(y.reshape(m, -1), k=k)
    return float((h_y - h_cond) / cfg.T)
