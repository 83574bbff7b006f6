"""Genie-aided duality upper bounds for the single-user SIMO channel and
the two-user MAC.

All rate quantities are bits per channel use.  The duality bounds draw
and whiten their Monte-Carlo trials in fixed-size chunks from streams
of their own, the fading and noise once for every power, and run the
chunks on every CPU the process may use; each chunk writes its own rows,
which are folded in chunk order, so the results do not depend on the CPU
count.  The auxiliary-output parameters (alpha, beta per slot category)
are fitted on the even half of the trials, kept only as per-chunk
sums, and the bound is evaluated on the odd half, to avoid fitting
bias; and all double-log remainder terms are carried explicitly in the
returned reports with the calibrated constants from
:mod:`simomac.auxdist`.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
from .linalg import LN2, LOG2_PI_E, abs_sq, apply_rotation, divided_difference_exp, norm_sq

REGIME_T_GE_N_PLUS_1 = "T_ge_N_plus_1"
REGIME_T_LE_N = "T_le_N"

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
        seen = np.flatnonzero(count.sum(axis=1))
        for br in np.union1d(seen, np.unique(self.branch)):
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


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(run, chunks):
    """Call ``run(i, *chunks[i], scratch)`` for every chunk i.

    The calling thread and min(CPUs, chunks) - 1 helper threads take the
    chunk indices in order from one shared iterator.  Each thread passes
    a dict of its own as ``scratch``, in which ``run`` may keep buffers
    for that thread's later chunks.  Once a chunk raises,
    no further chunk is started; after the started ones have finished,
    the error of the lowest failed chunk is raised.  Every chunk below it
    was started before it, so that is the error a one-thread run raises.
    """
    lock = threading.Lock()
    todo = iter(range(len(chunks)))
    errors = {}

    def work():
        scratch = {}
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                run(i, *chunks[i], scratch)
            except BaseException as exc:  # re-raised below, on the calling thread
                with lock:
                    errors[i] = exc

    helpers = min(_cpu_count(), len(chunks)) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:  # threads start on submit only
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    if errors:
        raise errors[min(errors)]


def _streamed_bounds(points, genie, names, genie_cost, flags, branched=False):
    """One BoundReport per (inputs, cfg) point of :func:`at_powers`, or the
    SimomacError its fit or evaluation raised.

    The trials are drawn chunk by chunk (:func:`_trial_chunks`), the
    chunks spread over the CPUs by :func:`_run_chunks`.  Each chunk draws
    its fading and noise once, for every point, from a generator on the
    first child of the chunk's seed; each point then draws its inputs
    from a fresh generator on the chunk's seed and superposes them onto
    that channel, so every point sees the draws of a call of its own.
    Each thread draws the noise and superposes the outputs in (chunk, N,
    T) buffers of its own, reused from chunk to chunk, so their memory is
    not faulted in afresh for every chunk.
    ``genie(xs, y, cfg)`` maps one chunk's inputs and outputs to
    (yt, v, s, c, rhs, h_given_x, branch): the outputs to whiten, the
    pilot slot and whitening scales of :func:`_whiten`, the analytic
    right-hand side, h(Y | X) and the aux branch (None when unbranched).
    Every (B, N, T) array but the noise lives for one point of one chunk.
    """
    inputs0, cfg0 = points[0]
    if cfg0.trials < 2:
        raise InvalidParam("the bound needs trials >= 2: even trials fit, odd trials evaluate")
    chunks = list(_trial_chunks(cfg0))
    sums = [_PointSums.empty(cfg, len(chunks), 3 if branched else 1, len(names))
            for _, cfg in points]
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
        for (inputs, cfg), acc in zip(points, sums):
            xs = sample_inputs(inputs, cfg, np.random.default_rng(seed), size=hi - lo)
            y = superpose(xs, channel, out=y_buf)
            yt, v, s, c, rhs, h_given_x, br = genie(xs, y, cfg)
            del xs, y
            acc.add_chunk(i, lo, *_whiten(yt, v, s, c), v, rhs, h_given_x, br)

    _run_chunks(run_chunk, chunks)
    reports = []
    for (_, cfg), acc in zip(points, sums):
        try:
            neg_q, fitted, pooled = acc.fit_and_evaluate(cfg.N, names, branched)
        except SimomacError as exc:
            reports.append(exc)
            continue
        rep = _bound_report(neg_q, acc.rhs, acc.h_given_x, genie_cost, cfg, fitted, flags,
                            acc.branch if branched else None)
        rep.components["pooled_fit"] = pooled
        reports.append(rep)
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

def _single_user_genie(xs, y, cfg, slots):
    """Strongest of the first ``slots`` slots as the pilot, no whitening
    scales; the Proposition right-hand side and the Gaussian-fading
    h(Y | X) on the same trials."""
    n, t = cfg.N, cfg.T
    (x,) = xs
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
    return y, v, ones, ones, rhs, h_given_x, None


def duality_bound_single_user(input_dist, cfg, genie_slots=None, *, powers=None):
    """Duality upper bound on the single-user rate (bits/channel use).

    Returns a BoundReport whose components include the analytic
    Proposition-style right-hand side evaluated on the same samples.
    ``genie_slots`` restricts the argmax to the first slots (testing hook
    for the MAC reduction); default all T slots.  Raises InvalidParam
    unless 1 <= genie_slots <= T.

    With ``powers``, returns one entry per power, equal to the call with
    the input and cfg at that P: its BoundReport, or the SimomacError its
    fit or evaluation raised.  Every trial chunk's fading and noise are
    drawn once for the whole grid (see :func:`_streamed_bounds`).
    """
    slots = cfg.T if genie_slots is None else genie_slots
    if not 1 <= slots <= cfg.T:
        raise InvalidParam(f"genie_slots must lie in [1, T={cfg.T}], got {slots}")
    # h(Y|X) is the Gaussian-fading value; flag it for other fading
    reports = _streamed_bounds(at_powers([input_dist], cfg, powers),
                               partial(_single_user_genie, slots=slots),
                               ("pilot", "offpilot"), np.log2(slots),
                               {"h_order_one_flagged": cfg.fading_kind != "iid_complex_gaussian"})
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


def _mac_genie(xs, y, cfg, engine):
    """One chunk of the MAC bound: rotate user 1's input and the outputs
    by U(x2), run the regime's ``engine`` and add h(Y | X1, X2) (its
    dominant term only, flagged, off Gaussian fading).  y is rotated in
    place."""
    x1, x2 = xs
    x1t = apply_rotation(x1[:, None, :], x2)[:, 0]
    yt = apply_rotation(y, x2, out=y)
    s2 = norm_sq(x2)
    mag = abs_sq(x1t)
    v, s, c, rhs, branch = engine(mag, s2, yt, cfg)
    if cfg.fading_kind == "iid_complex_gaussian":
        h_given_x = _gaussian_h_given_x(_exact_log2_det(x1, x2), cfg)
    else:
        head = mag[:, :-1].sum(axis=1)
        h_given_x = cfg.N * np.log2((1.0 + s2) * (1.0 + head) + mag[:, -1])
    return yt, v, s, c, rhs, h_given_x, branch


def duality_bound_mac_user1(input1, input2, cfg, regime, *, powers=None):
    """Duality upper bound on R1 for the two-user MAC (bits/channel use).

    T >= N+1 regime uses the (T-1)-slot genie; T <= N uses the (V, U)
    genie with the three conditional aux branches and genie cost
    log2(2T).  Components carry the per-branch contributions and the
    analytic right-hand side on the shared samples.  ``powers`` works as
    in :func:`duality_bound_single_user`.
    """
    n, t = cfg.N, cfg.T
    if regime == REGIME_T_GE_N_PLUS_1:
        if t < n + 1:
            raise RegimeUnsupported(f"regime {regime} needs T >= N+1")
        genie_cost = np.log2(t - 1)
        engine = _mac_high_t
    elif regime == REGIME_T_LE_N:
        if not 2 <= t <= n:
            raise RegimeUnsupported(f"regime {regime} needs 2 <= T <= N")
        genie_cost = np.log2(2 * t)
        engine = _mac_low_t
    else:
        raise InvalidParam(f"unknown regime {regime!r}")

    flags = {"h_order_one_flagged": cfg.fading_kind != "iid_complex_gaussian"}
    reports = _streamed_bounds(at_powers([input1, input2], cfg, powers),
                               partial(_mac_genie, engine=engine), MAC_CATEGORIES, genie_cost,
                               flags, branched=engine is _mac_low_t)
    return one_or_all(reports, powers)


# ---------------------------------------------------------------------------
# Plug-in mutual-information lower estimate (k-NN oracle side)
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

    Dimension is capped (T <= 8, N <= 4) for estimator sanity.  The k-NN
    query is the cost bottleneck (near-quadratic in 2NT dimensions), so
    h(Y) uses the outputs of the first m = min(trials, ``max_knn_samples``)
    inputs only: all ``cfg.trials`` inputs are drawn, then the fading and
    noise of those m, so no output beyond them is formed.  The exact
    conditional part averages over all the inputs.
    """
    if cfg.T > 8 or cfg.N > 4:
        raise InvalidParam("k-NN estimate capped at T <= 8, N <= 4")
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("plug-in estimate needs the exact Gaussian branch")
    rng = cfg.rng(stream=1)
    (x,) = sample_inputs([input_dist], cfg, rng)
    m = min(cfg.trials, max_knn_samples)
    y = superpose([x[:m]], sample_channel(1, cfg, rng, size=m))
    h_y = knn_entropy_bits(y.reshape(m, -1), k=k)
    h_cond = _gaussian_h_given_x(np.log2(1.0 + norm_sq(x)), cfg)
    return float((h_y - h_cond.mean()) / cfg.T)
