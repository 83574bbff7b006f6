"""Genie-aided duality upper bounds for the single-user SIMO channel and
the two-user MAC.

All rate quantities are bits per channel use.  Each bound is a genie
shape of three plain functions (:class:`_Bound`) on one row model: the
slot levels s (:func:`_slot_levels`), built once per chunk, and one
h(Y | X) (:func:`_h_given_x`), which the k-NN MI estimate shares; every
genie decision is a function of the inputs.  The duality bounds run
their Monte-Carlo trials as two streams of
:func:`~simomac.linalg.streamed`, each chunk's channel drawn once for
every power and both bounds, its inputs once for every power unless
their law is truncated.  Half the trials fit the auxiliary-output
parameters (alpha, beta per branch and slot category) on sums of the
whitened norms (:class:`~simomac.auxdist.NormSqSums`); the other half, a
stream of their own, evaluate the bound against those fixed parameters
and keep only plain sums (:class:`_PointSums`).  Both passes whiten each
slot from its parts along and orthogonal to the pilot output
(:class:`_Parts`) through one tail (:func:`_whiten`), so no digits
cancel at high power.  Off Gaussian fading the parts come from the
outputs (:func:`_project`, the one reader of the outputs).  Under
Gaussian fading their law given X is known, each row of Y being
CN(0, K(X)), so a chunk draws them instead (:func:`_drawn_parts`):
||y_v||^2 = K_vv Gamma(N, 1), <y_t, u> = a_t + sigma_t CN(0, 1) and
||y_perp,t||^2 = sigma_t^2 Gamma(N - 1, 1), each slot's exact joint law
with the pilot; the statistic is a sum over slots, so its mean is that
of the outputs.  So there is no fitting bias, and memory does not grow
with the trial count.  Under Gaussian fading the evaluated statistic is
also Rao-Blackwellised (:func:`_conditioned_terms`): the pilot slot's
terms of -ln q(Y) are replaced by their means given X, each other slot's
||w_t||^2 by its mean given X and the pilot output, and for N >= 3 its
ln ||w_t||^2 carries a zero-mean control variate, the log of the drawn
Gamma(N - 1) orthogonal part; so the bound keeps its mean at a smaller
standard error.  The double-log remainder terms are carried in the
reports with the calibrated constants of :mod:`simomac.auxdist`.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .auxdist import (
    NormSqSums,
    check_not_singular,
    fit_params,
    log_norm_sq,
    log_normalizer,
    radial_log_density,
    remainder_slack_bits,
)
from .channel import (
    FADING_ENTROPY_DEFICIT,
    at_powers,
    one_or_all,
    sample_channel,
    sample_inputs,
    sample_point_inputs,
    superpose,
)
from .errors import InvalidParam, InvalidRegime, RegimeUnsupported, SimomacError, counts
from .knn_entropy import knn_entropy_bits
from .linalg import (
    LN2,
    LOG2_PI_E,
    abs_sq,
    apply_rotation,
    chunk_seed,
    log_divided_difference_exp,
    mean_and_std_error,
    merge_moments,
    moments_of,
    norm_sq,
    sample_complex_gaussian,
    sample_split_gaussian,
    streamed,
    streamed_moments,
)
from .region import regime_objective


@dataclass
class BoundReport:
    """A Monte-Carlo bound value with its provenance, as ``simomac bounds``
    prints it.  ``fitted`` maps each group seen to its member's (alpha,
    beta); ``pooled_fit`` and, for the branched (V, U) genie only,
    ``nonpilot_pooled_fit`` list the groups fitted on their pool over
    branches and on that of every non-pilot group."""

    value: float  # bits per channel use
    std_error: float
    eval_trials: int  # the sample size behind std_error
    remainder_terms: dict
    fitted: dict
    analytic_rhs_value: float  # the analytic right-hand side on the same samples
    pooled_fit: list
    branch_counts: dict | None = None  # evaluation trials per branch
    nonpilot_pooled_fit: list | None = None


# ---------------------------------------------------------------------------
# Conditional entropy h(Y | X1, X2)
# ---------------------------------------------------------------------------

def _log2_det(mag, s2):
    """log2 det(I_T + x1 x1^H + x2 x2^H), batched, from mag = |x1t|^2 of x1
    rotated by U(x2) and s2 = ||x2||^2: a sum of non-negative terms, so no
    digits cancel however nearly parallel x1 and x2 are."""
    return np.log2((1.0 + s2) * (1.0 + mag[:, :-1].sum(axis=1)) + mag[:, -1])


def _h_given_x(mag, s2, cfg):
    """N [log2 det + T log2(pi e) - K D] bits from the (mag, s2) of
    :func:`_log2_det`: h(Y | X1, X2) under Gaussian fading, a lower bound
    within N K D bits otherwise, so the duality bounds stay upper bounds.
    K counts the users of nonzero input, D is the fading's entropy deficit
    (:data:`~simomac.channel.FADING_ENTROPY_DEFICIT`): each row of Y is a
    map of K fading entries plus noise, so by data processing its relative
    entropy to the Gaussian of its covariance is at most K D."""
    users = (mag.sum(axis=1) > 0).astype(int) + (s2 > 0)  # integers: bool + bool is OR
    n, deficit = cfg.N, FADING_ENTROPY_DEFICIT[cfg.fading_kind]
    return n * _log2_det(mag, s2) + n * cfg.T * LOG2_PI_E - n * users * deficit


# ---------------------------------------------------------------------------
# Duality-bound core shared by the three bounds
# ---------------------------------------------------------------------------

def _slot_levels(mag, s2):
    """(B, T) slot levels s_t = 1 + s2 [t = T] from the (mag, s2) of
    :func:`_log2_det`: noise plus the rotated interferer, which lands in
    the last slot.  Every genie whitens with these scales s."""
    b, t = mag.shape
    s = np.ones((b, t))
    s[:, -1] = 1.0 + s2
    return s


class _Parts(NamedTuple):
    """One chunk's whitening inputs of one bound, from a source: per trial
    ||y_v||^2 of its pilot output y_v, and per slot t its part along
    u = y_v / ||y_v||, |<y_t, u>|^2 (||y_v||^2 at the pilot), and the
    orthogonal rest ||y_perp,t||^2 = ||y_t - <y_t, u> u||^2 (0 at the
    pilot).  The drawn source (:func:`_drawn_parts`) also gives its row
    model (sigma_t^2, K_vv, Gamma(N - 1) variate) for
    :func:`_conditioned_terms`; the outputs source (:func:`_project`)
    gives none."""

    nv2: np.ndarray  # (B,)
    along: np.ndarray  # (B, T)
    perp: np.ndarray  # (B, T)
    model: tuple | None = None


def _project(yt, v):
    """The outputs source: :class:`_Parts` of the (B, N, T) outputs yt
    (rotated for the MAC) against their pilot slot v (B,).

    The one reader of the outputs, it gathers y_v once and forms
    ||y_v||^2 from that copy.  Slot t's part along u is <y_t, u> u =
    coef y_v, coef = <y_t, y_v> / ||y_v||^2, and y_perp is formed one
    antenna at a time in a (B, T) temporary, so yt is only read and no
    (B, N, T) temporary is made.  Each part is a sum of non-negative
    terms, so the whitened norm of :func:`_whiten` has no difference of
    two O(P) terms to cancel.  Each row depends on its own trial only,
    so chunks project independently.
    """
    rows = np.arange(len(v))
    y_v = np.conjugate(yt[rows, :, v])  # conjugated back below: one (B, N) copy
    nv2 = norm_sq(y_v)
    coef = np.matmul(y_v[:, None, :], yt)[:, 0]
    coef.view(float)[...] *= 1.0 / np.maximum(nv2, 1e-300)[:, None]  # a real scale
    np.conjugate(y_v, out=y_v)
    diff = np.empty_like(coef)
    perp = np.zeros(coef.shape)
    for k in range(yt.shape[1]):
        np.multiply(y_v[:, k, None], coef, out=diff)
        np.subtract(yt[:, k, :], diff, out=diff)
        perp += diff.real**2
        perp += diff.imag**2
    np.put(perp, rows * perp.shape[1] + v, 0.0)
    along = abs_sq(coef)
    along *= nv2[:, None]
    return _Parts(nv2, along, perp)


def _residual_variance(mag, s, v):
    """(B, T) variance sigma_t^2 = K_tt - |K_tv|^2 / K_vv of a row's slot-t
    entry given its pilot entry y_v, under Gaussian fading, and the (B,)
    pilot variance K_vv.

    Each row of Y given X is CN(0, K), K_tt = mag_t + s_t and
    |K_tv|^2 = mag_t mag_v, from mag and the slot levels s.  The
    difference is the sum of non-negative terms s_t + mag_t s_v / K_vv,
    so no digits cancel at high power.
    """
    b, t = mag.shape
    pilot = np.arange(b) * t + v
    s_v = np.take(s, pilot)
    k_vv = np.take(mag, pilot) + s_v
    sigma2 = mag * (s_v / k_vv)[:, None]
    sigma2 += s
    return sigma2, k_vv


def _drawn_parts(draws, mag, s, v):
    """The drawn source under Gaussian fading: :class:`_Parts` from one
    chunk's ``draws`` (G0, g, G) of :func:`_drawn_source`, mapped to the
    law of the outputs given X through the row model of
    :func:`_residual_variance` on mag and the slot levels s.

    Given X, the pilot's ||y_v||^2 is K_vv G0, G0 ~ Gamma(N, 1).  Given
    (X, y_v), slot t's entries are (K_tv / K_vv) y_v plus CN(0, sigma_t^2
    I_N) noise, so <y_t, u> = a_t + sigma_t g_t, with
    a_t = |K_tv| ||y_v|| / K_vv = sqrt(mag_t mag_v ||y_v||^2) / K_vv and
    g_t ~ CN(0, 1) (the noise is circularly symmetric, so K_tv's phase
    does not matter), and ||y_perp,t||^2 = sigma_t^2 G_t with
    G_t ~ Gamma(N - 1, 1).  This is each slot's exact joint law with the
    pilot; only the correlation between slots differs from the outputs',
    which no term of the bound statistic reads alone.  Every part is a
    sum of non-negative terms.  The row model is kept for
    :func:`_conditioned_terms`, G its Gamma(N - 1) variate.
    """
    g0, g, gamma = draws
    sigma2, k_vv = _residual_variance(mag, s, v)
    b, t = mag.shape
    pilot = np.arange(b) * t + v  # flat index of each trial's pilot slot
    nv2 = k_vv * g0
    along = mag * (np.take(mag, pilot) * nv2 / k_vv**2)[:, None]  # a_t^2
    np.sqrt(along, out=along)
    sigma = np.sqrt(sigma2)
    along += sigma * g.real
    along *= along
    sigma *= g.imag
    sigma *= sigma
    along += sigma  # |a_t + sigma_t g_t|^2
    np.put(along, pilot, nv2)  # |<y_v, u>|^2 = ||y_v||^2
    perp = sigma2 * gamma
    np.put(perp, pilot, 0.0)
    return _Parts(nv2, along, perp, (sigma2, k_vv, gamma))


def _whiten(parts, v, s, c, d):
    """Squared whitened norms ||A y_t||^2 and the scales s + c ||y_v||^2
    + d of the pilot direction, each (B, T), from a source's
    :class:`_Parts`.

    v: (B,) pilot slot; s, c, d: (B, T) whitening scales, c and d possibly
    scalars.  Non-pilot slot t is whitened by
    A = (s_t I + (c_t + d_t / ||y_v||^2) y_v y_v^H)^{-1/2}, which scales
    its part along u = y_v / ||y_v|| by denom_t^{-1/2} and the orthogonal
    rest by s_t^{-1/2}, so ||A y_t||^2 = ||y_perp,t||^2 / s_t +
    |<y_t, u>|^2 / denom_t: a sum of non-negative terms.  The pilot slot
    is left as is, with the norm ||y_v||^2.  Returns (white, denom).
    """
    nv2 = parts.nv2
    denom = s + c * nv2[:, None]
    denom += d
    white = parts.perp / s
    white += parts.along / denom
    np.put(white, np.arange(len(v)) * white.shape[1] + v, nv2)
    return white, denom


def _log_det(s, denom, v, n):
    """(B, T) ln |det A|^2 of the maps A on C^n of :func:`_whiten`, from
    its scales s and denom = s + c ||y_v||^2 + d; 0 at the pilot slot.  It is
    formed in denom's own buffer, so denom is used up: read it before."""
    log_s = np.log(s)
    log_s *= n - 1
    log_det = np.log(denom, out=denom)
    log_det += log_s
    np.negative(log_det, out=log_det)
    log_det[np.arange(len(v)), v] = 0.0
    return log_det


def _digamma(n):
    """psi(n) = -gamma + sum_{k < n} 1/k for an integer n >= 1: the mean of
    ln G for G ~ Gamma(n, 1)."""
    return -np.euler_gamma + sum(1.0 / k for k in range(1, n))


def _conditioned_terms(white, denom, mag, v, s, model, n):
    """(B, T) terms ln ||w_t||^2 and ||w_t||^2 that -ln q(Y) reads
    (:func:`~simomac.auxdist.radial_log_density`), Rao-Blackwellised
    under Gaussian fading, from the norms ``white`` and scales (read, not
    changed) ``denom`` = s + c ||y_v||^2 + d of :func:`_whiten` and the
    source's row ``model`` (sigma_t^2, K_vv, G) of :func:`_drawn_parts`.

    Given X, the pilot's ||y_v||^2 is K_vv Gamma(N, 1), so its two terms
    become their means ln K_vv + psi(N) and N K_vv.  Given (X, y_v), slot
    t's entries are (K_tv / K_vv) y_v plus CN(0, sigma_t^2 I_N) noise, so
    each other slot's ||w_t||^2, which is ||y_perp||^2 / s_t +
    |<y_t, u>|^2 / denom_t, becomes its mean
    (N - 1) sigma_t^2 / s_t + (mag_t mag_v ||y_v||^2 / K_vv^2 + sigma_t^2)
    / denom_t.  Its ln ||w_t||^2 stays sampled, but for N >= 3 it carries
    a control variate: ||y_perp||^2 / sigma_t^2 = G_t, the noise
    orthogonal to u, is Gamma(N - 1, 1), so ln(||w_t||^2 / G_t) +
    psi(N - 1) has the same conditional mean.  At N = 2 the variate's one
    dimension against the parallel part's one gave no gain, so there
    ln ||w_t||^2 is the sampled one.  The genies' s, c, d, slot
    categories and branches are functions of X, so each replaced term
    has the conditional mean of the term it replaces and the mean of the
    bound statistic is unchanged.  Without a row model (the outputs
    source, off Gaussian fading) the terms are the sampled ones,
    ln ||w_t||^2 and ||w_t||^2 of ``white``.
    """
    if model is None:
        return log_norm_sq(white), white
    sigma2, k_vv, gamma = model
    b, t = white.shape
    pilot = np.arange(b) * t + v  # flat index of each trial's pilot slot
    if n >= 3:
        log_sq = log_norm_sq(white / gamma)
        log_sq += _digamma(n - 1)
    else:
        log_sq = log_norm_sq(white)
    np.put(log_sq, pilot, np.log(k_vv) + _digamma(n))
    nv2 = np.take(white, pilot)
    lin = mag * (np.take(mag, pilot) * nv2 / k_vv**2)[:, None]  # |K_tv / K_vv|^2 ||y_v||^2
    lin += sigma2
    lin /= denom
    rest = sigma2 * (n - 1)
    rest /= s
    lin += rest
    np.put(lin, pilot, n * k_vv)
    return log_sq, lin


def _categories(v, t, n_names):
    """(B, T) aux category per slot: 0 for the pilot slot v, n_names - 1
    for the last slot when it is not the pilot, 1 otherwise."""
    slot = np.arange(t)
    return np.where(slot == v[:, None], 0, np.where(slot == t - 1, n_names - 1, 1))


@dataclass
class _PointSums:
    """What one power point of one streamed bound keeps over all chunks.

    ``rows`` is one :class:`~simomac.auxdist.NormSqSums` table, one group
    per (branch, category): both passes fold their chunks' sums in, and
    between them :meth:`fit` sets ``members``, one (label, fitted member or
    fit error, pool: None, "branches" or "nonpilot") per group, so that
    :meth:`report` sees every group seen in either stream.  The evaluation
    pass also keeps the count, mean and M2 of the bound statistic, its
    trials per branch and the sum of rhs - h(Y | X).  Chunks are folded in
    chunk order, so nothing grows with the trial count.
    """

    bound: "_Bound"
    cfg: object  # the point's ChannelConfig
    rows: NormSqSums
    branch_trials: np.ndarray
    moments: tuple = (0, 0.0, 0.0)  # of the bound statistic
    rhs_gap: float = 0.0  # sum of rhs - h(Y | X)
    members: list = field(default_factory=list)
    table: np.ndarray | None = None  # (3, groups): log normalizer, alpha - N, beta

    @classmethod
    def empty(cls, bound, cfg):
        rows = NormSqSums.of(np.empty(0), shape=(bound.branches, len(bound.names)))
        return cls(bound, cfg, rows, np.zeros(bound.branches, dtype=np.int64))

    def _groups(self, v, branch):
        """(B, T) aux group per slot, branch * categories + category."""
        n_names = len(self.bound.names)
        group = _categories(v, self.cfg.T, n_names)
        group += n_names * branch[:, None]
        return group

    def fit_chunk(self, parts, mag, s2, v, s, c, d, branch):
        """A fit chunk's (sums,) of its whitened norms, for :meth:`fold`,
        from a bound's :class:`_Parts` and pilot; it takes no logarithm."""
        white, _ = _whiten(parts, v, s, c, d)
        return (NormSqSums.of(white, self._groups(v, branch), self.rows.count.shape),)

    def fit(self):
        """Fit one canonical radial member per (branch, category) on the
        fit stream's sums.  When branched, a group with fewer than 100 fit
        samples, or whose own fit fails, is fitted on the sums pooled over
        branches ("branches"), and a non-pilot category whose pool over
        branches cannot be fitted either (at T = 2 only branch 0 has a
        middle slot) on the sums of every non-pilot group ("nonpilot").
        Whether a population can be fitted is the canonical fit's own rule
        (:func:`~simomac.auxdist.fit_params`).  A failed fit is kept, to be
        raised if the group is seen at all."""
        n, names, branched = self.cfg.N, self.bound.names, self.bound.branches > 1
        table = []
        for br, c in np.ndindex(self.rows.count.shape):
            label = f"branch{br}/{names[c]}" if branched else names[c]
            pools = [((br, c), None)] if not branched or self.rows.count[br, c] >= 100 else []
            if branched:
                pools.append((np.s_[:, c], "branches"))
                if c > 0:
                    pools.append((np.s_[:, 1:], "nonpilot"))
            for at, pool in pools:
                try:
                    member = fit_params(self.rows.pooled(at), n)
                    table.append((log_normalizer(member), member.alpha - n, member.beta))
                    break
                except InvalidRegime as exc:
                    member = InvalidRegime(f"category {label!r}: {exc}")
            else:
                table.append((0.0, 0.0, 1.0))  # a stand-in: the point fails if it is seen
            self.members.append((label, member, pool))
        self.table = np.array(table).T

    def statistic(self, group, log_det, log_sq, lin, h_given_x):
        """(B,) bound statistic (-log2 q(Y) - h(Y | X) + genie cost) / T of
        each trial, -ln q(Y) read from the (B, T) aux groups, ln |det A|^2
        and the terms ln ||w||^2 and ||w||^2 of :func:`_conditioned_terms`
        under the fitted members."""
        ln_q = radial_log_density(log_sq, lin, *self.table, at=group)
        neg_q = -(ln_q.sum(axis=1) + log_det.sum(axis=1)) / LN2
        return (neg_q - h_given_x + self.bound.genie_cost) / self.cfg.T

    def eval_chunk(self, parts, mag, s2, v, s, c, d, branch):
        """An evaluation chunk's sums of its whitened norms, moments of its
        :meth:`statistic`, trials per branch and sum of rhs - h(Y | X)."""
        white, denom = _whiten(parts, v, s, c, d)
        group = self._groups(v, branch)
        rows = NormSqSums.of(white, group, self.rows.count.shape)
        log_sq, lin = _conditioned_terms(white, denom, mag, v, s, parts.model, self.cfg.N)
        del white  # the terms replace it: one (B, T) array fewer held by the statistic
        h_given_x = _h_given_x(mag, s2, self.cfg)
        stat = self.statistic(group, _log_det(s, denom, v, self.cfg.N), log_sq, lin, h_given_x)
        trials = np.bincount(branch, minlength=self.bound.branches)
        rhs_gap = (self.bound.rhs(mag, s2, v, branch, self.cfg) - h_given_x).sum()
        return rows, moments_of(stat), trials, rhs_gap

    def fold(self, rows, moments=(0, 0.0, 0.0), trials=0, rhs_gap=0.0):
        """Fold a :meth:`fit_chunk`'s or :meth:`eval_chunk`'s sums in."""
        self.rows.fold(rows)
        self.moments = merge_moments(self.moments, moments)
        self.branch_trials += trials
        self.rhs_gap += rhs_gap

    def report(self):
        """The point's :class:`BoundReport`; raises the error of the first
        (branch, category) group seen in either stream whose fit failed or
        whose least norm is singular under its member.  Its groups are
        listed in the order of :meth:`fit`."""
        fitted, pooled = {}, {"branches": [], "nonpilot": []}
        seen, least = self.rows.count.ravel() > 0, self.rows.least.ravel()
        for (label, member, pool), group_seen, low in zip(self.members, seen, least):
            if not group_seen:
                continue
            if isinstance(member, SimomacError):
                raise member
            check_not_singular(low, member)
            fitted[label] = (member.alpha, member.beta)
            if pool:
                pooled[pool].append(label)

        t, cost, n = self.cfg.T, self.bound.genie_cost, self.moments[0]
        value, std_error = mean_and_std_error(self.moments)
        branched = self.bound.branches > 1
        return BoundReport(
            value=float(value),
            std_error=float(std_error),
            eval_trials=int(n),
            remainder_terms={
                "log_log_slack_bits": remainder_slack_bits(self.cfg.P),
                "genie_cost_bits": float(cost),
                # off Gaussian fading h(Y|X) is a lower bound, within N K D bits
                "h_order_one_flagged": self.cfg.fading_kind != "iid_complex_gaussian",
            },
            fitted=fitted,
            analytic_rhs_value=float((self.rhs_gap + n * cost) / n / t),
            pooled_fit=pooled["branches"],
            branch_counts=dict(enumerate(self.branch_trials.tolist())) if branched else None,
            nonpilot_pooled_fit=pooled["nonpilot"] if branched else None,
        )


@dataclass(frozen=True)
class _Bound:
    """One duality bound of a streamed pass: its genie shape as functions.

    ``levels(xs)`` maps one chunk's inputs to (x1t, s2): user 1's input,
    rotated by U(x2) for the MAC, and s2 = ||x2||^2 (0 for user 1 alone),
    from which mag = |x1t|^2 gives the (mag, s2) of :func:`_log2_det`.
    ``pilot(mag, s, cfg)`` reads the slot levels s of :func:`_slot_levels`
    and never the outputs: every genie decision and scale is a function
    of the inputs.  It gives the pilot slot, the c and d of
    :func:`_whiten` (whose scales are denom = s + c ||y_v||^2 + d) and
    each trial's aux branch below ``branches``: (v, c, d, branch), which
    with the chunk's :class:`_Parts` and (mag, s2, s) is what
    :class:`_PointSums` takes per chunk.
    ``rhs(mag, s2, v, branch, cfg)`` gives the analytic right-hand side.
    ``names`` labels the aux categories.
    """

    levels: Callable
    pilot: Callable
    rhs: Callable
    names: tuple
    genie_cost: float
    branches: int = 1


def _outputs(x1t, s2, channel, out=None):
    """Outputs h1 x1t^T + sqrt(s2) h2 e_T^T + Z, shape (B, N, T), of a
    bound's (x1t, s2) and a :func:`sample_channel` draw, built in ``out``;
    the interferer's term only where s2 is an array, not user 1's 0.

    For the MAC these are the outputs rotated by U(x2): since
    x2^T U(x2) = ||x2|| e_T^T, (h1 x1^T + h2 x2^T + Z) U =
    h1 (x1^T U) + ||x2|| h2 e_T^T + Z U.  Given x2, U is a fixed unitary,
    and i.i.d. CN(0, 1) noise is unitarily invariant (Marzetta & Hochwald,
    IEEE Trans. IT 1999), so Z U has the law of Z whatever x1, x2, h1 and
    h2 are: the outputs are drawn already rotated, with Z in place of
    Z U, and only user 1's (B, T) input is rotated.
    """
    y = superpose([x1t], channel, out=out)
    if np.ndim(s2):
        y[:, :, -1] += np.sqrt(s2)[:, None] * channel[0][1]
    return y


def _drawn_source(users, cfg, rng, size, scratch):
    """Under Gaussian fading, one chunk's source of :class:`_Parts`, a
    function parts(x1t, s2, mag, s, v) of each point's and bound's inputs.

    It draws from ``rng`` the ``size`` trials' G0 ~ Gamma(N, 1), then per
    slot g ~ CN(0, 1) and G ~ Gamma(N - 1, 1)
    (:func:`~simomac.linalg.sample_split_gaussian`): the same draws for
    every point and bound, whatever the number of ``users``, each mapped
    to its own parts by :func:`_drawn_parts`.  No output is built, and
    the thread's ``scratch`` is not used.
    """
    draws = sample_split_gaussian(cfg.N, cfg.T, rng, size)
    return lambda x1t, s2, mag, s, v: _drawn_parts(draws, mag, s, v)


def _output_source(users, cfg, rng, size, scratch):
    """Off Gaussian fading, one chunk's source of :class:`_Parts`, a
    function parts(x1t, s2, mag, s, v) that builds each point's and
    bound's outputs (:func:`_outputs`) and projects them (:func:`_project`).

    It draws the chunk's channel for ``users`` from ``rng``
    (:func:`sample_channel`: h1, Z, then h2), so a pass with one user
    draws exactly the first two.  The noise's normal deviates pass
    through the thread's Y buffer, which holds nothing until the first
    bound builds its outputs in it.  The two (chunk, N, T) buffers live
    in the thread's ``scratch``, reused from chunk to chunk and bound to
    bound, so their memory is not faulted in afresh; they grow when a
    chunk is longer than them.
    """
    if len(scratch.get("y", ())) < size:
        shape = (size, cfg.N, cfg.T)
        scratch.update(noise=np.empty(shape, dtype=complex), y=np.empty(shape, dtype=complex))
    noise, out = scratch["noise"][:size], scratch["y"][:size]
    draw = out.reshape(-1).view(float)[:noise.size].reshape(noise.shape)
    channel = sample_channel(users, cfg, rng, size=size, out=noise, scratch=draw)
    return lambda x1t, s2, mag, s, v: _project(_outputs(x1t, s2, channel, out), v)


# Each fading kind's source of whitening inputs
_SOURCES = {"iid_complex_gaussian": _drawn_source, "iid_uniform_annulus": _output_source}


def _bound_sums(acc, stream, xs, parts):
    """The fit (``stream`` 0) or evaluation sums of one chunk for the
    point and bound of ``acc`` (:class:`_PointSums`), from the point's
    inputs ``xs`` and the chunk's source ``parts``: the bound maps the
    inputs to their levels, the slot levels (:func:`_slot_levels`) and
    the pilot, and takes its whitening inputs from the source.  Its
    temporaries go when it returns, before the next bound makes its own."""
    x1t, s2 = acc.bound.levels(xs)
    mag = abs_sq(x1t)
    s = _slot_levels(mag, s2)
    v, c, d, branch = acc.bound.pilot(mag, s, acc.cfg)
    chunk = acc.eval_chunk if stream else acc.fit_chunk
    return chunk(parts(x1t, s2, mag, s, v), mag, s2, v, s, c, d, branch)


def _streamed_bounds(points, bounds):
    """For each of ``bounds``, one BoundReport per (inputs, cfg) point of
    :func:`at_powers`, or the SimomacError its fit or evaluation raised.

    The ceil(trials / 2) fit trials (stream 0) and the floor(trials / 2)
    evaluation trials (stream 1) are each one
    :func:`~simomac.linalg.streamed` pass at footprint T, folded into each
    point's :class:`_PointSums`: the fit pass folds sums of the whitened
    norms, every member is then fitted once, and the evaluation pass folds
    the moments of the bound statistic.  No trial is drawn twice.  A chunk
    hands each point and bound in turn to :func:`_bound_sums`, so one
    bound's arrays are held at a time.

    Each chunk makes its source (:data:`_SOURCES`) once, for every point
    and bound, from a generator on the first child of the chunk's seed;
    what it draws does not depend on the number of users.  Its inputs (x1
    first) come from :func:`sample_point_inputs` on the chunk's seed: each
    user's P-free draw once for the grid, mapped to every point's P, or
    for truncated laws a fresh draw per point.  So every point, and every
    bound of a point, sees the draws of a call of its own.
    """
    inputs0, cfg0 = points[0]
    if cfg0.trials < 2:
        raise InvalidParam("the bound needs trials >= 2: half the trials fit, the other half "
                           "evaluate")
    sums = [[_PointSums.empty(bound, cfg) for bound in bounds] for _, cfg in points]
    source = _SOURCES[cfg0.fading_kind]

    def chunk(stream, seed, b, scratch):
        """(_PointSums, its fit or evaluation sums) per point and bound of
        a chunk of ``stream``."""
        parts = source(len(inputs0), cfg0, np.random.default_rng(seed.spawn(1)[0]), b, scratch)
        results = []
        for point_sums, xs in zip(sums, sample_point_inputs(points, seed, b)):
            results.extend((acc, _bound_sums(acc, stream, xs, parts)) for acc in point_sums)
        return results

    def fold(results):
        for acc, chunk_sums in results:
            acc.fold(*chunk_sums)

    # footprint T: a chunk's largest arrays are (chunk, T) draws, or off
    # Gaussian fading (chunk, N, T) buffers
    streamed(partial(chunk, 0), (cfg0.trials + 1) // 2, cfg0.T, cfg0.seed, 0, fold)
    for acc in (acc for point_sums in sums for acc in point_sums):
        acc.fit()
    streamed(partial(chunk, 1), cfg0.trials // 2, cfg0.T, cfg0.seed, 1, fold)
    reports = [[] for _ in bounds]
    for point_sums in sums:
        for acc, out in zip(point_sums, reports):
            try:
                out.append(acc.report())
            except SimomacError as exc:
                out.append(exc)
    return reports


# ---------------------------------------------------------------------------
# Single-user duality bound
# ---------------------------------------------------------------------------

def _user1_levels(xs):
    """(x1, s2 = 0) of user 1 alone."""
    return xs[0], 0.0


def _strongest_pilot(mag, s, cfg, slots):
    """The pilot v, the strongest of the first ``slots`` slots, whitened
    with the slot levels, c = 1 and d = 0: (v, 1, 0, branch = 0)."""
    v = np.argmax(mag[:, :slots], axis=1)
    return v, 1.0, 0.0, np.zeros_like(v)


def _single_user_rhs(mag, s2, v, branch, cfg):
    """The Proposition right-hand side of user 1 alone on mag's t slots
    with pilot slot v (s2 and ``branch`` unused)."""
    n, t = cfg.N, mag.shape[1]
    xv2 = mag[np.arange(v.size), v]
    off = np.where(np.arange(t) != v[:, None], np.log2(1.0 + mag / (1.0 + xv2)[:, None]), 0.0)
    return (n + t - 1) * np.log2(1.0 + xv2) + n * off.sum(axis=1)


def _single_user_bound(slots):
    """The single-user bound of :func:`_streamed_bounds`, its pilot the
    strongest of the first ``slots`` slots (1 <= slots <= T)."""
    return _Bound(_user1_levels, partial(_strongest_pilot, slots=slots), _single_user_rhs,
                  ("pilot", "offpilot"), np.log2(slots))


def duality_bound_single_user(input_dist, cfg, *, powers=None):
    """Duality upper bound on the single-user rate (bits/channel use).

    Returns a BoundReport, with the analytic Proposition-style right-hand
    side evaluated on the same samples.

    With ``powers``, returns one entry per power, equal to the call with
    the input and cfg at that P: its BoundReport, or the SimomacError its
    fit or evaluation raised.  Every trial chunk's fading and noise, and
    its inputs unless their law is truncated, are drawn once for the whole
    grid (see :func:`_streamed_bounds`).
    """
    bound = _single_user_bound(cfg.T)
    (reports,) = _streamed_bounds(at_powers([input_dist], cfg, powers), [bound])
    return one_or_all(reports, powers)


# ---------------------------------------------------------------------------
# MAC duality bound on user 1
# ---------------------------------------------------------------------------

MAC_CATEGORIES = ("pilot", "middle", "last")


def _mac_high_t_rhs(mag, s2, v, branch, cfg):
    """The analytic right-hand side of the (T-1)-slot genie of the T >= N+1
    regime on the same samples: the single-user Proposition on the first
    T - 1 slots plus the interferer's three terms (``branch`` unused)."""
    n, mv = cfg.N, mag[np.arange(v.size), v]
    return (
        _single_user_rhs(mag[:, :-1], s2, v, branch, cfg)
        + n * np.log2(1.0 + s2)
        + np.log2(1.0 + mv / (1.0 + s2))
        + n * np.log2(1.0 + mag[:, -1] / (1.0 + s2 + mv))
    )


def _mac_low_t(mag, s, cfg):
    """(V, U)-genie for the T <= N regime with the three aux branches:
    0 when the pilot (largest mag / s) is the last slot, 1 otherwise, 2
    when moreover the last entry dominates everything.  Returns (v, c, d,
    branch): c = 1 / s_v and d = 0, but c = 0 and d = P at the last slot
    in branch 2, whose scale along the pilot output is s_T + P."""
    b, t = mag.shape
    v = np.argmax(mag / s, axis=1)
    head_max = mag[:, : t - 1].max(axis=1)
    u = mag[:, -1] >= np.maximum(head_max, s[:, -1])
    branch = np.where(v == t - 1, 0, np.where(u, 2, 1))

    c = np.repeat(1.0 / s[np.arange(b), v][:, None], t, axis=1)
    d = np.zeros((b, t))
    c[branch == 2, -1], d[branch == 2, -1] = 0.0, cfg.P
    return v, c, d, branch


def _mac_low_t_rhs(mag, s2, v, branch, cfg):
    """The analytic per-branch right-hand sides of :func:`_mac_low_t` on
    the same samples."""
    n, t, p = cfg.N, cfg.T, cfg.P
    mv = mag[np.arange(v.size), v]
    xt2 = mag[:, -1]
    return np.select(
        [branch == 0, branch == 1],
        [
            n * np.log2(1.0 + s2 + xt2) + (t - 1) * np.log2(1.0 + xt2 / (1.0 + s2)),
            (n + t - 2) * np.log2(1.0 + mv) + n * np.log2(1.0 + s2)
            + np.log2(1.0 + mv / (1.0 + s2)),
        ],
        (n + t - 2) * np.log2(1.0 + mv) + n * np.log2((1.0 + s2 + xt2) / (1.0 + s2 + p))
        + n * np.log2(1.0 + s2) + np.log2(1.0 + p / (1.0 + s2)),
    )


def _rotated_levels(xs):
    """(x1t, s2) of the MAC: x1t = x1^T U(x2), user 1's input rotated by
    U(x2), which moves user 2 to the last slot (:func:`_outputs`), and
    s2 = ||x2||^2."""
    x1, x2 = xs
    return apply_rotation(x1[:, None, :], x2)[:, 0], norm_sq(x2)


def _mac_bound(cfg):
    """The MAC user-1 bound of :func:`_streamed_bounds`; raises
    RegimeUnsupported at T = 1, where neither genie exists."""
    t = cfg.T
    if t < 2:
        raise RegimeUnsupported("the MAC bound needs T >= 2")
    if regime_objective(t, cfg.N) == "f_exponent":
        return _Bound(_rotated_levels, partial(_strongest_pilot, slots=t - 1),
                      _mac_high_t_rhs, MAC_CATEGORIES, np.log2(t - 1))
    return _Bound(_rotated_levels, _mac_low_t, _mac_low_t_rhs, MAC_CATEGORIES,
                  np.log2(2 * t), branches=3)


def duality_bound_mac_user1(input1, input2, cfg, *, powers=None):
    """Duality upper bound on R1 for the two-user MAC (bits/channel use).

    The genie follows :func:`~simomac.region.regime_objective`: with the
    f bracket (T >= N+1) the (T-1)-slot genie, cost log2(T-1); with the g
    bracket the (V, U) genie with three aux branches, cost log2(2T).
    Raises RegimeUnsupported at T = 1.  The report carries the analytic
    right-hand side and, for the (V, U) genie, the trials per branch.
    ``powers`` works as in :func:`duality_bound_single_user`.
    """
    bound = _mac_bound(cfg)
    (reports,) = _streamed_bounds(at_powers([input1, input2], cfg, powers), [bound])
    return one_or_all(reports, powers)


def duality_bounds(input1, input2, cfg, *, powers=None):
    """(:func:`duality_bound_single_user` of input1, :func:`duality_bound_mac_user1`)
    from one fit pass and one evaluation pass over the trials.

    Both bounds see the same chunks, channel draws and x1, and each
    equals its own call bit for bit (see :func:`_streamed_bounds`).  Raises
    RegimeUnsupported at T = 1 before drawing anything.  ``powers`` works
    as in :func:`duality_bound_single_user`; without it, the single-user
    error is raised before the MAC one.
    """
    bounds = [_single_user_bound(cfg.T), _mac_bound(cfg)]
    single, mac = _streamed_bounds(at_powers([input1, input2], cfg, powers), bounds)
    return one_or_all(single, powers), one_or_all(mac, powers)


# ---------------------------------------------------------------------------
# Plug-in mutual-information estimates (oracles for the bounds)
# ---------------------------------------------------------------------------

def _mixture_outputs(cfg, rng, size):
    """(size, N, T) outputs of the isotropic peak-P input in the frame
    where its direction is e_1: CN(0, 1) entries, column 0 scaled by
    sqrt(1 + P)."""
    y = sample_complex_gaussian(cfg.T, rng, size=(size, cfg.N))
    y[:, :, 0] *= np.sqrt(1.0 + cfg.P)
    return y


def isotropic_mixture_mi_estimate(cfg, trials=None):
    """(estimate, standard error), two floats, of (1/T) I(X;Y) for the
    isotropic peak-P input, unbiased.

    Given x = sqrt(P) u, the output is exactly Gaussian, and
    ln p(Y | u) = u^H A u - ||Y||^2 + const with A = c Y^T conj(Y),
    c = P/(1+P).  The Haar average over u has a closed form,
    E_u[exp(u^H A u)] = (T-1)! exp[mu], the divided difference of exp at
    the eigenvalues mu of A, so the information density is
    ln p(Y | u) - ln p(Y) = u^H A u - mu_max - ln exp[nu] - ln (T-1)!, with
    nu = mu - mu_max taken largest first (nu_0 = 0).  The posterior of u
    given Y is the complex Bingham law, proportional to exp(u^H A u), and by
    the Leibniz rule on (z e^z)[nu] its mean of u^H A u is
    mu_max + R - (T-1), R = exp[nu_1, ..., nu_(T-1)] / exp[nu] (R = 0 at
    T = 1).  Each sample's statistic is therefore the density's mean given
    Y, R - (T-1) - ln exp[nu] - ln (T-1)!: it has the density's mean at a
    smaller spread (Rao-Blackwell), is exactly 0 at T = 1, reads neither
    x nor ||Y||^2, and takes no difference of two O(P) terms, so it keeps
    its digits over the whole power range with nothing clamped.  Unlike
    the k-NN route it has no density-estimation bias.  A rotation of Y by
    a unitary that maps u to e_1 leaves the noise's law (Marzetta &
    Hochwald, IEEE Trans. IT 1999) and the eigenvalues of A as they are,
    so Y is drawn in that frame (:func:`_mixture_outputs`).  Chunks of
    :func:`~simomac.linalg.streamed_moments` (seed stream 2, footprint
    T^2: its temporaries are (T, T)) each get one batched ``eigvalsh`` of
    A and one :func:`~simomac.linalg.log_divided_difference_exp` at nu,
    which gives ln exp[nu] and R from one kappa-scaled exponential.

    ``trials`` samples are drawn, min(cfg.trials, 10,000) by default.
    Raises InvalidParam unless ``trials`` is an integer >= 1.
    """
    from math import lgamma

    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("closed-form mixture needs Gaussian fading")
    t, c = cfg.T, cfg.P / (1.0 + cfg.P)
    (b,) = counts("trials", min(cfg.trials, 10_000) if trials is None else trials)

    def density(rng, size):
        y = _mixture_outputs(cfg, rng, size)
        mu = np.linalg.eigvalsh(c * np.einsum("bns,bnt->bst", y, y.conj()))[:, ::-1]
        log_dd, ratio = log_divided_difference_exp(mu - mu[:, :1])
        return ((ratio - log_dd - (t - 1) - lgamma(t)) / LN2,)

    (moments,) = streamed_moments(density, b, t * t, cfg.seed, 2)
    mean, se = mean_and_std_error(moments)
    return float(mean / t), float(se / t)


def mutual_information_lower_estimate(input_dist, cfg, max_knn_samples=20_000):
    """(1/T) * [kNN-hat h(Y) - exact h(Y|X)] for the single-user channel,
    h(Y) from the 4th nearest neighbours.

    A plug-in estimate, not a lower bound: the k-NN entropy of Y is biased
    high at high SNR in 2NT real dimensions, so the estimate can exceed
    the mutual information by a factor of two or more.  Dimension is capped
    (T <= 8, N <= 4) for estimator sanity.  The k-NN search is the cost
    bottleneck (quadratic in the sample count), so h(Y) uses the outputs
    of the first m = min(trials, ``max_knn_samples``) inputs only: all
    ``cfg.trials`` inputs are drawn, then the fading and noise of those
    m, so no output beyond them is formed.  The exact conditional part
    averages over all the inputs, which are dropped before the search.
    Raises InvalidParam unless ``max_knn_samples`` is an integer >= 1.
    """
    if cfg.T > 8 or cfg.N > 4:
        raise InvalidParam("k-NN estimate capped at T <= 8, N <= 4")
    (max_knn_samples,) = counts("max_knn_samples", max_knn_samples)
    if cfg.fading_kind != "iid_complex_gaussian":
        raise RegimeUnsupported("plug-in estimate needs the exact Gaussian branch")
    rng = np.random.default_rng(chunk_seed(cfg.seed, 5, 0))
    (x,) = sample_inputs([input_dist], cfg, rng)
    m = min(cfg.trials, max_knn_samples)
    y = superpose([x[:m]], sample_channel(1, cfg, rng, size=m))
    h_cond = _h_given_x(norm_sq(x)[:, None], 0.0, cfg).mean()  # det depends on ||x||^2 only
    del x
    h_y = knn_entropy_bits(y.reshape(m, -1), k=4)
    return float((h_y - h_cond) / cfg.T)
