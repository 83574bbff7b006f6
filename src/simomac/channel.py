"""Block-fading SIMO MAC model: fading/noise generation, input families
under average or peak power constraints, and average-to-peak truncation.

One coherence block: Y = h1 x1^T + h2 x2^T + Z with Z i.i.d. CN(0,1),
Y of shape (N, T).  Monte-Carlo trials play the role of the block count B.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParam
from .linalg import (column_blocks, norm_sq, sample_complex_gaussian,
                     sample_uniform_complex_sphere)

FADING_KINDS = ("iid_complex_gaussian", "iid_uniform_annulus")

# Annulus amplitude support [r_lo, r_hi] with phase uniform.  r_hi solves
# (r_lo^2 + r_lo*r_hi + r_hi^2)/3 = 1 so that the per-entry power is exactly
# one (second moment of a uniform amplitude).
ANNULUS_R_LO = 0.5
ANNULUS_R_HI = (3.0 * np.sqrt(5.0) - 1.0) / 4.0

# Powers from here on (150 dB) are rejected: the duality bounds' whitened
# norms are then a difference of two O(P) terms with no correct digit left.
P_MAX = 1e15


@dataclass
class ChannelConfig:
    """Static description of one simulated channel."""

    T: int
    N: int
    P: float
    fading_kind: str = "iid_complex_gaussian"
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.T < 1 or self.N < 1:
            raise InvalidParam("T and N must be >= 1")
        if self.P <= 0:
            raise InvalidParam("P must be positive")
        if not self.P < P_MAX:
            raise InvalidParam(f"P = {self.P:.4g} is out of range: from {P_MAX:g} (150 dB) "
                               "on, the whitened norms of the duality bounds keep no "
                               "correct digit (cancellation)")
        if self.trials < 1:
            raise InvalidParam("trials must be >= 1")
        if self.seed < 0:
            raise InvalidParam("seed must be >= 0")
        if self.fading_kind not in FADING_KINDS:
            raise InvalidParam(f"unknown fading kind {self.fading_kind!r}")

    def rng(self, stream=0):
        """Independent deterministic stream per worker index."""
        return np.random.default_rng(np.random.SeedSequence((self.seed, stream)))


def at_powers(inputs, cfg, powers):
    """One (inputs, cfg) pair per power, each a copy with P replaced; the
    call's own [(inputs, cfg)] when ``powers`` is None.  Raises
    InvalidParam on an empty or invalid power."""
    if powers is None:
        return [(inputs, cfg)]
    if len(powers) == 0:
        raise InvalidParam("powers must hold at least one power")
    return [([replace(d, P=p) for d in inputs], replace(cfg, P=p)) for p in powers]


def one_or_all(results, powers):
    """The list of per-power results for a ``powers=`` call; otherwise
    its one result, raising it when it is an error."""
    if powers is not None:
        return results
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def sample_fading(kind, n, rng, size=None):
    """Fading vector draws with unit per-entry average power.

    Both kinds have finite differential entropy and finite power by
    construction ('generic fading').
    """
    if kind == "iid_complex_gaussian":
        return sample_complex_gaussian(n, rng, size=size)
    if kind == "iid_uniform_annulus":
        shp = (n,) if size is None else tuple(np.atleast_1d(size)) + (n,)
        r = rng.uniform(ANNULUS_R_LO, ANNULUS_R_HI, size=shp)
        ph = rng.uniform(0.0, 2.0 * np.pi, size=shp)
        return r * np.exp(1j * ph)
    raise InvalidParam(f"unknown fading kind {kind!r}")


def sample_inputs(inputs, cfg, rng, size=None):
    """Every user's (B, T) input draws from ``rng``, in user order; B is
    ``size`` or ``cfg.trials``."""
    if any(d.T != cfg.T for d in inputs):
        raise InvalidParam("every input must have T = cfg.T slots")
    b = cfg.trials if size is None else size
    return [d.sample(rng, size=b) for d in inputs]


def sample_channel(users, cfg, rng, size=None, out=None, scratch=None):
    """Every user's (B, N) fading, then the (B, N, T) noise, from ``rng``.

    Returns (list of fading draws, noise), a function of the generator
    state and (users, N, T, fading kind, B), not of P: the duality bounds
    draw it once per trial chunk for every power.  ``out`` and ``scratch``
    go to :func:`sample_complex_gaussian` for the noise.
    """
    b = cfg.trials if size is None else size
    hs = [sample_fading(cfg.fading_kind, cfg.N, rng, size=b) for _ in range(users)]
    return hs, sample_complex_gaussian(cfg.T, rng, size=(b, cfg.N), out=out, scratch=scratch)


def superpose(xs, channel, out=None):
    """Y = sum_k h_k x_k^T + Z, shape (B, N, T), from the inputs and a
    :func:`sample_channel` draw; Z itself (not a copy) when there is no
    user.  Each later user's term is added in the slot blocks of
    :func:`~simomac.linalg.column_blocks`, so the only (B, N, T) array
    formed is Y, written into ``out`` (complex, Y's shape, not Z) when
    given."""
    hs, z = channel
    if not xs:
        return z
    y = np.multiply(hs[0][:, :, None], xs[0][:, None, :], out=out)
    for h, x in zip(hs[1:], xs[1:]):
        for blk in column_blocks(h.size, x.shape[1]):
            y[:, :, blk] += h[:, :, None] * x[:, None, blk]
    y += z
    return y


def sample_outputs(inputs, cfg, rng, size=None):
    """One block per trial: Y = sum_k h_k x_k^T + Z, shape (B, N, T).

    ``inputs`` holds one InputDistribution per user.  Draws every user's
    inputs, then every user's fading, then the noise, all from ``rng``;
    B is ``size`` or ``cfg.trials``.  Returns (list of (B, T) inputs, Y).
    """
    xs = sample_inputs(inputs, cfg, rng, size)
    return xs, superpose(xs, sample_channel(len(inputs), cfg, rng, size))


INPUT_KINDS = (
    "deterministic_point",
    "pilot_data_product",
    "exponent_profile_peak",
    "isotropic_peak",
    "exponential_norm",
)


@dataclass
class InputDistribution:
    """A per-block input law for one user.

    constraint 'average': (1/B) sum ||X[b]||^2 <= P*T over the trials.
    constraint 'peak': ||X||^2 <= peak_bound surely.
    ``truncate_above`` (norm^2 threshold) conditions the law on
    ||X||^2 < threshold via rejection; set by :func:`truncate_to_peak`.
    """

    kind: str
    T: int
    P: float
    constraint: str = "average"
    params: dict = field(default_factory=dict)
    truncate_above: float | None = None

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise InvalidParam(f"unknown input kind {self.kind!r}")
        if self.constraint not in ("average", "peak"):
            raise InvalidParam("constraint must be 'average' or 'peak'")

    @property
    def peak_bound(self):
        """Sure upper bound on ||X||^2, or None for average-only kinds."""
        if self.truncate_above is not None:
            return self.truncate_above
        if self.kind == "deterministic_point":
            return float(np.linalg.norm(self.params["x"]) ** 2)
        if self.kind == "isotropic_peak":
            return self.P
        if self.kind == "exponent_profile_peak":
            return float(np.sum(self.P ** np.asarray(self.params["exponents"])))
        return None

    def _raw_sample(self, rng, size):
        t = self.T
        if self.kind == "deterministic_point":
            x = np.asarray(self.params["x"], dtype=complex)
            return np.broadcast_to(x, (size, t)).copy()
        if self.kind == "isotropic_peak":
            return np.sqrt(self.P) * sample_uniform_complex_sphere(t, rng, size=size)
        if self.kind == "exponent_profile_peak":
            amps = self.P ** (np.asarray(self.params["exponents"], dtype=float) / 2.0)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=(size, t))
            return amps * np.exp(1j * ph)
        if self.kind == "pilot_data_product":
            pilot_p = self.params.get("pilot_power", self.P)
            data_p = self.params.get("data_power", self.P)
            x = np.sqrt(data_p) * sample_complex_gaussian(t, rng, size=size)
            x[:, 0] = np.sqrt(pilot_p)
            return x
        if self.kind == "exponential_norm":
            norm_sq = rng.exponential(self.P * self.T, size=size)
            u = sample_uniform_complex_sphere(t, rng, size=size)
            return np.sqrt(norm_sq)[:, None] * u
        raise InvalidParam(self.kind)

    def sample(self, rng, size=1):
        """(size, T) draws, honoring truncation by rejection."""
        x = self._raw_sample(rng, size)
        if self.truncate_above is not None:
            for _ in range(1000):
                bad = norm_sq(x) >= self.truncate_above
                n_bad = int(bad.sum())
                if n_bad == 0:
                    break
                x[bad] = self._raw_sample(rng, n_bad)
            else:
                raise InvalidParam("rejection sampling did not converge")
        return x


@dataclass
class TruncationReport:
    """Empirical tail statistics from an average-to-peak truncation."""

    truncation_prob: float
    truncation_prob_se: float
    markov_bound: float
    rate_gap_order_term: float
    threshold: float


def truncate_to_peak(dist, P, beta, rng, trials=100_000):
    """Condition an average-power input on ||X||^2 < P^beta.

    Returns the conditional (peak-constrained) distribution and a report
    with the empirical tail probability, the Markov bound T*P^(1-beta),
    and the O(P^(1-beta) log P^beta) rate-gap term with unit constant.
    """
    if beta <= 1.0:
        raise InvalidParam("beta must exceed 1")
    threshold = float(P**beta)
    x = dist.sample(rng, size=trials)
    tail = (norm_sq(x) >= threshold).astype(float)
    p_hat = float(tail.mean())
    se = float(tail.std() / np.sqrt(trials))
    truncated = replace(dist, constraint="peak", truncate_above=threshold)
    report = TruncationReport(
        truncation_prob=p_hat,
        truncation_prob_se=se,
        markov_bound=dist.T * P ** (1.0 - beta),
        rate_gap_order_term=P ** (1.0 - beta) * beta * np.log2(max(P, 2.0)),
        threshold=threshold,
    )
    return truncated, report
