"""Block-fading SIMO MAC model: fading/noise generation, input families
under average or peak power constraints, and average-to-peak truncation.

One coherence block: Y = h1 x1^T + h2 x2^T + Z with Z i.i.d. CN(0,1),
Y of shape (N, T).  Monte-Carlo trials play the role of the block count B.
"""

import math
from dataclasses import dataclass, field, replace
from numbers import Complex

import numpy as np

from .errors import InvalidParam, counts, real
from .linalg import (LN2, LOG2_PI_E, mean_and_std_error, moments_of, norm_sq,
                     sample_complex_gaussian, sample_uniform_complex_sphere)

FADING_KINDS = ("iid_complex_gaussian", "iid_uniform_annulus")

# Annulus amplitude support [r_lo, r_hi] with phase uniform.  r_hi solves
# (r_lo^2 + r_lo*r_hi + r_hi^2)/3 = 1 so that the per-entry power is exactly
# one (second moment of a uniform amplitude).
ANNULUS_R_LO = 0.5
ANNULUS_R_HI = (3.0 * np.sqrt(5.0) - 1.0) / 4.0

# Entropy deficit log2(pi e) - h(fading entry) in bits against CN(0, 1).
# The annulus's h = log2(2 pi (r_hi - r_lo)) + E[log2 r], r uniform on
# [r_lo, r_hi], so E[ln r] = (r_hi ln r_hi - r_lo ln r_lo) / (r_hi - r_lo) - 1.
FADING_ENTROPY_DEFICIT = {"iid_complex_gaussian": 0.0, "iid_uniform_annulus": (
    LOG2_PI_E - np.log2(2.0 * np.pi * (ANNULUS_R_HI - ANNULUS_R_LO)) - (
        (ANNULUS_R_HI * np.log(ANNULUS_R_HI) - ANNULUS_R_LO * np.log(ANNULUS_R_LO))
        / (ANNULUS_R_HI - ANNULUS_R_LO) - 1.0) / LN2)}

# Powers from 300 dB on are rejected: the duality bounds' outputs source forms each slot's
# part orthogonal to the pilot output with a relative error that grows like eps sqrt(P),
# and it runs out of digits at 330-350 dB.  The mixture MI oracle and the training rates
# keep their digits to that limit.
P_MAX = 1e30


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
        self.T, self.N, self.trials = counts("T, N and trials", self.T, self.N, self.trials)
        (self.seed,) = counts("seed", self.seed, least=0)
        real("P must be finite and positive", self.P, above=0, most=math.inf)
        if not self.P < P_MAX:
            raise InvalidParam(f"P = {10 * math.log10(self.P):.4g} dB is out of range: from "
                               "300 dB on, the duality bounds' part of each output orthogonal "
                               "to the pilot output keeps too few correct digits (its "
                               "relative error grows like eps sqrt(P))")
        if self.fading_kind not in FADING_KINDS:
            raise InvalidParam(f"unknown fading kind {self.fading_kind!r}")


def at_powers(inputs, cfg, powers):
    """One (inputs, cfg) pair per power, each a copy with P replaced; the
    call's own [(inputs, cfg)] when ``powers`` is None.  Raises
    InvalidParam unless ``powers`` is a nonempty 1-D sequence; each copy
    checks its power by the rule of its own P (:func:`errors.real`)."""
    if powers is None:
        return [(inputs, cfg)]
    if np.ndim(powers) != 1 or len(powers) == 0:
        raise InvalidParam(f"powers must be a sequence of at least one power, got {powers}")
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
    """Every user's (B, T) input draws from ``rng``, in user order, each
    its law's :meth:`InputDistribution.sample` at cfg's power; B is
    ``size`` or ``cfg.trials``.  :func:`sample_point_inputs` gives the
    same draws for every point of a power grid."""
    b = _input_count(inputs, cfg, size)
    return [d.sample(rng, size=b) for d in inputs]


def _input_count(inputs, cfg, size):
    """B = ``size`` or ``cfg.trials``; raises InvalidParam unless every
    input has cfg.T slots."""
    if any(d.T != cfg.T for d in inputs):
        raise InvalidParam("every input must have T = cfg.T slots")
    return cfg.trials if size is None else size


def sample_point_inputs(points, seed, size):
    """Each (inputs, cfg) point's :func:`sample_inputs` draw of ``size``
    trials from a fresh generator on ``seed``, point by point: what a call
    for that point alone draws.

    The points of :func:`at_powers` differ in P only, and P enters the
    draws only through :meth:`InputDistribution.at_power`, so each user's
    P-free :meth:`InputDistribution.draw` is made once and mapped to every
    point.  A truncated law's rejection loop draws again for as many
    trials as the point's P rejects, so the points of truncated laws draw
    one by one.
    """
    if any(d.truncate_above is not None for inputs, _ in points for d in inputs):
        for inputs, cfg in points:
            yield sample_inputs(inputs, cfg, np.random.default_rng(seed), size)
        return
    inputs, cfg = points[0]
    b = _input_count(inputs, cfg, size)
    rng = np.random.default_rng(seed)
    draws = [d.draw(rng, b) for d in inputs]
    for inputs, _ in points[:-1]:
        yield [d.at_power(w) for d, w in zip(inputs, draws)]
    # the last point lets go of each draw as it maps it, so none outlives it
    yield [d.at_power(draws.pop(0)) for d in points[-1][0]]


def sample_channel(users, cfg, rng, size=None, out=None):
    """User 1's (B, N) fading, the (B, N, T) noise, then every later
    user's fading, from ``rng``.

    Returns (list of fading draws, noise), a function of the generator
    state and (users, N, T, fading kind, B), not of P: off Gaussian
    fading the duality bounds draw it once per trial chunk for every
    power.  With h1 and Z drawn first, a draw for one user is the start
    of a draw for two, so the single-user bound sees the same h1 and Z
    alone as beside the MAC bound.  ``out``, a buffer the caller owns,
    receives the noise (:func:`sample_complex_gaussian`).
    """
    b = cfg.trials if size is None else size
    hs = [sample_fading(cfg.fading_kind, cfg.N, rng, size=b)] if users else []
    z = sample_complex_gaussian(cfg.T, rng, size=(b, cfg.N), out=out)
    hs += [sample_fading(cfg.fading_kind, cfg.N, rng, size=b) for _ in range(1, users)]
    return hs, z


def superpose(xs, channel, out=None):
    """Y = sum_k h_k x_k^T + Z, shape (B, N, T), from the inputs and a
    :func:`sample_channel` draw, the fading of users past len(xs) left
    out; Z itself (not a copy) when there is no input.  Y is written into
    ``out`` (complex, Y's shape, not Z) when given."""
    hs, z = channel
    if not xs:
        return z
    y = np.multiply(hs[0][:, :, None], xs[0][:, None, :], out=out)
    for h, x in zip(hs[1:], xs[1:]):
        y += h[:, :, None] * x[:, None, :]
    y += z
    return y


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

    ``deterministic_point`` needs ``params["x"]`` and
    ``exponent_profile_peak`` needs ``params["exponents"]``, each with T
    finite entries; ``pilot_data_product`` takes a finite, nonnegative
    ``params["pilot_power"]`` and ``params["data_power"]`` (default P).
    ``truncate_above`` (norm^2 threshold) conditions the law on
    ||X||^2 < threshold via rejection; set by
    :func:`truncate_to_peak`.  A draw is a P-free :meth:`draw` mapped to
    this P by :meth:`at_power` (then the rejection loop of
    :meth:`sample`), so the draws of an untruncated law at several powers
    are one :meth:`draw` and one :meth:`at_power` per power.  Raises
    InvalidParam on an unknown kind, T not an integer >= 1, a P that is
    not finite and positive, or such a missing or malformed parameter.
    """

    kind: str
    T: int
    P: float
    params: dict = field(default_factory=dict)
    truncate_above: float | None = None

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise InvalidParam(f"unknown input kind {self.kind!r}")
        (self.T,) = counts("T", self.T)
        real("P must be finite and positive", self.P, above=0)
        key = {"deterministic_point": "x", "exponent_profile_peak": "exponents"}.get(self.kind)
        if key is not None:
            entries = self.params.get(key, ())
            rule = f"{self.kind} needs params[{key!r}] of T = {self.T} finite entries"
            if np.shape(entries) != (self.T,):
                raise InvalidParam(rule)
            for e in entries:  # an entry of the point x is complex: both parts must pass
                for part in (e.real, e.imag) if key == "x" and isinstance(e, Complex) else (e,):
                    real(rule, part)
        if self.kind == "pilot_data_product":
            for key in ("pilot_power", "data_power"):
                real(f"params[{key!r}] must be finite and >= 0", self.params.get(key, self.P),
                     least=0)

    def draw(self, rng, size):
        """The P-free part of ``size`` draws of the untruncated law, for
        :meth:`at_power`: the count for ``deterministic_point``, (size, T)
        unit-sphere directions for ``isotropic_peak``, uniform phases for
        ``exponent_profile_peak``, CN(0, 1) entries for
        ``pilot_data_product``, and (standard exponential variates,
        unit-sphere directions) for ``exponential_norm``."""
        t = self.T
        if self.kind == "deterministic_point":
            return size
        if self.kind == "isotropic_peak":
            return sample_uniform_complex_sphere(t, rng, size=size)
        if self.kind == "exponent_profile_peak":
            return rng.uniform(0.0, 2.0 * np.pi, size=(size, t))
        if self.kind == "pilot_data_product":
            return sample_complex_gaussian(t, rng, size=size)
        if self.kind == "exponential_norm":
            # rng.exponential(scale) is scale * standard_exponential(), bit for bit
            return rng.standard_exponential(size), sample_uniform_complex_sphere(t, rng, size=size)
        raise InvalidParam(self.kind)

    def at_power(self, draw):
        """(size, T) draws of the untruncated law at this P from a
        :meth:`draw`, which is left as it is."""
        if self.kind == "deterministic_point":
            x = np.asarray(self.params["x"], dtype=complex)
            return np.broadcast_to(x, (draw, self.T)).copy()
        if self.kind == "isotropic_peak":
            return np.sqrt(self.P) * draw
        if self.kind == "exponent_profile_peak":
            amps = self.P ** (np.asarray(self.params["exponents"], dtype=float) / 2.0)
            # amps e^{i ph}, bit for bit, written part by part in place
            x = np.empty(draw.shape, dtype=complex)
            np.multiply(np.cos(draw, out=x.real), amps, out=x.real)
            np.multiply(np.sin(draw, out=x.imag), amps, out=x.imag)
            return x
        if self.kind == "pilot_data_product":
            pilot_p = self.params.get("pilot_power", self.P)
            data_p = self.params.get("data_power", self.P)
            x = np.sqrt(data_p) * draw
            x[:, 0] = np.sqrt(pilot_p)
            return x
        if self.kind == "exponential_norm":
            e, u = draw
            return np.sqrt((self.P * self.T) * e)[:, None] * u
        raise InvalidParam(self.kind)

    def sample(self, rng, size=1):
        """(size, T) draws, :meth:`at_power` of a :meth:`draw`, honoring
        truncation by rejection: rejected rows are drawn again from
        ``rng``, so how much of it is used depends on P."""
        x = self.at_power(self.draw(rng, size))
        if self.truncate_above is not None:
            for _ in range(1000):
                bad = norm_sq(x) >= self.truncate_above
                n_bad = int(bad.sum())
                if n_bad == 0:
                    break
                x[bad] = self.at_power(self.draw(rng, n_bad))
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
    Raises InvalidParam unless P > 0 and beta > 1 are finite, P^beta is a
    finite float, and trials >= 1 an integer.
    """
    real("P must be finite and positive", P, above=0)
    real("beta must be finite and > 1", beta, above=1)
    (trials,) = counts("trials", trials)
    try:
        threshold = math.pow(P, beta)
    except OverflowError:
        raise InvalidParam(f"P^beta = {P}^{beta} is not a finite float") from None
    x = dist.sample(rng, size=trials)
    tail = (norm_sq(x) >= threshold).astype(float)
    p_hat, se = map(float, mean_and_std_error(moments_of(tail)))
    truncated = replace(dist, truncate_above=threshold)
    report = TruncationReport(
        truncation_prob=p_hat,
        truncation_prob_se=se,
        markov_bound=dist.T * P ** (1.0 - beta),
        rate_gap_order_term=P ** (1.0 - beta) * beta * np.log2(max(P, 2.0)),
        threshold=threshold,
    )
    return truncated, report
