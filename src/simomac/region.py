"""Exact DoF-region polytopes and the exponent-space converse optimizer.

The polytopes and the converse optimizer are exact (fractions.Fraction,
and Python integers inside the optimizer); the grid oracle and the
Monte-Carlo modules use floats.  The region of interest lives in the
first quadrant of the (d1, d2) plane and always contains the origin.

The converse optimizer maximizes a piecewise-linear weighted-sum-DoF
objective over exponent profiles (eta_bar_1, eta_1T, eta_bar_2, eta_2T)
in [0,1]^4 by enumerating the vertices of the kink-hyperplane
arrangement; a float grid search serves as an independent oracle.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InvalidParam, RegimeWarning, counts

F = Fraction


# ---------------------------------------------------------------------------
# Rational 2-D polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofRegion:
    """Convex region {a1*d1 + a2*d2 <= b} ∩ first quadrant.

    halfspaces: tuple of (a1, a2, b) Fractions.
    vertices: tuple of (d1, d2) Fraction pairs, counterclockwise from (0,0).
    """

    halfspaces: tuple
    vertices: tuple


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Monotone-chain hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _start_at_origin(hull):
    origin = (F(0), F(0))
    if origin in hull:
        i = hull.index(origin)
        return hull[i:] + hull[:i]
    return hull


def _vertices_from_halfspaces(halfspaces):
    """All feasible pairwise boundary intersections, hulled CCW; the origin,
    where d1 = 0 meets d2 = 0, is among them, as every b >= 0."""
    lines = [(a1, a2, b) for (a1, a2, b) in halfspaces]
    lines.append((F(1), F(0), F(0)))  # d1 = 0
    lines.append((F(0), F(1), F(0)))  # d2 = 0
    cand = []
    for (a1, a2, b), (c1, c2, d) in combinations(lines, 2):
        det = a1 * c2 - a2 * c1
        if det == 0:
            continue
        d1 = (b * c2 - a2 * d) / det
        d2 = (a1 * d - b * c1) / det
        cand.append((d1, d2))
    feas = [
        p
        for p in cand
        if p[0] >= 0 and p[1] >= 0 and all(a1 * p[0] + a2 * p[1] <= b for a1, a2, b in halfspaces)
    ]
    return tuple(_start_at_origin(_convex_hull(feas)))


_counts = functools.partial(counts, "T, N and the grid step counts")


def outer_region(T, N):
    """Converse polytope: single sum constraint when T <= 2 or N = 1,
    otherwise the two skewed constraints through (1-1/T, 0) and
    (1-2/T, 1-2/T)."""
    T, N = _counts(T, N)
    pre = F(1) - F(1, T)
    if T <= 2 or N == 1:
        hs = ((F(1), F(1), pre),)
    else:
        hs = (
            (F(1, T - 2), F(1), pre),
            (F(1), F(1, T - 2), pre),
        )
    # duplicate halfspaces collapse (T = 3 makes the two constraints equal)
    hs = tuple(dict.fromkeys(hs))
    return DofRegion(halfspaces=hs, vertices=_vertices_from_halfspaces(hs))


def dof_corner_points(T, N):
    """Extreme achievable pairs of the training-based schemes (exact)."""
    T, N = _counts(T, N)
    if T == 1:
        return [(F(0), F(0))]
    single = F(1) - F(1, T)
    pts = [(single, F(0)), (F(0), single)]
    if T >= 3 and N > 1:
        both = F(1) - F(2, T)
        pts.append((both, both))
    return pts


def inner_region(T, N):
    """Convex hull (with time sharing) of the achievable corner points."""
    pts = dof_corner_points(T, N) + [(F(0), F(0))]
    hull = _start_at_origin(_convex_hull(pts))
    hs = []
    if len(hull) >= 3:
        for p, q in zip(hull, hull[1:] + hull[:1]):
            # edge from p to q; inward side is the left of the direction
            a1 = q[1] - p[1]
            a2 = p[0] - q[0]
            b = a1 * p[0] + a2 * p[1]
            if a1 <= 0 and a2 <= 0:
                continue  # nonnegativity edge, implied
            hs.append((a1, a2, b))
    else:  # T = 1: the origin alone
        hs.append((F(1), F(1), F(0)))
    hs = tuple(dict.fromkeys(hs))
    return DofRegion(halfspaces=hs, vertices=tuple(hull))


def regions_equal(ra, rb):
    """Exact equality of vertex sets, order-insensitive."""
    return set(ra.vertices) == set(rb.vertices)


def membership(region, d1, d2):
    d1, d2 = F(d1), F(d2)
    if d1 < 0 or d2 < 0:
        return False
    return all(a1 * d1 + a2 * d2 <= b for a1, a2, b in region.halfspaces)


def frac_str(x):
    """A Fraction as 'p/q' (also '0/1' and 'n/1')."""
    return f"{x.numerator}/{x.denominator}"


def polygon_export(region):
    """CSV rows 'p/q,p/q', counterclockwise, first row the origin."""
    verts = _start_at_origin(list(region.vertices))
    return "\n".join(f"{frac_str(d1)},{frac_str(d2)}" for d1, d2 in verts) + "\n"


def max_weighted_dof(region, lambda1, lambda2):
    """max lambda . d over the polytope, by vertex enumeration."""
    l1, l2 = F(lambda1), F(lambda2)
    return max(l1 * d1 + l2 * d2 for d1, d2 in region.vertices)


# ---------------------------------------------------------------------------
# Exponent-space objectives
# ---------------------------------------------------------------------------
# An input with squared magnitude P^a contributes log2(1 + P^a) ~ max(a,0)
# * log2 P, so every term below is the exponent (pre-log) of the
# corresponding finite-SNR penalty term.  Values outside [0,1] are allowed
# (used by the clamping property check).


def _pos(a):
    return np.maximum(a, a - a)  # a - a: a zero of a's own type, so Fractions stay exact


def _bracket_f(eb, eT, eta_other, T, N, one=1):
    """Per-user f-penalty exponent (times T).  ``one`` is unused: f has no
    constant term, so it is homogeneous of degree 1 in the profile."""
    s = _pos(eta_other)  # exponent of 1 + ||x_other||^2
    pb = _pos(eb)
    return (
        (N + T - 2) * pb
        + _pos(eb - s)
        + N * _pos(eT - np.maximum(pb, s))
        - N * _pos(np.maximum(pb, eT - s))
    )


def _bracket_g(eb, eT, eta_other, T, N, one=1):
    """Per-user g-penalty exponent (times T); three cases, ties resolve
    to the first case.  Scaling the profile and ``one`` by D > 0 scales
    the value by D."""
    s = _pos(eta_other)
    pb = _pos(eb)
    case_c = eT - s > pb
    case_b = (eT - s < pb) & (eT > np.maximum(pb, s))
    val_c = (T - 1) * _pos(eT - s)
    val_b = (T - 2) * pb + N * (_pos(np.maximum(s, eT)) - np.maximum(s, one)) + _pos(one - s)
    val_a = (T - 2) * pb + _pos(eb - s)
    return np.where(case_c, val_c, np.where(case_b, val_b, val_a))


# Each bracket is one numpy expression, so it takes Fraction scalars,
# integer arrays (exact, see _candidate_brackets) and float arrays alike.
_BRACKETS = {"f_exponent": _bracket_f, "g_exponent": _bracket_g}


def _brackets(profile, T, N, objective, one=1):
    """(user-1 bracket, user-2 bracket) at the exponent profile(s)
    (eb1, e1t, eb2, e2t); with ``one`` = D, at profile/D and times D."""
    if objective not in _BRACKETS:
        raise InvalidParam(f"unknown objective {objective!r}")
    bracket = _BRACKETS[objective]
    eb1, e1t, eb2, e2t = profile
    return (bracket(eb1, e1t, np.maximum(eb2, e2t), T, N, one),
            bracket(eb2, e2t, np.maximum(eb1, e1t), T, N, one))


def _optimizer_args(lambda1, lambda2, T, N, objective, steps=()):
    """(lambda1, lambda2, T, N) as Fractions and ints, or InvalidParam.

    Both optimizers need integers T, N >= 1, finite nonnegative weights
    that are not both zero, a known objective and positive integer grid
    step counts.
    """
    T, N, *_ = _counts(T, N, *steps)
    try:
        l1, l2 = F(lambda1), F(lambda2)  # NaN and infinities raise here
    except (TypeError, ValueError, OverflowError):
        raise InvalidParam("weights must be finite numbers") from None
    if l1 < 0 or l2 < 0 or (l1 == 0 and l2 == 0):
        raise InvalidParam("weights must be nonnegative and not both zero")
    if objective not in _BRACKETS:
        raise InvalidParam(f"unknown objective {objective!r}")
    return l1, l2, T, N


def exponent_objective(profile, lambda1, lambda2, T, N, objective):
    """Weighted-sum-DoF upper bound at one exponent profile
    (eta_bar_1, eta_1T, eta_bar_2, eta_2T).  Works on Fractions or floats.
    Raises InvalidParam unless T, N >= 1 are integers and the objective is known."""
    T, N = _counts(T, N)
    b1, b2 = (np.asarray(b)[()] for b in _brackets(profile, T, N, objective))
    return (lambda1 * b1 + lambda2 * b2) / T


def regime_objective(T, N):
    """The objective that is tight for the given (T, N)."""
    return "f_exponent" if T >= N + 1 else "g_exponent"


# ---------------------------------------------------------------------------
# Breakpoint enumeration
# ---------------------------------------------------------------------------

def _kink_hyperplanes():
    """All hyperplanes where either objective can kink: box facets, pairwise
    equalities and the sum relations eT = eb + eta_other, as one (30, 5)
    integer array of the coefficients of (eb1, e1t, eb2, e2t) and the
    right-hand side."""
    e = np.eye(4, dtype=np.int64)
    planes = [(e[i], r) for i in range(4) for r in (0, 1)]
    planes += [(e[i] - e[j], 0) for i, j in combinations(range(4), 2)]
    # e1t = eb1 + {eb2 | e2t};  e2t = eb2 + {eb1 | e1t}
    planes += [(e[t] - e[t - 1] - e[o], 0) for t, o in ((1, 2), (1, 3), (3, 0), (3, 1))]
    return np.array([np.append(c, r) for c, r in planes])


@functools.lru_cache(maxsize=None)
def _candidates():
    """(profiles, D, X): the vertices of the kink arrangement restricted
    to [0,1]^4 as sorted tuples of Fractions, their common denominator D,
    and the (4, candidates) object array X of D * profile, as Python ints
    (cached; the hyperplane set does not depend on T, N or the weights).

    Each 4-plane subset is solved by Cramer's rule, all subsets at once.
    Every coefficient is in {-1, 0, 1} and every right-hand side in
    {0, 1}, so each row of a system matrix, and of the matrix with one
    column replaced by the right-hand side, has four entries of magnitude
    at most 1 and Euclidean norm at most 2.  By Hadamard's inequality every
    determinant and every Cramer numerator is an integer of magnitude at
    most 2^4 = 16.  The float LU determinant of such a 4x4 matrix is off by
    a few ulps of 16, far less than 1/2, so rounding recovers each integer
    exactly and the vertices are exact Fractions.
    """
    planes = _kink_hyperplanes()
    subsets = np.array(list(combinations(range(len(planes)), 4)))
    a, rhs = planes[subsets, :4], planes[subsets, 4]
    systems = np.repeat(a[:, None], 5, axis=1).astype(float)
    for k in range(4):
        systems[:, k + 1, :, k] = rhs
    dets = np.rint(np.linalg.det(systems)).astype(np.int64)
    det, num = dets[:, :1], dets[:, 1:]
    # num / det in [0, 1]  <=>  0 <= num * det <= det^2
    inside = (det[:, 0] != 0) & np.all((num * det >= 0) & (num * det <= det * det), axis=1)
    profiles = sorted({tuple(F(int(v), int(d)) for v in row)
                       for row, (d,) in zip(num[inside], det[inside])})
    D = math.lcm(*(v.denominator for x in profiles for v in x))
    scaled = [[v.numerator * (D // v.denominator) for v in x] for x in profiles]
    return profiles, D, np.array(scaled, dtype=object).T


@functools.lru_cache(maxsize=1024)
def _candidate_brackets(T, N, objective):
    """(D, B1, B2): per candidate profile, D times each user's bracket, as
    Python ints (lists in candidate order).

    Both brackets are homogeneous of degree 1 in (profile, 1), so one
    evaluation on the integers D * profile with ``one`` = D gives them
    exactly, with no Fraction arithmetic.  They do not depend on the
    weights.
    """
    _, D, scaled = _candidates()
    b1, b2 = _brackets(scaled, T, N, objective, one=D)
    return D, b1.tolist(), b2.tolist()


def weighted_sum_dof_sup(lambda1, lambda2, T, N, objective):
    """Exact supremum of the exponent-space objective over [0,1]^4.

    Returns (sup, argmax_profile) with Fractions: the first maximum over
    the candidate profiles.  With lambda_i = p_i/q_i, candidate k scores
    the integer p1*q2*B1[k] + p2*q1*B2[k], which is the objective times
    q1*q2*D*T.  Warns (RegimeWarning) when the objective is known not to
    be tight for the given regime but computes the value anyway.
    """
    l1, l2, T, N = _optimizer_args(lambda1, lambda2, T, N, objective)
    if objective != regime_objective(T, N) and T >= 3 and N >= 2:
        warnings.warn(
            f"objective {objective} is not tight for T={T}, N={N}",
            RegimeWarning,
            stacklevel=2,
        )
    (p1, q1), (p2, q2) = l1.as_integer_ratio(), l2.as_integer_ratio()
    D, b1, b2 = _candidate_brackets(T, N, objective)
    scores = [p1 * q2 * x + p2 * q1 * y for x, y in zip(b1, b2)]
    k = scores.index(max(scores))
    return F(scores[k], q1 * q2 * D * T), _candidates()[0][k]


# ---------------------------------------------------------------------------
# Grid oracle (float)
# ---------------------------------------------------------------------------

def _grid_max(axes, lambda1, lambda2, T, N, objective):
    """(value, index) of the first C-order maximum of the objective on the
    product grid of the four axes (eb1, e1t, eb2, e2t).

    User 1's bracket sees user 2 only through eta_2 = max(eb2, e2t), and
    user 2's only through eta_1, so each bracket is tabulated over the
    distinct eta values of the other user: the objective at (i, j, k, l)
    is (w1[i, j, eta_2(k, l)] + w2[k, l, eta_1(i, j)]) / T.  Float ``+``
    and ``/ T`` are monotone non-decreasing, so over the (k, l) sharing
    one eta_2 the largest value comes from the largest w2 among them.
    Folding w2 into a (|eta_2|, |eta_1|) table of those maxima gives each
    (i, j)'s maximum from a 3-D array; only the first maximal (i, j)'s
    (k, l) slice is then evaluated densely, for the first maximal (k, l).
    Value and index equal a dense 4-D evaluation's, bit for bit.
    """
    g0, g1, g2, g3 = axes
    bracket = _BRACKETS[objective]
    eta1, inv1 = np.unique(np.maximum.outer(g0, g1).ravel(), return_inverse=True)
    eta2, inv2 = np.unique(np.maximum.outer(g2, g3).ravel(), return_inverse=True)
    inv1, inv2 = inv1.reshape(len(g0), len(g1)), inv2.reshape(len(g2), len(g3))
    w1 = lambda1 * bracket(g0[:, None, None], g1[None, :, None], eta2, T, N)  # (n0, n1, |eta2|)
    w2 = lambda2 * bracket(g2[:, None, None], g3[None, :, None], eta1, T, N)  # (n2, n3, |eta1|)
    table = np.full((len(eta2), len(eta1)), -np.inf)
    np.maximum.at(table, inv2.ravel(), w2.reshape(-1, len(eta1)))
    per_ij = ((w1 + table.T[inv1]) / T).max(axis=2)
    i, j = np.unravel_index(int(np.argmax(per_ij)), per_ij.shape)
    vals = (w1[i, j][inv2] + w2[:, :, inv1[i, j]]) / T
    kl = int(np.argmax(vals))
    return float(vals.flat[kl]), (i, j) + np.unravel_index(kl, vals.shape)


GRID_FINE_STEP = 512


def grid_oracle_sup(lambda1, lambda2, T, N, objective, coarse_step=64, fine_step=GRID_FINE_STEP):
    """Two-stage brute-force grid maximum: full 1/coarse_step grid, then a
    1/fine_step refinement around the coarse argmax.  Returns (value,
    argmax tuple) as floats."""
    l1, l2, T, N = _optimizer_args(lambda1, lambda2, T, N, objective,
                                   steps=(coarse_step, fine_step))
    l1, l2 = float(l1), float(l2)
    axis = np.linspace(0.0, 1.0, coarse_step + 1)
    best, idx = _grid_max([axis] * 4, l1, l2, T, N, objective)
    center = [axis[i] for i in idx]
    fine_axes = []
    for c in center:
        lo = max(0.0, c - 1.0 / coarse_step)
        hi = min(1.0, c + 1.0 / coarse_step)
        n_pts = int(round((hi - lo) * fine_step)) + 1
        fine_axes.append(np.linspace(lo, hi, n_pts))
    fbest, fidx = _grid_max(fine_axes, l1, l2, T, N, objective)
    if fbest >= best:
        best = fbest
        center = [fine_axes[k][fidx[k]] for k in range(4)]
    return best, tuple(center)


def objective_lipschitz_bound(T, N):
    """Per-coordinate Lipschitz constant bound for either objective."""
    return 2.0 * (N + T) / T


def grid_oracle_tolerance(T, N):
    """How far below the exact sup the grid oracle, at its default fine
    step, may stay: the Lipschitz bound times one fine grid step."""
    return objective_lipschitz_bound(T, N) / GRID_FINE_STEP
