"""k-NN (Kozachenko-Leonenko) differential entropy estimation.

Used as an independent oracle for closed-form entropies and for the
plug-in mutual-information estimate of :mod:`simomac.converse`.  Complex
samples are embedded as real vectors of twice the dimension; results are
in bits and refer to the complex differential entropy (identical to the
real one under the embedding).

The estimator needs each point's distance to its k-th nearest other
point.  From ``_ENGINE_MIN_DIM`` real dimensions on, an exact numpy
search finds it (:func:`kth_neighbour_distance`); below, scipy's k-d tree
does, imported only then.  Both return the same float64 distances, bit
for bit.
"""

from math import lgamma

import numpy as np

from .errors import InvalidParam, counts
from .linalg import LN2, run_chunks

# Real dimension from which the numpy search beats cKDTree(leafsize=64)
# with workers=-1.  On 2 CPUs, Gaussian points: at d = 8 the tree is
# faster for 10k and 50k points (0.19 s vs 0.21 s, 1.8 s vs 2.4 s), at
# d = 9 the search is (50k: 2.7 s vs 3.0 s), and at d = 10 twice as fast.
# At low d the tree wins by far: 100k points in 2 dimensions take it
# 0.2 s, a brute-force search about 35 s.
_ENGINE_MIN_DIM = 9

# Rows of one work unit, and the columns of one pass over them.
_ROWS = 128
_SEGMENT = 2048
# m * n * k of one float32 GEMM tile: OpenBLAS runs products up to this
# size on the calling thread instead of waking its own threads.
_GEMM_MNK = 2**18
_EPS32 = float(np.finfo(np.float32).eps)


def complex_to_real(samples):
    """(n, d) complex -> (n, 2d) real embedding."""
    samples = np.asarray(samples)
    flat = samples.reshape(samples.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _sq_norm(diff):
    """Squared norms along the last axis, summed in cKDTree's order: four
    running sums over blocks of four coordinates, added left to right,
    then the remaining coordinates one by one.  So the distances are the
    tree's, bit for bit."""
    sq = diff * diff
    d = sq.shape[-1]
    whole = d // 4 * 4
    if whole:
        acc = sq[..., :4].copy()
        for j in range(4, whole, 4):
            acc += sq[..., j:j + 4]
        out = ((acc[..., 0] + acc[..., 1]) + acc[..., 2]) + acc[..., 3]
    else:
        out = np.zeros(sq.shape[:-1])
    for j in range(whole, d):
        out += sq[..., j]
    return out


def _kth_smallest_by_row(rows, values, n_rows, k):
    """(k+1)-th smallest of ``values`` per row index in ``rows``; a row
    with at most k values gets inf."""
    order = np.argsort(rows, kind="stable")
    rows, values = rows[order], values[order]
    counts = np.bincount(rows, minlength=n_rows)
    table = np.full((n_rows, max(counts.max(), k + 1)), np.inf)
    table[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values
    return np.partition(table, k, axis=1)[:, k]


def _exact_kth_sq_dist(x, rows, k):
    """Squared distance from each of x[rows] to its (k+1)-th nearest point
    of x (itself included), over all points in float64."""
    best = np.full((rows.size, k + 1), np.inf)
    width = max(1, 2**16 // (rows.size * x.shape[1]))
    for c0 in range(0, len(x), width):
        sq = _sq_norm(x[rows, None, :] - x[None, c0:c0 + width, :])
        best = np.partition(np.concatenate([best, sq], axis=1), k, axis=1)[:, :k + 1]
    return best.max(axis=1)


def kth_neighbour_distance(x, k):
    """Distance from each row of ``x`` (n, d) real, n >= k + 1, to its
    (k+1)-th nearest row, itself included:
    ``cKDTree(x).query(x, k=k+1)[0][:, k]``, bit for bit.

    Blocks of ``_ROWS`` rows go to the CPUs through
    :func:`~simomac.linalg.run_chunks`.  For each block:

    1. Approximate squared distances come from the float32 product of
       [x_i, |x_i|^2, 1] and [-2 x_j, 1, |x_j|^2], one segment of
       ``_SEGMENT`` columns at a time.  Each segment is one stacked
       ``np.matmul`` over tiles small enough that OpenBLAS keeps each on
       the calling thread, plus one call for the columns left over, so
       numpy loops over the tiles with the GIL released.  Their error is at
       most (d + 4) eps32 (|x_i|^2 + |x_j|^2) (float32 rounding of the
       inputs plus a (d + 2)-term dot product), so the margin
       M_i = 4 (d + 8) eps32 (|x_i|^2 + max_j |x_j|^2) bounds it with a
       fourfold reserve.
    2. With tau_i the (k+1)-th smallest approximate distance to the
       points of the first segment, the true (k+1)-th neighbour distance is
       at most tau_i + M_i, so every true neighbour is within
       approximate distance tau_i + 2 M_i; the points above it are
       dropped.
    3. Of the candidates left, the (k+1)-th smallest approximate
       distance tau'_i lowers the cut to tau'_i + 2 M_i by the same
       argument, and the few survivors are ranked exactly in float64 in
       cKDTree's summation order (:func:`_sq_norm`).
    4. A row whose margin is not small against its threshold
       (2 d M_i > tau_i: large coordinates, or duplicate points) would
       keep too many candidates; it is searched exactly over all points
       instead (:func:`_exact_kth_sq_dist`).
    """
    x = np.ascontiguousarray(x, dtype=float)
    n, d = x.shape
    sq = np.einsum("ij,ij->i", x, x)
    left = np.empty((n, d + 2), dtype=np.float32)
    left[:, :d], left[:, d], left[:, d + 1] = x, sq, 1.0
    right = np.empty((d + 2, n), dtype=np.float32)
    right[:d], right[d], right[d + 1] = -2.0 * x.T, 1.0, sq
    margin = 4 * (d + 8) * _EPS32 * (sq + sq.max())
    tile = max(1, _GEMM_MNK // (_ROWS * (d + 2)))
    segment = max(_SEGMENT, k + 1)
    out = np.empty(n)

    def run(i, scratch):
        lo, hi = i * _ROWS, min((i + 1) * _ROWS, n)
        if not scratch:
            scratch.update(approx=np.empty(_ROWS * min(n, segment), dtype=np.float32),
                           below=np.empty(_ROWS * min(n, segment), dtype=bool))
        m, mg = hi - lo, margin[lo:hi]
        found = []
        for s0 in range(0, n, segment):
            w = min(segment, n - s0)
            approx = scratch["approx"][:m * w].reshape(m, w)
            below = scratch["below"][:m * w].reshape(m, w)
            nt = w // tile
            whole = nt * tile
            np.matmul(left[lo:hi],
                      right[:, s0:s0 + whole].reshape(d + 2, nt, tile).transpose(1, 0, 2),
                      out=approx[:, :whole].reshape(m, nt, tile).transpose(1, 0, 2))
            if whole < w:
                np.matmul(left[lo:hi], right[:, s0 + whole:s0 + w], out=approx[:, whole:])
            if s0 == 0:
                tau = np.partition(approx, k, axis=1)[:, k].astype(float)
                ok = np.isfinite(tau) & (2 * d * mg <= tau)
                cut = np.nextafter((tau + 2 * mg).astype(np.float32), np.float32(np.inf))
                cut[~ok] = -np.inf
            idx = np.flatnonzero(np.less_equal(approx, cut[:, None], out=below))
            r, c = np.divmod(idx, w)
            found.append((r, c + s0, approx.ravel()[idx]))
        r, c, v = (np.concatenate(parts) for parts in zip(*found))
        good = np.flatnonzero(ok)
        if good.size:
            keep = v <= (_kth_smallest_by_row(r, v.astype(float), m, k) + 2 * mg)[r]
            r, c = r[keep], c[keep]
            exact = _kth_smallest_by_row(r, _sq_norm(x[lo + r] - x[c]), m, k)
            out[lo + good] = exact[good]
        bad = np.flatnonzero(~ok)
        if bad.size:
            out[lo + bad] = _exact_kth_sq_dist(x, lo + bad, k)

    run_chunks(run, -(-n // _ROWS))
    return np.sqrt(out)


def knn_entropy_bits(samples, k=4):
    """Kozachenko-Leonenko entropy estimate in bits.

    ``samples``: (n, d) real array, or complex (embedded automatically).
    Raises InvalidParam unless k >= 1 is an integer and the samples are a
    finite numeric 2-D array of at least k + 1 points.
    """
    (k,) = counts("k", k)
    samples = np.asarray(samples)
    if (samples.dtype.kind not in "biufc" or samples.ndim != 2 or len(samples) < k + 1
            or not np.isfinite(samples).all()):
        raise InvalidParam(f"k-NN entropy needs a finite numeric (n, d) array of n >= k + 1 "
                           f"points (k={k}, shape {samples.shape})")
    if np.iscomplexobj(samples):
        samples = complex_to_real(samples)
    n, d = samples.shape
    # k+1 because the query point is its own nearest neighbor
    if d >= _ENGINE_MIN_DIM:
        eps = kth_neighbour_distance(samples, k)
    else:
        from scipy.spatial import cKDTree

        # Exact query, so the leaf size changes speed only.
        eps = cKDTree(samples, leafsize=64).query(samples, k=k + 1, workers=-1)[0][:, k]
    eps = np.maximum(eps, 1e-300)
    log_ball = (d / 2.0) * np.log(np.pi) - lgamma(d / 2.0 + 1.0)
    # digamma(n) - digamma(k) = sum_{j=k}^{n-1} 1/j
    h_nats = np.sum(1.0 / np.arange(k, n)) + log_ball + d * np.mean(np.log(eps))
    return float(h_nats / LN2)
