"""k-NN (Kozachenko-Leonenko) differential entropy estimation.

Used as an independent oracle for closed-form entropies and for plug-in
mutual-information lower estimates.  Complex samples are embedded as
real vectors of twice the dimension; results are in bits and refer to
the complex differential entropy (identical to the real one under the
embedding).
"""

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma, gammaln

from .errors import InvalidParam

LN2 = np.log(2.0)


def complex_to_real(samples):
    """(n, d) complex -> (n, 2d) real embedding."""
    samples = np.asarray(samples)
    flat = samples.reshape(samples.shape[0], -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def knn_entropy_bits(samples, k=4):
    """Kozachenko-Leonenko entropy estimate in bits.

    ``samples``: (n, d) real array, or complex (embedded automatically).
    Raises InvalidParam unless k >= 1 and there are at least k + 1 points.
    """
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        samples = complex_to_real(samples)
    n, d = samples.shape
    if k < 1 or n < k + 1:
        raise InvalidParam(f"k-NN entropy needs k >= 1 and at least k + 1 points (k={k}, n={n})")
    # Exact query, so the leaf size changes speed only: 64 beats the
    # default 16 in the 8-16 real dimensions of the MI oracle.
    tree = cKDTree(samples, leafsize=64)
    # k+1 because the query point is its own nearest neighbor
    dist, _ = tree.query(samples, k=k + 1, workers=-1)
    eps = dist[:, k]
    eps = np.maximum(eps, 1e-300)
    log_ball = (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0 + 1.0)
    h_nats = (
        digamma(n) - digamma(k) + log_ball + d * np.mean(np.log(eps))
    )
    return float(h_nats / LN2)
