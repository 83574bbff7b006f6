"""Complex linear algebra and random sampling primitives.

All vectors/matrices are plain numpy complex arrays.  Samplers take an
explicit ``numpy.random.Generator`` so that parallel callers can use
independent seeded streams.
"""

import numpy as np

from .errors import DegenerateInput, InvalidParam, NumericalDomain

# Repo-wide numerical tolerances: structural (unitarity / Hermitian symmetry)
# and algebraic identities.  Double precision leaves ample headroom at T <= 32.
TOL_STRUCTURAL = 1e-10
TOL_ALGEBRAIC = 1e-9

# Nats to bits, and log2(pi e), the per-entry entropy of CN(0, 1) in bits.
LN2 = np.log(2.0)
LOG2_PI_E = np.log2(np.pi * np.e)

# Entries of the temporary a column-blocked rank-one update forms (512 KiB
# complex): a (B, M, T) update takes a few numpy calls instead of T.
_BLOCK_ENTRIES = 2**15


def column_blocks(rows, t):
    """Slices covering columns 0..t-1, each at most max(1, _BLOCK_ENTRIES
    // rows) wide, for updating a (B, M, T) array whose column holds
    ``rows`` = B M entries."""
    w = max(1, _BLOCK_ENTRIES // rows)
    return [slice(i, i + w) for i in range(0, t, w)]


def rotation_unitary_from(x):
    """T x T unitary U whose last column is conj(x)/||x||.

    Consequently conj(x) x^T = U diag(0,...,0,||x||^2) U^H and
    x^T U = (0, ..., 0, ||x||).  Deterministic: built from a single
    Householder reflector with the sign chosen to avoid cancellation
    (:func:`apply_rotation` applied to the identity).

    Raises DegenerateInput on a zero vector.
    """
    x = np.asarray(x, dtype=complex).ravel()
    nrm = np.linalg.norm(x)
    if nrm <= 0.0 or not np.isfinite(nrm):
        raise DegenerateInput("rotation_unitary_from requires a nonzero finite vector")
    return apply_rotation(np.eye(x.size, dtype=complex)[None], x[None])[0]


def apply_rotation(a, x, out=None):
    """Batched a[b] @ U(x[b]) for the unitary of :func:`rotation_unitary_from`.

    a: (B, M, T), x: (B, T); returns (B, M, T), unchanged where x[b] = 0.
    The reflector H = I - 2 v v^H / ||v||^2 is applied implicitly,
    a -> a - 2 (a v) v^H / ||v||^2, in the column blocks of
    :func:`column_blocks`, followed by the phase fix of the last column,
    so the cost is O(B M T) and no (B, T, T) array is formed (Golub & Van
    Loan, Matrix Computations, sec. 5.1).
    ``out`` (complex, a's shape) receives the result and may be ``a``
    itself, so a chunk can be rotated with no second (B, M, T) array.
    """
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    nrm = np.linalg.norm(x, axis=1, keepdims=True)
    v = np.conj(x) / np.where(nrm > 0, nrm, 1.0)
    # phase of the last entry; zero entry -> phase 1
    last = np.abs(v[:, -1])
    ph = np.where(last > 0, v[:, -1] / np.where(last > 0, last, 1.0), 1.0)
    v[:, -1] += ph  # no cancellation: |v[-1]| grows by 1, so ||v||^2 >= 1
    coef = 2.0 * np.einsum("bmt,bt->bm", a, v) / np.sum(np.abs(v) ** 2, axis=1)[:, None]
    if out is None:
        out = np.empty_like(a)
    v_conj = np.conj(v)
    for blk in column_blocks(coef.size, a.shape[-1]):  # coef is formed, so out may alias a
        np.subtract(a[:, :, blk], coef[:, :, None] * v_conj[:, None, blk], out=out[:, :, blk])
    # H e_T = -conj(ph) u; rescale the last column so U e_T = u exactly
    out[:, :, -1] *= -ph[:, None]
    return out


# Degree-13 Pade coefficients and the 1-norm bound up to which the
# unscaled approximant is accurate to double precision (Higham, "The
# scaling and squaring method for the matrix exponential revisited",
# SIMAX 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def divided_difference_exp(nodes):
    """Divided difference exp[mu_1, ..., mu_T] of exp, one per row.

    nodes: (B, T) real; returns (B,).  Repeated nodes are allowed (the
    confluent limit).  The value is the (0, T-1) entry of exp(J) for the
    bidiagonal J = diag(mu) + superdiagonal of ones (McCurdy, Ng &
    Parlett, Math. Comp. 1984), computed by a batched Pade-13 scaling
    and squaring: each J_b is scaled by its own 2^-s_b with
    s_b = ceil(log2(max(||J_b||_1, theta_13) / theta_13)), and the
    squarings of already finished matrices are masked out.  The diagonal
    is reset to the exact exp(mu 2^-s_b 2^k) after each squaring, so its
    rounding error is not raised to the power 2^s_b (Al-Mohy & Higham,
    SIMAX 2009, sec. 2); the result then stays within ~1e-14 relative of
    a 60-digit reference even at nodes spread over 10^6.
    """
    mu = np.asarray(nodes, dtype=float)
    bsz, t = mu.shape
    j = np.zeros((bsz, t, t))
    idx = np.arange(t)
    j[:, idx, idx] = mu
    j[:, idx[:-1], idx[1:]] = 1.0
    norm1 = np.abs(j).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm1, _THETA13) / _THETA13)).astype(int)
    scale = np.exp2(-s)[:, None]
    a = j * scale[:, :, None]
    eye = np.eye(t)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    r[:, idx, idx] = np.exp(mu * scale)
    for k in range(int(s.max(initial=0))):
        r = np.where(k < s[:, None, None], r @ r, r)
        r[:, idx, idx] = np.exp(mu * np.exp2(np.minimum(k + 1 - s, 0))[:, None])
    return r[:, 0, -1]


def log_det_hermitian_psd(m):
    """log2 det(M) for a Hermitian positive-definite matrix.

    Raises NumericalDomain if M is not Hermitian within tolerance or not
    positive definite.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalDomain("expected a square matrix")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.conj().T).max() > TOL_STRUCTURAL * scale:
        raise NumericalDomain("matrix is not Hermitian within tolerance")
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalDomain("matrix is not positive definite") from None
    return 2.0 * np.sum(np.log2(np.diag(chol).real))


def norm_sq(a, axis=-1):
    """Squared Euclidean norm along ``axis``: sum of |a|^2 over it.

    Sums the real and imaginary views with ``einsum``, so no complex or
    |a| temporary of a's size is formed.
    """
    a = np.moveaxis(np.asarray(a, dtype=complex), axis, -1)
    re, im = a.real, a.imag
    return np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im)


def abs_sq(a):
    """Elementwise |a|^2 from the real and imaginary views."""
    a = np.asarray(a, dtype=complex)
    out = a.real * a.real
    out += a.imag * a.imag
    return out


def sample_complex_gaussian(n, rng, size=None, out=None, scratch=None):
    """CN(0,1) i.i.d. entries; shape (n,) or size + (n,).

    ``out`` (complex) receives the draw and ``scratch`` (float, C-contiguous)
    holds the normal deviates, each of the draw's shape; a caller drawing
    repeatedly passes the same arrays, so their memory is not faulted in anew.
    """
    if n < 1:
        raise InvalidParam("dimension must be >= 1")
    shp = (n,) if size is None else tuple(np.atleast_1d(size)) + (n,)
    # real parts first, then imaginary parts, each scaled by 1/sqrt(2) into
    # one array through one reused float buffer
    scale = 1.0 / np.sqrt(2.0)
    draw = rng.standard_normal(shp, out=scratch)
    z = np.empty(shp, dtype=complex) if out is None else out
    np.multiply(draw, scale, out=z.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, scale, out=z.imag)
    return z


def sample_uniform_complex_sphere(n, rng, size=None):
    """Uniform draw(s) on the complex unit sphere in C^n (||u|| = 1)."""
    z = sample_complex_gaussian(n, rng, size=size)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
