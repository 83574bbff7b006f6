"""Complex linear algebra, random sampling primitives, and the one
Monte-Carlo engine: the chunk and seed rules, the runner that spreads
chunks of work over the CPUs, the runner of seeded trial streams on it
(:func:`streamed`) and the merge of their moments.

All vectors/matrices are plain numpy complex arrays.  Samplers take an
explicit ``numpy.random.Generator`` so that parallel callers can use
independent seeded streams.  The divided difference of exp comes in log
form only (:func:`log_divided_difference_exp`), with the ratio R that
drops its first node: a kappa-scaled bidiagonal exponential keeps the
entries both are read from O(1) at any node spread, so neither is lost to
underflow and nothing is clamped.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.random  # numpy loads it on first use otherwise, inside the first draw

from .errors import DegenerateInput, InvalidParam

# Repo-wide numerical tolerances: structural (unitarity / Hermitian symmetry)
# and algebraic identities.  Double precision leaves ample headroom at T <= 32.
TOL_STRUCTURAL = 1e-10
TOL_ALGEBRAIC = 1e-9

# Nats to bits, and log2(pi e), the per-entry entropy of CN(0, 1) in bits.
LN2 = np.log(2.0)
LOG2_PI_E = np.log2(np.pi * np.e)

# Entries of a chunk's largest array (:func:`trial_chunks`): one chunk in
# flight per CPU holds little memory, whatever the trial count.
_CHUNK_SLOTS = 2**14


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


def apply_rotation(a, x):
    """Batched a[b] @ U(x[b]) for the unitary of :func:`rotation_unitary_from`.

    a: (B, M, T), x: (B, T); returns (B, M, T), unchanged where x[b] = 0.
    The reflector H = I - 2 v v^H / ||v||^2 is applied implicitly,
    a -> a - 2 (a v) v^H / ||v||^2, followed by the phase fix of the last
    column, so the cost is O(B M T) and no (B, T, T) array is formed
    (Golub & Van Loan, Matrix Computations, sec. 5.1).
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
    out = a - coef[:, :, None] * np.conj(v)[:, None, :]
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


def log_divided_difference_exp(nodes):
    """(ln exp[mu_1, ..., mu_T], R) per row, R = exp[mu_2, ..., mu_T] /
    exp[mu_1, ..., mu_T] the ratio that drops the first node (R = 0 at
    T = 1); exp[.] is the divided difference of exp.

    nodes: (B, T) real; returns two (B,) arrays.  Repeated nodes are
    allowed (the confluent limit).  The nodes are shifted by their
    maximum, nu = mu - max mu (exact when that maximum is 0), and put on
    the diagonal of the bidiagonal J = diag(nu) + kappa (superdiagonal),
    kappa = max(spread of the nodes, 1).  Entry (i, j) of exp(J) is
    kappa^(j-i) exp[nu_i, ..., nu_j] (Opitz, ZAMM 1964; McCurdy, Ng &
    Parlett, Math. Comp. 1984; the kappa^(j-i) is the similarity by
    diag(kappa^k)), which stays O(1) where the divided difference itself,
    about kappa^-(T-1) at a wide spread, would underflow.  So
    ln exp[mu] = max mu + ln r_(0,T-1) - (T-1) ln kappa and
    R = kappa r_(1,T-1) / r_(0,T-1).  exp(J) comes from a batched Pade-13
    scaling and squaring: each J_b is scaled by its own 2^-s_b with
    s_b = ceil(log2(max(||J_b||_1, theta_13) / theta_13)), and the
    squarings of already finished matrices are masked out.  The diagonal
    is reset to the exact exp(nu 2^-s_b 2^k) after each squaring, so its
    rounding error is not raised to the power 2^s_b (Al-Mohy & Higham,
    SIMAX 2009, sec. 2); both results then stay within ~1e-13 of a
    60-digit reference at node spreads up to 10^30.
    """
    mu = np.asarray(nodes, dtype=float)
    bsz, t = mu.shape
    top = mu.max(axis=1)
    nu = mu - top[:, None]
    kappa = np.maximum(-nu.min(axis=1), 1.0)
    j = np.zeros((bsz, t, t))
    idx = np.arange(t)
    j[:, idx, idx] = nu
    j[:, idx[:-1], idx[1:]] = kappa[:, None]
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
    r[:, idx, idx] = np.exp(nu * scale)
    for k in range(int(s.max(initial=0))):
        r = np.where(k < s[:, None, None], r @ r, r)
        r[:, idx, idx] = np.exp(nu * np.exp2(np.minimum(k + 1 - s, 0))[:, None])
    log_dd = top + np.log(r[:, 0, -1]) - (t - 1) * np.log(kappa)
    ratio = kappa * r[:, 1, -1] / r[:, 0, -1] if t > 1 else np.zeros(bsz)
    return log_dd, ratio


def cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_chunks(run, n, fold=None):
    """Call ``run(i, scratch)`` for every chunk i < n; with ``fold``, call
    ``fold(result)`` on each chunk's result in chunk order.

    The calling thread and min(CPUs, n) - 1 helper threads take the chunk
    indices in order from one shared iterator.  Each thread passes a dict
    of its own as ``scratch``, in which ``run`` may keep buffers for that
    thread's later chunks.  A result that finishes before a lower chunk's
    waits for it; ``fold`` runs under a lock, so the folds never overlap
    and their order, and so any sum they build, does not depend on the
    CPU count.  Once a chunk raises, no further chunk is started; after
    the started ones have finished, the error of the lowest failed chunk
    is raised.  Every chunk below it was started before it, so that is
    the error a one-thread run raises.
    """
    lock = threading.Lock()
    todo = iter(range(n))
    errors, finished = {}, {}
    folded = 0  # chunks folded so far

    def work():
        nonlocal folded
        scratch = {}
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                result = run(i, scratch)
            except BaseException as exc:  # re-raised below, on the calling thread
                with lock:
                    errors[i] = exc
                continue
            if fold is not None:
                with lock:
                    finished[i] = result
                    while folded in finished:
                        fold(finished.pop(folded))
                        folded += 1

    helpers = min(cpu_count(), n) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:  # threads start on submit only
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    if errors:
        raise errors[min(errors)]


def trial_chunks(size, footprint):
    """Start of each chunk of ``size`` >= 1 trials, each holding
    ``footprint`` entries in its largest array, as a range whose step is
    the chunk length: ceil(size / count) trials (the last chunk possibly
    fewer), count = ceil(size / cap) with cap =
    max(2, ``_CHUNK_SLOTS // footprint``), so the chunks are as equal as
    the cap allows and the CPUs running them finish together."""
    count = -(-size // max(2, _CHUNK_SLOTS // footprint))
    return range(0, size, -(-size // count))


def chunk_seed(seed, stream, i):
    """Seed of chunk i of ``stream`` in :func:`streamed`: the i-th child of
    the stream-th child of SeedSequence((seed, 0)), made without spawning
    its siblings.  Streams: 0 and 1 the duality bounds' fit and evaluation
    trials, 2 the mixture MI estimate, 3 and 4 the single-user and MAC
    training rates, 5 the k-NN MI estimate (one chunk)."""
    return np.random.SeedSequence((seed, 0), spawn_key=(stream, i))


def streamed(chunk, size, footprint, seed, stream, fold):
    """Run ``size`` trials of ``stream`` in the chunks of
    :func:`trial_chunks` at ``footprint`` on :func:`run_chunks`: chunk i,
    of b trials, calls ``chunk(chunk_seed(seed, stream, i), b, scratch)``
    with its thread's ``scratch``, and ``fold`` takes the results in chunk
    order, so neither memory nor the folded result depends on the trial
    or CPU count."""
    starts = trial_chunks(size, footprint)

    def run(i, scratch):
        b = min(starts.step, size - starts[i])
        return chunk(chunk_seed(seed, stream, i), b, scratch)

    run_chunks(run, len(starts), fold=fold)


def streamed_moments(stat, size, footprint, seed, stream):
    """One (count, mean, M2) per array that ``stat(rng, b)`` returns (or
    yields, so one is held at a time) over ``size`` trials of
    :func:`streamed`, each chunk's rng a generator on its seed, merged
    in chunk order."""
    merged = []

    def chunk(seq, b, scratch):
        return [moments_of(x) for x in stat(np.random.default_rng(seq), b)]

    def fold(moments):
        merged[:] = [merge_moments(a, m) for a, m in zip(merged, moments)] if merged else moments

    streamed(chunk, size, footprint, seed, stream, fold)
    return merged


def moments_of(x):
    """(count, mean, M2) of the rows of ``x``, for :func:`merge_moments`;
    M2 is not a BLAS dot product, which would cost the chunk threads memory."""
    mean = x.mean(axis=0)
    dev = x - mean
    return len(x), mean, (dev * dev).sum(axis=0)


def mean_and_std_error(moments):
    """(mean, standard error of the mean) of a group's (count, mean, M2)."""
    n, mean, m2 = moments
    return mean, np.sqrt(m2 / n) / np.sqrt(n)


def merge_moments(a, b):
    """(count, mean, M2) of the union of two groups, each given by its
    (count, mean, M2), M2 being the sum of squared deviations from the
    mean; numbers, or arrays of one shape merged elementwise.

    The pairwise update of Chan, Golub & LeVeque (1979): with
    d = mean_b - mean_a, the mean moves by d n_b / n and M2 gains
    d^2 n_a n_b / n, so no large sums of squares cancel.  An empty group
    (count 0, mean 0) leaves the other as it is, and two empty ones merge
    to an empty one.
    """
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    d = mean_b - mean_a
    share = n_b / np.maximum(n, 1)
    return n, mean_a + d * share, m2_a + m2_b + d * d * n_a * share


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


def sample_split_gaussian(n, t, rng, size):
    """(G0, g, G), drawn in that order: ``size`` draws of the split of t
    i.i.d. CN(0, I_n) vectors w_k against the direction u = w_0 / ||w_0||
    of another, w_0, from their exact law.  G0 = ||w_0||^2 ~ Gamma(n, 1),
    (size,); g_k = u^H w_k ~ CN(0, 1) and G_k = ||w_k - g_k u||^2 ~
    Gamma(n - 1, 1), (size, t).  CN(0, I_n) is unitarily invariant, so in
    an orthonormal basis whose first vector is u each w_k has n i.i.d.
    CN(0, 1) coordinates: g_k is the first and G_k the squared norm of
    the rest, all independent of each other and of w_0.  At n = 1, G = 0
    and nothing is drawn for it."""
    return (rng.standard_gamma(n, size), sample_complex_gaussian(t, rng, size=size),
            rng.standard_gamma(n - 1, (size, t)))


def sample_uniform_complex_sphere(n, rng, size=None):
    """Uniform draw(s) on the complex unit sphere in C^n (||u|| = 1)."""
    z = sample_complex_gaussian(n, rng, size=size)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
