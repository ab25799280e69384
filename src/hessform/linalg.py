"""Dense small-matrix utilities specialised to nonnegative/Metzler structure.

Everything here operates on plain ``numpy.ndarray`` values (matrices are 2-d,
vectors 1-d, both float64).  Inputs are validated on entry: non-square or
non-finite data raises :class:`~hessform.errors.InputError`.  All functions are
pure; nothing is mutated, and the one cache, :func:`_masks`, holds read-only
boolean masks, one pair per dimension.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusterAmbiguityError,
    IllConditionedWarning,
    InputError,
    NumericalError,
)

__all__ = [
    "ClassReport",
    "PerronData",
    "SortedSpectrum",
    "as_matrix",
    "as_square",
    "as_vector",
    "classify",
    "geometric_multiplicity",
    "inf_norm",
    "jordan_like_form",
    "nonneg_vector",
    "permutation_to_hessenberg",
    "perron_pair",
    "sorted_spectrum",
    "zero_tolerance",
]

#: Hard cap on matrix dimension accepted anywhere in the package.
MAX_DIM = 16
#: Dimension limit for the real Jordan-like form.
JORDAN_DIM_LIMIT = 4

_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError(f"{name} contains non-finite entries")
    if max(m.shape) > MAX_DIM:
        raise InputError(f"{name} exceeds the supported dimension {MAX_DIM}")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(b, name: str = "vector") -> np.ndarray:
    v = np.asarray(b, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise InputError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")
    if v.size > MAX_DIM:
        raise InputError(f"{name} exceeds the supported dimension {MAX_DIM}")
    return v


def nonneg_vector(b, n: int, name: str) -> np.ndarray:
    """``b`` as a nonnegative nonzero ``n``-vector for ``name``, its negative
    entries within ``zero_tolerance(b)`` set to 0."""
    b = as_vector(b)
    if b.size != n:
        raise InputError(f"{name} expects a {n}-vector")
    if np.min(b) < -zero_tolerance(b) or not b.any():
        raise InputError(f"{name} requires a nonnegative nonzero vector")
    return np.maximum(b, 0.0)


def inf_norm(a) -> float:
    """Max absolute row sum for matrices, max absolute entry for vectors."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=1).max())


def zero_tolerance(A, tol: float | None = None) -> float:
    """Threshold of every sign/zero test on ``A``: ``tol`` when given (absolute,
    in the units of ``A``), else ``1e-9 * ||A||_inf``.  The default is relative,
    so ``A -> cA`` never changes a test; a vector is tested against its own norm
    (``zero_tolerance(b)``), a zero array against exact zero."""
    if tol is not None:
        if tol < 0:
            raise InputError("tolerance must be nonnegative")
        return float(tol)
    return 1e-9 * inf_norm(A)


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassReport:
    """Structural classification of a square matrix under a zero threshold."""

    is_nonnegative: bool
    is_metzler: bool
    is_upper_hessenberg: bool
    is_irreducible: bool
    is_primitive: bool
    zero_pattern: np.ndarray
    tolerance_used: float


@dataclass(frozen=True, eq=False)
class SortedSpectrum:
    """All eigenvalues in canonical order plus per-cluster multiplicity data.

    The canonical order is descending absolute value, ties broken by
    decreasing real part, remaining ties (conjugate pairs) put the positive
    imaginary part first.  Clusters group eigenvalues that lie within
    ``cluster_tolerance * ||A||_inf`` of each other.
    """

    eigenvalues: np.ndarray
    cluster_values: np.ndarray
    algebraic_multiplicities: tuple[int, ...]
    geometric_multiplicities: tuple[int, ...]
    cluster_tolerance: float

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues[0])) if self.eigenvalues.size else 0.0


@dataclass(frozen=True, eq=False)
class PerronData:
    """Dominant root of a nonnegative matrix with unit-sum eigenvectors."""

    perron_root: float
    right_vector: np.ndarray
    left_vector: np.ndarray
    is_simple: bool


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=MAX_DIM)
def _masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n x n`` boolean masks below the first subdiagonal and off the
    diagonal, built once per ``n`` and read-only, so no caller can alter them."""
    below = np.tril(np.ones((n, n), dtype=bool), k=-2)
    off = ~np.eye(n, dtype=bool)
    below.flags.writeable = off.flags.writeable = False
    return below, off


def _strongly_connected(pattern: np.ndarray) -> bool:
    """Strong connectivity of the digraph i -> j iff pattern[i, j] (off-diagonal)."""
    n = pattern.shape[0]
    if n == 1:
        return True
    reach = pattern.copy()
    np.fill_diagonal(reach, True)
    # boolean matrix closure; n <= 16 so repeated squaring is plenty fast
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        reach = reach @ reach
    return bool(reach.all())


def classify(A, tol: float | None = None) -> ClassReport:
    """Classify a square matrix: sign structure, Hessenberg pattern,
    irreducibility and primitivity.

    Parameters
    ----------
    A : array_like, square
    tol : float, optional
        Zero threshold, absolute in the units of ``A``; defaults to
        ``1e-9 * ||A||_inf`` (see :func:`zero_tolerance`).

    Notes
    -----
    Irreducibility and primitivity are properties of the thresholded zero
    pattern, never of eigenvector signs or of the spectrum: irreducible means
    a strongly connected off-diagonal digraph, and primitive means an
    irreducible nonnegative matrix whose boolean pattern, raised to
    Wielandt's bound ``(n - 1)^2 + 1``, has no zero (so ``[[0]]`` is not
    primitive).
    """
    A = as_square(A)
    t = zero_tolerance(A, tol)
    n = A.shape[0]
    zero_pattern = np.abs(A) <= t

    below, off = _masks(n)
    is_nonnegative = bool(np.all(A >= -t))
    is_metzler = bool(np.all(A[off] >= -t))
    is_hess = bool(np.all(zero_pattern[below]))

    adjacency = (~zero_pattern) & off
    is_irreducible = _strongly_connected(adjacency)

    is_primitive = False
    if is_irreducible and is_nonnegative:
        # a primitive pattern stays positive beyond (n - 1)^2 + 1, an
        # imprimitive one never turns positive: squaring past the bound decides
        power = ~zero_pattern
        for _ in range(int(np.ceil(np.log2((n - 1) ** 2 + 1)))):
            power = power @ power
        is_primitive = bool(power.all())

    return ClassReport(
        is_nonnegative=is_nonnegative,
        is_metzler=is_metzler,
        is_upper_hessenberg=is_hess,
        is_irreducible=is_irreducible,
        is_primitive=is_primitive,
        zero_pattern=zero_pattern,
        tolerance_used=t,
    )


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues from LAPACK, in the canonical order of :class:`SortedSpectrum`."""
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return _canonical_sort(vals, _tie_tolerance(vals))


def _tie_tolerance(values: np.ndarray) -> float:
    return 1e-9 * float(np.max(np.abs(values))) if len(values) else 0.0


def _canonical_sort(values: np.ndarray, tie_tol: float) -> np.ndarray:
    """Sort eigenvalues: descending |z|, then descending Re, then descending Im.
    The comparisons run on Python complex numbers, which take the same IEEE
    operations as NumPy scalars at a fraction of the cost."""

    def cmp(a: complex, b: complex) -> int:
        if abs(abs(a) - abs(b)) > tie_tol:
            return -1 if abs(a) > abs(b) else 1
        if abs(a.real - b.real) > tie_tol:
            return -1 if a.real > b.real else 1
        if abs(a.imag - b.imag) > tie_tol:
            return -1 if a.imag > b.imag else 1
        return 0

    return np.array(sorted(values.tolist(), key=functools.cmp_to_key(cmp)), dtype=complex)


def _cluster_indices(values: np.ndarray, threshold: float) -> list[list[int]]:
    """Group indices whose values chain together within ``threshold``."""
    k = len(values)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= threshold:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pj] = pi
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    # keep clusters in first-appearance order (values are pre-sorted)
    return sorted(groups.values(), key=lambda g: g[0])


def sorted_spectrum(A, cluster_tol: float = 1e-6) -> SortedSpectrum:
    """Compute the full spectrum in canonical order with multiplicity clusters.

    Parameters
    ----------
    A : array_like, square
    cluster_tol : float
        Relative clustering tolerance; eigenvalues within
        ``cluster_tol * ||A||_inf`` are merged into one cluster for
        multiplicity reporting.

    Returns
    -------
    SortedSpectrum
        Eigenvalues (length n), per-cluster representative values, and
        algebraic/geometric multiplicities per cluster.
    """
    A = as_square(A)
    if cluster_tol < 0:
        raise InputError("cluster_tol must be nonnegative")
    ordered = _eigenvalues(A)
    threshold = cluster_tol * inf_norm(A)

    clusters = _cluster_indices(ordered, threshold)
    reps = []
    alg = []
    geo = []
    for idx in clusters:
        mean = complex(np.mean(ordered[idx]))
        if abs(mean.imag) <= threshold:
            mean = complex(mean.real, 0.0)
        reps.append(mean)
        alg.append(len(idx))
        geo.append(geometric_multiplicity(A, mean))
    return SortedSpectrum(
        eigenvalues=ordered,
        cluster_values=np.array(reps, dtype=complex),
        algebraic_multiplicities=tuple(alg),
        geometric_multiplicities=tuple(geo),
        cluster_tolerance=cluster_tol,
    )


def geometric_multiplicity(A, lam: complex, rank_tol: float = 1e-8) -> int:
    """Dimension of the eigenspace of ``lam``: n - numerical_rank(A - lam*I).

    The numerical rank counts singular values above ``rank_tol`` times the
    largest one.
    """
    A = as_square(A)
    if rank_tol < 0:
        raise InputError("rank_tol must be nonnegative")
    n = A.shape[0]
    shifted = A.astype(complex) - lam * np.eye(n)
    s = np.linalg.svd(shifted, compute_uv=False)
    if s[0] <= _EPS * inf_norm(A):
        return n
    return int(n - np.count_nonzero(s > rank_tol * s[0]))


# ---------------------------------------------------------------------------
# Perron pair
# ---------------------------------------------------------------------------

def _null_vector(M: np.ndarray) -> np.ndarray:
    """Unit right null vector (smallest right singular vector)."""
    _, _, vt = np.linalg.svd(M)
    return vt[-1].conj()


def _sign_fix(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    if v[idx] < 0:
        return -v
    return v


def _perron_vector(A: np.ndarray, lam1: float, t: float) -> np.ndarray:
    """Nonnegative unit-sum right eigenvector for the Perron root."""
    n = A.shape[0]
    v = np.real(_null_vector(A.astype(complex) - lam1 * np.eye(n)))
    v = _sign_fix(v)
    if np.min(v) < -t * 10:
        # multiple dominant eigenvalue with a rotated basis vector: fall back
        # to power iteration on the shifted matrix, which stays nonnegative
        B = A + inf_norm(A) * np.eye(n)
        x = np.full(n, 1.0 / n)
        target = 1e-12 * inf_norm(A)
        for _ in range(20000):
            y = B @ x
            norm = float(np.sum(np.abs(y)))
            if norm <= 0:
                break
            x = y / norm
            if inf_norm(A @ x - lam1 * x) <= target:
                break
        v = x
    v = np.where(np.abs(v) <= t, np.abs(v), v)
    total = float(np.sum(v))
    if total <= 0:
        raise NumericalError("failed to normalise Perron vector to unit sum")
    return v / total


def perron_pair(A, tol: float | None = None) -> PerronData:
    """Dominant eigenvalue of a nonnegative matrix with right/left eigenvectors.

    The right and left vectors are normalised to unit coordinate sum and are
    entrywise nonnegative within the zero threshold.  ``is_simple`` reports
    whether the dominant root has geometric multiplicity one.
    """
    A = as_square(A)
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("perron_pair requires a nonnegative matrix")
    lam1 = max(0.0, float(_eigenvalues(A)[0].real))
    right = _perron_vector(A, lam1, t)
    left = _perron_vector(A.T, lam1, t)
    simple = geometric_multiplicity(A, lam1) == 1
    return PerronData(perron_root=lam1, right_vector=right, left_vector=left,
                      is_simple=simple)


# ---------------------------------------------------------------------------
# permutation search
# ---------------------------------------------------------------------------

def permutation_to_hessenberg(A, tol: float | None = None) -> np.ndarray | None:
    """The lexicographically first permutation matrix ``P`` such that
    ``P.T @ A @ P`` is upper Hessenberg on the thresholded zero pattern, or
    ``None`` when no permutation works.

    A depth-first search places the indices in lexicographic order.  A placed
    index may have off-diagonal nonzeros only in the columns of indices placed
    after it or of the one placed just before it, so once an index follows
    ``last``, the column of ``last`` is forbidden to every index still
    unplaced.  The rows with a nonzero there must therefore come next: two or
    more of them end the branch, one is the only child, and none leaves every
    unplaced index free.  Indices with no off-diagonal nonzero in their row
    and column are interchangeable in any order, so a free branch tries only
    the least unplaced one of them, which keeps the first order found the
    lexicographically first.  Whether a state (placed set, last placed)
    completes depends on nothing else, so failed states are remembered, and a
    call visits at most ``2**n * n`` of them, which reaches ``MAX_DIM``.
    """
    A = as_square(A)
    n = A.shape[0]
    nonzero = np.abs(A) > zero_tolerance(A, tol)
    np.fill_diagonal(nonzero, False)
    # rows_in[c]: bit mask of the rows with a nonzero in column c; the root's
    # "last placed" is the sentinel n, whose column is empty
    bits = 1 << np.arange(n)
    rows_in = (bits @ nonzero).tolist() + [0]
    # indices with an empty row and column, interchangeable in any order
    isolated = int(bits @ ~(nonzero.any(axis=0) | nonzero.any(axis=1)))
    full, order = (1 << n) - 1, []
    dead = bytearray((n + 1) << n)  # indexed by last << n | placed

    def complete(placed: int, last: int) -> bool:
        if placed == full:
            return True
        pending = rows_in[last] & ~placed
        if pending & (pending - 1) or dead[last << n | placed]:
            return False
        spare = isolated & ~placed
        spare &= spare - 1  # every unplaced isolated index but the least
        for x in [pending.bit_length() - 1] if pending else range(n):
            if not (placed | spare) >> x & 1:
                order.append(x)
                if complete(placed | 1 << x, x):
                    return True
                order.pop()
        dead[last << n | placed] = 1
        return False

    if not complete(0, n):
        return None
    P = np.zeros((n, n))
    P[order, np.arange(n)] = 1.0
    return P


# ---------------------------------------------------------------------------
# real Jordan-like form
# ---------------------------------------------------------------------------

def _smallest_right_singvecs(M: np.ndarray, k: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(M)
    return vt[len(vt) - k:].T.conj()


def _real_cluster_chains(A: np.ndarray, lam: float, m: int) -> list[np.ndarray] | None:
    """Jordan chains for a real eigenvalue cluster of algebraic multiplicity m.

    Returns a list of chains, each an (n, length) array whose first column is
    the eigenvector, or None when the nilpotent structure cannot be extracted
    (caller falls back to one-by-one eigenvectors).
    """
    n = A.shape[0]
    N = A - lam * np.eye(n)
    W = np.real(_smallest_right_singvecs(np.linalg.matrix_power(N, m), m))
    # re-orthonormalise after taking real parts
    W, _ = np.linalg.qr(W)
    B = W.T @ N @ W
    bnorm = float(np.linalg.norm(B, 2))
    cutoff = 1e-8 * inf_norm(A)

    dims = [0]
    Bp = np.eye(m)
    for j in range(1, m + 1):
        Bp = Bp @ B
        s = np.linalg.svd(Bp, compute_uv=False)
        level_cut = cutoff * bnorm ** (j - 1)
        dims.append(int(np.count_nonzero(s <= level_cut)))
    if dims[1] < 1:
        return None
    for j in range(1, m + 1):
        dims[j] = max(dims[j], dims[j - 1])
    if dims[m] != m:
        return None
    p = next(j for j in range(1, m + 1) if dims[j] == m)

    ext = dims + [dims[-1]]
    counts = [0] * (p + 1)
    for j in range(1, p + 1):
        counts[j] = 2 * ext[j] - ext[j + 1] - ext[j - 1]
        if counts[j] < 0:
            return None

    kernels = {0: np.zeros((m, 0))}
    Bp = np.eye(m)
    for j in range(1, p + 1):
        Bp = Bp @ B
        kernels[j] = _smallest_right_singvecs(Bp, dims[j]).real

    chains_small: list[list[np.ndarray]] = []
    for j in range(p, 0, -1):
        if counts[j] == 0:
            continue
        avoid = [kernels[j - 1]]
        for chain in chains_small:
            if len(chain) > j:
                # existing chain member at height j (eigenvector is index 0)
                avoid.append(chain[j - 1].reshape(m, 1))
        U = np.hstack(avoid) if avoid else np.zeros((m, 0))
        K = kernels[j]
        if U.shape[1] > 0:
            Q, _ = np.linalg.qr(U)
            K = K - Q @ (Q.T @ K)
        u, s, _ = np.linalg.svd(K, full_matrices=False)
        if np.count_nonzero(s > 1e-10) < counts[j]:
            return None
        for idx in range(counts[j]):
            g = u[:, idx]
            members = [g]
            for _ in range(j - 1):
                members.append(B @ members[-1])
            members.reverse()  # eigenvector first
            chains_small.append(members)

    if sum(len(c) for c in chains_small) != m:
        return None

    chains: list[np.ndarray] = []
    for members in chains_small:
        cols = np.column_stack([W @ v for v in members])
        lead = cols[:, 0]
        norm = float(np.linalg.norm(lead))
        if norm <= 1e-14:
            return None
        cols = cols / norm
        idx = int(np.argmax(np.abs(cols[:, 0])))
        if cols[idx, 0] < 0:
            cols = -cols
        chains.append(cols)
    chains.sort(key=lambda c: -c.shape[1])
    return chains


def _jordan_blocks_for_real_cluster(A, values, threshold):
    """(representative, columns, J-block) triples for one real cluster."""
    out = []
    vals = sorted(values, reverse=True)
    if len(vals) == 1:
        lam = vals[0]
        v = _sign_fix(np.real(_null_vector(A - lam * np.eye(A.shape[0]))))
        out.append((lam, v.reshape(-1, 1), np.array([[lam]])))
        return out
    lam_bar = float(np.mean(vals))
    chains = _real_cluster_chains(A, lam_bar, len(vals))
    if chains is not None and any(c.shape[1] > 1 for c in chains):
        for cols in chains:
            k = cols.shape[1]
            J = lam_bar * np.eye(k) + np.diag(np.ones(k - 1), k=1)
            out.append((lam_bar, cols, J))
        return out
    # semisimple (or undecidable) cluster: one-by-one eigenvectors with their
    # individual eigenvalues keeps residuals at solver accuracy
    basis: list[np.ndarray] = []
    for lam in vals:
        M = A - lam * np.eye(A.shape[0])
        _, _, vt = np.linalg.svd(M)
        cand = None
        for row in vt[::-1]:
            v = _sign_fix(np.real(row))
            nv = float(np.linalg.norm(v))
            if nv <= 1e-14:
                continue
            v = v / nv
            if basis:
                Q = np.column_stack(basis)
                resid = v - Q @ np.linalg.lstsq(Q, v, rcond=None)[0]
                if np.linalg.norm(resid) < 1e-8:
                    continue
            cand = v
            break
        if cand is None:
            cand = _sign_fix(np.real(vt[-1]))
        basis.append(cand)
        out.append((lam, cand.reshape(-1, 1), np.array([[lam]])))
    return out


def jordan_like_form(A, cluster_tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Real Jordan-like decomposition ``A @ V = V @ J`` for n <= 4 (no
    construction calls it).

    ``J`` is block diagonal with real Jordan blocks (ones on the
    superdiagonal) for clustered real eigenvalues and 2x2 rotation-scaling
    blocks ``[[a, -b], [b, a]]`` for complex pairs.  Blocks are ordered by
    decreasing real part of their eigenvalue, real blocks before complex ones
    on ties, so real spectra produce decreasing diagonal entries.

    Eigenvalues within ``cluster_tol * ||A||_inf`` of each other form one
    cluster; the threshold is relative, so ``A -> cA`` clusters alike.

    Raises
    ------
    ClusterAmbiguityError
        When two eigenvalues straddle the clustering tolerance.
    NumericalError
        When the residual exceeds ``1e-8 * ||A||_inf * cond(V)``.

    Warns with :class:`IllConditionedWarning` when ``cond(V)`` is above 1e8.
    """
    A = as_square(A)
    n = A.shape[0]
    if n > JORDAN_DIM_LIMIT:
        raise InputError(f"jordan_like_form supports n <= {JORDAN_DIM_LIMIT}")
    if cluster_tol < 0:
        raise InputError("cluster_tol must be nonnegative")

    vals = _eigenvalues(A)
    threshold = max(cluster_tol, 10 * _EPS) * inf_norm(A)

    real_vals = [v.real for v in vals if abs(v.imag) <= threshold]
    complex_vals = [v for v in vals if abs(v.imag) > threshold and v.imag > 0]

    real_clusters = [[real_vals[i] for i in idx]
                     for idx in _cluster_indices(np.array(real_vals), threshold)]
    cplx_clusters = [[complex_vals[i] for i in idx]
                     for idx in _cluster_indices(np.array(complex_vals), threshold)]

    # ambiguity: distinct clusters separated by less than 1.5x the threshold
    reps_all = [complex(np.mean(c)) for c in real_clusters]
    reps_all += [complex(np.mean(np.asarray(c))) for c in cplx_clusters]
    for i in range(len(reps_all)):
        for j in range(i + 1, len(reps_all)):
            gap = abs(reps_all[i] - reps_all[j])
            if gap < 1.5 * threshold:
                raise ClusterAmbiguityError(
                    f"eigenvalue gap {gap:.3e} straddles the clustering "
                    f"threshold {threshold:.3e}; increase or decrease cluster_tol")

    blocks: list[tuple[complex, np.ndarray, np.ndarray, int]] = []
    for cluster in real_clusters:
        for lam, cols, J in _jordan_blocks_for_real_cluster(A, cluster, threshold):
            blocks.append((complex(lam), cols, J, 0))
    for cluster in cplx_clusters:
        lam = complex(np.mean(np.asarray(cluster)))
        mult = len(cluster)
        M = A.astype(complex) - lam * np.eye(n)
        _, s, vt = np.linalg.svd(M)
        null_dim = int(np.count_nonzero(s <= max(1e-8 * s[0], threshold)))
        if null_dim < mult:
            raise NumericalError(
                "defective complex eigenvalue pair cannot be represented by "
                "2x2 rotation-scaling blocks")
        for k in range(mult):
            z = vt[len(vt) - 1 - k].conj()
            idx = int(np.argmax(np.abs(z)))
            z = z * (np.abs(z[idx]) / z[idx])  # deterministic phase
            cols = np.column_stack([np.imag(z), np.real(z)])
            a, b = lam.real, lam.imag
            J = np.array([[a, -b], [b, a]])
            blocks.append((lam, cols, J, 1))

    blocks.sort(key=lambda blk: (-blk[0].real, blk[3], -abs(blk[0].imag)))
    V = np.hstack([blk[1] for blk in blocks])
    Jfull = np.zeros((n, n))
    pos = 0
    for _, cols, J, _ in blocks:
        k = J.shape[0]
        Jfull[pos:pos + k, pos:pos + k] = J
        pos += k

    svals = np.linalg.svd(V, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > 1e14:
        raise NumericalError("Jordan basis is numerically singular")
    if cond > 1e8:
        warnings.warn(
            f"Jordan basis is ill conditioned (cond ~ {cond:.2e})",
            IllConditionedWarning, stacklevel=2)
    residual = inf_norm(A @ V - V @ Jfull)
    bound = 1e-8 * inf_norm(A) * min(cond, 1e30)
    if residual > bound:
        raise NumericalError(
            f"Jordan-like residual {residual:.3e} exceeds bound {bound:.3e}")
    return V, Jfull
