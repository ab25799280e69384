"""Constructive similarity transforms to nonnegative/Metzler Hessenberg form.

Every constructor either returns a :class:`SimilarityCertificate` whose
residuals were verified before returning, or a structured
:class:`Obstruction` explaining why no transformation exists.  Contracts are
postcondition-based: the particular ``T`` returned is one valid choice, never
a canonical one.

No randomness is used anywhere in this module.  One search remains, over a
fixed list: ``metzler_hess_4`` sweeps its lead indices.

The problem is invariant under ``A -> cA``, and one scale policy follows it.
The five constructors (``nonneg_hess_3``, ``metzler_hess_3``,
``metzler_hess_4``, ``ct_hess_3``, ``dt_hess_2``) divide ``A`` by
``||A||_inf`` (and ``b`` by ``||b||_inf``) on entry, build at unit scale and
multiply what they return back; a constant threshold inside them is relative
to ``||A|| = 1``.  Every other threshold is relative to the norm of what it
tests, and a certificate is accepted by the one predicate of
:func:`verify_certificate`.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstructionDefect, InputError, PerronVectorError
from .linalg import (
    _eigenvalues,
    as_square,
    as_vector,
    classify,
    geometric_multiplicity,
    inf_norm,
    permutation_to_hessenberg,
    zero_tolerance,
)

__all__ = [
    "Mode",
    "Obstruction",
    "ObstructionKind",
    "RankOneShiftForm",
    "SimilarityCertificate",
    "ct_hess_3",
    "diag_commuting_transform",
    "dt_hess_2",
    "eigvec_b_transform",
    "fix_b_boundary",
    "identity_certificate",
    "make_certificate",
    "metzler_hess_3",
    "metzler_hess_4",
    "nonneg_hess_3",
    "rank_one_shift_detect",
    "verify_certificate",
]

#: Residual bound every returned certificate satisfies.
RESIDUAL_BOUND = 1e-8


class Mode(str, enum.Enum):
    """Sign discipline of the target Hessenberg form."""

    NONNEG = "nonneg"
    METZLER = "metzler"


class ObstructionKind(str, enum.Enum):
    NEG_EIG_GEOM_MULT = "negative_eigenvalue_geometric_multiplicity"
    PERRON_EIGVEC_COINCIDENCE = "perron_eigenvector_coincidence"


@dataclass(frozen=True, eq=False)
class Obstruction:
    """Structured reason why no transformation exists, with re-checkable data."""

    kind: ObstructionKind
    data: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class RankOneShiftForm:
    """Decomposition ``A = c * (u v^T - s I)`` with positive u, v and c."""

    u: np.ndarray
    v: np.ndarray
    s: float
    c: float

    def reconstruct(self) -> np.ndarray:
        return self.c * (np.outer(self.u, self.v) - self.s * np.eye(self.u.size))


@dataclass(frozen=True, eq=False)
class SimilarityCertificate:
    """Checkable record of a similarity ``H = T^{-1} A T``.

    ``T``, ``T_inv`` and ``H`` are as built; the metrics are taken at unit
    column sums, on ``(T D^{-1}, D H D^{-1})`` with ``D`` the column sums of
    ``|T|``, so no positive column scaling of ``T`` changes them.
    ``residual_similarity`` is ``||A T - T H||_inf / ||A||_inf`` (relative, so
    it does not change under ``A -> cA``; exactly zero for a zero matrix);
    ``hessenberg_violation`` the largest magnitude below the first
    subdiagonal of ``H``; ``sign_violation`` the smallest entry of ``H``
    (off-diagonal only in Metzler mode), both in the units of ``A``.
    """

    T: np.ndarray
    T_inv: np.ndarray
    H: np.ndarray
    residual_similarity: float
    min_entry_T: float
    hessenberg_violation: float
    sign_violation: float
    mode: Mode
    cond_T: float


# ---------------------------------------------------------------------------
# certificate plumbing
# ---------------------------------------------------------------------------

def _hessenberg_violation(H: np.ndarray) -> float:
    n = H.shape[0]
    if n <= 2:
        return 0.0
    below = np.tril(np.ones((n, n), dtype=bool), k=-2)
    return float(np.max(np.abs(H[below])))


def _sign_violation(H: np.ndarray, mode: Mode) -> float:
    if mode is Mode.NONNEG:
        return float(np.min(H))
    n = H.shape[0]
    if n == 1:
        return 0.0
    off = ~np.eye(n, dtype=bool)
    return float(np.min(H[off]))


def _unit_columns(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``T D^{-1}``, ``D`` (the column sums of ``|T|``) and ``cond(T D^{-1}) <= 1e14``."""
    d = np.sum(np.abs(T), axis=0)
    if np.any(d <= 0):
        raise InputError("T has a zero column")
    svals = np.linalg.svd(T / d, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e14:
        raise InputError("T is singular beyond the conditioning bound")
    return T / d, d, float(svals[0] / svals[-1])


def make_certificate(A, T, mode: Mode) -> SimilarityCertificate:
    """Certificate for ``H = T^{-1} A T`` that keeps the caller's ``T``, with
    every metric recomputed at unit column sums."""
    A = as_square(A)
    T = as_square(np.array(T, dtype=float, copy=True), "T")
    if T.shape != A.shape:
        raise InputError("T must match the shape of A")
    Tn, d, cond = _unit_columns(T)
    Tn_inv = np.linalg.solve(Tn, np.eye(T.shape[0]))
    Hn = Tn_inv @ A @ Tn
    residual = inf_norm(A @ Tn - Tn @ Hn) / (inf_norm(A) or 1.0)
    return SimilarityCertificate(
        T=T,
        T_inv=Tn_inv / d[:, None],
        H=Hn / d[:, None] * d,
        residual_similarity=float(residual),
        min_entry_T=float(np.min(Tn)),
        hessenberg_violation=_hessenberg_violation(Hn),
        sign_violation=_sign_violation(Hn, mode),
        mode=mode,
        cond_T=cond,
    )


def identity_certificate(A, mode: Mode) -> SimilarityCertificate:
    """Certificate with T = I for a matrix already in the target form."""
    return make_certificate(A, np.eye(as_square(A).shape[0]), mode)


def _holds(norm_A: float, residual: float, hessenberg_violation: float,
           sign_violation: float, min_entry_T: float, tol: float) -> bool:
    """The acceptance predicate of every certificate, at unit column sums of
    ``T``: ``T >= -tol``, and the residual ``||A T - T H||_inf`` and both entry
    violations of ``H`` within ``tol * ||A||_inf``.  Relative throughout, so the
    verdict for ``(cA, cH)`` is that for ``(A, H)``; a zero matrix needs zeros."""
    bound = tol * norm_A
    return (min_entry_T >= -tol and residual <= bound
            and hessenberg_violation <= bound and sign_violation >= -bound)


def _unit_scale(A: np.ndarray, tol: float | None) -> tuple[np.ndarray, float, float]:
    """A constructor's input at unit scale: ``A / s`` with ``s = ||A||_inf``,
    ``s`` itself, and the zero threshold there, ``tol / s`` for a caller's
    ``tol`` (absolute, in the units of ``A``) or the relative default.  A zero
    matrix passes through unscaled (``s = 1``)."""
    s = inf_norm(A) or 1.0
    A = A / s
    return A, s, zero_tolerance(A, None if tol is None else tol / s)


def _checked(cert: SimilarityCertificate, A, context: str,
             s: float) -> SimilarityCertificate:
    """The certificate for ``s * A`` from one built for unit-scale ``A``: ``H``
    and its entry violations multiplied by ``s``, once the predicate of
    :func:`verify_certificate` holds.  Failing it is a bug, not an obstruction."""
    norm_A = inf_norm(A)
    if not _holds(norm_A, cert.residual_similarity * norm_A,
                  cert.hessenberg_violation, cert.sign_violation,
                  cert.min_entry_T, RESIDUAL_BOUND):
        raise ConstructionDefect(
            f"{context}: min(T) {cert.min_entry_T:.3e}, similarity residual "
            f"{cert.residual_similarity:.3e}, Hessenberg violation "
            f"{cert.hessenberg_violation:.3e}, sign violation {cert.sign_violation:.3e}")
    return replace(cert, H=s * cert.H,
                   hessenberg_violation=s * cert.hessenberg_violation,
                   sign_violation=s * cert.sign_violation)


def verify_certificate(A, cert: SimilarityCertificate, tol: float = 1e-8) -> bool:
    """Re-derive every certificate metric from scratch and test it against ``tol``.

    An independent linear solve recomputes ``T^{-1}``; nothing stored in the
    certificate is trusted except ``T``, ``H`` and the mode.  It runs at unit
    column sums, and every bound but ``min(T) >= -tol`` is ``tol ||A||_inf``
    (times ``cond(T)`` for the recomputed ``H``), so neither ``A -> cA`` with
    ``H -> cH`` nor a positive column scaling of ``T`` changes the verdict.
    """
    A = as_square(A)
    T = as_square(cert.T, "certificate T")
    H = as_square(cert.H, "certificate H")
    if T.shape != A.shape or H.shape != A.shape:
        raise InputError("certificate dimensions do not match the matrix")
    T, d, _ = _unit_columns(T)
    H = H * d[:, None] / d
    norm_A = inf_norm(A)
    if not _holds(norm_A, inf_norm(A @ T - T @ H), _hessenberg_violation(H),
                  _sign_violation(H, cert.mode), float(np.min(T)), tol):
        return False
    T_inv = np.linalg.solve(T, np.eye(T.shape[0]))
    return inf_norm(T_inv @ A @ T - H) <= tol * norm_A * inf_norm(T_inv) * inf_norm(T)


# ---------------------------------------------------------------------------
# rank-one-minus-shift family
# ---------------------------------------------------------------------------

def rank_one_shift_detect(A, tol: float | None = None) -> RankOneShiftForm | None:
    """Detect membership in the family ``A = c (u v^T - s I)`` with u, v > 0.

    Equivalent characterisation: the second eigenvalue is real negative with
    geometric multiplicity n - 1.  Both characterisations are cross-checked;
    anything short of full agreement returns ``None``.
    """
    A = as_square(A)
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("rank_one_shift_detect requires a nonnegative matrix")
    n = A.shape[0]
    if n < 2 or inf_norm(A) <= t:
        return None
    vals = _eigenvalues(A)
    # membership forces the trailing n-1 eigenvalues to coincide; a multiple
    # root computed numerically splits by up to ~eps^(1/multiplicity), so the
    # grouping screen is loose and the rank-one and reconstruction tests below
    # are the precise arbiters
    trailing = vals[1:]
    lam2c = complex(np.mean(trailing))
    screen = 1e-4 * inf_norm(A)
    if np.max(np.abs(trailing - lam2c)) > screen:
        return None
    if abs(lam2c.imag) > screen or lam2c.real >= -t:
        return None
    lam2 = float(lam2c.real)
    if geometric_multiplicity(A, lam2) != n - 1:
        return None
    M = A - lam2 * np.eye(n)
    U, s, Vt = np.linalg.svd(M)
    if s[0] <= 0 or (len(s) > 1 and s[1] > 1e-7 * s[0]):
        return None
    u = U[:, 0]
    v = Vt[0]
    if u[np.argmax(np.abs(u))] < 0:
        u, v = -u, -v
    v = v * s[0]
    if np.min(u) < -t or np.min(v) < -t:
        return None
    u = np.maximum(u, 0.0)
    v = np.maximum(v, 0.0)
    form = RankOneShiftForm(u=u, v=v, s=-lam2, c=1.0)
    if inf_norm(form.reconstruct() - A) > 1e-8 * inf_norm(A):
        return None
    return form


# ---------------------------------------------------------------------------
# commuting boundary placement
# ---------------------------------------------------------------------------

def _perron_coincident(A: np.ndarray, b: np.ndarray, lam1: float) -> tuple[bool, float]:
    resid = inf_norm(A @ b - lam1 * b)
    threshold = 1e-8 * inf_norm(A) * inf_norm(b)
    if threshold < resid <= 10 * threshold:
        warnings.warn("input vector is within 10x of the Perron-coincidence "
                      "threshold; the verdict may be sensitive to noise",
                      stacklevel=3)
    return resid <= threshold, resid


def fix_b_boundary(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` commuting with ``A`` that moves ``b`` onto the
    boundary of the nonnegative orthant.

    For ``b > 0``, ``T = (sigma I - A)^{-1}`` with ``sigma = max_i (A b)_i / b_i``.
    By Collatz-Wielandt, ``sigma > rho(A)`` for an irreducible nonnegative
    ``A`` and a positive ``b`` that is not the Perron eigenvector, so
    ``T = sum_k A^k / sigma^{k+1}`` is a positive polynomial in ``A`` and
    ``T^{-1} A T = A``.  ``T^{-1} b = sigma b - A b >= 0`` vanishes where the
    ratio is largest.  A ``b`` with a zero entry is already on the boundary
    and gets ``T = I``.

    Raises
    ------
    PerronVectorError
        When ``A b = lam_1 b`` within tolerance (no such T exists).
    """
    A = as_square(A)
    b = as_vector(b)
    n = A.shape[0]
    if b.size != n:
        raise InputError("dimension mismatch between matrix and vector")
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("fix_b_boundary requires a nonnegative matrix")
    if np.min(b) < -zero_tolerance(b):
        raise InputError("fix_b_boundary requires a nonnegative vector")
    if not b.any():
        raise InputError("vector must be nonzero")
    report = classify(A, t)
    if not report.is_irreducible:
        raise InputError("fix_b_boundary requires an irreducible matrix")

    # eigenvalues in canonical order: the Perron root of a nonnegative matrix
    # comes first
    vals = _eigenvalues(A)
    coincident, _ = _perron_coincident(A, b, float(vals[0].real))
    if coincident:
        raise PerronVectorError(
            "b is the Perron eigenvector; no commuting transform can move it "
            "to the orthant boundary")

    if np.min(b) <= zero_tolerance(b):
        return np.eye(n)

    sigma = float(np.max(A @ b / b))
    T = np.linalg.inv(sigma * np.eye(n) - A)
    return np.maximum(T, 0.0)  # a positive series; clears round-off below zero


# ---------------------------------------------------------------------------
# 2x2 controller-Hessenberg form (discrete time)
# ---------------------------------------------------------------------------

def dt_hess_2(A, b, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Nonnegative frame ``T = (b | p)`` with ``T^{-1} A T >= 0`` and
    ``T^{-1} b ~ e_1`` for a 2x2 nonnegative pair, or the obstruction, which
    occurs exactly when ``lam_2 < 0`` and ``b`` is the Perron eigenvector.

    ``p = A b - m b``, with ``m`` the least of ``tr A`` and the ratios
    ``(A b)_i / b_i`` on the support of ``b``, gives by Cayley-Hamilton
    ``H = [[m, (tr A - m) m - det A], [1, tr A - m]] >= 0``: ``m <= lam_1``
    (Collatz-Wielandt), the least ratio is at least its ``a_kk >= lam_2``,
    and ``0 <= m <= tr A``.  At the ratio ``p`` is on the axis ``e_{1-k}``,
    which the frame takes, also for a ratio within the zero threshold of
    ``tr A`` (so ``p`` stays off ``b`` at ``lam_2 ~ 0``); at ``tr A``,
    ``p = -det(A) A^{-1} b``.  ``T[:, 0]`` is ``b / ||b||_inf``.
    """
    A = as_square(A)
    b_in = as_vector(b)
    if A.shape[0] != 2 or b_in.size != 2:
        raise InputError("dt_hess_2 expects a 2x2 matrix and a 2-vector")
    A, s, t = _unit_scale(A, tol)
    if np.min(A) < -t:
        raise InputError("dt_hess_2 requires a nonnegative matrix")
    if np.min(b_in) < -zero_tolerance(b_in):
        raise InputError("dt_hess_2 requires a nonnegative vector")
    sb = inf_norm(b_in)
    if sb == 0:
        raise InputError("b must be nonzero")
    b = np.maximum(b_in, 0.0) / sb

    R, lam2 = _shift_to_rank_one(A)
    if lam2 < -t:
        lam1 = lam2 + R[0, 0] + R[1, 1]
        coincident, resid = _perron_coincident(A, b, lam1)
        if coincident:
            return Obstruction(ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
                               data={"lambda1": s * lam1, "lambda2": s * lam2,
                                     "residual": s * sb * resid, "b": b_in.copy()})

    Ab, trace = A @ b, np.trace(A)
    ratios = np.where(b > zero_tolerance(b), Ab / np.maximum(b, 1e-300), np.inf)
    k = int(np.argmin(ratios))
    p = np.eye(2)[:, 1 - k] if ratios[k] <= trace + t else np.maximum(Ab - trace * b, 0.0)
    cert = make_certificate(A, np.column_stack([b, p]), Mode.NONNEG)
    return _checked(cert, A, "dt_hess_2", s)


# ---------------------------------------------------------------------------
# Perron-input frame by deflation
# ---------------------------------------------------------------------------

def eigvec_b_transform(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` with ``T^{-1} b = e_1`` and ``T^{-1} A T >= 0`` upper
    triangular when ``b`` is the positive Perron eigenvector of an irreducible
    nonnegative matrix with real nonnegative spectrum (n <= 4).

    Deflation: an orthonormal basis ``V`` of the complement of ``b`` turns one
    real eigenvector at a time (an SVD null vector of the trailing block less
    an eigenvalue, completed by QR) until ``(b | V)^{-1} A (b | V)`` is
    ``[[lam_1, g^T], [0, R]]`` with ``R`` upper triangular.  Column signs make
    R's superdiagonal nonnegative, a free sign taking the side that needs the
    smaller multiple of ``b``.  At n = 4 a negative ``R[0, 2]`` is cleared by a
    sign flip where ``R[0, 1]`` or ``R[1, 2]`` is noise, else by the smaller
    shear: ``V[:, 2] += x V[:, 0]`` moves it alone, by ``x (R[0, 0] - R[2, 2])``,
    and ``V[:, 1] += y V[:, 0]`` by ``-y R[1, 2]`` (``R[0, 1]`` by
    ``y (R[0, 0] - R[1, 1])``).  ``T = (b | V + b alpha^T)`` gives
    ``[[lam_1, lam_1 alpha^T + g^T - alpha^T R], [0, R]]``, with each ``alpha_j``
    the least value such that ``alpha_j >= max_i(-V_ij / b_i)`` (``T >= 0``) and
    ``alpha_j (lam_1 - R_jj) >= sum_{i<j} alpha_i R_ij - g_j``.
    """
    A = as_square(A)
    b = as_vector(b)
    n = A.shape[0]
    if b.size != n:
        raise InputError("dimension mismatch between matrix and vector")
    if n > 4:
        raise InputError("eigvec_b_transform supports n <= 4")
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("eigvec_b_transform requires a nonnegative matrix")
    if np.min(b) <= zero_tolerance(b):
        raise InputError("eigvec_b_transform requires a strictly positive vector")
    if not classify(A, t).is_irreducible:
        raise InputError("eigvec_b_transform requires an irreducible matrix")
    vals = _eigenvalues(A)
    if np.max(np.abs(vals.imag)) > t or np.min(vals.real) < -t:
        raise InputError("spectrum must be real and nonnegative")
    coincident, resid = _perron_coincident(A, b, float(vals[0].real))
    if not coincident:
        raise InputError(f"b is not the Perron eigenvector (residual {resid:.3e})")

    V = np.linalg.qr(np.column_stack([b, np.eye(n)]))[0][:, 1:]
    for j, mu in enumerate(vals.real[1:n - 1]):
        w = np.linalg.svd(V[:, j:].T @ A @ V[:, j:] - mu * np.eye(n - 1 - j))[2][-1]
        V[:, j:] = V[:, j:] @ np.linalg.qr(np.column_stack([w, np.eye(n - 1 - j)]))[0]
    for j in range(n - 1):
        R = V.T @ A @ V
        free = j == 0 or abs(R[j - 1, j]) <= t
        if (np.max(V[:, j] / b) < np.max(-V[:, j] / b)) if free else R[j - 1, j] < 0:
            V[:, j] *= -1.0
    R = V.T @ A @ V
    if n == 4 and R[0, 2] < -t:
        k = int(np.argmin(np.diag(R, 1)))
        x = -R[0, 2] / max(R[0, 0] - R[2, 2], t)
        y = R[0, 2] / max(R[1, 2], t)
        if R[k, k + 1] <= 1e-7 * inf_norm(A):
            V[:, 1 + k:] *= -1.0
        elif abs(y) < x and R[0, 1] + y * (R[0, 0] - R[1, 1]) >= 0:
            V[:, 1] += y * V[:, 0]
        else:
            V[:, 2] += x * V[:, 0]

    F = np.column_stack([b, V])
    K = np.linalg.solve(F, A @ F)
    g, R, gaps = K[0, 1:], K[1:, 1:], K[0, 0] - np.diag(K)[1:]
    if np.any(gaps <= t):
        raise ConstructionDefect("dominant eigenvalue is not simple")
    alpha = np.zeros(n - 1)
    for j in range(n - 1):
        alpha[j] = max(np.max(-V[:, j] / b), (alpha[:j] @ R[:j, j] - g[j]) / gaps[j])

    T = np.maximum(np.column_stack([b, V + np.outer(b, alpha)]), 0.0)
    H = np.linalg.solve(T, A @ T)
    if np.min(H) < -1e-7 * inf_norm(A):
        raise ConstructionDefect("conjugated matrix failed to stay nonnegative")
    return T


# ---------------------------------------------------------------------------
# diagonalisable commuting transform
# ---------------------------------------------------------------------------

def diag_commuting_transform(A, b, tol: float | None = None) -> np.ndarray:
    """``T`` with ``T^{-1} A T = A`` and ``T^{-1} b = e_1`` for diagonalisable
    ``A`` whose eigenbasis sees both ``e_1`` and ``b`` with full support.

    ``T = V E V^{-1}`` where ``E`` rescales each eigencomponent by the ratio
    of the ``b`` and ``e_1`` coordinates.  Complex pairs produce conjugate
    ratios, so ``T`` is real.
    """
    A = as_square(A)
    b = as_vector(b)
    n = A.shape[0]
    if b.size != n:
        raise InputError("dimension mismatch between matrix and vector")
    t = zero_tolerance(A, tol)
    vals, V = np.linalg.eig(A)
    svals = np.linalg.svd(V, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise InputError("matrix is defective (eigenvector basis is singular)")
    resid = inf_norm(np.abs(A @ V - V @ np.diag(vals)))
    if resid > 1e-7 * inf_norm(A) * (svals[0] / svals[-1]):
        raise InputError("matrix is not reliably diagonalisable")
    alpha = np.linalg.solve(V, np.eye(n)[:, 0].astype(complex))
    beta = np.linalg.solve(V, b.astype(complex))
    if np.min(np.abs(alpha)) <= t * float(np.max(np.abs(alpha))):
        raise InputError("e_1 has a zero component in the eigenbasis")
    if np.min(np.abs(beta)) <= t * float(np.max(np.abs(beta))):
        raise InputError("b has a zero component in the eigenbasis")
    E = np.diag(beta / alpha)
    Tc = V @ E @ np.linalg.solve(V, np.eye(n, dtype=complex))
    if np.max(np.abs(Tc.imag)) > 1e-8 * float(np.max(np.abs(Tc.real))):
        raise InputError("transform is not real; complex eigencomponents of b "
                         "and e_1 are inconsistently paired")
    T = Tc.real
    if inf_norm(T @ A - A @ T) > 1e-8 * inf_norm(A) * inf_norm(T):
        raise ConstructionDefect("commutation residual too large")
    if inf_norm(np.linalg.solve(T, b) - np.eye(n)[:, 0]) > 1e-8:
        raise ConstructionDefect("T^{-1} b failed to reach e_1")
    return T


# ---------------------------------------------------------------------------
# 3x3 nonnegative Hessenberg decision
# ---------------------------------------------------------------------------

def _embed_trailing(T2: np.ndarray) -> np.ndarray:
    n = T2.shape[0] + 1
    out = np.eye(n)
    out[1:, 1:] = T2
    return out


def _leading_partition(A: np.ndarray, k: int, t: float) -> np.ndarray | None:
    """``T >= 0`` with ``T^{-1} A T`` nonnegative upper Hessenberg from the 2x2
    block ``B`` that leaves out the scalar index ``k``, or None when that
    block's controller step obstructs.

    :func:`dt_hess_2` on ``(A[B, B], v = A[B, k])`` gives its shifted Krylov
    frame ``T2 = (v / ||v||_inf | p) >= 0`` with ``T2^{-1} A[B, B] T2 >= 0``.  In the
    order ``(B, k)``, the conjugate by ``diag(T2, 1)`` is nonnegative with a
    zero at (1, 2); ``T = (e_k | T2 on the rows B)`` takes its columns in the
    order ``[2, 0, 1]``, which moves that zero to (2, 0)."""
    B = [i for i in range(3) if i != k]
    sub = dt_hess_2(A[np.ix_(B, B)], A[B, k], t)
    if isinstance(sub, Obstruction):
        return None
    T = np.zeros((3, 3))
    T[k, 0] = 1.0
    T[np.ix_(B, [1, 2])] = sub.T
    return T


def nonneg_hess_3(A, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Decide 3x3 nonnegative Hessenberg similarity: a verified certificate or
    the rank-one-minus-shift obstruction.

    A 3x3 nonnegative matrix has a nonnegative Hessenberg form unless it is
    ``c (u v^T - s I)``.  Off that family, a permutation serves when one moves
    an off-diagonal zero to (2, 0); otherwise every off-diagonal entry is
    positive and a leading partition (:func:`_leading_partition`) serves for
    some scalar index, tried in the order (2, 0, 1); one whose certificate
    fails in floating point passes to the next.  All three failing off the
    family contradicts the characterisation and raises.
    """
    A = as_square(A)
    if A.shape[0] != 3:
        raise InputError("nonneg_hess_3 expects a 3x3 matrix")
    A, s, t = _unit_scale(A, tol)
    if np.min(A) < -t:
        raise InputError("nonneg_hess_3 requires a nonnegative matrix")

    form = rank_one_shift_detect(A, t)
    if form is not None:
        lam2 = -form.c * form.s
        return Obstruction(
            ObstructionKind.NEG_EIG_GEOM_MULT,
            data={
                "lambda2": s * lam2,
                # rank_one_shift_detect has checked it is n - 1 at this lam2
                "geometric_multiplicity": A.shape[0] - 1,
                "u": form.u, "v": form.v, "s": form.s, "c": s * form.c,
                "reconstruction_residual": inf_norm(form.reconstruct() - A),
            },
        )

    P = permutation_to_hessenberg(A, t)
    if P is not None:
        cert = make_certificate(A, P, Mode.NONNEG)
        return _checked(cert, A, "nonneg_hess_3 (permutation)", s)

    failures = []
    for k in (2, 0, 1):
        try:
            T = _leading_partition(A, k, t)
            if T is not None:
                cert = make_certificate(A, T, Mode.NONNEG)
                return _checked(cert, A, "nonneg_hess_3 (leading partition)", s)
            failures.append((k, "obstruction"))
        except (InputError, ConstructionDefect) as exc:
            failures.append((k, str(exc)))

    raise ConstructionDefect(
        "no leading partition certified although the rank-one-minus-shift "
        "test is negative; this contradicts the 3x3 characterisation. "
        f"A = {(s * A).tolist()}; per scalar index: {failures}")


def _shift_to_rank_one(A2: np.ndarray) -> tuple[np.ndarray, float]:
    """``(A2 - lam I, lam)`` for a 2x2 Metzler ``A2`` and ``lam`` its smaller
    (real) eigenvalue; ``A2 - lam I`` is nonnegative, of rank at most one.
    With ``h = (a - d) / 2`` its diagonal is ``|h| + r`` and ``bc / (|h| + r)``,
    ``r = sqrt(h^2 + bc)``, and ``lam = min(a, d) - bc / (|h| + r)``, each
    free of cancellation, so the rank holds to rounding even near scalar."""
    (a, b), (c, d) = A2
    b, c = max(b, 0.0), max(c, 0.0)
    h = 0.5 * (a - d)
    big = abs(h) + float(np.hypot(h, np.sqrt(b * c)))
    small = b * c / big if big > 0 else 0.0
    shifted = np.array([[big, b], [c, small]] if h >= 0 else [[small, b], [c, big]])
    return shifted, min(a, d) - small


def metzler_hess_3(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 3x3 Metzler matrix (always succeeds),
    with ``T >= 0``.

    Off upper Hessenberg input, ``A[2, 0] > 0``, so ``b = A[1:, 0]`` is
    nonzero.  The 2x2 Metzler block ``A2 = A[1:, 1:]`` has a real spectrum;
    with ``lam`` its smaller eigenvalue, ``A2 - lam I >= 0`` has rank at most
    one and no negative eigenvalue, so :func:`dt_hess_2` cannot obstruct and
    returns ``T2 = (b | p) >= 0``.  Then ``T = diag(1, T2)`` gives
    ``H[2, 0] = 0``, a nonnegative first row ``A[0, 1:] T2`` and the Metzler
    trailing block ``T2^{-1} A2 T2``.
    """
    A_in = as_square(A)
    if A_in.shape[0] != 3:
        raise InputError("metzler_hess_3 expects a 3x3 matrix")
    A, s, t = _unit_scale(A_in, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("metzler_hess_3 requires a Metzler matrix")
    if rep.is_upper_hessenberg:
        return identity_certificate(A_in, Mode.METZLER)

    # exact to the rounding of its own entries, so tested at its own scale
    sub = dt_hess_2(_shift_to_rank_one(A[1:, 1:])[0], np.maximum(A[1:, 0], 0.0))
    cert = make_certificate(A, _embed_trailing(sub.T), Mode.METZLER)
    return _checked(cert, A, "metzler_hess_3", s)


# ---------------------------------------------------------------------------
# 3x3 continuous-time controller-Hessenberg form
# ---------------------------------------------------------------------------

def _plane_orthant_rays(U2: np.ndarray, slack: float = 1e-12
                        ) -> tuple[np.ndarray, np.ndarray] | None:
    """Extreme rays of (2-d subspace spanned by U2's columns) cut with the
    nonnegative orthant, in counter-clockwise order of the U2 coordinates, or
    None when the intersection is not 2-dimensional.

    In U2 coordinates the section is the cone ``{c : U2 c >= 0}``, so each of
    its two extreme rays is orthogonal to some row of U2: they are the two
    feasible row normals that lie farthest apart.  ``slack`` is the noise of
    the basis: a row no longer than it is no constraint, the orthant test runs
    at it, and the rays are clamped after."""
    rows = U2[np.linalg.norm(U2, axis=1) > slack]
    normals = np.vstack([rows[:, ::-1] * [-1.0, 1.0], rows[:, ::-1] * [1.0, -1.0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    feas = normals[np.min(normals @ U2.T, axis=1) >= -slack]
    if len(feas) < 2:
        return None
    i, j = np.unravel_index(np.argmin(feas @ feas.T), (len(feas), len(feas)))
    c1, c2 = feas[i], feas[j]
    if c1[0] * c2[1] - c1[1] * c2[0] < 0:
        c1, c2 = c2, c1
    g1, g2 = np.maximum(U2 @ c1, 0.0), np.maximum(U2 @ c2, 0.0)
    if np.linalg.norm(g1 / np.linalg.norm(g1) - g2 / np.linalg.norm(g2)) < 1e-9:
        return None
    return g1 / np.linalg.norm(g1), g2 / np.linalg.norm(g2)


def _finish_controller(A1: np.ndarray, T1: np.ndarray) -> np.ndarray | None:
    """``T1`` with the trailing 2x2 controller step appended where the first
    column of ``T1^{-1} A1 T1`` leaks below the diagonal; None when that step
    obstructs.  The caller's certificate check decides the result."""
    H1 = np.linalg.solve(T1, A1 @ T1)
    b_sub = H1[1:, 0]
    if inf_norm(b_sub) > 1e-12 * inf_norm(A1):
        # run the trailing reduction even for small subdiagonal leakage; it
        # actively zeroes the corner entry instead of trusting loose bounds
        sub = dt_hess_2(np.maximum(H1[1:, 1:], 0.0), np.maximum(b_sub, 0.0))
        if isinstance(sub, Obstruction):
            return None
        T1 = T1 @ _embed_trailing(sub.T)
    return T1


def _controller_frame_reducible(A1: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Frame ``T = (b | p | q) >= 0``, trailing step included, for a reducible
    nonnegative 3x3 matrix with positive real spectrum, or None where a step
    cannot be formed.  ``T^{-1} A1 T`` is nonnegative upper Hessenberg in exact
    arithmetic; the caller's certificate check decides it in floating point.

    Such a matrix has a real spectrum whose smallest member ``lam3`` is at most
    every diagonal entry, so ``Ahat = A1 - lam3 I >= 0``, and its range ``Pi``
    is A1-invariant.  When ``Ahat`` has rank 2, with ``g1, g2`` the extreme
    rays of ``Pi`` cut with the orthant, one frame serves each case:

    - ``b`` off ``Pi``: ``T1 = (b | g1 | g2)``.  Every column of ``Ahat`` lies
      in ``cone(g1, g2)``, so ``T1^{-1} Ahat >= 0`` and
      ``T1^{-1} A1 T1 = T1^{-1} Ahat T1 + lam3 I >= 0``.  Its trailing 2x2
      block is A1 on ``Pi``, whose spectrum is positive, so the trailing step
      has no negative eigenvalue and cannot obstruct.
    - ``b`` in ``Pi``: :func:`_invariant_plane_frame`, with no trailing step.

    When ``Ahat = r w^T`` has rank at most one (``r, w >= 0``), ``T^{-1} A1 T``
    is ``lam3 I`` plus ``(T^{-1} r)(w^T T)``, and one frame serves each case:
    ``(b | r | e_k)`` for ``b`` off the ray of ``r``, where ``T^{-1} r = e2``
    changes row 2 alone (a Hessenberg matrix), and ``(b | e_i | e_j)`` for
    ``b`` on it or ``Ahat = 0``, where only row 1 changes (a triangular one).
    The axes maximise ``|det T|``; neither frame needs a trailing step."""
    n = 3
    lam3 = float(_eigenvalues(A1)[-1].real)
    Ahat = np.maximum(A1 - lam3 * np.eye(n), 0.0)
    U, s, _ = np.linalg.svd(Ahat)
    rank = int(np.count_nonzero(s > 1e-9 * inf_norm(A1)))
    bnorm = b / max(inf_norm(b), 1e-300)

    if rank == 2:
        # the SVD's plane is accurate to about (eps ||Ahat|| + s3) / s2
        rays = _plane_orthant_rays(U[:, :2], (1e-14 * s[0] + s[2]) / s[1])
        if rays is None:
            return None
        if abs(U[:, 2] @ bnorm) <= 1e-7:
            return _invariant_plane_frame(Ahat, lam3, bnorm, U, rays)
        return _finish_controller(A1, np.column_stack([bnorm, *rays]))

    r = np.abs(U[:, 0]) if rank else np.zeros(n)
    cross = np.cross(bnorm, r)  # det(b | r | e_k) = cross[k]
    if inf_norm(cross) > 1e-9:
        # row 2 of T^{-1} A1 T is (w.b, lam3 + w.r, w_k)
        k = int(np.argmax(np.abs(cross)))
        return np.column_stack([bnorm, r, np.eye(n)[:, k]])
    k = int(np.argmax(bnorm))  # det(b | e_i | e_j) = +-b_k
    i, j = (m for m in range(n) if m != k)
    return np.column_stack([bnorm, np.eye(n)[:, i], np.eye(n)[:, j]])


def _invariant_plane_frame(Ahat: np.ndarray, lam3: float, b: np.ndarray,
                           U: np.ndarray, rays: tuple[np.ndarray, np.ndarray]
                           ) -> np.ndarray | None:
    """Frame ``T = (b | p | q)`` for ``b`` inside the invariant plane ``Pi``
    of ``A1 = Ahat + lam3 I`` (spanned by ``U[:, :2]``, normal ``U[:, 2]``),
    with ``T^{-1} A1 T`` block upper triangular, last row ``(0, 0, lam3)``:
    nonnegative Hessenberg without a trailing step.

    ``b`` lies in the A1-invariant cone spanned by the orthant rays of ``Pi``,
    and one ray ``p`` bounds an A1-invariant ``cone(b, p)``; the ray on the far
    side of the Perron direction always does.  That is the leading 2x2 block:
    the ``(b, p)`` coordinates of ``A1 b`` and ``A1 p``, nonnegative.  With
    ``C`` the ``(b, p)`` coordinates of ``Ahat``, the third column is
    ``(C q, lam3)``, so ``q`` ranges over the cone ``{q >= 0 : C q >= 0}``;
    its extreme ray farthest from ``Pi`` keeps ``T`` best conditioned.  None
    when no ray qualifies or every admissible ``q`` lies in ``Pi``."""
    U2, normal = U[:, :2], U[:, 2]
    for p in rays:
        B = U2.T @ np.column_stack([b, p])
        if abs(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]) <= 1e-9:
            continue
        C = np.linalg.solve(B, U2.T @ Ahat)
        if np.min(C @ np.column_stack([b, p]) + lam3 * np.eye(2)) >= -RESIDUAL_BOUND:
            break
    else:
        return None
    # the cone's extreme rays lie on two of its five faces: all signed cross
    # products of pairs of unit constraint normals, kept where feasible
    N = np.vstack([np.eye(3), C / np.linalg.norm(C, axis=1)[:, None]])
    i, j = np.triu_indices(5, k=1)
    Q = np.cross(N[i], N[j])
    Q = np.vstack([Q, -Q])
    norms = np.linalg.norm(Q, axis=1)
    feasible = (norms > 1e-12) & (np.min(N @ Q.T, axis=0) >= -1e-12 * norms)
    out = np.where(feasible, np.abs(Q @ normal) / np.maximum(norms, 1e-300), -1.0)
    k = int(np.argmax(out))
    if out[k] <= 1e-9:
        return None
    q = np.maximum(Q[k], 0.0)
    return np.column_stack([b, p, q / inf_norm(q)])


def _reducible_after_subtraction(A2: np.ndarray, b2: np.ndarray, t: float) -> np.ndarray:
    """``A2 + sigma I - b2 alpha^T``, nonnegative and reducible with positive
    real spectrum, for ``b2`` with a zero entry: the state feedback ``alpha_j =
    min a_ij / b_i`` over ``i != j`` in the support of ``b2`` (0 on none) clears
    the least such entry of column ``j``, and ``sigma`` lifts the spectrum."""
    on = b2 > 0
    ratios = np.where(on[:, None] & ~np.eye(3, dtype=bool),
                      A2 / np.where(on, b2, 1.0)[:, None], np.inf)
    alpha = np.min(ratios, axis=0)
    alpha[np.isinf(alpha)] = 0.0
    base = A2 - np.outer(b2, alpha)
    # snap the targeted entries to exact zeros
    base[np.abs(base) <= 100 * t * inf_norm(A2)] = 0.0
    vals = np.linalg.eigvals(base)
    sigma = max(0.0, -float(np.min(np.diag(base))),
                -float(np.min(vals.real))) + 0.125 * inf_norm(A2)
    return np.maximum(base + sigma * np.eye(3), 0.0)


def ct_hess_3(A, b, c=None, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Third-order continuous-time positive controller-Hessenberg form.

    Returns a nonnegative ``T`` with first column ``b``, so ``T^{-1} b = e_1``
    (and ``c T >= 0`` for every nonnegative output vector), and ``T^{-1} A T``
    Metzler upper Hessenberg, or the Perron-coincidence obstruction when
    ``A b = lam_1 b`` with a complex pair in the spectrum.  The frame of
    :func:`_ct_frame` for the shifted unit-scale pair is judged by the one
    certificate check alone; a missing or failing frame on admissible input
    is a defect and raises, never silently obstructs.
    """
    A = as_square(A)
    b_in = as_vector(b)
    if A.shape[0] != 3 or b_in.size != 3:
        raise InputError("ct_hess_3 expects a 3x3 matrix and a 3-vector")
    c = np.zeros(3) if c is None else as_vector(c)
    if c.size != 3:
        raise InputError("output vector must have dimension 3")
    A, s, t = _unit_scale(A, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("ct_hess_3 requires a Metzler matrix")
    if np.min(b_in) < -zero_tolerance(b_in) or not b_in.any():
        raise InputError("ct_hess_3 requires a nonnegative nonzero input vector")
    if np.min(c) < -zero_tolerance(c):
        raise InputError("ct_hess_3 requires a nonnegative output vector")
    b_in = np.maximum(b_in, 0.0)
    sb = inf_norm(b_in)
    b = b_in / sb

    vals = _eigenvalues(A)
    has_complex = np.max(np.abs(vals.imag)) > t

    # shift to nonnegative entries and a spectrum in the open right
    # half-plane (the transform is shift-invariant); ||A|| = 1 here
    mu_sign = max(0.0, -float(np.min(np.diag(A))))
    mu_spec = max(0.0, -float(np.min(vals.real)))
    mu = max(mu_sign, mu_spec) + 0.25
    A1 = A + mu * np.eye(3)
    off = ~np.eye(3, dtype=bool)
    A1[off] = np.maximum(A1[off], 0.0)
    # eig(A + mu I) = eig(A) + mu, and a Metzler matrix's dominant eigenvalue
    # is real
    lam1 = float(np.max(vals.real)) + mu
    coincident, resid = _perron_coincident(A1, b, lam1)
    if coincident and has_complex:
        return Obstruction(
            ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
            data={"lambda1": s * (lam1 - mu), "residual": s * sb * resid,
                  "complex_pair": [s * complex(z) for z in vals if abs(z.imag) > t]},
        )

    T = _ct_frame(A1, b, rep.is_irreducible, coincident, t)
    if T is None:
        raise ConstructionDefect(
            "no controller frame although the input passed the obstruction "
            f"test; A = {(s * A).tolist()}, b = {b_in.tolist()}")
    T[:, 0] = b_in  # so T^{-1} b = e_1 exactly
    cert = make_certificate(A, T, Mode.METZLER)
    return _checked(cert, A, "ct_hess_3", s)


def _ct_frame(A1: np.ndarray, b: np.ndarray, irreducible: bool, coincident: bool,
              t: float) -> np.ndarray | None:
    """The frame for the shifted pair (A1 nonnegative with spectrum in the
    open right half-plane), or None.  ``irreducible`` is that of the
    unshifted matrix, whose off-diagonal zero pattern ``A1`` keeps.  A
    reducible ``A1`` takes its frame directly and a Perron ``b`` the deflation
    frame.  Otherwise, as in the paper, ``T0`` places ``b`` on the orthant
    boundary, the state feedback ``b alpha^T`` leaves a reducible matrix, and
    its frame completes ``T``."""
    if not irreducible:
        return _controller_frame_reducible(A1, b)
    if coincident:
        return eigvec_b_transform(A1, b, t)
    T0 = fix_b_boundary(A1, b, t)
    b0 = np.maximum(np.linalg.solve(T0, b), 0.0)
    zero = b0 <= 10 * t * max(inf_norm(b0), 1e-300)
    order = np.argsort(zero, kind="stable")  # the support of b0 first
    b2 = np.where(zero, 0.0, b0)[order]
    Ab = _reducible_after_subtraction(A1[np.ix_(order, order)], b2, t)
    T2 = _controller_frame_reducible(Ab, b2)
    if T2 is None:
        return None
    # T2 conjugates Ab; adding back b2 alpha^T only touches the first row
    return T0[:, order] @ T2


# ---------------------------------------------------------------------------
# 4x4 Metzler Hessenberg form
# ---------------------------------------------------------------------------

def metzler_hess_4(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 4x4 Metzler matrix (always succeeds).

    Tries each of the four cyclic repositionings that make one index the
    leading scalar and solves the trailing 3x3 continuous-time
    controller-Hessenberg problem, or, under a zero column below the lead,
    takes the ``T3 >= 0`` of :func:`metzler_hess_3`; some choice is guaranteed
    to work, so an all-fail outcome raises with per-choice diagnostics.
    """
    A_in = as_square(A)
    if A_in.shape[0] != 4:
        raise InputError("metzler_hess_4 expects a 4x4 matrix")
    A, s, t = _unit_scale(A_in, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("metzler_hess_4 requires a Metzler matrix")
    if rep.is_upper_hessenberg:
        return identity_certificate(A_in, Mode.METZLER)

    failures = []
    for lead in range(4):
        order = [(lead + k) % 4 for k in range(4)]
        P = np.zeros((4, 4))
        P[order, np.arange(4)] = 1.0
        Ap = P.T @ A @ P
        bb = np.maximum(Ap[1:, 0], 0.0)
        cc = np.maximum(Ap[0, 1:], 0.0)
        A3 = Ap[1:, 1:]
        try:
            if inf_norm(bb) <= 10 * t:
                # a zero column below the lead: any T3 >= 0 keeps the row
                # cc T3 nonnegative
                T3 = metzler_hess_3(A3, t).T
            else:
                sub = ct_hess_3(A3, bb, cc, t)
                if isinstance(sub, Obstruction):
                    failures.append((lead, f"obstruction: {sub.data}"))
                    continue
                T3 = sub.T
            cert = make_certificate(A, P @ _embed_trailing(T3), Mode.METZLER)
            return _checked(cert, A, "metzler_hess_4", s)
        except (InputError, ConstructionDefect) as exc:
            failures.append((lead, str(exc)))

    raise ConstructionDefect(
        "all leading-index choices failed although the 4x4 Metzler "
        f"construction is total; diagnostics: {failures}")
