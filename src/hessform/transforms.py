"""Constructive similarity transforms to nonnegative/Metzler Hessenberg form.

Every constructor either returns a :class:`SimilarityCertificate` whose
residuals were verified before returning, or a structured
:class:`Obstruction` explaining why no transformation exists.  Contracts are
postcondition-based: the particular ``T`` returned is one valid choice, never
a canonical one.

No randomness is used anywhere in this module; all fallback searches sweep
deterministic candidate lists.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cones import boundary_shift
from .errors import ConstructionDefect, InputError, PerronVectorError
from .linalg import (
    _eigenvalues,
    as_square,
    as_vector,
    classify,
    geometric_multiplicity,
    inf_norm,
    jordan_like_form,
    metzler_shift,
    permutation_to_hessenberg,
    perron_pair,
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

_EPS = float(np.finfo(np.float64).eps)

#: Residual bound every returned certificate satisfies.
RESIDUAL_BOUND = 1e-8
#: Inverse-iteration cap inside fix_b_boundary.
INVERSE_ITERATION_CAP = 1000


class Mode(str, enum.Enum):
    """Sign discipline of the target Hessenberg form."""

    NONNEG = "nonneg"
    METZLER = "metzler"


class ObstructionKind(str, enum.Enum):
    NEG_EIG_GEOM_MULT = "negative_eigenvalue_geometric_multiplicity"
    PERRON_EIGVEC_COINCIDENCE = "perron_eigenvector_coincidence"
    GEOMETRIC_INFEASIBLE = "geometric_infeasible"
    SEARCH_EXHAUSTED = "search_exhausted"


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

    ``residual_similarity`` is ``||A T - T H||_inf / max(1, ||A||_inf)``;
    ``hessenberg_violation`` the largest magnitude below the first
    subdiagonal of ``H``; ``sign_violation`` the smallest entry of ``H``
    (off-diagonal only in Metzler mode).  Columns of ``T`` are scaled to unit
    absolute sum before the residuals are reported, except where a construction
    pins a column (e.g. the input vector).
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


def make_certificate(A, T, mode: Mode, normalize: bool = True,
                     keep_first_column: bool = False) -> SimilarityCertificate:
    """Assemble a certificate for ``H = T^{-1} A T`` with recomputed metrics."""
    A = as_square(A)
    T = as_square(np.array(T, dtype=float, copy=True), "T")
    if T.shape != A.shape:
        raise InputError("T must match the shape of A")
    if normalize:
        sums = np.sum(np.abs(T), axis=0)
        if np.any(sums <= 0):
            raise InputError("T has a zero column")
        start = 1 if keep_first_column else 0
        T[:, start:] = T[:, start:] / sums[start:]
    svals = np.linalg.svd(T, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > 1e14:
        raise InputError("T is singular beyond the conditioning bound")
    T_inv = np.linalg.solve(T, np.eye(T.shape[0]))
    H = T_inv @ A @ T
    residual = inf_norm(A @ T - T @ H) / max(1.0, inf_norm(A))
    return SimilarityCertificate(
        T=T,
        T_inv=T_inv,
        H=H,
        residual_similarity=float(residual),
        min_entry_T=float(np.min(T)),
        hessenberg_violation=_hessenberg_violation(H),
        sign_violation=_sign_violation(H, mode),
        mode=mode,
        cond_T=cond,
    )


def identity_certificate(A, mode: Mode) -> SimilarityCertificate:
    """Certificate with T = I for a matrix already in the target form."""
    A = as_square(A)
    return make_certificate(A, np.eye(A.shape[0]), mode, normalize=False)


def _entry_tolerance(A) -> float:
    """Absolute tolerance on Hessenberg/sign entry violations in H; matches
    what :func:`verify_certificate` enforces at the default tolerance."""
    return RESIDUAL_BOUND * max(1.0, inf_norm(A))


def _certificate_ok(cert: SimilarityCertificate, A) -> bool:
    t = _entry_tolerance(A)
    return (cert.residual_similarity <= RESIDUAL_BOUND
            and cert.hessenberg_violation <= t
            and cert.sign_violation >= -t)


def _checked(cert: SimilarityCertificate, A, context: str) -> SimilarityCertificate:
    """Validate certificate invariants; defects here are bugs, not obstructions."""
    t = _entry_tolerance(A)
    if cert.residual_similarity > RESIDUAL_BOUND:
        raise ConstructionDefect(
            f"{context}: similarity residual {cert.residual_similarity:.3e}")
    if cert.hessenberg_violation > t:
        raise ConstructionDefect(
            f"{context}: Hessenberg violation {cert.hessenberg_violation:.3e}")
    if cert.sign_violation < -t:
        raise ConstructionDefect(
            f"{context}: sign violation {cert.sign_violation:.3e}")
    return cert


def verify_certificate(A, cert: SimilarityCertificate, tol: float = 1e-8) -> bool:
    """Re-derive every certificate metric from scratch and test it against ``tol``.

    An independent linear solve recomputes ``T^{-1}``; nothing stored in the
    certificate is trusted except ``T``, ``H`` and the mode.
    """
    A = as_square(A)
    T = as_square(cert.T, "certificate T")
    H = as_square(cert.H, "certificate H")
    if T.shape != A.shape or H.shape != A.shape:
        raise InputError("certificate dimensions do not match the matrix")
    svals = np.linalg.svd(T, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e14:
        raise InputError("certificate T is singular beyond the conditioning bound")
    scale = max(1.0, inf_norm(A))
    residual = inf_norm(A @ T - T @ H) / scale
    if residual > tol:
        return False
    entry_tol = tol * scale
    if _hessenberg_violation(H) > entry_tol:
        return False
    if _sign_violation(H, cert.mode) < -entry_tol:
        return False
    T_inv = np.linalg.solve(T, np.eye(T.shape[0]))
    if inf_norm(T_inv @ A @ T - H) > tol * scale * max(1.0, inf_norm(T_inv) * inf_norm(T)):
        return False
    return True


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
    screen = 1e-4 * max(1.0, float(np.abs(vals[0])))
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
    if inf_norm(form.reconstruct() - A) > 1e-8 * max(1.0, inf_norm(A)):
        return None
    return form


# ---------------------------------------------------------------------------
# commuting boundary placement
# ---------------------------------------------------------------------------

def _perron_coincident(A: np.ndarray, b: np.ndarray, lam1: float) -> tuple[bool, float]:
    resid = inf_norm(A @ b - lam1 * b)
    threshold = 1e-8 * max(1.0, inf_norm(A)) * max(1.0, inf_norm(b))
    if threshold < resid <= 10 * threshold:
        warnings.warn("input vector is within 10x of the Perron-coincidence "
                      "threshold; the verdict may be sensitive to noise",
                      stacklevel=3)
    return resid <= threshold, resid


def fix_b_boundary(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` commuting with ``A`` that moves ``b`` onto the
    boundary of the nonnegative orthant.

    ``T`` is a polynomial in ``A``: a power of a shifted copy times one final
    boundary shift, so ``T^{-1} A T = A`` holds by commutation.  Requires an
    irreducible nonnegative ``A`` and ``b >= 0`` that is not the Perron
    eigenvector.

    Raises
    ------
    PerronVectorError
        When ``A b = lam_1 b`` within tolerance (no such T exists).
    ConstructionDefect
        When the inverse iteration exceeds its cap, indicating a vector
        numerically indistinguishable from the Perron direction.
    """
    A = as_square(A)
    b = as_vector(b)
    n = A.shape[0]
    if b.size != n:
        raise InputError("dimension mismatch between matrix and vector")
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("fix_b_boundary requires a nonnegative matrix")
    if np.min(b) < -t * max(1.0, inf_norm(b)):
        raise InputError("fix_b_boundary requires a nonnegative vector")
    if inf_norm(b) <= t:
        raise InputError("vector must be nonzero")
    report = classify(A, t)
    if not report.is_irreducible:
        raise InputError("fix_b_boundary requires an irreducible matrix")

    pd = perron_pair(A)
    coincident, _ = _perron_coincident(A, b, pd.perron_root)
    if coincident:
        raise PerronVectorError(
            "b is the Perron eigenvector; no commuting transform can move it "
            "to the orthant boundary")

    bscale = max(inf_norm(b), 1e-300)
    if np.min(b) <= t * bscale:
        return np.eye(n)

    # shift into the open right half-plane and rescale to spectral radius one;
    # both operations preserve "polynomial in A" and the cone family geometry
    vals = _eigenvalues(A)
    min_re = float(np.min(vals.real))
    k_shift = 0.0
    if min_re <= 0 or np.min(np.diag(A)) <= 0:
        k_shift = max(0.0, -min_re) + 0.25 * max(1.0, inf_norm(A))
    # eig(A + k I) = eig(A) + k, so W needs no eigenvalue computation of its own
    W = A + k_shift * np.eye(n)
    rho = float(np.max(np.abs(vals + k_shift)))
    W = W / max(rho, 1e-300)

    y = b / np.sum(b)
    m = 0
    while True:
        try:
            z = np.linalg.solve(W, y)
        except np.linalg.LinAlgError as exc:
            raise ConstructionDefect(f"shifted matrix became singular: {exc}") from exc
        zn = z / max(1.0, float(np.max(np.abs(z))))
        if np.min(zn) <= 1e-9:
            break
        y = z / np.sum(np.abs(z))
        m += 1
        if m > INVERSE_ITERATION_CAP:
            raise ConstructionDefect(
                "inverse iteration cap exceeded; b may be numerically "
                "indistinguishable from the Perron eigenvector")

    s_star = boundary_shift(W, y, tol=max(t, 1e-11))
    T = np.linalg.matrix_power(W, m) @ (W + s_star * np.eye(n))
    T = np.maximum(T, 0.0)  # products of nonnegative factors; clears -0.0
    return T


# ---------------------------------------------------------------------------
# 2x2 controller-Hessenberg form (discrete time)
# ---------------------------------------------------------------------------

def _complete_with_basis_vector(b: np.ndarray) -> np.ndarray:
    """Canonical basis vector maximising |det(b | e_i)| in 2-d."""
    dets = np.array([abs(b[1]), abs(b[0])])
    return np.eye(2)[:, int(np.argmax(dets))]


def dt_hess_2(A, b, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Nonnegative frame ``T = (b | p)`` with ``T^{-1} A T >= 0`` and
    ``T^{-1} b ~ e_1`` for a 2x2 nonnegative pair, or the structured
    obstruction.

    The obstruction occurs exactly when the second eigenvalue is negative and
    ``b`` is the Perron eigenvector.
    """
    A = as_square(A)
    b = as_vector(b)
    if A.shape[0] != 2 or b.size != 2:
        raise InputError("dt_hess_2 expects a 2x2 matrix and a 2-vector")
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("dt_hess_2 requires a nonnegative matrix")
    bscale = max(1.0, inf_norm(b))
    if np.min(b) < -t * bscale:
        raise InputError("dt_hess_2 requires a nonnegative vector")
    if inf_norm(b) <= t:
        raise InputError("b must be nonzero")
    b = np.maximum(b, 0.0)

    vals = _eigenvalues(A)
    lam1 = float(vals[0].real)
    lam2 = float(vals[1].real)

    if lam2 >= -t:
        # the shifted matrix is nonnegative of rank at most one; cover its ray
        Ahat = A - lam2 * np.eye(2)
        Ahat = np.maximum(Ahat, 0.0)
        U, s, _ = np.linalg.svd(Ahat)
        if s[0] <= t:
            p = _complete_with_basis_vector(b)
        else:
            ray = U[:, 0]
            if ray[np.argmax(np.abs(ray))] < 0:
                ray = -ray
            ray = np.maximum(ray, 0.0)
            det = b[0] * ray[1] - b[1] * ray[0]
            if abs(det) > 1e-9 * max(1.0, inf_norm(b)):
                p = ray
            else:
                p = _complete_with_basis_vector(b)
        T = np.column_stack([b, p])
        cert = make_certificate(A, T, Mode.NONNEG, keep_first_column=True)
        return _checked(cert, A, "dt_hess_2 (nonnegative second eigenvalue)")

    coincident, resid = _perron_coincident(A, b, lam1)
    if coincident:
        return Obstruction(
            ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
            data={"lambda1": lam1, "lambda2": lam2, "residual": resid,
                  "b": b.copy()},
        )

    T1 = fix_b_boundary(A, b)
    b1 = np.linalg.solve(T1, b)
    b1 = np.maximum(b1, 0.0)
    # one entry of b1 is (numerically) zero; complete with the matching axis
    zero_idx = int(np.argmin(b1))
    other = 1 - zero_idx
    b1[zero_idx] = 0.0
    T2 = np.column_stack([b1, np.eye(2)[:, zero_idx]])
    if abs(np.linalg.det(T2)) <= 1e-12 * max(1.0, b1[other]):
        raise ConstructionDefect("degenerate frame after boundary placement")
    cert = make_certificate(A, T1 @ T2, Mode.NONNEG, keep_first_column=True)
    return _checked(cert, A, "dt_hess_2 (negative second eigenvalue)")


# ---------------------------------------------------------------------------
# Perron-input Jordan route
# ---------------------------------------------------------------------------

def eigvec_b_transform(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` with ``T^{-1} b = e_1`` and ``T^{-1} A T >= 0`` when
    ``b`` is the positive Perron eigenvector of an irreducible nonnegative
    matrix with real nonnegative spectrum (n <= 4).

    Built from a Jordan basis ``V = (b, v_2, ...)`` by adding multiples of
    ``b`` to the trailing columns until ``T`` is entrywise nonnegative; the
    recurrence bound on those multiples keeps the conjugated matrix
    nonnegative.  Each lower bound is enlarged by 25% against roundoff.
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
    if np.min(b) <= t * max(1.0, inf_norm(b)):
        raise InputError("eigvec_b_transform requires a strictly positive vector")
    if not classify(A, t).is_irreducible:
        raise InputError("eigvec_b_transform requires an irreducible matrix")
    vals = _eigenvalues(A)
    if np.max(np.abs(vals.imag)) > t or np.min(vals.real) < -t:
        raise InputError("spectrum must be real and nonnegative")
    lam1 = float(vals[0].real)
    coincident, resid = _perron_coincident(A, b, lam1)
    if not coincident:
        raise InputError(
            f"b is not the Perron eigenvector (residual {resid:.3e})")

    V, J = jordan_like_form(A)
    # first block is the simple dominant eigenvalue; align its column with b
    if abs(J[0, 0] - lam1) > max(1e-6 * max(1.0, lam1), 10 * t):
        raise ConstructionDefect("dominant eigenvalue is not the leading Jordan block")
    v1 = V[:, 0]
    scale = float(b @ v1) / float(v1 @ v1)
    if scale <= 0:
        raise ConstructionDefect("Perron column misaligned with b")
    V = V.copy()
    V[:, 0] = b
    V[:, 1:] = V[:, 1:] * scale  # keep relative chain scaling intact

    lam = np.diag(J).copy()
    alpha = np.zeros(n)
    for i in range(1, n):
        need_pos = max(0.0, float(np.max(-V[:, i] / b)))
        need_rec = 0.0
        gap = lam1 - lam[i]
        if gap <= t:
            raise ConstructionDefect("dominant eigenvalue is not simple")
        if J[i - 1, i] != 0.0:
            need_rec = alpha[i - 1] / gap
        alpha[i] = 1.25 * max(need_pos, need_rec)

    T = V + np.outer(b, alpha)
    T = np.maximum(T, 0.0) if np.min(T) > -10 * t else T
    if np.min(T) < -10 * t * max(1.0, inf_norm(T)):
        raise ConstructionDefect("transform failed to become nonnegative")
    H = np.linalg.solve(T, A @ T)
    if np.min(H) < -1e-7 * max(1.0, inf_norm(A)):
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
    if resid > 1e-7 * max(1.0, inf_norm(A)) * (svals[0] / svals[-1]):
        raise InputError("matrix is not reliably diagonalisable")
    alpha = np.linalg.solve(V, np.eye(n)[:, 0].astype(complex))
    beta = np.linalg.solve(V, b.astype(complex))
    if np.min(np.abs(alpha)) <= t * max(1.0, float(np.max(np.abs(alpha)))):
        raise InputError("e_1 has a zero component in the eigenbasis")
    if np.min(np.abs(beta)) <= t * max(1.0, float(np.max(np.abs(beta)))):
        raise InputError("b has a zero component in the eigenbasis")
    E = np.diag(beta / alpha)
    Tc = V @ E @ np.linalg.solve(V, np.eye(n, dtype=complex))
    if np.max(np.abs(Tc.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(Tc.real)))):
        raise InputError("transform is not real; complex eigencomponents of b "
                         "and e_1 are inconsistently paired")
    T = Tc.real
    scale = max(1.0, inf_norm(A))
    if inf_norm(T @ A - A @ T) > 1e-8 * scale * max(1.0, inf_norm(T)):
        raise ConstructionDefect("commutation residual too large")
    if inf_norm(np.linalg.solve(T, b) - np.eye(n)[:, 0]) > 1e-8 * max(1.0, inf_norm(b)):
        raise ConstructionDefect("T^{-1} b failed to reach e_1")
    return T


# ---------------------------------------------------------------------------
# 3x3 nonnegative Hessenberg decision
# ---------------------------------------------------------------------------

def _embed_leading(T2: np.ndarray) -> np.ndarray:
    n = T2.shape[0] + 1
    out = np.eye(n)
    out[:n - 1, :n - 1] = T2
    return out


def _embed_trailing(T2: np.ndarray) -> np.ndarray:
    n = T2.shape[0] + 1
    out = np.eye(n)
    out[1:, 1:] = T2
    return out


def nonneg_hess_3(A, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Decide 3x3 nonnegative Hessenberg similarity: a verified certificate or
    the rank-one-minus-shift obstruction.

    Branch order: real nonnegative spectrum (Jordan route), an off-diagonal
    zero (permutation), then the block reduction through the 2x2
    controller-Hessenberg step on the leading partition and, failing that, the
    transposed trailing partition.
    """
    A = as_square(A)
    if A.shape[0] != 3:
        raise InputError("nonneg_hess_3 expects a 3x3 matrix")
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("nonneg_hess_3 requires a nonnegative matrix")

    form = rank_one_shift_detect(A)
    if form is not None:
        lam2 = -form.c * form.s
        return Obstruction(
            ObstructionKind.NEG_EIG_GEOM_MULT,
            data={
                "lambda2": lam2,
                "geometric_multiplicity": geometric_multiplicity(A, lam2),
                "u": form.u, "v": form.v, "s": form.s, "c": form.c,
                "reconstruction_residual":
                    inf_norm(form.reconstruct() - A) / max(1.0, inf_norm(A)),
            },
        )

    vals = _eigenvalues(A)
    real_nonneg = np.max(np.abs(vals.imag)) <= t and np.min(vals.real) >= -t
    if real_nonneg:
        V, _ = jordan_like_form(A)
        cert = make_certificate(A, V, Mode.NONNEG)
        return _checked(cert, A, "nonneg_hess_3 (real nonnegative spectrum)")

    P = permutation_to_hessenberg(A, t)
    if P is not None:
        cert = make_certificate(A, P, Mode.NONNEG, normalize=False)
        return _checked(cert, A, "nonneg_hess_3 (permutation)")

    # all off-diagonal entries are positive; reduce through a 2x2 block
    A11, v_r = A[:2, :2], A[:2, 2]
    sub = dt_hess_2(A11, v_r)
    if isinstance(sub, SimilarityCertificate):
        T = _embed_leading(sub.T)
        B = np.linalg.solve(T, A @ T)
        P = permutation_to_hessenberg(B, 10 * t)
        if P is None:
            raise ConstructionDefect(
                "leading block reduction produced no movable zero")
        cert = make_certificate(A, T @ P, Mode.NONNEG)
        return _checked(cert, A, "nonneg_hess_3 (leading partition)")

    A22, w_l = A[1:, 1:], A[0, 1:]
    sub = dt_hess_2(A22.T, w_l)
    if isinstance(sub, SimilarityCertificate):
        S = np.linalg.solve(sub.T.T, np.eye(2))  # inverse transpose
        T = _embed_trailing(S)
        B = np.linalg.solve(T, A @ T)
        P = permutation_to_hessenberg(B, 10 * t)
        if P is None:
            raise ConstructionDefect(
                "trailing block reduction produced no movable zero")
        cert = make_certificate(A, T @ P, Mode.NONNEG)
        return _checked(cert, A, "nonneg_hess_3 (trailing partition)")

    raise ConstructionDefect(
        "both block partitions obstructed although the rank-one-minus-shift "
        "test is negative; this contradicts the 3x3 characterisation. "
        f"A = {A.tolist()}")


def metzler_hess_3(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 3x3 Metzler matrix (always succeeds).

    Shifts to a nonnegative matrix, enlarging the shift until the result
    escapes the rank-one-minus-shift family, runs the nonnegative decision,
    then un-shifts the conjugated matrix.
    """
    A = as_square(A)
    if A.shape[0] != 3:
        raise InputError("metzler_hess_3 expects a 3x3 matrix")
    t = zero_tolerance(A, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("metzler_hess_3 requires a Metzler matrix")
    if rep.is_upper_hessenberg:
        return identity_certificate(A, Mode.METZLER)

    shifted, mu = metzler_shift(A, t)
    for _ in range(4):
        form = rank_one_shift_detect(shifted)
        if form is None:
            break
        bump = form.c * form.s + 1e-8 * max(1.0, inf_norm(A))
        mu += bump
        shifted = shifted + bump * np.eye(3)
    else:
        raise ConstructionDefect("failed to escape the obstruction family by shifting")

    result = nonneg_hess_3(shifted)
    if isinstance(result, Obstruction):
        raise ConstructionDefect(
            "shifted matrix still reported an obstruction; the Metzler "
            "construction is total, so this is a defect")
    cert = make_certificate(A, result.T, Mode.METZLER, normalize=False)
    return _checked(cert, A, "metzler_hess_3")


# ---------------------------------------------------------------------------
# 3x3 continuous-time controller-Hessenberg form
# ---------------------------------------------------------------------------

def _plane_orthant_rays(U2: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Extreme rays of (2-d subspace spanned by U2's columns) cut with the
    nonnegative orthant, in counter-clockwise order of the U2 coordinates, or
    None when the intersection is not 2-dimensional.

    In U2 coordinates the section is the cone ``{c : U2 c >= 0}``, so each of
    its two extreme rays is orthogonal to some row of U2: they are the two
    feasible row normals that lie farthest apart.  The basis may carry
    O(1e-10) noise from the SVD that produced it, so the orthant test runs at
    a matching slack and the rays are clamped after."""
    slack = 1e-8
    rows = U2[np.linalg.norm(U2, axis=1) > 1e-12]
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


def _extreme_columns(cols: np.ndarray, U2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angularly extreme columns of a rank-2 nonnegative generator set."""
    coords = U2.T @ cols
    norms = np.linalg.norm(coords, axis=0)
    keep = norms > 1e-12 * max(1.0, float(np.max(norms)))
    coords, cols = coords[:, keep], cols[:, keep]
    unit = coords / np.linalg.norm(coords, axis=0)
    mean = np.mean(unit, axis=1)
    mean = mean / max(np.linalg.norm(mean), 1e-300)
    ang = np.arctan2(mean[0] * unit[1] - mean[1] * unit[0], mean @ unit)
    return cols[:, int(np.argmin(ang))], cols[:, int(np.argmax(ang))]


def _finish_controller(A1: np.ndarray, T1: np.ndarray,
                       entry_tol: float) -> np.ndarray | None:
    """Append the trailing 2x2 controller step so the conjugated matrix is
    nonnegative upper Hessenberg; None when the candidate frame cannot be
    completed.  ``entry_tol`` is an absolute bound on admissible entry
    violations (supplied by the outermost caller, so it survives internal
    rescalings of the working matrix)."""
    scale = max(1.0, inf_norm(A1))
    slack = max(entry_tol, 1e-11 * scale)
    H1 = np.linalg.solve(T1, A1 @ T1)
    if np.min(H1) < -slack:
        return None
    b_sub = H1[1:, 0]
    if inf_norm(b_sub) > 1e-12 * scale:
        # run the trailing reduction even for small subdiagonal leakage; it
        # actively zeroes the corner entry instead of trusting loose bounds
        try:
            sub = dt_hess_2(np.maximum(H1[1:, 1:], 0.0),
                            np.maximum(b_sub, 0.0))
        except (InputError, ConstructionDefect):
            return None
        if isinstance(sub, Obstruction):
            return None
        T1 = T1 @ _embed_trailing(sub.T)
    H = np.linalg.solve(T1, A1 @ T1)
    if np.min(H) < -slack:
        return None
    if _hessenberg_violation(H) > slack:
        return None
    return T1


def _controller_frame_reducible(A1: np.ndarray, b: np.ndarray,
                                entry_tol: float) -> np.ndarray | None:
    """Frame ``T = (b | p | q) >= 0`` with ``T^{-1} A1 T`` nonnegative upper
    Hessenberg for a reducible nonnegative 3x3 matrix with positive real
    spectrum.  Returns the complete transform (trailing step included)."""
    n = 3
    vals = _eigenvalues(A1)
    lam3 = float(vals[-1].real)
    Ahat = np.maximum(A1 - lam3 * np.eye(n), 0.0)
    U, s, _ = np.linalg.svd(Ahat)
    rank = int(np.count_nonzero(s > 1e-9 * max(1.0, s[0])))
    basis = [np.eye(n)[:, k] for k in range(n)]
    bnorm = b / max(inf_norm(b), 1e-300)

    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    if rank == 2:
        r1, r2 = _extreme_columns(Ahat, U[:, :2])
        candidates.append((r1, r2))
        for e in basis:
            candidates.append((r1, e))
            candidates.append((r2, e))
    elif rank == 1:
        ray = U[:, 0]
        if ray[np.argmax(np.abs(ray))] < 0:
            ray = -ray
        ray = np.maximum(ray, 0.0)
        for e in basis:
            candidates.append((ray, e))
        for e1 in basis:
            for e2 in basis:
                candidates.append((e1, e2))
    else:
        for e1 in basis:
            for e2 in basis:
                candidates.append((e1, e2))

    slack = max(entry_tol, 1e-11 * max(1.0, inf_norm(A1)))
    for p, q in candidates:
        T1 = np.column_stack([bnorm, p, q])
        if abs(np.linalg.det(T1)) <= 1e-9:
            continue
        coeff = np.linalg.solve(T1, Ahat)
        if np.min(coeff) < -slack:
            continue
        T = _finish_controller(A1, T1, entry_tol)
        if T is not None:
            return T

    if rank == 2:
        # degenerate case: b lies in the invariant plane spanned by the
        # shifted range; solve the 2-d subproblem in orthant coordinates
        U2 = U[:, :2]
        resid = bnorm - U2 @ (U2.T @ bnorm)
        if np.linalg.norm(resid) <= 1e-7:
            T = _invariant_plane_frame(A1, bnorm, U2, vals, entry_tol)
            if T is not None:
                return T
    return None


def _invariant_plane_frame(A1, bnorm, U2, vals, entry_tol):
    """Frame for the degenerate reducible case where b lies inside the
    2-d invariant range of the shifted matrix.

    The plane cut with the orthant is a 2-d cone; solving the 2x2
    controller problem in its extreme-ray coordinates yields the second
    column.  The third column is an eigendirection transverse to the plane
    when one is nonnegative, otherwise an in-plane feasible direction lifted
    slightly out of the plane (largest lift that keeps the conjugation
    nonnegative, for conditioning)."""
    rays = _plane_orthant_rays(U2)
    if rays is None:
        return None
    g1, g2 = rays
    G = np.column_stack([g1, g2])
    coord_slack = 1e-6 * max(1.0, inf_norm(A1))
    M = np.linalg.lstsq(G, A1 @ G, rcond=None)[0]
    if np.min(M) < -coord_slack:
        return None
    M = np.maximum(M, 0.0)
    b_c = np.linalg.lstsq(G, bnorm, rcond=None)[0]
    if np.min(b_c) < -coord_slack:
        return None
    b_c = np.maximum(b_c, 0.0)
    try:
        sub = dt_hess_2(M, b_c)
    except (InputError, ConstructionDefect):
        return None
    if isinstance(sub, Obstruction):
        return None
    p = np.maximum(G @ sub.T[:, 1], 0.0)
    p = p / max(inf_norm(p), 1e-300)

    q_cands: list[np.ndarray] = []
    try:
        q_cands.append(perron_pair(A1).right_vector)
    except (InputError, ConstructionDefect):
        pass
    for lam in vals.real:
        W = A1 - lam * np.eye(3)
        _, _, vt = np.linalg.svd(W)
        w = vt[-1]
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
        if np.min(w) >= -1e-9:
            q_cands.append(np.maximum(w, 0.0))
    q_cands.extend(np.eye(3)[:, k] for k in range(3))
    # out-of-plane lifts of in-plane feasible directions, largest lift first
    outness = [float(np.linalg.norm(np.eye(3)[:, k] - U2 @ (U2.T @ np.eye(3)[:, k])))
               for k in range(3)]
    lift_dirs = [np.eye(3)[:, k] for k in np.argsort(outness)[::-1] if outness[k] > 1e-9]
    for base in (p, bnorm, g1, g2):
        for e_out in lift_dirs[:1]:
            for eps in [2.0 ** (-j) for j in range(0, 30, 2)]:
                q_cands.append(base + eps * e_out)

    slack = max(entry_tol, 1e-11 * max(1.0, inf_norm(A1)))
    for q in q_cands:
        if inf_norm(q) <= 0 or np.min(q) < 0:
            continue
        T1 = np.column_stack([bnorm, p, q / max(inf_norm(q), 1e-300)])
        if abs(np.linalg.det(T1)) <= 1e-9:
            continue
        H1 = np.linalg.solve(T1, A1 @ T1)
        if np.min(H1) < -slack:
            continue
        T = _finish_controller(A1, T1, entry_tol)
        if T is not None:
            return T
    return None


def _zero_support_permutation(b0: np.ndarray, t: float) -> np.ndarray:
    """Permutation sending one-zero vectors to (+,+,0) and two-zero vectors to
    (+,0,0) patterns."""
    n = b0.size
    scale = max(inf_norm(b0), 1e-300)
    zero = b0 <= 10 * t * scale
    order = [i for i in range(n) if not zero[i]] + [i for i in range(n) if zero[i]]
    P = np.zeros((n, n))
    P[order, np.arange(n)] = 1.0
    return P


def _reducible_after_subtraction(A2: np.ndarray, b2: np.ndarray,
                                 t: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Choose ``alpha >= 0`` and a diagonal enlargement ``sigma`` so that
    ``A2 + sigma I - b2 alpha^T`` is nonnegative, reducible, and has positive
    real spectrum."""
    scale = max(inf_norm(b2), 1e-300)
    support = b2 > 10 * t * scale
    alpha = np.zeros(3)
    if int(np.sum(support)) == 1:
        # b ~ e_1 pattern: clear the first row off-diagonals
        alpha[1] = A2[0, 1] / b2[0]
        alpha[2] = A2[0, 2] / b2[0]
    else:
        # b = (+, +, 0): clear (2,1) and (1,2), then one of (1,3)/(2,3)
        alpha[0] = A2[1, 0] / b2[1]
        alpha[1] = A2[0, 1] / b2[0]
        alpha[2] = min(A2[0, 2] / b2[0], A2[1, 2] / b2[1])
    alpha = np.maximum(alpha, 0.0)
    base = A2 - np.outer(b2, alpha)
    # snap the targeted entries to exact zeros
    base[np.abs(base) <= 100 * t * max(1.0, inf_norm(A2))] = 0.0
    vals = np.linalg.eigvals(base)
    sigma = max(0.0, -float(np.min(np.diag(base))),
                -float(np.min(vals.real))) + 0.125 * max(1.0, inf_norm(A2))
    Ab = base + sigma * np.eye(3)
    Ab = np.maximum(Ab, 0.0)
    return Ab, alpha, sigma


def ct_hess_3(A, b, c=None, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Third-order continuous-time positive controller-Hessenberg form.

    Returns a nonnegative ``T`` (first column pinned to ``b``) with
    ``T^{-1} A T`` Metzler upper Hessenberg and ``T^{-1} b`` proportional to
    ``e_1`` (so ``c T >= 0`` for every nonnegative output vector), or the
    Perron-coincidence obstruction when ``A b = lam_1 b`` with a complex pair
    in the spectrum.  Failure to complete a branch on admissible input is a
    defect and raises, never silently obstructs.
    """
    A = as_square(A)
    b = as_vector(b)
    if A.shape[0] != 3 or b.size != 3:
        raise InputError("ct_hess_3 expects a 3x3 matrix and a 3-vector")
    c = np.zeros(3) if c is None else as_vector(c)
    if c.size != 3:
        raise InputError("output vector must have dimension 3")
    t = zero_tolerance(A, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("ct_hess_3 requires a Metzler matrix")
    if np.min(b) < -t * max(1.0, inf_norm(b)) or inf_norm(b) <= t:
        raise InputError("ct_hess_3 requires a nonnegative nonzero input vector")
    if np.min(c) < -t * max(1.0, inf_norm(c)):
        raise InputError("ct_hess_3 requires a nonnegative output vector")
    b = np.maximum(b, 0.0)

    vals = _eigenvalues(A)
    has_complex = np.max(np.abs(vals.imag)) > t

    # base shift: nonnegative entries and spectrum in the open right
    # half-plane (the transform is shift-invariant)
    mu_sign = max(0.0, -float(np.min(np.diag(A))))
    mu_spec = max(0.0, -float(np.min(vals.real)))
    mu0 = max(mu_sign, mu_spec) + 0.25 * max(1.0, inf_norm(A))

    A_base = A + mu0 * np.eye(3)
    off = ~np.eye(3, dtype=bool)
    lam1 = perron_pair(np.where(off, np.maximum(A_base, 0.0), A_base)).perron_root
    coincident, resid = _perron_coincident(A_base, b, lam1)
    if coincident and has_complex:
        return Obstruction(
            ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
            data={"lambda1": lam1 - mu0, "residual": resid,
                  "complex_pair": [complex(z) for z in vals if abs(z.imag) > t]},
        )

    entry_tol = _entry_tolerance(A)
    # near-degenerate boundary placements can leave the generic route badly
    # conditioned; retrying with a different shift changes the cone geometry
    failures: list[str] = []
    for extra in (0.0, 0.37, 0.93, 2.1):
        mu = mu0 + extra * max(1.0, inf_norm(A))
        A1 = A + mu * np.eye(3)
        A1[off] = np.maximum(A1[off], 0.0)
        try:
            T = _ct_frame(A1, b, coincident, t, entry_tol)
        except (InputError, ConstructionDefect) as exc:
            failures.append(str(exc))
            continue
        if T is None:
            failures.append(f"no frame at shift {mu:.3g}")
            continue
        # pin the first column to b itself and certify on the original matrix
        Tb = T.copy()
        e1 = np.linalg.solve(Tb, b)
        if inf_norm(e1[1:]) > 1e-6 * max(inf_norm(e1), 1e-300) or e1[0] <= 0:
            failures.append(f"b missed the first axis at shift {mu:.3g}")
            continue
        Tb[:, 0] = b
        cert = make_certificate(A, Tb, Mode.METZLER, keep_first_column=True)
        if _certificate_ok(cert, A):
            return _checked(cert, A, "ct_hess_3")
        failures.append(
            f"certificate out of tolerance at shift {mu:.3g}: "
            f"residual {cert.residual_similarity:.2e}, "
            f"hess {cert.hessenberg_violation:.2e}, "
            f"sign {cert.sign_violation:.2e}")

    raise ConstructionDefect(
        "all construction attempts failed although the input passed the "
        f"obstruction test; A = {A.tolist()}, b = {b.tolist()}; "
        f"diagnostics: {failures}")


def _ct_frame(A1: np.ndarray, b: np.ndarray, coincident: bool, t: float,
              entry_tol: float) -> np.ndarray | None:
    """One construction attempt for the shifted pair (A1 nonnegative with
    spectrum in the open right half-plane)."""
    if not classify(A1, t).is_irreducible:
        return _controller_frame_reducible(A1, b, entry_tol)
    if coincident:
        return eigvec_b_transform(A1, b)
    T0 = fix_b_boundary(A1, b)
    b0 = np.maximum(np.linalg.solve(T0, b), 0.0)
    P = _zero_support_permutation(b0, t)
    A2 = P.T @ A1 @ P
    b2 = P.T @ b0
    scale_b = max(inf_norm(b2), 1e-300)
    b2 = np.where(b2 <= 10 * t * scale_b, 0.0, b2)
    Ab, alpha, sigma = _reducible_after_subtraction(A2, b2, t)
    if classify(Ab, t).is_irreducible:
        raise ConstructionDefect("subtraction failed to make the matrix reducible")
    T2 = _controller_frame_reducible(Ab, b2, entry_tol)
    if T2 is None:
        return None
    # T2 conjugates Ab; adding back b2 alpha^T only touches the first row
    H2 = np.linalg.solve(T2, (A2 + sigma * np.eye(3)) @ T2)
    if np.min(H2) < -max(entry_tol, 1e-11 * max(1.0, inf_norm(Ab))):
        raise ConstructionDefect("row restoration broke nonnegativity")
    return T0 @ P @ T2


# ---------------------------------------------------------------------------
# 4x4 Metzler Hessenberg form
# ---------------------------------------------------------------------------

def metzler_hess_4(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 4x4 Metzler matrix (always succeeds).

    Tries each of the four cyclic repositionings that make one index the
    leading scalar and solves the trailing 3x3 continuous-time
    controller-Hessenberg problem; some choice is guaranteed to work, so an
    all-fail outcome raises with per-choice diagnostics.
    """
    A = as_square(A)
    if A.shape[0] != 4:
        raise InputError("metzler_hess_4 expects a 4x4 matrix")
    t = zero_tolerance(A, tol)
    rep = classify(A, t)
    if not rep.is_metzler:
        raise InputError("metzler_hess_4 requires a Metzler matrix")
    if rep.is_upper_hessenberg:
        return identity_certificate(A, Mode.METZLER)

    failures = []
    for lead in range(4):
        order = [(lead + k) % 4 for k in range(4)]
        P = np.zeros((4, 4))
        P[order, np.arange(4)] = 1.0
        Ap = P.T @ A @ P
        bb = np.maximum(Ap[1:, 0], 0.0)
        cc = np.maximum(Ap[0, 1:], 0.0)
        A3 = Ap[1:, 1:]

        sub_results = []
        if inf_norm(bb) <= 10 * t * max(1.0, inf_norm(A)):
            for k in range(3):
                e = np.eye(3)[:, k]
                try:
                    sub_results.append(ct_hess_3(A3, e, cc))
                except (InputError, ConstructionDefect) as exc:
                    failures.append((lead, f"axis input {k}: {exc}"))
        else:
            try:
                sub_results.append(ct_hess_3(A3, bb, cc))
            except (InputError, ConstructionDefect) as exc:
                failures.append((lead, str(exc)))

        for sub in sub_results:
            if isinstance(sub, Obstruction):
                failures.append((lead, f"obstruction: {sub.data}"))
                continue
            T = P @ _embed_trailing(sub.T)
            cert = make_certificate(A, T, Mode.METZLER)
            if _certificate_ok(cert, A):
                return _checked(cert, A, "metzler_hess_4")
            failures.append((lead, "assembled certificate failed validation"))

    raise ConstructionDefect(
        "all leading-index choices failed although the 4x4 Metzler "
        f"construction is total; diagnostics: {failures}")
