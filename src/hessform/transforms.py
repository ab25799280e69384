"""Constructive similarity transforms to nonnegative/Metzler Hessenberg form.

Every constructor checks its input, answers each question about it (zero
pattern, spectrum, Perron coincidence) once, and returns either a
:class:`SimilarityCertificate`, built once and verified before returning, or a
structured :class:`Obstruction` explaining why no transformation exists.  The
private frame functions take those answers and build ``T`` without checks of
their own.  Contracts are postcondition-based: the particular ``T`` returned
is one valid choice, never a canonical one.

No randomness is used anywhere in this module.  The n = 3 and n = 4 Hessenberg
constructions share one reduction, :func:`_lead_loop`: a permutation where one
exists, else for each lead index ``k`` in a fixed list a controller form of
the trailing pair ``(A[B, B], A[B, k])``, embedded as ``(e_k | T_B)``.

The problem is invariant under ``A -> cA``, and one input and output policy
follows it, in three functions that every Hessenberg answer goes through,
here and in :mod:`hessform.search`.  :func:`_admitted` checks the shape,
divides ``A`` by ``||A||_inf``, sets the entries within the caller's ``tol``
(absolute, in the units of ``A``; by default ``1e-9 ||A||_inf``) to 0, giving
``Â``, and runs the exact sign test of the mode on ``Â``; nothing else reads
``tol``.  :func:`_permuted` tries the permutation to Hessenberg form, read off
the exact zeros of ``Â``, before any other frame.  :func:`_accepted` builds a
frame's certificate once, accepts it by the predicate of
:func:`verify_certificate` at ``RESIDUAL_BOUND`` and multiplies its ``H``
back to the units of ``A``.  A permutation's similarity is exact, so its
certificate is read off by indexing (:func:`_permutation_certificate`), with
the fields :func:`_accepted` would compute and no SVD, inverse or product.
Zero patterns are exact tests on ``Â``, and the steps round at thresholds
relative to ``||Â|| = 1`` or to the norm of what they test.
"""
from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionDefect, InputError, PerronVectorError
from .linalg import (
    _eigenvalues,
    _masks,
    _strongly_connected,
    as_square,
    as_vector,
    inf_norm,
    nonneg_vector,
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
    return float(np.abs(H[_masks(n)[0]]).max())


def _sign_violation(H: np.ndarray, mode: Mode) -> float:
    """The least entry of ``H`` (off the diagonal in Metzler mode), negative
    exactly where ``H`` breaks the signs of ``mode``."""
    if mode is Mode.NONNEG:
        return float(H.min())
    n = H.shape[0]
    if n == 1:
        return 0.0
    return float(H[_masks(n)[1]].min())


def _unit_columns(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``T D^{-1}``, ``D`` (the column sums of ``|T|``) and ``cond(T D^{-1}) <= 1e14``."""
    d = np.abs(T).sum(axis=0)
    if not math.isfinite(d.sum()):
        raise InputError("T contains non-finite entries")
    if d.min() <= 0:
        raise InputError("T has a zero column")
    Tn = T / d
    svals = np.linalg.svd(Tn, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e14:
        raise InputError("T is singular beyond the conditioning bound")
    return Tn, d, float(svals[0] / svals[-1])


def _certificate(A: np.ndarray, T: np.ndarray, mode: Mode,
                 norm_A: float) -> SimilarityCertificate:
    """The core of :func:`make_certificate`, for a square float ``A`` of norm
    ``norm_A``, a finite ``T`` of its shape that the certificate may keep,
    and a :class:`Mode`."""
    Tn, d, cond = _unit_columns(T)
    Tn_inv = np.linalg.inv(Tn)
    Hn = Tn_inv @ A @ Tn
    residual = inf_norm(A @ Tn - Tn @ Hn) / (norm_A or 1.0)
    return SimilarityCertificate(
        T=T,
        T_inv=Tn_inv / d[:, None],
        H=Hn / d[:, None] * d,
        residual_similarity=residual,
        min_entry_T=float(Tn.min()),
        hessenberg_violation=_hessenberg_violation(Hn),
        sign_violation=_sign_violation(Hn, mode),
        mode=mode,
        cond_T=cond,
    )


def make_certificate(A, T, mode: Mode) -> SimilarityCertificate:
    """Certificate for ``H = T^{-1} A T`` that keeps the caller's ``T``, with
    every metric recomputed at unit column sums.  Every construction builds
    its certificate with the same core, once, and :func:`_accepted` scales it
    once."""
    A = as_square(A)
    mode = Mode(mode)
    T = as_square(np.array(T, dtype=float, copy=True), "T")
    if T.shape != A.shape:
        raise InputError("T must match the shape of A")
    return _certificate(A, T, mode, inf_norm(A))


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
    """``A`` at unit scale with its zeros snapped, ``Â``: ``A / s`` with
    ``s = ||A||_inf`` and every entry within the zero threshold, ``tol / s``
    for a caller's ``tol`` (absolute, in the units of ``A``) or the relative
    default, set to exact 0.0; ``s`` itself; and the rounding threshold of the
    steps built on ``Â``, the default one whatever ``tol`` is.  A zero matrix
    passes through unscaled (``s = 1``)."""
    s = inf_norm(A) or 1.0
    A = A / s
    t = zero_tolerance(A)
    A[np.abs(A) <= (t if tol is None else zero_tolerance(A, tol / s))] = 0.0
    return A, s, t


def _admitted(A, mode: Mode, name: str, n: int | None,
              tol: float | None) -> tuple[np.ndarray, float, float]:
    """The input policy of every Hessenberg answer: ``A`` square (``n x n``
    when ``n`` is given), :func:`_unit_scale`'s ``(Â, s, t)``, and the exact
    sign test of ``mode`` on ``Â``."""
    A = as_square(A)
    if n is not None and A.shape[0] != n:
        raise InputError(f"{name} expects a {n}x{n} matrix")
    A, s, t = _unit_scale(A, tol)
    if _sign_violation(A, mode) < 0:
        kind = "nonnegative" if mode is Mode.NONNEG else "Metzler"
        raise InputError(f"{name} requires a {kind} matrix")
    return A, s, t


def _accepted(A: np.ndarray, T: np.ndarray, mode: Mode,
              s: float) -> SimilarityCertificate | None:
    """The acceptance rule of every Hessenberg answer: the certificate of the
    frame ``T`` for ``A``, built once by :func:`_certificate`, if the predicate
    :func:`_holds` accepts it at RESIDUAL_BOUND, with ``H`` and its entry
    violations multiplied by ``s``; None where ``T`` fails the predicate or is
    singular beyond the conditioning bound."""
    norm_A = inf_norm(A)
    try:
        cert = _certificate(A, T, mode, norm_A)
    except InputError:
        return None
    if not _holds(norm_A, cert.residual_similarity * norm_A,
                  cert.hessenberg_violation, cert.sign_violation,
                  cert.min_entry_T, RESIDUAL_BOUND):
        return None
    return SimilarityCertificate(
        T=cert.T, T_inv=cert.T_inv, H=s * cert.H,
        residual_similarity=cert.residual_similarity, min_entry_T=cert.min_entry_T,
        hessenberg_violation=s * cert.hessenberg_violation,
        sign_violation=s * cert.sign_violation, mode=cert.mode, cond_T=cert.cond_T)


def _permuted(A: np.ndarray, mode: Mode, s: float) -> SimilarityCertificate | None:
    """The permutation-first step of every Hessenberg answer:
    :func:`_permutation_certificate` of the permutation that
    :func:`permutation_to_hessenberg` reads off the exact zeros of ``A``, or
    None where there is none."""
    P = permutation_to_hessenberg(A, 0.0)
    return None if P is None else _permutation_certificate(A, P, mode, s)


def _permutation_certificate(A: np.ndarray, P: np.ndarray, mode: Mode,
                             s: float) -> SimilarityCertificate | None:
    """:func:`_accepted` for a permutation matrix ``P``, by indexing: the
    similarity is exact, ``T^{-1} = P^T`` and ``H = A[p][:, p]`` with
    ``P[:, j] = e_{p_j}``, so the certificate needs no SVD, inverse or
    product.  Its fields are bit for bit those :func:`_accepted` computes for
    ``P``: residual 0, ``cond_T`` 1 and both violations read off the indexed
    ``H``, which :func:`_holds` judges as it judges every frame.  None where
    it fails, which a permutation read off the exact zeros of an admitted
    ``A`` never does."""
    p = P.argmax(axis=0)
    H = A[np.ix_(p, p)]
    hessenberg, sign = _hessenberg_violation(H), _sign_violation(H, mode)
    min_T = float(P.min())
    if not _holds(inf_norm(A), 0.0, hessenberg, sign, min_T, RESIDUAL_BOUND):
        return None
    return SimilarityCertificate(
        T=P, T_inv=np.ascontiguousarray(P.T), H=s * H, residual_similarity=0.0,
        min_entry_T=min_T, hessenberg_violation=s * hessenberg,
        sign_violation=s * sign, mode=mode, cond_T=1.0)


def _checked(A: np.ndarray, b: np.ndarray, T: np.ndarray | None, mode: Mode,
             s: float, name: str) -> SimilarityCertificate:
    """:func:`_accepted` for a controller construction's frame of the pair
    ``(s * A, b)``; ConstructionDefect carrying the pair where there is no
    frame (``T`` None) or it fails: a bug, not an obstruction."""
    cert = None if T is None else _accepted(A, T, mode, s)
    if cert is None:
        raise ConstructionDefect(
            f"{name}: no frame certifies although the input passed the "
            f"obstruction test; A = {(s * A).tolist()}, b = {b.tolist()}")
    return cert


def verify_certificate(A, cert: SimilarityCertificate, tol: float = 1e-8) -> bool:
    """Re-derive every certificate metric from scratch and test it against ``tol``.

    An independent inversion recomputes ``T^{-1}``; nothing stored in the
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
    mode, norm_A = Mode(cert.mode), inf_norm(A)
    T, d, _ = _unit_columns(T)
    H = H * d[:, None] / d
    if not _holds(norm_A, inf_norm(A @ T - T @ H), _hessenberg_violation(H),
                  _sign_violation(H, mode), float(T.min()), tol):
        return False
    T_inv = np.linalg.inv(T)
    return inf_norm(T_inv @ A @ T - H) <= tol * norm_A * inf_norm(T_inv) * inf_norm(T)


# ---------------------------------------------------------------------------
# rank-one-minus-shift family
# ---------------------------------------------------------------------------

def rank_one_shift_detect(A, tol: float | None = None) -> RankOneShiftForm | None:
    """Detect membership in the family ``A = c (u v^T - s I)`` with u, v > 0.

    Equivalent characterisation: the second eigenvalue is real negative with
    geometric multiplicity n - 1.  Both are cross-checked on one SVD of
    ``A - lam_2 I``; anything short of full agreement returns ``None``.
    """
    A = as_square(A)
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError("rank_one_shift_detect requires a nonnegative matrix")
    n, norm = A.shape[0], inf_norm(A)
    if n < 2 or norm <= t:
        return None
    vals = _eigenvalues(A)
    # membership forces the trailing n-1 eigenvalues to coincide; a multiple
    # root computed numerically splits by up to ~eps^(1/multiplicity), so the
    # grouping screen is loose and the rank-one and reconstruction tests below
    # are the precise arbiters
    trailing = vals[1:]
    lam2c = complex(np.mean(trailing))
    screen = 1e-4 * norm
    if np.max(np.abs(trailing - lam2c)) > screen:
        return None
    if abs(lam2c.imag) > screen or lam2c.real >= -t:
        return None
    lam2 = float(lam2c.real)
    # geometric multiplicity n - 1 is rank one; s[0] >= ||A||_2 / 2 > 0 here
    U, s, Vt = np.linalg.svd(A - lam2 * np.eye(n))
    if s[1] > 1e-8 * s[0]:
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
    if inf_norm(form.reconstruct() - A) > 1e-8 * norm:
        return None
    return form


def _family_obstruction(A: np.ndarray, s: float, t: float) -> Obstruction | None:
    """The obstruction of an n x n nonnegative ``Â`` (n >= 3, unit scale,
    rounding threshold ``t``) in the family ``c (u v^T - s I)``, or None off
    it; the one builder of NEG_EIG_GEOM_MULT.  ``c``, ``lambda2`` and
    ``reconstruction_residual``, the misfit of the reported ``(c, u, v, s)``
    against ``Â``, are in the units of the input, whose ``||A||_inf`` is the
    argument ``s``."""
    form = rank_one_shift_detect(A, t)
    if form is None:
        return None
    lam2 = -form.c * form.s
    return Obstruction(ObstructionKind.NEG_EIG_GEOM_MULT, data={
        "lambda2": s * lam2,
        # rank_one_shift_detect has checked it is n - 1 at this lam2
        "geometric_multiplicity": A.shape[0] - 1,
        "u": form.u, "v": form.v, "s": form.s, "c": s * form.c,
        "reconstruction_residual": s * inf_norm(form.reconstruct() - A),
    })


# ---------------------------------------------------------------------------
# commuting boundary placement
# ---------------------------------------------------------------------------

def _perron_coincident(A: np.ndarray, b: np.ndarray, lam1: float,
                       norm_b: float) -> tuple[bool, float]:
    """Whether ``A b = lam1 b`` within ``1e-8 ||A||_inf ||b||_inf``, ``norm_b``
    being ``||b||_inf``, and the residual."""
    resid = inf_norm(A @ b - lam1 * b)
    threshold = 1e-8 * inf_norm(A) * norm_b
    if threshold < resid <= 10 * threshold:
        level = 2  # the first caller outside this module, however deep the call
        while sys._getframe(level - 1).f_globals["__name__"] == __name__:
            level += 1
        warnings.warn("input vector is within 10x of the Perron-coincidence "
                      "threshold; the verdict may be sensitive to noise",
                      stacklevel=level)
    return resid <= threshold, resid


def _perron_pair_input(A, b, tol: float | None, name: str) -> tuple:
    """The checks :func:`fix_b_boundary` and :func:`eigvec_b_transform` share;
    ``A``, ``b``, the zero threshold, the canonical spectrum, the Perron test."""
    A = as_square(A)
    b = nonneg_vector(b, A.shape[0], name)
    t = zero_tolerance(A, tol)
    if np.min(A) < -t:
        raise InputError(f"{name} requires a nonnegative matrix")
    if not _strongly_connected((np.abs(A) > t) & _masks(A.shape[0])[1]):
        raise InputError(f"{name} requires an irreducible matrix")
    vals = _eigenvalues(A)
    return A, b, t, vals, *_perron_coincident(A, b, float(vals[0].real), inf_norm(b))


def fix_b_boundary(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` commuting with ``A`` that moves ``b`` onto the orthant
    boundary, :func:`_resolvent_frame` behind its checks; PerronVectorError
    when ``A b = lam_1 b`` within tolerance (no such T exists)."""
    A, b, _, _, coincident, _ = _perron_pair_input(A, b, tol, "fix_b_boundary")
    if coincident:
        raise PerronVectorError(
            "b is the Perron eigenvector; no commuting transform can move it "
            "to the orthant boundary")
    return _resolvent_frame(A, b)


def _resolvent_frame(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For ``b > 0``, ``T = (sigma I - A)^{-1}`` with ``sigma = max_i (A b)_i / b_i``.
    By Collatz-Wielandt, ``sigma > rho(A)`` for an irreducible nonnegative
    ``A`` and a positive ``b`` that is not the Perron eigenvector, so
    ``T = sum_k A^k / sigma^{k+1}`` is a positive polynomial in ``A`` and
    ``T^{-1} A T = A``.  ``T^{-1} b = sigma b - A b >= 0`` vanishes where the
    ratio is largest.  A ``b`` with a zero entry is already on the boundary
    and gets ``T = I``."""
    n = A.shape[0]
    if np.min(b) <= zero_tolerance(b):
        return np.eye(n)
    sigma = float(np.max(A @ b / b))
    return np.maximum(np.linalg.inv(sigma * np.eye(n) - A), 0.0)  # a positive series


# ---------------------------------------------------------------------------
# 2x2 controller-Hessenberg form (discrete time)
# ---------------------------------------------------------------------------

def dt_hess_2(A, b, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Nonnegative frame ``T = (b | p)`` with ``T^{-1} A T >= 0`` and
    ``T^{-1} b ~ e_1`` for a 2x2 nonnegative pair, or the obstruction, which
    occurs exactly when ``lam_2 < 0`` and ``b`` is the Perron eigenvector.
    The frame is that of :func:`_dt_frame` for the unit-scale pair, and this
    function certifies it.  ``T[:, 0]`` is ``b / ||b||_inf``.
    """
    A, s, t = _admitted(A, Mode.NONNEG, "dt_hess_2", 2, tol)
    b = nonneg_vector(b, 2, "dt_hess_2")
    frame = _dt_frame(A, b, t)
    if isinstance(frame, tuple):
        lam1, lam2, resid = frame
        return Obstruction(ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
                           data={"lambda1": s * lam1, "lambda2": s * lam2,
                                 "residual": s * inf_norm(b) * resid, "b": b})
    return _checked(A, b, frame, Mode.NONNEG, s, "dt_hess_2")


def _dt_frame(A: np.ndarray, b: np.ndarray, t: float
              ) -> np.ndarray | tuple[float, float, float]:
    """The 2x2 controller step, the one place that decides its obstruction:
    ``T = (b / ||b||_inf | p) >= 0`` with ``T^{-1} A T >= 0`` for a nonnegative
    ``A`` (rounding threshold ``t``, any scale) and a nonnegative nonzero ``b``,
    or the obstruction's ``(lam_1, lam_2, residual)`` at ``||b||_inf = 1``.

    ``p = A b - m b``, with ``m`` the least of ``tr A`` and the ratios
    ``(A b)_i / b_i`` on the support of ``b``, gives by Cayley-Hamilton
    ``H = [[m, (tr A - m) m - det A], [1, tr A - m]] >= 0``: ``m <= lam_1``
    (Collatz-Wielandt), the least ratio is at least its ``a_kk >= lam_2``,
    and ``0 <= m <= tr A``.  At the ratio ``p`` is on the axis ``e_{1-k}``,
    which the frame takes, also for a ratio within ``t`` of ``tr A`` (so
    ``p`` stays off ``b`` at ``lam_2 ~ 0``); at ``tr A``,
    ``p = -det(A) A^{-1} b``.  The caller certifies the frame."""
    b = b / inf_norm(b)
    R, lam2 = _shift_to_rank_one(A)
    if lam2 < -t:
        lam1 = lam2 + R[0, 0] + R[1, 1]
        coincident, resid = _perron_coincident(A, b, lam1, 1.0)
        if coincident:
            return lam1, lam2, resid

    Ab, trace = A @ b, np.trace(A)
    ratios = np.where(b > zero_tolerance(b), Ab / np.maximum(b, 1e-300), np.inf)
    k = int(np.argmin(ratios))
    p = np.eye(2)[:, 1 - k] if ratios[k] <= trace + t else np.maximum(Ab - trace * b, 0.0)
    return np.column_stack([b, p])


# ---------------------------------------------------------------------------
# Perron-input frame by deflation
# ---------------------------------------------------------------------------

def eigvec_b_transform(A, b, tol: float | None = None) -> np.ndarray:
    """Nonnegative ``T`` with ``T^{-1} b = e_1`` and ``T^{-1} A T >= 0`` upper
    triangular when ``b`` is the positive Perron eigenvector of an irreducible
    nonnegative matrix with real nonnegative spectrum (n <= 4):
    :func:`_deflation_frame` behind its checks."""
    A, b, t, vals, coincident, resid = _perron_pair_input(A, b, tol, "eigvec_b_transform")
    if A.shape[0] > 4:
        raise InputError("eigvec_b_transform supports n <= 4")
    if np.min(b) <= zero_tolerance(b):
        raise InputError("eigvec_b_transform requires a strictly positive vector")
    if np.max(np.abs(vals.imag)) > t or np.min(vals.real) < -t:
        raise InputError("spectrum must be real and nonnegative")
    if not coincident:
        raise InputError(f"b is not the Perron eigenvector (residual {resid:.3e})")
    T = _deflation_frame(A, b, vals.real, t)
    if np.min(np.linalg.solve(T, A @ T)) < -1e-7 * inf_norm(A):
        raise ConstructionDefect("conjugated matrix failed to stay nonnegative")
    return T


def _deflation_frame(A: np.ndarray, b: np.ndarray, lam: np.ndarray, t: float
                     ) -> np.ndarray:
    """The frame of :func:`eigvec_b_transform` for ``A``'s real spectrum
    ``lam`` in descending order and its rounding threshold ``t``.

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
    n = A.shape[0]
    V = np.linalg.qr(np.column_stack([b, np.eye(n)]))[0][:, 1:]
    for j, mu in enumerate(lam[1:n - 1]):
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

    return np.maximum(np.column_stack([b, V + np.outer(b, alpha)]), 0.0)


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
# the lead loop and the 3x3 Hessenberg constructions
# ---------------------------------------------------------------------------

def _lead_loop(A: np.ndarray, s: float, mode: Mode, leads, step,
               name: str) -> SimilarityCertificate:
    """The one reduction of the exact Hessenberg constructions, on a snapped
    unit-scale ``Â`` (scale ``s``): the certificate of :func:`_permuted`
    where a permutation to upper Hessenberg form exists (an exact frame, so
    it always passes its check and never falls through to the leads), else
    of the first lead frame ``T = (e_k | T_B on the rows B)`` that
    :func:`_accepted` accepts, ``B`` the indices after ``k`` in cyclic order.
    ``step(A[B, B], A[B, k])`` gives ``T_B >= 0`` with ``T_B^{-1} A[B, k]`` on
    ``e_1`` and ``T_B^{-1} A[B, B] T_B`` upper Hessenberg in the signs of
    ``mode``, so ``T^{-1} A T`` is too, its first row ``(a_kk, A[k, B] T_B)``;
    the obstruction's tuple where that pair obstructs, or None where no frame
    forms.  A lead whose frame fails in floating point passes to the next;
    none serving raises, with the reason of each."""
    cert = _permuted(A, mode, s)
    if cert is not None:
        return cert
    n, failures = A.shape[0], []
    for k in leads:
        B = [(k + j) % n for j in range(1, n)]
        try:
            TB = step(A[np.ix_(B, B)], A[B, k])
        except (InputError, ConstructionDefect) as exc:
            failures.append((k, str(exc)))
            continue
        if not isinstance(TB, np.ndarray):
            failures.append((k, "obstructed" if isinstance(TB, tuple) else "no frame"))
            continue
        T = np.zeros((n, n))
        T[k, 0] = 1.0
        T[B, 1:] = TB
        cert = _accepted(A, T, mode, s)
        if cert is not None:
            return cert
        failures.append((k, "the frame fails its certificate"))
    raise ConstructionDefect(
        f"{name}: nothing served although the construction is total off its "
        f"obstruction; A = {(s * A).tolist()}; per lead: {failures}")


def nonneg_hess_3(A, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Decide 3x3 nonnegative Hessenberg similarity: a verified certificate or
    the rank-one-minus-shift obstruction.

    A 3x3 nonnegative matrix has a nonnegative Hessenberg form unless it is
    ``c (u v^T - s I)``.  Off that family, :func:`_lead_loop` serves: a
    permutation when one moves an off-diagonal zero to (2, 0), otherwise
    (every off-diagonal entry positive) the 2x2 step :func:`_dt_frame` of
    some trailing pair, its leads tried in the order (2, 0, 1).  All three
    failing off the family contradicts the characterisation and raises.
    """
    A, s, t = _admitted(A, Mode.NONNEG, "nonneg_hess_3", 3, tol)
    obstruction = _family_obstruction(A, s, t)
    if obstruction is not None:
        return obstruction
    return _lead_loop(A, s, Mode.NONNEG, (2, 0, 1),
                      lambda A2, v: _dt_frame(A2, v, t), "nonneg_hess_3")


def _shift_to_rank_one(A2: np.ndarray) -> tuple[np.ndarray, float]:
    """``(A2 - lam I, lam)`` for a 2x2 Metzler ``A2`` and ``lam`` its smaller
    (real) eigenvalue; ``A2 - lam I`` is nonnegative, of rank at most one.
    With ``h = (a - d) / 2`` its diagonal is ``|h| + r`` and ``bc / (|h| + r)``,
    ``r = sqrt(h^2 + bc)``, and ``lam = min(a, d) - bc / (|h| + r)``, each
    free of cancellation, so the rank holds to rounding even near scalar."""
    (a, b), (c, d) = A2
    h = 0.5 * (a - d)
    big = abs(h) + float(np.hypot(h, np.sqrt(b * c)))
    small = b * c / big if big > 0 else 0.0
    shifted = np.array([[big, b], [c, small]] if h >= 0 else [[small, b], [c, big]])
    return shifted, min(a, d) - small


def _rank_one_step(A2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 2x2 Metzler step: :func:`_dt_frame` for the rank-one shift
    ``A2 - lam I``, which has no negative eigenvalue, so it cannot obstruct;
    the shift moves only the diagonal, so ``T2^{-1} A2 T2`` is Metzler."""
    R = _shift_to_rank_one(A2)[0]  # exact to its rounding: tested at its own scale
    return _dt_frame(R, v, zero_tolerance(R))


def metzler_hess_3(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 3x3 Metzler matrix (always succeeds),
    with ``T >= 0``.

    :func:`_lead_loop` with the lead 0 and :func:`_rank_one_step`: without a
    permutation ``A[2, 0] != 0``, so the step's ``b = A[1:, 0]`` is nonzero.
    """
    A, s, _ = _admitted(A, Mode.METZLER, "metzler_hess_3", 3, tol)
    return _lead_loop(A, s, Mode.METZLER, (0,), _rank_one_step, "metzler_hess_3")


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


def _finish_controller(A1: np.ndarray, T1: np.ndarray, norm_A1: float) -> np.ndarray:
    """``T1`` with the trailing 2x2 controller step appended where the first
    column of ``T1^{-1} A1 T1`` (``||A1||_inf = norm_A1``) leaks below the
    diagonal; the step cannot obstruct (that block is A1 on a plane, whose
    spectrum is positive)."""
    H1 = np.linalg.solve(T1, A1 @ T1)
    b_sub = np.maximum(H1[1:, 0], 0.0)
    if inf_norm(b_sub) > 1e-12 * norm_A1:
        # run the trailing reduction even for small subdiagonal leakage; it
        # actively zeroes the corner entry instead of trusting loose bounds
        block = np.maximum(H1[1:, 1:], 0.0)
        T1[:, 1:] = T1[:, 1:] @ _dt_frame(block, b_sub, zero_tolerance(block))
    return T1


def _controller_frame_reducible(A1: np.ndarray, b: np.ndarray, lam3: float
                                ) -> np.ndarray | None:
    """Frame ``T = (b | p | q) >= 0``, trailing step included, for a reducible
    nonnegative 3x3 matrix with positive real spectrum, or None where a step
    cannot be formed.  ``T^{-1} A1 T`` is nonnegative upper Hessenberg in exact
    arithmetic; the caller's certificate check decides it in floating point.

    The caller passes the smallest eigenvalue ``lam3``, which is at most every
    diagonal entry, so ``Ahat = A1 - lam3 I >= 0``, and its range ``Pi`` is
    A1-invariant.  When ``Ahat`` has rank 2, with ``g1, g2`` the extreme rays
    of ``Pi`` cut with the orthant, one frame serves each case:

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
    Ahat = np.maximum(A1 - lam3 * np.eye(n), 0.0)
    U, s, _ = np.linalg.svd(Ahat)
    norm_A1 = inf_norm(A1)
    rank = int(np.count_nonzero(s > 1e-9 * norm_A1))
    bnorm = b / max(inf_norm(b), 1e-300)

    if rank == 2:
        # the SVD's plane is accurate to about (eps ||Ahat|| + s3) / s2
        rays = _plane_orthant_rays(U[:, :2], (1e-14 * s[0] + s[2]) / s[1])
        if rays is None:
            return None
        if abs(U[:, 2] @ bnorm) <= 1e-7:
            return _invariant_plane_frame(Ahat, lam3, bnorm, U, rays)
        return _finish_controller(A1, np.column_stack([bnorm, *rays]), norm_A1)

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


def _reducible_after_subtraction(A2: np.ndarray, b2: np.ndarray, t: float
                                 ) -> tuple[np.ndarray, float]:
    """``A2 + sigma I - b2 alpha^T``, nonnegative and reducible with positive
    real spectrum, and its least eigenvalue, for ``b2`` with a zero entry: the
    state feedback ``alpha_j = min a_ij / b_i`` over ``i != j`` in the support
    of ``b2`` (0 on none) clears the least such entry of column ``j``."""
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
    return np.maximum(base + sigma * np.eye(3), 0.0), float(np.min(vals.real)) + sigma


def ct_hess_3(A, b, c=None, tol: float | None = None) -> SimilarityCertificate | Obstruction:
    """Third-order continuous-time positive controller-Hessenberg form.

    Returns a nonnegative ``T`` with first column ``b``, so ``T^{-1} b = e_1``
    (and ``c T >= 0`` for every nonnegative output vector), and ``T^{-1} A T``
    Metzler upper Hessenberg, or the Perron-coincidence obstruction when
    ``A b = lam_1 b`` with a complex pair in the spectrum.  The input checks
    and the pattern are answered here, the rest by :func:`_ct_step` on the
    unit-scale pair, and the one certificate check judges its frame.  A
    missing or failing frame on admissible input is a defect and raises,
    never silently obstructs.
    """
    A, s, t = _admitted(A, Mode.METZLER, "ct_hess_3", 3, tol)
    b = nonneg_vector(b, 3, "ct_hess_3")
    c = np.zeros(3) if c is None else as_vector(c)
    if c.size != 3:
        raise InputError("output vector must have dimension 3")
    if np.min(c) < -zero_tolerance(c):
        raise InputError("ct_hess_3 requires a nonnegative output vector")

    T = _ct_step(A, b, _strongly_connected((A != 0) & _masks(3)[1]), t)
    if isinstance(T, tuple):
        lam1, resid, pair = T
        return Obstruction(ObstructionKind.PERRON_EIGVEC_COINCIDENCE,
                           data={"lambda1": s * lam1, "residual": s * inf_norm(b) * resid,
                                 "complex_pair": [s * z for z in pair], "b": b})
    return _checked(A, b, T, Mode.METZLER, s, "ct_hess_3")


def _ct_step(A: np.ndarray, b: np.ndarray, irreducible: bool, t: float
             ) -> np.ndarray | tuple[float, float, list] | None:
    """The 3x3 controller step for a unit-scale, exactly Metzler ``A``
    (rounding threshold ``t``, ``irreducible`` its pattern's answer) and
    ``b >= 0``, ``b != 0``:
    :func:`_ct_frame` of the shifted pair with ``T[:, 0] = b``, None where no
    frame forms, or the Perron obstruction's ``(lam_1, residual at
    ||b||_inf = 1, complex pair)``.  The caller certifies the frame."""
    bn = b / inf_norm(b)
    vals = _eigenvalues(A)
    # shift to nonnegative entries and a spectrum in the open right
    # half-plane (the transform is shift-invariant); ||A|| = 1 here
    mu = max(0.0, -float(np.min(np.diag(A))), -float(np.min(vals.real))) + 0.25
    A1 = A + mu * np.eye(3)  # nonnegative, its diagonal at least 0.25
    # eig(A1) = eig(A) + mu, and a Metzler matrix's dominant eigenvalue is real
    lam = np.sort(vals.real)[::-1] + mu
    coincident, resid = _perron_coincident(A1, bn, float(lam[0]), 1.0)
    if coincident and np.max(np.abs(vals.imag)) > t:
        return float(lam[0] - mu), resid, [complex(z) for z in vals if abs(z.imag) > t]
    T = _ct_frame(A1, bn, lam, irreducible, coincident, t)
    if T is not None:
        T[:, 0] = b  # so T^{-1} b = e_1 exactly
    return T


def _ct_frame(A1: np.ndarray, b: np.ndarray, lam: np.ndarray, irreducible: bool,
              coincident: bool, t: float) -> np.ndarray | None:
    """The frame for the shifted pair (A1 nonnegative with spectrum in the
    open right half-plane), or None.  ``lam`` (the real parts of A1's
    spectrum, descending), ``irreducible`` (that of the unshifted matrix,
    whose off-diagonal zero pattern ``A1`` keeps) and ``coincident`` are
    :func:`_ct_step`'s answers, not asked again.  A reducible ``A1`` takes
    its frame directly and a positive Perron ``b`` the deflation frame.
    Otherwise, as in the paper, ``T0`` places ``b`` on the orthant boundary
    (a ``b`` with a zero entry is there), the state feedback ``b alpha^T``
    leaves a reducible matrix, and its frame completes ``T``."""
    if not irreducible:
        return _controller_frame_reducible(A1, b, float(lam[-1]))
    if coincident and np.min(b) > zero_tolerance(b):
        return _deflation_frame(A1, b, lam, t)
    T0 = _resolvent_frame(A1, b)
    b0 = np.maximum(np.linalg.solve(T0, b), 0.0)
    zero = b0 <= 10 * t * max(inf_norm(b0), 1e-300)
    order = np.argsort(zero, kind="stable")  # the support of b0 first
    b2 = np.where(zero, 0.0, b0)[order]
    Ab, lam3 = _reducible_after_subtraction(A1[np.ix_(order, order)], b2, t)
    T2 = _controller_frame_reducible(Ab, b2, lam3)
    # T2 conjugates Ab; adding back b2 alpha^T only touches the first row
    return None if T2 is None else T0[:, order] @ T2


# ---------------------------------------------------------------------------
# 4x4 Metzler Hessenberg form
# ---------------------------------------------------------------------------

def metzler_hess_4(A, tol: float | None = None) -> SimilarityCertificate:
    """Metzler Hessenberg form for any 4x4 Metzler matrix (always succeeds).

    :func:`_lead_loop` with the leads 0 to 3.  The trailing step is
    :func:`_ct_step` for the pair ``(A[B, B], A[B, k])``, at that block's own
    unit scale (not snapped again, since ``Â``'s zeros are exact already);
    under a zero column below the lead, where any ``T_B >= 0``
    keeps the row ``A[k, B] T_B`` nonnegative, it is the lead-0 frame of
    :func:`metzler_hess_3` instead.  Some lead is guaranteed to serve, so
    none serving raises with the reason of each.
    """
    A, s, t = _admitted(A, Mode.METZLER, "metzler_hess_4", 4, tol)

    def step(A3: np.ndarray, v: np.ndarray) -> np.ndarray | tuple | None:
        s3 = inf_norm(A3) or 1.0
        A3, t3 = A3 / s3, t / s3
        if inf_norm(v) > 10 * t:
            return _ct_step(A3, v, _strongly_connected((A3 != 0) & _masks(3)[1]), t3)
        T3 = np.eye(3)
        if A3[2, 0] > t3:  # else A3 is upper Hessenberg already
            T3[1:, 1:] = _rank_one_step(A3[1:, 1:], A3[1:, 0])
        return T3

    return _lead_loop(A, s, Mode.METZLER, range(4), step, "metzler_hess_4")
