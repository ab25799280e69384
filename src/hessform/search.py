"""Alternating-projection search for Hessenberg similarity beyond the exactly
characterised dimensions, plus the seeded experiment harness.

Each restart alternates between the similarity coupling (``H`` fitted to
``T``, then ``T`` refitted to ``H`` as the minimiser direction of
``||A T - T H||_F``) and the structure set (mode-feasible upper Hessenberg
``H``, entrywise nonnegative ``T``).  A restart counts as a success only when
the exactly recomputed ``T^{-1} A T`` violates the structure by at most
``RESIDUAL_BOUND * ||A||_inf`` and the resulting certificate re-verifies from
scratch at that bound.

The alternation cannot tell ``A`` from ``A - sI``: the fit gives ``H - sI``,
the nonneg diagonal floor ``-s`` on it is ``diag(H) >= 0``, and
``I (x) (A - sI) - (H - sI)^T (x) I`` is the same matrix.  So it runs on ``A``
itself, and a search builds ``I (x) A``, the structure masks and the scale
``||A||_inf`` once for all its restarts.  The restarts run in lockstep, up to
LOCKSTEP_BLOCK of them on one stack of arrays, so each numpy kernel is one
call for all active restarts; stacked and per-matrix calls agree bit for bit,
and the reports equal those of running the restarts one after the other.
The exact ``H = T^{-1} A T`` that judges an iterate is the next iteration's
fit, so an iteration pays for a singularity test (a small SVD), that solve
and the symmetric eigensolve of the ``n^2 x n^2`` Gram matrix of the refit;
lstsq fits only after a singular ``T``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import as_square, classify, inf_norm, zero_tolerance
from .transforms import (
    RESIDUAL_BOUND,
    Mode,
    Obstruction,
    ObstructionKind,
    SimilarityCertificate,
    identity_certificate,
    make_certificate,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
    rank_one_shift_detect,
    verify_certificate,
)

__all__ = [
    "AltProjConfig",
    "Generator",
    "RestartLog",
    "SearchReport",
    "altproj_hess",
    "exact_hessenberg",
    "random_experiment",
    "sample_matrix",
]


#: A restart stops once a step moves ``T`` by at most this fraction of ``||T||_inf``.
STEP_TOLERANCE = 1e-12

#: Restarts advanced together on one stack.  It bounds the stacked
#: ``n^2 x n^2`` Kronecker blocks a search holds, whatever ``restarts`` is.
LOCKSTEP_BLOCK = 8


@dataclass(frozen=True)
class AltProjConfig:
    """Knobs for the alternating-projection search.

    ``seed`` is mandatory on purpose: restarts draw their initial transforms
    from per-restart streams derived from ``(seed, restart_index)``, so equal
    inputs give equal reports.  Each of the ``restarts`` runs at most
    ``max_iters`` alternations on ``A`` itself, and fewer once its steps
    stall (:data:`STEP_TOLERANCE`).
    """

    seed: int
    max_iters: int = 400
    restarts: int = 8

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise InputError("iteration and restart counts must be positive")


@dataclass(frozen=True)
class RestartLog:
    restart: int
    iterations: int
    final_violation: float
    success: bool


@dataclass(frozen=True, eq=False)
class SearchReport:
    attempts: int
    successes: int
    best_certificate: SimilarityCertificate | None
    best_violation: float
    logs: tuple[RestartLog, ...] = field(default_factory=tuple)


class Generator(str, enum.Enum):
    DENSE_UNIFORM = "dense-uniform"
    SPARSE_PATTERN = "sparse-pattern"
    PROP1_FAMILY = "rank-one-shift"


# ---------------------------------------------------------------------------
# structure projections
# ---------------------------------------------------------------------------

def _masks(n: int, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """The entries below the subdiagonal of an n x n ``H``, which must vanish,
    and those the mode floors at zero: the off-diagonal ones for Metzler, all
    of them for nonneg."""
    low = np.tri(n, k=-2, dtype=bool)
    floor = np.ones((n, n), dtype=bool) if mode is Mode.NONNEG else ~np.eye(n, dtype=bool)
    return low, floor


def _clip_structure(H: np.ndarray, masks) -> np.ndarray:
    """Nearest mode-feasible upper Hessenberg matrix to each of a stack of H."""
    low, floor = masks
    out = np.where(floor, np.maximum(H, 0.0), H)
    out[:, low] = 0.0
    return out


def _structure_violation(H: np.ndarray, masks) -> np.ndarray:
    """Largest structure violation of each of a stack of H; an empty mask
    (n <= 2 below the subdiagonal, n = 1 off the diagonal) scores 0."""
    low, floor = masks
    sub = np.abs(H[:, low]).max(axis=1, initial=0.0)
    # np.maximum returns its second operand on a tie, so with 0.0 second a
    # minimum of +0.0 or -0.0 scores +0.0, as Python's max(0.0, -0.0) does
    return np.maximum(sub, np.maximum(-H[:, floor].min(axis=1, initial=0.0), 0.0))


def _exact_violation(A: np.ndarray, T: np.ndarray, masks,
                     scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Structure violation over ``scale`` of each ``H = T^{-1} A T`` of a stack
    of T, and those H.  A singular T scores inf and leaves its row of H unset."""
    svals = np.linalg.svd(T, compute_uv=False)
    ok = svals[:, -1] > 1e-12 * np.maximum(svals[:, 0], 1.0)
    v, H = np.full(len(T), np.inf), np.empty_like(T)
    H[ok] = np.linalg.solve(T[ok], A @ T[ok])
    v[ok] = _structure_violation(H[ok], masks) / scale
    return v, H


def _refit_T(kron_A: np.ndarray, H: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Minimiser direction of ||A T - T H||_F for each of a stack of H: the
    eigenvector of the smallest eigenvalue of the Gram matrix ``M^T M``,
    ``M = I (x) A - H^T (x) I``, as an n x n matrix of nonnegative sum.

    ``kron_A`` is ``I (x) A``, built once per search.  ``H^T (x) I`` is formed
    by broadcasting: the same IEEE products as np.kron, signed zeros included.
    """
    k, n = H.shape[:2]
    HT_kron_I = H.transpose(0, 2, 1)[:, :, None, :, None] * eye[None, None, :, None, :]
    M = kron_A - HT_kron_I.reshape(k, n * n, n * n)
    vec = np.linalg.eigh(M.transpose(0, 2, 1) @ M)[1][:, :, 0]
    T = vec.reshape(k, n, n).transpose(0, 2, 1)  # each column of vec in F order
    return np.where(T.sum(axis=(1, 2))[:, None, None] < 0, -T, T)


def _alternate(T: np.ndarray, H: np.ndarray, singular: np.ndarray, A: np.ndarray,
               kron_A: np.ndarray, eye: np.ndarray, masks) -> np.ndarray:
    """One alternation from each of a stack of T, for the restarts that run
    in lockstep: clip its fit ``H`` to the structure, refit T to H, clip T to
    the nonnegative orthant and normalise its columns.  The fit is the exact
    ``T^{-1} A T`` of the last violation check.  Where ``T`` failed the
    singularity test there, the row of ``H`` is unset and lstsq fills it in
    place, one matrix at a time, since ``np.linalg.lstsq`` takes no stacks.

    The refit solves the eigenproblem of ``G = M^T M`` rather than the SVD of
    ``M``, at about half the cost for ``n = 5``.  That squares the condition:
    the direction's error grows from ``eps ||M|| / (s2 - s1)`` to
    ``eps ||M||^2 / (s2^2 - s1^2)``, for the two smallest singular values
    ``s1 < s2`` of ``M``.  The error only moves the next iterate.  An iterate
    is accepted by the exact ``T^{-1} A T`` of :func:`_exact_violation` and
    then by the certificate check at RESIDUAL_BOUND, so a less precise refit
    can cost a success but never admits a wrong certificate."""
    for i in np.flatnonzero(singular):
        H[i] = np.linalg.lstsq(T[i], A @ T[i], rcond=None)[0]
    T_new = np.maximum(_refit_T(kron_A, _clip_structure(H, masks), eye), 0.0)
    colsums = T_new.sum(axis=1)
    dead = colsums <= 1e-12
    if dead.any():
        rows, cols = np.nonzero(dead)
        T_new[rows, :, cols] += eye[cols]
        colsums = T_new.sum(axis=1)
    return T_new / colsums[:, None, :]


def _restarts(A: np.ndarray, mode: Mode, cfg: AltProjConfig
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every restart of the alternation, each from ``T = I + U(0, 1)`` drawn
    from its stream ``(cfg.seed, r)``; returns each one's best iterate, its
    violation and its number of iterations.

    The restarts run in lockstep, LOCKSTEP_BLOCK at a time, on stacked arrays
    of the ones still active.  A restart whose start already scores within
    RESIDUAL_BOUND takes 0 iterations.  Any other leaves the stack at its
    first improving violation within RESIDUAL_BOUND, else when its step stalls
    (:data:`STEP_TOLERANCE`), else after ``cfg.max_iters`` alternations.
    """
    # The alternation cannot tell A from A - sI (the fit, the nonneg diagonal
    # floor and M all shift with it), so every restart works on A itself.
    R, n = cfg.restarts, A.shape[0]
    eye, masks, scale = np.eye(n), _masks(n, mode), inf_norm(A) or 1.0
    kron_A = np.kron(eye, A)
    best_T, best_v = np.empty((R, n, n)), np.empty(R)
    iters = np.zeros(R, dtype=int)
    for first in range(0, R, LOCKSTEP_BLOCK):
        rows = np.arange(first, min(first + LOCKSTEP_BLOCK, R))
        T = np.stack([eye + np.random.default_rng([cfg.seed, r]).uniform(0.0, 1.0, size=A.shape)
                      for r in rows])
        v, H = _exact_violation(A, T, masks, scale)
        best_T[rows], best_v[rows] = T, v
        go = v > RESIDUAL_BOUND
        for it in range(1, cfg.max_iters + 1):
            rows, T, H, v = rows[go], T[go], H[go], v[go]
            if not rows.size:
                break
            T_new = _alternate(T, H, v == np.inf, A, kron_A, eye, masks)
            v, H = _exact_violation(A, T_new, masks, scale)
            iters[rows] = it
            better = v < best_v[rows]
            best_T[rows[better]], best_v[rows[better]] = T_new[better], v[better]
            step = np.abs(T_new - T).sum(axis=2).max(axis=1)  # ||.||_inf per row
            stall = step <= STEP_TOLERANCE * np.abs(T).sum(axis=2).max(axis=1)
            go = ~((better & (v <= RESIDUAL_BOUND)) | stall)
            T = T_new
    return best_T, best_v, iters


def altproj_hess(A, mode: Mode, cfg: AltProjConfig) -> SearchReport:
    """Seeded alternating-projection search for a mode-feasible Hessenberg
    similarity.  Failure is data (zero successes), never an exception."""
    A = as_square(A)
    mode = Mode(mode)
    rep = classify(A, zero_tolerance(A))
    if mode is Mode.NONNEG and not rep.is_nonnegative:
        raise InputError("nonneg mode requires a nonnegative matrix")
    if mode is Mode.METZLER and not rep.is_metzler:
        raise InputError("metzler mode requires a Metzler matrix")

    best_T, best_v, iters = _restarts(A, mode, cfg)
    logs: list[RestartLog] = []
    best_cert: SimilarityCertificate | None = None
    best_violation = np.inf
    successes = 0
    for r in range(cfg.restarts):
        T, v = best_T[r], float(best_v[r])
        success = False
        if v <= RESIDUAL_BOUND:
            try:
                cert = make_certificate(A, T, mode)
                success = verify_certificate(A, cert, tol=RESIDUAL_BOUND)
            except InputError:
                success = False
            if success:
                successes += 1
                if v < best_violation or best_cert is None:
                    best_cert = cert
        if v < best_violation:
            best_violation = v
        logs.append(RestartLog(restart=r, iterations=int(iters[r]),
                               final_violation=v, success=success))
    return SearchReport(attempts=cfg.restarts, successes=successes,
                        best_certificate=best_cert,
                        best_violation=float(best_violation),
                        logs=tuple(logs))


# ---------------------------------------------------------------------------
# seeded matrix families
# ---------------------------------------------------------------------------

def sample_matrix(n: int, mode: Mode, generator: Generator,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw one matrix from a named family (used by experiments and tests).

    dense-uniform: off-diagonal entries uniform on [-5, 5] clipped to zero
    from below (so roughly half vanish), diagonal uniform on [-5, 5] in
    Metzler mode and clipped in nonneg mode.  sparse-pattern additionally
    zeroes off-diagonal entries with probability 2/3.  rank-one-shift draws
    from the family c (u v^T - s I) with positive u, v.
    """
    generator = Generator(generator)
    if generator is Generator.PROP1_FAMILY:
        u = rng.uniform(0.1, 2.0, size=n)
        v = rng.uniform(0.1, 2.0, size=n)
        s = rng.uniform(0.0, float(np.min(u * v)))
        c = rng.uniform(0.1, 3.0)
        A = c * (np.outer(u, v) - s * np.eye(n))
        if mode is Mode.METZLER:
            A = A - rng.uniform(0.0, 1.0) * np.eye(n)
        return A
    A = rng.uniform(-5.0, 5.0, size=(n, n))
    off = ~np.eye(n, dtype=bool)
    A[off] = np.maximum(A[off], 0.0)
    if generator is Generator.SPARSE_PATTERN:
        mask = rng.uniform(size=(n, n)) < 2.0 / 3.0
        A[off & mask] = 0.0
    if mode is Mode.NONNEG:
        np.fill_diagonal(A, np.maximum(np.diag(A), 0.0))
    return A


def exact_hessenberg(A: np.ndarray, mode: Mode, tol: float | None = None
                     ) -> SimilarityCertificate | Obstruction | None:
    """The exact construction for ``mode`` at this dimension: a certificate or
    an obstruction, or None where only the heuristic search applies (Metzler
    n >= 5, nonneg n >= 4 outside the rank-one-minus-shift family)."""
    n = A.shape[0]
    if n <= 2:  # already upper Hessenberg; the sign structure is the question
        cert = identity_certificate(A, mode)
        if cert.sign_violation < -zero_tolerance(A, tol):
            raise InputError(f"{mode.value} mode requires a {mode.value} matrix")
        return cert
    if mode is Mode.METZLER:
        if n == 3:
            return metzler_hess_3(A, tol)
        return metzler_hess_4(A, tol) if n == 4 else None
    if n == 3:
        return nonneg_hess_3(A, tol)
    form = rank_one_shift_detect(A, tol)
    if form is None:
        return None
    return Obstruction(ObstructionKind.NEG_EIG_GEOM_MULT,
                       data={"u": form.u, "v": form.v, "s": form.s, "c": form.c})


def random_experiment(n: int, trials: int, seed: int, mode: Mode,
                      generator: Generator) -> SearchReport:
    """Run seeded trials of the named family through :func:`exact_hessenberg`
    or, where it has no construction, the alternating projections, and aggregate.

    rank-one-shift draws in nonneg mode at n >= 3 get the family obstruction
    from the exact membership test (the obstruction holds in every such
    dimension), so they count zero successes.  At n = 2 every matrix is
    already upper Hessenberg, and the draw gets its identity certificate.
    """
    if n < 2:
        raise InputError("experiments need n >= 2")
    if trials < 1:
        raise InputError("trials must be positive")
    mode = Mode(mode)
    generator = Generator(generator)

    logs: list[RestartLog] = []
    best_cert = None
    best_violation = np.inf
    successes = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        A = sample_matrix(n, mode, generator, rng)
        result = exact_hessenberg(A, mode)
        if isinstance(result, SimilarityCertificate):
            v = float(max(result.hessenberg_violation,
                          -min(0.0, result.sign_violation)))
            successes += 1
            if v < best_violation or best_cert is None:
                best_cert = result
                best_violation = v
            logs.append(RestartLog(trial, 1, v, True))
        elif isinstance(result, Obstruction):
            logs.append(RestartLog(trial, 1, np.inf, False))
        else:
            # hashed from (seed, trial), so no two trials share restart streams
            cfg_seed = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
            cfg = AltProjConfig(seed=cfg_seed, restarts=4, max_iters=200)
            rep = altproj_hess(A, mode, cfg)
            got = rep.successes > 0
            successes += int(got)
            if got and rep.best_violation < best_violation:
                best_cert = rep.best_certificate
                best_violation = rep.best_violation
            logs.append(RestartLog(trial, sum(l.iterations for l in rep.logs),
                                   rep.best_violation, got))
    return SearchReport(attempts=trials, successes=successes,
                        best_certificate=best_cert,
                        best_violation=float(best_violation),
                        logs=tuple(logs))
