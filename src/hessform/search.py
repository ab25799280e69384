"""Alternating-projection search for Hessenberg similarity beyond the exactly
characterised dimensions, plus the seeded experiment harness.

Each restart alternates between the similarity coupling (``H`` fitted to
``T``, then ``T`` refitted to ``H`` as the smallest singular vector of
``I (x) A - H^T (x) I``) and the structure set (mode-feasible upper Hessenberg
``H``, entrywise nonnegative ``T``).  A restart counts as a success only when
the exactly recomputed ``T^{-1} A T`` violates the structure by at most
``RESIDUAL_BOUND * ||A||_inf`` and the resulting certificate re-verifies from
scratch at that bound.

The alternation cannot tell ``A`` from ``A - sI``: the fit gives ``H - sI``,
the nonneg diagonal floor ``-s`` on it is ``diag(H) >= 0``, and
``I (x) (A - sI) - (H - sI)^T (x) I`` is the same matrix.  So it runs on ``A``
itself, and a search builds ``I (x) A``, the structure masks and the scale
``||A||_inf`` once for all its restarts.  The exact ``H = T^{-1} A T`` that
judges an iterate is the next iteration's fit, so an iteration pays for a
singularity test (a small SVD), that solve and the SVD of the Kronecker refit;
lstsq fits only after a singular ``T``.  The reports are bit-identical to
rebuilding the Kronecker block and the masks on every iteration.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionDefect, InputError
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

def _masks(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Indices below the subdiagonal and the off-diagonal mask of an n x n H."""
    return np.tril_indices(n, k=-2), ~np.eye(n, dtype=bool)


def _clip_structure(H: np.ndarray, mode: Mode, masks) -> np.ndarray:
    low, off = masks
    out = H.copy()
    out[low] = 0.0
    out[off] = np.maximum(out[off], 0.0)
    if mode is Mode.NONNEG:
        np.fill_diagonal(out, np.maximum(np.diag(out), 0.0))
    return out


def _structure_violation(H: np.ndarray, mode: Mode, masks) -> float:
    low, off = masks
    viol = float(np.abs(H[low]).max()) if low[0].size else 0.0
    viol = max(viol, float(-min(0.0, H[off].min())))
    if mode is Mode.NONNEG:
        viol = max(viol, float(-min(0.0, np.diag(H).min())))
    return viol


def _exact_violation(A: np.ndarray, T: np.ndarray, mode: Mode, masks,
                     scale: float) -> tuple[float, np.ndarray | None]:
    """Structure violation of ``H = T^{-1} A T`` over ``scale``, and that ``H``;
    (inf, None) if T is singular."""
    svals = np.linalg.svd(T, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        return np.inf, None
    H = np.linalg.solve(T, A @ T)
    return _structure_violation(H, mode, masks) / scale, H


def _refit_T(kron_A: np.ndarray, H: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Minimiser direction of ||A T - T H||_F via the smallest singular pair.

    ``kron_A`` is ``I (x) A``, built once per search.  ``H^T (x) I`` is formed
    by broadcasting: the same IEEE products as np.kron, signed zeros included,
    so M and the report are bit-identical to building both blocks with np.kron.
    """
    n = H.shape[0]
    M = kron_A - (H.T[:, None, :, None] * eye[None, :, None, :]).reshape(n * n, n * n)
    _, _, vt = np.linalg.svd(M)
    T = vt[-1].reshape((n, n), order="F")
    return -T if T.sum() < 0 else T


def _alternate(T: np.ndarray, H: np.ndarray | None, A: np.ndarray,
               kron_A: np.ndarray, eye: np.ndarray, masks, mode: Mode) -> np.ndarray:
    """One alternation from ``T``: clip its fit ``H`` to the structure, refit
    T to H, clip T to the nonnegative orthant and normalise its columns.  The
    fit is the exact ``T^{-1} A T`` of the last violation check, or an lstsq
    fit when ``T`` failed its singularity test there (``H`` is None)."""
    if H is None:
        H = np.linalg.lstsq(T, A @ T, rcond=None)[0]
    H = _clip_structure(H, mode, masks)
    T_new = np.maximum(_refit_T(kron_A, H, eye), 0.0)
    colsums = T_new.sum(axis=0)
    dead = colsums <= 1e-12
    if dead.any():
        T_new[:, dead] += eye[:, dead]
        colsums = T_new.sum(axis=0)
    return T_new / colsums


def _restart(A: np.ndarray, mode: Mode, cfg: AltProjConfig,
             rng: np.random.Generator, eye: np.ndarray, kron_A: np.ndarray,
             masks, scale: float) -> tuple[np.ndarray, float, int]:
    """One restart of the alternation from a seeded ``T``; returns the best
    iterate, its violation and the number of iterations."""
    T = eye + rng.uniform(0.0, 1.0, size=A.shape)
    best_v, H = _exact_violation(A, T, mode, masks, scale)
    best_T = T
    for iters in range(1, cfg.max_iters + 1):
        T_new = _alternate(T, H, A, kron_A, eye, masks, mode)
        v, H = _exact_violation(A, T_new, mode, masks, scale)
        if v < best_v:
            best_T, best_v = T_new, v
            if v <= RESIDUAL_BOUND:
                break
        stop = inf_norm(T_new - T) <= STEP_TOLERANCE * inf_norm(T)
        T = T_new
        if stop:
            break
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

    # The alternation cannot tell A from A - sI (the fit, the nonneg diagonal
    # floor and M all shift with it), so every restart works on A itself.
    n = A.shape[0]
    eye, masks, scale = np.eye(n), _masks(n), inf_norm(A) or 1.0
    kron_A = np.kron(eye, A)
    logs: list[RestartLog] = []
    best_cert: SimilarityCertificate | None = None
    best_violation = np.inf
    successes = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        T, v, iters = _restart(A, mode, cfg, rng, eye, kron_A, masks, scale)
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
        logs.append(RestartLog(restart=r, iterations=iters,
                               final_violation=float(v), success=success))
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

    rank-one-shift draws in nonneg mode at n >= 3 are asserted infeasible by
    the exact membership test (the obstruction holds in every such dimension),
    so they count zero successes by construction.  At n = 2 every matrix is
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
        if generator is Generator.PROP1_FAMILY and mode is Mode.NONNEG and n >= 3:
            form = rank_one_shift_detect(np.maximum(A, 0.0))
            if form is None:
                raise ConstructionDefect(
                    "family draw escaped its own membership test")
            logs.append(RestartLog(trial, 1, np.inf, False))
            continue
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
