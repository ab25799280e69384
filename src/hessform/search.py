"""Alternating-projection search for Hessenberg similarity beyond the exactly
characterised dimensions, plus the seeded experiment harness.

The heuristic alternates between the similarity coupling (least-squares fit of
H given T, smallest-singular-vector refit of T given H) and the structure set
(mode-feasible upper Hessenberg H, entrywise nonnegative T).  A restart counts
as a success only when the exactly recomputed ``T^{-1} A T`` satisfies the
structure constraints at the feasibility tolerance and the resulting
certificate re-verifies from scratch.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionDefect, InputError
from .linalg import as_square, classify, inf_norm, metzler_shift, zero_tolerance
from .transforms import (
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


@dataclass(frozen=True)
class AltProjConfig:
    """Knobs for the alternating-projection search.

    ``seed`` is mandatory on purpose: restarts draw their initial transforms
    from per-restart streams derived from ``(seed, restart_index)``, so equal
    inputs give equal reports.
    """

    seed: int
    max_iters: int = 400
    restarts: int = 8
    step_tolerance: float = 1e-12
    feasibility_tol: float = 1e-8
    block_recursive: bool = False

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise InputError("iteration and restart counts must be positive")
        if self.step_tolerance <= 0 or self.feasibility_tol <= 0:
            raise InputError("tolerances must be positive")


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

def _clip_structure(H: np.ndarray, mode: Mode, diag_floor: float = 0.0) -> np.ndarray:
    n = H.shape[0]
    out = H.copy()
    out[np.tril_indices(n, k=-2)] = 0.0
    off = ~np.eye(n, dtype=bool)
    out[off] = np.maximum(out[off], 0.0)
    if mode is Mode.NONNEG:
        d = np.diag(out).copy()
        np.fill_diagonal(out, np.maximum(d, -diag_floor))
    return out


def _structure_violation(H: np.ndarray, mode: Mode) -> float:
    n = H.shape[0]
    viol = 0.0
    if n > 2:
        viol = float(np.max(np.abs(H[np.tril_indices(n, k=-2)])))
    off = ~np.eye(n, dtype=bool)
    viol = max(viol, float(-min(0.0, np.min(H[off]))))
    if mode is Mode.NONNEG:
        viol = max(viol, float(-min(0.0, np.min(np.diag(H)))))
    return viol


def _exact_violation(A: np.ndarray, T: np.ndarray, mode: Mode) -> float:
    svals = np.linalg.svd(T, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        return np.inf
    H = np.linalg.solve(T, A @ T)
    return _structure_violation(H, mode) / max(1.0, inf_norm(A))


def _refit_T(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Minimiser direction of ||A T - T H||_F via the smallest singular pair."""
    n = A.shape[0]
    M = np.kron(np.eye(n), A) - np.kron(H.T, np.eye(n))
    _, _, vt = np.linalg.svd(M)
    T = vt[-1].reshape((n, n), order="F")
    if np.sum(T) < 0:
        T = -T
    return T


def _altproj_single(A: np.ndarray, mode: Mode, cfg: AltProjConfig,
                    rng: np.random.Generator, shift: float,
                    max_iters: int) -> tuple[np.ndarray, float, int]:
    """One restart of the full-matrix alternation; returns (T, violation, iters)."""
    n = A.shape[0]
    A_work = A - shift * np.eye(n)
    T = np.eye(n) + rng.uniform(0.0, 1.0, size=(n, n))
    best_T, best_v = T.copy(), _exact_violation(A, T, mode)
    iters = 0
    for it in range(max_iters):
        iters = it + 1
        H = np.linalg.lstsq(T, A_work @ T, rcond=None)[0]
        H = _clip_structure(H, mode, diag_floor=shift)
        T_new = _refit_T(A_work, H)
        T_new = np.maximum(T_new, 0.0)
        colsums = np.sum(T_new, axis=0)
        dead = colsums <= 1e-12
        if np.any(dead):
            T_new[:, dead] += np.eye(n)[:, dead]
            colsums = np.sum(T_new, axis=0)
        T_new = T_new / colsums
        v = _exact_violation(A, T_new, mode)
        if v < best_v:
            best_T, best_v = T_new.copy(), v
            if v <= cfg.feasibility_tol:
                break
        if inf_norm(T_new - T) <= cfg.step_tolerance * max(1.0, inf_norm(T)):
            T = T_new
            break
        T = T_new
    return best_T, best_v, iters


def _altproj_block_recursive(A: np.ndarray, mode: Mode, cfg: AltProjConfig,
                             rng: np.random.Generator, shift: float,
                             max_iters: int) -> tuple[np.ndarray, float, int]:
    """Nested block parameterisation: peel one dimension per level by pinning
    the current subdiagonal column as the first frame column."""
    n = A.shape[0]
    total_iters = 0

    def level(M: np.ndarray) -> np.ndarray:
        nonlocal total_iters
        k = M.shape[0]
        if k <= 2:
            return np.eye(k)
        b_col = np.maximum(M[1:, 0], 0.0)
        sub = M[1:, 1:]
        T2 = np.eye(k - 1) + rng.uniform(0.0, 1.0, size=(k - 1, k - 1))
        pin = inf_norm(b_col) > 1e-12 * max(1.0, inf_norm(M))
        if pin:
            T2[:, 0] = b_col / np.sum(b_col)
        sub_work = sub - shift * np.eye(k - 1)
        for it in range(max_iters):
            total_iters += 1
            H = np.linalg.lstsq(T2, sub_work @ T2, rcond=None)[0]
            H = _clip_structure(H, mode, diag_floor=shift)
            T_new = np.maximum(_refit_T(sub_work, H), 0.0)
            colsums = np.sum(T_new, axis=0)
            dead = colsums <= 1e-12
            if np.any(dead):
                T_new[:, dead] += np.eye(k - 1)[:, dead]
                colsums = np.sum(T_new, axis=0)
            T_new = T_new / colsums
            if pin:
                T_new[:, 0] = b_col / np.sum(b_col)
            if inf_norm(T_new - T2) <= cfg.step_tolerance:
                T2 = T_new
                break
            T2 = T_new
        svals = np.linalg.svd(T2, compute_uv=False)
        if svals[-1] <= 1e-10 * max(1.0, svals[0]):
            T2 = T2 + 1e-3 * np.eye(k - 1)
        frame = np.eye(k)
        frame[1:, 1:] = T2
        M_next = np.linalg.solve(frame, M @ frame)
        inner = level(M_next[1:, 1:])
        deeper = np.eye(k)
        deeper[1:, 1:] = inner
        return frame @ deeper

    T = level(A)
    return T, _exact_violation(A, T, mode), total_iters


def altproj_hess(A, mode: Mode, cfg: AltProjConfig) -> SearchReport:
    """Seeded alternating-projection search for a mode-feasible Hessenberg
    similarity.  Failure is data (zero successes), never an exception."""
    A = as_square(A)
    mode = Mode(mode)
    t = zero_tolerance(A)
    rep = classify(A, t)
    if mode is Mode.NONNEG and not rep.is_nonnegative:
        raise InputError("nonneg mode requires a nonnegative matrix")
    if mode is Mode.METZLER and not rep.is_metzler:
        raise InputError("metzler mode requires a Metzler matrix")

    if mode is Mode.METZLER:
        _, mu = metzler_shift(A, t)
        shifts = [mu]
    else:
        # golden-section sweep over the diagonal slack used inside the
        # alternation; success is always judged against the unshifted target
        hi = max(1.0, inf_norm(A))
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a_s, b_s = 0.0, hi
        shifts = [0.0]
        x1, x2 = b_s - phi * (b_s - a_s), a_s + phi * (b_s - a_s)
        probe_rng = np.random.default_rng([cfg.seed, 10**6])

        def probe(s: float) -> float:
            _, v, _ = _altproj_single(A, mode, cfg, probe_rng, s,
                                      max_iters=max(40, cfg.max_iters // 8))
            return v

        f1, f2 = probe(x1), probe(x2)
        for _ in range(10):
            if f1 <= f2:
                b_s, x2, f2 = x2, x1, f1
                x1 = b_s - phi * (b_s - a_s)
                f1 = probe(x1)
            else:
                a_s, x1, f1 = x1, x2, f2
                x2 = a_s + phi * (b_s - a_s)
                f2 = probe(x2)
        shifts.append(0.5 * (a_s + b_s))

    logs: list[RestartLog] = []
    best_cert: SimilarityCertificate | None = None
    best_violation = np.inf
    successes = 0
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        shift = shifts[r % len(shifts)]
        if cfg.block_recursive:
            T, v, iters = _altproj_block_recursive(A, mode, cfg, rng, shift,
                                                   cfg.max_iters)
        else:
            T, v, iters = _altproj_single(A, mode, cfg, rng, shift, cfg.max_iters)
        success = False
        if v <= cfg.feasibility_tol:
            try:
                cert = make_certificate(A, T, mode)
                success = verify_certificate(A, cert, tol=cfg.feasibility_tol)
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
    if best_cert is not None and not verify_certificate(A, best_cert,
                                                        cfg.feasibility_tol):
        best_cert = None  # pragma: no cover - guarded above
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
    if n <= 2:
        return identity_certificate(A, mode)
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

    rank-one-shift draws in nonneg mode are asserted infeasible by the exact
    membership test (the characterisation holds in every dimension), so they
    count zero successes by construction.
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
        if generator is Generator.PROP1_FAMILY and mode is Mode.NONNEG:
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
            cfg = AltProjConfig(seed=seed + trial, restarts=4, max_iters=200)
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
