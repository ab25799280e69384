"""Krylov-frame search for Hessenberg similarity beyond the exactly
characterised dimensions, plus the seeded experiment harness.

An upper Hessenberg ``H = T^{-1} A T`` means ``A t_k = sum_{j <= k+1} h_jk t_j``
for the columns of ``T``, so ``T`` is generated by ``t_1`` and the upper
triangle of ``H``.  The search builds ``T >= 0`` one column at a time: each
step picks a vertex of a small polyhedron in ``h >= 0``, and the last column
is the cone-membership test ``T^{-1} A t_n >= 0``.  It works on ``A`` at unit
scale, shifted to nonnegative in Metzler mode, where the shift moves only the
diagonal of ``H``.  A frame counts only once its certificate re-verifies
from scratch at ``RESIDUAL_BOUND``.

The names ``altproj_hess`` and ``AltProjConfig`` are kept from the
alternating-projection search this replaces, because the benchmark, its
tracer and acceptance criterion 7 call them.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import as_square, classify, inf_norm, metzler_shift, zero_tolerance
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


@dataclass(frozen=True)
class AltProjConfig:
    """Budget of the Krylov-frame search.

    After the axes and the nonzero columns of ``A``, the search starts from
    ``restarts`` Dirichlet(0.5) points drawn from ``seed``, which is mandatory
    so that equal inputs give equal reports.  Each start visits at most
    ``max_iters`` frames, and each frame solves at most ``max_iters`` active
    sets for its children, so a call does bounded work at every n.
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
# Krylov-frame search
# ---------------------------------------------------------------------------

def _next_columns(A1: np.ndarray, T: np.ndarray, mode: Mode, t: float,
                  breadth: int) -> np.ndarray:
    """The candidate columns ``t_{k+1}`` after the frame ``T = T_k``, one per
    row, sparsest first.

    Each vertex ``h`` of ``{h : T_k h <= A1 t_k, h_j >= 0}`` (j < k, and
    j = k in nonneg mode) solves k of those rows as equations.  The active
    sets are taken with the fewest bound rows ``h_j = 0`` first, since each
    row of ``T_k`` in the set is a zero of ``r``; at most ``breadth`` of them,
    which bounds the work of a node at any n, and rows where ``T_k`` vanishes
    are left out because they make the set singular.  The sets are solved in
    one batch, in lexicographic order.  The column is ``r = A1 t_k - T_k h``
    with entries within ``t`` snapped to 0, at unit sum: rounding of 1e-13
    left in ``r`` would be a negative entry of ``T`` or a false constraint at
    the next step.  ``r = 0`` makes span ``T_k`` invariant, so
    ``h_{k+1,k} = 0`` and every axis is a candidate.  Columns that leave
    ``[T_k, t_{k+1}]`` numerically singular are dropped."""
    n, k = T.shape
    floor = k - (mode is Mode.METZLER)
    rows = np.vstack([T, -np.eye(k)[:floor]])
    b = A1 @ T[:, -1]
    rhs = np.concatenate([b, np.zeros(floor)])
    support = np.flatnonzero(T.any(axis=1)).tolist()
    sets = (I + J for m in range(max(0, k - len(support)), floor + 1)
            for J in itertools.combinations(range(n, n + floor), m)
            for I in itertools.combinations(support, k - m))
    active = np.array(sorted(itertools.islice(sets, breadth)))
    S = rows[active]
    regular = np.abs(np.linalg.det(S)) > 1e-12 * np.prod(np.linalg.norm(S, axis=2), axis=1)
    h = np.linalg.solve(S[regular], rhs[active[regular]][:, :, None])[:, :, 0]
    h = h[np.all(h @ rows.T <= rhs + t, axis=1)]
    r = b - h @ T.T
    r[r <= t] = 0.0
    r = r[np.sort(np.unique(r, axis=0, return_index=True)[1])]
    r = r[np.argsort(np.count_nonzero(r, axis=1), kind="stable")]
    if len(r) and not r[0].any():
        r = np.vstack([np.eye(n), r[1:]])
    C = r / r.sum(axis=1, keepdims=True)
    Q = np.linalg.qr(T)[0]
    off_span = np.linalg.norm(C - C @ Q @ Q.T, axis=1)
    return C[off_span > 1e-8 * np.linalg.norm(C, axis=1)]


def _certified(A: np.ndarray, T: np.ndarray, mode: Mode) -> SimilarityCertificate | None:
    try:
        cert = make_certificate(A, T, mode)
    except InputError:  # T singular beyond the conditioning bound
        return None
    return cert if verify_certificate(A, cert, tol=RESIDUAL_BOUND) else None


def altproj_hess(A, mode: Mode, cfg: AltProjConfig) -> SearchReport:
    """Seeded depth-first search over Krylov frames for a mode-feasible
    Hessenberg similarity.  Failure is data (zero successes), never an exception.

    The starts are tried in turn, each for at most ``cfg.max_iters`` nodes, up
    to the first frame whose certificate verifies at RESIDUAL_BOUND.  A node
    is a frame ``T_k``; its children are the columns of :func:`_next_columns`,
    and a full frame passes when ``T^{-1} A1 t_n >= 0`` (off the diagonal in
    Metzler mode), the last column of ``H``.  ``attempts`` counts the starts
    tried; each log gives a start's nodes and its least violation of that
    test, in the units of ``||A||_inf`` (inf if it built no full frame).
    A call visits at most ``(2n + cfg.restarts) * cfg.max_iters`` nodes, each
    one batched solve of at most ``cfg.max_iters`` k x k systems."""
    A = as_square(A)
    mode = Mode(mode)
    t = zero_tolerance(A)
    rep = classify(A, t)
    if mode is Mode.NONNEG and not rep.is_nonnegative:
        raise InputError("nonneg mode requires a nonnegative matrix")
    if mode is Mode.METZLER and not rep.is_metzler:
        raise InputError("metzler mode requires a Metzler matrix")

    n, s = A.shape[0], inf_norm(A) or 1.0
    # the shift moves only the diagonal of H, which is free in Metzler mode
    A1 = metzler_shift(A / s, t / s)[0] if mode is Mode.METZLER else A / s
    columns = [c / c.sum() for c in A1.T if c.sum() > 0]
    draws = np.random.default_rng(cfg.seed).dirichlet(np.full(n, 0.5), cfg.restarts)
    logs: list[RestartLog] = []
    cert = None
    for start, t1 in enumerate([*np.eye(n), *columns, *draws]):
        stack, nodes, least = [t1[:, None]], 0, np.inf
        while stack and nodes < cfg.max_iters and cert is None:
            T = stack.pop()
            nodes += 1
            if T.shape[1] < n:
                children = _next_columns(A1, T, mode, t / s, cfg.max_iters)
                stack.extend(np.column_stack([T, c]) for c in children[::-1])
                continue
            h = np.linalg.solve(T, A1 @ T[:, -1])
            v = max(0.0, -float(np.min(h[:n - (mode is Mode.METZLER)], initial=0.0)))
            least = min(least, v)
            if v <= RESIDUAL_BOUND:
                cert = _certified(A, T, mode)
        logs.append(RestartLog(start, nodes, least, cert is not None))
        if cert is not None:
            break
    return SearchReport(len(logs), int(cert is not None), cert,
                        min(log.final_violation for log in logs), tuple(logs))


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
    or, where it has no construction, the Krylov-frame search, and aggregate.

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
