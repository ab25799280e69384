"""Krylov-frame search for Hessenberg similarity beyond the exactly
characterised dimensions, plus the seeded experiment harness.

An upper Hessenberg ``H = T^{-1} A T`` means ``A t_k = sum_{j <= k+1} h_jk t_j``
for the columns of ``T``, so ``T`` is generated by ``t_1`` and the upper
triangle of ``H``.  The search builds ``T >= 0`` one column at a time: each
step picks a vertex of a small polyhedron in ``h >= 0``, and the last column
is the cone-membership test ``T^{-1} A t_n >= 0``.  It works on ``Â``, the
input at unit scale with the entries within the caller's ``tol`` set to exact
zeros, shifted to nonnegative in Metzler mode, where the shift moves only the
diagonal of ``H``.  The input and output policy is that of the exact
constructions, the three functions of :mod:`hessform.transforms`:
``_admitted`` checks and snaps the input, ``_permuted`` tries the permutation
first, and a frame counts only once ``_accepted`` accepts its certificate at
``RESIDUAL_BOUND``.  The certificates are for ``Â`` in the units of the
input, with ``s = 1``.

The search is depth first, and each node costs a few batched numpy calls:
the vertices of a frame are one stacked solve, the full frames below a frame
of ``n - 1`` columns are another, and the orthonormal basis that filters the
candidates grows by one column per level instead of a QR per node.  A node's
bound rows ``-I`` are kept per shape, so its set-up is one concatenation and
one matrix-vector product.

A permutation is the cheapest such frame, its columns all axes, and the exact
subset search of :func:`~hessform.linalg.permutation_to_hessenberg` decides
it, so ``altproj_hess`` tries it, through ``_permuted``, before any vertex
search.  A hit costs that subset search and some indexing: the similarity is
exact, so its certificate is read off ``Â`` and its violation is 0, with no
SVD, inverse or solve.

The names ``altproj_hess`` and ``AltProjConfig`` are kept from the
alternating-projection search this replaces, because the benchmark, its
tracer and acceptance criterion 7 call them.
"""
from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import as_square
from .transforms import (
    RESIDUAL_BOUND,
    Mode,
    Obstruction,
    SimilarityCertificate,
    _accepted,
    _admitted,
    _family_obstruction,
    _permuted,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
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

# Index tables kept by _active_sets.  Sparse frames at n = MAX_DIM have
# thousands of supports, so an unbounded memo would grow with every call; the
# heuristic budgets at n <= 5 need a few hundred tables.
_ACTIVE_SET_MEMO = 512


@functools.lru_cache(maxsize=_ACTIVE_SET_MEMO)
def _active_sets(n: int, k: int, floor: int, support: tuple[int, ...],
                 breadth: int) -> np.ndarray:
    """The active sets a frame of ``k`` columns on ``support`` solves, one
    row of ``k`` indices into ``[T_k; -I[:floor]]`` each: at most
    ``breadth`` of them, fewest bound rows first, in lexicographic order.
    The table is read-only, since every caller shares it, and in the
    narrowest integer type, so that a kept one costs little."""
    sets = (I + J for m in range(max(0, k - len(support)), floor + 1)
            for J in itertools.combinations(range(n, n + floor), m)
            for I in itertools.combinations(support, k - m))
    active = np.array(sorted(itertools.islice(sets, breadth)),
                      dtype=np.min_scalar_type(n + floor))
    active.flags.writeable = False
    return active


@functools.lru_cache(maxsize=None)
def _bound_rows(k: int, floor: int) -> np.ndarray:
    """The bound rows ``-I[:floor]`` of a frame of ``k`` columns, read-only,
    since every node of that shape shares them; ``k <= MAX_DIM``, so the
    memo stays small."""
    bound = -np.eye(k)[:floor]
    bound.flags.writeable = False
    return bound


def _next_columns(A1: np.ndarray, T: np.ndarray, Q: np.ndarray, mode: Mode,
                  t: float, breadth: int) -> np.ndarray:
    """The candidate columns ``t_{k+1}`` after the frame ``T = T_k``, whose
    span has the orthonormal basis ``Q``, one per row, sparsest first.

    Each vertex ``h`` of ``{h : T_k h <= A1 t_k, h_j >= 0}`` (j < k, and
    j = k in nonneg mode) solves k of those rows as equations.  The active
    sets are taken with the fewest bound rows ``h_j = 0`` first, since each
    row of ``T_k`` in the set is a zero of ``r``; at most ``breadth`` of them,
    which bounds the work of a node at any n, and rows where ``T_k`` vanishes
    are left out because they make the set singular.  The sets are solved in
    one batch, in lexicographic order; they depend only on the shape, the
    mode, the support of ``T_k`` and ``breadth``, so :func:`_active_sets`
    builds each table once and a bounded memo keeps the
    ``_ACTIVE_SET_MEMO`` most recently used, and the arithmetic on a table is the same
    whether it is new or kept.  The column is ``r = A1 t_k - T_k h``
    with entries within ``t`` snapped to 0, at unit sum: rounding of 1e-13
    left in ``r`` would be a negative entry of ``T`` or a false constraint at
    the next step.  ``r = 0`` makes span ``T_k`` invariant, so
    ``h_{k+1,k} = 0`` and every axis is a candidate.  Columns that leave
    ``[T_k, t_{k+1}]`` numerically singular, their part off ``span Q`` at
    most ``1e-8`` of their norm, are dropped; the search carries ``Q`` down
    the tree, so no node factors its frame."""
    n, k = T.shape
    floor = k - (mode is Mode.METZLER)
    rows = np.concatenate([T, _bound_rows(k, floor)])
    rhs = np.zeros(n + floor)
    b = np.matmul(A1, T[:, -1], out=rhs[:n])
    support = tuple(np.flatnonzero(T.any(axis=1)).tolist())
    active = _active_sets(n, k, floor, support, breadth)
    S = rows[active]
    scale = np.prod(np.linalg.norm(rows, axis=1)[active], axis=1)
    regular = np.abs(np.linalg.det(S)) > 1e-12 * scale
    h = np.linalg.solve(S[regular], rhs[active[regular]][:, :, None])[:, :, 0]
    h = h[np.all(h @ rows.T <= rhs + t, axis=1)]
    r = b - h @ T.T
    r[r <= t] = 0.0
    # first occurrences by row bytes, which is equality here: after the snap
    # r holds no -0.0 and no NaN
    first: dict[bytes, int] = {}
    for i, row in enumerate(r):
        first.setdefault(row.tobytes(), i)
    r = r[list(first.values())]
    if not len(r):  # no feasible vertex: spare the off-span norms below
        return np.zeros((0, n))
    r = r[np.argsort(np.count_nonzero(r, axis=1), kind="stable")]
    if not r[0].any():
        r = np.vstack([np.eye(n), r[1:]])
    C = r / r.sum(axis=1, keepdims=True)
    off_span = np.linalg.norm(C - C @ Q @ Q.T, axis=1)
    return C[off_span > 1e-8 * np.linalg.norm(C, axis=1)]


def _extended(Q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The orthonormal basis ``Q`` of a frame's span with the new column
    ``c`` appended, its part off ``span Q`` orthogonalised twice, which keeps
    the basis orthonormal to rounding; ``c`` is off the span by at least
    ``1e-8`` of its norm, as :func:`_next_columns` leaves it."""
    v = c - Q @ (Q.T @ c)
    v -= Q @ (Q.T @ v)
    return np.column_stack([Q, v / np.linalg.norm(v)])


def _starts(A1: np.ndarray, cfg: AltProjConfig):
    """The first columns tried, in order: the axes, the nonzero columns of
    ``A1`` at unit sum, then ``cfg.restarts`` Dirichlet(0.5) draws, whose
    generator is built only once the others are spent."""
    n = A1.shape[0]
    yield from np.eye(n)
    yield from (c / c.sum() for c in A1.T if c.sum() > 0)
    yield from np.random.default_rng(cfg.seed).dirichlet(np.full(n, 0.5), cfg.restarts)


def _violations(A1: np.ndarray, T: np.ndarray, C: np.ndarray, mode: Mode) -> list[float]:
    """For each full frame ``[T, c]``, ``c`` a row of ``C``, how far the last
    column of ``H = [T, c]^{-1} A1 [T, c]`` is from ``>= 0`` (off the diagonal
    in Metzler mode), in the units of ``A1``: one stacked solve.  Each frame
    is solved by itself, as ``np.linalg.solve`` would solve it alone, and the
    stacked ``A1 c`` are matrix-vector products, so each value is bit for bit
    that of its frame solved alone."""
    m, n = C.shape
    frames = np.empty((m, n, n))
    frames[:, :, :-1] = T
    frames[:, :, -1] = C
    h = np.linalg.solve(frames, np.matmul(A1, C[:, :, None]))
    least = h[:, :n - (mode is Mode.METZLER), 0].min(axis=1, initial=0.0)
    return [max(0.0, -v) for v in least.tolist()]


def altproj_hess(A, mode: Mode, cfg: AltProjConfig, tol: float | None = None
                 ) -> SearchReport:
    """Seeded depth-first search over Krylov frames for a mode-feasible
    Hessenberg similarity.  Failure is data (zero successes), never an exception.

    As in the exact constructions, the entries within ``tol`` (absolute in
    the units of ``A``; default ``1e-9 ||A||_inf``) are set to 0 once, giving
    ``Â``: the sign test is exact on it, every certificate is for it, and
    nothing after that reads ``tol``.

    A permutation similarity comes first: :func:`permutation_to_hessenberg`
    decides it on the exact zeros of ``Â``, so it is an exact similarity,
    reported as one successful attempt of ``n`` nodes, the axis-only frame,
    of violation 0 (the last column of ``P^T Â P`` is a column of ``Â``, in
    the signs of ``mode``); its certificate is read off by indexing, and a
    hit runs no SVD, inverse or solve.  Otherwise that step adds no attempt and no log,
    and the search below runs unchanged.

    The starts are tried in turn, each for at most ``cfg.max_iters`` nodes, up
    to the first frame whose certificate verifies at RESIDUAL_BOUND.  A node
    is a frame ``T_k``; its children are the columns of :func:`_next_columns`,
    and a full frame passes when ``T^{-1} A1 t_n >= 0`` (off the diagonal in
    Metzler mode), the last column of ``H``.  ``attempts`` counts the starts
    tried; each log gives a start's nodes and its least violation of that
    test, in the units of ``||A||_inf`` (inf if it built no full frame).
    A call visits at most ``(2n + cfg.restarts) * cfg.max_iters`` nodes.
    Each frame ``T_k`` with ``k < n`` is one batched solve of at most
    ``cfg.max_iters`` k x k systems; the full frames below a frame
    ``T_{n-1}`` are solved together, those the budget leaves in one stacked
    solve, and then taken in order, each a node, up to the first that
    certifies, as a depth-first search would pop them.

    The bookkeeping changes no candidate: a child frame is stacked only when
    it is popped, and with it the orthonormal basis of its span, its parent's
    extended by one column (:func:`_extended`); the Dirichlet generator is
    built only once the axes and the columns are spent, and the active-set
    tables come from a memo bounded at ``_ACTIVE_SET_MEMO`` entries."""
    mode = Mode(mode)
    A = as_square(A)
    A1, _, t = _admitted(A, mode, f"{mode.value} mode", None, tol)
    A = np.where(A1 == 0.0, 0.0, A)  # Â in the units of the input
    n = A.shape[0]
    cert = _permuted(A, mode, 1.0)
    if cert is not None:  # the last column of P^T Â P is in the signs of mode
        return SearchReport(1, 1, cert, 0.0, (RestartLog(0, n, 0.0, True),))
    # n >= 2 here: at n = 1 the identity is the permutation, and it certifies
    if mode is Mode.METZLER:  # the shift moves only the diagonal of H, free here
        A1 = A1 + max(0.0, -float(np.min(np.diag(A1)))) * np.eye(n)
    logs: list[RestartLog] = []
    empty = np.empty((n, 0))
    for start, t1 in enumerate(_starts(A1, cfg)):
        stack, nodes, least = [(empty, empty, t1)], 0, np.inf
        while stack and nodes < cfg.max_iters and cert is None:
            T, Q, c = stack.pop()
            T, Q = np.column_stack([T, c]), _extended(Q, c)
            nodes += 1
            children = _next_columns(A1, T, Q, mode, t, cfg.max_iters)
            if T.shape[1] < n - 1:
                stack.extend((T, Q, c) for c in children[::-1])
                continue
            leaves = children[:cfg.max_iters - nodes]
            for c, v in zip(leaves, _violations(A1, T, leaves, mode)):
                nodes += 1
                least = min(least, v)
                if v <= RESIDUAL_BOUND:
                    cert = _accepted(A, np.column_stack([T, c]), mode, 1.0)
                    if cert is not None:
                        break
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
    mode = Mode(mode)
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
    """The exact answer for ``mode`` at this dimension, for the input with
    its zeros snapped at ``tol`` once: the construction at Metzler n = 3, 4
    and nonneg n = 3, and the rank-one-minus-shift family's obstruction at
    nonneg n >= 4; None where only :func:`altproj_hess` applies (n <= 2,
    whose answer is its permutation step, Metzler n >= 5, and nonneg n >= 4
    off the family)."""
    mode = Mode(mode)
    n = A.shape[0]
    if n < 3:
        return None
    if n == 3:
        return (metzler_hess_3 if mode is Mode.METZLER else nonneg_hess_3)(A, tol)
    if mode is Mode.METZLER:
        return metzler_hess_4(A, tol) if n == 4 else None
    return _family_obstruction(*_admitted(A, mode, f"{mode.value} mode", None, tol))


def random_experiment(n: int, trials: int, seed: int, mode: Mode,
                      generator: Generator) -> SearchReport:
    """Run seeded trials of the named family through :func:`exact_hessenberg`
    or, where it has no construction, the Krylov-frame search, and aggregate.

    rank-one-shift draws in nonneg mode at n >= 3 get the family obstruction
    from the exact membership test (the obstruction holds in every such
    dimension), so they count zero successes.  At n = 2 every matrix is
    already upper Hessenberg, and the search's permutation step certifies the
    draw, a log of ``n`` nodes.
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
