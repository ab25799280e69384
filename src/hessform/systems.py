"""The discrete-time iterate analysis of a 3x3 pair ``(A, b)`` that feeds
the planar cover decision: the projected iterates ``A^k b`` and their limit,
and the necessary condition for a nonnegative controller-Hessenberg frame."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import CoverDecision, SimplexPoint, _cover_decision, _project_rows
from .errors import InputError
from .linalg import as_square, nonneg_vector, zero_tolerance

__all__ = [
    "IterateTrace",
    "dt_hess_feasibility_3",
    "dt_iterates",
]


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Planar projections of the renormalised iterates ``A^k b`` and of their limit."""

    points: list[SimplexPoint]
    limit_point: SimplexPoint
    K: int


def dt_iterates(A, b, K: int) -> IterateTrace:
    """Project the first ``K`` discrete-time iterates onto the plane.

    The iterates ``A^k b`` at unit coordinate sum (the projection is scale
    invariant, so this only guards against overflow) and the limit point, the
    exact mean of the cycle they settle into, come off one ladder of
    squarings (``_projected_iterates``).  ``b`` is tested against its own norm
    and each iterate sum against ``||A||_inf``, so ``(cA, db)`` gives the
    points of ``(A, b)``.
    """
    points = _projected_iterates(A, b, K)
    return IterateTrace(points=[SimplexPoint(x, y) for x, y in points[:-1].tolist()],
                        limit_point=SimplexPoint(*points[-1].tolist()), K=K)


def _projected_iterates(A, b, K: int) -> np.ndarray:
    """``dt_iterates`` as one (K + 1, 2) array: the K planar points, then the limit.

    The negative entries of ``A`` that the input check lets through (within
    its zero tolerance) are set to zero.  ``A`` is cut to the coordinates
    reachable from ``b``'s support, ``M`` there, and squared twenty times
    with renormalisation (more for ``K > 2**20``), so after ``j`` squarings
    ``M ~ A^(2^j)``.  The iterates never leave that support and on it
    ``M x = A x``, so at rung ``j`` the rows ``X[2^j : 2^(j+1)]`` are the
    row-normalised ``X[:2^j] M^T``: ``ceil(log2 K)`` block products instead
    of ``K - 1`` single steps.  Products of nonnegative matrices do not cancel, so each
    entry keeps a relative error of order ``log2(K) eps``.  Each step's sum
    of ``A x`` must exceed ``1e-9 ||A||_inf``, tested once for all.
    Without the cut, renormalising by the largest entry would flush a slower
    class that holds ``b`` to zero.

    The limit is the mean of the cycle the iteration settles into.  The
    peripheral spectrum of each basic class of a nonnegative matrix is
    ``rho`` times the p-th roots of unity, p at most the class size, so for
    3x3 the period is 1, 2 or 3: after the twenty squarings (``2**20``
    steps), the mean of the next six normalised iterates is the exact cycle
    mean, a fixed point when it converges.  It lies in the closed convex hull
    of the iterates, so appending it never weakens an infeasibility
    certificate.
    """
    A = as_square(A)
    if A.shape[0] != 3:
        raise InputError("dt_iterates expects a 3x3 matrix")
    b = nonneg_vector(b, 3, "dt_iterates")
    if K < 1:
        raise InputError("iteration count must be positive")
    t = zero_tolerance(A)
    if np.min(A) < -t:
        raise InputError("dt_iterates requires a nonnegative matrix")

    # one matrix for the ladder, the degeneracy test and the cycle
    A = np.maximum(A, 0.0)
    X = np.empty((K + 1, 3))
    X[0] = b / float(b.sum())
    step = (A > 0) | np.eye(3, dtype=bool)
    reach = step @ step @ (b > 0)
    M = A * np.outer(reach, reach)
    for rung in range(max(20, (K - 1).bit_length())):
        M = M / (float(M.max()) or 1.0)  # a nilpotent M stays zero
        n = 1 << rung
        if n < K:
            Y = X[:min(n, K - n)] @ M.T
            total = Y.sum(axis=1)
            if not total.min() > 0:
                raise InputError("iterate coordinate sum degenerated to zero")
            X[n:n + len(Y)] = Y / total[:, None]
        M = M @ M
        if rung == 19:  # 2**20 steps on: the start of the limit cycle
            x = M @ b
    if np.any((X[:K - 1] @ A.T).sum(axis=1) <= t):
        raise InputError("iterate coordinate sum degenerated to zero")

    cycle = np.empty((6, 3))
    for k in range(6):
        total = float(x.sum())
        if total <= 0:
            raise InputError("iterate coordinate sum degenerated to zero")
        cycle[k] = x = x / total
        x = A @ x
    X[K] = np.mean(cycle, axis=0)
    return _project_rows(X)


def dt_hess_feasibility_3(A, b, K: int = 50, tol: float = 1e-9) -> CoverDecision:
    """Necessary-condition analysis for a nonnegative discrete-time
    controller-Hessenberg transformation of a 3x3 pair.

    Projects the iterates ``A^k b``, k < K, and their limit onto the plane in
    one (K + 1, 2) array, from the one ladder of squarings ``A^(2^j)`` that
    ``_projected_iterates`` runs for both, and asks whether a triangle
    cornered at the projection of ``b`` can contain them, which the chord
    lemma of ``triangle_cover_decision`` decides exactly.  Infeasible comes
    with the structured edge-contact certificate and rules out every
    nonnegative frame ``T = (b | p | q)`` with ``T^{-1} A T >= 0``.  Unknown
    rules them out too (no triangle holds the iterates) but without that
    certificate.  Feasible only certifies the finite horizon ``K`` and
    reports candidate witnesses.
    """
    points = _projected_iterates(A, b, K)
    return _cover_decision(points[0], points, tol)
