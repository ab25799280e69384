"""Positive linear systems, controller-Hessenberg predicates, and the
discrete-time iterate analysis that feeds the planar cover decision."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cones import CoverDecision, SimplexPoint, _cover_decision, _project_rows
from .errors import InputError
from .linalg import as_square, as_vector, classify, inf_norm, zero_tolerance

__all__ = [
    "Domain",
    "IterateTrace",
    "PositiveSystem",
    "dt_hess_feasibility_3",
    "dt_iterates",
    "is_controller_hessenberg",
]


class Domain(str, enum.Enum):
    CT = "ct"
    DT = "dt"


@dataclass(frozen=True, eq=False)
class PositiveSystem:
    """State-space triple (A, b, c) with the sign discipline of its time domain:
    nonnegative A for discrete time, Metzler A for continuous time."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    domain: Domain

    def __post_init__(self):
        A = as_square(self.A, "A")
        b = as_vector(self.b, "b")
        c = as_vector(self.c, "c")
        if b.size != A.shape[0] or c.size != A.shape[0]:
            raise InputError("system dimensions are inconsistent")
        t = zero_tolerance(A)
        rep = classify(A, t)
        if self.domain is Domain.DT and not rep.is_nonnegative:
            raise InputError("discrete-time positive system needs nonnegative A")
        if self.domain is Domain.CT and not rep.is_metzler:
            raise InputError("continuous-time positive system needs Metzler A")
        if np.min(b) < -zero_tolerance(b):
            raise InputError("input vector must be nonnegative")
        if np.min(c) < -zero_tolerance(c):
            raise InputError("output vector must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Planar projections of the renormalised iterates ``A^k b`` and of their limit."""

    points: list[SimplexPoint]
    limit_point: SimplexPoint
    K: int


def is_controller_hessenberg(sys: PositiveSystem, tol: float | None = None) -> bool:
    """True when A is upper Hessenberg with the mode-appropriate signs, b is
    proportional to the first axis, and c is nonnegative."""
    t = zero_tolerance(sys.A, tol)
    rep = classify(sys.A, t)
    if not rep.is_upper_hessenberg:
        return False
    if sys.domain is Domain.DT and not rep.is_nonnegative:
        return False
    if sys.domain is Domain.CT and not rep.is_metzler:
        return False
    b, tb = sys.b, zero_tolerance(sys.b)
    if b.size > 1 and inf_norm(b[1:]) > tb:
        return False
    if b[0] < -tb:
        return False
    return bool(np.min(sys.c) >= -zero_tolerance(sys.c))


def dt_iterates(A, b, K: int) -> IterateTrace:
    """Project the first ``K`` discrete-time iterates onto the plane.

    Each iterate is renormalised to unit coordinate sum before the next
    multiplication (the projection is scale invariant, so this only guards
    against overflow); all ``K`` are projected in one pass.  The limit point
    is the exact mean of the cycle they settle into (``_iteration_limit``).
    ``b`` is tested against its own norm and each iterate sum against
    ``||A||_inf``, so ``(cA, db)`` gives the points of ``(A, b)``.
    """
    points, limit = _projected_iterates(A, b, K)
    return IterateTrace(points=[SimplexPoint(x, y) for x, y in points.tolist()],
                        limit_point=SimplexPoint(*limit.tolist()), K=K)


def _projected_iterates(A, b, K: int) -> tuple[np.ndarray, np.ndarray]:
    """``dt_iterates`` as arrays: the (K, 2) planar points and the limit point."""
    A = as_square(A)
    b = as_vector(b)
    if A.shape[0] != 3 or b.size != 3:
        raise InputError("dt_iterates expects a 3x3 matrix and a 3-vector")
    if K < 1:
        raise InputError("iteration count must be positive")
    t = zero_tolerance(A)
    if np.min(A) < -t:
        raise InputError("dt_iterates requires a nonnegative matrix")
    if np.min(b) < -zero_tolerance(b) or not b.any():
        raise InputError("dt_iterates requires a nonnegative nonzero vector")

    X = np.empty((K, 3))
    x = np.maximum(b, 0.0)
    X[0] = x = x / float(x.sum())
    for k in range(1, K):
        x = np.maximum(A @ x, 0.0)
        total = float(x.sum())
        if total <= t:
            raise InputError("iterate coordinate sum degenerated to zero")
        X[k] = x = x / total
    return _project_rows(X), _iteration_limit(A, b)


def _iteration_limit(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projected mean of the cycle the renormalised power iteration settles into.

    The peripheral spectrum of each basic class of a nonnegative matrix is
    ``rho`` times the p-th roots of unity, p at most the class size, so for 3x3
    the period is 1, 2 or 3.  Twenty renormalised squarings advance the
    iteration by ``2**20`` steps, and the mean of the next six normalised
    iterates is the exact cycle mean: a fixed point when it converges.  It lies
    in the closed convex hull of the iterates, so appending it never weakens an
    infeasibility certificate.  ``A`` is first cut to the coordinates reachable
    from ``b``'s support, which the iterates never leave: renormalising by the
    largest entry would flush the columns of a slower class there to zero.
    """
    step = (A > 0) | np.eye(3, dtype=bool)
    reach = step @ step @ (b > 0)
    M = np.maximum(A, 0.0) * np.outer(reach, reach)
    for _ in range(20):
        M = M / (float(M.max()) or 1.0)  # a nilpotent M stays zero
        M = M @ M
    x = M @ np.maximum(b, 0.0)
    cycle = np.empty((6, 3))
    for k in range(6):
        total = float(x.sum())
        if total <= 0:
            raise InputError("iterate coordinate sum degenerated to zero")
        cycle[k] = x = x / total
        x = np.maximum(A @ x, 0.0)
    return _project_rows(np.mean(cycle, axis=0).reshape(1, 3))[0]


def dt_hess_feasibility_3(A, b, K: int = 50, tol: float = 1e-9) -> CoverDecision:
    """Necessary-condition analysis for a nonnegative discrete-time
    controller-Hessenberg transformation of a 3x3 pair.

    Projects the iterates ``A^k b`` (plus the analytic limit point) onto the
    plane and asks whether a triangle cornered at the projection of ``b`` can
    contain them, which the chord lemma of ``triangle_cover_decision`` decides
    exactly.  Infeasible comes with the structured edge-contact certificate
    and rules out every nonnegative frame ``T = (b | p | q)`` with
    ``T^{-1} A T >= 0``.  Unknown rules them out too (no triangle holds the
    iterates) but without that certificate.  Feasible only certifies the
    finite horizon ``K`` and reports candidate witnesses.
    """
    points, limit = _projected_iterates(A, b, K)
    return _cover_decision(points[0], np.vstack([points, limit]), tol)
