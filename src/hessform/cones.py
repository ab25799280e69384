"""Polyhedral-cone membership, boundary shifts, and the 2-d simplex geometry
used to certify that a discrete-time pair admits no nonnegative
controller-Hessenberg transformation.

The planar machinery works inside the reference triangle
``D = {(x, y): x >= 0, y >= 0, x + y <= 1}``, the image of the unit simplex in
R^3 after dropping the first coordinate.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_square, as_vector, inf_norm, zero_tolerance

__all__ = [
    "ConeRep",
    "CoverCertificate",
    "CoverDecision",
    "Membership",
    "SimplexPoint",
    "Verdict",
    "boundary_shift",
    "cone_membership",
    "simplex_project",
    "triangle_cover_decision",
    "unproject",
    "verify_cover_certificate",
]


class Membership(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class ConeRep:
    """Convex conic hull of the columns of ``generators`` (zero columns dropped)."""

    generators: np.ndarray

    @classmethod
    def from_columns(cls, generators) -> "ConeRep":
        G = np.asarray(generators, dtype=float)
        if G.ndim != 2:
            raise InputError("cone generators must form a 2-d array")
        if not np.all(np.isfinite(G)):
            raise InputError("cone generators must be finite")
        keep = np.linalg.norm(G, axis=0) > 0
        return cls(generators=G[:, keep])


@dataclass(frozen=True)
class SimplexPoint:
    """Planar simplex coordinates (second and third barycentric coordinates)."""

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


_EDGES = ("bottom", "left", "hypotenuse")


def _edge_distance(p: np.ndarray, edge: str) -> float:
    if edge == "bottom":
        return abs(p[1])
    if edge == "left":
        return abs(p[0])
    if edge == "hypotenuse":
        return abs(1.0 - p[0] - p[1]) / math.sqrt(2.0)
    raise ValueError(edge)


def _edge_corners(edge: str) -> tuple[np.ndarray, np.ndarray]:
    O, X, Y = np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return {"bottom": (O, X), "left": (O, Y), "hypotenuse": (X, Y)}[edge]


def _in_triangle(p: np.ndarray, tol: float) -> bool:
    return p[0] >= -tol and p[1] >= -tol and p[0] + p[1] <= 1.0 + tol


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------

# scipy.optimize takes most of the package's import time and only the
# non-square branch of cone_membership needs it, so it loads on first use.  The
# names stay module attributes: the benchmark's tracer rebinds them to count calls.
def nnls(G, b):
    from scipy.optimize import nnls as scipy_nnls
    return scipy_nnls(G, b)


def linprog(*args, **kwargs):
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def cone_membership(cone, b, tol: float = 1e-9) -> Membership:
    """Locate ``b`` relative to the conic hull of the generators.

    For a square invertible generator matrix the verdict comes from the sign
    pattern of the solved coefficients; otherwise a nonnegative least-squares
    feasibility check plus a max-margin linear program decides.  ``Boundary``
    means representable with some coefficient within ``tol`` of zero (after
    normalising the coefficient vector), or representable only in the closure.
    """
    if not isinstance(cone, ConeRep):
        cone = ConeRep.from_columns(cone)
    G = cone.generators
    b = as_vector(b)
    if G.shape[0] != b.size:
        raise InputError(
            f"generator dimension {G.shape[0]} does not match vector dimension {b.size}")
    if tol < 0:
        raise InputError("tol must be nonnegative")
    n = b.size
    bscale = max(1.0, inf_norm(b))

    if G.shape[1] == 0:
        return Membership.BOUNDARY if inf_norm(b) <= tol * bscale else Membership.OUTSIDE

    if G.shape[1] == n:
        try:
            x = np.linalg.solve(G, b)
            xhat = x / max(1.0, float(np.max(np.abs(x))))
            if np.min(xhat) < -tol:
                return Membership.OUTSIDE
            if np.min(xhat) <= tol:
                return Membership.BOUNDARY
            return Membership.INTERIOR
        except np.linalg.LinAlgError:
            pass  # singular generator matrix: fall through to the LP path

    coeffs, resid = nnls(G, b)
    if resid > max(tol, 1e-9) * bscale:
        return Membership.OUTSIDE
    if np.linalg.matrix_rank(G, tol=1e-10 * max(1.0, inf_norm(G))) < n:
        return Membership.BOUNDARY
    # max-margin LP: does some representation keep every coefficient >= t > 0?
    m = G.shape[1]
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    A_eq = np.hstack([G, np.zeros((n, 1))])
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=b,
                  bounds=bounds, method="highs")
    if res.status == 3:  # unbounded margin: cone contains lines through b
        return Membership.INTERIOR
    if not res.success:
        return Membership.BOUNDARY
    margin = -res.fun / max(1.0, float(np.max(np.abs(res.x[:-1]))))
    return Membership.INTERIOR if margin > tol else Membership.BOUNDARY


# ---------------------------------------------------------------------------
# boundary shift
# ---------------------------------------------------------------------------

def _coefficient_margin(A: np.ndarray, b: np.ndarray, s: float) -> float:
    """Smallest coefficient of (A + s I)^{-1} b over its largest magnitude
    (negative = outside); scaling A, b and s leaves it unchanged."""
    n = A.shape[0]
    M = A + s * np.eye(n)
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(M, b, rcond=None)[0]
    denom = max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    return float(np.min(x)) / denom


def boundary_shift(A, b, tol: float = 1e-9) -> float:
    """Smallest shift ``s* >= 0`` placing ``b`` on the boundary of
    ``cone(A + s* I)``.

    Coefficient ``i`` of ``x(s) = (A + s I)^{-1} b`` vanishes exactly when
    ``(A + s I) x = b`` has a solution with ``x_i = 0``, that is when ``s`` is
    a nonzero eigenvalue of ``(I - b e_i^T / b_i)(-A)`` with eigenvector ``x``
    (``b_i > 0``).  Every boundary shift is therefore such an eigenvalue, and
    ``s*`` is the smallest positive real one, other than an eigenvalue of
    ``-A`` (a pole of ``x(s)``), at which no coefficient is below ``-tol``
    after dividing ``x`` by its largest magnitude.

    Raises
    ------
    InputError
        If ``b`` is already interior at ``s = 0`` (apply inverse iterations
        first) or no coefficient zero puts ``b`` on the boundary.
    """
    A = as_square(A)
    b = as_vector(b)
    n = b.size
    if A.shape[0] != n:
        raise InputError("dimension mismatch between matrix and vector")
    t = zero_tolerance(A)
    if np.min(A) < -t:
        raise InputError("boundary_shift requires a nonnegative matrix")
    if np.min(b) <= 0:
        raise InputError("boundary_shift requires a strictly positive vector")
    if tol <= 0:
        raise InputError("tol must be positive")

    f0 = _coefficient_margin(A, b, 0.0)
    if abs(f0) <= tol:
        return 0.0
    if f0 > tol:
        raise InputError(
            "vector is interior to cone(A) at s = 0; apply inverse iterations first")

    zeros = []
    for i in range(n):
        # (I - b e_i^T / b_i)(-A) = (b / b_i) A[i] - A has one exact zero eigenvalue
        z = np.linalg.eigvals(np.outer(b / b[i], A[i]) - A)
        zeros.extend(np.delete(z, np.argmin(np.abs(z))))
    zeros = np.array(zeros, dtype=complex)
    # a double zero (a tangency) splits into a pair about sqrt(eps) apart, so the
    # real test is loose; the margin check below decides
    real = np.abs(zeros.imag) <= 1e-7 * np.maximum(1.0, np.abs(zeros))
    # an eigenvalue of -A whose eigenvector has a zero entry i is also a zero
    # of that pencil; there A + s I is singular and x(s) has a pole, not a zero
    poles = np.linalg.eigvals(-A)
    for s in np.sort(zeros.real[real & (zeros.real > 0)]):
        if (np.min(np.abs(poles - s)) > 1e-8 * s
                and _coefficient_margin(A, b, float(s)) >= -tol):
            return float(s)
    raise InputError("no coefficient of (A + s I)^{-1} b vanishes on the cone boundary")


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

def simplex_project(x) -> SimplexPoint:
    """Normalise a nonnegative 3-vector to unit sum and drop the first coordinate."""
    x = as_vector(x)
    if x.size != 3:
        raise InputError("simplex_project expects a 3-vector")
    t = 1e-12 * max(1.0, inf_norm(x))
    if np.min(x) < -t:
        raise InputError("simplex_project expects a nonnegative vector")
    total = float(np.sum(x))
    if total <= t:
        raise InputError("coordinate sum must be positive")
    p = x / total
    return SimplexPoint(float(p[1]), float(p[2]))


def unproject(point: SimplexPoint) -> np.ndarray:
    """Lift a planar simplex point back to the unit simplex in R^3."""
    return np.array([1.0 - point.x - point.y, point.x, point.y])


# ---------------------------------------------------------------------------
# triangle cover decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoverCertificate:
    """Structured witness that no triangle with corner ``v0`` inside the
    reference triangle can contain the point set.

    ``v0`` sits on the relative interior of one edge while the set touches the
    other two edges; any admissible triangle then collapses onto
    ``conv{v0, contact_1, contact_2}``, and ``outlier`` lies strictly outside
    it on the ``v0`` side of the contact line.
    """

    v0: SimplexPoint
    v0_edge: str
    contacts: dict[str, SimplexPoint]
    outlier: SimplexPoint
    contact_line: tuple[float, float, float]  # a x + b y = c through contacts
    outlier_margin: float


@dataclass(frozen=True, eq=False)
class CoverDecision:
    verdict: Verdict
    witnesses: tuple[SimplexPoint, SimplexPoint] | None
    certificate: CoverCertificate | None


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _tri_contains(v0, p, q, pts, tol):
    """Minimum inward half-plane margin of pts w.r.t. triangle (v0, p, q)."""
    verts = np.array([v0, p, q])
    area2 = _cross2(verts[1] - verts[0], verts[2] - verts[0])
    if abs(area2) < 1e-15:
        # degenerate triangle: containment means lying on the segment hull
        d = _points_to_segment(pts, verts.min(axis=0), verts.max(axis=0), verts)
        return -d
    if area2 < 0:
        verts = verts[[0, 2, 1]]
    margins = np.full(len(pts), np.inf)
    for i in range(3):
        a, bb = verts[i], verts[(i + 1) % 3]
        edge = bb - a
        nrm = math.hypot(edge[0], edge[1])
        if nrm < 1e-15:
            continue
        inward = np.array([-edge[1], edge[0]]) / nrm
        margins = np.minimum(margins, (pts - a) @ inward)
    return float(np.min(margins)) if len(pts) else 0.0


def _points_to_segment(pts, lo, hi, verts):
    a = verts[0]
    direction = None
    for v in verts[1:]:
        if np.linalg.norm(v - a) > 1e-15:
            direction = v - a
            break
    if direction is None:
        return float(np.max(np.linalg.norm(pts - a, axis=1))) if len(pts) else 0.0
    L = np.linalg.norm(direction)
    u = direction / L
    rel = pts - a
    t = np.clip(rel @ u, 0.0, L)
    proj = a + np.outer(t, u)
    return float(np.max(np.linalg.norm(pts - proj, axis=1))) if len(pts) else 0.0


def _clip_ray(v0: np.ndarray, theta: float) -> np.ndarray | None:
    """Farthest point of the reference triangle along the ray from v0."""
    d = np.array([math.cos(theta), math.sin(theta)])
    t_max = np.inf
    # x >= 0, y >= 0, x + y <= 1 as a*p <= c constraints
    for normal, cval in ((np.array([-1.0, 0.0]), 0.0),
                         (np.array([0.0, -1.0]), 0.0),
                         (np.array([1.0, 1.0]), 1.0)):
        denom = float(normal @ d)
        if denom > 1e-15:
            t_max = min(t_max, (cval - float(normal @ v0)) / denom)
    if not np.isfinite(t_max) or t_max < 0:
        return None
    return v0 + t_max * d


def _infeasibility_certificate(v0, pts, tol):
    """Decision path (1): the three-edge contact argument."""
    v0_edges = [e for e in _EDGES if _edge_distance(v0, e) <= tol]
    if len(v0_edges) != 1:
        return None
    edge0 = v0_edges[0]
    c0, c1 = _edge_corners(edge0)
    if min(np.linalg.norm(v0 - c0), np.linalg.norm(v0 - c1)) <= tol:
        return None  # corner, not relative interior
    others = [e for e in _EDGES if e != edge0]
    contact_sets = {}
    for e in others:
        hits = [p for p in pts if _edge_distance(p, e) <= tol
                and np.linalg.norm(p - v0) > tol]
        if not hits:
            return None
        contact_sets[e] = hits

    for ca in contact_sets[others[0]]:
        for cb in contact_sets[others[1]]:
            if np.linalg.norm(ca - cb) <= tol:
                continue
            # line a x + b y = c through the two contacts
            dvec = cb - ca
            normal = np.array([-dvec[1], dvec[0]])
            nrm = np.linalg.norm(normal)
            if nrm < 1e-14:
                continue
            normal = normal / nrm
            cval = float(normal @ ca)
            side_v0 = float(normal @ v0) - cval
            if abs(side_v0) <= tol:
                continue  # v0 collinear with the contacts
            for u in pts:
                side_u = float(normal @ u) - cval
                if side_u * side_v0 <= tol:
                    continue  # not strictly on the v0 side
                inside = _tri_contains(v0, ca, cb, u.reshape(1, 2), tol)
                if inside < -tol:
                    cert = CoverCertificate(
                        v0=SimplexPoint(*v0),
                        v0_edge=edge0,
                        contacts={others[0]: SimplexPoint(*ca),
                                  others[1]: SimplexPoint(*cb)},
                        outlier=SimplexPoint(*u),
                        contact_line=(float(normal[0]), float(normal[1]), cval),
                        outlier_margin=float(-inside),
                    )
                    return cert
    return None


def verify_cover_certificate(cert: CoverCertificate, v0: SimplexPoint,
                             points: list[SimplexPoint], tol: float = 1e-9) -> bool:
    """Re-check every condition of an infeasibility certificate from scratch."""
    v0a = v0.as_array()
    if _edge_distance(v0a, cert.v0_edge) > tol:
        return False
    c0, c1 = _edge_corners(cert.v0_edge)
    if min(np.linalg.norm(v0a - c0), np.linalg.norm(v0a - c1)) <= tol:
        return False
    pts = {(p.x, p.y) for p in points}
    contacts = []
    for edge, cp in cert.contacts.items():
        if edge == cert.v0_edge:
            return False
        arr = cp.as_array()
        if _edge_distance(arr, edge) > tol:
            return False
        if not any(abs(arr[0] - px) <= tol and abs(arr[1] - py) <= tol
                   for px, py in pts):
            return False
        contacts.append(arr)
    a, b, c = cert.contact_line
    normal = np.array([a, b])
    out = cert.outlier.as_array()
    if not any(abs(out[0] - px) <= tol and abs(out[1] - py) <= tol for px, py in pts):
        return False
    side_v0 = float(normal @ v0a) - c
    side_out = float(normal @ out) - c
    if side_v0 * side_out <= 0:
        return False
    inside = _tri_contains(v0a, contacts[0], contacts[1], out.reshape(1, 2), tol)
    return inside < -tol


def _wedge(dirs: np.ndarray) -> tuple[float, float] | None:
    """Smallest angular interval containing all directions, None if >= pi."""
    angles = np.sort(np.mod(dirs, 2 * math.pi))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    k = int(np.argmax(gaps))
    spread = 2 * math.pi - gaps[k]
    if spread >= math.pi - 1e-12:
        return None
    lo = angles[(k + 1) % len(angles)]
    return float(lo), float(lo + spread)


def triangle_cover_decision(v0: SimplexPoint, points: list[SimplexPoint],
                            tol: float = 1e-9) -> CoverDecision:
    """Decide whether some triangle with corner ``v0`` inside the reference
    triangle contains all of ``points``.

    Three outcomes: a feasible triangle with explicit witnesses, a structured
    infeasibility certificate (``v0`` and contacts pinned to the three edges
    with an outlier), or an honest Unknown when neither path resolves the
    configuration.
    """
    if tol < 0:
        raise InputError("tol must be nonnegative")
    v0a = v0.as_array()
    if not _in_triangle(v0a, tol):
        raise InputError("corner point lies outside the reference triangle")
    pts = np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)
    for p in pts:
        if not _in_triangle(p, tol):
            raise InputError("a point lies outside the reference triangle")

    cert = _infeasibility_certificate(v0a, pts, max(tol, 1e-12))
    if cert is not None:
        return CoverDecision(Verdict.INFEASIBLE, None, cert)

    far = pts[np.linalg.norm(pts - v0a, axis=1) > max(tol, 1e-13)]
    if len(far) == 0:
        return CoverDecision(Verdict.FEASIBLE, (v0, v0), None)

    wedge = _wedge(np.arctan2(far[:, 1] - v0a[1], far[:, 0] - v0a[0]))
    if wedge is None:
        return CoverDecision(Verdict.UNKNOWN, None, None)
    th_lo, th_hi = wedge
    spread = th_hi - th_lo
    slack = max(0.0, math.pi - spread - 1e-9)

    coarse = np.linspace(0.0, min(0.5 * math.pi, slack) if slack > 0 else 0.0, 72)
    pair, margin, w_best = _best_cover_pair(v0a, pts, th_lo, th_hi,
                                            coarse, coarse, slack)
    if margin < -tol and len(coarse) > 1 and slack > 0:
        # one refinement pass at 720 steps per ray around the coarse optimum
        step = coarse[1] - coarse[0]
        w1 = np.linspace(max(0.0, w_best[0] - step), min(slack, w_best[0] + step), 720)
        w2 = np.linspace(max(0.0, w_best[1] - step), min(slack, w_best[1] + step), 720)
        pair2, margin2, _ = _best_cover_pair(v0a, pts, th_lo, th_hi, w1, w2, slack)
        if margin2 > margin:
            pair, margin = pair2, margin2

    if pair is not None and margin >= -tol:
        p, q = pair
        return CoverDecision(Verdict.FEASIBLE,
                             (SimplexPoint(*p), SimplexPoint(*q)), None)
    return CoverDecision(Verdict.UNKNOWN, None, None)


def _best_cover_pair(v0a, pts, th_lo, th_hi, widen1, widen2, slack):
    """Vectorised search over widened ray-direction pairs for the triangle
    with the best worst-case containment margin.

    Rays sweep outward from the tangent directions ``th_lo`` (minus the
    ``widen1`` grid) and ``th_hi`` (plus ``widen2``); pairs whose combined
    widening exceeds ``slack`` would open past a half-plane and are skipped.
    Returns ``((p, q), margin, (w1, w2))``.
    """
    c1 = [(_clip_ray(v0a, th_lo - w), w) for w in widen1]
    c2 = [(_clip_ray(v0a, th_hi + w), w) for w in widen2]
    c1 = [(p, w) for p, w in c1 if p is not None]
    c2 = [(q, w) for q, w in c2 if q is not None]
    if not c1 or not c2:
        return None, -np.inf, (0.0, 0.0)
    P = np.array([p for p, _ in c1])
    Q = np.array([q for q, _ in c2])
    w1 = np.array([w for _, w in c1])
    w2 = np.array([w for _, w in c2])

    rel = pts - v0a                                    # (M, 2)
    rp = P - v0a                                       # (K1, 2)
    rq = Q - v0a                                       # (K2, 2)
    lp = np.maximum(np.linalg.norm(rp, axis=1), 1e-300)
    lq = np.maximum(np.linalg.norm(rq, axis=1), 1e-300)

    # signed distances to edge v0->p and edge q->v0 (CCW orientation)
    m1 = (np.outer(rp[:, 0], rel[:, 1]) - np.outer(rp[:, 1], rel[:, 0])) / lp[:, None]
    m3 = -(np.outer(rq[:, 0], rel[:, 1]) - np.outer(rq[:, 1], rel[:, 0])) / lq[:, None]
    m1_min, m1_max = m1.min(axis=1), m1.max(axis=1)
    m3_min, m3_max = m3.min(axis=1), m3.max(axis=1)

    best = -np.inf
    best_idx = None
    chunk = max(1, int(4e6 // (len(Q) * max(len(pts), 1))))
    for start in range(0, len(P), chunk):
        sl = slice(start, min(start + chunk, len(P)))
        e = Q[None, :, :] - P[sl][:, None, :]          # (k, K2, 2)
        le = np.maximum(np.linalg.norm(e, axis=2), 1e-300)
        up = pts[None, None, :, :] - P[sl][:, None, None, :]
        m2 = (e[:, :, None, 0] * up[..., 1] - e[:, :, None, 1] * up[..., 0]) \
            / le[:, :, None]
        orient = (rp[sl][:, None, 0] * rq[None, :, 1]
                  - rp[sl][:, None, 1] * rq[None, :, 0])
        pos = orient >= 0
        part1 = np.where(pos, m1_min[sl][:, None], -m1_max[sl][:, None])
        part3 = np.where(pos, m3_min[None, :], -m3_max[None, :])
        part2 = np.where(pos[:, :, None], m2, -m2).min(axis=2)
        margin = np.minimum(np.minimum(part1, part3), part2)
        margin = np.where(np.abs(orient) < 1e-14, -np.inf, margin)
        margin = np.where(w1[sl][:, None] + w2[None, :] <= slack + 1e-12,
                          margin, -np.inf)
        idx = np.unravel_index(int(np.argmax(margin)), margin.shape)
        if margin[idx] > best:
            best = float(margin[idx])
            best_idx = (start + idx[0], idx[1])
    if best_idx is None or not np.isfinite(best):
        return None, -np.inf, (0.0, 0.0)
    i, j = best_idx
    return (P[i], Q[j]), best, (float(w1[i]), float(w2[j]))
