"""Polyhedral-cone membership, boundary shifts, and the 2-d simplex geometry
used to certify that a discrete-time pair admits no nonnegative
controller-Hessenberg transformation.

The planar machinery works inside the reference triangle
``D = {(x, y): x >= 0, y >= 0, x + y <= 1}``, the image of the unit simplex in
R^3 after dropping the first coordinate.  Whether a triangle cornered at a
point of D holds a point set is decided exactly (``triangle_cover_decision``).
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
_CORNERS = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def _edge_distance(p: np.ndarray, edge: str):
    """Distance of a point, or of each row of an array of points, to an edge of D."""
    if edge == "bottom":
        return np.abs(p[..., 1])
    if edge == "left":
        return np.abs(p[..., 0])
    if edge == "hypotenuse":
        return np.abs(1.0 - p[..., 0] - p[..., 1]) / math.sqrt(2.0)
    raise ValueError(edge)


def _edge_corners(edge: str) -> tuple[np.ndarray, np.ndarray]:
    O, X, Y = _CORNERS
    return {"bottom": (O, X), "left": (O, Y), "hypotenuse": (X, Y)}[edge]


def _in_triangle(p: np.ndarray, tol: float) -> bool:
    """Whether a point, or every row of an array of points, lies in D up to tol."""
    x, y = p[..., 0], p[..., 1]
    return bool(np.all((x >= -tol) & (y >= -tol) & (x + y <= 1.0 + tol)))


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
    bscale = inf_norm(b)

    if G.shape[1] == 0:
        return Membership.BOUNDARY if inf_norm(b) <= tol * bscale else Membership.OUTSIDE

    if G.shape[1] == n:
        try:
            x = np.linalg.solve(G, b)
            xhat = x / (float(np.max(np.abs(x))) or 1.0)
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
    if np.linalg.matrix_rank(G, tol=1e-10 * inf_norm(G)) < n:
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
    margin = -res.fun / (float(np.max(np.abs(res.x[:-1]))) or 1.0)
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
    return SimplexPoint(*_project_rows(x.reshape(1, 3))[0].tolist())


def _project_rows(X: np.ndarray) -> np.ndarray:
    """The planar coordinates of ``simplex_project`` for every row of a finite
    (K, 3) array, in one pass, as a (K, 2) array."""
    t = 1e-12 * np.maximum(1.0, np.max(np.abs(X), axis=1))
    if np.any(np.min(X, axis=1) < -t):
        raise InputError("simplex_project expects a nonnegative vector")
    total = np.sum(X, axis=1)
    if np.any(total <= t):
        raise InputError("coordinate sum must be positive")
    return X[:, 1:] / total[:, None]


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
    other two off their shared corner; any admissible triangle then collapses
    onto ``conv{v0, contact_1, contact_2}``, and ``outlier`` lies strictly
    outside it on the ``v0`` side of the contact line.
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
    """Least signed distance of pts to triangle (v0, p, q): the inward
    half-plane margin of a point inside, minus the Euclidean distance of one
    outside.  A half-plane alone would let a point sit up to
    ``tol / sin(angle / 2)`` behind the apex of a thin triangle.  A half-plane
    margin below ``-tol`` already settles containment and stands in for the
    distance, which is never smaller."""
    if not len(pts):
        return 0.0
    margins = _margins(v0, p, q, pts)
    least = float(np.min(margins))
    if not -tol <= least < 0:
        return least
    dist = _points_to_edges(pts[margins < 0], np.array([v0, p, q]))
    # never above a violated half-plane's margin, also after rounding
    return min(least, -float(np.max(dist)))


def _margins(v0, p, q, pts) -> np.ndarray:
    """Inward half-plane margin of each row of pts w.r.t. triangle (v0, p, q)."""
    verts = np.array([v0, p, q])
    area2 = _cross2(verts[1] - verts[0], verts[2] - verts[0])
    if abs(area2) < 1e-15:
        # degenerate triangle: containment means lying on the segment hull
        return -_points_to_edges(pts, verts)
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
        margins = np.minimum(margins, _dot_rows(pts - a, inward))
    return margins


def _dot_rows(d, w) -> np.ndarray:
    """``d @ w`` for (N, 2) rows, elementwise so that a row rounds alike in any
    batch: BLAS sums a one-row product in another order than a many-row one."""
    return d[:, 0] * w[0] + d[:, 1] * w[1]


def _points_to_edges(pts, verts) -> np.ndarray:
    """Distance of each row of pts to the nearest edge segment of the triangle
    verts; for collinear verts, to the segment they span."""
    d = verts[[1, 2, 0]] - verts
    rel = pts[:, None, :] - verts  # (N, 3, 2): each row from each corner
    t = (rel[..., 0] * d[:, 0] + rel[..., 1] * d[:, 1]) / np.maximum(
        d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], 1e-300)  # an edge of length 0: t = 0
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    gx, gy = rel[..., 0] - t * d[:, 0], rel[..., 1] - t * d[:, 1]
    return np.sqrt(np.min(gx * gx + gy * gy, axis=1))


def _clip_ray(v0: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """Farthest point of the reference triangle along the ray from v0 along d."""
    d = d / math.hypot(d[0], d[1])
    x, y, dx, dy = float(v0[0]), float(v0[1]), float(d[0]), float(d[1])
    # room and rate towards x >= 0, y >= 0, x + y <= 1; a unit d heads for at least one
    t_max = min(room / rate for room, rate in ((x, -dx), (y, -dy), (1.0 - (x + y), dx + dy))
                if rate > 1e-15)
    return v0 + t_max * d if t_max >= 0 else None


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
    away = pts[np.linalg.norm(pts - v0, axis=1) > tol]
    near = [_edge_distance(away, e) <= tol for e in others]
    # a point on both contact edges is their shared corner, not a contact
    contact_sets = {e: away[hit & ~(near[0] & near[1])] for e, hit in zip(others, near)}
    if not all(len(hits) for hits in contact_sets.values()):
        return None

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
            # strictly on the v0 side of the contact line and outside the triangle
            margins = _margins(v0, ca, cb, pts)
            out = np.flatnonzero(((pts @ normal - cval) * side_v0 > tol) & (margins < -tol))
            if len(out):
                return CoverCertificate(
                    v0=SimplexPoint(*v0),
                    v0_edge=edge0,
                    contacts={others[0]: SimplexPoint(*ca),
                              others[1]: SimplexPoint(*cb)},
                    outlier=SimplexPoint(*pts[out[0]]),
                    contact_line=(float(normal[0]), float(normal[1]), cval),
                    outlier_margin=float(-margins[out[0]]),
                )
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
    cloud = np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)
    contacts = []
    for edge, cp in cert.contacts.items():
        if edge == cert.v0_edge:
            return False
        arr = cp.as_array()
        if _edge_distance(arr, edge) > tol:
            return False
        if all(_edge_distance(arr, e) <= tol for e in cert.contacts):
            return False  # the shared corner of the contact edges
        if not np.any(np.all(np.abs(cloud - arr) <= tol, axis=1)):
            return False
        contacts.append(arr)
    a, b, c = cert.contact_line
    normal = np.array([a, b])
    out = cert.outlier.as_array()
    if not np.any(np.all(np.abs(cloud - out) <= tol, axis=1)):
        return False
    side_v0 = float(normal @ v0a) - c
    side_out = float(normal @ out) - c
    if side_v0 * side_out <= 0:
        return False
    inside = _tri_contains(v0a, contacts[0], contacts[1], out.reshape(1, 2), tol)
    return inside < -tol


def _turned_wedge(dirs: np.ndarray, tau: float) -> tuple[np.ndarray, ...] | None:
    """The edges of the narrowest wedge that leaves every row of ``dirs`` at
    most ``tau`` outside, clockwise one first: the wedge of the rows turned
    in as far as that allows.  One shared ray if they cross, None if the
    wedge spans pi.

    The rows' angles are cut open at the gap between them that leaves the
    narrowest wedge.  That is the largest gap unless a row near ``v0``, whose
    angle ``tau`` leaves wide, fits better on the other side, so only gaps
    within twice the widest allowance of the largest are tried."""
    angles = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * math.pi)
    allow = np.arcsin(tau / np.hypot(dirs[:, 0], dirs[:, 1]))  # rows are longer than 2 tau
    order = np.argsort(angles)
    gaps = np.diff(np.append(angles[order], angles[order[0]] + 2 * math.pi))
    best = None
    for k in np.flatnonzero(gaps >= np.max(gaps) - 2 * np.max(allow)):
        start = order[(k + 1) % len(order)]
        lo = dirs[start] / math.hypot(dirs[start, 0], dirs[start, 1])
        angle = np.arctan2(lo[0] * dirs[:, 1] - lo[1] * dirs[:, 0], dirs @ lo)
        if gaps[k] < math.pi:  # counter-clockwise from lo they run to 2 pi - gap
            past_pi = np.mod(angles - angles[start], 2 * math.pi) > math.pi
            angle = np.where(past_pi, np.mod(angle, 2 * math.pi), angle)
        turns = [float(np.min(angle + allow)), float(np.max(angle - allow))]
        if best is None or turns[1] - turns[0] < best[1][1] - best[1][0]:
            best = lo, turns
    lo, turns = best
    if turns[1] - turns[0] >= math.pi - 1e-12:
        return None
    if turns[0] >= turns[1]:
        turns = [0.5 * sum(turns)] * 2
    left = np.array([-lo[1], lo[0]])
    return tuple(math.cos(t) * lo + math.sin(t) * left for t in turns)


def _ray_exit(v0, dirs, ray, side, tol):
    """Where the turned ``ray`` leaves D, unless that leaves a point more
    than tol past the exit; then where the ray through the outermost such
    point does, or that point if the exit falls short of it.  ``dirs`` are
    the points farther than tol from ``v0``, less ``v0``; ``side`` is +1 for
    the clockwise ray, -1 for the counter-clockwise one.

    A point on the outer side of the ray and beyond the perpendicular at its
    exit is nearest to the exit of every triangle with that corner, so this
    test settles the corner whatever the other ray is.  A turned ray moves
    its exit along the edge of D it leaves through, which can leave a point
    there past the corner, and a ray that grazes an edge has an
    ill-conditioned exit."""
    p = _clip_ray(v0, ray)
    if p is None:
        return None
    ahead = dirs @ ray > (p - v0) @ ray  # beyond the perpendicular at p
    if not ahead.any():
        return p
    u = dirs[ahead]
    out = -side * (ray[0] * u[:, 1] - ray[1] * u[:, 0]) / np.hypot(u[:, 0], u[:, 1])
    past = (out >= 0) & (np.hypot(*(u - (p - v0)).T) > tol)
    if not past.any():
        return p
    u = u[past][int(np.argmax(out[past]))]  # the outermost
    p = _clip_ray(v0, u)
    return v0 + u if p is None or (p - v0) @ u < u @ u else p


def _chord_cover(v0, pts, p, q, tol):
    """The triangle (v0, p, q) on the exits p (clockwise) and q of the rays
    from v0, if it holds every point up to tol.  Coincident rays are closed
    with the corner of D farthest off them, keeping (v0, p, q)
    counter-clockwise."""
    if p is None or q is None:
        return None
    if abs(_cross2(p - v0, q - v0)) <= 1e-12:
        p = q = p if math.dist(p, v0) >= math.dist(q, v0) else q  # the farther exit
        off = [_cross2(p - v0, c - v0) for c in _CORNERS]
        k = int(np.argmax(np.abs(off)))
        p, q = (p, _CORNERS[k]) if off[k] > 0 else (_CORNERS[k], q)
    return (p, q) if _tri_contains(v0, p, q, pts, tol) >= -tol else None


def triangle_cover_decision(v0: SimplexPoint, points: list[SimplexPoint],
                            tol: float = 1e-9) -> CoverDecision:
    """Decide whether some triangle with corner ``v0`` inside the reference
    triangle D contains all of ``points``.

    Chord lemma: let the tangent rays from ``v0`` that bound the narrowest
    wedge holding the points leave D at ``P*`` and ``Q*``.  The points fit in
    some triangle ``(v0, p, q)`` inside D if and only if they fit in
    ``(v0, P*, Q*)``: both rays lie in the triangle's angle at ``v0``, so they
    cross ``pq`` at ``p'``, ``q'`` in D, and ``(v0, p', q')`` holds the points
    and lies in ``(v0, P*, Q*)``.  The rays are first turned inward as far as
    keeps every point within ``tol / 2``: a ray grazing an edge of D leaves it
    far from where a slightly turned one does, and a point near ``v0`` sets a
    tangent that ``tol`` barely pins.  A turned ray also moves its exit along
    the edge of D it leaves through, which can leave a point there more than
    ``tol`` past that corner; such a ray is turned back through the outermost
    of those points, on its own.  If every point lies on one ray, the corner
    of D farthest off it closes the triangle.

    Feasible comes with the witness corners ``(p, q)``, Infeasible with a
    three-edge certificate (``v0`` and contacts pinned to the three edges with
    an outlier).  Unknown means that no triangle holds the points, not even to
    within ``tol / 2``, but no three-edge certificate applies.
    """
    pts = np.array([[p.x, p.y] for p in points], dtype=float).reshape(-1, 2)
    return _cover_decision(v0.as_array(), pts, tol)


def _cover_decision(v0a: np.ndarray, pts: np.ndarray, tol: float) -> CoverDecision:
    """``triangle_cover_decision`` on the corner and the points as arrays."""
    if tol < 0:
        raise InputError("tol must be nonnegative")
    if not _in_triangle(v0a, tol):
        raise InputError("corner point lies outside the reference triangle")
    if not _in_triangle(pts, tol):
        raise InputError("a point lies outside the reference triangle")

    cert = _infeasibility_certificate(v0a, pts, max(tol, 1e-12))
    if cert is not None:
        return CoverDecision(Verdict.INFEASIBLE, None, cert)

    far = pts[np.linalg.norm(pts - v0a, axis=1) > max(tol, 1e-13)]
    if len(far) == 0:
        v0 = SimplexPoint(*v0a.tolist())
        return CoverDecision(Verdict.FEASIBLE, (v0, v0), None)

    dirs = far - v0a
    rays = _turned_wedge(dirs, 0.5 * tol)
    pair = None
    if rays is not None:
        p, q = (_ray_exit(v0a, dirs, ray, side, tol) for ray, side in zip(rays, (1.0, -1.0)))
        pair = _chord_cover(v0a, pts, p, q, tol)
    if pair is None:
        return CoverDecision(Verdict.UNKNOWN, None, None)
    return CoverDecision(Verdict.FEASIBLE, tuple(SimplexPoint(*w) for w in pair), None)
