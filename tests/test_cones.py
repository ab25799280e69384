import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessform import (
    ConeRep,
    InputError,
    Membership,
    SimplexPoint,
    Verdict,
    boundary_shift,
    cone_membership,
    dt_iterates,
    simplex_project,
    triangle_cover_decision,
    unproject,
    verify_cover_certificate,
)

from hessform.cones import (
    _EDGES,
    CoverCertificate,
    _edge_corners,
    _edge_distance,
    _infeasibility_certificate,
    _margins,
    _tri_contains,
)

from conftest import (
    INFEASIBLE_DT_A,
    INFEASIBLE_DT_LIMIT,
    INFEASIBLE_DT_POINTS,
    in_witness_triangle,
    random_irreducible_nonneg,
)


class TestConeMembership:
    def test_interior_of_orthant(self):
        assert cone_membership(np.eye(2), [1.0, 1.0]) is Membership.INTERIOR

    def test_outside(self):
        # coefficients solve to (5/3, -1/3)
        assert cone_membership([[2.0, 1.0], [1.0, 2.0]], [3.0, 1.0]) is Membership.OUTSIDE

    def test_generator_is_boundary(self):
        assert cone_membership([[2.0, 1.0], [1.0, 2.0]], [2.0, 1.0]) is Membership.BOUNDARY

    def test_rectangular_generators(self):
        G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert cone_membership(G, [2.0, 3.0]) is Membership.INTERIOR
        assert cone_membership(G, [-1.0, 1.0]) is Membership.OUTSIDE

    def test_lower_dimensional_cone(self):
        G = np.array([[1.0], [1.0]])
        assert cone_membership(G, [2.0, 2.0]) is Membership.BOUNDARY
        assert cone_membership(G, [1.0, 0.0]) is Membership.OUTSIDE

    def test_zero_vector(self):
        assert cone_membership(np.eye(3), np.zeros(3)) is Membership.BOUNDARY

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cone_membership(np.eye(2), [1.0, 1.0, 1.0])

    def test_zero_columns_dropped(self):
        cone = ConeRep.from_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert cone.generators.shape == (2, 1)


class TestBoundaryShift:
    def test_known_crossing(self):
        s = boundary_shift(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 1.0]),
                           tol=1e-10)
        assert s == pytest.approx(1.0, abs=1e-6)
        x = np.linalg.solve(np.array([[3.0, 1.0], [1.0, 3.0]]), [3.0, 1.0])
        assert min(x) == pytest.approx(0.0, abs=1e-6)

    def test_already_on_boundary(self):
        # b is the second generator column
        s = boundary_shift(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 2.0]))
        assert s == 0.0

    def test_interior_input_rejected(self):
        with pytest.raises(InputError):
            boundary_shift(np.eye(2), np.array([1.0, 1.0]))

    def test_first_crossing_between_grid_points(self):
        # a grid over s skips this first crossing and lands on a later one
        A = np.array([
            [.1056471155247544, 0, 0, .4160317110544762],
            [.20813050018551318, 0, .5826695427006615, .15250496990479567],
            [.09195719656973372, .17501378965827033, 0, .14076179291406693],
            [.33535096431509154, .5858512600551684, .07879777562973991, 0]])
        b = np.array([.5116954992071455, 1.3548182676077394, .8403502921416686,
                      .567052620827658])
        s = boundary_shift(A, b)
        assert s == pytest.approx(0.35053, abs=1e-5)
        x = np.linalg.solve(A + s * np.eye(4), b)
        assert np.min(x) >= -1e-9 * np.max(x)
        assert np.min(np.abs(x)) <= 1e-9 * np.max(x)

    def test_scaled_matrix_scales_the_shift(self):
        # at 10**6 scale x(s) is about 10**-6, so a margin that does not divide
        # by max|x| takes the first zero while another coefficient is negative
        A = np.array([[.683, .078, .854], [.264, .499, .771], [.651, .735, .47]])
        b = np.array([.108, 1.019, 1.024])
        s = boundary_shift(A, b)
        assert s == pytest.approx(7.63167, abs=1e-5)
        assert boundary_shift(1e6 * A, b) == pytest.approx(1e6 * s, rel=1e-9)
        x = np.linalg.solve(1e6 * (A + s * np.eye(3)), b)
        assert np.min(x) >= -1e-9 * np.max(x)
        assert np.min(np.abs(x)) <= 1e-9 * np.max(x)

    def test_pole_is_not_a_crossing(self):
        # A has the eigenvalue -0.342643 with an eigenvector that vanishes in
        # entry 4; s = 0.342643 zeroes that pencil, but A + s I is singular
        # there (exactly so at 10**6 scale) and x(s) has a pole
        A = np.array([[.115, .62, 0, 0], [.963, .962, 0, 0],
                      [.7, .982, .881, .101], [0, 0, 0, .619]])
        b = np.array([1.814, .291, .91, 1.286])
        for scale in (1.0, 1e6):
            assert boundary_shift(scale * A, b) == pytest.approx(5.88803 * scale, rel=1e-5)

    def test_postcondition_random(self, rng):
        hits = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            A = random_irreducible_nonneg(rng, n)
            A = A / np.abs(A).sum(axis=1).max()
            b = rng.uniform(0.2, 2.0, size=n)
            try:
                s = boundary_shift(A, b, tol=1e-8)
            except InputError:
                continue  # interior at s = 0
            hits += 1
            assert cone_membership(A + s * np.eye(n), b,
                                   tol=1e-6) is Membership.BOUNDARY
            if s > 1e-4:
                # minimality: retreating re-exposes a negative coefficient
                x = np.linalg.solve(A + (s - 10 * 1e-5) * np.eye(n), b)
                assert np.min(x) < 0
        assert hits > 5


class TestSimplexProject:
    def test_known_points(self):
        assert simplex_project([1.0, 1.0, 0.0]) == SimplexPoint(0.5, 0.0)
        assert simplex_project([0.0, 6.0, 19.0]) == SimplexPoint(0.24, 0.76)
        assert simplex_project([1.0, 0.0, 0.0]) == SimplexPoint(0.0, 0.0)

    def test_rejects_zero_sum(self):
        with pytest.raises(InputError):
            simplex_project([0.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            simplex_project([1.0, -1.0, 1.0])

    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3,
                    max_size=3))
    @settings(max_examples=60)
    def test_scale_invariance(self, c, entries):
        x = np.array(entries)
        if x.sum() <= 0.5:
            return
        p1 = simplex_project(x)
        p2 = simplex_project(c * x)
        assert abs(p1.x - p2.x) <= 1e-12 and abs(p1.y - p2.y) <= 1e-12

    def test_unproject_round_trip(self):
        p = SimplexPoint(0.3, 0.5)
        assert simplex_project(unproject(p)) == p


def _points(pairs):
    return [SimplexPoint(x, y) for x, y in pairs]


def _fold(a, b):
    """Map the unit square onto the reference triangle D."""
    return (a, b) if a + b <= 1.0 else (1.0 - a, 1.0 - b)


@st.composite
def _cover_configurations(draw):
    """A corner v0 in the interior of D or on one of its edges, and 1-8 points of D."""
    unit = st.floats(0.0, 1.0)
    where = draw(st.sampled_from(["interior", "bottom", "left", "hypotenuse"]))
    if where == "interior":
        w = np.array([draw(st.floats(0.01, 1.0)) for _ in range(3)])
        v0 = (float(w[1] / w.sum()), float(w[2] / w.sum()))
    else:
        t = draw(unit)
        v0 = {"bottom": (t, 0.0), "left": (0.0, t), "hypotenuse": (t, 1.0 - t)}[where]
    pts = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=8))
    return v0, [_fold(a, b) for a, b in pts]


class TestTriangleCoverDecision:
    def test_infeasible_reference_configuration(self):
        v0 = SimplexPoint(*INFEASIBLE_DT_POINTS[0])
        cloud = _points(INFEASIBLE_DT_POINTS + [INFEASIBLE_DT_LIMIT])
        decision = triangle_cover_decision(v0, cloud, tol=1e-6)
        assert decision.verdict is Verdict.INFEASIBLE
        cert = decision.certificate
        assert cert.v0_edge == "bottom"
        assert set(cert.contacts) == {"left", "hypotenuse"}
        hyp = cert.contacts["hypotenuse"]
        assert (hyp.x, hyp.y) == pytest.approx((0.24, 0.76), abs=1e-9)
        assert verify_cover_certificate(cert, v0, cloud, tol=1e-6)

    def test_corner_with_single_point_feasible(self):
        decision = triangle_cover_decision(SimplexPoint(0.0, 0.0),
                                           _points([(0.2, 0.2)]))
        assert decision.verdict is Verdict.FEASIBLE
        p, q = decision.witnesses
        for u in [(0.2, 0.2)]:
            assert in_witness_triangle((0.0, 0.0), p, q, u)

    def test_degenerate_single_point(self):
        v0 = SimplexPoint(0.5, 0.0)
        decision = triangle_cover_decision(v0, [v0])
        assert decision.verdict is Verdict.FEASIBLE
        assert decision.witnesses == (v0, v0)

    def test_soundness_of_feasible(self, rng):
        for _ in range(25):
            v0 = SimplexPoint(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
            pts = []
            for _ in range(int(rng.integers(1, 12))):
                x = float(rng.uniform(0, 1))
                y = float(rng.uniform(0, 1 - x))
                pts.append(SimplexPoint(x, y))
            decision = triangle_cover_decision(v0, pts, tol=1e-9)
            if decision.verdict is Verdict.FEASIBLE:
                p, q = decision.witnesses
                for u in pts:
                    assert in_witness_triangle((v0.x, v0.y), p, q, (u.x, u.y))

    def test_monotone_subset_never_flips_to_infeasible(self, rng):
        for _ in range(20):
            v0 = SimplexPoint(float(rng.uniform(0.1, 0.3)),
                              float(rng.uniform(0.1, 0.3)))
            pts = []
            for _ in range(8):
                x = float(rng.uniform(0, 0.9))
                y = float(rng.uniform(0, 0.9 - min(x, 0.89)))
                pts.append(SimplexPoint(x, y))
            full = triangle_cover_decision(v0, pts)
            if full.verdict is Verdict.FEASIBLE:
                sub = triangle_cover_decision(v0, pts[:4])
                assert sub.verdict is not Verdict.INFEASIBLE

    def test_rejects_outside_corner(self):
        with pytest.raises(InputError):
            triangle_cover_decision(SimplexPoint(0.9, 0.9), [])

    def test_collinear_cloud_gets_a_proper_triangle(self):
        # every iterate of a dense DT draw lies on one ray from v0, which ends
        # on the hypotenuse; the chord triangle collapses to a segment there
        v0 = np.array([0.53721509, 0.14108979])
        end = np.array([0.85878865, 0.14121135])
        cloud = _points([v0 + t * (end - v0) for t in (0.0, 0.3, 0.7, 1.0)])
        decision = triangle_cover_decision(SimplexPoint(*v0), cloud)
        assert decision.verdict is Verdict.FEASIBLE
        p, q = decision.witnesses
        assert abs((p.x - v0[0]) * (q.y - v0[1]) - (p.y - v0[1]) * (q.x - v0[0])) > 1e-3
        for u in cloud:
            assert in_witness_triangle(tuple(v0), p, q, (u.x, u.y))

    @pytest.mark.parametrize("v0, pts", [
        # the tangent ray grazes the left edge: as an angle it leaves D short
        # of the point it passes through
        ((1e-9, 0.0), [(0.0, 0.5)]),
        # the tangent ray through (0, 0.25) leaves D there, short of (0, 0.5);
        # (v0, (1, 0), (0, 0.5)) misses (0, 0.25) by 5e-11
        ((1e-10, 0.0), [(0.0, 0.5), (0.0, 0.25), (0.5, 0.0)]),
        # both points on the left edge: the turned rays leave D past them,
        # which leaves each behind a corner by about 1e-9; the wedge's own
        # edges leave D through them
        ((0.2, 0.4), [(0.0, 0.5), (0.0, 0.75)]),
        # the counter-clockwise ray grazes the left edge and must turn; the
        # clockwise one must not, or (0.95, 0.05) ends up 1.9e-9 behind the
        # corner that the turn moves up the hypotenuse
        ((1e-10, 0.6), [(0.95, 0.05), (0.0, 0.9), (0.0, 0.75)]),
        # a point 5.7e-8 from v0 sets the counter-clockwise tangent, which
        # leaves D at (4.8e-4, 0); the turned ray leaves D 1.2e-9 above
        # (0, 4.7e-9), and the ray through that point leaves D at it
        ((0.19211192649200742, 0.42012566256365813),
         [(0.19211190270290007, 0.420125610408981), (0.06551138282675424, 0.42776291778461434),
          (0.0, 0.999999990240882), (0.1921117692884973, 0.4201261366465846),
          (0.1211490453175191, 0.6343213857635976), (0.0, 4.693038624381529e-09)]),
        # v0 2.3e-10 below the hypotenuse, the point on it: the ray through
        # the point grazes the hypotenuse and leaves D 1.6e-8 short of it
        ((0.5280339350568085, 0.4719660647144597), [(0.14918009728234172, 0.8508199027176583)]),
    ])
    def test_ray_grazing_an_edge_within_tolerance(self, v0, pts):
        decision = triangle_cover_decision(SimplexPoint(*v0), _points(pts))
        assert decision.verdict is Verdict.FEASIBLE
        p, q = decision.witnesses
        assert all(in_witness_triangle(v0, p, q, u, tol=1e-9) for u in pts)

    def test_points_near_a_triangle_are_never_unknown(self):
        # Unknown promises that no triangle holds the points within tol / 2;
        # corners and grazing rays are where the tangent and the turned rays
        # leave D far apart
        rng = np.random.default_rng(23)
        configs = [c for c in (_near_triangle_configuration(rng, 1e-9) for _ in range(1500)) if c]
        for v0, pts in configs:
            decision = triangle_cover_decision(SimplexPoint(*v0), _points(pts))
            assert decision.verdict is not Verdict.UNKNOWN, (v0, pts)
            if decision.verdict is Verdict.FEASIBLE:
                p, q = decision.witnesses
                assert all(in_witness_triangle(v0, p, q, u, tol=1e-9) for u in pts), (v0, pts)
        assert len(configs) > 600

    @given(_cover_configurations())
    @settings(max_examples=300)
    def test_unknown_means_no_triangle_exists(self, config):
        # the chord lemma: a triangle (v0, p, q) inside D holds the points
        # exactly when the one bounded by the tangent rays' exit points does;
        # Unknown promises that none comes within tol / 2 of holding them
        v0, pts = config
        decision = triangle_cover_decision(SimplexPoint(*v0), _points(pts))
        if decision.verdict is Verdict.FEASIBLE:
            p, q = decision.witnesses
            assert all(in_witness_triangle(v0, p, q, u) for u in pts)
        if decision.verdict is Verdict.UNKNOWN:
            rng = np.random.default_rng(7)
            P, Q = _boundary_points(rng, 2000), _boundary_points(rng, 2000)
            assert np.min(_cover_gaps(np.array(v0), P, Q, np.array(pts))) > 0.5e-9


def _near_triangle_configuration(rng, tol):
    """A point v0 of D, often within a few tol of an edge, and 1-7 points of
    D within tol / 2 of a triangle (v0, p, q) with p and q on the boundary of
    D: on its corners and edges or inside, some moved by up to tol / 2."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def boundary():
        k = rng.integers(3)
        f = rng.choice([rng.uniform(), rng.uniform(0, 1e-8), 1 - rng.uniform(0, 1e-8)])
        return corners[k] + f * (corners[(k + 1) % 3] - corners[k])

    if rng.uniform() < 0.25:
        w = rng.uniform(0.01, 1.0, 3)
        v0 = w[1:] / w.sum()
    else:  # on an edge, or up to 3 tol inside or 1 tol outside it
        v0 = boundary()
        v0 = v0 + (np.array([1 / 3, 1 / 3]) - v0) * rng.choice([0.0, rng.uniform(-tol, 3 * tol)])
    verts = np.array([v0, boundary(), boundary()])
    (a, b), (c, d) = verts[1] - v0, verts[2] - v0
    if abs(a * d - b * c) < 1e-6:
        return None
    p, q = SimplexPoint(*verts[1]), SimplexPoint(*verts[2])
    pts, n = [], rng.integers(1, 8)
    while len(pts) < n:
        i = rng.integers(3)
        f = rng.choice([rng.uniform(), rng.uniform(0, 1e-6), 1 - rng.uniform(0, 1e-6)])
        u = (verts[i] + f * (verts[(i + 1) % 3] - verts[i]) if rng.uniform() < 0.7
             else rng.dirichlet(np.ones(3)) @ verts)
        if rng.uniform() < 0.6:
            angle = rng.uniform(0, 2 * np.pi)
            u = u + rng.uniform(0, 0.499 * tol) * np.array([np.cos(angle), np.sin(angle)])
        u = np.where(np.abs(u) < 0.5 * tol, 0.0, u)  # onto the bottom or left edge
        if (min(u) >= 0 and sum(u) <= 1
                and in_witness_triangle(tuple(v0), p, q, tuple(u), tol=0.5 * tol)):
            pts.append(tuple(u))
    return tuple(v0), pts


def _scalar_certificate(v0, pts, tol):
    """Reference for _infeasibility_certificate: the three-edge contact search
    as a scalar loop over contact pairs and then over the points."""
    v0_edges = [e for e in _EDGES if _edge_distance(v0, e) <= tol]
    if len(v0_edges) != 1:
        return None
    edge0 = v0_edges[0]
    c0, c1 = _edge_corners(edge0)
    if min(np.linalg.norm(v0 - c0), np.linalg.norm(v0 - c1)) <= tol:
        return None
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
            dvec = cb - ca
            normal = np.array([-dvec[1], dvec[0]])
            nrm = np.linalg.norm(normal)
            if nrm < 1e-14:
                continue
            normal = normal / nrm
            cval = float(normal @ ca)
            side_v0 = float(normal @ v0) - cval
            if abs(side_v0) <= tol:
                continue
            for u in pts:
                side_u = float(normal @ u) - cval
                if side_u * side_v0 <= tol:
                    continue
                # the half-plane margin: the certificate's outlier test, which
                # the Euclidean distance of verify_cover_certificate bounds
                inside = float(_margins(v0, ca, cb, u.reshape(1, 2))[0])
                if inside < -tol:
                    return CoverCertificate(
                        v0=SimplexPoint(*v0), v0_edge=edge0,
                        contacts={others[0]: SimplexPoint(*ca),
                                  others[1]: SimplexPoint(*cb)},
                        outlier=SimplexPoint(*u),
                        contact_line=(float(normal[0]), float(normal[1]), cval),
                        outlier_margin=float(-inside))
    return None


def _contact_cloud(rng):
    """v0 inside one edge of D, 1-3 points on each other edge (some shared
    corners), a copy of v0 and up to 3 points of D, shuffled."""
    edge0 = _EDGES[int(rng.integers(3))]
    on = {"bottom": lambda t: (t, 0.0), "left": lambda t: (0.0, t),
          "hypotenuse": lambda t: (t, 1.0 - t)}
    v0 = on[edge0](float(rng.uniform(0.05, 0.95)))
    pts = [v0]
    for e in _EDGES:
        if e != edge0:
            pts += [on[e](float(t)) for t in rng.uniform(0.0, 1.0, rng.integers(1, 4))]
    pts += [_fold(*rng.uniform(0.0, 1.0, 2)) for _ in range(int(rng.integers(0, 4)))]
    return np.array(v0), np.array(pts)[rng.permutation(len(pts))]


def _certificate_fields(cert):
    if cert is None:
        return None
    return (cert.v0, cert.v0_edge, cert.contacts, cert.outlier, cert.contact_line,
            cert.outlier_margin)


class TestInfeasibilityCertificate:
    def test_matches_the_scalar_search(self):
        clouds = []
        for i in range(60):
            # the counterexample family: iterates of A scaled entrywise, b = (b1, b2, 0)
            rng = np.random.default_rng([11, i])
            A = INFEASIBLE_DT_A * rng.uniform(0.5, 2.0, size=(3, 3))
            trace = dt_iterates(A, [*rng.uniform(0.5, 2.0, 2), 0.0], 50)
            cloud = list(trace.points) + [trace.limit_point]
            clouds.append((trace.points[0].as_array(),
                           np.array([p.as_array() for p in cloud])))
        rng = np.random.default_rng(12)
        clouds += [_contact_cloud(rng) for _ in range(400)]
        found = []
        for v0, pts in clouds:
            for tol in (1e-9, 1e-6):
                cert = _infeasibility_certificate(v0, pts, tol)
                assert _certificate_fields(cert) == \
                    _certificate_fields(_scalar_certificate(v0, pts, tol))
                found.append(cert is not None)
        assert sum(found) > 100 and found.count(False) > 20

    @pytest.mark.parametrize("v0, p, q", [
        ((0.2, 0.0), (0.5, 0.0), (0.8, 0.0)),
        ((0.5, 0.0), (0.8, 0.0), (0.2, 0.0)),  # v0 between p and q
    ])
    def test_collinear_triangle_measures_distance_to_the_segment(self, v0, p, q):
        # (v0, p, q) on the bottom edge: the margin is minus the distance to
        # the segment [(0.2, 0), (0.8, 0)] that all three span, zero on it
        v0, p, q = np.array(v0), np.array(p), np.array(q)
        on = np.array([[0.2, 0.0], [0.3, 0.0], [0.8, 0.0]])
        assert _tri_contains(v0, p, q, on, 1e-9) == pytest.approx(0.0, abs=1e-15)
        off = np.array([[0.5, 0.0], [0.5, 0.1], [1.1, 0.4], [0.0, 0.0]])
        assert _tri_contains(v0, p, q, off, 1e-9) == pytest.approx(-0.5)
        assert _tri_contains(v0, p, q, off[:2], 1e-9) == pytest.approx(-0.1)
        assert _tri_contains(v0, v0, v0, v0 + [[0.3, 0.4]], 1e-9) == pytest.approx(-0.5)

    def test_point_behind_a_thin_apex_is_outside(self):
        # a witness the grid search once returned: the point lies within 1e-16
        # of every edge's half-plane, yet 3e-8 past the corner (0, 0.49999997)
        v0, p, q = np.array([1e-9, 0.0]), np.array([0.0, 0.49999997]), np.array([0.0, 4.5e-8])
        u = np.array([[0.0, 0.5]])
        assert np.min(_margins(v0, p, q, u)) > -1e-16
        assert _tri_contains(v0, p, q, u, 1e-9) == pytest.approx(-3e-8, rel=1e-6)
        assert not in_witness_triangle(tuple(v0), SimplexPoint(*p), SimplexPoint(*q),
                                       (0.0, 0.5), tol=1e-9)

    def test_margin_of_a_row_does_not_depend_on_its_batch(self):
        # the batch check of the cover decision and the one-row re-check of
        # verify_cover_certificate must agree bit for bit, right at -tol too
        rng = np.random.default_rng(31)
        for i in range(3000):
            v0, p, q = rng.uniform(-1.0, 2.0, size=(3, 2))
            if i % 10 == 0:  # collinear: the distance-to-segment branch
                p, q = v0 + rng.uniform(-1.0, 1.0) * (p - v0), v0 + 2.0 * (p - v0)
            pts = rng.uniform(-1.0, 2.0, size=(int(rng.integers(2, 40)), 2))
            batch = _margins(v0, p, q, pts)
            alone = np.array([_margins(v0, p, q, u.reshape(1, 2))[0] for u in pts])
            assert batch.tobytes() == alone.tobytes()


def _boundary_points(rng, n):
    """n uniform random points on the boundary of D, one random edge each."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    k = rng.integers(0, 3, size=n)
    f = rng.uniform(0.0, 1.0, size=(n, 1))
    return corners[k] + f * (corners[k + 1] - corners[k])


def _cover_gaps(v0, P, Q, pts):
    """Largest Euclidean distance from a point of pts to each triangle
    (v0, P[i], Q[i]); inf for a degenerate triangle, which gives no frame.
    Distances, not half-plane margins: near the apex of a thin triangle a
    point well outside it has a half-plane margin close to 0."""
    V = np.broadcast_to(v0, P.shape)
    area2 = (P[:, 0] - v0[0]) * (Q[:, 1] - v0[1]) - (P[:, 1] - v0[1]) * (Q[:, 0] - v0[0])
    cw = (area2 < 0)[:, None]
    P, Q = np.where(cw, Q, P), np.where(cw, P, Q)
    inside = np.ones((len(P), len(pts)), dtype=bool)
    nearest = np.full((len(P), len(pts)), np.inf)
    for a, b in ((V, P), (P, Q), (Q, V)):
        edge = (b - a)[:, None, :]
        rel = pts[None, :, :] - a[:, None, :]
        inside &= edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0] >= 0
        t = np.clip(np.sum(rel * edge, axis=2) / np.maximum(np.sum(edge**2, axis=2), 1e-300),
                    0.0, 1.0)
        nearest = np.minimum(nearest, np.linalg.norm(rel - t[..., None] * edge, axis=2))
    gaps = np.where(inside, 0.0, nearest).max(axis=1)
    return np.where(np.abs(area2) < 1e-12, np.inf, gaps)
