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
    simplex_project,
    triangle_cover_decision,
    unproject,
    verify_cover_certificate,
)

from conftest import (
    INFEASIBLE_DT_LIMIT,
    INFEASIBLE_DT_POINTS,
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
    @settings(max_examples=60, deadline=None)
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
            assert _in_witness_triangle((0.0, 0.0), p, q, u)

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
                    assert _in_witness_triangle((v0.x, v0.y), p, q, (u.x, u.y))

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


def _in_witness_triangle(v0, p, q, u, tol=1e-7):
    verts = np.array([v0, (p.x, p.y), (q.x, q.y)])
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    area2 = float(d1[0] * d2[1] - d1[1] * d2[0])
    u = np.array(u)
    if abs(area2) < 1e-14:
        a, b = verts[0], verts[1] if np.linalg.norm(verts[1] - verts[0]) > 1e-14 else verts[2]
        d = b - a
        L = np.linalg.norm(d)
        if L < 1e-14:
            return np.linalg.norm(u - a) <= tol
        t = np.clip((u - a) @ d / L**2, 0.0, 1.0)
        return np.linalg.norm(u - (a + t * d)) <= tol
    if area2 < 0:
        verts = verts[[0, 2, 1]]
    for i in range(3):
        a, b = verts[i], verts[(i + 1) % 3]
        edge = b - a
        inward = np.array([-edge[1], edge[0]]) / np.linalg.norm(edge)
        if (u - a) @ inward < -tol:
            return False
    return True
