import warnings

import numpy as np
import pytest

from hessform import (
    CoverCertificate,
    Generator,
    InputError,
    Mode,
    SimplexPoint,
    Verdict,
    dt_hess_feasibility_3,
    dt_iterates,
    make_certificate,
    sample_matrix,
    triangle_cover_decision,
    unproject,
    verify_certificate,
    verify_cover_certificate,
)

from hessform.cones import _cover_decision
from hessform.linalg import zero_tolerance

from conftest import (
    INFEASIBLE_DT_A,
    INFEASIBLE_DT_B,
    INFEASIBLE_DT_LIMIT,
    INFEASIBLE_DT_POINTS,
    in_witness_triangle,
)

# Verdicts of dt_hess_feasibility_3 on _dt_family_pair(i), i = 0..59 (F, I, U
# for feasible, infeasible, unknown), as the grid-search cover decision gave
# them before the exact chord test replaced it.
PINNED_DT_VERDICTS = "FFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIFFIUUIFFIFFI"


def _dt_family_pair(i):
    """Seeded DT pair i: two dense non-nilpotent nonnegative draws, then one
    positive rescaling of the counterexample pair."""
    rng = np.random.default_rng([7, i])
    if i % 3 == 2:
        A = INFEASIBLE_DT_A * rng.uniform(0.5, 2.0, size=(3, 3))
        b = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 0.0])
        return A, b
    A = sample_matrix(3, Mode.NONNEG, Generator.DENSE_UNIFORM, rng)
    while not np.any(np.linalg.matrix_power(A, 3)):  # nilpotent: no iterates
        A = sample_matrix(3, Mode.NONNEG, Generator.DENSE_UNIFORM, rng)
    return A, rng.uniform(0.0, 1.0, 3)


def _oracle_iterates(A, b, K):
    """Reference for ``dt_iterates``: K - 1 single renormalised steps, then
    the limit from twenty renormalised squarings of the reach-cut A and the
    mean of six more steps.  The (K + 1, 2) points, limit last."""
    A, b = np.asarray(A, dtype=float), np.maximum(np.asarray(b, dtype=float), 0.0)
    if not b.any():
        raise InputError("dt_iterates requires a nonnegative nonzero vector")
    t = zero_tolerance(A)
    X = np.empty((K + 1, 3))
    X[0] = x = b / b.sum()
    for k in range(1, K):
        x = np.maximum(A @ x, 0.0)
        total = float(x.sum())
        if total <= t:
            raise InputError("iterate coordinate sum degenerated to zero")
        X[k] = x = x / total
    step = (A > 0) | np.eye(3, dtype=bool)
    reach = step @ step @ (b > 0)
    M = np.maximum(A, 0.0) * np.outer(reach, reach)
    for _ in range(20):
        M = M / (float(M.max()) or 1.0)
        M = M @ M
    x = M @ b
    cycle = np.empty((6, 3))
    for k in range(6):
        total = float(x.sum())
        if total <= 0:
            raise InputError("iterate coordinate sum degenerated to zero")
        cycle[k] = x = x / total
        x = np.maximum(A @ x, 0.0)
    X[K] = np.mean(cycle, axis=0)
    return X[:, 1:] / X.sum(axis=1)[:, None]


def _ladder_and_oracle(A, b, K):
    """``dt_iterates`` and the oracle on one input, each as its (K + 1, 2)
    points or the InputError message it raised."""
    def ladder():
        trace = dt_iterates(A, b, K)
        return np.array([[p.x, p.y] for p in [*trace.points, trace.limit_point]])

    out = []
    for f in (ladder, lambda: _oracle_iterates(A, b, K)):
        try:
            out.append(f())
        except InputError as exc:
            out.append(str(exc))
    return out


def _edge_family(rng, i):
    """Pair i of the edge families: period 2, period 3, reducible with b in
    the slower class, zero-masked; b has zeros on every other pair."""
    kind = i % 4
    if kind == 0:
        A = np.zeros((3, 3))
        A[0, 1], A[1, 0] = rng.uniform(0.1, 5.0, 2)
        A[2] = rng.uniform(0.0, 1.0, 3) * (rng.uniform(size=3) < 0.5)
    elif kind == 1:
        A = np.zeros((3, 3))
        A[0, 1], A[1, 2], A[2, 0] = rng.uniform(0.1, 5.0, 3)
    elif kind == 2:
        A = np.zeros((3, 3))
        A[0, 0] = rng.uniform(1.0, 3.0)
        A[1:] = rng.uniform(0.0, 0.5, (2, 3)) * (rng.uniform(size=(2, 3)) < 0.8)
    else:
        A = rng.uniform(0.0, 1.0, (3, 3)) * (rng.uniform(size=(3, 3)) < 0.5)
    b = rng.uniform(0.1, 1.0, 3)
    if kind == 2:
        b[0] = 0.0
    if i % 2:
        b[int(rng.integers(3))] = 0.0
    return A, b


class TestDtIterates:
    def test_reference_coordinates(self):
        trace = dt_iterates(INFEASIBLE_DT_A, INFEASIBLE_DT_B, 10)
        assert trace.K == 10
        for point, (ex, ey) in zip(trace.points, INFEASIBLE_DT_POINTS):
            assert point.x == pytest.approx(ex, abs=1e-6)
            assert point.y == pytest.approx(ey, abs=1e-6)
        assert trace.limit_point.x == pytest.approx(0.0, abs=1e-6)
        assert trace.limit_point.y == pytest.approx(INFEASIBLE_DT_LIMIT[1], abs=1e-4)

    def test_limit_against_dominant_eigenvector(self):
        # independent oracle: eigendecomposition of the matrix
        vals, vecs = np.linalg.eig(INFEASIBLE_DT_A)
        lead = np.argmax(vals.real)
        u = np.abs(vecs[:, lead].real)
        u = u / u.sum()
        trace = dt_iterates(INFEASIBLE_DT_A, INFEASIBLE_DT_B, 5)
        assert trace.limit_point.x == pytest.approx(u[1], abs=1e-9)
        assert trace.limit_point.y == pytest.approx(u[2], abs=1e-9)

    def test_identity_fixed_point(self):
        trace = dt_iterates(np.eye(3), np.array([1.0, 1.0, 1.0]), 6)
        for p in trace.points:
            assert (p.x, p.y) == pytest.approx((1 / 3, 1 / 3), abs=1e-12)
        assert (trace.limit_point.x, trace.limit_point.y) == \
            pytest.approx((1 / 3, 1 / 3), abs=1e-12)

    def test_points_match_independent_recomputation(self, rng):
        for _ in range(20):
            A = rng.uniform(0.0, 3.0, size=(3, 3))
            b = rng.uniform(0.1, 2.0, size=3)
            K = int(rng.integers(2, 9))
            trace = dt_iterates(A, b, K)
            x = b.astype(float)
            for k in range(K):
                p = x / x.sum()
                assert trace.points[k].x == pytest.approx(p[1], abs=1e-12)
                assert trace.points[k].y == pytest.approx(p[2], abs=1e-12)
                x = A @ x

    def test_ladder_matches_the_step_by_step_oracle(self):
        # K at and next to powers of two, where the ladder's blocks end
        rng = np.random.default_rng(41)
        raised = 0
        for i in range(24):
            A, b = _edge_family(rng, i)
            for scale in (1.0, 1e150, 1e-150):
                for K in (1, 2, 3, 4, 31, 32, 33, 64, 65):
                    got, want = _ladder_and_oracle(scale * A, b, K)
                    if isinstance(want, str):
                        raised += 1
                        assert got == want, (i, scale, K)
                        continue
                    assert not isinstance(got, str), (i, scale, K, got)
                    assert np.max(np.abs(got - want)) <= 1e-13, (i, scale, K)
                    assert got[-1].tobytes() == want[-1].tobytes(), (i, scale, K)
        assert 0 < raised < 24 * 27

    def test_entries_within_the_zero_tolerance_count_as_zeros(self):
        # the input check lets entries down to -zero_tolerance(A) through; the
        # ladder, the degeneracy test and the cycle all read them as zeros
        rng = np.random.default_rng(43)
        for i in range(12):
            A, b = _edge_family(rng, i)
            A_neg = np.where(A == 0.0, -0.5 * zero_tolerance(A), A)
            for K in (1, 3, 33, 50):
                got = _ladder_and_oracle(A_neg, b, K)[0]
                want = _ladder_and_oracle(A, b, K)[0]
                if isinstance(want, str):
                    assert got == want, (i, K)
                else:
                    assert got.tobytes() == want.tobytes(), (i, K)

    @pytest.mark.parametrize("A, b", [
        *((np.diag([1.0, 1.0], 1), b) for b in np.vstack([np.eye(3), np.ones(3)])),
        # e3 -> e2 -> 0 inside the nilpotent class {2, 3}, under the class {1}
        (np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), np.eye(3)[2]),
        (np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), np.eye(3)[0]),
        # A e2 sums to 1e-12 <= 1e-9 ||A||, though the reach-cut ladder keeps e2
        (np.diag([1.0, 1e-12, 0.0]), np.eye(3)[1]),
    ])
    def test_vanishing_iterates_raise_like_the_oracle(self, A, b):
        # the ladder's zero block sums raise, never divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in range(1, 7):
                got, want = _ladder_and_oracle(A, b, K)
                if isinstance(want, str):
                    assert got == want == "iterate coordinate sum degenerated to zero"
                else:
                    assert np.max(np.abs(got - want)) <= 1e-13

    def test_scale_invariance(self, rng):
        A = rng.uniform(0.0, 2.0, size=(3, 3))
        b = rng.uniform(0.1, 1.0, size=3)
        t1 = dt_iterates(A, b, 8)
        t2 = dt_iterates(A, 7.5 * b, 8)
        for p, q in zip(t1.points, t2.points):
            assert p == q

    def test_degenerate_sum_rejected(self):
        A = np.zeros((3, 3))
        with pytest.raises(InputError):
            dt_iterates(A, np.array([1.0, 0.0, 0.0]), 3)

    def test_nilpotent_limit_rejected(self):
        # b, A b and A^2 b are nonzero, so only the limit finds the iterates vanish
        A = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        with pytest.raises(InputError, match="degenerated to zero"):
            dt_iterates(A, np.array([0.0, 0.0, 1.0]), 3)

    def test_period_three_limit_is_the_cycle_mean(self, rng):
        # A^3 = a c d I, so the iterates repeat with period 3 from the start
        for _ in range(10):
            a, c, d = rng.uniform(0.2, 5.0, 3)
            A = np.array([[0.0, a, 0.0], [0.0, 0.0, c], [d, 0.0, 0.0]])
            b = rng.uniform(0.1, 2.0, 3)
            trace = dt_iterates(A, b, 3)
            mean = np.mean([unproject(p) for p in trace.points], axis=0)
            assert trace.limit_point.x == pytest.approx(mean[1], abs=1e-12)
            assert trace.limit_point.y == pytest.approx(mean[2], abs=1e-12)

    def test_slow_convergence_limit_is_the_perron_vector(self):
        # D ((1 - e) I + e J) D^-1 has eigenvalues 1 + 2 e and 1 - e (twice),
        # so |lambda_2| / lambda_1 = 0.999
        e = 0.001 / 2.998
        D = np.diag([1.0, 2.0, 5.0])
        A = D @ ((1 - e) * np.eye(3) + e * np.ones((3, 3))) @ np.linalg.inv(D)
        vals, vecs = np.linalg.eig(A)
        lead = np.argmax(vals.real)
        assert np.sort(np.abs(vals))[1] / vals[lead].real == pytest.approx(0.999)
        u = np.abs(vecs[:, lead].real)
        u = u / u.sum()
        trace = dt_iterates(A, np.array([1.0, 0.0, 0.0]), 5)
        assert trace.limit_point.x == pytest.approx(u[1], abs=1e-9)
        assert trace.limit_point.y == pytest.approx(u[2], abs=1e-9)

    def test_limit_inside_a_slower_invariant_subspace(self):
        # the iterates of b = e2 stay in span(e2, e3), where the block
        # [[0.5, 0.2], [0.3, 0.4]] has Perron vector (1, 1) at 0.7 < 2
        A = np.array([[2.0, 0.0, 0.0], [1.0, 0.5, 0.2], [1.0, 0.3, 0.4]])
        trace = dt_iterates(A, np.array([0.0, 1.0, 0.0]), 4)
        assert (trace.limit_point.x, trace.limit_point.y) == \
            pytest.approx((0.5, 0.5), abs=1e-12)


class TestDtHessFeasibility:
    def test_reference_pair_infeasible(self):
        decision = dt_hess_feasibility_3(INFEASIBLE_DT_A, INFEASIBLE_DT_B, K=50)
        assert decision.verdict is Verdict.INFEASIBLE
        cert = decision.certificate
        assert cert.v0_edge == "bottom"
        assert set(cert.contacts) == {"left", "hypotenuse"}
        trace = dt_iterates(INFEASIBLE_DT_A, INFEASIBLE_DT_B, 50)
        cloud = list(trace.points) + [trace.limit_point]
        assert verify_cover_certificate(cert, cert.v0, cloud, tol=1e-9)

    def test_verdicts_pinned_on_a_seeded_family(self):
        verdicts = {"F": Verdict.FEASIBLE, "I": Verdict.INFEASIBLE, "U": Verdict.UNKNOWN}
        for i, letter in enumerate(PINNED_DT_VERDICTS):
            A, b = _dt_family_pair(i)
            decision = dt_hess_feasibility_3(A, b, K=50)
            assert decision.verdict is verdicts[letter], f"pair {i}"
            trace = dt_iterates(A, b, 50)
            v0 = trace.points[0]
            cloud = list(trace.points) + [trace.limit_point]
            if decision.verdict is Verdict.INFEASIBLE:
                assert verify_cover_certificate(decision.certificate, v0, cloud)
            if decision.verdict is Verdict.FEASIBLE:
                p, q = decision.witnesses
                assert all(in_witness_triangle((v0.x, v0.y), p, q, (u.x, u.y))
                           for u in cloud), f"pair {i}"

    def test_diagonal_feasible(self):
        decision = dt_hess_feasibility_3(np.diag([3.0, 2.0, 1.0]),
                                         np.array([1.0, 1.0, 1.0]), K=40)
        assert decision.verdict is Verdict.FEASIBLE
        assert decision.witnesses is not None

    def test_identity_axis_feasible(self):
        decision = dt_hess_feasibility_3(np.eye(3), np.array([1.0, 0.0, 0.0]), K=5)
        assert decision.verdict is Verdict.FEASIBLE

    def test_infeasible_backed_by_random_falsification(self, rng):
        # no nonnegative completion (b | p | q) conjugates A into the orthant
        A, b = INFEASIBLE_DT_A, INFEASIBLE_DT_B
        decision = dt_hess_feasibility_3(A, b, K=50)
        assert decision.verdict is Verdict.INFEASIBLE
        found = 0
        for _ in range(200):
            p = rng.uniform(0.0, 1.0, size=3)
            q = rng.uniform(0.0, 1.0, size=3)
            T = np.column_stack([b, p, q])
            if abs(np.linalg.det(T)) <= 1e-6:
                continue
            H = np.linalg.solve(T, A @ T)
            if np.min(H) >= -1e-9:
                found += 1
        assert found == 0

    def test_feasible_witnesses_unproject_to_simplex(self):
        decision = dt_hess_feasibility_3(np.diag([3.0, 2.0, 1.0]),
                                         np.array([1.0, 1.0, 1.0]), K=40)
        p, q = decision.witnesses
        for w in (p, q):
            lifted = unproject(w)
            assert np.min(lifted) >= -1e-9
            assert lifted.sum() == pytest.approx(1.0, abs=1e-9)

    def test_lifted_2x2_certificate_never_infeasible(self, rng):
        # embedding a solvable 2x2 pair into a block-diagonal 3x3 pair keeps
        # it solvable, so the planar analysis must not contradict it
        from hessform import SimilarityCertificate, dt_hess_2

        done = 0
        trial = 0
        while done < 15 and trial < 200:
            trial += 1
            A2 = np.maximum(rng.uniform(-3.0, 5.0, size=(2, 2)), 0.0)
            b2 = rng.uniform(0.1, 2.0, size=2)
            if not isinstance(dt_hess_2(A2, b2), SimilarityCertificate):
                continue
            A3 = np.zeros((3, 3))
            A3[:2, :2] = A2
            A3[2, 2] = rng.uniform(0.0, 1.0)
            b3 = np.array([b2[0], b2[1], 0.0])
            try:
                decision = dt_hess_feasibility_3(A3, b3, K=30)
            except InputError:
                continue  # nilpotent block: iterates legitimately degenerate
            done += 1
            assert decision.verdict is not Verdict.INFEASIBLE
        assert done == 15


def _probe_pair(i):
    """Pair i of a probe recipe with zero patterns: ``A = U(0, 1)^{3x3}``,
    masked by ``U < 0.6`` on odd i, and ``b = U(0, 1)^3 (U < 0.8)``."""
    rng = np.random.default_rng([79, i])
    A = rng.uniform(0, 1, (3, 3))
    if i % 2:
        A = A * (rng.uniform(0, 1, (3, 3)) < 0.6)
    return A, rng.uniform(0, 1, 3) * (rng.uniform(0, 1, 3) < 0.8)


def test_verdicts_agree_with_the_oracle_points():
    # the dt recipe and the zero-masked probe recipe
    for A, b in [*map(_dt_family_pair, range(500)), *map(_probe_pair, range(500))]:
        try:
            want = _oracle_iterates(A, b, 50)
        except InputError as exc:
            with pytest.raises(InputError, match=str(exc)):
                dt_hess_feasibility_3(A, b)
            continue
        assert dt_hess_feasibility_3(A, b).verdict is \
            _cover_decision(want[0], want, 1e-9).verdict


class TestCornerContacts:
    """A point on both contact edges is their shared corner of D, not a
    contact: with one point touching both, the three-edge argument fails."""

    # (A, b, j, k): the frame (b | A b - s b | e_k), s = (A b)_j / b_j (s = 0
    # for j None), certifies, so the pair is not infeasible
    FEASIBLE = [
        (np.array([[0.0, 0.0, 0.0], [0.0, 0.2319, 0.0], [0.0, 0.6009, 0.4047]]),
         np.array([0.9042, 0.0822, 0.0]), None, 2),
        (*_probe_pair(679), 0, 1),
        (*_probe_pair(3609), 1, 2),
    ]

    @pytest.mark.parametrize("case", range(len(FEASIBLE)))
    def test_pair_with_a_certified_frame_is_not_infeasible(self, case):
        A, b, j, k = self.FEASIBLE[case]
        s = 0.0 if j is None else (A @ b)[j] / b[j]
        T = np.column_stack([b, A @ b - s * b, np.eye(3)[:, k]])
        assert verify_certificate(A, make_certificate(A, T, Mode.NONNEG))
        assert dt_hess_feasibility_3(A, b).verdict is not Verdict.INFEASIBLE

    @pytest.mark.parametrize("A, b", [(INFEASIBLE_DT_A, INFEASIBLE_DT_B), _probe_pair(3423)])
    def test_infeasible_pairs_keep_a_verified_certificate(self, A, b):
        decision = dt_hess_feasibility_3(A, b)
        assert decision.verdict is Verdict.INFEASIBLE
        trace = dt_iterates(A, b, 50)
        cloud = list(trace.points) + [trace.limit_point]
        assert verify_cover_certificate(decision.certificate, trace.points[0], cloud)

    def test_corner_contact_is_rejected(self):
        # the corner (0, 1) and a point of the hypotenuse on the far side of
        # the segment from v0 to that corner than (0.02, 0.5): no triangle
        # holds the three, but a certificate that takes the corner as the
        # left contact does not prove it
        v0 = SimplexPoint(0.5, 0.0)
        cloud = [v0, SimplexPoint(0.0, 1.0), SimplexPoint(0.25, 0.75),
                 SimplexPoint(0.02, 0.5)]
        normal = np.array([1.0, 1.0]) / np.sqrt(2.0)
        cert = CoverCertificate(
            v0=v0, v0_edge="bottom",
            contacts={"left": SimplexPoint(0.0, 1.0),
                      "hypotenuse": SimplexPoint(0.25, 0.75)},
            outlier=SimplexPoint(0.02, 0.5),
            contact_line=(float(normal[0]), float(normal[1]), float(normal[1])),
            outlier_margin=0.1)
        assert not verify_cover_certificate(cert, v0, cloud)
        assert triangle_cover_decision(v0, cloud).verdict is Verdict.UNKNOWN
