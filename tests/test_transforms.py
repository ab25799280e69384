import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hessform.cones
import hessform.linalg
import hessform.transforms
from hessform import (
    ConstructionDefect,
    InputError,
    Mode,
    Obstruction,
    ObstructionKind,
    PerronVectorError,
    SimilarityCertificate,
    ct_hess_3,
    diag_commuting_transform,
    dt_hess_2,
    eigvec_b_transform,
    fix_b_boundary,
    make_certificate,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
    rank_one_shift_detect,
    sorted_spectrum,
    verify_certificate,
)
from hessform.linalg import classify, inf_norm, permutation_to_hessenberg
from hessform.search import Generator, sample_matrix
from hessform.transforms import (
    RESIDUAL_BOUND,
    identity_certificate,
    _certificate,
    _checked,
    _controller_frame_reducible,
    _dt_frame,
    _plane_orthant_rays,
    _reducible_after_subtraction,
    _unit_scale,
    _verifies,
)

from conftest import (
    INFEASIBLE_DT_A,
    random_irreducible_nonneg,
    random_metzler,
    random_nonneg,
    random_psd_nonneg,
    random_rank_one_shift,
)


def assert_good_cert(A, cert, mode, tol=1e-8):
    scale = max(1.0, inf_norm(A))
    assert isinstance(cert, SimilarityCertificate)
    assert cert.mode is mode
    assert cert.residual_similarity <= tol
    assert cert.hessenberg_violation <= tol * scale
    assert cert.sign_violation >= -tol * scale
    assert verify_certificate(A, cert, tol=tol)


def spectra_match(A, H, rel=1e-6):
    sa = sorted_spectrum(A).eigenvalues
    sh = sorted_spectrum(H).eigenvalues
    scale = max(1.0, np.max(np.abs(sa)))
    return np.max(np.abs(sa - sh)) <= rel * scale


class TestRankOneShiftDetect:
    def test_ones_minus_identity(self):
        form = rank_one_shift_detect(np.ones((3, 3)) - np.eye(3))
        assert form is not None
        assert form.c * form.s == pytest.approx(1.0, abs=1e-8)
        assert np.min(form.u) > 0 and np.min(form.v) > 0
        assert inf_norm(form.reconstruct() - (np.ones((3, 3)) - np.eye(3))) < 1e-8

    def test_distinct_eigenvalues_rejected(self):
        assert rank_one_shift_detect(INFEASIBLE_DT_A) is None

    def test_no_negative_eigenvalue(self):
        assert rank_one_shift_detect(np.diag([1.0, 2.0, 3.0])) is None

    def test_family_members_detected(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            A = random_rank_one_shift(rng, n)
            if -sorted_spectrum(A).eigenvalues[1].real < 1e-6:
                continue  # shift drawn too close to zero: not in the family
            form = rank_one_shift_detect(A)
            assert form is not None
            assert inf_norm(form.reconstruct() - A) <= 1e-8 * max(1.0, inf_norm(A))

    def test_constraint_on_s(self, rng):
        for _ in range(20):
            A = random_rank_one_shift(rng, 3)
            form = rank_one_shift_detect(A)
            if form is not None:
                assert -1e-10 <= form.s <= np.min(form.u * form.v) + 1e-8


class TestFixBBoundary:
    def test_known_2x2(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        T = fix_b_boundary(A, [3.0, 1.0])
        assert np.min(T) >= 0
        assert inf_norm(A @ T - T @ A) <= 1e-10
        b1 = np.linalg.solve(T, [3.0, 1.0])
        assert np.min(b1) <= 1e-9 * np.max(np.abs(b1))

    def test_boundary_already(self):
        T = fix_b_boundary(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0])
        np.testing.assert_array_equal(T, np.eye(2))

    def test_perron_vector_rejected(self):
        with pytest.raises(PerronVectorError):
            fix_b_boundary(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0])

    def test_reducible_rejected(self):
        with pytest.raises(InputError):
            fix_b_boundary(np.diag([1.0, 2.0]), [1.0, 1.0])

    @pytest.mark.filterwarnings("ignore:input vector is within 10x")
    @pytest.mark.parametrize("case", ["2x2", "positive 4x4", "near Perron"])
    def test_closed_form_resolvent(self, monkeypatch, case):
        # T = (sigma I - A)^-1 with sigma the largest ratio (A b)_i / b_i:
        # no boundary-shift eigen-search and no matrix power
        def fail(*args, **kwargs):
            raise AssertionError("the closed form needs no iteration")

        monkeypatch.setattr(hessform.cones, "boundary_shift", fail)
        monkeypatch.setattr(hessform.transforms, "boundary_shift", fail, raising=False)
        monkeypatch.setattr(np.linalg, "matrix_power", fail)
        if case == "2x2":
            A, b = np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 1.0])
        elif case == "positive 4x4":
            rng = np.random.default_rng(11)
            A, b = random_irreducible_nonneg(rng, 4), rng.uniform(0.05, 3.0, 4)
        else:
            rng = np.random.default_rng(12)
            A = random_irreducible_nonneg(rng, 3)
            vals, vecs = np.linalg.eig(A)
            perron = np.abs(vecs[:, np.argmax(vals.real)].real)
            b = perron * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, 3))
        T = fix_b_boundary(A, b)
        assert np.min(T) >= 0
        assert inf_norm(A @ T - T @ A) <= 1e-12 * inf_norm(A) * inf_norm(T)
        ratios = A @ b / b
        b1 = np.linalg.solve(T, b)
        np.testing.assert_allclose(b1, np.max(ratios) * b - A @ b, rtol=0.0,
                                   atol=1e-12 * np.max(b))
        assert np.argmin(b1) == np.argmax(ratios)

    def test_postconditions_random(self, rng):
        done = 0
        while done < 60:
            n = int(rng.integers(2, 5))
            A = random_irreducible_nonneg(rng, n)
            b = rng.uniform(0.05, 3.0, size=n)
            try:
                T = fix_b_boundary(A, b)
            except PerronVectorError:
                continue
            done += 1
            assert np.min(T) >= 0
            assert inf_norm(A @ T - T @ A) <= 1e-8 * max(1.0, inf_norm(A)) * \
                max(1.0, inf_norm(T))
            b1 = np.linalg.solve(T, b)
            assert np.min(np.abs(b1)) <= 1e-6 * np.max(np.abs(b1))


class TestDtHess2:
    def test_obstruction_symmetric_perron(self):
        result = dt_hess_2(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0])
        assert isinstance(result, Obstruction)
        assert result.kind is ObstructionKind.PERRON_EIGVEC_COINCIDENCE

    def test_boundary_vector_identity(self):
        result = dt_hess_2(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0])
        assert_good_cert(np.array([[0.0, 1.0], [1.0, 0.0]]), result, Mode.NONNEG)
        np.testing.assert_allclose(result.H, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_negative_lambda2_generic(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        result = dt_hess_2(A, [3.0, 1.0])
        assert_good_cert(A, result, Mode.NONNEG)
        b1 = result.T_inv @ np.array([3.0, 1.0])
        assert abs(b1[1]) <= 1e-8 * abs(b1[0])

    def test_zero_b_rejected(self):
        with pytest.raises(InputError):
            dt_hess_2(np.eye(2), [0.0, 0.0])

    def test_h_is_the_shifted_krylov_form(self):
        # H = [[m, (tr - m) m - det], [1, tr - m]] up to column scaling, with
        # m the least of tr A and the ratios (A b)_i / b_i over supp(b)
        done = 0
        for i in range(400):
            rng = np.random.default_rng([211, i])
            A = rng.uniform(0.0, 1.0, (2, 2)) * (rng.uniform(size=(2, 2)) < 0.8)
            b = rng.uniform(0.0, 1.0, 2) * (rng.uniform(size=2) < 0.8)
            if not b.any():
                continue
            result = dt_hess_2(A, b)
            if isinstance(result, Obstruction):
                continue
            done += 1
            tr, det = np.trace(A), np.linalg.det(A)
            m = min([tr] + [(A @ b)[j] / b[j] for j in range(2) if b[j] > 0])
            H = result.H
            np.testing.assert_allclose(np.diag(H), [m, tr - m], atol=1e-12)
            assert H[0, 1] * H[1, 0] == pytest.approx((tr - m) * m - det, abs=1e-12)
            np.testing.assert_allclose(result.T[:, 0], b / np.max(b), atol=1e-15)
        assert done > 300

    @pytest.mark.parametrize("A, b", [
        ([[2.0, 1.0], [1.0, 2.0]], [3.0, 1.0]),  # m is the ratio at k = 0
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.5]),  # m = tr A < every ratio
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),  # lam2 = 0, b the Perron vector
    ])
    def test_closed_form_without_eigensolver_or_boundary_transform(
            self, monkeypatch, A, b):
        def fail(*args, **kwargs):
            raise AssertionError("dt_hess_2 called a general solver")

        monkeypatch.setattr(hessform.transforms, "_eigenvalues", fail)
        monkeypatch.setattr(hessform.transforms, "fix_b_boundary", fail)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        A = np.array(A)
        assert_good_cert(A, dt_hess_2(A, b), Mode.NONNEG)
        obstruction = dt_hess_2(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0])
        assert obstruction.kind is ObstructionKind.PERRON_EIGVEC_COINCIDENCE

    def test_trailing_entry_at_the_zero_threshold(self):
        # an entry of b at roundoff level counts as zero in the ratios; as a
        # support index its ratio a_00 would pick the axis e_1 and a frame
        # (b | e_1) with determinant 7e-17
        A = np.array([[0.1, 0.0], [0.6, 0.9]])
        result = dt_hess_2(A, [7e-17, 0.79])
        assert_good_cert(A, result, Mode.NONNEG)
        assert result.cond_T < 10.0

    def test_first_column_proportional_to_b(self, rng):
        for _ in range(40):
            A = random_nonneg(rng, 2)
            b = rng.uniform(0.0, 2.0, size=2)
            if b.max() <= 0:
                continue
            result = dt_hess_2(A, b)
            if isinstance(result, SimilarityCertificate):
                col = result.T[:, 0]
                cross = abs(col[0] * b[1] - col[1] * b[0])
                assert cross <= 1e-9 * max(1.0, float(np.max(b)))


def grid_search_2x2(A, b, grid=200):
    """Brute-force oracle: does any p on the unit grid complete (b | p) to a
    nonnegative frame with nonnegative conjugation?"""
    vals = np.linspace(0.0, 1.0, grid)
    P1, P2 = np.meshgrid(vals, vals, indexing="ij")
    det = b[0] * P2 - b[1] * P1
    ok = np.abs(det) > 1e-6
    a11, a12, a21, a22 = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    # H = T^{-1} A T entries, scaled by det (sign handled separately)
    c1, c2 = b[0], b[1]
    Ab1 = a11 * c1 + a12 * c2
    Ab2 = a21 * c1 + a22 * c2
    Ap1 = a11 * P1 + a12 * P2
    Ap2 = a21 * P1 + a22 * P2
    h11 = P2 * Ab1 - P1 * Ab2
    h12 = P2 * Ap1 - P1 * Ap2
    h21 = -c2 * Ab1 + c1 * Ab2
    h22 = -c2 * Ap1 + c1 * Ap2
    sgn = np.sign(det)
    feas = ok & (sgn * h11 >= -1e-9) & (sgn * h12 >= -1e-9) & \
        (sgn * h21 >= -1e-9) & (sgn * h22 >= -1e-9)
    return bool(np.any(feas))


class TestDtHess2OracleAgreement:
    def test_grid_oracle_sample(self, rng):
        disagreements = 0
        for trial in range(120):
            A = random_nonneg(rng, 2)
            if trial % 5 == 0:
                # force the obstruction: Perron input with negative lambda2
                A = A + A.T  # symmetric: lambda2 may be negative
                from hessform.linalg import perron_pair
                b = perron_pair(A).right_vector
            else:
                b = rng.uniform(0.0, 1.0, size=2)
                if b.max() <= 1e-12:
                    b = np.array([1.0, 0.0])
            result = dt_hess_2(A, b)
            oracle = grid_search_2x2(A, b)
            if isinstance(result, Obstruction) and oracle:
                disagreements += 1
            if oracle and not isinstance(result, SimilarityCertificate):
                disagreements += 1
        assert disagreements == 0


class TestEigvecBTransform:
    def test_rank_one_2x2(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        T = eigvec_b_transform(A, [1.0, 1.0])
        assert np.min(T) >= 0
        np.testing.assert_allclose(np.linalg.solve(T, [1.0, 1.0]),
                                   [1.0, 0.0], atol=1e-10)
        H = np.linalg.solve(T, A @ T)
        assert np.min(H) >= -1e-9

    def test_scaled_identity_rejected(self):
        with pytest.raises(InputError):
            eigvec_b_transform(2.0 * np.eye(2), [1.0, 1.0])

    def test_non_perron_b_rejected(self):
        with pytest.raises(InputError):
            eigvec_b_transform(np.array([[2.0, 1.0], [1.0, 2.0]]), [2.0, 1.0])

    def test_symmetric_2x2_perron_input(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        T = eigvec_b_transform(A, [1.0, 1.0])
        assert np.min(T) >= 0
        H = np.linalg.solve(T, A @ T)
        assert np.min(H) >= -1e-10

    def test_postconditions_psd_family(self, rng):
        from hessform.linalg import perron_pair

        for _ in range(40):
            n = int(rng.integers(2, 5))
            A = random_psd_nonneg(rng, n) + 0.05 * np.ones((n, n))
            b = perron_pair(A).right_vector
            T = eigvec_b_transform(A, b)
            assert np.min(T) >= -1e-12
            np.testing.assert_allclose(np.linalg.solve(T, b), np.eye(n)[:, 0],
                                       atol=1e-8)
            H = np.linalg.solve(T, A @ T)
            assert np.min(H) >= -1e-8 * max(1.0, inf_norm(A))


#: Nonsymmetric Perron inputs with a real spectrum: (4.41, 1.59, 1),
#: (5.45, 1, 0.55), (4.76, 2.44, 1.52, 0.28) with R[0, 2] >= 0 after the
#: signs, and (7.06, 1.79, 0.16, 0) and (6.16, 3, 1.37, 0.48), which clear a
#: negative R[0, 2] by the shear of V[:, 1] and of V[:, 2].
NONSYMMETRIC_PERRON = [
    [[2.0, 3.0, 1.0], [1.0, 3.0, 0.0], [0.0, 1.0, 2.0]],
    [[1.0, 2.0, 0.0], [2.0, 3.0, 2.0], [2.0, 1.0, 3.0]],
    [[3.0, 0.0, 1.0, 1.0], [0.0, 2.0, 0.0, 1.0], [1.0, 2.0, 2.0, 3.0],
     [1.0, 3.0, 0.0, 2.0]],
    [[2.0, 1.0, 0.0, 2.0], [3.0, 3.0, 3.0, 0.0], [3.0, 2.0, 1.0, 2.0],
     [1.0, 1.0, 2.0, 3.0]],
    [[3.0, 2.0, 1.0, 0.0], [2.0, 3.0, 0.0, 1.0], [3.0, 3.0, 3.0, 0.0],
     [0.0, 2.0, 0.0, 2.0]],
]
#: Spectrum {5, 0, 0} with one Jordan block at 0; A b = 5 b.
DEFECTIVE_PERRON_A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [4.0, 7.0, 3.0]])
DEFECTIVE_PERRON_B = np.array([1.0, 4.0, 16.0])


class TestEigvecBTransformByDeflation:
    @pytest.fixture(autouse=True)
    def no_jordan_basis(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("jordan_like_form called")

        monkeypatch.setattr(hessform.linalg, "jordan_like_form", fail)
        assert not hasattr(hessform.transforms, "jordan_like_form")

    @staticmethod
    def check(A, b, tol=1e-12):
        T = eigvec_b_transform(A, b)
        n = A.shape[0]
        assert np.min(T) >= 0.0
        np.testing.assert_array_equal(T[:, 0], b)
        H = np.linalg.solve(T, A @ T)
        assert np.min(H) >= -tol * inf_norm(A)
        assert np.max(np.abs(np.tril(H, -1))) <= tol * inf_norm(A)
        np.testing.assert_allclose(np.linalg.solve(T, b), np.eye(n)[:, 0], atol=1e-12)
        return T

    @pytest.mark.parametrize("i", range(len(NONSYMMETRIC_PERRON)))
    def test_nonsymmetric_real_spectrum(self, i):
        from hessform.linalg import perron_pair

        A = np.array(NONSYMMETRIC_PERRON[i])
        self.check(A, perron_pair(A).right_vector)

    def test_defective_spectrum(self):
        self.check(DEFECTIVE_PERRON_A, DEFECTIVE_PERRON_B)

    @pytest.mark.parametrize("i", [43, 47])
    def test_triple_eigenvalue_at_n4(self, i):
        """Spectrum {3, 1, 1, 1} with a two-dimensional eigenspace at 1: one
        of R[0, 1], R[1, 2] is rounding noise, so its sign is free and a sign
        flip, not a shear by about 1 / noise, clears a negative R[0, 2]."""
        rng = np.random.default_rng([31, i])
        U = np.triu(rng.uniform(0.0, 1.0, (4, 4)), 1) + np.diag([3.0, 1.0, 1.0, 1.0])
        U[1, 2] = 0.0
        S = np.eye(4) + 0.05 * rng.uniform(0.0, 1.0, (4, 4))
        T = self.check(S @ U @ np.linalg.inv(S), S[:, 0], tol=1e-7)
        assert np.linalg.cond(T / np.abs(T).sum(axis=0)) < 1e3

    def test_defective_spectrum_through_ct_hess_3(self):
        A = DEFECTIVE_PERRON_A - 6.0 * np.eye(3)
        assert_ct_cert(A, DEFECTIVE_PERRON_B, ct_hess_3(A, DEFECTIVE_PERRON_B))


class TestDiagCommutingTransform:
    def test_known_2x2(self):
        T = diag_commuting_transform(np.array([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0])
        np.testing.assert_allclose(T, [[3.0, 1.0], [1.0, 3.0]], atol=1e-10)

    def test_diagonal_matrix_rejected(self):
        with pytest.raises(InputError):
            diag_commuting_transform(np.diag([1.0, 2.0]), [1.0, 1.0])

    def test_eigenvector_b_rejected(self):
        # b = (1, 1) has no component on the second eigenvector
        with pytest.raises(InputError):
            diag_commuting_transform(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0])

    def test_postconditions_random(self, rng):
        done = 0
        while done < 60:
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            try:
                T = diag_commuting_transform(A, b)
            except InputError:
                continue
            done += 1
            assert inf_norm(T @ A - A @ T) <= 1e-7 * max(1.0, inf_norm(A)) * \
                max(1.0, inf_norm(T))
            np.testing.assert_allclose(np.linalg.solve(T, b), np.eye(n)[:, 0],
                                       atol=1e-7 * max(1.0, inf_norm(b)))


class TestNonnegHess3:
    def test_obstruction_family(self):
        result = nonneg_hess_3(np.ones((3, 3)) - np.eye(3))
        assert isinstance(result, Obstruction)
        assert result.kind is ObstructionKind.NEG_EIG_GEOM_MULT
        assert result.data["geometric_multiplicity"] == 2

    def test_distinct_eigenvalues_certificate(self):
        result = nonneg_hess_3(INFEASIBLE_DT_A)
        assert_good_cert(INFEASIBLE_DT_A, result, Mode.NONNEG)
        assert spectra_match(INFEASIBLE_DT_A, result.H)

    def test_constructed_family_member(self):
        u = np.array([1.0, 2.0, 1.0])
        v = np.array([1.0, 1.0, 2.0])
        A = np.outer(u, v) - 0.5 * np.eye(3)
        result = nonneg_hess_3(A)
        assert isinstance(result, Obstruction)
        assert result.data["lambda2"] == pytest.approx(-0.5, abs=1e-8)

    def test_decision_completeness_random(self, rng):
        for _ in range(150):
            A = random_nonneg(rng, 3)
            result = nonneg_hess_3(A)
            assert isinstance(result, (SimilarityCertificate, Obstruction))
            if isinstance(result, SimilarityCertificate):
                assert_good_cert(A, result, Mode.NONNEG)
                assert spectra_match(A, result.H)
                assert np.min(result.T) >= 0.0

    def test_all_positive_offdiagonal_goes_through_blocks(self, rng):
        # strictly positive off-diagonals with a complex pair force branch (c)
        done = 0
        while done < 25:
            A = random_irreducible_nonneg(rng, 3)
            spec = sorted_spectrum(A)
            if np.max(np.abs(spec.eigenvalues.imag)) < 1e-6:
                continue
            done += 1
            result = nonneg_hess_3(A)
            assert_good_cert(A, result, Mode.NONNEG)

    def test_obstructed_partition_passes_to_the_next(self):
        """Off the family and with no permutation, lead k = 2 obstructs
        (its block ``[[0, 1], [1, 0]]`` has lam_2 = -1 and input (1, 1), its
        Perron vector), so k = 0 serves."""
        A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 2.0, 0.5]])
        Au, _, t = _unit_scale(A, None)
        assert rank_one_shift_detect(Au, t) is None
        assert permutation_to_hessenberg(Au, t) is None
        assert isinstance(_dt_frame(Au[:2, :2], Au[:2, 2], t), tuple)
        cert = nonneg_hess_3(A)
        assert_good_cert(A, cert, Mode.NONNEG)
        np.testing.assert_array_equal(cert.T[:, 0], [1.0, 0.0, 0.0])

    def test_lead_1_serves_when_leads_2_and_0_obstruct(self):
        """Off the family and with no permutation, both earlier leads see
        their block's Perron vector beside a negative eigenvalue, so lead 1
        serves, on its trailing pair in cyclic order ``B = (2, 0)``."""
        A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 3.0, 0.5]])
        Au, _, t = _unit_scale(A, None)
        assert rank_one_shift_detect(Au, t) is None
        assert permutation_to_hessenberg(Au, t) is None
        for k, B in ((2, [0, 1]), (0, [1, 2])):
            assert isinstance(_dt_frame(Au[np.ix_(B, B)], Au[B, k], t), tuple)
        cert = nonneg_hess_3(A)
        assert_good_cert(A, cert, Mode.NONNEG)
        np.testing.assert_allclose(cert.T, [[0.0, 1 / 3, 5 / 33],
                                            [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 4 / 33]], rtol=1e-12)

    def test_near_perron_warning_points_at_the_caller(self):
        """Partition k = 2 sees its input (1, 1 + 3e-8) within 10x of its
        block's Perron threshold; the warning names this line, not the
        construction's own code."""
        A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0 + 3e-8], [1.0, 2.0, 0.5]])
        with pytest.warns(UserWarning, match="within 10x") as record:
            assert_good_cert(A, nonneg_hess_3(A), Mode.NONNEG)
        assert {w.filename for w in record} == {__file__}

    def test_family_obstructs_every_leading_partition(self):
        """On the family no lead serves: each trailing 2x2 block's input is
        its Perron vector and its second eigenvalue is negative, so the 2x2
        step obstructs."""
        for i in range(300):
            A = sample_matrix(3, Mode.NONNEG, Generator.PROP1_FAMILY,
                              np.random.default_rng([23, i]))
            A, _, t = _unit_scale(A, None)
            for k in range(3):
                B = [(k + 1) % 3, (k + 2) % 3]
                assert isinstance(_dt_frame(A[np.ix_(B, B)], A[B, k], t), tuple), (i, k)


#: Admissible inputs that raised before each 3x3 construction took one exact
#: route: integer draws (ConstructionDefect from both block partitions) and
#: eigenvalue gaps near the Jordan route's clustering threshold
#: (ClusterAmbiguityError).
PINNED_NONNEG_3 = [
    np.array([[0.0, 1.0, 1.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]]),
    np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [3.0, 2.0, 1.0]]),
    np.eye(3) + np.ones((3, 3)) + 6.02e-6 * np.diag([1.0, 0.0, 0.0]),
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0 + 1.2e-6, 0.0], [0.3, 0.0, 0.5]]),
]
PINNED_METZLER_3 = PINNED_NONNEG_3 + [
    np.array([[-1.0, 2.0, 3.0], [1.0, 0.0, 3.0], [3.0, 2.0, 1.0]]),
]


class TestPinned3x3:
    @pytest.mark.parametrize("i", range(len(PINNED_NONNEG_3)))
    def test_nonneg_hess_3_certifies(self, i):
        A = PINNED_NONNEG_3[i]
        cert = nonneg_hess_3(A)
        assert_good_cert(A, cert, Mode.NONNEG)
        assert np.min(cert.T) >= 0.0

    @pytest.mark.parametrize("i", range(len(PINNED_METZLER_3)))
    def test_metzler_hess_3_certifies(self, i):
        A = PINNED_METZLER_3[i]
        cert = metzler_hess_3(A)
        assert_good_cert(A, cert, Mode.METZLER)
        assert np.min(cert.T) >= 0.0

    def test_every_permutation_certifies(self):
        A = PINNED_NONNEG_3[1]
        for perm in itertools.permutations(range(3)):
            B = A[np.ix_(perm, perm)]
            assert_good_cert(B, nonneg_hess_3(B), Mode.NONNEG)


class TestCallerTolerance:
    """The caller's ``tol`` snaps the entries within it to exact zeros once;
    the certificate is for that snapped input ``Â``."""

    @pytest.mark.parametrize("construct, A", [
        (metzler_hess_3, [[-1.0, 2.0, 3.0], [1.0, -2.0, -1e-6], [0.0, 1.0, -3.0]]),
        (nonneg_hess_3, [[1.0, 2.0, 3.0], [1.0, 2.0, -1e-6], [0.0, 1.0, 3.0]]),
        (metzler_hess_3, [[-1.0, 2.0, 3.0], [0.0, -2.0, -1e-6], [0.0, 1.0, -3.0]]),
    ])
    def test_entry_within_tol_is_an_exact_zero(self, construct, A):
        """At ``tol = 1e-5`` the -1e-6 is snapped, so ``I`` is an exact
        similarity of the upper Hessenberg ``Â`` and its certificate holds.
        Judged against the unsnapped input, the first two raised
        ConstructionDefect, and the third, with a zero column below lead 0,
        formed no lead frame either."""
        A = np.array(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = construct(A, tol=1e-5)
        np.testing.assert_array_equal(cert.T, np.eye(3))
        assert cert.H[1, 2] == 0.0
        assert verify_certificate(np.where(np.abs(A) <= 1e-5, 0.0, A), cert)
        assert verify_certificate(A, cert, tol=1e-5)


class TestMetzlerHess3:
    def test_obstruction_family_shifted_away(self):
        A = np.ones((3, 3)) - np.eye(3)
        cert = metzler_hess_3(A)
        assert_good_cert(A, cert, Mode.METZLER)

    def test_already_hessenberg_is_identity(self):
        A = np.array([[-1.0, 2.0, 3.0], [1.0, -2.0, 1.0], [0.0, 1.0, -3.0]])
        cert = metzler_hess_3(A)
        np.testing.assert_array_equal(cert.T, np.eye(3))

    def test_permutable_input_gets_its_permutation(self):
        # lower triangular, with its one zero below the diagonal at (2, 1):
        # Hessenberg in the order (1, 0, 2)
        A = np.array([[-1.0, 0.0, 0.0], [2.0, -2.0, 0.0], [1.0, 0.0, -3.0]])
        assert not classify(A).is_upper_hessenberg
        cert = metzler_hess_3(A)
        assert_good_cert(A, cert, Mode.METZLER)
        np.testing.assert_array_equal(cert.T, permutation_to_hessenberg(A))

    def test_strongly_negative_diagonal(self):
        A = np.array([[-5.0, 1.0, 1.0], [1.0, -5.0, 1.0], [1.0, 1.0, -5.0]])
        cert = metzler_hess_3(A)
        assert_good_cert(A, cert, Mode.METZLER)
        assert spectra_match(A, cert.H)

    def test_totality_random(self, rng):
        for _ in range(150):
            A = random_metzler(rng, 3)
            cert = metzler_hess_3(A)
            assert_good_cert(A, cert, Mode.METZLER)
            assert spectra_match(A, cert.H)
            assert np.min(cert.T) >= 0.0


class TestCtHess3:
    def test_perron_complex_obstruction(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        result = ct_hess_3(A, [1.0, 1.0, 1.0])
        assert isinstance(result, Obstruction)
        assert result.kind is ObstructionKind.PERRON_EIGVEC_COINCIDENCE

    def test_cyclic_with_axis_input(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        result = ct_hess_3(A, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert_good_cert(A, result, Mode.METZLER)
        b1 = result.T_inv @ np.array([1.0, 0.0, 0.0])
        assert inf_norm(b1[1:]) <= 1e-7 * abs(b1[0])

    def test_diagonal_axis_input(self):
        A = np.diag([1.0, 2.0, 3.0])
        result = ct_hess_3(A, [1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert_good_cert(A, result, Mode.METZLER)

    def test_t_nonnegative_and_first_column_b(self, rng):
        for _ in range(100):
            A = random_metzler(rng, 3)
            b = np.maximum(rng.uniform(-1.0, 2.0, size=3), 0.0)
            if b.max() <= 0:
                b = np.ones(3)
            c = np.maximum(rng.uniform(-1.0, 1.0, size=3), 0.0)
            result = ct_hess_3(A, b, c)
            if isinstance(result, Obstruction):
                continue
            assert result.min_entry_T >= -1e-10
            np.testing.assert_allclose(result.T[:, 0], b, atol=1e-12)
            assert np.min(c @ result.T) >= -1e-10
            assert_good_cert(A, result, Mode.METZLER)
            assert spectra_match(A, result.H)

    def test_perron_real_spectrum_goes_through(self, rng):
        from hessform.linalg import perron_pair

        for _ in range(20):
            A = random_psd_nonneg(rng, 3) + 0.1 * np.ones((3, 3))
            b = perron_pair(A).right_vector
            result = ct_hess_3(A, b)
            assert_good_cert(A, result, Mode.METZLER)

    def test_perron_input_with_a_zero_entry(self):
        """``b`` is the Perron vector with its 3e-9 entry zeroed, so it passes
        the coincidence test; it is on the orthant boundary already, and the
        deflation frame, which divides by ``b``, is not the route."""
        A = np.array([[1.0, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 3e-9, 0.2]])
        vals, V = np.linalg.eig(A)
        b = np.abs(V[:, np.argmax(vals.real)].real)
        assert 0 < b[2] < 1e-8
        b[2] = 0.0
        assert_ct_cert(A, b, ct_hess_3(A, b))


def _count_calls(monkeypatch, module, names):
    """Counts of the calls to ``module.<name>`` for each name, wrapped in place."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


class TestOneAnswerPerQuestion:
    """Each question on the exact-construction path is answered once per call,
    and a certificate is built only for the answer returned."""

    #: the pattern (strong connectivity of Â's off-diagonal nonzeros), the
    #: spectrum and the Perron test
    QUESTIONS = ("_strongly_connected", "_eigenvalues", "_perron_coincident")
    ROUTES = ("_resolvent_frame", "_deflation_frame", "_controller_frame_reducible")

    @pytest.mark.parametrize("A, b, routes", [
        # irreducible, b off the Perron vector: resolvent, then a reducible frame
        ([[-1.0, 1.0, 0.5], [0.5, -2.0, 1.0], [1.0, 0.5, -1.5]], [1.0, 0.2, 0.5],
         (1, 0, 1)),
        # irreducible path graph, b its Perron vector: the deflation frame
        ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [1.0, 2.0 ** 0.5, 1.0],
         (0, 1, 0)),
        # reducible
        ([[-1.0, 2.0, 0.0], [0.0, -2.0, 0.0], [1.0, 1.0, -3.0]], [1.0, 0.0, 1.0],
         (0, 0, 1)),
    ])
    def test_ct_hess_3_classifies_solves_and_tests_once(self, monkeypatch, A, b, routes):
        counts = _count_calls(monkeypatch, hessform.transforms, self.QUESTIONS + self.ROUTES)
        A, b = np.array(A), np.array(b)
        assert_ct_cert(A, b, ct_hess_3(A, b))
        assert counts == dict(zip(self.QUESTIONS + self.ROUTES, (1, 1, 1) + routes))

    def test_rank_one_shift_detect_makes_one_svd(self, monkeypatch, rng):
        counts = _count_calls(monkeypatch, np.linalg, ["svd"])
        for n in (3, 4, 5):
            for _ in range(20):
                counts["svd"] = 0
                assert rank_one_shift_detect(random_rank_one_shift(rng, n)) is not None
                assert counts["svd"] == 1

    @pytest.mark.parametrize("construct, draw", [
        (dt_hess_2, lambda rng: (rng.uniform(0.0, 1.0, (2, 2)), rng.uniform(0.0, 1.0, 2))),
        (nonneg_hess_3, lambda rng: (rng.uniform(0.1, 1.0, (3, 3)),)),
        (metzler_hess_3, lambda rng: (random_metzler(rng, 3),)),
        (metzler_hess_4, lambda rng: (random_metzler(rng, 4),)),
        (ct_hess_3, lambda rng: (rng.uniform(0.0, 1.0, (3, 3))
                                 - 2.0 * np.diag(rng.uniform(0.0, 1.0, 3)),
                                 rng.uniform(0.0, 1.0, 3))),
    ])
    def test_one_certificate_per_certificate_returned(self, monkeypatch, construct, draw):
        counts = _count_calls(monkeypatch, hessform.transforms, ["_certificate"])
        answers = set()
        for i in range(100):
            counts["_certificate"] = 0
            result = construct(*draw(np.random.default_rng([43, i])))
            answers.add(type(result))
            assert counts["_certificate"] == isinstance(result, SimilarityCertificate)
        assert SimilarityCertificate in answers

    def test_metzler_hess_4_calls_no_public_construction(self, monkeypatch):
        """The trailing blocks take the private steps; no public construction
        builds and discards a 3x3 certificate of its own."""
        names = ["ct_hess_3", "metzler_hess_3", "make_certificate", "_certificate",
                 "_ct_step", "_rank_one_step"]
        counts = _count_calls(monkeypatch, hessform.transforms, names)
        # no permutation, and a zero column below lead 0
        zero_column = np.ones((4, 4)) - 2.0 * np.eye(4)
        zero_column[1:, 0] = 0.0
        inputs = [zero_column] + [
            sample_matrix(4, Mode.METZLER, gen, np.random.default_rng([44, i]))
            for i, gen in enumerate([Generator.DENSE_UNIFORM, Generator.SPARSE_PATTERN] * 50)]
        for A in inputs:
            assert_good_cert(A, metzler_hess_4(A), Mode.METZLER)
        assert counts["ct_hess_3"] == counts["metzler_hess_3"] == 0
        assert counts["make_certificate"] == 0
        assert counts["_certificate"] == len(inputs)
        assert counts["_ct_step"] > 0 and counts["_rank_one_step"] > 0


class TestPlaneOrthantRays:
    @pytest.mark.parametrize("plane", [
        [[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]],
        [[1.0, 1.0], [1.0, -1.0], [0.5, 2.0]],
        [[3.0, 1.0], [1.0, 0.0], [1.0, 2.0]],
    ])
    def test_rays_are_exact_extreme_rays(self, plane):
        U2, _ = np.linalg.qr(np.array(plane))
        g1, g2 = _plane_orthant_rays(U2)
        for g in (g1, g2):
            assert np.linalg.norm(g - U2 @ (U2.T @ g)) <= 1e-12
            assert np.min(g) >= 0.0
            assert np.min(np.abs(g)) <= 1e-12  # extreme: on an orthant face
        c1, c2 = U2.T @ g1, U2.T @ g2
        assert c1[0] * c2[1] - c1[1] * c2[0] > 0  # counter-clockwise

    def test_constraint_nearly_parallel_to_the_plane(self):
        U2, _ = np.linalg.qr(np.array([[1.3215e-5, 0.0], [0.0, 705.0], [1.0, 0.3227]]))
        for g in _plane_orthant_rays(U2):
            assert np.linalg.norm(g - U2 @ (U2.T @ g)) <= 1e-12

    def test_plane_missing_the_orthant(self):
        U2, _ = np.linalg.qr(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))
        assert _plane_orthant_rays(U2) is None


def stress_draws(seed):
    """Structured stress recipe: 500 pairs ``(A, b)`` of 3x3 Metzler matrices
    and input vectors, and 500 4x4 Metzler matrices, with zero patterns,
    integer entries, axis and half-integer inputs and scales 10**U(-4, 4)."""
    off = ~np.eye(3, dtype=bool)
    off4 = ~np.eye(4, dtype=bool)
    rng = np.random.default_rng([seed, 4242])
    for i in range(500):
        A = rng.uniform(-3, 3, (3, 3))
        A[off] = np.maximum(A[off], 0.0)
        A[off & (rng.uniform(size=(3, 3)) < rng.choice([0.0, 0.3, 0.5, 0.7]))] = 0.0
        if i % 5 == 0:
            A = np.round(A)
        b = rng.uniform(0, 1, 3)
        z = rng.integers(0, 3)
        b[rng.permutation(3)[:z]] = 0.0
        if not b.any():
            b[0] = 1.0
        if i % 11 == 0:
            b = np.round(2 * b) / 2
            if not b.any():
                b[1] = 1.0
        sc = 10.0 ** rng.uniform(-4, 4) if i % 3 == 0 else 1.0
        A4 = rng.uniform(-3, 3, (4, 4))
        A4[off4] = np.maximum(A4[off4], 0.0)
        A4[off4 & (rng.uniform(size=(4, 4)) < rng.choice([0.3, 0.5, 0.7]))] = 0.0
        if i % 5 == 0:
            A4 = np.round(A4)
        yield sc * A, b, sc * A4


def assert_ct_cert(A, b, result):
    assert isinstance(result, SimilarityCertificate)
    assert verify_certificate(A, result)
    np.testing.assert_array_equal(result.T[:, 0], b)


class TestReducibleControllerFrames:
    # reducible, spectrum {3, 2, 1}: Ahat = A1 - I has rank 2 and range
    # span{(2, 0, 1), (1, 1, 1)}
    A1 = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])

    @staticmethod
    def frame(A1, b):
        A1, b = np.array(A1), np.array(b)
        T = _controller_frame_reducible(A1, b, float(np.min(np.linalg.eigvals(A1).real)))
        assert T is not None
        H = np.linalg.solve(T, A1 @ T)
        assert np.min(T) >= 0.0
        assert np.min(H) >= -1e-12 * inf_norm(A1)
        assert abs(H[2, 0]) <= 1e-12 * inf_norm(A1)
        np.testing.assert_allclose(T[:, 0] * np.max(b) / np.max(T[:, 0]), b,
                                   atol=1e-15)
        return H

    @pytest.mark.parametrize("b", [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.3, 0.1, 2.0]])
    def test_input_off_the_invariant_plane(self, b):
        self.frame(self.A1, b)

    @pytest.mark.parametrize("b", [[1.0, 1.0, 1.0], [3.0, 1.0, 2.0], [2.0, 0.0, 1.0]])
    def test_input_in_the_invariant_plane(self, b):
        H = self.frame(self.A1, b)
        np.testing.assert_allclose(H[2, :2], 0.0, atol=1e-14)

    @pytest.mark.parametrize("A1, b", [
        # x1 >= 0 is nearly parallel to the plane: a slack of 1e-8 admits e2
        ([[0.2249664763915007, 0.0, 0.009315935173100996],
          [0.0, 705.2040087854459, 0.0],
          [0.6609411372929572, 0.32269022897966954, 705.1615695403091]],
         [1.0, 0.0006548398218884608, 0.0]),
        # the plane is x1 = 0, and s2 = 6e-5 leaves a 1.6e-12 noise row
        ([[0.25, 0.0, 0.0], [0.0, 0.2500973670888026, 0.0],
          [0.3900022834237249, 0.5294780120862304, 0.36471039991659127]],
         [0.0, 0.13984772000139276, 1.0]),
    ])
    def test_orthant_rays_at_the_noise_of_the_plane(self, A1, b):
        self.frame(A1, b)

    @pytest.mark.parametrize("A, b", [
        ([[0, 2, 1], [0, 0, 0], [0, 0, 2]], [0, 0, 1]),
        ([[-2, 2, 1], [0, -2, 0], [0, 0, 1]], [0, 0, 1]),
        ([[-1, 0, 0], [0, 2, 0], [3, 1, -1]], [0, 1, 0]),
        ([[3, 0, 2], [2, 0, 0], [0, 0, 0]], [0, 1, 0]),
    ])
    def test_defective_in_plane_pairs(self, A, b):
        """The smallest eigenvalue is a defective double one; the in-plane ray
        must bound an invariant cone for an admissible third column to leave
        the plane."""
        A, b = np.array(A, dtype=float), np.array(b, dtype=float)
        assert_ct_cert(A, b, ct_hess_3(A, b))

    @pytest.mark.parametrize("A, b", [
        ([[17.010954694053588, 6.421538226883966, 0.0],
          [0.0, -25.580236621942063, 0.0],
          [3.67579891399688, 0.0, 6.830625297327138]],
         [0.15824388611409235, 0.0, 0.18042914597358028]),
        ([[1.904742585228135, 0.0, 0.0], [0.0, -1.1096048225815744, 0.0],
          [1.9161876680202177, 2.0843367366191456, 0.7508266704620725]],
         [0.5, 0.0, 0.5]),
        ([[-0.08422558313646028, 0.0, 0.0],
          [0.0, 0.04211279156823014, 0.08422558313646028],
          [0.04211279156823014, 0.0, 0.12633837470469042]],
         [0.0, 0.09637639753042748, 0.007887061398876405]),
        ([[0.9811580312414128, 0.5613301785770948, 0.0],
          [0.0, 2.7468923151511344, 1.9333646417239088],
          [0.0, 0.0, -0.04752373978063007]],
         [0.4113002428251731, 0.03953852135955038, 0.0]),
        ([[-2.28637565287997, 0.0, 0.0],
          [1.6294875804140716, 2.458113112573291, 0.0],
          [0.0, 0.005090761269421762, -1.7976307565878684]],
         [0.0, 0.5073076240874355, 0.5614771265338544]),
        ([[-2.553769175185482, 0.0, 0.0], [0.0, 2.043369531818896, 0.0],
          [1.6953876857387913, 2.439109280183449, 1.2067990629038903]],
         [0.0, 0.20183251873619967, 0.32044652287114195]),
    ])
    def test_stress_inputs_with_a_sign_violation_after_normalisation(self, A, b):
        A, b = np.array(A), np.array(b)
        assert_ct_cert(A, b, ct_hess_3(A, b))

    def test_rank_one_range_with_an_ill_conditioned_completion(self):
        # stress seed 6, i = 180: an axis completion of the range ray needs a
        # trailing step here, which leaves cond(T) about 5.5e8
        A = np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        b = np.array([0.39213600567471485, 0.5956170515145153, 0.4228766113645738])
        cert = ct_hess_3(A, b)
        assert_ct_cert(A, b, cert)
        assert cert.cond_T < 10.0

    @pytest.mark.parametrize("r, w, b", [
        ([1.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.3, 1.0]),  # b off r
        ([1.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.5, 1.0, 0.0]),  # b on r
        ([0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]),  # axis b on r
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, 1.0, 0.7]),  # rank 0
    ])
    def test_rank_at_most_one_range(self, r, w, b):
        """A1 = I + r w^T: the frame (b | r | e_k) off the ray of r leaves a
        Hessenberg matrix, and (b | e_i | e_j) on it a triangular one."""
        A1 = np.eye(3) + np.outer(r, w)
        H = self.frame(A1, b)
        if not np.cross(r, b).any():
            np.testing.assert_allclose(np.tril(H, -1), 0.0, atol=1e-15)
        A = A1 - 3.0 * np.eye(3)
        assert_ct_cert(A, np.array(b), ct_hess_3(A, b))


def _two_pattern_alpha(A2, b2):
    """The state feedback written per support pattern of ``b2``, (+, 0, 0) and
    (+, +, 0): the reference for the one-rule feedback."""
    alpha = np.zeros(3)
    if np.count_nonzero(b2) == 1:
        alpha[1] = A2[0, 1] / b2[0]
        alpha[2] = A2[0, 2] / b2[0]
    else:
        alpha[0] = A2[1, 0] / b2[1]
        alpha[1] = A2[0, 1] / b2[0]
        alpha[2] = min(A2[0, 2] / b2[0], A2[1, 2] / b2[1])
    return alpha


@pytest.mark.parametrize("support", [1, 2])
def test_state_feedback_matches_the_pattern_formulas(support):
    """One rule, min over the support less j, gives the floats of both
    pattern formulas, so the subtracted matrix is bit for bit the same."""
    t = 1e-12
    for i in range(200):
        rng = np.random.default_rng([31, support, i])
        A2 = rng.uniform(0.0, 1.0, (3, 3)) * (rng.uniform(size=(3, 3)) < 0.8)
        A2 += np.diag(rng.uniform(0.25, 1.0, 3))
        b2 = np.r_[rng.uniform(0.1, 1.0, support), np.zeros(3 - support)]
        base = A2 - np.outer(b2, _two_pattern_alpha(A2, b2))
        base[np.abs(base) <= 100 * t * inf_norm(A2)] = 0.0
        lam3 = float(np.min(np.linalg.eigvals(base).real))
        sigma = max(0.0, -float(np.min(np.diag(base))), -lam3) + 0.125 * inf_norm(A2)
        expected = np.maximum(base + sigma * np.eye(3), 0.0)
        Ab, lam3_Ab = _reducible_after_subtraction(A2, b2, t)
        np.testing.assert_array_equal(Ab, expected)
        assert lam3_Ab == lam3 + sigma


def test_stress_recipe_never_raises_and_always_verifies():
    """Seeds 1-2 of the stress recipe: 1 000 ct_hess_3 and 1 000
    metzler_hess_4 calls."""
    for seed in (1, 2):
        for A, b, A4 in stress_draws(seed):
            result = ct_hess_3(A, b)
            if isinstance(result, SimilarityCertificate):
                assert_ct_cert(A, b, result)
            else:
                assert result.kind is ObstructionKind.PERRON_EIGVEC_COINCIDENCE
            assert verify_certificate(A4, metzler_hess_4(A4))


class TestMetzlerHess4:
    def test_already_hessenberg(self):
        A = np.triu(np.full((4, 4), 2.0)) + np.diag(np.ones(3), -1) - 3 * np.eye(4)
        cert = metzler_hess_4(A)
        np.testing.assert_array_equal(cert.T, np.eye(4))

    def test_permutable_input_gets_its_permutation(self):
        H = np.triu(np.full((4, 4), 2.0), -1) - 5.0 * np.eye(4)
        q = [2, 0, 3, 1]
        A = H[np.ix_(q, q)]
        assert not classify(A).is_upper_hessenberg
        cert = metzler_hess_4(A)
        assert_good_cert(A, cert, Mode.METZLER)
        np.testing.assert_array_equal(cert.T, permutation_to_hessenberg(A))

    @pytest.mark.parametrize("construct, A", [
        (metzler_hess_3, [[-1.0, 0.0, 0.0], [2.0, -2.0, 0.0], [1.0, 5e-7, -3.0]]),
        (metzler_hess_4, [[-1.0, 0.0, 0.0, 0.0], [2.0, -2.0, 0.0, 0.0],
                          [1.0, 5e-7, -3.0, 0.0], [0.0, 1.0, 1.0, -1.0]]),
    ])
    def test_permutation_of_the_snapped_input_certifies(self, construct, A):
        """At ``tol = 1e-5`` the entry 5e-7 is snapped to an exact zero, so
        the order found is an exact similarity of the snapped input: its
        certificate holds for that matrix, and for ``A`` only at ``1e-5``."""
        A = np.array(A)
        P = permutation_to_hessenberg(A, 1e-5)
        assert P is not None
        cert = construct(A, tol=1e-5)
        np.testing.assert_array_equal(cert.T, P)
        assert verify_certificate(np.where(np.abs(A) <= 1e-5, 0.0, A), cert)
        assert verify_certificate(A, cert, tol=1e-5)
        assert not verify_certificate(A, cert)

    def test_near_zero_column_over_a_hessenberg_block(self):
        """A column below lead 0 within 10x of the zero threshold over an
        upper Hessenberg block: no permutation, and T = I serves."""
        A = np.array([[-1.0, 1.0, 1.0, 1.0], [5e-9, -1.0, 1.0, 1.0],
                      [5e-9, 1.0, -1.0, 1.0], [5e-9, 0.0, 1.0, -1.0]])
        Au, _, t = _unit_scale(A, None)
        assert permutation_to_hessenberg(Au, t) is None
        cert = metzler_hess_4(A)
        assert verify_certificate(A, cert)
        np.testing.assert_array_equal(cert.T, np.eye(4))

    def test_dense_family(self):
        A = np.ones((4, 4)) - np.eye(4)
        cert = metzler_hess_4(A)
        assert_good_cert(A, cert, Mode.METZLER)
        assert spectra_match(A, cert.H)

    def test_coupled_blocks(self):
        base = np.ones((2, 2)) - np.eye(2)
        A = np.block([[base, 0.02 * np.ones((2, 2))],
                      [0.02 * np.ones((2, 2)), base]])
        cert = metzler_hess_4(A)
        assert_good_cert(A, cert, Mode.METZLER)

    def test_obstructed_lead_passes_to_the_next(self):
        """No permutation serves; lead 0 leaves the 3-cycle with
        ``b = (1, 1, 1)``, its Perron vector beside a complex pair, so the
        controller step obstructs and lead 1 serves."""
        A = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        assert permutation_to_hessenberg(A) is None
        sub = ct_hess_3(A[1:, 1:], A[1:, 0], A[0, 1:])
        assert isinstance(sub, Obstruction)
        assert sub.kind is ObstructionKind.PERRON_EIGVEC_COINCIDENCE
        cert = metzler_hess_4(A)
        assert_good_cert(A, cert, Mode.METZLER)
        np.testing.assert_array_equal(cert.T[:, 0], [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("answer, reason", [
        (None, "no frame"), ((0.0, 0.0, []), "obstructed")])
    def test_no_frame_is_told_from_an_obstruction(self, monkeypatch, answer, reason):
        """A controller step that forms no frame on admissible input is a
        defect, reported apart from a trailing pair that obstructs."""
        monkeypatch.setattr(hessform.transforms, "_ct_step", lambda *args: answer)
        A = np.ones((4, 4)) - 2.0 * np.eye(4)
        with pytest.raises(ConstructionDefect) as info:
            metzler_hess_4(A)
        assert all(f"({k}, '{reason}')" in str(info.value) for k in range(4))

    def test_totality_random(self, rng):
        for _ in range(120):
            A = random_metzler(rng, 4)
            cert = metzler_hess_4(A)
            assert_good_cert(A, cert, Mode.METZLER)
            assert spectra_match(A, cert.H)


class TestVerifyCertificate:
    def test_accepts_good(self, rng):
        A = random_metzler(rng, 3)
        cert = metzler_hess_3(A)
        assert verify_certificate(A, cert)

    def test_rejects_tampered_h(self, rng):
        A = random_metzler(rng, 3)
        cert = metzler_hess_3(A)
        H = cert.H.copy()
        H[0, 1] += 1.0
        bad = SimilarityCertificate(
            T=cert.T, T_inv=cert.T_inv, H=H,
            residual_similarity=cert.residual_similarity,
            min_entry_T=cert.min_entry_T,
            hessenberg_violation=cert.hessenberg_violation,
            sign_violation=cert.sign_violation, mode=cert.mode,
            cond_T=cert.cond_T)
        assert not verify_certificate(A, bad)

    @pytest.mark.parametrize("seed", range(5))
    def test_mode_string_selects_the_same_rule(self, seed):
        """``"nonneg"`` and ``"metzler"`` in place of the enum, at each entry
        that takes a mode: the same metrics, mode and verdict."""
        rng = np.random.default_rng([47, seed])
        A = np.triu(random_metzler(rng, 3), -1)
        A[0, 0] = -1.0  # so the two sign rules disagree
        T = np.eye(3) + rng.uniform(0.0, 0.1, (3, 3))
        for mode in Mode:
            for build, args in ((make_certificate, (A, T)), (identity_certificate, (A,))):
                want, got = build(*args, mode), build(*args, mode.value)
                assert got.mode is mode
                assert got.sign_violation == want.sign_violation
                assert verify_certificate(A, replace(want, mode=mode.value)) == (
                    verify_certificate(A, want))
        assert verify_certificate(A, identity_certificate(A, Mode.METZLER))
        assert not verify_certificate(A, identity_certificate(A, "nonneg"))

    def test_mode_string_in_verify(self):
        A = np.array([[-1.0, 2.0], [3.0, 4.0]])
        cert = make_certificate(A, np.eye(2), Mode.NONNEG)
        assert not verify_certificate(A, cert)
        assert not verify_certificate(A, replace(cert, mode="nonneg"))
        assert not verify_certificate(A, make_certificate(A, np.eye(2), "nonneg"))
        assert verify_certificate(A, replace(cert, mode="metzler"))

    def test_identity_on_hessenberg(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        cert = make_certificate(A, np.eye(2), Mode.NONNEG)
        assert verify_certificate(A, cert)

    #: Tridiagonal A and a T with one negative entry for which
    #: T^{-1} A T is nonnegative upper Hessenberg.
    TRIDIAGONAL = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    NEGATIVE_T = np.array([[1.0, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_rejects_negative_t(self):
        A = self.TRIDIAGONAL
        cert = make_certificate(A, self.NEGATIVE_T, Mode.NONNEG)
        assert cert.sign_violation >= 0.0 and cert.hessenberg_violation == 0.0
        assert cert.min_entry_T == pytest.approx(-1.0 / 3.0)
        assert not verify_certificate(A, cert)
        with pytest.raises(ConstructionDefect):
            _checked(A, self.NEGATIVE_T, Mode.NONNEG, "negative T", 1.0)

    def test_invariant_under_column_scaling(self, rng):
        # (T E, E^{-1} H E) is the same similarity for a positive diagonal E
        for _ in range(20):
            A = random_metzler(rng, 4)
            cert = metzler_hess_4(A)
            E = 10.0 ** rng.uniform(-12.0, 12.0, 4)
            scaled = replace(cert, T=cert.T * E, H=cert.H * E / E[:, None])
            assert verify_certificate(A, scaled)
            bad = cert.H.copy()
            bad[3, 0] = 1e-6 * inf_norm(A)
            assert not verify_certificate(A, replace(scaled, H=bad * E / E[:, None]))

    def test_make_certificate_keeps_t(self):
        T = np.array([[2.0, 0.0], [1.0, 3e-9]])
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        cert = make_certificate(A, T, Mode.NONNEG)
        np.testing.assert_array_equal(cert.T, T)
        np.testing.assert_allclose(cert.T_inv @ T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(T @ cert.H, A @ T, rtol=1e-12, atol=1e-12)
        assert cert.cond_T == pytest.approx(np.linalg.cond(T / np.abs(T).sum(axis=0)))

    def test_singular_t_rejected(self):
        A = np.eye(2)
        with pytest.raises(InputError):
            cert = make_certificate(A, np.array([[1.0, 1.0], [1.0, 1.0]]),
                                    Mode.NONNEG)


def _reference_certificate(A, T, mode):
    """The fields of ``make_certificate(A, T, mode)`` by the formulas the
    certificate core replaced: a solve against the identity, function
    reductions and ``||A||_inf`` normed at each use."""
    n = A.shape[0]
    d = np.sum(np.abs(T), axis=0)
    Tn = T / d
    svals = np.linalg.svd(Tn, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e14:
        raise InputError("T is singular beyond the conditioning bound")
    Tn_inv = np.linalg.solve(Tn, np.eye(n))
    Hn = Tn_inv @ A @ Tn
    off = ~np.eye(n, dtype=bool)
    return (T.tobytes(), (Tn_inv / d[:, None]).tobytes(), (Hn / d[:, None] * d).tobytes(),
            float(inf_norm(A @ Tn - Tn @ Hn) / (inf_norm(A) or 1.0)).hex(),
            float(np.min(Tn)).hex(),
            float(np.max(np.abs(np.tril(Hn, -2)))).hex() if n > 2 else 0.0.hex(),
            float(np.min(Hn if mode is Mode.NONNEG else Hn[off])).hex(),
            mode, float(svals[0] / svals[-1]).hex())


def _reference_verifies(A, T, H, mode, tol):
    """``verify_certificate`` by the formulas the certificate core replaced."""
    n = A.shape[0]
    d = np.sum(np.abs(T), axis=0)
    T = T / d
    svals = np.linalg.svd(T, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e14:
        raise InputError("T is singular beyond the conditioning bound")
    H = H * d[:, None] / d
    bound = tol * inf_norm(A)
    off = ~np.eye(n, dtype=bool)
    least = np.min(H if mode is Mode.NONNEG else H[off])
    if not (np.min(T) >= -tol and inf_norm(A @ T - T @ H) <= bound
            and (n <= 2 or np.max(np.abs(np.tril(H, -2))) <= bound) and least >= -bound):
        return False
    T_inv = np.linalg.solve(T, np.eye(n))
    return inf_norm(T_inv @ A @ T - H) <= tol * inf_norm(A) * inf_norm(T_inv) * inf_norm(T)


def _core_fields(cert):
    return (cert.T.tobytes(), cert.T_inv.tobytes(), cert.H.tobytes(),
            cert.residual_similarity.hex(), cert.min_entry_T.hex(),
            cert.hessenberg_violation.hex(), cert.sign_violation.hex(), cert.mode,
            cert.cond_T.hex())


class TestCertificateCore:
    """The lean certificate core (``np.linalg.inv``, method reductions, one
    ``||A||_inf``) gives every field and verdict of the formulas it replaced,
    bit for bit."""

    @staticmethod
    def _assert_same(A, T, mode):
        try:
            want = _reference_certificate(A, T, mode)
        except InputError:
            with pytest.raises(InputError):
                _certificate(A, T, mode, inf_norm(A))
            return None
        cert = _certificate(A, T, mode, inf_norm(A))
        assert _core_fields(cert) == want
        assert _core_fields(make_certificate(A, T, mode)) == want
        for H in (cert.H, cert.H + 1e-7 * inf_norm(A) * np.tri(len(A), k=-2)):
            for tol in (1e-12, RESIDUAL_BOUND):
                assert _verifies(A, T, H, mode, tol, inf_norm(A)) == \
                    _reference_verifies(A, T, H, mode, tol)
        return cert

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    def test_dense_and_permutation_frames(self, n, mode):
        rng = np.random.default_rng([48, n])
        perms = list(itertools.permutations(range(n)))
        for i in range(40):
            A = sample_matrix(n, mode, Generator.DENSE_UNIFORM, rng) * 10.0 ** rng.uniform(-6, 6)
            P = np.zeros((n, n))
            P[perms[rng.integers(len(perms))], np.arange(n)] = 1.0
            for T in (rng.uniform(0.0, 1.0, (n, n)), rng.uniform(-0.2, 1.0, (n, n)), P):
                assert self._assert_same(A, T, mode) is not None

    def test_frames_at_the_conditioning_gate(self):
        # T = U diag(1, 1, 1, sigma) V with sigma from 1e-15 to 1e-12: cond(T D^-1)
        # crosses 1e14, where both builds raise on the same side
        rng = np.random.default_rng(49)
        A = sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM, rng)
        U, V = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
        near = raised = 0
        for sigma in np.logspace(-15.0, -12.0, 40):
            cert = self._assert_same(A, U @ np.diag([1.0, 1.0, 1.0, sigma]) @ V, Mode.METZLER)
            raised += cert is None
            near += cert is not None and cert.cond_T > 1e13
        assert raised >= 5 and near >= 5
