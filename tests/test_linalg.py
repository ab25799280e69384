import itertools
import time

import numpy as np
import pytest

from hessform import (
    ClusterAmbiguityError,
    InputError,
    classify,
    geometric_multiplicity,
    jordan_like_form,
    permutation_to_hessenberg,
    perron_pair,
    sorted_spectrum,
)
from hessform.linalg import MAX_DIM, _masks, _strongly_connected, inf_norm, zero_tolerance
from hessform.transforms import Mode, _sign_violation

from conftest import INFEASIBLE_DT_A, random_irreducible_nonneg, random_nonneg


class TestClassify:
    def test_identity(self):
        rep = classify(np.eye(3))
        assert rep.is_nonnegative and rep.is_metzler and rep.is_upper_hessenberg
        assert not rep.is_irreducible
        assert not rep.is_primitive

    def test_known_reducible_matrix(self):
        # second row has no off-diagonal support, so vertex 2 cannot reach the
        # others: the digraph is not strongly connected
        rep = classify(INFEASIBLE_DT_A)
        assert rep.is_nonnegative
        assert not rep.is_upper_hessenberg  # entry (3,1) = 15
        assert not rep.is_irreducible

    def test_ones_minus_identity(self):
        A = np.ones((3, 3)) - np.eye(3)
        rep = classify(A)
        assert rep.is_nonnegative and rep.is_metzler
        assert rep.is_irreducible and rep.is_primitive

    def test_metzler_not_nonneg(self):
        rep = classify(np.array([[-1.0, 2.0], [3.0, -4.0]]))
        assert rep.is_metzler and not rep.is_nonnegative

    def test_nonneg_implies_metzler(self, rng):
        for _ in range(25):
            rep = classify(random_nonneg(rng, int(rng.integers(2, 6))))
            assert not rep.is_nonnegative or rep.is_metzler
            assert not rep.is_primitive or rep.is_irreducible

    def test_irreducible_cross_check_with_permutations(self, rng):
        # irreducible means no permutation exposes a zero lower-left block
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A = random_nonneg(rng, n)
            mask = rng.uniform(size=(n, n)) < 0.5
            A[mask & ~np.eye(n, dtype=bool)] = 0.0
            rep = classify(A)
            assert rep.is_irreducible == (not _permutation_reducible(A, rep.zero_pattern))

    def test_primitivity_matches_the_spectral_gap(self, rng):
        # an irreducible nonnegative matrix is primitive iff its Perron root is
        # the only eigenvalue of largest modulus
        cyclic = [np.roll(np.eye(n), 1, axis=1) for n in range(2, 7)]
        cyclic.append(np.roll(np.eye(4), 1, axis=1) * rng.uniform(0.5, 2.0, (4, 4)))
        cyclic.append(np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))))
        draws = []
        for i in range(300):
            n = int(rng.integers(2, 7))
            A = rng.uniform(0.0, 1.0, (n, n))
            A[rng.uniform(size=(n, n)) < rng.choice([0.4, 0.6, 0.8])] = 0.0
            if i % 3 == 0:
                # zero diagonal blocks: bipartite, so period 2 when irreducible
                k = int(rng.integers(1, n))
                A[:k, :k] = A[k:, k:] = 0.0
            draws.append(A)
        verdicts = []
        for A in cyclic + draws:
            rep = classify(A)
            if not rep.is_irreducible:
                continue
            moduli = np.abs(np.linalg.eigvals(A))
            gap = np.count_nonzero(moduli > (1 - 1e-8) * moduli.max()) == 1
            assert rep.is_primitive == gap
            verdicts.append(gap)
        assert not any(classify(C).is_primitive for C in cyclic)
        assert verdicts[len(cyclic):].count(False) >= 10
        assert verdicts.count(True) >= 10

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            classify(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            classify(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _structured_draw(rng, n):
    """A matrix with exact zeros, ``-0.0`` entries, a negative diagonal or a
    one-sided pattern, as the exact constructions see after snapping."""
    A = rng.choice([0.0, -0.0, 1.0, 0.5], size=(n, n)) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(A, rng.choice([-1.0, -0.0, 0.0, 2.0], size=n))
    shape = rng.integers(4)
    if shape == 1:
        A[np.tril_indices(n, -1)] = rng.choice([0.0, -0.0])  # one-sided: upper
    elif shape == 2:
        A[np.triu_indices(n, 1)] = rng.choice([0.0, -0.0])  # one-sided: lower
    elif shape == 3 and n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        A[i, j] = -rng.uniform(0.1, 1.0)  # one negative off-diagonal entry
    return A


class TestStructureKernels:
    """The exact sign and pattern tests of the constructions give the answers
    of ``classify`` at a zero threshold."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sign_and_pattern_tests_agree_with_classify(self, n):
        outcomes = set()
        for i in range(300):
            A = _structured_draw(np.random.default_rng([45, n, i]), n)
            rep = classify(A, 0.0)
            metzler = not _sign_violation(A, Mode.METZLER) < 0
            irreducible = _strongly_connected((A != 0) & _masks(n)[1])
            assert metzler == rep.is_metzler
            assert irreducible == rep.is_irreducible
            outcomes.add((metzler, irreducible))
        # every pair of answers occurs; a 1x1 matrix is Metzler and irreducible
        assert len(outcomes) == (1 if n == 1 else 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_masks_are_cached_and_read_only(self, n):
        below, off = _masks(n)
        assert _masks(n)[0] is below and _masks(n)[1] is off
        assert np.array_equal(below, np.tril(np.ones((n, n), dtype=bool), k=-2))
        assert np.array_equal(off, ~np.eye(n, dtype=bool))
        for mask in (below, off):
            with pytest.raises(ValueError):
                mask[0, 0] = True


def _permutation_reducible(A, zero_pattern):
    n = A.shape[0]
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        B = zero_pattern[np.ix_(p, p)]
        for k in range(1, n):
            if np.all(B[k:, :k]):
                return True
    return False


class TestSortedSpectrum:
    def test_diagonal(self):
        spec = sorted_spectrum(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(spec.eigenvalues.real, [3.0, 2.0, 1.0], atol=1e-12)

    def test_known_cubic(self):
        # characteristic polynomial factors as (6 - x)(x^2 - 6x - 210)
        spec = sorted_spectrum(INFEASIBLE_DT_A)
        root = np.sqrt(219.0)
        np.testing.assert_allclose(
            spec.eigenvalues.real, [3 + root, 3 - root, 6.0], atol=1e-9)
        assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-9

    def test_rank_one_minus_identity(self):
        spec = sorted_spectrum(np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues.real, [2.0, -1.0, -1.0],
                                   atol=1e-7)
        assert spec.algebraic_multiplicities == (1, 2)
        assert spec.geometric_multiplicities == (1, 2)

    def test_magnitude_tie_broken_by_real_part(self):
        spec = sorted_spectrum(np.diag([-1.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues.real, [1.0, -1.0], atol=1e-14)

    def test_conjugate_pair_positive_imag_first(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        spec = sorted_spectrum(A)
        assert spec.eigenvalues[0].imag > 0 > spec.eigenvalues[1].imag

    def test_total_order(self, rng):
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            vals = sorted_spectrum(A).eigenvalues
            tol = 1e-8 * max(1.0, np.max(np.abs(vals)))
            for a, b in zip(vals, vals[1:]):
                assert abs(a) > abs(b) - tol


class TestGeometricMultiplicity:
    def test_identity(self):
        assert geometric_multiplicity(np.eye(2), 1.0) == 2

    def test_rank_one_eigenspace(self):
        assert geometric_multiplicity(np.ones((3, 3)) - np.eye(3), -1.0) == 2

    def test_simple_eigenvalue(self):
        lam = 3 - np.sqrt(219.0)
        assert geometric_multiplicity(INFEASIBLE_DT_A, lam) == 1

    def test_defective(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert geometric_multiplicity(A, 1.0) == 1


class TestPerronPair:
    def test_symmetric_circulant(self):
        pd = perron_pair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert pd.perron_root == pytest.approx(3.0, abs=1e-10)
        np.testing.assert_allclose(pd.right_vector, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(pd.left_vector, [0.5, 0.5], atol=1e-10)
        assert pd.is_simple

    def test_reducible_diagonal(self):
        pd = perron_pair(np.diag([1.0, 2.0]))
        assert pd.perron_root == pytest.approx(2.0)
        np.testing.assert_allclose(pd.right_vector, [0.0, 1.0], atol=1e-10)

    def test_known_reducible_has_zero_entry(self):
        # A is reducible here, so the dominant eigenvector need not be
        # strictly positive; it vanishes on the unreachable coordinate
        pd = perron_pair(INFEASIBLE_DT_A)
        assert pd.perron_root == pytest.approx(3 + np.sqrt(219.0), rel=1e-10)
        expected = np.array([14.0, 0.0, 3 + np.sqrt(219.0)])
        np.testing.assert_allclose(pd.right_vector, expected / expected.sum(),
                                   atol=1e-8)

    def test_residual_and_positivity_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = random_irreducible_nonneg(rng, n)
            pd = perron_pair(A)
            resid = inf_norm(A @ pd.right_vector - pd.perron_root * pd.right_vector)
            assert resid <= 1e-8 * max(1.0, inf_norm(A))
            assert np.min(pd.right_vector) > 0
            assert np.min(pd.left_vector) > 0

    def test_rejects_negative_entries(self):
        with pytest.raises(InputError):
            perron_pair(np.array([[1.0, -1.0], [0.0, 1.0]]))


class TestPermutationToHessenberg:
    def test_already_hessenberg(self):
        A = np.triu(np.ones((3, 3))) + np.diag(np.ones(2), -1)
        P = permutation_to_hessenberg(A)
        np.testing.assert_array_equal(P, np.eye(3))

    def test_single_zero_moved(self):
        A = np.ones((3, 3))
        A[0, 2] = 0.0
        P = permutation_to_hessenberg(A)
        assert P is not None
        B = P.T @ A @ P
        assert abs(B[2, 0]) == 0.0
        # enumeration says the lexicographically first solution reverses the order
        np.testing.assert_array_equal(P, np.eye(3)[:, ::-1])

    def test_no_zero_to_move(self):
        assert permutation_to_hessenberg(np.ones((3, 3)) - np.eye(3)) is None

    @pytest.mark.parametrize("kind", ["dense", "sparse", "near-threshold"])
    def test_subset_search_equals_enumeration(self, kind):
        # the same lexicographically first P, bit for bit, or None with it
        rng = np.random.default_rng([91, len(kind)])
        found = 0
        for n in range(1, 8):
            for _ in range(12):
                A = rng.uniform(0.0, 1.0, (n, n))
                tol = None
                if kind == "sparse":
                    A[rng.uniform(size=(n, n)) < rng.uniform(0.4, 0.9)] = 0.0
                elif kind == "near-threshold":
                    # entries just below, at and just above an explicit tolerance
                    tol = 1e-6
                    near = rng.uniform(size=(n, n)) < 0.6
                    A[near] = rng.choice([-1.001e-6, -1e-6, 0.0, 0.999e-6, 1e-6, 1.001e-6],
                                         size=int(near.sum()))
                want = _enumerated_permutation(A, tol)
                got = permutation_to_hessenberg(A, tol)
                assert (got is None) == (want is None)
                if want is not None:
                    found += 1
                    assert got.tobytes() == want.tobytes()
        assert found >= 12

    def test_empty_indices_keep_the_first_permutation(self):
        # indices with no off-diagonal nonzero in their row and column are
        # interchangeable, and a free branch tries only the least of them;
        # the first P is still that of the enumeration
        rng = np.random.default_rng(93)
        found = missing = 0
        for n in range(2, 7):
            for _ in range(40):
                A = rng.uniform(0.0, 1.0, (n, n))
                A[rng.uniform(size=(n, n)) < rng.uniform(0.2, 0.8)] = 0.0
                empty = rng.uniform(size=n) < 0.4
                A[empty, :] = A[:, empty] = 0.0
                want = _enumerated_permutation(A)
                got = permutation_to_hessenberg(A)
                assert (got is None) == (want is None)
                if want is None:
                    missing += 1
                else:
                    found += empty.sum() >= 2
                    assert got.tobytes() == want.tobytes()
        assert found >= 40 and missing >= 5

    def test_obstruction_among_empty_indices_is_fast(self):
        # a dense 3x3 block has no Hessenberg order; the 13 other indices,
        # with empty rows and columns, no longer multiply the failed states
        A = np.zeros((MAX_DIM, MAX_DIM))
        A[np.ix_([5, 9, 12], [5, 9, 12])] = 1.0
        permutation_to_hessenberg(np.eye(3))  # warm
        start = time.perf_counter()
        assert permutation_to_hessenberg(A) is None
        assert time.perf_counter() - start < 0.02

    @pytest.mark.parametrize("n", range(9, MAX_DIM + 1))
    def test_permuted_hessenberg_pattern_is_found(self, n):
        rng = np.random.default_rng([92, n])
        for _ in range(5):
            H = np.triu(rng.uniform(0.1, 1.0, (n, n)), -1)
            H[rng.uniform(size=(n, n)) < rng.uniform(0.0, 0.7)] = 0.0
            q = rng.permutation(n)
            A = H[np.ix_(q, q)]
            P = permutation_to_hessenberg(A)
            assert P is not None
            np.testing.assert_array_equal(P.sum(axis=0), 1.0)
            np.testing.assert_array_equal(P.sum(axis=1), 1.0)
            assert not np.tril(P.T @ A @ P, -2).any()

    def test_dense_max_dim_has_no_permutation(self):
        assert permutation_to_hessenberg(np.ones((MAX_DIM, MAX_DIM))) is None

    def test_max_dim_is_accepted(self):
        np.testing.assert_array_equal(
            permutation_to_hessenberg(np.eye(MAX_DIM)), np.eye(MAX_DIM))

    def test_above_max_dim_raises(self):
        with pytest.raises(InputError, match="supported dimension"):
            permutation_to_hessenberg(np.eye(MAX_DIM + 1))


def _enumerated_permutation(A, tol=None):
    """The first of ``itertools.permutations`` that makes ``P.T @ A @ P``
    upper Hessenberg on the zero pattern at ``zero_tolerance(A, tol)``."""
    n = A.shape[0]
    t = zero_tolerance(A, tol)
    below = np.tril(np.ones((n, n), dtype=bool), k=-2)
    for perm in itertools.permutations(range(n)):
        p = np.array(perm)
        if np.all(np.abs(A[np.ix_(p, p)][below]) <= t):
            P = np.zeros((n, n))
            P[p, np.arange(n)] = 1.0
            return P
    return None


class TestJordanLikeForm:
    def test_diagonal(self):
        V, J = jordan_like_form(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(J, np.diag([3.0, 1.0]), atol=1e-12)

    def test_symmetric_rank_one(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        V, J = jordan_like_form(A)
        np.testing.assert_allclose(J, np.diag([2.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(A @ V, V @ J, atol=1e-10)

    def test_rotation_block(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        V, J = jordan_like_form(A)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        expected[1:, 1:] = [[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]]
        np.testing.assert_allclose(J, expected, atol=1e-9)
        np.testing.assert_allclose(A @ V, V @ J, atol=1e-10)

    def test_defective_chain(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        V, J = jordan_like_form(A)
        np.testing.assert_allclose(J, [[2.0, 1.0], [0.0, 2.0]], atol=1e-9)
        np.testing.assert_allclose(A @ V, V @ J, atol=1e-9)

    def test_decreasing_real_parts(self, rng):
        for _ in range(30):
            A = rng.normal(size=(4, 4))
            V, J = jordan_like_form(A)
            diag = np.diag(J)
            for a, b in zip(diag, diag[1:]):
                assert a >= b - 1e-7 * max(1.0, np.abs(diag).max())
            assert inf_norm(A @ V - V @ J) <= 1e-6 * max(1.0, inf_norm(A)) * \
                np.linalg.cond(V)

    def test_residual_random_nonneg(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            A = random_nonneg(rng, n)
            V, J = jordan_like_form(A)
            cond = np.linalg.cond(V)
            assert inf_norm(A @ V - V @ J) <= 1e-8 * max(1.0, inf_norm(A)) * \
                max(1.0, cond)

    def test_cluster_ambiguity(self):
        A = np.diag([1.0, 1.0 + 1.2e-6])  # gap straddles the default threshold
        with pytest.raises(ClusterAmbiguityError):
            jordan_like_form(A, cluster_tol=1e-6)

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            jordan_like_form(np.eye(5))
