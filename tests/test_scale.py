"""One scale policy: the constructions and the checker give the same answer for
``A`` and ``cA``, and the answer does not depend on a permutation of the
coordinates either."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessform.transforms
from hessform import (
    Generator,
    Mode,
    ObstructionKind,
    SimilarityCertificate,
    ct_hess_3,
    dt_hess_2,
    dt_iterates,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
    verify_certificate,
)
from hessform.cli import run
from hessform.formats import certificate_to_json, write_matrix
from hessform.linalg import inf_norm
from hessform.search import sample_matrix
from hessform.transforms import identity_certificate

from conftest import INFEASIBLE_DT_A, INFEASIBLE_DT_B

DENSE_1E9 = 1e-9 * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])

CONSTRUCTORS = {
    "nonneg_hess_3": (nonneg_hess_3, 3, Mode.NONNEG),
    "metzler_hess_3": (metzler_hess_3, 3, Mode.METZLER),
    "metzler_hess_4": (metzler_hess_4, 4, Mode.METZLER),
    "ct_hess_3": (ct_hess_3, 3, Mode.METZLER),
}


def outcome(A, result):
    """"certificate" for one that verifies on A, else the obstruction kind."""
    if isinstance(result, SimilarityCertificate):
        return "certificate" if verify_certificate(A, result) else "unverified"
    return result.kind


class TestRelativeChecker:
    def test_dense_tiny_matrix_is_not_hessenberg(self):
        assert not verify_certificate(DENSE_1E9, identity_certificate(DENSE_1E9, Mode.NONNEG))

    def test_tiny_hessenberg_matrix_verifies(self):
        A = 1e-9 * np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 8.0, 9.0]])
        assert verify_certificate(A, identity_certificate(A, Mode.NONNEG))

    def test_cli_verify_rejects_the_identity_certificate(self, tmp_path, capsys):
        amat, cert = tmp_path / "A.mat", tmp_path / "cert.json"
        write_matrix(amat, DENSE_1E9)
        cert.write_text(certificate_to_json(
            DENSE_1E9, identity_certificate(DENSE_1E9, Mode.NONNEG)))
        assert run(["verify", str(amat), str(cert)]) == 1
        assert '"verified": false' in capsys.readouterr().out

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e12])
    def test_scaled_certificate_verifies_alike(self, c):
        cert = nonneg_hess_3(INFEASIBLE_DT_A)
        scaled = replace(cert, H=c * cert.H)
        assert verify_certificate(c * INFEASIBLE_DT_A, scaled)
        bad = cert.H.copy()
        bad[2, 0] = 1e-6 * inf_norm(INFEASIBLE_DT_A)
        assert not verify_certificate(c * INFEASIBLE_DT_A,
                                      replace(cert, H=c * bad))


class TestZeroMatrix:
    def test_every_constructor_certifies_zero(self):
        b = np.array([0.2, 0.0, 0.7])
        for name, (construct, n, _) in CONSTRUCTORS.items():
            Z = np.zeros((n, n))
            cert = construct(Z, b) if name == "ct_hess_3" else construct(Z)
            assert isinstance(cert, SimilarityCertificate), name
            assert verify_certificate(Z, cert), name
            np.testing.assert_array_equal(cert.H, 0.0)
        assert verify_certificate(np.zeros((2, 2)), dt_hess_2(np.zeros((2, 2)), [1.0, 2.0]))


def small_integer_matrix(n, mode, rng):
    """Entries 0-3, less a diagonal of 0-4 in Metzler mode: exact zeros, ties
    and repeated eigenvalues, which uniform draws almost never give."""
    A = rng.integers(0, 4, (n, n)).astype(float)
    if mode is Mode.METZLER:
        A -= np.diag(rng.integers(0, 5, n))
    return A


@settings(max_examples=300)
@given(st.sampled_from(sorted(CONSTRUCTORS)),
       st.sampled_from([Generator.DENSE_UNIFORM, Generator.SPARSE_PATTERN,
                        Generator.PROP1_FAMILY, "small-integer"]),
       st.integers(0, 2**32 - 1), st.floats(-12.0, 12.0), st.permutations(range(4)))
def test_outcome_invariant_under_scaling_and_permutation(name, gen, seed, log_c, perm):
    """A certificate that verifies, or an obstruction of one kind, the same for
    A, cA and P^T A P (with b -> P^T b for ct_hess_3), and for ct_hess_3 also
    under b -> cb.  With the zeros of A moved by up to tau / 2 either way
    (tau half the least nonzero |a_ij|), ``tol = tau`` snaps them back: the
    same outcome, a certificate that verifies on A, and for ``(dA, d tau)``
    exactly the certificate's H times d, d the power of two nearest c, which
    repeats every rounding at unit scale."""
    construct, n, mode = CONSTRUCTORS[name]
    rng = np.random.default_rng(seed)
    A = small_integer_matrix(n, mode, rng) if gen == "small-integer" \
        else sample_matrix(n, mode, gen, rng)
    b = rng.uniform(0.0, 1.0, n)
    P = np.eye(n)[:, [k for k in perm if k < n]]
    c = 10.0 ** log_c
    tau = 0.5 * np.min(np.abs(A[A != 0.0]), initial=1.0)
    noise = rng.choice([-1.0, 1.0], A.shape) * rng.uniform(0.0, 0.5 * tau, A.shape)
    noisy = np.where(A == 0.0, noise, A)

    def run(M, v, tol=None):
        return construct(M, v, tol=tol) if name == "ct_hess_3" else construct(M, tol=tol)

    outcomes = {outcome(M, run(M, v)) for M, v in
                [(A, b), (c * A, b), (P.T @ A @ P, P.T @ b), (A, c * b)]}
    d = 2.0 ** round(log_c / np.log10(2.0))
    snapped, scaled = run(noisy, b, tau), run(d * noisy, b, d * tau)
    outcomes |= {outcome(A, snapped), outcome(d * A, scaled)}
    assert len(outcomes) == 1
    assert outcomes <= {"certificate", ObstructionKind.NEG_EIG_GEOM_MULT,
                        ObstructionKind.PERRON_EIGVEC_COINCIDENCE}
    if isinstance(snapped, SimilarityCertificate):
        np.testing.assert_array_equal(scaled.H, d * snapped.H)


def fuzz_constructors(seed, draw):
    """1 000 draws ``draw(i, n, mode, rng)`` over the constructors in turn,
    every other block of eight scaled by 10**U(-6, 6): nothing raises and
    every certificate verifies."""
    for i in range(1000):
        rng = np.random.default_rng([seed, i])
        name = sorted(CONSTRUCTORS)[i % 4]
        construct, n, mode = CONSTRUCTORS[name]
        A = draw(i, n, mode, rng)
        if (i // 8) % 2:
            A = A * 10.0 ** rng.uniform(-6.0, 6.0)
        result = construct(A, rng.uniform(0.0, 1.0, 3)) if name == "ct_hess_3" \
            else construct(A)
        assert outcome(A, result) in ("certificate",
                                      ObstructionKind.NEG_EIG_GEOM_MULT,
                                      ObstructionKind.PERRON_EIGVEC_COINCIDENCE), (name, i)


def test_constructor_fuzz_never_raises_and_always_verifies():
    """About 250 draws per constructor, dense and sparse, half of them scaled."""
    fuzz_constructors(7, lambda i, n, mode, rng: sample_matrix(
        n, mode, Generator.DENSE_UNIFORM if (i // 4) % 2 else Generator.SPARSE_PATTERN, rng))


def test_small_integer_fuzz_never_raises_and_always_verifies():
    """About 250 small-integer draws per constructor, half of them scaled."""
    fuzz_constructors(29, lambda i, n, mode, rng: small_integer_matrix(n, mode, rng))


@pytest.mark.parametrize("d", 10.0 ** np.arange(-12, 13, 3))
def test_ct_hess_3_total_at_every_input_scale(d):
    """100 dense Metzler pairs with b = d U(0, 1)^3: a certificate that
    verifies, with T[:, 0] = b, at every d.  The checker measures T at unit
    column sums, so the pinned column's scale does not matter."""
    for i in range(100):
        rng = np.random.default_rng([3, i])
        A = sample_matrix(3, Mode.METZLER, Generator.DENSE_UNIFORM, rng)
        b = d * rng.uniform(0.0, 1.0, 3)
        result = ct_hess_3(A, b)
        assert outcome(A, result) == "certificate", i
        np.testing.assert_array_equal(result.T[:, 0], b)


def test_scaled_rank_one_shift_family_has_no_certificate():
    """The 3x3 characterisation: c (u v^T - s I) has no nonnegative Hessenberg
    form at any scale."""
    rng = np.random.default_rng(2103)
    for _ in range(2000):
        A = sample_matrix(3, Mode.NONNEG, Generator.PROP1_FAMILY, rng)
        A = A * 10.0 ** rng.uniform(-6.0, 6.0)
        result = nonneg_hess_3(A)
        assert not isinstance(result, SimilarityCertificate), A.tolist()
        assert result.kind is ObstructionKind.NEG_EIG_GEOM_MULT
        d = result.data
        recon = d["c"] * (np.outer(d["u"], d["v"]) - d["s"] * np.eye(3))
        assert inf_norm(recon - A) <= 1e-8 * inf_norm(A)


def test_rank_one_shift_detect_sees_the_snapped_input(monkeypatch):
    """``tol`` only snaps: the family test gets the input with its entries
    within ``tol`` at exact zeros, at unit scale, and the default rounding
    threshold, whatever ``tol`` is."""
    seen = []
    detect = hessform.transforms.rank_one_shift_detect

    def spy(A, tol=None):
        seen.append((A.copy(), tol))
        return detect(A, tol)

    monkeypatch.setattr(hessform.transforms, "rank_one_shift_detect", spy)
    A = 1e3 * INFEASIBLE_DT_A
    noisy = A + np.where(A == 0.0, [[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 0.0)
    nonneg_hess_3(A)
    nonneg_hess_3(noisy, tol=10.0)
    nonneg_hess_3(A, tol=0.0)
    assert len(seen) == 3
    for got, t in seen:
        np.testing.assert_array_equal(got, A / inf_norm(A))
        assert t == seen[0][1] == pytest.approx(1e-9, rel=1e-15)


def test_metzler_hess_4_step_rounds_at_the_default_threshold(monkeypatch):
    """The controller step of lead 0 rounds at the default threshold of its
    own trailing block's unit scale, the same with or without ``tol``."""
    seen = []
    step = hessform.transforms._ct_step

    def spy(A, b, irreducible, t):
        seen.append(t)
        return step(A, b, irreducible, t)

    monkeypatch.setattr(hessform.transforms, "_ct_step", spy)
    A = 1e3 * (np.ones((4, 4)) - np.eye(4))
    metzler_hess_4(A)
    metzler_hess_4(A, tol=1e-4)
    assert seen[0] == seen[1] == pytest.approx(1e-9 * inf_norm(A) / inf_norm(A[1:, 1:]),
                                                rel=1e-15)
    assert len(seen) == 2


def test_dt_iterates_of_the_counterexample_at_every_scale():
    ref = dt_iterates(INFEASIBLE_DT_A, INFEASIBLE_DT_B, 10)
    scales = [1e-12, 1e-6, 1.0, 1e6, 1e12]
    for c in scales:
        for d in scales:
            trace = dt_iterates(c * INFEASIBLE_DT_A, d * INFEASIBLE_DT_B, 10)
            for got, want in zip(trace.points + [trace.limit_point],
                                 ref.points + [ref.limit_point]):
                assert got.x == pytest.approx(want.x, abs=1e-12)
                assert got.y == pytest.approx(want.y, abs=1e-12)
