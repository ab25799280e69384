import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hessform import (
    AltProjConfig,
    Generator,
    InputError,
    Mode,
    SimilarityCertificate,
    altproj_hess,
    make_certificate,
    metzler_hess_3,
    nonneg_hess_3,
    random_experiment,
    rank_one_shift_detect,
    verify_certificate,
)
from hessform import search, transforms
from hessform.formats import search_report_csv, search_report_to_json
from hessform.linalg import MAX_DIM, permutation_to_hessenberg
from hessform.search import sample_matrix
from hessform.transforms import RESIDUAL_BOUND, _unit_scale as _snap

from conftest import random_metzler, random_nonneg


def small_cfg(seed, **kw):
    base = dict(seed=seed, restarts=4, max_iters=150)
    base.update(kw)
    return AltProjConfig(**base)


def _report_bits(report):
    """Every field of a SearchReport, floats and certificate arrays as bits."""
    cert = report.best_certificate
    return (report.attempts, report.successes, report.best_violation.hex(),
            [(log.restart, log.iterations, log.final_violation.hex(), log.success)
             for log in report.logs],
            None if cert is None else (cert.T.tobytes(), cert.H.tobytes()))


class TestAltprojHess:
    def test_metzler_3x3_finds_transform(self, rng):
        A = random_metzler(rng, 3)
        report = altproj_hess(A, Mode.METZLER, small_cfg(42, restarts=6))
        assert report.successes >= 1
        assert report.best_certificate is not None
        assert verify_certificate(A, report.best_certificate, tol=1e-8)

    def test_infeasible_family_never_succeeds(self):
        A = np.outer([1.0, 2.0, 1.0], [1.0, 1.0, 2.0]) - 0.5 * np.eye(3)
        report = altproj_hess(A, Mode.NONNEG, small_cfg(5))
        assert report.successes == 0
        assert report.best_certificate is None

    def test_determinism(self, rng):
        # the depth-first order is fixed and the draws are seeded, so two
        # runs give bit-identical reports
        for A, mode in ((random_metzler(rng, 5), Mode.METZLER),
                        (random_nonneg(rng, 5), Mode.NONNEG)):
            r1 = altproj_hess(A, mode, small_cfg(9))
            r2 = altproj_hess(A, mode, small_cfg(9))
            assert _report_bits(r1) == _report_bits(r2)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(InputError):
            altproj_hess(np.array([[1.0, -1.0], [0.0, 1.0]]), Mode.NONNEG,
                         small_cfg(1))

    def test_every_success_reverifies(self, rng):
        for _ in range(5):
            A = random_metzler(rng, 3)
            report = altproj_hess(A, Mode.METZLER, small_cfg(23))
            if report.successes:
                assert verify_certificate(A, report.best_certificate,
                                          tol=1e-8)

    def test_success_floor_on_feasible_metzler_4(self):
        # metzler_hess_4 is total, so all 40 draws are feasible, and the
        # search certifies each of them at the random_experiment budget
        hits = 0
        for draw in range(40):
            A = sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM,
                              np.random.default_rng([41, draw]))
            report = altproj_hess(A, Mode.METZLER,
                                  AltProjConfig(seed=draw, restarts=4, max_iters=200))
            if report.successes:
                hits += 1
                assert verify_certificate(A, report.best_certificate, tol=1e-8)
        assert hits == 40

    @pytest.mark.parametrize("A, mode", [
        ([[2.0]], Mode.NONNEG),
        ([[-2.0]], Mode.METZLER),
        ([[1.0, 2.0], [3.0, 0.5]], Mode.NONNEG),
        ([[-1.0, 2.0], [3.0, -4.0]], Mode.METZLER),
    ])
    def test_at_most_2x2_every_restart_succeeds(self, A, mode):
        # already upper Hessenberg, so the first start, e_1, succeeds on its
        # first full frame (n nodes deep) and ends the search; at n = 1 the
        # membership test has no off-diagonal entry in Metzler mode and must
        # score 0, not raise
        A = np.array(A)
        report = altproj_hess(A, mode, small_cfg(1))
        assert report.attempts == report.successes == 1
        assert report.logs == (search.RestartLog(0, len(A), 0.0, True),)
        assert report.best_violation == 0.0
        assert verify_certificate(A, report.best_certificate, tol=1e-8)

    def test_heuristic_gap_covered_by_exact_construction(self, rng):
        # when the starved heuristic fails at the characterised dimensions,
        # the exact construction must still succeed
        from hessform import metzler_hess_3, metzler_hess_4

        for trial in range(12):
            n = 3 if trial % 2 else 4
            A = random_metzler(rng, n)
            report = altproj_hess(
                A, Mode.METZLER,
                AltProjConfig(seed=trial, restarts=1, max_iters=12))
            if report.successes:
                assert verify_certificate(A, report.best_certificate, tol=1e-8)
            else:
                assert report.best_certificate is None
                exact = metzler_hess_3(A) if n == 3 else metzler_hess_4(A)
                assert verify_certificate(A, exact, tol=1e-8)


BUDGET = dict(restarts=4, max_iters=200)  # random_experiment's


@pytest.fixture
def frame_calls(monkeypatch):
    """The calls of ``search._next_columns``, the vertex search's step."""
    calls = []
    next_columns = search._next_columns
    monkeypatch.setattr(search, "_next_columns",
                        lambda *args: calls.append(args) or next_columns(*args))
    return calls


class TestKrylovFrameSearch:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    @pytest.mark.parametrize("generator", [Generator.DENSE_UNIFORM,
                                           Generator.SPARSE_PATTERN])
    def test_every_permutable_draw_is_certified(self, n, mode, generator, frame_calls):
        # the permutation step answers these before any vertex search, as one
        # successful start of n nodes: the axis-only frame
        draws = [sample_matrix(n, mode, generator, np.random.default_rng([61, n, i]))
                 for i in range(30)]
        permutable = [A for A in draws if permutation_to_hessenberg(A) is not None]
        assert len(permutable) >= 8
        for i, A in enumerate(permutable):
            report = altproj_hess(A, mode, AltProjConfig(seed=i, **BUDGET))
            assert report.attempts == report.successes == 1
            assert report.logs == (search.RestartLog(0, n, report.best_violation, True),)
            cert = report.best_certificate
            P = permutation_to_hessenberg(_unit_scale(A, mode)[0], 0.0)
            assert cert.T.tobytes() == P.tobytes()
            assert verify_certificate(A, cert, tol=RESIDUAL_BOUND) and np.min(cert.T) >= 0.0
        assert frame_calls == []

    def test_permutable_benchmark_draw_gets_its_permutation(self):
        # instance 1726 of the heuristic benchmark (seed 1) is permutable, and
        # its certificate's T is the permutation itself, every entry 0 or 1
        A = sample_matrix(5, Mode.METZLER, Generator.DENSE_UNIFORM,
                          np.random.default_rng([1, 3, 1726]))
        assert permutation_to_hessenberg(A) is not None
        report = altproj_hess(A, Mode.METZLER, AltProjConfig(seed=0, **BUDGET))
        assert report.successes == 1
        T = report.best_certificate.T
        assert set(np.unique(T)) == {0.0, 1.0}
        np.testing.assert_array_equal(T.sum(axis=0), 1.0)
        np.testing.assert_array_equal(T.sum(axis=1), 1.0)
        assert verify_certificate(A, report.best_certificate, tol=1e-8)

    @pytest.mark.parametrize("generator", [Generator.DENSE_UNIFORM,
                                           Generator.SPARSE_PATTERN])
    def test_3x3_verdicts_are_those_of_the_exact_construction(self, generator):
        # off the rank-one-minus-shift family every 3x3 nonnegative matrix
        # has a certificate (nonneg_hess_3), and the search finds one
        for i in range(60):
            A = sample_matrix(3, Mode.NONNEG, generator, np.random.default_rng([62, i]))
            assert isinstance(nonneg_hess_3(A), SimilarityCertificate)
            report = altproj_hess(A, Mode.NONNEG, AltProjConfig(seed=i, **BUDGET))
            assert report.successes == 1
            assert verify_certificate(A, report.best_certificate, tol=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rank_one_shift_family_is_never_certified(self, n):
        # the family is obstructed in every dimension n >= 3
        for i in range(15):
            A = sample_matrix(n, Mode.NONNEG, Generator.PROP1_FAMILY,
                              np.random.default_rng([63, n, i]))
            assert rank_one_shift_detect(A) is not None
            report = altproj_hess(A, Mode.NONNEG, AltProjConfig(seed=i, **BUDGET))
            assert report.successes == 0 and report.best_certificate is None
            assert report.attempts == len(report.logs) == n + n + BUDGET["restarts"]
            assert all(log.iterations <= BUDGET["max_iters"] for log in report.logs)

    @pytest.mark.parametrize("n, mode, draw", [
        (4, Mode.METZLER, 0), (5, Mode.METZLER, 2),
        (5, Mode.NONNEG, 0), (5, Mode.NONNEG, 5),
    ])
    def test_search_is_shift_and_scale_invariant(self, n, mode, draw):
        # The search runs on A1 = A / ||A||_inf, shifted to a zero least
        # diagonal in Metzler mode, so A -> cA and, where the diagonal has a
        # negative entry, A -> A - sI change A1 only by round-off; a factor
        # 2^k leaves it bit for bit.
        A = sample_matrix(n, mode, Generator.DENSE_UNIFORM, np.random.default_rng([7, draw]))
        cfg = AltProjConfig(seed=draw, **BUDGET)
        base = altproj_hess(A, mode, cfg)
        assert base.successes == 1
        assert _report_bits(altproj_hess(2.0**-30 * A, mode, cfg))[:4] == _report_bits(base)[:4]
        shifted = [A - s * np.eye(n) for s in (0.5, 3.7, 11.0)] if mode is Mode.METZLER else []
        for B in [c * A for c in (1e-7, 3.7, 1e9)] + shifted:
            report = altproj_hess(B, mode, cfg)
            assert [(log.restart, log.iterations, log.success) for log in report.logs] == \
                [(log.restart, log.iterations, log.success) for log in base.logs]
            np.testing.assert_allclose(report.best_certificate.T, base.best_certificate.T,
                                       rtol=0.0, atol=1e-12)

    def test_unsolved_draw_exhausts_every_start(self):
        # instance 292 of the heuristic benchmark (seed 1): no start leads to
        # a frame, and each start's tree ends within the node budget
        A = sample_matrix(5, Mode.METZLER, Generator.DENSE_UNIFORM,
                          np.random.default_rng([1, 3, 292]))
        report = altproj_hess(A, Mode.METZLER, AltProjConfig(seed=1, **BUDGET))
        assert report.successes == 0 and report.best_certificate is None
        assert report.attempts == len(report.logs) == 5 + 5 + BUDGET["restarts"]
        assert [log.restart for log in report.logs] == list(range(report.attempts))
        assert all(log.iterations < BUDGET["max_iters"] for log in report.logs)
        assert 0.0 < report.best_violation == min(log.final_violation for log in report.logs)

    @pytest.mark.parametrize("mode", [Mode.METZLER, Mode.NONNEG])
    def test_largest_dimension_does_bounded_work(self, mode, monkeypatch):
        # at n = MAX_DIM a frame has up to C(31, 15) = 3e8 active sets; each
        # node solves at most max_iters of them, so a call at the CLI's
        # default budget ends with a report and little memory
        solve, batches = np.linalg.solve, []

        def spy(a, b):
            batches.append(a.shape[0] if a.ndim == 3 else 1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        n, cfg = MAX_DIM, AltProjConfig(seed=1)
        A = sample_matrix(n, mode, Generator.DENSE_UNIFORM, np.random.default_rng([5, n]))
        tracemalloc.start()
        try:
            report = altproj_hess(A, mode, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert batches and max(batches) <= cfg.max_iters
        assert report.attempts <= 2 * n + cfg.restarts
        assert all(log.iterations <= cfg.max_iters for log in report.logs)
        if report.successes:
            assert verify_certificate(A, report.best_certificate, tol=1e-8)



class TestPermutationFirst:
    """A permutation is decided exactly before the vertex search."""

    @pytest.mark.parametrize("n, mode", [(5, Mode.METZLER), (4, Mode.NONNEG)])
    @pytest.mark.parametrize("generator", [Generator.DENSE_UNIFORM,
                                           Generator.SPARSE_PATTERN])
    def test_experiment_runs_no_vertex_search_on_permutable_draws(
            self, n, mode, generator, frame_calls):
        # random_experiment draws trial 0 of a seed from [seed, 0]
        draws = {seed: sample_matrix(n, mode, generator, np.random.default_rng([seed, 0]))
                 for seed in range(60)}
        permutable = [seed for seed, A in draws.items()
                      if permutation_to_hessenberg(A) is not None]
        assert len(permutable) >= 5
        for seed in permutable[:5]:
            report = random_experiment(n, 1, seed, mode, generator)
            assert report.successes == 1
            assert verify_certificate(draws[seed], report.best_certificate, tol=RESIDUAL_BOUND)
        assert frame_calls == []
        # a dense draw with no permutation reaches the vertex search, so the
        # spy sees it
        seed = next(seed for seed in range(60) if permutation_to_hessenberg(sample_matrix(
            n, mode, Generator.DENSE_UNIFORM, np.random.default_rng([seed, 0]))) is None)
        random_experiment(n, 1, seed, mode, Generator.DENSE_UNIFORM)
        assert frame_calls

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    def test_invariant_under_permutation_similarity(self, n, mode):
        rng = np.random.default_rng([65, n])
        draws = [sample_matrix(n, mode, Generator.DENSE_UNIFORM, rng) for _ in range(20)]
        permutable = [A for A in draws if permutation_to_hessenberg(A) is not None]
        assert len(permutable) >= 4
        for i, A in enumerate(permutable):
            for _ in range(4):
                q = rng.permutation(n)
                B = A[np.ix_(q, q)]  # Q^T A Q for the permutation matrix Q of q
                report = altproj_hess(B, mode, AltProjConfig(seed=i, **BUDGET))
                assert report.successes == 1
                cert = report.best_certificate
                assert verify_certificate(B, cert, tol=RESIDUAL_BOUND)
                assert np.min(cert.T) >= 0.0


def _reference_next_columns(A1, T, mode, t, breadth):
    """``search._next_columns`` with its index sets rebuilt in Python on every
    call and its rows deduplicated by ``np.unique``: the reference the kept
    tables and the one-pass dedupe must match bit for bit."""
    n, k = T.shape
    floor = k - (mode is Mode.METZLER)
    rows = np.vstack([T, -np.eye(k)[:floor]])
    b = A1 @ T[:, -1]
    rhs = np.concatenate([b, np.zeros(floor)])
    support = np.flatnonzero(T.any(axis=1)).tolist()
    sets = (I + J for m in range(max(0, k - len(support)), floor + 1)
            for J in itertools.combinations(range(n, n + floor), m)
            for I in itertools.combinations(support, k - m))
    active = np.array(sorted(itertools.islice(sets, breadth)))
    S = rows[active]
    regular = np.abs(np.linalg.det(S)) > 1e-12 * np.prod(np.linalg.norm(S, axis=2), axis=1)
    h = np.linalg.solve(S[regular], rhs[active[regular]][:, :, None])[:, :, 0]
    h = h[np.all(h @ rows.T <= rhs + t, axis=1)]
    r = b - h @ T.T
    r[r <= t] = 0.0
    r = r[np.sort(np.unique(r, axis=0, return_index=True)[1])]
    r = r[np.argsort(np.count_nonzero(r, axis=1), kind="stable")]
    if len(r) and not r[0].any():
        r = np.vstack([np.eye(n), r[1:]])
    C = r / r.sum(axis=1, keepdims=True)
    Q = np.linalg.qr(T)[0]
    off_span = np.linalg.norm(C - C @ Q @ Q.T, axis=1)
    return C[off_span > 1e-8 * np.linalg.norm(C, axis=1)]


def _basis(T):
    """The orthonormal basis of span ``T`` that the search carries down the
    tree to the frame ``T``, one column per level."""
    return functools.reduce(search._extended, T.T, np.empty((T.shape[0], 0)))


def _reference_violation(A1, T, mode):
    """How far the last column of ``T^{-1} A1 T`` is from ``>= 0``, the full
    frame ``T`` solved alone."""
    n = T.shape[0]
    h = np.linalg.solve(T, A1 @ T[:, -1])
    return max(0.0, -float(np.min(h[:n - (mode is Mode.METZLER)], initial=0.0)))


def _reference_certified(A, T, mode):
    try:
        cert = make_certificate(A, T, mode)
    except InputError:
        return None
    return cert if verify_certificate(A, cert, tol=RESIDUAL_BOUND) else None


def _reference_search(A, mode, cfg):
    """``altproj_hess`` as a plain depth-first search: every full frame is
    stacked, popped as a leaf and solved alone, every node's children come
    from :func:`_reference_next_columns` with a fresh QR, and every
    certificate from the public ``make_certificate`` and
    ``verify_certificate``."""
    A = np.asarray(A, dtype=float)
    A1, _, t = _snap(A, None)
    n = A.shape[0]
    if np.min(A1 if mode is Mode.NONNEG else A1[~np.eye(n, dtype=bool)]) < 0:
        raise InputError(f"{mode.value} mode requires a sign-feasible matrix")
    A = np.where(A1 == 0.0, 0.0, A)
    if mode is Mode.METZLER:
        A1 = A1 + max(0.0, -float(np.min(np.diag(A1)))) * np.eye(n)
    P = permutation_to_hessenberg(A1, 0.0)
    cert = None if P is None else _reference_certified(A, P, mode)
    if cert is not None:
        v = _reference_violation(A1, P, mode)
        return search.SearchReport(1, 1, cert, v, (search.RestartLog(0, n, v, True),))
    logs = []
    for start, t1 in enumerate(search._starts(A1, cfg)):
        stack, nodes, least = [t1[:, None]], 0, np.inf
        while stack and nodes < cfg.max_iters and cert is None:
            T = stack.pop()
            nodes += 1
            if T.shape[1] < n:
                children = _reference_next_columns(A1, T, mode, t, cfg.max_iters)
                stack.extend(np.column_stack([T, c]) for c in children[::-1])
                continue
            v = _reference_violation(A1, T, mode)
            least = min(least, v)
            if v <= RESIDUAL_BOUND:
                cert = _reference_certified(A, T, mode)
        logs.append(search.RestartLog(start, nodes, least, cert is not None))
        if cert is not None:
            break
    return search.SearchReport(len(logs), int(cert is not None), cert,
                               min(log.final_violation for log in logs), tuple(logs))


def _every_bit(report):
    """:func:`_report_bits` with every other certificate field, as bits."""
    cert = report.best_certificate
    return _report_bits(report), None if cert is None else (
        cert.T_inv.tobytes(), cert.residual_similarity.hex(), cert.min_entry_T.hex(),
        cert.hessenberg_violation.hex(), cert.sign_violation.hex(), cert.mode,
        cert.cond_T.hex())


def _unit_scale(A, mode):
    """``(A1, t)`` as ``altproj_hess`` builds them: the snapped unit-scale
    input, shifted to nonnegative in Metzler mode (exactly, since the snap
    leaves no negative off-diagonal entry), and the rounding threshold."""
    A1, _, t = _snap(A, None)
    if mode is Mode.METZLER:
        A1 = A1 + max(0.0, -float(np.min(np.diag(A1)))) * np.eye(len(A1))
        assert np.min(A1) >= 0.0
    return A1, t


def _heuristic_instance(seed, i):
    """Instance ``i`` of the ``heuristic`` benchmark, rebuilt here: n = 4
    Metzler, n = 5 Metzler and n = 5 nonneg in turn, at random_experiment's
    budget."""
    rng = np.random.default_rng([seed, 3, i])
    n, mode = ((4, Mode.METZLER), (5, Mode.METZLER), (5, Mode.NONNEG))[i % 3]
    A = sample_matrix(n, mode, Generator.DENSE_UNIFORM, rng)
    return A, mode, AltProjConfig(seed=int(rng.integers(2**31)), restarts=4, max_iters=200)


def _digest(reports):
    h = hashlib.sha256()
    for report in reports:
        h.update(repr(_report_bits(report)).encode())
    return h.hexdigest()


class TestFrameBookkeeping:
    """The kept index tables, the one-pass dedupe and the lazy frames and
    starts change no arithmetic: every candidate and report is bit-identical
    to the uncached search."""

    @staticmethod
    def _assert_same(A1, T, mode, t, breadth):
        # the carried basis filters the candidates as a fresh QR of T does
        want = _reference_next_columns(A1, T, mode, t, breadth)
        for _ in range(2):  # a new table, then the kept one
            got = search._next_columns(A1, T, _basis(T), mode, t, breadth)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return want

    def test_frame_without_a_candidate_runs_no_off_span_norms(self, monkeypatch):
        """At a budget of one active set its vertex is infeasible, so the frame
        has no candidate and only the row norms of its sets run, not the two
        off-span norms; at three sets one candidate runs them."""
        A1 = np.array([[0.75, 0.25, 0.75], [0.0, 0.625, 0.8125], [0.0, 0.0, 0.0]])
        T = np.array([[0.0, 0.5], [0.0, 0.5], [1.0, 0.0]])
        self._assert_same(A1, T, Mode.METZLER, 1e-9, 1)
        Q, norm, calls = _basis(T), np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
        assert search._next_columns(A1, T, Q, Mode.METZLER, 1e-9, 1).shape == (0, 3)
        assert len(calls) == 1
        assert search._next_columns(A1, T, Q, Mode.METZLER, 1e-9, 3).shape == (1, 3)
        assert len(calls) == 1 + 3

    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    def test_search_equals_the_plain_depth_first_search(self, mode):
        """Stacked leaf solves, the carried basis and the certificate core
        give, field for field, the reports of the depth-first search that
        pops each full frame and solves it alone; budgets of 5 and 17 nodes
        cut a start inside the leaves of a frame."""
        cut = solved = unsolved = 0
        for n in range(2, 8):
            for i in range(5):
                generator = (Generator.DENSE_UNIFORM, Generator.SPARSE_PATTERN)[i % 2]
                A = sample_matrix(n, mode, generator, np.random.default_rng([75, n, i]))
                for max_iters in (5, 17, 60):
                    cfg = AltProjConfig(seed=i, restarts=2, max_iters=max_iters)
                    got = altproj_hess(A, mode, cfg)
                    assert _every_bit(got) == _every_bit(_reference_search(A, mode, cfg))
                    cut += any(log.iterations == max_iters for log in got.logs)
                    solved += got.successes
                    unsolved += not got.successes
        assert cut >= 10 and solved >= 60 and unsolved >= 5

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    @pytest.mark.parametrize("breadth", [10, 126, 400])
    def test_candidates_match_the_uncached_enumeration(self, n, mode, breadth):
        # random walks down the search tree, from an axis and from a
        # Dirichlet column, on a dense and a sparse draw; the sparse one
        # gives frames whose support misses rows
        rng = np.random.default_rng([71, n, breadth])
        frames = partial = 0
        for generator in (Generator.DENSE_UNIFORM, Generator.SPARSE_PATTERN):
            A1, t = _unit_scale(sample_matrix(n, mode, generator, rng), mode)
            for t1 in (np.eye(n)[rng.integers(n)], rng.dirichlet(np.full(n, 0.5))):
                T = t1[:, None]
                while T.shape[1] < n:
                    children = self._assert_same(A1, T, mode, t, breadth)
                    frames += 1
                    partial += not T.any(axis=1).all()
                    if not len(children):
                        break
                    T = np.column_stack([T, children[rng.integers(len(children))]])
        assert frames >= 4 and partial >= 1

    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    def test_invariant_frame_offers_every_axis(self, mode):
        # span(e0, e1) is invariant, so r = 0 and the children are the axes
        # off the span, then the other vertices
        n = 6
        A = sample_matrix(n, mode, Generator.DENSE_UNIFORM, np.random.default_rng(72))
        A[2:, :2] = 0.0
        A1, t = _unit_scale(A, mode)
        children = self._assert_same(A1, np.eye(n)[:, :2], mode, t, 400)
        np.testing.assert_array_equal(children[:n - 2], np.eye(n)[2:])

    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    def test_breadth_below_the_number_of_sets(self, mode):
        # at n = 8, k = 4 the fewest-bound-rows level alone has C(8, 4) = 70
        # sets, so a breadth of 10 keeps its lexicographically first ten
        n, k, breadth = 8, 4, 10
        rng = np.random.default_rng(73)
        A1, t = _unit_scale(sample_matrix(n, mode, Generator.DENSE_UNIFORM, rng), mode)
        T = rng.dirichlet(np.full(n, 0.5), k).T
        floor = k - (mode is Mode.METZLER)
        active = search._active_sets(n, k, floor, tuple(range(n)), breadth)
        assert math.comb(n, k) > len(active) == breadth
        assert not active.flags.writeable
        np.testing.assert_array_equal(active, list(itertools.combinations(range(n), k))[:breadth])
        self._assert_same(A1, T, mode, t, breadth)

    def test_memo_stays_within_its_bound(self):
        # sparse frames at n = MAX_DIM have many supports; the memo evicts
        # instead of growing with them
        search._active_sets.cache_clear()
        for i in range(6):
            for mode in (Mode.METZLER, Mode.NONNEG):
                A = sample_matrix(MAX_DIM, mode, Generator.SPARSE_PATTERN,
                                  np.random.default_rng([74, i]))
                altproj_hess(A, mode, AltProjConfig(seed=i, restarts=1, max_iters=40))
        info = search._active_sets.cache_info()
        assert info.maxsize == search._ACTIVE_SET_MEMO
        assert info.misses > info.maxsize >= info.currsize

    def test_heuristic_reports_are_pinned(self):
        # _report_bits of the heuristic benchmark's first 300 seed-1 instances.
        # The 144 with no permutation get the reports of the search before the
        # permutation step, bit for bit; the other 156 get the permutation.
        instances = [_heuristic_instance(1, i) for i in range(300)]
        reports = [altproj_hess(*instance) for instance in instances]
        assert _digest(reports) == \
            "3e058e50e70c1fd11eff6dbd8f96508502b8b81c1b7b9d0ef3f7e4a00188981c"
        searched = [report for (A, _, _), report in zip(instances, reports)
                    if permutation_to_hessenberg(A) is None]
        assert len(searched) == 144
        assert _digest(searched) == \
            "adb70ad733a7df3ebcbf6153ed275f4db8b4058ad46b9d73c1199c5d52825b13"

    def test_acceptance_agrees_with_the_rederived_check(self, monkeypatch):
        """Every frame the search passes to ``_accepted``, the permutation's
        too, over the first 300 seed-1 heuristic instances, gets the same
        decision from ``verify_certificate`` at RESIDUAL_BOUND, which
        re-derives ``T^{-1}`` and ``H``: the certificate's own predicate is
        the one check the search needs."""
        frames = []

        def spy(A, T, mode, s):
            cert = accepted(A, T, mode, s)
            frames.append((A, T, mode, cert))
            return cert

        accepted = search._accepted
        monkeypatch.setattr(search, "_accepted", spy)
        monkeypatch.setattr(transforms, "_accepted", spy)
        for i in range(300):
            altproj_hess(*_heuristic_instance(1, i))
        assert len(frames) >= 290
        for A, T, mode, cert in frames:
            try:
                want = verify_certificate(A, make_certificate(A, T, mode), RESIDUAL_BOUND)
            except InputError:  # T singular beyond the conditioning bound
                want = False
            assert (cert is not None) == want

    def test_dirichlet_generator_is_built_only_when_needed(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def spy(*args, **kw):
            built.append(args)
            return default_rng(*args, **kw)

        # 1726 is certified by its permutation, 292 tries every start; both
        # are instances of the heuristic benchmark (seed 1)
        axis_draw = sample_matrix(5, Mode.METZLER, Generator.DENSE_UNIFORM,
                                  np.random.default_rng([1, 3, 1726]))
        A, mode, cfg = _heuristic_instance(1, 292)
        monkeypatch.setattr(search.np.random, "default_rng", spy)
        report = altproj_hess(axis_draw, Mode.METZLER, AltProjConfig(seed=0, **BUDGET))
        assert report.successes == 1 and report.logs[-1].restart < 5
        assert built == []
        # one generator for 292, and the report of the uncached search
        report = altproj_hess(A, mode, cfg)
        assert report.successes == 0 and report.attempts == 5 + 5 + cfg.restarts
        assert built == [(cfg.seed,)]
        assert _digest([report]) == \
            "a288898c0caf2b1220973c0c412ef1c6147e7c0ea34e5bea142371584afaf1a7"


class TestModeStrings:
    """A mode given as its string selects the same sign rule as the enum."""

    @pytest.mark.parametrize("generator", list(Generator))
    def test_sample_matrix(self, generator):
        for i in range(20):
            for mode in Mode:
                want = sample_matrix(3, mode, generator, np.random.default_rng([45, i]))
                got = sample_matrix(3, mode.value, generator, np.random.default_rng([45, i]))
                np.testing.assert_array_equal(got, want)
        assert np.min(sample_matrix(3, "nonneg", Generator.DENSE_UNIFORM,
                                    np.random.default_rng([45, 0]))) >= 0.0

    def test_exact_hessenberg(self):
        for i in range(20):
            A = random_metzler(np.random.default_rng([46, i]), 3)
            cert = search.exact_hessenberg(A, "metzler")
            assert cert.mode is Mode.METZLER
            np.testing.assert_array_equal(cert.T, metzler_hess_3(A).T)


class TestSampleMatrix:
    def test_dense_uniform_metzler(self, rng):
        A = sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM, rng)
        off = ~np.eye(4, dtype=bool)
        assert np.min(A[off]) >= 0.0

    def test_dense_uniform_nonneg(self, rng):
        A = sample_matrix(4, Mode.NONNEG, Generator.DENSE_UNIFORM, rng)
        assert np.min(A) >= 0.0

    def test_sparse_pattern_has_zeros(self, rng):
        A = sample_matrix(5, Mode.NONNEG, Generator.SPARSE_PATTERN, rng)
        off = ~np.eye(5, dtype=bool)
        assert np.count_nonzero(A[off] == 0.0) > 0

    def test_family_generator_is_member(self, rng):
        from hessform import rank_one_shift_detect

        hits = 0
        for _ in range(20):
            A = sample_matrix(3, Mode.NONNEG, Generator.PROP1_FAMILY, rng)
            assert np.min(A) >= 0.0
            if rank_one_shift_detect(A) is not None:
                hits += 1
        assert hits >= 18  # draws with s ~ 0 may legitimately escape


class TestRandomExperiment:
    def test_metzler_3_total(self):
        report = random_experiment(3, 25, 2024, Mode.METZLER,
                                   Generator.DENSE_UNIFORM)
        assert report.attempts == 25
        assert report.successes == 25
        assert report.best_certificate is not None

    def test_metzler_4_total(self):
        report = random_experiment(4, 15, 77, Mode.METZLER,
                                   Generator.SPARSE_PATTERN)
        assert report.successes == 15

    def test_family_nonneg_all_infeasible(self):
        report = random_experiment(3, 25, 99, Mode.NONNEG,
                                   Generator.PROP1_FAMILY)
        assert report.successes == 0

    def test_family_nonneg_2_is_already_hessenberg(self):
        # the obstruction starts at n = 3; a 2x2 draw has the identity certificate
        report = random_experiment(2, 5, 1, Mode.NONNEG, Generator.PROP1_FAMILY)
        assert report.successes == report.attempts == 5

    def test_determinism(self):
        r1 = random_experiment(3, 8, 11, Mode.METZLER, Generator.DENSE_UNIFORM)
        r2 = random_experiment(3, 8, 11, Mode.METZLER, Generator.DENSE_UNIFORM)
        assert search_report_to_json(r1) == search_report_to_json(r2)

    def test_adjacent_seeds_do_not_share_restart_streams(self, monkeypatch):
        seeds = {}

        def record(A, mode, cfg):
            seeds.setdefault(experiment, []).append(cfg.seed)
            return search.SearchReport(cfg.restarts, 0, None, np.inf)

        monkeypatch.setattr(search, "altproj_hess", record)
        for experiment in (3, 4):
            random_experiment(5, 4, experiment, Mode.METZLER,
                              Generator.DENSE_UNIFORM)
        assert len(seeds[3]) == len(seeds[4]) == 4
        assert not set(seeds[3]) & set(seeds[4])

    def test_nonneg_5_runs_heuristic(self):
        report = random_experiment(5, 2, 3, Mode.METZLER,
                                   Generator.DENSE_UNIFORM)
        assert report.attempts == 2
        assert len(report.logs) == 2

    def test_csv_shape(self):
        report = random_experiment(3, 4, 1, Mode.METZLER, Generator.DENSE_UNIFORM)
        lines = search_report_csv(report).strip().splitlines()
        assert lines[0] == "restart,iterations,final_violation,success"
        assert len(lines) == 5
