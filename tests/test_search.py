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
    nonneg_hess_3,
    random_experiment,
    rank_one_shift_detect,
    verify_certificate,
)
from hessform import search
from hessform.formats import search_report_csv, search_report_to_json
from hessform.linalg import MAX_DIM, permutation_to_hessenberg
from hessform.search import sample_matrix

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


class TestKrylovFrameSearch:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("mode", [Mode.NONNEG, Mode.METZLER])
    @pytest.mark.parametrize("generator", [Generator.DENSE_UNIFORM,
                                           Generator.SPARSE_PATTERN])
    def test_every_permutable_draw_is_certified(self, n, mode, generator):
        # a permutation frame is the search from an axis, each column of H
        # the sparsest vertex of its step
        draws = [sample_matrix(n, mode, generator, np.random.default_rng([61, n, i]))
                 for i in range(30)]
        permutable = [A for A in draws if permutation_to_hessenberg(A) is not None]
        assert len(permutable) >= 8
        for i, A in enumerate(permutable):
            report = altproj_hess(A, mode, AltProjConfig(seed=i, **BUDGET))
            assert report.successes == 1
            cert = report.best_certificate
            assert verify_certificate(A, cert, tol=1e-8) and np.min(cert.T) >= 0.0

    def test_permutable_benchmark_draw_gets_its_permutation(self):
        # instance 1726 of the heuristic benchmark (seed 1) is permutable; the
        # frame found from an axis start is the permutation itself, every
        # entry an exact 0 or 1 since r is snapped at the zero threshold
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
