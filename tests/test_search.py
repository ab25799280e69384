import numpy as np
import pytest

from hessform import (
    AltProjConfig,
    Generator,
    InputError,
    Mode,
    altproj_hess,
    random_experiment,
    verify_certificate,
)
from hessform import search
from hessform.formats import search_report_csv, search_report_to_json
from hessform.linalg import inf_norm
from hessform.search import sample_matrix
from hessform.transforms import RESIDUAL_BOUND

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
        # nonneg clips the diagonal of H as well
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
        # metzler_hess_4 is total, so all 40 draws are feasible.  At the
        # random_experiment budget the search certifies 15 of them with the
        # Gram-matrix refit (14 with the SVD refit); the floor leaves room
        # for round-off in other BLAS builds, since failing restarts are
        # chaotic.
        hits = 0
        for draw in range(40):
            A = sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM,
                              np.random.default_rng([41, draw]))
            report = altproj_hess(A, Mode.METZLER,
                                  AltProjConfig(seed=draw, restarts=4, max_iters=200))
            if report.successes:
                hits += 1
                assert verify_certificate(A, report.best_certificate, tol=1e-8)
        assert hits >= 12

    def test_restarts_do_not_depend_on_their_stack(self):
        # restarts=11 runs a full lockstep block and then three restarts;
        # restarts=3 runs its three alone
        assert 3 < search.LOCKSTEP_BLOCK < 11
        A = sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM,
                          np.random.default_rng([5, 0]))
        few = altproj_hess(A, Mode.METZLER, small_cfg(0, restarts=3, max_iters=100))
        many = altproj_hess(A, Mode.METZLER, small_cfg(0, restarts=11, max_iters=100))
        assert 1 <= few.successes < many.successes
        assert _report_bits(few)[3] == _report_bits(many)[3][:3]
        assert _report_bits(few)[4] == _report_bits(many)[4]

    @pytest.mark.parametrize("A, mode", [
        ([[2.0]], Mode.NONNEG),
        ([[-2.0]], Mode.METZLER),
        ([[1.0, 2.0], [3.0, 0.5]], Mode.NONNEG),
        ([[-1.0, 2.0], [3.0, -4.0]], Mode.METZLER),
    ])
    def test_at_most_2x2_every_restart_succeeds(self, A, mode):
        # already upper Hessenberg; at n = 1 both masks of the structure
        # violation are empty and must score 0, not raise
        A = np.array(A)
        cfg = small_cfg(1)
        report = altproj_hess(A, mode, cfg)
        assert report.successes == report.attempts
        assert report.best_violation == 0.0
        assert verify_certificate(A, report.best_certificate, tol=1e-8)
        # a restart whose start already scores within the bound takes no step;
        # at n = 1 every start does
        n = A.shape[0]
        for log in report.logs:
            T = np.eye(n) + np.random.default_rng([cfg.seed, log.restart]).uniform(
                0.0, 1.0, (n, n))
            at_start = n == 1 or _oracle_violation(A, T, mode)[0] <= RESIDUAL_BOUND
            assert (log.iterations == 0) is at_start
        assert any(log.iterations == 0 for log in report.logs)

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


# The alternation written out plainly, one restart after the other: M =
# I (x) A - H^T (x) I built by np.kron on every iteration, masks and scale
# rebuilt on every call, and H taken from the exact solve of the previous
# violation check.  The search hoists all of these out of its loop and runs
# its restarts in lockstep on stacked arrays; its reports must stay equal bit
# for bit.

def _oracle_clip(H, mode, diag_floor):
    n = H.shape[0]
    out = H.copy()
    out[np.tril_indices(n, k=-2)] = 0.0
    off = ~np.eye(n, dtype=bool)
    out[off] = np.maximum(out[off], 0.0)
    if mode is Mode.NONNEG:
        d = np.diag(out).copy()
        np.fill_diagonal(out, np.maximum(d, -diag_floor))
    return out


def _oracle_violation(A, T, mode):
    """(violation, H = T^-1 A T), or (inf, None) for a singular T."""
    svals = np.linalg.svd(T, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        return np.inf, None
    H = np.linalg.solve(T, A @ T)
    n = H.shape[0]
    viol = 0.0
    if n > 2:
        viol = float(np.max(np.abs(H[np.tril_indices(n, k=-2)])))
    off = ~np.eye(n, dtype=bool)
    viol = max(viol, float(-min(0.0, np.min(H[off]))))
    if mode is Mode.NONNEG:
        viol = max(viol, float(-min(0.0, np.min(np.diag(H)))))
    return viol / max(1.0, inf_norm(A)), H


def _oracle_step(T, H, A, mode, shift=0.0):
    """One alternation on A - shift I from the fit H (None: fit by lstsq);
    the nonneg diagonal floor -shift keeps diag(H) >= 0 for the unshifted A."""
    n = T.shape[0]
    A_work = A - shift * np.eye(n)
    if H is None:
        H = np.linalg.lstsq(T, A_work @ T, rcond=None)[0]
    H = _oracle_clip(H, mode, shift)
    M = np.kron(np.eye(n), A_work) - np.kron(H.T, np.eye(n))
    T_new = np.linalg.eigh(M.T @ M)[1][:, 0].reshape((n, n), order="F")
    T_new = np.maximum(-T_new if np.sum(T_new) < 0 else T_new, 0.0)
    colsums = np.sum(T_new, axis=0)
    dead = colsums <= 1e-12
    if np.any(dead):
        T_new[:, dead] += np.eye(n)[:, dead]
        colsums = np.sum(T_new, axis=0)
    return T_new / colsums


def _oracle_restart(A, mode, cfg, rng):
    n = A.shape[0]
    T = np.eye(n) + rng.uniform(0.0, 1.0, size=(n, n))
    best_v, H = _oracle_violation(A, T, mode)
    best_T = T.copy()
    iters = 0
    if best_v <= RESIDUAL_BOUND:
        return best_T, best_v, iters
    for it in range(cfg.max_iters):
        iters = it + 1
        T_new = _oracle_step(T, H, A, mode)
        v, H = _oracle_violation(A, T_new, mode)
        if v < best_v:
            best_T, best_v = T_new.copy(), v
            if v <= RESIDUAL_BOUND:
                break
        stop = inf_norm(T_new - T) <= search.STEP_TOLERANCE * max(1.0, inf_norm(T))
        T = T_new
        if stop:
            break
    return best_T, best_v, iters


def _oracle_restarts(A, mode, cfg):
    """The restarts one after the other, each on its own stream (seed, r)."""
    runs = [_oracle_restart(A, mode, cfg, np.random.default_rng([cfg.seed, r]))
            for r in range(cfg.restarts)]
    best_T, best_v, iters = zip(*runs)
    return np.array(best_T), np.array(best_v), np.array(iters)


class TestAltprojOracle:
    # A success and a failure in each mode.  In the last search the restarts
    # end in three ways within one stack: at max_iters (100), by a stall (43)
    # and by a success (9).
    ITERATIONS = {(4, Mode.NONNEG, 5): [100, 100, 43, 9]}

    @pytest.mark.parametrize("n, mode, draw, succeeds", [
        (4, Mode.METZLER, 0, True),
        (5, Mode.METZLER, 1, False),
        (4, Mode.NONNEG, 0, True),
        (5, Mode.NONNEG, 0, False),
        (4, Mode.NONNEG, 5, True),
    ])
    def test_report_matches_the_kron_formulation(self, monkeypatch, n, mode, draw,
                                                 succeeds):
        A = sample_matrix(n, mode, Generator.DENSE_UNIFORM,
                          np.random.default_rng([5, draw]))
        cfg = AltProjConfig(seed=draw, restarts=4, max_iters=100)
        got = altproj_hess(A, mode, cfg)
        monkeypatch.setattr(search, "_restarts", _oracle_restarts)
        want = altproj_hess(A, mode, cfg)
        assert _report_bits(got) == _report_bits(want)
        assert (got.successes > 0) is succeeds
        if (n, mode, draw) in self.ITERATIONS:
            assert [log.iterations for log in got.logs] == self.ITERATIONS[n, mode, draw]
            assert [log.success for log in got.logs] == [False, False, False, True]
            assert got.logs[2].final_violation > RESIDUAL_BOUND

    @pytest.mark.parametrize("n, mode, draw", [
        (4, Mode.METZLER, 0), (5, Mode.METZLER, 2),
        (5, Mode.NONNEG, 0), (5, Mode.NONNEG, 5),
    ])
    def test_alternation_is_shift_invariant(self, n, mode, draw):
        # The fit on A - sI is H - sI, the nonneg diagonal floor -s on it is
        # diag(H) >= 0, and M is unchanged, so a step on A - sI (lstsq fit)
        # is the step on A (H from the exact solve) up to round-off.  The
        # smallest singular value of M must be simple for its vector to be
        # determined: where it is double the two steps differ by O(1).
        A = sample_matrix(n, mode, Generator.DENSE_UNIFORM,
                          np.random.default_rng([7, draw]))
        T = np.eye(n) + np.random.default_rng([8, draw]).uniform(0.0, 1.0, (n, n))
        H = np.linalg.solve(T, A @ T)
        M = np.kron(np.eye(n), A) - np.kron(_oracle_clip(H, mode, 0.0).T, np.eye(n))
        svals = np.linalg.svd(M, compute_uv=False)
        assert svals[-2] - svals[-1] > 1e-3 * svals[0]
        step = _oracle_step(T, H, A, mode)
        for s in (0.0, 0.5, 3.7, 11.0, -2.0):
            np.testing.assert_allclose(_oracle_step(T, None, A, mode, s), step,
                                       rtol=0.0, atol=1e-10)


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
