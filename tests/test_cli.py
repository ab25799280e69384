import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessform

from hessform.cli import run
from hessform.formats import (
    certificate_from_json,
    certificate_to_json,
    parse_matrix_text,
    parse_vector_text,
    read_matrix,
    write_matrix,
)
from hessform.search import Generator, sample_matrix
from hessform.transforms import Mode, metzler_hess_3

from conftest import INFEASIBLE_DT_A, INFEASIBLE_DT_B, INFEASIBLE_DT_POINTS


@pytest.fixture
def files(tmp_path):
    amat = tmp_path / "A.mat"
    bvec = tmp_path / "b.vec"
    amat.write_text("3 3\n0 0 14\n0 6 0\n15 4 6\n")
    bvec.write_text("3\n1 1 0\n")
    return tmp_path, str(amat), str(bvec)


class TestFormats:
    def test_matrix_text_round_trip(self, tmp_path, rng):
        A = rng.normal(size=(3, 4))
        path = tmp_path / "m.mat"
        write_matrix(path, A)
        np.testing.assert_array_equal(read_matrix(path), A)

    def test_matrix_json_form(self):
        A = parse_matrix_text('{"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}')
        np.testing.assert_array_equal(A, [[1.0, 2.0], [3.0, 4.0]])

    def test_vector_json_form(self):
        v = parse_vector_text('{"dim": 3, "data": [1, 0, 2]}')
        np.testing.assert_array_equal(v, [1.0, 0.0, 2.0])

    def test_malformed_matrix_rejected(self):
        from hessform import InputError

        with pytest.raises(InputError):
            parse_matrix_text("2 2\n1 2 3\n")

    def test_certificate_round_trip(self, rng):
        A = np.array([[-1.0, 2.0, 0.5], [1.0, 0.0, 1.0], [0.25, 3.0, -2.0]])
        cert = metzler_hess_3(A)
        text = certificate_to_json(A, cert)
        back = certificate_from_json(text)
        np.testing.assert_array_equal(back.T, cert.T)
        np.testing.assert_array_equal(back.H, cert.H)
        assert back.mode is Mode.METZLER
        assert certificate_to_json(A, back) == text


class TestCli:
    def test_classify(self, files, capsys):
        _, amat, _ = files
        assert run(["classify", amat]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_nonnegative"] is True
        assert out["is_irreducible"] is False

    def test_dt_iterates_csv(self, files):
        tmp, amat, bvec = files
        csv_path = tmp / "out.csv"
        code = run(["dt-iterates", amat, bvec, "--k", "10",
                    "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,x,y"
        assert len(lines) == 12  # 10 iterates + limit row
        for line, (ex, ey) in zip(lines[1:11], INFEASIBLE_DT_POINTS):
            _, x, y = line.split(",")
            assert float(x) == pytest.approx(ex, abs=1e-6)
            assert float(y) == pytest.approx(ey, abs=1e-6)
        assert lines[11].startswith("inf,")

    def test_dt_feasibility_exit_codes(self, files, capsys):
        tmp, amat, bvec = files
        assert run(["dt-feasibility", amat, bvec, "--k", "50"]) == 2
        capsys.readouterr()
        good_b = tmp / "good.vec"
        good_b.write_text("3\n1 0 0\n")
        ident = tmp / "I.mat"
        ident.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        assert run(["dt-feasibility", str(ident), str(good_b), "--k", "5"]) == 0

    def test_hessenberg_obstruction_exit(self, tmp_path, capsys):
        path = tmp_path / "ones.mat"
        path.write_text("3 3\n0 1 1\n1 0 1\n1 1 0\n")
        assert run(["hessenberg", str(path), "--mode", "nonneg"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "obstruction"

    @pytest.mark.parametrize("text, mode", [
        ("2 2\n1 -3\n2 1\n", "nonneg"),
        ("2 2\n-1 -3\n2 1\n", "metzler"),
        ("1 1\n-2\n", "nonneg"),
    ])
    def test_hessenberg_rejects_wrong_sign_at_small_n(self, tmp_path, capsys, text, mode):
        """No identity certificate with a sign violation: at n <= 2 input
        without the mode's sign structure is a usage error, as at n >= 3."""
        path = tmp_path / "A.mat"
        path.write_text(text)
        assert run(["hessenberg", str(path), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires" in captured.err

    def test_hessenberg_obstruction_4x4_is_recheckable(self, tmp_path, capsys):
        u = np.array([0.5, 1.0, 1.5, 0.8])
        v = np.array([1.2, 0.4, 0.9, 1.1])
        A = np.outer(u, v) - 0.3 * np.eye(4)
        path = tmp_path / "r1.mat"
        write_matrix(path, A)
        assert run(["hessenberg", str(path), "--mode", "nonneg"]) == 2
        d = json.loads(capsys.readouterr().out)["data"]
        rebuilt = d["c"] * (np.outer(d["u"], d["v"]) - d["s"] * np.eye(4))
        scale = np.max(np.sum(np.abs(A), axis=1))
        assert np.max(np.sum(np.abs(rebuilt - A), axis=1)) <= 1e-8 * scale

    def test_hessenberg_metzler_and_verify_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        A = rng.uniform(-5, 5, size=(4, 4))
        off = ~np.eye(4, dtype=bool)
        A[off] = np.maximum(A[off], 0.0)
        amat = tmp_path / "m4.mat"
        write_matrix(amat, A)
        cert_path = tmp_path / "cert.json"
        assert run(["hessenberg", str(amat), "--mode", "metzler",
                    "--json", str(cert_path)]) == 0
        assert run(["verify", str(amat), str(cert_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is True

    def test_verify_rejects_tampered(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        A = rng.uniform(-2, 2, size=(3, 3))
        off = ~np.eye(3, dtype=bool)
        A[off] = np.maximum(A[off], 0.0)
        amat = tmp_path / "m3.mat"
        write_matrix(amat, A)
        cert_path = tmp_path / "cert.json"
        assert run(["hessenberg", str(amat), "--mode", "metzler",
                    "--json", str(cert_path)]) == 0
        obj = json.loads(cert_path.read_text())
        obj["H"][0][1] = obj["H"][0][1] + 1.0
        cert_path.write_text(json.dumps(obj))
        assert run(["verify", str(amat), str(cert_path)]) == 1

    def test_ctpos(self, files, capsys):
        tmp, amat, _ = files
        bpos = tmp / "bp.vec"
        bpos.write_text("3\n1 0 0\n")
        assert run(["ctpos", str(amat), str(bpos)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "similarity-certificate"
        assert out["mode"] == "metzler"

    def test_ctpos_obstruction_exit(self, tmp_path, capsys):
        """The 3-cycle with its Perron vector as input obstructs: exit 2."""
        amat = tmp_path / "cycle.mat"
        amat.write_text("3 3\n0 0 1\n1 0 0\n0 1 0\n")
        bvec = tmp_path / "ones.vec"
        bvec.write_text("3\n1 1 1\n")
        assert run(["ctpos", str(amat), str(bvec)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "obstruction"
        assert out["obstruction"] == "perron_eigenvector_coincidence"

    def test_hessenberg_unknown_exit(self, tmp_path, capsys):
        """A 5x5 Metzler draw that the heuristic search leaves unsolved: exit 3.
        It is instance 292 of the heuristic benchmark (seed 1), and not
        permutable."""
        A = sample_matrix(5, Mode.METZLER, Generator.DENSE_UNIFORM,
                          np.random.default_rng([1, 3, 292]))
        amat = tmp_path / "m5.mat"
        write_matrix(amat, A)
        assert run(["hessenberg", str(amat), "--mode", "metzler", "--seed", "1"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "unknown"

    def test_hessenberg_search_certificate_verifies(self, tmp_path, capsys):
        """A non-permutable 5x5 Metzler draw that the search certifies: exit 0,
        and the printed certificate verifies."""
        A = sample_matrix(5, Mode.METZLER, Generator.DENSE_UNIFORM,
                          np.random.default_rng(0))
        assert hessform.permutation_to_hessenberg(A) is None
        amat = tmp_path / "m5.mat"
        write_matrix(amat, A)
        assert run(["hessenberg", str(amat), "--mode", "metzler", "--seed", "1"]) == 0
        cert_path = tmp_path / "cert.json"
        text = capsys.readouterr().out
        cert_path.write_text(text)
        cert = certificate_from_json(text)
        assert hessform.verify_certificate(A, cert, tol=1e-8)
        assert run(["verify", str(amat), str(cert_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_search_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["search", "--n", "3", "--trials", "5", "--seed", "7",
                "--mode", "metzler", "--generator", "dense-uniform"]
        assert run(args + ["--json", str(out1)]) == 0
        assert run(args + ["--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        code = "import sys, hessform.cli; print('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(hessform.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "False"

    def test_unreadable_file_is_usage_error(self, capsys):
        assert run(["classify", "/nonexistent/path.mat"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_tol_env_override(self, files, monkeypatch, capsys):
        _, amat, _ = files
        monkeypatch.setenv("HESSFORM_TOL", "0.5")
        assert run(["classify", amat]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance_used"] == 0.5
        # flag wins over the environment
        assert run(["classify", amat, "--tol", "1e-9"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance_used"] == 1e-9

    def test_flags_a_command_does_not_read_are_usage_errors(self, files, capsys):
        tmp, amat, bvec = files
        search = ["search", "--n", "3", "--trials", "1", "--seed", "1",
                  "--mode", "metzler"]
        assert run(search + ["--tol", "1e-3"]) == 1
        assert run(["dt-iterates", amat, bvec, "--tol", "1e-3"]) == 1
        assert run(["dt-iterates", amat, bvec, "--json", str(tmp / "x.json")]) == 1
        assert not (tmp / "x.json").exists()
        capsys.readouterr()
        assert run(search + ["--json", str(tmp / "s.json")]) == 0
        assert run(["dt-feasibility", amat, bvec, "--tol", "1e-9",
                    "--json", str(tmp / "d.json")]) == 2
        assert json.loads((tmp / "d.json").read_text())["verdict"] == "infeasible"
