"""Seeded workloads for the hessform benchmark.

Each workload makes instance ``i`` from ``(seed, workload, i)`` alone, calls
one hessform entry point on it, and checks the output it got back.  Calls go
through module attributes at call time (``hessform.ct_hess_3``,
``hessform.cli.run``) so that the tracer's rebinding sees them.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hessform
import hessform.formats
from hessform import (
    AltProjConfig,
    Generator,
    Mode,
    Obstruction,
    ObstructionKind,
    SimilarityCertificate,
    Verdict,
)

#: Tolerance dt_hess_feasibility_3 applies to a FEASIBLE triangle, plus the
#: round-off of recomputing its half-plane margins here.
DT_TOL = 1e-9
MARGIN_ROUNDOFF = 1e-12
DT_HORIZON = 50
#: Seed of the warm-up instances, the same for every workload seed.
WARMUP_SEED = 0

# The discrete-time pair whose controller form is provably infeasible.
DT_COUNTEREXAMPLE = np.array([[0.0, 0.0, 14.0],
                              [0.0, 6.0, 0.0],
                              [15.0, 4.0, 6.0]])


@dataclass
class Instance:
    index: int
    entry: str  # hessform function name, or CLI command for ``cli``
    args: tuple
    kwargs: dict = field(default_factory=dict)
    tag: str = ""  # slice of the workload the instance belongs to


@dataclass
class Outcome:
    """How one call ended.  ``verdict`` is one of certificate, obstruction,
    feasible, infeasible, unknown or raised; ``correct`` is False when the
    output failed its check."""

    verdict: str
    correct: bool = True
    detail: str = ""


def _inf_norm(a) -> float:
    return float(np.max(np.sum(np.abs(np.atleast_2d(a)), axis=1)))


def _verified(A, cert: SimilarityCertificate, tol: float = 1e-8) -> bool:
    try:
        return bool(hessform.verify_certificate(A, cert, tol=tol))
    except hessform.InputError:  # singular T
        return False


def check_result(inst: Instance, result, allowed: tuple) -> Outcome:
    """Check a certificate or obstruction returned for ``inst.args[0]``."""
    A = inst.args[0]
    if isinstance(result, SimilarityCertificate):
        ok = _verified(A, result)
        return Outcome("certificate", ok,
                       "" if ok else "certificate fails verify_certificate")
    if not isinstance(result, Obstruction) or result.kind not in allowed:
        return Outcome("obstruction", False, f"unexpected result {result!r}")
    d = result.data
    scale = max(1.0, _inf_norm(A))
    if result.kind is ObstructionKind.NEG_EIG_GEOM_MULT:
        n = A.shape[0]
        recon = d["c"] * (np.outer(d["u"], d["v"]) - d["s"] * np.eye(n))
        ok = _inf_norm(recon - A) <= 1e-8 * scale
        return Outcome("obstruction", ok,
                       "" if ok else "c (u v^T - s I) does not reconstruct A")
    # Perron-eigenvector coincidence: A b = lambda_1 b with a complex pair
    b = inst.args[1]
    resid = _inf_norm(A @ b - d["lambda1"] * b)
    pair = np.array(d["complex_pair"], dtype=complex)
    eig = np.linalg.eigvals(A)
    rho = max(1.0, float(np.max(np.abs(eig))))
    ok = bool(resid <= 1e-6 * scale * max(1.0, _inf_norm(b))
          and pair.size == 2 and abs(pair[0].imag) > 0
          and abs(pair[0] - np.conj(pair[1])) <= 1e-8 * rho
          and all(np.min(np.abs(eig - z)) <= 1e-6 * rho for z in pair))
    return Outcome("obstruction", ok,
                   "" if ok else "A b != lambda_1 b or no complex pair")


class Workload:
    name = ""
    ident = 0  # keeps the instance streams of different workloads apart
    warmup = 1  # warm-up instances, enough to reach every entry point
    #: Whether each instance is called once before it is timed and set aside
    #: if it raises; a workload that is not screened draws no such inputs.
    screened = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.ident, i])

    def instance(self, i: int) -> Instance:
        raise NotImplementedError

    def call(self, inst: Instance):
        return getattr(hessform, inst.entry)(*inst.args, **inst.kwargs)

    def after(self, inst: Instance, result) -> None:
        """Untimed bookkeeping between calls."""

    def check(self, inst: Instance, result) -> Outcome:
        raise NotImplementedError

    def screen(self, inst: Instance) -> str | None:
        """Call ``inst`` once before timing; the name of the exception it
        raises, or None."""
        try:
            self.after(inst, self.call(inst))
        except Exception as err:
            return type(err).__name__
        return None

    def warm_up(self) -> None:
        """Call instances 0 .. warmup-1 of a fixed seed, so that set-up time
        does not depend on the workload seed."""
        fixed = copy.copy(self)
        fixed.seed = WARMUP_SEED
        for i in range(self.warmup):
            inst = fixed.instance(i)
            try:
                self.after(inst, self.call(inst))
            except Exception:  # a raising input still warms the code it reached
                pass


class Exact(Workload):
    """Exact constructions on inputs scaled by 10**U(-6, 6).

    The constructions raise on about 1.6 % of these inputs, and now and then
    at unit scale too, so the instances are screened.
    """

    name = "exact"
    ident = 1
    KINDS = ("metzler_hess_3", "metzler_hess_4", "nonneg_hess_3",
             "rank_one_shift", "ct_hess_3")
    warmup = len(KINDS)
    screened = True

    def instance(self, i: int) -> Instance:
        rng = self.rng(i)
        kind = self.KINDS[i % 5]
        gen = (Generator.DENSE_UNIFORM if (i // 5) % 2 == 0
               else Generator.SPARSE_PATTERN)
        if kind == "metzler_hess_4":
            A = hessform.sample_matrix(4, Mode.METZLER, gen, rng)
        elif kind in ("metzler_hess_3", "ct_hess_3"):
            A = hessform.sample_matrix(3, Mode.METZLER, gen, rng)
        elif kind == "nonneg_hess_3":
            A = hessform.sample_matrix(3, Mode.NONNEG, gen, rng)
        else:
            A = hessform.sample_matrix(3, Mode.NONNEG, Generator.PROP1_FAMILY, rng)
        A = A * 10.0 ** rng.uniform(-6.0, 6.0)
        if kind == "ct_hess_3":
            return Instance(i, "ct_hess_3", (A, rng.uniform(0.0, 1.0, 3)), tag=kind)
        entry = "nonneg_hess_3" if kind == "rank_one_shift" else kind
        return Instance(i, entry, (A,), tag=kind)

    def check(self, inst: Instance, result) -> Outcome:
        allowed = {
            "nonneg_hess_3": (ObstructionKind.NEG_EIG_GEOM_MULT,),
            "ct_hess_3": (ObstructionKind.PERRON_EIGVEC_COINCIDENCE,),
        }.get(inst.entry, ())
        return check_result(inst, result, allowed)


def _triangle_holds(v0, p, q, cloud) -> bool:
    """Every cloud point lies in the triangle (v0, p, q), whose corners lie in
    the reference triangle, up to DT_TOL; checked with half-planes."""
    verts = np.array([v0.as_array(), p.as_array(), q.as_array()])
    pts = np.array([c.as_array() for c in cloud])
    slack = DT_TOL + MARGIN_ROUNDOFF
    if np.any(verts < -slack) or np.any(verts.sum(axis=1) > 1.0 + slack):
        return False
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    area2 = e1[0] * e2[1] - e1[1] * e2[0]
    if abs(area2) < 1e-15:  # only the (v0, v0) witness is degenerate
        return bool(np.all(np.linalg.norm(pts - verts[0], axis=1) <= slack))
    if area2 < 0:
        verts = verts[[0, 2, 1]]
    for k in range(3):
        a, edge = verts[k], verts[(k + 1) % 3] - verts[k]
        inward = np.array([-edge[1], edge[0]]) / np.hypot(edge[0], edge[1])
        if np.min((pts - a) @ inward) < -slack:
            return False
    return True


class Dt(Workload):
    """Planar DT feasibility: two dense draws, then one counterexample draw.

    A dense draw that is nilpotent is drawn again.  Its iterates vanish for
    every ``b``, so there is no planar cloud to cover, and
    ``dt_hess_feasibility_3`` rejects it as input.
    """

    name = "dt"
    ident = 2

    def instance(self, i: int) -> Instance:
        rng = self.rng(i)
        if i % 3 == 2:
            A = DT_COUNTEREXAMPLE * rng.uniform(0.5, 2.0, size=(3, 3))
            b = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 0.0])
            tag = "counterexample"
        else:
            A = hessform.sample_matrix(3, Mode.NONNEG, Generator.DENSE_UNIFORM, rng)
            while not np.any(np.linalg.matrix_power(A, 3)):  # A**3 = 0 exactly
                A = hessform.sample_matrix(3, Mode.NONNEG, Generator.DENSE_UNIFORM, rng)
            b = rng.uniform(0.0, 1.0, 3)
            tag = "dense"
        return Instance(i, "dt_hess_feasibility_3", (A, b),
                        {"K": DT_HORIZON}, tag=tag)

    def check(self, inst: Instance, result) -> Outcome:
        A, b = inst.args
        verdict = result.verdict.value
        if result.verdict is Verdict.UNKNOWN:
            return Outcome(verdict)
        trace = hessform.dt_iterates(A, b, DT_HORIZON)
        v0 = trace.points[0]
        cloud = list(trace.points) + [trace.limit_point]
        if result.verdict is Verdict.INFEASIBLE:
            ok = (result.certificate is not None
                  and hessform.verify_cover_certificate(result.certificate, v0, cloud))
            return Outcome(verdict, ok, "" if ok else "cover certificate rejected")
        ok = (result.witnesses is not None
              and _triangle_holds(v0, *result.witnesses, cloud))
        return Outcome(verdict, ok, "" if ok else "witness triangle misses the cloud")


class Heuristic(Workload):
    """Alternating projections at random_experiment's budget."""

    name = "heuristic"
    ident = 3
    SLICES = ((4, Mode.METZLER), (5, Mode.METZLER), (5, Mode.NONNEG))

    def instance(self, i: int) -> Instance:
        rng = self.rng(i)
        n, mode = self.SLICES[i % 3]
        A = hessform.sample_matrix(n, mode, Generator.DENSE_UNIFORM, rng)
        cfg = AltProjConfig(seed=int(rng.integers(2**31)), restarts=4, max_iters=200)
        return Instance(i, "altproj_hess", (A, mode, cfg), tag=f"n{n}-{mode.value}")

    def check(self, inst: Instance, report) -> Outcome:
        cert = report.best_certificate
        if cert is None:
            ok = report.successes == 0
            return Outcome("unknown", ok, "" if ok else "successes without a certificate")
        ok = report.successes > 0 and _verified(inst.args[0], cert)
        return Outcome("certificate", ok, "" if ok else "certificate fails verify_certificate")


def _write_matrix(path: Path, A: np.ndarray) -> None:
    rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in A)
    path.write_text(f"{A.shape[0]} {A.shape[1]}\n{rows}\n")


def _write_vector(path: Path, b: np.ndarray) -> None:
    path.write_text(f"{b.size}\n" + " ".join(repr(float(x)) for x in b) + "\n")


class Cli(Workload):
    """The ``hessform`` CLI on seeded files, one invocation at a time.

    Each command has VARIANTS input files, so every file is invoked again
    later in a run and its stdout must repeat byte for byte.  ``verify``
    re-checks the certificate the 4x4 ``hessenberg`` call of the same variant
    wrote earlier in the run.  The instances are screened in-process: a call
    whose in-process counterpart raises is set aside.
    """

    name = "cli"
    ident = 4
    COMMANDS = ("hessenberg-nonneg", "hessenberg-metzler", "ctpos",
                "dt-feasibility", "verify")
    VARIANTS = 4
    screened = True
    EXIT_VERDICT = {
        "dt-feasibility": {0: "feasible", 2: "infeasible", 3: "unknown", 1: "raised"},
        "other": {0: "certificate", 2: "obstruction", 3: "unknown", 1: "raised"},
    }

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        super().__init__(seed, workdir)
        self.in_process = in_process
        self.inputs: dict[tuple[str, int], tuple] = {}
        self.first_stdout: dict[tuple[str, int], bytes] = {}
        self.expected: dict[tuple[str, int], int] = {}
        dt = Dt(seed, workdir)
        for v in range(self.VARIANTS):
            rng = self.rng(v)
            self.inputs[("hessenberg-nonneg", v)] = (hessform.sample_matrix(
                3, Mode.NONNEG, Generator.DENSE_UNIFORM, rng),)
            A4 = hessform.sample_matrix(4, Mode.METZLER, Generator.DENSE_UNIFORM, rng)
            self.inputs[("hessenberg-metzler", v)] = (A4,)
            self.inputs[("ctpos", v)] = (hessform.sample_matrix(
                3, Mode.METZLER, Generator.DENSE_UNIFORM, rng), rng.uniform(0.0, 1.0, 3))
            self.inputs[("dt-feasibility", v)] = dt.instance(v).args
            self.inputs[("verify", v)] = (A4,)
            for cmd in self.COMMANDS[:4]:
                arrays = self.inputs[(cmd, v)]
                _write_matrix(self._file(cmd, v, "mat"), arrays[0])
                if len(arrays) > 1:
                    _write_vector(self._file(cmd, v, "vec"), arrays[1])

    def _file(self, cmd: str, v: int, ext: str) -> Path:
        return self.workdir / f"{cmd}-{v}.{ext}"

    def argv(self, cmd: str, v: int) -> list[str]:
        mat, vec = str(self._file(cmd, v, "mat")), str(self._file(cmd, v, "vec"))
        if cmd == "hessenberg-nonneg":
            return ["hessenberg", mat, "--mode", "nonneg"]
        if cmd == "hessenberg-metzler":
            return ["hessenberg", mat, "--mode", "metzler"]
        if cmd == "verify":
            return ["verify", str(self._file("hessenberg-metzler", v, "mat")),
                    str(self._file("hessenberg-metzler", v, "cert"))]
        return [cmd, mat, vec]

    def variant(self, i: int) -> int:
        return (i // len(self.COMMANDS)) % self.VARIANTS

    def instance(self, i: int) -> Instance:
        cmd, v = self.COMMANDS[i % len(self.COMMANDS)], self.variant(i)
        return Instance(i, cmd, (self.argv(cmd, v),), tag=f"{cmd}-{v}")

    def call(self, inst: Instance):
        argv = inst.args[0]
        if self.in_process:
            import hessform.cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = hessform.cli.run(argv)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "hessform.cli", *argv],
                              capture_output=True, cwd=self.workdir, check=False)
        return proc.returncode, proc.stdout

    def after(self, inst: Instance, result) -> None:
        code, stdout = result
        if inst.entry == "hessenberg-metzler" and code == 0:
            cert = self._file("hessenberg-metzler", self.variant(inst.index), "cert")
            cert.write_bytes(stdout)

    def screen(self, inst: Instance) -> str | None:
        code = self._expected(inst.entry, self.variant(inst.index))
        return "exit 1" if code == 1 else None

    def _expected(self, cmd: str, v: int) -> int:
        if (cmd, v) not in self.expected:
            self.expected[(cmd, v)] = self._expected_exit(cmd, v)
        return self.expected[(cmd, v)]

    def _expected_exit(self, cmd: str, v: int) -> int:
        """Exit code the in-process verdict on the same arrays implies."""
        arrays = self.inputs[(cmd, v)]
        if cmd == "verify":  # fails exactly when no certificate was written
            return 0 if self._expected_exit("hessenberg-metzler", v) == 0 else 1
        try:
            if cmd == "hessenberg-nonneg":
                result = hessform.nonneg_hess_3(*arrays)
            elif cmd == "hessenberg-metzler":
                result = hessform.metzler_hess_4(*arrays)
            elif cmd == "ctpos":
                result = hessform.ct_hess_3(*arrays)
            else:
                verdict = hessform.dt_hess_feasibility_3(
                    *arrays, K=DT_HORIZON, tol=DT_TOL).verdict
                return {Verdict.FEASIBLE: 0, Verdict.INFEASIBLE: 2,
                        Verdict.UNKNOWN: 3}[verdict]
        except hessform.HessformError:
            return 1
        return 0 if isinstance(result, SimilarityCertificate) else 2

    def check(self, inst: Instance, result) -> Outcome:
        code, stdout = result
        cmd = inst.entry
        key = (cmd, self.variant(inst.index))
        expected = self._expected(*key)
        first = self.first_stdout.setdefault(key, stdout)
        table = self.EXIT_VERDICT["dt-feasibility" if cmd == "dt-feasibility" else "other"]
        verdict = table.get(code, "raised")
        detail = f"exit {code}" if verdict == "raised" else ""
        if code != expected:
            return Outcome(verdict, False,
                           f"exit {code}, in-process verdict implies {expected}")
        if stdout != first:
            return Outcome(verdict, False, "stdout differs from an earlier invocation")
        if code != 0:
            return Outcome(verdict, True, detail)
        if cmd == "verify":
            try:
                ok = json.loads(stdout) == {"verified": True}
            except ValueError:
                ok = False
            return Outcome(verdict, ok, "" if ok else "verify did not report verified")
        if cmd != "dt-feasibility" and not self._printed_certificate_holds(key, stdout):
            return Outcome(verdict, False, "printed certificate fails verify_certificate")
        return Outcome(verdict, True)

    def _printed_certificate_holds(self, key: tuple[str, int], stdout: bytes) -> bool:
        try:
            cert = hessform.formats.certificate_from_json(stdout.decode())
        except (hessform.InputError, UnicodeDecodeError):
            return False
        return _verified(self.inputs[key][0], cert)


WORKLOADS = {w.name: w for w in (Exact, Dt, Heuristic, Cli)}


def make(name: str, seed: int, workdir, in_process: bool = False) -> Workload:
    cls = WORKLOADS[name]
    if cls is Cli:
        return Cli(seed, workdir, in_process=in_process)
    return cls(seed, workdir)
