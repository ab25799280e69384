"""Command-line front end.

Exit codes: 0 constructive success / feasible, 2 proven obstruction or
infeasible, 3 honest unknown, 1 usage or runtime error.  Each subcommand
accepts only the flags it reads, so any other flag is a usage error.
``--tol`` overrides a command's tolerance; for ``classify``, ``hessenberg``
and ``ctpos`` it is the zero threshold, absolute in the units of the input
matrix: ``hessenberg`` and ``ctpos`` set the entries within it to 0 once,
giving ``Â``, and every route, the Krylov-frame search included, answers for
``Â``, so the certificate is for ``Â``.  They exit 0 only if ``verify`` at the
same ``--tol`` (relative to ``||A||_inf`` there) accepts it for the input.
The ``HESSFORM_TOL`` environment variable supplies a default; the flag wins.
``search`` requires an explicit ``--seed``; ``hessenberg`` takes ``--seed``
(default 0) for the Krylov-frame search it runs where no exact construction
applies.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cones import Verdict, unproject
from .errors import HessformError, InputError
from .formats import (
    certificate_from_json,
    certificate_to_json,
    cover_decision_to_json,
    dumps,
    iterate_trace_csv,
    obstruction_to_json,
    read_matrix,
    read_text,
    read_vector,
    search_report_csv,
    search_report_to_json,
)
from .linalg import classify
from .search import (
    AltProjConfig,
    Generator,
    altproj_hess,
    exact_hessenberg,
    random_experiment,
)
from .systems import dt_hess_feasibility_3, dt_iterates
from .transforms import (
    Mode,
    Obstruction,
    SimilarityCertificate,
    ct_hess_3,
    metzler_hess_3,
    metzler_hess_4,
    nonneg_hess_3,
    verify_certificate,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_OBSTRUCTION = 2
EXIT_UNKNOWN = 3


def _tolerance(args) -> float | None:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("HESSFORM_TOL")
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise InputError(f"invalid HESSFORM_TOL value {env!r}") from exc
    return None


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    A = read_matrix(args.matrix)
    rep = classify(A, _tolerance(args))
    _emit(dumps({
        "is_nonnegative": rep.is_nonnegative,
        "is_metzler": rep.is_metzler,
        "is_upper_hessenberg": rep.is_upper_hessenberg,
        "is_irreducible": rep.is_irreducible,
        "is_primitive": rep.is_primitive,
        "tolerance_used": rep.tolerance_used,
        "zero_pattern": rep.zero_pattern.astype(int),
    }), args.json)
    return EXIT_OK


def _exact_dispatch(A, mode: Mode, tol):
    """:func:`~hessform.search.exact_hessenberg` with the n <= 4
    constructions called through this module's names, so that rebinding one
    here (as ``perfbench``'s self-tests do) reaches the CLI alone."""
    n = A.shape[0]
    if mode is Mode.METZLER and n in (3, 4):
        return (metzler_hess_3 if n == 3 else metzler_hess_4)(A, tol)
    if mode is Mode.NONNEG and n == 3:
        return nonneg_hess_3(A, tol)
    return exact_hessenberg(A, mode, tol)


def _emit_certificate(A, cert: SimilarityCertificate, tol: float | None,
                      path: str | None) -> int:
    """Print a certificate for the snapped input once ``verify`` at the same
    ``tol`` accepts it for ``A`` itself."""
    if not verify_certificate(A, cert, tol=tol if tol is not None else 1e-8):
        raise InputError("the certificate holds for the input with the entries "
                         "within --tol set to 0, but verify rejects it for the "
                         "input itself at the same --tol")
    _emit(certificate_to_json(A, cert), path)
    return EXIT_OK


def _cmd_hessenberg(args) -> int:
    A = read_matrix(args.matrix)
    mode = Mode(args.mode)
    tol = _tolerance(args)
    result = _exact_dispatch(A, mode, tol)
    if result is None:  # heuristic search; no certificate means unknown
        result = altproj_hess(A, mode, AltProjConfig(seed=args.seed), tol).best_certificate
    if isinstance(result, SimilarityCertificate):
        return _emit_certificate(A, result, tol, args.json)
    if isinstance(result, Obstruction):
        _emit(obstruction_to_json(A, result), args.json)
        return EXIT_OBSTRUCTION
    _emit(dumps({"verdict": "unknown",
                 "detail": "heuristic search found no transform"}), args.json)
    return EXIT_UNKNOWN


def _cmd_ctpos(args) -> int:
    A = read_matrix(args.matrix)
    b = read_vector(args.b)
    c = read_vector(args.c) if args.c else None
    tol = _tolerance(args)
    result = ct_hess_3(A, b, c, tol)
    if isinstance(result, SimilarityCertificate):
        return _emit_certificate(A, result, tol, args.json)
    _emit(obstruction_to_json(A, result), args.json)
    return EXIT_OBSTRUCTION


def _cmd_dt_iterates(args) -> int:
    A = read_matrix(args.matrix)
    b = read_vector(args.b)
    trace = dt_iterates(A, b, args.k)
    csv_text = iterate_trace_csv(trace)
    if args.csv:
        Path(args.csv).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_dt_feasibility(args) -> int:
    A = read_matrix(args.matrix)
    b = read_vector(args.b)
    tol = _tolerance(args)
    decision = dt_hess_feasibility_3(A, b, K=args.k,
                                     tol=tol if tol is not None else 1e-9)
    text = cover_decision_to_json(decision)
    if decision.verdict is Verdict.FEASIBLE and decision.witnesses is not None:
        p, q = decision.witnesses
        extra = dumps({"note": f"feasible up to horizon K={args.k}",
                       "candidate_p": unproject(p), "candidate_q": unproject(q)})
        text = text + extra
    _emit(text, args.json)
    if decision.verdict is Verdict.FEASIBLE:
        return EXIT_OK
    if decision.verdict is Verdict.INFEASIBLE:
        return EXIT_OBSTRUCTION
    return EXIT_UNKNOWN


def _cmd_search(args) -> int:
    report = random_experiment(args.n, args.trials, args.seed,
                               Mode(args.mode), Generator(args.generator))
    _emit(search_report_to_json(report), args.json)
    if args.csv:
        Path(args.csv).write_text(search_report_csv(report))
    return EXIT_OK


def _cmd_verify(args) -> int:
    A = read_matrix(args.matrix)
    cert = certificate_from_json(read_text(args.certificate, "certificate"))
    tol = _tolerance(args)
    ok = verify_certificate(A, cert, tol=tol if tol is not None else 1e-8)
    _emit(dumps({"verified": ok}), args.json)
    return EXIT_OK if ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessform",
        description="Nonnegative/Metzler Hessenberg similarity toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p):
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write JSON output to PATH instead of stdout")

    def common(p, tol_help="override the default numeric tolerance"):
        p.add_argument("--tol", type=float, default=None, help=tol_help)
        json_flag(p)

    snap_help = ("zero threshold in the input's units: entries within it are set "
                 "to 0 once, on every route, and the certificate is for that matrix")

    p = sub.add_parser("classify", help="structural classification of a matrix")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("hessenberg",
                       help="similarity to nonneg/Metzler Hessenberg form")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=[m.value for m in Mode], required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the heuristic fallback above the exact dimensions")
    common(p, snap_help)
    p.set_defaults(func=_cmd_hessenberg)

    p = sub.add_parser("ctpos",
                       help="third-order CT positive controller-Hessenberg form")
    p.add_argument("matrix")
    p.add_argument("b")
    p.add_argument("c", nargs="?", default=None)
    common(p, snap_help)
    p.set_defaults(func=_cmd_ctpos)

    p = sub.add_parser("dt-iterates", help="planar projections of A^k b")
    p.add_argument("matrix")
    p.add_argument("b")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_dt_iterates)

    p = sub.add_parser("dt-feasibility",
                       help="necessary-condition analysis for DT controller form")
    p.add_argument("matrix")
    p.add_argument("b")
    p.add_argument("--k", type=int, default=50)
    common(p)
    p.set_defaults(func=_cmd_dt_feasibility)

    p = sub.add_parser("search", help="seeded random experiments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], required=True)
    p.add_argument("--generator", choices=[g.value for g in Generator],
                   default=Generator.DENSE_UNIFORM.value)
    p.add_argument("--csv", default=None, metavar="PATH")
    json_flag(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="re-check a similarity certificate")
    p.add_argument("matrix")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except HessformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
