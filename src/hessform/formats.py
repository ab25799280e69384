"""Text/JSON matrix formats, canonical JSON output, CSV exports, and
certificate (de)serialisation.

Matrix text format: first line ``rows cols``, then rows of whitespace-
separated decimals.  Vector text format: first line ``dim``, then the
entries.  Both also accept JSON objects (``{"rows": r, "cols": c, "data":
[...]}`` row-major, ``{"dim": n, "data": [...]}``).  Round-trips preserve 17
significant digits; bit-exactness is not promised.

All JSON emitted here is canonical: sorted keys, two-space indent, floats at
17 significant digits, so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .cones import CoverCertificate, CoverDecision, SimplexPoint
from .errors import InputError
from .linalg import as_matrix, as_vector
from .search import SearchReport
from .systems import IterateTrace
from .transforms import Mode, Obstruction, SimilarityCertificate

__all__ = [
    "certificate_from_json",
    "certificate_to_json",
    "cover_decision_to_json",
    "dumps",
    "format_float",
    "iterate_trace_csv",
    "matrix_hash",
    "obstruction_to_json",
    "parse_matrix_text",
    "parse_vector_text",
    "read_matrix",
    "read_text",
    "read_vector",
    "search_report_csv",
    "search_report_to_json",
    "write_matrix",
]

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    """17 significant digits; enough for an exact float64 round-trip."""
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eEn"):  # keep integral values (and -0) float-typed
        s += ".0"
    return s


def _serialise(o, indent: int = 0) -> str:
    pad = "  " * indent
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, float):
        return format_float(o)
    if isinstance(o, int):
        return str(o)
    if isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_serialise(o[k], indent + 1)}'
                 for k in sorted(o)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(o, (list, tuple)):
        if not len(o):
            return "[]"
        items = [f"{pad}  {_serialise(v, indent + 1)}" for v in o]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"unserialisable type {type(o)!r}")


def dumps(obj) -> str:
    """Canonical JSON text for nested dict/list/scalar/ndarray structures."""
    def norm(o):
        if isinstance(o, bool) or o is None or isinstance(o, str):
            return o
        if isinstance(o, (np.floating, float)):
            return float(o)
        if isinstance(o, (np.integer, int)):
            return int(o)
        if isinstance(o, np.ndarray):
            return [norm(v) for v in o.tolist()]
        if isinstance(o, complex):
            return {"re": float(o.real), "im": float(o.imag)}
        if isinstance(o, dict):
            return {str(k): norm(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [norm(v) for v in o]
        if hasattr(o, "value"):  # enums
            return o.value
        return o

    return _serialise(norm(obj)) + "\n"


# ---------------------------------------------------------------------------
# matrix / vector text formats
# ---------------------------------------------------------------------------

def parse_matrix_text(text: str) -> np.ndarray:
    text = text.strip()
    if not text:
        raise InputError("empty matrix input")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
            rows, cols = int(obj["rows"]), int(obj["cols"])
            data = [float(v) for v in obj["data"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed JSON matrix: {exc}") from exc
    else:
        tokens = text.split()
        if len(tokens) < 2:
            raise InputError("matrix text must start with 'rows cols'")
        try:
            rows, cols = int(tokens[0]), int(tokens[1])
            data = [float(v) for v in tokens[2:]]
        except ValueError as exc:
            raise InputError(f"malformed matrix text: {exc}") from exc
    if rows < 1 or cols < 1:
        raise InputError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise InputError(
            f"matrix input has {len(data)} entries, expected {rows * cols}")
    return as_matrix(np.array(data).reshape(rows, cols))


def parse_vector_text(text: str) -> np.ndarray:
    text = text.strip()
    if not text:
        raise InputError("empty vector input")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
            dim = int(obj["dim"])
            data = [float(v) for v in obj["data"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed JSON vector: {exc}") from exc
        if len(data) != dim:
            raise InputError(f"JSON vector has {len(data)} entries, expected {dim}")
        return as_vector(np.array(data))
    tokens = text.split()
    try:
        dim = int(tokens[0])
        data = [float(v) for v in tokens[1:]]
    except (ValueError, IndexError) as exc:
        raise InputError(f"malformed vector text: {exc}") from exc
    if dim < 1:
        raise InputError("vector dimension must be positive")
    if len(data) != dim:
        raise InputError(f"vector text has {len(data)} entries, expected {dim}")
    return as_vector(np.array(data))


def read_text(path, what: str) -> str:
    """A file's UTF-8 text; an unreadable or undecodable file is an InputError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def read_matrix(path) -> np.ndarray:
    return parse_matrix_text(read_text(path, "matrix"))


def read_vector(path) -> np.ndarray:
    return parse_vector_text(read_text(path, "vector"))


def write_matrix(path, A) -> None:
    A = as_matrix(A)
    rows = [" ".join(format_float(v) for v in row) for row in A]
    Path(path).write_text(f"{A.shape[0]} {A.shape[1]}\n" + "\n".join(rows) + "\n")


def matrix_hash(A) -> str:
    A = np.asarray(A, dtype=float)
    payload = ",".join(format_float(v) for v in A.ravel())
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# certificates and decisions
# ---------------------------------------------------------------------------

def certificate_to_json(A, cert: SimilarityCertificate) -> str:
    obj = {
        "schema": SCHEMA_VERSION,
        "version": _version,
        "kind": "similarity-certificate",
        "input_hash": matrix_hash(A),
        "mode": cert.mode.value,
        "T": cert.T,
        "T_inv": cert.T_inv,
        "H": cert.H,
        "residual_similarity": cert.residual_similarity,
        "min_entry_T": cert.min_entry_T,
        "hessenberg_violation": cert.hessenberg_violation,
        "sign_violation": cert.sign_violation,
        "cond_T": cert.cond_T,
    }
    return dumps(obj)


def certificate_from_json(text: str) -> SimilarityCertificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("malformed certificate JSON: not an object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise InputError(f"unsupported certificate schema {obj.get('schema')!r}")
    try:
        return SimilarityCertificate(
            T=as_matrix(np.array(obj["T"]), "T"),
            T_inv=as_matrix(np.array(obj["T_inv"]), "T_inv"),
            H=as_matrix(np.array(obj["H"]), "H"),
            residual_similarity=float(obj["residual_similarity"]),
            min_entry_T=float(obj["min_entry_T"]),
            hessenberg_violation=float(obj["hessenberg_violation"]),
            sign_violation=float(obj["sign_violation"]),
            mode=Mode(obj["mode"]),
            cond_T=float(obj["cond_T"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc


def obstruction_to_json(A, obs: Obstruction) -> str:
    obj = {
        "schema": SCHEMA_VERSION,
        "version": _version,
        "kind": "obstruction",
        "input_hash": matrix_hash(A),
        "obstruction": obs.kind.value,
        "data": obs.data,
    }
    return dumps(obj)


def _point(p: SimplexPoint) -> dict:
    return {"x": p.x, "y": p.y}


def cover_decision_to_json(decision: CoverDecision) -> str:
    obj = {
        "schema": SCHEMA_VERSION,
        "version": _version,
        "kind": "cover-decision",
        "verdict": decision.verdict.value,
    }
    if decision.witnesses is not None:
        obj["witnesses"] = [_point(decision.witnesses[0]),
                            _point(decision.witnesses[1])]
    if decision.certificate is not None:
        cert: CoverCertificate = decision.certificate
        obj["certificate"] = {
            "v0": _point(cert.v0),
            "v0_edge": cert.v0_edge,
            "contacts": {edge: _point(p) for edge, p in cert.contacts.items()},
            "outlier": _point(cert.outlier),
            "contact_line": list(cert.contact_line),
            "outlier_margin": cert.outlier_margin,
        }
    return dumps(obj)


def iterate_trace_csv(trace: IterateTrace) -> str:
    """CSV export: header ``k,x,y``, one row per iterate, then the limit row
    labelled ``inf``.  Coordinates carry 9 significant digits."""
    lines = ["k,x,y"]
    for k, p in enumerate(trace.points):
        lines.append(f"{k},{p.x:.8e},{p.y:.8e}")
    lines.append(f"inf,{trace.limit_point.x:.8e},{trace.limit_point.y:.8e}")
    return "\n".join(lines) + "\n"


def search_report_to_json(report: SearchReport) -> str:
    obj = {
        "schema": SCHEMA_VERSION,
        "version": _version,
        "kind": "search-report",
        "attempts": report.attempts,
        "successes": report.successes,
        "best_violation": (report.best_violation
                           if np.isfinite(report.best_violation) else None),
        "has_certificate": report.best_certificate is not None,
        "restarts": [
            {"restart": log.restart, "iterations": log.iterations,
             "final_violation": (log.final_violation
                                 if np.isfinite(log.final_violation) else None),
             "success": log.success}
            for log in report.logs
        ],
    }
    if report.best_certificate is not None:
        cert = report.best_certificate
        obj["best_certificate"] = {
            "mode": cert.mode.value,
            "T": cert.T,
            "H": cert.H,
            "residual_similarity": cert.residual_similarity,
        }
    return dumps(obj)


def search_report_csv(report: SearchReport) -> str:
    """One row per restart: iterations, final violation, success flag."""
    lines = ["restart,iterations,final_violation,success"]
    for log in report.logs:
        v = (format_float(log.final_violation)
             if np.isfinite(log.final_violation) else "inf")
        lines.append(f"{log.restart},{log.iterations},{v},{int(log.success)}")
    return "\n".join(lines) + "\n"
