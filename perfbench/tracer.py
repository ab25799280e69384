"""Per-layer tracing of hessform, installed from outside the package.

The tracer wraps each listed public function by rebinding it in every
``hessform.*`` module namespace that holds it.  The modules import by name
(``from .linalg import sorted_spectrum``), so patching only the defining module
would miss the calls made from ``transforms``.  Each wrapper records a span
(name, start, end, parent span, workload instance) and the span's self time,
its duration minus the time its child spans cover.  Kernel routines are
counted, not timed, and only while a package span is open, so the benchmark's
own checks never reach the counters.  ``uninstall`` restores every binding.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: Public functions timed and counted per package module.
LAYERS = {
    "linalg": ("sorted_spectrum", "geometric_multiplicity", "perron_pair",
               "jordan_like_form", "permutation_to_hessenberg", "classify"),
    "cones": ("cone_membership", "boundary_shift", "triangle_cover_decision",
              "verify_cover_certificate", "simplex_project"),
    "transforms": ("rank_one_shift_detect", "dt_hess_2", "fix_b_boundary",
                   "eigvec_b_transform", "make_certificate",
                   "verify_certificate", "nonneg_hess_3", "metzler_hess_3",
                   "metzler_hess_4", "ct_hess_3"),
    "systems": ("dt_iterates", "dt_hess_feasibility_3"),
    "search": ("altproj_hess",),
    "formats": ("read_matrix", "read_vector", "dumps", "certificate_to_json",
                "certificate_from_json"),
    "cli": ("run",),
}

#: numpy/scipy routines the package calls: name -> (module name, attribute).
KERNEL = {
    "svd": ("numpy.linalg", "svd"),
    "solve": ("numpy.linalg", "solve"),
    "lstsq": ("numpy.linalg", "lstsq"),
    "eigvals": ("numpy.linalg", "eigvals"),
    "matrix_rank": ("numpy.linalg", "matrix_rank"),
    "roots": ("numpy", "roots"),
    "linprog": ("hessform.cones", "linprog"),
    "nnls": ("hessform.cones", "nnls"),
}

VERDICTS = ("feasible", "infeasible", "unknown")


class Tracer:
    """Spans and counters for one traced pass; use as a context manager."""

    def __init__(self):
        self.instance = -1  # index of the workload instance being run
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.kernel: Counter = Counter()
        self.inside: Counter = Counter()  # (open span name, callee) -> calls
        self.verdicts: Counter = Counter()
        self.restarts = 0
        self.restart_successes = 0
        self.restart_iterations = 0
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"hessform.{layer}")
                 for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hessform" or name.startswith("hessform.")]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                wrapper = self._span(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patch(module, name, wrapper)
        for kname, (modname, attr) in KERNEL.items():
            module = importlib.import_module(modname)
            self._patch(module, attr, self._counter(kname, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _enter(self, callee: str) -> None:
        for ancestor in {frame[0] for frame in self._stack}:
            self.inside[(ancestor, callee)] += 1

    def _span(self, name: str, fn):
        after = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1][1] if self._stack else -1
            frame = [name, span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.self_s[name] += (end - start) - frame[2]
                if self._stack:
                    self._stack[-1][2] += end - start
                self.spans.append((span_id, name, start, end, parent,
                                   self.instance))
            if after is not None:
                after(self, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        callee = f"kernel.{name}"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.kernel[name] += 1
                self._enter(callee)
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, kernel calls and the ratios
        measured inside spans, as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYERS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_ms"] = (1e3 * self.self_s[key], "ms")
        for kname in KERNEL:
            out[f"kernel.{kname}.calls"] = (self.kernel[kname], "count")

        def per(numerator: int, denominator: int) -> float:
            return numerator / denominator if denominator else 0.0

        out["cones.boundary_shift.solves_per_call"] = (per(
            self.inside[("cones.boundary_shift", "kernel.solve")],
            self.calls["cones.boundary_shift"]), "ratio")
        out["linalg.sorted_spectrum.svds_per_call"] = (per(
            self.inside[("linalg.sorted_spectrum", "kernel.svd")],
            self.calls["linalg.sorted_spectrum"]), "ratio")
        out["transforms.ct_hess_3.per_metzler_hess_4"] = (per(
            self.inside[("transforms.metzler_hess_4", "transforms.ct_hess_3")],
            self.calls["transforms.metzler_hess_4"]), "ratio")
        for verdict in VERDICTS:
            out[f"systems.verdict.{verdict}"] = (self.verdicts[verdict], "count")
        out["search.restart_success_ratio"] = (
            per(self.restart_successes, self.restarts), "ratio")
        out["search.iterations_per_restart"] = (
            per(self.restart_iterations, self.restarts), "ratio")
        return out

    def span_records(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "instance": k} for i, n, s, e, p, k in self.spans]


def _count_verdict(tracer: Tracer, decision) -> None:
    tracer.verdicts[decision.verdict.value] += 1


def _count_restarts(tracer: Tracer, report) -> None:
    tracer.restarts += report.attempts
    tracer.restart_successes += report.successes
    tracer.restart_iterations += sum(log.iterations for log in report.logs)


_RESULT_HOOKS = {
    "systems.dt_hess_feasibility_3": _count_verdict,
    "search.altproj_hess": _count_restarts,
}
