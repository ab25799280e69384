"""Measure the benchmark's baseline and write it to ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json once per seed 1..RUNS, round-robin so
that slow drift of the machine spreads over all workloads, plus one traced
run per workload.  For each end-to-end metric it records the ten values,
their median and their spread: the distance between the first and third
quartile as a share of the median.  It also records the outcome ratios, the
inputs set aside because they raise, by entry point, the heuristic's
successes per slice and the net line count of ``src/``, which gates
nothing.

Then it runs a second set on seeds RUNS+1..2*RUNS and records, per metric,
how much worse the second median is than the first as a share of the first,
beside the metric's bound: two sets of runs of the same code must agree
within it.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
FIRST, SECOND = range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    report = proc.stdout.strip().splitlines()[-2].removeprefix("report: ")
    return json.loads(Path(report).read_text())


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def measure(names: list[str], seeds: range, seconds: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            report = bench(name, seed, seconds, 0)
            runs[name].append(report)
            print(name, seed, {k: round(m["value"], 4) for k, m in report["metrics"].items()
                               if k in report["reported"]}, flush=True)
    return runs


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = measure(names, FIRST, spec["run_seconds"])
    again = measure(names, SECOND, spec["run_seconds"])

    out = {"run_seconds": spec["run_seconds"], "seeds": list(FIRST),
           "second_seeds": list(SECOND),
           "src_lines": sum(len(p.read_text().splitlines())
                            for p in sorted((ROOT / "src").rglob("*.py"))),
           "workloads": {}}
    for name in names:
        reports = runs[name]
        slices = Counter(), Counter()
        for r in reports:
            for tag, (won, tried) in r["successes_by_slice"].items():
                slices[0][tag] += won
                slices[1][tag] += tried
        raised, aside = Counter(), Counter()
        for r in reports:
            raised.update(r["failures_by_entry_point"])
            aside.update(f"{s['entry_point']}: raised {s['exception']}"
                         for s in r["set_aside"])
        traced = bench(name, 1, spec["run_seconds"], 1)
        metrics, second = {}, {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  **spread([r["metrics"][m["name"]]["value"]
                                            for r in reports])}
            s2 = spread([r["metrics"][m["name"]]["value"] for r in again[name]])
            worse = worse_by(metrics[m["name"]]["median"], s2["median"], m["better"])
            second[m["name"]] = {"median": s2["median"], "spread": s2["spread"],
                                 "worse_by": worse, "bound": m["bound"],
                                 "within_bound": worse <= m["bound"],
                                 "values": s2["values"]}
        out["workloads"][name] = {
            "metrics": metrics,
            "second_set": second,
            "outcomes": {k: {"unit": reports[0]["metrics"][k]["unit"],
                             **spread([r["metrics"][k]["value"] for r in reports])}
                         for k in ("fail_ratio", "unknown_ratio", "success_ratio",
                                   "successes_per_s")},
            "tail_percentiles": sorted({r["tail"]["percentile"] for r in reports}),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "failures_by_entry_point": dict(sorted(raised.items())),
            "set_aside": sum(aside.values()),
            "set_aside_by_entry_point": dict(sorted(aside.items())),
            "successes_by_slice": {tag: f"{slices[0][tag]}/{slices[1][tag]}"
                                   for tag in sorted(slices[1])},
            "per_layer_seed_1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in metrics.items():
            s2 = second[metric]
            print(f"{name} {metric}: median {s['median']:.6g} spread {s['spread']:.3f}"
                  f" | second median {s2['median']:.6g} spread {s2['spread']:.3f}"
                  f" worse by {s2['worse_by']:+.3f}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
