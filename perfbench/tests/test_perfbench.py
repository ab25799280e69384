"""Smoke tests of the benchmark itself, a few instances per workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

WORKLOADS = ["exact", "dt", "heuristic", "cli"]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def smoke_size(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "TRACE_INSTANCES", dict.fromkeys(WORKLOADS, 6))
    monkeypatch.setattr(run, "SCREEN_BATCH", 20)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def bench(capsys, workload, trace, seed=7, seconds=0.5):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_emits_every_metric_with_its_unit(capsys, workload):
    lines, result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split(" = ")[0]: line.split()[-1] for line in lines if " = " in line}
    for name, unit in {**run.END_TO_END, **run.OUTCOME}.items():
        assert printed[name] == unit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_call_counts(capsys, workload):
    _, first = bench(capsys, workload, trace=1)
    _, second = bench(capsys, workload, trace=1)
    assert {k: m["unit"] for k, m in first["metrics"].items()} == declared("per_layer")
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_tracer_restores_every_binding():
    import hessform
    import hessform.cli
    import numpy
    from tracer import Tracer

    before = (hessform.sorted_spectrum, hessform.transforms.sorted_spectrum,
              hessform.cli.run, numpy.linalg.svd, hessform.cones.linprog)
    with Tracer() as tracer:
        assert hessform.transforms.sorted_spectrum is not before[1]
        hessform.nonneg_hess_3(numpy.array([[1.0, 2, 0], [1, 1, 3], [2, 0, 1]]))
    after = (hessform.sorted_spectrum, hessform.transforms.sorted_spectrum,
             hessform.cli.run, numpy.linalg.svd, hessform.cones.linprog)
    assert after == before
    assert tracer.calls["linalg.sorted_spectrum"] >= 1
    assert tracer.kernel["svd"] >= 1


def test_corrupted_certificate_counts_as_failure(capsys, monkeypatch):
    import hessform

    exact = hessform.nonneg_hess_3

    def corrupted(A, tol=None):
        result = exact(A, tol)
        if isinstance(result, hessform.SimilarityCertificate):
            H = result.H.copy()
            H[2, 0] += 1.0  # below the subdiagonal
            result = replace(result, H=H)
        return result

    monkeypatch.setattr(hessform, "nonneg_hess_3", corrupted)
    _, result = bench(capsys, "exact", trace=0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_times_are_scaled_to_the_reference_host(capsys, monkeypatch):
    # a host on which each part of the reference takes twice REFERENCE_MS
    monkeypatch.setattr(run, "reference",
                        lambda: {part: 2e-3 * ms for part, ms in run.REFERENCE_MS.items()})
    lines, result = bench(capsys, "dt", trace=0)
    report = json.loads(Path(lines[-2].removeprefix("report: ")).read_text())
    assert report["host"]["scale"] == pytest.approx(0.5)
    got = {k: m["value"] for k, m in result["metrics"].items()}
    raw = report["raw_metrics"]
    assert got["calls_per_s"] == pytest.approx(2 * raw["calls_per_s"])
    for name in ("setup_s", "latency_p50_ms", "latency_tail_ms"):
        assert got[name] == pytest.approx(raw[name] / 2)


def test_cli_raise_is_a_failure_record_not_a_crash(capsys, monkeypatch):
    import hessform
    import hessform.cli

    def defect(A, tol=None):
        raise hessform.ConstructionDefect("forced")

    # the CLI imports it by name; the in-process screen still succeeds
    monkeypatch.setattr(hessform.cli, "metzler_hess_4", defect)
    _, result = bench(capsys, "cli", trace=1)
    assert result["correct"] is False
    assert result["failed"] >= 2  # the 4x4 hessenberg call and the verify after it


def test_cli_call_that_raises_in_process_is_set_aside(capsys, monkeypatch):
    import hessform
    import hessform.cli

    def defect(A, tol=None):
        raise hessform.ConstructionDefect("forced")

    monkeypatch.setattr(hessform, "metzler_hess_4", defect)
    monkeypatch.setattr(hessform.cli, "metzler_hess_4", defect)
    _, result = bench(capsys, "cli", trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    # instances 1..6: hessenberg-metzler and verify of variant 0, and
    # hessenberg-metzler of variant 1
    assert result["metrics"]["set_aside"]["value"] == 3


def test_raising_inputs_are_set_aside_before_timing(capsys, monkeypatch):
    import hessform

    def defect(*args, **kwargs):
        raise hessform.ConstructionDefect("forced")

    monkeypatch.setattr(hessform, "ct_hess_3", defect)
    lines, result = bench(capsys, "exact", trace=0)
    assert result["failed"] == 0
    # every fifth instance is ct_hess_3
    aside = [line for line in lines if line.startswith("set aside before timing")]
    assert aside and aside[0].startswith(
        "set aside before timing: ct_hess_3: raised ConstructionDefect x")
    _, traced = bench(capsys, "exact", trace=1)
    assert traced["failed"] == 0
    assert traced["metrics"]["set_aside"]["value"] == 1  # instance 9 of 5..10


def test_cli_printed_certificate_is_checked(capsys, monkeypatch):
    import hessform
    import hessform.cli

    to_json = hessform.cli.certificate_to_json

    def corrupted(A, cert):
        if A.shape[0] == 3:  # hessenberg --mode nonneg and ctpos, not verify
            H = cert.H.copy()
            H[2, 0] += 1.0
            cert = replace(cert, H=H)
        return to_json(A, cert)

    monkeypatch.setattr(hessform.cli, "certificate_to_json", corrupted)
    _, result = bench(capsys, "cli", trace=1)
    assert result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
