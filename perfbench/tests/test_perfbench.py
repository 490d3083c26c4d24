"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checker
import metrics
import spans
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def shrink(report: workloads.Report, samples: int = 3, draws: int = 2) -> workloads.Report:
    """The same report at a tiny size."""
    argv = list(report.argv)
    argv[argv.index("--samples") + 1] = str(samples)
    members = report.members
    if "--draws" in argv:
        argv[argv.index("--draws") + 1] = str(draws)
        members = workloads.SCAN_PRESET_COUNT + draws
    return dataclasses.replace(report, argv=tuple(argv), members=members,
                               points=members * samples)


def tiny_cycle(workload: str, seed: int = 5) -> list:
    (cycle,) = workloads.first_cycles(workload, seed, 1)
    return [shrink(r) for r in cycle]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_passes_the_checker(workload, tmp_path):
    out = str(tmp_path / "report.json")
    results = [worker.run_report(r, out) for r in tiny_cycle(workload)]
    assert results
    for res in results:
        assert res["problems"] == [], res
        assert len(res["sha256"]) == 64


def test_same_seed_gives_same_argv_and_digests(tmp_path):
    out = str(tmp_path / "report.json")
    for workload in workloads.WORKLOADS:
        first = workloads.first_cycles(workload, 9, 2)
        assert first == workloads.first_cycles(workload, 9, 2)
        assert first != workloads.first_cycles(workload, 10, 2)
    cycle = tiny_cycle("derived", seed=9)
    digests = [[worker.run_report(r, out)["sha256"] for r in cycle] for _ in range(2)]
    assert digests[0] == digests[1]


def test_cycles_cover_the_workload_mix():
    (check,) = workloads.first_cycles("check-batch", 1, 1)
    assert [r.preset for r in check] == ["A", "B", "C", "D"]
    assert [r.expected_code for r in check] == [0, 0, 1, 0]
    (derived,) = workloads.first_cycles("derived", 1, 1)
    assert [(r.kind, r.preset) for r in derived] == [
        ("twin", "A"), ("deform", "A"), ("twin", "B"),
        ("deform", "B"), ("twin", "D"), ("deform", "D"),
    ]
    factors = [r.argv[r.argv.index("--f") + 1] for r in derived if r.kind == "deform"]
    assert factors == ["exp(x1)", "1 + x2^2", "exp(x1)"]
    (scan,) = workloads.first_cycles("scan-sweep", 1, 1)
    assert scan[0].points == 64 * 10


def _report(tmp_path, report):
    out = str(tmp_path / "report.json")
    res = worker.run_report(report, out)
    with open(out, encoding="utf-8") as fh:
        return res, json.load(fh)


def test_checker_fails_a_flipped_verdict(tmp_path):
    check_a = shrink(workloads.first_cycles("check-batch", 1, 1)[0][0])
    res, rep = _report(tmp_path, check_a)
    assert res["problems"] == []
    rep["suites"]["classify"]["classification"]["verdict"] = "Kenmotsu"
    assert checker.check_report("check", "A", rep, 0, 0)

    twin_a = shrink(workloads.first_cycles("derived", 1, 1)[0][0])
    res, rep = _report(tmp_path, twin_a)
    assert res["problems"] == []
    theorem = rep["suites"]["twins"]["v_twin"]["theorem"]
    theorem["conditions_hold"] = not theorem["conditions_hold"]
    assert checker.check_report("twin", "A", rep, 0, 0)


def test_checker_fails_a_nan_residual_that_claims_to_pass(tmp_path):
    deform = shrink(workloads.first_cycles("derived", 1, 1)[0][1])
    res, rep = _report(tmp_path, deform)
    assert res["problems"] == []
    residual = rep["suites"]["deform"]["axioms"]["residuals"][0]
    residual["max_abs"] = math.nan
    assert residual["passed"] is True and rep["passed"] is True
    problems = checker.check_report("deform", "A", rep, 0, 0)
    assert any("non-finite" in p for p in problems)


def test_checker_fails_a_wrong_exit_code_and_a_scan_implication(tmp_path):
    scan = shrink(workloads.first_cycles("scan-sweep", 1, 1)[0][0])
    res, rep = _report(tmp_path, scan)
    assert res["problems"] == []
    assert checker.check_report("scan", None, rep, 1, 0, scan.members)
    rep["scan"]["entries"][0]["max_sigma"] = 0.5  # preset A has closed omega
    assert checker.check_report("scan", None, rep, 0, 0, scan.members)


def test_known_outcomes_match_the_presets():
    from cornergeo import family

    for name, known in checker.KNOWN_OUTCOMES.items():
        expected = family.preset(name).expected
        assert {k: expected[k] for k in known} == known
    assert tuple(f"family:{p}" for p in checker.SCAN_PRESET_ORDER) == family.PRESET_NAMES


def test_traced_counts_per_report_and_restore(tmp_path):
    from cornergeo import acms, cli, construct, expr

    originals = (cli.main, construct.deform, construct.classify, expr.Jet2.__add__,
                 expr._FUNCTIONS["exp"], acms.nabla_matrix)
    out = str(tmp_path / "report.json")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert construct.classify is not originals[2]
        assert acms.nabla_matrix is not originals[5]
        results = [worker.run_report(r, out) for r in tiny_cycle("derived")]
    finally:
        restore()
    assert (cli.main, construct.deform, construct.classify, expr.Jet2.__add__,
            expr._FUNCTIONS["exp"], acms.nabla_matrix) == originals
    assert all(r["problems"] == [] for r in results)

    summary = spans.analyse(tracer.names, tracer.name_id, tracer.parent,
                            tracer.start, tracer.end)
    kinds = [r["kind"] for r in results]
    per_report = summary["per_report_calls"]
    assert len(per_report) == len(kinds)
    for kind, calls in zip(kinds, per_report):
        if kind == "deform":
            assert calls["construct.deform"] == 3
        else:
            assert calls["construct.deform"] == 0
            assert calls["acms.classify"] == 2  # one per twin theorem
    m = summary["metrics"]
    assert 0.0 < m["corner.bundle.hit_ratio"] < 1.0
    assert 0.0 < m["fields.christoffel_jets.hit_ratio"] < 1.0
    assert m["trace.coverage"] >= 0.9
    assert tracer.jet_ops() > 0
    assert set(metrics.PER_LAYER) - {"expr.jet_ops", "trace.overhead", "fail_ratio"} <= set(m)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_run_prints_the_result_line_last(tmp_path):
    res = _run([RUN, "--workload", "scan-sweep", "--seed", "3", "--seconds", "1",
                "--trace", "0"], ROOT)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 1 and last["failed"] == 0
    assert set(last["metrics"]) == set(metrics.END_TO_END)
    for name, unit in metrics.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert last["metrics"][name]["value"] > 0


def test_run_without_the_source_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    res = _run(["perfbench/run.py", "--workload", "check-batch", "--seed", "1",
                "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert res.returncode != 0
    assert res.stdout.strip() == ""
