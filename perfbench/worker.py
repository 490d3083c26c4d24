"""Runs one workload in process through ``cornergeo.cli.main`` and checks every report.

Started by ``run.py`` as a fresh process with BLAS/OpenMP threads pinned
and ``src`` on the path; writes its findings as JSON to ``--result``.

Untraced, it runs whole cycles of the workload (one client, closed loop)
until another cycle would overrun ``--seconds``.  Traced, it runs the first
cycle once untraced as the reference and once again under the span tracer.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from cornergeo import cli

import checker
import spans
import workloads


def run_report(report: workloads.Report, out_path: str) -> dict:
    """One timed ``main`` call, then the correctness check on its output."""
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [*report.argv, "--out", out_path]
    problems = []
    code = None
    # earlier reports leave reference cycles behind; collect them outside
    # the timed region, as a fresh CLI process would not carry them
    gc.collect()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as err:  # argparse rejected the argv
        problems.append(f"exited with {err.code!r}")
    except Exception:  # a crash is a failed report, not a failed benchmark
        problems.append("raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1])
    wall = time.perf_counter() - t0

    digest = None
    if not problems:
        with open(out_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        try:
            rep = json.loads(data)
        except ValueError as err:
            problems = [f"report is not valid JSON: {err}"]
        else:
            problems = checker.check_report(report.kind, report.preset, rep, code,
                                            report.expected_code, report.members)
    return {
        "argv": list(report.argv),
        "kind": report.kind,
        "points": report.points,
        "exit_code": code,
        "wall_s": wall,
        "sha256": digest,
        "problems": problems,
    }


def run_cycles(workload: str, seed: int, seconds: float, out_path: str) -> list:
    results = []
    start = time.perf_counter()
    for index, cycle in enumerate(workloads.cycles(workload, seed)):
        t0 = time.perf_counter()
        results.extend(dict(run_report(r, out_path), cycle=index) for r in cycle)
        now = time.perf_counter()
        # whole cycles only, and none that would end past the budget
        if (now - start) + (now - t0) > seconds:
            return results


def run_traced(workload: str, seed: int, out_path: str, spans_path: str) -> dict:
    (cycle,) = workloads.first_cycles(workload, seed, 1)
    reference = [run_report(r, out_path) for r in cycle]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = [run_report(r, out_path) for r in cycle]
    finally:
        restore()
    tracer.save(spans_path)
    summary = spans.analyse(tracer.names, tracer.name_id, tracer.parent,
                            tracer.start, tracer.end)
    summary["metrics"]["expr.jet_ops"] = tracer.jet_ops()
    summary["metrics"]["trace.overhead"] = (sum(r["wall_s"] for r in traced)
                                            / sum(r["wall_s"] for r in reference))
    summary["spans"] = len(tracer.start)
    reports = [dict(r, traced=False) for r in reference] + [dict(r, traced=True) for r in traced]
    return {"reports": reports, "trace": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    out_path = os.path.join(args.out_dir, f"report-{args.workload}.json")
    if args.trace:
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        result = run_traced(args.workload, args.seed, out_path, spans_path)
        result["spans_file"] = spans_path
    else:
        result = {"reports": run_cycles(args.workload, args.seed, args.seconds, out_path)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
