"""cornergeo benchmark: one workload, end-to-end metrics or the traced per-layer split.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-batch --seed 1 --seconds 36 --trace 0

It times a fresh interpreter importing ``cornergeo.cli`` (``setup_s``), then
starts a worker process that drives the workload through ``cli.main`` in
process, one client in a closed loop, and checks every report.  With
``--trace 1`` the worker instead runs one cycle untraced and once more
under the span tracer, and the per-layer metrics are printed.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything is
also written, with each report's SHA-256 digest and an environment block,
to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.  The exit code is 0
only when the benchmark ran; incorrect reports are counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import metrics as metric_names
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_REPEATS = 9
# calls whose count per report the CLI's suites fix; printed for traced runs
PER_REPORT_SHOWN = ("construct.twin", "construct.deform", "acms.classify")
DEADLINE_S = 170.0  # the whole run, setup included, must end well within 180 s
# pinned for every child process; the machine's own settings are left alone
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINNING)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def measure_setup(env: dict, timeout: float) -> list:
    """Wall times of fresh interpreters importing ``cornergeo.cli``.

    A first, untimed import writes the bytecode caches, as an installed
    package would already have them.
    """
    cmd = [sys.executable, "-c", "import cornergeo.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=timeout)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=timeout)
        times.append(time.perf_counter() - t0)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_pinning": dict(THREAD_PINNING),
    }


def end_to_end(reports: list, setup: list, peak_rss_mb: float) -> dict:
    """The ``--trace 0`` metrics; throughput is the median over whole cycles."""
    cycles: dict = {}
    for r in reports:
        points, wall = cycles.get(r["cycle"], (0, 0.0))
        cycles[r["cycle"]] = (points + r["points"], wall + r["wall_s"])
    return {
        "points_per_s": statistics.median(p / w for p, w in cycles.values()),
        "report_s.p50": statistics.median(r["wall_s"] for r in reports),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cornergeo benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cornergeo", "cli.py")):
        print("perfbench: no cornergeo source under ./src; run from a checkout's root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_result = os.path.join(out_dir, f"worker-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--result", worker_result]
    try:
        setup = [] if args.trace else measure_setup(env, timeout=60)
        budget = DEADLINE_S - (time.perf_counter() - started)
        subprocess.run(cmd, env=env, check=True, timeout=budget)
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as err:
        # a timed-out child has been killed and waited for by subprocess.run
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    with open(worker_result, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(worker_result)

    reports = result["reports"]
    failed = sum(1 for r in reports if r["problems"])
    fail_ratio = failed / len(reports)
    if args.trace:
        values = dict(result["trace"]["metrics"], fail_ratio=fail_ratio)
        units = metric_names.PER_LAYER
    else:
        values = end_to_end(reports, setup, result["peak_rss_mb"])
        units = metric_names.END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(result["numpy"]),
        "attempted": len(reports), "failed": failed, "fail_ratio": fail_ratio,
        "setup_s_samples": setup, "metrics": metrics, "reports": reports,
    }
    if args.trace:
        record["per_report_calls"] = result["trace"]["per_report_calls"]
        record["spans_file"] = os.path.relpath(result["spans_file"], root)
        record["span_count"] = result["trace"]["spans"]
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for r in reports:
        if r["problems"]:
            print(f"FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    print(f"{args.workload} seed={args.seed} reports={len(reports)} failed={failed} "
          f"fail_ratio={fail_ratio:.4f}")
    if args.trace:
        traced = [r for r in reports if r["traced"]]
        for r, calls in zip(traced, record["per_report_calls"]):
            shown = " ".join(f"{g}={calls[g]}" for g in PER_REPORT_SHOWN)
            print(f"  traced {' '.join(r['argv'][:3])}: {shown}")
    for name, m in metrics.items():
        count = f" (n={len(reports)})" if name == "report_s.p50" else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{count}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reports), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
