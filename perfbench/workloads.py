"""The three benchmark workloads, as lists of CLI argument vectors.

A workload is an endless stream of *cycles*; a cycle is the smallest run of
reports whose mix of presets and subcommands is the same every time, so a
run made of whole cycles measures the same mix whatever the seed.  Every
report gets its own sampling seed, drawn from the benchmark seed; the
program sees only the generated argv.

This module needs the standard library only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("check-batch", "derived", "scan-sweep")

CHECK_PRESETS = ("A", "B", "C", "D")
CHECK_SAMPLES = 200

DERIVED_PRESETS = ("A", "B", "D")
DERIVED_SAMPLES = 50
DEFORM_FACTORS = ("exp(x1)", "1 + x2^2")

SCAN_DRAWS = 60
SCAN_SAMPLES = 10
SCAN_PRESET_COUNT = 4  # scan with no explicit member sweeps every bundled preset


@dataclass(frozen=True)
class Report:
    """One CLI call: its argv (without ``--out``) and what the checker expects."""

    kind: str  # check | twin | deform | scan
    preset: str | None  # short preset name, None for scan
    argv: tuple
    points: int  # sample points carried through the report, over all members
    expected_code: int
    members: int = 1  # structures in the report


def _check(preset: str, seed: int) -> Report:
    argv = ("check", "--preset", f"family:{preset}",
            "--samples", str(CHECK_SAMPLES), "--seed", str(seed))
    # C is not a corner structure, so its corner suite fails by design
    return Report("check", preset, argv, CHECK_SAMPLES, 1 if preset == "C" else 0)


def _twin(preset: str, seed: int) -> Report:
    argv = ("twin", "--preset", f"family:{preset}", "--samples", str(DERIVED_SAMPLES),
            "--seed", str(seed), "--kind", "both")
    return Report("twin", preset, argv, DERIVED_SAMPLES, 0)


def _deform(preset: str, seed: int, f: str) -> Report:
    argv = ("deform", "--preset", f"family:{preset}", "--samples", str(DERIVED_SAMPLES),
            "--seed", str(seed), "--f", f)
    return Report("deform", preset, argv, DERIVED_SAMPLES, 0)


def _scan(seed: int) -> Report:
    argv = ("scan", "--draws", str(SCAN_DRAWS), "--samples", str(SCAN_SAMPLES),
            "--seed", str(seed))
    members = SCAN_PRESET_COUNT + SCAN_DRAWS
    return Report("scan", None, argv, members * SCAN_SAMPLES, 0, members)


def cycles(workload: str, seed: int):
    """Yield the workload's cycles (lists of :class:`Report`) forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")

    def report_seed() -> int:
        return rng.randrange(1, 2**31)

    n_deform = 0
    while True:
        if workload == "check-batch":
            yield [_check(p, report_seed()) for p in CHECK_PRESETS]
        elif workload == "derived":
            cycle = []
            for p in DERIVED_PRESETS:
                cycle.append(_twin(p, report_seed()))
                cycle.append(_deform(p, report_seed(), DEFORM_FACTORS[n_deform % 2]))
                n_deform += 1
            yield cycle
        else:
            yield [_scan(report_seed())]


def first_cycles(workload: str, seed: int, n: int) -> list:
    """The first ``n`` cycles of a workload."""
    return list(itertools.islice(cycles(workload, seed), n))
