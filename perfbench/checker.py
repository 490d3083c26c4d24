"""Correctness checks for every timed report.

Each report is compared with the paper's known outcomes for the bundled
presets, kept here as an independent copy so that the benchmark does not
take the program's word for what is correct (a benchmark test checks that
the copy still matches ``cornergeo.family``).  A non-finite residual fails
the report whatever the report's own ``passed`` flag says.

This module needs the standard library only.
"""

from __future__ import annotations

import math

# the outcomes the paper states for presets A-D
KNOWN_OUTCOMES = {
    "A": {"corner": True, "base_verdict": "not-normal", "thken_conditions": True,
          "thcos_conditions": False, "omega_closed": True},
    "B": {"corner": True, "base_verdict": "not-normal", "thken_conditions": False,
          "thcos_conditions": True, "omega_closed": True},
    "C": {"corner": False, "base_verdict": "not-normal", "thken_conditions": False,
          "thcos_conditions": False, "omega_closed": True},
    "D": {"corner": True, "base_verdict": "not-normal", "thken_conditions": False,
          "thcos_conditions": False, "omega_closed": True},
}
# the order in which `scan` without a member lists the presets
SCAN_PRESET_ORDER = ("A", "B", "C", "D")


def _nonfinite(node, path="") -> list:
    """Paths of every non-finite ``max_abs`` (and scan maxima) in a report."""
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if key in ("max_abs", "max_d_omega", "max_sigma"):
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    found.append(sub)
            else:
                found.extend(_nonfinite(value, sub))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            found.extend(_nonfinite(value, f"{path}[{i}]"))
    return found


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_suites(rep: dict, known: dict, problems: list) -> None:
    suites = rep["suites"]
    corner = suites["corner"]
    _expect(problems, "corner suite passed", corner["passed"], known["corner"])
    _expect(problems, "omega_closed",
            corner["closed_omega"]["details"]["omega_closed"], known["omega_closed"])
    _expect(problems, "base verdict",
            suites["classify"]["classification"]["verdict"], known["base_verdict"])
    if known["corner"]:
        for name, suite in suites.items():
            _expect(problems, f"suite {name} passed", suite["passed"], True)


def _check_twins(rep: dict, known: dict, problems: list) -> None:
    tw = rep["suites"]["twins"]
    for key, cond in (("v_twin", "thken_conditions"), ("phi_v_twin", "thcos_conditions")):
        theorem = tw[key]["theorem"]
        _expect(problems, f"{key} conditions_hold", theorem["conditions_hold"], known[cond])
        _expect(problems, f"{key} routes_agree", theorem["routes_agree"], True)
    _expect(problems, "twins passed", tw["passed"], True)


def _check_deform(rep: dict, known: dict, problems: list) -> None:
    d = rep["suites"]["deform"]
    _expect(problems, "deform passed", d["passed"], True)
    if known["omega_closed"]:
        # closed omega forces sigma = 0 < e^rho, so the normality gate is shut
        _expect(problems, "normal gate", d["type"]["normal_gate"]["holds"], False)
        _expect(problems, "corollary gate", d["corollary"]["gate_holds"], False)


def _check_scan(rep: dict, problems: list, members: int) -> None:
    tols = rep["config"]["tolerances"]
    entries = rep["scan"]["entries"]
    _expect(problems, "scan entries", len(entries), members)
    for i, entry in enumerate(entries):
        closed = entry["max_d_omega"] < tols["kernel"]
        if i < len(SCAN_PRESET_ORDER):
            known = KNOWN_OUTCOMES[SCAN_PRESET_ORDER[i]]
            _expect(problems, f"scan entry {i} omega closed", closed, known["omega_closed"])
        if closed and not entry["max_sigma"] < tols["classification"]:
            problems.append(
                f"scan entry {i}: omega is closed but max sigma = {entry['max_sigma']!r}"
            )


def check_report(kind: str, preset: str | None, rep: dict, exit_code: int,
                 expected_code: int, members: int = 1) -> list:
    """Problems found in one report; an empty list means it is correct.

    ``kind`` is the subcommand, ``preset`` the short preset name (None for
    scan), ``rep`` the parsed JSON report, ``exit_code`` what ``main``
    returned and ``members`` the number of structures a scan should list.
    """
    problems: list = []
    _expect(problems, "exit code", exit_code, expected_code)
    if "error" in rep:
        problems.append(f"error report: {rep['error']}")
        return problems
    _expect(problems, "reported exit code", rep.get("exit_code"), exit_code)
    _expect(problems, "command", rep.get("command"), kind)
    for path in _nonfinite(rep):
        problems.append(f"non-finite residual at {path}")
    try:
        if kind == "scan":
            _check_scan(rep, problems, members)
        else:
            known = KNOWN_OUTCOMES[preset]
            {"check": _check_suites, "twin": _check_twins,
             "deform": _check_deform}[kind](rep, known, problems)
    except (KeyError, TypeError, IndexError) as err:
        problems.append(f"report lacks an expected field: {err!r}")
    return problems
