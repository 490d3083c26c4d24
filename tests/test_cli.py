"""Command-line surface: subcommands, exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cornergeo.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def child_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the cornergeo under test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def run_process(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cornergeo.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    return proc


def test_check_preset_passes(capsys):
    code, payload = run_main(capsys, "check", "--preset", "family:B", "--samples", "30")
    assert code == 0
    assert payload["exit_code"] == 0
    assert payload["passed"] is True
    assert payload["schema_version"] == 1
    assert set(payload["suites"]) == {"axioms", "corner", "frame", "forms", "classify"}
    assert payload["suites"]["classify"]["classification"]["verdict"] == "not-normal"


def test_check_is_byte_deterministic():
    a = run_process("check", "--preset", "family:B", "--seed", "7")
    b = run_process("check", "--preset", "family:B", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith("\n")


def test_check_detects_non_corner(capsys):
    code, payload = run_main(
        capsys, "check", "--preset", "family:C", "--suites", "corner", "--samples", "30"
    )
    assert code == 1
    assert payload["passed"] is False
    corner = payload["suites"]["corner"]
    assert corner["details"]["clearly_violated"] is True


def test_unknown_preset_is_a_config_error(capsys):
    code, payload = run_main(capsys, "check", "--preset", "family:Z")
    assert code == 2
    assert payload["exit_code"] == 2
    assert "error" in payload
    assert "family:Z" in payload["error"]["message"]


def test_invalid_samples_rejected(capsys):
    code, payload = run_main(
        capsys, "check", "--preset", "family:B", "--samples", "0"
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_bad_deformation_factor(capsys):
    code, payload = run_main(
        capsys, "deform", "--preset", "family:B", "--f", "exp("
    )
    assert code == 2
    assert payload["error"]["type"] in ("ConfigError", "ParseError")
    assert "offset" in payload["error"]["message"]


def test_nonpositive_factor_rejected(capsys):
    code, payload = run_main(
        capsys, "deform", "--preset", "family:B", "--f", "x1 - 0.5", "--samples", "20"
    )
    assert code == 2
    assert payload["error"]["type"] == "NonPositiveFError"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text(
        json.dumps({"preset": "family:B", "samples": 25, "seed": 3, "suites": ["axioms"]})
    )
    code, payload = run_main(capsys, "check", "--config", str(cfg), "--samples", "10")
    assert code == 0
    assert payload["config"]["samples"] == 10  # flag wins
    assert payload["config"]["seed"] == 3
    assert list(payload["suites"]) == ["axioms"]


def test_conflicting_sources_rejected(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"preset": "family:B", "family": {"tau": "exp(x2)", "kappa": "1", "mu": "1"}}))
    code, payload = run_main(capsys, "check", "--config", str(cfg))
    assert code == 2


def test_family_from_config(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text(
        json.dumps(
            {
                "family": {"tau": "exp(x2 + x3)", "kappa": "1 + x2^2", "mu": "1 + x2*x3"},
                "samples": 20,
                "suites": ["axioms", "corner"],
            }
        )
    )
    code, payload = run_main(capsys, "check", "--config", str(cfg))
    assert code == 0
    assert payload["passed"] is True


def test_classify_subcommand(capsys):
    code, payload = run_main(capsys, "classify", "--preset", "family:D", "--samples", "40")
    assert code == 0
    suite = payload["suites"]["classify"]
    assert suite["classification"]["verdict"] == "not-normal"
    assert suite["expected_verdict"] == "not-normal"
    assert suite["passed"] is True


@pytest.mark.parametrize("kind,keys", [
    ("v", {"v_twin"}),
    ("phi_v", {"phi_v_twin"}),
    ("both", {"v_twin", "phi_v_twin"}),
])
def test_twin_subcommand_kinds(capsys, kind, keys):
    code, payload = run_main(
        capsys, "twin", "--preset", "family:A", "--kind", kind, "--samples", "20"
    )
    assert code == 0
    suite = payload["suites"]["twins"]
    assert keys <= set(suite)
    if kind in ("v", "both"):
        theorem = suite["v_twin"]["theorem"]
        assert theorem["conditions_hold"] is True
        assert suite["v_twin"]["axioms"]["passed"] is True


def test_deform_subcommand_gate_failed_but_identities_hold(capsys):
    code, payload = run_main(
        capsys, "deform", "--preset", "family:B", "--f", "exp(x1)", "--samples", "30"
    )
    assert code == 0
    suite = payload["suites"]["deform"]
    assert suite["type"]["normal_gate"]["holds"] is False
    for res in suite["type"]["residuals"]["residuals"]:
        if res["tolerance"] is not None:
            assert res["max_abs"] < 1e-7
    assert suite["classification"]["verdict"] == "not-normal"


def test_deform_preset_d_structure_equations(capsys):
    code, payload = run_main(
        capsys, "deform", "--preset", "family:D", "--f", "1 + x2^2", "--samples", "30"
    )
    assert code == 0
    residuals = {
        r["name"]: r["max_abs"]
        for r in payload["suites"]["deform"]["type"]["residuals"]["residuals"]
    }
    assert residuals["d_eta_tilde"] < 1e-10
    assert residuals["d_phi_tilde"] < 1e-10


def test_scan_presets(capsys):
    code, payload = run_main(capsys, "scan", "--seed", "5", "--samples", "25")
    assert code == 0
    scan = payload["scan"]
    assert len(scan["entries"]) >= 4
    for entry in scan["entries"]:
        assert {"tau", "kappa", "mu", "max_d_omega", "max_sigma", "min_sigma_gap"} <= set(entry)
    assert scan["min_sigma_gap"] > 0  # no sampled structure reaches the gate


def test_scan_with_draws(capsys):
    code, payload = run_main(capsys, "scan", "--draws", "3", "--seed", "5", "--samples", "20")
    assert code == 0
    entries = payload["scan"]["entries"]
    assert len(entries) >= 7


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_process(
        "check", "--preset", "family:B", "--suites", "axioms", "--out", str(out)
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


@pytest.mark.parametrize(
    "where, error", [("missing-dir", "FileNotFoundError"), ("directory", "IsADirectoryError")]
)
def test_a_report_that_cannot_be_written_is_an_error(tmp_path, where, error):
    out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    proc = run_process("check", "--preset", "family:A", "--samples", "3", "--out", str(out))
    assert proc.returncode == 2 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["exit_code"] == 2 and payload["error"]["type"] == error
    assert str(out) in payload["error"]["message"]


def test_report_echoes_conventions_and_config(capsys):
    code, payload = run_main(
        capsys, "check", "--preset", "family:A", "--suites", "axioms", "--seed", "11"
    )
    assert code == 0
    assert payload["config"]["preset"] == "family:A"
    assert payload["config"]["seed"] == 11
    assert isinstance(payload["conventions"], str) and payload["conventions"]


@pytest.mark.parametrize(
    "argv",
    [["check"], ["twin", "--kind", "both"], ["deform", "--f", "exp(x1)"]],
    ids=["check", "twin", "deform"],
)
def test_one_frame_bundle_per_structure_per_sample(capsys, monkeypatch, argv):
    """Every suite, twin and deformation of one report reads the one frame
    context of the base structure, so its bundle is computed once."""
    from cornergeo.corner import CornerFields

    calls = []
    original = CornerFields._compute_bundle

    def counted(self, p):
        calls.append(1)
        return original(self, p)

    monkeypatch.setattr(CornerFields, "_compute_bundle", counted)
    code, _ = run_main(capsys, *argv, "--preset", "family:D", "--samples", "20")
    assert code in (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("kind, evaluations", [("v", 1), ("phi_v", 1), ("both", 2)])
def test_one_twin_phi_evaluation_per_kind(capsys, monkeypatch, kind, evaluations):
    """The twin theorem and the twin's axioms check read one twin per kind."""
    from cornergeo import construct

    calls = []
    field = construct.TensorField11

    def counted_field(fn):
        def counted(p):
            calls.append(1)
            return fn(p)

        return field(counted)

    monkeypatch.setattr(construct, "TensorField11", counted_field)
    code, _ = run_main(
        capsys, "twin", "--kind", kind, "--preset", "family:D", "--samples", "20"
    )
    assert code == 0
    assert len(calls) == evaluations
