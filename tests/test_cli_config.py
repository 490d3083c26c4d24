"""Malformed scene configurations exit with code 2 and a JSON error."""

import json

import pytest

from cornergeo.cli import main


def run_config(tmp_path, capsys, command, data):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(data))
    code = main([command, "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


@pytest.mark.parametrize("command", ["check", "scan"])
def test_samples_given_as_a_string(tmp_path, capsys, command):
    code, payload = run_config(tmp_path, capsys, command, {"preset": "family:B", "samples": "10"})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "samples" in payload["error"]["message"]


def test_box_without_intervals(tmp_path, capsys):
    code, payload = run_config(tmp_path, capsys, "check", {"preset": "family:B", "box": [1, 2, 3]})
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "box" in payload["error"]["message"]


def test_boolean_tolerance(tmp_path, capsys):
    code, payload = run_config(
        tmp_path, capsys, "check", {"preset": "family:B", "tolerances": {"kernel": True}}
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "kernel" in payload["error"]["message"]


def test_scan_family_without_kappa(tmp_path, capsys):
    code, payload = run_config(
        tmp_path, capsys, "scan", {"family": {"tau": "exp(x2)", "mu": "1"}, "samples": 5}
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "kappa" in payload["error"]["message"]
