"""The command-line front end: help text, flag-over-file precedence, the
empty-flag rule, suite lists and command dispatch."""

import json

import pytest

from cornergeo import family
from cornergeo.cli import ConfigError, SceneConfig, main, run

HELP_COMMON = """\
options:
  -h, --help         show this help message and exit
  --preset PRESET    named structure, e.g. family:B
  --config CONFIG    JSON scene configuration file
  --samples SAMPLES  sample-point count (default 100)
  --seed SEED        sampling seed (default 0)
  --out OUT          write the JSON report to this file
"""

# each subcommand's --help at 80 columns
HELP = {
    "check": """\
usage: cornergeo check [-h] [--preset PRESET] [--config CONFIG]
                       [--samples SAMPLES] [--seed SEED] [--out OUT]
                       [--suites SUITES]

""" + HELP_COMMON + """\
  --suites SUITES    comma-separated subset of: axioms, corner, frame, forms,
                     classify, twins, deform (default:
                     axioms,corner,frame,forms,classify)
""",
    "classify": """\
usage: cornergeo classify [-h] [--preset PRESET] [--config CONFIG]
                          [--samples SAMPLES] [--seed SEED] [--out OUT]

""" + HELP_COMMON,
    "twin": """\
usage: cornergeo twin [-h] [--preset PRESET] [--config CONFIG]
                      [--samples SAMPLES] [--seed SEED] [--out OUT]
                      [--kind {v,phi_v,both}]

options:
  -h, --help            show this help message and exit
  --preset PRESET       named structure, e.g. family:B
  --config CONFIG       JSON scene configuration file
  --samples SAMPLES     sample-point count (default 100)
  --seed SEED           sampling seed (default 0)
  --out OUT             write the JSON report to this file
  --kind {v,phi_v,both}
""",
    "deform": """\
usage: cornergeo deform [-h] [--preset PRESET] [--config CONFIG]
                        [--samples SAMPLES] [--seed SEED] [--out OUT] [--f F]

""" + HELP_COMMON + """\
  --f F              deformation factor expression (default 1)
""",
    "scan": """\
usage: cornergeo scan [-h] [--preset PRESET] [--config CONFIG]
                      [--samples SAMPLES] [--seed SEED] [--out OUT]
                      [--draws DRAWS]

""" + HELP_COMMON + """\
  --draws DRAWS      random family draws
""",
}


def run_scene(tmp_path, capsys, data, *argv):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(data))
    code = main([*argv, "--config", str(cfg)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_a_flag_overrides_the_file(tmp_path, capsys):
    data = {"preset": "family:B", "samples": 40, "seed": 2, "suites": ["axioms"]}
    code, payload = run_scene(tmp_path, capsys, data, "check")
    assert code == 0 and payload["config"]["samples"] == 40
    code, payload = run_scene(tmp_path, capsys, data, "check", "--samples", "12")
    assert code == 0 and payload["config"]["samples"] == 12
    assert payload["config"]["seed"] == 2


def test_a_zero_flag_is_applied(tmp_path, capsys):
    data = {"preset": "family:B", "samples": 40}
    code, payload = run_scene(tmp_path, capsys, data, "check", "--samples", "0")
    assert code == 2
    assert payload["error"] == {"type": "ConfigError", "message": "samples must be >= 1, got 0"}


@pytest.mark.parametrize(
    "command, flag, key, value",
    [("check", "--preset", "preset", "family:D"), ("deform", "--f", "f", "1 + x2^2")],
)
def test_an_empty_flag_is_ignored(tmp_path, capsys, command, flag, key, value):
    data = {key: value, "preset": "family:D", "samples": 10, "suites": ["axioms"]}
    code, payload = run_scene(tmp_path, capsys, data, command, flag, "")
    assert code == 0
    assert payload["config"][key] == value


def test_blank_suite_names_are_dropped(capsys):
    code = main(["check", "--preset", "family:B", "--samples", "10", "--suites", "axioms,,corner"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["config"]["suites"] == ["axioms", "corner"]
    assert list(payload["suites"]) == ["axioms", "corner"]


def test_scan_without_draws_reports_the_presets(capsys):
    code = main(["scan", "--samples", "5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    entries = payload["scan"]["entries"]
    assert len(entries) == len(family.PRESET_NAMES)
    assert [e["tau"] for e in entries] == [
        str(family.preset(name).params.tau) for name in family.PRESET_NAMES
    ]


def test_an_unknown_command_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        run(SceneConfig(preset="family:A", samples=5), "bogus")
    assert str(err.value) == "unknown command 'bogus'"
