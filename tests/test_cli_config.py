"""Malformed scene configurations exit with code 2 and a JSON error."""

import json
import warnings

import numpy as np
import pytest

from cornergeo import acms
from cornergeo.cli import main
from cornergeo.expr import MAX_DEPTH, AbsAtZeroWarning
from cornergeo.fields import ChartDomain, SingularMetricError


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


@pytest.mark.parametrize("kernel", [1e308, 5e-324])
def test_a_tolerance_the_suites_scale_out_of_range_names_itself(tmp_path, capsys, kernel):
    """The suites take the kernel tolerance times and over 10: 1e308 would
    become infinity in the report, 5e-324 a frame tolerance of 0."""
    code, payload = run_config(tmp_path, capsys, "check",
                               {"preset": "family:B", "samples": 5, "tolerances": {"kernel": kernel}})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith("tolerance 'kernel' ")


def test_scan_family_without_kappa(tmp_path, capsys):
    code, payload = run_config(
        tmp_path, capsys, "scan", {"family": {"tau": "exp(x2)", "mu": "1"}, "samples": 5}
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "kappa" in payload["error"]["message"]


FLAT = {"phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0], "eta": [1, 0, 0],
        "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("check", {"preset": "family:B", "suites": 5}, "suites"),
        ("check", {"family": {"tau": None, "kappa": "1", "mu": "1"}}, "tau"),
        ("check", {"structure": {**FLAT, "phi": 5}}, "phi"),
        ("check", {"structure": {**FLAT, "xi": [1, [0], 0]}}, "xi"),
        ("deform", {"preset": "family:B", "f": [1]}, "f"),
        ("check", {"preset": "family:B", "seed": True}, "seed"),
    ],
    ids=["suites-number", "family-null", "structure-number", "structure-nested", "f-list",
         "seed-boolean"],
)
def test_a_value_of_the_wrong_json_type(tmp_path, capsys, command, data, key):
    code, payload = run_config(tmp_path, capsys, command, {"samples": 5, **data})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert key in payload["error"]["message"]


def test_suites_given_as_a_string_are_not_split(tmp_path, capsys):
    data = {"preset": "family:B", "suites": "axioms"}
    code, payload = run_config(tmp_path, capsys, "check", data)
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "suites must be a list" in payload["error"]["message"]


def test_a_negative_seed_names_the_key(tmp_path, capsys):
    code, payload = run_config(tmp_path, capsys, "check", {"preset": "family:B", "seed": -1})
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "seed" in payload["error"]["message"]


# the first of the 200 sample points (seed 0) with x1 below the threshold
THRESHOLD = 0.11191698835111949


def first_point_below(threshold):
    from cornergeo.fields import ChartDomain

    pts = ChartDomain().sample(200, 0)
    return pts[np.argmax(pts[:, 0] < threshold)].tolist()


def test_f_is_checked_at_every_sample_point(capsys):
    # f <= 0 at 2 of the 200 sample points, none of them in the 50-point pre-check
    code = main(["deform", "--preset", "family:A", "--samples", "200", "--seed", "0",
                 "--f", f"x1 - {THRESHOLD!r}"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "NonPositiveFError"
    assert str(first_point_below(THRESHOLD)) in payload["error"]["message"]


def test_tau_is_checked_at_every_sample_point(tmp_path, capsys):
    family = {"tau": f"(x1 - {THRESHOLD!r})*exp(x2)", "kappa": "1", "mu": "1"}
    code, payload = run_config(
        tmp_path, capsys, "check", {"family": family, "samples": 200, "seed": 0}
    )
    assert code == 2
    assert payload["error"]["type"] == "ValueError"
    assert "tau > 0" in payload["error"]["message"]
    assert str(first_point_below(THRESHOLD)) in payload["error"]["message"]


def test_overflow_in_an_expression_is_a_domain_error(tmp_path, capsys):
    family = {"tau": "exp(800*x1*x2)", "kappa": "1", "mu": "1"}
    code, payload = run_config(tmp_path, capsys, "check", {"family": family, "samples": 5})
    assert code == 2
    assert payload["error"]["type"] == "EvalDomainError"
    assert "exp(800*x1*x2)^2" in payload["error"]["message"]


def test_a_non_literal_power_of_a_negative_base_is_a_domain_error(tmp_path, capsys):
    # (x1 - 2)^(0*x3) would read 1 under pow, but its exponent is no literal
    family = {"tau": "exp(x2)*(x1 - 2)^(0*x3)", "kappa": "1", "mu": "1"}
    code, payload = run_config(tmp_path, capsys, "check", {"family": family, "samples": 5})
    assert code == 2
    assert payload["error"]["type"] == "EvalDomainError"
    assert payload["error"]["message"] == (
        "power with a non-literal exponent requires a positive base in '(x1 - 2)^(0*x3)'"
    )


def test_overflow_while_folding_constants_is_a_domain_error(capsys):
    code = main(["deform", "--preset", "family:B", "--f", "10^400"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"]["type"] == "EvalDomainError"
    assert "'10^400'" in payload["error"]["message"]


def test_scan_rejects_an_inline_structure(tmp_path, capsys):
    # scan sweeps family parameters; an inline structure has none to sweep
    code, payload = run_config(tmp_path, capsys, "scan", {"structure": FLAT, "samples": 5})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "structure" in payload["error"]["message"]
    assert "entries" not in payload.get("scan", {})


def test_scan_rejects_a_negative_draw_count(capsys):
    code = main(["scan", "--draws", "-1", "--samples", "5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "draws" in payload["error"]["message"]


@pytest.mark.parametrize(
    "part, message",
    [
        ({"phi": FLAT["phi"][:2]}, "a (1,1)-tensor field needs a 3x3 entry grid"),
        ({"xi": [1, 0]}, "expected 3 components, got 2"),
        ({"phi": [[0, 0, 0], [0, -1], [0, 1, 0]]}, "expected 3 components, got 2"),
    ],
    ids=["phi-two-rows", "xi-two-entries", "phi-row-two-entries"],
)
def test_an_inline_structure_of_the_wrong_size(tmp_path, capsys, part, message):
    data = {"structure": {**FLAT, **part}, "samples": 5}
    code, payload = run_config(tmp_path, capsys, "check", data)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": "ValueError", "message": message}


NON_FINITE_TAU = {"tau": "exp(x1)*1e400", "kappa": "1", "mu": "1"}


@pytest.mark.parametrize("command", ["scan", "check"])
def test_an_infinite_tau_is_rejected(tmp_path, capsys, command):
    code, payload = run_config(tmp_path, capsys, command, {"family": NON_FINITE_TAU, "samples": 10})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith("family requires a finite tau; tau([")
    assert payload["error"]["message"].endswith(") = inf is not finite")


def test_an_infinite_f_is_rejected(capsys):
    code = main(["deform", "--preset", "family:A", "--f", "exp(1000)"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith("deformation factor is not finite at [")
    assert payload["error"]["message"].endswith("]: f = inf")


INFINITE_G22 = {**FLAT, "g": [[1, 0, 0], [0, "exp(1000)", 0], [0, 0, 1]]}


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("classify", {"structure": INFINITE_G22, "samples": 5},
         "alpha or beta is not finite at ["),
        ("scan", {"family": {"tau": "exp(x2)", "kappa": "exp(x3)*1e400", "mu": "1"},
                  "samples": 5},
         "min_sigma_gap of scan member 0 is not finite: nan"),
    ],
    ids=["classify-infinite-metric", "scan-infinite-kappa"],
)
def test_a_report_with_a_number_that_is_not_finite_is_an_error(tmp_path, capsys, command,
                                                                data, message):
    """alpha and beta are NaN on an infinite metric, and so is the sigma gap
    of an infinite kappa: no verdict, and no NaN in the output."""
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(data))
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out
    payload = json.loads(out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith(message)


INFINITE_KAPPA = {"tau": "exp(x2)", "kappa": "exp(x3)*1e400", "mu": "1"}


@pytest.mark.parametrize("command", ["check", "deform"])
@pytest.mark.parametrize("data", [{"structure": INFINITE_G22}, {"family": INFINITE_KAPPA}],
                         ids=["infinite-metric", "infinite-kappa"])
def test_the_axioms_name_a_field_that_is_not_finite(tmp_path, capsys, command, data):
    """A non-finite metric stops the axioms check with the field and the
    first such point, before any matrix norm."""
    with np.errstate(all="ignore"):
        code, payload = run_config(tmp_path, capsys, command, {**data, "samples": 5})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ValueError"
    point = ChartDomain().sample(5, 0)[0]  # the scene's first point (seed 0)
    assert payload["error"]["message"] == f"g is not finite at {point.tolist()}"


@pytest.mark.parametrize("g22, det", [("1e-7", 1e-14), ("0", 0.0)], ids=["tiny", "zero"])
def test_a_metric_singular_at_every_point_names_its_true_determinant(tmp_path, capsys, g22,
                                                                     det):
    """|det g| under the guard at every point: classify, which skips singular
    points, has none left and raises what its first point raises alone, as
    check does; a det of exactly 0 is singular too, not a division by zero."""
    g = [[1, 0, 0], [0, g22, 0], [0, 0, "1e-7"]]
    data = {"structure": {**FLAT, "g": g}, "samples": 5}
    errors = [run_config(tmp_path, capsys, command, data)[1]["error"]
              for command in ("check", "classify")]
    point = ChartDomain().sample(5, 0)[0]
    assert errors[0] == errors[1] == {
        "type": "SingularMetricError",
        "message": f"metric is singular at {point.tolist()}: det = {det:.3e}",
    }
    s = acms.AcmStructure.from_expressions(**data["structure"])
    with pytest.raises(SingularMetricError) as err:
        acms.classify(s, ChartDomain().sample(5, 0))
    assert err.value.det == pytest.approx(det, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "g, kind, message",
    [
        ([[1, 0, 0], [0, "1e-7", 0], [0, 0, "1e-7"]], "SingularMetricError",
         "metric is singular at {}: det = 1.000e-14"),
        ([[1, 0, 0], [0, -1, 0], [0, 0, 1]], "NonPositiveMetricError",
         "metric is not positive definite at {}: det = -1.000e+00"),
    ],
    ids=["singular", "not-positive-definite"],
)
@pytest.mark.parametrize("command, suites", [("check", ["axioms"]), ("classify", None),
                                             ("check", None)], ids=["axioms", "classify", "check"])
def test_a_sample_with_no_riemannian_point_names_its_first_point(tmp_path, capsys, g, kind,
                                                                 message, command, suites):
    """Each suite skips the points where g is singular or not positive
    definite; with none left, it raises what its first point raises alone."""
    data = {"structure": {**FLAT, "g": g}, "samples": 5}
    if suites:
        data["suites"] = suites
    with np.errstate(all="ignore"):
        code, payload = run_config(tmp_path, capsys, command, data)
    point = ChartDomain().sample(5, 0)[0]
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": kind, "message": message.format(point.tolist())}


def test_a_point_where_g_is_not_positive_definite_is_skipped_like_a_singular_one():
    """g22 = x1 - 0.5 is negative, with det g far above the guard, at x1 < 0.5."""
    s = acms.AcmStructure.from_expressions(**{**FLAT, "g": [[1, 0, 0], [0, "x1 - 0.5", 0],
                                                            [0, 0, 1]]})
    pts = ChartDomain().sample(8, 0)
    negative = np.count_nonzero(pts[:, 0] < 0.5)
    assert 0 < negative < len(pts)
    assert acms.check_axioms(s, pts).details["skipped_points"] == negative
    assert acms.classify(s, pts).notes["skipped_points"] == negative


DEEP = "2+" + "(" * 260 + "x1" + ")" * 260  # nesting 261, tree depth 2
LONG = "+".join(["x1"] * 1500)  # nesting 1, tree depth 1,500; 100 terms have depth 100
TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


@pytest.mark.parametrize("f, offset", [(DEEP, 2 + MAX_DEPTH), (LONG, 3 * MAX_DEPTH - 1)],
                         ids=["nested", "long"])
def test_a_deformation_factor_too_deep_to_walk_is_a_parse_error(capsys, f, offset):
    """Input that would pass the interpreter's recursion limit in the parser
    or in a walk is refused as it is parsed, where it passes MAX_DEPTH."""
    code = main(["deform", "--preset", "family:A", "--f", f])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["message"] == f"bad deformation factor: {TOO_DEEP} (offset {offset})"


def test_a_family_tau_too_deep_to_walk_is_a_parse_error(tmp_path, capsys):
    data = {"family": {"tau": LONG, "kappa": "1", "mu": "1"}, "samples": 5}
    code, payload = run_config(tmp_path, capsys, "check", data)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": "ParseError",
                                "message": f"family 'tau': {TOO_DEEP} (offset {3 * MAX_DEPTH - 1})"}


@pytest.mark.parametrize(
    "command, scene, message",
    [
        ("check", {"family": {"tau": "exp(x2)", "kappa": "1 +", "mu": "1"}},
         "family 'kappa': unexpected end of input (offset 3)"),
        ("scan", {"family": {"tau": "exp(x2)", "kappa": "1 +", "mu": "1"}},
         "family 'kappa': unexpected end of input (offset 3)"),
        ("check", {"structure": {**FLAT, "eta": [1, 0, "x1+"]}},
         "structure 'eta'[2]: unexpected end of input (offset 3)"),
        ("check", {"structure": {**FLAT, "phi": [[0, 0, 0], [0, 0, "-)"], [0, 1, 0]]}},
         "structure 'phi'[1][2]: unexpected ')' (offset 1)"),
    ],
    ids=["family-kappa", "scan-family-kappa", "structure-eta", "structure-phi"],
)
def test_a_scene_entry_that_does_not_parse_names_itself(tmp_path, capsys, command, scene,
                                                         message):
    code, payload = run_config(tmp_path, capsys, command, {**scene, "samples": 5})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": "ParseError", "message": message}


def test_a_twin_is_classified_at_the_scene_tolerance(tmp_path, capsys):
    from cornergeo import FamilyParams, build_family, twin

    family = {"tau": "exp(x2)", "kappa": "1", "mu": "exp(1.00001*x2)"}
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"family": family, "samples": 12,
                               "tolerances": {"classification": 1e-3}}))
    assert main(["twin", "--kind", "v", "--config", str(cfg)]) == 0
    theorem = json.loads(capsys.readouterr().out)["suites"]["twins"]["v_twin"]["theorem"]
    assert theorem["conditions_hold"] and theorem["twin_matches"] and theorem["routes_agree"]
    s = build_family(FamilyParams.of(*family.values()))
    pts = ChartDomain().sample(12, 0)
    verdict = acms.classify(twin(s, "v"), pts, tol=1e-3).verdict
    assert theorem["twin_verdict"] == verdict == "Kenmotsu"



# scene entries as JSON text: json reads 1e999 as infinity, NaN as a NaN and
# an integer literal of 400 digits as an int that no float holds
PRESET_A = '"preset": "family:A", '
HUGE = "1" + "0" * 400
INFINITE_G11 = ('"structure": {"phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0], '
                '"eta": [1, 0, 0], "g": [[1e999, 0, 0], [0, 1, 0], [0, 0, 1]]}')


@pytest.mark.parametrize(
    "command, entries, key",
    [
        ("check", PRESET_A + '"tolerances": {"kernel": 1e999}', "tolerance 'kernel' "),
        ("scan", PRESET_A + '"tolerances": {"classification": -1e999}',
         "tolerance 'classification' "),
        ("twin", PRESET_A + '"tolerances": {"failure_floor": NaN}', "tolerance 'failure_floor' "),
        ("check", PRESET_A + '"f": 1e999', "f "),
        ("scan", PRESET_A + '"f": -1e999', "f "),
        ("deform", PRESET_A + f'"f": {HUGE}', "f "),
        ("check", PRESET_A + f'"tolerances": {{"kernel": {HUGE}}}', "tolerance 'kernel' "),
        ("check", PRESET_A + '"box": [[0.1, 1e999], [0.1, 1], [0.1, 1]]', "box: "),
        ("check", PRESET_A + f'"box": [[0.1, 1], [0.1, {HUGE}], [0.1, 1]]', "box: "),
        # finite bounds whose width overflows
        ("check", '"preset": "family:D", "box": [[-1e308, 1e308], [0.1, 1], [0.1, 1]]', "box: "),
        ("check", '"family": {"tau": "exp(x2)", "kappa": 1e999, "mu": "1"}', "family 'kappa' "),
        ("classify", INFINITE_G11, "structure 'g' "),
    ],
    ids=["tolerance", "scan-tolerance", "nan-tolerance", "f", "scan-f", "integer-f",
         "integer-tolerance", "box", "integer-box", "box-width", "family-kappa", "structure-g"],
)
def test_a_number_in_a_scene_that_is_not_finite_names_its_key(tmp_path, capsys, command,
                                                              entries, key):
    cfg = tmp_path / "scene.json"
    cfg.write_text('{"samples": 3, %s}' % entries)
    code = main([command, "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"]["type"] == "ConfigError"
    assert payload["error"]["message"].startswith(key)


def test_expression_text_of_a_number_out_of_range_stays_legal(tmp_path, capsys):
    cfg = tmp_path / "scene.json"
    cfg.write_text('{"samples": 3, %s}' % (PRESET_A + '"f": "1e999"'))
    assert main(["check", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["f"] == "1e999"


SCENE_KEYS = "preset, family, structure, box, samples, seed, suites, f, tolerances"


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("check", {"preset": "family:B", "sample": 5}, f"unknown scene keys ['sample']; "
         f"available: {SCENE_KEYS}"),
        # draws is a flag of scan, not a scene key
        ("scan", {"draws": 7}, f"unknown scene keys ['draws']; available: {SCENE_KEYS}"),
        ("check", {"preset": "family:B", "Seed": 1, "kind": "v"},
         f"unknown scene keys ['Seed', 'kind']; available: {SCENE_KEYS}"),
        ("check", {"family": {"tau": "exp(x2)", "kappa": "1", "mu": "1", "nu": "x1"}},
         "unknown family keys ['nu']; available: tau, kappa, mu"),
        ("scan", {"family": {"tau": "exp(x2)", "kappa": "1", "mu": "1", "nu": "x1"}},
         "unknown family keys ['nu']; available: tau, kappa, mu"),
        ("check", {"structure": {**FLAT, "psi": [0, 1, 0]}},
         "unknown structure keys ['psi']; available: phi, xi, eta, g"),
    ],
    ids=["sample", "draws", "two-keys", "family-nu", "scan-family-nu", "structure-psi"],
)
def test_a_key_outside_the_documented_set_is_named(tmp_path, capsys, command, data, message):
    code, payload = run_config(tmp_path, capsys, command, {"samples": 5, **data})
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": "ConfigError", "message": message}


@pytest.mark.parametrize(
    "argv, data",
    [
        (["check"], {"suites": []}),
        (["twin"], {"suites": []}),  # twin runs its own suite; the scene is still refused
        (["check", "--suites", ","], {}),
    ],
    ids=["check-file", "twin-file", "check-flag"],
)
def test_an_empty_suite_list_is_an_error(tmp_path, capsys, argv, data):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"preset": "family:B", "samples": 5, **data}))
    code = main(argv + ["--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {
        "type": "ConfigError",
        "message": "no suite given; available: axioms, corner, frame, forms, classify, twins, "
                   "deform",
    }


OVERFLOWING_FAMILY = {"tau": "exp(x2)", "kappa": "exp(x3)*1e400", "mu": "0*exp(1000) + 1"}
FIVE = ChartDomain().sample(5, 0)  # the points of a 5-sample scene
# the first of them where exp(1000*x1) overflows
OVERFLOWING_F = FIVE[np.argmax(1000 * FIVE[:, 0] > np.log(np.finfo(float).max))]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--config", "scene.json"], f"g is not finite at {FIVE[0].tolist()}"),
        (["scan", "--config", "scene.json"], "min_sigma_gap of scan member 0 is not finite: nan"),
        (["deform", "--preset", "family:D", "--samples", "5", "--f", "exp(1000*x1)"],
         f"deformation factor is not finite at {OVERFLOWING_F.tolist()}: f = inf"),
    ],
    ids=["check", "scan", "deform"],
)
def test_a_scene_that_overflows_reports_its_error_without_numpy_warnings(tmp_path, capsys, argv,
                                                                           message):
    """numpy warns of the overflows and the NaN they make, but the JSON error
    already names them: stderr stays quiet, and stdout holds the error."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"family": OVERFLOWING_FAMILY, "samples": 5}))
    argv = [str(path) if a == "scene.json" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["exit_code"] == 2
    assert payload["error"] == {"type": "ValueError", "message": message}


def test_the_abs_at_zero_warning_still_reaches_the_caller(tmp_path, capsys):
    family = {"tau": "exp(x2)", "kappa": "1 + abs(x2 - x2)", "mu": "1"}
    with pytest.warns(AbsAtZeroWarning):
        code, _ = run_config(tmp_path, capsys, "check",
                             {"family": family, "samples": 5, "suites": ["axioms"]})
    assert code == 0
