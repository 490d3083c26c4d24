"""One rule for a failing point: every guard raises at the first failing
sample point, in C order, with that point's value; the point errors share
one base; and a replay catches only errors whose cause is one point."""

import json

import numpy as np
import pytest

from cornergeo import (
    ChartDomain,
    DeformationParams,
    DegenerateCornerError,
    FamilyParams,
    NonPositiveFError,
    PointError,
    SingularMetricError,
    build_family,
)
from cornergeo.cli import main
from cornergeo.expr import require, skipping
from cornergeo.family import _check_generators

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# finite and negative at x1 < 0.5 with x2 small; +inf at x1 > 0.5 with x2 = 1
OVERFLOWING = "(x1 - 0.5)*exp(1000*x2)"
NEGATIVE, INFINITE = [0.2, 0.1, 0.5], [0.8, 1.0, 0.5]


def raised(fn, points):
    with pytest.raises(ValueError) as err:
        fn(np.array(points))
    return err.value


@pytest.mark.parametrize("first, second", [(NEGATIVE, INFINITE), (INFINITE, NEGATIVE)])
def test_the_first_failing_point_decides_the_deformation_factors_error(first, second):
    err = raised(DeformationParams.of(OVERFLOWING).jet, [[0.8, 0.1, 0.5], first, second])
    if first is NEGATIVE:
        assert type(err) is NonPositiveFError
        assert str(err).startswith(f"deformation factor is not positive at {first}: f = -")
    else:
        assert type(err) is ValueError
        assert str(err) == f"deformation factor is not finite at {first}: f = inf"


@pytest.mark.parametrize("first, second", [(NEGATIVE, INFINITE), (INFINITE, NEGATIVE)])
def test_the_first_failing_point_decides_the_tau_guards_error(first, second):
    # the 50-point pre-check passes on this box; the guard runs at every evaluated point
    box = ChartDomain(((0.6, 1.0), (0.1, 0.2), (0.1, 1.0)))
    s = build_family(FamilyParams.of(OVERFLOWING, "1", "1", domain=box))
    err = raised(s.eta.values, [[0.8, 0.1, 0.5], first, second])
    assert type(err) is ValueError
    if first is NEGATIVE:
        assert str(err).startswith(f"family requires tau > 0; tau({first}) = -")
    else:
        assert str(err) == f"family requires a finite tau; tau({first}) = inf is not finite"


TAU_NEGATIVE, TKM_ZERO = [0.2, 0.8, 0.5], [0.8, 0.5, 0.5]


@pytest.mark.parametrize("first, second", [(TAU_NEGATIVE, TKM_ZERO), (TKM_ZERO, TAU_NEGATIVE)])
def test_the_first_failing_point_decides_the_generator_checks_error(first, second):
    params = FamilyParams.of("x1 - 0.5", "x2 - 0.5", "1")
    err = raised(lambda q: _check_generators(params, q), [[0.8, 0.8, 0.5], first, second])
    assert type(err) is ValueError
    if first is TAU_NEGATIVE:
        assert str(err) == f"family requires tau > 0; tau({first}) = -3.000e-01"
    else:
        assert str(err) == f"family requires tau*kappa*mu != 0; value at {first} = 0.000e+00"


def test_require_raises_at_the_first_point_in_c_order_with_its_values():
    points = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    bad = np.array([[False, False, True], [True, False, True]])
    values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    with pytest.raises(SingularMetricError) as err:
        require(points, bad, SingularMetricError, values)
    np.testing.assert_array_equal(err.value.point, points[0, 2])
    assert err.value.det == 2.0
    require(points, np.zeros((2, 3), dtype=bool), SingularMetricError, values)  # no raise


@pytest.mark.parametrize(
    "cls, value, alias, base, message",
    [
        (SingularMetricError, 1e-13, "det", RuntimeError,
         "metric is singular at [0.5, 0.25, 1.0]: det = 1.000e-13"),
        (DegenerateCornerError, 2.5e-9, "psi_norm", RuntimeError,
         "degenerate corner point [0.5, 0.25, 1.0]: |psi| = 2.500e-09"),
        (NonPositiveFError, -0.125, "value", ValueError,
         "deformation factor is not positive at [0.5, 0.25, 1.0]: f = -0.125"),
    ],
)
def test_each_point_error_keeps_its_message_point_alias_and_base(cls, value, alias, base,
                                                                 message):
    err = cls(np.array([0.5, 0.25, 1.0]), np.float64(value))
    assert str(err) == message
    assert isinstance(err, PointError) and isinstance(err, base)
    assert "__init__" not in vars(cls)
    np.testing.assert_array_equal(err.point, [0.5, 0.25, 1.0])
    assert getattr(err, alias) == value and type(getattr(err, alias)) is float


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["deform", "--preset", "family:A", "--samples", "12", "--f", "x1 - 2"],
         "NonPositiveFError"),
        (["check", "--config", {"family": {"tau": "2", "kappa": "1", "mu": "1"}}],
         "DegenerateCornerError"),
        (["check", "--config", {"structure": {
            "phi": [[0, 0, 0], [0, 0, -1], [0, 1, 0]], "xi": [1, 0, 0], "eta": [1, 0, 0],
            "g": [[1, 0, 0], [0, "0*x1", 0], [0, 0, 1]]}}],
         "SingularMetricError"),
    ],
)
def test_main_reports_each_point_error_by_its_own_type(tmp_path, capsys, argv, kind):
    if "--config" in argv:
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**argv[-1], "samples": 12}))
        argv = [*argv[:-1], str(path)]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2 and payload["error"]["type"] == kind


def test_skipping_does_not_replay_an_error_that_is_no_point_error():
    calls = []

    def fn(q):
        calls.append(np.shape(q))
        raise NotImplementedError("no batch rule")

    with pytest.raises(NotImplementedError):
        skipping(fn, np.zeros((4, 3)))
    assert calls == [(4, 3)]
