"""Residual tracking: non-finite residuals fail, batches track like single values."""

import math

import numpy as np
import pytest

from cornergeo.report import ResidualTracker

NAN, INF = float("nan"), float("inf")


def tracked(*values, tol=1e-8):
    tracker = ResidualTracker()
    for v in values:
        tracker.update("r", v, np.array([v, 0.0, 0.0]) if math.isfinite(v) else None)
    return tracker.report("suite", tol)


@pytest.mark.parametrize("values", [(1e-12, NAN), (NAN, 1e-12), (1e-12, NAN, 5e-13)])
def test_nan_is_the_worst_and_fails(values):
    rep = tracked(*values)
    assert math.isnan(rep.max_abs("r"))
    assert rep.residuals[0].passed is False
    assert rep.passed is False


@pytest.mark.parametrize("values", [(1e-12, INF), (INF, 1e-12), (1e-12, -INF)])
def test_inf_is_the_worst_and_fails(values):
    rep = tracked(*values)
    assert rep.max_abs("r") == INF
    assert rep.passed is False


def test_the_first_non_finite_value_is_kept():
    assert math.isnan(tracked(1e-12, NAN, INF).max_abs("r"))
    assert tracked(1e-12, INF, NAN).max_abs("r") == INF


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
def test_report_worst_whatever_the_order(order):
    for bad in (NAN, INF):
        tracker = ResidualTracker()
        values = [1e-12, bad, 3e-9]
        for k in order:
            tracker.update(f"r{k}", values[k])
        worst = tracker.report("suite", 1e-8).worst()
        assert math.isnan(worst) if math.isnan(bad) else worst == INF


def test_batched_update_matches_one_by_one():
    rng = np.random.default_rng(7)
    for trial in range(40):
        values = rng.choice([0.0, 1.0, 2.0, 2.0, NAN, INF], size=(6, 3))
        if trial % 3 == 0:
            values = np.where(np.isfinite(values), values, 0.5)
        points = rng.uniform(size=(6, 3))
        one, batch = ResidualTracker(), ResidualTracker()
        start = rng.choice([0.0, 1.5, NAN])
        one.update("r", start, points[0])
        batch.update("r", start, points[0])
        for n in range(6):
            for v in values[n]:
                one.update("r", v, points[n])
        batch.update("r", values, points)
        a, b = one.report("s").residuals[0], batch.report("s").residuals[0]
        assert np.array_equal(a.max_abs, b.max_abs, equal_nan=True)
        assert a.argmax_point == b.argmax_point
