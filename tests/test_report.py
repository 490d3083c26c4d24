"""The residual table: each column reduces once to its worst counted value
and the sample point it belongs to, and a non-finite residual fails."""

import math

import numpy as np
import pytest

from cornergeo.report import ResidualTracker

NAN, INF = float("nan"), float("inf")


def tabled(*values, tol=1e-8):
    """The report of one column, one value per sample point."""
    tracker = ResidualTracker(np.arange(3.0 * len(values)).reshape(-1, 3))
    tracker.update("r", np.array(values))
    return tracker.report("suite", tol)


@pytest.mark.parametrize("values", [(1e-12, NAN), (NAN, 1e-12), (1e-12, NAN, 5e-13)])
def test_nan_is_the_worst_and_fails(values):
    rep = tabled(*values)
    assert math.isnan(rep.max_abs("r"))
    assert rep.residuals[0].argmax_point == [3.0 * values.index(NAN) + k for k in range(3)]
    assert rep.residuals[0].passed is False
    assert rep.passed is False


@pytest.mark.parametrize("values", [(1e-12, INF), (INF, 1e-12), (1e-12, -INF)])
def test_inf_is_the_worst_and_fails(values):
    rep = tabled(*values)
    assert rep.max_abs("r") == INF
    assert rep.passed is False


def test_the_first_non_finite_value_is_kept():
    assert math.isnan(tabled(1e-12, NAN, INF).max_abs("r"))
    assert tabled(1e-12, INF, NAN).max_abs("r") == INF


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
def test_report_worst_whatever_the_order(order):
    for bad in (NAN, INF):
        tracker = ResidualTracker(np.zeros((1, 3)))
        values = [1e-12, bad, 3e-9]
        for k in order:
            tracker.update(f"r{k}", [values[k]])
        rep = tracker.report("suite", 1e-8)
        assert [r.name for r in rep.residuals] == [f"r{k}" for k in order]
        assert math.isnan(rep.worst()) if math.isnan(bad) else rep.worst() == INF


def test_a_column_with_no_counted_entry_adds_no_row():
    tracker = ResidualTracker(np.zeros((2, 3)))
    tracker.update("dropped", [[NAN, 1.0], [2.0, INF]], np.zeros((2, 2), dtype=bool))
    tracker.update("kept", [1.0, 2.0])
    tracker.update("empty", np.zeros((2, 0)))
    assert [r.name for r in tracker.report("suite").residuals] == ["kept"]


def folded(values, kept, points):
    """The worst counted entry, taken one entry at a time in C order: a
    non-finite value replaces a finite worst one, and a larger finite value
    a smaller one; None if no entry counts."""
    worst = point = None
    per_point = values.size // len(points)
    for i, (v, counted) in enumerate(zip(np.abs(values).ravel(), kept.ravel())):
        if counted and (worst is None or math.isfinite(worst) and not v <= worst):
            worst, point = float(v), points[i // per_point].tolist()
    return worst, point


@pytest.mark.parametrize("masked", [False, True])
def test_a_column_reduces_like_a_one_by_one_fold(masked):
    rng = np.random.default_rng(7)
    for trial in range(60):
        shape = (6,) + (3,) * (trial % 3)  # no probe axis, one or two
        values = rng.choice([0.0, 1.0, 2.0, 2.0, -2.0, -0.0, NAN, INF], size=shape)
        if trial % 4 == 0:
            values = np.where(np.isfinite(values), values, 0.5)
        points = rng.uniform(size=(6, 3))
        kept = None
        if masked:
            kept = rng.uniform(size=shape) < 0.8 if trial % 10 else np.zeros(shape, dtype=bool)
            flat = np.abs(values).ravel()
            drop = [np.argmax(np.where(np.isfinite(flat), flat, -1.0))]  # the first maximum
            drop += np.flatnonzero(np.isnan(flat))[:1].tolist()  # and the first NaN
            kept.ravel()[drop] = False
        tracker = ResidualTracker(points)
        tracker.update("r", values, kept)
        rows = tracker.report("s").residuals
        worst, point = folded(values, np.ones(shape, bool) if kept is None else kept, points)
        if worst is None:
            assert rows == []
            continue
        assert np.array_equal(rows[0].max_abs, worst, equal_nan=True)
        assert rows[0].argmax_point == point
