"""Residual bookkeeping: max-abs tracking with arg-max points and pass/fail.

A residual that is NaN or infinite is the worst value a tracker can see:
it is kept whatever arrives after it, and it fails its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Residual", "ResidualTracker", "ResidualReport"]


@dataclass
class Residual:
    """One named residual: its worst value, where it occurred, and a verdict.

    ``tolerance`` None marks an informational entry; its ``passed`` stays None
    and does not affect the suite verdict.
    """

    name: str
    max_abs: float
    argmax_point: list | None = None
    tolerance: float | None = None
    passed: bool | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": float(self.max_abs),
            "argmax_point": self.argmax_point,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class ResidualTracker:
    """Accumulates max-abs residuals by name across sample points."""

    def __init__(self):
        self._worst: dict[str, tuple[float, list | None]] = {}
        self._order: list[str] = []

    def update(self, name: str, value, point=None) -> None:
        """Track ``value`` at ``point``, or a batch of values in sample order:
        ``value`` then has the ``(N, 3)`` points' leading axis, possibly
        followed by more (one entry per probe direction, say)."""
        values = np.abs(np.asarray(value, dtype=float)).reshape(-1)
        if values.size == 0:
            return
        # where a one-by-one update would end: the first non-finite value,
        # else the first maximum
        bad = ~np.isfinite(values)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmax(values))
        if point is not None and np.ndim(point) > 1:
            points = np.reshape(point, (-1, 3))
            point = points[i // (values.size // len(points))]
        value = float(values[i])
        if name not in self._worst:
            self._order.append(name)
        else:
            worst = self._worst[name][0]
            if not (value > worst or (np.isfinite(worst) and not np.isfinite(value))):
                return
        self._worst[name] = (value, _point_list(point))

    def max_abs(self, name: str) -> float:
        return self._worst[name][0]

    def report(self, suite: str, tolerances=None, details=None) -> "ResidualReport":
        """Build a report; ``tolerances`` is a float for all names or a dict."""
        residuals = []
        for name in self._order:
            worst, pt = self._worst[name]
            tol = tolerances.get(name) if isinstance(tolerances, dict) else tolerances
            passed = None if tol is None else bool(worst < tol)
            residuals.append(Residual(name, worst, pt, tol, passed))
        return ResidualReport(suite, residuals, details or {})


def seq_max(values, start=None) -> float:
    """Python's ``max`` folded over ``values`` in order: a NaN never replaces
    the running maximum, so it wins only as the start (or first value), and
    of equal values (0.0 and -0.0) the first one stays."""
    return float(row_max(np.reshape(values, (1, -1)), start)[0])


def seq_min(values) -> float:
    """Python's ``min`` folded over ``values`` in order."""
    return -seq_max(-np.asarray(values, dtype=float))


def row_max(values, start=None) -> np.ndarray:
    """:func:`seq_max` of each row of a 2-d array, from ``start`` (a number)
    or else from the row's first value."""
    values = np.asarray(values, dtype=float)
    if start is None:
        start, values = values[:, 0], values[:, 1:]
    if values.shape[1] == 0:
        return np.broadcast_to(start, values.shape[:1]).astype(float)
    # argmax gives the first of equal maxima; NaN, made -inf, never wins
    values = np.where(np.isnan(values), -np.inf, values)
    top = values[np.arange(len(values)), np.argmax(values, axis=1)]
    return np.where(top > start, top, start)


def row_min(values) -> np.ndarray:
    """:func:`seq_min` of each row of a 2-d array."""
    return -row_max(-np.asarray(values, dtype=float))


def stats(values) -> dict:
    """Mean, standard deviation, minimum and maximum of an array."""
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
    }


def _point_list(point):
    if point is None:
        return None
    return [float(v) for v in np.asarray(point).reshape(-1)]


@dataclass
class ResidualReport:
    suite: str
    residuals: list[Residual] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.residuals) and not self.details.get(
            "failed", False
        )

    def max_abs(self, name: str) -> float:
        for r in self.residuals:
            if r.name == name:
                return r.max_abs
        raise KeyError(name)

    def worst(self) -> float:
        """The largest residual; NaN whenever one is present."""
        values = [float(r.max_abs) for r in self.residuals]
        return float("nan") if np.isnan(values).any() else max(values, default=0.0)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "residuals": [r.to_dict() for r in self.residuals],
            "details": self.details,
        }
