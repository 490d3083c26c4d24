"""Residual bookkeeping: per-suite residual tables reduced to the worst
value, where it occurred, and pass/fail.

A residual that is NaN or infinite is the worst value a column can hold:
the first one counted is kept, and it fails its tolerance.
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
    """One suite's residual table over the ``(N, 3)`` sample ``points``: one
    column of values per residual name, each reduced once by :meth:`report`.

    A column's worst value is its first non-finite counted entry, else its
    first maximum, in C order; ``argmax_point`` is that entry's sample point.
    A column with no counted entry adds no row.
    """

    def __init__(self, points):
        self._points = np.reshape(points, (-1, 3))
        self._columns: dict[str, tuple] = {}

    def update(self, name: str, values, kept=None) -> None:
        """Record the column ``name``: ``values`` has the points' leading
        axis, possibly followed by probe axes, and ``kept``, of the same
        shape, marks the entries that count (all of them by default)."""
        self._columns[name] = (values, kept)

    def report(self, suite: str, tolerances=None, details=None) -> "ResidualReport":
        """Build a report; ``tolerances`` is a float for all names or a dict."""
        residuals = []
        for name, (values, kept) in self._columns.items():
            values = np.abs(np.asarray(values, dtype=float)).reshape(-1)
            bad = ~np.isfinite(values)
            if kept is not None:
                kept = np.reshape(kept, -1)
                # an uncounted entry, made -1, never wins
                bad, values = bad & kept, np.where(kept, values, -1.0)
            if not values.size:
                continue
            i = int(np.argmax(bad)) if bad.any() else int(np.argmax(values))
            if values[i] < 0.0:  # no entry counts
                continue
            worst = float(values[i])
            point = self._points[i // (values.size // len(self._points))].tolist()
            tol = tolerances.get(name) if isinstance(tolerances, dict) else tolerances
            passed = None if tol is None else bool(worst < tol)
            residuals.append(Residual(name, worst, point, tol, passed))
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
