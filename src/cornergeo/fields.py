"""Field containers over a 3-dimensional chart.

A *field* here is a lazily evaluated map from chart points to jets (see
:mod:`cornergeo.expr`).  Every evaluation takes one point, shape ``(3,)``,
or a whole sample, shape ``(N, 3)``, and evaluates each component once
over the batch: values come back with the batch shape in front
(``values`` gives ``(N, 3)``, ``matrix`` and ``jacobian`` ``(N, 3, 3)``).
Fields built from parsed expressions carry exact value/gradient/Hessian;
fields derived from them (e.g. Christoffel symbols, frame components)
carry value/gradient.  The containers below are thin: component access
plus the handful of evaluation shapes the geometry needs (values,
Jacobians, jets), and the batched products (``mv``, ``vm``, ``dot``) that
give each row the bits of the single-point ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Jet2, ScalarExpr, as_expr, as_points, by_rows, jet_sum

__all__ = [
    "SingularMetricError",
    "as_point",
    "ChartDomain",
    "jet_partial",
    "ScalarField",
    "VectorField",
    "OneFormField",
    "TensorField11",
    "MetricField",
]

# metric regularity guard: |det g| below this counts as singular
DET_GUARD = 1e-12


class SingularMetricError(RuntimeError):
    """Metric determinant fell under the regularity guard at a point."""

    def __init__(self, point, det: float):
        super().__init__(
            f"metric is singular at {np.asarray(point).tolist()}: det = {det:.3e}"
        )
        self.point = np.asarray(point, dtype=float)
        self.det = float(det)


def as_point(p) -> np.ndarray:
    """Validate and normalize a chart point to a float array of shape (3,)."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        arr = arr.reshape(3)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"chart point has non-finite coordinates: {arr.tolist()}")
    return arr


@dataclass(frozen=True)
class ChartDomain:
    """An axis-aligned box of chart points with seeded uniform sampling."""

    bounds: tuple = ((0.1, 1.0), (0.1, 1.0), (0.1, 1.0))

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(b) != 3:
            raise ValueError("domain needs bounds for exactly three coordinates")
        for lo, hi in b:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid coordinate interval ({lo}, {hi})")
        object.__setattr__(self, "bounds", b)

    def sample(self, n: int, seed_or_rng=0) -> np.ndarray:
        """Draw ``n`` uniform points, shape (n, 3)."""
        rng = (
            seed_or_rng
            if isinstance(seed_or_rng, np.random.Generator)
            else np.random.default_rng(seed_or_rng)
        )
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return lo + (hi - lo) * rng.random((int(n), 3))


def batch_key(p) -> tuple:
    """Cache key of a point batch; non-finite coordinates raise as in :func:`as_point`."""
    x = as_points(p)
    if not np.isfinite(x).all():
        row = first_row(x, ~np.all(np.isfinite(x), axis=-1))[1]
        raise ValueError(f"chart point has non-finite coordinates: {row.tolist()}")
    return x.shape, x.tobytes()


def first_row(p, mask) -> tuple:
    """``(index, point)`` of the first True row of ``mask``, or None."""
    flat = np.reshape(mask, -1)
    if not flat.any():
        return None
    i = int(np.argmax(flat))
    return i, as_points(p).reshape(-1, 3)[i]


def jet_partial(j: Jet2, i: int) -> Jet2:
    """The i-th coordinate derivative of a jet, one order shallower."""
    if j.grad is None:
        raise ValueError("jet carries no gradient; cannot take a partial")
    return Jet2(j.grad[..., i], None if j.hess is None else j.hess[..., i, :], None)


# Batched matrix products.  Each reproduces the per-point product of a
# single point exactly: vector arguments become stacked 1-row or 1-column
# matrices, so every row goes through the same BLAS call as ``a @ b``.


def mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for matrices ``(..., 3, 3)`` and vectors ``(..., 3)``."""
    return (a @ np.asarray(x)[..., None])[..., 0]


def vm(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for vectors ``(..., 3)`` and matrices ``(..., 3, 3)``."""
    return (np.asarray(x)[..., None, :] @ a)[..., 0, :]


def dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for two vectors ``(..., 3)``."""
    return (np.asarray(x)[..., None, :] @ np.asarray(y)[..., None])[..., 0, 0]


def vnorm(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x)`` of vectors ``(..., 3)``."""
    return np.sqrt(dot(x, x))


def gnorm(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The g-length ``sqrt(max(v @ G @ v, 0.0))`` of vectors ``(..., 3)``;
    like ``max``, it lets NaN and -0.0 through."""
    sq = dot(vm(v, G), v)
    return np.sqrt(np.where(sq < 0.0, 0.0, sq))


def max_abs(m: np.ndarray) -> np.ndarray:
    """``np.max(np.abs(m))`` of each matrix of a ``(..., 3, 3)`` array."""
    return np.max(np.abs(m), axis=(-2, -1))


class ScalarField:
    """A scalar quantity on the chart, evaluated on demand as a jet."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    @classmethod
    def from_expr(cls, e) -> "ScalarField":
        expr = as_expr(e)
        return cls(lambda p: expr.eval_jet2(p))

    @classmethod
    def constant(cls, c) -> "ScalarField":
        """A field with zero derivatives; ``c`` may give one value per sample point."""
        c = np.asarray(c, dtype=float)
        return cls(lambda p: Jet2.constant(c, shape=as_points(p).shape[:-1]))

    def jet(self, p) -> Jet2:
        return self._fn(p)

    def value(self, p) -> float:
        return self._fn(p).value

    def partial(self, i: int) -> "ScalarField":
        return ScalarField(lambda p: jet_partial(self.jet(p), i))

    def __neg__(self):
        return ScalarField(lambda p: -self.jet(p))

    def __add__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: self.jet(p) + o.jet(p))

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: self.jet(p) - o.jet(p))

    def __rsub__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: o.jet(p) - self.jet(p))

    def __mul__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: self.jet(p) * o.jet(p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: self.jet(p) / o.jet(p))

    def __rtruediv__(self, other):
        o = _as_field(other)
        return ScalarField(lambda p: o.jet(p) / self.jet(p))


def _as_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    if isinstance(obj, (ScalarExpr, str)):
        return ScalarField.from_expr(obj)
    return ScalarField.constant(float(obj))


def _component_fields(entries, n: int) -> tuple:
    comps = tuple(_as_field(e) for e in entries)
    if len(comps) != n:
        raise ValueError(f"expected {n} components, got {len(comps)}")
    return comps


class _ComponentsMixin:
    """Shared evaluation helpers for rank-1 fields (vector / one-form)."""

    __slots__ = ()

    @classmethod
    def from_exprs(cls, comps):
        return cls(comps)

    def jets(self, p) -> list:
        return [c.jet(p) for c in self.components]

    def values(self, p) -> np.ndarray:
        return np.stack([c.value(p) for c in self.components], axis=-1)

    def jacobian(self, p) -> np.ndarray:
        """Matrix of partials ``J[..., k, i] = d_i comp_k``."""
        return np.stack([c.jet(p).grad for c in self.components], axis=-2)


class VectorField(_ComponentsMixin):
    __slots__ = ("components",)

    def __init__(self, components):
        self.components = _component_fields(components, 3)

    @classmethod
    def constant(cls, vec) -> "VectorField":
        """A field with constant components; ``vec`` is ``(3,)``, or ``(N, 3)``
        for one direction per sample point."""
        vec = np.asarray(vec, dtype=float)
        if vec.size == 3:
            return cls([float(v) for v in vec.reshape(3)])
        return cls([ScalarField.constant(vec[..., k]) for k in range(3)])


class OneFormField(_ComponentsMixin):
    __slots__ = ("components",)

    def __init__(self, components):
        self.components = _component_fields(components, 3)

    def pair(self, X: VectorField) -> ScalarField:
        """The scalar field theta(X)."""
        c, xc = self.components, X.components
        return c[0] * xc[0] + c[1] * xc[1] + c[2] * xc[2]


class TensorField11:
    """A (1,1)-tensor field; ``entries[k][j]`` maps input j to output k."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [_component_fields(row, 3) for row in entries]
        if len(rows) != 3:
            raise ValueError("a (1,1)-tensor field needs a 3x3 entry grid")
        self.entries = tuple(rows)

    def matrix(self, p) -> np.ndarray:
        return _matrix(self.entries, p)

    def jets(self, p) -> list:
        return [[e.jet(p) for e in row] for row in self.entries]

    def apply(self, X: VectorField) -> VectorField:
        """phi(X) as a vector field (components stay symbolic jets)."""
        rows = self.entries
        return VectorField(
            [
                rows[k][0] * X.components[0]
                + rows[k][1] * X.components[1]
                + rows[k][2] * X.components[2]
                for k in range(3)
            ]
        )


def _stack3x3(grid) -> np.ndarray:
    """A 3x3 nested list of same-shape arrays as one ``(..., 3, 3)`` array."""
    return np.stack([np.stack(row, axis=-1) for row in grid], axis=-2)


def _matrix(entries, p) -> np.ndarray:
    """Values ``M[..., k, j]`` of a 3x3 grid of scalar fields."""
    return _stack3x3([[e.value(p) for e in row] for row in entries])


class MetricField:
    """A symmetric metric field with jet-level Christoffel symbols.

    Christoffel symbols are computed through jet arithmetic, so when the
    metric entries are expression-backed the symbols carry exact first
    derivatives (used for curvature-free frame derivatives downstream).
    They are computed for a whole batch of points at once; the field keeps
    the symbols of the last batch it saw, so the suites that reuse one
    sample pay for them once.
    """

    __slots__ = ("entries", "det_guard", "_last")

    def __init__(self, entries, det_guard: float = DET_GUARD):
        rows = [_component_fields(row, 3) for row in entries]
        if len(rows) != 3:
            raise ValueError("a metric field needs a 3x3 entry grid")
        self.entries = tuple(rows)
        self.det_guard = float(det_guard)
        self._last = None  # (batch key, Christoffel jets)

    @classmethod
    def diagonal(cls, d0, d1, d2) -> "MetricField":
        zero = ScalarField.constant(0.0)
        return cls(
            [
                [_as_field(d0), zero, zero],
                [zero, _as_field(d1), zero],
                [zero, zero, _as_field(d2)],
            ]
        )

    # -- plain evaluation ---------------------------------------------------

    def matrix(self, p) -> np.ndarray:
        return _matrix(self.entries, p)

    def jets(self, p) -> list:
        return [[e.jet(p) for e in row] for row in self.entries]

    def det(self, p):
        return np.linalg.det(self.matrix(p))

    def inverse(self, p) -> np.ndarray:
        G = self.matrix(p)
        det = np.linalg.det(G)
        bad = first_row(p, np.abs(det) < self.det_guard)
        if bad is not None:
            raise SingularMetricError(bad[1], np.reshape(det, -1)[bad[0]])
        return np.linalg.inv(G)

    def norm(self, p, a):
        return gnorm(self.matrix(p), a)

    # -- Christoffel symbols ------------------------------------------------

    @by_rows
    def christoffel_jets(self, p):
        """Nested list ``Gamma[k][i][j]`` of jets (value + gradient)."""
        key = batch_key(p)
        if self._last is not None and self._last[0] == key:
            return self._last[1]

        G = self.jets(p)
        det, Ginv = _invert3_jets(G)
        bad = first_row(p, np.abs(det.value) < self.det_guard)
        if bad is not None:
            raise SingularMetricError(bad[1], np.reshape(det.value, -1)[bad[0]])

        # dg[a][i][j] = d_a g_ij, one jet order down from the metric entries
        dg = [
            [[jet_partial(G[i][j], a) for j in range(3)] for i in range(3)]
            for a in range(3)
        ]
        ginv_low = [[_drop_order(Ginv[i][j]) for j in range(3)] for i in range(3)]

        gamma = [
            [
                [
                    jet_sum(
                        ginv_low[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                        for l in range(3)
                    )
                    * 0.5
                    for j in range(3)
                ]
                for i in range(3)
            ]
            for k in range(3)
        ]

        self._last = (key, gamma)
        return gamma

    def christoffel(self, p) -> np.ndarray:
        """Values ``Gamma[..., k, i, j]`` of the Levi-Civita connection."""
        jets = self.christoffel_jets(p)
        return np.stack(
            [_stack3x3([[j.value for j in row] for row in jets[k]]) for k in range(3)],
            axis=-3,
        )

    def christoffel_partials(self, p) -> np.ndarray:
        """Partials ``dGamma[..., a, k, i, j] = d_a Gamma^k_ij``."""
        jets = self.christoffel_jets(p)
        out = np.empty(np.shape(jets[0][0][0].value) + (3, 3, 3, 3))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    out[..., :, k, i, j] = jets[k][i][j].grad
        return out

def _drop_order(j: Jet2) -> Jet2:
    """Forget the Hessian so products stay at (value, gradient) depth."""
    return Jet2(j.value, j.grad, None)


def _invert3_jets(G):
    """Determinant and inverse of a 3x3 jet matrix via the adjugate."""
    c = [[None] * 3 for _ in range(3)]  # cofactors
    idx = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        r = idx[i]
        for j in range(3):
            s = idx[j]
            minor = G[r[0]][s[0]] * G[r[1]][s[1]] - G[r[0]][s[1]] * G[r[1]][s[0]]
            c[i][j] = minor if (i + j) % 2 == 0 else -minor
    det = G[0][0] * c[0][0] + G[0][1] * c[0][1] + G[0][2] * c[0][2]
    inv = [[c[j][i] / det for j in range(3)] for i in range(3)]
    return det, inv
