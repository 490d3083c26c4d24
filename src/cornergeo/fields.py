"""Field containers over a 3-dimensional chart.

A *field* here is a lazily evaluated map from chart points to one jet (see
:mod:`cornergeo.expr`).  Every evaluation takes one point, shape ``(3,)``,
or a whole sample, shape ``(N, 3)``.  The jet puts the field's component
axes first and the sample axes after them: ``jets`` gives ``(3, N)`` for
a vector field or one-form, ``(3, 3, N)`` for a (1,1)-tensor or metric,
and ``christoffel_jets`` ``(3, 3, 3, N)``.  So ``jets(p)[k]`` is the jet
of component k, and tensor algebra is jet arithmetic with broadcasting.
The plain arrays keep the sample axis first, in contiguous memory
(``values`` gives ``(N, 3)``, ``matrix`` and ``jacobian`` ``(N, 3, 3)``,
``christoffel`` ``(N, 3, 3, 3)``), and the batched products (``mv``,
``vm``, ``dot``) give each row the bits of the single-point ``@``.

Every field, a :class:`ScalarField` included, is one function of the
points that returns its whole jet.  A vector, one-form, tensor or metric
field may be given instead by a grid of entries (scalar fields,
expressions or their source text, numbers), and its function stacks their
jets.  Either way a field is evaluated once per sample: it keeps the jet
of the last batch of points it was asked for (see :func:`last_batch`)
until it is asked for another, and every accessor reads that jet.
Fields built from parsed expressions carry exact value/gradient/Hessian;
fields derived from them (e.g. Christoffel symbols, frame components)
carry value/gradient.
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .expr import Jet2, PointError, as_expr, as_points, jet_sum, require, skipping

__all__ = [
    "SingularMetricError",
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


class SingularMetricError(PointError, RuntimeError):
    """Metric determinant fell under the regularity guard at a point."""

    template = "metric is singular at {point}: det = {value:.3e}"
    det = property(lambda self: self.value)


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
        """Draw ``n`` uniform points, shape (n, 3); ``default_rng`` hands a
        Generator back unchanged, so its draws continue."""
        rng = np.random.default_rng(seed_or_rng)
        lo = np.array([b[0] for b in self.bounds])
        hi = np.array([b[1] for b in self.bounds])
        return lo + (hi - lo) * rng.random((int(n), 3))


def batch_key(p) -> tuple:
    """Cache key of a point batch; non-finite coordinates raise a ValueError."""
    x = as_points(p)
    if not np.isfinite(x).all():
        require(x, ~np.all(np.isfinite(x), axis=-1),
                lambda row: ValueError(f"chart point has non-finite coordinates: {row.tolist()}"))
    return x.shape, x.tobytes()


def last_batch(fn, owner=None):
    """``fn(p)``, remembering its last result: called again on equal points
    (by :func:`batch_key`) it hands that result back without calling ``fn``.
    Every array in it is made read-only (see :func:`_frozen`), so no caller
    can change later reads.  It fails as a point-by-point loop would (see
    :func:`cornergeo.expr.skipping`).
    With an ``owner``, ``fn`` is a method called on a weak proxy of it, so
    the owner can keep the memo without a reference cycle."""
    if owner is not None:
        fn = functools.partial(fn, weakref.proxy(owner))
    key = result = None

    def memo(p):
        nonlocal key, result
        k = batch_key(p)
        if k != key:
            result = _frozen(skipping(fn, p)[1])
            key = k
        return result

    return memo


def _frozen(x):
    """``x``, with every ndarray in it made read-only: ``x`` itself, or the
    arrays of a jet, or of the attributes of a namespace or a dataclass."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, Jet2):
        for part in (x.value, x.grad, x.hess):
            _frozen(part)
    elif isinstance(x, SimpleNamespace) or dataclasses.is_dataclass(x):
        for part in vars(x).values():
            _frozen(part)
    return x


def jet_partial(j: Jet2, i: int) -> Jet2:
    """The i-th coordinate derivative of a jet, one order shallower."""
    if j.grad is None:
        raise ValueError("jet carries no gradient; cannot take a partial")
    return Jet2(j.grad[..., i], None if j.hess is None else j.hess[..., i, :], None)


def jet_partials(j: Jet2) -> Jet2:
    """All three coordinate derivatives of a jet on a new leading axis
    (``[a]`` is d_a), one order shallower."""
    if j.grad is None:
        raise ValueError("jet carries no gradient; cannot take a partial")
    h = None if j.hess is None else j.hess.transpose(-2, *range(j.hess.ndim - 2), -1)
    return Jet2(j.grad.transpose(-1, *range(j.grad.ndim - 1)), h)


def batch_first(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` with its ``n`` leading component axes moved behind the sample
    axes, in contiguous memory: the layout ``@`` and ``einsum`` get.  The
    result is read-only, like the memoized jet it may be a view of."""
    out = np.ascontiguousarray(a.transpose(*range(n, a.ndim), *range(n)))
    out.setflags(write=False)
    return out


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


def contract(a: Jet2, b: Jet2) -> Jet2:
    """The product ``a * b``, broadcast over the component axes, summed over
    its second axis left to right: ``M x`` for a matrix ``M`` and a vector ``x``."""
    prod = a * b
    return jet_sum(prod[:, j] for j in range(3))


def first_order(j: Jet2) -> Jet2:
    """The jet without its Hessian, for products whose Hessian nothing reads."""
    return Jet2(j.value, j.grad)


def _half_product_sum(pairs) -> Jet2:
    """``jet_sum(a * t for a, t in pairs) * 0.5`` for jets ``a`` without a
    Hessian, bit for bit: the floating point operations of :class:`Jet2`'s
    product, sum and product by the constant 0.5, in the same order, with
    the same orders kept, but accumulated in place, so that no more than
    three gradient-sized arrays are alive at once."""
    value = grad = None
    for a, t in pairs:
        g = None
        if a.grad is not None and t.grad is not None:
            g = a.grad * t.value[..., None]
            g += a.value[..., None] * t.grad
        if value is None:
            value, grad = a.value * t.value, g
        else:
            value += a.value * t.value
            if grad is not None:
                grad += g
        del t, g  # freed before the next term is built
    if grad is not None:
        grad *= 0.5
        grad += (value * 0.0)[..., None]
    value *= 0.5
    return Jet2(value, grad)


def _grid_jets(grid, rank: int, kind: str):
    """The jet function of a rank-1 or rank-2 field given by a grid of entries
    (scalar fields, expressions or their source text, numbers), rows first:
    the entries' jets stacked on the leading component axes."""
    fns = []
    for row in [grid] if rank == 1 else grid:
        row = [e.jet if isinstance(e, ScalarField) else as_expr(e).eval_jet2 for e in row]
        if len(row) != 3:
            raise ValueError(f"expected 3 components, got {len(row)}")
        fns += row
    if len(fns) != 3**rank:
        raise ValueError(f"a {kind} needs a 3x3 entry grid")
    return lambda p: Jet2.stack((fn(p) for fn in fns), (3,) * rank)


class _Field:
    """A field: one function from points to its whole jet (component axes
    first), memoized for the last batch of points.  A field of rank 1 or 2
    may be given by a grid of entries instead (see :func:`_grid_jets`);
    ``components`` and indexing slice its jet into component fields, and for
    rank 2 into rows."""

    __slots__ = ("_fn",)
    _rank, _kind = 0, ""

    def __init__(self, fn):
        self._fn = last_batch(fn if callable(fn) else _grid_jets(fn, self._rank, self._kind))

    @property
    def components(self) -> tuple:
        return tuple(self[k] for k in range(3))

    def __getitem__(self, k):
        if not self._rank:
            raise TypeError("a scalar field has no components")
        k = range(3)[k]  # out of range raises IndexError, which also ends iteration
        return (ScalarField if self._rank == 1 else OneFormField)(lambda p: self.jets(p)[k])


class ScalarField(_Field):
    """A scalar quantity on the chart, the field of rank 0."""

    __slots__ = ()

    def jet(self, p) -> Jet2:
        return self._fn(p)

    def value(self, p):
        return self._fn(p).value

    def partial(self, i: int) -> "ScalarField":
        return ScalarField(lambda p: jet_partial(self.jet(p), i))


class _ComponentsMixin(_Field):
    """Shared evaluation helpers for rank-1 fields (vector / one-form)."""

    __slots__ = ()
    _rank = 1

    def jets(self, p) -> Jet2:
        return self._fn(p)

    def values(self, p) -> np.ndarray:
        return batch_first(self.jets(p).value, 1)

    def jacobian(self, p) -> np.ndarray:
        """Matrix of partials ``J[..., k, i] = d_i comp_k``."""
        g = self.jets(p).grad
        return batch_first(g.transpose(0, -1, *range(1, g.ndim - 1)), 2)


class VectorField(_ComponentsMixin):
    __slots__ = ()

    @classmethod
    def constant(cls, vec) -> "VectorField":
        """A field with constant components; ``vec`` is ``(3,)``, or ``(N, 3)``
        for one direction per sample point."""
        vec = np.array(vec, dtype=float)  # a copy, which no later write of the caller reaches
        vec = vec.reshape(3) if vec.size == 3 else vec
        return cls(lambda p: Jet2.constant(
            np.moveaxis(np.broadcast_to(vec, as_points(p).shape[:-1] + (3,)), -1, 0)))


class OneFormField(_ComponentsMixin):
    __slots__ = ()

    def pair(self, X: VectorField) -> ScalarField:
        """The scalar field theta(X)."""
        return ScalarField(lambda p: jet_sum(first_order(self.jets(p)) * X.jets(p)))


class TensorField11(_Field):
    """A (1,1)-tensor field; component ``[k, j]`` maps input j to output k."""

    __slots__ = ()
    _rank, _kind = 2, "(1,1)-tensor field"

    def matrix(self, p) -> np.ndarray:
        return batch_first(self.jets(p).value, 2)

    def jets(self, p) -> Jet2:
        return self._fn(p)

    def apply(self, X: VectorField) -> VectorField:
        """phi(X) as a vector field."""
        return VectorField(lambda p: contract(first_order(self.jets(p)), X.jets(p)))


# cofactor (i, j) of a 3x3 matrix: the minor of rows (_R0[i], _R1[i]) and
# columns (_R0[j], _R1[j]), with sign (-1)^(i + j)
_R0, _R1 = np.array([1, 0, 0]), np.array([2, 2, 1])
_COFACTOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def _check_det(p, det) -> None:
    """Raise a :class:`SingularMetricError` at the first point where |det g| < DET_GUARD."""
    require(p, np.abs(det) < DET_GUARD, SingularMetricError, det)


class MetricField(_Field):
    """A symmetric metric field with jet-level Christoffel symbols.

    Christoffel symbols are computed through jet arithmetic, so when the
    metric entries are expression-backed the symbols carry exact first
    derivatives (used for curvature-free frame derivatives downstream).
    They are computed for a whole batch of points at once and memoized like
    the metric itself (see :func:`last_batch`), so the suites that reuse one
    sample pay for them once.
    """

    __slots__ = ("_gamma", "__weakref__")
    _rank, _kind = 2, "metric field"

    def __init__(self, entries):
        super().__init__(entries)
        self._gamma = last_batch(type(self)._christoffel, self)

    # -- plain evaluation ---------------------------------------------------

    def matrix(self, p) -> np.ndarray:
        return batch_first(self.jets(p).value, 2)

    def jets(self, p) -> Jet2:
        return self._fn(p)

    def det(self, p):
        return np.linalg.det(self.matrix(p))

    def inverse(self, p) -> np.ndarray:
        G = self.matrix(p)
        _check_det(p, np.linalg.det(G))
        return np.linalg.inv(G)

    def norm(self, p, a):
        return gnorm(self.matrix(p), a)

    # -- Christoffel symbols ------------------------------------------------

    def christoffel_jets(self, p) -> Jet2:
        """The jet (value + gradient) of ``Gamma[k, i, j]``."""
        return self._gamma(p)

    def _christoffel(self, p) -> Jet2:
        G = self.jets(p)
        g = first_order(G)
        r0, r1 = _R0[:, None], _R1[:, None]
        cof = g[r0, _R0] * g[r1, _R1] - g[r0, _R1] * g[r1, _R0]
        # the minors times their signs, in place: multiplying the arrays by
        # +-1 is exact; a jet product would add value * 0 terms, which can
        # turn a -0.0 gradient entry into +0.0
        sign = _COFACTOR_SIGN.reshape((3, 3) + (1,) * (np.ndim(cof.value) - 2))
        cof.value *= sign
        cof.grad *= sign[..., None]
        det = jet_sum(g[0] * cof[0])
        _check_det(p, det.value)  # before the division, which a det of 0 would fail
        ginv = cof.transpose(1, 0) / det
        del cof  # freed before the products below, where the memory peaks

        # Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2, with D[a, i, j] = d_a g_ij
        D = jet_partials(G)
        return _half_product_sum(
            (ginv[:, l, None, None], D[:, :, l] + D[:, :, l].transpose(1, 0) - D[l])
            for l in range(3)
        )

    def christoffel(self, p) -> np.ndarray:
        """Values ``Gamma[..., k, i, j]`` of the Levi-Civita connection."""
        return batch_first(self.christoffel_jets(p).value, 3)
