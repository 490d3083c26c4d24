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

The fields are the phi, xi, eta and g of a structure.  Each is one
function of the points that returns its whole jet, or is given by a grid
of entries (expressions or their source text, numbers) whose jets its
function stacks.  Either way a field is evaluated once per sample: it keeps
the jet of the last batch of points it was asked for (see
:func:`last_batch`) until it is asked for another, and every accessor reads
that jet.  Any other quantity, such as a direction, a one-form or the
fundamental form, is a jet or an array.  Fields built from parsed
expressions carry exact value/gradient/Hessian; fields derived from them
(e.g. a twin's or a deformation's) carry value/gradient.
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
    "NonPositiveMetricError",
    "ChartDomain",
    "jet_partial",
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


class NonPositiveMetricError(SingularMetricError):
    """The metric is regular but not positive definite at a point."""

    template = "metric is not positive definite at {point}: det = {value:.3e}"


@dataclass(frozen=True)
class ChartDomain:
    """An axis-aligned box of chart points with seeded uniform sampling."""

    bounds: tuple = ((0.1, 1.0), (0.1, 1.0), (0.1, 1.0))

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(b) != 3:
            raise ValueError("domain needs bounds for exactly three coordinates")
        for lo, hi in b:
            # a finite width keeps sampled points finite, and implies finite bounds
            if not (lo < hi and np.isfinite(hi - lo)):
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


def vector_jets(X, p) -> Jet2:
    """The jet at ``p`` of a direction: a vector field or one-form, a jet (as
    it is), or components ``(3,)`` or ``(N, 3)`` taken as a constant direction."""
    if isinstance(X, Jet2):
        return X
    if isinstance(X, _ComponentsMixin):
        return X.jets(p)
    vec = np.asarray(X, dtype=float)
    vec = vec.reshape(3) if vec.size == 3 else vec
    return Jet2.constant(np.moveaxis(np.broadcast_to(vec, as_points(p).shape[:-1] + (3,)), -1, 0))


def jet_jacobian(j: Jet2) -> np.ndarray:
    """Matrix of partials ``J[..., k, i] = d_i comp_k`` of a vector jet ``j``."""
    g = j.grad
    return batch_first(g.transpose(0, -1, *range(1, g.ndim - 1)), 2)


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
    (expressions or their source text, numbers), rows first: the entries'
    jets stacked on the leading component axes."""
    fns = []
    for row in [grid] if rank == 1 else grid:
        row = [as_expr(e).eval_jet2 for e in row]
        if len(row) != 3:
            raise ValueError(f"expected 3 components, got {len(row)}")
        fns += row
    if len(fns) != 3**rank:
        raise ValueError(f"a {kind} needs a 3x3 entry grid")
    return lambda p: Jet2.stack((fn(p) for fn in fns), (3,) * rank)


class _Field:
    """A field: one function from points to its whole jet (component axes
    first), memoized for the last batch of points, or a grid of entries
    (see :func:`_grid_jets`)."""

    __slots__ = ("_fn",)
    _rank, _kind = 1, ""

    def __init__(self, fn):
        self._fn = last_batch(fn if callable(fn) else _grid_jets(fn, self._rank, self._kind))


class _ComponentsMixin(_Field):
    """Shared evaluation helpers for rank-1 fields (vector / one-form)."""

    __slots__ = ()

    def jets(self, p) -> Jet2:
        return self._fn(p)

    def values(self, p) -> np.ndarray:
        return batch_first(self.jets(p).value, 1)

    def jacobian(self, p) -> np.ndarray:
        """Matrix of partials ``J[..., k, i] = d_i comp_k``."""
        return jet_jacobian(self.jets(p))


class VectorField(_ComponentsMixin):
    __slots__ = ()


class OneFormField(_ComponentsMixin):
    __slots__ = ()


class TensorField11(_Field):
    """A (1,1)-tensor field; component ``[k, j]`` maps input j to output k."""

    __slots__ = ()
    _rank, _kind = 2, "(1,1)-tensor field"

    def matrix(self, p) -> np.ndarray:
        return batch_first(self.jets(p).value, 2)

    def jets(self, p) -> Jet2:
        return self._fn(p)


# cofactor (i, j) of a 3x3 matrix: the minor of rows (_R0[i], _R1[i]) and
# columns (_R0[j], _R1[j]), with sign (-1)^(i + j)
_R0, _R1 = np.array([1, 0, 0]), np.array([2, 2, 1])
_COFACTOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def _check_det(p, g, det) -> None:
    """Raise at the first point where g, its values ``g`` with the component
    axes first, is not a Riemannian metric: a :class:`SingularMetricError`
    where |det g| < DET_GUARD, else a :class:`NonPositiveMetricError` where
    a leading principal minor is not positive.  A NaN fails neither test."""
    singular = np.abs(det) < DET_GUARD
    indefinite = (g[0, 0] <= 0.0) | (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] <= 0.0) | (det <= 0.0)
    require(p, singular | indefinite, lambda q, d, s: (
        SingularMetricError if s else NonPositiveMetricError)(q, d), det, singular)


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

    def inverse(self, p) -> np.ndarray:
        G = self.matrix(p)
        _check_det(p, self.jets(p).value, np.linalg.det(G))
        return np.linalg.inv(G)

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
        _check_det(p, G.value, det.value)  # before the division, which a det of 0 would fail
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
