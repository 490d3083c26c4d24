"""Scalar expression language and second-order jet arithmetic.

Structure data (metric coefficients, frame components, deformation factors)
enters the package as small closed-form expressions in the chart coordinates
``x1, x2, x3``.  Rather than differentiate those expressions symbolically or
by finite differences, everything is evaluated as a *jet*: value, gradient
and Hessian propagated together through exact arithmetic rules.  Quantities
derived from first derivatives of the metric (Christoffel symbols, the frame
one-forms, ...) then still carry exact gradients one order down, which is all
the corner-structure identities ever need.

Grammar accepted by :func:`parse`::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' factor)?
    atom    := NUMBER | 'x1' | 'x2' | 'x3' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'exp' | 'ln' | 'sin' | 'cos' | 'sqrt' | 'abs'

``^`` is right-associative and binds tighter than unary minus, so ``-x1^2``
means ``-(x1^2)``.  Numbers are decimal with optional exponent; one too
large for a float is infinite, and an infinite constant prints as ``1e999``.
Constant subexpressions are folded at parse time, except one that leaves a
domain or whose value is NaN.  So an exponent written as a constant
(``x1^-2``, ``x1^(1/2)``) is a literal, and a power with a literal exponent
is libm's ``pow``: integer powers of a negative base are defined.  Any other
exponent b gives exp(b ln a), which needs a > 0.  A tree, or a nesting,
deeper than :data:`MAX_DEPTH` is refused.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "AbsAtZeroWarning",
    "PointError",
    "Jet2",
    "jet_exp",
    "jet_log",
    "jet_sin",
    "jet_cos",
    "jet_sqrt",
    "jet_abs",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ScalarExpr",
    "parse",
    "as_expr",
    "to_str",
    "row_texts",
]


class ParseError(ValueError):
    """Expression text could not be parsed; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """An evaluation left the domain of a primitive (ln, sqrt, /, ^).

    ``subexpr`` is the source text of the offending subexpression when the
    evaluation came from a parsed expression.  It is None for raw jet
    arithmetic, and for a node that holds a coefficient column or a
    :class:`Rows` node, which has no source text (see :func:`_has_text`).
    """

    def __init__(self, message: str, subexpr: str | None = None):
        super().__init__(message)
        self.message = message
        self.subexpr = subexpr

    def __str__(self) -> str:
        return self.message if self.subexpr is None else f"{self.message} in '{self.subexpr}'"


class AbsAtZeroWarning(RuntimeWarning):
    """abs() was differentiated at zero; the derivative was taken to be 0."""


class PointError(Exception):
    """A quantity is undefined at one chart point: the message is the class's
    ``template`` filled in with that ``point`` and the ``value`` there."""

    template = "{point}: {value}"

    def __init__(self, point, value: float):
        super().__init__(self.template.format(point=np.asarray(point).tolist(), value=value))
        self.point = np.asarray(point, dtype=float)
        self.value = float(value)


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

# elementwise libm pow: np.power rounds differently from Python's float pow
_POW = np.frompyfunc(pow, 2, 1)
# errors whose cause is one chart point; see :func:`skipping`
_POINT_ERRORS = (ArithmeticError, ValueError, PointError)


def as_points(p) -> np.ndarray:
    """A float array of chart points: shape (3,) for one point, (..., 3) for a batch."""
    x = np.asarray(p, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        x = x.reshape(3)
    return x


def require(p, bad, error, *values) -> None:
    """Raise ``error(point, *values at that point)`` at the first point of the
    points ``p``, in C order, where the mask ``bad`` holds; ``bad`` and each
    of ``values`` hold one entry per point."""
    flat = np.reshape(bad, -1)
    if flat.any():
        i = int(np.argmax(flat))
        raise error(as_points(p).reshape(-1, 3)[i], *(np.reshape(v, -1)[i] for v in values))


def by_rows(fn):
    """``fn`` failing like a point-by-point loop (see :func:`skipping`) in its
    argument called ``points``, or else in its second argument."""
    names = list(inspect.signature(fn).parameters)
    at = names.index("points") if "points" in names else 1

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if "points" in kwargs:
            points = kwargs.pop("points")
            return skipping(lambda q: fn(*args, points=q, **kwargs), points)[1]
        return skipping(lambda q: fn(*args[:at], q, *args[at + 1 :], **kwargs), args[at])[1]

    return wrapper


def skipping(fn, points, error=()) -> tuple:
    """``(kept, fn(points[..., kept, :]))``: ``fn`` over the sample indices of
    the points ``(3,)``, ``(N, 3)`` or ``(M, N, 3)`` at which it does not
    raise ``error`` (the result is None when it raises at every one).

    The batch is tried first.  If it fails, it is replayed one sample index
    at a time (for every member at once), in sample order: those raising
    ``error`` are left out, and any other error propagates from the first
    index that raises it, as it would from a point-by-point loop."""
    x = np.reshape(points, (-1, 3)) if np.ndim(points) < 2 else np.asarray(points)
    kept = np.ones(x.shape[-2], dtype=bool)
    try:
        return kept, fn(points)
    except _POINT_ERRORS:
        for n in range(len(kept)):
            try:
                fn(x[..., n : n + 1, :])
            except error:
                kept[n] = False
        if kept.all():
            raise
    return kept, fn(x[..., kept, :]) if kept.any() else None


def jet_sum(terms):
    """``t0 + t1 + ...`` added left to right, with no leading zero."""
    return functools.reduce(operator.add, terms)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer`` of each row of two ``(..., 3)`` arrays."""
    return a[..., :, None] * b[..., None, :]


class Jet2:
    """Truncated Taylor data (value, gradient, Hessian) over a batch of chart points.

    ``value`` has the jet's shape: its component axes first, the sample
    axes after them.  A scalar at one point has shape ``()``, at a sample
    of N points ``(N,)``; a vector field over the sample has ``(3, N)``, a
    (1,1)-tensor ``(3, 3, N)``, the Christoffel symbols ``(3, 3, 3, N)``.
    ``grad`` adds one trailing axis of length 3 and ``hess`` two.  So
    ``jet[k]`` is the jet of component k, a jet iterates over its first
    component axis, and arithmetic broadcasts a per-point scalar over the
    components.  Every rule below acts element by element with the same
    floating point operations whatever the shape, so row n of a batch
    equals the jet of point n alone, bit for bit, and component k of a
    tensor jet equals the jet computed for that component alone.

    ``grad`` and ``hess`` may be None, meaning "not tracked to that order":
    arithmetic propagates exactly the orders present in *both* operands, so
    a quantity built from first derivatives of exact jets automatically
    carries an exact gradient and no Hessian.  The invariant ``hess is not
    None implies grad is not None`` is maintained throughout.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        value = np.asarray(value, dtype=float)
        self.value = value[()] if value.ndim == 0 else value
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @classmethod
    def constant(cls, value, order: int = 2) -> "Jet2":
        value = np.asarray(value, dtype=float)
        g = np.zeros(value.shape + (3,)) if order >= 1 else None
        h = np.zeros(value.shape + (3, 3)) if order >= 2 else None
        return cls(value, g, h)

    @classmethod
    def variable(cls, index: int, value, order: int = 2) -> "Jet2":
        if index not in (0, 1, 2):
            raise IndexError(f"coordinate index out of range: {index}")
        shape = np.shape(value)
        g = None
        if order >= 1:
            g = np.zeros(shape + (3,))
            g[..., index] = 1.0
        h = np.zeros(shape + (3, 3)) if order >= 2 else None
        return cls(value, g, h)

    def broadcast(self, shape) -> "Jet2":
        """The same jet repeated over the batch shape ``shape``."""
        if np.shape(self.value) == tuple(shape):
            return self
        return Jet2(
            np.broadcast_to(self.value, shape),
            None if self.grad is None else np.broadcast_to(self.grad, tuple(shape) + (3,)),
            None if self.hess is None else np.broadcast_to(self.hess, tuple(shape) + (3, 3)),
        )

    @classmethod
    def stack(cls, jets, shape=(3,)) -> "Jet2":
        """The jets, all of one shape, on new leading component axes of shape
        ``shape``; an order is kept only if every jet carries it."""
        jets = list(jets)

        def stacked(arrays):
            a = np.array(arrays, dtype=float)
            return a.reshape(tuple(shape) + a.shape[1:])

        g = h = None
        if all(j.grad is not None for j in jets):
            g = stacked([j.grad for j in jets])
            if all(j.hess is not None for j in jets):
                h = stacked([j.hess for j in jets])
        return cls(stacked([j.value for j in jets]), g, h)

    def transpose(self, *axes) -> "Jet2":
        """The jet with its leading component axes permuted as by ``np.transpose``."""

        def permute(a):
            return None if a is None else np.transpose(a, axes + tuple(range(len(axes), a.ndim)))

        return Jet2(permute(self.value), permute(self.grad), permute(self.hess))

    def __getitem__(self, index) -> "Jet2":
        """Part of the jet, indexed on its leading axes: ``jet[k]`` is component
        k of a tensor jet, ``jet[n]`` point n of a scalar one."""
        return Jet2(
            self.value[index],
            None if self.grad is None else self.grad[index],
            None if self.hess is None else self.hess[index],
        )

    def __repr__(self) -> str:
        depth = 0 if self.grad is None else (1 if self.hess is None else 2)
        return f"Jet2({self.value!r}, depth={depth})"

    # -- ring operations ----------------------------------------------------

    def __neg__(self) -> "Jet2":
        return Jet2(
            -self.value,
            None if self.grad is None else -self.grad,
            None if self.hess is None else -self.hess,
        )

    def __add__(self, other) -> "Jet2":
        o = _lift(other)
        g = h = None
        if self.grad is not None and o.grad is not None:
            g = self.grad + o.grad
            if self.hess is not None and o.hess is not None:
                h = self.hess + o.hess
        return Jet2(self.value + o.value, g, h)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        return self + (-_lift(other))

    def __rsub__(self, other) -> "Jet2":
        return (-self) + _lift(other)

    def __mul__(self, other) -> "Jet2":
        o = _lift(other)
        g = h = None
        if self.grad is not None and o.grad is not None:
            g = self.grad * o.value[..., None] + self.value[..., None] * o.grad
            if self.hess is not None and o.hess is not None:
                cross = outer(self.grad, o.grad)
                h = (
                    self.hess * o.value[..., None, None]
                    + self.value[..., None, None] * o.hess
                    + cross
                    + np.swapaxes(cross, -1, -2)
                )
        return Jet2(self.value * o.value, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        o = _lift(other)
        if np.any(o.value == 0.0):
            raise EvalDomainError("division by zero")
        v = self.value / o.value
        g = h = None
        if self.grad is not None and o.grad is not None:
            g = (self.grad - v[..., None] * o.grad) / o.value[..., None]
            if self.hess is not None and o.hess is not None:
                cross = outer(g, o.grad)
                h = (
                    self.hess - v[..., None, None] * o.hess - cross - np.swapaxes(cross, -1, -2)
                ) / o.value[..., None, None]
        return Jet2(v, g, h)

    def __rtruediv__(self, other) -> "Jet2":
        return _lift(other) / self

    def __pow__(self, other) -> "Jet2":
        """``self ** other``: a number exponent c is libm's ``pow`` (see
        :func:`_pow_const`); a jet exponent b gives exp(b ln a), which needs a
        positive base a at every point."""
        if not isinstance(other, Jet2):
            return _pow_const(self, float(other))
        if np.any(self.value <= 0.0):
            raise EvalDomainError("power with a non-literal exponent requires a positive base")
        return jet_exp(other * jet_log(self))


def _lift(value) -> Jet2:
    if isinstance(value, Jet2):
        return value
    return Jet2.constant(value)


def _pow_const(a: Jet2, c: float) -> Jet2:
    if c == 0.0:
        shape = np.shape(a.value)
        return Jet2(
            np.ones(shape),
            None if a.grad is None else np.zeros(shape + (3,)),
            None if a.hess is None else np.zeros(shape + (3, 3)),
        )
    if c == 1.0:
        return Jet2(a.value, a.grad, a.hess)
    v0 = np.asarray(a.value)
    zero = v0 == 0.0
    # per point, in sample order: a zero base, then a negative one
    bad_zero = zero & (not (c.is_integer() and c >= 2))
    bad = np.reshape(bad_zero | ((v0 < 0.0) & (not c.is_integer())), -1)
    if bad.any():
        if np.reshape(bad_zero, -1)[np.argmax(bad)]:
            raise EvalDomainError("zero raised to a negative or fractional power")
        raise EvalDomainError("negative base with fractional exponent")
    v = _pow(v0, c)
    f1 = c * _pow(v0, c - 1.0)
    f2 = c * (c - 1.0) * _pow(v0, c - 2.0)
    if zero.any():
        v = np.where(zero, 0.0, v)
        f1 = np.where(zero, 0.0, f1)
        f2 = np.where(zero, 2.0 if c == 2.0 else 0.0, f2)
    return _chain(a, v, f1, f2)


def _pow(base: np.ndarray, c: float) -> np.ndarray:
    if c == 1.0 or c == 0.0:
        # pow(x, 1) is x and pow(x, 0) is 1, exactly, for every x, signed
        # zeros, infinities and NaN included (C99 Annex F; Python returns 1.0
        # for a zero exponent before it calls libm)
        return np.array(base, dtype=float) if c else np.ones(np.shape(base))
    try:
        return np.asarray(_POW(base, c), dtype=float)
    except OverflowError:
        raise EvalDomainError("power overflows the float range") from None


def _chain(a: Jet2, v, f1, f2) -> Jet2:
    """Push the jet ``a`` through a scalar map with derivatives f1, f2 at a.value."""
    f1, f2 = np.asarray(f1)[..., None], np.asarray(f2)[..., None, None]
    g = h = None
    if a.grad is not None:
        g = f1 * a.grad
        if a.hess is not None:
            h = f1[..., None] * a.hess + f2 * outer(a.grad, a.grad)
    return Jet2(v, g, h)


def jet_exp(a: Jet2) -> Jet2:
    v = np.exp(a.value)
    return _chain(a, v, v, v)


def jet_log(a: Jet2) -> Jet2:
    if np.any(a.value <= 0.0):
        raise EvalDomainError("ln of a non-positive value")
    v0 = a.value
    return _chain(a, np.log(v0), 1.0 / v0, -1.0 / (v0 * v0))


def jet_sin(a: Jet2) -> Jet2:
    return _chain(a, np.sin(a.value), np.cos(a.value), -np.sin(a.value))


def jet_cos(a: Jet2) -> Jet2:
    return _chain(a, np.cos(a.value), -np.sin(a.value), -np.cos(a.value))


def jet_sqrt(a: Jet2) -> Jet2:
    if np.any(a.value <= 0.0):
        raise EvalDomainError("sqrt of a non-positive value")
    s = np.sqrt(a.value)
    return _chain(a, s, 0.5 / s, -0.25 / (s * a.value))


def jet_abs(a: Jet2) -> Jet2:
    v = a.value
    zero = v == 0.0
    if np.any(zero):
        warnings.warn(
            "abs differentiated at zero; derivative taken as 0",
            AbsAtZeroWarning,
            stacklevel=2,
        )
    sign = np.where(zero, 0.0, np.where(v > 0.0, 1.0, -1.0))
    return _chain(a, np.abs(v), sign, 0.0)


_FUNCTIONS: dict[str, Callable[[Jet2], Jet2]] = {
    "exp": jet_exp,
    "ln": jet_log,
    "sin": jet_sin,
    "cos": jet_cos,
    "sqrt": jet_sqrt,
    "abs": jet_abs,
}


# ---------------------------------------------------------------------------
# syntax tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; prints as x1/x2/x3


@dataclass(frozen=True)
class Unary:
    op: str  # only '-'
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Node"


Node = Union[Const, Var, Unary, Binary, Call]

# precedence levels of the printer and the parser
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


class _Op(NamedTuple):
    level: int
    jet: Callable  # the rule on jets, through Jet2's operators


# the binary operators: everything the printer, the parser and evaluation
# know of them
_OPS = {
    "+": _Op(_LEVEL_ADD, operator.add),
    "-": _Op(_LEVEL_ADD, operator.sub),
    "*": _Op(_LEVEL_MUL, operator.mul),
    "/": _Op(_LEVEL_MUL, operator.truediv),
    "^": _Op(_LEVEL_POW, operator.pow),
}


def _fmt_number(v: float) -> str:
    if math.isinf(v):
        return "-1e999" if v < 0 else "1e999"  # parse reads these back as +-inf
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _binary_text(node: Binary) -> tuple:
    if node.op == "^":  # the base must be an atom, the exponent may be any factor
        return f"{_wrap(node.left, _LEVEL_ATOM)}^{_wrap(node.right, _LEVEL_UNARY)}", _LEVEL_POW
    level = _OPS[node.op].level  # left-associative: the right operand binds tighter
    op = f" {node.op} " if level == _LEVEL_ADD else node.op
    return f"{_wrap(node.left, level)}{op}{_wrap(node.right, level + 1)}", level


def _const_text(v: float) -> tuple:
    # a negative literal renders with a leading '-', so it parenthesizes like a unary node
    return _fmt_number(v), _LEVEL_UNARY if v < 0 else _LEVEL_ATOM


# each node type's source text and precedence level
_TEXT = {
    Const: lambda n: _const_text(n.value),
    Var: lambda n: (f"x{n.index + 1}", _LEVEL_ATOM),
    Call: lambda n: (f"{n.name}({to_str(n.arg)})", _LEVEL_ATOM),
    Unary: lambda n: ("-" + _wrap(n.arg, _LEVEL_UNARY), _LEVEL_UNARY),
    Binary: _binary_text,
}


def to_str(node: Node) -> str:
    """Render a node back to source text; parse(to_str(n)) rebuilds n.  A
    coefficient column (an ``(M, 1)`` constant) renders as a slot ``{:L}``, L
    the level it stands at, which :func:`row_texts` fills; ``Rows`` has none."""
    return _wrap(node, 0)


def _wrap(node: Node, min_level: int) -> str:
    if type(node) is Const and np.ndim(node.value):
        return f"{{:{min_level}}}"
    return _parenthesized(*_TEXT[type(node)](node), min_level)


def _parenthesized(text: str, level: int, min_level: int) -> str:
    return f"({text})" if level < min_level else text


class _Coefficient(float):
    """A coefficient in a slot of :func:`to_str`: formatted at the slot's
    level as the printer writes a ``Const`` of its value at that level."""

    def __format__(self, min_level: str) -> str:
        return _parenthesized(*_const_text(float(self)), int(min_level))


def row_texts(node: Node) -> list:
    """The text of each row of a tree with coefficient columns and no
    ``Rows`` node: ``to_str`` of the tree with that row's coefficients.  The
    tree is printed once, and each row's coefficients fill its slots."""
    template = to_str(node)
    rows = np.hstack(list(_columns(node))).tolist()
    return [template.format(*map(_Coefficient, row)) for row in rows]


def _kids(node) -> tuple:
    """The operands of a node, in the order the printer and a walk take them."""
    if isinstance(node, (Unary, Call)):
        return (node.arg,)
    return (node.left, node.right) if isinstance(node, Binary) else ()


def _columns(node: Node):
    """The coefficient columns of a stacked tree, in the order ``to_str`` prints them."""
    if isinstance(node, Const) and np.ndim(node.value):
        yield node.value
    for kid in _kids(node):
        yield from _columns(kid)


def _has_text(node) -> bool:
    """Whether ``to_str`` prints the tree: it has no coefficient column and no ``Rows``."""
    if isinstance(node, Rows) or isinstance(node, Const) and np.ndim(node.value):
        return False
    return all(map(_has_text, _kids(node)))


# ---------------------------------------------------------------------------
# stacked trees: M members on a member axis, each row one member's tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rows:
    """Trees joined on the member axis, as :func:`~cornergeo.family.stack_members`
    joins a pass's members: ``parts[r]`` gives the next ``counts[r]`` rows.
    On ``(M, N, 3)`` points, M the sum of the counts, each part is walked on
    its own rows only, and on points without a member axis on all of them;
    the parts' jets are concatenated.  So row m of every jet is the jet its
    own part gives it, bit for bit.  It has no source text, so a domain
    error raised at or above it names no subexpression; a part that is a
    member's own tree names its own."""

    parts: tuple
    counts: tuple


def _walk_rows(node: Rows, x: np.ndarray, order: int, known) -> Jet2:
    if x.ndim > 2 and len(x) != sum(node.counts):
        raise ValueError(f"points of {len(x)} members for a tree of {sum(node.counts)} rows")
    jets, start = [], 0
    for part, count in zip(node.parts, node.counts):
        if x.ndim > 2:  # points with a member axis
            rows = x[start : start + count]
            shape = rows.shape[:-1]
        else:
            rows, shape = x, (count,) + x.shape[:-1]
        jets.append(_walk(part, rows, order, known).broadcast(shape))
        start += count

    def joined(arrays):
        return None if arrays[0] is None else np.concatenate(arrays)

    # every part is walked to the same order, so every jet has the same depth
    return Jet2(*(joined([getattr(j, k) for j in jets]) for k in ("value", "grad", "hess")))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _walk(node: Node, x: np.ndarray, order: int, known=None) -> Jet2:
    """One walk of the tree over the whole batch of points ``x``.  A subtree
    whose id is a key of ``known`` is not walked: its jet is ``known[id](x)``."""
    if known is not None and id(node) in known:
        return known[id(node)](x)
    if isinstance(node, Const):
        return Jet2.constant(node.value, order)
    if isinstance(node, Var):
        return Jet2.variable(node.index, x[..., node.index], order)
    if isinstance(node, Rows):
        return _walk_rows(node, x, order, known)
    try:
        if isinstance(node, Unary):
            return -_walk(node.arg, x, order, known)
        if isinstance(node, Call):
            return _FUNCTIONS[node.name](_walk(node.arg, x, order, known))
        a = _walk(node.left, x, order, known)
        if node.op == "^" and isinstance(node.right, Const):
            # a literal exponent keeps integer powers of negative bases legal;
            # any other exponent is exp(b ln a), on a positive base only
            return a**node.right.value
        return _OPS[node.op].jet(a, _walk(node.right, x, order, known))
    except EvalDomainError as err:
        if err.subexpr is None and _has_text(node):
            raise EvalDomainError(err.message, to_str(node)) from None
        raise


def _jets_at(root: Node, point, order: int, known=None) -> Jet2:
    """The jet over the batch shape of ``point``, with the member axis of a
    stacked tree's coefficients in front if the points have none."""
    x = as_points(point)
    j = _walk(root, x, order, known)
    return j.broadcast(np.broadcast_shapes(np.shape(j.value), x.shape[:-1]))


@dataclass(frozen=True)
class ScalarExpr:
    """A parsed scalar expression in the chart coordinates; ``str()``
    renders minimal-parenthesis source, and raises a TypeError for a stacked
    tree, which has none."""

    root: Node

    @by_rows
    def eval_jet2(self, point) -> Jet2:
        """The jet at ``point``, or over a ``(N, 3)`` batch of points."""
        return _jets_at(self.root, point, 2)

    @by_rows
    def value(self, point):
        """The value at ``point`` (a float), or over a batch (an array)."""
        return _jets_at(self.root, point, 0).value

    def __str__(self) -> str:
        if not _has_text(self.root):
            raise TypeError("a stacked tree has no source text")
        return to_str(self.root)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# one token per match: a number, an identifier, or an operator or punctuation
# character (kind "op"); any other character that is not whitespace is bad
_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)
_VARIABLES = {"x1": 0, "x2": 1, "x3": 2}


def _tokenize(src: str) -> list[tuple]:
    """``(kind, text, offset)`` tokens, ending with ``("eof", "", len(src))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(src)))
    return tokens


def _fold(node: Node) -> Node:
    """A node whose operands are all constants as its value, unless it leaves
    a domain or its value is NaN, which has no literal to print."""
    if not all(isinstance(o, Const) for o in _kids(node)):
        return node
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AbsAtZeroWarning)
            value = float(_walk(node, np.zeros(3), 0).value)
    except EvalDomainError:
        return node
    return node if np.isnan(value) else Const(value)


# the deepest tree that parse builds, and the deepest nesting of brackets,
# calls, signs and powers that it reads: walking, printing or stacking a tree
# recurses at most twice per level, and the parser four times per nesting, so
# both stay far inside Python's recursion limit
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # the parse_factor calls under way

    def peek(self) -> str:
        """The text of the next token."""
        return self.tokens[self.pos][1]

    def advance(self) -> tuple:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, tok: tuple) -> "ParseError":
        kind, text, offset = tok
        if kind == "eof":
            return ParseError("unexpected end of input", offset)
        return ParseError(f"unexpected {text!r}", offset)

    def bounded(self, depth: int, offset: int) -> int:
        """``depth``, reached at ``offset``, unless it passes MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def build(self, kind: type, offset: int, head: str, *operands: tuple) -> tuple:
        """``(node, depth)``, as each ``parse_*`` method gives it: the node
        ``kind(head, ...)`` on the ``(node, depth)`` operands, folded."""
        nodes, depths = zip(*operands)
        return _fold(kind(head, *nodes)), self.bounded(1 + max(depths), offset)

    def parse_expr(self, level: int = _LEVEL_ADD) -> tuple:
        """Operands of the next level (factors at the level of ``*``), joined
        left to right by the operators of ``level``."""
        tighter = functools.partial(self.parse_expr, _LEVEL_MUL)
        operand = self.parse_factor if level == _LEVEL_MUL else tighter
        node = operand()
        while self.peek() in _OPS and _OPS[self.peek()].level == level:
            _, op, offset = self.advance()
            node = self.build(Binary, offset, op, node, operand())
        return node

    def parse_factor(self) -> tuple:
        offset = self.tokens[self.pos][2]
        self.nesting = self.bounded(self.nesting + 1, offset)
        if self.peek() == "-":
            self.advance()
            node = self.build(Unary, offset, "-", self.parse_factor())
        else:
            node = self.parse_atom()
            if self.peek() == "^":
                node = self.build(Binary, self.advance()[2], "^", node, self.parse_factor())
        self.nesting -= 1
        return node

    def parse_atom(self) -> tuple:
        """A number, a variable, or a call or parenthesized expression and its ')'."""
        kind, text, offset = tok = self.advance()
        if kind == "number":
            return Const(float(text)), 1
        if text in _VARIABLES:
            return Var(_VARIABLES[text]), 1
        if kind == "ident":
            if text not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {text!r}", offset)
            opener = self.advance()
            if opener[1] != "(":
                raise ParseError(f"expected '(' after {text!r}", opener[2])
        elif text != "(":
            raise self.fail(tok)
        node = self.parse_expr()
        closer = self.advance()
        if kind == "ident" and closer[1] == ",":
            raise ParseError(f"{text!r} takes a single argument", closer[2])
        if closer[1] != ")":
            raise self.fail(closer)
        return self.build(Call, offset, text, node) if kind == "ident" else node


def parse(src: str) -> ScalarExpr:
    """Parse expression source text; raises :class:`ParseError` with offset,
    also for a tree deeper than :data:`MAX_DEPTH`."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()[0]
    trailing = parser.advance()
    if trailing[0] != "eof":
        raise parser.fail(trailing)
    return ScalarExpr(node)


def as_expr(obj) -> ScalarExpr:
    """Coerce a string, number or expression into a :class:`ScalarExpr`."""
    if isinstance(obj, ScalarExpr):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    return ScalarExpr(Const(float(obj)))
