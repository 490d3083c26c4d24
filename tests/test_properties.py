"""Property tests over generated expression trees (hypothesis, derandomized)."""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oracles import fd_grad, fd_hess  # noqa: E402

from cornergeo.expr import (  # noqa: E402
    _FUNCTIONS,
    Binary,
    Call,
    Const,
    EvalDomainError,
    Rows,
    ScalarExpr,
    Unary,
    Var,
    _fold,
    parse,
    row_texts,
    stack_trees,
    to_str,
)

LEAVES = st.one_of(
    st.builds(Var, st.integers(0, 2)),
    st.builds(Const, st.integers(-3, 3).map(float)),
    st.builds(Const, st.floats(-2.5, 2.5, allow_nan=False).map(lambda v: round(v, 2))),
)
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["exp", "sin", "cos"]), sub),
    ),
    max_leaves=10,
)
BATCHES = st.lists(
    st.tuples(*[st.floats(0.1, 1.0) for _ in range(3)]), min_size=1, max_size=4
).map(np.array)


def outcome(fn):
    """``fn()``, or the type and text of the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(TREES, BATCHES)
def test_value_is_the_jet_value_bit_for_bit(root, pts):
    e = ScalarExpr(root)
    for p in (pts, pts[0]):
        value = outcome(lambda: e.value(p))
        jet = outcome(lambda: e.eval_jet2(p).value)
        if isinstance(value, tuple) and isinstance(jet, tuple):
            continue  # both raise: the draw leaves the domain somewhere
        assert not isinstance(value, tuple) and not isinstance(jet, tuple), (to_str(root), value, jet)
        assert np.shape(value) == np.shape(jet)
        assert np.asarray(value).tobytes() == np.asarray(jet).tobytes(), to_str(root)


# trees as the parser builds them: constant operands folded, any finite or
# infinite constant, large magnitudes included
NUMBERS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([1e200, -1e300, 1.5e308, float("inf"), -float("inf")]),
)
PARSED = st.recursive(
    st.one_of(st.builds(Var, st.integers(0, 2)), st.builds(Const, NUMBERS)),
    lambda sub: st.one_of(
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub).map(_fold),
        st.builds(Call, st.sampled_from(sorted(_FUNCTIONS)), sub).map(_fold),
        st.builds(Unary, st.just("-"), sub).map(_fold),
    ),
    max_leaves=8,
)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(PARSED)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_parse_rebuilds_what_to_str_prints(root):
    assert parse(to_str(root)).root == root, to_str(root)


def shifted(node, coefficient: float, literal: float, root: bool = True):
    """``node`` with ``literal`` added to a constant root and to each literal
    ``^`` exponent, and ``coefficient`` to every other constant."""
    if isinstance(node, Const):
        return Const(node.value + (literal if root else coefficient))
    if isinstance(node, Call):
        return Call(node.name, shifted(node.arg, coefficient, literal, False))
    if isinstance(node, Binary):
        left = shifted(node.left, coefficient, literal, False)
        return Binary(node.op, left, shifted(node.right, coefficient, literal, node.op == "^"))
    return node


SHIFTS = st.sampled_from([0.0, 1.0, -0.5, 2.0])
# ln or sqrt of a shifted coordinate, which leaves its domain on part of the
# box; stacked copies shift the constant, so they fail at different points
SHIFTED = st.builds(
    lambda name, i, c: Call(name, Binary("-", Var(i), Const(c))),
    st.sampled_from(["ln", "sqrt"]), st.integers(0, 2), st.sampled_from([0.0, 0.3, 0.6]),
)
STACKED = st.recursive(
    st.one_of(LEAVES, SHIFTED),
    lambda sub: st.one_of(
        st.builds(Binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(["exp", "sin", "cos"]), sub),
    ),
    max_leaves=10,
)


@st.composite
def stacks(draw) -> list:
    """A tree, then up to 4 more: copies of it with shifted constants, or any
    other tree; or else copies that shift no literal, which stack with no
    ``Rows`` node."""
    first = draw(STACKED)
    if draw(st.booleans()):
        coefficients = draw(st.lists(SHIFTS, min_size=1, max_size=4))
        return [first] + [shifted(first, c, 0.0) for c in coefficients]
    copies = st.tuples(SHIFTS, SHIFTS).map(lambda s: shifted(first, *s))
    return [first] + draw(st.lists(st.one_of(copies, STACKED), min_size=1, max_size=4))


def jet_bits(j) -> tuple:
    return tuple(np.asarray(a).tobytes() for a in (j.value, j.grad, j.hess))


def post_order(node):
    """The nodes of a tree in the order a walk finishes them."""
    for k in ("arg", "left", "right"):
        if hasattr(node, k):
            yield from post_order(getattr(node, k))
    yield node


def first_to_fail(trees, pts) -> int | None:
    """The row whose error a stack of trees of one shape raises on the
    ``(M, N, 3)`` points: at the first sample index where any row fails, the
    row whose failing node the walk reaches first, of equals the first."""
    for n in range(pts.shape[1]):
        failing = []
        for m, tree in enumerate(trees):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ScalarExpr(tree).eval_jet2(pts[m, n])
            except EvalDomainError as err:
                walk = [id(node) for node in post_order(tree)]
                failing.append((walk.index(id(err._subexpr)), m))
        if failing:
            return min(failing)[1]
    return None


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(stacks(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_a_stacked_tree_is_each_tree_alone_bit_for_bit(trees, n, rnd):
    """Row m of the stack's jet on (M, N, 3) points is tree m's own jet at
    its N points; if any tree raises alone, the stack raises the error, with
    the text, that one of them raises alone: for trees of one shape, that
    of the first row to fail (see :func:`first_to_fail`)."""
    pts = np.array([rnd.uniform(0.1, 1.0) for _ in range(len(trees) * n * 3)])
    pts = pts.reshape(len(trees), n, 3)
    alone = [outcome(lambda: ScalarExpr(t).eval_jet2(p)) for t, p in zip(trees, pts)]
    stack = stack_trees(trees)
    got = outcome(lambda: ScalarExpr(stack).eval_jet2(pts))
    errors = [j for j in alone if isinstance(j, tuple)]
    if errors:
        assert got in errors, [to_str(t) for t in trees]
        if not any(isinstance(node, Rows) for node in post_order(stack)):
            assert got == alone[first_to_fail(trees, pts)], [to_str(t) for t in trees]
        return
    for m, want in enumerate(alone):
        assert jet_bits(got[m]) == jet_bits(want), (m, [to_str(t) for t in trees])


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(STACKED, st.lists(SHIFTS, min_size=1, max_size=4))
def test_row_texts_print_each_tree_of_a_stack(first, coefficients):
    """A stack of copies that shift only coefficients prints once, and each
    row's coefficients fill its slots: the text of each tree, parentheses
    around a negative coefficient and integer-valued ones included."""
    trees = [first] + [shifted(first, c, 0.0) for c in coefficients]
    stack = stack_trees(trees)
    hypothesis.assume(any(isinstance(n, Const) and np.ndim(n.value) for n in post_order(stack)))
    assert row_texts(stack) == [to_str(t) for t in trees]


def test_a_negative_coefficient_slot_takes_the_parentheses_its_place_needs():
    trees = [parse(src).root for src in ("(-1)^x1 + x2*-0.5", "2^x1 + x2*3", "(-0.25)^x1 + x2*0")]
    assert row_texts(stack_trees(trees)) == ["(-1)^x1 + x2*-0.5", "2^x1 + x2*3",
                                             "(-0.25)^x1 + x2*0"]


def test_a_literal_exponent_splits_the_stack_above_its_power():
    square, cube = parse("x1^2").root, parse("x1^3").root
    assert stack_trees([square, cube]) == Rows((square, cube), (1, 1))
    assert stack_trees([Call("exp", square), Call("exp", cube)]) == Call(
        "exp", Rows((square, cube), (1, 1))
    )


POINTS = st.tuples(*[st.floats(0.1, 1.0) for _ in range(3)]).map(np.array)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(TREES, POINTS)
def test_jets_match_finite_differences(root, p):
    """A tree's gradient and Hessian, literal integer and fractional powers
    included, match central differences of its value, within the tolerances
    of ``test_expr.test_jets_match_finite_differences`` scaled by the size of
    the jet; trees that raise, or whose jet passes 1e6, are left out."""
    e = ScalarExpr(root)
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            jet = e.eval_jet2(p)
            grad, hess = fd_grad(e.value, p), fd_hess(e.value, p)
    except (ArithmeticError, ValueError):
        hypothesis.assume(False)
    parts = [jet.value, jet.grad, jet.hess, grad, hess]
    hypothesis.assume(all(np.all(np.abs(a) <= 1e6) for a in parts))
    scale = 1.0 + max(np.max(np.abs(a)) for a in parts[:3])
    np.testing.assert_allclose(jet.grad, grad, rtol=0, atol=2e-8 * scale, err_msg=to_str(root))
    np.testing.assert_allclose(jet.hess, hess, rtol=0, atol=2e-6 * scale, err_msg=to_str(root))
