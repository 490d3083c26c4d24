"""Property tests over generated expression trees (hypothesis, derandomized)."""

import contextlib
import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oracles import fd_grad, fd_hess  # noqa: E402

from cornergeo import family  # noqa: E402
from cornergeo.cli import main  # noqa: E402
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


def columns(trees):
    """Trees of one shape, as :func:`shifted` makes them, as one tree: a
    constant whose bits differ between them becomes an ``(M, 1)`` column,
    row m from tree m, as the coefficients of a table of draws are."""
    first = trees[0]
    if isinstance(first, Const):
        values = [t.value for t in trees]
        same = len({float(v).hex() for v in values}) == 1
        return first if same else Const(np.reshape(values, (-1, 1)))
    if isinstance(first, Var):
        return first
    names = ("arg",) if isinstance(first, (Unary, Call)) else ("left", "right")
    return replace(first, **{k: columns([getattr(t, k) for t in trees]) for k in names})


def joined(groups):
    """Groups of trees as one tree: a group of copies is its :func:`columns`,
    and more than one group are joined by a ``Rows`` node, one part each."""
    parts = tuple(columns(group) for group in groups)
    return parts[0] if len(parts) == 1 else Rows(parts, tuple(map(len, groups)))


@st.composite
def stacks(draw) -> list:
    """Groups of trees, 2 to 5 trees in all: a tree and copies of it that
    shift only coefficients, which stack into one tree with no ``Rows``
    node; or else groups each of one tree (any tree, or a copy of the first
    with shifted literals too) and such copies of it."""
    first = draw(STACKED)
    if draw(st.booleans()):
        coefficients = draw(st.lists(SHIFTS, min_size=1, max_size=4))
        return [[first] + [shifted(first, c, 0.0) for c in coefficients]]
    copies = st.tuples(SHIFTS, SHIFTS).map(lambda s: shifted(first, *s))
    groups = [[first]]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            groups[-1].append(shifted(groups[-1][0], draw(SHIFTS), 0.0))
        else:
            groups.append([draw(st.one_of(copies, STACKED))])
    return groups


def jet_bits(j) -> tuple:
    return tuple(np.asarray(a).tobytes() for a in (j.value, j.grad, j.hess))


def post_order(node):
    """The nodes of a tree in the order a walk finishes them."""
    for k in ("arg", "left", "right"):
        if hasattr(node, k):
            yield from post_order(getattr(node, k))
    yield node


def first_to_fail(groups, pts) -> tuple | None:
    """The group whose row raises the error of the :func:`joined` groups on
    the ``(M, N, 3)`` points, the walk position of the failing node, and the
    error that row's tree raises alone: at the first sample index where any
    row fails, the first group with a failing row, and in it the row whose
    failing node the walk reaches first, of equals the first."""
    for n in range(pts.shape[1]):
        start = 0
        for group in groups:
            failing = []
            for m, tree in enumerate(group, start):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        ScalarExpr(tree).eval_jet2(pts[m, n])
                except EvalDomainError as err:
                    walk = [to_str(node) for node in post_order(tree)]
                    failing.append((walk.index(err.subexpr), m, err))
            if failing:
                k, _, err = min(failing, key=lambda f: f[:2])
                return group, k, err
            start += len(group)
    return None


def has_column(node) -> bool:
    return any(isinstance(n, Const) and np.ndim(n.value) for n in post_order(node))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(stacks(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_a_stacked_tree_is_each_tree_alone_bit_for_bit(groups, n, rnd):
    """Row m of the joined groups' jet on (M, N, 3) points is tree m's own
    jet at its N points; if any tree raises alone, the stack raises the
    message that the tree :func:`first_to_fail` names raises alone, naming
    the failing node as that tree does unless the node holds a coefficient
    column, and then naming none."""
    trees = [tree for group in groups for tree in group]
    pts = np.array([rnd.uniform(0.1, 1.0) for _ in range(len(trees) * n * 3)])
    pts = pts.reshape(len(trees), n, 3)
    alone = [outcome(lambda: ScalarExpr(t).eval_jet2(p)) for t, p in zip(trees, pts)]
    if any(isinstance(j, tuple) for j in alone):
        group, k, own = first_to_fail(groups, pts)
        column = has_column(list(post_order(columns(group)))[k])
        with pytest.raises(EvalDomainError) as err, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ScalarExpr(joined(groups)).eval_jet2(pts)
        got = (err.value.message, err.value.subexpr)
        assert got == (own.message, None if column else own.subexpr), [to_str(t) for t in trees]
        return
    got = outcome(lambda: ScalarExpr(joined(groups)).eval_jet2(pts))
    for m, want in enumerate(alone):
        assert jet_bits(got[m]) == jet_bits(want), (m, [to_str(t) for t in trees])


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(STACKED, st.lists(SHIFTS, min_size=1, max_size=4))
def test_row_texts_print_each_tree_of_a_stack(first, coefficients):
    """A stack of copies that shift only coefficients prints once, and each
    row's coefficients fill its slots: the text of each tree, parentheses
    around a negative coefficient and integer-valued ones included."""
    trees = [first] + [shifted(first, c, 0.0) for c in coefficients]
    stack = columns(trees)
    hypothesis.assume(has_column(stack))
    assert row_texts(stack) == [to_str(t) for t in trees]


def test_a_negative_coefficient_slot_takes_the_parentheses_its_place_needs():
    trees = [parse(src).root for src in ("(-1)^x1 + x2*-0.5", "2^x1 + x2*3", "(-0.25)^x1 + x2*0")]
    assert row_texts(columns(trees)) == ["(-1)^x1 + x2*-0.5", "2^x1 + x2*3",
                                         "(-0.25)^x1 + x2*0"]


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


# ROADMAP item 3: a scene whose generator or deformation factor holds a
# number that is not finite never gives a report with NaN or infinity in it

COMMANDS = ["check", "twin", "deform", "classify", "scan"]
# constants that are not finite at any point, as parse folds or keeps them
NOT_FINITE = ["1e999", "-1e999", "0*1e999", "1e999 - 1e999", "exp(1000)"]
MEMBERS = [family.preset(name).params for name in family.PRESET_NAMES]
MEMBERS.append(family.FamilyParams.of("exp(x2 + x1*x3)", "1 + x2^2", "1 + x2*x3"))


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The report of ``argv`` for a scene of the generators ``fam``, its
    deformation factor ``f`` if given, and 5 samples: its exit code and what
    it writes."""
    path = tmp_path_factory.mktemp("scenes") / "scene.json"

    def report(command: str, fam: dict, f: str | None = None) -> tuple:
        path.write_text(json.dumps({"family": fam, "samples": 5}))
        argv = [command, "--config", str(path)] + (["--f", f] if f else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    return report


def generators(member) -> dict:
    return {"tau": str(member.tau), "kappa": str(member.kappa), "mu": str(member.mu)}


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(MEMBERS), st.sampled_from(["tau", "kappa", "mu", "f"]),
                  st.sampled_from(NOT_FINITE), st.sampled_from(COMMANDS))
def test_a_generator_that_is_nowhere_finite_exits_2(scene, member, slot, constant, command):
    """``+ c`` with such a ``c``, appended to tau, kappa or mu, or to the f
    of ``deform``, is an error at every point of the chart."""
    fam = generators(member)
    if slot == "f":
        command, f = "deform", f"1 + {constant}"
    else:
        fam[slot], f = f"{fam[slot]} + {constant}", None
    code, out = scene(command, fam, f)
    assert code == 2, out
    assert json.loads(out)["error"]
    assert "NaN" not in out and "Infinity" not in out


def infix(t) -> str:
    return f"({t[0]}) {t[1]} ({t[2]})"


PLAIN = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "1", "2", "0.5"]),
    lambda sub: st.tuples(sub, st.sampled_from("+-*/^"), sub).map(infix),
    max_leaves=3,
)
# a tree with a constant that is not finite at one leaf, under operators and
# functions of which some give a finite value of an infinite one
HOLDING = st.recursive(
    st.sampled_from(["1e999", "-1e999", "(0*1e999)", "exp(1000)", "exp(1000*x1)"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), PLAIN).map(infix),
        st.tuples(PLAIN, st.sampled_from("+-*/^"), sub).map(infix),
        st.tuples(st.sampled_from(["exp({})", "exp(-({}))", "sin({})", "ln({})", "sqrt({})",
                                   "0.5^({})", "x2/({})"]), sub).map(lambda t: t[0].format(t[1])),
    ),
    max_leaves=4,
)
# such a tree, or one under a function that gives 0 for an infinity of one sign
TREES_HOLDING = st.one_of(HOLDING, st.tuples(
    st.sampled_from(["x2/({})", "exp(-({}))", "0.5^({})", "x2/({})*0"]), HOLDING
).map(lambda t: t[0].format(t[1])))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(MEMBERS), st.sampled_from(["tau", "kappa", "mu", "f"]),
                  TREES_HOLDING, st.sampled_from(COMMANDS))
def test_no_report_holds_nan_or_infinity(scene, member, slot, tree, command):
    """A generator, or the f of ``deform``, with such a constant anywhere in
    its tree: the report may pass, fail or be an error (``x2/1e999*0`` is
    finite), but it writes no number that is not finite."""
    fam = generators(member)
    if slot == "f":
        command, f = "deform", f"1 + {tree}"
    else:
        fam[slot], f = f"{fam[slot]} + {tree}", None
    code, out = scene(command, fam, f)
    assert "NaN" not in out and "Infinity" not in out, out
    assert json.loads(out)["exit_code"] == code
