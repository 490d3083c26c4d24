"""Property tests over generated expression trees (hypothesis, derandomized)."""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cornergeo.expr import (  # noqa: E402
    _FUNCTIONS,
    Binary,
    Call,
    Const,
    ScalarExpr,
    Var,
    _fold_binary,
    _fold_call,
    _fold_unary,
    parse,
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
        st.builds(_fold_binary, st.sampled_from("+-*/^"), sub, sub),
        st.builds(_fold_call, st.sampled_from(sorted(_FUNCTIONS)), sub),
        st.builds(_fold_unary, sub),
    ),
    max_leaves=8,
)


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(PARSED)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_parse_rebuilds_what_to_str_prints(root):
    assert parse(to_str(root)).root == root, to_str(root)
