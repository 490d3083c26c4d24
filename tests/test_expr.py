"""Parser, printer and second-order jet arithmetic."""

import numpy as np
import pytest

from oracles import fd_grad, fd_hess

from cornergeo import expr as expr_module
from cornergeo.expr import (
    AbsAtZeroWarning,
    EvalDomainError,
    Jet2,
    ParseError,
    as_expr,
    parse,
    to_str,
)

ORIGIN = np.zeros(3)


# --------------------------------------------------------------------------
# parsing and precedence


@pytest.mark.parametrize(
    "src,point,expected",
    [
        ("2", ORIGIN, 2.0),
        ("1e3", ORIGIN, 1000.0),
        (".5", ORIGIN, 0.5),
        ("x1 + 2*x2", (1.0, 3.0, 0.0), 7.0),
        ("-x1^2", (3.0, 0.0, 0.0), -9.0),  # ^ binds tighter than unary minus
        ("2^3^2", ORIGIN, 512.0),  # right associative
        ("2^-1", ORIGIN, 0.5),
        ("(x1 - x2)/x3", (5.0, 1.0, 2.0), 2.0),
        ("exp(ln(x2))", (0.0, 0.7, 0.0), 0.7),
        ("sqrt(x1^2)", (-3.0, 0.0, 0.0), 3.0),
        ("abs(0 - x3)", (0.0, 0.0, 2.5), 2.5),
        ("sin(x1)^2 + cos(x1)^2", (0.3, 0.0, 0.0), 1.0),
    ],
)
def test_parse_and_eval(src, point, expected):
    assert parse(src).value(np.asarray(point, dtype=float)) == pytest.approx(
        expected, abs=1e-12
    )


@pytest.mark.parametrize(
    "src,offset,message",
    [
        ("", 0, "unexpected end of input"),
        ("exp(", 4, "unexpected end of input"),
        ("(x1 + 2", 7, "unexpected end of input"),
        ("x1 + ", 5, "unexpected end of input"),
        ("\tx1 +", 5, "unexpected end of input"),
        ("\u00a0x1\u2003+ ", 6, "unexpected end of input"),
        ("x1)", 2, "unexpected ')'"),
        ("sin(x1 x2)", 7, "unexpected 'x2'"),
        ("2x1", 1, "unexpected 'x1'"),
        ("1.2.3", 3, "unexpected '.3'"),
        ("x1 + * 2", 5, "unexpected '*'"),
        ("x1 ^ ^ 2", 5, "unexpected '^'"),
        ("+x1", 0, "unexpected '+'"),
        ("x1 ,", 3, "unexpected ','"),
        ("exp x1", 4, "expected '(' after 'exp'"),
        ("exp", 3, "expected '(' after 'exp'"),
        ("exp(x1, x2)", 6, "'exp' takes a single argument"),
        ("abs(x1, ", 6, "'abs' takes a single argument"),
        ("x1 $ 2", 3, "unexpected character '$'"),
        ("2 .", 2, "unexpected character '.'"),
        ("x1 + \u00e9", 5, "unexpected character '\u00e9'"),
        ("foo(x1)", 0, "unknown identifier 'foo'"),
        ("x4", 0, "unknown identifier 'x4'"),
        ("e", 0, "unknown identifier 'e'"),
    ],
)
def test_parse_errors_carry_offsets(src, offset, message):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.message, err.value.offset) == (message, offset)
    assert str(err.value) == f"{message} (offset {offset})"


def test_round_trip_is_structural():
    sources = [
        "x1 + x2*x3",
        "-x1^2",
        "2^-x3",
        "exp(x2) / (1 + x1)",
        "abs(x1 - x2) + sqrt(x3)",
        "sin(x1*x2) - cos(x3)^3",
    ]
    for src in sources:
        once = str(parse(src))
        assert str(parse(once)) == once


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "src, text",
    [
        ("exp(1000)", "1e999"),
        ("-exp(1000)", "-1e999"),
        ("x1*1e400", "x1*1e999"),
        ("x1 + -1e400", "x1 + -1e999"),
        ("(-1e400)^3", "-1e999"),
        ("sin(1e400)", "sin(1e999)"),
        # a NaN value has no literal, so its node is kept
        ("0*exp(1000)", "0*1e999"),
        ("1e400 - 1e400", "1e999 - 1e999"),
        ("1e400/1e400", "1e999/1e999"),
    ],
)
def test_non_finite_constants_round_trip(src, text):
    root = parse(src).root
    assert to_str(root) == text
    assert parse(text).root == root


def test_constant_folding():
    assert str(parse("2 + 3*4")) == "14"
    assert str(parse("exp(0)")) == "1"
    # folding must not swallow genuine domain errors: the node survives
    # and evaluation raises
    e = parse("(x1 - x1)^-2")
    with pytest.raises(EvalDomainError):
        e.value(ORIGIN)


# --------------------------------------------------------------------------
# jets: frozen values first, then the finite-difference sweep


def test_jet_frozen_exp():
    j = parse("exp(x2)").eval_jet2(ORIGIN)
    assert j.value == pytest.approx(1.0)
    assert j.grad == pytest.approx([0.0, 1.0, 0.0])
    assert j.hess[1, 1] == pytest.approx(1.0)


def test_jet_frozen_product():
    j = parse("x1*x3").eval_jet2(np.array([2.0, 0.0, 5.0]))
    assert j.value == pytest.approx(10.0)
    assert j.grad == pytest.approx([5.0, 0.0, 2.0])
    assert j.hess[0, 2] == pytest.approx(1.0)
    assert j.hess[2, 0] == pytest.approx(1.0)


def test_jet_frozen_square():
    j = parse("x2^2").eval_jet2(np.array([0.0, 3.0, 0.0]))
    assert j.value == pytest.approx(9.0)
    assert j.grad == pytest.approx([0.0, 6.0, 0.0])
    assert j.hess[1, 1] == pytest.approx(2.0)


SWEEP = [
    "x1*x2*x3",
    "exp(x1 - 2*x2)",
    "ln(1 + x1^2 + x3^2)",
    "sqrt(1 + x2*x3)",
    "sin(x1*x3) + cos(x2)",
    "(1 + x1)^1.5",
    "x3 / (2 + sin(x1))",
    "exp(x2 + x1*x3) * (1 + x2^2)",
]


@pytest.mark.parametrize("src", SWEEP)
def test_jets_match_finite_differences(src, rng):
    expr = parse(src)
    for _ in range(4):
        p = rng.uniform(0.1, 1.0, size=3)
        jet = expr.eval_jet2(p)
        assert jet.value == pytest.approx(expr.value(p), abs=1e-14)
        np.testing.assert_allclose(jet.grad, fd_grad(expr.value, p), atol=2e-8)
        np.testing.assert_allclose(jet.hess, fd_hess(expr.value, p), atol=2e-6)
        np.testing.assert_allclose(jet.hess, jet.hess.T, atol=0)


# --------------------------------------------------------------------------
# domain failures and edge behavior


@pytest.mark.parametrize(
    "src,point",
    [
        ("1/x1", ORIGIN),
        ("ln(x1)", (-1.0, 0.0, 0.0)),
        ("ln(x1)", ORIGIN),
        ("sqrt(x2)", (0.0, -4.0, 0.0)),
        ("x1^0.5", (-2.0, 0.0, 0.0)),
        ("x1^x2", (-2.0, 3.0, 0.0)),  # variable exponent needs a positive base
    ],
)
def test_domain_errors(src, point):
    with pytest.raises(EvalDomainError):
        parse(src).eval_jet2(np.asarray(point, dtype=float))


def test_abs_kink_warns():
    expr = parse("abs(x1)")
    with pytest.warns(AbsAtZeroWarning):
        j = expr.eval_jet2(ORIGIN)
    assert j.value == 0.0
    assert j.grad[0] == 0.0  # kink resolved with slope zero


def test_integer_power_at_zero_base():
    j = parse("x1^3").eval_jet2(ORIGIN)
    assert j.value == 0.0
    assert j.grad == pytest.approx([0.0, 0.0, 0.0])


@pytest.mark.parametrize("src", ["(x1 - 2)^(0*x2)", "x1^(0*x2 + 2.5)"])
def test_value_equals_the_jet_value_under_a_non_literal_exponent(src):
    # the exponent has zero derivatives, so both walks take the constant-power rule
    e = parse(src)
    pts = np.random.default_rng(7).uniform(0.1, 1.0, size=(200, 3))
    assert e.value(pts).tobytes() == e.eval_jet2(pts).value.tobytes()
    for p in pts[:5]:
        assert e.value(p) == e.eval_jet2(p).value


# --------------------------------------------------------------------------
# coercion and jet orders


def test_as_expr_coercion():
    assert as_expr(3).value(ORIGIN) == 3.0
    assert as_expr("x2 + 1").value(np.array([0.0, 2.0, 0.0])) == 3.0
    e = parse("x1")
    assert as_expr(e) is e


def test_jet_orders():
    # mixed-depth arithmetic degrades to the shallower operand
    full = Jet2.variable(0, 2.0)
    shallow = Jet2.constant(3.0, order=1)
    assert (full * shallow).hess is None
    assert (full + shallow).grad is not None


# --------------------------------------------------------------------------
# literal powers: libm's pow, element by element


def libm_pow(base, c):
    """``expr._pow`` as Python's float pow of every element, whatever ``c`` is."""
    try:
        return np.asarray(np.frompyfunc(pow, 2, 1)(base, c), dtype=float)
    except OverflowError:
        raise EvalDomainError("power overflows the float range") from None


POW_BASES = [0.0, -0.0, np.inf, -np.inf, np.nan, -2.5, -1.0, 5e-324, -5e-324, 2.2e-308, 0.3,
             1.0, 7.0, 1e308]


def pow_outcome(a: Jet2, c: float):
    """The bytes of the jet of ``a^c``, or the text of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            j = expr_module._pow_const(a, c)
    except EvalDomainError as err:
        return str(err)
    return [np.asarray(x).tobytes() for x in (j.value, j.grad, j.hess)]


@pytest.mark.parametrize("c", [2.0, 3.0, -1.0, 0.5, 1.0, 0.0])
def test_a_literal_power_is_libm_pow_bit_for_bit(c, monkeypatch):
    """pow(x, 1) is x and pow(x, 0) is 1 for every x, so the first and
    second derivatives of a square or a cube may skip libm; every value,
    derivative and error stays that of pow element by element."""
    rng = np.random.default_rng(5)
    jets = [Jet2(np.array(v), rng.normal(size=3), rng.normal(size=(3, 3))) for v in POW_BASES]
    n = len(POW_BASES)
    jets.append(Jet2(np.array(POW_BASES), rng.normal(size=(n, 3)), rng.normal(size=(n, 3, 3))))
    got = [pow_outcome(a, c) for a in jets]
    monkeypatch.setattr(expr_module, "_pow", libm_pow)
    assert got == [pow_outcome(a, c) for a in jets]
