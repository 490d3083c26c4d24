"""Structure axioms, torsion tensors and the normality classifier."""

import numpy as np
import pytest

from oracles import fd_nijenhuis

from cornergeo.acms import (
    ALPHA_SASAKIAN,
    BETA_KENMOTSU,
    COSYMPLECTIC,
    KENMOTSU,
    NOT_NORMAL,
    SASAKIAN,
    AcmStructure,
    check_axioms,
    classify,
    fundamental_two_form_jets,
    fundamental_two_form_matrix,
    n1_tensor,
    nijenhuis,
    normality_residual,
    olszak_alpha_beta,
    trans_sasakian_residual,
)
from cornergeo.family import FamilyParams, build_family, random_family
from cornergeo.fields import ChartDomain


def family(tau, kappa, mu):
    return build_family(FamilyParams.of(tau, kappa, mu))


# The classical contact chart: eta = (dx3 - x2 dx1)/2, xi = 2 d/dx3,
# g = eta (x) eta + (dx1^2 + dx2^2)/4.  Reference normal structure with
# constant type functions (1, 0).
def sasakian_chart(scale=1.0):
    c = float(scale)
    eta = [f"0 - x2/{2 * c}", "0", f"{1 / (2 * c)}"]
    xi = ["0", "0", f"{2 * c}"]
    q = 4 * c * c
    g = [
        [f"(1 + x2^2)/{q}", "0", f"0 - x2/{q}"],
        ["0", f"{1 / q}", "0"],
        [f"0 - x2/{q}", "0", f"{1 / q}"],
    ]
    phi = [["0", "1", "0"], ["-1", "0", "0"], ["0", "x2", "0"]]
    return AcmStructure.from_expressions(phi=phi, xi=xi, eta=eta, g=g)


# --------------------------------------------------------------------------
# axioms


def test_axioms_pass_on_presets(structures, points):
    for name, s in structures.items():
        rep = check_axioms(s, points)
        assert rep.passed, f"preset {name}: {rep.to_dict()}"
        assert rep.worst() < 1e-12


def test_axioms_pass_on_random_family(rng, points):
    for _ in range(5):
        s = build_family(random_family(rng))
        assert check_axioms(s, points[:8]).passed
    for _ in range(3):
        s = build_family(random_family(rng, corner=False))
        assert check_axioms(s, points[:8]).passed


def test_axioms_pass_on_contact_chart(points):
    rep = check_axioms(sasakian_chart(), points)
    assert rep.passed
    assert rep.worst() < 1e-12


def test_axiom_violations_are_detected(points):
    s = family("exp(x2)", "1", "1")
    # breaking phi breaks phi^2 = -id + eta (x) xi
    broken_phi = AcmStructure.from_expressions(
        phi=[["0", "0", "0"], ["0", "0", "-1.1"], ["0", "1", "0"]],
        xi=["exp(0 - x2)", "0", "0"],
        eta=["exp(x2)", "0", "0"],
        g=[["exp(2*x2)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    )
    rep = check_axioms(broken_phi, points)
    assert not rep.passed
    assert rep.max_abs("phi_square") > 1e-2
    # un-normalized eta breaks eta(xi) = 1
    broken_eta = AcmStructure(
        phi=s.phi, xi=s.xi, eta=family("2*exp(x2)", "1", "1").eta, g=s.g,
        domain=s.domain,
    )
    rep = check_axioms(broken_eta, points)
    assert not rep.passed
    assert rep.max_abs("eta_xi") > 0.5


# --------------------------------------------------------------------------
# fundamental form and torsion tensors


def test_fundamental_form_antisymmetric(structures, points):
    s = structures["D"]
    for p in points[:6]:
        M = fundamental_two_form_matrix(s, p)
        np.testing.assert_allclose(M, -M.T, atol=1e-15)


def test_fundamental_form_frozen_value(structures):
    # tau = e^{x2}, kappa = mu = 1 at the origin: Phi(d2, d3) = g(d2, phi d3) = -1
    M = fundamental_two_form_matrix(structures["B"], np.zeros(3))
    assert M[1, 2] == pytest.approx(-1.0)
    assert M[2, 1] == pytest.approx(1.0)


def test_fundamental_form_fields_match_matrix(structures, points):
    s = structures["A"]
    for p in points[:5]:
        M = fundamental_two_form_matrix(s, p)
        vals = fundamental_two_form_jets(s, p).value
        np.testing.assert_allclose(vals, M, atol=1e-14)


def test_nijenhuis_matches_fd_oracle(structures, rng, points):
    from cornergeo.fields import VectorField

    X = VectorField(("x2", "exp(x1)", "x1*x3"))
    Y = VectorField(("sin(x3)", "x1", "1"))
    for name in ("B", "D"):
        s = structures[name]
        phi_fn = s.phi.matrix
        for p in points[:4]:
            got = nijenhuis(s, X, Y, p)
            want = fd_nijenhuis(phi_fn, lambda q: X.values(q), lambda q: Y.values(q), p)
            np.testing.assert_allclose(got, want, atol=5e-8)


def test_n1_frozen_value(structures):
    # preset B at the origin: N1(d2, d1) = d1
    s = structures["B"]
    e = np.eye(3)
    np.testing.assert_allclose(
        n1_tensor(s, e[1], e[0], np.zeros(3)), e[0], atol=1e-14
    )


def test_n1_antisymmetric(structures, points):
    s = structures["D"]
    e = np.eye(3)
    for p in points[:4]:
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    n1_tensor(s, e[i], e[j], p),
                    -n1_tensor(s, e[j], e[i], p),
                    atol=1e-12,
                )


# --------------------------------------------------------------------------
# type functions and classification


@pytest.mark.parametrize(
    "builder,alpha,beta",
    [
        (lambda: family("1", "1", "1"), 0.0, 0.0),
        (lambda: family("1", "exp(x1)", "exp(x1)"), 0.0, 1.0),
        (lambda: family("1", "exp(2*x1)", "exp(2*x1)"), 0.0, 2.0),
        (lambda: sasakian_chart(), 1.0, 0.0),
        (lambda: sasakian_chart(scale=2.0), 2.0, 0.0),
    ],
)
def test_olszak_constants(builder, alpha, beta, points):
    s = builder()
    for p in points[:6]:
        a, b = olszak_alpha_beta(s, p)
        assert a == pytest.approx(alpha, abs=1e-10)
        assert b == pytest.approx(beta, abs=1e-10)


def test_normality_residual_split(points):
    zero, _ = normality_residual(sasakian_chart(), points[:8])
    assert zero < 1e-12
    big, argmax = normality_residual(family("exp(x2)", "1", "1"), points[:8])
    assert big > 1e-2
    assert argmax is not None


def test_trans_sasakian_residual_accepts_arrays(points, rng):
    s = family("1", "1 + x1", "1 + x1")
    res = trans_sasakian_residual(s, 0.0, 1.0 / (1.0 + points[:8, 0]), points[:8], rng)
    assert res.worst() < 1e-10
    wrong = trans_sasakian_residual(s, 0.0, 1.0, points[:8], rng)
    assert wrong.worst() > 1e-2
    # the pointwise type functions classify reads off the same points
    c = classify(s, points=points[:8])
    assert trans_sasakian_residual(s, c.alphas, c.betas, points[:8], rng).worst() < 1e-10


@pytest.mark.parametrize(
    "builder,verdict",
    [
        (lambda: family("1", "1", "1"), COSYMPLECTIC),
        (lambda: family("1", "exp(x1)", "exp(x1)"), KENMOTSU),
        (lambda: family("1", "exp(2*x1)", "exp(2*x1)"), BETA_KENMOTSU),
        (lambda: family("1", "1 + x1", "1 + x1"), BETA_KENMOTSU),
        (lambda: sasakian_chart(), SASAKIAN),
        (lambda: sasakian_chart(scale=2.0), ALPHA_SASAKIAN),
        (lambda: family("exp(x2)", "1", "1"), NOT_NORMAL),
        (lambda: family("exp(x2+x3)", "1 + x2^2", "1 + x2*x3"), NOT_NORMAL),
    ],
)
def test_classify_verdicts(builder, verdict):
    assert classify(builder(), samples=40, seed=9).verdict == verdict


def test_classify_report_shape():
    rep = classify(family("1", "exp(x1)", "exp(x1)"), samples=30, seed=4)
    d = rep.to_dict()
    assert d["verdict"] == "Kenmotsu"
    for key in ("alpha", "beta", "normality_residual", "thresholds"):
        assert key in d
    assert d["beta"]["mean"] == pytest.approx(1.0, abs=1e-9)
