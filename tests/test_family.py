"""The explicit chart family, its presets and the corner criterion."""

import numpy as np
import pytest

from oracles import fd_grad, fd_hess

from cornergeo.corner import CornerFields, corner_residual
from cornergeo.expr import EvalDomainError
from cornergeo.family import (
    PRESET_NAMES,
    FamilyParams,
    build_family,
    preset,
    preset_structure,
    RandomDraws,
    random_family,
    stack_members,
)
from cornergeo.fields import ChartDomain


def test_components_frozen():
    params = FamilyParams.of("exp(x2 + x3)", "1 + x2^2", "1 + x2*x3")
    s = build_family(params)
    p = np.array([0.2, 0.5, 0.4])
    tau, kappa, mu = np.exp(0.9), 1.25, 1.2
    np.testing.assert_allclose(s.xi.values(p), [1 / tau, 0, 0], atol=1e-15)
    np.testing.assert_allclose(s.eta.values(p), [tau, 0, 0], atol=1e-15)
    np.testing.assert_allclose(
        s.g.matrix(p), np.diag([tau**2, kappa**2, mu**2]), atol=1e-15
    )
    P = s.phi.matrix(p)
    assert P[2, 1] == pytest.approx(kappa / mu)
    assert P[1, 2] == pytest.approx(-mu / kappa)
    assert P[0, 0] == P[1, 1] == P[2, 2] == 0.0


def test_a_tau_with_a_non_literal_power_of_a_negative_base_is_refused():
    # (x1 - 2)^(0*x2) would read 1 under pow, but a non-literal exponent is
    # exp(b ln a), so build's check of tau at its fixed points names the power
    with pytest.raises(EvalDomainError) as err:
        build_family(FamilyParams.of("(x1 - 2)^(0*x2)", "1 + x2^2", "1 + x2*x3"))
    assert err.value.message == "power with a non-literal exponent requires a positive base"
    assert err.value.subexpr == "(x1 - 2)^(0*x2)"


def test_positivity_is_enforced():
    with pytest.raises(ValueError, match="tau"):
        build_family(FamilyParams.of("x1 - 0.5", "1", "1"))
    with pytest.raises(ValueError):
        build_family(FamilyParams.of("exp(x2)", "0", "1"))


def test_psi_closed_form(points, rng):
    """psi = (tau_2/(tau kappa^2)) d2 + (tau_3/(tau mu^2)) d3."""
    cases = [FamilyParams.of("exp(x2 + x3)", "1 + x2^2", "1 + x2*x3")]
    cases += [random_family(rng) for _ in range(3)]
    for params in cases:
        cf = CornerFields(build_family(params))
        for p in points[:5]:
            tau = params.tau.eval_jet2(p)
            kappa = params.kappa.value(p)
            mu = params.mu.value(p)
            want = np.array(
                [
                    0.0,
                    tau.grad[1] / (tau.value * kappa**2),
                    tau.grad[2] / (tau.value * mu**2),
                ]
            )
            np.testing.assert_allclose(cf.frame(p).psi, want, atol=1e-12)


def test_sigma_closed_form(points):
    """sigma = (h2 d1h3 - h3 d1h2) / (e^{2 rho} tau kappa mu) with h = ln tau."""
    params = FamilyParams.of("exp(x2 + x1*x3)", "1 + x2^2", "1 + x2*x3")
    s = build_family(params)
    cf = CornerFields(s)
    for p in points[:6]:
        h = lambda q: np.log(params.tau.value(q))
        hg, hh = fd_grad(h, p), fd_hess(h, p)
        frame = cf.frame(p)
        tau, kappa, mu = (
            params.tau.value(p),
            params.kappa.value(p),
            params.mu.value(p),
        )
        want = (hg[1] * hh[0, 2] - hg[2] * hh[0, 1]) / (
            frame.e_rho**2 * tau * kappa * mu
        )
        assert frame.sigma == pytest.approx(want, abs=5e-6)
    assert abs(cf.frame(points[0]).sigma) > 1e-3  # genuinely nonzero member


def max_x1_derivative(params: FamilyParams, points) -> float:
    """The largest |d kappa/dx1| or |d mu/dx1| at ``points``: the corner
    criterion of the family is that both are 0."""
    return max(float(np.max(np.abs(e.eval_jet2(points).grad[:, 0])))
               for e in (params.kappa, params.mu))


def corner_worst(params: FamilyParams, points) -> float:
    """The worst residual of the corner condition nabla_X xi = -eta(X) psi."""
    return corner_residual(build_family(params), points, tol=1e-8).worst()


def test_criterion_consistent_on_presets(points, rng):
    for name in ("A", "B", "D"):
        assert max_x1_derivative(preset(name).params, points) < 1e-12
        assert corner_worst(preset(name).params, points) < 1e-8


def test_criterion_violated_on_preset_c(points):
    params = preset("C").params
    # kappa = e^{x1}: d1 kappa = kappa, maximized at the largest sampled x1
    assert max_x1_derivative(params, points) == pytest.approx(
        max(np.exp(p[0]) for p in points), rel=1e-12
    )
    assert corner_worst(params, points) > 1e-3


def test_criterion_on_random_draws(rng, points):
    """Both routes agree: the x1-free draws are corner structures, and the
    draws with x1 terms in kappa and mu are not."""
    for _ in range(4):
        params = random_family(rng)
        assert max_x1_derivative(params, points[:8]) < 1e-8
        assert corner_worst(params, points[:8]) < 1e-8
    for _ in range(4):
        params = random_family(rng, corner=False)
        assert max_x1_derivative(params, points[:8]) >= 1e-8
        assert corner_worst(params, points[:8]) >= 1e-8


def test_preset_lookup():
    assert PRESET_NAMES == ("family:A", "family:B", "family:C", "family:D")
    assert preset("A") is preset("family:A")
    with pytest.raises(KeyError, match="family:A"):
        preset("nope")
    assert preset("A").expected["thken_conditions"] is True
    assert preset("B").expected["thcos_conditions"] is True
    assert preset("C").expected["corner"] is False
    for name in "ABCD":
        assert preset(name).expected["base_verdict"] == "not-normal"


def test_preset_structure_matches_build(points):
    s = preset_structure("D")
    t = build_family(preset("D").params)
    for p in points[:3]:
        np.testing.assert_allclose(s.g.matrix(p), t.g.matrix(p), atol=0)
        np.testing.assert_allclose(s.phi.matrix(p), t.phi.matrix(p), atol=0)


def test_random_family_is_deterministic():
    a = random_family(np.random.default_rng(42))
    b = random_family(np.random.default_rng(42))
    assert (str(a.tau), str(a.kappa), str(a.mu)) == (
        str(b.tau),
        str(b.kappa),
        str(b.mu),
    )


def terms(first, monomials, coefficients) -> str:
    """``first + m1*c1 + m2*c2 + ...`` with each coefficient as its ``repr``."""
    return " + ".join([first] + [f"{m}*{c!r}" for m, c in zip(monomials, coefficients)])


def reference_random_family(rng, corner=True) -> FamilyParams:
    """``random_family`` as parsed text and one ``uniform`` call per group of
    coefficients."""
    a = rng.uniform(-1.0, 1.0, size=5).tolist()
    exponent = terms(f"x2*{a[0]!r}", ("x3", "x1*x2", "x1*x3", "x1"), a[1:])
    k = rng.uniform(0.5, 1.5)
    kappa = terms(repr(k), ("x2^2", "x2*x3"), rng.uniform(0.0, 1.0, size=2).tolist())
    m = rng.uniform(0.5, 1.5)
    mu = terms(repr(m), ("x3^2", "x2*x3"), rng.uniform(0.0, 1.0, size=2).tolist())
    if not corner:
        kappa = terms(kappa, ("x1^2",), [rng.uniform(0.5, 1.5)])
        mu = terms(mu, ("x1",), [rng.uniform(0.5, 1.5)])
    return FamilyParams.of(f"exp({exponent})", kappa, mu)


@pytest.mark.parametrize("corner", [True, False])
def test_random_family_equals_the_operator_built_draws(corner):
    got_rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    for _ in range(200):
        got = random_family(got_rng, corner=corner)
        ref = reference_random_family(ref_rng, corner=corner)
        assert got == ref
        assert [str(e) for e in (got.tau, got.kappa, got.mu)] == [
            str(e) for e in (ref.tau, ref.kappa, ref.mu)
        ]
    # both consumed the same stream
    assert got_rng.random() == ref_rng.random()


def hand_made(corner: bool) -> np.ndarray:
    """Rows with negative, zero and integer-valued coefficients: the printer
    writes -1.0 as ``-1`` and 2.0 as ``2``, in every coefficient's place."""
    n = 11 if corner else 13
    return np.array([np.resize(row, n) for row in ([-1.0, 0.0, 2.0], [2.0, -1.0, 0.0, 0.5],
                                                   [0.0, 2.0, -1.0, -0.25, 3.0])])


def jets_bits(params: FamilyParams, pts) -> list:
    jets = [e.eval_jet2(pts) for e in (params.tau, params.kappa, params.mu)]
    return [np.asarray(a).tobytes() for j in jets for a in (j.value, j.grad, j.hess)]


@pytest.mark.parametrize("corner", [True, False])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_a_table_of_draws_is_n_random_family_draws(corner, n):
    """One ``rng.random`` call gives the coefficients of n draws, and leaves
    the generator where n draws do; each row's text is ``str()`` of its own
    draw, and parses back to it; the stacked trees' jets on (n, N, 3) points
    are those of the stacked draws, bit for bit."""
    got_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    table = RandomDraws.draw(got_rng, n, corner)
    draws = [random_family(ref_rng, corner) for _ in range(n)]
    assert got_rng.random() == ref_rng.random()
    assert len(table) == n and [table[m] for m in range(n)] == draws
    assert_rows_are_members(table, draws)


@pytest.mark.parametrize("corner", [True, False])
def test_a_hand_made_table_prints_and_stacks_as_its_members(corner):
    table = RandomDraws(hand_made(corner))
    members = [table[m] for m in range(len(table))]
    assert str(members[0].kappa).startswith("2 + x2^2*-1 + x2*x3*0")
    assert str(members[1].tau) == "exp(x2*2 + x3*-1 + x1*x2*0 + x1*x3*0.5 + x1*2)"
    assert_rows_are_members(table, members)


def assert_rows_are_members(table: RandomDraws, members: list) -> None:
    texts = [(str(p.tau), str(p.kappa), str(p.mu)) for p in members]
    assert table.texts() == texts
    assert [FamilyParams.of(*text) for text in texts] == members
    pts = np.stack([ChartDomain().sample(5, m) for m in range(len(members))])
    assert jets_bits(table.params, pts) == jets_bits(stack_members(members), pts)


# --------------------------------------------------------------------------
# the restricted sub-family where the frame scalars have closed forms:
# tau = tau(x1, x2) increasing in x2, kappa and mu free of x1


SUB_PARAMS = FamilyParams.of(
    "exp(x2 + 0.3*x1*x2)", "1 + x2^2 + 0.5*x2*x3", "1 + x3^2"
)


def test_subfamily_phi_v_rho_closed_form(points):
    """phiV(rho) = -kappa_3 / (kappa mu) on the restricted sub-family."""
    s = build_family(SUB_PARAMS)
    cf = CornerFields(s)
    for p in points[:6]:
        kappa = SUB_PARAMS.kappa.eval_jet2(p)
        mu = SUB_PARAMS.mu.value(p)
        want = -kappa.grad[2] / (kappa.value * mu)
        assert cf.frame(p).phi_v_rho == pytest.approx(want, abs=1e-10)


def test_subfamily_phi_v_of_squared_norm(points):
    """phiV(|psi|^2) = -2 tau_2^2 kappa_3 / (tau^2 kappa^3 mu).

    The same expression with |psi|^2 in place of rho picks up the factor
    2 e^{2 rho}; both are checked against finite differences along phi V.
    """
    s = build_family(SUB_PARAMS)
    cf = CornerFields(s)
    for p in points[:6]:
        tau = SUB_PARAMS.tau.eval_jet2(p)
        kappa = SUB_PARAMS.kappa.eval_jet2(p)
        mu = SUB_PARAMS.mu.value(p)
        closed = (
            -2.0
            * tau.grad[1] ** 2
            * kappa.grad[2]
            / (tau.value**2 * kappa.value**3 * mu)
        )
        frame = cf.frame(p)

        def norm2(q):
            psi = cf.frame(q).psi
            return psi @ s.g.matrix(q) @ psi

        fd = frame.phi_v @ fd_grad(norm2, p)
        assert closed == pytest.approx(fd, abs=5e-7)
        assert closed == pytest.approx(
            2.0 * frame.e_rho**2 * frame.phi_v_rho, abs=1e-10
        )


def test_tau_is_checked_where_the_structure_is_evaluated():
    s = build_family(FamilyParams.of("x1 - 0.05", "1", "1"))
    pts = np.array([[0.5, 0.5, 0.5], [0.01, 0.5, 0.5], [0.02, 0.5, 0.5]])
    for field in (s.xi.values, s.eta.values, s.g.matrix):
        with pytest.raises(ValueError, match=r"tau > 0; tau\(\[0.01, 0.5, 0.5\]\)"):
            field(pts)
