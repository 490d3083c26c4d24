"""Twin structures and the contact-form deformation."""

import json

import numpy as np
import pytest

from oracles import fd_d_oneform, fd_divergence, metric_fn_of

from cornergeo import construct
from cornergeo.cli import ALL_SUITES, main
from cornergeo.acms import (
    COSYMPLECTIC,
    KENMOTSU,
    SASAKIAN,
    TRANS_SASAKIAN,
    check_axioms,
    classify,
    fundamental_two_form_matrix,
    n1_tensor,
    olszak_alpha_beta,
)
from cornergeo.construct import (
    DeformationParams,
    NonPositiveFError,
    TwinKind,
    corollary_case,
    corollary_gate,
    deform,
    deformed_type,
    ntilde_identity_residual,
    thcos_check,
    thken_check,
    twin,
)
from cornergeo.corner import CornerFields
from cornergeo.family import FamilyParams, build_family, random_family
from cornergeo.fields import dot, mv, vm
from cornergeo.tensor import d_oneform_matrix

SIGMA_PARAMS = FamilyParams.of("exp(x2 + x1*x3)", "1 + x2^2", "1 + x2*x3")

F_CHOICES = ("1", "exp(x1)", "1 + x2^2")


# --------------------------------------------------------------------------
# twins


def test_v_twin_frozen_values(structures):
    s = structures["A"]
    t = twin(s, TwinKind.V)
    origin = np.zeros(3)
    e = np.eye(3)
    # at the origin of preset A: xi = d1, V = d2, phi V = d3
    np.testing.assert_allclose(t.xi.values(origin), e[1], atol=1e-14)
    np.testing.assert_allclose(t.eta.values(origin), e[1], atol=1e-14)
    P = t.phi.matrix(origin)
    np.testing.assert_allclose(P @ e[0], -e[2], atol=1e-14)  # phi' xi = -phi V
    np.testing.assert_allclose(P @ e[2], e[0], atol=1e-14)  # phi'(phi V) = xi
    np.testing.assert_allclose(P @ e[1], np.zeros(3), atol=1e-14)  # new Reeb


def test_phi_v_twin_reeb(structures, points):
    s = structures["B"]
    cf = CornerFields(s)
    t = twin(s, TwinKind.PHI_V)
    for p in points[:4]:
        f = cf.frame(p)
        np.testing.assert_allclose(t.xi.values(p), f.phi_v, atol=1e-13)
        np.testing.assert_allclose(t.eta.values(p), f.theta2, atol=1e-13)


@pytest.mark.parametrize("kind", [TwinKind.V, TwinKind.PHI_V])
def test_twin_axioms(structures, points, kind):
    for name in ("A", "B", "D"):
        rep = check_axioms(twin(structures[name], kind), points)
        assert rep.passed, (name, kind, rep.to_dict())
        assert rep.worst() < 1e-12


def test_twin_axioms_random_draws(rng, points):
    for _ in range(3):
        s = build_family(random_family(rng))
        for kind in TwinKind:
            assert check_axioms(twin(s, kind), points[:6]).passed


def test_twin_shares_metric(structures, points):
    s = structures["D"]
    t = twin(s, TwinKind.V)
    for p in points[:3]:
        np.testing.assert_allclose(t.g.matrix(p), s.g.matrix(p), atol=0)


def test_thken_on_presets(structures, points):
    v = thken_check(structures["A"], points)
    assert v.theorem == "v_twin_beta_kenmotsu"
    assert v.conditions_hold and v.twin_matches and v.routes_agree
    assert v.twin_verdict == KENMOTSU  # beta = e^rho = 1 on preset A
    b = thken_check(structures["B"], points)
    assert not b.conditions_hold and b.routes_agree
    assert b.condition_residuals["div_v_minus_2_erho"] == pytest.approx(1.0)
    d = thken_check(structures["D"], points)
    assert not d.conditions_hold and d.routes_agree


def test_thcos_on_presets(structures, points):
    v = thcos_check(structures["B"], points)
    assert v.conditions_hold and v.twin_matches and v.routes_agree
    assert v.twin_verdict == COSYMPLECTIC
    assert set(v.condition_residuals) == {"div_v_minus_erho", "sigma", "phi_v_rho"}
    a = thcos_check(structures["A"], points)
    assert not a.conditions_hold and a.routes_agree
    assert a.condition_residuals["div_v_minus_erho"] == pytest.approx(1.0)


def test_twin_verdict_serializes(structures, points):
    d = thken_check(structures["A"], points[:5]).to_dict()
    assert d["theorem"] == "v_twin_beta_kenmotsu"
    assert d["conditions_hold"] is True
    assert "condition_residuals" in d


# --------------------------------------------------------------------------
# deformation: structure, axioms, type functions


def test_deform_rejects_nonpositive_f(structures):
    with pytest.raises(NonPositiveFError):
        deform(structures["B"], DeformationParams.of("x1 - 0.5"))
    with pytest.raises(NonPositiveFError):
        deform(structures["B"], DeformationParams.of("0 - 1"))


def test_deformed_metric_frozen(structures):
    # preset B, f = 1, origin: g = id, eta = dx1, theta2 = dx3
    d = deform(structures["B"], DeformationParams.of("1"))
    want = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(d.g.matrix(np.zeros(3)), want, atol=1e-14)
    np.testing.assert_allclose(d.eta.values(np.zeros(3)), [1.0, 0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(d.xi.values(np.zeros(3)), [1.0, 0.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("fsrc", F_CHOICES)
def test_deformed_axioms(structures, points, fsrc):
    for name in ("B", "D"):
        d = deform(structures[name], DeformationParams.of(fsrc))
        rep = check_axioms(d, points)
        assert rep.passed, (name, fsrc, rep.to_dict())
        assert rep.worst() < 1e-12


@pytest.mark.parametrize("fsrc", F_CHOICES)
def test_structure_equations(structures, points, fsrc):
    for name in ("B", "D"):
        rep = deformed_type(structures[name], DeformationParams.of(fsrc), points)
        assert rep.residuals.passed, (name, fsrc, rep.residuals.to_dict())
        assert rep.residuals.worst() < 1e-12
        assert not rep.gate_holds  # sigma = 0 != e^rho on every preset


def test_d_eta_tilde_identity_by_finite_differences(structures):
    """The deformed contact form obeys
    d eta~ = (1 - sigma/e^rho) d eta + (div V - e^rho)/(2f) Phi~,
    rebuilt here entirely from central differences and pointwise values."""
    s = structures["D"]
    cf = CornerFields(s)
    params = DeformationParams.of("exp(x1)")
    d = deform(s, params)
    fn = metric_fn_of(s.g)
    for p in [np.array([0.4, 0.5, 0.6]), np.array([0.8, 0.3, 0.9])]:
        frame = cf.frame(p)
        fval = params.f.value(p)
        div_v = fd_divergence(fn, lambda q: cf.v.values(q), p)
        lhs = fd_d_oneform(lambda q: d.eta.values(q), p)
        rhs = (1.0 - frame.sigma / frame.e_rho) * fd_d_oneform(
            lambda q: s.eta.values(q), p
        ) + ((div_v - frame.e_rho) / (2.0 * fval)) * fundamental_two_form_matrix(d, p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)


def test_type_functions_frozen_preset_b(structures, points):
    # preset B, f = e^{x1}: beta~ = e^{-x2}/2 pointwise and alpha~ = 0
    rep = deformed_type(structures["B"], DeformationParams.of("exp(x1)"), points)
    np.testing.assert_allclose(rep.alphas, np.zeros(len(points)), atol=1e-12)
    np.testing.assert_allclose(
        rep.betas, 0.5 * np.exp(-points[:, 1]), atol=1e-12
    )


def test_alpha_tilde_against_oracle(structures):
    """alpha~ = (div V - e^rho)/(2f) with both scalars from FD oracles."""
    s = structures["D"]
    cf = CornerFields(s)
    fn = metric_fn_of(s.g)
    pts = np.array([[0.4, 0.5, 0.6], [0.7, 0.2, 0.9]])
    rep = deformed_type(s, DeformationParams.of("1"), pts)
    for k, p in enumerate(pts):
        psi = cf.frame(p).psi
        e_rho = np.sqrt(psi @ s.g.matrix(p) @ psi)
        div_v = fd_divergence(fn, lambda q: cf.v.values(q), p)
        assert rep.alphas[k] == pytest.approx((div_v - e_rho) / 2.0, abs=1e-7)


@pytest.mark.parametrize("fsrc", ["1", "exp(x1)"])
def test_olszak_functions_of_the_deformed_structure(points, fsrc):
    """Olszak's (alpha, beta) of the deformed structure satisfy
    alpha = alpha~ - (e^rho - sigma)/(2f) and beta = beta~ on every corner
    structure, normal or not."""
    s = build_family(SIGMA_PARAMS)
    cf = CornerFields(s)
    params = DeformationParams.of(fsrc)
    d = deform(s, params)
    for p in points[:5]:
        frame = cf.frame(p)
        fj = params.f.eval_jet2(p)
        a, b = olszak_alpha_beta(d, p)
        alpha_t = (frame.div_v - frame.e_rho) / (2.0 * fj.value)
        beta_t = 0.5 * float(s.xi.values(p) @ (fj.grad / fj.value))
        assert a == pytest.approx(
            alpha_t - (frame.e_rho - frame.sigma) / (2.0 * fj.value), abs=1e-12
        )
        assert b == pytest.approx(beta_t, abs=1e-12)


def test_deformed_not_normal_off_gate(structures, points):
    d = deform(structures["D"], DeformationParams.of("exp(x1)"))
    assert classify(d, points=points).verdict == "not-normal"


# --------------------------------------------------------------------------
# normality tensor of the deformation


def test_ntilde_closed_form(structures, points, rng):
    for name in ("B", "D"):
        rep = ntilde_identity_residual(
            structures[name], DeformationParams.of("exp(x1)"), points, rng
        )
        assert rep.passed, rep.to_dict()
        assert rep.max_abs("ntilde_closed_vs_brute") < 1e-12
        assert rep.max_abs("ntilde_max") > 1e-2  # sigma = 0: never normal


def test_ntilde_closed_form_sigma_nonzero(points, rng):
    s = build_family(SIGMA_PARAMS)
    rep = ntilde_identity_residual(
        s, DeformationParams.of("1 + x2^2"), points, rng
    )
    assert rep.passed
    assert rep.max_abs("ntilde_closed_vs_brute") < 1e-12


def ntilde_columns_pair_by_pair(s, params, p, rng, n_pairs) -> tuple:
    """The two columns of ``ntilde_identity_residual``, one pair at a time,
    with the brute-force route through ``n1_tensor``."""
    deformed = deform(s, params)
    f = s.corner.frame(p)
    P, xi, deta, th2 = s.phi.matrix(p), s.xi.values(p), d_oneform_matrix(s.eta, p), f.theta2
    factor = 2.0 * (1.0 - f.sigma / f.e_rho)
    if rng is None:
        draws = np.broadcast_to(np.eye(3)[:2], (len(p), n_pairs, 2, 3))
    else:
        draws = rng.standard_normal((len(p), n_pairs, 2, 3))
    gaps, sizes = np.empty((2, len(p), n_pairs))
    for k in range(n_pairs):
        x, y = draws[:, k, 0], draws[:, k, 1]
        px, py = mv(P, x), mv(P, y)
        scalar = (
            dot(vm(x, deta), y)
            - dot(vm(px, deta), xi) * dot(th2, py)
            - dot(vm(xi, deta), py) * dot(th2, px)
        )
        brute = n1_tensor(deformed, x, y, p)
        gaps[:, k] = np.max(np.abs((factor * scalar)[:, None] * xi - brute), axis=-1)
        sizes[:, k] = np.max(np.abs(brute), axis=-1)
    return gaps, sizes


@pytest.mark.parametrize("seeded", [False, True], ids=["axes", "seeded"])
@pytest.mark.parametrize("n_pairs", [1, 2, 5])
@pytest.mark.parametrize("name", ["D", "sigma"])
def test_ntilde_over_all_pairs_at_once_is_the_pair_by_pair_loop_bit_for_bit(
    monkeypatch, structures, points, name, n_pairs, seeded
):
    columns = {}

    class Recording(construct.ResidualTracker):
        def update(self, column, values, kept=None):
            columns[column] = np.asarray(values)
            super().update(column, values, kept)

    monkeypatch.setattr(construct, "ResidualTracker", Recording)
    s = structures["D"] if name == "D" else build_family(SIGMA_PARAMS)
    params = DeformationParams.of("exp(x1)")
    ntilde_identity_residual(s, params, points, np.random.default_rng(7) if seeded else None,
                             pairs_per_point=n_pairs)
    want = ntilde_columns_pair_by_pair(s, params, points,
                                       np.random.default_rng(7) if seeded else None, n_pairs)
    for column, expected in zip(("ntilde_closed_vs_brute", "ntilde_max"), want):
        got = columns[column]
        assert got.shape == expected.shape == (len(points), n_pairs)
        assert got.tobytes() == expected.tobytes(), column


# --------------------------------------------------------------------------
# the normal-gate special cases


@pytest.mark.parametrize(
    "e_rho,div_v,f,xi_f,want",
    [
        (1.0, 1.0, 0.5, 0.0, COSYMPLECTIC),
        (1.0, 1.0, 0.5, 1.0, KENMOTSU),  # xi(f) = 2f
        (1.0, 2.0, 0.5, 0.0, SASAKIAN),  # div V = e^rho + 2f
        (2.0, 3.0, 0.5, 0.0, SASAKIAN),
        (1.0, 1.7, 0.5, 0.3, TRANS_SASAKIAN),
        (1.0, 1.0, 0.5, 0.4, TRANS_SASAKIAN),  # xi(f) neither 0 nor 2f
    ],
)
def test_corollary_case(e_rho, div_v, f, xi_f, want):
    assert corollary_case(e_rho, div_v, f, xi_f) == want


def test_corollary_case_tolerance():
    assert corollary_case(1.0, 1.0 + 1e-9, 0.5, 1e-9) == COSYMPLECTIC
    assert corollary_case(1.0, 1.0 + 1e-3, 0.5, 0.0) == TRANS_SASAKIAN


def test_corollary_gate_closed_on_presets(structures, points):
    for name in ("A", "B", "D"):
        rep = corollary_gate(structures[name], DeformationParams.of("1"), points)
        assert not rep.gate_holds
        assert rep.case is None
        # sigma = 0 on the presets, so the gate misses by e^rho
        assert rep.gate_residual_max > 0.5


# two members at which the gate sigma = e^rho opens.  With kappa = mu = 1 and
# (tau_2, tau_3) = r (cos theta, sin theta), e^rho = r / tau and sigma =
# d_1 theta / tau, so the gate is d_1 theta = r: the rotation member has
# theta = x1 and r = 1.  The Sasakian member has sin theta = 0.3 x1 + 0.2 x3,
# so div V - e^rho = 0.2 and f = 0.1 is its Sasakian factor (div V = e^rho + 2f).
GATE_OPEN = {
    "rotation": {"tau": "x2*cos(x1) + x3*sin(x1)", "kappa": "1", "mu": "1"},
    "sasakian": {"tau": "0.3*x2 - 1.5*sqrt(1 - (0.3*x1 + 0.2*x3)^2) + 2",
                 "kappa": "1", "mu": "1"},
}


def scene_report(tmp_path, capsys, member, argv) -> tuple:
    """The exit code and report of ``argv`` on a scene file of the member, 12 samples."""
    path = tmp_path / f"{member}.json"
    path.write_text(json.dumps({"family": GATE_OPEN[member], "samples": 12, "seed": 0}))
    code = main(argv + ["--config", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("member", GATE_OPEN)
def test_a_gate_open_member_is_a_corner_structure_that_is_not_normal(tmp_path, capsys, member):
    argv = ["check", "--suites", ",".join(ALL_SUITES)]
    code, payload = scene_report(tmp_path, capsys, member, argv)
    assert code == 0 and payload["passed"] and sorted(payload["suites"]) == sorted(ALL_SUITES)
    code, payload = scene_report(tmp_path, capsys, member, ["classify"])
    assert code == 0
    assert payload["suites"]["classify"]["classification"]["verdict"] == "not-normal"


@pytest.mark.parametrize(
    "member, f, case, verdict",
    [
        ("rotation", "1", "cosymplectic", "cosymplectic"),
        ("rotation", "exp(2*(x2*sin(x1) - x3*cos(x1)))", "Kenmotsu", "Kenmotsu"),
        # the corollary names three special cases; beta-Kenmotsu is trans-Sasakian
        ("rotation", "exp(x1)", "trans-Sasakian", "beta-Kenmotsu"),
        ("sasakian", "0.1", "Sasakian", "Sasakian"),
        ("sasakian", "0.2", "trans-Sasakian", "alpha-Sasakian"),
    ],
    ids=["rotation-cosymplectic", "rotation-kenmotsu", "rotation-beta-kenmotsu",
         "sasakian-sasakian", "sasakian-alpha-sasakian"],
)
def test_the_deformation_through_an_open_gate_is_normal(tmp_path, capsys, member, f, case,
                                                         verdict):
    code, payload = scene_report(tmp_path, capsys, member, ["deform", "--f", f])
    deformed = payload["suites"]["deform"]
    assert code == 0 and deformed["passed"]
    assert deformed["corollary"]["gate_holds"] is True
    got = deformed["corollary"]["case"], deformed["classification"]["verdict"]
    assert got == (case, verdict)


def test_twin_theorem_computes_normality_once(structures, points, monkeypatch):
    from cornergeo import acms, construct

    calls = []
    original = acms.normality_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(acms, "normality_residual", counted)
    monkeypatch.setattr(construct, "normality_residual", counted, raising=False)
    verdict = thken_check(structures["A"], points[:6])
    assert len(calls) == 1
    assert verdict.twin_residuals["normality"] == classify(
        twin(structures["A"], TwinKind.V), points=points[:6]
    ).normality


@pytest.mark.parametrize("check", [thken_check, thcos_check])
def test_twin_theorem_computes_alpha_beta_once(structures, points, monkeypatch, check):
    """The theorem reads the twin's pointwise (alpha, beta) from its classification."""
    from cornergeo import acms, construct

    calls = []
    original = acms.olszak_alpha_beta

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(acms, "olszak_alpha_beta", counted)
    monkeypatch.setattr(construct, "olszak_alpha_beta", counted, raising=False)
    verdict = check(structures["A"], points[:6])
    assert len(calls) == 1
    kind = TwinKind.V if check is thken_check else TwinKind.PHI_V
    alpha, _ = original(twin(structures["A"], kind), points[:6])
    assert verdict.twin_residuals["alpha"] == float(np.max(np.abs(alpha)))


def test_deformed_metric_checks_f_where_it_is_evaluated(structures):
    # f > 0 on the 50-point pre-check sample, f < 0 at the second point below
    d = deform(structures["B"], DeformationParams.of("x1 - 0.1"))
    pts = np.array([[0.5, 0.5, 0.5], [0.05, 0.5, 0.5], [0.01, 0.5, 0.5]])
    with pytest.raises(NonPositiveFError) as err:
        d.g.matrix(pts)
    np.testing.assert_array_equal(err.value.point, pts[1])
