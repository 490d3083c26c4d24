"""Frame fields, connection table and form identities for corner structures."""

import numpy as np
import pytest

from oracles import fd_covariant_deriv, fd_divergence, fd_grad, metric_fn_of, vector_fn_of

from cornergeo.corner import (
    CornerFields,
    DegenerateCornerError,
    closed_omega_check,
    connection_table_residuals,
    corner_residual,
    corner_residual_forms,
    form_identities_residuals,
    frame_residuals,
)
from cornergeo.family import FamilyParams, build_family, random_family
from cornergeo.fields import ChartDomain

CORNER_PRESETS = ("A", "B", "D")

# tau mixing x1 with x2/x3 gives a corner structure whose torsion scalar
# sigma is nonzero -- the presets all have sigma = 0, so keep one of these
# in every structural sweep
SIGMA_PARAMS = FamilyParams.of("exp(x2 + x1*x3)", "1 + x2^2", "1 + x2*x3")


@pytest.fixture(scope="module")
def sigma_structure():
    return build_family(SIGMA_PARAMS)


def test_psi_is_minus_nabla_xi_xi(structures, corner_fields, points):
    for name in CORNER_PRESETS:
        s = structures[name]
        fn = metric_fn_of(s.g)
        xf = vector_fn_of(s.xi)
        for p in points[:5]:
            want = -fd_covariant_deriv(fn, xf, xf, p)
            np.testing.assert_allclose(
                corner_fields[name].frame(p).psi, want, atol=5e-8
            )


def test_degenerate_frame_raises():
    flat = build_family(FamilyParams.of("1", "1", "1"))
    with pytest.raises(DegenerateCornerError):
        CornerFields(flat).frame(np.array([0.5, 0.5, 0.5]))


def test_frame_frozen_preset_b(structures):
    f = structures["B"].corner.frame(np.zeros(3))
    assert f.e_rho == pytest.approx(1.0)
    assert f.rho == pytest.approx(0.0)
    np.testing.assert_allclose(f.v, [0.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(f.phi_v, [0.0, 0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(f.theta1, [0.0, 1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(f.theta2, [0.0, 0.0, 1.0], atol=1e-14)
    assert f.sigma == pytest.approx(0.0, abs=1e-14)
    assert f.div_v == pytest.approx(1.0)
    assert f.phi_v_rho == pytest.approx(0.0, abs=1e-14)


def test_frame_frozen_preset_a(structures):
    # tau = mu = e^{x2}, kappa = 1: unit psi everywhere, div V = 2
    p = np.array([0.0, np.log(2.0), 0.0])
    f = structures["A"].corner.frame(p)
    assert f.e_rho == pytest.approx(1.0)
    assert f.div_v == pytest.approx(2.0)
    assert f.theta2 @ np.array([0.0, 0.0, 1.0]) == pytest.approx(2.0)
    np.testing.assert_allclose(f.v, [0.0, 1.0, 0.0], atol=1e-14)


def test_div_v_against_density_oracle(structures, corner_fields, points):
    for name in CORNER_PRESETS:
        s = structures[name]
        cf = corner_fields[name]
        fn = metric_fn_of(s.g)
        for p in points[:4]:
            got = cf.frame(p).div_v
            assert got == pytest.approx(
                fd_divergence(fn, lambda q: cf.v.values(q), p), abs=5e-8
            )


def test_phi_v_rho_is_a_directional_derivative(structures, corner_fields, points):
    s = structures["D"]
    cf = corner_fields["D"]
    for p in points[:4]:
        f = cf.frame(p)
        want = f.phi_v @ fd_grad(lambda q: cf.bundle(q).rho.value, p)
        assert f.phi_v_rho == pytest.approx(want, abs=5e-8)


def test_frame_residuals_pass(structures, points, sigma_structure):
    for name in CORNER_PRESETS:
        rep = frame_residuals(structures[name], points)
        assert rep.passed, rep.to_dict()
        assert rep.worst() < 1e-12
    rep = frame_residuals(sigma_structure, points)
    assert rep.passed and rep.worst() < 1e-12


def test_frame_residuals_random_corner_draws(rng, points):
    for _ in range(4):
        s = build_family(random_family(rng))
        rep = frame_residuals(s, points[:6])
        assert rep.passed, rep.to_dict()


def test_connection_table(structures, points, rng, sigma_structure):
    for name in CORNER_PRESETS:
        rep = connection_table_residuals(structures[name], points, rng)
        assert rep.passed
        assert rep.worst() < 1e-12
    # sigma-dependent rows only bite when sigma != 0
    rep = connection_table_residuals(sigma_structure, points, rng)
    assert rep.passed, rep.to_dict()
    assert rep.worst() < 1e-12


def test_connection_table_names(structures, points, rng):
    rep = connection_table_residuals(structures["B"], points[:3], rng)
    names = {r.name for r in rep.residuals}
    assert names == {
        "nabla_xi",
        "nabla_xi_v",
        "nabla_v_v",
        "nabla_phiv_v",
        "nabla_xi_phiv",
        "nabla_v_phiv",
        "nabla_phiv_phiv",
    }


def test_corner_residual_zero_on_presets(structures, points, rng):
    for name in CORNER_PRESETS:
        rep = corner_residual(structures[name], points, rng)
        assert rep.passed
        assert rep.worst() < 1e-12


def test_corner_residual_detects_preset_c(structures, rng):
    rep = corner_residual(structures["C"], [np.array([0.5, 0.5, 0.5])], rng)
    assert not rep.passed
    # kappa = e^{x1} gives |kappa_1|/kappa-style defect e^{-1/2} at the center
    assert rep.max_abs("nabla_phi_xi") == pytest.approx(np.exp(-0.5), abs=1e-10)


def test_corner_forms_split_on_preset_c(structures, points):
    rep = corner_residual_forms(structures["C"], points)
    assert not rep.passed
    # d eta = omega ^ eta holds for every frame, corner or not ...
    assert rep.max_abs("d_eta_vs_omega_wedge_eta") < 1e-12
    # ... while the closedness of Phi and the torsion both fail
    assert rep.max_abs("d_phi") > 1e-2
    assert rep.max_abs("nijenhuis") > 1e-2


def test_corner_forms_zero_on_presets(structures, points):
    for name in CORNER_PRESETS:
        rep = corner_residual_forms(structures[name], points)
        assert rep.passed
        assert rep.worst() < 1e-12


def test_form_identities(structures, points, sigma_structure):
    for name in CORNER_PRESETS:
        rep = form_identities_residuals(structures[name], points)
        assert rep.passed, rep.to_dict()
        assert rep.worst() < 1e-12
    rep = form_identities_residuals(sigma_structure, points)
    assert rep.passed
    names = {r.name for r in rep.residuals}
    assert {"phi_as_two_theta2_theta1", "d_theta1", "d_theta2", "d_theta2_via_d_eta"} <= names


def test_closed_omega_presets(structures, points):
    for name in CORNER_PRESETS:
        rep = closed_omega_check(structures[name], points)
        assert rep.details["omega_closed"]
        assert rep.details["implication_holds"]
        assert rep.max_abs("sigma") < 1e-12


def test_closed_omega_vacuous_when_omega_is_not_closed(points, sigma_structure):
    rep = closed_omega_check(sigma_structure, points)
    assert not rep.details["omega_closed"]
    assert rep.details["implication_holds"]  # nothing to imply
    assert rep.max_abs("sigma") > 1e-2


def test_closed_omega_counts_degenerate_points(points):
    flat = build_family(FamilyParams.of("1", "1", "1"))
    rep = closed_omega_check(flat, points)
    assert rep.details["degenerate_points"] == len(points)
    assert not rep.details["failed"]


def test_field_accessors_match_frame(corner_fields, points):
    cf = corner_fields["D"]
    for p in points[:4]:
        f = cf.frame(p)
        np.testing.assert_allclose(cf.bundle(p).psi.value, f.psi, atol=1e-14)
        np.testing.assert_allclose(cf.v.values(p), f.v, atol=1e-14)
        np.testing.assert_allclose(cf.phi_v.values(p), f.phi_v, atol=1e-14)
        np.testing.assert_allclose(cf.bundle(p).omega.value, f.omega, atol=1e-14)
        np.testing.assert_allclose(cf.theta1.values(p), f.theta1, atol=1e-14)
        np.testing.assert_allclose(cf.theta2.values(p), f.theta2, atol=1e-14)
        assert cf.bundle(p).rho.value == pytest.approx(f.rho, abs=1e-14)
