"""Acceptance gate: one test per criterion, stated tolerances, fixed seeds.

Every criterion below samples from the unit box [0.1, 1]^3 with a frozen
seed, so each ``-v`` line is the pass/fail verdict for one criterion.
"""

import subprocess
import sys

import numpy as np
import pytest

from oracles import fd_christoffel, fd_grad, fd_hess, metric_fn_of
from test_cli import child_env

from cornergeo.acms import (
    BETA_KENMOTSU,
    COSYMPLECTIC,
    KENMOTSU,
    check_axioms,
    classify,
    normality_residual,
    olszak_alpha_beta,
)
from cornergeo.construct import (
    DeformationParams,
    TwinKind,
    deformed_type,
    ntilde_identity_residual,
    thcos_check,
    thken_check,
    twin,
)
from cornergeo.corner import (
    closed_omega_check,
    connection_table_residuals,
    corner_residual,
    corner_residual_forms,
    form_identities_residuals,
)
from cornergeo.family import (
    FamilyParams,
    build_family,
    preset_structure,
    random_family,
)
from cornergeo.fields import ChartDomain
from cornergeo.tensor import christoffel, volume_cross, volume_form

SEED = 20250825
POINTS = ChartDomain().sample(100, SEED)
CORNER_PRESETS = ("A", "B", "D")


def draws(stream_id, n, corner):
    rng = np.random.default_rng([SEED, stream_id])
    return [random_family(rng, corner=corner) for _ in range(n)]


def test_criterion_01_family_axioms():
    """20 random family draws satisfy the structure axioms within 1e-8."""
    worst = 0.0
    members = draws(1, 10, corner=True) + draws(2, 10, corner=False)
    for k, params in enumerate(members):
        s = build_family(params)
        rep = check_axioms(s, POINTS[5 * (k % 20) : 5 * (k % 20) + 5], tol=1e-8)
        assert rep.passed, (str(params.tau), rep.to_dict())
        worst = max(worst, rep.worst())
    assert worst < 1e-8


def test_criterion_02_corner_equivalence():
    """Corner draws: connection residual < 1e-8 and form system < 1e-7;
    kappa = e^{x1} violates the connection residual by more than 1e-3."""
    rng = np.random.default_rng([SEED, 3])
    for k, params in enumerate(draws(1, 20, corner=True)):
        s = build_family(params)
        pts = POINTS[5 * (k % 20) : 5 * (k % 20) + 5]
        rep = corner_residual(s, pts, rng, tol=1e-8)
        assert rep.passed and rep.worst() < 1e-8, rep.to_dict()
        forms = corner_residual_forms(s, pts, tol=1e-7)
        assert forms.passed and forms.worst() < 1e-7, forms.to_dict()
    broken = build_family(FamilyParams.of("exp(x2)", "exp(x1)", "1"))
    rep = corner_residual(broken, POINTS[:20], rng)
    assert rep.worst() > 1e-3


def test_criterion_03_connection_table():
    """All seven frame covariant-derivative identities < 1e-8 on A, B, D."""
    rng = np.random.default_rng([SEED, 4])
    for name in CORNER_PRESETS:
        rep = connection_table_residuals(preset_structure(name), POINTS, rng, tol=1e-8)
        assert rep.passed, (name, rep.to_dict())
        assert rep.worst() < 1e-8


def test_criterion_04_form_identities():
    """Coframe/derivative identities, including the mixed d theta2 route,
    < 1e-8 on A, B, D."""
    for name in CORNER_PRESETS:
        rep = form_identities_residuals(preset_structure(name), POINTS, tol=1e-8)
        assert rep.passed, (name, rep.to_dict())
        assert rep.worst() < 1e-8


def test_criterion_05_twin_theorems():
    """Preset A: V-twin is (beta-)Kenmotsu with |beta - tau_2/(tau kappa)| < 1e-6
    pointwise; preset B: phiV-twin cosymplectic with normality < 1e-8; the
    condition route and the classifier route agree on both."""
    a = preset_structure("A")
    verdict_a = thken_check(a, POINTS)
    assert verdict_a.conditions_hold and verdict_a.routes_agree
    assert verdict_a.twin_verdict in (KENMOTSU, BETA_KENMOTSU)
    bar = twin(a, TwinKind.V)
    for p in POINTS:
        _, beta = olszak_alpha_beta(bar, p)
        assert abs(beta - 1.0) < 1e-6  # tau_2/(tau kappa) = 1 on preset A

    b = preset_structure("B")
    verdict_b = thcos_check(b, POINTS)
    assert verdict_b.conditions_hold and verdict_b.routes_agree
    assert verdict_b.twin_verdict == COSYMPLECTIC
    hat = twin(b, TwinKind.PHI_V)
    res, _ = normality_residual(hat, POINTS[:25])
    assert res < 1e-8
    assert classify(hat, points=POINTS).verdict == COSYMPLECTIC


def test_criterion_06_deformation_structure_equations():
    """Phi~ = f Phi within 1e-9; the wedge lemma < 1e-8; both deformed
    structure equations < 1e-7, for f in {1, e^{x1}, 1 + x2^2} on B and D."""
    for name in ("B", "D"):
        s = preset_structure(name)
        for fsrc in ("1", "exp(x1)", "1 + x2^2"):
            rep = deformed_type(s, DeformationParams.of(fsrc), POINTS)
            r = rep.residuals
            assert r.max_abs("phi_scaling") < 1e-9, (name, fsrc)
            assert r.max_abs("lemma_dlnf_wedge") < 1e-8, (name, fsrc)
            assert r.max_abs("d_eta_tilde") < 1e-7, (name, fsrc)
            assert r.max_abs("d_phi_tilde") < 1e-7, (name, fsrc)


def test_criterion_07_normality_tensor_closed_form():
    """Closed-form deformed normality tensor matches brute force within 1e-7
    on 200 random probe pairs; sigma = 0 presets stay non-normal (> 1e-2)."""
    rng = np.random.default_rng([SEED, 5])
    for name in ("B", "D"):
        rep = ntilde_identity_residual(
            preset_structure(name),
            DeformationParams.of("exp(x1)"),
            POINTS,
            rng,
            pairs_per_point=2,  # 200 probe pairs over the 100 points
            tol=1e-7,
        )
        assert rep.passed, (name, rep.to_dict())
        assert rep.max_abs("ntilde_closed_vs_brute") < 1e-7
        assert rep.max_abs("ntilde_max") > 1e-2


def test_criterion_08_closed_omega_forces_sigma_zero():
    """Any preset whose omega is closed within 1e-8 has |sigma| < 1e-6."""
    checked = 0
    for name in ("A", "B", "C", "D"):
        rep = closed_omega_check(preset_structure(name), POINTS)
        if rep.max_abs("d_omega") < 1e-8:
            assert rep.max_abs("sigma") < 1e-6, name
            checked += 1
    assert checked > 0  # the implication was actually exercised


def test_criterion_09_kernel_oracles():
    """Christoffel symbols and jet derivatives match central differences
    (step 1e-4) within 1e-5 relative; the metric cross product satisfies
    its defining identity within 1e-9."""
    g = preset_structure("D").g
    fn = metric_fn_of(g)
    tau = FamilyParams.of("exp(x2 + x3)", "1 + x2^2", "1 + x2*x3").tau
    rng = np.random.default_rng([SEED, 6])
    for p in POINTS[:25]:
        gam = christoffel(g, p)
        ref = fd_christoffel(fn, p, h=1e-4)
        assert np.max(np.abs(gam - ref) / np.maximum(1.0, np.abs(ref))) < 1e-5
        jet = tau.eval_jet2(p)
        gref = fd_grad(tau.value, p, h=1e-4)
        href = fd_hess(tau.value, p, h=1e-4)
        assert np.max(np.abs(jet.grad - gref) / np.maximum(1.0, np.abs(gref))) < 1e-5
        assert np.max(np.abs(jet.hess - href) / np.maximum(1.0, np.abs(href))) < 1e-5
        x, y, z = rng.standard_normal((3, 3))
        cross = volume_cross(g, x, y, p)
        want = volume_form(g, x, y, z, p)
        assert abs(z @ g.matrix(p) @ cross - want) < 1e-9


def test_criterion_10_deterministic_reports():
    """`check --preset family:B --seed 7` twice gives byte-identical output."""
    cmd = [
        sys.executable,
        "-m",
        "cornergeo.cli",
        "check",
        "--preset",
        "family:B",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, env=child_env())
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty report
