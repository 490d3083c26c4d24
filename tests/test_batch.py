"""Batched evaluation: a sample of N points against N samples of one point.

Every field, Christoffel symbol and frame quantity is evaluated over a whole
sample at once.  Row n of such a batch must equal the batch of the single
point n bit for bit, and the domain checks must skip or raise exactly as a
point-by-point loop would.
"""

import numpy as np
import pytest

from oracles import fd_grad, fd_hess
from test_expr import SWEEP

from cornergeo.acms import check_axioms, classify
from cornergeo.corner import (
    CornerFields,
    closed_omega_check,
    connection_table_residuals,
    corner_residual,
    corner_residual_forms,
    form_identities_residuals,
    frame_residuals,
)
from cornergeo.expr import EvalDomainError, parse
from cornergeo.family import FamilyParams, build_family, preset, random_family
from cornergeo.fields import ChartDomain, SingularMetricError, dot, gnorm, max_abs, mv, vm, vnorm
from cornergeo.tensor import probe_vectors

POINTS = ChartDomain().sample(12, 31)
PARAMS = [preset(name).params for name in "ABCD"] + [
    random_family(np.random.default_rng([31, k])) for k in range(3)
]
IDS = ["A", "B", "C", "D", "random0", "random1", "random2"]


def same(a, b) -> bool:
    """Bitwise equality of two float arrays (NaN-safe, sign of zero kept)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_match(batch, single, n):
    """``batch`` (a jet over all points) at row n equals ``single`` (one point)."""
    assert same(batch.value[n], single.value[0])
    for order in ("grad", "hess"):
        b, s = getattr(batch, order), getattr(single, order)
        assert (b is None) == (s is None)
        if b is not None:
            assert same(b[n], s[0])


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_expression_jets_row_by_row(params):
    for expr in (params.tau, params.kappa, params.mu):
        batch = expr.eval_jet2(POINTS)
        for n in range(len(POINTS)):
            assert_rows_match(batch, expr.eval_jet2(POINTS[n : n + 1]), n)
            single = expr.eval_jet2(POINTS[n])
            assert same(batch.value[n], single.value) and same(batch.hess[n], single.hess)


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_christoffel_row_by_row(params):
    g = build_family(params).g
    values, partials = g.christoffel(POINTS), g.christoffel_partials(POINTS)
    for n in range(len(POINTS)):
        one = POINTS[n : n + 1]
        assert same(values[n], g.christoffel(one)[0])
        assert same(partials[n], g.christoffel_partials(one)[0])


@pytest.mark.parametrize("params", [p for p, i in zip(PARAMS, IDS) if i != "C"],
                         ids=[i for i in IDS if i != "C"])
def test_bundle_and_frame_row_by_row(params):
    s = build_family(params)
    batch_fields, single_fields = CornerFields(s), CornerFields(s)
    bundle = batch_fields.bundle(POINTS)
    frame = batch_fields.frame(POINTS)
    for n in range(len(POINTS)):
        one = POINTS[n : n + 1]
        single = single_fields.bundle(one)
        for name in ("xi", "eta", "psi", "omega", "v", "phi_v", "theta1", "theta2"):
            for b, s1 in zip(getattr(bundle, name), getattr(single, name)):
                assert_rows_match(b, s1, n)
        for name in ("norm2", "e_rho", "rho"):
            assert_rows_match(getattr(bundle, name), getattr(single, name), n)
        f1 = single_fields.frame(one)
        for name in ("point", "psi", "omega", "rho", "e_rho", "v", "phi_v", "theta1",
                     "theta2", "sigma", "div_v", "phi_v_rho"):
            assert same(getattr(frame, name)[n], getattr(f1, name)[0]), name
        # a single point, shape (3,), is the batch of one without its axis
        f0 = single_fields.frame(POINTS[n])
        assert same(f0.sigma, f1.sigma[0]) and same(f0.theta2, f1.theta2[0])


def test_batched_products_match_per_point_numpy():
    rng = np.random.default_rng(3)
    A, G = rng.standard_normal((2, 40, 3, 3))
    G = G @ np.swapaxes(G, -1, -2) - 0.5 * np.eye(3)  # some g-norms clip at 0
    x, y = rng.standard_normal((2, 40, 3))
    for n in range(40):
        assert same(mv(A, x)[n], A[n] @ x[n])
        assert same(vm(x, A)[n], x[n] @ A[n])
        assert same(dot(x, y)[n], x[n] @ y[n])
        assert same(vnorm(x)[n], np.linalg.norm(x[n]))
        assert same(gnorm(G, x)[n], np.sqrt(max(x[n] @ G[n] @ x[n], 0.0)))
        assert same(max_abs(A)[n], np.max(np.abs(A[n])))


@pytest.mark.parametrize("params", [PARAMS[3], PARAMS[4]], ids=["D", "random0"])
def test_frame_scalars_match_the_per_point_formulas(params):
    """The frame's reductions, batched, against their one-point numpy form."""
    s = build_family(params)
    cf = CornerFields(s)
    f, b = cf.frame(POINTS), cf.bundle(POINTS)
    G, gam = s.g.matrix(POINTS), s.g.christoffel(POINTS)
    for n in range(len(POINTS)):
        xi_v, v, phi_v = (np.array([j.value[n] for j in b_]) for b_ in (b.xi, b.v, b.phi_v))
        jac_v = np.array([j.grad[n] for j in b.v])
        nabla_xi_v = jac_v @ xi_v + np.einsum("kij,i,j->k", gam[n], xi_v, v)
        assert same(f.sigma[n], float(nabla_xi_v @ G[n] @ phi_v))
        assert same(f.div_v[n], float(np.trace(jac_v) + np.einsum("kki,i->", gam[n], v)))
        assert same(f.phi_v_rho[n], float(phi_v @ b.rho.grad[n]))


def test_probe_vectors_row_by_row():
    s = build_family(PARAMS[4])
    xi = s.xi.values(POINTS)
    probes, kept = probe_vectors(s.g, POINTS, np.random.default_rng(4), 4, extra=[xi])
    rng = np.random.default_rng(4)  # one stream, drawn point by point
    for n, p in enumerate(POINTS):
        single = probe_vectors(s.g, p, rng, 4, extra=[xi[n]])
        assert len(single) == kept[n].sum()
        for a, b in zip(probes[n][kept[n]], single):
            assert same(a, b)


SUITES = {
    "axioms": lambda s, pts, rng: check_axioms(s, pts),
    "corner": lambda s, pts, rng: corner_residual(s, pts, rng),
    "forms": lambda s, pts, rng: corner_residual_forms(s, pts),
    "table": lambda s, pts, rng: connection_table_residuals(s, pts, rng),
    "frame": lambda s, pts, rng: frame_residuals(s, pts),
    "identities": lambda s, pts, rng: form_identities_residuals(s, pts),
    "closed": lambda s, pts, rng: closed_omega_check(s, pts),
}


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("params", [PARAMS[3], PARAMS[5]], ids=["D", "random1"])
def test_suites_match_a_point_by_point_loop(suite, params):
    """A suite over the sample reports the worst residual, and where it
    occurred, of the same suite run on each point in turn."""
    s, run = build_family(params), SUITES[suite]
    batch = run(s, POINTS, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    singles = [run(s, p, rng) for p in POINTS]
    for r in batch.residuals:
        values = [one.max_abs(r.name) for one in singles]
        assert same(r.max_abs, max(values))
        first = singles[values.index(max(values))].residuals
        assert r.argmax_point == next(x.argmax_point for x in first if x.name == r.name)


def test_exponent_constant_at_some_points_only():
    # x2^3 has zero gradient and Hessian at x2 = 0 only: there the power
    # takes the constant-exponent rule, elsewhere exp(b ln a)
    expr = parse("x1^(x2^3)")
    pts = np.array([[0.5, 0.0, 0.1], [0.5, 0.4, 0.1], [0.7, 0.0, 0.3]])
    batch = expr.eval_jet2(pts)
    for n in range(len(pts)):
        assert_rows_match(batch, expr.eval_jet2(pts[n : n + 1]), n)
    assert batch.value[0] == 1.0


@pytest.mark.parametrize("src", SWEEP)
def test_batched_jets_match_finite_differences(src):
    expr = parse(src)
    jet = expr.eval_jet2(POINTS)
    assert jet.value.shape == (len(POINTS),)
    assert jet.grad.shape == (len(POINTS), 3)
    assert jet.hess.shape == (len(POINTS), 3, 3)
    for n, p in enumerate(POINTS):
        assert jet.value[n] == pytest.approx(expr.value(p), abs=1e-14)
        np.testing.assert_allclose(jet.grad[n], fd_grad(expr.value, p), atol=2e-8)
        np.testing.assert_allclose(jet.hess[n], fd_hess(expr.value, p), atol=2e-6)


# --------------------------------------------------------------------------
# skipped points and errors, batch against point by point

# kappa nearly vanishes at x1 = 0.3 (det g ~ 1e-14: singular, but not
# exactly zero); tau is stationary in x2 and x3 at (0.5, 0.5), so psi = 0
# there and the frame is degenerate
SKIP_PARAMS = FamilyParams.of("exp((x2 - 0.5)^2 + (x3 - 0.5)^2)", "x1 - 0.3 + 1e-7", "1 + x2")
SINGULAR = np.array([0.3, 0.7, 0.2])
DEGENERATE = np.array([0.8, 0.5, 0.5])


def mixed_points():
    pts = ChartDomain().sample(8, 5)
    pts[2] = SINGULAR
    pts[5] = DEGENERATE
    return pts


def test_singular_points_are_skipped_as_one_at_a_time():
    s = build_family(SKIP_PARAMS)
    pts = mixed_points()
    batch = check_axioms(s, pts)
    singles = [check_axioms(s, p) for p in pts]
    assert batch.details["skipped_points"] == 1
    assert sum(r.details["skipped_points"] for r in singles) == 1
    for r in batch.residuals:
        assert same(r.max_abs, max(x.max_abs(r.name) for x in singles if x.residuals))

    rep = classify(s, points=pts)
    skipped = 0
    for p in pts:
        try:
            classify(s, points=[p])
        except SingularMetricError:
            skipped += 1
    assert rep.notes["skipped_points"] == skipped == 1
    assert rep.points_used == len(pts) - 1


def test_degenerate_points_are_counted_as_one_at_a_time():
    s = build_family(SKIP_PARAMS)
    pts = np.delete(mixed_points(), 2, axis=0)
    batch = closed_omega_check(s, pts)
    singles = [closed_omega_check(s, p) for p in pts]
    assert batch.details["degenerate_points"] == 1
    assert sum(r.details["degenerate_points"] for r in singles) == 1
    for name in ("d_omega", "sigma"):
        assert same(batch.max_abs(name), max(r.max_abs(name) for r in singles if r.residuals))
    # the singular point stops the frame, as it does point by point
    with pytest.raises(SingularMetricError) as err:
        closed_omega_check(s, mixed_points())
    np.testing.assert_array_equal(err.value.point, SINGULAR)


def test_the_first_failing_point_raises():
    # point 0 fails in sqrt, point 1 already in ln, which is evaluated first
    expr = parse("ln(x1 - 0.5) + sqrt(x2 - 0.5)")
    pts = np.array([[0.9, 0.2, 0.5], [0.2, 0.9, 0.5]])
    with pytest.raises(EvalDomainError, match="sqrt"):
        expr.eval_jet2(pts)
    with pytest.raises(EvalDomainError, match="ln"):
        expr.eval_jet2(pts[::-1])
