"""Batched evaluation: a sample of N points against N samples of one point.

Every field, Christoffel symbol and frame quantity is evaluated over a whole
sample at once.  Row n of such a batch must equal the batch of the single
point n bit for bit, and the domain checks must skip or raise exactly as a
point-by-point loop would.
"""

import dataclasses

import numpy as np
import pytest

from oracles import fd_grad, fd_hess
from test_expr import SWEEP

from cornergeo.acms import AcmStructure, check_axioms, classify, fundamental_two_form_fields
from cornergeo.acms import nijenhuis, trans_sasakian_residual
from cornergeo.construct import (
    DeformationParams,
    TwinKind,
    deform,
    deformed_type,
    ntilde_identity_residual,
    twin,
)
from cornergeo.corner import (
    CornerFields,
    closed_omega_check,
    connection_table_residuals,
    corner_residual,
    corner_residual_forms,
    form_identities_residuals,
    frame_residuals,
    phi_derivative_residual,
)
from cornergeo import expr
from cornergeo.expr import Binary, Const, EvalDomainError, Jet2, ScalarExpr, Unary, as_expr
from cornergeo.expr import jet_sum, parse
from cornergeo.family import FamilyParams, build_family, preset, random_family
from cornergeo.fields import (
    ChartDomain,
    MetricField,
    OneFormField,
    SingularMetricError,
    TensorField11,
    VectorField,
    batch_first,
    dot,
    first_order,
    gnorm,
    jet_partial,
    jet_partials,
    max_abs,
    mv,
    vm,
    vnorm,
)
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
    values, partials = g.christoffel(POINTS), g.christoffel_jets(POINTS).grad
    for n in range(len(POINTS)):
        one = POINTS[n : n + 1]
        assert same(values[n], g.christoffel(one)[0])
        assert same(partials[..., n, :], g.christoffel_jets(one).grad[..., 0, :])


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


def point(jet, n):
    """Point n of a jet whose sample axis follows its component axes."""
    return jet[(slice(None),) * (np.ndim(jet.value) - 1) + (n,)]


def same_jet(a, b) -> bool:
    """Bitwise equality of two jets, order by order."""
    return all(
        (x is None and y is None) or (x is not None and y is not None and same(x, y))
        for x, y in ((a.value, b.value), (a.grad, b.grad), (a.hess, b.hess))
    )


DEFORMATION = DeformationParams.of("exp(x1)")


def derived_structures(s):
    return {
        "v_twin": twin(s, TwinKind.V),
        "phiv_twin": twin(s, TwinKind.PHI_V),
        "deformed": deform(s, DEFORMATION),
    }


@pytest.mark.parametrize("params", [p for p, i in zip(PARAMS, IDS) if i != "C"],
                         ids=[i for i in IDS if i != "C"])
def test_twin_and_deformed_jets_row_by_row(params):
    for name, t in derived_structures(build_family(params)).items():
        for field in ("phi", "xi", "eta", "g"):
            batch = getattr(t, field).jets(POINTS)
            for n in range(len(POINTS)):
                single = getattr(t, field).jets(POINTS[n : n + 1])
                assert same_jet(point(batch, n), point(single, 0)), (name, field, n)


@pytest.mark.parametrize("params", [PARAMS[3], PARAMS[5]], ids=["D", "random1"])
def test_twin_and_deformed_jets_match_their_per_entry_formulas(params):
    """Each entry of the tensor-level jets equals the same formula built from
    the component jets, as the twin and the deformation define it."""
    s = build_family(params)
    cf = CornerFields(s)
    f = DEFORMATION.f.eval_jet2(POINTS)
    xi, eta, phi, g = (x.jets(POINTS) for x in (s.xi, s.eta, s.phi, s.g))
    v, phi_v, theta1, theta2 = (x.jets(POINTS) for x in (cf.v, cf.phi_v, cf.theta1, cf.theta2))
    v_twin, phiv_twin = twin(s, TwinKind.V), twin(s, TwinKind.PHI_V)
    d = deform(s, DEFORMATION)
    eta_t = [eta[j] - theta2[j] for j in range(3)]
    entries = {
        "v_twin.phi": (v_twin.phi, lambda k, j: theta2[j] * xi[k] - eta[j] * phi_v[k]),
        "phiv_twin.phi": (phiv_twin.phi, lambda k, j: eta[j] * v[k] - theta1[j] * xi[k]),
        "deformed.phi": (d.phi, lambda k, j: phi[k][j] + theta1[j] * xi[k]),
        "deformed.g": (
            d.g, lambda i, j: f * g[i][j] - f * eta[i] * eta[j] + eta_t[i] * eta_t[j]
        ),
    }
    for name, (field, entry) in entries.items():
        jet = field.jets(POINTS)
        for k in range(3):
            for j in range(3):
                assert same_jet(jet[k, j], entry(k, j)), (name, k, j)
    for k in range(3):
        assert same_jet(d.eta.jets(POINTS)[k], eta_t[k])
    assert same_jet(v_twin.xi.jets(POINTS), cf.v.jets(POINTS))
    assert same_jet(v_twin.eta.jets(POINTS), cf.theta1.jets(POINTS))
    assert same_jet(phiv_twin.xi.jets(POINTS), cf.phi_v.jets(POINTS))
    assert same_jet(phiv_twin.eta.jets(POINTS), cf.theta2.jets(POINTS))


def test_fields_given_by_one_jet_function_expose_their_components():
    s = build_family(PARAMS[3])
    cf = CornerFields(s)
    v, phi_form = cf.v.jets(POINTS), fundamental_two_form_fields(s)
    # indexing is bounded, so iterating a field ends after three components
    assert len(list(cf.v)) == len(cf.theta2.components) == 3
    with pytest.raises(IndexError):
        cf.v[3]
    for k in range(3):
        assert same_jet(cf.v[k].jet(POINTS), v[k])
        assert same_jet(cf.v.components[-1 - k].jet(POINTS), v[2 - k])
        for j in range(3):
            assert same_jet(phi_form[k][j].jet(POINTS), phi_form.jets(POINTS)[k, j])
    assert same(VectorField(cf.v).values(POINTS), cf.v.values(POINTS))


def christoffel_per_entry(g: MetricField, p):
    """Gamma^k_ij entry by entry from the metric's component jets: the
    adjugate inverse and g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    G = [[e.jet(p) for e in row] for row in g.entries]
    idx = ((1, 2), (0, 2), (0, 1))
    c = [[None] * 3 for _ in range(3)]
    for i, r in enumerate(idx):
        for j, q in enumerate(idx):
            minor = G[r[0]][q[0]] * G[r[1]][q[1]] - G[r[0]][q[1]] * G[r[1]][q[0]]
            c[i][j] = minor if (i + j) % 2 == 0 else -minor
    det = G[0][0] * c[0][0] + G[0][1] * c[0][1] + G[0][2] * c[0][2]
    inv = [[c[j][i] / det for j in range(3)] for i in range(3)]
    dg = [[[jet_partial(G[i][j], a) for j in range(3)] for i in range(3)] for a in range(3)]
    return [
        [
            [
                jet_sum(
                    inv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(3)
                )
                * 0.5
                for j in range(3)
            ]
            for i in range(3)
        ]
        for k in range(3)
    ]


DENSE = MetricField(
    [
        [2.0, "0.1*x1", "0.05*x2*x3"],
        ["0.1*x1", "1 + x2^2", 0.1],
        ["0.05*x2*x3", 0.1, "exp(x3)"],
    ]
)


@pytest.mark.parametrize(
    "g", [build_family(PARAMS[0]).g, build_family(PARAMS[3]).g, DENSE], ids=["A", "D", "dense"]
)
def test_christoffel_jet_matches_the_per_entry_formula(g):
    want = christoffel_per_entry(g, POINTS)
    jet = g.christoffel_jets(POINTS)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                got = jet[k, i, j]
                assert same(got.value, want[k][i][j].value) and same(got.grad, want[k][i][j].grad)
                assert got.hess is None and want[k][i][j].hess is None


def random_jet(rng, shape, order=2):
    return Jet2(
        rng.standard_normal(shape),
        rng.standard_normal(shape + (3,)) if order >= 1 else None,
        rng.standard_normal(shape + (3, 3)) if order >= 2 else None,
    )


def test_stack_puts_the_jets_on_leading_axes():
    rng = np.random.default_rng(11)
    jets = [random_jet(rng, (5,)) for _ in range(9)]
    row = Jet2.stack(jets[:3])
    grid = Jet2.stack(jets, (3, 3))
    assert row.value.shape == (3, 5) and grid.hess.shape == (3, 3, 5, 3, 3)
    for k in range(3):
        assert same_jet(row[k], jets[k])
        for j in range(3):
            assert same_jet(grid[k, j], jets[3 * k + j])
    # an order survives only if every jet carries it
    shallow = Jet2.stack([jets[0], first_order(jets[1]), jets[2]])
    assert shallow.hess is None and same(shallow.grad[1], jets[1].grad)


def test_transpose_and_partials_match_their_per_entry_form():
    rng = np.random.default_rng(12)
    jet = random_jet(rng, (3, 3, 4))
    t = jet.transpose(1, 0)
    p = jet_partials(jet)
    for i in range(3):
        for j in range(3):
            assert same_jet(t[i, j], jet[j, i])
    for a in range(3):
        assert same_jet(p[a], jet_partial(jet, a))
    matrices = batch_first(jet.value, 2)
    assert matrices.flags.c_contiguous
    for n in range(4):
        assert same(matrices[n], jet.value[:, :, n])


def test_tensor_arithmetic_matches_its_per_entry_form():
    """Broadcast jet arithmetic on component axes gives each entry the bits
    of the same operation on the entry jets alone."""
    rng = np.random.default_rng(13)
    M, x, s = random_jet(rng, (3, 3, 6)), random_jet(rng, (3, 6)), random_jet(rng, (6,))
    s.value = np.abs(s.value) + 0.5
    results = {"mul": M * x, "add": M + x, "sub": M - x, "div": M / s, "scale": x * 0.5}
    for k in range(3):
        assert same_jet(results["scale"][k], x[k] * 0.5)
        for j in range(3):
            assert same_jet(results["mul"][k, j], M[k, j] * x[j])
            assert same_jet(results["add"][k, j], M[k, j] + x[j])
            assert same_jet(results["sub"][k, j], M[k, j] - x[j])
            assert same_jet(results["div"][k, j], M[k, j] / s)
    assert same_jet(jet_sum(x * x), x[0] * x[0] + x[1] * x[1] + x[2] * x[2])


SUITES = {
    "axioms": lambda s, pts, rng: check_axioms(s, pts),
    "corner": lambda s, pts, rng: corner_residual(s, pts, rng),
    "forms": lambda s, pts, rng: corner_residual_forms(s, pts),
    "table": lambda s, pts, rng: connection_table_residuals(s, pts, rng),
    "frame": lambda s, pts, rng: frame_residuals(s, pts),
    "identities": lambda s, pts, rng: form_identities_residuals(s, pts),
    "closed": lambda s, pts, rng: closed_omega_check(s, pts),
    "v_twin_axioms": lambda s, pts, rng: check_axioms(twin(s, TwinKind.V), pts),
    "phiv_twin_axioms": lambda s, pts, rng: check_axioms(twin(s, TwinKind.PHI_V), pts),
    "deformed_type": lambda s, pts, rng: deformed_type(s, DEFORMATION, pts).residuals,
    "ntilde": lambda s, pts, rng: ntilde_identity_residual(s, DEFORMATION, pts, rng),
    "trans_sasakian": lambda s, pts, rng: trans_sasakian_residual(
        s, 0.5 * np.atleast_2d(pts)[:, 0], 0.25, pts, rng
    ),
    "phi_derivative": lambda s, pts, rng: phi_derivative_residual(s, pts, rng),
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


def test_a_batched_field_fails_like_a_point_by_point_loop():
    # over the batch the ln entry is evaluated first and fails at point 2; a
    # loop fails at point 1 already, where only the sqrt entry leaves its domain
    s = AcmStructure.from_expressions(
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [1, 0, 0],
        [1, 0, 0],
        [["ln(x1 - 0.5)", 0, 0], [0, "sqrt(x2 - 0.5)", 0], [0, 0, 1]],
    )
    pts = np.array([[0.9, 0.9, 0.5], [0.9, 0.2, 0.5], [0.2, 0.9, 0.5]])
    with pytest.raises(EvalDomainError) as looped:
        for p in pts:
            s.g.matrix(p)
    with pytest.raises(EvalDomainError) as batched:
        s.g.matrix(pts)
    assert str(batched.value) == str(looped.value)
    assert str(looped.value) == "sqrt of a non-positive value in 'sqrt(x2 - 0.5)'"


@pytest.mark.parametrize("by_keyword", [False, True], ids=["position", "keyword"])
def test_a_suite_fails_like_a_point_by_point_loop(by_keyword):
    # over the batch phi fails at point 2 before eta is read; a loop fails at
    # point 1 already, in eta
    s = AcmStructure.from_expressions(
        [[0, 0, 0], [0, 0, "ln(x1 - 0.5)*0 - 1"], [0, 1, 0]],
        [1, 0, 0],
        ["1 + sqrt(x2 - 0.5)*0", 0, 0],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    pts = np.array([[0.9, 0.9, 0.5], [0.9, 0.2, 0.5], [0.2, 0.9, 0.5]])
    with pytest.raises(EvalDomainError, match="sqrt"):
        check_axioms(s, points=pts) if by_keyword else check_axioms(s, pts)


# -- the last-batch memo ------------------------------------------------------


def counting(fn):
    """``fn`` and a list that grows by one entry per call of it."""
    calls = []

    def counted(p):
        calls.append(1)
        return fn(p)

    return counted, calls


def test_a_field_evaluates_its_jet_once_per_sample():
    s = build_family(PARAMS[3])
    xi_jets, xi_calls = counting(s.xi.jets)
    phi_jets, phi_calls = counting(s.phi.jets)
    xi, phi = VectorField(xi_jets), TensorField11(phi_jets)
    for _ in range(2):
        xi.jets(POINTS), xi.values(POINTS), xi.jacobian(POINTS), xi[1].jet(POINTS)
        phi.jets(POINTS), phi.matrix(POINTS), phi[2][0].jet(POINTS)
    assert len(xi_calls) == len(phi_calls) == 1
    xi.values(POINTS[:5])
    assert len(xi_calls) == 2

    # the Nijenhuis torsion reads phi through phi(X), phi(Y) and both brackets
    base = dataclasses.replace(s, phi=phi)
    nijenhuis(base, np.eye(3)[0], np.eye(3)[1], POINTS[:7])
    assert len(phi_calls) == 2
    assert same(nijenhuis(base, np.eye(3)[0], np.eye(3)[1], POINTS[:7]),
                nijenhuis(s, np.eye(3)[0], np.eye(3)[1], POINTS[:7]))


def test_the_memo_is_keyed_by_the_points_not_the_array():
    fn, calls = counting(lambda p: parse("x1*x2 + x3").eval_jet2(p)[None] * np.ones((3, 1)))
    field = VectorField(fn)
    first = field.jets(POINTS)
    assert field.jets(POINTS.copy()) is first and len(calls) == 1
    moved = POINTS.copy()
    moved[4, 1] += 1e-3
    assert not same(field.values(moved), first.value.T) and len(calls) == 2
    assert same(field.values(POINTS), first.value.T) and len(calls) == 3


def test_a_non_finite_point_raises_at_plain_evaluation():
    pts = POINTS.copy()
    pts[3, 2] = np.nan
    field = VectorField(["x1", "x2", "x3"])
    for evaluate in (field.values, field.jets, field[0].jet):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(pts)


def test_memoized_arrays_are_read_only():
    s = build_family(PARAMS[3])
    cf = CornerFields(s)
    before = s.xi.values(POINTS).copy()
    for arrays in (
        (s.xi.values(POINTS), s.xi.values(POINTS[0]), s.g.matrix(POINTS)),
        (s.xi.jets(POINTS).value, s.xi.jets(POINTS).grad, s.g.christoffel_jets(POINTS).grad),
        (cf.bundle(POINTS).e_rho.value, cf.frame(POINTS).rho, cf.v.jacobian(POINTS)),
    ):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
    assert same(s.xi.values(POINTS), before)


# -- family structures: one walk per generator ---------------------------------


def test_each_family_generator_is_walked_once_per_sample(monkeypatch):
    """tau, kappa and mu each head with a function of their own, so the calls
    of that function count the walks of the generator's tree."""
    s = build_family(FamilyParams.of("exp(x2 + x1*x3)", "sqrt(1 + x2^2)", "2 + sin(x2*x3)"))
    walks = {}
    for name in ("exp", "sqrt", "sin"):
        fn, walks[name] = counting(expr._FUNCTIONS[name])
        monkeypatch.setitem(expr._FUNCTIONS, name, fn)
    for n, sample in enumerate((POINTS, POINTS[:5]), start=1):
        cf = CornerFields(s)
        for _ in range(2):
            s.phi.jets(sample), s.xi.jets(sample), s.eta.jets(sample), s.g.jets(sample)
            s.g.christoffel_jets(sample), cf.bundle(sample), cf.frame(sample)
        assert {name: len(calls) for name, calls in walks.items()} == {"exp": n, "sqrt": n, "sin": n}


def per_entry_fields(params):
    """The family's fields as grids of component expressions, each entry
    built node by node over the generators' trees, with no constant folded,
    and walked on its own."""
    t, k, m = params.tau.root, params.kappa.root, params.mu.root
    zero = as_expr(0)
    phi12, phi21 = ScalarExpr(Unary("-", Binary("/", m, k))), ScalarExpr(Binary("/", k, m))
    g = [ScalarExpr(Binary("^", e, Const(2.0))) for e in (t, k, m)]
    return {
        "phi": TensorField11([[zero, zero, zero], [zero, zero, phi12], [zero, phi21, zero]]),
        "xi": VectorField([ScalarExpr(Binary("/", Const(1.0), t)), zero, zero]),
        "eta": OneFormField([params.tau, zero, zero]),
        "g": MetricField([[g[0], 0.0, 0.0], [0.0, g[1], 0.0], [0.0, 0.0, g[2]]]),
    }


@pytest.mark.parametrize("params", PARAMS, ids=IDS)
def test_family_jets_match_their_per_entry_walks(params):
    s = build_family(params)
    for name, grid in per_entry_fields(params).items():
        for p in (POINTS, POINTS[3]):
            assert same_jet(getattr(s, name).jets(p), grid.jets(p)), (name, np.shape(p))


def test_a_pole_of_an_entry_is_named_as_in_its_own_walk():
    s = build_family(FamilyParams.of("exp(x2)", "x2 - 0.5", "1 + x3"))
    pts = POINTS.copy()
    pts[4, 1] = 0.5
    with pytest.raises(EvalDomainError) as err:
        s.phi.jets(pts)
    assert str(err.value) == "division by zero in '(1 + x3)/(x2 - 0.5)'"
