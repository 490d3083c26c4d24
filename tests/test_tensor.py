"""Connection, bracket and exterior-calculus kernels against FD oracles."""

import numpy as np
import pytest

from oracles import (
    fd_christoffel,
    fd_covariant_deriv,
    fd_d_oneform,
    fd_divergence,
    fd_lie_bracket,
    metric_fn_of,
    vector_fn_of,
)

from cornergeo.expr import Jet2
from cornergeo.fields import (
    ChartDomain,
    MetricField,
    OneFormField,
    SingularMetricError,
    VectorField,
    jet_partial,
    vector_jets,
)
from cornergeo.tensor import (
    christoffel,
    d_oneform_matrix,
    d_twoform_coeff,
    divergence,
    exterior_d_oneform,
    lie_bracket,
    nabla_matrix,
    probe_vectors,
    volume_cross,
    volume_form,
    wedge11_matrix,
    wedge12_coeff,
)

# a dense, diagonally dominant metric — SPD everywhere on the default box
DENSE_METRIC = MetricField(
    [
        ["2 + x2^2", "0.5*x3", "0.3*x2"],
        ["0.5*x3", "2 + x3^2", "0.1*x1"],
        ["0.3*x2", "0.1*x1", "2 + x1^2"],
    ]
)


def diagonal(d0, d1, d2) -> MetricField:
    return MetricField([[d0, 0.0, 0.0], [0.0, d1, 0.0], [0.0, 0.0, d2]])


WARPED_METRIC = diagonal("exp(2*x2)", 1.0, 1.0)

X_FIELD = VectorField(("exp(x2)", "x1*x3", "sin(x1)"))
Y_FIELD = VectorField(("x2^2", "cos(x3)", "x1 + x2"))
THETA = OneFormField(("x2*x3", "exp(x1)", "x1^2"))

POINTS = ChartDomain().sample(6, 77)


def test_christoffel_frozen_warped_product():
    # g = diag(e^{2 x2}, 1, 1): Gamma^1_{12} = 1 everywhere, Gamma^2_{11} = -e^{2 x2}
    gam0 = christoffel(WARPED_METRIC, np.zeros(3))
    assert gam0[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert gam0[0, 1, 0] == pytest.approx(1.0, abs=1e-12)
    assert gam0[1, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    gam = christoffel(WARPED_METRIC, np.array([0.0, np.log(2.0), 0.0]))
    assert gam[1, 0, 0] == pytest.approx(-4.0, abs=1e-10)


@pytest.mark.parametrize("g", [DENSE_METRIC, WARPED_METRIC], ids=["dense", "warped"])
def test_christoffel_matches_fd(g):
    fn = metric_fn_of(g)
    for p in POINTS:
        np.testing.assert_allclose(
            christoffel(g, p), fd_christoffel(fn, p), atol=5e-9
        )


def test_christoffel_symmetry():
    for p in POINTS:
        gam = christoffel(DENSE_METRIC, p)
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=0)


def test_christoffel_partials_match_fd():
    h = 1e-5
    p = np.array([0.5, 0.4, 0.7])
    dgam = DENSE_METRIC.christoffel_jets(p).grad  # dgam[k, i, j, a] = d_a Gamma^k_ij
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        step = (
            christoffel(DENSE_METRIC, p + e) - christoffel(DENSE_METRIC, p - e)
        ) / (2 * h)
        np.testing.assert_allclose(dgam[..., a], step, atol=5e-8)


def test_covariant_derivative_matches_fd():
    fn = metric_fn_of(DENSE_METRIC)
    xf, yf = vector_fn_of(X_FIELD), vector_fn_of(Y_FIELD)
    for p in POINTS:
        want = fd_covariant_deriv(fn, xf, yf, p)
        got = nabla_matrix(DENSE_METRIC, Y_FIELD, p) @ X_FIELD.values(p)
        np.testing.assert_allclose(got, want, atol=5e-8)


def test_nabla_matrix_columns():
    """Column k is nabla_{d_k} Y."""
    p = np.array([0.3, 0.6, 0.2])
    N = nabla_matrix(DENSE_METRIC, Y_FIELD, p)
    fn, yf = metric_fn_of(DENSE_METRIC), vector_fn_of(Y_FIELD)
    for e in np.eye(3):
        want = fd_covariant_deriv(fn, lambda q: e, yf, p)
        np.testing.assert_allclose(N @ e, want, atol=5e-8)


def test_metric_compatibility():
    """nabla g = 0: d/dt g(Y, Y) along X equals 2 g(nabla_X Y, Y)."""
    fn = metric_fn_of(DENSE_METRIC)
    xf, yf = vector_fn_of(X_FIELD), vector_fn_of(Y_FIELD)
    for p in POINTS:

        def gyy(q):
            y = yf(q)
            return y @ fn(q) @ y

        h = 1e-6
        x = xf(p)
        deriv = (gyy(p + h * x) - gyy(p - h * x)) / (2 * h)
        nab = nabla_matrix(DENSE_METRIC, Y_FIELD, p) @ xf(p)
        assert deriv == pytest.approx(
            2 * nab @ fn(p) @ yf(p), abs=5e-7
        )


def test_lie_bracket_against_fd():
    xf, yf = vector_fn_of(X_FIELD), vector_fn_of(Y_FIELD)
    for p in POINTS:
        np.testing.assert_allclose(
            lie_bracket(X_FIELD, Y_FIELD, p), fd_lie_bracket(xf, yf, p), atol=5e-9
        )


def test_lie_bracket_antisymmetry_and_coordinates():
    p = np.array([0.9, 0.2, 0.5])
    ab = lie_bracket(X_FIELD, Y_FIELD, p)
    ba = lie_bracket(Y_FIELD, X_FIELD, p)
    np.testing.assert_allclose(ab, -ba, atol=0)
    e1, e2 = np.eye(3)[:2]
    np.testing.assert_allclose(lie_bracket(e1, e2, p), np.zeros(3), atol=0)


def test_torsion_free():
    """nabla_X Y - nabla_Y X = [X, Y]."""
    for p in POINTS:
        x, y = X_FIELD.values(p), Y_FIELD.values(p)
        nabla_x_y = nabla_matrix(DENSE_METRIC, Y_FIELD, p) @ x
        lhs = nabla_x_y - nabla_matrix(DENSE_METRIC, X_FIELD, p) @ y
        np.testing.assert_allclose(lhs, lie_bracket(X_FIELD, Y_FIELD, p), atol=1e-12)


# --------------------------------------------------------------------------
# exterior calculus


def test_d_oneform_two_routes_and_fd():
    for p in POINTS:
        mat = d_oneform_matrix(THETA, p)
        np.testing.assert_allclose(mat, -mat.T, atol=0)
        np.testing.assert_allclose(mat, fd_d_oneform(lambda q: THETA.values(q), p), atol=5e-9)
        x, y = X_FIELD.values(p), Y_FIELD.values(p)
        invariant = exterior_d_oneform(THETA, X_FIELD, Y_FIELD, p)
        assert invariant == pytest.approx(x @ mat @ y, abs=1e-12)


def test_d_squared_is_zero():
    half = 0.5
    for p in POINTS:
        theta = THETA.jets(p)
        entries = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                entries[i][j] = half * (jet_partial(theta[j], i) - jet_partial(theta[i], j))
        d_theta = Jet2.stack(sum(entries, []), (3, 3))
        assert d_twoform_coeff(d_theta) == pytest.approx(0.0, abs=1e-13)


def test_wedge_conventions():
    dx1 = np.array([1.0, 0.0, 0.0])
    dx2 = np.array([0.0, 1.0, 0.0])
    dx3 = np.array([0.0, 0.0, 1.0])
    w = wedge11_matrix(dx1, dx2)
    assert w[0, 1] == pytest.approx(0.5)  # (dx1 ^ dx2)(e1, e2) = 1/2
    assert w[1, 0] == pytest.approx(-0.5)
    # (1,2)-wedge normalization: dx1 ^ (dx2 ^ dx3) has top coefficient 1/6
    assert wedge12_coeff(dx1, wedge11_matrix(dx2, dx3)) == pytest.approx(1.0 / 6.0)
    # independent of which factor carries the 2-form slot
    assert wedge12_coeff(dx2, wedge11_matrix(dx3, dx1)) == pytest.approx(1.0 / 6.0)
    assert wedge12_coeff(dx3, wedge11_matrix(dx1, dx2)) == pytest.approx(1.0 / 6.0)


# --------------------------------------------------------------------------
# volume, divergence, probes


def test_volume_form_flat_and_scaled():
    flat = diagonal(1.0, 1.0, 1.0)
    p = np.array([0.5, 0.5, 0.5])
    e = np.eye(3)
    assert volume_form(flat, e[0], e[1], e[2], p) == pytest.approx(1.0)
    assert volume_form(flat, e[1], e[0], e[2], p) == pytest.approx(-1.0)
    assert volume_form(flat, e[0], e[0], e[2], p) == pytest.approx(0.0)
    scaled = diagonal(4.0, 1.0, 1.0)
    assert volume_form(scaled, e[0], e[1], e[2], p) == pytest.approx(2.0)


def test_volume_cross_flat():
    flat = diagonal(1.0, 1.0, 1.0)
    p = np.array([0.5, 0.5, 0.5])
    e = np.eye(3)
    np.testing.assert_allclose(volume_cross(flat, e[0], e[1], p), e[2], atol=1e-14)
    np.testing.assert_allclose(volume_cross(flat, e[1], e[0], p), -e[2], atol=1e-14)


def test_cross_is_g_orthogonal_and_matches_volume():
    p = np.array([0.7, 0.3, 0.9])
    G = DENSE_METRIC.matrix(p)
    x, y = X_FIELD.values(p), Y_FIELD.values(p)
    c = volume_cross(DENSE_METRIC, x, y, p)
    assert x @ G @ c == pytest.approx(0.0, abs=1e-12)
    assert y @ G @ c == pytest.approx(0.0, abs=1e-12)
    z = np.array([0.2, -1.0, 0.4])
    assert z @ G @ c == pytest.approx(
        volume_form(DENSE_METRIC, x, y, z, p), abs=1e-12
    )


# three directions, as constant components (3,) or one row per point of POINTS
DIRECTIONS = np.array([[0.3, -1.2, 0.5], [1.0, 0.25, -0.75], [-0.4, 0.9, 2.0]])
PER_POINT = ChartDomain(((-1.0, 1.0),) * 3).sample(3 * len(POINTS), 8).reshape(3, -1, 3)


def direction_results(x, y, z, p) -> list:
    """Every tensor helper that takes a direction, on the directions x, y, z."""
    return [
        lie_bracket(x, y, p),
        lie_bracket(X_FIELD, y, p),
        exterior_d_oneform(THETA, x, y, p),
        exterior_d_oneform(x, X_FIELD, y, p),
        volume_form(DENSE_METRIC, x, y, z, p),
        volume_cross(DENSE_METRIC, x, y, p),
        nabla_matrix(DENSE_METRIC, x, p),
        d_oneform_matrix(x, p),
    ]


@pytest.mark.parametrize(
    "dirs, p",
    [(DIRECTIONS, POINTS), (DIRECTIONS, POINTS[2]), (PER_POINT, POINTS)],
    ids=["constant-sample", "constant-point", "per-point-sample"],
)
def test_a_direction_as_an_array_a_constant_field_or_its_jet_gives_the_same_bytes(dirs, p):
    arrays = direction_results(*dirs, p)
    fields = direction_results(*(VectorField(lambda q, v=v: vector_jets(v, q)) for v in dirs), p)
    jets = direction_results(*(vector_jets(v, p) for v in dirs), p)
    for a, f, j in zip(arrays, fields, jets):
        assert a.shape == f.shape == j.shape and a.dtype == f.dtype == j.dtype
        assert a.tobytes() == f.tobytes() == j.tobytes()


def test_a_field_and_its_jet_give_the_same_bytes():
    x, y, theta = X_FIELD.jets(POINTS), Y_FIELD.jets(POINTS), THETA.jets(POINTS)
    pairs = [
        (lie_bracket(X_FIELD, Y_FIELD, POINTS), lie_bracket(x, y, POINTS)),
        (exterior_d_oneform(THETA, X_FIELD, Y_FIELD, POINTS),
         exterior_d_oneform(theta, x, y, POINTS)),
        (nabla_matrix(DENSE_METRIC, Y_FIELD, POINTS), nabla_matrix(DENSE_METRIC, y, POINTS)),
        (d_oneform_matrix(THETA, POINTS), d_oneform_matrix(theta, POINTS)),
        (divergence(DENSE_METRIC, X_FIELD, POINTS), divergence(DENSE_METRIC, x, POINTS)),
    ]
    for field_result, jet_result in pairs:
        assert field_result.tobytes() == jet_result.tobytes()


def test_singular_metric_raises():
    bad = diagonal("x1 - 0.5", 1.0, 1.0)
    with pytest.raises(SingularMetricError):
        volume_form(bad, np.eye(3)[0], np.eye(3)[1], np.eye(3)[2], np.array([0.2, 0.5, 0.5]))
    with pytest.raises(SingularMetricError):
        bad.inverse(np.array([0.5, 0.5, 0.5]))


def test_divergence_against_density_formula():
    fn = metric_fn_of(DENSE_METRIC)
    xf = vector_fn_of(X_FIELD)
    for p in POINTS:
        assert divergence(DENSE_METRIC, X_FIELD, p) == pytest.approx(
            fd_divergence(fn, xf, p), abs=5e-8
        )


def test_probe_vectors_are_g_unit(rng):
    p = np.array([0.6, 0.8, 0.3])
    extra = np.array([1.0, 2.0, 3.0])
    probes = probe_vectors(DENSE_METRIC, p, rng=rng, n_random=3, extra=(extra,))
    assert len(probes) == 3 + 1 + 3
    G = DENSE_METRIC.matrix(p)
    for v in probes:
        assert v @ G @ v == pytest.approx(1.0, abs=1e-12)
    # the extra keeps its direction, scaled to unit g-length
    cross = np.cross(probes[3], extra)
    np.testing.assert_allclose(cross, np.zeros(3), atol=1e-12)
    assert probes[3] @ extra > 0
