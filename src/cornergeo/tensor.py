"""Chart-level tensor calculus: connection, brackets, exterior calculus, cross product.

All operations work on the field containers from :mod:`cornergeo.fields`.
Direction arguments may be plain component arrays (treated as constant
fields) wherever only pointwise tensorial data is needed.  Every ``p``
may be one point ``(3,)`` or a sample ``(N, 3)``; results then carry the
sample axis in front, and each row equals the result at that point alone.

Conventions (see :mod:`cornergeo.conventions`): the wedge of 1-forms and the
exterior derivative carry the 1/2 alternation factor, degree-(1,2) products
and d on 2-forms carry 1/3, and the cross product uses the unnormalized
volume form sqrt(det g) dx1^dx2^dx3 so that d1 x d2 = d3 in the flat metric.
"""

from __future__ import annotations

import numpy as np

from .expr import as_points, outer, require
from .fields import MetricField, OneFormField, SingularMetricError, TensorField11, VectorField
from .fields import dot, mv

__all__ = [
    "christoffel",
    "nabla_matrix",
    "lie_bracket",
    "exterior_d_oneform",
    "d_oneform_matrix",
    "wedge11_matrix",
    "wedge12_coeff",
    "d_twoform_coeff",
    "divergence",
    "volume_form",
    "volume_cross",
    "probe_vectors",
]

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_j, _i, _k] = -1.0


def _as_vector_field(X) -> VectorField:
    if isinstance(X, VectorField):
        return X
    return VectorField.constant(X)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols ``Gamma[..., k, i, j]`` of ``g`` at ``p``."""
    return g.christoffel(p)


def nabla_matrix(g: MetricField, Y: VectorField, p) -> np.ndarray:
    """The endomorphism ``A[..., k, i] = (nabla_{d_i} Y)^k`` at ``p``."""
    gam = g.christoffel(p)
    yv = Y.values(p)
    return Y.jacobian(p) + np.einsum("...kij,...j->...ki", gam, yv)


def _with_jacobian(X: VectorField, p) -> tuple:
    """The values and the Jacobian of a vector field at ``p``."""
    return X.values(p), X.jacobian(p)


def _bracket(x: tuple, y: tuple) -> np.ndarray:
    """``[X, Y]`` from the :func:`_with_jacobian` pairs of X and Y."""
    return mv(y[1], x[0]) - mv(x[1], y[0])


def lie_bracket(X, Y, p) -> np.ndarray:
    """Components of ``[X, Y]`` at ``p``."""
    Xf, Yf = _as_vector_field(X), _as_vector_field(Y)
    return _bracket(_with_jacobian(Xf, p), _with_jacobian(Yf, p))


def exterior_d_oneform(theta: OneFormField, X, Y, p):
    """``d theta(X, Y)`` via the invariant formula (1/2 convention)."""
    Xf, Yf = _as_vector_field(X), _as_vector_field(Y)
    xv, yv = Xf.values(p), Yf.values(p)
    d_thY = theta.pair(Yf).jet(p).grad
    d_thX = theta.pair(Xf).jet(p).grad
    br = lie_bracket(Xf, Yf, p)
    return 0.5 * (dot(xv, d_thY) - dot(yv, d_thX) - dot(theta.values(p), br))


def d_oneform_matrix(theta: OneFormField, p) -> np.ndarray:
    """Coefficients ``(d theta)_ij = (d_i theta_j - d_j theta_i) / 2``."""
    J = theta.jacobian(p)  # J[..., k, i] = d_i theta_k
    return 0.5 * (np.swapaxes(J, -1, -2) - J)


def wedge11_matrix(a, b) -> np.ndarray:
    """Coefficient matrix of ``a ^ b`` for 1-form component arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return 0.5 * (outer(a, b) - outer(b, a))


def wedge12_coeff(a, B):
    """dx1^dx2^dx3 coefficient of ``a ^ B`` (1-form wedge 2-form)."""
    a = np.asarray(a, dtype=float)
    B = np.asarray(B, dtype=float)
    return (
        a[..., 0] * B[..., 1, 2] + a[..., 1] * B[..., 2, 0] + a[..., 2] * B[..., 0, 1]
    ) / 3.0


def d_twoform_coeff(B: TensorField11, p):
    """dx1^dx2^dx3 coefficient of dB for a 2-form whose coefficients B_ij
    are the field of 3x3 jets ``B``."""
    dB = B.jets(p).grad
    return (dB[1, 2, ..., 0] - dB[0, 2, ..., 1] + dB[0, 1, ..., 2]) / 3.0


def divergence(g: MetricField, X: VectorField, p):
    """``div X = d_k X^k + Gamma^k_{ki} X^i`` at ``p``."""
    gam = g.christoffel(p)
    J = X.jacobian(p)
    return np.trace(J, axis1=-2, axis2=-1) + np.einsum("...kki,...i->...", gam, X.values(p))


def _volume_density(g: MetricField, p):
    det = g.det(p)
    require(p, det <= 0.0, SingularMetricError, det)
    return np.sqrt(det)


def volume_form(g: MetricField, X, Y, Z, p):
    """``dv_g(X, Y, Z) = sqrt(det g) det[X Y Z]`` (unnormalized volume form)."""
    xv = _as_vector_field(X).values(p)
    yv = _as_vector_field(Y).values(p)
    zv = _as_vector_field(Z).values(p)
    return _volume_density(g, p) * np.linalg.det(np.stack([xv, yv, zv], axis=-1))


def volume_cross(g: MetricField, X, Y, p) -> np.ndarray:
    """The metric cross product defined by ``g(X x Y, Z) = dv_g(X, Y, Z)``."""
    xv = _as_vector_field(X).values(p)
    yv = _as_vector_field(Y).values(p)
    lower = _volume_density(g, p)[..., None] * np.einsum("mnl,...m,...n->...l", _EPS3, xv, yv)
    return mv(g.inverse(p), lower)


def probe_vectors(g: MetricField, p, rng=None, n_random: int = 4, extra=()):
    """Deterministic g-unit probe directions: coordinate axes, extras, randoms.

    For one point, the list of probes.  For a sample ``(N, 3)``, the pair
    ``(probes, kept)``: ``probes[n, m]`` is the m-th probe at point n and
    ``kept[n, m]`` says whether it counts (an extra or random direction of
    zero or undefined g-length is dropped, as it is for one point).  The
    random directions are drawn point by point, as single-point calls would.
    """
    x = as_points(p)
    batch = x.shape[:-1]
    dirs = list(np.eye(3)) + [np.asarray(v, dtype=float) for v in extra]
    if rng is not None and n_random > 0:
        draws = rng.standard_normal(batch + (n_random, 3))
        dirs += [draws[..., m, :] for m in range(n_random)]
    norms = [g.norm(x, v) for v in dirs]
    probes = np.stack(np.broadcast_arrays(*[v / n[..., None] for v, n in zip(dirs, norms)]), -2)
    kept = np.stack([n > 0.0 for n in norms], axis=-1)
    kept[..., :3] = True  # the coordinate axes always count
    if not batch:
        return list(probes[kept])
    return probes, kept
