"""Chart-level tensor calculus: connection, brackets, exterior calculus, cross product.

A metric argument is a :class:`cornergeo.fields.MetricField`.  A direction
or one-form argument may be a field, its jet over ``p``, or a plain
component array (a constant direction); see
:func:`cornergeo.fields.vector_jets`.  Every ``p`` may be one point ``(3,)``
or a sample ``(N, 3)``; results then carry the sample axis in front, and
each row equals the result at that point alone.

Conventions (see :mod:`cornergeo.conventions`): the wedge of 1-forms and the
exterior derivative carry the 1/2 alternation factor, degree-(1,2) products
and d on 2-forms carry 1/3, and the cross product uses the unnormalized
volume form sqrt(det g) dx1^dx2^dx3 so that d1 x d2 = d3 in the flat metric.
"""

from __future__ import annotations

import numpy as np

from .expr import Jet2, as_points, jet_sum, outer
from .fields import MetricField, _check_det, batch_first, dot, first_order, gnorm, jet_jacobian
from .fields import mv, vector_jets

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


def christoffel(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols ``Gamma[..., k, i, j]`` of ``g`` at ``p``."""
    return g.christoffel(p)


def nabla_matrix(g: MetricField, Y, p) -> np.ndarray:
    """The endomorphism ``A[..., k, i] = (nabla_{d_i} Y)^k`` at ``p``."""
    gam = g.christoffel(p)
    y = vector_jets(Y, p)
    return jet_jacobian(y) + np.einsum("...kij,...j->...ki", gam, batch_first(y.value, 1))


def _columns(j: Jet2) -> tuple:
    """The values ``(..., 3)`` and the Jacobian ``(..., 3, 3)`` of a vector jet."""
    return batch_first(j.value, 1), jet_jacobian(j)


def _bracket(x: tuple, y: tuple) -> np.ndarray:
    """``[X, Y]`` from the :func:`_columns` of X and Y."""
    return mv(y[1], x[0]) - mv(x[1], y[0])


def lie_bracket(X, Y, p) -> np.ndarray:
    """Components of ``[X, Y]`` at ``p``."""
    return _bracket(_columns(vector_jets(X, p)), _columns(vector_jets(Y, p)))


def exterior_d_oneform(theta, X, Y, p):
    """``d theta(X, Y)`` via the invariant formula (1/2 convention)."""
    x, y, t = (vector_jets(V, p) for V in (X, Y, theta))
    d_thX, d_thY = (jet_sum(first_order(t) * v).grad for v in (x, y))
    x, y, tv = _columns(x), _columns(y), batch_first(t.value, 1)
    return 0.5 * (dot(x[0], d_thY) - dot(y[0], d_thX) - dot(tv, _bracket(x, y)))


def d_oneform_matrix(theta, p) -> np.ndarray:
    """Coefficients ``(d theta)_ij = (d_i theta_j - d_j theta_i) / 2``."""
    J = jet_jacobian(vector_jets(theta, p))  # J[..., k, i] = d_i theta_k
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


def d_twoform_coeff(B: Jet2):
    """dx1^dx2^dx3 coefficient of dB for a 2-form whose coefficients B_ij
    are the 3x3 jet ``B``."""
    dB = B.grad
    return (dB[1, 2, ..., 0] - dB[0, 2, ..., 1] + dB[0, 1, ..., 2]) / 3.0


def divergence(g: MetricField, X, p):
    """``div X = d_k X^k + Gamma^k_{ki} X^i`` at ``p``."""
    gam = g.christoffel(p)
    xv, J = _columns(vector_jets(X, p))
    return np.trace(J, axis1=-2, axis2=-1) + np.einsum("...kki,...i->...", gam, xv)


def _volume_density(g: MetricField, p):
    det = np.linalg.det(g.matrix(p))
    _check_det(p, g.jets(p).value, det)
    return np.sqrt(det)


def volume_form(g: MetricField, X, Y, Z, p):
    """``dv_g(X, Y, Z) = sqrt(det g) det[X Y Z]`` (unnormalized volume form)."""
    xv, yv, zv = (batch_first(vector_jets(V, p).value, 1) for V in (X, Y, Z))
    return _volume_density(g, p) * np.linalg.det(np.stack([xv, yv, zv], axis=-1))


def volume_cross(g: MetricField, X, Y, p) -> np.ndarray:
    """The metric cross product defined by ``g(X x Y, Z) = dv_g(X, Y, Z)``."""
    xv, yv = (batch_first(vector_jets(V, p).value, 1) for V in (X, Y))
    lower = _volume_density(g, p)[..., None] * np.einsum("mnl,...m,...n->...l", _EPS3, xv, yv)
    return mv(g.inverse(p), lower)


def probe_vectors(g: MetricField, p, rng, n_random: int, extra=()):
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
    G = g.matrix(x)
    norms = [gnorm(G, v) for v in dirs]
    probes = np.stack(np.broadcast_arrays(*[v / n[..., None] for v, n in zip(dirs, norms)]), -2)
    kept = np.stack([n > 0.0 for n in norms], axis=-1)
    kept[..., :3] = True  # the coordinate axes always count
    if not batch:
        return list(probes[kept])
    return probes, kept
