"""Corner-type structures: defining residuals, fundamental frame, structure identities.

A corner structure is an almost contact metric structure whose connection
satisfies ``nabla_X xi = -eta(X) psi`` with ``psi = -nabla_xi xi`` (equivalently
``nabla_{phi X} xi = 0``, equivalently ``d eta = omega ^ eta``, ``d Phi = 0``
and ``N_phi = 0``).  Away from the degenerate locus ``psi = 0`` it carries the
orthonormal frame ``(xi, V, phi V)`` with ``V = e^{-rho} psi``,
``e^rho = |psi|``, and the dual coframe ``(eta, theta1, theta2)``.

Everything here is evaluated through jets: the frame components of a
structure with expression-backed data carry exact first derivatives, so the
exterior derivatives of ``theta1``, ``theta2`` and ``omega`` need no finite
differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .acms import AcmStructure, fundamental_two_form_fields, fundamental_two_form_matrix
from .expr import PointError, as_points, by_rows, jet_log, jet_sqrt, jet_sum, require, skipping
from .fields import OneFormField, ScalarField, VectorField, batch_first, contract, dot
from .fields import gnorm, jet_partials, last_batch, max_abs, mv, vm
from .report import ResidualReport, ResidualTracker
from .tensor import d_oneform_matrix, d_twoform_coeff, nabla_matrix, probe_vectors, wedge11_matrix

__all__ = [
    "DEGENERACY_TOL",
    "DegenerateCornerError",
    "CornerFrame",
    "CornerFields",
    "corner_frame",
    "corner_residual",
    "corner_residual_forms",
    "connection_table_residuals",
    "frame_residuals",
    "form_identities_residuals",
    "closed_omega_check",
    "phi_derivative_residual",
]

# |psi| at or below this counts as a degenerate corner point (frame undefined)
DEGENERACY_TOL = 1e-8


class DegenerateCornerError(PointError, RuntimeError):
    """|psi| fell under the degeneracy threshold; the frame is undefined."""

    template = "degenerate corner point {point}: |psi| = {value:.3e}"
    psi_norm = property(lambda self: self.value)


@dataclass(frozen=True)
class CornerFrame:
    """Fundamental frame data of a corner structure at a point or a sample.

    For a sample of N points every field carries the sample axis in front:
    scalars are ``(N,)`` arrays, vectors and covectors ``(N, 3)``.
    """

    point: np.ndarray
    psi: np.ndarray
    omega: np.ndarray
    rho: float
    e_rho: float
    v: np.ndarray
    phi_v: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    sigma: float
    div_v: float
    phi_v_rho: float


def _quad(G, a, b):
    return dot(vm(a, G), b)


class CornerFields:
    """Derived frame fields of a corner structure, evaluated a batch at a time.

    Each structure has one, its ``corner`` attribute (see
    :class:`cornergeo.acms.AcmStructure`), which every residual suite, twin
    and deformation reads.  The accessors (``v``, ``phi_v``, ``theta1``,
    ``theta2``, ``rho``, ...) build ordinary field objects whose jets read
    from the bundle of jets of the batch being evaluated, so they compose
    with every operation in :mod:`cornergeo.tensor`.  The bundle and the
    frame scalars (``frame``) are memoized like a field (see
    :func:`cornergeo.fields.last_batch`), so each is computed once per
    sample.  It keeps the structure's fields, not the structure.
    """

    # built anew on each access, so the fields refer to this object, never it to them
    psi = property(lambda self: VectorField(lambda p: self.bundle(p).psi))
    v = property(lambda self: VectorField(lambda p: self.bundle(p).v))
    phi_v = property(lambda self: VectorField(lambda p: self.bundle(p).phi_v))
    omega = property(lambda self: OneFormField(lambda p: self.bundle(p).omega))
    theta1 = property(lambda self: OneFormField(lambda p: self.bundle(p).theta1))
    theta2 = property(lambda self: OneFormField(lambda p: self.bundle(p).theta2))
    rho = property(lambda self: ScalarField(lambda p: self.bundle(p).rho))

    def __init__(self, s: AcmStructure):
        self.phi, self.xi, self.eta, self.g = s.phi, s.xi, s.eta, s.g
        self._bundle = last_batch(type(self)._compute_bundle, self)
        self._frame = last_batch(type(self)._compute_frame, self)

    def bundle(self, p) -> SimpleNamespace:
        """The jets of ``xi``, ``eta`` and the frame quantities over one batch."""
        return self._bundle(p)

    def _compute_bundle(self, p) -> SimpleNamespace:
        b = SimpleNamespace()
        xi = b.xi = self.xi.jets(p)
        gam = self.g.christoffel_jets(p)
        # psi^k = -xi^i (d_i xi^k + Gamma^k_ij xi^j);  omega_j = g_jk psi^k
        inner = jet_sum(
            [jet_partials(xi).transpose(1, 0)] + [gam[:, :, j] * xi[j] for j in range(3)]
        )
        b.psi = -contract(xi, inner)
        b.omega = contract(self.g.jets(p), b.psi)
        b.eta = self.eta.jets(p)

        norm2 = jet_sum(b.psi * b.omega)
        b.norm2 = norm2
        require(p, norm2.value <= DEGENERACY_TOL**2,
                lambda q, v: DegenerateCornerError(q, np.sqrt(max(v, 0.0))), norm2.value)

        b.e_rho = jet_sqrt(norm2)
        b.rho = jet_log(norm2) * 0.5
        b.v = b.psi / b.e_rho
        phi = self.phi.jets(p)
        b.phi_v = contract(phi, b.v)
        b.theta1 = b.omega / b.e_rho
        b.theta2 = -jet_sum(b.omega[:, None] * phi) / b.e_rho
        return b

    # -- frame scalars -----------------------------------------------------

    def frame(self, p) -> CornerFrame:
        """The frame and its scalars over one batch."""
        return self._frame(p)

    def _compute_frame(self, p) -> CornerFrame:
        b = self.bundle(p)
        G = self.g.matrix(p)
        gam = self.g.christoffel(p)

        xi_v = batch_first(b.xi.value, 1)
        v = batch_first(b.v.value, 1)
        phi_v = batch_first(b.phi_v.value, 1)
        jac_v = batch_first(b.v.grad.transpose(0, -1, *range(1, b.v.grad.ndim - 1)), 2)

        nabla_xi_v = mv(jac_v, xi_v) + np.einsum("...kij,...i,...j->...k", gam, xi_v, v)
        sigma = dot(vm(nabla_xi_v, G), phi_v)
        div_v = np.trace(jac_v, axis1=-2, axis2=-1) + np.einsum("...kki,...i->...", gam, v)
        phi_v_rho = dot(phi_v, b.rho.grad)

        return CornerFrame(
            point=np.array(as_points(p)),  # a copy: the memo makes it read-only
            psi=batch_first(b.psi.value, 1),
            omega=batch_first(b.omega.value, 1),
            rho=b.rho.value,
            e_rho=b.e_rho.value,
            v=v,
            phi_v=phi_v,
            theta1=batch_first(b.theta1.value, 1),
            theta2=batch_first(b.theta2.value, 1),
            sigma=sigma,
            div_v=div_v,
            phi_v_rho=phi_v_rho,
        )


def corner_frame(s: AcmStructure, p) -> CornerFrame:
    """The fundamental frame at one point or a sample (degenerate points raise)."""
    return s.corner.frame(p)


@by_rows
def corner_residual(
    s: AcmStructure, points, rng=None, n_random: int = 4, tol: float = 1e-8
) -> ResidualReport:
    """Worst violation of the defining condition ``nabla_X xi = -eta(X) psi``.

    Two routes are tracked: the defining equation over probe directions, and
    the equivalent ``nabla_{phi X} xi = 0``.  A flat structure (psi = 0)
    scores zero; no frame is required.
    """
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    G = s.g.matrix(p)
    P = s.phi.matrix(p)
    eta = s.eta.values(p)
    xi = s.xi.values(p)
    A = s.nabla_xi(p)
    psi = -mv(A, xi)
    x, kept = probe_vectors(s.g, p, rng, n_random, extra=[xi])
    A, G, P = A[:, None], G[:, None], P[:, None]
    r1 = mv(A, x) + dot(eta[:, None], x)[..., None] * psi[:, None]
    tracker.update("nabla_xi", gnorm(G, r1), kept)
    tracker.update("nabla_phi_xi", gnorm(G, mv(A, mv(P, x))), kept)
    return tracker.report("corner", tol)


@by_rows
def corner_residual_forms(s: AcmStructure, points, tol: float = 1e-7) -> ResidualReport:
    """Worst violation of the form characterization ``d eta = omega ^ eta``,
    ``d Phi = 0``, ``N_phi = 0``.

    ``omega`` is computed as ``-(nabla_xi xi)^flat`` directly, so the check is
    meaningful whether or not the defining condition holds.  N_phi on the
    coordinate pairs is read from ``s.basis_normality``, which
    :func:`cornergeo.acms.normality_residual` shares; a non-finite N^(1)
    raises a ValueError there.
    """
    phi_fields = fundamental_two_form_fields(s)
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    G = s.g.matrix(p)
    eta = s.eta.values(p)
    xi = s.xi.values(p)
    A = s.nabla_xi(p)
    omega = mv(G, -mv(A, xi))
    deta = d_oneform_matrix(s.eta, p)
    tracker.update("d_eta_vs_omega_wedge_eta", max_abs(deta - wedge11_matrix(omega, eta)))
    tracker.update("d_phi", d_twoform_coeff(phi_fields, p))
    tracker.update("nijenhuis", np.stack([gnorm(G, n) for n in s.basis_normality(p).n_phi], -1))
    return tracker.report("corner_forms", tol)


@by_rows
def connection_table_residuals(
    s: AcmStructure, points, rng=None, n_random: int = 2, tol: float = 1e-8
) -> ResidualReport:
    """The seven frame covariant-derivative identities of a corner structure.

    In the fundamental frame: ``nabla_X xi = -e^rho eta(X) V``;
    ``nabla_xi V = e^rho xi + sigma phi V``; ``nabla_V V = phiV(rho) phi V``;
    ``nabla_{phi V} V = (div V - e^rho) phi V``; ``nabla_xi phiV = -sigma V``;
    ``nabla_V phiV = -phiV(rho) V``; ``nabla_{phi V} phiV = (e^rho - div V) V``.
    """
    cf = s.corner
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    f = cf.frame(p)
    G = s.g.matrix(p)
    xi = s.xi.values(p)
    eta = s.eta.values(p)
    A = s.nabla_xi(p)
    Mv = nabla_matrix(s.g, cf.v, p)
    Mpv = nabla_matrix(s.g, cf.phi_v, p)

    x, kept = probe_vectors(s.g, p, rng, n_random, extra=[xi])
    r = mv(A[:, None], x) + (f.e_rho[:, None] * dot(eta[:, None], x))[..., None] * f.v[:, None]
    tracker.update("nabla_xi", gnorm(G[:, None], r), kept)
    rows = {
        "nabla_xi_v": mv(Mv, xi) - f.e_rho[:, None] * xi - f.sigma[:, None] * f.phi_v,
        "nabla_v_v": mv(Mv, f.v) - f.phi_v_rho[:, None] * f.phi_v,
        "nabla_phiv_v": mv(Mv, f.phi_v) - (f.div_v - f.e_rho)[:, None] * f.phi_v,
        "nabla_xi_phiv": mv(Mpv, xi) + f.sigma[:, None] * f.v,
        "nabla_v_phiv": mv(Mpv, f.v) + f.phi_v_rho[:, None] * f.v,
        "nabla_phiv_phiv": mv(Mpv, f.phi_v) - (f.e_rho - f.div_v)[:, None] * f.v,
    }
    for name, r in rows.items():
        tracker.update(name, gnorm(G, r))
    return tracker.report("connection_table", tol)


@by_rows
def frame_residuals(
    s: AcmStructure, points, tol: float = 1e-9, grad_tol: float = 1e-7
) -> ResidualReport:
    """Orthonormality and duality of the fundamental frame, plus the
    reconstruction of grad rho from its frame components."""
    cf = s.corner
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    b = cf.bundle(p)
    f = cf.frame(p)
    G = s.g.matrix(p)
    xi = s.xi.values(p)
    eta = s.eta.values(p)

    unit = {
        "v_unit": _quad(G, f.v, f.v) - 1.0,
        "phiv_unit": _quad(G, f.phi_v, f.phi_v) - 1.0,
        "xi_v_orth": _quad(G, xi, f.v),
        "xi_phiv_orth": _quad(G, xi, f.phi_v),
        "v_phiv_orth": _quad(G, f.v, f.phi_v),
        "eta_v": dot(eta, f.v),
        "eta_phiv": dot(eta, f.phi_v),
        "theta1_v": dot(f.theta1, f.v) - 1.0,
        "theta1_phiv": dot(f.theta1, f.phi_v),
        "theta1_xi": dot(f.theta1, xi),
        "theta2_v": dot(f.theta2, f.v),
        "theta2_phiv": dot(f.theta2, f.phi_v) - 1.0,
        "theta2_xi": dot(f.theta2, xi),
        "phi_v_coherent": gnorm(G, mv(s.phi.matrix(p), f.v) - f.phi_v),
    }
    for name, r in unit.items():
        tracker.update(name, r)

    grad_rho = b.rho.grad
    sharp = mv(s.g.inverse(p), grad_rho)
    frame_sum = (
        dot(xi, grad_rho)[:, None] * xi
        + dot(f.v, grad_rho)[:, None] * f.v
        + f.phi_v_rho[:, None] * f.phi_v
    )
    tracker.update("grad_rho_frame", gnorm(G, frame_sum - sharp))

    tolerances = dict.fromkeys(unit, tol)
    tolerances["grad_rho_frame"] = grad_tol
    return tracker.report("frame", tolerances)


@by_rows
def form_identities_residuals(s: AcmStructure, points, tol: float = 1e-8) -> ResidualReport:
    """Structure equations of the coframe.

    ``Phi = 2 theta2 ^ theta1``;
    ``d theta1 = sigma eta ^ theta2 + phiV(rho) theta1 ^ theta2``;
    ``d theta2 = -sigma eta ^ theta1 - (e^rho - div V) theta1 ^ theta2``;
    and the mixed identity
    ``d theta2 = sigma e^{-rho} d eta + (e^rho - div V)/2 Phi``.
    """
    cf = s.corner
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    f = cf.frame(p)
    eta = s.eta.values(p)
    phi_mat = fundamental_two_form_matrix(s, p)
    deta = d_oneform_matrix(s.eta, p)
    dth1 = d_oneform_matrix(cf.theta1, p)
    dth2 = d_oneform_matrix(cf.theta2, p)
    w_eta_th2 = wedge11_matrix(eta, f.theta2)
    w_eta_th1 = wedge11_matrix(eta, f.theta1)
    w_th1_th2 = wedge11_matrix(f.theta1, f.theta2)
    sigma, e_minus_div = f.sigma[:, None, None], (f.e_rho - f.div_v)[:, None, None]

    tracker.update(
        "phi_as_two_theta2_theta1", max_abs(phi_mat - 2.0 * wedge11_matrix(f.theta2, f.theta1))
    )
    tracker.update(
        "d_theta1", max_abs(dth1 - sigma * w_eta_th2 - f.phi_v_rho[:, None, None] * w_th1_th2)
    )
    tracker.update("d_theta2", max_abs(dth2 + sigma * w_eta_th1 + e_minus_div * w_th1_th2))
    tracker.update(
        "d_theta2_via_d_eta",
        max_abs(dth2 - (f.sigma / f.e_rho)[:, None, None] * deta - 0.5 * e_minus_div * phi_mat),
    )
    return tracker.report("form_identities", tol)


@by_rows
def closed_omega_check(
    s: AcmStructure, points, closed_tol: float = 1e-8, sigma_tol: float = 1e-6
) -> ResidualReport:
    """Check the implication: omega closed (d omega = 0) forces sigma = 0."""
    cf = s.corner
    p = np.atleast_2d(points)
    used, f = skipping(cf.frame, p, DegenerateCornerError)
    degenerate = int(np.count_nonzero(~used))
    p = p[used]
    tracker = ResidualTracker(p)
    if f is not None:
        tracker.update("d_omega", max_abs(d_oneform_matrix(cf.omega, p)))
        tracker.update("sigma", f.sigma)
    report = tracker.report("closed_omega")
    d_max = report.max_abs("d_omega") if report.residuals else 0.0
    s_max = report.max_abs("sigma") if report.residuals else 0.0
    omega_closed = d_max < closed_tol
    implication = (not omega_closed) or s_max < sigma_tol
    report.details.update(
        {
            "omega_closed": omega_closed,
            "implication_holds": implication,
            "degenerate_points": degenerate,
            "failed": not implication,
        }
    )
    return report


@by_rows
def phi_derivative_residual(
    s: AcmStructure, points, rng=None, n_random: int = 2, tol: float = 1e-8
) -> ResidualReport:
    """Residual of the covariant-derivative characterization
    ``(nabla_X phi) Y = eta(X) (omega(phi Y) xi + eta(Y) phi psi)``.

    Optional companion to :func:`corner_residual`; kept separate so the
    defining Eq-style residual stays canonical.
    """
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    G = s.g.matrix(p)
    P = s.phi.matrix(p)
    eta = s.eta.values(p)
    xi = s.xi.values(p)
    gam = s.g.christoffel(p)
    A = s.nabla_xi(p)
    psi = -mv(A, xi)
    omega = mv(G, psi)
    phi_psi = mv(P, psi)
    # nabla phi as a (1,2)-tensor: D[..., i, k, j] = (nabla_i phi)^k_j
    grad = s.phi.jets(p).grad
    dphi = batch_first(grad.transpose(-1, *range(grad.ndim - 1)), 3)
    D = (
        dphi
        + np.einsum("...kim,...mj->...ikj", gam, P)
        - np.einsum("...mij,...km->...ikj", gam, P)
    )
    probes, kept = probe_vectors(s.g, p, rng, n_random, extra=[xi])
    n = probes.shape[1]
    res = np.empty((len(p), n, n))
    for a in range(n):
        x = probes[:, a]
        for c in range(n):
            y = probes[:, c]
            lhs = np.einsum("...ikj,...i,...j->...k", D, x, y)
            rhs = dot(eta, x)[:, None] * (
                dot(omega, mv(P, y))[:, None] * xi + dot(eta, y)[:, None] * phi_psi
            )
            res[:, a, c] = gnorm(G, lhs - rhs)
    tracker.update("nabla_phi", res, kept[:, :, None] & kept[:, None, :])
    return tracker.report("phi_derivative", tol)
