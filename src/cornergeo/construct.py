"""Derived structures: the two frame twins and the contact-form deformation.

Twins.  On a non-degenerate corner structure the frame (xi, V, phi V) admits
two companion almost contact metric structures with the same metric:

  * the V-twin:     phi' X = theta2(X) xi - eta(X) phi V,  Reeb field V,
                    contact form theta1;
  * the phiV-twin:  phi' X = eta(X) V - theta1(X) xi,      Reeb field phi V,
                    contact form theta2.

The V-twin is beta-Kenmotsu with beta = e^rho exactly when
div V = 2 e^rho and sigma = phiV(rho) = 0; the phiV-twin is cosymplectic
exactly when div V = e^rho and sigma = phiV(rho) = 0.  Both theorems are
checked along two independent routes (conditions vs. classifier).

Deformation.  For a positive factor f the deformed structure is

    phi~ X = phi X + theta1(X) xi,   xi~ = xi,   eta~ = eta - theta2,
    g~ = f g - f eta (x) eta + eta~ (x) eta~.

Its fundamental form scales exactly (Phi~ = f Phi), its normality tensor has
a closed form proportional to (1 - sigma e^{-rho}), and when sigma = e^rho it
is trans-Sasakian of type (alpha~, beta~) with

    alpha~ = (div V - e^rho) / (2 f),    beta~ = xi(ln f) / 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .acms import (
    AcmStructure,
    COSYMPLECTIC,
    KENMOTSU,
    SASAKIAN,
    TRANS_SASAKIAN,
    classify,
    fundamental_two_form_fields,
    fundamental_two_form_matrix,
    n1_tensor,
)
from .expr import Jet2, PointError, ScalarExpr, as_expr, by_rows, require
from .fields import MetricField, OneFormField, ScalarField, TensorField11, dot, first_order
from .fields import max_abs, mv, vm
from .report import ResidualReport, ResidualTracker, stats
from .tensor import d_oneform_matrix, d_twoform_coeff, wedge12_coeff

__all__ = [
    "TwinKind",
    "twin",
    "TwinTheoremVerdict",
    "thken_check",
    "thcos_check",
    "NonPositiveFError",
    "DeformationParams",
    "deform",
    "ntilde_identity_residual",
    "DeformedTypeReport",
    "deformed_type",
    "corollary_case",
    "GateReport",
    "corollary_gate",
]


class TwinKind(str, Enum):
    """Which frame field becomes the Reeb field of the twin."""

    V = "v"
    PHI_V = "phi_v"


def twin(s: AcmStructure, kind: TwinKind) -> AcmStructure:
    """The V-twin or the phiV-twin of a corner structure.  Each is built once
    and kept in ``s.derived`` under its kind, so the theorem and the axioms
    check of a twin read one phi' field.  It refers to ``s.corner``, not ``s``."""
    kind = TwinKind(kind)
    if kind not in s.derived:
        cf = s.corner
        # phi' at [k, j] is a_j b^k - c_j d^k
        if kind is TwinKind.V:
            (a, b, c, d), new_xi, new_eta = (cf.theta2, s.xi, s.eta, cf.phi_v), cf.v, cf.theta1
        else:
            (a, b, c, d), new_xi, new_eta = (s.eta, cf.v, cf.theta1, s.xi), cf.phi_v, cf.theta2

        def phi(p):
            return a.jets(p)[None] * b.jets(p)[:, None] - c.jets(p)[None] * d.jets(p)[:, None]

        s.derived[kind] = AcmStructure(
            phi=TensorField11(phi), xi=new_xi, eta=new_eta, g=s.g, domain=s.domain
        )
    return s.derived[kind]


@dataclass
class TwinTheoremVerdict:
    """Two-route check of a twin theorem.

    ``conditions_hold`` comes from the frame scalars of the base structure;
    ``twin_matches`` from classifying the twin itself.  The theorem predicts
    they coincide, which is what ``routes_agree`` records.
    """

    theorem: str
    conditions_hold: bool
    condition_residuals: dict
    twin_matches: bool
    twin_verdict: str
    twin_residuals: dict
    routes_agree: bool
    tolerance: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def thken_check(s: AcmStructure, points, tol: float = 1e-6) -> TwinTheoremVerdict:
    """V-twin theorem: beta-Kenmotsu with beta = e^rho iff
    div V = 2 e^rho and sigma = phiV(rho) = 0."""
    return _twin_theorem(s, points, tol, TwinKind.V)


def thcos_check(s: AcmStructure, points, tol: float = 1e-6) -> TwinTheoremVerdict:
    """phiV-twin theorem: cosymplectic iff div V = e^rho and
    sigma = phiV(rho) = 0."""
    return _twin_theorem(s, points, tol, TwinKind.PHI_V)


def _twin_theorem(s, points, tol, kind: TwinKind) -> TwinTheoremVerdict:
    points = np.atleast_2d(points)

    f = s.corner.frame(points)
    if kind is TwinKind.V:
        theorem, div_name, div_target = "v_twin_beta_kenmotsu", "div_v_minus_2_erho", 2.0 * f.e_rho
        beta_name, beta_target = "beta_minus_erho", f.e_rho
    else:
        theorem, div_name, div_target = "phiv_twin_cosymplectic", "div_v_minus_erho", f.e_rho
        beta_name, beta_target = "beta", 0.0
    cond = {
        div_name: float(np.max(np.abs(f.div_v - div_target))),
        "sigma": float(np.max(np.abs(f.sigma))),
        "phi_v_rho": float(np.max(np.abs(f.phi_v_rho))),
    }
    conditions_hold = all(v < tol for v in cond.values())

    classified = classify(twin(s, kind), points=points, zero_tol=tol, const_tol=tol)
    normality, verdict = classified.normality, classified.verdict
    alpha, beta = classified.alphas, classified.betas
    a_max, b_err = float(np.max(np.abs(alpha))), float(np.max(np.abs(beta - beta_target)))
    twin_matches = normality < tol and a_max < tol and b_err < tol

    return TwinTheoremVerdict(
        theorem=theorem,
        conditions_hold=conditions_hold,
        condition_residuals=cond,
        twin_matches=twin_matches,
        twin_verdict=verdict,
        twin_residuals={
            "normality": float(normality), "alpha": float(a_max), beta_name: float(b_err)
        },
        routes_agree=conditions_hold == twin_matches,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------


class NonPositiveFError(PointError, ValueError):
    """The deformation factor must stay positive on the domain."""

    template = "deformation factor is not positive at {point}: f = {value:.6g}"


@dataclass(frozen=True)
class DeformationParams:
    """The conformal-like factor f (finite and > 0) driving the deformation.

    ``validate`` checks f on 50 fixed points of the domain; the deformed
    metric checks it again at every point it is evaluated at.  The jet of f
    is one memoized field (see :func:`cornergeo.fields.last_batch`), so the
    deformed metric and the type functions of a sample share one evaluation.
    """

    f: ScalarExpr
    _field: ScalarField = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.f  # the field closes over f, not over the params

        def positive(points) -> Jet2:
            fj = f.eval_jet2(points)
            require(points, ~((fj.value > 0.0) & np.isfinite(fj.value)), lambda q, v: (
                NonPositiveFError(q, v) if np.isfinite(v)
                else ValueError(f"deformation factor is not finite at {q.tolist()}: f = {v:g}")
            ), fj.value)
            return fj

        object.__setattr__(self, "_field", ScalarField(positive))

    @classmethod
    def of(cls, f) -> "DeformationParams":
        return cls(f=as_expr(f))

    def validate(self, domain) -> None:
        self.jet(domain.sample(50, seed_or_rng=0))

    def jet(self, points) -> Jet2:
        """The jet of f over ``points``; raises at the first point where f is
        not finite (a ValueError) or f <= 0 (a :class:`NonPositiveFError`)."""
        return self._field.jet(points)


def deform(s: AcmStructure, params: DeformationParams) -> AcmStructure:
    """The deformed structure (phi~, xi, eta~, g~) of a corner structure,
    built and validated once per ``params`` object: ``s.derived`` keeps the
    last one with its ``params``.  It refers to the fields of ``s``, not ``s``."""
    last = s.derived.get("deform")
    if last is not None and last[0] is params:
        return last[1]
    params.validate(s.domain)
    phi, xi, eta, g = s.phi, s.xi, s.eta, s.g
    theta1, theta2 = s.corner.theta1, s.corner.theta2

    def eta_t(p):
        return eta.jets(p) - theta2.jets(p)

    def phi_t(p):
        return phi.jets(p) + theta1.jets(p)[None] * xi.jets(p)[:, None]

    def g_t(p):
        # eta_t carries no Hessian, so g~ carries none: none is computed
        f, e, et = first_order(params.jet(p)), eta.jets(p), eta_t(p)
        return f * g.jets(p) - (f * e)[:, None] * e[None] + et[:, None] * et[None]

    deformed = AcmStructure(
        TensorField11(phi_t), xi, OneFormField(eta_t), MetricField(g_t), s.domain
    )
    s.derived["deform"] = (params, deformed)
    return deformed


@by_rows
def ntilde_identity_residual(
    s: AcmStructure,
    params: DeformationParams,
    points,
    rng=None,
    pairs_per_point: int = 2,
    tol: float = 1e-7,
) -> ResidualReport:
    """Closed form of the deformed normality tensor versus brute force.

    Closed form:  N~(X, Y) = 2 (1 - sigma e^{-rho})
    (d eta(X, Y) - d eta(phi X, xi) theta2(phi Y) - d eta(xi, phi Y) theta2(phi X)) xi.
    The brute-force route evaluates the Nijenhuis tensor of the deformed phi
    plus its d(eta~) correction.  The residual is the max-abs component gap.
    """
    deformed = deform(s, params)
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    f = s.corner.frame(p)
    P = s.phi.matrix(p)
    xi = s.xi.values(p)
    deta = d_oneform_matrix(s.eta, p)
    th2 = f.theta2
    factor = 2.0 * (1.0 - f.sigma / f.e_rho)
    n_pairs = max(1, pairs_per_point)
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
        closed = (factor * scalar)[:, None] * xi
        brute = n1_tensor(deformed, x, y, p)
        gaps[:, k] = np.max(np.abs(closed - brute), axis=-1)
        sizes[:, k] = np.max(np.abs(brute), axis=-1)
    tracker.update("ntilde_closed_vs_brute", gaps)
    tracker.update("ntilde_max", sizes)
    tolerances = {"ntilde_closed_vs_brute": tol, "ntilde_max": None}
    return tracker.report("ntilde_identity", tolerances)


@dataclass
class DeformedTypeReport:
    """Trans-Sasakian type data of the deformation plus its form identities."""

    alphas: np.ndarray
    betas: np.ndarray
    residuals: ResidualReport
    gate_residual_max: float
    gate_holds: bool

    def to_dict(self) -> dict:
        return {
            "alpha": stats(self.alphas),
            "beta": stats(self.betas),
            "residuals": self.residuals.to_dict(),
            "normal_gate": {
                "sigma_minus_erho_max": self.gate_residual_max,
                "holds": self.gate_holds,
            },
        }


@by_rows
def deformed_type(
    s: AcmStructure,
    params: DeformationParams,
    points,
    kernel_tol: float = 1e-8,
    gate_tol: float = 1e-6,
) -> DeformedTypeReport:
    """Type functions (alpha~, beta~) and the deformed structure equations.

    Checks, at every sample point: the exact scaling Phi~ = f Phi; the
    derivative identity d(ln f) ^ Phi~ = xi(ln f) eta~ ^ Phi~; and the two
    structure equations

        d eta~ = (1 - sigma e^{-rho}) d eta + (div V - e^rho)/(2f) Phi~,
        d Phi~ = xi(ln f) eta~ ^ Phi~.

    The Phi~ coefficient is forced by eta~ = eta - theta2 together with the
    exterior derivative of theta2; with it, the first equation holds for every
    corner structure, and at the gate it reduces to d eta~ = alpha~ Phi~.

    The "normal gate" records how far sigma is from e^rho; type functions are
    reported regardless, since they are defined whenever the gate holds.
    """
    deformed = deform(s, params)
    phi_t_fields = fundamental_two_form_fields(deformed)
    p = np.atleast_2d(points)
    tracker = ResidualTracker(p)
    f = s.corner.frame(p)
    fj = params.jet(p)
    xi = s.xi.values(p)
    dlnf = fj.grad / fj.value[:, None]
    xi_lnf = dot(xi, dlnf)

    phi_mat = fundamental_two_form_matrix(s, p)
    phi_t_mat = fundamental_two_form_matrix(deformed, p)
    eta_t = deformed.eta.values(p)
    deta = d_oneform_matrix(s.eta, p)
    deta_t = d_oneform_matrix(deformed.eta, p)

    tracker.update("phi_scaling", max_abs(phi_t_mat - fj.value[:, None, None] * phi_mat))
    eta_wedge = wedge12_coeff(eta_t, phi_t_mat)
    lemma = wedge12_coeff(dlnf, phi_t_mat) - xi_lnf * eta_wedge
    tracker.update("lemma_dlnf_wedge", lemma)
    alphas = (f.div_v - f.e_rho) / (2.0 * fj.value)
    rhs = (1.0 - f.sigma / f.e_rho)[:, None, None] * deta + alphas[:, None, None] * phi_t_mat
    tracker.update("d_eta_tilde", max_abs(deta_t - rhs))
    tracker.update("d_phi_tilde", d_twoform_coeff(phi_t_fields, p) - xi_lnf * eta_wedge)
    gate = float(np.max(np.abs(f.sigma - f.e_rho)))
    tolerances = {
        "phi_scaling": kernel_tol / 10.0,
        "lemma_dlnf_wedge": kernel_tol,
        "d_eta_tilde": kernel_tol * 10.0,
        "d_phi_tilde": kernel_tol * 10.0,
    }
    return DeformedTypeReport(
        alphas=alphas,
        betas=0.5 * xi_lnf,
        residuals=tracker.report("deformed_type", tolerances),
        gate_residual_max=float(gate),
        gate_holds=gate < gate_tol,
    )


def corollary_case(
    e_rho: float, div_v: float, f_value: float, xi_f: float, tol: float = 1e-6
) -> str:
    """Special-case selector for a *normal* deformation (sigma = e^rho).

    cosymplectic: div V = e^rho, xi(f) = 0;  Kenmotsu: div V = e^rho,
    xi(f) = 2f;  Sasakian: div V = e^rho + 2f, xi(f) = 0 (the value of
    alpha~ = (div V - e^rho)/(2f) at 1); anything else is generic
    trans-Sasakian.
    """
    div_at_erho = abs(div_v - e_rho) < tol
    if div_at_erho and abs(xi_f) < tol:
        return COSYMPLECTIC
    if div_at_erho and abs(xi_f - 2.0 * f_value) < tol:
        return KENMOTSU
    if abs(div_v - (e_rho + 2.0 * f_value)) < tol and abs(xi_f) < tol:
        return SASAKIAN
    return TRANS_SASAKIAN


@dataclass
class GateReport:
    """Outcome of the normality gate and, if open, the special-case verdict."""

    gate_holds: bool
    gate_residual_max: float
    case: str | None
    cases_seen: list
    tolerance: float

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["sigma_minus_erho_max"] = out.pop("gate_residual_max")
        return out


def corollary_gate(
    s: AcmStructure, params: DeformationParams, points, tol: float = 1e-6
) -> GateReport:
    """Check sigma = e^rho; only then evaluate the special-case corollary."""
    points = np.atleast_2d(points)
    f = s.corner.frame(points)
    gate = float(np.max(np.abs(f.sigma - f.e_rho)))
    gate_holds = gate < tol
    case = None
    cases = set()
    if gate_holds:
        fj = params.jet(points)
        xi_f = dot(s.xi.values(points), fj.grad)
        for n in range(len(points)):
            cases.add(corollary_case(f.e_rho[n], f.div_v[n], fj.value[n], xi_f[n], tol))
        # a mixed bag of pointwise cases is only generically trans-Sasakian
        case = next(iter(cases)) if len(cases) == 1 else TRANS_SASAKIAN
    return GateReport(
        gate_holds=gate_holds,
        gate_residual_max=float(gate),
        case=case,
        cases_seen=sorted(cases),
        tolerance=tol,
    )
