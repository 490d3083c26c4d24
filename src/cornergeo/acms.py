"""Almost contact metric structures on a 3-dimensional chart.

A structure is a quadruple (phi, xi, eta, g) with

    eta(xi) = 1,
    phi^2 X = -X + eta(X) xi,
    g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y),

from which phi(xi) = 0 and eta o phi = 0 follow.  This module checks the
axioms, evaluates the fundamental 2-form and the Nijenhuis-type tensors,
computes the Olszak normality functions (alpha, beta), and classifies a
structure within the trans-Sasakian taxonomy.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .expr import by_rows, outer, require, skipping
from .fields import ChartDomain, MetricField, OneFormField, SingularMetricError, TensorField11
from .fields import VectorField, contract, dot, first_order, gnorm, last_batch, mv, vm, vnorm
from .report import ResidualReport, ResidualTracker, stats
from .tensor import _as_vector_field, _bracket, _with_jacobian, divergence, nabla_matrix
from .tensor import probe_vectors

__all__ = [
    "AcmStructure",
    "ClassificationReport",
    "check_axioms",
    "fundamental_two_form_matrix",
    "fundamental_two_form_fields",
    "nijenhuis",
    "n1_tensor",
    "olszak_alpha_beta",
    "trans_sasakian_residual",
    "normality_residual",
    "classify",
    "SASAKIAN",
    "ALPHA_SASAKIAN",
    "KENMOTSU",
    "BETA_KENMOTSU",
    "COSYMPLECTIC",
    "TRANS_SASAKIAN",
    "NOT_NORMAL",
]

SASAKIAN = "Sasakian"
ALPHA_SASAKIAN = "alpha-Sasakian"
KENMOTSU = "Kenmotsu"
BETA_KENMOTSU = "beta-Kenmotsu"
COSYMPLECTIC = "cosymplectic"
TRANS_SASAKIAN = "trans-Sasakian"
NOT_NORMAL = "not-normal"


@dataclass(frozen=True, eq=False)
class AcmStructure:
    """An almost contact metric structure given by component fields.

    ``corner`` is the structure's one frame context: its fields, the twins
    and the deformation built on it all read one frame bundle per sample.
    ``nabla_xi`` and ``basis_normality`` give nabla xi and the normality
    tensors on the coordinate basis, each computed once per sample (see
    :func:`cornergeo.fields.last_batch`).  ``derived`` keeps its twins and
    its last deformation.  Nothing these hold refers back to the structure,
    so it is freed as soon as it is dropped.
    """

    phi: TensorField11
    xi: VectorField
    eta: OneFormField
    g: MetricField
    domain: ChartDomain
    derived: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_expressions(cls, phi, xi, eta, g, domain=None) -> "AcmStructure":
        """Build a structure from expression strings / numbers per component."""
        return cls(
            phi=TensorField11(phi),
            xi=VectorField(xi),
            eta=OneFormField(eta),
            g=MetricField(g),
            domain=domain or ChartDomain(),
        )

    @functools.cached_property
    def corner(self):
        """The :class:`cornergeo.corner.CornerFields` of this structure, built
        on first use and kept with it."""
        from .corner import CornerFields  # corner imports this module

        return CornerFields(self)

    @functools.cached_property
    def nabla_xi(self):
        """The memo of ``nabla_matrix(g, xi, p)``: ``A[..., k, i] = (nabla_{d_i} xi)^k``."""
        g, xi = self.g, self.xi
        return last_batch(lambda p: nabla_matrix(g, xi, p))

    @functools.cached_property
    def basis_normality(self):
        """The memo of :func:`_basis_normality`: N_phi and N^(1) on the
        coordinate pairs (d_i, d_j), i < j."""
        phi, xi, eta = self.phi, self.xi, self.eta
        return last_batch(lambda p: _basis_normality(phi, xi, eta, p))


@by_rows
def check_axioms(s: AcmStructure, points, tol: float = 1e-8) -> ResidualReport:
    """Max residuals of the three axioms and the two derived identities.

    Singular-metric points are skipped and counted in the report details.
    A field that is not finite at a point raises a ValueError that names
    it, before any matrix norm is taken.
    """
    p = np.atleast_2d(points)
    used, Ginv = skipping(s.g.inverse, p, SingularMetricError)
    skipped = int(np.count_nonzero(~used))
    p = p[used]
    tracker = ResidualTracker(p)
    if Ginv is not None:
        G, P, xi, eta = s.g.matrix(p), s.phi.matrix(p), s.xi.values(p), s.eta.values(p)
        for name, v in (("g", G), ("phi", P), ("xi", xi), ("eta", eta)):
            require(p, ~np.isfinite(v.reshape(len(p), -1)).all(axis=-1),
                    lambda q: ValueError(f"{name} is not finite at {q.tolist()}"))
        tracker.update("eta_xi", dot(eta, xi) - 1.0)
        tracker.update(
            "phi_square", np.linalg.norm(P @ P + np.eye(3) - outer(xi, eta), 2, axis=(-2, -1))
        )
        tracker.update(
            "metric_compat",
            np.linalg.norm(np.swapaxes(P, -1, -2) @ G @ P - G + outer(eta, eta), 2, axis=(-2, -1)),
        )
        tracker.update("phi_xi", gnorm(G, mv(P, xi)))
        tracker.update("eta_phi", vnorm(vm(eta, P)))
        # eta must be the metric dual of xi (derived, but cheap to verify)
        tracker.update("eta_sharp_xi", vnorm(mv(Ginv, eta) - xi))
    return tracker.report("axioms", tol, details={"skipped_points": skipped})


def fundamental_two_form_matrix(s: AcmStructure, p) -> np.ndarray:
    """Coefficients Phi_ij = g(d_i, phi d_j)."""
    return s.g.matrix(p) @ s.phi.matrix(p)


def fundamental_two_form_fields(s: AcmStructure) -> TensorField11:
    """The coefficients Phi_ij as one field of 3x3 jets (for exterior derivatives)."""
    return TensorField11(lambda p: contract(first_order(s.g.jets(p))[:, :, None], s.phi.jets(p)))


def nijenhuis(s: AcmStructure, X, Y, p) -> np.ndarray:
    """The Nijenhuis torsion of phi on (X, Y) at p."""
    return _normality(s.phi, s.xi, s.eta, [(X, Y)], p).n_phi[0]


def n1_tensor(s: AcmStructure, X, Y, p) -> np.ndarray:
    """N^(1)(X, Y) = N_phi(X, Y) + 2 d eta(X, Y) xi (normality tensor)."""
    return _normality(s.phi, s.xi, s.eta, [(X, Y)], p).n1[0]


def _normality(phi, xi, eta, pairs: list, p) -> SimpleNamespace:
    """``n_phi`` and ``n1``: N_phi and N^(1) on each (X, Y) of ``pairs``
    (vector fields, or arrays taken as constant fields), stacked in that
    order on a leading axis.  Each distinct X gives its values, Jacobian,
    phi X and d(eta(X)) once, and each [X, Y] serves both N_phi and d eta."""
    P, xi_v, eta_v = phi.matrix(p), xi.values(p), eta.values(p)
    known = {}  # by id, which is unique: ``pairs`` keeps every X alive
    for X in itertools.chain(*pairs):
        if id(X) not in known:
            Xf = _as_vector_field(X)
            known[id(X)] = (_with_jacobian(Xf, p), _with_jacobian(phi.apply(Xf), p),
                            eta.pair(Xf).jet(p).grad)
    n_phi, n1 = [], []
    for X, Y in pairs:
        (x, px, d_eta_x), (y, py, d_eta_y) = known[id(X)], known[id(Y)]
        br = _bracket(x, y)
        n = mv(P, mv(P, br)) + _bracket(px, py) - mv(P, _bracket(px, y)) - mv(P, _bracket(x, py))
        # d eta(X, Y), with the 1/2 convention of exterior_d_oneform
        deta = 0.5 * (dot(x[0], d_eta_y) - dot(y[0], d_eta_x) - dot(eta_v, br))
        n_phi.append(n)
        n1.append(n + (2.0 * deta)[..., None] * xi_v)
    return SimpleNamespace(n_phi=np.stack(n_phi), n1=np.stack(n1))


def _basis_normality(phi, xi, eta, p) -> SimpleNamespace:
    """:func:`_normality` on the coordinate pairs (d_0, d_1), (d_0, d_2) and
    (d_1, d_2); raises a ValueError at the first point where N^(1) is not finite."""
    pairs = list(itertools.combinations([VectorField.constant(e) for e in np.eye(3)], 2))
    b = _normality(phi, xi, eta, pairs, p)
    # N^(1) = N_phi + 2 d eta (x) xi is not finite wherever N_phi is not
    require(p, ~np.isfinite(b.n1).all(axis=(0, -1)),
            lambda q: ValueError(f"N^(1) is not finite at {q.tolist()}"))
    return b


def olszak_alpha_beta(s: AcmStructure, p):
    """The normality functions: 2 alpha = tr(phi . nabla xi), 2 beta = div xi."""
    A = s.nabla_xi(p)
    alpha = 0.5 * np.trace(s.phi.matrix(p) @ A, axis1=-2, axis2=-1)
    beta = 0.5 * divergence(s.g, s.xi, p)
    return alpha, beta


def trans_sasakian_residual(
    s: AcmStructure, alpha, beta, points, rng=None, n_random: int = 4
) -> ResidualReport:
    """Worst g-norm of ``nabla_X xi + alpha phi X + beta phi^2 X`` over probes.

    ``alpha`` and ``beta`` are each a number, or an array of one value per
    point (as ``classify`` gives them in ``alphas`` and ``betas``).  Probe
    directions are the g-normalized coordinate axes, xi itself, and optional
    seeded random unit vectors.
    """
    p = np.atleast_2d(points)
    a, b = (np.asarray(v, dtype=float)[..., None, None] for v in (alpha, beta))
    tracker = ResidualTracker(p)
    G = s.g.matrix(p)
    P = s.phi.matrix(p)
    R = s.nabla_xi(p) + a * P + b * (P @ P)
    probes, kept = probe_vectors(s.g, p, rng, n_random, extra=[s.xi.values(p)])
    tracker.update("trans_sasakian", gnorm(G[:, None], mv(R[:, None], probes)), kept)
    return tracker.report("trans_sasakian")


@by_rows
def normality_residual(s: AcmStructure, points) -> tuple[float, np.ndarray | None]:
    """Max g-norm of N^(1) over coordinate basis pairs and sample points,
    and the first point where it is reached.

    N^(1) is read from ``s.basis_normality``, which the corner form suite
    shares, and a non-finite N^(1) raises a ValueError there.  Only a norm
    above zero counts, so a structure with none reads ``(0.0, None)``.
    """
    p = np.atleast_2d(points)
    G = s.g.matrix(p)
    norms = np.stack([gnorm(G, v) for v in s.basis_normality(p).n1], axis=-1)
    tracker = ResidualTracker(p)
    tracker.update("normality", norms, norms > 0.0)
    rows = tracker.report("normality").residuals
    if not rows:
        return 0.0, None
    return rows[0].max_abs, np.asarray(rows[0].argmax_point)


@dataclass
class ClassificationReport:
    """Verdict plus the (alpha, beta) statistics that produced it."""

    verdict: str
    alpha: dict  # mean, std, min and max over the points used
    beta: dict
    normality: float
    normality_argmax: list | None
    points_used: int
    thresholds: dict
    notes: dict
    # the pointwise values over the points used; not part of the report
    alphas: np.ndarray = field(repr=False)
    betas: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        del out["alphas"], out["betas"]
        out["normality_residual"] = out.pop("normality")
        return out


def classify(
    s: AcmStructure,
    points=None,
    samples: int = 100,
    seed: int = 0,
    zero_tol: float = 1e-6,
    const_tol: float = 1e-6,
) -> ClassificationReport:
    """Place a structure in the trans-Sasakian taxonomy.

    Not-normal wins whenever the normality residual exceeds ``zero_tol``;
    otherwise the verdict follows from which of alpha, beta vanish or are
    constant across the sample.  The report keeps the statistics either way.
    An alpha or beta that is not finite gives no verdict: it raises a
    ValueError that names the first such point.
    """
    if points is None:
        points = s.domain.sample(samples, seed)
    points = np.atleast_2d(points)

    used, alpha_beta = skipping(lambda q: olszak_alpha_beta(s, q), points, SingularMetricError)
    skipped = int(np.count_nonzero(~used))
    if alpha_beta is None:
        olszak_alpha_beta(s, points[:1])  # singular everywhere: the first point raises
    alphas, betas = alpha_beta
    require(points[used], ~(np.isfinite(alphas) & np.isfinite(betas)), lambda q, a, b: ValueError(
        f"alpha or beta is not finite at {q.tolist()}: alpha = {a:g}, beta = {b:g}"
    ), alphas, betas)

    normality, arg = normality_residual(s, points)

    alpha, beta = stats(alphas), stats(betas)
    a_zero = np.max(np.abs(alphas)) < zero_tol
    b_zero = np.max(np.abs(betas)) < zero_tol
    a_const = alpha["std"] < const_tol
    b_const = beta["std"] < const_tol
    a_mean, b_mean = alpha["mean"], beta["mean"]

    if normality >= zero_tol:
        verdict = NOT_NORMAL
    elif a_zero and b_zero:
        verdict = COSYMPLECTIC
    elif a_zero:
        if b_const and abs(b_mean - 1.0) < zero_tol:
            verdict = KENMOTSU
        else:
            verdict = BETA_KENMOTSU
    elif b_zero:
        if a_const and abs(a_mean - 1.0) < zero_tol:
            verdict = SASAKIAN
        elif a_const:
            verdict = ALPHA_SASAKIAN
        else:
            verdict = TRANS_SASAKIAN
    else:
        verdict = TRANS_SASAKIAN

    return ClassificationReport(
        verdict=verdict,
        alpha=alpha,
        beta=beta,
        normality=float(normality),
        normality_argmax=None if arg is None else [float(v) for v in arg],
        points_used=len(alphas),
        thresholds={"zero": zero_tol, "const": const_tol},
        notes={"skipped_points": skipped},
        alphas=alphas,
        betas=betas,
    )
