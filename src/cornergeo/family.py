"""The explicit family of structures on an R^3 chart with diagonal metric.

Given three positive functions tau, kappa, mu of the chart coordinates, set

    g   = diag(tau^2, kappa^2, mu^2),
    xi  = (1/tau) d1,          eta = tau dx1,
    phi d1 = 0,  phi d2 = (kappa/mu) d3,  phi d3 = -(mu/kappa) d2.

This is always an almost contact metric structure; it satisfies the corner
condition exactly when kappa and mu do not depend on x1.  Then

    psi = (tau_2 / (tau kappa^2)) d2 + (tau_3 / (tau mu^2)) d3,
    |psi|^2 = (tau_2^2/kappa^2 + tau_3^2/mu^2) / tau^2,

and the derived frame quantities feed every construction downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .acms import AcmStructure
from .expr import Binary, Call, Const, Jet2, Rows, ScalarExpr, Unary, _jets_at, as_expr
from .expr import as_points, by_rows, require, row_texts
from .fields import ChartDomain, MetricField, OneFormField, TensorField11, VectorField, last_batch

__all__ = [
    "FamilyParams",
    "build_family",
    "Preset",
    "preset",
    "preset_structure",
    "PRESET_NAMES",
    "random_family",
    "RandomDraws",
    "stack_members",
]


@dataclass(frozen=True)
class FamilyParams:
    """Generating functions of one member of the family."""

    tau: ScalarExpr
    kappa: ScalarExpr
    mu: ScalarExpr

    @classmethod
    def of(cls, tau, kappa, mu) -> "FamilyParams":
        return cls(tau=as_expr(tau), kappa=as_expr(kappa), mu=as_expr(mu))


def build_family(params: FamilyParams, domain: ChartDomain = ChartDomain()) -> AcmStructure:
    """Assemble the structure on ``domain``; validates tau > 0 and
    tau*kappa*mu != 0 on 50 fixed points of it, and a finite tau > 0 at every
    point the structure is evaluated at.

    phi, xi, eta and g are each one jet function that walks only the seven
    non-zero entries (-(mu/kappa), kappa/mu, 1/tau, tau, tau^2, kappa^2, mu^2),
    built node by node over the generators' trees with no constant folded, so
    that row m of stacked members (see :func:`stack_members`) has member m's
    own jets.
    tau, kappa and mu are walked once per sample: each keeps the jet of the last
    batch (see :func:`last_batch`), and the entries' walks read them from there.
    The tau memo checks tau > 0 and finite; xi, eta and g read it before their entries."""
    tau, kappa, mu = params.tau, params.kappa, params.mu
    _check_generators(params, domain.sample(50, seed_or_rng=0))

    def guarded_tau(p) -> Jet2:
        t = tau.eval_jet2(p)
        require(p, ~((t.value > 0.0) & np.isfinite(t.value)), _tau_error, t.value)
        return t

    tau_jet = last_batch(guarded_tau)
    # tau first, so phi never runs the tau guard through a kappa or mu that is tau's tree
    known = {id(tau.root): tau_jet}
    known.update({id(e.root): last_batch(e.eval_jet2) for e in (kappa, mu)})

    def field(cls, dims, entries, guarded=True):
        def jets(p) -> Jet2:
            if guarded:
                tau_jet(p)
            shape = dims + as_points(p).shape[:-1]
            out = Jet2(np.zeros(shape), np.zeros(shape + (3,)), np.zeros(shape + (3, 3)))
            for index, node in entries.items():
                j = _jets_at(node, p, 2, known)
                out.value[index], out.grad[index], out.hess[index] = j.value, j.grad, j.hess
            return out

        return cls(jets)

    t, k, m = tau.root, kappa.root, mu.root
    phi = {(1, 2): Unary("-", Binary("/", m, k)), (2, 1): Binary("/", k, m)}
    g = {(i, i): Binary("^", e, Const(2.0)) for i, e in enumerate((t, k, m))}
    return AcmStructure(
        phi=field(TensorField11, (3, 3), phi, guarded=False),
        xi=field(VectorField, (3,), {0: Binary("/", Const(1.0), t)}),
        eta=field(OneFormField, (3,), {0: t}),
        g=field(MetricField, (3, 3), g),
        domain=domain,
    )


def _tau_error(p, t) -> ValueError:
    """The error for a tau = ``t`` at ``p`` that is not positive or not finite."""
    if np.isfinite(t):
        return ValueError(f"family requires tau > 0; tau({p.tolist()}) = {t:.3e}")
    return ValueError(f"family requires a finite tau; tau({p.tolist()}) = {t:.3e} is not finite")


@by_rows
def _check_generators(params: FamilyParams, points) -> None:
    t, k, m = params.tau.value(points), params.kappa.value(points), params.mu.value(points)
    # stacked members (see :func:`stack_members`) add a member axis to the values
    t, tkm = np.broadcast_arrays(t, t * k * m)
    points = np.broadcast_to(points, t.shape + (3,))
    require(points, ~(t > 0.0) | (np.abs(tkm) < 1e-9), lambda p, t, tkm: (
        ValueError(f"family requires tau*kappa*mu != 0; value at {p.tolist()} = {tkm:.3e}")
        if t > 0.0 and np.isfinite(t) else _tau_error(p, t)
    ), t, tkm)


def stack_members(members) -> FamilyParams:
    """Members and tables of draws (:class:`RandomDraws`) as one
    :class:`FamilyParams` of M rows: each generator one
    :class:`~cornergeo.expr.Rows` node whose parts are a member's own tree,
    one row, and a table's :attr:`~RandomDraws.params`, a row per draw.  A
    lone part is not joined.  Its structure, built on one domain and
    evaluated on ``(M, N, 3)`` points, gives on row m member m's jets at its
    own N points, bit for bit, its derivatives included; a guard raises if
    any member fails it, naming no subexpression above the join or at a column."""
    parts = [(m.params, len(m)) if isinstance(m, RandomDraws) else (m, 1) for m in members]
    if len(parts) == 1:
        return parts[0][0]
    counts = tuple(n for _, n in parts)
    return FamilyParams(*(
        ScalarExpr(Rows(tuple(e.root for e in generator), counts))
        for generator in zip(*((p.tau, p.kappa, p.mu) for p, _ in parts))
    ))


@dataclass(frozen=True)
class Preset:
    """A named member of the family with its expected behavior."""

    name: str
    params: FamilyParams
    expected: dict


_PRESETS = {
    "A": Preset(
        name="family:A",
        params=FamilyParams.of("exp(x2)", "1", "exp(x2)"),
        expected={
            # div V = 2 e^rho with sigma = phiV(rho) = 0: the V-twin becomes
            # beta-Kenmotsu with beta = e^rho = 1
            "corner": True,
            "thken_conditions": True,
            "thcos_conditions": False,
            "twin_beta": "1",
            "base_verdict": "not-normal",
            "omega_closed": True,
        },
    ),
    "B": Preset(
        name="family:B",
        params=FamilyParams.of("exp(x2)", "1", "1"),
        expected={
            # div V = e^rho with sigma = phiV(rho) = 0: the phiV-twin is
            # cosymplectic
            "corner": True,
            "thken_conditions": False,
            "thcos_conditions": True,
            "base_verdict": "not-normal",
            "omega_closed": True,
        },
    ),
    "C": Preset(
        name="family:C",
        params=FamilyParams.of("exp(x2)", "exp(x1)", "1"),
        expected={
            # kappa depends on x1: the corner criterion fails
            "corner": False,
            "thken_conditions": False,
            "thcos_conditions": False,
            "base_verdict": "not-normal",
            "omega_closed": True,
        },
    ),
    "D": Preset(
        name="family:D",
        params=FamilyParams.of("exp(x2 + x3)", "1 + x2^2", "1 + x2*x3"),
        expected={
            # generic corner member: neither twin theorem's conditions hold,
            # omega is still closed so sigma vanishes
            "corner": True,
            "thken_conditions": False,
            "thcos_conditions": False,
            "base_verdict": "not-normal",
            "omega_closed": True,
        },
    ),
}

PRESET_NAMES = tuple(f"family:{k}" for k in sorted(_PRESETS))


def preset(name: str) -> Preset:
    """Look up a preset by short name ("A") or full name ("family:A")."""
    key = name.split(":", 1)[1] if name.startswith("family:") else name
    try:
        return _PRESETS[key.upper()]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def preset_structure(name: str) -> AcmStructure:
    return build_family(preset(name).params)


def random_family(rng: np.random.Generator, corner: bool = True) -> FamilyParams:
    """Draw a random positive (tau, kappa, mu) triple.

    With ``corner=True`` kappa and mu are x1-free, so the structure satisfies
    the defining condition; tau may couple x1 with x2/x3, which is what makes
    sigma and d(omega) nonzero in general.

    It is the one-row case of :class:`RandomDraws`: the coefficients are one
    ``rng.random`` call of 11 (13 with ``corner=False``), each mapped to its
    range as ``rng.uniform`` maps a draw, so they equal one ``uniform`` call
    per coefficient in this order.  The trees are built node by node, as
    ``parse`` builds the text ``m1*c1 + m2*c2 + ...`` with each coefficient
    written as its ``repr``.
    """
    return RandomDraws.draw(rng, 1, corner)[0]


@dataclass(frozen=True, eq=False)
class RandomDraws:
    """N draws of :func:`random_family` as one table of coefficients, row m
    holding those of the m-th of N calls on the same generator.

    ``draws[m]`` is draw m with its own tree, as :func:`random_family` builds
    it, and ``draws[a:b]`` the table of rows a to b - 1.  :attr:`params` is
    every row as one member, and :meth:`texts` each row's text, so that only
    a draw that runs alone needs a tree of its own."""

    table: np.ndarray  # (N, 11), or (N, 13) for draws that are not corner ones

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int, corner: bool = True) -> "RandomDraws":
        """N draws from one ``rng.random((n, 11))`` call (13 columns with
        ``corner=False``), which leaves ``rng`` where N calls of
        :func:`random_family` leave it."""
        k = 11 if corner else 13
        return cls(_LOW[:k] + _SPAN[:k] * rng.random((n, k)))

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RandomDraws(self.table[index])
        return _random_params(self.table[index].tolist())

    @functools.cached_property
    def params(self) -> FamilyParams:
        """The rows as one member: a draw's trees with each coefficient an
        ``(N, 1)`` column of the table, the only trees with coefficient
        columns.  On ``(N, n, 3)`` points row m of its jets is draw m's."""
        return _random_params(list(self.table.T[..., None]))

    def texts(self) -> list:
        """Each row's (tau, kappa, mu) text: ``str()`` of draw m's own generators."""
        p = self.params
        return list(zip(*(row_texts(e.root) for e in (p.tau, p.kappa, p.mu))))


def _random_params(c: list) -> FamilyParams:
    """The member with the coefficients ``c`` in drawing order: floats give
    one draw's trees, ``(N, 1)`` columns the N draws' stacked trees."""
    # an exponential keeps tau positive whatever the coefficients are
    exponent = _terms(_term("x2", c[0]), ("x3", "x1*x2", "x1*x3", "x1"), c[1:5])
    kappa = _terms(Const(c[5]), ("x2^2", "x2*x3", "x1^2"), c[6:8] + c[11:12])
    mu = _terms(Const(c[8]), ("x3^2", "x2*x3", "x1"), c[9:11] + c[12:13])
    return FamilyParams(ScalarExpr(Call("exp", exponent)), ScalarExpr(kappa), ScalarExpr(mu))


def _term(monomial: str, c) -> Binary:
    return Binary("*", _MONOMIALS[monomial].root, Const(c))


def _terms(node, monomials, coefficients):
    """``node + m1 * c1 + m2 * c2 + ...``, added left to right."""
    for m, c in zip(monomials, coefficients):
        node = Binary("+", node, _term(m, c))
    return node


# the ranges of random_family's coefficients, in drawing order: tau's five,
# kappa's and mu's three each (constant, square, x2*x3), then the x1 terms of
# kappa and mu in a member that is not a corner one
_LOW = np.array([-1.0] * 5 + [0.5, 0.0, 0.0] * 2 + [0.5, 0.5])
_SPAN = np.array([1.0] * 5 + [1.5, 1.0, 1.0] * 2 + [1.5, 1.5]) - _LOW

# the monomials random_family combines, parsed once
_MONOMIALS = {m: as_expr(m) for m in "x1 x2 x3 x1*x2 x1*x3 x2*x3 x1^2 x2^2 x3^2".split()}
