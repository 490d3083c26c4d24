"""An exact symbolic oracle for the diagonal family (sympy, tests only).

For g = diag(tau^2, kappa^2, mu^2), xi = tau^-1 d1 and the family's phi,
sympy derives the Christoffel symbols, psi (the closed form of the
``family`` docstring), e^rho, div V, sigma = g(nabla_xi V, phi V), d omega
and the Olszak functions (alpha, beta) of both twins from the generators'
source text alone.  The jet pipeline must agree with them to about machine
precision, far tighter than the finite-difference oracles.  So must the
Olszak functions of the paper's deformation on the two members whose gate
sigma = e^rho is open: alpha~ = (div V - e^rho) / (2f), beta~ = xi(ln f) / 2.
"""

import functools

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

from cornergeo import acms, construct, family, tensor  # noqa: E402

X = sp.symbols("x1 x2 x3")
NAMES = {"x1": X[0], "x2": X[1], "x3": X[2], "ln": sp.log, "exp": sp.exp, "sqrt": sp.sqrt,
         "sin": sp.sin, "cos": sp.cos, "abs": sp.Abs}
# the largest gap allowed, relative to the largest magnitude of the quantity
# (at least 1); the largest seen was 6.2e-15, div V of the member random-0
RTOL = 1e-12

# the presets' generators (sigma = 0 on all four, and C is not a corner
# structure), one member with sigma != 0, two random corner members, and the
# two members with sigma = e^rho of tests/test_construct.py's GATE_OPEN
MEMBERS = {
    **{name: family.preset(name).params for name in "ABCD"},
    "sigma": family.FamilyParams.of("exp(x1*x2 + x3)", "1 + x2^2", "1 + x3"),
    **{f"random-{seed}": family.random_family(np.random.default_rng(seed)) for seed in (0, 1)},
    "rotation": family.FamilyParams.of("x2*cos(x1) + x3*sin(x1)", "1", "1"),
    "sasakian": family.FamilyParams.of("0.3*x2 - 1.5*sqrt(1 - (0.3*x1 + 0.2*x3)^2) + 2",
                                       "1", "1"),
}
# deformation factors on the gate-open members: f = 1, a constant, one that
# varies along xi, and the rotation member's Kenmotsu factor
DEFORMATIONS = [(name, f) for name in ("rotation", "sasakian") for f in ("1", "0.1", "exp(x1)")]
DEFORMATIONS.append(("rotation", "exp(2*(x2*sin(x1) - x3*cos(x1)))"))
PTS = np.random.default_rng(2024).uniform(0.1, 1.0, (40, 3))


def symbolic(text: str):
    return parse_expr(text.replace("^", "**"), local_dict=NAMES)


@functools.lru_cache
def oracle(tau, kappa, mu) -> dict:
    """Closed forms of the frame quantities of one family member."""
    g = sp.diag(tau**2, kappa**2, mu**2)
    ginv = g.inv()
    gamma = [
        [
            [
                sum(ginv[k, l] * (g[j, l].diff(X[i]) + g[i, l].diff(X[j]) - g[i, j].diff(X[l]))
                    for l in range(3)) / 2
                for j in range(3)
            ]
            for i in range(3)
        ]
        for k in range(3)
    ]
    xi = [1 / tau, 0, 0]
    psi = [0, tau.diff(X[1]) / (tau * kappa**2), tau.diff(X[2]) / (tau * mu**2)]
    e_rho = sp.sqrt(tau.diff(X[1]) ** 2 / kappa**2 + tau.diff(X[2]) ** 2 / mu**2) / tau
    v = [c / e_rho for c in psi]
    # phi d2 = (kappa/mu) d3, phi d3 = -(mu/kappa) d2
    phi_v = [0, -(mu / kappa) * v[2], (kappa / mu) * v[1]]

    def nabla(x, y):
        return [
            sum(x[i] * (sp.diff(y[k], X[i]) + sum(gamma[k][i][j] * y[j] for j in range(3)))
                for i in range(3))
            for k in range(3)
        ]

    def nabla_matrix(y):
        """``m[k][i] = (nabla_{d_i} y)^k``."""
        columns = [nabla([int(i == j) for j in range(3)], y) for i in range(3)]
        return [[columns[i][k] for i in range(3)] for k in range(3)]

    nabla_xi_v = nabla(xi, v)
    sigma = sum(g[k, k] * nabla_xi_v[k] * phi_v[k] for k in range(3))
    div_v = sum(
        v[i].diff(X[i]) + sum(gamma[i][i][k] * v[k] for k in range(3)) for i in range(3)
    )
    omega = [g[k, k] * psi[k] for k in range(3)]
    d_omega = [[(omega[j].diff(X[i]) - omega[i].diff(X[j])) / 2 for j in range(3)]
               for i in range(3)]
    out = {"christoffel": gamma, "psi": psi, "e_rho": e_rho, "div_v": div_v, "sigma": sigma,
           "d_omega": d_omega}

    # the twins: phi' X = a(X) b - c(X) d with Reeb field r, and 2 alpha =
    # tr(phi' nabla r), 2 beta = div r; theta1 and theta2 are g V and g phi V
    eta = [tau, 0, 0]
    theta1, theta2 = ([g[k, k] * w[k] for k in range(3)] for w in (v, phi_v))
    twins = {"v": (theta2, xi, eta, phi_v, v), "phi_v": (eta, v, theta1, xi, phi_v)}
    for kind, (a, b, c, d, r) in twins.items():
        m = nabla_matrix(r)
        out[f"{kind}_twin_alpha"] = sum(
            (a[i] * b[k] - c[i] * d[k]) * m[i][k] for i in range(3) for k in range(3)
        ) / 2
        out[f"{kind}_twin_beta"] = sum(m[k][k] for k in range(3)) / 2
    return out


def evaluate(expr, pts) -> np.ndarray:
    """``expr``, a sympy expression or nested lists of them, at each row of
    ``pts``, with the sample axis first."""
    if isinstance(expr, list):
        return np.stack([evaluate(e, pts) for e in expr], axis=1)
    value = sp.lambdify(X, expr, "numpy")(*pts.T)
    return np.broadcast_to(np.asarray(value, dtype=float), len(pts))


def generators(name) -> tuple:
    """The member's tau, kappa and mu as sympy expressions."""
    params = MEMBERS[name]
    return tuple(symbolic(str(e)) for e in (params.tau, params.kappa, params.mu))


def assert_matches(key, value, exact, pts):
    want = evaluate(exact, pts)
    assert value.shape == want.shape, key
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(value - want)) <= RTOL * scale, (key, np.max(np.abs(value - want)))


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_frame_quantities_match_the_symbolic_oracle(name):
    exact = oracle(*generators(name))
    pts = PTS
    s = family.build_family(MEMBERS[name])
    f = s.corner.frame(pts)
    computed = {
        "christoffel": s.g.christoffel(pts),
        "psi": f.psi,
        "e_rho": f.e_rho,
        "div_v": f.div_v,
        "sigma": f.sigma,
        "d_omega": tensor.d_oneform_matrix(s.corner.bundle(pts).omega, pts),
    }
    for kind in construct.TwinKind:
        alpha, beta = acms.olszak_alpha_beta(construct.twin(s, kind), pts)
        computed.update({f"{kind.value}_twin_alpha": alpha, f"{kind.value}_twin_beta": beta})
    for key, value in computed.items():
        assert_matches(key, value, exact[key], pts)


@pytest.mark.parametrize("name, f", DEFORMATIONS)
def test_the_deformed_olszak_functions_match_the_symbolic_oracle(name, f):
    tau, kappa, mu = generators(name)
    exact, f_exact = oracle(tau, kappa, mu), symbolic(f)
    deformed = construct.deform(family.build_family(MEMBERS[name]),
                                construct.DeformationParams.of(f))
    alpha, beta = acms.olszak_alpha_beta(deformed, PTS)
    assert_matches("alpha", alpha, (exact["div_v"] - exact["e_rho"]) / (2 * f_exact), PTS)
    assert_matches("beta", beta, sp.log(f_exact).diff(X[0]) / (2 * tau), PTS)
