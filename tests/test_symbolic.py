"""An exact symbolic oracle for the diagonal family (sympy, tests only).

For g = diag(tau^2, kappa^2, mu^2), xi = tau^-1 d1 and the family's phi,
sympy derives the Christoffel symbols, psi (the closed form of the
``family`` docstring), e^rho, div V and sigma = g(nabla_xi V, phi V) from the
generators' source text alone.  The jet pipeline must agree with them to
about machine precision, far tighter than the finite-difference oracles.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

from cornergeo import family  # noqa: E402

X = sp.symbols("x1 x2 x3")
NAMES = {"x1": X[0], "x2": X[1], "x3": X[2], "ln": sp.log, "exp": sp.exp, "sqrt": sp.sqrt,
         "sin": sp.sin, "cos": sp.cos, "abs": sp.Abs}
# the largest gap allowed, relative to the largest magnitude of the quantity
# (at least 1); the largest seen was 8.9e-16, div V of the sigma != 0 member
RTOL = 1e-12

# the presets' generators (sigma = 0 on all four, and C is not a corner
# structure) and one member with sigma != 0
MEMBERS = {
    **{name: family.preset(name).params for name in "ABCD"},
    "sigma": family.FamilyParams.of("exp(x1*x2 + x3)", "1 + x2^2", "1 + x3"),
}


def symbolic(text: str):
    return parse_expr(text.replace("^", "**"), local_dict=NAMES)


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
            sum(x[i] * (y[k].diff(X[i]) + sum(gamma[k][i][j] * y[j] for j in range(3)))
                for i in range(3))
            for k in range(3)
        ]

    nabla_xi_v = nabla(xi, v)
    sigma = sum(g[k, k] * nabla_xi_v[k] * phi_v[k] for k in range(3))
    div_v = sum(
        v[i].diff(X[i]) + sum(gamma[i][i][k] * v[k] for k in range(3)) for i in range(3)
    )
    return {"christoffel": gamma, "psi": psi, "e_rho": e_rho, "div_v": div_v, "sigma": sigma}


def evaluate(expr, pts) -> np.ndarray:
    """``expr``, a sympy expression or nested lists of them, at each row of
    ``pts``, with the sample axis first."""
    if isinstance(expr, list):
        return np.stack([evaluate(e, pts) for e in expr], axis=1)
    value = sp.lambdify(X, expr, "numpy")(*pts.T)
    return np.broadcast_to(np.asarray(value, dtype=float), len(pts))


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_frame_quantities_match_the_symbolic_oracle(name):
    params = MEMBERS[name]
    exact = oracle(*(symbolic(str(e)) for e in (params.tau, params.kappa, params.mu)))
    pts = np.random.default_rng(2024).uniform(0.1, 1.0, (40, 3))
    s = family.build_family(params)
    f = s.corner.frame(pts)
    computed = {
        "christoffel": s.g.christoffel(pts),
        "psi": f.psi,
        "e_rho": f.e_rho,
        "div_v": f.div_v,
        "sigma": f.sigma,
    }
    for key, value in computed.items():
        want = evaluate(exact[key], pts)
        assert value.shape == want.shape, key
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(value - want)) <= RTOL * scale, (key, np.max(np.abs(value - want)))
