"""The Christoffel symbols, accumulated in place, against the jet-operator
formula they replace: the same bytes, the same derivative orders, and a
smaller traced peak."""

import tracemalloc

import numpy as np
import pytest

from cornergeo import family
from cornergeo.acms import AcmStructure
from cornergeo.construct import DeformationParams, TwinKind, deform, twin
from cornergeo.expr import Jet2, jet_sum
from cornergeo.fields import ChartDomain, _half_product_sum, first_order, jet_partials

_R0, _R1 = np.array([1, 0, 0]), np.array([2, 2, 1])
_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def reference_christoffel(metric, p) -> Jet2:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 through Jet2's
    operators: each product, the sum and the factor 1/2 as jet arithmetic."""
    G = metric.jets(p)
    g = first_order(G)
    r0, r1 = _R0[:, None], _R1[:, None]
    minor = g[r0, _R0] * g[r1, _R1] - g[r0, _R1] * g[r1, _R0]
    sign = _SIGN.reshape((3, 3) + (1,) * (np.ndim(minor.value) - 2))
    cof = Jet2(minor.value * sign, minor.grad * sign[..., None])
    ginv = cof.transpose(1, 0) / jet_sum(g[0] * cof[0])
    D = jet_partials(G)
    return jet_sum(
        ginv[:, l, None, None] * (D[:, :, l] + D[:, :, l].transpose(1, 0) - D[l])
        for l in range(3)
    ) * 0.5


def assert_same_jet(got: Jet2, ref: Jet2):
    assert got.value.shape == ref.value.shape
    assert got.value.tobytes() == ref.value.tobytes()
    assert (got.grad is None) == (ref.grad is None)
    if ref.grad is not None:
        assert got.grad.shape == ref.grad.shape
        assert got.grad.tobytes() == ref.grad.tobytes()
    assert got.hess is None and ref.hess is None


def draw_group(seed=0, members=60, samples=10):
    """``scan``'s stacked structure of ``members`` random draws, on their
    points stacked as ``(members, samples, 3)``."""
    rng = np.random.default_rng([seed, 10_000])
    draws = [family.random_family(rng) for _ in range(members)]
    pts = np.stack([
        ChartDomain().sample(samples, np.random.default_rng([seed, 4 + i]))
        for i in range(members)
    ])
    return family.build_family(family.stack_members(draws)), pts


@pytest.mark.parametrize("name", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n", [1, 50])
def test_presets(name, n):
    s = family.preset_structure(name)
    p = ChartDomain().sample(n, 17)
    p = p[0] if n == 1 else p
    got = s.g.christoffel_jets(p)
    assert got.grad is not None
    assert_same_jet(got, reference_christoffel(s.g, p))


def test_a_stacked_group_of_draws():
    s, pts = draw_group()
    assert_same_jet(s.g.christoffel_jets(pts), reference_christoffel(s.g, pts))


@pytest.mark.parametrize("kind", list(TwinKind))
def test_the_twins_of_d(kind):
    t = twin(family.preset_structure("D"), kind)
    p = ChartDomain().sample(30, 5)
    assert_same_jet(t.g.christoffel_jets(p), reference_christoffel(t.g, p))


def test_the_deformed_metric_is_value_only():
    d = deform(family.preset_structure("D"), DeformationParams.of("exp(x1)"))
    p = ChartDomain().sample(30, 6)
    got = d.g.christoffel_jets(p)
    assert got.grad is None
    assert_same_jet(got, reference_christoffel(d.g, p))


def test_an_inline_structure():
    g = [["2 + x1^2", "0.3*x2", "0.1*x3"], ["0.3*x2", "2 + x2^2", "0.2*x1"],
         ["0.1*x3", "0.2*x1", "1 + exp(x3)"]]
    s = AcmStructure.from_expressions(
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]], [1, 0, 0], [1, 0, 0], g
    )
    p = ChartDomain().sample(40, 8)
    assert_same_jet(s.g.christoffel_jets(p), reference_christoffel(s.g, p))


def special_jet(rng, shape, grad=True) -> Jet2:
    """A first-order jet whose entries include -0.0, +-inf and NaN."""
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -2.5])

    def part(shape):
        x = rng.standard_normal(shape)
        pick = rng.random(shape) < 0.3
        x[pick] = rng.choice(specials, size=int(pick.sum()))
        return x

    return Jet2(part(shape), part(shape + (3,)) if grad else None)


@pytest.mark.parametrize("t_grad", [True, False])
def test_the_in_place_rule_on_signed_zeros_and_non_finite_entries(t_grad):
    rng = np.random.default_rng(99)
    pairs = [(special_jet(rng, (3, 1, 1, 40)), special_jet(rng, (3, 3, 40), t_grad))
             for _ in range(3)]
    with np.errstate(all="ignore"):
        got = _half_product_sum(iter(pairs))
        ref = jet_sum(a * t for a, t in pairs) * 0.5
    assert_same_jet(got, ref)


# traced peak of the Christoffel step of the 60-draw group on top of the
# metric's jets: about 1.74 MB accumulated in place, 3.12 MB through Jet2's
# operators (tracemalloc, Python 3.11, numpy 2.4)
CHRISTOFFEL_PEAK_BOUND = 2_200_000


def test_the_christoffel_step_of_a_group_stays_under_its_traced_peak():
    s, pts = draw_group()
    s.g.jets(pts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s.g.christoffel_jets(pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < CHRISTOFFEL_PEAK_BOUND
