"""`scan` over family members: the stacked member axis against member-by-member evaluation."""

import json
import math

import numpy as np
import pytest

from cornergeo import family
from cornergeo.cli import STACKED_POINTS, main, scan_sigma
from cornergeo.corner import CornerFields, DegenerateCornerError
from cornergeo.expr import Call, EvalDomainError, ScalarExpr, as_expr, skipping
from cornergeo.family import FamilyParams, build_family, random_family
from cornergeo.fields import ChartDomain, max_abs
from cornergeo.report import seq_max, seq_min
from cornergeo.tensor import d_oneform_matrix


def reference_scan(params_list, samples, seed) -> dict:
    """``scan_sigma`` one member at a time: build, sample, frame and reduce."""
    draws = []
    overall_gap = None
    for i, params in enumerate(params_list):
        cf = build_family(params).corner
        pts = params.domain.sample(samples, np.random.default_rng([seed, i]))
        max_domega = max_sigma = 0.0
        min_gap = None
        kept, f = skipping(cf.frame, pts, DegenerateCornerError)
        degenerate = int(np.count_nonzero(~kept))
        pts = pts[kept]
        if f is not None:
            max_domega = seq_max(max_abs(d_oneform_matrix(cf.omega, pts)), 0.0)
            max_sigma = seq_max(np.abs(f.sigma), 0.0)
            min_gap = seq_min(np.abs(f.sigma - f.e_rho))
        draws.append({
            "tau": str(params.tau),
            "kappa": str(params.kappa),
            "mu": str(params.mu),
            "max_d_omega": max_domega,
            "max_sigma": max_sigma,
            "min_sigma_gap": min_gap,
            "degenerate_points": degenerate,
        })
        if min_gap is not None:
            overall_gap = min_gap if overall_gap is None else min(overall_gap, min_gap)
    return {"entries": draws, "min_sigma_gap": overall_gap}


def presets_and_draws(seed, draws=60):
    """The members of ``scan --draws <draws>``: every preset, then the random draws."""
    members = [family.preset(name).params for name in family.PRESET_NAMES]
    rng = np.random.default_rng([seed, 10_000])
    return members + [random_family(rng, corner=True, domain=ChartDomain()) for _ in range(draws)]


def same(a: dict, b: dict) -> bool:
    """Equal as reports: JSON keeps -0.0 apart from 0.0."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def member(a, k=(1.0, 0.5, 0.5), m=(1.0, 0.5, 0.5)) -> FamilyParams:
    """A member with ``random_family``'s tree and the given coefficients."""
    mono = family._MONOMIALS
    exponent = mono["x2"] * a[0] + mono["x3"] * a[1] + mono["x1*x2"] * a[2]
    exponent = exponent + mono["x1*x3"] * a[3] + mono["x1"] * a[4]
    tau = ScalarExpr(Call("exp", exponent.root))
    kappa = as_expr(k[0]) + mono["x2^2"] * k[1] + mono["x2*x3"] * k[2]
    mu = as_expr(m[0]) + mono["x3^2"] * m[1] + mono["x2*x3"] * m[2]
    return FamilyParams.of(tau, kappa, mu)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_the_member_axis_keeps_the_bytes(seed):
    members = presets_and_draws(seed)
    assert same(scan_sigma(members, samples=10, seed=seed), reference_scan(members, 10, seed))


def test_the_random_draws_share_one_key():
    keys = {family.member_key(p) for p in presets_and_draws(3, draws=10)}
    assert len(keys) == len(family.PRESET_NAMES) + 1


def test_a_degenerate_member_inside_a_group():
    # tau depends on x1 only, so psi = 0 and every point is degenerate
    flat = member((0.0, 0.0, 0.0, 0.0, 0.5))
    assert str(flat.tau) == "exp(x2*0 + x3*0 + x1*x2*0 + x1*x3*0 + x1*0.5)"
    members = presets_and_draws(5, draws=8)
    members.insert(8, flat)
    got = scan_sigma(members, samples=10, seed=5)
    assert same(got, reference_scan(members, 10, 5))
    assert got["entries"][8]["degenerate_points"] == 10
    assert got["entries"][8]["min_sigma_gap"] is None


@pytest.mark.parametrize(
    "a2, error, message",
    [
        # tau^2 in the metric overflows where 900*x2 is large
        (900.0, EvalDomainError, "power overflows the float range in 'exp(x2*900 + "),
        # tau underflows where -900*x2 is small, at one of build's fixed points
        (-900.0, ValueError, "family requires tau*kappa*mu != 0; value at ["),
    ],
    ids=["overflow", "underflow"],
)
def test_a_failing_member_inside_a_group(a2, error, message):
    members = presets_and_draws(5, draws=8)
    members.insert(8, member((a2, 0.1, 0.2, 0.3, 0.4)))
    with pytest.raises(error) as ref:
        reference_scan(members, 10, 5)
    with pytest.raises(error) as got:
        scan_sigma(members, samples=10, seed=5)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(message)


def test_the_first_failing_member_raises():
    # a degenerate member is skipped, then the overflowing one after it raises
    members = presets_and_draws(2, draws=6)
    members[5:5] = [member((0.0, 0.0, 0.0, 0.0, 0.5)), member((900.0, 0.1, 0.2, 0.3, 0.4))]
    with pytest.raises(EvalDomainError) as got:
        scan_sigma(members, samples=10, seed=2)
    with pytest.raises(EvalDomainError) as ref:
        reference_scan(members, 10, 2)
    assert str(got.value) == str(ref.value)


def test_one_frame_bundle_per_group(capsys, monkeypatch):
    """The four presets are groups of one; the 60 draws are evaluated in
    groups of ``STACKED_POINTS // 10`` members (one member at a time, 64
    bundles, before the member axis)."""
    calls = []
    original = CornerFields._compute_bundle

    def counted(self, p):
        calls.append(1)
        return original(self, p)

    monkeypatch.setattr(CornerFields, "_compute_bundle", counted)
    code = main(["scan", "--draws", "60", "--samples", "10", "--seed", "3"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 4 + math.ceil(60 / (STACKED_POINTS // 10))
    assert len(calls) < 10


def test_scan_of_a_family_block_with_draws(tmp_path, capsys):
    fam = {"tau": "exp(x2 + x1*x3)", "kappa": "1 + x2^2", "mu": "1 + x3"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"family": fam, "samples": 12, "seed": 4}))
    code = main(["scan", "--config", str(path), "--draws", "3"])
    entries = json.loads(capsys.readouterr().out)["scan"]["entries"]
    assert code == 0
    rng = np.random.default_rng([4, 10_000])
    draws = [random_family(rng) for _ in range(3)]
    members = [FamilyParams.of(fam["tau"], fam["kappa"], fam["mu"])] + draws
    assert [e["tau"] for e in entries] == [str(p.tau) for p in members]
    assert same({"entries": entries}, {"entries": reference_scan(members, 12, 4)["entries"]})


def test_one_pass_of_every_draw_keeps_the_bytes(monkeypatch):
    from cornergeo import cli

    monkeypatch.setattr(cli, "STACKED_POINTS", 10_000)
    members = presets_and_draws(11)
    assert same(scan_sigma(members, samples=10, seed=11), reference_scan(members, 10, 11))


@pytest.mark.parametrize("samples", [["--samples", "10"], []], ids=["10-samples", "default"])
def test_the_pass_size_keeps_the_report_bytes(capsys, monkeypatch, samples):
    """A pass of up to STACKED_POINTS points (the 60 draws in one pass at 10
    samples, 10 per pass at the default 100) writes the bytes that passes
    of at most 150 points write."""
    from cornergeo import cli

    argv = ["scan", "--draws", "60", "--seed", "21", *samples]
    assert main(argv) == 0
    stacked = capsys.readouterr().out
    monkeypatch.setattr(cli, "STACKED_POINTS", 150)
    assert main(argv) == 0
    assert capsys.readouterr().out == stacked
