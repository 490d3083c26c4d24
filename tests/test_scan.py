"""`scan` over family members: the stacked member axis against member-by-member evaluation."""

import json
import math

import numpy as np
import pytest

from test_family import terms

from cornergeo import family
from cornergeo.cli import STACKED_POINTS, main, scan_sigma
from cornergeo.corner import CornerFields, DegenerateCornerError
from cornergeo.expr import EvalDomainError, Rows, ScalarExpr, as_expr, skipping, stack_trees
from cornergeo.family import FamilyParams, build_family, random_family, stack_members
from cornergeo.fields import ChartDomain, max_abs
from cornergeo.tensor import d_oneform_matrix


def reference_scan(params_list, samples, seed, box=ChartDomain()) -> dict:
    """``scan_sigma`` one member at a time: build, sample, frame and reduce."""
    draws = []
    overall_gap = None
    for i, params in enumerate(params_list):
        cf = build_family(params, box).corner
        pts = box.sample(samples, np.random.default_rng([seed, i]))
        max_domega = max_sigma = 0.0
        min_gap = None
        kept, f = skipping(cf.frame, pts, DegenerateCornerError)
        degenerate = int(np.count_nonzero(~kept))
        pts = pts[kept]
        if f is not None:
            max_domega = max([0.0, *max_abs(d_oneform_matrix(cf.bundle(pts).omega, pts)).tolist()])
            max_sigma = max([0.0, *np.abs(f.sigma).tolist()])
            min_gap = min(np.abs(f.sigma - f.e_rho).tolist())
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
    return members + [random_family(rng, corner=True) for _ in range(draws)]


def same(a: dict, b: dict) -> bool:
    """Equal as reports: JSON keeps -0.0 apart from 0.0."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def member(a, k=(1.0, 0.5, 0.5), m=(1.0, 0.5, 0.5)) -> FamilyParams:
    """A member with ``random_family``'s tree and the given coefficients."""
    exponent = terms(f"x2*{a[0]!r}", ("x3", "x1*x2", "x1*x3", "x1"), a[1:])
    kappa = terms(repr(k[0]), ("x2^2", "x2*x3"), k[1:])
    mu = terms(repr(m[0]), ("x3^2", "x2*x3"), m[1:])
    return FamilyParams.of(f"exp({exponent})", kappa, mu)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_the_member_axis_keeps_the_bytes(seed):
    members = presets_and_draws(seed)
    assert same(scan_sigma(members, samples=10, seed=seed), reference_scan(members, 10, seed))


def test_every_member_is_sampled_on_the_one_domain():
    box = ChartDomain(((0.2, 1.5), (0.1, 0.8), (0.3, 1.2)))
    members = presets_and_draws(8, draws=10)
    got = scan_sigma(members, samples=10, seed=8, domain=box)
    assert same(got, reference_scan(members, 10, 8, box))
    assert not same(got, scan_sigma(members, samples=10, seed=8))


def nodes(node):
    """Every node of a stacked tree, the parts of its ``Rows`` nodes included."""
    yield node
    if isinstance(node, Rows):
        children = node.parts
    else:
        children = [getattr(node, k) for k in ("arg", "left", "right") if hasattr(node, k)]
    for child in children:
        yield from nodes(child)


def test_the_random_draws_stack_into_one_tree():
    """60 draws differ only in coefficients: each generator stacks into one
    tree with no ``Rows`` node, whose coefficients are (60, 1) arrays."""
    params = stack_members(presets_and_draws(3)[len(family.PRESET_NAMES) :])
    for e in (params.tau, params.kappa, params.mu):
        tree = list(nodes(e.root))
        assert not any(isinstance(n, Rows) for n in tree)
        assert any(np.shape(getattr(n, "value", None)) == (60, 1) for n in tree)


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


def test_the_first_member_with_a_number_that_is_not_finite_is_named():
    # kappa is infinite, so the sigma gap is NaN at every point of members 6 and 7
    members = presets_and_draws(4, draws=8)
    members[6:6] = [FamilyParams.of("exp(x2)", "exp(x3)*1e400", "1")] * 2
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        scan_sigma(members, samples=10, seed=4)
    assert str(err.value) == "min_sigma_gap of scan member 6 is not finite: nan"


def test_a_sigma_that_is_nan_at_a_few_points_is_named(tmp_path, capsys):
    # 0*exp(750*x1) is NaN where exp overflows, so kappa's Hessian, and sigma
    # with it, is NaN at 5 of the 40 points, the first of them point 3
    fam = {"tau": "exp(x1*x2 + x3)", "kappa": "1 + x2^2 + 0*exp(750*x1)", "mu": "1 + x3"}
    params = FamilyParams.of(fam["tau"], fam["kappa"], fam["mu"])
    pts = ChartDomain().sample(40, np.random.default_rng([0, 0]))
    with np.errstate(all="ignore"):
        sigma = build_family(params).corner.frame(pts).sigma
    assert np.flatnonzero(np.isnan(sigma)).tolist() == [3, 9, 26, 29, 30]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"family": fam, "samples": 40}))
    with np.errstate(all="ignore"):
        code = main(["scan", "--config", str(path)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["message"] == "min_sigma_gap of scan member 0 is not finite: nan"


def test_one_frame_bundle_per_group(capsys, monkeypatch):
    """The 4 presets and 60 draws, 640 points, are one pass of at most
    ``STACKED_POINTS`` points (one bundle per member, 64, before the member
    axis; 5, one per preset and one for the draws, before mixed passes)."""
    calls = []
    original = CornerFields._compute_bundle

    def counted(self, p):
        calls.append(1)
        return original(self, p)

    monkeypatch.setattr(CornerFields, "_compute_bundle", counted)
    code = main(["scan", "--draws", "60", "--samples", "10", "--seed", "3"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == math.ceil(64 * 10 / STACKED_POINTS) == 1


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


FAMILY_BLOCK = {"tau": "exp(x2 + x1*x3)", "kappa": "1 + x2^2", "mu": "1 + x3"}
DRAWS = ["scan", "--draws", "60", "--seed", "21"]


@pytest.mark.parametrize(
    "argv, points",
    [
        (DRAWS + ["--samples", "10"], 150),
        (DRAWS, 150),
        (DRAWS + ["--samples", "10"], None),
        (DRAWS + ["--samples", "100"], None),
        (["scan", "--config", "family.json", "--draws", "3"], None),
    ],
    ids=["10-samples", "default", "one-member-10", "one-member-100", "one-member-family"],
)
def test_the_pass_size_keeps_the_report_bytes(capsys, monkeypatch, tmp_path, argv, points):
    """Passes of up to STACKED_POINTS points, each a chunk of members of any
    tree shapes (the 4 presets and 60 draws in one pass at 10 samples, 10
    members per pass at 100), write the bytes that passes of at most 150
    points write, or passes of one member each (``points`` None)."""
    from cornergeo import cli

    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": FAMILY_BLOCK, "samples": 12, "seed": 4}))
    argv = [str(path) if a == "family.json" else a for a in argv]
    assert main(argv) == 0
    stacked = capsys.readouterr().out
    samples = json.loads(stacked)["config"]["samples"]
    monkeypatch.setattr(cli, "STACKED_POINTS", points or samples)
    assert main(argv) == 0
    assert capsys.readouterr().out == stacked


def bits(a) -> tuple:
    """An array as its shape and bytes, so that -0.0 and 0.0 stay apart."""
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def test_a_mixed_pass_gives_each_member_its_own_frame():
    """Row m of a mixed pass's phi, xi, eta and g, Christoffel symbols, psi,
    omega and frame scalars is member m's own, bit for bit, derivatives and
    the signs of their zeros included: presets of four shapes (B's kappa and
    mu are constants), draws, and a member with negative constants."""
    rng = np.random.default_rng([3, 10_000])
    members = [family.preset(name).params for name in family.PRESET_NAMES]
    members += [random_family(rng) for _ in range(5)]
    members.append(FamilyParams.of("exp(x2 + x1*x3)", "-2", "-1"))
    pts = np.stack([ChartDomain().sample(7, i) for i in range(len(members))])
    params = stack_members(members)
    assert any(isinstance(n, Rows) for n in nodes(params.tau.root))
    stacked = build_family(params)

    def read(s, p) -> list:
        fields = [s.phi.jets(p), s.xi.jets(p), s.eta.jets(p), s.g.jets(p)]
        b, f = s.corner.bundle(p), s.corner.frame(p)
        jets = [s.g.christoffel_jets(p), b.psi, b.omega, b.v, b.e_rho, b.rho]
        return (
            [a for j in fields for a in (j.value, j.grad, j.hess)]
            + [a for j in jets for a in (j.value, j.grad)]
            + [f.sigma, f.div_v, f.phi_v_rho]
        )

    rows = read(stacked, pts)
    for m, alone in enumerate(members):
        for got, want in zip(rows, read(build_family(alone), pts[m]), strict=True):
            assert bits(np.take(got, m, axis=member_axis(got, want))) == bits(want)


def member_axis(stacked, alone) -> int:
    """The member axis of a stacked array: where its shape gains one axis on ``alone``'s."""
    s, a = np.shape(stacked), np.shape(alone)
    return next(i for i in range(len(s)) if s[:i] + s[i + 1 :] == a)


def test_a_rows_tree_walks_each_part_on_its_own_rows():
    parts = (as_expr("exp(x1*x2)").root, as_expr("2").root, as_expr("x3^2 + x1").root)
    tree = ScalarExpr(Rows(parts, (2, 1, 3)))
    owner = [0, 0, 1, 2, 2, 2]
    pts = np.stack([ChartDomain().sample(4, i) for i in range(6)])
    got = tree.eval_jet2(pts)
    assert got.value.shape == (6, 4) and got.hess.shape == (6, 4, 3, 3)
    for m, r in enumerate(owner):
        want = ScalarExpr(parts[r]).eval_jet2(pts[m])
        for a, b in ((got.value, want.value), (got.grad, want.grad), (got.hess, want.hess)):
            assert bits(a[m]) == bits(np.broadcast_to(b, np.shape(a[m])))
    # points without a member axis: every part on all of them
    flat = tree.value(pts[0])
    for m, r in enumerate(owner):
        want = np.broadcast_to(ScalarExpr(parts[r]).value(pts[0]), (4,))
        assert bits(flat[m]) == bits(want)


@pytest.mark.parametrize("points", [np.full((3, 2, 3), 1.0), np.full((2, 3), 1.0)])
@pytest.mark.parametrize(
    "second, named",
    [
        ("ln(x1 - 2)", "ln of a non-positive value in 'ln(x1 - 2)'"),  # one stacked tree
        ("sqrt(x1 - 2)", "sqrt of a non-positive value in 'sqrt(x1 - 2)'"),  # a Rows tree
        ("ln(x1^2 - 2)", "ln of a non-positive value in 'ln(x1^2 - 2)'"),  # Rows below ln
    ],
)
def test_a_stacked_tree_names_the_first_failing_rows_own_subtree(points, second, named):
    # at x1 = 1 the first tree is defined and the other two are not
    trees = [as_expr(src).root for src in ("ln(x1 - 0.5)", second, "ln(x1 - 3)")]
    with pytest.raises(EvalDomainError) as err:
        ScalarExpr(stack_trees(trees)).eval_jet2(points)
    assert str(err.value) == named


def test_a_stacked_tree_walks_each_rows_own_tree_on_that_rows_points():
    # x1 = 1 on row 0 and 3 on rows 1 and 2: only the third tree fails on its
    # own row, though the second would fail on row 0's points
    trees = [as_expr(src).root for src in ("ln(x1 - 0.5)", "ln(x1 - 2)", "ln(x1 - 5)")]
    points = np.full((3, 2, 3), 3.0)
    points[0] = 1.0
    with pytest.raises(EvalDomainError) as err:
        ScalarExpr(stack_trees(trees)).eval_jet2(points)
    assert str(err.value) == "ln of a non-positive value in 'ln(x1 - 5)'"


def test_a_partly_degenerate_member_inside_a_mixed_pass():
    # psi = 0 where x2 < 0.5: the exponent is 0.5 there, whatever x2 is
    partly = FamilyParams.of("exp(abs(x2 - 0.5) + x2)", "1", "1 + x3")
    members = presets_and_draws(6, draws=8)
    members.insert(6, partly)
    got = scan_sigma(members, samples=20, seed=6)
    assert same(got, reference_scan(members, 20, 6))
    pts = ChartDomain().sample(20, np.random.default_rng([6, 6]))
    entry = got["entries"][6]
    assert entry["degenerate_points"] == int(np.count_nonzero(pts[:, 1] < 0.5)) > 0
    assert entry["min_sigma_gap"] is not None
    # alone, it is a pass of one member, which leaves its degenerate points out
    alone = scan_sigma([partly], samples=20, seed=6)
    assert same(alone, reference_scan([partly], 20, 6))
    pts = ChartDomain().sample(20, np.random.default_rng([6, 0]))
    assert alone["entries"][0]["degenerate_points"] == int(np.count_nonzero(pts[:, 1] < 0.5)) > 0


@pytest.mark.parametrize("order", ["draw-first", "block-first"])
def test_the_first_failing_member_of_a_mixed_pass_raises(order):
    """Two failing members of different shapes inside one pass of presets and
    draws: the first in member order raises the error it raises alone."""
    overflow = member((900.0, 0.1, 0.2, 0.3, 0.4))  # a draw's shape
    negative = FamilyParams.of("x1 - 2", "1", "1")  # a family block's
    failing = [overflow, negative] if order == "draw-first" else [negative, overflow]
    members = presets_and_draws(9, draws=6)
    members[7:7] = failing
    with pytest.raises((EvalDomainError, ValueError)) as ref:
        reference_scan(members, 10, 9)
    with pytest.raises((EvalDomainError, ValueError)) as got:
        scan_sigma(members, samples=10, seed=9)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    first = "power overflows" if order == "draw-first" else "family requires tau > 0"
    assert str(got.value).startswith(first)


@pytest.mark.parametrize("samples, points", [(10, None), (100, None), (10, 70)],
                         ids=["10-samples", "100-samples", "cut-inside-the-table"])
@pytest.mark.parametrize("draws", [1, 60])
def test_scan_draws_the_members_of_n_random_family_calls(capsys, monkeypatch, samples, points,
                                                         draws):
    """``scan --draws N`` reports the presets and N ``random_family`` draws,
    whether a pass holds the whole table or cuts it by row range (70 points
    at 10 samples: the presets and 3 draws, then 7 draws a pass)."""
    from cornergeo import cli

    if points:
        monkeypatch.setattr(cli, "STACKED_POINTS", points)
    argv = ["scan", "--draws", str(draws), "--samples", str(samples), "--seed", "13"]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)["scan"]
    assert same(got, scan_sigma(presets_and_draws(13, draws), samples=samples, seed=13))


@pytest.mark.parametrize("a2, message", [
    (900.0, "power overflows the float range in 'exp(x2*900 + "),
    (-900.0, "family requires tau*kappa*mu != 0; value at ["),
], ids=["overflow", "underflow"])
def test_a_failing_draw_inside_the_table(a2, message):
    """A failing row of a table raises what it raises as a member of a list,
    as in ``test_a_failing_member_inside_a_group``."""
    table = family.RandomDraws.draw(np.random.default_rng([5, 10_000]), 9).table.copy()
    table[4] = [a2, 0.1, 0.2, 0.3, 0.4] + [1.0, 0.5, 0.5] * 2
    draws = family.RandomDraws(table)
    presets = presets_and_draws(5, draws=0)
    assert draws[4] == member((a2, 0.1, 0.2, 0.3, 0.4))
    errors = []
    for members in (presets + [draws], presets + [draws[m] for m in range(len(draws))]):
        with pytest.raises((EvalDomainError, ValueError)) as err:
            scan_sigma(members, samples=10, seed=5)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(message)


def test_scan_builds_one_tree_for_its_draws(capsys, monkeypatch):
    """A report that passes calls no ``random_family`` and builds the draws'
    trees once, as the table's stacked trees."""
    built = []
    random_params = family._random_params
    monkeypatch.setattr(family, "random_family", lambda *args: built.append("random_family"))
    monkeypatch.setattr(family, "_random_params",
                        lambda c: built.append(np.shape(c[0])) or random_params(c))
    assert main(["scan", "--draws", "60", "--samples", "10"]) == 0
    capsys.readouterr()
    assert built == [(60, 1)]
