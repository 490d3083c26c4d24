"""The per-structure memos hand back, bit for bit, what the functions they
stand for compute afresh: ``s.nabla_xi`` is ``nabla_matrix(g, xi, p)``,
``s.basis_normality`` holds ``nijenhuis`` and ``n1_tensor`` on the three
coordinate pairs, and ``s.corner.frame`` is the frame a new ``CornerFields``
computes.  Bytes are compared, so signed zeros count.  A report builds a
pinned number of memos, fields and expression nodes; run as a script, this
module prints the memos, the fields, the expression nodes and the Python
calls of one report of each benchmark kind and preset, and the lines of the
package's modules."""

import ast
import contextlib
import cProfile
import dataclasses
import io
import itertools
import pathlib
import sys

import numpy as np
import pytest

from cornergeo import acms, cli, construct, family, fields
from cornergeo.corner import CornerFields
from cornergeo.expr import Binary, Call, Const, Rows, Unary, Var
from cornergeo.fields import ChartDomain
from cornergeo.tensor import nabla_matrix

POINTS = ChartDomain().sample(12, 3)
OTHER = ChartDomain().sample(7, 4)
PAIRS = list(itertools.combinations(np.eye(3), 2))


def structures() -> dict:
    d = family.preset_structure("D")
    out = {name: family.preset_structure(name) for name in "ABCD"}
    out["twin-v-D"] = construct.twin(d, "v")
    out["twin-phi_v-D"] = construct.twin(d, "phi_v")
    out["deform-D"] = construct.deform(d, construct.DeformationParams.of("exp(x1)"))
    for seed in range(2):
        out[f"random-{seed}"] = family.build_family(
            family.random_family(np.random.default_rng(seed))
        )
    return out


STRUCTURES = structures()
# twins and deformations carry first-order jets only, too few for a frame
FRAMED = ["A", "B", "C", "D", "random-0", "random-1"]


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("points", [POINTS, POINTS[5]], ids=["sample", "point"])
def test_basis_normality_is_nijenhuis_and_n1_bit_for_bit(name, points):
    s = STRUCTURES[name]
    s.basis_normality(OTHER)  # a memo of another batch must not leak into this one
    b = s.basis_normality(points)
    assert b.n_phi.shape == b.n1.shape == (3,) + np.shape(points)
    for k, (x, y) in enumerate(PAIRS):
        assert same_bytes(b.n_phi[k], acms.nijenhuis(s, x, y, points))
        assert same_bytes(b.n1[k], acms.n1_tensor(s, x, y, points))
    assert not b.n_phi.flags.writeable and not b.n1.flags.writeable


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_nabla_xi_is_nabla_matrix_bit_for_bit(name):
    s = STRUCTURES[name]
    s.nabla_xi(OTHER)
    a = s.nabla_xi(POINTS)
    assert same_bytes(a, nabla_matrix(s.g, s.xi, POINTS))
    assert s.nabla_xi(POINTS) is a and not a.flags.writeable


@pytest.mark.parametrize("name", FRAMED)
def test_the_memoized_frame_is_a_fresh_frame_bit_for_bit(name):
    s = STRUCTURES[name]
    s.corner.frame(OTHER)
    f = s.corner.frame(POINTS)
    fresh = CornerFields(s).frame(POINTS)
    for fld in dataclasses.fields(f):
        a = getattr(f, fld.name)
        assert same_bytes(a, getattr(fresh, fld.name)), fld.name
        assert not a.flags.writeable, fld.name
    assert s.corner.frame(POINTS) is f
    # the frame is part of the bundle's memo, not a second one
    assert s.corner.frame(POINTS) is s.corner.bundle(POINTS).frame


def test_the_frame_does_not_freeze_the_callers_points():
    points = ChartDomain().sample(4, 5)
    family.preset_structure("A").corner.frame(points)
    assert points.flags.writeable


def test_a_non_finite_normality_tensor_names_the_first_point():
    """eta_3 = exp(1000 x1) overflows, with its gradient, for x1 above about
    0.7, so N^(1) is not finite there while N_phi stays 0.  The memo, and
    the normality residual that reads it, raise at the first such point."""
    s = acms.AcmStructure.from_expressions(
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]], [1, 0, 0], [1, 0, "exp(1000*x1)"], np.eye(3).tolist()
    )
    with np.errstate(all="ignore"):
        finite = np.array([
            all(np.isfinite(acms.n1_tensor(s, x, y, q)).all() for x, y in PAIRS) for q in POINTS
        ])
        first = POINTS[np.argmin(finite)]
        assert finite.any() and not finite.all()
        for compute in (s.basis_normality, lambda p: acms.normality_residual(s, p)):
            with pytest.raises(ValueError, match=r"^N\^\(1\) is not finite at ") as err:
                compute(POINTS)
            assert str(err.value).endswith(f"{first.tolist()}")


@contextlib.contextmanager
def counting_memos():
    """The list that gets one entry per memo built while the context is open,
    by ``last_batch`` in every module of the package that binds it."""
    built, memo = [], fields.last_batch

    def counted(*args, **kwargs):
        built.append(1)
        return memo(*args, **kwargs)

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("cornergeo.") and getattr(m, "last_batch", None) is memo]
    for module in modules:
        module.last_batch = counted
    try:
        yield built
    finally:
        for module in modules:
            module.last_batch = memo


@contextlib.contextmanager
def counting_fields():
    """The list that gets the class name of each field built while the
    context is open: every field's ``__init__`` is ``_Field``'s."""
    built, init = [], fields._Field.__init__

    def counted(self, fn):
        built.append(type(self).__name__)
        init(self, fn)

    fields._Field.__init__ = counted
    try:
        yield built
    finally:
        fields._Field.__init__ = init


@contextlib.contextmanager
def counting_nodes():
    """The list that gets the class name of each expression node built while
    the context is open, by the ``__init__`` of every node class."""
    built = []
    inits = {cls: cls.__init__ for cls in (Const, Var, Unary, Binary, Call, Rows)}

    def counted(init):
        def wrapper(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        return wrapper

    for cls, init in inits.items():
        cls.__init__ = counted(init)
    try:
        yield built
    finally:
        for cls, init in inits.items():
            cls.__init__ = init


def counts(argv) -> tuple:
    """The memos, the fields and the expression nodes built and the Python
    calls (cProfile) of one report, after a first run of it.  The calls are
    summed over the profiler's entries, one per code object: ``pstats``
    merges entries by file, line and name, such as the ``__init__`` of every
    dataclass."""
    with contextlib.redirect_stdout(io.StringIO()):
        with counting_memos() as memos, counting_fields() as built, counting_nodes() as nodes:
            cli.main(argv)
        profile = cProfile.Profile()
        profile.runcall(cli.main, argv)
    calls = sum(entry.callcount for entry in profile.getstats())
    return len(memos), len(built), len(nodes), calls


REPORTS = {
    "check-D": ["check", "--preset", "family:D", "--samples", "200"],
    "twin-A": ["twin", "--preset", "family:A", "--samples", "50"],
    "deform-D": ["deform", "--preset", "family:D", "--samples", "50", "--f", "exp(x1)"],
    "scan": ["scan", "--draws", "60", "--samples", "10"],
}
# memos per report: a direction, frame quantity or fundamental form read
# once is computed from jets and builds none, and the frame is in the bundle's
PINNED_MEMOS = {"check-D": 11, "twin-A": 19, "deform-D": 16, "scan": 9}
# fields per report: only the phi, xi, eta and g of a structure, its twins
# and its deformation are fields
PINNED_FIELDS = {"check-D": 4, "twin-A": 10, "deform-D": 7, "scan": 4}


# expression nodes per report: a structure's seven entries and their
# constants, and for scan the trees of the table of draws, with one Rows node
# per generator to join them to the presets' own trees
PINNED_NODES = {"check-D": 11, "twin-A": 11, "deform-D": 13, "scan": 43}


@pytest.mark.parametrize("report", PINNED_MEMOS)
def test_a_report_builds_its_pinned_memos(report, capsys):
    with counting_memos() as built:
        assert cli.main(REPORTS[report]) == 0
    capsys.readouterr()
    assert len(built) == PINNED_MEMOS[report]


@pytest.mark.parametrize("report", PINNED_FIELDS)
def test_a_report_builds_its_pinned_fields(report, capsys):
    with counting_fields() as built:
        assert cli.main(REPORTS[report]) == 0
    capsys.readouterr()
    assert len(built) == PINNED_FIELDS[report], built


@pytest.mark.parametrize("report", PINNED_NODES)
def test_a_report_builds_its_pinned_expression_nodes(report, capsys):
    with counting_nodes() as built:
        assert cli.main(REPORTS[report]) == 0
    capsys.readouterr()
    assert len(built) == PINNED_NODES[report], built


def benchmark_reports():
    """One report of each kind and preset of the benchmark's workloads."""
    for name in "ABCD":
        yield ["check", "--preset", f"family:{name}", "--samples", "200"]
    for name in "ABD":
        yield ["twin", "--preset", f"family:{name}", "--samples", "50", "--kind", "both"]
        for f in ("exp(x1)", "1 + x2^2"):
            yield ["deform", "--preset", f"family:{name}", "--samples", "50", "--f", f]
    yield ["scan", "--draws", "60", "--samples", "10"]


def source_lines() -> dict:
    """The lines of the package's modules: all of them, those of docstrings
    (of a module, class or function), those that hold only a comment, and
    the rest, blank lines included."""
    total = docstring = comment = 0
    for path in sorted(pathlib.Path(fields.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        total += len(lines)
        comment += sum(line.lstrip().startswith("#") for line in lines)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and (
                ast.get_docstring(node) is not None
            ):
                docstring += node.body[0].end_lineno - node.body[0].lineno + 1
    return {"total": total, "docstring": docstring, "comment": comment,
            "other": total - docstring - comment}


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_memos.py: deterministic counts per
    # report, then the package's lines
    print(f"{'report':<58} {'memos':>5} {'fields':>6} {'nodes':>6} {'python calls':>12}")
    for argv in benchmark_reports():
        memos, built, nodes, calls = counts(argv)
        print(f"{' '.join(argv):<58} {memos:>5} {built:>6} {nodes:>6,} {calls:>12,}")
    print("lines of src/cornergeo/*.py: "
          + ", ".join(f"{kind} {n:,}" for kind, n in source_lines().items()))
