"""Ownership of derived data: a structure owns its frame context, twins and
deformation, nothing it owns refers back to it, and each is built once."""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from cornergeo import acms, construct, corner, expr
from cornergeo.cli import main
from cornergeo.corner import CornerFields
from cornergeo.family import preset_structure
from cornergeo.fields import ChartDomain

POINTS = ChartDomain().sample(10, 41)


@pytest.fixture
def no_collector():
    """The cyclic garbage collector switched off, so only reference counting
    frees objects."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_dropped_structure_is_freed_at_once(no_collector):
    s = preset_structure("D")
    s.corner.frame(POINTS)
    construct.thken_check(s, POINTS)
    construct.thcos_check(s, POINTS)
    params = construct.DeformationParams.of("exp(x1)")
    construct.deformed_type(s, params, POINTS)
    owned = [s, s.corner, s.g, construct.twin(s, "v"), construct.twin(s, "phi_v")]
    owned.append(construct.deform(s, params))
    refs = [weakref.ref(o) for o in owned]
    del s, owned
    assert [r() for r in refs] == [None] * len(refs)


def test_reports_leave_no_frame_context_behind(capsys, monkeypatch, no_collector):
    made = []
    init = CornerFields.__init__

    def tracked(self, s):
        init(self, s)
        made.append(weakref.ref(self))

    monkeypatch.setattr(CornerFields, "__init__", tracked)
    before = sum(isinstance(o, CornerFields) for o in gc.get_objects())
    for argv in (
        ["scan", "--draws", "60", "--samples", "10"],
        ["deform", "--preset", "family:D", "--samples", "20", "--f", "exp(x1)"],
        ["twin", "--preset", "family:D", "--samples", "20"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert len(made) == 3  # one frame context per report: scan runs its 64 members as one pass
    assert [r for r in made if r() is not None] == []
    assert sum(isinstance(o, CornerFields) for o in gc.get_objects()) <= before


def test_a_deform_report_builds_and_validates_once(capsys, monkeypatch):
    """The suite, deformed_type and ntilde_identity_residual each ask for the
    deformation; it is built, and f validated, on the first call only."""
    calls = {"deform": 0, "validate": 0, "built": 0}
    deform, validate, field = (
        construct.deform, construct.DeformationParams.validate, construct.MetricField
    )

    def counted_deform(s, params):
        calls["deform"] += 1
        return deform(s, params)

    def counted_validate(self, domain):
        calls["validate"] += 1
        return validate(self, domain)

    def counted_field(entries):
        calls["built"] += 1
        return field(entries)

    monkeypatch.setattr(construct, "deform", counted_deform)
    monkeypatch.setattr(construct.DeformationParams, "validate", counted_validate)
    monkeypatch.setattr(construct, "MetricField", counted_field)
    code = main(["deform", "--preset", "family:D", "--samples", "20", "--f", "exp(x1)"])
    capsys.readouterr()
    assert code == 0
    assert calls == {"deform": 3, "validate": 1, "built": 1}


@pytest.mark.parametrize("name", ["A", "B", "D"])
def test_a_deform_report_walks_f_once_per_point_set(capsys, monkeypatch, name):
    """f is walked over the 50 validation points and over the sample, once
    each: the deformed metric and the type functions share its jet."""
    root, walks = expr.parse("2 + sin(x1)").root, []
    jets_at = expr._jets_at

    def counted(node, point, order, known=None):
        if node == root:
            walks.append(np.shape(point))
        return jets_at(node, point, order, known)

    monkeypatch.setattr(expr, "_jets_at", counted)
    code = main(["deform", "--preset", f"family:{name}", "--samples", "20", "--f", "2 + sin(x1)"])
    capsys.readouterr()
    assert code in (0, 1)
    assert walks == [(50, 3), (20, 3)]


def test_deformation_params_are_freed_at_once(no_collector):
    params = construct.DeformationParams.of("2 + sin(x1)")
    params.jet(POINTS)
    ref = weakref.ref(params)
    del params
    assert ref() is None


def test_the_deformation_is_kept_per_params_object():
    s = preset_structure("B")
    params = construct.DeformationParams.of("exp(x1)")
    first = construct.deform(s, params)
    assert construct.deform(s, params) is first
    # an equal factor in a new object builds anew, and only the last is kept
    other = construct.DeformationParams.of("exp(x1)")
    second = construct.deform(s, other)
    assert second is not first and construct.deform(s, other) is second
    assert construct.deform(s, params) is not first
    assert s.derived["deform"][0] is params


def test_a_replaced_structure_starts_with_an_empty_cache():
    s = preset_structure("D")
    v_twin = construct.twin(s, "v")
    other = dataclasses.replace(s, domain=ChartDomain(((0.2, 0.9),) * 3))
    assert other.derived == {} and s.derived == {construct.TwinKind.V: v_twin}
    assert construct.twin(other, "v") is not v_twin


@pytest.mark.parametrize(
    "argv, twins",
    [
        (["check", "--preset", "family:D", "--samples", "20"], 0),
        (["twin", "--preset", "family:D", "--samples", "20", "--kind", "both"], 2),
    ],
    ids=["check", "twin"],
)
def test_a_report_computes_each_per_structure_quantity_once(capsys, monkeypatch, argv, twins):
    """However many suites read them, nabla of each vector field, the frame
    and the coordinate-basis normality tensors are computed once per
    structure and sample: a check report differentiates xi, V and phi V, and
    a twin report the Reeb field of each twin."""
    nablas, bases, frames = collections.Counter(), collections.Counter(), []
    alive = []  # the counted fields stay alive, so no id is used twice
    nabla_matrix, basis_normality, frame = (
        acms.nabla_matrix, acms._basis_normality, corner.CornerFrame
    )

    def counted_nabla(g, Y, p):
        alive.append(Y)
        nablas[id(Y), np.asarray(p).tobytes()] += 1
        return nabla_matrix(g, Y, p)

    def counted_basis(phi, xi, eta, p):
        alive.append(phi)
        bases[id(phi), np.asarray(p).tobytes()] += 1
        return basis_normality(phi, xi, eta, p)

    def counted_frame(**fields):
        frames.append(1)
        return frame(**fields)

    for module in (acms, corner):
        monkeypatch.setattr(module, "nabla_matrix", counted_nabla)
    monkeypatch.setattr(acms, "_basis_normality", counted_basis)
    monkeypatch.setattr(corner, "CornerFrame", counted_frame)
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    assert sorted(nablas.values()) == [1] * (twins or 3)
    assert sorted(bases.values()) == [1] * (twins or 1)
    assert len(frames) == 1
