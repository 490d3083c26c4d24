"""Ownership of derived data: a structure owns its frame context, twins and
deformation, nothing it owns refers back to it, and each is built once."""

import dataclasses
import gc
import weakref

import pytest

from cornergeo import construct
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
    assert len(made) > 3
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
