"""The benchmark's span tracer still finds every binding site it wraps.

``perfbench/spans.py`` wraps functions and methods by name; a method moved
to another class, or a memo that no longer calls through the wrapped
method, would silently break ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import cornergeo
from cornergeo import acms, cli, construct, corner, expr, family, fields, report, tensor

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> list:
    """Every attribute the tracer may patch: module globals, the classes of
    its method table, the jet operators and the jet function table."""
    owners = [cornergeo, acms, cli, construct, corner, expr, family, fields, report, tensor]
    owners += [corner.CornerFields, fields.MetricField, fields.TensorField11,
               fields._ComponentsMixin, expr.ScalarExpr, expr.Jet2]
    return [dict(vars(o)) for o in owners] + [dict(expr._FUNCTIONS)]


def test_the_tracer_wraps_and_restores_the_binding_sites(capsys):
    spans = load_spans()
    before = snapshot()
    bundle = corner.CornerFields.bundle
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert corner.CornerFields.bundle is not bundle
        code = cli.main(["deform", "--preset", "family:A", "--samples", "5", "--f", "exp(x1)"])
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    after = snapshot()
    assert all(a.keys() == b.keys() for a, b in zip(after, before))
    assert all(a[k] is b[k] for a, b in zip(after, before) for k in b)

    m = spans.analyse(tracer.names, tracer.name_id, tracer.parent, tracer.start, tracer.end)
    m = m["metrics"]
    assert m["corner.bundle.calls"] > 1 and m["fields.christoffel_jets.calls"] > 1
    assert 0.0 < m["corner.bundle.hit_ratio"] < 1.0
    assert 0.0 < m["fields.christoffel_jets.hit_ratio"] < 1.0
    # the deform suites record their residuals in the table the tracer spans
    assert m["report.calls"] > 0
    assert tracer.names.index("report.ResidualTracker.update") in tracer.name_id
