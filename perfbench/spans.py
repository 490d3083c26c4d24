"""Span tracer for the traced run: wrappers at every binding site of cornergeo.

The package's modules import each other's functions by name
(``from .tensor import nabla_matrix``), so a wrapper installed on the
defining module alone misses every importer.  :func:`install` therefore
replaces each wrapped function wherever a cornergeo module (or the jet
function table in ``expr``) holds a reference to it, and patches class
attributes for methods and for the ``Jet2`` operators.

Spans (name, start, end, parent) go into flat arrays in memory and are
written out once at the end; self times and cache hit ratios are derived
from them afterwards.  Jet arithmetic is too fine-grained for spans and is
only counted.
"""

from __future__ import annotations

import copy
import inspect
import itertools
import time
from array import array

import numpy as np

# methods that get a span, by module and class
_METHODS = {
    "expr": {"ScalarExpr": ("eval_jet2", "value")},
    "fields": {
        "MetricField": ("matrix", "jets", "christoffel_jets"),
        "TensorField11": ("matrix", "jets"),
        "_ComponentsMixin": ("jets", "values", "jacobian"),
    },
    "corner": {"CornerFields": ("bundle", "frame")},
    "report": {
        "ResidualTracker": ("update", "report"),
        "ResidualReport": ("to_dict",),
        "Residual": ("to_dict",),
    },
    "cli": {"SceneConfig": ("load",)},
}
# jet arithmetic: counted, never spanned
_JET_OPERATORS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
_JET_FUNCTIONS = {"expr": ("jet_exp", "jet_log", "jet_sin", "jet_cos", "jet_sqrt", "jet_abs"),
                  "fields": ("jet_partial",)}
# public helpers too small and too frequent to be worth a span of their own
_UNSPANNED = {"fields": ("as_point",)}

# per-layer metric groups: group name -> span names it sums
GROUPS = {
    "expr.parse": ("expr.parse",),
    "expr.eval": ("expr.ScalarExpr.eval_jet2", "expr.ScalarExpr.value", "expr.eval_jet2"),
    "family.build_family": ("family.build_family",),
    "family.random_family": ("family.random_family",),
    "fields.christoffel_jets": ("fields.MetricField.christoffel_jets",),
    "fields.eval": ("fields.MetricField.matrix", "fields.MetricField.jets",
                    "fields.TensorField11.matrix", "fields.TensorField11.jets",
                    "fields._ComponentsMixin.jets", "fields._ComponentsMixin.values",
                    "fields._ComponentsMixin.jacobian"),
    "tensor": "tensor.",  # every public tensor function
    "acms.check_axioms": ("acms.check_axioms",),
    "acms.olszak_alpha_beta": ("acms.olszak_alpha_beta",),
    "acms.nijenhuis": ("acms.nijenhuis",),
    "acms.normality_residual": ("acms.normality_residual",),
    "acms.classify": ("acms.classify",),
    "corner.bundle": ("corner.CornerFields.bundle",),
    "corner.frame": ("corner.CornerFields.frame",),
    "corner.suites": ("corner.corner_residual", "corner.corner_residual_forms",
                      "corner.connection_table_residuals", "corner.frame_residuals",
                      "corner.form_identities_residuals", "corner.closed_omega_check"),
    "construct.twin": ("construct.twin",),
    "construct.deform": ("construct.deform",),
    "construct.theorems": ("construct.thken_check", "construct.thcos_check"),
    "construct.deformation": ("construct.deformed_type", "construct.ntilde_identity_residual",
                              "construct.corollary_gate"),
    "report": "report.",  # tracker updates, reports and to_dict
    "cli.load": ("cli.SceneConfig.load",),
    "cli.run": ("cli.run",),
    "cli.json": ("cli.json.dumps",),
}
ROOT = "cli.main"
# a christoffel_jets call misses its memo when it evaluates the metric jets;
# a bundle call misses when it evaluates the structure's component jets
_MISS_MARKERS = {
    "fields.christoffel_jets": ("fields.MetricField.christoffel_jets", "fields.MetricField.jets"),
    "corner.bundle": ("corner.CornerFields.bundle", "fields._ComponentsMixin.jets"),
}


class Tracer:
    """Collects spans in flat arrays and counts jet operations."""

    def __init__(self):
        self._ids: dict = {}  # span name -> id, in order of first use
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._ops = itertools.count()

    @property
    def names(self) -> list:
        return list(self._ids)

    def _name_id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn):
        """``fn`` wrapped so that each call bumps the jet-operation counter."""
        tick = self._ops.__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        return wrapper

    def jet_ops(self) -> int:
        return next(copy.copy(self._ops))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def _modules():
    import cornergeo
    from cornergeo import acms, cli, construct, corner, expr, family, fields, report, tensor

    mods = {"expr": expr, "fields": fields, "tensor": tensor, "acms": acms, "corner": corner,
            "construct": construct, "family": family, "report": report, "cli": cli}
    return cornergeo, mods


class _JsonShim:
    """Stands in for the ``json`` module inside ``cli`` so ``dumps`` gets a span."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer):
    """Wrap cornergeo at every binding site; returns a function that undoes it."""
    package, mods = _modules()
    patches = []  # (owner, attribute, original), undone in reverse

    def patch(owner, attr, value):
        if isinstance(owner, dict):
            patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    # id of each original function -> its wrapper (the wrappers keep the
    # originals alive, so an id match is an identity match)
    replace = {}
    for layer, mod in mods.items():
        skip = set(_JET_FUNCTIONS.get(layer, ())) | set(_UNSPANNED.get(layer, ()))
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in skip:
                replace[id(fn)] = tracer.spanned(f"{layer}.{name}", fn)
        for name in _JET_FUNCTIONS.get(layer, ()):
            fn = getattr(mod, name)
            replace[id(fn)] = tracer.counted(fn)

    # every module global that holds a wrapped function, and the jet table
    for owner in (package, *mods.values(), mods["expr"]._FUNCTIONS):
        items = owner.items() if isinstance(owner, dict) else vars(owner).items()
        for name, value in list(items):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                patch(owner, name, wrapper)

    for layer, classes in _METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    patch(cls, meth, classmethod(tracer.spanned(name, raw.__func__)))
                else:
                    patch(cls, meth, tracer.spanned(name, raw))
    jet2 = mods["expr"].Jet2
    for op in _JET_OPERATORS:
        patch(jet2, op, tracer.counted(jet2.__dict__[op]))
    cli = mods["cli"]
    patch(cli, "json", _JsonShim(cli.json, tracer.spanned("cli.json.dumps", cli.json.dumps)))

    def restore():
        for owner, attr, original in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return restore


def _group_mask(names, group) -> np.ndarray:
    spec = GROUPS[group]
    if isinstance(spec, str):
        return np.array([n.startswith(spec) for n in names], dtype=bool)
    return np.array([n in spec for n in names], dtype=bool)


def analyse(names, name_id, parent, start, end) -> dict:
    """Per-group calls and self time, hit ratios, coverage and per-report calls.

    Self time is a span's duration minus the durations of its direct
    children.  Coverage is the share of report wall time (the ``cli.main``
    root spans) spent below the cli layer's own code, i.e. outside the self
    time of ``cli.main`` and ``cli.run``.
    """
    names = list(names)
    name_id = np.asarray(name_id)
    parent = np.asarray(parent)
    dur = np.asarray(end) - np.asarray(start)
    n = len(dur)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    masks = {group: _group_mask(names, group) for group in GROUPS}
    out: dict = {}
    for group, mask in masks.items():
        in_group = mask[name_id] if names else np.zeros(0, bool)
        out[f"{group}.calls"] = int(in_group.sum())
        out[f"{group}.self_s"] = float(self_time[in_group].sum())

    for group, (caller, marker) in _MISS_MARKERS.items():
        calls = out[f"{group}.calls"]
        if caller in names and marker in names:
            under = parent[(name_id == names.index(marker)) & has_parent]
            missed = np.unique(under[name_id[under] == names.index(caller)]).size
        else:
            missed = 0
        out[f"{group}.hit_ratio"] = 1.0 - missed / calls if calls else 0.0

    root_id = names.index(ROOT) if ROOT in names else -1
    roots = np.flatnonzero((name_id == root_id) & ~has_parent)
    wall = float(dur[roots].sum())
    cli_self = float(self_time[roots].sum())
    if "cli.run" in names:
        cli_self += float(self_time[name_id == names.index("cli.run")].sum())
    out["trace.coverage"] = 1.0 - cli_self / wall if wall > 0 else 0.0

    # calls per group for each report (each root span is one report)
    report_of = np.searchsorted(roots, np.arange(n), side="right") - 1
    per_report = []
    for r in range(len(roots)):
        mine = report_of == r
        per_report.append({
            group: int(mask[name_id[mine]].sum()) for group, mask in masks.items()
        })
    return {"metrics": out, "per_report_calls": per_report}
