"""Command-line interface: check / classify / twin / deform / scan.

Reads a scene (a preset name, a family triple, or raw component expressions)
from a config file and flags, where a flag overrides the file's entry unless
it is empty, samples the chart domain with a recorded seed, runs the
requested residual suites, and emits a deterministic JSON report (stable key
order, no timestamps).  Exit codes: 0 all suites passed, 1 at least one suite
failed, 2 configuration or domain error (bad expressions, singular metric,
degenerate frame, a tau or deformation factor that is not finite and positive,
an alpha, beta or normality tensor that is not finite, unknown preset or
scene key, no suite) and also any report that would hold a number that is
not finite, since JSON has none, or that cannot be written to ``--out``
(that error goes to stdout).
The argument parser is built once per process, at import.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import acms, construct, corner, family
from .conventions import CONVENTION_BANNER, SCHEMA_VERSION
from .corner import DegenerateCornerError
from .expr import _POINT_ERRORS, EvalDomainError, ParseError, PointError, Rows, ScalarExpr
from .expr import as_expr, require, skipping
from .fields import ChartDomain, max_abs
from .tensor import d_oneform_matrix

__all__ = ["ConfigError", "SceneConfig", "run", "scan_sigma", "main"]

DEFAULT_SUITES = ("axioms", "corner", "frame", "forms", "classify")

DEFAULT_TOLERANCES = {
    "kernel": 1e-8,
    "classification": 1e-6,
    "failure_floor": 1e-3,
}


# the most sample points `scan` evaluates in one stacked pass, a chunk of
# consecutive members of any tree shapes: each pass pays a fixed cost
# (building, framing and differentiating one stacked structure), and holds
# its jets, about 7 KB per point, until it ends
STACKED_POINTS = 1024


class ConfigError(ValueError):
    """Invalid scene configuration."""


# the keys of a scene file; another key is an error
_SCENE_KEYS = ("preset", "family", "structure", "box", "samples", "seed", "suites", "f",
               "tolerances")

# flag -> scene key; a flag overrides the file unless it is None or ""
_FLAG_KEYS = {"preset": "preset", "samples": "samples", "seed": "seed", "suites": "suites",
              "f": "f", "kind": "twin_kind", "draws": "draws"}


@dataclass
class SceneConfig:
    """Everything a run needs; CLI flags override config-file entries."""

    preset: str | None = None
    family: dict | None = None
    structure: dict | None = None
    box: tuple = ChartDomain().bounds
    samples: int = 100
    seed: int = 0
    suites: tuple = DEFAULT_SUITES
    f: str = "1"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    twin_kind: str = "both"
    draws: int = 0

    @classmethod
    def load(cls, args) -> "SceneConfig":
        data: dict = {}
        if getattr(args, "config", None):
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as err:
                raise ConfigError(f"cannot read config file: {err}") from None
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file is not valid JSON: {err}") from None
            if not isinstance(data, dict):
                raise ConfigError("config file must hold a JSON object")

        unknown = [key for key in data if key not in _SCENE_KEYS]
        if unknown:
            raise ConfigError(f"unknown scene keys {unknown}; available: {', '.join(_SCENE_KEYS)}")
        cfg = cls(**data)
        if "suites" in data:
            if not isinstance(data["suites"], list):
                raise ConfigError(f"suites must be a list of suite names, got {data['suites']!r}")
            cfg.suites = tuple(data["suites"])
        if "tolerances" in data:
            if not isinstance(data["tolerances"], dict):
                raise ConfigError("tolerances must be a JSON object")
            cfg.tolerances = {**DEFAULT_TOLERANCES, **data["tolerances"]}

        for flag, key in _FLAG_KEYS.items():
            value = getattr(args, flag, None)
            if value is None or value == "":
                continue
            if flag == "suites":
                value = tuple(p.strip() for p in value.split(",") if p.strip())
            setattr(cfg, key, value)

        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.samples, int) or isinstance(self.samples, bool):
            raise ConfigError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        for key in ("seed", "draws"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
        _check_expression(self.f, "f")
        sources = [x is not None for x in (self.preset, self.family, self.structure)]
        if sum(sources) > 1:
            raise ConfigError("give only one of preset / family / structure")
        if self.preset is not None and not isinstance(self.preset, str):
            raise ConfigError(f"preset must be a name, got {self.preset!r}")
        for name in ("family", "structure"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0.0 < value <= sys.float_info.max
            ):
                raise ConfigError(f"tolerance {name!r} must be finite and positive, got {value!r}")
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown or not self.suites:
            what = f"unknown suites {unknown}" if unknown else "no suite given"
            raise ConfigError(f"{what}; available: {', '.join(ALL_SUITES)}")
        try:
            self.box = tuple(tuple(b) for b in self.box)
            ChartDomain(self.box)
        except (ValueError, OverflowError) as err:  # an integer literal can exceed every float
            raise ConfigError(f"box: {err}") from None
        except TypeError:
            raise ConfigError(f"box must be three [low, high] pairs, got {self.box!r}") from None

    def domain(self) -> ChartDomain:
        return ChartDomain(self.box)

    def echo(self) -> dict:
        return {
            "preset": self.preset,
            "family": self.family,
            "structure": "inline" if self.structure is not None else None,
            "box": [list(b) for b in self.box],
            "samples": self.samples,
            "seed": self.seed,
            "suites": list(self.suites),
            "f": self.f,
            "tolerances": dict(self.tolerances),
        }


def _check_expression(value, name: str, depth: int = 0) -> None:
    """Raise a ConfigError unless ``value`` is an expression (a string, or a
    number in the range of finite floats: json reads 1e999 as infinity, and
    an integer literal can exceed every float), or for ``depth`` 1 and 2 a
    list, or list of lists, of them."""
    if depth:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        for item in value:
            _check_expression(item, name, depth - 1)
    elif not isinstance(value, str):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be an expression string or a number, got {value!r}")
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _entries(block: dict, name: str, depths: dict) -> list:
    """The entries of a family or structure block, in the order of ``depths``,
    each checked as an expression of its depth (see :func:`_check_expression`)
    and parsed; a :class:`ParseError` names the entry, e.g. ``structure 'eta'[2]``.
    A key that is not in ``depths`` is a :class:`ConfigError`."""
    unknown = [key for key in block if key not in depths]
    if unknown:
        raise ConfigError(f"unknown {name} keys {unknown}; available: {', '.join(depths)}")
    for key, depth in depths.items():
        if key not in block:
            raise ConfigError(f"{name} config needs {key!r}")
        _check_expression(block[key], f"{name} {key!r}", depth)
    return [_parsed(block[key], f"{name} {key!r}") for key in depths]


def _parsed(value, name: str):
    """``value``, an expression or a (nested) list of them, parsed entry by entry."""
    if isinstance(value, list):
        return [_parsed(item, f"{name}[{i}]") for i, item in enumerate(value)]
    try:
        return as_expr(value)
    except ParseError as err:
        raise ParseError(f"{name}: {err.message}", err.offset) from None


def _family_params(cfg: SceneConfig):
    tau, kappa, mu = _entries(cfg.family, "family", {"tau": 0, "kappa": 0, "mu": 0})
    return family.FamilyParams.of(tau, kappa, mu)


def _preset(name: str):
    try:
        return family.preset(name)
    except KeyError as err:
        raise ConfigError(str(err.args[0])) from None


def _build_structure(cfg: SceneConfig):
    """Returns (structure, preset-or-None). Raises ConfigError when no source."""
    domain = cfg.domain()
    if cfg.preset is not None:
        pre = _preset(cfg.preset)
        return family.build_family(pre.params, domain), pre
    if cfg.family is not None:
        return family.build_family(_family_params(cfg), domain), None
    if cfg.structure is not None:
        parts = _entries(cfg.structure, "structure", {"phi": 2, "xi": 1, "eta": 1, "g": 2})
        return acms.AcmStructure.from_expressions(*parts, domain=domain), None
    raise ConfigError("no structure source: give --preset, or family/structure in --config")


def _rng(cfg: SceneConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _SUITE_RNG_IDS[suite]])


def _suite_axioms(s, pts, cfg, pre) -> dict:
    return acms.check_axioms(s, pts, tol=cfg.tolerances["kernel"]).to_dict()


def _suite_corner(s, pts, cfg, pre) -> dict:
    kernel = cfg.tolerances["kernel"]
    floor = cfg.tolerances["failure_floor"]
    rep = corner.corner_residual(s, pts, rng=_rng(cfg, "corner"), tol=kernel)
    forms = corner.corner_residual_forms(s, pts, tol=kernel * 10.0)
    closed = corner.closed_omega_check(
        s, pts, closed_tol=kernel, sigma_tol=cfg.tolerances["classification"]
    )
    out = rep.to_dict()
    out["forms"] = forms.to_dict()
    out["closed_omega"] = closed.to_dict()
    out["passed"] = rep.passed and forms.passed and closed.passed
    out["details"]["clearly_violated"] = rep.worst() > floor
    return out


def _suite_frame(s, pts, cfg, pre) -> dict:
    kernel = cfg.tolerances["kernel"]
    frame = corner.frame_residuals(s, pts, tol=kernel / 10.0, grad_tol=kernel * 10.0)
    table = corner.connection_table_residuals(
        s, pts, rng=_rng(cfg, "frame"), tol=kernel
    )
    out = frame.to_dict()
    out["connection_table"] = table.to_dict()
    out["passed"] = frame.passed and table.passed
    return out


def _suite_forms(s, pts, cfg, pre) -> dict:
    return corner.form_identities_residuals(
        s, pts, tol=cfg.tolerances["kernel"]
    ).to_dict()


def _suite_classify(s, pts, cfg, pre) -> dict:
    cls_tol = cfg.tolerances["classification"]
    rep = acms.classify(s, points=pts, tol=cls_tol)
    out = {"suite": "classify", "classification": rep.to_dict()}
    expected = pre.expected.get("base_verdict") if pre is not None else None
    out["expected_verdict"] = expected
    out["passed"] = True if expected is None else rep.verdict == expected
    return out


def _suite_twins(s, pts, cfg, pre) -> dict:
    cls_tol = cfg.tolerances["classification"]
    kernel = cfg.tolerances["kernel"]
    out: dict = {"suite": "twins"}
    passed = True
    for kind, check in (
        (construct.TwinKind.V, construct.thken_check),
        (construct.TwinKind.PHI_V, construct.thcos_check),
    ):
        if cfg.twin_kind not in (kind.value, "both"):
            continue
        verdict = check(s, pts, tol=cls_tol)
        t = construct.twin(s, kind)
        ax = acms.check_axioms(t, pts, tol=kernel)
        out[f"{kind.value}_twin"] = {"theorem": verdict.to_dict(), "axioms": ax.to_dict()}
        passed = passed and verdict.routes_agree and ax.passed
    out["passed"] = passed
    return out


def _suite_deform(s, pts, cfg, pre) -> dict:
    kernel = cfg.tolerances["kernel"]
    cls_tol = cfg.tolerances["classification"]
    try:
        params = construct.DeformationParams.of(cfg.f)
    except ParseError as err:
        raise ConfigError(f"bad deformation factor: {err}") from None
    deformed = construct.deform(s, params)

    ax = acms.check_axioms(deformed, pts, tol=kernel)
    typ = construct.deformed_type(s, params, pts, kernel_tol=kernel, gate_tol=cls_tol)
    ntilde = construct.ntilde_identity_residual(
        s, params, pts, rng=_rng(cfg, "deform"), tol=kernel * 10.0
    )
    gate = construct.corollary_gate(s, params, pts, tol=cls_tol)
    cls = acms.classify(deformed, points=pts, tol=cls_tol)

    return {
        "suite": "deform",
        "f": cfg.f,
        "axioms": ax.to_dict(),
        "type": typ.to_dict(),
        "ntilde": ntilde.to_dict(),
        "corollary": gate.to_dict(),
        "classification": cls.to_dict(),
        "passed": ax.passed and typ.residuals.passed and ntilde.passed,
    }


_SUITE_RUNNERS = {
    "axioms": _suite_axioms,
    "corner": _suite_corner,
    "frame": _suite_frame,
    "forms": _suite_forms,
    "classify": _suite_classify,
    "twins": _suite_twins,
    "deform": _suite_deform,
}
ALL_SUITES = tuple(_SUITE_RUNNERS)

# fixed per-suite stream ids so adding a suite does not shift another's draws
_SUITE_RNG_IDS = {name: i for i, name in enumerate(ALL_SUITES)}

# the suites each command other than scan runs; None runs the scene's suites
_COMMAND_SUITES = {
    "check": None, "classify": ("classify",), "twin": ("twins",), "deform": ("deform",)
}


def run(cfg: SceneConfig, command: str) -> tuple[dict, int]:
    """Execute one subcommand; returns (report payload, exit code)."""
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "conventions": CONVENTION_BANNER,
        "config": cfg.echo(),
    }

    if command == "scan":
        diagnostics = _scan_command(cfg)
        payload["scan"] = diagnostics
        payload["passed"] = True
        payload["exit_code"] = 0
        return payload, 0

    s, pre = _build_structure(cfg)
    pts = cfg.domain().sample(cfg.samples, cfg.seed)
    if command not in _COMMAND_SUITES:
        raise ConfigError(f"unknown command {command!r}")
    suites = _COMMAND_SUITES[command] or cfg.suites

    results = {name: _SUITE_RUNNERS[name](s, pts, cfg, pre) for name in suites}
    payload["suites"] = results
    passed = all(r.get("passed", True) for r in results.values())
    payload["passed"] = passed
    code = 0 if passed else 1
    payload["exit_code"] = code
    return payload, code


def scan_sigma(params_list, samples: int = 100, seed: int = 0,
               domain: ChartDomain = ChartDomain()) -> dict:
    """Sigma diagnostics across family members, each built on ``domain``.

    ``params_list`` holds members and tables of random draws
    (:class:`family.RandomDraws`), a table giving the report that the list of
    its rows' own members gives.  For each member: the worst |d omega|, the
    worst |sigma|, and how close sigma ever gets to e^rho (the
    deformation-normality gate), over the points of ``domain`` drawn with
    ``default_rng([seed, i])`` for the member's index i.  Members whose frame
    degenerates at a sample point report the count of skipped points.
    Consecutive members, whatever their tree shapes, are evaluated together
    as one structure (see :func:`_scan_pass`), up to :data:`STACKED_POINTS`
    sample points at a time, a table cut by row range where a pass ends: the
    4 presets and 60 draws of ``--draws 60`` at 10 samples are one pass, at
    100 samples seven.  The entries are those of one member at a time,
    whatever the pass size.
    """
    blocks = []  # each run of members as one list, each table as itself
    for kind, run in itertools.groupby(params_list, type):
        blocks += list(run) if kind is family.RandomDraws else [list(run)]
    size = max(1, STACKED_POINTS // samples)
    entries = []
    for start in range(0, sum(map(len, blocks)), size):
        entries += _scan_pass(_rows(blocks, start, start + size), samples, seed, domain)
    gaps = [e["min_sigma_gap"] for e in entries if e["min_sigma_gap"] is not None]
    return {"entries": entries, "min_sigma_gap": min(gaps, default=None)}


def _rows(blocks, start: int, stop: int) -> list:
    """``(index of its first member, its members)`` for the part of each of
    ``blocks`` that holds some of the members ``start`` to ``stop - 1``."""
    parts, first = [], 0
    for block in blocks:
        lo, hi = max(start, first), min(stop, first + len(block))
        if lo < hi:
            parts.append((lo, block[lo - first : hi - first]))
        first += len(block)
    return parts


def _scan_pass(parts, samples: int, seed: int, domain: ChartDomain) -> list:
    """The scan entries of M consecutive members on ``domain``, as
    ``(index of the first, block)`` parts, a block being a list of members
    or a table of draws.

    The blocks' stacked trees (:func:`family.stack_members` of a list, a
    table's ``params``), joined by :class:`~cornergeo.expr.Rows`, are built,
    framed and differentiated as one structure on the members' points
    stacked as ``(M, N, 3)``; each member's maxima and minimum are taken over
    its own row, and its text comes from its block.  Every guard raises if
    any member fails it, so a pass in which something raises is replayed one
    member at a time, in member order, and the first failing member raises
    its own error.  A lone member runs on its own tree (a draw's as
    :func:`family.random_family` builds it) and leaves out its degenerate
    points.  The first member, in member order, with a quantity that is not
    finite at one of its points raises a ``ValueError`` naming its index in
    the sweep and the quantity."""
    indices = [i for first, block in parts for i in range(first, first + len(block))]
    pts = np.stack([domain.sample(samples, np.random.default_rng([seed, i])) for i in indices])
    rows = len(indices)
    stacked = [_stacked(block) for _, block in parts]
    roots = zip(*((p.tau.root, p.kappa.root, p.mu.root) for p, _ in stacked))
    counts = tuple(len(block) for _, block in parts)
    try:
        params = parts[0][1][0] if rows == 1 else family.FamilyParams(
            *(ScalarExpr(r[0] if len(r) == 1 else Rows(r, counts)) for r in roots))
        cf = family.build_family(params, domain).corner
        kept, f = skipping(cf.frame, pts, DegenerateCornerError if rows == 1 else ())
    except _POINT_ERRORS:
        if rows == 1:
            raise
        return [entry for first, block in parts for k in range(len(block))
                for entry in _scan_pass([(first + k, block[k : k + 1])], samples, seed, domain)]
    pts = pts[:, kept]
    folded = {"min_sigma_gap": [None] * rows, "max_d_omega": [0.0] * rows,
              "max_sigma": [0.0] * rows}
    if f is not None:
        # one row per member, over its kept points; the gap comes first, so
        # that a sigma that is NaN is named by its gap
        columns = {
            "min_sigma_gap": np.abs(f.sigma - f.e_rho).reshape(rows, -1),
            "max_d_omega": max_abs(d_oneform_matrix(cf.bundle(pts).omega, pts)).reshape(rows, -1),
            "max_sigma": np.abs(f.sigma).reshape(rows, -1),
        }
        table = np.stack(list(columns.values()), axis=1)  # (member, quantity, point)
        require(np.moveaxis(np.indices(table.shape), 0, -1), ~np.isfinite(table),
                lambda at, v: ValueError(f"{list(columns)[int(at[1])]} of scan member "
                                         f"{indices[int(at[0])]} is not finite: {v}"), table)
        folded = {name: (np.min if name == "min_sigma_gap" else np.max)(c, axis=1).tolist()
                  for name, c in columns.items()}
    degenerate = int(np.count_nonzero(~kept))
    texts = [text for _, block_texts in stacked for text in block_texts]
    return [
        {"tau": tau, "kappa": kappa, "mu": mu,
         **{name: values[m] for name, values in folded.items()}, "degenerate_points": degenerate}
        for m, (tau, kappa, mu) in enumerate(texts)
    ]


def _stacked(block) -> tuple:
    """A block's members as one member, and each one's (tau, kappa, mu) text."""
    if isinstance(block, family.RandomDraws):
        return block.params, block.texts()
    return family.stack_members(block), [(str(p.tau), str(p.kappa), str(p.mu)) for p in block]


def _scan_command(cfg: SceneConfig) -> dict:
    if cfg.structure is not None:
        raise ConfigError("scan takes a preset, a family, or neither (every preset): no structure")
    if cfg.preset is None and cfg.family is None:
        names = family.PRESET_NAMES  # no explicit member: sweep every bundled preset
    else:
        names = [] if cfg.preset is None else [cfg.preset]
    params_list = [_preset(name).params for name in names]
    if cfg.family is not None:
        params_list.append(_family_params(cfg))
    params_list.append(family.RandomDraws.draw(np.random.default_rng([cfg.seed, 10_000]),
                                               cfg.draws))
    return scan_sigma(params_list, samples=cfg.samples, seed=cfg.seed, domain=cfg.domain())


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornergeo",
        description="Verify, classify and deform almost contact metric "
        "structures of corner type on 3-d charts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="named structure, e.g. family:B")
    common.add_argument("--config", help="JSON scene configuration file")
    common.add_argument("--samples", type=int, help="sample-point count (default 100)")
    common.add_argument("--seed", type=int, help="sampling seed (default 0)")
    common.add_argument("--out", help="write the JSON report to this file")

    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", parents=[common], help="run residual suites")
    check.add_argument(
        "--suites",
        help=f"comma-separated subset of: {', '.join(ALL_SUITES)} "
        f"(default: {','.join(DEFAULT_SUITES)})",
    )
    sub.add_parser("classify", parents=[common], help="taxonomy verdict only")
    tw = sub.add_parser("twin", parents=[common], help="twin-structure theorems")
    tw.add_argument("--kind", choices=["v", "phi_v", "both"], default="both")
    df = sub.add_parser("deform", parents=[common], help="deformation identities")
    df.add_argument("--f", help="deformation factor expression (default 1)")
    sc = sub.add_parser("scan", parents=[common], help="sigma diagnostics")
    sc.add_argument("--draws", type=int, default=0, help="random family draws")
    return parser


_PARSER = _make_parser()


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _error(command: str, err: Exception) -> str:
    """The report of an error: its type name and message, with exit code 2."""
    error = {"type": type(err).__name__, "message": str(err)}
    return _dumps({"schema_version": SCHEMA_VERSION, "command": command, "error": error,
                   "exit_code": 2})


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # numpy's floating-point warnings would only repeat on stderr what the
        # finiteness checks and domain guards report as the JSON error
        with np.errstate(all="ignore"):
            cfg = SceneConfig.load(args)
            payload, code = run(cfg, args.command)
        text = _dumps(payload)  # raises a ValueError on NaN or infinity
    except (ValueError, EvalDomainError, PointError) as err:
        code, text = 2, _error(args.command, err)

    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as err:
            code, text = 2, _error(args.command, err)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
