"""Command-line interface.

Subcommands:

* ``check``       sample a factor's curvature and compare to a target;
* ``family``      print a family factor's descriptor (and optionally a grid);
* ``compactify``  pull a whole-plane factor onto the diamond and check it;
* ``contour``     extract constant-interval level sets to SVG or CSV.

Exit codes: 0 check passed, 1 check failed, 2 usage/parse/parameter
error, 3 numeric or domain failure (empty grid, impossible transform).

Flags override ``--config`` JSON values, which override defaults.  The
config file uses the same keys as the long flags (``{"family":
"timelike", "c1": -4, "R": 2, "grid": "50x50"}``).  Note shell-parsing
of negative level lists: write ``--levels="-1,-0.5,0.5,1"``.
Every code path is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, charts, families
from .errors import (
    BranchYieldsNonPositive,
    EmptyDomain,
    EvaluationError,
    Lorentz2dError,
    MixedChartVariables,
    NoValidSamples,
    ParseError,
)
from .expressions import unparse

DEFAULT_LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
DEFAULT_GRID = (50, 50)
DEFAULT_TOL = 1e-6
DEFAULT_DOMAIN = charts.Rectangle(-1.0, 1.0, -1.0, 1.0)

_CONFIG_KEYS = frozenset({
    "family", "phi", "psi", "c1", "c2", "d1", "d2", "k", "C", "R",
    "omega", "target", "domain", "grid", "tol", "levels", "out",
    "format", "raw_antiderivative",
})


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz2d",
        description="Constant-curvature conformal factors on 2D Minkowski "
                    "space: curvature checks and diagram data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_factor_flags(p, with_family_flag=True):
        if with_family_flag:
            p.add_argument("--family",
                           choices=("flat", "timelike", "spacelike", "liouville"))
        p.add_argument("--omega", help="explicit factor formula in t,x or u,v")
        p.add_argument("--phi")
        p.add_argument("--psi")
        p.add_argument("--c1", type=float)
        p.add_argument("--c2", type=float)
        p.add_argument("--d1", type=float)
        p.add_argument("--d2", type=float)
        p.add_argument("--k", type=float)
        p.add_argument("--C", type=float)
        p.add_argument("--R", type=float)
        p.add_argument("--raw-antiderivative", action="store_true",
                       default=None, dest="raw_antiderivative")
        p.add_argument("--target", type=float,
                       help="target curvature (defaults to the family's R)")

    def add_run_flags(p):
        p.add_argument("--domain", help="rect:t0,t1,x0,x1 or diamond")
        p.add_argument("--grid", help="NxM cell counts (default 50x50)")
        p.add_argument("--tol", type=float, help="pass tolerance (default 1e-6)")
        p.add_argument("--levels", help="comma-separated s^2 levels")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json", "svg"))
        p.add_argument("--config", help="JSON file with defaults for these flags")

    p_check = sub.add_parser("check", help="compare sampled curvature to a target")
    add_factor_flags(p_check)
    add_run_flags(p_check)

    p_family = sub.add_parser("family", help="print a family factor descriptor")
    p_family.add_argument("name",
                          choices=("flat", "timelike", "spacelike", "liouville"))
    add_factor_flags(p_family, with_family_flag=False)
    add_run_flags(p_family)

    p_compact = sub.add_parser("compactify",
                               help="check a factor pulled back to the diamond")
    add_factor_flags(p_compact)
    add_run_flags(p_compact)

    p_contour = sub.add_parser("contour",
                               help="constant-interval level sets of a factor")
    add_factor_flags(p_contour)
    add_run_flags(p_contour)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise _UsageError(f"cannot read config {config_path!r}: {err}") from err
        if not isinstance(loaded, dict):
            raise _UsageError("config must be a JSON object")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in _CONFIG_KEYS | {"name"}:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _number(cfg: dict, key: str, default=None):
    value = cfg.get(key, default)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{key} must be a number, got {value!r}") from None


def _build_factor(cfg: dict) -> families.ConformalFactor:
    if cfg.get("omega") is not None:
        return families.factor_from_expression(
            str(cfg["omega"]), claimed_curvature=_number(cfg, "target"))
    family = cfg.get("family") or cfg.get("name")
    if family is None:
        raise _UsageError("pass --omega or --family (or a family name)")
    if family == "flat":
        if cfg.get("phi") is None or cfg.get("psi") is None:
            raise _UsageError("flat family needs --phi and --psi")
        return families.flat_factor(str(cfg["phi"]), str(cfg["psi"]))
    if family == "timelike":
        if cfg.get("c1") is None or cfg.get("R") is None:
            raise _UsageError("timelike family needs --c1 and --R")
        return families.timelike_factor(
            _number(cfg, "c1"), _number(cfg, "c2", 0.0), _number(cfg, "R"))
    if family == "spacelike":
        if cfg.get("d1") is None or cfg.get("R") is None:
            raise _UsageError("spacelike family needs --d1 and --R")
        return families.spacelike_factor(
            _number(cfg, "d1"), _number(cfg, "d2", 0.0), _number(cfg, "R"))
    if family == "liouville":
        if cfg.get("phi") is None or cfg.get("psi") is None or cfg.get("R") is None:
            raise _UsageError("liouville family needs --phi, --psi and --R")
        return families.liouville_factor(
            str(cfg["phi"]), str(cfg["psi"]),
            _number(cfg, "k", 1.0), _number(cfg, "C", 0.0), _number(cfg, "R"),
            raw_antiderivative=bool(cfg.get("raw_antiderivative")))
    raise _UsageError(f"unknown family {family!r}")


def _parse_domain(text: str):
    if text == "diamond":
        return charts.Diamond()
    if text.startswith("rect:"):
        parts = text[len("rect:"):].split(",")
        if len(parts) != 4:
            raise _UsageError("rect domain needs four numbers: rect:t0,t1,x0,x1")
        try:
            t0, t1, x0, x1 = (float(p) for p in parts)
        except ValueError:
            raise _UsageError(f"bad rect domain {text!r}") from None
        if not (t0 < t1 and x0 < x1):
            raise _UsageError("rect domain needs t0 < t1 and x0 < x1")
        return charts.Rectangle(t0, t1, x0, x1)
    raise _UsageError(f"unknown domain {text!r}; use rect:t0,t1,x0,x1 or diamond")


def _resolve_domain(cfg: dict, factor):
    if cfg.get("domain") is not None:
        return _parse_domain(str(cfg["domain"]))
    if factor.domain.is_bounded:
        return factor.domain
    return DEFAULT_DOMAIN


def _resolve_grid(cfg: dict) -> tuple[int, int]:
    raw = cfg.get("grid")
    if raw is None:
        return DEFAULT_GRID
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return (int(raw[0]), int(raw[1]))
    parts = str(raw).lower().split("x")
    if len(parts) != 2:
        raise _UsageError(f"grid must look like 50x50, got {raw!r}")
    try:
        n_t, n_x = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"grid must look like 50x50, got {raw!r}") from None
    if n_t < 1 or n_x < 1:
        raise _UsageError("grid counts must be positive")
    return (n_t, n_x)


def _resolve_levels(cfg: dict) -> tuple[float, ...]:
    raw = cfg.get("levels")
    if raw is None:
        return DEFAULT_LEVELS
    if isinstance(raw, (list, tuple)):
        values = [float(v) for v in raw]
    else:
        text = str(raw).strip()
        if not text:
            raise _UsageError("empty level list")
        try:
            values = [float(p) for p in text.split(",")]
        except ValueError:
            raise _UsageError(f"bad level list {raw!r}") from None
    if not values:
        raise _UsageError("empty level list")
    return tuple(values)


def _describe(factor) -> str:
    if factor.expression is not None:
        return unparse(factor.expression)
    prov = factor.provenance
    return json.dumps({"family": prov.family, **prov.parameters})


def _print_report(factor, domain, resolution, report) -> None:
    print(f"factor: {_describe(factor)}")
    n_t, n_x = resolution
    print(f"grid: {n_t}x{n_x} on {domain!r}")
    print(f"cells: valid={report.n_valid} singular={report.n_singular} "
          f"domain_error={report.n_domain_error}")
    print(f"max |R - ({report.target_R:g})| = {report.max_abs_deviation:.6e} "
          f"at (t, x) = ({report.worst_point[0]:.6g}, {report.worst_point[1]:.6g})")
    print(f"mean deviation = {report.mean_deviation:.6e}")
    print(f"{'PASS' if report.passed else 'FAIL'} (tolerance {report.tolerance:g})")


def _export_check_output(cfg, grid, report) -> None:
    out = cfg.get("out")
    if not out:
        return
    fmt = cfg.get("format") or "json"
    if fmt == "json":
        analysis.export(report, "json", out)
    elif fmt == "csv":
        analysis.export(grid, "csv", out)
    else:
        raise _UsageError(f"check cannot write format {fmt!r}")


def _cmd_check(cfg: dict) -> int:
    factor = _build_factor(cfg)
    target = _number(cfg, "target")
    if target is None:
        target = factor.target_curvature
    if target is None:
        raise _UsageError("no target curvature: pass --target or a family --R")
    domain = _resolve_domain(cfg, factor)
    resolution = _resolve_grid(cfg)
    tol = _number(cfg, "tol", DEFAULT_TOL)
    grid = analysis.sample_grid(factor, domain, resolution)
    report = analysis.constancy_report(grid, target, tol)
    _print_report(factor, domain, resolution, report)
    _export_check_output(cfg, grid, report)
    return 0 if report.passed else 1


def _cmd_family(cfg: dict) -> int:
    factor = _build_factor(cfg)
    print(_describe(factor))
    if cfg.get("out"):
        domain = _resolve_domain(cfg, factor)
        resolution = _resolve_grid(cfg)
        grid = analysis.sample_grid(factor, domain, resolution)
        analysis.export(grid, cfg.get("format") or "csv", cfg["out"])
    return 0


def _cmd_compactify(cfg: dict) -> int:
    inner = _build_factor(cfg)
    compact = charts.compactify(inner)
    target = _number(cfg, "target")
    if target is None:
        target = compact.target_curvature
    if target is None:
        raise _UsageError("no target curvature: pass --target or a family --R")
    resolution = _resolve_grid(cfg)
    tol = _number(cfg, "tol", DEFAULT_TOL)
    grid = analysis.sample_grid(compact, compact.domain, resolution)
    report = analysis.constancy_report(grid, target, tol)
    _print_report(compact, compact.domain, resolution, report)
    out = cfg.get("out")
    fmt = cfg.get("format")
    if out and (fmt == "svg" or (fmt is None and cfg.get("levels") is not None)):
        levels = _resolve_levels(cfg)
        sets = analysis.extract_level_sets(grid, levels)
        analysis.export(sets, "svg", out, bounds=compact.domain.bbox())
    elif out:
        _export_check_output(cfg, grid, report)
    return 0 if report.passed else 1


def _cmd_contour(cfg: dict) -> int:
    factor = _build_factor(cfg)
    domain = _resolve_domain(cfg, factor)
    resolution = _resolve_grid(cfg)
    levels = _resolve_levels(cfg)
    grid = analysis.sample_grid(factor, domain, resolution, with_ricci=False)
    sets = analysis.extract_level_sets(grid, levels)
    out = cfg.get("out")
    if out:
        fmt = cfg.get("format") or "svg"
        if fmt not in ("svg", "csv"):
            raise _UsageError(f"contour cannot write format {fmt!r}")
        analysis.export(sets, fmt, out, bounds=domain.bbox())
        print(f"wrote {out}")
    for ls in sets:
        n_pts = sum(len(p) for p in ls.polylines)
        print(f"level {ls.level:g}: {len(ls.polylines)} polylines, {n_pts} vertices, "
              f"{ls.n_pruned} pruned")
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "family": _cmd_family,
    "compactify": _cmd_compactify,
    "contour": _cmd_contour,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return _HANDLERS[args.command](cfg)
    except (_UsageError, ParseError, MixedChartVariables,
            BranchYieldsNonPositive, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EmptyDomain, NoValidSamples, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Lorentz2dError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
