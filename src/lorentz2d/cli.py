"""Command-line interface.

Subcommands, each taking only the flags its handler reads
(``_SUBCOMMANDS``):

* ``check``       sample a factor's curvature and compare to a target
                  (``--out`` writes the JSON report or the CSV grid);
* ``family``      print a family factor's descriptor (``--out``: CSV grid);
* ``compactify``  pull a whole-plane factor onto the diamond and check it
                  there, always on the whole diamond (``--out`` writes the
                  JSON report, the CSV grid or SVG level sets);
* ``contour``     extract constant-interval level sets to SVG or CSV.

Exit codes: 0 check passed, 1 check failed, 2 usage/parse/parameter
error (a grid too large to allocate included), 3 numeric or domain
failure (empty grid, no valid cell, impossible transform).

argparse is the one reader of options.  Each entry of a ``--config``
JSON object is read as the flag ``--key=value`` placed before the
command line's own flags, so explicit flags win and both go through the
same checks (``{"family": "timelike", "c1": -4, "R": 2, "grid":
"50x50"}``).  A key is one of the subcommand's own long flag names in
full (``raw_antiderivative`` may use ``_``); ``true`` stands for a bare
flag, ``false`` and ``null`` for its absence, and ``grid`` and
``levels`` may also be lists (``[50, 50]``, ``[-1, 1]``).  Every number
must be finite, and a flag must be spelled in full: anything else exits
2.  Note shell-parsing of negative level lists: write
``--levels="-1,-0.5,0.5,1"``.
Every code path is deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, charts, families
from .errors import EmptyDomain, EvaluationError, Lorentz2dError, NoValidSamples
from .expressions import unparse

FAMILIES = ("flat", "timelike", "spacelike", "liouville")
DEFAULT_LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
DEFAULT_DOMAIN = charts.Rectangle(-1.0, 1.0, -1.0, 1.0)


class _UsageError(Exception):
    pass


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _grid(text: str) -> tuple[int, int]:
    try:
        n_t, n_x = map(int, text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 50x50, got {text!r}") from None
    if n_t < 1 or n_x < 1:
        raise argparse.ArgumentTypeError("grid counts must be positive")
    return (n_t, n_x)


def _levels(text: str) -> tuple[float, ...]:
    return tuple(map(_number, text.split(",")))


def _domain(text: str):
    if text == "diamond":
        return charts.Diamond()
    if not text.startswith("rect:"):
        raise argparse.ArgumentTypeError(
            f"unknown domain {text!r}; use rect:t0,t1,x0,x1 or diamond")
    bounds = text[len("rect:"):].split(",")
    if len(bounds) != 4:
        raise argparse.ArgumentTypeError(
            "rect domain needs four numbers: rect:t0,t1,x0,x1")
    t0, t1, x0, x1 = map(_number, bounds)
    if not (t0 < t1 and x0 < x1):
        raise argparse.ArgumentTypeError("rect domain needs t0 < t1 and x0 < x1")
    return charts.Rectangle(t0, t1, x0, x1)


_OPTIONS = {
    "family": dict(choices=FAMILIES),
    "omega": dict(help="explicit factor formula in t,x or u,v"),
    "phi": {}, "psi": {},
    "c1": dict(type=_number), "c2": dict(type=_number, default=0.0),
    "d1": dict(type=_number), "d2": dict(type=_number, default=0.0),
    "k": dict(type=_number, default=1.0), "C": dict(type=_number, default=0.0),
    "R": dict(type=_number), "raw-antiderivative": dict(action="store_true"),
    "target": dict(type=_number, help="target curvature (defaults to the family's R)"),
    "domain": dict(type=_domain, help="rect:t0,t1,x0,x1 or diamond"),
    "grid": dict(type=_grid, default=(50, 50), help="NxM cell counts (default 50x50)"),
    "tol": dict(type=_number, default=1e-6, help="pass tolerance (default 1e-6)"),
    "levels": dict(type=_levels, help="comma-separated s^2 levels"),
}
_PARAMETERS = ("--phi", "--psi", "--c1", "--c2", "--d1", "--d2", "--k", "--C", "--R",
               "--raw-antiderivative")
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentz2d", allow_abbrev=False,
        description="Constant-curvature conformal factors on 2D Minkowski "
                    "space: curvature checks and diagram data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, formats, options, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for option in options:
            p.add_argument(option, **_OPTIONS[option.lstrip("-")])
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=formats)
        p.add_argument("--config", help="JSON file with defaults for these flags")
    return parser


def _config_flags(path: str) -> list[str]:
    """The entries of a JSON config file as ``--key=value`` tokens."""
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as err:
        raise _UsageError(f"cannot read config {path!r}: {err}") from err
    if not isinstance(entries, dict):
        raise _UsageError("config must be a JSON object")
    tokens = []
    for key, value in entries.items():
        if key == "config" or "=" in key:
            raise _UsageError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list) and key in ("grid", "levels"):
            value = ("x" if key == "grid" else ",").join(map(str, value))
        if isinstance(value, (list, dict)):
            raise _UsageError(f"config {key!r} must be a string, number or boolean")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            tokens.append(f"{flag}={value}")
    return tokens


def _build_factor(args: argparse.Namespace) -> families.ConformalFactor:
    # ``family`` takes no --omega, and ``family`` and ``contour`` no --target
    omega = getattr(args, "omega", None)
    if omega is not None:
        return families.factor_from_expression(
            omega, claimed_curvature=getattr(args, "target", None))
    family = args.family
    if family is None:
        raise _UsageError("pass --omega or --family (or a family name)")
    if family == "flat":
        if args.phi is None or args.psi is None:
            raise _UsageError("flat family needs --phi and --psi")
        return families.flat_factor(args.phi, args.psi)
    if family == "timelike":
        if args.c1 is None or args.R is None:
            raise _UsageError("timelike family needs --c1 and --R")
        return families.timelike_factor(args.c1, args.c2, args.R)
    if family == "spacelike":
        if args.d1 is None or args.R is None:
            raise _UsageError("spacelike family needs --d1 and --R")
        return families.spacelike_factor(args.d1, args.d2, args.R)
    if args.phi is None or args.psi is None or args.R is None:
        raise _UsageError("liouville family needs --phi, --psi and --R")
    return families.liouville_factor(args.phi, args.psi, args.k, args.C, args.R,
                                     raw_antiderivative=args.raw_antiderivative)


def _resolve_domain(args: argparse.Namespace, factor):
    if args.domain is not None:
        return args.domain
    if all(map(math.isfinite, factor.domain.bbox())):
        return factor.domain
    return DEFAULT_DOMAIN


def _describe(factor) -> str:
    """The factor's closed form, or else its provenance dict as JSON (a
    compactified factor's nests its inner factor's under "inner")."""
    if factor.expression is not None:
        return unparse(factor.expression)
    return json.dumps(factor.provenance)


def _verify(args: argparse.Namespace, factor, domain):
    """Sample ``factor`` on ``domain``, compare its curvature with the
    target and print the report."""
    target = factor.target_curvature if args.target is None else args.target
    if target is None:
        raise _UsageError("no target curvature: pass --target or a family --R")
    grid = analysis.sample_grid(factor, domain, args.grid)
    report = analysis.constancy_report(grid, target, args.tol)
    n_t, n_x = args.grid
    names = charts.coordinate_names(factor.chart)
    where = repr(domain)
    if factor.chart == "uv" and isinstance(domain, charts.Rectangle):
        # a Rectangle names its bounds after t and x; these are u and v
        t0, t1, x0, x1 = domain.bbox()
        where = f"{names[0]} in ({t0!r}, {t1!r}), {names[1]} in ({x0!r}, {x1!r})"
    print(f"factor: {_describe(factor)}")
    print(f"grid: {n_t}x{n_x} on {where}")
    print(f"cells: valid={report.n_valid} singular={report.n_singular} "
          f"domain_error={report.n_domain_error}")
    print(f"max |R - ({report.target_R:g})| = {report.max_abs_deviation:.6e} "
          f"at ({', '.join(names)}) = "
          f"({report.worst_point[0]:.6g}, {report.worst_point[1]:.6g})")
    print(f"mean deviation = {report.mean_deviation:.6e}")
    print(f"{'PASS' if report.passed else 'FAIL'} (tolerance {report.tolerance:g})")
    return grid, report


def _export_check_output(args: argparse.Namespace, grid, report) -> None:
    if not args.out:
        return
    if args.format == "csv":
        analysis.export(grid, "csv", args.out)
    else:
        analysis.export(report, "json", args.out)


def _cmd_check(args: argparse.Namespace) -> int:
    factor = _build_factor(args)
    grid, report = _verify(args, factor, _resolve_domain(args, factor))
    _export_check_output(args, grid, report)
    return 0 if report.passed else 1


def _cmd_family(args: argparse.Namespace) -> int:
    factor = _build_factor(args)
    print(_describe(factor))
    if args.out:
        grid = analysis.sample_grid(factor, _resolve_domain(args, factor), args.grid)
        grid.require_valid()
        analysis.export(grid, args.format or "csv", args.out)
    return 0


def _cmd_compactify(args: argparse.Namespace) -> int:
    compact = charts.compactify(_build_factor(args))
    grid, report = _verify(args, compact, compact.domain)
    fmt = args.format
    if args.out and (fmt == "svg" or (fmt is None and args.levels is not None)):
        sets = analysis.extract_level_sets(grid, args.levels or DEFAULT_LEVELS)
        analysis.export(sets, "svg", args.out, bounds=compact.domain.bbox())
    else:
        _export_check_output(args, grid, report)
    return 0 if report.passed else 1


def _cmd_contour(args: argparse.Namespace) -> int:
    factor = _build_factor(args)
    domain = _resolve_domain(args, factor)
    grid = analysis.sample_grid(factor, domain, args.grid, with_ricci=False)
    grid.require_valid()
    sets = analysis.extract_level_sets(grid, args.levels or DEFAULT_LEVELS)
    if args.out:
        analysis.export(sets, args.format or "svg", args.out, bounds=domain.bbox())
        print(f"wrote {args.out}")
    for ls in sets:
        n_pts = sum(len(p) for p in ls.polylines)
        print(f"level {ls.level:g}: {len(ls.polylines)} polylines, {n_pts} vertices, "
              f"{ls.n_pruned} pruned")
    return 0


# Each subcommand registers only the options its handler reads, so any
# other is refused with exit 2: (name, help, formats it writes, options,
# handler).
_SUBCOMMANDS = (
    ("check", "compare sampled curvature to a target", ("json", "csv"),
     ("--family", "--omega", *_PARAMETERS, "--target", "--domain", "--grid", "--tol"),
     _cmd_check),
    ("family", "print a family factor descriptor", ("csv",),
     ("family", *_PARAMETERS, "--domain", "--grid"), _cmd_family),
    # compactify always samples the whole diamond
    ("compactify", "check a factor pulled back to the diamond", ("json", "csv", "svg"),
     ("--family", "--omega", *_PARAMETERS, "--target", "--grid", "--tol", "--levels"),
     _cmd_compactify),
    ("contour", "constant-interval level sets of a factor", ("svg", "csv"),
     ("--family", "--omega", *_PARAMETERS, "--domain", "--grid", "--levels"),
     _cmd_contour),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                # config entries go first, so the command line's flags win
                at = argv.index(args.command) + 1
                args = parser.parse_args(
                    [*argv[:at], *_config_flags(args.config), *argv[at:]])
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.handler(args)
    except (EmptyDomain, NoValidSamples, EvaluationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (_UsageError, ValueError, OSError, Lorentz2dError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # a lattice too large for this machine is a parameter error
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())
