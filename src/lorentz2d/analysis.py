"""Grid sampling, constancy reports, level-set extraction, and exports.

A ``SampleGrid`` evaluates a factor at cell centres of a regular lattice
over a domain's bounding box.  Cells outside the domain are marked and
excluded from all counts; cells inside are valid, singular (denominator
epsilon band) or domain errors (poles, non-positive factor, overflow,
quadrature failure).  Sampling walks the lattice in row-major blocks of
``_BLOCK_CELLS`` cells and evaluates each block array-at-a-time; every
cell gets the status, value and curvature that evaluating it alone with
floats would give (up to the last bits of numpy's transcendental
functions).  Blocks bound the memory of the intermediate arrays.
Sampling is deterministic: two runs with the same inputs produce
bitwise-identical arrays.

``constancy_report`` aggregates the curvature deviation from a target
constant.  ``extract_level_sets`` runs marching squares on the interval
field s^2 = Omega (x^2 - t^2), resolving saddle cells by the average of
the four corners; emitted vertices are then polished by bisection along
their lattice edge against the directly evaluated field, and vertices
that cannot reach the residual bound (crossings of a singular curve,
where the field jumps between branches) are pruned.

Exports: grid -> CSV, report -> JSON, level sets -> CSV or SVG.  The SVG
maps the domain onto a fixed 800x800 viewport, one path per polyline
tagged with a ``data-level`` attribute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curvature import scalar_from_factor_jet
from .errors import (
    DOMAIN_ERROR,
    OUTSIDE,
    SINGULAR,
    VALID,
    EmptyDomain,
    EvaluationError,
    NoValidSamples,
)

# Lattice cells evaluated per array operation.  Large enough that numpy's
# per-call overhead is small per cell, small enough that a block's
# intermediate arrays stay far below the size of the output arrays.
_BLOCK_CELLS = 1024

_CSV_HEADER = "t,x,omega,R,s2,valid"


@dataclass
class SampleGrid:
    """Cell-centred samples of a factor over a domain's bounding box.

    Arrays are indexed [i, j] with first coordinate ``ts[i]`` and second
    ``xs[j]`` (t and x in the standard and compact charts, u and v in
    the null chart).  Invalid cells hold NaN in the field arrays.
    """

    factor: object
    domain: object
    chart: str
    ts: np.ndarray
    xs: np.ndarray
    omega: np.ndarray
    ricci: np.ndarray
    s2: np.ndarray
    status: np.ndarray
    with_ricci: bool

    def count(self, code: int) -> int:
        return int(np.count_nonzero(self.status == code))

    @property
    def n_valid(self) -> int:
        return self.count(VALID)

    @property
    def n_singular(self) -> int:
        return self.count(SINGULAR)

    @property
    def n_domain_error(self) -> int:
        return self.count(DOMAIN_ERROR)

    @property
    def n_sampled(self) -> int:
        return self.n_valid + self.n_singular + self.n_domain_error


def _interval(omega: float, a: float, b: float, chart: str) -> float:
    if chart == "uv":
        return omega * (a * b)
    return omega * (b * b - a * a)


def sample_grid(factor, domain=None, resolution: tuple[int, int] = (50, 50),
                with_ricci: bool = True) -> SampleGrid:
    """Evaluate ``factor`` at the cell centres of an n_t x n_x lattice.

    ``domain`` defaults to the factor's own domain and must be bounded.
    With ``with_ricci`` the factor is evaluated as a jet and the scalar
    curvature stored; without it only values are computed (cheaper for
    contour work).
    """
    domain = domain if domain is not None else factor.domain
    t0, t1, x0, x1 = domain.bbox()
    if not all(math.isfinite(v) for v in (t0, t1, x0, x1)):
        raise ValueError(f"sampling needs a bounded domain, got {domain!r}")
    n_t, n_x = resolution
    if n_t < 1 or n_x < 1:
        raise ValueError(f"resolution must be positive, got {resolution!r}")

    dt = (t1 - t0) / n_t
    dx = (x1 - x0) / n_x
    ts = t0 + (np.arange(n_t) + 0.5) * dt
    xs = x0 + (np.arange(n_x) + 0.5) * dx

    omega = np.full((n_t, n_x), np.nan)
    ricci = np.full((n_t, n_x), np.nan)
    s2 = np.full((n_t, n_x), np.nan)
    status = np.full((n_t, n_x), OUTSIDE, dtype=np.int8)
    # flat views: a block is a run of row-major cell indices
    omega_c, ricci_c, s2_c, status_c = (arr.reshape(-1)
                                        for arr in (omega, ricci, s2, status))

    chart = factor.chart
    sampled = 0
    # overflow and invalid results are poisoned (NaN) cells, not warnings
    with np.errstate(all="ignore"):
        for start in range(0, n_t * n_x, _BLOCK_CELLS):
            cells = np.arange(start, min(start + _BLOCK_CELLS, n_t * n_x))
            a, b = ts[cells // n_x], xs[cells % n_x]
            inside = domain.contains(a, b)
            cells, a, b = cells[inside], a[inside], b[inside]
            sampled += cells.size
            in_factor = factor.domain.contains(a, b)
            status_c[cells[~in_factor]] = DOMAIN_ERROR
            cells, a, b = cells[in_factor], a[in_factor], b[in_factor]
            if cells.size == 0:
                continue
            code = np.full(cells.size, VALID, dtype=np.int8)
            if with_ricci:
                w = factor.jet(a, b, code)
                om = w.value
                ricci_c[cells] = scalar_from_factor_jet(w, chart)
            else:
                om = factor.value(a, b, code)
            code[np.isnan(om) & (code == VALID)] = DOMAIN_ERROR
            omega_c[cells] = om
            s2_c[cells] = _interval(om, a, b, chart)
            status_c[cells] = code

    if sampled == 0:
        raise EmptyDomain(
            f"no cell centres of a {n_t}x{n_x} lattice fall inside {domain!r}")
    return SampleGrid(factor=factor, domain=domain, chart=chart, ts=ts, xs=xs,
                      omega=omega, ricci=ricci, s2=s2, status=status,
                      with_ricci=with_ricci)


# ---------------------------------------------------------------------------
# Constancy report

@dataclass(frozen=True)
class CurvatureReport:
    target_R: float
    tolerance: float
    passed: bool
    n_valid: int
    n_singular: int
    n_domain_error: int
    max_abs_deviation: float
    mean_deviation: float
    worst_point: tuple[float, float]


def constancy_report(grid: SampleGrid, target: float | None = None,
                     tolerance: float = 1e-6) -> CurvatureReport:
    """Compare the sampled curvature against a constant target.

    The target defaults to the factor's own ``target_curvature``.
    Passes when the largest absolute deviation over valid cells is
    within ``tolerance``.
    """
    if target is None:
        target = grid.factor.target_curvature
    if target is None:
        raise ValueError("no target curvature: pass one explicitly or use a "
                         "factor that carries a claim")
    if not grid.with_ricci:
        raise ValueError("grid was sampled without curvature; "
                         "use sample_grid(..., with_ricci=True)")
    if grid.n_valid == 0:
        raise NoValidSamples(
            f"grid has no valid cells ({grid.n_singular} singular, "
            f"{grid.n_domain_error} domain errors)")

    dev = np.where(grid.status == VALID, grid.ricci - target, np.nan)
    flat = np.abs(dev).ravel()
    worst = int(np.nanargmax(flat))
    i, j = divmod(worst, dev.shape[1])
    max_abs = float(flat[worst])
    mean = float(np.nanmean(dev))
    return CurvatureReport(
        target_R=float(target),
        tolerance=float(tolerance),
        passed=bool(max_abs <= tolerance),
        n_valid=grid.n_valid,
        n_singular=grid.n_singular,
        n_domain_error=grid.n_domain_error,
        max_abs_deviation=max_abs,
        mean_deviation=mean,
        worst_point=(float(grid.ts[i]), float(grid.xs[j])),
    )


# ---------------------------------------------------------------------------
# Level sets

@dataclass
class LevelSet:
    level: float
    polylines: list


# Segment endpoints per marching-squares case; corners are bits
# 1=(i,j), 2=(i,j+1), 4=(i+1,j+1), 8=(i+1,j); edges are "b"ottom,
# "r"ight, "t"op, "l"eft.  Cases 5 and 10 are saddles, resolved by the
# average of the four corner values.
_CASES = {
    0: (), 15: (),
    1: (("l", "b"),), 14: (("l", "b"),),
    2: (("b", "r"),), 13: (("b", "r"),),
    3: (("l", "r"),), 12: (("l", "r"),),
    4: (("t", "r"),), 11: (("t", "r"),),
    6: (("b", "t"),), 9: (("b", "t"),),
    7: (("l", "t"),), 8: (("l", "t"),),
}


def _cell_edges(i: int, j: int) -> dict:
    return {
        "b": ((i, j), (i, j + 1)),
        "r": ((i, j + 1), (i + 1, j + 1)),
        "t": ((i + 1, j), (i + 1, j + 1)),
        "l": ((i, j), (i + 1, j)),
    }


def _field_fn(grid: SampleGrid):
    factor = grid.factor
    chart = grid.chart

    def field(a: float, b: float) -> float:
        return _interval(factor.value(a, b), a, b, chart)

    return field


def _refine_vertex(field, level: float, pa, fa, pb, fb, target: float,
                   bound: float, max_bisections: int):
    """Locate s^2 = level on the segment pa-pb by bisection.

    fa, fb are the (exact) field values at the endpoints, straddling the
    level.  Returns a point or None when the residual bound cannot be
    met (e.g. the field jumps across a singular curve inside the edge).
    """
    if fa == level:
        return pa
    if fb == level:
        return pb
    # first guess: linear interpolation, usually already good enough
    theta = (level - fa) / (fb - fa)
    guess = (pa[0] + theta * (pb[0] - pa[0]), pa[1] + theta * (pb[1] - pa[1]))
    try:
        fg = field(*guess)
    except EvaluationError:
        return None
    if abs(fg - level) <= target:
        return guess
    lo, flo, hi, fhi = pa, fa, pb, fb
    if (flo < level) == (fg < level):
        lo, flo = guess, fg
    else:
        hi, fhi = guess, fg
    best, best_res = guess, abs(fg - level)
    for _ in range(max_bisections):
        mid = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
        try:
            fm = field(*mid)
        except EvaluationError:
            return None
        res = abs(fm - level)
        if res < best_res:
            best, best_res = mid, res
        if res <= target:
            return mid
        if (flo < level) == (fm < level):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return best if best_res <= bound else None


def extract_level_sets(grid: SampleGrid, levels, refine: bool = True,
                       residual_bound: float = 1e-2,
                       refine_target: float = 1e-3,
                       max_bisections: int = 60) -> list[LevelSet]:
    """Marching-squares level sets of the interval field s^2.

    Only cells whose four corners are all valid participate.  With
    ``refine`` each emitted vertex is polished along its lattice edge by
    bisection against the directly evaluated field until the residual
    |s^2 - level| drops below ``refine_target``; vertices that cannot
    reach ``residual_bound`` are pruned together with their segments.
    Polylines are chained deterministically in scan order.
    """
    s2 = grid.s2
    ok = grid.status == VALID
    n_t, n_x = s2.shape
    field = _field_fn(grid)
    result = []
    for level in levels:
        level = float(level)
        verts: dict = {}
        segments = []
        for i in range(n_t - 1):
            for j in range(n_x - 1):
                if not (ok[i, j] and ok[i, j + 1] and ok[i + 1, j] and ok[i + 1, j + 1]):
                    continue
                corners = (float(s2[i, j]), float(s2[i, j + 1]),
                           float(s2[i + 1, j + 1]), float(s2[i + 1, j]))
                case = ((corners[0] >= level)
                        + ((corners[1] >= level) << 1)
                        + ((corners[2] >= level) << 2)
                        + ((corners[3] >= level) << 3))
                if case == 5 or case == 10:
                    center_in = (sum(corners) / 4.0) >= level
                    if case == 5:
                        pairs = ((("l", "t"), ("b", "r")) if center_in
                                 else (("l", "b"), ("t", "r")))
                    else:
                        pairs = ((("l", "b"), ("t", "r")) if center_in
                                 else (("b", "r"), ("l", "t")))
                else:
                    pairs = _CASES[case]
                if not pairs:
                    continue
                edges = _cell_edges(i, j)
                for ea, eb in pairs:
                    segments.append((edges[ea], edges[eb]))
                    for key in (edges[ea], edges[eb]):
                        if key in verts:
                            continue
                        (ia, ja), (ib, jb) = key
                        pa = (float(grid.ts[ia]), float(grid.xs[ja]))
                        pb = (float(grid.ts[ib]), float(grid.xs[jb]))
                        fa, fb = float(s2[ia, ja]), float(s2[ib, jb])
                        if refine:
                            verts[key] = _refine_vertex(
                                field, level, pa, fa, pb, fb,
                                refine_target, residual_bound, max_bisections)
                        else:
                            theta = 0.0 if fb == fa else (level - fa) / (fb - fa)
                            verts[key] = (pa[0] + theta * (pb[0] - pa[0]),
                                          pa[1] + theta * (pb[1] - pa[1]))

        live = [seg for seg in segments
                if verts.get(seg[0]) is not None and verts.get(seg[1]) is not None]
        polylines = _chain_segments(live, verts)
        result.append(LevelSet(level=level, polylines=polylines))
    return result


def _chain_segments(segments, verts) -> list:
    adjacency: dict = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((idx, b))
        adjacency.setdefault(b, []).append((idx, a))
    used = [False] * len(segments)
    polylines = []

    def extend(key):
        out = []
        while True:
            nxt = next(((idx, other) for idx, other in adjacency.get(key, ())
                        if not used[idx]), None)
            if nxt is None:
                return out
            used[nxt[0]] = True
            key = nxt[1]
            out.append(key)

    for idx, (a, b) in enumerate(segments):
        if used[idx]:
            continue
        used[idx] = True
        keys = list(reversed(extend(a))) + [a, b] + extend(b)
        polylines.append([verts[k] for k in keys])
    return polylines


# ---------------------------------------------------------------------------
# Exports

def grid_to_csv(grid: SampleGrid) -> str:
    """Rows for every sampled cell (outside cells are skipped), row-major."""
    lines = [_CSV_HEADER]
    for i in range(grid.status.shape[0]):
        for j in range(grid.status.shape[1]):
            code = int(grid.status[i, j])
            if code == OUTSIDE:
                continue
            t = repr(float(grid.ts[i]))
            x = repr(float(grid.xs[j]))
            if code == VALID:
                om = repr(float(grid.omega[i, j]))
                rr = repr(float(grid.ricci[i, j])) if grid.with_ricci else ""
                ss = repr(float(grid.s2[i, j]))
                lines.append(f"{t},{x},{om},{rr},{ss},1")
            else:
                lines.append(f"{t},{x},,,,0")
    return "\n".join(lines) + "\n"


def report_to_json(report: CurvatureReport) -> str:
    payload = {
        "target_R": report.target_R,
        "tolerance": report.tolerance,
        "pass": report.passed,
        "n_valid": report.n_valid,
        "n_singular": report.n_singular,
        "n_domain_error": report.n_domain_error,
        "max_abs_deviation": report.max_abs_deviation,
        "mean_deviation": report.mean_deviation,
        "worst_point": [report.worst_point[0], report.worst_point[1]],
    }
    return json.dumps(payload, indent=2) + "\n"


def level_sets_to_csv(level_sets) -> str:
    lines = ["level,polyline,t,x"]
    for ls in level_sets:
        for p_idx, poly in enumerate(ls.polylines):
            for (t, x) in poly:
                lines.append(f"{repr(ls.level)},{p_idx},{repr(t)},{repr(x)}")
    return "\n".join(lines) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_SVG_SIZE = 800
_SVG_MARGIN = 40


def level_sets_to_svg(level_sets, bounds=None) -> str:
    """One SVG path per polyline on a fixed 800x800 viewport.

    ``bounds`` = (t_min, t_max, x_min, x_max); defaults to the extent of
    the vertices with 5% padding.  x runs right, t runs up.
    """
    if bounds is None:
        pts = [p for ls in level_sets for poly in ls.polylines for p in poly]
        if not pts:
            bounds = (-1.0, 1.0, -1.0, 1.0)
        else:
            t_lo = min(p[0] for p in pts)
            t_hi = max(p[0] for p in pts)
            x_lo = min(p[1] for p in pts)
            x_hi = max(p[1] for p in pts)
            pad_t = 0.05 * (t_hi - t_lo or 1.0)
            pad_x = 0.05 * (x_hi - x_lo or 1.0)
            bounds = (t_lo - pad_t, t_hi + pad_t, x_lo - pad_x, x_hi + pad_x)
    t0, t1, x0, x1 = bounds
    span = _SVG_SIZE - 2 * _SVG_MARGIN

    def to_px(t: float, x: float) -> tuple[float, float]:
        px = _SVG_MARGIN + (x - x0) / (x1 - x0) * span
        py = _SVG_MARGIN + (t1 - t) / (t1 - t0) * span
        return px, py

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for idx, ls in enumerate(level_sets):
        color = _PALETTE[idx % len(_PALETTE)]
        for poly in ls.polylines:
            if len(poly) < 2:
                continue
            coords = [to_px(t, x) for (t, x) in poly]
            d = "M " + " L ".join(f"{px:.3f} {py:.3f}" for px, py in coords)
            lines.append(f'<path d="{d}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5" data-level="{repr(ls.level)}"/>')
    for idx, ls in enumerate(level_sets):
        color = _PALETTE[idx % len(_PALETTE)]
        y = 20 + 16 * idx
        lines.append(f'<text x="8" y="{y}" font-family="monospace" '
                     f'font-size="12" fill="{color}">s2 = {repr(ls.level)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export(obj, fmt: str, destination, *, bounds=None) -> Path:
    """Write ``obj`` to ``destination`` in ``fmt``.

    Supported: SampleGrid -> csv, CurvatureReport -> json, a list of
    LevelSet -> csv or svg.
    """
    path = Path(destination)
    is_level_sets = isinstance(obj, (list, tuple)) and all(
        isinstance(item, LevelSet) for item in obj)
    if isinstance(obj, SampleGrid) and fmt == "csv":
        text = grid_to_csv(obj)
    elif isinstance(obj, CurvatureReport) and fmt == "json":
        text = report_to_json(obj)
    elif is_level_sets and fmt == "csv":
        text = level_sets_to_csv(obj)
    elif is_level_sets and fmt == "svg":
        text = level_sets_to_svg(obj, bounds=bounds)
    else:
        raise ValueError(
            f"unsupported export: {type(obj).__name__} as {fmt!r}")
    path.write_text(text)
    return path
