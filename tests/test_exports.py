"""Byte-exact exports against the per-row exporters they replaced.

``reference_grid_to_csv``, ``reference_level_sets_to_csv`` and
``reference_level_sets_to_svg`` are the exporters that formatted one cell
or one vertex at a time, written for polylines that are lists of (t, x)
float tuples; they are given such lists, built from the polylines'
arrays.  The array-built exporters of ``analysis`` must produce exactly
the same strings.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lorentz2d.analysis import (
    OUTSIDE,
    SINGULAR,
    VALID,
    CurvatureReport,
    LevelSet,
    extract_level_sets,
    grid_to_csv,
    level_sets_to_csv,
    level_sets_to_svg,
    report_to_json,
    sample_grid,
)
from lorentz2d.charts import Diamond, Rectangle, compactify
from lorentz2d.families import (
    factor_from_expression,
    flat_factor,
    liouville_factor,
    timelike_factor,
)

from test_array_sampling import _banded
from test_level_sets import GRIDS, as_vertex_lists

_CSV_HEADER = "t,x,omega,R,s2,valid"
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")
_SVG_SIZE = 800
_SVG_MARGIN = 40


def reference_grid_to_csv(grid) -> str:
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


def reference_level_sets_to_csv(level_sets) -> str:
    lines = ["level,polyline,t,x"]
    for ls in level_sets:
        for p_idx, poly in enumerate(ls.polylines):
            for (t, x) in poly:
                lines.append(f"{repr(ls.level)},{p_idx},{repr(t)},{repr(x)}")
    return "\n".join(lines) + "\n"


def reference_level_sets_to_svg(level_sets, bounds=None) -> str:
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


def with_tuple_polylines(level_sets) -> list:
    """``level_sets`` with every polyline as a list of (t, x) float tuples."""
    return [LevelSet(ls.level, [list(map(tuple, p)) for p in as_vertex_lists(ls.polylines)])
            for ls in level_sets]


def assert_level_set_exports_match(level_sets, bounds=None):
    tuples = with_tuple_polylines(level_sets)
    assert level_sets_to_csv(level_sets) == reference_level_sets_to_csv(tuples)
    assert (level_sets_to_svg(level_sets, bounds=bounds)
            == reference_level_sets_to_svg(tuples, bounds=bounds))


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("side", [37, 64])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_diagram_exports_match_reference(name, side, with_ricci):
    factor, domain, levels = GRIDS[name]()
    grid = sample_grid(factor, domain, (side, side), with_ricci=with_ricci)
    sets = extract_level_sets(grid, levels)
    assert sum(len(ls.polylines) for ls in sets) > 0
    assert_level_set_exports_match(sets)
    assert_level_set_exports_match(sets, bounds=domain.bbox())
    assert_level_set_exports_match(sets, bounds=(-0.5, 2.0, -3.0, 0.25))


HAND_BUILT = [
    [],
    [LevelSet(1.0, []), LevelSet(-2.0, [])],
    # one-vertex polylines count for the bounds but are not drawn
    [LevelSet(0.5, [[(0.25, -0.75)]]), LevelSet(1.5, [[(0.0, 0.0), (1.0, 2.0)], []])],
    [LevelSet(0.5, [[(0.25, -0.75)]])],
    # all vertices on one t (and then one x): the padding falls back to 0.05
    [LevelSet(1.0, [[(0.5, -1.0), (0.5, 0.0), (0.5, 3.0)]])],
    [LevelSet(1.0, [[(-1.0, 0.5), (2.0, 0.5)], [(0.0, 0.5), (0.0, 0.5)]])],
    # signed zeros: the level and the coordinates keep their sign
    [LevelSet(-0.0, [[(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]]),
     LevelSet(0.0, [[(0.0, 1.0), (-0.0, 1.0)]])],
    # huge and tiny coordinates, nine palette colours, repeated coordinates
    [LevelSet(float(k), [[(1e300 * k, -1e300), (-1e300, 1e300 / (k + 1))],
                         [(1e-300 * k, 5e-324), (-1e-300, 1e-300), (1e-300, 1e-300)]])
     for k in range(9)],
    [LevelSet(1e-300, [[(1e-300, 2e-300), (3e-300, -1e-300)]])],
    [LevelSet(2.0, [[(math.pi, math.e), (math.e, math.pi), (math.pi, math.pi),
                     (0.1, 0.2), (0.1 + 0.2, 0.3)]])],
]
HAND_BUILT_CASES = pytest.mark.parametrize("level_sets", HAND_BUILT, ids=[
    "empty", "no-polylines", "one-vertex-mixed", "one-vertex-only", "one-t", "one-x",
    "signed-zeros", "huge-and-tiny", "tiny", "round-trip"])


@HAND_BUILT_CASES
def test_hand_built_exports_match_reference(level_sets):
    assert_level_set_exports_match(level_sets)
    assert_level_set_exports_match(level_sets, bounds=(-2.0, 2.0, -1.0, 3.0))


def _exports(level_sets) -> tuple:
    return (level_sets_to_csv(level_sets), level_sets_to_svg(level_sets),
            level_sets_to_svg(level_sets, bounds=(-2.0, 2.0, -1.0, 3.0)))


@HAND_BUILT_CASES
def test_array_and_numpy_scalar_inputs_export_the_same_bytes(level_sets):
    as_arrays = [LevelSet(ls.level, [np.array(p, dtype=float).reshape(-1, 2)
                                     for p in ls.polylines]) for ls in level_sets]
    numpy_levels = [LevelSet(np.float64(ls.level), ls.polylines) for ls in level_sets]
    both = [LevelSet(np.float64(ls.level), ls.polylines) for ls in as_arrays]
    want = _exports(level_sets)
    for variant in (as_arrays, numpy_levels, both):
        assert _exports(variant) == want


def test_numpy_scalars_are_printed_as_floats():
    sets = [LevelSet(np.float64(1.0), [np.array([[0.0, 1.0], [0.5, 1.5]])])]
    assert level_sets_to_csv(sets) == "level,polyline,t,x\n1.0,0,0.0,1.0\n1.0,0,0.5,1.5\n"
    svg = level_sets_to_svg(sets)
    assert "np." not in svg
    assert 'data-level="1.0"' in svg and "s2 = 1.0<" in svg


def test_svg_with_degenerate_bounds_raises_like_reference():
    sets = [LevelSet(1.0, [[(0.0, 0.0), (1.0, 1.0)]])]
    for bounds in ((0.0, 0.0, -1.0, 1.0), (-1.0, 1.0, 2.0, 2.0)):
        with pytest.raises(ZeroDivisionError):
            reference_level_sets_to_svg(sets, bounds=bounds)
        with pytest.raises(ZeroDivisionError):
            level_sets_to_svg(sets, bounds=bounds)
    # nothing to draw, nothing divided
    empty = [LevelSet(1.0, [[(0.0, 0.0)]])]
    assert (level_sets_to_svg(empty, bounds=(0.0, 0.0, 0.0, 0.0))
            == reference_level_sets_to_svg(empty, bounds=(0.0, 0.0, 0.0, 0.0)))


def _readme_r2():
    return factor_from_expression(
        "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)", claimed_curvature=2.0)


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("make", [
    lambda: (_readme_r2(), Rectangle(-1.0, 1.0, -1.0, 1.0), (37, 41)),
    # outside cells
    lambda: (compactify(flat_factor("1", "1")), Diamond(), (40, 40)),
    # domain errors past the strip |t| < pi/2
    lambda: (timelike_factor(-4.0, 0.0, 2.0), Rectangle(-2.0, 2.0, 0.0, 1.0), (23, 7)),
    # singular cells
    lambda: (_banded(0.2, lambda: liouville_factor("0", "0", k=1.0, C=1.0, target=2.0)),
             Rectangle(-1.0, 0.0, -1.0, 0.0), (10, 10)),
    lambda: (flat_factor("1", "1"), Rectangle(-1.0, 1.0, -1.0, 1.0), (1, 1)),
], ids=["readme-r2", "compact-flat", "sec2-overhang", "singular", "one-cell"])
def test_grid_csv_matches_reference(make, with_ricci):
    factor, domain, resolution = make()
    grid = sample_grid(factor, domain, resolution, with_ricci=with_ricci)
    assert grid_to_csv(grid) == reference_grid_to_csv(grid)


def test_grid_csv_of_huge_tiny_and_signed_values_matches_reference():
    grid = sample_grid(flat_factor("1", "1"), Rectangle(-1.0, 1.0, -1.0, 1.0), (3, 4))
    grid.omega[:] = np.array([[1e300, -0.0, 0.0, 5e-324], [1e-300, np.inf, -np.inf, 0.1],
                              [math.pi, -1e-310, 2.5, 1.0]])
    grid.ricci[:] = -grid.omega[::-1]
    grid.status[1, 1] = OUTSIDE
    grid.status[2, 0] = SINGULAR
    assert grid_to_csv(grid) == reference_grid_to_csv(grid)
    grid.with_ricci = False
    assert grid_to_csv(grid) == reference_grid_to_csv(grid)



def test_report_json_matches_golden_bytes():
    # the key order, "pass" for ``passed``, the 2-space indent and the
    # worst point as a list
    report = CurvatureReport(target_R=-2.0, tolerance=1e-06, passed=False, n_valid=63,
                             n_singular=1, n_domain_error=0, max_abs_deviation=0.5,
                             mean_deviation=-1.25e-07, worst_point=(0.9375, -0.9375))
    assert report_to_json(report) == (
        '{\n  "target_R": -2.0,\n  "tolerance": 1e-06,\n  "pass": false,\n'
        '  "n_valid": 63,\n  "n_singular": 1,\n  "n_domain_error": 0,\n'
        '  "max_abs_deviation": 0.5,\n  "mean_deviation": -1.25e-07,\n'
        '  "worst_point": [\n    0.9375,\n    -0.9375\n  ]\n}\n')


def test_diagram_pipeline_imports_no_more_of_numpy():
    # numpy.ma (np.unique), numpy.char and the rest would add to every CLI start
    code = "\n".join([
        "import sys",
        "from lorentz2d import analysis, charts, families",
        "flat = charts.compactify(families.flat_factor('1', '1'))",
        "grid = analysis.sample_grid(flat, resolution=(24, 24), with_ricci=False)",
        "sets = analysis.extract_level_sets(grid, [-1.0, 0.25, 0.5])",
        "assert sets[2].polylines",
        "analysis.level_sets_to_csv(sets)",
        "analysis.level_sets_to_svg(sets)",
        "analysis.grid_to_csv(analysis.sample_grid(flat, resolution=(8, 8)))",
        "print(sorted(name for name in sys.modules if name.split('.')[:2] in",
        "      (['numpy', 'ma'], ['numpy', 'char'], ['numpy', 'polynomial'],",
        "       ['numpy', 'random'])))",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
