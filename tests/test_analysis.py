"""Grid sampling, constancy reports, level sets, and exports."""

import json
import math

import numpy as np
import pytest

from lorentz2d.analysis import (
    DOMAIN_ERROR,
    OUTSIDE,
    SINGULAR,
    VALID,
    CurvatureReport,
    LevelSet,
    constancy_report,
    export,
    extract_level_sets,
    grid_to_csv,
    level_sets_to_csv,
    level_sets_to_svg,
    report_to_json,
    sample_grid,
)
from lorentz2d.charts import Rectangle, Region, compactify
from lorentz2d.errors import EmptyDomain, NoValidSamples
from lorentz2d.families import (
    factor_from_expression,
    flat_factor,
    liouville_factor,
    timelike_factor,
)

BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Sampling

def test_flat_grid_all_valid_and_exactly_flat():
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(10, 10))
    assert grid.n_valid == 100
    assert grid.n_singular == 0
    assert grid.n_domain_error == 0
    assert grid.ts[0] == -0.9
    assert math.isclose(grid.ts[-1], 0.9, rel_tol=1e-15)
    assert np.all(grid.status == VALID)
    assert np.all(grid.omega == 1.0)
    assert np.all(grid.ricci == 0.0)


def test_grid_interval_field_values():
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(4, 4))
    for i, t in enumerate(grid.ts):
        for j, x in enumerate(grid.xs):
            assert grid.s2[i, j] == x * x - t * t


def test_sampling_is_deterministic():
    factor = liouville_factor("sin(l)", "0", k=1.0, C=2.0, target=-1.0)
    g1 = sample_grid(factor, BOX, resolution=(15, 15))
    g2 = sample_grid(factor, BOX, resolution=(15, 15))
    assert np.array_equal(g1.omega, g2.omega, equal_nan=True)
    assert np.array_equal(g1.ricci, g2.ricci, equal_nan=True)
    assert np.array_equal(g1.s2, g2.s2, equal_nan=True)
    assert np.array_equal(g1.status, g2.status)


def test_diamond_domain_marks_outside_cells():
    c = compactify(flat_factor("1", "1"))
    grid = sample_grid(c, resolution=(12, 12))
    outside = grid.count(OUTSIDE)
    assert outside > 0
    assert grid.n_sampled == 144 - outside
    assert grid.n_valid == grid.n_sampled  # every inside cell is fine


def test_factor_domain_misses_become_domain_errors():
    f = timelike_factor(-4.0, 0.0, 2.0)  # strip |t| < pi/2
    grid = sample_grid(f, Rectangle(-3.0, 3.0, 0.0, 1.0), resolution=(12, 4))
    assert grid.n_domain_error == 24
    assert grid.n_valid == 24
    report = constancy_report(grid, tolerance=1e-9)
    assert report.passed
    assert report.target_R == 2.0


def test_singular_band_cells_are_flagged():
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0, singular_eps=0.2)
    grid = sample_grid(f, Rectangle(-1.0, 0.0, -1.0, 0.0), resolution=(10, 10))
    assert grid.n_singular > 0
    assert grid.n_valid > 0
    assert grid.n_singular + grid.n_valid == 100
    singular_cells = grid.status == SINGULAR
    assert np.all(np.isnan(grid.ricci[singular_cells]))


def test_empty_domain_raises():
    nowhere = Region(lambda t, x: False, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(EmptyDomain):
        sample_grid(factor_from_expression("1"), nowhere, resolution=(5, 5))


def test_unbounded_domain_rejected():
    with pytest.raises(ValueError):
        sample_grid(flat_factor("1", "1"))


def test_overflowing_domain_width_rejected():
    # every bound is finite but t1 - t0 is inf: the cell centres would not be
    wide = Rectangle(-1e308, 1e308, -1e308, 1e308)
    with pytest.raises(ValueError, match="overflows"):
        sample_grid(factor_from_expression("1"), wide, resolution=(3, 3))


def test_bad_resolution_rejected():
    with pytest.raises(ValueError):
        sample_grid(flat_factor("1", "1"), BOX, resolution=(0, 5))


# ---------------------------------------------------------------------------
# Constancy reports

def test_report_flags_wrong_target():
    f = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                         raw_antiderivative=True)
    grid = sample_grid(f, BOX, resolution=(20, 20))
    report = constancy_report(grid, target=0.0, tolerance=1e-6)
    assert not report.passed
    assert 1.9 < report.max_abs_deviation < 2.5
    assert report.max_abs_deviation >= abs(report.mean_deviation)
    assert float(report.worst_point[0]) in grid.ts
    assert float(report.worst_point[1]) in grid.xs


def test_report_mean_survives_an_overflowing_sum():
    # 2500 deviations of -1e305 sum past the double range; the mean is
    # still -1e305, and the JSON report stays valid JSON
    grid = sample_grid(factor_from_expression("1"), BOX, resolution=(50, 50))
    report = constancy_report(grid, target=1e305)
    assert report.max_abs_deviation == 1e305
    assert report.mean_deviation == pytest.approx(-1e305, rel=1e-12)
    payload = json.loads(report_to_json(report), parse_constant=pytest.fail)
    assert payload["mean_deviation"] == report.mean_deviation


def test_report_mean_is_the_plain_mean_where_that_is_finite():
    grid = sample_grid(factor_from_expression("exp(t^2)"), BOX, resolution=(30, 30))
    for target in (0.0, 1e300, -1e305):
        report = constancy_report(grid, target=target)
        dev = np.where(grid.status == VALID, grid.ricci - target, np.nan)
        assert report.mean_deviation == float(np.nanmean(dev))


def test_report_refuses_a_nan_target():
    # every deviation would be NaN: no worst cell, no mean, no verdict
    grid = sample_grid(factor_from_expression("exp(t)"), BOX, resolution=(5, 5))
    with pytest.raises(ValueError):
        constancy_report(grid, target=math.nan)


def test_report_requires_some_target():
    grid = sample_grid(factor_from_expression("exp(t)"), BOX, resolution=(5, 5))
    with pytest.raises(ValueError):
        constancy_report(grid)
    assert constancy_report(grid, target=0.0, tolerance=1e-9).passed


def test_report_requires_curvature_samples():
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(5, 5),
                       with_ricci=False)
    with pytest.raises(ValueError):
        constancy_report(grid, target=0.0)


def test_report_with_no_valid_cells():
    f = timelike_factor(-4.0, 0.0, 2.0)
    grid = sample_grid(f, Rectangle(2.0, 3.0, 0.0, 1.0), resolution=(5, 5))
    assert grid.n_valid == 0
    assert grid.n_domain_error == 25
    with pytest.raises(NoValidSamples):
        constancy_report(grid)


def test_report_tolerance_monotonicity():
    f = timelike_factor(-4.0, 0.0, 2.0)
    grid = sample_grid(f, Rectangle(-1.4, 1.4, 0.0, 6.0), resolution=(20, 20))
    tight = constancy_report(grid, tolerance=1e-12)
    loose = constancy_report(grid, tolerance=1e-6)
    assert loose.max_abs_deviation == tight.max_abs_deviation
    if tight.passed:
        assert loose.passed


def test_report_across_resolutions():
    f = timelike_factor(-4.0, 0.0, 2.0)
    box = Rectangle(-1.4, 1.4, 0.0, 6.0)
    coarse = constancy_report(sample_grid(f, box, resolution=(20, 20)),
                              tolerance=1e-9)
    fine = constancy_report(sample_grid(f, box, resolution=(40, 40)),
                            tolerance=1e-9)
    assert coarse.passed and fine.passed
    # the finer lattice probes closer to the strip edge, so its rounding
    # noise dominates the coarse one up to a tiny slack
    assert fine.max_abs_deviation + 1e-9 >= coarse.max_abs_deviation


# ---------------------------------------------------------------------------
# Level sets

def _hyperbola_grid(resolution=(80, 80)):
    factor = flat_factor("1", "1")
    box = Rectangle(-2.0, 2.0, -2.0, 2.0)
    return sample_grid(factor, box, resolution=resolution, with_ricci=False)


def test_level_set_hyperbola_two_branches():
    grid = _hyperbola_grid()
    (ls,) = extract_level_sets(grid, [1.0])
    assert ls.level == 1.0
    assert len(ls.polylines) == 2
    for poly in ls.polylines:
        assert len(poly) > 20
        for t, x in poly:
            assert abs((x * x - t * t) - 1.0) <= 1e-3


def test_level_set_null_rays():
    grid = _hyperbola_grid()
    (ls,) = extract_level_sets(grid, [0.0])
    assert ls.polylines
    for poly in ls.polylines:
        for t, x in poly:
            assert abs(x * x - t * t) <= 1e-3


def test_level_set_absent_level_is_empty():
    grid = _hyperbola_grid(resolution=(20, 20))
    (ls,) = extract_level_sets(grid, [100.0])
    assert [p.tolist() for p in ls.polylines] == []
    assert extract_level_sets(grid, []) == []


def test_level_set_extraction_is_deterministic():
    grid = _hyperbola_grid(resolution=(40, 40))
    first = extract_level_sets(grid, [1.0, -1.0])
    second = extract_level_sets(grid, [1.0, -1.0])
    assert ([[p.tolist() for p in ls.polylines] for ls in first]
            == [[p.tolist() for p in ls.polylines] for ls in second])


def test_level_set_vertices_near_singular_curve_are_pruned():
    # checks residuals near a pole: the factor blows up along x + t = 1 but
    # stays positive on both sides, so s^2 never jumps across the level and
    # nothing is pruned here (n_pruned is 0); every vertex, the ones next to
    # the pole included, must meet the residual bound.  Pruning itself is
    # tested across a jump below.
    factor = factor_from_expression("(x + t - 1)^(-2)")
    grid = sample_grid(factor, Rectangle(-2.0, 2.0, -2.0, 2.0),
                       resolution=(60, 60), with_ricci=False)
    (ls,) = extract_level_sets(grid, [0.5])
    assert ls.polylines
    for poly in ls.polylines:
        for t, x in poly:
            s2 = factor.value(t, x) * (x * x - t * t)
            assert abs(s2 - 0.5) <= 1e-2 + 1e-12


def test_level_set_vertices_across_a_jump_are_pruned():
    # Omega jumps from ~0 to huge across x + t = 1: cells straddling it
    # have a crossing that is no level point, and it must be pruned.  An odd
    # side keeps cell centres off the jump (at 60 a side they lie on it,
    # overflow, and leave no straddling cell with four valid corners).
    factor = factor_from_expression("exp(1/(x + t - 1))")
    grid = sample_grid(factor, Rectangle(-2.0, 2.0, -2.0, 2.0),
                       resolution=(61, 61), with_ricci=False)
    (ls,) = extract_level_sets(grid, [0.5])
    assert ls.n_pruned > 0
    assert ls.polylines
    for poly in ls.polylines:
        for t, x in poly:
            s2 = factor.value(t, x) * (x * x - t * t)
            assert abs(s2 - 0.5) <= 1e-2 + 1e-12


# ---------------------------------------------------------------------------
# Exports

def test_grid_csv_shape():
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(2, 2))
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,omega,R,s2,valid"
    assert len(lines) == 5
    assert all(line.endswith(",1") for line in lines[1:])


def test_grid_csv_marks_invalid_cells():
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0, singular_eps=0.2)
    grid = sample_grid(f, Rectangle(-1.0, 0.0, -1.0, 0.0), resolution=(10, 10))
    lines = grid_to_csv(grid).strip().split("\n")
    assert any(line.endswith(",,,,0") for line in lines[1:])
    assert len(lines) == 1 + grid.n_sampled


def test_grid_csv_without_ricci_leaves_column_empty():
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(2, 2),
                       with_ricci=False)
    row = grid_to_csv(grid).strip().split("\n")[1]
    fields = row.split(",")
    assert len(fields) == 6
    assert fields[3] == ""


def test_report_json_key_order():
    f = timelike_factor(-4.0, 0.0, 2.0)
    grid = sample_grid(f, Rectangle(-1.0, 1.0, 0.0, 1.0), resolution=(5, 5))
    report = constancy_report(grid, tolerance=1e-9)
    text = report_to_json(report)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == ["target_R", "tolerance", "pass", "n_valid",
                             "n_singular", "n_domain_error",
                             "max_abs_deviation", "mean_deviation",
                             "worst_point"]
    assert payload["pass"] is True
    assert payload["target_R"] == 2.0
    assert isinstance(payload["worst_point"], list)


def test_level_sets_csv():
    grid = _hyperbola_grid(resolution=(30, 30))
    sets = extract_level_sets(grid, [1.0])
    text = level_sets_to_csv(sets)
    lines = text.strip().split("\n")
    assert lines[0] == "level,polyline,t,x"
    n_vertices = sum(len(p) for ls in sets for p in ls.polylines)
    assert len(lines) == 1 + n_vertices
    assert lines[1].startswith("1.0,0,")


def test_level_sets_svg_structure():
    grid = _hyperbola_grid()
    sets = extract_level_sets(grid, [1.0, -1.0])
    svg = level_sets_to_svg(sets)
    assert svg.startswith("<svg")
    assert 'width="800"' in svg and 'height="800"' in svg
    n_paths = sum(1 for ls in sets for p in ls.polylines if len(p) >= 2)
    assert svg.count("<path") == n_paths
    assert 'data-level="1.0"' in svg
    assert 'data-level="-1.0"' in svg
    assert "s2 = 1.0" in svg and "s2 = -1.0" in svg
    assert svg.rstrip().endswith("</svg>")


def test_export_dispatch(tmp_path):
    grid = sample_grid(flat_factor("1", "1"), BOX, resolution=(3, 3))
    report = constancy_report(grid, target=0.0, tolerance=1e-9)
    sets = extract_level_sets(grid, [0.25])

    p1 = export(grid, "csv", tmp_path / "grid.csv")
    assert p1.read_text().startswith("t,x,omega,R,s2,valid")
    p2 = export(report, "json", tmp_path / "report.json")
    assert json.loads(p2.read_text())["pass"] is True
    p3 = export(sets, "csv", tmp_path / "sets.csv")
    assert p3.read_text().startswith("level,polyline,t,x")
    p4 = export(sets, "svg", tmp_path / "sets.svg")
    assert p4.read_text().startswith("<svg")

    with pytest.raises(ValueError):
        export(grid, "svg", tmp_path / "bad.svg")
    with pytest.raises(ValueError):
        export(report, "csv", tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        export(42, "csv", tmp_path / "bad2.csv")
