"""Array-at-a-time sampling against the one-cell-at-a-time reference.

``reference_grid`` is the per-cell loop that ``sample_grid`` used to run:
it evaluates every cell alone, with floats, through the scalar
``factor.value``/``factor.jet`` calls and their typed exceptions.  The
array path must classify every cell the same way and reproduce its
values up to the last bits of numpy's transcendental functions.

``gathered_grid`` is the block sampler that row bands replaced: it
gathers every block's cells into flat coordinate arrays.  Row bands,
evaluated on broadcast coordinates wherever a band is whole, must give
its arrays bit for bit.
"""

import dataclasses
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d import analysis, families, jets
from lorentz2d.analysis import (
    DOMAIN_ERROR,
    OUTSIDE,
    SINGULAR,
    VALID,
    sample_grid,
)
from lorentz2d.charts import Diamond, Rectangle, compactify, interval_from_omega
from lorentz2d.curvature import scalar_from_factor_jet
from lorentz2d.errors import (
    DomainError,
    EvaluationError,
    QuadratureNonConvergence,
    SingularDenominator,
)
from lorentz2d.expressions import FUNCTIONS, Binary, Call, Constant, Unary, Variable, substitute
from lorentz2d.families import (
    Antiderivative,
    factor_from_expression,
    flat_factor,
    liouville_factor,
    spacelike_factor,
    timelike_factor,
)
from lorentz2d.jets import Jet2

README_R2 = "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"
README_R2_NULL = "exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)"
BOX = Rectangle(-1.0, 1.0, -1.0, 1.0)

OMEGA_RTOL = 1e-10
RICCI_ATOL = 1e-12
# R = (-W_t^2 + W_x^2 + W (W_tt - W_xx)) / W^3 is rounded at about
# eps * (sum of |terms|) / W^3.  Where that floor exceeds RICCI_ATOL (a
# tiny W, e.g. near the corners of a compactified Liouville factor), R
# is held to a small multiple of the floor instead.
FLOOR_MULTIPLE = 32


def rounding_floor(w):
    terms = w.dt * w.dt + w.dx * w.dx + abs(w.value * w.dtt) + abs(w.value * w.dxx)
    return sys.float_info.epsilon * terms / (w.value * w.value * w.value)


def reference_grid(factor, domain, resolution, with_ricci):
    """(omega, ricci, floor, status) from one scalar evaluation per cell."""
    t0, t1, x0, x1 = domain.bbox()
    n_t, n_x = resolution
    dt, dx = (t1 - t0) / n_t, (x1 - x0) / n_x
    ts = [t0 + (i + 0.5) * dt for i in range(n_t)]
    xs = [x0 + (j + 0.5) * dx for j in range(n_x)]
    omega = np.full(resolution, np.nan)
    ricci = np.full(resolution, np.nan)
    floor = np.full(resolution, np.nan)
    status = np.full(resolution, OUTSIDE, dtype=np.int8)
    for i, a in enumerate(ts):
        for j, b in enumerate(xs):
            if not domain.contains(a, b):
                continue
            if not factor.domain.contains(a, b):
                status[i, j] = DOMAIN_ERROR
                continue
            try:
                if with_ricci:
                    w = factor.jet(a, b)
                    omega[i, j] = w.value
                    ricci[i, j] = scalar_from_factor_jet(w, factor.chart)
                    floor[i, j] = rounding_floor(w)
                else:
                    omega[i, j] = factor.value(a, b)
                status[i, j] = VALID
            except SingularDenominator:
                omega[i, j] = np.nan
                status[i, j] = SINGULAR
            except EvaluationError:
                omega[i, j] = np.nan
                status[i, j] = DOMAIN_ERROR
    return omega, ricci, floor, status


def assert_ricci_close(got, want, floor):
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    diff = np.where(same, 0.0, np.abs(got - want))
    bound = np.fmax(RICCI_ATOL, FLOOR_MULTIPLE * floor)
    worst = np.max(diff / bound, initial=0.0)
    assert worst <= 1.0, f"R differs by {worst:.3g} x its bound"


def assert_matches_reference(factor, domain, resolution, with_ricci):
    grid = sample_grid(factor, domain, resolution, with_ricci=with_ricci)
    omega, ricci, floor, status = reference_grid(factor, domain, resolution, with_ricci)
    np.testing.assert_array_equal(grid.status, status)
    valid = status == VALID
    assert np.all(np.isnan(grid.omega[~valid]))
    assert np.all(np.isnan(grid.s2[~valid]))
    np.testing.assert_allclose(grid.omega[valid], omega[valid], rtol=OMEGA_RTOL, atol=0)
    if with_ricci:
        assert np.all(np.isnan(grid.ricci[~valid]))
        # a cell whose R is not finite is a domain error, never valid
        assert np.all(np.isfinite(grid.ricci[valid]))
        assert_ricci_close(grid.ricci[valid], ricci[valid], floor[valid])
    else:
        assert np.all(np.isnan(grid.ricci))
    return grid


class Disc:
    """The open disc t^2 + x^2 < 0.8, a domain that is not a rectangle or
    a diamond; ``cells`` counts the points it has tested."""

    def __init__(self):
        self.cells = 0

    def contains(self, t, x):
        inside = t * t + x * x < 0.8
        self.cells += np.size(inside)
        return inside

    def bbox(self):
        return (-1.0, 1.0, -1.0, 1.0)


@dataclasses.dataclass(frozen=True)
class SmallDiamond:
    """The open diamond |t| + |x| < half_width, smaller than the compact
    chart's ``Diamond``."""

    half_width: float

    def contains(self, t, x):
        return (abs(x) < self.half_width) & (abs(t) < self.half_width - abs(x))

    def bbox(self):
        w = self.half_width
        return (-w, w, -w, w)


def _banded(eps, build):
    """``build()`` with the Liouville singular band half-width set to ``eps``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "SINGULAR_EPS", eps)
        return build()


CASES = {
    "readme": lambda: (factor_from_expression(README_R2, 2.0), BOX),
    "readme_null": lambda: (factor_from_expression(README_R2_NULL, 2.0), BOX),
    "flat": lambda: (flat_factor("exp(0.1*l + 0.05*l^2)", "exp(0.2*sin(l))"), BOX),
    "sec2_overhang": lambda: (timelike_factor(-4.0, 0.1, 2.0),
                              Rectangle(-2.0, 2.0, 0.0, 6.0)),
    "sec2_x_overhang": lambda: (spacelike_factor(-4.0, 0.1, -2.0),
                                Rectangle(-1.0, 1.0, -3.0, 3.0)),
    "sech2": lambda: (spacelike_factor(4.0, 0.3, 1.0), Rectangle(-1.0, 1.0, -2.0, 2.0)),
    "log_domain_errors": lambda: (factor_from_expression("log(1.5 - t^2 - x^2)"),
                                  Rectangle(-1.5, 1.5, -1.5, 1.5)),
    "compact_unit": lambda: (compactify(flat_factor("1", "1")), Diamond()),
    "compact_liouville": lambda: (compactify(_banded(0.05, lambda: liouville_factor(
        "l", "l", 1.1, 0.0, 2.0, raw_antiderivative=True))), Diamond()),
    "liouville_raw": lambda: (_banded(0.05, lambda: liouville_factor(
        "l", "l", 1.0, 0.0, 2.0, raw_antiderivative=True)), BOX),
    "region": lambda: (factor_from_expression(README_R2, 2.0), Disc()),
    "diamond": lambda: (flat_factor("exp(0.3*l)", "exp(-0.1*l^2)"), SmallDiamond(1.5)),
}


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_grid_matches_per_cell_reference(case, with_ricci, monkeypatch):
    factor, domain = CASES[case]()
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", 512)
    # 37 x 41 cells: three bands, of 12, 12 and 13 rows
    assert 37 * 41 > analysis._BLOCK_CELLS
    grid = assert_matches_reference(factor, domain, (37, 41), with_ricci)
    assert grid.n_valid > 0


@pytest.mark.parametrize("with_ricci", [True, False])
def test_shifted_liouville_matches_reference(with_ricci, monkeypatch):
    monkeypatch.setattr(families, "SINGULAR_EPS", 0.05)
    factor = liouville_factor("0.1*l", "0.05*sin(l)", 1.0, 0.0, 2.0)
    box = Rectangle(-1.0, 1.0, -2.0, 2.0)
    grid = sample_grid(factor, box, (13, 17), with_ricci=with_ricci)
    omega, ricci, floor, status = reference_grid(factor, box, (13, 17), with_ricci)
    np.testing.assert_array_equal(grid.status, status)
    assert grid.n_singular > 0 and grid.n_valid > 0
    valid = status == VALID
    np.testing.assert_allclose(grid.omega[valid], omega[valid], rtol=OMEGA_RTOL, atol=0)
    if with_ricci:
        assert_ricci_close(grid.ricci[valid], ricci[valid], floor[valid])


def test_singular_cells_survive_the_compact_pullback():
    factor, domain = CASES["compact_liouville"]()
    grid = assert_matches_reference(factor, domain, (37, 41), True)
    assert grid.n_singular > 0


def test_sec2_strip_is_applied_before_evaluation():
    factor, domain = CASES["sec2_overhang"]()
    grid = sample_grid(factor, domain, (40, 20))
    t = grid.ts[:, None] + np.zeros(grid.xs.shape)
    off_strip = np.abs(t + 0.1) >= 0.5 * math.pi
    np.testing.assert_array_equal(grid.status == DOMAIN_ERROR, off_strip)


@pytest.mark.parametrize("case", sorted(CASES))
def test_values_only_omega_is_bitwise_the_jet_value(case):
    factor, domain = CASES[case]()
    with_jets = sample_grid(factor, domain, (37, 41), with_ricci=True)
    values = sample_grid(factor, domain, (37, 41), with_ricci=False)
    both = (with_jets.status == VALID) & (values.status == VALID)
    assert np.any(both)
    np.testing.assert_array_equal(values.omega[both], with_jets.omega[both])


def test_underflowing_cube_still_raises_like_the_reference():
    # Omega = exp(-562.5) > 0 at |x| = 0.75, but Omega^3 underflows to 0
    factor = factor_from_expression("exp(-1000*x^2)", 0.0)
    with pytest.raises(ZeroDivisionError):
        reference_grid(factor, BOX, (4, 4), True)
    with pytest.raises(ZeroDivisionError):
        sample_grid(factor, BOX, (4, 4))


DEFAULT_BLOCK_CELLS = analysis._BLOCK_CELLS
# 181 x 181 cells: round(181^2 / 16384) = 2 default bands, of 90 and 91
# rows (a rounded count of 2 needs more than 1.5 default bands of cells)
BLOCK_LATTICE = (181, 181)


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("case", ["readme", "sec2_overhang", "compact_liouville", "region"])
def test_outputs_do_not_depend_on_the_block_size(case, with_ricci, monkeypatch):
    factor, domain = CASES[case]()
    n_cells = BLOCK_LATTICE[0] * BLOCK_LATTICE[1]
    assert n_cells > 1.5 * DEFAULT_BLOCK_CELLS
    assert BLOCK_LATTICE[0] % round(n_cells / DEFAULT_BLOCK_CELLS) != 0
    outputs = []
    for block in (1, 7, 1024, DEFAULT_BLOCK_CELLS, n_cells + 1):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", block)
        grid = sample_grid(factor, domain, BLOCK_LATTICE, with_ricci=with_ricci)
        outputs.append([getattr(grid, name).tobytes()
                        for name in ("omega", "ricci", "s2", "status")])
    assert all(out == outputs[0] for out in outputs[1:])
    assert grid.n_valid > 0


class _BandSpy:
    """A rectangle that records the rows of every band it is asked about."""

    def __init__(self, box):
        self.box, self.rows = box, []

    def contains(self, t, x):
        self.rows.append(np.shape(t)[0])
        return self.box.contains(t, x)

    def bbox(self):
        return self.box.bbox()


@pytest.mark.parametrize("block", [DEFAULT_BLOCK_CELLS, 4096, 1024])
@pytest.mark.parametrize("side", [65, 91, 146, 177])
def test_bands_split_the_rows_evenly(side, block, monkeypatch):
    # k = round(cells / block) bands of whole rows, each of ceil(n_t / k)
    # or floor(n_t / k) rows: no sliver band of a row or two
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", block)
    spy = _BandSpy(BOX)
    sample_grid(factor_from_expression(README_R2, 2.0), spy, (side, side))
    k = max(1, round(side * side / block))
    assert len(spy.rows) == k and sum(spy.rows) == side
    assert set(spy.rows) <= {side // k, -(-side // k)}


def _spied(factor):
    """The factor, with the coordinate shapes of every evaluation recorded."""
    shapes = []

    def spy(fn):
        def call(a, b, status=None):
            shapes.append((np.shape(a), np.shape(b)))
            return fn(a, b, status)
        return call

    return dataclasses.replace(factor, value_fn=spy(factor.value_fn),
                               jet_fn=spy(factor.jet_fn)), shapes


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("case", ["sec2_overhang", "sec2_x_overhang"])
def test_strip_overhangs_stay_on_broadcast_coordinates(case, with_ricci):
    # a band that crosses the edge of the factor's strip is clipped to the
    # strip's rows and columns, and evaluated on a column of t against a
    # row of x, never on gathered flat arrays
    factor, domain = CASES[case]()
    factor, shapes = _spied(factor)
    grid = sample_grid(factor, domain, (37, 41), with_ricci=with_ricci)
    assert grid.n_domain_error > 0 and shapes
    for a, b in shapes:
        assert len(a) == 2 and a[1] == 1 and len(b) == 2 and b[0] == 1


def test_the_factors_own_domain_is_tested_once_per_cell():
    disc = Disc()
    factor = dataclasses.replace(factor_from_expression("1 + t^2"), domain=disc)
    grid = sample_grid(factor, None, (20, 20))
    assert disc.cells == 400
    assert grid.n_valid > 0 and grid.count(OUTSIDE) > 0


def _transient_bytes(factor, side):
    """Peak bytes allocated while sampling, less the returned arrays."""
    tracemalloc.start()
    try:
        grid = sample_grid(factor, None, (side, side), with_ricci=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = (grid.omega, grid.ricci, grid.s2, grid.status, grid.ts, grid.xs)
    return peak - sum(a.nbytes for a in kept)


def test_blocks_bound_the_transient_memory():
    # One band for the whole lattice makes the intermediate arrays grow
    # with it, about 9x from 300^2 to 900^2 cells.  Bands (5 and 49 of
    # them here) cap them at a band's worth; the 900^2 bands span a
    # narrower t range of the diamond, so more of their cells are inside
    # and evaluated, which the margin of 1.5 allows.  (With 2 bands, most
    # of each is outside the diamond: 200^2 holds 0.65x the transient
    # bytes of 600^2.)
    factor = compactify(flat_factor("1", "1"))
    assert 300 * 300 >= 2 * DEFAULT_BLOCK_CELLS
    small, large = _transient_bytes(factor, 300), _transient_bytes(factor, 900)
    assert 0 < large < 1.5 * small


def test_sampling_is_deterministic():
    factor, domain = CASES["compact_liouville"]()
    a = sample_grid(factor, domain, (30, 30))
    b = sample_grid(factor, domain, (30, 30))
    for name in ("omega", "ricci", "s2", "status"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# The one-pass constancy report against the nan-reduction report it replaced

def nan_reduction_report(grid, target):
    """(max_abs, mean, worst_point) as ``constancy_report`` computed them
    with numpy's nan-functions, verbatim."""
    dev = np.where(grid.status == VALID, grid.ricci - target, np.nan)
    flat = np.abs(dev).ravel()
    worst = int(np.nanargmax(flat))
    i, j = divmod(worst, dev.shape[1])
    max_abs = float(flat[worst])
    with np.errstate(over="ignore"):
        mean = float(np.nanmean(dev))
        if not math.isfinite(mean) and math.isfinite(max_abs):
            # the sum overflowed; the mean of dev / max_abs lies in [-1, 1]
            mean = float(np.nanmean(dev / max_abs)) * max_abs
    return max_abs, mean, (float(grid.ts[i]), float(grid.xs[j]))


def assert_report_is_the_nan_reduction(grid, target):
    report = analysis.constancy_report(grid, target)
    max_abs, mean, (t, x) = nan_reduction_report(grid, target)
    got = (report.max_abs_deviation, report.mean_deviation, *report.worst_point)
    assert struct.pack("4d", *got) == struct.pack("4d", max_abs, mean, t, x)
    assert report.n_valid == grid.n_valid


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_bitwise_the_nan_reduction(case):
    factor, domain = CASES[case]()
    grid = sample_grid(factor, domain, (37, 41))
    target = factor.target_curvature or 0.0
    for shift in (0.0, 0.25, -3.0):
        assert_report_is_the_nan_reduction(grid, target + shift)


def test_report_is_bitwise_the_nan_reduction_on_every_status():
    factor, _ = CASES["liouville_raw"]()
    factor = dataclasses.replace(factor, domain=Rectangle(-math.inf, math.inf, -0.6, 0.7))
    grid = sample_grid(factor, SmallDiamond(1.0), (37, 41))
    assert min(grid.n_valid, grid.n_singular, grid.n_domain_error, grid.count(OUTSIDE)) > 0
    for target in (2.0, 2.5, -1e300):
        assert_report_is_the_nan_reduction(grid, target)


def test_report_is_bitwise_the_nan_reduction_when_the_sum_overflows():
    rng = np.random.default_rng(19)
    shape = (23, 29)
    status = rng.choice(np.array([VALID, SINGULAR, DOMAIN_ERROR, OUTSIDE], dtype=np.int8),
                        size=shape, p=[0.7, 0.1, 0.1, 0.1])
    ricci = np.where(status == VALID, 1.7e308 * rng.uniform(-0.2, 1.0, shape), np.nan)
    grid = analysis.SampleGrid(
        factor=None, ts=np.linspace(-1.0, 1.0, shape[0]),
        xs=np.linspace(-1.0, 1.0, shape[1]), omega=np.ones(shape), ricci=ricci,
        s2=np.zeros(shape), status=status, with_ricci=True)
    for target in (0.0, 1e307, -1e306):
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.where(status == VALID, ricci - target, 0.0).sum())
        assert_report_is_the_nan_reduction(grid, target)
        # the dev / max_abs fallback gave a finite mean
        assert math.isfinite(analysis.constancy_report(grid, target).mean_deviation)


# ---------------------------------------------------------------------------
# Row bands on broadcast coordinates against the block sampler

FIELDS = ("omega", "ricci", "s2", "status")


def gathered_grid(factor, domain, resolution, with_ricci, block=4096):
    """(omega, ricci, s2, status) from the block sampler that row bands
    replaced: row-major blocks of ``block`` cells, each gathered into flat
    per-cell coordinate arrays and evaluated once."""
    t0, t1, x0, x1 = domain.bbox()
    n_t, n_x = resolution
    ts = t0 + (np.arange(n_t) + 0.5) * ((t1 - t0) / n_t)
    xs = x0 + (np.arange(n_x) + 0.5) * ((x1 - x0) / n_x)
    omega, ricci, s2 = (np.full(resolution, np.nan) for _ in range(3))
    status = np.full(resolution, OUTSIDE, dtype=np.int8)
    omega_c, ricci_c, s2_c, status_c = (arr.reshape(-1)
                                        for arr in (omega, ricci, s2, status))
    with np.errstate(all="ignore"):
        for start in range(0, n_t * n_x, block):
            cells = np.arange(start, min(start + block, n_t * n_x))
            a, b = ts[cells // n_x], xs[cells % n_x]
            inside = domain.contains(a, b)
            cells, a, b = cells[inside], a[inside], b[inside]
            in_factor = factor.domain.contains(a, b)
            status_c[cells[~in_factor]] = DOMAIN_ERROR
            cells, a, b = cells[in_factor], a[in_factor], b[in_factor]
            if cells.size == 0:
                continue
            code = np.full(cells.size, VALID, dtype=np.int8)
            if with_ricci:
                w = factor.jet(a, b, code)
                ricci_c[cells] = r = scalar_from_factor_jet(w, factor.chart)
                failed = np.isnan(r)
                om = np.where(failed, np.nan, w.value) if failed.any() else w.value
            else:
                om = factor.value(a, b, code)
            code[np.isnan(om) & (code == VALID)] = DOMAIN_ERROR
            omega_c[cells] = om
            s2_c[cells] = interval_from_omega(om, a, b, factor.chart)
            status_c[cells] = code
    return omega, ricci, s2, status


def assert_bands_match_blocks(factor, domain, resolution, with_ricci):
    """Every band size gives the block sampler's arrays bit for bit (NaN
    sign bits included), or both raise on an underflowing Omega^3."""
    n_cells = resolution[0] * resolution[1]
    try:
        want = [arr.tobytes() for arr in
                gathered_grid(factor, domain, resolution, with_ricci)]
    except ZeroDivisionError:
        want = None
    for band in (1, 7, DEFAULT_BLOCK_CELLS, n_cells + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BLOCK_CELLS", band)
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    sample_grid(factor, domain, resolution, with_ricci=with_ricci)
                continue
            grid = sample_grid(factor, domain, resolution, with_ricci=with_ricci)
        got = [getattr(grid, name).tobytes() for name in FIELDS]
        for name, g, w in zip(FIELDS, got, want):
            assert g == w, f"{name} differs at band size {band}"


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bands_match_the_block_sampler(case, with_ricci):
    factor, domain = CASES[case]()
    # two default bands, of 90 and 91 rows
    assert_bands_match_blocks(factor, domain, BLOCK_LATTICE, with_ricci)


def _formulas(names):
    leaf = st.one_of(st.sampled_from([Variable(n) for n in names]),
                     st.sampled_from([Constant(v) for v in (0.5, 2.0, -1.0, 3.0, 700.0)]))
    return st.recursive(leaf, _extend, max_leaves=6)


# formulas in one coordinate, evaluated once per row or column, and in both
VARIABLE_SETS = [("t",), ("x",), ("u",), ("v",), ("t", "x"), ("u", "v")]
# sec^2-like strips of the factor's own domain, which the box overhangs
STRIPS = [Rectangle(-0.6, 0.4, -math.inf, math.inf),
          Rectangle(-math.inf, math.inf, -0.3, 0.9)]
LATTICES = [(67, 71), (23, 5), (1, 9), (9, 1), (12, 3), (3, 40)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(VARIABLE_SETS).flatmap(_formulas), st.booleans(),
       st.sampled_from(["box", "strip_t", "strip_x", "diamond", "compact", "region"]),
       st.sampled_from(LATTICES))
def test_random_formulas_sample_like_the_block_sampler(tree, with_ricci, layout,
                                                       resolution):
    domain = BOX
    if layout.startswith("strip"):
        factor = dataclasses.replace(factor_from_expression(tree),
                                     domain=STRIPS[layout == "strip_x"])
    else:
        factor = factor_from_expression(tree)
    if layout == "diamond":
        domain = SmallDiamond(1.5)
    elif layout == "compact":
        factor, domain = compactify(factor), Diamond()
    elif layout == "region":
        domain = Disc()
    assert_bands_match_blocks(factor, domain, resolution, with_ricci)


def _slot_list(w):
    return [w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx] if isinstance(w, Jet2) else [w]


@pytest.mark.parametrize("case", sorted(CASES))
def test_broadcast_cells_get_fresh_arrays_of_their_shape(case):
    # a column of t against a row of x: the lattice between them, with
    # the bits of the same cells gathered into flat arrays.  The name is
    # older than the contract: a slot is no longer a fresh array but may be
    # a float, a row, a column or an input, and the inputs stay as they were
    factor, domain = CASES[case]()
    t0, t1, x0, x1 = domain.bbox()
    a = np.linspace(t0, t1, 6)[1:-1, None]
    b = np.linspace(x0, x1, 7)[None, 1:-1]
    inputs = a.tobytes(), b.tobytes()
    flat_a, flat_b = (arr.ravel() for arr in np.broadcast_arrays(a, b))
    for call in (factor.value, factor.jet):
        with np.errstate(all="ignore"):
            slots, flat = _slot_list(call(a, b)), _slot_list(call(flat_a, flat_b))
        for s, w in zip(slots, flat):
            assert np.broadcast_shapes(np.shape(s), (4, 5)) == (4, 5)
            assert (np.broadcast_to(s, (4, 5)).tobytes()
                    == np.broadcast_to(w, (20,)).tobytes())
    assert (a.tobytes(), b.tobytes()) == inputs
    # a float coordinate broadcasts too
    row = _slot_list(factor.jet(float(a[1, 0]), b))
    assert ([np.broadcast_to(s, (1, 5)).tobytes() for s in row]
            == [np.broadcast_to(s, (4, 5))[1:2].tobytes()
                for s in _slot_list(factor.jet(a, b))])


# ---------------------------------------------------------------------------
# Non-finite intermediates: a naive numpy path would call these cells valid

NON_FINITE_INTERMEDIATES = [
    "1 + 1/exp(1000*x)",       # 1/inf = 0
    "1 + sech(800*x)",         # cosh overflows, 1/cosh does not
    "1 + atan(exp(1000*x))",   # atan(inf) = pi/2
    "(1/exp(1000*x))^0",       # x^0 = 1 even on a failed base
    "x^-2",
    "2 + x^-2",
    "sqrt(x)",
    "1 + sqrt(x)",
    "log(x)",
    "2 + log(x)",
    "abs(x)",
    "2 + abs(x)",              # total on values, not differentiable at 0
    "x + log(-0.5)",           # a part that fails at every cell alike
    "2 + (-1)^0.5 * x",
]


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("source", NON_FINITE_INTERMEDIATES)
def test_non_finite_intermediates_match_reference(source, with_ricci):
    factor = factor_from_expression(source)
    # x runs over -1.1 ... 1.1 with x = 0 as a cell centre (odd cell count)
    domain = Rectangle(-1.0, 1.0, -1.1, 1.1)
    grid = assert_matches_reference(factor, domain, (3, 23), with_ricci)
    if with_ricci:
        assert grid.n_domain_error > 0


@pytest.mark.parametrize("with_ricci", [True, False])
def test_overflowing_partial_power_is_a_domain_error(with_ricci):
    # x^8 overflows inside the repeated product for x^-8, though 1/inf = 0
    # would give Omega = 1: every algebra rejects the partial product
    factor = factor_from_expression("1 + (x*1e40)^-8")
    grid = sample_grid(factor, Rectangle(-1.0, 1.0, 0.5, 1.5), (2, 2),
                       with_ricci=with_ricci)
    assert np.all(grid.status == DOMAIN_ERROR)
    with pytest.raises(DomainError):
        factor.value(0.0, 1.0)


_LEAF = st.one_of(st.sampled_from([Variable("t"), Variable("x")]),
                  st.sampled_from([Constant(v) for v in (0.5, 2.0, -1.0, 3.0, 700.0)]))


def _extend(children):
    return st.one_of(
        st.builds(lambda c: Unary("neg", c), children),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
        st.builds(lambda c, n: Binary("pow", c, Constant(n)), children,
                  st.sampled_from([-2.0, -1.0, 0.0, 0.5, 2.0, 3.0, 9.0])),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


BOXES = [Rectangle(-2.0, 2.0, -2.0, 2.0), Rectangle(-1.0, 1.0, -1.1, 1.1),
         Rectangle(-800.0, 800.0, -800.0, 800.0), Rectangle(-1e-3, 1e-3, -1e-3, 1e-3)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.recursive(_LEAF, _extend, max_leaves=8), st.booleans(),
       st.sampled_from(["tx", "uv", "compact"]), st.sampled_from(BOXES))
def test_random_formulas_classify_like_the_reference(tree, with_ricci, chart, box):
    if chart == "uv":
        tree = substitute(tree, {"t": Variable("u"), "x": Variable("v")})
    factor = factor_from_expression(tree)
    if chart == "compact":
        factor, box = compactify(factor), Diamond()
    try:
        omega, _, _, status = reference_grid(factor, box, (9, 11), with_ricci)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            sample_grid(factor, box, (9, 11), with_ricci=with_ricci)
        return
    grid = sample_grid(factor, box, (9, 11), with_ricci=with_ricci)
    if with_ricci:
        assert np.all(np.isfinite(grid.ricci[grid.status == VALID]))
    # Where the two differ, the sign of Omega must have been decided by
    # rounding: numpy's transcendental functions and math's differ in the
    # last bit, and e.g. cosh(t) - 1 cancels to +-1e-16.
    valid_omega = np.where(status == VALID, omega, grid.omega)
    differ = grid.status != status
    assert not np.any(differ & ~(np.abs(valid_omega) < 1e-12))


# ---------------------------------------------------------------------------
# Building blocks on arrays

def test_domains_test_membership_on_arrays():
    rng = np.random.default_rng(7)
    t = rng.uniform(-4.0, 4.0, 500)
    x = rng.uniform(-4.0, 4.0, 500)
    t[:3], x[:3] = (1.0, -1.0, 0.0), (2.0, 0.5, math.pi)   # boundary points
    for domain in (Rectangle(-1.0, 1.0, -2.0, 2.0), Diamond(), SmallDiamond(1.5),
                   Disc()):
        expect = [domain.contains(float(a), float(b)) for a, b in zip(t, x)]
        np.testing.assert_array_equal(domain.contains(t, x), expect)


def test_antiderivative_array_read_equals_float_reads(monkeypatch):
    monkeypatch.setattr(families, "MAX_DEPTH", 2)
    s = np.array([0.3, np.nan, -0.2, 1.5, 0.3, 0.05])
    scalar = Antiderivative("exp(-400*l^2)", tol=1e-13)
    expect = []
    for v in s:
        try:
            expect.append(math.nan if math.isnan(v) else scalar.value(float(v)))
        except QuadratureNonConvergence:
            expect.append(math.nan)
    assert any(math.isnan(e) for e in expect[2:])   # some quadratures fail
    got = Antiderivative("exp(-400*l^2)", tol=1e-13).value(s)
    np.testing.assert_array_equal(got, expect)


def _src_env() -> dict:
    """The environment with the package's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "lorentz2d", "--help"],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: lorentz2d" in proc.stdout


# ---------------------------------------------------------------------------
# Floating-point traps: an array evaluation runs once under numpy's traps,
# and again through the per-operation checks only when one fires

def _checks_only(monkeypatch):
    """Every array evaluation through the per-operation checks, as if every
    trapped attempt had trapped."""
    monkeypatch.setattr(jets, "on_cells", lambda fn, cells, *args: jets.checked_ops(fn, *args))


def _counted_fallbacks(monkeypatch) -> list:
    """The list that every later evaluation of a factor's ``value_fn`` or
    ``jet_fn`` through ``jets.checked_ops`` appends to (a quadrature's own
    samples go through it as well, and are not counted)."""
    calls, checked_ops = [], jets.checked_ops

    def counted(fn, *args):
        if fn.__name__ in ("value_fn", "jet_fn"):
            calls.append(fn)
        return checked_ops(fn, *args)

    monkeypatch.setattr(jets, "checked_ops", counted)
    return calls


def _grid_bytes(grid) -> tuple:
    return tuple(getattr(grid, name).tobytes() for name in FIELDS)


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trapped_sampling_is_bitwise_the_checked_sampling(case, with_ricci, monkeypatch):
    factor, domain = CASES[case]()
    fallbacks = _counted_fallbacks(monkeypatch)
    trapped = sample_grid(factor, domain, (37, 41), with_ricci=with_ricci)
    # no cell of these overflows: the one trapped attempt per band stands
    assert fallbacks == []
    _checks_only(monkeypatch)
    checked = sample_grid(factor, domain, (37, 41), with_ricci=with_ricci)
    assert fallbacks   # the forced path ran
    # NaN sign bits included
    assert _grid_bytes(trapped) == _grid_bytes(checked)


@pytest.mark.parametrize("source, with_ricci", [
    ("1 + 1/exp(1000*x)", True), ("1 + 1/exp(1000*x)", False),
    ("1 + atan(exp(800*x))", True), ("1 + atan(exp(800*x))", False),
    ("1 + 1e308*(t + t)", True),
])
def test_overflow_turned_finite_falls_back(source, with_ricci, monkeypatch):
    # exp overflows, and 1/inf = 0 or atan(inf) = pi/2 would read as valid;
    # in the last, the float product 1e308*2 of a constant and a partial
    # (d/dt of t + t) overflows, where no array operation sees it
    factor = factor_from_expression(source)
    domain = Rectangle(-1.0, 1.0, -1.1, 1.1)
    fallbacks = _counted_fallbacks(monkeypatch)
    grid = assert_matches_reference(factor, domain, (3, 23), with_ricci)
    assert len(fallbacks) == 1   # one band, trapped once
    assert grid.n_domain_error > 0
    _checks_only(monkeypatch)
    assert _grid_bytes(sample_grid(factor, domain, (3, 23), with_ricci=with_ricci)) \
        == _grid_bytes(grid)


def test_log_at_zero_stays_on_the_trapped_path(monkeypatch):
    # the middle column is x = 0 exactly, where log's partials divided by
    # the unrejected 0 and trapped, so the band ran again with every
    # operation checked, though the cell is rejected either way
    factor = factor_from_expression("1 + log(x)")
    domain = Rectangle(-1.0, 1.0, -1.1, 1.1)
    fallbacks = _counted_fallbacks(monkeypatch)
    grid = assert_matches_reference(factor, domain, (3, 23), True)
    assert grid.xs[11] == 0.0
    assert fallbacks == []
    assert grid.n_domain_error > 0
    _checks_only(monkeypatch)
    assert _grid_bytes(sample_grid(factor, domain, (3, 23))) == _grid_bytes(grid)


def test_trapped_jets_match_the_checked_jets_slot_for_slot(monkeypatch):
    # the jets themselves, not only the sampled fields: every slot of a
    # failed cell is +NaN on both paths
    t = np.linspace(-1.0, 1.0, 7)[:, None]
    x = np.linspace(-1.1, 1.1, 23)[None, :]
    factors = [factor_from_expression(source) for source in
               ("1 + 1e308*(t + t)", "log(1.5 - t^2 - x^2)", README_R2)]
    factors.append(compactify(flat_factor("1", "1")))

    def slots(w):
        return [np.broadcast_to(s, (7, 23)).tobytes() for s in
                (w.value, w.dt, w.dx, w.dtt, w.dtx, w.dxx)]

    trapped = [slots(f.jet(t, x)) for f in factors]
    _checks_only(monkeypatch)
    assert trapped == [slots(f.jet(t, x)) for f in factors]


def test_failed_integrand_beats_the_singular_band_under_traps(monkeypatch):
    # at (0, 0): u = 0, where the integrand e^(l/|l|) fails without an
    # overflow (a division by 0 is rejected before it is made), and D = 0;
    # a float evaluation raises for the integrand first, so the cell is a
    # domain error, though D's value (from F's table) is finite and in the band
    factor = liouville_factor("l/abs(l)", "0", 1.0, 0.0, 8.0)
    fallbacks = _counted_fallbacks(monkeypatch)
    grid = assert_matches_reference(factor, BOX, (3, 3), True)
    assert fallbacks == []
    assert grid.status[1, 1] == DOMAIN_ERROR
    _checks_only(monkeypatch)
    assert _grid_bytes(sample_grid(factor, BOX, (3, 3))) == _grid_bytes(grid)


def test_liouville_integrand_overflow_reads_the_table_of_float_reads(monkeypatch):
    # exp(500*l^2) overflows beyond |l| = 1.19, where atan(inf) = pi/2 would
    # be a finite sample to a table grown under traps: the quadrature must
    # see the failed integrand there, as it does when grown from float reads
    phi = "atan(exp(500*l^2))"
    factor = liouville_factor(phi, "0", 1.0, 3.0, -1.0)
    grid = assert_matches_reference(factor, BOX, (9, 11), True)
    assert 0 < grid.n_valid < grid.n_sampled
    s = np.linspace(-2.0, 2.0, 41)
    on_arrays = Antiderivative(f"exp({phi})")
    trapped = jets.on_cells(on_arrays.value, (s,), s)
    on_floats = Antiderivative(f"exp({phi})")
    expect = []
    for v in s:
        try:
            expect.append(on_floats.value(float(v)))
        except QuadratureNonConvergence:
            expect.append(math.nan)
    assert math.isnan(expect[-1])
    np.testing.assert_array_equal(trapped, expect)
    assert on_arrays.n_panels == on_floats.n_panels


def test_threads_trapping_and_falling_back_keep_the_serial_results():
    # numpy's error state and the trap flag are per thread: a thread whose
    # every band falls back must not change one that traps, or the reverse
    jobs = [(factor_from_expression(README_R2, 2.0), BOX),
            (factor_from_expression("1 + atan(exp(800*x))"), Rectangle(-1.0, 1.0, -1.1, 1.1))]
    serial = [_grid_bytes(sample_grid(f, d, (37, 41))) for f, d in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(lambda j: _grid_bytes(sample_grid(*jobs[j % 2], (37, 41))),
                                 range(40), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [serial[j % 2] for j in range(40)]


# ---------------------------------------------------------------------------
# Freed heap: glibc keeps a sample's freed band temporaries for the next one

def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Five warm samples of the compactified unit factor at 146^2, in a fresh
# process: what glibc trims depends on what the process freed before
_WARM_FAULTS = """
import resource
from lorentz2d.analysis import sample_grid
from lorentz2d.charts import compactify
from lorentz2d.families import flat_factor
factor = compactify(flat_factor("1", "1"))
sample_grid(factor, None, (146, 146))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    sample_grid(factor, None, (146, 146))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the trim threshold is glibc's")
def test_warm_sampling_takes_no_page_faults():
    proc = subprocess.run([sys.executable, "-c", _WARM_FAULTS], env=_src_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    # a trimmed heap faults every page of the bands' temporaries back in,
    # about 4000 faults over the five samples
    assert int(proc.stdout) < 100


class _Mallopt:
    """A stand-in for glibc's ``mallopt`` as ``ctypes`` hands it out (it
    takes ``argtypes`` and ``restype``): it records its calls and returns
    ``accepted``."""

    def __init__(self, accepted: int):
        self.calls, self.accepted = [], accepted

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.accepted


def _fake_libc(monkeypatch, accepted: int) -> list:
    """The calls that ``ctypes.CDLL(None).mallopt`` gets from now on."""
    mallopt = _Mallopt(accepted)
    monkeypatch.setattr(analysis.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return mallopt.calls


@pytest.mark.parametrize("failure", [AttributeError, ValueError, OSError, None])
def test_other_c_libraries_get_no_mallopt(failure, monkeypatch):
    # no os.confstr (Windows), no such name (macOS, musl), or no value
    def confstr(name):
        if failure is None:
            return None
        raise failure(name)

    monkeypatch.setattr(analysis.os, "confstr", confstr)
    calls = _fake_libc(monkeypatch, 1)
    analysis._keep_freed_heap()
    assert calls == []


@pytest.mark.parametrize("accepted", [1, 0])
def test_glibc_trim_threshold_only_beside_its_mmap_threshold(accepted, monkeypatch):
    # a trim threshold alone would pin the mmap threshold at 128 KiB
    monkeypatch.setattr(analysis.os, "confstr", lambda name: "glibc 2.36")
    calls = _fake_libc(monkeypatch, accepted)
    analysis._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)][:1 + accepted]
