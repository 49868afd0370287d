"""Array-at-a-time level sets against the one-cell-at-a-time reference.

``reference_level_sets`` is the per-cell marching-squares loop that
``extract_level_sets`` used to run: one cell at a time, one scalar
bisection per vertex through the float ``factor.value`` and its typed
exceptions, and polylines chained by walking a dict of adjacency lists
(``_chain_segments``).  The array path must return exactly the same
polylines (bitwise-equal vertices, same chaining order).  Polylines are
compared in their array form, as the nested lists of ``tolist()``; the
reference's lists of (t, x) tuples are converted the same way.  Grids are
sampled both with curvature (``with_ricci=True``, as ``lorentz2d
compactify`` draws them) and without (as ``lorentz2d contour`` does).
"""

import math

import numpy as np
import pytest

from lorentz2d.analysis import (
    DOMAIN_ERROR,
    VALID,
    LevelSet,
    SampleGrid,
    extract_level_sets,
    sample_grid,
)
from lorentz2d import families
from lorentz2d.charts import Diamond, Rectangle, compactify, interval_field
from lorentz2d.errors import EvaluationError
from lorentz2d.families import factor_from_expression, flat_factor, liouville_factor

DIAGRAM_LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
BOX3 = Rectangle(-3.0, 3.0, -3.0, 3.0)

# Segment endpoints per case; corners are bits 1=(i,j), 2=(i,j+1),
# 4=(i+1,j+1), 8=(i+1,j); edges are "b"ottom, "r"ight, "t"op, "l"eft.
_CASES = {
    0: (), 15: (),
    1: (("l", "b"),), 14: (("l", "b"),),
    2: (("b", "r"),), 13: (("b", "r"),),
    3: (("l", "r"),), 12: (("l", "r"),),
    4: (("t", "r"),), 11: (("t", "r"),),
    6: (("b", "t"),), 9: (("b", "t"),),
    7: (("l", "t"),), 8: (("l", "t"),),
}


def _cell_edges(i, j):
    return {
        "b": ((i, j), (i, j + 1)),
        "r": ((i, j + 1), (i + 1, j + 1)),
        "t": ((i + 1, j), (i + 1, j + 1)),
        "l": ((i, j), (i + 1, j)),
    }


# The refinement policy: bisect until |s^2 - level| <= 1e-3, for at most
# 60 midpoints, and prune a vertex whose best residual exceeds 1e-2.
REFINE_TARGET, RESIDUAL_BOUND, MAX_BISECTIONS = 1e-3, 1e-2, 60


def _refine_vertex(field, level, pa, fa, pb, fb):
    if fa == level:
        return pa
    if fb == level:
        return pb
    theta = (level - fa) / (fb - fa)
    guess = (pa[0] + theta * (pb[0] - pa[0]), pa[1] + theta * (pb[1] - pa[1]))
    try:
        fg = field(*guess)
    except EvaluationError:
        return None
    if abs(fg - level) <= REFINE_TARGET:
        return guess
    lo, flo, hi = pa, fa, pb
    if (flo < level) == (fg < level):
        lo, flo = guess, fg
    else:
        hi = guess
    best, best_res = guess, abs(fg - level)
    for _ in range(MAX_BISECTIONS):
        mid = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
        try:
            fm = field(*mid)
        except EvaluationError:
            return None
        res = abs(fm - level)
        if res < best_res:
            best, best_res = mid, res
        if res <= REFINE_TARGET:
            return mid
        if (flo < level) == (fm < level):
            lo, flo = mid, fm
        else:
            hi = mid
    return best if best_res <= RESIDUAL_BOUND else None


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


def reference_level_sets(grid, levels):
    """Polylines per level from the per-cell loop with scalar refinement."""
    s2 = grid.s2
    ok = grid.status == VALID
    n_t, n_x = s2.shape

    def field(a, b):
        return interval_field(grid.factor, a, b)

    result = []
    for level in levels:
        level = float(level)
        verts = {}
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
                        verts[key] = _refine_vertex(field, level, pa, fa, pb, fb)
        live = [seg for seg in segments
                if verts.get(seg[0]) is not None and verts.get(seg[1]) is not None]
        result.append(_chain_segments(live, verts))
    return result


def vertex_lists(ls) -> list:
    """A level set's (n, 2) polyline arrays as nested lists of floats."""
    return [p.tolist() for p in ls.polylines]


def as_vertex_lists(polylines) -> list:
    """Polylines given as sequences of (t, x) pairs, converted the same way."""
    return [np.asarray(p, dtype=float).reshape(-1, 2).tolist() for p in polylines]


def assert_matches_reference(grid, levels):
    """Exact polylines."""
    got = extract_level_sets(grid, levels)
    want = reference_level_sets(grid, levels)
    assert [ls.level for ls in got] == [float(level) for level in levels]
    for ls, polylines in zip(got, want):
        assert vertex_lists(ls) == as_vertex_lists(polylines), ls.level
    return got


def _raw_liouville():
    return liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                            raw_antiderivative=True)


GRIDS = {
    "classic_flat": lambda: (flat_factor("1", "1"), BOX3, DIAGRAM_LEVELS),
    "compact_flat": lambda: (compactify(flat_factor("1", "1")), Diamond(), DIAGRAM_LEVELS),
    "compact_liouville": lambda: (compactify(_raw_liouville()), Diamond(), DIAGRAM_LEVELS),
}


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("side", [37, 64])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_diagrams_match_reference(name, side, with_ricci):
    factor, domain, levels = GRIDS[name]()
    grid = sample_grid(factor, domain, (side, side), with_ricci=with_ricci)
    got = assert_matches_reference(grid, levels)
    assert sum(len(ls.polylines) for ls in got) > 0


@pytest.mark.parametrize("with_ricci", [True, False])
def test_null_chart_factor_matches_reference(with_ricci):
    factor = factor_from_expression("exp(u+v) * (exp(u) - (1/4)*exp(v))^(-2)", 2.0)
    grid = sample_grid(factor, Rectangle(-1.0, 1.0, -1.0, 1.0), (45, 41),
                       with_ricci=with_ricci)
    assert grid.chart == "uv"
    assert_matches_reference(grid, (-1.0, -0.25, 0.0, 0.25, 1.0))


def _saddle_levels(s2):
    """One level per cell that can be a saddle (case 5 or 10): the middle
    of the window between its two lower and its two higher corners."""
    c0, c1, c2, c3 = s2[:-1, :-1], s2[:-1, 1:], s2[1:, 1:], s2[1:, :-1]
    levels = []
    for high, low in ((np.minimum(c0, c2), np.maximum(c1, c3)),
                      (np.minimum(c1, c3), np.maximum(c0, c2))):
        window = high > low
        levels += (0.5 * (high[window] + low[window])).tolist()
    return sorted(levels)


@pytest.mark.parametrize("with_ricci", [True, False])
def test_dense_saddles_match_reference(with_ricci):
    factor = factor_from_expression("2 + sin(5*t)*sin(5*x)")
    grid = sample_grid(factor, Rectangle(-2.0, 2.0, -2.0, 2.0), (64, 64),
                       with_ricci=with_ricci)
    levels = _saddle_levels(grid.s2)
    # saddles of both cases, with the centre above and below the level
    s2 = grid.s2
    centres = set()
    for level in levels:
        above = s2 >= level
        case = (above[:-1, :-1] + 2 * above[:-1, 1:] + 4 * above[1:, 1:]
                + 8 * above[1:, :-1])
        for i, j in zip(*np.nonzero((case == 5) | (case == 10))):
            mean = (s2[i, j] + s2[i, j + 1] + s2[i + 1, j + 1] + s2[i + 1, j]) / 4.0
            centres.add((int(case[i, j]), bool(mean >= level)))
    assert centres == {(5, True), (5, False), (10, True), (10, False)}
    assert_matches_reference(grid, levels)


@pytest.mark.parametrize("with_ricci", [True, False])
def test_level_zero_exact_hits_match_reference(with_ricci):
    grid = sample_grid(flat_factor("1", "1"), BOX3, (40, 40), with_ricci=with_ricci)
    assert np.any(grid.s2 == 0.0)
    (ls,) = assert_matches_reference(grid, [0.0])
    assert ls.polylines


@pytest.mark.parametrize("with_ricci", [True, False])
def test_pole_grid_matches_reference(with_ricci):
    factor = factor_from_expression("(x + t - 1)^(-2)")
    grid = sample_grid(factor, Rectangle(-2.0, 2.0, -2.0, 2.0), (60, 60),
                       with_ricci=with_ricci)
    assert grid.n_domain_error > 0
    assert_matches_reference(grid, [0.5, -1.0])


def _jump_grid(with_ricci=False):
    # Omega jumps from ~0 to ~e^40 across x + t = 1, where no cell centre
    # lies: the cells straddling it have a crossing that is no level point
    factor = factor_from_expression("exp(1/(x + t - 1))")
    return sample_grid(factor, Rectangle(-2.0, 2.0, -2.0, 2.0), (41, 41),
                       with_ricci=with_ricci)


@pytest.mark.parametrize("with_ricci", [True, False])
def test_jump_grid_matches_reference(with_ricci):
    assert_matches_reference(_jump_grid(with_ricci), [0.5, 2.0])


@pytest.mark.parametrize("with_ricci", [True, False])
def test_shifted_liouville_matches_reference(with_ricci, monkeypatch):
    monkeypatch.setattr(families, "SINGULAR_EPS", 0.05)
    factor = liouville_factor("0.1*l", "0.05*sin(l)", 1.0, 0.0, 2.0)
    grid = sample_grid(factor, Rectangle(-1.0, 1.0, -2.0, 2.0), (17, 21),
                       with_ricci=with_ricci)
    assert_matches_reference(grid, (-0.5, 0.25, 1.0))


@pytest.mark.parametrize("with_ricci", [True, False])
@pytest.mark.parametrize("resolution", [(1, 7), (7, 1), (1, 1)])
def test_degenerate_lattices_have_no_segments(resolution, with_ricci):
    grid = sample_grid(flat_factor("1", "1"), BOX3, resolution, with_ricci=with_ricci)
    (ls,) = assert_matches_reference(grid, [0.0])
    assert vertex_lists(ls) == [] and ls.n_pruned == 0


@pytest.mark.parametrize("with_ricci", [True, False])
def test_two_by_two_with_an_invalid_corner(with_ricci):
    # corners (t, x) = (+-1.5, 0.5), (+-1.5, 3.5): s^2 = -2 and 10; the one
    # cell of the lattice loses its (1.5, 3.5) corner
    bounds = (-3.0, 3.0, -1.0, 5.0)

    class Notched:
        """``bounds`` less its quadrant t > 0, x > 2."""

        def contains(self, t, x):
            return ~((t > 0) & (x > 2))

        def bbox(self):
            return bounds

    domain = Notched()
    grid = sample_grid(flat_factor("1", "1"), domain, (2, 2), with_ricci=with_ricci)
    assert grid.n_valid == 3
    full = sample_grid(flat_factor("1", "1"), Rectangle(*bounds), (2, 2),
                       with_ricci=with_ricci)
    (ls,) = assert_matches_reference(grid, [1.0])
    assert vertex_lists(ls) == []
    (ls,) = assert_matches_reference(full, [1.0])
    assert ls.polylines


def _square_grid(corners, factor=None):
    """A hand-built 2x2 lattice on t, x in {0, 1} (flat unless ``factor``
    is given); ``corners`` lists the stored s^2 at (0,0), (0,1), (1,1), (1,0)."""
    c0, c1, c2, c3 = corners
    s2 = np.array([[c0, c1], [c3, c2]])
    return SampleGrid(factor=factor or flat_factor("1", "1"),
                      domain=Rectangle(-0.5, 1.5, -0.5, 1.5),
                      chart="tx", ts=np.array([0.0, 1.0]), xs=np.array([0.0, 1.0]),
                      omega=np.ones((2, 2)), ricci=np.full((2, 2), np.nan), s2=s2,
                      status=np.full((2, 2), VALID, dtype=np.int8), with_ricci=False)


def _bilinear_grid(corners):
    """A hand-built 2x2 lattice on t in {0, 1}, x in {2, 3} whose field s^2
    is the bilinear interpolant of ``corners`` + 10 (at (0,2), (0,3), (1,3),
    (1,2)): linear along every edge, so that each linear guess is already
    the crossing and refinement keeps it."""
    c0, c1, c2, c3 = (c + 10.0 for c in corners)
    field = f"{c0} + {c1 - c0}*(x - 2) + {c3 - c0}*t + {c0 - c1 + c2 - c3}*t*(x - 2)"
    grid = _square_grid(corners, factor_from_expression(f"({field})/(x^2 - t^2)"))
    grid.s2 += 10.0
    grid.xs += 2.0
    return grid


# Linear crossings at level 0 for corners (+-3, -+1) with the centre above,
# or (+-1, -+3) with the centre below: bottom b, right r, top t, left l.
# ``_bilinear_grid`` moves the level to 10 and x by 2.
@pytest.mark.parametrize("corners, polylines", [
    # case 5, centre above: l-t and b-r
    ((3.0, -1.0, 3.0, -1.0), [[(0.75, 0.0), (1.0, 0.25)], [(0.0, 0.75), (0.25, 1.0)]]),
    # case 5, centre below: l-b and t-r
    ((1.0, -3.0, 1.0, -3.0), [[(0.25, 0.0), (0.0, 0.25)], [(1.0, 0.75), (0.75, 1.0)]]),
    # case 10, centre above: l-b and t-r
    ((-1.0, 3.0, -1.0, 3.0), [[(0.25, 0.0), (0.0, 0.25)], [(1.0, 0.75), (0.75, 1.0)]]),
    # case 10, centre below: b-r and l-t
    ((-3.0, 1.0, -3.0, 1.0), [[(0.0, 0.75), (0.25, 1.0)], [(0.75, 0.0), (1.0, 0.25)]]),
])
def test_saddle_cells(corners, polylines):
    (ls,) = assert_matches_reference(_bilinear_grid(corners), [10.0])
    assert vertex_lists(ls) == [[[t, x + 2.0] for t, x in p] for p in polylines]
    assert ls.n_pruned == 0


def test_exact_hit_keeps_its_lattice_point():
    # the stored s^2 at (0, 0) is the level, though the field there is 0:
    # the vertex on the left edge is that lattice point, with no evaluation
    grid = _square_grid((-0.5, 1.0, 0.0, -1.0))
    (ls,) = assert_matches_reference(grid, [-0.5])
    ((start, end),) = vertex_lists(ls)
    assert start == [0.0, 0.0]
    assert end[0] == 1.0 and abs(end[1] ** 2 - 1.0 + 0.5) <= 1e-3


def test_nan_corner_is_below_every_level():
    # as in an ``s2 >= level`` mask: at 0.5 the other three corners are
    # above (case 14), at 2.5 only (1, 0) is (case 8); the crossings on
    # the edges out of the NaN corner get NaN vertices, which are pruned,
    # and the flat field never reaches 2.5 on the top edge
    grid = _square_grid((math.nan, 1.0, 2.0, 3.0))
    low, high = extract_level_sets(grid, [0.5, 2.5])
    assert (low.n_pruned, high.n_pruned) == (2, 2)
    assert vertex_lists(low) == [] and vertex_lists(high) == []


def test_failed_field_value_prunes_the_vertex():
    # Omega is NaN for 0.35 < x < 0.55, where both edges' linear guesses
    # (x = 0.5) land; bisecting on past them would find the level at
    # t = 0, x ~ 0.2, but a failed evaluation prunes the vertex at once
    factor = factor_from_expression("1 + sqrt((x - 0.45)^2 - 0.01)")
    grid = _square_grid((-0.45, 0.55, 0.55, -0.45), factor)
    (ls,) = assert_matches_reference(grid, [0.05])
    assert vertex_lists(ls) == [] and ls.n_pruned == 2 and ls.bisections == 2


def test_level_set_diagnostics_on_the_jump_grid():
    grid = _jump_grid()
    (ls,) = extract_level_sets(grid, [0.5])
    assert ls.polylines
    assert ls.n_pruned > 0
    assert 0.0 <= ls.max_residual <= 1e-3
    n_vertices = sum(len(p) for p in ls.polylines)
    assert ls.bisections >= n_vertices


def test_level_set_defaults():
    ls = LevelSet(1.0, [])
    assert ls.n_pruned == 0 and ls.bisections == 0 and math.isnan(ls.max_residual)
    grid = sample_grid(flat_factor("1", "1"), BOX3, (20, 20), with_ricci=False)
    (empty,) = extract_level_sets(grid, [100.0])
    assert vertex_lists(empty) == [] and math.isnan(empty.max_residual)


@pytest.mark.parametrize("factor, domain, resolution, levels", [
    (lambda: flat_factor("1", "1"), BOX3, (37, 37), DIAGRAM_LEVELS),
    (lambda: compactify(_raw_liouville()), Diamond(), (48, 48), DIAGRAM_LEVELS),
    # pruned vertices
    (lambda: factor_from_expression("exp(1/(x + t - 1))"),
     Rectangle(-2.0, 2.0, -2.0, 2.0), (41, 41), [0.5, 2.0]),
    # the smallest polyline: one segment across a 2x2 lattice, near
    # (-0.5, 0.5) to (0.5, 0.5)
    (lambda: flat_factor("1", "1"), Rectangle(-1.0, 1.0, -1.0, 3.0), (2, 2), [0.0]),
    # no edges at all
    (lambda: flat_factor("1", "1"), BOX3, (1, 7), []),
], ids=["classic_flat", "compact_liouville", "jump", "one-segment", "one-row"])
@pytest.mark.parametrize("with_ricci", [True, False])
def test_polylines_are_float64_views_of_one_vertex_array(factor, domain, resolution,
                                                          levels, with_ricci):
    grid = sample_grid(factor(), domain, resolution, with_ricci=with_ricci)
    # each call also asks for a level that the field never reaches
    sets = extract_level_sets(grid, [*levels, 1e300])
    assert sets[-1].polylines == []
    polylines = [p for ls in sets for p in ls.polylines]
    assert bool(polylines) == bool(levels)
    for p in polylines:
        assert type(p) is np.ndarray and p.dtype == np.float64
        # a segment joins two distinct crossings: no polyline is shorter
        assert p.ndim == 2 and p.shape[1] == 2 and p.shape[0] >= 2
        assert p.base is polylines[0].base
    if polylines:
        assert polylines[0].base.shape == (sum(len(p) for p in polylines), 2)


def test_level_sets_compare_by_identity():
    vertices = np.array([[0.0, 1.0], [0.5, 1.5]])
    first = LevelSet(1.0, [vertices])
    twin = LevelSet(1.0, [vertices.copy()])
    assert first == first and not first != first
    assert first != twin and not first == twin
    grid = sample_grid(flat_factor("1", "1"), BOX3, (20, 20), with_ricci=False)
    once, again = (extract_level_sets(grid, [1.0, -1.0]) for _ in range(2))
    assert once != again and once == once
    assert [vertex_lists(ls) for ls in once] == [vertex_lists(ls) for ls in again]


def test_invalid_cells_take_no_part():
    grid = sample_grid(flat_factor("1", "1"), BOX3, (30, 30), with_ricci=False)
    grid.status[10:20, 10:20] = DOMAIN_ERROR
    assert_matches_reference(grid, [-1.0, 0.0, 1.0])


BATCH_GRIDS = {
    "jump": lambda: sample_grid(factor_from_expression("exp(1/(x + t - 1))"),
                                Rectangle(-2.0, 2.0, -2.0, 2.0), (61, 61),
                                with_ricci=False),
    "compact_liouville": lambda: sample_grid(compactify(_raw_liouville()), Diamond(),
                                             (48, 48), with_ricci=False),
}


@pytest.mark.parametrize("name", sorted(BATCH_GRIDS))
def test_levels_refined_together_match_levels_alone(name):
    grid = BATCH_GRIDS[name]()
    nowhere = 2.0 * float(np.nanmax(np.abs(grid.s2)))
    levels = [0.5, *DIAGRAM_LEVELS, nowhere, 0.5, -1.0]
    together = extract_level_sets(grid, levels)
    alone = [extract_level_sets(grid, [level])[0] for level in levels]
    assert len(together) == len(levels)
    for got, want in zip(together, alone):
        assert got.level == want.level
        assert vertex_lists(got) == vertex_lists(want), got.level
        assert got.n_pruned == want.n_pruned, got.level
        assert got.bisections == want.bisections, got.level
        assert (got.max_residual == want.max_residual
                or math.isnan(got.max_residual) and math.isnan(want.max_residual))
    assert vertex_lists(together[len(levels) - 3]) == []
    assert extract_level_sets(grid, []) == []
    if name == "jump":
        assert any(ls.n_pruned for ls in together)
