"""Grid sampling, constancy reports, level-set extraction, and exports.

A ``SampleGrid`` evaluates a factor at cell centres of a regular lattice
over a domain's bounding box.  Cells outside the domain are marked and
excluded from all counts; cells inside are valid, singular (denominator
SINGULAR_EPS band) or domain errors (poles, non-positive factor, overflow,
quadrature failure).  Sampling splits the lattice into
round(n_t * n_x / ``_BLOCK_CELLS``) bands of whole rows, whose row counts
differ by at most one, and clips each band to the rows and columns of its
cells inside both the domain and the factor's domain.  When every cell of
that rectangle is, the band is evaluated once on broadcast coordinates, a
column of t against a row of x, so that a formula in one coordinate (a
sech^2 in x, an e^{phi} in u alone after the pullback) is evaluated once
per row or column instead of once per cell, also where a band crosses the
edge of a strip; otherwise its evaluable cells are gathered into flat
arrays.  Every cell gets the status, value and curvature that evaluating
it alone with floats would give (up to the last bits of numpy's
transcendental functions), and no output depends on the band size or on
which of the two ways a band took.  A band is large enough to spread
numpy's fixed cost per call over many cells, and small enough to bound
the peak memory whatever the number of rows (a row of more than
``_BLOCK_CELLS`` cells is a band of its own).  The memory a band frees
stays resident for the next band and the next sample: on glibc, importing
this module tells the allocator to keep up to 64 MiB of freed heap
(``_keep_freed_heap``), so a sample does not take a page fault for every
page of its temporaries.  Sampling is deterministic:
two runs with the same inputs produce bitwise-identical arrays.

``constancy_report`` aggregates the curvature deviation from a target
constant in one pass over the lattice, with the bits of numpy's
nan-reductions.  ``extract_level_sets`` runs marching squares on the
interval field s^2 = Omega (x^2 - t^2) on whole arrays: per level, the cells
whose lowest and highest corners straddle it get a case from their
``s2 >= level`` corner bits, saddle cells are resolved by the average of
their four corners, and a small table turns cases into segments between
numbered lattice edges.  Each crossing edge gets one vertex, polished by
bisection along the edge against the directly evaluated field; the
crossings of all levels bisect in one lockstep batch, each against its
own level.  A vertex is *pruned*, with its segments, when its best
residual misses the bound or the field fails (NaN) on the way: such a
crossing is a jump of the field across a singular curve, not a point of
the level set.  Segments are chained into polylines by pairing their
ends through an argsort of their crossing ids and following the pairs.

A level set's polylines are (n, 2) float arrays, t then x: the chained
vertices of all levels are stacked into one array and each polyline is a
view into it, so no vertex becomes a Python tuple on the way.

Exports: grid -> CSV (its first two columns t, x or, for a null-chart
factor, u, v), report -> JSON, level sets -> CSV or SVG, each built from
``tolist()`` arrays.  The level-set exporters concatenate the
polylines into one (N, 2) float array (a hand-built polyline, a list of
(t, x) pairs or an array, is read with ``np.asarray``), call ``repr``
(round-trip) once per distinct CSV coordinate and do the SVG pixel maths
on that array; a level is printed as ``float(level)``.  The SVG maps the
domain onto a fixed 800x800 viewport, one path per polyline tagged with
a ``data-level`` attribute.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .charts import coordinate_names, interval_field, interval_from_omega
from .curvature import scalar_from_factor_jet
from .errors import (
    DOMAIN_ERROR,
    OUTSIDE,
    SINGULAR,
    VALID,
    EmptyDomain,
    NoValidSamples,
)

# Lattice cells per band: a lattice is split into round(n_t * n_x /
# _BLOCK_CELLS) bands of whole rows (at least 1, at most n_t).  A band pays
# a fixed cost, the numpy calls of its jet ops: on a 64^2 lattice split
# into 1 to 8 bands (one pinned core of a 2-vCPU VM), 0.13-0.48 ms per band
# for the verify_grid kinds, against 0.07-0.70 ms for the cells of a
# 4096-cell band.  Against 4096, the six kinds at their benchmark sides
# took 0.81-0.89x at 8192, 0.70-0.82x at 12288, 0.73-0.76x at 16384 and
# 0.72-0.77x at 24576-32768 (two sweeps, median of 21 each; one kind alone
# moves by +-20%).  The intermediate arrays grow with the band all the
# same: 1.4 / 2.8 / 5.6 / 8.2 MB on a 300^2 jet sample of the compactified
# unit factor at 4096 / 8192 / 16384 / 32768, and 13.6 MB in one band.
# Those bytes are freed when a band ends and stay resident for the next
# (``_keep_freed_heap``).
_BLOCK_CELLS = 16384


def _keep_freed_heap() -> None:
    """Tell glibc to keep up to 64 MiB of freed heap instead of returning it.

    By default glibc trims the free top of the heap once it passes a
    dynamic threshold of twice the largest freed mmap chunk, a few hundred
    KB here, so a band's temporaries (1.5-3 MB) went back to the kernel
    when each sample ended and the next sample took a zero-filled page
    fault for every page of them: 106-491 minor faults of about 1 us each
    per sample of the ``verify_grid`` kinds at their benchmark sides, the
    flat pair excepted.  Setting the
    trim threshold alone would turn the dynamic mmap threshold off and pin
    it at 128 KiB, so larger arrays would be mmapped and faulted on every
    use: the mmap threshold is set first, and the trim threshold only when
    glibc took it (it refuses 32 MiB on 32-bit builds).  Other C libraries
    are left as they are.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) at the 64-bit ceiling of glibc's own dynamic
    # threshold, then M_TRIM_THRESHOLD (-1) at twice that, where its
    # dynamic rule would put it
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


_keep_freed_heap()

_CSV_COLUMNS = "omega,R,s2,valid"


@dataclass
class SampleGrid:
    """Cell-centred samples of a factor over a domain's bounding box.

    Arrays are indexed [i, j] with first coordinate ``ts[i]`` and second
    ``xs[j]`` (t and x in the standard and compact charts, u and v in
    the null chart: the chart is ``factor.chart``).  Invalid cells hold
    NaN in the field arrays.  The grid keeps its factor, not the domain
    it was sampled on.
    """

    factor: object
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

    def require_valid(self) -> int:
        """The number of valid cells; ``NoValidSamples`` when there is none."""
        n_valid = self.n_valid
        if n_valid == 0:
            raise NoValidSamples(
                f"grid has no valid cells ({self.n_singular} singular, "
                f"{self.n_domain_error} domain errors)")
        return n_valid


def sample_grid(factor, domain=None, resolution: tuple[int, int] = (50, 50),
                with_ricci: bool = True) -> SampleGrid:
    """Evaluate ``factor`` at the cell centres of an n_t x n_x lattice.

    ``domain`` defaults to the factor's own domain and must be bounded.
    With ``with_ricci`` the factor is evaluated as a jet and the scalar
    curvature stored, and a cell whose curvature is not finite is a
    domain error (NaN Omega, R and s^2), so that every valid cell holds a
    finite R; without it only values are computed (cheaper for contour
    work).
    """
    domain = domain if domain is not None else factor.domain
    t0, t1, x0, x1 = domain.bbox()
    if not all(math.isfinite(v) for v in (t0, t1, x0, x1)):
        raise ValueError(f"sampling needs a bounded domain, got {domain!r}")
    if not (math.isfinite(t1 - t0) and math.isfinite(x1 - x0)):
        raise ValueError(f"the width of {domain!r} overflows a float")
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

    chart = factor.chart
    sampled = 0
    own = domain == factor.domain   # then one membership test is enough
    # bands of whole rows whose row counts differ by at most one
    n_bands = min(n_t, max(1, round(n_t * n_x / _BLOCK_CELLS)))
    edges = [k * n_t // n_bands for k in range(n_bands + 1)]
    # overflow and invalid results are poisoned (NaN) cells, not warnings
    with np.errstate(all="ignore"):
        for i0, i1 in zip(edges, edges[1:]):
            band = slice(i0, i1)
            t, x = ts[band, None], xs[None, :]
            inside = domain.contains(t, x)
            sampled += np.count_nonzero(inside)
            ok = inside if own else inside & factor.domain.contains(t, x)
            status[band][inside & ~ok] = DOMAIN_ERROR
            # the band's evaluable cells span the rows [r0, r1), columns [j0, j1)
            rows, cols = np.flatnonzero(ok.any(axis=1)), np.flatnonzero(ok.any(axis=0))
            if rows.size == 0:
                continue
            r0, r1 = i0 + int(rows[0]), i0 + int(rows[-1]) + 1
            j0, j1 = int(cols[0]), int(cols[-1]) + 1
            ok = ok[r0 - i0:r1 - i0, j0:j1]
            if ok.all():
                # a formula in one coordinate is evaluated on that coordinate
                cells = (slice(r0, r1), slice(j0, j1))
                a, b = ts[r0:r1, None], xs[None, j0:j1]
            else:
                rr, cc = np.nonzero(ok)
                cells = (rr + r0, cc + j0)
                a, b = ts[cells[0]], xs[cells[1]]
            code = np.full(np.broadcast_shapes(a.shape, b.shape), VALID, dtype=np.int8)
            if with_ricci:
                w = factor.jet(a, b, code)
                ricci[cells] = r = scalar_from_factor_jet(w, chart)
                # R is NaN where Omega failed and where R alone is not
                # finite: both are domain errors
                failed = np.isnan(r)
                om = np.where(failed, np.nan, w.value) if failed.any() else w.value
            else:
                om = factor.value(a, b, code)
            code[np.isnan(om) & (code == VALID)] = DOMAIN_ERROR
            omega[cells] = om
            s2[cells] = interval_from_omega(om, a, b, chart)
            status[cells] = code

    if sampled == 0:
        raise EmptyDomain(
            f"no cell centres of a {n_t}x{n_x} lattice fall inside {domain!r}")
    return SampleGrid(factor=factor, ts=ts, xs=xs, omega=omega, ricci=ricci,
                      s2=s2, status=status, with_ricci=with_ricci)


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
    if math.isnan(target):
        raise ValueError("the target curvature is NaN")
    if not grid.with_ricci:
        raise ValueError("grid was sampled without curvature; "
                         "use sample_grid(..., with_ricci=True)")
    n_valid = grid.require_valid()
    valid = grid.status == VALID

    # deviations are 0 off the valid cells, the array np.nanmean summed (so
    # the mean keeps its bits), and -1 there in |dev| loses every argmax
    dev = np.where(valid, grid.ricci - target, 0.0)
    worst = int(np.argmax(np.where(valid, np.abs(dev), -1.0)))
    i, j = divmod(worst, dev.shape[1])
    max_abs = float(abs(dev[i, j]))
    with np.errstate(over="ignore"):
        mean = float(dev.sum() / n_valid)
        if not math.isfinite(mean) and math.isfinite(max_abs):
            # the sum overflowed; the mean of dev / max_abs lies in [-1, 1]
            mean = float((dev / max_abs).sum() / n_valid) * max_abs
    return CurvatureReport(
        target_R=float(target),
        tolerance=float(tolerance),
        passed=bool(max_abs <= tolerance),
        n_valid=n_valid,
        n_singular=grid.n_singular,
        n_domain_error=grid.n_domain_error,
        max_abs_deviation=max_abs,
        mean_deviation=mean,
        worst_point=(float(grid.ts[i]), float(grid.xs[j])),
    )


# ---------------------------------------------------------------------------
# Level sets

@dataclass(eq=False)
class LevelSet:
    """Polylines of s^2 = level.  Each polyline is an (n, 2) float64 array
    of its vertices, columns t then x (u then v in the null chart); those
    of ``extract_level_sets`` are views into one array per call, and a
    hand-built one may be any sequence of (t, x) pairs.  ``n_pruned``
    counts the crossing edges whose vertex was dropped, ``max_residual``
    is the largest |s^2 - level| of a kept vertex (NaN if none) and
    ``bisections`` the field evaluations that refinement spent.  Level
    sets compare by identity (``==`` is ``is``): to compare contents,
    compare ``[p.tolist() for p in ls.polylines]`` and the other fields."""

    level: float
    polylines: list
    n_pruned: int = 0
    max_residual: float = math.nan
    bisections: int = 0


# Marching squares.  A cell's corners are bits 1=(i,j), 2=(i,j+1),
# 4=(i+1,j+1), 8=(i+1,j) of its case; its edges are codes 0=bottom
# (i,j)-(i,j+1), 1=right (i,j+1)-(i+1,j+1), 2=top (i+1,j)-(i+1,j+1) and
# 3=left (i,j)-(i+1,j).  Row ``case + 16 * center_in`` of the table holds
# the cell's segments as edge-code pairs, -1 where there is none; only
# the saddle cases 5 and 10 depend on whether the average of the four
# corners is at or above the level.
_B, _R, _T, _L = range(4)
_SEGMENTS = np.full((32, 2, 2), -1, dtype=np.int8)
for _case, _pair in ((1, (_L, _B)), (2, (_B, _R)), (3, (_L, _R)),
                     (4, (_T, _R)), (6, (_B, _T)), (7, (_L, _T))):
    _SEGMENTS[[_case, 15 - _case, 16 + _case, 31 - _case], 0] = _pair
_SEGMENTS[[5, 10 + 16]] = ((_L, _B), (_T, _R))
_SEGMENTS[10], _SEGMENTS[5 + 16] = ((_B, _R), (_L, _T)), ((_L, _T), (_B, _R))
del _case, _pair


def _crossing_segments(s2, low, high, level: float):
    """(first, second) edge ids of every marching-squares segment.

    ``low`` and ``high`` hold each cell's lowest and highest corner, row
    major, ``high`` -inf where a cell takes no part; only cells with a
    corner at or above the level and one below get a case.  Edge ids
    number the horizontal lattice edges (i,j)-(i,j+1) row-major first,
    then the vertical ones (i,j)-(i+1,j).  Segments come in row-major
    cell order, in the table's order within a cell.
    """
    n_x = s2.shape[1]
    # not ``low < level``: a NaN corner makes ``low`` NaN and is below
    cells = np.flatnonzero((high >= level) & ~(low >= level))   # = bottom edge ids
    corner = cells + cells // (n_x - 1)   # flat lattice index of (i, j)
    c0, c1, c2, c3 = (s2.ravel()[k] for k in (corner, corner + 1, corner + n_x + 1,
                                              corner + n_x))
    center = ((((c0 + c1) + c2) + c3) / 4.0) >= level
    case = ((c0 >= level).view(np.uint8) | ((c1 >= level).view(np.uint8) << 1)
            | ((c2 >= level).view(np.uint8) << 2) | ((c3 >= level).view(np.uint8) << 3)
            | (center.view(np.uint8) << 4))
    codes = _SEGMENTS[case].astype(np.intp)   # (cell, pair, end)
    left = s2.shape[0] * (n_x - 1) + corner
    edges = np.stack([cells, left + 1, cells + n_x - 1, left], axis=1)
    ids = np.take_along_axis(edges, codes.reshape(-1, 4), axis=1)
    ids = ids.reshape(-1, 2, 2)[codes[:, :, 0] >= 0]
    return ids[:, 0], ids[:, 1]


def _edge_ends(edges, n_t: int, n_x: int):
    """Lattice indices (ia, ja, ib, jb) of the two ends of ``edges``."""
    vertical = edges >= n_t * (n_x - 1)
    ia, ja = np.where(vertical, np.divmod(edges - n_t * (n_x - 1), n_x),
                      np.divmod(edges, n_x - 1))
    return ia, ja, ia + vertical, ja + ~vertical


# The refinement policy: a vertex bisects along its edge until
# |s^2 - level| <= _REFINE_TARGET, for at most _MAX_BISECTIONS midpoints,
# and is pruned when its best residual exceeds _RESIDUAL_BOUND, the bound
# that acceptance criterion 10 holds every vertex to.
_REFINE_TARGET = 1e-3
_RESIDUAL_BOUND = 1e-2
_MAX_BISECTIONS = 60


def _refine(factor, level, t, x, pa, pb, fa, fb):
    """Locate s^2 = level on every crossing edge pa-pb at once.

    ``level`` holds each edge's level, so that the edges of all levels
    refine in one lockstep batch; bisection works element by element, so
    an edge gets the same vertex as it would alone.  ``pa``/``pb`` are
    (t, x) array pairs with exact field values ``fa``/``fb``; ``t``/``x``
    hold the linear guesses and are moved in place to the vertices.  An
    exact endpoint is kept as is; other edges bisect in lockstep until
    |s^2 - level| meets ``_REFINE_TARGET``, else keep their best point if
    within ``_RESIDUAL_BOUND``.  A NaN (failed) field value prunes its
    vertex.  Returns (keep, residual, field evaluations per edge).
    """
    hit_a = fa == level
    keep = hit_a | (fb == level)
    t[keep] = np.where(hit_a, pa[0], pb[0])[keep]
    x[keep] = np.where(hit_a, pa[1], pb[1])[keep]
    residual = np.zeros(fa.shape)
    evaluations = np.zeros(fa.shape, dtype=np.intp)
    idx = np.flatnonzero(~keep)
    pt_t, pt_x, lo_t, lo_x, hi_t, hi_x, flo, lev = (
        v[idx] for v in (t, x, *pa, *pb, fa, level))
    best_t, best_x, best_res = pt_t, pt_x, np.full(idx.size, np.inf)
    for step in range(_MAX_BISECTIONS + 1):   # the guess, then midpoints
        if step:
            pt_t, pt_x = 0.5 * (lo_t + hi_t), 0.5 * (lo_x + hi_x)
        f = interval_field(factor, pt_t, pt_x)
        evaluations[idx] += 1
        res = abs(f - lev)
        better = res < best_res
        best_t, best_x = np.where(better, pt_t, best_t), np.where(better, pt_x, best_x)
        best_res = np.where(better, res, best_res)
        done = res <= _REFINE_TARGET
        t[idx[done]], x[idx[done]], residual[idx[done]] = pt_t[done], pt_x[done], res[done]
        keep[idx[done]] = True
        low = (flo < lev) == (f < lev)
        lo_t, lo_x, flo = (np.where(low, pt_t, lo_t), np.where(low, pt_x, lo_x),
                           np.where(low, f, flo))
        hi_t, hi_x = np.where(low, hi_t, pt_t), np.where(low, hi_x, pt_x)
        active = ~done & ~np.isnan(res)
        idx, lo_t, lo_x, hi_t, hi_x, flo, lev, best_t, best_x, best_res = (
            v[active] for v in (idx, lo_t, lo_x, hi_t, hi_x, flo, lev,
                                best_t, best_x, best_res))
        if not idx.size:
            break
    close = best_res <= _RESIDUAL_BOUND
    t[idx[close]], x[idx[close]] = best_t[close], best_x[close]
    residual[idx[close]] = best_res[close]
    keep[idx[close]] = True
    return keep, residual, evaluations


def extract_level_sets(grid: SampleGrid, levels) -> list[LevelSet]:
    """Marching-squares level sets of the interval field s^2.

    Only cells whose four corners are all valid participate.  Each
    emitted vertex is polished along its lattice edge by bisection
    against the directly evaluated field until the residual
    |s^2 - level| is at most 1e-3, for at most 60 midpoints; a vertex
    whose best residual exceeds 1e-2 is pruned together with its
    segments.  The crossings of all levels refine together; each level's
    result is the one it would get alone.  Polylines are chained
    deterministically in scan order.
    """
    s2 = grid.s2
    n_t, n_x = s2.shape
    ok = grid.status == VALID
    ok_cells = ok[:-1, :-1] & ok[:-1, 1:] & ok[1:, 1:] & ok[1:, :-1]
    corners = s2[:-1, :-1], s2[:-1, 1:], s2[1:, 1:], s2[1:, :-1]
    # minimum keeps NaN and fmax skips it, so that a NaN corner is below
    # every level, as it is in ``s2 >= level``
    low = np.minimum(np.minimum(corners[0], corners[1]),
                     np.minimum(corners[2], corners[3])).ravel()
    high = np.where(ok_cells, np.fmax(np.fmax(corners[0], corners[1]),
                                      np.fmax(corners[2], corners[3])), -np.inf).ravel()
    levels = [float(level) for level in levels]
    # a crossing is keyed by its level and its lattice edge,
    # level index * n_edges + edge id, so keys sort level by level
    n_edges = n_t * (n_x - 1) + (n_t - 1) * n_x
    # overflow and invalid results are pruned (NaN) vertices, not warnings
    with np.errstate(all="ignore"):
        segments = np.concatenate([np.empty((0, 2), dtype=np.intp)] + [
            np.stack(_crossing_segments(s2, low, high, level), axis=1) + k * n_edges
            for k, level in enumerate(levels)])
        # the distinct crossings (np.unique would import numpy.ma)
        keys = np.sort(segments, axis=None)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        which, edges = np.divmod(keys, n_edges)
        edge_levels = np.array(levels)[which]
        ia, ja, ib, jb = _edge_ends(edges, n_t, n_x)
        pa, pb = (grid.ts[ia], grid.xs[ja]), (grid.ts[ib], grid.xs[jb])
        fa, fb = s2[ia, ja], s2[ib, jb]
        theta = (edge_levels - fa) / (fb - fa)
        t, x = pa[0] + theta * (pb[0] - pa[0]), pa[1] + theta * (pb[1] - pa[1])
        keep, residual, evaluations = _refine(grid.factor, edge_levels, t, x,
                                              pa, pb, fa, fb)
    ends = np.searchsorted(keys, segments)   # segment ends as crossing indices
    path, starts = _chain_segments(ends[keep[ends].all(axis=1)])
    vertices = np.stack([t[path], x[path]], axis=1)
    polylines = [vertices[a:b] for a, b in zip(starts[:-1], starts[1:])]
    # crossings and polylines come grouped by level
    level_ids = np.arange(len(levels) + 1)
    cuts = np.searchsorted(which, level_ids).tolist()
    poly_cuts = np.searchsorted(which[path[starts[:-1]]], level_ids).tolist()
    result = []
    for k, level in enumerate(levels):
        lo, hi = cuts[k], cuts[k + 1]
        kept = residual[lo:hi][keep[lo:hi]]
        result.append(LevelSet(
            level=level,
            polylines=polylines[poly_cuts[k]:poly_cuts[k + 1]],
            n_pruned=hi - lo - kept.size,
            max_residual=float(kept.max()) if kept.size else math.nan,
            bisections=int(evaluations[lo:hi].sum())))
    return result


def _chain_segments(ends):
    """Chain segments that share crossings into polylines.

    ``ends`` holds each segment's (first, second) crossing index.  A
    crossing ends at most two segments, so pairing the segment ends by
    an argsort of their crossings links the segments into paths and
    cycles.  Polylines come in order of their lowest segment; a path runs
    from its end on that segment's first side, and a cycle starts and
    ends at that segment's second crossing.  Returns the crossings of all
    polylines back to back, and the offsets at which each polyline
    starts followed by the total length.
    """
    flat = ends.ravel()                  # end 2k + s is end s of segment k
    order = np.argsort(flat, kind="stable")
    pair = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
    partner = np.full(flat.size, -1)
    partner[order[pair]], partner[order[pair + 1]] = order[pair + 1], order[pair]
    partner = partner.tolist()
    used = bytearray(ends.shape[0])
    walk, starts = [], []

    def extend(end):
        # the far ends of the segments met going on through ``end``
        out = []
        end = partner[end]
        while end >= 0 and not used[end >> 1]:
            used[end >> 1] = True
            end ^= 1
            out.append(end)
            end = partner[end]
        return out

    for k in range(ends.shape[0]):
        if used[k]:
            continue
        used[k] = True
        starts.append(len(walk))
        back = extend(2 * k)
        back.reverse()
        walk += back
        walk += (2 * k, 2 * k + 1)
        walk += extend(2 * k + 1)
    starts.append(len(walk))
    return flat[np.array(walk, dtype=np.intp)], starts


# ---------------------------------------------------------------------------
# Exports

def grid_to_csv(grid: SampleGrid) -> str:
    """Rows for every sampled cell (outside cells are skipped), row-major;
    the first two columns are named after the factor's chart."""
    ts = [repr(t) for t in grid.ts.tolist()]
    xs = [repr(x) for x in grid.xs.tolist()]
    cells = np.flatnonzero(grid.status != OUTSIDE)
    rows, cols = np.divmod(cells, grid.status.shape[1])
    valid = grid.status.ravel()[cells] == VALID
    omega, ricci, s2 = (arr.ravel()[cells].tolist()
                        for arr in (grid.omega, grid.ricci, grid.s2))
    with_ricci = grid.with_ricci
    lines = [",".join((*coordinate_names(grid.factor.chart), _CSV_COLUMNS))]
    for i, j, ok, om, rr, ss in zip(rows.tolist(), cols.tolist(), valid.tolist(),
                                    omega, ricci, s2):
        if ok:
            rr = repr(rr) if with_ricci else ""
            lines.append(f"{ts[i]},{xs[j]},{om!r},{rr},{ss!r},1")
        else:
            lines.append(f"{ts[i]},{xs[j]},,,,0")
    return "\n".join(lines) + "\n"


def report_to_json(report: CurvatureReport) -> str:
    """The report's fields in order, ``passed`` written as "pass"."""
    payload = {"pass" if name == "passed" else name: value
               for name, value in vars(report).items()}
    return json.dumps(payload, indent=2) + "\n"


def _vertices(level_sets):
    """Every vertex of ``level_sets`` in one (N, 2) float array, t then x,
    and the lengths of each level's polylines."""
    polys = [[np.asarray(poly, dtype=float).reshape(-1, 2) for poly in ls.polylines]
             for ls in level_sets]
    lengths = [[len(poly) for poly in level] for level in polys]
    return np.concatenate([np.empty((0, 2)), *chain.from_iterable(polys)]), lengths


def _reprs(values) -> list:
    """``repr`` of every entry of the float array ``values``, called once
    per distinct float.

    A refined vertex lies on a lattice edge, so one of its coordinates is
    a lattice coordinate, and those repeat.  Floats are told apart by
    their bits, which keeps -0.0 apart from 0.0.
    """
    bits = values.view(np.int64)
    order = np.argsort(bits, kind="stable")
    new = np.ones(bits.size, dtype=bool)
    new[1:] = bits[order[1:]] != bits[order[:-1]]
    text = [repr(v) for v in values[order[new]].tolist()]
    distinct = np.empty(bits.size, dtype=np.intp)
    distinct[order] = np.cumsum(new) - 1
    return [text[i] for i in distinct.tolist()]


def level_sets_to_csv(level_sets) -> str:
    """One row per vertex: level, polyline index within the level, t, x."""
    tx, lengths = _vertices(level_sets)
    reprs = _reprs(tx.ravel())
    chunks = ["level,polyline,t,x\n"]
    k = 0
    for ls, sizes in zip(level_sets, lengths):
        level = repr(float(ls.level))
        for p_idx, n in enumerate(sizes):
            chunks.append(f"{level},{p_idx},%s,%s\n" * n % tuple(reprs[k:k + 2 * n]))
            k += 2 * n
    return "".join(chunks)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_SVG_SIZE = 800
_SVG_MARGIN = 40


def level_sets_to_svg(level_sets, bounds=None) -> str:
    """One SVG path per polyline on a fixed 800x800 viewport.

    ``bounds`` = (t_min, t_max, x_min, x_max); defaults to the extent of
    the vertices with 5% padding.  x runs right, t runs up.
    """
    tx, lengths = _vertices(level_sets)
    if bounds is None:
        if not tx.size:
            bounds = (-1.0, 1.0, -1.0, 1.0)
        else:
            (t_lo, x_lo), (t_hi, x_hi) = tx.min(axis=0).tolist(), tx.max(axis=0).tolist()
            pad_t = 0.05 * (t_hi - t_lo or 1.0)
            pad_x = 0.05 * (x_hi - x_lo or 1.0)
            bounds = (t_lo - pad_t, t_hi + pad_t, x_lo - pad_x, x_hi + pad_x)
    t0, t1, x0, x1 = bounds
    span = _SVG_SIZE - 2 * _SVG_MARGIN
    drawn = any(n >= 2 for sizes in lengths for n in sizes)
    if drawn and not (x1 - x0 and t1 - t0):   # as float division fails
        raise ZeroDivisionError("float division by zero")
    with np.errstate(all="ignore"):
        px = _SVG_MARGIN + (tx[:, 1] - x0) / (x1 - x0) * span
        py = _SVG_MARGIN + (t1 - tx[:, 0]) / (t1 - t0) * span
    xy = np.stack([px, py], axis=1).ravel().tolist()

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    k = 0
    for idx, (ls, sizes) in enumerate(zip(level_sets, lengths)):
        color = _PALETTE[idx % len(_PALETTE)]
        level = repr(float(ls.level))
        for n in sizes:
            if n >= 2:
                d = ("M " + " L ".join(["%.3f %.3f"] * n)) % tuple(xy[k:k + 2 * n])
                lines.append(f'<path d="{d}" fill="none" stroke="{color}" '
                             f'stroke-width="1.5" data-level="{level}"/>')
            k += 2 * n
    for idx, ls in enumerate(level_sets):
        color = _PALETTE[idx % len(_PALETTE)]
        y = 20 + 16 * idx
        lines.append(f'<text x="8" y="{y}" font-family="monospace" '
                     f'font-size="12" fill="{color}">s2 = {float(ls.level)!r}</text>')
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
