"""Jets of the separable families from univariate Taylor jets.

``reference_factor`` keeps the earlier jet of a flat or one-variable
factor: its printed formula compiled on ``jets.JET2`` and seeded at
(t, x), six slots at every node.  The flat factor now assembles its jet
in the null chart from the Taylor jets of phi and psi (the Liouville
assembly with D = 1), and a one-variable factor puts one Taylor jet into
one slot pair.  Both routes must give the same statuses, NaN cells and
exception classes; value, dt, dx, dtt and dxx must compare equal and R
bitwise.  dtx, which the null-chart pullback sums in another order, is
held to FLOOR_MULTIPLE rounding floors, as in test_liouville_jets.

The one exception to equality is gradual underflow: where a product of
slots is subnormal, 2 (a b) and (2 a) b round differently, so a slot may
differ by a few multiples of the smallest subnormal, SUBNORMAL_SLACK.
Criterion 06's envelopes reach that range on the widest boxes below.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d import jets
from lorentz2d.analysis import sample_grid
from lorentz2d.charts import Rectangle
from lorentz2d.curvature import scalar_from_factor_jet
from lorentz2d.errors import EvaluationError
from lorentz2d.expressions import compile_expression
from lorentz2d.families import (
    factor_from_expression,
    flat_factor,
    spacelike_factor,
    timelike_factor,
)
from lorentz2d.jets import Jet2

EPS = np.finfo(float).eps
FLOOR_MULTIPLE = 32
EQUAL_SLOTS = ("value", "dt", "dx", "dtt", "dxx")
SUBNORMAL_SLACK = 4 * 5e-324


def reference_factor(factor):
    """``factor`` with the jet compiled from its formula on ``JET2``."""
    jet = compile_expression(factor.expression, jets.JET2)

    def jet_fn(t, x, status=None):
        return jet({"t": jets.seed("t", (t, x)), "x": jets.seed("x", (t, x))})

    return dataclasses.replace(factor, jet_fn=jet_fn)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EvaluationError, ZeroDivisionError) as exc:
        return exc


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_jets_agree(got, want):
    """The slots' rule above, on one point or on arrays of cells."""
    assert isinstance(got, Jet2) and isinstance(want, Jet2)
    for name in EQUAL_SLOTS:
        g, w = getattr(got, name), getattr(want, name)
        assert np.shape(g) == np.shape(w), name
        np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
        same = (g == w) | np.isnan(w)
        assert np.all(same | (np.abs(g - w) <= SUBNORMAL_SLACK)), name
    floor = EPS * (np.abs(want.dtt) + np.abs(want.dtx) + np.abs(want.dxx))
    ok = ~np.isnan(want.value)
    dev = np.where(ok, np.abs(got.dtx - want.dtx), 0.0)
    assert np.all(dev <= FLOOR_MULTIPLE * np.where(ok, floor, 0.0)), \
        np.max(dev / np.maximum(floor, 1e-300))
    with np.errstate(all="ignore"):
        r_got = _outcome(scalar_from_factor_jet, got, "tx")
        r_want = _outcome(scalar_from_factor_jet, want, "tx")
    assert type(r_got) is type(r_want)
    if not isinstance(r_want, Exception):
        _same_bits(r_got, r_want)


def _lattice(box, resolution):
    """The cell centres of ``sample_grid``'s lattice, flattened."""
    t0, t1, x0, x1 = box.bbox()
    ts = t0 + (np.arange(resolution[0]) + 0.5) * ((t1 - t0) / resolution[0])
    xs = x0 + (np.arange(resolution[1]) + 0.5) * ((x1 - x0) / resolution[1])
    return tuple(a.ravel() for a in np.meshgrid(ts, xs, indexing="ij"))


def assert_routes_agree(factor, box, resolution=(23, 19), n_points=12):
    """Arrays of cells, floats at some of them, and ``sample_grid``."""
    reference = reference_factor(factor)
    t, x = _lattice(box, resolution)
    assert_jets_agree(factor.jet(t, x), reference.jet(t, x))
    _same_bits(factor.value(t, x), reference.value(t, x))

    for i in np.linspace(0, t.size - 1, n_points).astype(int):
        got = _outcome(factor.jet, float(t[i]), float(x[i]))
        want = _outcome(reference.jet, float(t[i]), float(x[i]))
        assert type(got) is type(want)
        if isinstance(want, Jet2):
            assert_jets_agree(got, want)

    got = _outcome(sample_grid, factor, box, resolution)
    want = _outcome(sample_grid, reference, box, resolution)
    assert type(got) is type(want)
    if not isinstance(want, Exception):
        np.testing.assert_array_equal(got.status, want.status)
        for name in ("omega", "ricci", "s2"):
            _same_bits(getattr(got, name), getattr(want, name))


# ---------------------------------------------------------------------------
# Flat factors: criterion 06's envelopes, exp of a bounded random cubic or
# trig sum, on boxes from the criterion's own to ones where the envelope
# overflows or underflows

_coefficient = st.floats(-0.2, 0.2).map(lambda c: f"({c:.6f})")


@st.composite
def envelopes(draw):
    if draw(st.booleans()):
        c = [draw(_coefficient) for _ in range(4)]
        inner = f"{c[0]} + {c[1]}*l + {c[2]}*l^2 + {c[3]}*l^3"
    else:
        a, b, c = (draw(_coefficient) for _ in range(3))
        inner = f"{a}*sin(l) + {b}*cos(l) + {c}*l"
    return f"exp({inner})"


@st.composite
def boxes(draw):
    half = draw(st.sampled_from([1.0, 8.0, 60.0]))
    ct, cx = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    return Rectangle(ct - half, ct + half, cx - half, cx + half)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(envelopes(), envelopes(), boxes())
def test_flat_factor_jets_agree_with_the_six_slot_route(phi, psi, box):
    assert_routes_agree(flat_factor(phi, psi), box)


def test_flat_factor_envelopes_that_overflow_agree():
    # the cubic overflows past |l| of about 15 and underflows the other
    # way, so the box holds valid, overflowed and non-positive cells
    factor = flat_factor("exp(0.2*l^3)", "exp((-0.15)*l^3 + 0.1*l)")
    box = Rectangle(-20.0, 20.0, -20.0, 20.0)
    failed = np.isnan(factor.value(*_lattice(box, (41, 43))))
    assert failed.any() and not failed.all()
    assert_routes_agree(factor, box, (41, 43))


def test_flat_factor_with_constant_parts_agrees():
    for phi, psi in (("1", "1"), ("2", "exp(0.1*l)"), ("exp(sin(l))", "0.5"),
                     ("log(-1)", "exp(l)"), ("-1", "1")):
        assert_routes_agree(flat_factor(phi, psi), Rectangle(-1.0, 1.0, -1.0, 1.0))


# ---------------------------------------------------------------------------
# One-variable factors: sech^2 and sec^2 branches, timelike and spacelike;
# a sec^2 box overhangs its pole-free strip on both sides

@st.composite
def one_variable_factors(draw):
    timelike = draw(st.booleans())
    sep = draw(st.floats(0.05, 20.0)) * draw(st.sampled_from([-1.0, 1.0]))
    shift = draw(st.floats(-1.0, 1.0))
    magnitude = draw(st.floats(0.1, 5.0))
    # the sign of R for which the branch is positive
    positive = (sep < 0.0) if timelike else (sep > 0.0)
    target = magnitude if positive else -magnitude
    factor = (timelike_factor if timelike else spacelike_factor)(sep, shift, target)
    rate = 0.5 * math.sqrt(abs(sep))
    if sep < 0.0:   # sec^2: 1.5 strips wide, centred on the strip
        half = 1.5 * math.pi / (2.0 * rate)
    else:           # sech^2: far enough for cosh to overflow
        half = draw(st.sampled_from([1.0, 20.0, 800.0 / rate]))
    lo, hi = -shift - half, -shift + half
    other = (-2.0, 2.0)
    box = Rectangle(lo, hi, *other) if timelike else Rectangle(*other, lo, hi)
    return factor, box


@settings(max_examples=60, deadline=None, derandomize=True)
@given(one_variable_factors())
def test_one_variable_jets_agree_with_the_six_slot_route(case):
    factor, box = case
    assert_routes_agree(factor, box)


def test_sec2_strip_overhanging_its_rectangle_agrees():
    factor = timelike_factor(-4.0, 0.1, 2.0)
    box = Rectangle(-2.0, 2.0, 0.0, 6.0)
    grid = sample_grid(factor, box, (155, 31))
    assert 0 < grid.n_valid < grid.n_sampled
    assert_routes_agree(factor, box, (155, 31))
    assert_routes_agree(spacelike_factor(-4.0, 0.1, -2.0),
                        Rectangle(0.0, 6.0, -2.0, 2.0), (31, 155))


# ---------------------------------------------------------------------------
# Array outputs are fresh: writable, and sharing memory with neither the
# inputs nor one another, whether or not some cell is poisoned

def _assert_fresh(out, inputs):
    slots = [getattr(out, n) for n in ("value", "dt", "dx", "dtt", "dtx", "dxx")] \
        if isinstance(out, Jet2) else [out]
    for i, s in enumerate(slots):
        assert isinstance(s, np.ndarray) and s.flags.writeable
        assert s.shape == inputs[0].shape
        for other in [*inputs, *slots[:i]]:
            assert not np.shares_memory(s, other)


def test_array_outputs_are_fresh():
    t = np.linspace(0.1, 1.0, 7)
    x = np.linspace(0.2, 0.9, 7)
    for factor in (factor_from_expression("t"), factor_from_expression("x"),
                   factor_from_expression("2"), factor_from_expression("u"),
                   flat_factor("1", "1"), flat_factor("l", "1"),
                   timelike_factor(4.0, 0.0, -1.0), spacelike_factor(4.0, 0.0, 1.0)):
        for a, b in ((t, x), (t - 0.5, x)):   # all positive, then some cells fail
            _assert_fresh(factor.value(a, b), (a, b))
            _assert_fresh(factor.jet(a, b), (a, b))
    # the value is the input itself before the copy
    got = factor_from_expression("t").value(t, x)
    got[0] = -1.0
    assert t[0] == 0.1
