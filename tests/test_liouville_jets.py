"""Liouville jets assembled in null coordinates, and the univariate Taylor
algebra they are built from.

``reference_liouville_jet`` keeps the earlier composition of the
general factor's jet, in which every ingredient (the integrand jets, F(u),
G(v), D and e^phi e^psi) is a full six-slot ``Jet2`` in (t, x).  The
assembly in ``liouville_factor`` must give bitwise its value slot, its
other slots to rounding, and the same status or exception at every point.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_array_sampling import _extend

from lorentz2d import families, jets
from lorentz2d.analysis import SINGULAR, VALID, sample_grid
from lorentz2d.charts import Rectangle
from lorentz2d.curvature import scalar_from_factor_jet
from lorentz2d.errors import DomainError, EvaluationError
from lorentz2d.expressions import Call, Constant, Variable, compile_expression, parse
from lorentz2d.families import (
    Antiderivative,
    _ExactExp,
    _off_band,
    liouville_factor,
)
from lorentz2d.jets import Jet2

SEED = 20261018
EPS = np.finfo(float).eps
SLOT_RTOL = 1e-13
# A slot that sums terms much larger than itself (the pullback's sums and
# differences, the quotient rule) is held to a multiple of its rounding
# floor instead, as in test_array_sampling; over 60 draws on 41 x 43
# points the worst cell used 37% of this bound.
FLOOR_MULTIPLE = 32
SLOTS = ("value", "dt", "dx", "dtt", "dtx", "dxx")


def _jet2_integrand(anti):
    """(f, f', f'') of an antiderivative's integrand through Jet2 seeded
    ``Jet2(s, 1.0)``: the slots dt and dtt."""
    if isinstance(anti, _ExactExp):
        return anti.integrand_jet
    jet = compile_expression(anti.integrand, jets.JET2)

    def integrand_jet(s):
        j = jet({anti.variable: Jet2(jets.as_slot(s), 1.0)})
        return j.value, j.dt, j.dtt

    return integrand_jet


def reference_liouville_jet(f_anti, g_anti, k, C, target, singular_eps):
    """The six-slot composition of the general factor's jet in (t, x)."""
    cg = target / (8.0 * k)
    f_jet, g_jet = _jet2_integrand(f_anti), _jet2_integrand(g_anti)

    def jet_fn(t, x, status=None):
        jt = jets.seed("t", (t, x))
        jx = jets.seed("x", (t, x))
        ju = jets.add(jx, jt)
        jv = jets.sub(jx, jt)
        iu0, iu1, iu2 = f_jet(ju.value)
        iv0, iv1, iv2 = g_jet(jv.value)
        fu = jets.compose(f_anti.value(ju.value), iu0, iu1, ju)
        gv = jets.compose(g_anti.value(jv.value), iv0, iv1, jv)
        d = (fu * k - gv * cg) + C
        d = _off_band(d, d.value, singular_eps, status, t, x)
        eu = jets.compose(iu0, iu1, iu2, ju)
        ev = jets.compose(iv0, iv1, iv2, jv)
        return (eu * ev) / (d * d)

    return jet_fn


def factor_pair(phi, psi, k, C, target, raw=False, tol=1e-10, eps=1e-8):
    """``liouville_factor`` and the same factor with the reference jet; the
    reference reads its own antiderivatives, whose tables depend only on
    the integrand and ``tol``, so F and G agree bitwise."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "SINGULAR_EPS", eps)
        factor = liouville_factor(phi, psi, k, C, target, raw_antiderivative=raw,
                                  quadrature_tol=tol)
    if raw:
        f_anti = g_anti = _ExactExp()
    else:
        f_anti = Antiderivative(Call("exp", parse(phi)), tol)
        g_anti = Antiderivative(Call("exp", parse(psi)), tol)
    reference = dataclasses.replace(
        factor, jet_fn=reference_liouville_jet(f_anti, g_anti, k, C, target, eps))
    return factor, reference


def _source(rng) -> str:
    """Criterion 07's random exponent: a bounded cubic or sine/cosine."""
    if rng.integers(0, 2) == 0:
        c = rng.uniform(-0.15, 0.15, size=4)
        return (f"({c[0]:.6f}) + ({c[1]:.6f})*l + "
                f"({c[2]:.6f})*l^2 + ({c[3]:.6f})*l^3")
    a, b = rng.uniform(-0.15, 0.15, size=2)
    return f"({a:.6f})*sin(l) + ({b:.6f})*cos(l)"


def criterion_07_draws(n):
    rng = np.random.default_rng(SEED)
    for _ in range(n):
        yield (_source(rng), _source(rng), float(rng.uniform(0.5, 2.0)),
               float(rng.uniform(-1.0, 1.0)), float(rng.choice([-2.0, -1.0, 1.0, 2.0])))


def _floors(w):
    """A rounding floor per slot: eps times the size of the slots of the
    same order, which the pullback from (u, v) mixes."""
    first = EPS * (abs(w.dt) + abs(w.dx))
    second = EPS * (abs(w.dtt) + abs(w.dtx) + abs(w.dxx))
    return (0.0, first, first, second, second, second)


def assert_jets_agree(got, want):
    """Value bitwise; every other slot to SLOT_RTOL relative, or to a few
    rounding floors where a cell's floor is larger.  NaN cells must match."""
    np.testing.assert_array_equal(np.isnan(got.value), np.isnan(want.value))
    ok = ~np.isnan(want.value)
    g_value, w_value = np.asarray(got.value)[ok], np.asarray(want.value)[ok]
    assert g_value.tobytes() == w_value.tobytes()
    for name, floor in zip(SLOTS[1:], _floors(want)[1:]):
        g, w = (np.broadcast_to(getattr(j, name), np.shape(want.value))[ok]
                for j in (got, want))
        bound = np.maximum(SLOT_RTOL * np.abs(w), FLOOR_MULTIPLE * np.broadcast_to(
            floor, np.shape(want.value))[ok])
        assert np.all(np.abs(g - w) <= bound), (name, np.max(np.abs(g - w) / bound))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvaluationError as err:
        return type(err)


# ---------------------------------------------------------------------------
# The assembly against the six-slot reference

@pytest.mark.parametrize("draw", range(12))
def test_liouville_jet_matches_reference_on_floats(draw):
    phi, psi, k, C, target = list(criterion_07_draws(12))[draw]
    factor, reference = factor_pair(phi, psi, k, C, target, eps=0.05)
    rng = np.random.default_rng([SEED, draw])
    singular = 0
    for t, x in rng.uniform(-1.0, 1.0, size=(200, 2)).tolist():
        got, want = _outcome(factor.jet, t, x), _outcome(reference.jet, t, x)
        if isinstance(want, type):
            assert got is want
            singular += want.__name__ == "SingularDenominator"
            continue
        assert got.value == factor.value(t, x)   # bitwise the values-only path
        assert_jets_agree(got, want)
    if draw == 0:
        assert singular > 0   # the band is exercised


@pytest.mark.parametrize("draw", range(6))
def test_liouville_jet_matches_reference_on_arrays(draw):
    phi, psi, k, C, target = list(criterion_07_draws(6))[draw]
    factor, reference = factor_pair(phi, psi, k, C, target, eps=0.05)
    box = Rectangle(-1.0, 1.0, -1.0, 1.0)
    grid = sample_grid(factor, box, (23, 29), with_ricci=True)
    ref = sample_grid(reference, box, (23, 29), with_ricci=True)
    np.testing.assert_array_equal(grid.status, ref.status)
    valid = grid.status == VALID
    assert valid.any()
    assert grid.omega[valid].tobytes() == ref.omega[valid].tobytes()
    values = sample_grid(factor, box, (23, 29), with_ricci=False)
    both = valid & (values.status == VALID)
    assert grid.omega[both].tobytes() == values.omega[both].tobytes()
    t, x = np.meshgrid(grid.ts, grid.xs, indexing="ij")
    status, ref_status = (np.full(t.shape, VALID, dtype=np.int8) for _ in range(2))
    assert_jets_agree(factor.jet(t, x, status), reference.jet(t, x, ref_status))
    np.testing.assert_array_equal(status, ref_status)


def test_singular_band_and_reach_match_reference():
    cases = [
        # the band around D = 0 crosses the box
        (("0.1*l", "0.05*sin(l)", 1.0, 0.0, 2.0), False, Rectangle(-1.0, 1.0, -2.0, 2.0)),
        (("l", "l", 1.1, 0.0, 2.0), True, Rectangle(-1.0, 1.0, -1.0, 1.0)),
        # e^l overflows beyond u = 709.78, where F's table ends too
        (("l", "0.1*l", 1.0, 0.3, 2.0), False, Rectangle(-1.0, 1.0, 705.0, 712.0)),
        # F's table cannot pass the overflow of e^(1/l) just right of 0,
        # though the integrand is finite at every u > 0.0014
        (("1/l", "0.1*l", 1.0, 0.3, 2.0), False, Rectangle(-1.0, 1.0, -1.0, 1.0)),
        # e^(l/l) fails at u = 0 only, where F is finite and D = 0 at v = 0:
        # a failed integrand takes precedence over the band, as on floats
        (("l/l", "0.5*l", 1.0, 0.0, 2.0), False, Rectangle(-1.0, 1.0, -1.0, 1.0)),
    ]
    seen = set()
    for params, raw, box in cases:
        factor, reference = factor_pair(*params, raw=raw, eps=0.05)
        grid = sample_grid(factor, box, (17, 17), with_ricci=True)
        ref = sample_grid(reference, box, (17, 17), with_ricci=True)
        np.testing.assert_array_equal(grid.status, ref.status)
        assert np.any(grid.status != VALID)
        seen.update(np.unique(grid.status).tolist())
        valid = grid.status == VALID
        assert grid.omega[valid].tobytes() == ref.omega[valid].tobytes()
        for t in grid.ts[::4].tolist():
            for x in grid.xs[::3].tolist():
                got, want = _outcome(factor.jet, t, x), _outcome(reference.jet, t, x)
                if isinstance(want, type):
                    assert got is want
                else:
                    assert_jets_agree(got, want)
    assert SINGULAR in seen


# ---------------------------------------------------------------------------
# The univariate algebra against Jet2

_L_LEAF = st.one_of(st.just(Variable("l")),
                    st.sampled_from([Constant(v) for v in (0.5, 2.0, -1.0, 3.0, 700.0)]))
ABSCISSAE = np.array([-800.0, -3.0, -1.0, -0.5, -1e-3, 0.0, 2.9e-246, 1e-3, 0.5,
                      1.0, 1.5, 3.0, 710.0])


def _bits(*slots):
    return struct.pack(f"{len(slots)}d", *slots)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(_L_LEAF, _extend, max_leaves=8))
def test_taylor_jet_is_bitwise_the_t_slots_of_jet2(tree):
    taylor = compile_expression(tree, jets.TAYLOR)
    jet2 = compile_expression(tree, jets.JET2)
    for s in ABSCISSAE.tolist():
        want = _outcome(lambda: jet2({"l": Jet2(s, 1.0)}))
        got = _outcome(lambda: taylor({"l": (s, 1.0, 0.0)}))
        if isinstance(want, type):
            assert got is DomainError and want is DomainError
        else:
            assert _bits(*got) == _bits(want.value, want.dt, want.dtt)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: jet2({"l": Jet2(ABSCISSAE, 1.0)}))
        got = _outcome(lambda: taylor({"l": (ABSCISSAE, 1.0, 0.0)}))
    if isinstance(want, type):   # a part the same at every cell fails
        assert got is want
        return
    got = [np.broadcast_to(g, ABSCISSAE.shape) for g in got]
    want = [np.broadcast_to(w, ABSCISSAE.shape) for w in (want.value, want.dt, want.dtt)]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
        ok = ~np.isnan(w)
        assert g[ok].tobytes() == w[ok].tobytes()


# ---------------------------------------------------------------------------
# The families docstring's claim: R is insensitive to quadrature error in F

def _perturbed_value(monkeypatch):
    original = Antiderivative.value

    def value(self, s):
        xp = np if isinstance(s, np.ndarray) else math
        return original(self, s) + 1e-3 * (xp.sin(3.0 * s) + 0.5)

    monkeypatch.setattr(Antiderivative, "value", value)


@pytest.mark.parametrize("draw", range(4))
def test_curvature_ignores_a_smooth_error_in_the_antiderivative_values(draw, monkeypatch):
    phi, psi, k, C, target = list(criterion_07_draws(4))[draw]
    exact = liouville_factor(phi, psi, k, C, target)
    box = Rectangle(-1.0, 1.0, -1.0, 1.0)
    clean = sample_grid(exact, box, (15, 17), with_ricci=True)
    _perturbed_value(monkeypatch)
    factor = liouville_factor(phi, psi, k, C, target)
    grid = sample_grid(factor, box, (15, 17), with_ricci=True)
    valid = grid.status == VALID
    moved = np.abs(grid.omega - clean.omega)[valid & (clean.status == VALID)]
    assert np.max(moved / clean.omega[valid & (clean.status == VALID)]) > 1e-5   # F did move
    assert valid.sum() > 100
    assert np.max(np.abs(grid.ricci[valid] - target)) <= 1e-9
    for t, x in [(0.1, 0.3), (-0.4, 0.2), (0.7, -0.6)]:
        try:
            w = factor.jet(t, x)
        except EvaluationError:
            continue
        assert abs(scalar_from_factor_jet(w) - target) <= 1e-9
