"""Constructors for the constant-curvature factor families."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz2d import families
from lorentz2d.charts import Diamond, Rectangle, full_plane
from lorentz2d.curvature import fd_ricci_oracle, ricci_from_omega
from lorentz2d.errors import (
    BranchYieldsNonPositive,
    EvaluationError,
    MixedChartVariables,
    NonPositiveFactor,
    QuadratureNonConvergence,
    SingularDenominator,
)
from lorentz2d.expressions import Constant, evaluate, parse, unparse
from lorentz2d.families import (
    Antiderivative,
    ConformalFactor,
    factor_from_expression,
    flat_factor,
    liouville_factor,
    spacelike_factor,
    timelike_factor,
)
from lorentz2d.jets import Jet2, compose, seed

OMEGA1_SOURCE = "exp(2*x) * (exp(x+t) - (1/4)*exp(x-t))^(-2)"
OMEGA1_NULL_PRINTED = "exp(x + t)*exp(x - t)*(exp(x + t) - 0.25*exp(x - t))^(-2)"


# ---------------------------------------------------------------------------
# Flat family

def test_flat_unit_factor():
    f = flat_factor("1", "1")
    assert f.expression == Constant(1.0)
    assert f.target_curvature == 0.0
    assert f.chart == "tx"
    assert f.value(0.3, -0.7) == 1.0
    assert ricci_from_omega(f, (0.3, -0.7)) == 0.0


def test_flat_constant_product():
    f = flat_factor("2", "3")
    assert f.value(1.0, 1.0) == 6.0
    assert ricci_from_omega(f, (1.0, 1.0)) == 0.0


def test_flat_substitutes_null_arguments():
    f = flat_factor("exp(l)", "exp(-l)")
    rng = np.random.default_rng(7)
    for t, x in rng.uniform(-1.0, 1.0, size=(100, 2)):
        assert math.isclose(f.value(t, x), math.exp(2.0 * t), rel_tol=1e-12)
        assert abs(fd_ricci_oracle(f, (t, x), h=1e-3)) < 1e-6


def test_flat_factor_curvature_exact_at_jet_level():
    f = flat_factor("exp(l)", "exp(-l)")
    for t, x in [(0.0, 0.0), (0.4, -0.9), (-1.2, 0.3)]:
        assert abs(ricci_from_omega(f, (t, x))) < 1e-12


def test_flat_halfangle_compact_form():
    # phi(s) = psi(s) = sec(s/2)^2 / 2 gives the compactified-flat factor;
    # on the t = 0 axis it reduces to (1 + cos x)^(-2).
    f = dataclasses.replace(flat_factor("0.5*sec(l/2)^2", "0.5*sec(l/2)^2"),
                            domain=Diamond())
    for x in (0.0, 0.8, -1.9, 2.6):
        assert math.isclose(f.value(0.0, x), (1.0 + math.cos(x)) ** -2,
                            rel_tol=1e-12)
    assert abs(ricci_from_omega(f, (0.3, -0.5))) < 1e-12


def test_flat_rejects_multivariable_argument():
    with pytest.raises(ValueError):
        flat_factor("t + x", "1")


def test_flat_nonpositive_value_raises():
    f = flat_factor("l", "l")  # (x+t)(x-t), negative inside the light cone
    assert f.value(0.25, 0.75) > 0
    with pytest.raises(NonPositiveFactor):
        f.value(0.75, 0.25)
    with pytest.raises(NonPositiveFactor):
        f.jet(0.75, 0.25)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
       st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_flat_family_is_flat(a, b, t, x):
    f = flat_factor(f"exp({a!r}*l)", f"exp({b!r}*l)")
    assert abs(ricci_from_omega(f, (t, x))) < 1e-10


# ---------------------------------------------------------------------------
# One-variable families

def test_timelike_positive_curvature_branch():
    f = timelike_factor(-4.0, 0.0, 2.0)
    assert f.expression == parse("sec(t)^2")
    assert f.target_curvature == 2.0
    assert f.domain == Rectangle(-math.pi / 2, math.pi / 2, -math.inf, math.inf)
    assert math.isclose(ricci_from_omega(f, (0.4, 3.0)), 2.0, rel_tol=1e-12)


def test_timelike_negative_curvature_branch():
    f = timelike_factor(4.0, 0.0, -2.0)
    assert f.expression == parse("sech(t)^2")
    assert f.domain == full_plane()
    assert math.isclose(ricci_from_omega(f, (0.5, 0.0)), -2.0, rel_tol=1e-12)


def test_timelike_shift_moves_strip():
    f = timelike_factor(-4.0, 1.5, 2.0)
    assert f.domain == Rectangle(-1.5 - math.pi / 2, -1.5 + math.pi / 2,
                                 -math.inf, math.inf)
    assert math.isclose(f.value(-1.5, 0.0), 1.0, rel_tol=1e-15)


@pytest.mark.parametrize("c1,target", [(4.0, 2.0), (-4.0, -2.0)])
def test_timelike_wrong_sign_branch_rejected(c1, target):
    with pytest.raises(BranchYieldsNonPositive):
        timelike_factor(c1, 0.0, target)


def test_timelike_degenerate_parameters():
    with pytest.raises(BranchYieldsNonPositive):
        timelike_factor(0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        timelike_factor(4.0, 0.0, 0.0)


def test_spacelike_mirrors_timelike():
    sech_branch = spacelike_factor(4.0, 0.0, 2.0)
    assert sech_branch.expression == parse("sech(x)^2")
    assert math.isclose(ricci_from_omega(sech_branch, (1.0, 0.5)),
                        2.0, rel_tol=1e-12)

    sec_branch = spacelike_factor(-4.0, 0.0, -2.0)
    assert sec_branch.expression == parse("sec(x)^2")
    assert sec_branch.domain == Rectangle(-math.inf, math.inf,
                                          -math.pi / 2, math.pi / 2)
    assert math.isclose(ricci_from_omega(sec_branch, (5.0, 0.3)),
                        -2.0, rel_tol=1e-12)

    with pytest.raises(BranchYieldsNonPositive):
        spacelike_factor(4.0, 0.0, -2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=-4.0, max_value=-0.25, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_timelike_sech_branch_constant_curvature(c1, c2, target, t, x):
    f = timelike_factor(c1, c2, target)
    r = ricci_from_omega(f, (t, x))
    assert abs(r - target) < 1e-9 * max(1.0, abs(target))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
       st.floats(min_value=-0.95, max_value=0.95, allow_nan=False))
def test_timelike_sec_branch_constant_curvature(c1_mag, c2, target, s):
    f = timelike_factor(-c1_mag, c2, target)
    rate = 0.5 * math.sqrt(c1_mag)
    t = -c2 + s * (math.pi / (2.0 * rate))
    r = ricci_from_omega(f, (t, 0.0))
    assert abs(r - target) < 1e-9 * max(1.0, abs(target))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.5, max_value=6.0, allow_nan=False),
       st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
       st.floats(min_value=0.01, max_value=1.2, allow_nan=False))
def test_timelike_factor_symmetric_about_shift(c1, c2, delta):
    f = timelike_factor(c1, c2, -1.0)
    assert math.isclose(f.value(-c2 + delta, 0.0), f.value(-c2 - delta, 0.0),
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Antiderivatives

def test_antiderivative_vanishes_at_reference():
    F = Antiderivative("exp(l)")
    assert F.value(0.0) == 0.0


def test_antiderivative_of_exponential():
    F = Antiderivative("exp(l)")
    assert math.isclose(F.value(1.0), math.e - 1.0, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(F.value(-1.0), math.exp(-1.0) - 1.0, abs_tol=1e-10)


def test_antiderivative_of_constant_is_identity():
    F = Antiderivative("1")
    assert F.integrand_at(3.7) == 1.0
    assert math.isclose(F.value(2.5), 2.5, rel_tol=1e-13)
    assert math.isclose(F.value(-1.25), -1.25, rel_tol=1e-13)


def test_antiderivative_against_composite_simpson():
    F = Antiderivative("exp(sin(l))")
    xs = np.linspace(0.0, 2.0, 2_000_001)
    ys = np.exp(np.sin(xs))
    h = xs[1] - xs[0]
    weights = np.ones_like(ys)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    oracle = float(h / 3.0 * np.dot(weights, ys))
    assert math.isclose(F.value(2.0), oracle, rel_tol=0, abs_tol=1e-9)


def test_antiderivative_fundamental_theorem():
    F = Antiderivative("exp(sin(l))")
    h = 1e-3
    for s in (-0.8, 0.0, 0.7, 1.9):
        slope = (F.value(s + h) - F.value(s - h)) / (2.0 * h)
        assert abs(slope - F.integrand_at(s)) < 1e-6


def test_antiderivative_integrand_jet():
    F = Antiderivative("l^2")
    v, d1, d2 = F.integrand_jet(1.5)
    assert v == 2.25
    assert d1 == 3.0
    assert d2 == 2.0


def test_antiderivative_jet_composition():
    # F composed with a jet through the chain rule: F's derivatives are
    # the integrand's Taylor jet
    F = Antiderivative("exp(l)")
    inner = seed("t", (0.4, 0.0)) + 2.0 * seed("x", (0.4, -0.1))
    f1, f2, _ = F.integrand_jet(inner.value)
    j = compose(F.value(inner.value), f1, f2, inner)
    e = math.exp(inner.value)
    assert j.value == F.value(inner.value)
    assert math.isclose(j.dt, e * inner.dt, rel_tol=1e-14)
    assert math.isclose(j.dx, e * inner.dx, rel_tol=1e-14)
    assert math.isclose(j.dxx, e * inner.dx * inner.dx, rel_tol=1e-14)


def test_antiderivative_rejects_multivariable_integrand():
    with pytest.raises(ValueError):
        Antiderivative("t*x")


def test_antiderivative_nonconvergence(monkeypatch):
    monkeypatch.setattr(families, "MAX_DEPTH", 2)
    F = Antiderivative("exp(-400*l^2)", tol=1e-13)
    with pytest.raises(QuadratureNonConvergence) as info:
        F.value(1.0)
    assert info.value.achieved_error > 0.0


def test_antiderivative_threaded_queries_match_sequential():
    points = [round(-1.1 + 0.037 * i, 6) for i in range(61)]
    threaded = Antiderivative("exp(sin(l))")
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(threaded.value, points))
    sequential = Antiderivative("exp(sin(l))")
    want = [sequential.value(p) for p in points]
    assert got == want


def test_antiderivative_tables_grown_by_racing_threads_give_the_same_values():
    # a thread may replace a longer table that another one just stored:
    # that costs a rebuild, and must never change a value
    points = [float(p) for p in np.random.default_rng(4).uniform(-40.0, 40.0, 400)]
    sequential = Antiderivative("exp(sin(l))")
    want = [sequential.value(p) for p in points]
    shared = Antiderivative("exp(sin(l))")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(shared.value, points, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _query_orders(n=200, seed=5):
    points = [float(p) for p in np.random.default_rng(seed).uniform(-3.0, 3.0, n)]
    shuffled = list(points)
    np.random.default_rng(seed + 1).shuffle(shuffled)
    return points, {"forward": points, "reverse": points[::-1], "shuffled": shuffled}


def test_antiderivative_values_do_not_depend_on_query_order():
    points, orders = _query_orders()
    results = []
    for order in orders.values():
        F = Antiderivative("exp(0.1*l + 0.05*l^3)", tol=1e-12)
        values = {p: F.value(p) for p in order}
        results.append([values[p] for p in points])
    assert results[0] == results[1] == results[2]


def test_antiderivative_panel_count_depends_only_on_span():
    points, orders = _query_orders()
    counts = set()
    for order in orders.values():
        F = Antiderivative("exp(sin(l))", tol=1e-12)
        for p in order:
            F.value(p)
        counts.add(F.n_panels)
    whole = Antiderivative("exp(sin(l))", tol=1e-12)
    whole.value(np.array([min(points), max(points)]))
    counts.add(whole.n_panels)
    assert len(counts) == 1 and counts.pop() > 0
    # a tighter tolerance needs at least as many panels over the same span
    tight = Antiderivative("exp(sin(l))", tol=1e-15)
    tight.value(np.array([min(points), max(points)]))
    assert tight.n_panels >= whole.n_panels


@pytest.mark.parametrize("source", ["exp(0.1*l + 0.05*l^3)", "exp(sin(5*l))",
                                    "1/(l^2 + 0.01)"])
def test_antiderivative_table_does_not_depend_on_the_batch_guesses(monkeypatch, source):
    # the walk takes only the panels it would try next, however the batch
    # guessed them: the tables agree panel for panel as far as both reach
    s = np.linspace(-3.0, 3.0, 241)
    tables = {}
    for runs in [(4, 3, 1), (8, 0, 0), (1, 7, 0), (2, 2, 4)]:
        monkeypatch.setattr(families, "_RUNS", runs)
        F = Antiderivative(source, tol=1e-12)
        tables[runs] = F.value(s), F._table.left.panels, F._table.right.panels
    values, left, right = tables.pop((4, 3, 1))
    for other, other_left, other_right in tables.values():
        np.testing.assert_array_equal(other, values)
        for mine, theirs in ((left, other_left), (right, other_right)):
            n = min(len(mine), len(theirs))
            assert n > 0 and mine[:n] == theirs[:n]


def test_a_fresh_side_that_stops_doubling_takes_one_integrand_call(monkeypatch):
    # the panels of widths 0.5 and 1 resolve, the second without margin, so
    # the walk goes on at width 1: one batch guesses that as well
    calls = []
    grow = Antiderivative._grow
    monkeypatch.setattr(Antiderivative, "_grow",
                        lambda self, side: calls.append(side) or grow(self, side))
    F = Antiderivative("exp(0.119164*sin(l) + 0.082706*cos(l))", tol=1e-12)
    F.value(2.0)
    widths = [row[4] for row in F._table.right.panels]   # 1/half-width
    assert widths[:3] == [4.0, 2.0, 2.0]
    assert len(calls) == 1


def test_antiderivative_panels_are_built_on_demand():
    F = Antiderivative("exp(sin(l))")
    assert F.n_panels == 0
    F.value(0.5)
    right = F.n_panels
    assert right > 0
    F.value(0.25)
    assert F.n_panels == right   # already covered
    F.value(-0.5)
    assert F.n_panels > right


def test_antiderivative_array_is_bitwise_its_entries():
    F = Antiderivative("exp(l)")
    s = np.concatenate([np.random.default_rng(9).uniform(-4.0, 4.0, 57),
                        [0.0, 0.5, -0.5, 1.5, math.nan, math.inf, -math.inf, 800.0]])
    s = s.reshape(5, 13)
    want = []
    for v in s.ravel().tolist():
        try:
            want.append(F.value(v))
        except EvaluationError:
            want.append(math.nan)
    got = Antiderivative("exp(l)").value(s)
    assert got.shape == s.shape
    assert np.isnan(got).sum() == 4
    np.testing.assert_array_equal(got.ravel(), want)   # exact; NaN matches NaN


def test_antiderivative_far_abscissae_take_few_panels():
    F = Antiderivative("1")
    assert F.value(1e6) == 1e6
    assert F.n_panels <= 64
    assert F.value(-1e6) == -1e6
    assert F.n_panels <= 128


def test_antiderivative_overflow_is_a_typed_error():
    F = Antiderivative("exp(l)")
    with pytest.raises(EvaluationError):
        F.value(1000.0)
    got = F.value(np.array([1000.0, 1.0]))
    assert math.isnan(got[0])
    assert math.isclose(got[1], math.e - 1.0, rel_tol=0, abs_tol=1e-10)
    assert math.isclose(F.value(700.0), math.expm1(700.0), rel_tol=1e-10)


def test_liouville_value_does_not_depend_on_earlier_queries():
    # two identical factors, one of which first served other queries,
    # used to differ at (0.3, 0.9) in the ninth digit
    fresh = liouville_factor("l", "l", 1, 0, 2)
    used = liouville_factor("l", "l", 1, 0, 2)
    for t, x in np.random.default_rng(3).uniform(-1.5, 1.5, size=(40, 2)):
        try:
            used.value(float(t), float(x))
        except EvaluationError:
            pass
    assert used.value(0.3, 0.9) == fresh.value(0.3, 0.9)
    assert used.jet(0.3, 0.9) == fresh.jet(0.3, 0.9)


# ---------------------------------------------------------------------------
# General (two-variable) family

def test_liouville_trivial_exponents_match_closed_form():
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0)
    closed = parse("(u - 0.25*v + 1)^(-2)")
    rng = np.random.default_rng(11)
    for t, x in rng.uniform(-0.8, 0.8, size=(25, 2)):
        u, v = x + t, x - t
        want = evaluate(closed, {"u": u, "v": v})
        assert math.isclose(f.value(t, x), want, rel_tol=1e-12)
        assert abs(ricci_from_omega(f, (t, x)) - 2.0) < 1e-9


def test_liouville_value_and_jet_value_agree_bitwise():
    f = liouville_factor("sin(l)", "0.5*l", k=1.2, C=2.0, target=-2.0)
    for t, x in [(0.1, -0.3), (-0.4, 0.2), (0.45, 0.45)]:
        assert f.jet(t, x).value == f.value(t, x)


def test_liouville_nontrivial_exponents_curvature():
    f = liouville_factor("sin(l)", "0.5*l", k=1.2, C=2.0, target=-2.0)
    rng = np.random.default_rng(5)
    for t, x in rng.uniform(-0.5, 0.5, size=(20, 2)):
        assert abs(ricci_from_omega(f, (t, x)) + 2.0) < 1e-9


def test_liouville_fd_oracle_cross_check():
    f = liouville_factor("sin(l)", "0.5*l", k=1.2, C=2.0, target=-2.0,
                         quadrature_tol=1e-12)
    assert abs(fd_ricci_oracle(f, (0.2, -0.1), h=1e-3) + 2.0) < 1e-4


def test_liouville_raw_form_prints_closed_expression():
    f = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                         raw_antiderivative=True)
    assert unparse(f.expression) == OMEGA1_NULL_PRINTED
    assert f.provenance.parameters["antiderivative"] == "raw"
    assert f.provenance.parameters["reference"] is None


def test_liouville_raw_form_matches_standard_chart_printing():
    f = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                         raw_antiderivative=True)
    reference = parse(OMEGA1_SOURCE)
    rng = np.random.default_rng(3)
    for t, x in rng.uniform(-1.0, 1.0, size=(50, 2)):
        want = evaluate(reference, {"t": t, "x": x})
        assert math.isclose(f.value(t, x), want, rel_tol=1e-12)
        assert abs(ricci_from_omega(f, (t, x)) - 2.0) < 1e-9


def test_liouville_raw_equals_shifted_with_folded_constant():
    # Shifted antiderivatives replace F(s) = e^s by e^s - 1; with
    # k = 1, R = 2 the difference is the constant 1 - 0.25 = 0.75,
    # which folds into C.
    raw = liouville_factor("l", "l", k=1.0, C=0.0, target=2.0,
                           raw_antiderivative=True)
    shifted = liouville_factor("l", "l", k=1.0, C=0.75, target=2.0)
    rng = np.random.default_rng(17)
    for t, x in rng.uniform(-1.0, 1.0, size=(30, 2)):
        assert math.isclose(raw.value(t, x), shifted.value(t, x), rel_tol=1e-9)
    assert abs(ricci_from_omega(shifted, (0.2, 0.3)) - 2.0) < 1e-9


def test_liouville_zero_curvature_drops_second_antiderivative():
    f = liouville_factor("0", "0", k=1.0, C=0.0, target=0.0)
    # D reduces to F(u) = u, so the factor is (x+t)^(-2)
    assert math.isclose(f.value(0.5, 0.5), 1.0, rel_tol=1e-12)
    assert math.isclose(f.value(0.0, 2.0), 0.25, rel_tol=1e-12)
    assert abs(ricci_from_omega(f, (0.3, 0.4))) < 1e-9
    with pytest.raises(SingularDenominator):
        f.value(-0.5, 0.5)


def test_liouville_singular_band():
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0)
    # D = (x+t) - 0.25 (x-t) + 1 vanishes at t = x = -2/3... pick the
    # exact zero u = -1, v = 0 instead: t = -0.5, x = -0.5.
    with pytest.raises(SingularDenominator):
        f.value(-0.5, -0.5)
    with pytest.raises(SingularDenominator):
        f.jet(-0.5, -0.5)


def test_liouville_singular_eps_is_respected(monkeypatch):
    monkeypatch.setattr(families, "SINGULAR_EPS", 0.5)
    f = liouville_factor("0", "0", k=1.0, C=1.0, target=2.0)
    # here D(0,0) = 1 > eps but D = 0.3 at u = -0.7, v = 0
    with pytest.raises(SingularDenominator):
        f.value(-0.35, -0.35)


@pytest.mark.parametrize("build", [
    lambda: timelike_factor(-1e308, 0.0, 1e-308),
    lambda: spacelike_factor(1e308, 0.0, 1e-308),
    lambda: liouville_factor("l", "l", k=1e-308, C=0.0, target=1e308,
                             raw_antiderivative=True),
    lambda: liouville_factor("l", "l", k=1e-310, C=0.0, target=2.0),
], ids=["timelike", "spacelike", "liouville-raw", "liouville-shifted"])
def test_overflowing_derived_constant_is_refused(build):
    # finite parameters whose coefficient -c1/(2R), d1/(2R) or R/(8k) is
    # inf: the printed formula held "inf", which does not parse back
    with pytest.raises(ValueError, match="overflows"):
        build()


def test_liouville_parameter_validation():
    with pytest.raises(ValueError):
        liouville_factor("0", "0", k=0.0, C=1.0, target=2.0)
    with pytest.raises(ValueError):
        liouville_factor("2*l", "l", k=1.0, C=0.0, target=2.0,
                         raw_antiderivative=True)
    with pytest.raises(ValueError):
        liouville_factor("t + x", "0", k=1.0, C=0.0, target=2.0)


def test_liouville_provenance_records_parameters():
    f = liouville_factor("sin(l)", "0", k=1.5, C=0.25, target=-1.0)
    p = f.provenance
    assert p.family == "liouville"
    assert p.parameters["phi"] == "sin(l)"
    assert p.parameters["k"] == 1.5
    assert p.parameters["antiderivative"] == "shifted"
    assert p.parameters["reference"] == 0.0


# ---------------------------------------------------------------------------
# Ad-hoc expression factors

def test_expression_factor_standard_chart():
    f = factor_from_expression("exp(t)", claimed_curvature=0.0)
    assert f.chart == "tx"
    assert f.target_curvature == 0.0
    assert f.value(0.5, 9.0) == math.exp(0.5)


def test_expression_factor_null_chart():
    f = factor_from_expression("(u - 0.25*v + 1)^(-2)")
    assert f.chart == "uv"
    assert f.target_curvature is None
    assert math.isclose(f.value(0.3, -0.1), (0.3 + 0.025 + 1.0) ** -2,
                        rel_tol=1e-14)


def test_expression_factor_rejects_mixed_charts():
    with pytest.raises(MixedChartVariables):
        factor_from_expression("t + u")


def test_expression_factor_reserves_integration_variable():
    with pytest.raises(ValueError):
        factor_from_expression("l + 1")


def test_expression_factor_records_claim():
    f = factor_from_expression("sec(t)^2", claimed_curvature=2.0)
    assert f.provenance.parameters["claimed_R"] == 2.0
    assert f.provenance.parameters["source"] == "sec(t)^2"
