"""Atoms, splitting identities, the Haar cascade, and the decomposition.

Everything in this module is piecewise linear, so most oracles are closed
forms: integrals of monomial weights against linear pieces, sup norms at
breakpoints, and exact telescoping of the splitting identities.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbhardy.errors import NumericsError
from fbhardy.covers import DyadicCover, FAMILY_ONE_END, FAMILY_TWO_END, Interval
from fbhardy.hardy import (AtomTable, Decomposition, KIND_CANCELLATIVE,
                           KIND_SPECIAL, PiecewiseLinear, atomic_decompose,
                           build_partition, cascade_decompose, chord_product,
                           globalize_special, h1_norm_report, haar_atom,
                           partition_coverage, random_atoms, special_atom,
                           two_atom_split)
from fbhardy.maximal import TimeGrid
from fbhardy.quadrature import (MEASURE_LEBESGUE, MEASURE_MU, Measure,
                                SampledFunction, make_quadrature)


def _sigma(atom):
    """The measure of the support of a one-row table's atom."""
    return float(Measure.of(atom.measure, atom.nu).interval(*atom.row(0).breaks[[0, -1]]))


def _bump_pl(a=0.08, b=0.40, n=33):
    nodes = np.linspace(a, b, n)
    u = (nodes - a) / (b - a)
    return PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)


# ---------------------------------------------------------------------------
# piecewise-linear algebra


def test_constant_integral_closed_form():
    fn = PiecewiseLinear.constant(0.2, 0.7, 3.0)
    nu = 0.8
    p = 2 * nu + 2
    assert fn.integral(MEASURE_MU, nu) == pytest.approx(
        3.0 * (0.7**p - 0.2**p) / p, rel=1e-14)
    assert fn.integral(MEASURE_LEBESGUE, nu) == pytest.approx(1.5, rel=1e-14)


def test_interpolant_reproduces_node_values():
    nodes = np.array([0.1, 0.3, 0.45, 0.9])
    vals = np.array([0.0, 2.0, -1.0, 0.5])
    fn = PiecewiseLinear.from_node_values(nodes, vals)
    assert np.allclose(fn.evaluate(nodes), vals)
    assert fn.evaluate(0.2) == pytest.approx(1.0)
    assert fn.evaluate(0.05) == 0.0 and fn.evaluate(0.95) == 0.0


def test_tent_shape_and_integral():
    fn = PiecewiseLinear.tent(0.2, 0.6, 2.0)
    assert fn.sup_norm() == pytest.approx(2.0)
    assert fn.evaluate(0.4) == pytest.approx(2.0)
    assert fn.integral(MEASURE_LEBESGUE, 0.5) == pytest.approx(0.4 * 2.0 / 2)


def test_l1_norm_splits_at_sign_changes():
    fn = PiecewiseLinear.from_node_values(np.array([0.0, 1.0]),
                                          np.array([-0.5, 0.5]))
    assert fn.integral(MEASURE_LEBESGUE, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert fn.l1_norm(MEASURE_LEBESGUE, 0.5) == pytest.approx(0.25, rel=1e-14)


def test_integral_between_is_additive():
    fn = _bump_pl()
    a, b, c = 0.1, 0.23, 0.37
    whole = fn.integral_between(np.array([a]), np.array([c]), MEASURE_MU, 0.5)
    parts = (fn.integral_between(np.array([a]), np.array([b]), MEASURE_MU, 0.5)
             + fn.integral_between(np.array([b]), np.array([c]), MEASURE_MU, 0.5))
    assert whole[0] == pytest.approx(parts[0], rel=1e-13)


def test_scaled_and_shifted():
    fn = _bump_pl()
    x = np.linspace(0.05, 0.45, 41)
    assert np.allclose(fn.scaled(-2.5).evaluate(x), -2.5 * fn.evaluate(x))
    shifted = fn.plus_constant(0.3)
    inside = (x >= fn.breaks[0]) & (x <= fn.breaks[-1])
    assert np.allclose(shifted.evaluate(x[inside]), fn.evaluate(x[inside]) + 0.3)


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.2, 0.1]), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.1, 0.2]), np.zeros(2), np.zeros(1))


def test_piecewise_linear_from_lists_is_float():
    """List input is stored as float64 arrays, so every query works on it."""
    fn = PiecewiseLinear([0, .5, 1], [0, 0], [1, 2])
    want = PiecewiseLinear(np.array([0.0, 0.5, 1.0]), np.zeros(2),
                           np.array([1.0, 2.0]))
    for arr in (fn.breaks, fn.slopes, fn.intercepts):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert not arr.flags.writeable
    x = np.array([-0.1, 0.0, 0.25, 0.5, 0.9, 1.0, 1.1])
    np.testing.assert_array_equal(fn.evaluate(x), want.evaluate(x))
    assert fn.evaluate(0.75) == 2.0
    assert fn.sup_norm() == 2.0
    assert fn.integral(MEASURE_LEBESGUE, 0.5) == 1.5
    assert fn.integral(MEASURE_MU, 0.5) == want.integral(MEASURE_MU, 0.5)
    assert fn.l1_norm(MEASURE_MU, 0.5) == want.l1_norm(MEASURE_MU, 0.5)


def test_piecewise_linear_from_int_arrays_is_float():
    ints = [np.array([0, 1, 3]), np.array([2, -1]), np.array([1, 4])]
    fn = PiecewiseLinear(*ints)
    want = PiecewiseLinear(*(a.astype(float) for a in ints))
    for got, ref in zip((fn.breaks, fn.slopes, fn.intercepts),
                        (want.breaks, want.slopes, want.intercepts)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ref)
    x = np.linspace(-0.5, 3.5, 17)
    np.testing.assert_array_equal(fn.evaluate(x), want.evaluate(x))
    assert fn.sup_norm() == want.sup_norm() == 3.0
    assert fn.scaled(0.5).slopes.dtype == np.float64


def test_piecewise_linear_keeps_float64_input():
    b, s, c = np.array([0.1, 0.3, 0.6]), np.array([1.0, -2.0]), np.zeros(2)
    fn = PiecewiseLinear(b, s, c)
    assert fn.breaks is b and fn.slopes is s and fn.intercepts is c


@given(st.floats(0.01, 0.9), st.floats(0.02, 0.09), st.floats(-2, 2),
       st.floats(-2, 2), st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE]))
@settings(max_examples=60, deadline=None)
def test_l1_dominates_integral(a, width, v0, v1, measure):
    fn = PiecewiseLinear.from_node_values(np.array([a, a + width]),
                                          np.array([v0, v1]))
    l1 = fn.l1_norm(measure, 0.7)
    assert l1 + 1e-15 >= abs(fn.integral(measure, 0.7))


def test_chord_product_exact_at_shared_points():
    f = _bump_pl()
    g = PiecewiseLinear.from_node_values(np.array([0.05, 0.2, 0.5]),
                                         np.array([1.0, 0.4, 0.0]))
    pts = np.unique(np.concatenate([f.breaks, g.breaks]))
    pts = pts[(pts >= 0.08) & (pts <= 0.45)]
    prod = chord_product(f, g, pts)
    assert np.allclose(prod.evaluate(pts), f.evaluate(pts) * g.evaluate(pts),
                       atol=1e-14)


def test_partition_chords_sum_back_to_input():
    cover = DyadicCover(FAMILY_ONE_END, zeta=0.02, j_max=10)
    members = build_partition(cover)
    f = _bump_pl()
    points = np.unique(np.concatenate([f.breaks]
                                      + [m.eta.breaks for m in members]))
    x = np.linspace(0.085, 0.395, 301)
    total = np.zeros_like(x)
    for m in members:
        window = m.eta.support
        pp = points[(points >= window.a) & (points <= window.b)]
        if len(pp) < 2:
            continue
        total += chord_product(f, m.eta, pp).evaluate(x)
    assert np.allclose(total, f.evaluate(x), atol=1e-13)


# ---------------------------------------------------------------------------
# atoms and their validation


def test_special_atom_is_normalized_indicator():
    cover = DyadicCover(FAMILY_ONE_END, zeta=0.02)
    atom = special_atom(cover, 3, 0.5, MEASURE_MU)
    assert len(atom) == 1 and atom.kind(0) == KIND_SPECIAL
    assert atom.row(0).integral(atom.measure, atom.nu) == pytest.approx(1.0, rel=1e-12)
    rep, = atom.reports(cover)
    assert rep["valid"] and rep["cell_match_ok"]


def test_haar_atom_median_split_saturates_size():
    a, b, nu = 0.2, 0.6, 0.5
    # the point halving the weighted measure of (a, b)
    p = 2 * nu + 2
    m = ((a**p + b**p) / 2) ** (1 / p)
    atom = haar_atom(a, m, b, nu, MEASURE_MU)
    assert atom.row(0).integral(atom.measure, atom.nu) == pytest.approx(0.0, abs=1e-15)
    assert atom.row(0).sup_norm() == pytest.approx(1.0 / _sigma(atom), rel=1e-12)
    assert atom.reports()[0]["valid"]


def test_haar_atom_off_median_stays_valid():
    atom = haar_atom(0.2, 0.25, 0.6, 0.5, MEASURE_LEBESGUE)
    rep, = atom.reports()
    assert rep["valid"]
    assert rep["cancellation"] == pytest.approx(0.0, abs=1e-15)
    assert atom.row(0).sup_norm() <= (1 + 1e-12) / _sigma(atom)


def test_validate_atom_flags_defects():
    good = haar_atom(0.2, 0.4, 0.6, 0.5, MEASURE_LEBESGUE)
    oversized = AtomTable.of(good.row(0).scaled(2.0), good.measure, good.nu,
                             KIND_CANCELLATIVE)
    assert not oversized.reports()[0]["size_ok"]
    lopsided = AtomTable.of(PiecewiseLinear.constant(0.2, 0.6, 1.0),
                            MEASURE_LEBESGUE, 0.5, KIND_CANCELLATIVE)
    assert not lopsided.reports()[0]["cancellation_ok"]


def test_unknown_measure_tag_is_rejected():
    # "weighted" used to build Lebesgue levels +-5 without complaint
    with pytest.raises(ValueError, match="unknown measure tag"):
        haar_atom(0.1, 0.2, 0.3, 0.5, "weighted")
    with pytest.raises(ValueError, match="unknown measure tag"):
        PiecewiseLinear.constant(0.2, 0.6, 1.0).integral("Lebesgue", 0.5)


def test_functions_and_atoms_compare_by_identity():
    f = PiecewiseLinear.tent(0.2, 0.6)
    g = PiecewiseLinear.tent(0.2, 0.6)
    a = haar_atom(0.2, 0.4, 0.6, 0.5, MEASURE_LEBESGUE)
    b = AtomTable.of(a.row(0), a.measure, a.nu, a.kind(0), a.label(0))
    assert f == f and not f == g and f != g
    assert a == a and a != b
    assert len({f, g, f}) == 2 and len({a, b, a}) == 2
    assert hash(a) == hash(a)


@given(st.floats(0.02, 0.5), st.floats(0.1, 0.45), st.floats(0.05, 0.95),
       st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE]))
@settings(max_examples=60, deadline=None)
def test_haar_atoms_always_validate(a, width, frac, measure):
    b = a + width
    m = a + frac * width
    atom = haar_atom(a, m, b, 0.9, measure)
    rep, = atom.reports()
    assert rep["valid"], rep


# ---------------------------------------------------------------------------
# splitting identities


@pytest.mark.parametrize("measure,family", [(MEASURE_MU, FAMILY_ONE_END),
                                            (MEASURE_LEBESGUE, FAMILY_TWO_END)])
def test_two_atom_split_identity(measure, family):
    cover = DyadicCover(family, zeta=0.02)
    j = 2 if family == FAMILY_ONE_END else -2
    split = two_atom_split(cover, j, 0.5, measure)
    assert split["lam1"] > 0
    assert split["cancellative"].reports()[0]["valid"]
    big = cover.starred(j, 2)
    x = np.linspace(big.a + 1e-6, big.b - 1e-6, 211)
    lhs = split["cell_special"].row(0).evaluate(x)
    rhs = (split["lam1"] * split["cancellative"].row(0).evaluate(x)
           + split["local_special"].row(0).evaluate(x))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_globalize_special_reproduces_local_atom():
    cover = DyadicCover(FAMILY_ONE_END, zeta=0.02)
    coef = 0.7
    pairs = globalize_special(cover, 3, 0.5, MEASURE_MU, coef)
    assert len(pairs) == 2
    split = two_atom_split(cover, 3, 0.5, MEASURE_MU)
    big = cover.starred(3, 2)
    x = np.linspace(big.a + 1e-6, big.b - 1e-6, 101)
    got = sum(c * pairs.row(i).evaluate(x) for c, i in pairs)
    want = coef * split["local_special"].row(0).evaluate(x)
    assert np.allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# partition of unity


@pytest.mark.parametrize("measure,family", [(MEASURE_MU, FAMILY_ONE_END),
                                            (MEASURE_LEBESGUE, FAMILY_TWO_END)])
def test_partition_sums_to_one(measure, family):
    cover = DyadicCover(family, zeta=0.02, j_max=12)
    members = build_partition(cover)
    cov = partition_coverage(members)
    x = np.linspace(cov.a + 1e-9, cov.b - 1e-12, 1500)
    total = sum(m.eta.evaluate(x) for m in members)
    assert np.allclose(total, 1.0, atol=1e-12)
    for m in members:
        vals = m.eta.evaluate(x)
        assert np.all((vals >= 0) & (vals <= 1 + 1e-15))


def test_partition_slopes_track_cell_scale():
    cover = DyadicCover(FAMILY_ONE_END, zeta=0.02, j_max=12)
    members = build_partition(cover)
    by_j = {m.j: float(np.max(np.abs(m.eta.slopes))) for m in members}
    # ramp widths shrink geometrically toward the accumulation end
    for j in range(2, 11):
        assert by_j[j + 1] > by_j[j]
    assert by_j[10] / by_j[2] > 2.0 ** 5


# ---------------------------------------------------------------------------
# Haar cascade


def test_cascade_mean_and_details_integrate_exactly():
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    space = Interval(0.2, 0.5)
    cascade = cascade_decompose(fn, space, MEASURE_MU, 0.5,
                                detail_cut=1e-8)
    assert cascade.mean_coef == pytest.approx(fn.integral(MEASURE_MU, 0.5),
                                              rel=1e-13)
    x = np.linspace(0.2 + 1e-9, 0.5, 4096)
    w = np.gradient(x) * x ** 2   # mu density at nu = 1/2
    total = float(np.sum(cascade.evaluate(x) * w))
    assert total == pytest.approx(cascade.mean_coef, abs=2e-4)


def test_cascade_reconstructs_input_exactly():
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    space = Interval(0.2, 0.5)
    cascade = cascade_decompose(fn, space, MEASURE_LEBESGUE, 0.5,
                                detail_cut=1e-6)
    x = np.linspace(0.2001, 0.4999, 3000)
    err = np.abs(cascade.evaluate(x) - fn.evaluate(x))
    # every stopped cell carries its exact remainder, so the finite sum
    # reproduces the input to rounding no matter where the cut sits
    assert np.max(err) < 1e-9
    assert cascade.closure_l1 > 0
    assert len(cascade.closers) > 0
    for lev_prev, lev_next in zip(cascade.levels[:-1], cascade.levels[1:]):
        assert lev_next.depth > lev_prev.depth
    for lev in cascade.levels:
        assert np.all(np.diff(lev.idx) > 0)


def test_cascade_cut_trades_details_for_closure_mass():
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    space = Interval(0.2, 0.5)
    x = np.linspace(0.2, 0.5, 4001)
    details, closures = [], []
    for cut in (1e-4, 1e-6, 1e-9):
        cascade = cascade_decompose(fn, space, MEASURE_LEBESGUE, 0.5,
                                    detail_cut=cut)
        err = np.max(np.abs(cascade.evaluate(x) - fn.evaluate(x)))
        assert err < 1e-9
        details.append(sum(len(lev.idx) for lev in cascade.levels))
        closures.append(cascade.closure_l1)
    assert details[0] < details[1] < details[2]
    assert closures[0] > closures[1] > closures[2] > 0


def test_cascade_materialize_orders_and_validates():
    fn = _bump_pl(0.22, 0.46)
    space = Interval(0.2, 0.5)
    cascade = cascade_decompose(fn, space, MEASURE_LEBESGUE, 0.5,
                                detail_cut=1e-6)
    table = cascade.materialize()
    pairs = list(table)[:10]
    assert 0 < len(pairs) <= 10
    mags = [abs(c) for c, _ in pairs]
    assert mags == sorted(mags, reverse=True)
    reports = table.reports()
    for c, i in pairs:
        assert reports[i]["valid"]
    assert cascade.coeff_l1() >= sum(mags) - 1e-15


def test_cascade_evaluate_left_of_origin_is_warning_free():
    """At nu = -0.3 the mu cdf takes a non-integer power of x; points left
    of the origin are clamped to 0 first, so they read 0 without warnings."""
    fn = PiecewiseLinear.tent(0.1, 0.4, 1.0)
    cascade = cascade_decompose(fn, Interval(0.0, 0.5), MEASURE_MU, -0.3,
                                detail_cut=1e-6)
    x = np.linspace(-0.3, 0.6, 901)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cascade.evaluate(x)
    inside = (x > 0.0) & (x <= 0.5)
    assert np.all(got[~inside] == 0.0)
    # the mu-measure tent apex reconstructs to a few 1e-9, as at nu = 1/2
    assert np.max(np.abs(got[inside] - fn.evaluate(x[inside]))) < 1e-8


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_materialize_refuses_closer_it_cannot_normalize(measure):
    """A tent of height 1e-307 leaves closer coefficients below the normal
    range, whose inverse overflows: materialize names the closer and raises
    instead of returning atoms with infinite slopes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cascade = cascade_decompose(PiecewiseLinear.tent(0.25, 0.45, 1e-307),
                                    Interval(0.2, 0.5), measure, 0.5)
        with pytest.raises(NumericsError, match=r"closer \[d\d+,k\d+\]"):
            cascade.materialize()


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_atoms_refuse_closer_as_materialize_does(measure):
    """A decomposition holding that cascade after a sound one refuses its
    atoms with materialize's NumericsError, which names the same closer."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = cascade_decompose(PiecewiseLinear.tent(0.25, 0.45, 1e-307),
                                 Interval(0.2, 0.5), measure, 0.5)
        sound = cascade_decompose(PiecewiseLinear.tent(0.25, 0.45, 1.0),
                                  Interval(0.2, 0.5), measure, 0.5)
        errors, empty = [], AtomTable._concat(measure, 0.5, [])
        for call in (tiny.materialize,
                     Decomposition(measure, 0.5, [(sound, empty), (tiny, empty)]).atoms):
            with pytest.raises(NumericsError) as info:
                call()
            errors.append((info.value.operation, info.value.detail))
    assert errors[0] == errors[1]
    assert errors[0][0] == "materialize" and "cannot be normalized" in errors[0][1]


def test_cascade_rejects_empty_space():
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.0)
    with pytest.raises(ValueError):
        cascade_decompose(fn, Interval(0.5, 0.5 + 1e-300), MEASURE_LEBESGUE, 0.5)


# ---------------------------------------------------------------------------
# the decomposition pipeline


def test_atomic_decompose_weighted_family(grid_mu):
    fn = _bump_pl()
    dec = atomic_decompose(fn, nu=0.5, measure=MEASURE_MU)
    f = SampledFunction(grid=grid_mu, values=fn.evaluate(grid_mu.nodes))
    out = dec.summary(f)
    assert out["residual_rel"] < 1e-6
    assert out["n_closers"] > 0
    assert out["closure_l1"] < 1e-2 * out["coeff_l1"]
    assert out["coeff_l1"] > 0 and math.isfinite(out["coeff_l1"])
    x = np.linspace(0.09, 0.39, 500)
    assert np.max(np.abs(dec.reconstruct(x) - fn.evaluate(x))) < 1e-8


def test_atomic_decompose_flat_family():
    fn = PiecewiseLinear.tent(0.3, 0.62, 1.0)
    dec = atomic_decompose(fn, nu=0.5, measure=MEASURE_LEBESGUE)
    norm = fn.l1_norm(MEASURE_LEBESGUE, 0.5)
    x = np.linspace(0.3, 0.62, 20001)
    gap = np.abs(dec.reconstruct(x) - fn.evaluate(x))
    assert np.trapezoid(gap, x) / norm < 1e-6
    assert np.max(gap) < 1e-7
    assert dec.atoms().check()["valid"][:40].all()


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_a_support_reaching_an_end_is_refused_as_not_decomposed_yet(measure):
    """No cover's j_max reaches x = 1 (nor x = 0 in the Lebesgue system):
    the refusal names no knob."""
    for fn in (PiecewiseLinear.constant(0.0, 1.0, 1.0), PiecewiseLinear.tent(0.6, 1.0, 1.0)):
        with pytest.raises(ValueError, match=r"reach an end of \(0, 1\) are not decomposed "
                           r"yet$") as info:
            atomic_decompose(fn, nu=0.5, measure=measure)
        assert "pass a cover" not in str(info.value)


@pytest.mark.parametrize("family, measure, fn", [
    (FAMILY_ONE_END, MEASURE_MU, PiecewiseLinear.tent(0.95, 0.99, 1.0)),
    (FAMILY_ONE_END, MEASURE_MU, PiecewiseLinear.constant(0.0, 0.9999, 1.0)),
    (FAMILY_TWO_END, MEASURE_LEBESGUE, PiecewiseLinear.tent(1e-4, 0.6, 1.0))])
def test_a_cover_too_short_for_the_support_names_the_j_max_that_serves(family, measure, fn):
    """A caller's cover that stops short of an interior support is refused
    with the j_max that covers it, and a cover with that j_max decomposes
    it as the default cover does."""
    with pytest.raises(ValueError, match=r"of a cover with j_max = 3; "
                       r"pass a cover with j_max = (\d+)$") as info:
        atomic_decompose(fn, nu=0.5, measure=measure, cover=DyadicCover(family, j_max=3))
    j_max = int(str(info.value).rsplit("= ", 1)[1])
    got = atomic_decompose(fn, nu=0.5, measure=measure, cover=DyadicCover(family, j_max=j_max))
    want = atomic_decompose(fn, nu=0.5, measure=measure)
    x = np.linspace(0.0, 1.0, 4097)[1:-1]
    assert got.coeff_l1() == want.coeff_l1()
    assert np.array_equal(got.reconstruct(x), want.reconstruct(x))


def test_atomic_decompose_input_contracts(grid_mu):
    fn = _bump_pl()
    with pytest.raises(ValueError):
        atomic_decompose(fn, nu=0.5)          # raw input needs a measure tag
    with pytest.raises(TypeError):
        atomic_decompose(lambda x: x, nu=0.5, measure=MEASURE_MU)
    tiny_cover = DyadicCover(FAMILY_ONE_END, zeta=0.02, j_max=3)
    # a truncated one-end cover loses coverage near the accumulation point,
    # so support poking past the last closing ramp must be refused
    high = PiecewiseLinear.tent(0.95, 0.99, 1.0)
    with pytest.raises(ValueError):
        atomic_decompose(high, nu=0.5, measure=MEASURE_MU, cover=tiny_cover)
    f = SampledFunction(grid=grid_mu, values=fn.evaluate(grid_mu.nodes))
    dec = atomic_decompose(f, nu=0.5)         # measure read off the tag
    assert dec.measure == MEASURE_MU


def test_random_atoms_are_valid_and_deterministic():
    for measure in (MEASURE_MU, MEASURE_LEBESGUE):
        atoms = random_atoms(np.random.default_rng(20240), measure, 0.5,
                             count=60)
        assert len(atoms) == 60
        for report in atoms.reports():
            assert report["valid"], report["label"]
        again = random_atoms(np.random.default_rng(20240), measure, 0.5,
                             count=60)
        assert [atoms.label(i) for _, i in atoms] == [again.label(i) for _, i in again]
        assert all(atoms.row(i).breaks[0] == again.row(i).breaks[0] for i in range(60))


def test_h1_norm_report_fields(basis_half):
    grid = make_quadrature("unit_interval", 64, MEASURE_MU, 0.5)
    f = SampledFunction(grid=grid, values=np.maximum(
        0.0, 1 - np.abs((grid.nodes - 0.3) / 0.15)))
    tg = TimeGrid.build(1e-3, 2.0, ratio=1.25)
    rep = h1_norm_report(f, basis_half, tg, nu=0.5)
    assert rep["n_details"] > 0
    assert 0 < rep["ratio"] < math.inf
    assert rep["residual_rel"] < 1e-6
    assert rep["coeff_l1"] > 0 and rep["maximal_l1"] > 0
