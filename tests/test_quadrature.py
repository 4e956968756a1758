import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbhardy.quadrature import (Grid, Measure, SampledFunction, _gauss_jacobi,
                                _gl_on_panels, grid_on_interval, make_quadrature,
                                MEASURE_LEBESGUE, MEASURE_MU)


_JACOBI_ORDERS = (-0.45, 0.0, 0.5, 1.0, 12.0)


@pytest.mark.parametrize("nu", _JACOBI_ORDERS)
@pytest.mark.parametrize("n", [16, 20, 40])
def test_gauss_jacobi_matches_scipy(nu, n):
    """The weights bessel_poisson uses, (1 - s)^(nu - 1/2) and
    (1 + s)^(nu - 1/2): nodes to 2e-15, weights to 1e-11 of their sum, as
    roots_jacobi's own rule is off by up to 1e-12 relative in integrals at
    nu = -0.45 (test_gauss_jacobi_integrates_a_smooth_function)."""
    for a1, b1 in ((nu + 0.5, 1.0), (1.0, nu + 0.5)):   # the exponents plus one
        nodes, weights = _gauss_jacobi(n, a1, b1)
        want_nodes, want_weights = sps.roots_jacobi(n, a1 - 1.0, b1 - 1.0)
        assert np.max(np.abs(nodes - want_nodes)) <= 2e-15
        assert np.max(np.abs(weights - want_weights)) <= 1e-11 * want_weights.sum()
        assert np.all(weights > 0)


@pytest.mark.parametrize("nu", _JACOBI_ORDERS)
def test_gauss_jacobi_integrates_a_smooth_function(nu):
    """int (1 + s)^b e^s / (2 + s) ds, b = nu - 1/2, to 1e-14 against
    mpmath, which takes it in v = (1 + s)^(b + 1), where the integrand is
    smooth."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        e = mpmath.mpf(nu) + mpmath.mpf(1) / 2   # b + 1
        want = mpmath.quad(lambda v: (lambda s: mpmath.exp(s) / (2 + s))(v ** (1 / e) - 1),
                           [0, 2**e]) / e
    for n in (20, 40):
        nodes, weights = _gauss_jacobi(n, 1.0, nu + 0.5)
        got = weights @ (np.exp(nodes) / (2.0 + nodes))
        assert abs(got - float(want)) <= 1e-14 * float(want)


def test_monomial_moments_unit_interval():
    """int_0^1 x^k dmu = 1/(k + 2 nu + 2), exactly integrable by the panels."""
    nu = 0.75
    g = make_quadrature("unit_interval", 128, measure=MEASURE_MU, nu=nu)
    for k in range(9):
        got = g.integrate(g.nodes**k)
        assert abs(got - 1.0 / (k + 2 * nu + 2)) < 1e-14


def test_lebesgue_moments():
    g = make_quadrature("unit_interval", 96, measure=MEASURE_LEBESGUE, nu=0.5)
    for k in range(9):
        assert abs(g.integrate(g.nodes**k) - 1.0 / (k + 1)) < 1e-14


def test_halfline_gaussian_moment():
    nu = 0.5
    radius = 8.0
    g = make_quadrature("halfline_truncated", 1024, measure=MEASURE_MU,
                        nu=nu, radius=radius)
    got = g.integrate(np.exp(-g.nodes**2))
    # int_0^R exp(-x^2) x^{2 nu + 1} dx = Gamma(nu+1)/2 * P(nu+1, R^2)
    expect = 0.5 * math.gamma(nu + 1) * sps.gammainc(nu + 1, radius**2)
    assert abs(got - expect) < 1e-12


def test_mu_distance_closed_form():
    nu = 1.25
    p = 2 * nu + 2
    for x, y in [(0.1, 0.7), (0.5, 0.5), (2.0, 0.3)]:
        expect = abs(y**p - x**p) / p
        assert abs(Measure.of(MEASURE_MU, nu).distance(x, y) - expect) < 1e-14


def ref_gl_on_panels(edges, counts):
    """The per-panel loop that computed one Gauss-Legendre rule per panel."""
    nodes_list = []
    weights_list = []
    for (a, b), p in zip(zip(edges[:-1], edges[1:]), counts):
        xg, wg = np.polynomial.legendre.leggauss(int(p))
        half = 0.5 * (b - a)
        nodes_list.append(0.5 * (a + b) + half * xg)
        weights_list.append(half * wg)
    return np.concatenate(nodes_list), np.concatenate(weights_list)


@pytest.mark.parametrize("domain, n, measure, nu, kw", [
    ("unit_interval", 1024, MEASURE_MU, 1.0, {}),        # the norm-check grids
    ("unit_interval", 1024, MEASURE_MU, 0.5, {}),
    ("unit_interval", 256, MEASURE_MU, -0.3, {}),
    ("unit_interval", 256, MEASURE_LEBESGUE, 0.5, {}),
    ("halfline_truncated", 1024, MEASURE_MU, 0.5, {"radius": 8.0})])
def test_grids_equal_the_per_panel_loop(domain, n, measure, nu, kw):
    """One rule per distinct panel count gives the nodes and weights of one
    rule per panel, bit for bit."""
    g = make_quadrature(domain, n, measure=measure, nu=nu, **kw)
    counts = np.histogram(g.nodes, bins=g.panel_edges)[0]
    assert len(set(counts.tolist())) < len(counts)      # counts repeat
    want_nodes, want_w = ref_gl_on_panels(g.panel_edges, counts)
    got_nodes, got_w = _gl_on_panels(g.panel_edges, counts)
    assert got_nodes.tobytes() == want_nodes.tobytes() == g.nodes.tobytes()
    assert got_w.tobytes() == want_w.tobytes()
    density = Measure.of(measure, nu).density
    assert g.weights.tobytes() == (want_w * density(want_nodes)).tobytes()


def test_subordination_nodes_equal_the_per_panel_loop():
    edges, counts = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0]), (64,) * 5 + (32,)
    for got, want in zip(_gl_on_panels(edges, counts), ref_gl_on_panels(edges, counts)):
        assert got.tobytes() == want.tobytes()


def test_grid_on_interval_restricts():
    g = grid_on_interval(0.2, 0.6, 64, MEASURE_MU, 0.5)
    assert g.nodes.min() > 0.2 and g.nodes.max() < 0.6
    got = g.integrate(np.ones_like(g.nodes))
    assert abs(got - (0.6**3 - 0.2**3) / 3.0) < 1e-14


def test_split_points_capture_kinks():
    c = 0.37
    g = make_quadrature("unit_interval", 64, measure=MEASURE_LEBESGUE,
                        nu=0.5, split_points=(c,))
    got = g.integrate(np.abs(g.nodes - c))
    expect = 0.5 * (c**2 + (1 - c) ** 2)
    assert abs(got - expect) < 1e-14


def test_resolution_frequency_scales_with_nodes():
    g1 = make_quadrature("unit_interval", 64, measure=MEASURE_MU, nu=0.5)
    g2 = make_quadrature("unit_interval", 256, measure=MEASURE_MU, nu=0.5)
    assert g2.resolution_frequency() > 2 * g1.resolution_frequency()


def test_sampled_function_norms():
    g = make_quadrature("unit_interval", 128, measure=MEASURE_LEBESGUE, nu=0.5)
    f = SampledFunction(grid=g, values=g.nodes - 0.5)
    assert f.measure == MEASURE_LEBESGUE
    assert abs(g.integrate(f.values)) < 1e-15
    assert abs(f.l1_norm() - 0.25) < 1e-14
    assert abs(math.sqrt(g.integrate(f.values**2)) - math.sqrt(1.0 / 12.0)) < 1e-14


def test_make_quadrature_rejects_unknown_domain():
    with pytest.raises(ValueError):
        make_quadrature("circle", 32, measure=MEASURE_MU, nu=0.5)


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-0.4, 3.0), k=st.integers(0, 8))
def test_moment_property(nu, k):
    # the graded panels deepen for fractional density exponents, so moments
    # come out at machine precision across the whole admissible range
    g = make_quadrature("unit_interval", 128, measure=MEASURE_MU, nu=nu)
    got = g.integrate(g.nodes**k)
    assert abs(got - 1.0 / (k + 2 * nu + 2)) < 1e-14


# ---------------------------------------------------------------------------
# the power-law measure

_TAG = st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE])
_NU = st.floats(-0.5, 8.0, exclude_min=True)
_X = st.floats(1e-3, 2.0)


@settings(max_examples=200, deadline=None)
@given(tag=_TAG, nu=_NU, xs=st.lists(_X, min_size=3, max_size=3))
def test_measure_cdf_interval_distance(tag, nu, xs):
    m = Measure.of(tag, nu)
    a, b, c = sorted(xs)
    for x in xs:
        assert m.quantile(m.cdf(x)) == pytest.approx(x, rel=1e-12)
    # one formula for an interval, additive, and 0 on an empty one
    assert m.interval(a, c) == m.cdf(c) - m.cdf(a)
    assert m.interval(a, b) + m.interval(b, c) == pytest.approx(
        m.interval(a, c), rel=1e-13, abs=1e-300)
    assert m.interval(c, a) == 0.0 and m.interval(b, b) == 0.0
    if tag == MEASURE_LEBESGUE:
        assert m.p == 1.0 and m.interval(a, c) == c - a
    # the cdf distance is a metric
    assert m.distance(a, c) == m.distance(c, a)
    assert m.distance(a, a) == 0.0
    for x, y, z in ((a, c, b), (a, b, c), (b, a, c)):
        assert m.distance(x, y) <= (m.distance(x, z) + m.distance(z, y)) \
            * (1.0 + 1e-14)


@settings(max_examples=40, deadline=None)
@given(tag=_TAG, nu=_NU, lo=_X, width=st.floats(1e-3, 1.0),
       s=st.floats(-3.0, 3.0), c=st.floats(-3.0, 3.0))
# subnormal products, which once rounded twice: off by one subnormal step
@example(tag=MEASURE_MU, nu=0.0, lo=0.03125, width=0.0625, s=0.0, c=4.290429e-308)
@example(tag=MEASURE_MU, nu=0.0, lo=0.03125, width=0.0625, s=4.290429e-308, c=-3e-308)
def test_measure_linear_integrals_match_quadrature(tag, nu, lo, width, s, c):
    mpmath = pytest.importorskip("mpmath")
    m = Measure.of(tag, nu)
    p, hi = m.p, lo + width
    with mpmath.workdps(30):
        # the two moments, each with its integrand scaled to peak at 1 (the
        # quadrature's error target is absolute)
        m1, m0 = (mpmath.quad(lambda x: (x / hi) ** (mpmath.mpf(p) - 1 + k),
                              [lo, hi]) * mpmath.mpf(hi) ** (p - 1 + k)
                  for k in (1, 0))
        want = s * m1 + c * m0
    got = m.linear_integrals(s, c, lo, hi)
    # the closed form differences antiderivative values, so its rounding
    # error scales with their size, not with the integral's
    size = abs(s) * hi ** (p + 1) / (p + 1) + abs(c) * hi**p / p
    assert abs(got - float(want)) <= 1e-14 * size


def test_measure_vectorized_interval():
    m = Measure.of(MEASURE_MU, 0.5)
    a = np.array([0.1, 0.5, 0.7])
    b = np.array([0.3, 0.5, 0.2])
    got = m.interval(a, b)
    assert got[0] == m.cdf(0.3) - m.cdf(0.1)
    assert got[1] == 0.0 and got[2] == 0.0


def test_unknown_measure_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown measure tag"):
        Measure.of("weighted", 0.5)
    # a mistyped tag used to drop the density silently
    with pytest.raises(ValueError, match="unknown measure tag"):
        grid_on_interval(0.1, 0.5, 24, "Mu", 0.5)
    with pytest.raises(ValueError, match="unknown measure tag"):
        make_quadrature("unit_interval", 32, measure="Mu", nu=0.5)
