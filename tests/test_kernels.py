"""Semigroup kernels on the unit interval and the half line.

Oracles: a brute-force eigenfunction sum built from scipy parts at nu=0, the
nu=1/2 closed forms (sine eigenfunctions, Gaussian images, the explicit
half-line Poisson kernel), adaptive quadrature for the subordination
integral, and central finite differences for the derivative kernels.
"""
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps

from fbhardy.errors import NumericsError
from fbhardy.kernels import (UnitIntervalKernels, _subordinated_poisson, bessel_heat,
                             bessel_poisson, check_sharp_estimate, dy_bessel_heat, LEMMA_IDS)
from fbhardy.quadrature import Measure, MEASURE_MU

P1_HALF_CLOSED = 2.0 * math.exp(-math.pi) / (1.0 - math.exp(-2.0 * math.pi))


def _brute_poisson_nu0(t, x, y, n_modes=600):
    """Weighted Poisson kernel at nu=0 from scipy zeros and norm constants."""
    lam = sps.jn_zeros(0, n_modes)
    c = math.sqrt(2.0) / np.abs(sps.jv(1, lam))
    fx = c * sps.jv(0, lam * x)
    fy = c * sps.jv(0, lam * y)
    return float(np.sum(np.exp(-t * lam) * fx * fy))


def _gaussian_images_heat(t, x, y, n_img=4):
    """Flat heat kernel on (0,1) at nu=1/2 via the method of images."""
    total = 0.0
    for k in range(-n_img, n_img + 1):
        total += math.exp(-((x - y + 2 * k) ** 2) / (4 * t))
        total -= math.exp(-((x + y + 2 * k) ** 2) / (4 * t))
    return total / math.sqrt(4 * math.pi * t)


def test_poisson_mu_brute_force_nu0(basis_zero):
    k = UnitIntervalKernels(basis_zero)
    for t, x, y in [(0.2, 0.3, 0.7), (0.5, 0.5, 0.5), (1.0, 0.9, 0.2)]:
        got = k.poisson_mu(t, np.array([x]), np.array([y]))[0]
        assert abs(got - _brute_poisson_nu0(t, x, y)) < 1e-10


def test_flat_poisson_closed_form(kernels_half):
    got = kernels_half.poisson_lebesgue(1.0, np.array([0.5]),
                                        np.array([0.5]))[0]
    assert abs(got - P1_HALF_CLOSED) < 1e-12


def test_flat_heat_matches_images(kernels_half):
    for t in (0.02, 0.05, 0.1):
        for x, y in [(0.3, 0.4), (0.5, 0.5), (0.8, 0.15)]:
            got = kernels_half.heat_lebesgue(t, np.array([x]),
                                             np.array([y]))[0]
            assert abs(got - _gaussian_images_heat(t, x, y)) < 1e-11


def test_kernel_symmetry(kernels_half):
    x = np.linspace(0.1, 0.9, 7)
    for name in ("poisson_mu", "poisson_lebesgue", "heat_mu",
                 "heat_lebesgue"):
        mat = getattr(kernels_half, name)(0.3, x, x, matrix=True)
        np.testing.assert_allclose(mat, mat.T, rtol=1e-11, atol=1e-13)


def test_matrix_agrees_with_pointwise(kernels_half):
    x = np.linspace(0.2, 0.8, 5)
    y = np.linspace(0.15, 0.85, 6)
    mat = kernels_half.poisson_mu(0.4, x, y, matrix=True)
    for i, xi in enumerate(x):
        row = kernels_half.poisson_mu(0.4, np.full(6, xi), y)
        np.testing.assert_allclose(mat[i], row, rtol=1e-13, atol=1e-15)


def test_poisson_raises_below_certified_floor(kernels_half):
    floor = kernels_half.floor("poisson")
    with pytest.raises(NumericsError):
        kernels_half.poisson_mu(0.2 * floor, np.array([0.5]),
                                np.array([0.5]))


def test_eigenfunction_decay(kernels_half, basis_half, grid_mu):
    """Applying the Poisson kernel matrix to phi_n multiplies by e^{-t lam}."""
    t = 0.3
    mat = kernels_half.poisson_mu(t, grid_mu.nodes, grid_mu.nodes,
                                  matrix=True)
    for n in (1, 4, 9):
        phi = basis_half.phi_matrix(grid_mu.nodes, n)[n - 1]
        got = mat @ (grid_mu.weights * phi)
        lam = basis_half.table.zeros[n - 1]
        np.testing.assert_allclose(got, math.exp(-t * lam) * phi,
                                   rtol=0, atol=1e-9)


def test_chapman_kolmogorov_small(kernels_half, grid_mu):
    s, t = 0.3, 0.4
    w = grid_mu.weights
    ks = kernels_half.poisson_mu(s, grid_mu.nodes, grid_mu.nodes, matrix=True)
    kt = kernels_half.poisson_mu(t, grid_mu.nodes, grid_mu.nodes, matrix=True)
    kst = kernels_half.poisson_mu(s + t, grid_mu.nodes, grid_mu.nodes,
                                  matrix=True)
    composed = ks @ (w[:, None] * kt)
    np.testing.assert_allclose(composed, kst, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# half-line kernels


def test_bessel_heat_half_order_closed_form():
    x = np.linspace(0.05, 3.0, 30)
    y = np.linspace(0.1, 2.5, 30)
    for t in (0.01, 0.3, 2.0):
        got = bessel_heat(0.5, t, x[:, None], y[None, :])
        g = (np.exp(-((x[:, None] - y[None, :]) ** 2) / (4 * t))
             - np.exp(-((x[:, None] + y[None, :]) ** 2) / (4 * t)))
        expect = g / (2 * np.sqrt(np.pi * t) * x[:, None] * y[None, :])
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-300)


def test_bessel_heat_large_argument_route():
    """xy/2t far beyond the h_nu switch exercises the scaled route."""
    nu, t, x, y = 1.5, 1e-4, 3.0, 3.0003
    got = bessel_heat(nu, t, x, y)
    u = x * y / (2 * t)
    expect = (x * y) ** (-nu) / (2 * t) * math.exp(-(x - y) ** 2 / (4 * t)) \
        * sps.ive(nu, u)
    assert abs(got / expect - 1.0) < 1e-12


@pytest.mark.parametrize("nu", [-0.3, 0.5, 1.0, 4.5, 12.0])
def test_heat_kernels_where_the_h_route_gaussian_underflows(nu):
    """u = xy/2t in (30, 100] with (x - y)^2/4t = 702.25: exp(-(x^2 + y^2)/4t)
    underflows, so the h_nu route gave 0; the scaled route keeps the value."""
    t, y = 2.0**-10, np.array([0.0625, 0.09375, 0.109375])
    x = y + 1.65625
    u = x * y / (2 * t)
    gauss = (x * y) ** (-nu) / (2 * t) * np.exp(-(x - y) ** 2 / (4 * t))
    heat = gauss * sps.ive(nu, u)
    dy = gauss * (x / (2 * t) * sps.ive(nu + 1, u) - y / (2 * t) * sps.ive(nu, u))
    for fn, expect in ((bessel_heat, heat), (dy_bessel_heat, dy)):
        got = fn(nu, t, x, y)
        assert np.all(got != 0)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kernel", [bessel_heat, dy_bessel_heat, bessel_poisson])
def test_halfline_kernels_reject_nan_and_negative_inputs(kernel):
    name = kernel.__name__
    good = np.array([0.3, 0.5, 0.7])
    for bad in (np.nan, -1.0):
        for arg in range(3):
            args = [good.copy() for _ in range(3)]
            args[arg][1] = bad
            with pytest.raises(ValueError, match=f"^{name} needs"):
                kernel(1.0, *args)
    with pytest.raises(ValueError, match=f"^{name} needs"):
        kernel(0.5, np.nan, 0.5, 0.5)


@pytest.mark.parametrize("kernel", [bessel_heat, dy_bessel_heat, bessel_poisson])
@pytest.mark.filterwarnings("error")
def test_halfline_kernels_give_zero_at_infinite_inputs(kernel):
    inf = math.inf
    for nu in (-0.3, 0.0, 1.0):
        for t, x, y in ((inf, 0.5, 0.4), (0.5, inf, 0.4), (0.5, 0.3, inf),
                        (0.5, inf, 0.0), (0.5, 0.0, inf), (inf, inf, inf)):
            assert kernel(nu, t, x, y) == 0.0
        got = kernel(nu, np.array([0.5, inf, 0.5]), np.array([0.4, 0.4, inf]), 0.6)
        assert got[1] == got[2] == 0.0
        assert got[0] == pytest.approx(kernel(nu, 0.5, 0.4, 0.6), rel=1e-14)


def test_bessel_poisson_half_order_closed_form():
    x = np.linspace(0.1, 4.0, 17)
    y = np.linspace(0.2, 3.5, 17)
    for t in (0.1, 1.0, 3.0):
        got = bessel_poisson(0.5, t, x[:, None], y[None, :])
        xm, ym = x[:, None], y[None, :]
        expect = (t / math.pi) / (xm * ym) * (
            1.0 / (t**2 + (xm - ym) ** 2) - 1.0 / (t**2 + (xm + ym) ** 2))
        np.testing.assert_allclose(got, expect, rtol=1e-11, atol=1e-300)


def test_bessel_poisson_small_time_off_diagonal():
    t, x, y = 1e-5, 0.2, 1.2
    expect = (t / math.pi) / (x * y) * (
        1.0 / (t**2 + (x - y) ** 2) - 1.0 / (t**2 + (x + y) ** 2))
    assert bessel_poisson(0.5, t, x, y) == pytest.approx(expect, rel=1e-10)


def test_bessel_poisson_computes_no_power_it_does_not_read():
    """(xy)^-nu enters the heat kernels' scaled route alone, and is made
    there: at a subnormal or tiny xy the Poisson kernel raises no warning
    (at nu = 4, xy = 1e-200 the power overflowed)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bessel_poisson(0.5, 1.0, 5e-324, 5e-324) > 0
        assert bessel_poisson(4.0, 1.0, 1e-100, 1e-100) > 0


def test_subordination_against_adaptive_quadrature():
    """The fixed-panel integral agrees with scipy adaptive quadrature."""
    nu = 1.3
    for t, x, y in [(0.5, 0.8, 1.1), (2.0, 0.4, 3.0), (0.2, 2.0, 2.1)]:
        val, err = scipy.integrate.quad(
            lambda v: math.exp(-v * v) * bessel_heat(nu, t * t / (4 * v * v),
                                                     x, y),
            1e-8, 12.0, limit=300, epsabs=1e-13, epsrel=1e-12)
        expect = 2.0 / math.sqrt(math.pi) * val
        got = bessel_poisson(nu, t, x, y)
        assert abs(got - expect) < 1e-9
        assert err < 1e-9


def _per_point_poisson(nu, t, x, y):
    return np.array([bessel_poisson(nu, float(tv), float(xv), float(yv))
                     for tv, xv, yv in zip(t.ravel(), x.ravel(), y.ravel())])


def test_bessel_poisson_array_time_matches_scalar_calls():
    nu = 1.3
    x = np.linspace(0.05, 3.0, 9)[:, None]
    y = np.linspace(0.1, 2.5, 7)[None, :]
    t = 0.01 + 0.3 * x + 0.2 * y
    got = bessel_poisson(nu, t, x, y)
    assert got.shape == (9, 7)
    tb, xb, yb = np.broadcast_arrays(t, x, y)
    np.testing.assert_allclose(got.ravel(), _per_point_poisson(nu, tb, xb, yb),
                               rtol=1e-13, atol=0)


def test_bessel_poisson_crosses_node_blocks():
    """The subordination that uchiyama_kernel keeps: 32 x 512 points fill a
    whole subordination block, so every node is its own block; 32 x 20
    points pack 25 nodes per block with a partial last block.  Both must
    agree with scalar calls."""
    rng = np.random.default_rng(5)
    nu = 0.5
    for shape in ((32, 512), (32, 20)):
        x = rng.uniform(0.05, 4.0, shape)
        y = rng.uniform(0.05, 4.0, shape)
        t = rng.uniform(0.02, 3.0, shape)
        got = _subordinated_poisson(nu, t, x, y)
        sample = rng.choice(x.size, 64, replace=False)
        expect = np.array([_subordinated_poisson(nu, float(tv), float(xv), float(yv))
                           for tv, xv, yv in zip(t.ravel()[sample], x.ravel()[sample],
                                                 y.ravel()[sample])])
        np.testing.assert_allclose(got.ravel()[sample], expect, rtol=1e-13,
                                   atol=0)


def test_bessel_poisson_rejects_nonpositive_time_entry():
    t = np.array([0.5, 0.2, 0.0, 1.0])
    with pytest.raises(ValueError):
        bessel_poisson(0.5, t, np.full(4, 0.5), np.linspace(0.1, 1.0, 4))


def test_dy_bessel_heat_finite_difference():
    nu, t = 0.8, 0.35
    h = 1e-5
    for x, y in [(0.5, 0.9), (1.4, 1.1), (2.5, 0.3)]:
        got = dy_bessel_heat(nu, t, x, y)
        fd = (bessel_heat(nu, t, x, y + h)
              - bessel_heat(nu, t, x, y - h)) / (2 * h)
        assert abs(got - fd) < 1e-7 * max(1.0, abs(fd))


def test_delta_poisson_finite_difference(kernels_half):
    # the delta series is -(xy)^(nu + 1/2) times the x-derivative of the
    # weighted Poisson kernel
    t, h = 0.4, 1e-5
    y = np.array([0.6])
    nu = kernels_half.nu
    for x in (0.3, 0.55, 0.8):
        d = kernels_half.delta_poisson(t, np.array([x]), y)[0]
        got = -d / (x * y[0]) ** (nu + 0.5)
        fd = (kernels_half.poisson_mu(t, np.array([x + h]), y)[0]
              - kernels_half.poisson_mu(t, np.array([x - h]), y)[0]) / (2 * h)
        assert abs(got - fd) < 1e-6 * max(1.0, abs(fd))


def test_dy_poisson_lebesgue_finite_difference(kernels_half):
    t, h = 0.4, 1e-5
    x = np.array([0.35])
    for y in (0.25, 0.5, 0.75):
        got = kernels_half.dy_poisson_lebesgue(t, x, np.array([y]))[0]
        fd = (kernels_half.poisson_lebesgue(t, x, np.array([y + h]))[0]
              - kernels_half.poisson_lebesgue(t, x, np.array([y - h]))[0]) \
            / (2 * h)
        assert abs(got - fd) < 1e-6 * max(1.0, abs(fd))


def test_mu_ball_closed_form():
    nu = 0.5
    p = 2 * nu + 2
    mu = Measure.of(MEASURE_MU, nu)
    for x, r in [(0.5, 0.2), (0.1, 0.3), (0.9, 0.05)]:
        lo, hi = max(x - r, 0.0), x + r
        expect = (hi**p - lo**p) / p
        assert abs(mu.interval(lo, hi) - expect) < 1e-15
    capped = mu.interval(0.6, min(0.9 + 0.3, 1.0))
    assert abs(capped - (1.0 - 0.6**p) / p) < 1e-15


def test_estimate_report_roundtrips_to_dict(kernels_half):
    r = check_sharp_estimate("heat-large-t", kernels=kernels_half,
                             n_t=4, n_space=6)
    d = r.to_dict()
    assert d["lemma"] == "heat-large-t"
    assert isinstance(d["ratio_max"], float)
    assert d["passed"] is True


def test_all_lemma_ids_scan_clean(kernels_half):
    for lemma in LEMMA_IDS:
        r = check_sharp_estimate(lemma, kernels=kernels_half, nu=0.5,
                                 n_t=6, n_space=10)
        assert math.isfinite(r.ratio_max)
        assert r.passed, lemma
