"""Special-function layer: series evaluation and zero finding.

The zero oracle below is written independently of the package code: plain
power-series evaluation of J_nu plus interval bisection.  Its reference
values are frozen decimals so a regression in either side is caught.
"""
import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.errors import NumericsError
from fbhardy.specfun import (Order, bessel_i, bessel_i_scaled, bessel_j,
                             bessel_j_derivative, bessel_zeros,
                             besseli_over_xnu, besselj_over_xnu)

# frozen reference decimals (Abramowitz & Stegun table values)
J0_ZERO_1 = 2.404825557695773
J0_ZERO_2 = 5.520078110286311
J1_ZERO_1 = 3.831705970207512


def _j_series(nu: float, x: float, n_terms: int = 80) -> float:
    """Power series for J_nu(x), accurate for the moderate x used here."""
    half = 0.5 * x
    total = 0.0
    term = half**nu / math.gamma(nu + 1.0)
    for k in range(n_terms):
        total += term
        term *= -(half * half) / ((k + 1.0) * (k + 1.0 + nu))
    return total


def _bisect_zero(nu: float, lo: float, hi: float, tol: float = 1e-14) -> float:
    flo = _j_series(nu, lo)
    assert flo * _j_series(nu, hi) < 0, "bracket must straddle a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * _j_series(nu, mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = _j_series(nu, lo)
    return 0.5 * (lo + hi)


def test_oracle_reproduces_frozen_decimals():
    assert abs(_bisect_zero(0.0, 2.0, 3.0) - J0_ZERO_1) < 1e-12
    assert abs(_bisect_zero(0.0, 5.0, 6.0) - J0_ZERO_2) < 1e-12
    assert abs(_bisect_zero(1.0, 3.0, 4.5) - J1_ZERO_1) < 1e-12


def test_zeros_match_bisection_oracle():
    table = bessel_zeros(Order(0.0), 2)
    assert abs(table.zeros[0] - _bisect_zero(0.0, 2.0, 3.0)) < 1e-12
    assert abs(table.zeros[1] - _bisect_zero(0.0, 5.0, 6.0)) < 1e-12


def test_zeros_half_order_are_n_pi():
    table = bessel_zeros(Order(0.5), 50)
    n = np.arange(1, 51)
    np.testing.assert_allclose(table.zeros, n * np.pi, rtol=0, atol=1e-11)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.5])
def test_zeros_against_scipy(nu):
    table = bessel_zeros(Order(nu), 30)
    if nu == int(nu):
        ref = sps.jn_zeros(int(nu), 30)
    else:
        from scipy.optimize import brentq
        ref = np.array([brentq(lambda x: sps.jv(nu, x), z - 1.2, z + 1.2)
                        for z in table.zeros])
    np.testing.assert_allclose(table.zeros, ref, rtol=0, atol=1e-10)


def test_zero_interlacing():
    """Zeros of consecutive orders strictly interlace."""
    za = bessel_zeros(Order(0.7), 20).zeros
    zb = bessel_zeros(Order(1.7), 20).zeros
    assert np.all(za[:-1] < zb[:-1])
    assert np.all(zb[:-1] < za[1:])


def test_table_spacing_padding():
    table = bessel_zeros(Order(0.0), 40)
    gaps = np.diff(table.zeros)
    # gaps approach pi from above for nu=0
    assert np.all(gaps > 3.0)
    assert abs(gaps[-1] - np.pi) < 1e-2


def test_besselj_over_xnu_removable_singularity():
    order = Order(1.5)
    val = besselj_over_xnu(order, 0.0)
    expect = 0.5**1.5 / math.gamma(2.5)
    assert abs(val - expect) < 1e-14


def test_bessel_j_matches_scipy_across_switch():
    order = Order(0.8)
    x = np.linspace(0.05, 40.0, 400)
    np.testing.assert_allclose(bessel_j(order, x), sps.jv(0.8, x),
                               rtol=2e-12, atol=2e-12)


def test_bessel_i_scaled_matches_scipy():
    order = Order(1.3)
    x = np.geomspace(1e-3, 800.0, 300)
    np.testing.assert_allclose(bessel_i_scaled(order, x), sps.ive(1.3, x),
                               rtol=5e-13, atol=1e-300)


@pytest.mark.xfail(strict=True, reason="at nu >= 12 the asymptotic sum is still "
                   "far from exp(-x) I_nu(x) just past i_switch = max(30, 2 nu) "
                   "(ROADMAP item 3)")
def test_bessel_i_scaled_large_order_past_the_switch():
    x = np.array([31.0, 41.0, 84.0])
    for nu in (12.0, 15.0, 20.0):
        np.testing.assert_allclose(bessel_i_scaled(Order(nu), x), sps.ive(nu, x),
                                   rtol=5e-13, atol=0)


def test_bessel_i_overflow_guard():
    with pytest.raises(NumericsError):
        bessel_i(Order(0.5), 800.0)


def test_besseli_over_xnu_small_argument():
    order = Order(2.0)
    # I_nu(x)/x^nu -> 2^-nu / Gamma(nu+1) as x -> 0
    val = besseli_over_xnu(order, 1e-8)
    assert abs(val - 0.25 / math.gamma(3.0)) < 1e-12


def test_order_validation():
    with pytest.raises(ValueError):
        Order(-0.5)
    with pytest.raises(ValueError):
        Order(-1.0)
    assert Order(-0.49).nu == -0.49


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-0.45, 4.0), x=st.floats(0.05, 30.0))
def test_derivative_recurrence(nu, x):
    """d/dx J_nu = J_{nu-1} - (nu/x) J_nu, checked against scipy pieces."""
    order = Order(nu)
    lhs = bessel_j_derivative(order, x)
    rhs = sps.jv(nu - 1.0, x) - (nu / x) * sps.jv(nu, x)
    assert abs(lhs - rhs) < 5e-11 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 120))
def test_zero_tables_nest(count):
    big = bessel_zeros(Order(0.3), 150).zeros
    small = bessel_zeros(Order(0.3), count).zeros
    np.testing.assert_allclose(small, big[:count], rtol=0, atol=1e-12)
