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

from fbhardy import specfun
from fbhardy.specfun import (Order, bessel_i_scaled, bessel_j, bessel_zeros,
                             besselj_over_xnu)

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


def test_besseli_over_xnu_small_argument():
    # the I series of the heat kernels: I_nu(x)/x^nu -> 2^-nu / Gamma(nu+1)
    # as x -> 0
    val, = specfun._over_series(2.0, np.array([1e-8]), 1.0)
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
    """d/dx J_nu = J_{nu-1} - (nu/x) J_nu, checked against scipy pieces, for
    the derivative (nu/x) J_nu - J_{nu+1} that bessel_zeros' Newton steps take."""
    order = Order(nu)
    lhs = (nu / x) * bessel_j(order, x) - bessel_j(Order(nu + 1.0), x)
    rhs = sps.jv(nu - 1.0, x) - (nu / x) * sps.jv(nu, x)
    assert abs(lhs - rhs) < 5e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_the_zero_finder_checks_none_of_its_own_arguments(nu, monkeypatch):
    """The scan grid, brackets and roots are the finder's own finite,
    positive arrays: it calls J unchecked, the public evaluators still check."""
    ops, check = [], specfun._check_domain
    monkeypatch.setattr(specfun, "_check_domain", lambda x, op: ops.append(op) or check(x, op))
    bessel_zeros(Order(nu), 2400)
    assert not ops
    bessel_j(Order(nu), np.array([1.0, 20.0]))
    assert ops == ["bessel_j"]


@pytest.mark.parametrize("nu, zero_tol", [(0.0, 1e-12), (0.5, 1e-12), (1.0, 1e-12),
                                           (1.0, 1e-14), (0.65, 1e-13), (3.5, 1e-13)])
def test_residuals_are_j_at_the_returned_zeros(nu, zero_tol):
    """The residuals are |J_nu| at the zeros returned, bit for bit, whether
    the Newton polish stops early (nu = 1/2, 1 at 1e-12) or takes all its
    steps (nu = 0; 1e-14), and when its last step moves a zero (1e-13)."""
    table = bessel_zeros(Order(nu), 200, zero_tol=zero_tol)
    assert table.residuals.tobytes() == np.abs(bessel_j(Order(nu), table.zeros)).tobytes()


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 120))
def test_zero_tables_nest(count):
    big = bessel_zeros(Order(0.3), 150).zeros
    small = bessel_zeros(Order(0.3), count).zeros
    np.testing.assert_allclose(small, big[:count], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# out=: values written into a given array, which may be the argument itself

OUT_EVALUATORS = (bessel_j, besselj_over_xnu, bessel_i_scaled)


def _block_arguments(order: Order, size: int) -> np.ndarray:
    """size values in (0, 700] with 0, 1.0 and both sides of j_switch and
    i_switch among them, unsorted, as a (size // 2, 2) array when size is even."""
    rng = np.random.default_rng(size)
    x = rng.uniform(0.0, 700.0, size)
    x[rng.choice(size, size // 3, replace=False)] = rng.uniform(0.0, 40.0, size // 3)
    special = [0.0, 1.0]
    for switch in (order.j_switch, order.i_switch):
        special += [switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1e3),
                    0.5 * switch, 1.5 * switch]
    x[rng.choice(size, len(special), replace=False)] = special
    return x.reshape(size // 2, 2) if size % 2 == 0 else x


@pytest.mark.parametrize("size", [specfun._CHUNK - 1, specfun._CHUNK, specfun._CHUNK + 1,
                                  2 * specfun._CHUNK + 3])
@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.5, 1.0, 2.5, 7.5])
def test_out_equals_a_new_array(nu, size):
    order = Order(nu)
    x = _block_arguments(order, size)
    for fn in OUT_EVALUATORS:
        want = fn(order, x)
        out = np.full(x.shape, np.nan)
        assert fn(order, x, out=out) is out
        assert np.array_equal(out, want), fn.__name__
        alias = x.copy()
        assert fn(order, alias, out=alias) is alias
        assert np.array_equal(alias, want), fn.__name__


def _value_error(fn, *args, **kw) -> str:
    with pytest.raises(ValueError) as err:
        fn(*args, **kw)
    return str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_out_keeps_the_domain_errors(bad):
    order = Order(1.0)
    for fn in OUT_EVALUATORS:
        x = np.array([0.5, 20.0, 40.0, bad])
        want = _value_error(fn, order, x.copy())
        alias = x.copy()
        got = _value_error(fn, order, alias, out=alias)
        assert got == want and got.startswith(f"{fn.__name__}: argument must be")
        assert np.array_equal(alias, x, equal_nan=True)   # refused before any write


def test_out_must_match_the_argument():
    x = np.linspace(1.0, 30.0, 6)
    for out in (np.empty(5), np.empty(6, dtype=np.float32), np.empty(12)[::2],
                np.empty((2, 3))):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64"):
            bessel_j(Order(1.0), x, out=out)


@pytest.mark.parametrize("nu, lo, hi", [(1.0, 1e5, 1e6), (0.45, 25.0, 60.0)])
def test_a_block_keeps_its_bits_next_to_a_block_of_later_stops(nu, lo, hi):
    """J's asymptotic sums stop per element: a block of large arguments gives
    the same bits alone as with 100 arguments of later stops appended in a
    later block.  A stop shared by the whole array (at nu = 1: 4 alone, 40
    with the small arguments) moved some of them near nu = 1/2, where Q is
    small."""
    order = Order(nu)
    stops = specfun._asymptotic_table(order.nu)[3]

    def stop_of(x):
        return int(np.max(stops(x), initial=1))

    big = np.geomspace(lo, hi, specfun._CHUNK)
    x = np.concatenate([big, np.geomspace(13.0, 20.0, 100)])
    assert stop_of(big) < stop_of(x)
    for fn in (bessel_j, besselj_over_xnu):
        assert np.array_equal(fn(order, x)[:specfun._CHUNK], fn(order, big)), fn.__name__


@settings(max_examples=40, deadline=None)
@given(nu=st.sampled_from([-0.3, 0.0, 0.5, 1.0, 2.5, 7.5]), sign=st.sampled_from([-1.0, 1.0]),
       size=st.integers(1, 2 * specfun._CHUNK + 5), seed=st.integers(0, 2**32 - 1))
def test_series_bits_do_not_depend_on_the_order_of_the_points(nu, sign, size, seed):
    """Each element of the ascending series stops on its own, so the cut
    after a block's last live element is exact whatever the order: any
    permutation of the points permutes the values, bit for bit.  The points
    hold the series' switch (J's or I's), J's zeros and their neighbours."""
    order = Order(nu)
    # J's series range at the orders with Hankel terms (at nu = 1/2 it serves x = 0 alone)
    switch = max(12.0, 2.0 * abs(nu)) if sign < 0 else order.i_switch
    zeros = bessel_zeros(order, 8).zeros
    zeros = zeros[zeros < switch]
    special = np.concatenate([[0.0, switch, np.nextafter(switch, 0.0)], zeros,
                              np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf),
                              zeros * (1.0 + 1e-9)])
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, switch, size)
    x[rng.choice(size, min(size, len(special)), replace=False)] = special[:size]
    want = specfun._over_series(nu, x, sign)
    for perm in (rng.permutation(size), np.arange(size)[::-1], np.argsort(x)):
        assert specfun._over_series(nu, x[perm], sign).tobytes() == want[perm].tobytes()
