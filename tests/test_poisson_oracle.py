"""The half-line Poisson kernel against mpmath.

`poisson_oracle` is mpmath at 30 digits (at 20, mp.quad stops early: 5e-6
off at nu = 12) on one of three forms:
  * y = 0 (or x = 0): the closed limit
    (2nu+1) 4^nu B(nu+1/2, nu+1/2) t/pi (t^2 + x^2)^(-nu-3/2);
  * nu >= 1/2: the Muckenhoupt-Stein integral
    (2nu+1) t 4^nu/pi int_0^1 (c(1-c))^(nu-1/2) (a + bc)^(-nu-3/2) dc,
    a = t^2 + (x-y)^2, b = 4xy, on breakpoints eps 10^k (eps = a/b), where
    its mass sits;
  * nu < 1/2: the subordination pi^(-1/2) int_0^inf exp(-u) u^(-1/2)
    T_{t^2/4u}(x, y) du of the heat kernel, with mp.besseli.  mpmath's
    quadrature of the Muckenhoupt-Stein integrand, singular at both ends
    below nu = 1/2, is off by ~1e-7 at nu = -0.3.
bessel_poisson must match it to rel 1e-13 and be non-negative.
"""
import math

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.kernels import bessel_poisson

RTOL = 1e-13


def poisson_oracle(nu, t, x, y, dps=30):
    with mp.workdps(dps):
        nu, t, x, y = (mp.mpf(float(v)) for v in (nu, t, x, y))
        half = mp.mpf(1) / 2
        a, b = t * t + (x - y) ** 2, 4 * x * y
        scale = (2 * nu + 1) * 4**nu * t / mp.pi
        if b == 0:
            return float(scale * mp.beta(nu + half, nu + half) * a ** (-nu - 3 * half))
        if nu >= half:
            eps = a / b
            pts = [0] + [eps * 10**k for k in range(-2, 40) if eps * 10**k < half] + [half, 1]
            return float(scale * mp.quad(
                lambda c: (c * (1 - c)) ** (nu - half) * (a + b * c) ** (-nu - 3 * half), pts))

        def heat(s):
            z = x * y / (2 * s)
            return (2 * s) ** (-1 - nu) * mp.exp(-(x * x + y * y) / (4 * s)) \
                * mp.besseli(nu, z) / z**nu

        u0 = 1 / (1 + (x - y) ** 2 / t**2)   # exp(-u (1 + (x-y)^2/t^2)) sets the scale
        pts = [0, u0 / 100, u0 / 10, u0, 10 * u0, 100 * u0, mp.inf]
        return float(mp.quad(lambda u: mp.exp(-u) / mp.sqrt(u) * heat(t * t / (4 * u)), pts)
                     / mp.sqrt(mp.pi))


def _rel(got, want):
    return abs(got - want) / abs(want)


@st.composite
def _points(draw):
    """(nu, t, x, y): nu in (-1/2, 8], t in [1e-7, 10], x, y in (0, 8], a
    third of them on the diagonal and a third with t << |x - y|."""
    nu = draw(st.floats(-0.5, 8.0, exclude_min=True))
    x = draw(st.floats(0.0, 8.0, exclude_min=True))
    y = draw(st.floats(0.0, 8.0, exclude_min=True))
    kind = draw(st.sampled_from(["any", "diagonal", "far"]))
    if kind == "diagonal":
        y = x
    t = 10.0 ** draw(st.floats(-7.0, 1.0))
    if kind == "far":
        t = min(10.0, max(1e-7, abs(x - y) * 10.0 ** draw(st.floats(-6.0, -2.0))))
    return nu, t, x, y


@settings(max_examples=20, deadline=None)
@given(_points())
def test_bessel_poisson_matches_the_oracle(point):
    got = bessel_poisson(*point)
    assert got >= 0.0
    assert _rel(got, poisson_oracle(*point)) <= RTOL


def test_bessel_poisson_matches_the_oracle_on_the_edges_of_the_sweep():
    """The sweep's corners: t = 1e-7 on the diagonal at x = 8 (w runs to
    ~37, past the Jacobi panel), t << |x - y| and t >> xy, at the ends of
    the order range."""
    corners = [(1e-7, 8.0, 8.0), (1e-7, 0.1, 8.0), (10.0, 8.0, 1e-3), (0.02, 2.0, 2.05)]
    cases = [(nu, *p) for nu in (0.5, 1.0, 8.0) for p in corners]
    for nu, t, x, y in cases + [(-0.45, *corners[1]), (-0.45, *corners[3])]:
        assert _rel(bessel_poisson(nu, t, x, y), poisson_oracle(nu, t, x, y)) <= RTOL


def test_bessel_poisson_at_y_zero_is_the_closed_limit():
    """At y = 0 (and x = 0) the kernel is the closed limit; at nu = 1/2 it is
    4t / (pi (t^2 + x^2)^2).  Next to y = 0 the integral joins it."""
    x = np.array([1e-3, 0.1, 0.7, 3.0])
    for t in (1e-3, 0.1 / math.sqrt(3.0), 2.0):
        got = bessel_poisson(0.5, t, x, 0.0)
        np.testing.assert_allclose(got, 4 * t / (math.pi * (t * t + x * x) ** 2), rtol=1e-14)
    for nu in (-0.3, 1.0, 7.5):
        for t, xv in ((0.05, 0.3), (1.0, 2.0)):
            limit = bessel_poisson(nu, t, xv, 0.0)
            assert bessel_poisson(nu, t, 0.0, xv) == limit
            assert _rel(limit, poisson_oracle(nu, t, xv, 0.0)) <= RTOL
            near = bessel_poisson(nu, t, xv, 1e-9)
            assert _rel(near, poisson_oracle(nu, t, xv, 1e-9)) <= RTOL
            assert _rel(near, limit) <= 1e-7


def test_bessel_poisson_is_positive_at_order_12():
    """At (12, 0.0525, 2.936, 1.882) mpmath gives 1.1315e-13; the
    subordination, through the scaled I at large order, gave -2.15e-13."""
    got = bessel_poisson(12.0, 0.0525, 2.936, 1.882)
    assert got > 0.0
    assert _rel(got, poisson_oracle(12.0, 0.0525, 2.936, 1.882)) <= RTOL
    x = np.geomspace(0.05, 7.5, 24)
    for t in (1e-4, 0.0525, 0.3, 3.0):
        table = bessel_poisson(12.0, t, x[:, None], x[None, :])
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)


def test_bessel_poisson_is_non_negative_past_the_sweep():
    rng = np.random.default_rng(12)
    t = 10.0 ** rng.uniform(-9.0, 2.0, 4000)
    x, y = 10.0 ** rng.uniform(-6.0, 1.5, (2, 4000))
    y[::4] = x[::4]
    for nu in (-0.499, -0.45, 0.0, 3.3, 12.0, 20.0):
        got = bessel_poisson(nu, t, x, y)
        assert np.all(got >= 0.0) and not np.any(np.isnan(got))
