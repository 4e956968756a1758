"""J at nu = 1/2 against mpmath.

At nu = 1/2 the Hankel sums have no terms and J_{1/2}(x) = sqrt(2/(pi x)) sin x
exactly (DLMF 10.16.1), so the library takes J / x^(1/2) = sqrt(2/pi) sin(x)/x
on all of (0, inf) and the series only at x = 0.  `half_order_oracle` is
mpmath's besselj at 30 digits.  Both evaluators must match it to rel 4.5e-16
wherever J != 0, with no warning, on log-spread points from the smallest
subnormal to 1e4, at 12 (the switch of the other orders) and its neighbours,
and at the floats next to the zeros n pi; the zero table's zeros are n pi to
one ulp.
"""
import warnings

import mpmath as mp
import numpy as np

from fbhardy import specfun
from fbhardy.specfun import Order, bessel_j, besselj_over_xnu

HALF = Order(0.5)
RTOL = 4.5e-16


def half_order_oracle(x):
    """(J_{1/2}(x), J_{1/2}(x) / sqrt(x)) at the floats x, by mpmath."""
    with mp.workdps(30):
        j = [mp.besselj(0.5, mp.mpf(float(v))) for v in np.ravel(x)]
        over = [v / mp.sqrt(mp.mpf(float(u))) if u else mp.sqrt(2 / mp.pi)
                for v, u in zip(j, np.ravel(x))]
    shape = np.shape(x)
    return (np.array([float(v) for v in j]).reshape(shape),
            np.array([float(v) for v in over]).reshape(shape))


def assert_half_order_j(x):
    """bessel_j and besselj_over_xnu at nu = 1/2 within RTOL of the oracle
    where J != 0 (and exactly 0 where the oracle is), with no warning."""
    x = np.asarray(x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel_j(HALF, x), besselj_over_xnu(HALF, x)
    for g, w in zip(got, half_order_oracle(x)):
        assert np.shape(g) == np.shape(w)
        g, w = np.ravel(g), np.ravel(w)
        zero = w == 0
        assert np.all(g[zero] == 0)
        rel = np.abs(g[~zero] - w[~zero]) / np.abs(w[~zero])
        assert np.all(rel <= RTOL), (float(np.max(rel)), float(np.ravel(x)[~zero][rel.argmax()]))


def half_order_zeros_are_n_pi(zeros):
    """The zero table at nu = 1/2 is n pi, n = 1, 2, ..., to one ulp."""
    with mp.workdps(30):
        exact = np.array([float(n * mp.pi) for n in range(1, len(zeros) + 1)])
    assert np.all(np.abs(zeros - exact) <= np.spacing(exact))


def test_half_order_j_matches_mpmath():
    rng = np.random.default_rng(12)
    n_pi = np.arange(1, 3184) * np.pi
    x = np.concatenate([10.0 ** rng.uniform(np.log10(5e-324), 4.0, 5000),
                        [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e4],
                        [np.nextafter(12.0, 0.0), 12.0, np.nextafter(12.0, 13.0)],
                        n_pi, np.nextafter(n_pi, 0.0), np.nextafter(n_pi, 1e5)])
    assert_half_order_j(x)
    assert_half_order_j(x[:7].reshape(7, 1))
    for v in (0.0, 5e-324, 12.0, 1e4):
        assert isinstance(bessel_j(HALF, v), float)
        assert_half_order_j(v)


def test_half_order_j_takes_the_series_at_zero_alone(monkeypatch):
    """The switch is 0 at nu = 1/2: only x = 0 reaches the ascending series."""
    sizes, series = [], specfun._over_series

    def spy(nu, x, sign):
        sizes.append(x.size)
        return series(nu, x, sign)
    monkeypatch.setattr(specfun, "_over_series", spy)
    x = np.array([0.0, 5e-324, 1.0, 12.0, 0.0, 40.0])
    bessel_j(HALF, x)
    besselj_over_xnu(HALF, x[1:4])
    assert HALF.j_switch == 0.0 and sizes == [2]
    assert_half_order_j(0.0)


def test_half_order_zero_table_is_n_pi():
    table = specfun.bessel_zeros(HALF, 2400)
    half_order_zeros_are_n_pi(table.zeros)
    assert np.max(table.residuals) < 1e-13
