"""J at nu = 1/2 against mpmath.

At nu = 1/2 the Hankel sums have no terms and J_{1/2}(x) = sqrt(2/(pi x)) sin x
exactly (DLMF 10.16.1), so the library takes J / x^(1/2) = sqrt(2/pi) sin(x)/x
on all of (0, inf) and the series only at x = 0.  `half_order_oracle` is
mpmath's besselj at 30 digits.  Both evaluators must match it to rel 4.5e-16
wherever J != 0, with no warning, on log-spread points from the smallest
subnormal to 1e4, at 12 (the switch of the other orders) and its neighbours,
and at the floats next to the zeros n pi; the zero table's zeros are n pi to
one ulp.

The basis rows at nu = 1/2 are a_n sin(n pi x) (psi) and that over x (phi),
a_n = c_n sqrt(2 / (pi lam_n)), from one blocked sine table with no Bessel
call.  They are held to mpmath's c_n J_{1/2}(n pi x), to the unblocked table
bit for bit, to their own value at each point alone and at every prefix, and
to the domain checks of the J evaluators.
"""
import warnings

import mpmath as mp
import numpy as np
import pytest

from fbhardy import basis as basis_module, specfun
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


def sine_table_rows(basis, x, n, over_x=False):
    """The nu = 1/2 rows a_n (S_m C_k + C_m S_k) written out unblocked, for x in
    (0, 1]: S and C are sin and cos of pi j x, j = k = 1..B and j = m B, with
    j x reduced mod 2 exactly; over x, S_k and C_k are divided by x first."""
    B = basis_module._SINE_BLOCK
    j = np.append(np.arange(1.0, B + 1), B * np.arange(float(-(-n // B))))
    hi = x * 134217729.0
    hi -= hi - x
    t = np.multiply.outer(j, hi)
    t -= 2.0 * np.round(0.5 * t)
    t += np.multiply.outer(j, x - hi)
    t *= np.pi
    s, c = np.sin(t), np.cos(t)
    if over_x:
        s[:B] /= x
        c[:B] /= x
    m, k = np.divmod(np.arange(n), B)
    rows = s[B + m] * c[k]
    rows += c[B + m] * s[k]
    return rows * (basis.norm_constants[:n] * np.sqrt(2.0 / (np.pi * basis.table.zeros[:n])))[:, None]


ROWS_ATOL = 2e-12   # on psi_n and on phi_n / (n pi), phi_n's sup being phi_n(0)


def test_half_order_rows_match_mpmath(basis_half):
    """Rows against c_n J_{1/2}(n pi x) (x^(1/2) times it for psi, x^(-1/2) for
    phi, its limit c_n sqrt(2 n) at x = 0): every n <= 2400 at 0, 1e-3 and 1,
    and 400 drawn n (2400 among them) at each of six drawn points.  The sine
    table's psi rows are within 9.6e-16 there; the Bessel rows at the computed
    zeros, sin(lam_n x) with lam_n an ulp off n pi, were within 1.6e-12."""
    rng = np.random.default_rng(1905)
    n = len(basis_half)
    x = np.concatenate([[0.0, 1e-3, 1.0], rng.uniform(0.0, 1.0, 6)])
    got_psi, got_phi = basis_half.psi_matrix(x), basis_half.phi_matrix(x)
    with mp.workdps(30):
        for i, v in enumerate(x.tolist()):
            ns = range(1, n + 1) if i < 3 else np.append(rng.choice(n - 1, 399) + 1, n).tolist()
            xv = mp.mpf(v)
            for k in ns:
                c = basis_half.norm_constants[k - 1]
                j = mp.besselj(0.5, k * mp.pi * xv) if v else mp.mpf(0)
                psi = c * mp.sqrt(xv) * j
                phi = c * j / mp.sqrt(xv) if v else c * mp.sqrt(2 * k)
                assert abs(got_psi[k - 1, i] - psi) <= ROWS_ATOL, (k, v)
                assert abs(got_phi[k - 1, i] - phi) <= ROWS_ATOL * k * mp.pi, (k, v)


def test_half_order_sine_table_is_within_ulps_of_sin_n_pi_x(basis_half):
    """The exact reduction of j x mod 2 leaves each angle an ulp of pi off:
    psi_n / a_n is within 4e-15 of mpmath's sin(n pi x) at every n <= 2400.
    Reducing a rounded j x instead is up to 8.5e-13 off at n = 2400."""
    x = np.array([1e-3, 0.1, 1.0 / 3.0, 0.7071067811865476, 0.999])
    a = basis_half.norm_constants * np.sqrt(2.0 / (np.pi * basis_half.table.zeros))
    got = basis_half.psi_matrix(x) / a[:, None]
    with mp.workdps(30):
        want = np.array([[float(mp.sin(n * mp.pi * mp.mpf(v))) for v in x.tolist()]
                         for n in range(1, len(a) + 1)])
    assert np.max(np.abs(got - want)) <= 4e-15


def test_half_order_rows_are_the_unblocked_table_pointwise_at_every_prefix(basis_half):
    """The blocks of columns and rows leave no trace: a table over 400 points
    (several column blocks) is the unblocked table bit for bit, each of its
    columns is the rows at that point alone, and each prefix a fresh build."""
    x = np.append(np.random.default_rng(3).uniform(0.0, 1.0, 399), 1.0)
    for n in (1, 15, 16, 17, 37, 2400):
        psi, phi = basis_half.psi_matrix(x, n), basis_half.phi_matrix(x, n)
        assert np.array_equal(psi, sine_table_rows(basis_half, x, n))
        assert np.array_equal(phi, sine_table_rows(basis_half, x, n, over_x=True))
        for i in (0, 57, 398, 399):
            assert np.array_equal(psi[:, i], basis_half.psi_matrix(x[i:i + 1], n)[:, 0])
            assert np.array_equal(phi[:, i], basis_half.phi_matrix(x[i:i + 1], n)[:, 0])
        if n < 2400:
            assert np.array_equal(basis_half.psi_matrix(x)[:n], psi)
            assert np.array_equal(basis_half.phi_matrix(x)[:n], phi)


def test_half_order_rows_call_no_bessel_evaluator(basis_half, monkeypatch):
    """Every row entry was a J evaluation; the sine table makes none."""
    def refuse(*args, **kw):
        raise AssertionError("a Bessel evaluator was called")
    for name in ("bessel_j", "besselj_over_xnu", "_j", "_switch"):
        monkeypatch.setattr(specfun, name, refuse)
    x = np.linspace(0.0, 1.0, 33)
    out = np.empty((700, 33))
    assert basis_half.phi_matrix(x, 700, out=out) is out
    assert basis_half.psi_matrix(x, 700, out=out) is out


@pytest.mark.parametrize("rows, op", [("phi_matrix", "besselj_over_xnu"),
                                      ("psi_matrix", "bessel_j")])
@pytest.mark.parametrize("bad, what", [(-1e-3, "nonnegative"), (-0.0 - 5e-324, "nonnegative"),
                                       (np.nan, "finite"), (np.inf, "finite"),
                                       (-np.inf, "finite")])
def test_half_order_rows_refuse_what_j_refuses(basis_half_small, rows, op, bad, what):
    """The checks and messages of the J evaluator each system's rows came
    from: the sine table itself would serve a negative x without a word."""
    with pytest.raises(ValueError, match=f"^{op}: argument must be {what}$"):
        getattr(basis_half_small, rows)(np.array([0.5, bad, 0.25]), 40)


def test_half_order_rows_at_the_ends(basis_half):
    """x = 0: psi_n = 0 and phi_n its limit n pi a_n to 2 ulps, also below
    x = 1e-300, where 1 / x overflows; x = 1: both are rounding noise of
    sin(n pi)."""
    a = basis_half.norm_constants * np.sqrt(2.0 / (np.pi * basis_half.table.zeros))
    limit = np.arange(1, len(a) + 1) * np.pi * a
    x = np.array([0.0, 5e-324, 1e-310, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, phi = basis_half.psi_matrix(x), basis_half.phi_matrix(x)
    assert np.all(psi[:, 0] == 0.0) and np.all(np.abs(psi[:, 1:3]) < 1e-300)
    assert np.max(np.abs(phi[:, :3] / limit[:, None] - 1.0)) <= 4.5e-16
    assert np.max(np.abs(psi[:, 3])) < 2e-16 and np.max(np.abs(phi[:, 3])) < 2e-16
