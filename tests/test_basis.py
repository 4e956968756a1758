import math

import numpy as np
import pytest
import scipy.special as sps

from fbhardy import basis as basis_module, specfun
from fbhardy.basis import EigenBasis, coefficients
from fbhardy.errors import NumericsError
from fbhardy.kernels import UnitIntervalKernels
from fbhardy.quadrature import (SampledFunction, make_quadrature, MEASURE_MU,
                                MEASURE_LEBESGUE)
from fbhardy.specfun import Order

# <x, phi_1>_mu at nu = 1/2, worked out from phi_1 = sqrt(2) sin(pi x)/x
X_PHI1_HALF = math.sqrt(2.0) * (math.pi**2 - 4.0) / math.pi**3


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
def test_gram_identity(nu):
    basis = EigenBasis.build(Order(nu), 24)
    g = make_quadrature("unit_interval", 2048, measure=MEASURE_MU, nu=nu)
    rows = basis.phi_matrix(g.nodes, 20)
    gram = (rows * g.weights[None, :]) @ rows.T
    np.testing.assert_allclose(gram, np.eye(20), rtol=0, atol=1e-9)


def test_psi_gram_identity_lebesgue():
    basis = EigenBasis.build(Order(1.0), 24)
    g = make_quadrature("unit_interval", 2048, measure=MEASURE_LEBESGUE,
                        nu=1.0)
    rows = basis.psi_matrix(g.nodes, 20)
    gram = (rows * g.weights[None, :]) @ rows.T
    np.testing.assert_allclose(gram, np.eye(20), rtol=0, atol=1e-9)


def test_psi_is_weighted_phi(basis_half_small):
    x = np.linspace(0.05, 0.95, 40)
    phi = basis_half_small.phi_matrix(x, 12)
    psi = basis_half_small.psi_matrix(x, 12)
    np.testing.assert_allclose(psi, phi * x[None, :], rtol=1e-12, atol=1e-12)


def test_half_order_closed_form(basis_half_small):
    """phi_n at nu=1/2 is sqrt(2) sin(n pi x)/x."""
    x = np.linspace(0.02, 0.98, 60)
    for n in (1, 2, 7):
        expect = math.sqrt(2.0) * np.sin(n * np.pi * x) / x
        np.testing.assert_allclose(basis_half_small.phi_matrix(x, n)[n - 1], expect,
                                   rtol=1e-10, atol=1e-10)


def test_first_coefficient_closed_form(basis_half_small):
    g = make_quadrature("unit_interval", 1024, measure=MEASURE_MU, nu=0.5)
    f = SampledFunction(grid=g, values=g.nodes)
    c = coefficients(f, basis_half_small, 1)
    assert abs(c[0] - X_PHI1_HALF) < 1e-12


def test_round_trip_finite_expansion(basis_half_small):
    """A function that is exactly a 7-mode combination comes back exactly."""
    g = make_quadrature("unit_interval", 1024, measure=MEASURE_MU, nu=0.5)
    rows = basis_half_small.phi_matrix(g.nodes, 7)
    target = rows[2] + 0.5 * rows[6]
    f = SampledFunction(grid=g, values=target)
    c = coefficients(f, basis_half_small, 10)
    expect = np.zeros(10)
    expect[2], expect[6] = 1.0, 0.5
    np.testing.assert_allclose(c, expect, rtol=0, atol=1e-12)
    back = c @ basis_half_small.phi_matrix(g.nodes, len(c))
    np.testing.assert_allclose(back, target, rtol=0, atol=1e-10)


def test_smooth_function_converges(basis_half_small):
    g = make_quadrature("unit_interval", 1024, measure=MEASURE_MU, nu=0.5)
    f = SampledFunction(grid=g, values=np.sin(np.pi * g.nodes) * (1.0 - g.nodes))
    errs = []
    for n in (8, 16, 32, 64):
        c = coefficients(f, basis_half_small, n)
        back = c @ basis_half_small.phi_matrix(g.nodes, len(c))
        errs.append(g.integrate((back - f.values) ** 2) ** 0.5)
    assert errs[-1] < 1e-4
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_plancherel(basis_half_small):
    g = make_quadrature("unit_interval", 1024, measure=MEASURE_MU, nu=0.5)
    f = SampledFunction(grid=g, values=np.sin(np.pi * g.nodes))
    c = coefficients(f, basis_half_small, 50)
    assert abs(np.sum(c**2) - math.sqrt(g.integrate(f.values**2)) ** 2) < 1e-10


def test_norm_check_errors_small(basis_half):
    assert np.max(basis_half.norm_check_errors) < 1e-8


@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.5, 1.0, 2.5])
def test_norm_check_rows_match_their_own_formula(nu):
    # the check once wrote the phi formula out itself; it now reads
    # phi_matrix, and must give the same bits
    basis = EigenBasis.build(Order(nu), 80)
    lam = basis.table.zeros[:64]
    g = make_quadrature("unit_interval", max(1024, int(10 * lam[-1] / math.pi) + 64),
                        MEASURE_MU, nu, split_points=np.arange(1, 16) / 16)
    jov = specfun.besselj_over_xnu(basis.order, np.outer(lam, g.nodes))
    phi = (basis.norm_constants[:64] * lam**nu)[:, None] * jov
    want = np.abs((phi * phi) @ g.weights - 1.0)
    assert np.array_equal(basis.norm_check_errors, want)


_CHECKED_ORDERS = [(nu, n) for nu in (-0.3, 0.0, 0.5, 1.0, 2.5, 7.5) for n in (80, 2400)]


@pytest.mark.parametrize("nu, n_zeros", _CHECKED_ORDERS)
def test_a_build_computes_no_gauss_legendre_rule_above_64_nodes(monkeypatch, nu, n_zeros):
    """The norm check's panels hold at most a sixteenth of its 1024 nodes;
    its long panels above 1/4 once took two dense 384-node rules. The check
    still reads each mode's norm defect c_n^2 / c_n'^2 - 1, with c_n' from
    scipy's J_{nu+1}, to within 5e-13, and stays below 1e-12 wherever that
    defect does: at nu = 7.5, c_2 is itself off by 1.26e-12 (J_{nu+1} near
    z = 2 (nu + 1), ROADMAP item 3)."""
    sizes, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda p: sizes.append(p) or leggauss(p))
    basis = EigenBasis.build(Order(nu), n_zeros)
    assert sizes and max(sizes) <= 64
    lam = basis.table.zeros[:64]
    defect = np.abs((basis.norm_constants[:64] * np.abs(sps.jv(nu + 1, lam))) ** 2 / 2 - 1)
    assert np.max(np.abs(basis.norm_check_errors - defect)) < 5e-13
    assert np.max(basis.norm_check_errors) < 1e-12 or np.max(defect) > 1e-12


@pytest.mark.parametrize("nu, n_zeros", _CHECKED_ORDERS)
def test_the_norm_check_grid_moves_no_other_bit_of_a_build(monkeypatch, nu, n_zeros):
    """Zeros, residuals, norm constants and the tail constants equal those
    of a build whose check uses the unsplit grid, byte for byte."""
    basis = EigenBasis.build(Order(nu), n_zeros)
    monkeypatch.setattr(basis_module, "make_quadrature",
                        lambda *args, split_points=(), **kw: make_quadrature(*args, **kw))
    unsplit = EigenBasis.build(Order(nu), n_zeros)
    for get in (lambda b: b.table.zeros, lambda b: b.table.residuals,
                lambda b: b.norm_constants, lambda b: b.c_margin,
                lambda b: b.s_nu, lambda b: b.s_nu1):
        assert np.asarray(get(basis)).tobytes() == np.asarray(get(unsplit)).tobytes()
    assert len(basis.norm_check_errors) == len(unsplit.norm_check_errors) == 64


# ---------------------------------------------------------------------------
# reference: the sup scan and the zero finder before their shortcuts, verbatim
# apart from renaming (the finder called the checked bessel_j, and the sup
# was scanned at every order)


def ref_sup_sqrtz_j(order: Order) -> float:
    z = np.linspace(1e-3, 260.0, 26000)
    vals = np.sqrt(z) * np.abs(np.asarray(specfun.bessel_j(order, z)))
    envelope = math.sqrt(2.0 / math.pi) * 1.01
    return 1.02 * max(float(vals.max()), envelope)


def ref_bessel_zeros(order: Order, count: int, zero_tol: float = 1e-12):
    bessel_j, pi = specfun.bessel_j, math.pi
    if count < 1:
        raise ValueError("count must be positive")
    nu = order.nu
    step = pi / 4.0
    x_hi = (count + 0.5 * nu + 1.0) * pi + 2 * pi
    while True:
        grid = np.arange(0.3, x_hi, step)
        vals = np.asarray(bessel_j(order, grid))
        sgn = np.sign(vals)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0][:count]
        if flips.size == count:
            break
        x_hi += 16 * pi
        if x_hi > (count + abs(nu)) * 40 * pi:
            raise NumericsError("bessel_zeros", "sign scan failed to bracket zeros")

    lo, hi, flo = grid[flips], grid[flips + 1], vals[flips]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(bessel_j(order, mid))
        left = flo * fmid <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
        if np.max((hi - lo) / np.maximum(lo, 1.0)) < 4e-16:
            break
    roots = 0.5 * (lo + hi)
    for _ in range(8):
        f = np.asarray(bessel_j(order, roots))
        if np.max(np.abs(f)) < 0.1 * zero_tol:
            break
        df = (nu / roots) * f - bessel_j(Order(nu + 1.0), roots)   # J_nu'(roots)
        stepn = np.where(df != 0, f / np.where(df == 0, 1.0, df), 0.0)
        cand = roots - stepn
        ok = (cand > lo) & (cand < hi)
        roots = np.where(ok, cand, 0.5 * (lo + hi))
    else:   # the last step moved the roots
        f = np.asarray(bessel_j(order, roots))
    res = np.abs(f)
    if res[worst := int(np.argmax(res))] > zero_tol:
        raise NumericsError(
            "bessel_zeros", f"residual above zero_tol = {zero_tol:.1e} at nu = {nu:g}, "
            f"n_zeros = {count}: zero {worst + 1} has residual {res[worst]:.3e}")
    return specfun.BesselZeroTable(order=order, zeros=roots, residuals=res)


@pytest.mark.parametrize("nu, n_zeros", [(nu, n) for nu in (-0.3, 0.0, 0.25, 1.0, 2.5, 7.5)
                                         for n in (80, 2400)])
def test_a_build_without_checks_or_scans_keeps_every_bit(monkeypatch, nu, n_zeros):
    """The finder's unchecked J and the sup taken from the theorem at
    |nu| <= 1/2 leave the zeros, residuals, norm constants, tail constants
    and norm-check errors of a build byte for byte as they were."""
    basis = EigenBasis.build(Order(nu), n_zeros)
    monkeypatch.setattr(specfun, "bessel_zeros", ref_bessel_zeros)
    monkeypatch.setattr(basis_module, "_sup_sqrtz_j", ref_sup_sqrtz_j)
    want = EigenBasis.build(Order(nu), n_zeros)
    for get in (lambda b: b.table.zeros, lambda b: b.table.residuals,
                lambda b: b.norm_constants, lambda b: b.c_margin, lambda b: b.s_nu,
                lambda b: b.s_nu1, lambda b: b.norm_check_errors):
        assert np.asarray(get(basis)).tobytes() == np.asarray(get(want)).tobytes()


@pytest.mark.parametrize("nu", [-0.45, -0.3, 0.0, 0.25, 0.5])
def test_the_sup_scan_gives_the_theorem_s_value(nu, monkeypatch):
    """For |nu| <= 1/2, sqrt(z)|J_nu(z)| stays below sqrt(2/pi) (Watson
    section 13.74), so the scan returns the envelope's value, which the build
    now takes without evaluating J on the scan grid."""
    calls, bessel_j = [], specfun.bessel_j
    monkeypatch.setattr(specfun, "bessel_j", lambda *a, **kw: calls.append(a) or bessel_j(*a, **kw))
    got = basis_module._sup_sqrtz_j(Order(nu))
    assert not calls
    assert got == ref_sup_sqrtz_j(Order(nu)) == 1.02 * (math.sqrt(2.0 / math.pi) * 1.01)


def test_build_refuses_zeros_closer_than_the_tail_bounds_assume(monkeypatch):
    """The tail certificate takes lam_{n+1} - lam_n >= 0.9 pi (2400-zero
    tables from nu = -0.4999999 to 7.9 keep gaps of at least 0.99 pi); a
    table that breaks it is refused, not certified."""
    zeros = specfun.bessel_zeros(Order(0.5), 16)
    narrow = np.concatenate([zeros.zeros[:8], zeros.zeros[8:] - 0.4])
    monkeypatch.setattr(specfun, "bessel_zeros", lambda *a, **kw: specfun.BesselZeroTable(
        order=zeros.order, zeros=narrow, residuals=zeros.residuals))
    with pytest.raises(NumericsError, match="zeros closer than pi theta"):
        EigenBasis.build(Order(0.5), 16)


def test_build_refuses_a_failed_norm_check(monkeypatch):
    monkeypatch.setattr(basis_module, "_NORM_TOL", 0.0)
    with pytest.raises(NumericsError, match="unit-norm quadrature check failed"):
        EigenBasis.build(Order(0.5), 16)


def test_norm_check_refusal_names_the_order_the_zeros_and_the_worst_mode():
    """At nu = 7.98 bessel_j at order nu + 1 is off near z = 2 nu, so c_3
    is wrong (ROADMAP item 3); the refusal says where, not only how much."""
    with pytest.raises(NumericsError, match=r"unit-norm quadrature check failed "
                       r"at nu = 7\.98, n_zeros = 80: mode 3 of 64 is off by \d"):
        EigenBasis.build(Order(7.98), 80)


def test_series_counters_monotone(basis_half):
    n_small = basis_half.terms_needed("poisson", 0.5, 1e-10)
    n_large = basis_half.terms_needed("poisson", 0.05, 1e-10)
    assert n_large > n_small
    assert basis_half.terms_needed("heat", 0.01, 1e-10) > \
        basis_half.terms_needed("heat", 0.1, 1e-10)


def test_counter_certifies_tail(basis_half):
    """Terms beyond the counter change the Poisson series by less than tol."""
    t, tol = 0.05, 1e-10
    n = basis_half.terms_needed("poisson", t, tol)
    lam = basis_half.table.zeros
    x = np.array([0.3])
    rows = basis_half.phi_matrix(x, len(basis_half))
    full = np.sum(np.exp(-t * lam) * rows[:, 0] ** 2)
    head = np.sum(np.exp(-t * lam[:n]) * rows[:n, 0] ** 2)
    assert abs(full - head) < tol


def test_counters_raise_below_floor(basis_half):
    floor = UnitIntervalKernels(basis_half, series_tol=1e-10).floor("poisson")
    assert basis_half.terms_needed("poisson", 1.01 * floor, 1e-10) > 0
    with pytest.raises(NumericsError):
        basis_half.terms_needed("poisson", 0.25 * floor, 1e-10)


def _hankel(f, xi):
    """H f(xi) = int (xi y)^-nu J_nu(xi y) f(y) dmu(y) by the grid's quadrature."""
    kernel = specfun.besselj_over_xnu(Order(f.grid.nu), np.outer(xi, f.nodes))
    return kernel @ (f.grid.weights * f.values)


@pytest.mark.parametrize("nu", [0.5, 1.2])
def test_hankel_self_reciprocal_gaussian(nu):
    g = make_quadrature("halfline_truncated", 4096, measure=MEASURE_MU,
                        nu=nu, radius=12.0)
    f = SampledFunction(grid=g, values=np.exp(-0.5 * g.nodes**2))
    xi = np.linspace(0.1, 4.0, 25)
    got = _hankel(f, xi)
    np.testing.assert_allclose(got, np.exp(-0.5 * xi**2), rtol=0, atol=1e-10)


def test_hankel_scalar_argument():
    g = make_quadrature("halfline_truncated", 2048, measure=MEASURE_MU,
                        nu=0.5, radius=12.0)
    f = SampledFunction(grid=g, values=np.exp(-0.5 * g.nodes**2))
    out, = _hankel(f, [1.0])
    assert abs(out - math.exp(-0.5)) < 1e-10
