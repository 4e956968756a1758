import math
import warnings

import numpy as np
import pytest
import scipy.special as sps

from fbhardy import basis as basis_module, quadrature, specfun
from fbhardy.basis import EigenBasis, coefficients
from fbhardy.errors import NumericsError
from fbhardy.kernels import UnitIntervalKernels
from fbhardy.quadrature import (SampledFunction, make_quadrature, MEASURE_MU,
                                MEASURE_LEBESGUE)
from fbhardy.specfun import Order

from test_half_order_j import sine_table_rows

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
    # phi_matrix, and must give the same bits: at nu = 1/2 those of the
    # sine table, written out unblocked
    basis = EigenBasis.build(Order(nu), 80)
    lam = basis.table.zeros[:64]
    g = make_quadrature("unit_interval", max(1024, int(10 * lam[-1] / math.pi) + 64),
                        MEASURE_MU, nu, split_points=np.arange(1, 16) / 16)
    if nu == 0.5:
        phi = sine_table_rows(basis, g.nodes, 64, over_x=True)
    else:
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
    quadrature._gauss_legendre.cache_clear()   # each rule is built once a process
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


def _table_or_refusal(finder, nu, count):
    try:
        table = finder(Order(nu), count)
    except NumericsError as exc:
        return str(exc)
    return table.zeros.tobytes() + table.residuals.tobytes()


@pytest.mark.parametrize("nu", [-0.45, -0.3, 0.0, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 4.2, 7.5])
@pytest.mark.parametrize("count", [80, 2400, 2600])
def test_the_zero_finder_equals_the_plain_bisection(nu, count):
    """Midpoints whose side a McMahon interval or a one-ulp bracket fixes
    take it without J: the zeros and residuals are the plain finder's bytes
    (2600 zeros reach past x = 8000, where no bracket is certified)."""
    assert _table_or_refusal(specfun.bessel_zeros, nu, count) == \
        _table_or_refusal(ref_bessel_zeros, nu, count)


@pytest.mark.parametrize("nu", [7.95, 8.5, 9.0, 10.0, 12.0])
def test_the_zero_finder_refuses_or_serves_as_the_plain_bisection(nu):
    """Past nu = 7.5, where J is wrong near x = 2 nu, the same table or the
    same residual refusal."""
    assert _table_or_refusal(specfun.bessel_zeros, nu, 200) == \
        _table_or_refusal(ref_bessel_zeros, nu, 200)


def _sure_sides_of(monkeypatch, nu, count):
    """The zero finder's brackets (lo, hi, J(lo), J(hi)) and its _sure_sides
    intervals (below, above), as bessel_zeros made them, and its zeros."""
    seen, sure_sides = [], specfun._sure_sides
    monkeypatch.setattr(specfun, "_sure_sides", lambda order, *brackets: seen.append(
        (*brackets, *sure_sides(order, *brackets))) or seen[-1][4:])
    try:
        zeros = specfun.bessel_zeros(Order(nu), count).zeros
    except NumericsError:   # nu = 12: refused, as J is wrong near x = 2 nu; brackets made
        zeros = None
    return zeros, seen[0]


def _sure_start(nu):
    return max(2.0 * Order(nu).j_switch, nu * nu, abs(nu))


@pytest.mark.parametrize("nu, count", [(-0.45, 2400), (0.0, 600), (0.5, 2400), (1.0, 2400),
                                       (1.0, 2600), (2.5, 600), (7.5, 2400), (12.0, 200)])
def test_sure_sides_certify_only_on_the_measured_range_and_never_near_zero(monkeypatch, nu,
                                                                           count):
    """No bracket outside max(2 j_switch, nu^2, |nu|) < lo, hi < 8000, or with
    |J| <= _SURE at an end or at r -+ d, is certified; most brackets inside
    are; a certified bracket holds its interval and its table zero inside."""
    zeros, (lo, hi, flo, fhi, below, above) = _sure_sides_of(monkeypatch, nu, count)
    sure, inside = np.isfinite(below), (lo > _sure_start(nu)) & (hi < 8000.0)
    assert np.array_equal(sure, np.isfinite(above))
    assert not np.any(sure & ~inside) and (np.any(~inside) or nu == 0.5)   # 1/2: start 1/2
    assert np.all(np.minimum(np.abs(flo[sure]), np.abs(fhi[sure])) > specfun._SURE)
    assert np.count_nonzero(sure) >= 0.95 * np.count_nonzero(inside)
    assert np.all((lo[sure] < below[sure]) & (above[sure] < hi[sure]))
    if zeros is not None:
        assert np.all((below[sure] < zeros[sure]) & (zeros[sure] < above[sure]))
    # a bracket whose end value is within _SURE of zero is left to the bisection
    k = int(np.flatnonzero(sure)[-1])
    for end in (flo, fhi):
        keep, end[k] = end[k], math.copysign(0.5 * specfun._SURE, end[k])
        assert specfun._sure_sides(Order(nu), lo, hi, flo, fhi)[0][k] == -np.inf
        end[k] = keep
    assert specfun._sure_sides(Order(nu), lo, hi, flo, fhi)[0][k] == below[k]
    # and so is every bracket where |J(r -+ d)| is below _SURE
    j = specfun._j
    monkeypatch.setattr(specfun, "_j", lambda order, x: np.clip(j(order, x), -0.9 * specfun._SURE,
                                                                0.9 * specfun._SURE))
    assert np.all(specfun._sure_sides(Order(nu), lo, hi, flo, fhi)[0] == -np.inf)


def test_the_sure_error_premise_holds_against_scipy():
    """_sure_sides takes J's computed error below _SURE / 2 from its start to
    x = 8000: against scipy's jv it stays below _SURE / 10 there, at orders
    drawn over (-1/2, 12]."""
    rng = np.random.default_rng(3817)
    orders = np.concatenate([[-0.45, 0.0, 0.5, 1.0, 7.5, 12.0], -0.5 + 12.5 * rng.random(10)])
    for nu in orders[orders > -0.5]:
        x = np.concatenate([np.linspace(_sure_start(nu), _sure_start(nu) + 20.0, 4001)[1:],
                            _sure_start(nu) + (8000.0 - _sure_start(nu)) * rng.random(20000)])
        err = np.max(np.abs(specfun.bessel_j(Order(nu), x) - sps.jv(nu, x)))
        assert err < 0.1 * specfun._SURE, (nu, err)


@pytest.mark.parametrize("nu, count", [(-0.45, 2400), (0.0, 600), (0.5, 2400), (1.0, 2400),
                                       (7.5, 2400), (12.0, 200)])
def test_sure_sides_hold_the_true_zero(monkeypatch, nu, count):
    """Every sampled certified (r - d, r + d) holds mpmath's zero of J_nu,
    the first five included where they are certified (nu = 1/2)."""
    mpmath = pytest.importorskip("mpmath")
    zeros, (lo, hi, flo, fhi, below, above) = _sure_sides_of(monkeypatch, nu, count)
    sure = np.flatnonzero(np.isfinite(below))
    picks = sorted({*sure[:5].tolist(), *sure[-3:].tolist(),
                    *np.random.default_rng(8803).choice(sure, 8).tolist()})
    if nu == 0.5:
        assert picks[:5] == [0, 1, 2, 3, 4]
    with mpmath.workdps(40):
        for k in picks:
            z = (mpmath.besseljzero(nu, k + 1) if nu >= 0 else   # besseljzero takes nu >= 0
                 mpmath.findroot(lambda x: mpmath.besselj(nu, x), mpmath.mpf(zeros[k])))
            assert mpmath.mpf(below[k]) < z < mpmath.mpf(above[k]), (nu, k + 1)


def test_the_bisection_asks_j_for_at_most_30000_points_at_nu_1(monkeypatch):
    """Between the scan and the Newton polish (one call at nu = 1), J sees
    the _sure_sides points and the midpoints left open: ~22 000 at 2400
    zeros, where every midpoint of 49 steps was 117 600."""
    calls, j = [], specfun._j
    monkeypatch.setattr(specfun, "_j", lambda order, x: calls.append((order.nu, x.size))
                        or j(order, x))
    specfun.bessel_zeros(Order(1.0), 2400)
    assert calls[-1] == (1.0, 2400) and {nu for nu, _ in calls} == {1.0}
    assert sum(size for _, size in calls[1:-1]) <= 30000


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


@pytest.mark.parametrize("nu", [*np.linspace(0.5, 8.0, 31)[1:], 0.5000001, 1.4999999, 1.5,
                                1.5000001, 2.5, 4.5, 7.95])
def test_the_modulus_bound_holds_and_falls(nu):
    """The bound that cuts the sup scan is at least (pi z / 2)(J_nu^2 + Y_nu^2),
    scipy's (DLMF 10.18.17 with the remainder of section 10.18(iii)), up to
    1e-13 relative rounding, on z in [1e-3, 260]; it falls in z; and at
    nu = 3/2 the expansion ends and the bound is the modulus."""
    z = np.concatenate([np.geomspace(1e-3, 260.0, 4001), np.linspace(1e-3, 260.0, 26000)])
    modulus = math.pi * z / 2.0 * (sps.jv(nu, z) ** 2 + sps.yv(nu, z) ** 2)
    bound = basis_module._modulus_bound(nu, z)
    assert np.all(modulus <= bound * (1.0 + 1e-13))
    assert np.all(np.diff(bound[:4001]) <= 0) and np.all(np.diff(bound[4001:]) <= 0)
    if nu == 1.5:
        np.testing.assert_allclose(bound, modulus, rtol=1e-13)


@pytest.mark.parametrize("nu", [*np.linspace(0.5, 20.0, 41)[1:], 0.5000001, 1.5, 2.5, 7.95,
                                8.5, 12.0])
def test_the_cut_sup_scan_equals_the_full_scan(nu, monkeypatch):
    """s_nu from the scan cut where the bound falls below the envelope is the
    full scan's float, and J sees fewer points than the full grid."""
    sizes, bessel_j = [], specfun.bessel_j
    monkeypatch.setattr(specfun, "bessel_j", lambda o, x: sizes.append(x.size) or bessel_j(o, x))
    got = basis_module._sup_sqrtz_j(Order(nu))
    assert sum(sizes) < 26000
    monkeypatch.setattr(specfun, "bessel_j", bessel_j)
    assert got == ref_sup_sqrtz_j(Order(nu))


@pytest.mark.parametrize("nu", [60.0, 120.5])
def test_a_bound_past_the_float_range_cuts_nothing(nu):
    """Where the bound's coefficients overflow (to inf, or nan at a
    half-integer order) the whole grid is scanned, as before the cut, and no
    warning is raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert basis_module._sup_sqrtz_j(Order(nu)) == ref_sup_sqrtz_j(Order(nu))


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
