"""Truncated Bessel sums and half-line kernels against the masked loops.

The reference functions below are the original masked loops:
`_jover_series`, `_iover_series`, `_hankel_pq` and `_ive_asymptotic`, the
four public evaluators built on them, `bessel_heat`, `dy_bessel_heat` and
`compare_semigroups`. They are kept verbatim apart from renaming, `_as_f64`
written out, the argument-domain checks dropped (the library still makes
them) and one change to the J sums: a per-element live mask replaces their
whole-array stop, so each element stops after its own first term below
1e-18 (of its sum in the series, absolute in P and Q). The J functions and
the zero tables must come out bit for bit the same; the I functions may move
by a few ulps (their references still stop for the whole array), the
half-line heat kernels must give exactly 0 where the reference does and
agree to rel 4e-15 elsewhere, and the semigroup comparison must agree to
rel 1e-13.

`ref_stops` is the asymptotic stop scan before its lookup tables, and must
give the same indices; `ref_bessel_poisson` is the blocked subordination
loop on `ref_bessel_heat`, and the subordination that uchiyama_kernel keeps
(`kernels._subordinated_poisson`) is held to it by the heat kernels' rule.
The terms it skips must sum to at most 2^-60 of each point's sum.
`ref_compare_semigroups` still runs on `ref_bessel_poisson`, so the
Muckenhoupt-Stein `bessel_poisson` must reproduce the comparison to rel
1e-13.

`ref_duhamel_residuals` and `ref_duhamel_residual_kernels` are the per-s-node
Duhamel loops (one bessel_heat and one dy_bessel_heat call per node); the
sliced calls must give the same heat values bit for bit, and R1, R2, R3 must
agree to rel 1e-13.
"""
import math
from math import lgamma, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbhardy import kernels, maximal, specfun
from fbhardy.covers import DyadicCover, FAMILY_ONE_END
from fbhardy.basis import EigenBasis
from fbhardy.errors import NumericsError
from fbhardy.kernels import (_IVE_SWITCH, _SUB_BLOCK, _SUB_INV_4V2, _SUB_V, _SUB_WEIGHT,
                             _subordinated_poisson, bessel_heat, bessel_poisson,
                             dy_bessel_heat)
from fbhardy.kernels import UnitIntervalKernels
from fbhardy.maximal import (CutoffRho, SpectralExpansion, _ramp, _s_panel_nodes,
                             compare_semigroups, duhamel_residual_kernels,
                             duhamel_residuals)
from fbhardy.quadrature import (MEASURE_MU, SampledFunction, grid_on_interval,
                                make_quadrature)
from fbhardy.specfun import _ASYMP_CAP, _CHUNK, _SERIES_CAP, Order
from test_poisson_oracle import poisson_oracle

# ---------------------------------------------------------------------------
# reference: the masked loops


def ref_jover_series(nu, x):
    q = 0.25 * x * x
    term = np.full_like(q, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
    out = term.copy()
    live = np.ones(q.shape, dtype=bool)
    for k in range(1, _SERIES_CAP + 1):
        term = term * (-q) / (k * (nu + k))
        out += np.where(live, term, 0.0)
        live &= ~(np.abs(term) < 1e-18 * np.maximum(np.abs(out), 1e-300))
        if not live.any():
            break
    return out


def ref_iover_series(nu, x):
    q = 0.25 * x * x
    term = np.full_like(q, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
    out = term.copy()
    for k in range(1, _SERIES_CAP + 1):
        term = term * q / (k * (nu + k))
        out += term
        if np.max(term) < 1e-18 * max(np.max(out), 1e-300):
            break
    return out


def ref_hankel_pq(nu, x):
    mu4 = 4.0 * nu * nu
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    a = 1.0
    prev = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, _ASYMP_CAP + 1):
        a *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k)
        if a == 0.0:
            break
        t = a / x**k
        mag = np.abs(t)
        active &= mag < prev
        sign = -1.0 if (k // 2) % 2 else 1.0
        contrib = np.where(active, sign * t, 0.0)
        if k % 2:
            Q += contrib
        else:
            P += contrib
        prev = np.where(active, mag, prev)
        active &= ~(mag < 1e-18)
        if not active.any():
            break
    return P, Q


def ref_j_asymptotic(nu, x):
    P, Q = ref_hankel_pq(nu, x)
    chi = x - (0.5 * nu + 0.25) * pi
    return np.sqrt(2.0 / (pi * x)) * (np.cos(chi) * P - np.sin(chi) * Q)


def ref_ive_asymptotic(nu, x):
    mu4 = 4.0 * nu * nu
    E = np.ones_like(x)
    F = np.ones_like(x)
    a = 1.0
    prev = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, _ASYMP_CAP + 1):
        a *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k)
        if a == 0.0:
            break
        t = a / x**k
        mag = np.abs(t)
        active &= mag < prev
        E += np.where(active, (-1.0) ** k * t, 0.0)
        F += np.where(active, t, 0.0)
        prev = np.where(active, mag, prev)
        if not active.any() or np.max(np.where(active, mag, 0.0)) < 1e-18:
            break
    return (E - math.sin(nu * pi) * np.exp(-2.0 * x) * F) / np.sqrt(2.0 * pi * x)


def ref_besselj_over_xnu(order, x):
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.j_switch
    if small.any():
        out[small] = ref_jover_series(order.nu, flat[small])
    if (~small).any():
        xs = flat[~small]
        out[~small] = ref_j_asymptotic(order.nu, xs) / xs**order.nu
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def ref_bessel_j(order, x):
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.j_switch
    if small.any():
        xs = flat[small]
        with np.errstate(divide="ignore"):
            out[small] = ref_jover_series(order.nu, xs) * xs**order.nu
    if (~small).any():
        out[~small] = ref_j_asymptotic(order.nu, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def ref_bessel_i_scaled(order, x):
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.i_switch
    if small.any():
        xs = flat[small]
        with np.errstate(divide="ignore"):
            out[small] = np.exp(-xs) * ref_iover_series(order.nu, xs) * xs**order.nu
    if (~small).any():
        out[~small] = ref_ive_asymptotic(order.nu, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def ref_besseli_over_xnu(order, x):
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.i_switch
    if small.any():
        out[small] = ref_iover_series(order.nu, flat[small])
    if (~small).any():
        xs = flat[~small]
        if np.any(xs > 700.0):
            raise NumericsError("besseli_over_xnu",
                                "argument beyond exp overflow range; use bessel_i_scaled")
        out[~small] = ref_ive_asymptotic(order.nu, xs) * np.exp(xs) / xs**order.nu
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def ref_bessel_heat(nu, t, x, y):
    order = Order(nu)
    t, x, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    scalar = t.shape == ()
    t = np.atleast_1d(t).astype(float)
    x = np.atleast_1d(x).astype(float)
    y = np.atleast_1d(y).astype(float)
    if np.any(t <= 0) or np.any(x < 0) or np.any(y < 0):
        raise ValueError("bessel_heat needs t > 0 and x, y >= 0")
    u = x * y / (2.0 * t)
    out = np.empty(t.shape)
    small = u <= _IVE_SWITCH
    if np.any(small):
        ts, xs, ys = t[small], x[small], y[small]
        h = np.asarray(ref_besseli_over_xnu(order, u[small]))
        out[small] = (2.0 * ts) ** (-1.0 - nu) * \
            np.exp(-(xs**2 + ys**2) / (4.0 * ts)) * h
    big = ~small
    if np.any(big):
        tb, xb, yb = t[big], x[big], y[big]
        ive = np.asarray(ref_bessel_i_scaled(order, u[big]))
        out[big] = (xb * yb) ** (-nu) / (2.0 * tb) * \
            np.exp(-((xb - yb) ** 2) / (4.0 * tb)) * ive
    return float(out[0]) if scalar else out


def ref_dy_bessel_heat(nu, t, x, y):
    order = Order(nu)
    up = Order(nu + 1.0)
    t, x, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    scalar = t.shape == ()
    t = np.atleast_1d(t).astype(float)
    x = np.atleast_1d(x).astype(float)
    y = np.atleast_1d(y).astype(float)
    if np.any(t <= 0) or np.any(x < 0) or np.any(y < 0):
        raise ValueError("dy_bessel_heat needs t > 0 and x, y >= 0")
    u = x * y / (2.0 * t)
    out = np.empty(t.shape)
    small = u <= _IVE_SWITCH
    if np.any(small):
        ts, xs, ys, us = t[small], x[small], y[small], u[small]
        h0 = np.asarray(ref_besseli_over_xnu(order, us))
        h1 = np.asarray(ref_besseli_over_xnu(up, us))
        out[small] = (2.0 * ts) ** (-1.0 - nu) * \
            np.exp(-(xs**2 + ys**2) / (4.0 * ts)) * \
            ((xs / (2.0 * ts)) * us * h1 - (ys / (2.0 * ts)) * h0)
    big = ~small
    if np.any(big):
        tb, xb, yb, ub = t[big], x[big], y[big], u[big]
        i0 = np.asarray(ref_bessel_i_scaled(order, ub))
        i1 = np.asarray(ref_bessel_i_scaled(up, ub))
        out[big] = (xb * yb) ** (-nu) / (2.0 * tb) * \
            np.exp(-((xb - yb) ** 2) / (4.0 * tb)) * \
            ((xb / (2.0 * tb)) * i1 - (yb / (2.0 * tb)) * i0)
    return float(out[0]) if scalar else out


def ref_stops(nu):
    """The stop scan of `_asymptotic_table(nu)` with three searches per call,
    and its thresholds (the ties other than +-inf)."""
    mu4, c, a = 4.0 * nu * nu, 1.0, []
    for k in range(1, _ASYMP_CAP + 1):
        c *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k)
        if c == 0.0:
            break
        a.append(c)
    K, k = len(a), np.arange(1, len(a) + 1)
    ak = np.abs(np.array(a))
    r, s = ak[1:] / ak[:-1], (1e18 * ak) ** (1.0 / k)
    rise, tiny = np.maximum.accumulate(r), np.minimum.accumulate(s)
    ties = np.sort(np.concatenate([[-np.inf, np.inf], r, s]))

    def stops(x):
        stop = np.minimum(1 + np.searchsorted(rise, x, side="left"), K)
        small = 1 + np.searchsorted(-tiny, -x, side="right")
        i = np.searchsorted(ties, x)
        near = np.flatnonzero(np.minimum(x - ties[i - 1], ties[i] - x) <= 1e-12 * x)
        live, prev = np.ones(near.size, dtype=bool), np.inf
        small[near] = K + 1
        for j, cj in enumerate(a if near.size else (), start=1):
            mag = np.abs(cj / x[near] ** j)
            live &= mag < prev
            stop[near[live]], prev = j, mag
            small[near[live & (mag < 1e-18) & (small[near] > K)]] = j
        return stop, small
    return stops, ties[1:-1]


def ref_bessel_poisson(nu, t, x, y):
    tb, xb, yb = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, x, y)))
    if np.any(tb <= 0):
        raise ValueError("bessel_poisson needs t > 0")
    t2, xf, yf = (np.ravel(a) for a in (tb * tb, xb, yb))
    step = max(1, _SUB_BLOCK // max(xf.size, 1))
    acc = np.zeros(xf.size)
    for i in range(0, len(_SUB_V), step):
        s = _SUB_INV_4V2[i:i + step, None] * t2
        acc += (_SUB_WEIGHT[i:i + step, None] * ref_bessel_heat(nu, s, xf, yf)).sum(axis=0)
    acc *= 2.0 / math.sqrt(math.pi)
    return float(acc[0]) if xb.shape == () else acc.reshape(xb.shape)


def ref_compare_semigroups(basis, fs, t_grid=None, n_x=48, zeta=0.02):
    if isinstance(fs, SampledFunction):
        fs = [fs]
    cover = DyadicCover(FAMILY_ONE_END, zeta=zeta)
    edge = cover.starred(0, 2).b
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 0.999, 20)
    xg = grid_on_interval(1e-9, edge, n_x, MEASURE_MU, basis.nu)
    xw, xn = xg.weights, xg.nodes

    grid0 = fs[0].grid
    exps = []
    for f in fs:
        if f.measure != MEASURE_MU:
            raise ValueError("comparison inputs must be mu-tagged")
        if f.grid is not grid0:
            raise ValueError("batch inputs must share one grid")
        if np.any((f.nodes >= edge) & (np.abs(f.values) > 0)):
            raise ValueError("inputs must be supported in the origin piece")
        exps.append(SpectralExpansion(f, basis))

    sup = np.zeros((len(fs), len(xn)))
    for t in t_grid:
        kmat = ref_bessel_poisson(basis.nu, float(t), xn[:, None], grid0.nodes[None, :])
        for i, (f, exp) in enumerate(zip(fs, exps)):
            half = kmat @ (grid0.weights * f.values)
            unit = exp.at_time(float(t), xn, "poisson")
            sup[i] = np.maximum(sup[i], np.abs(half - unit))

    out = []
    for i, f in enumerate(fs):
        fnorm = float(f.grid.weights @ np.abs(f.values))
        out.append({"sup_norm_l1": float(xw @ sup[i]), "f_norm_l1": fnorm,
                    "ratio": float(xw @ sup[i]) / fnorm if fnorm > 0 else 0.0})
    return out


def ref_duhamel_residuals(basis, rho, f, t, x):
    nu = basis.nu
    x = np.atleast_1d(np.asarray(x, dtype=float))
    znodes, zw, rp, rpp, drift = _ramp(rho, nu)
    s_nodes, s_weights = _s_panel_nodes(t)
    heat = SpectralExpansion(f, basis).sweep(s_nodes, znodes, "heat")
    r1 = np.zeros(len(x))
    r2 = np.zeros(len(x))
    r3 = np.zeros(len(x))
    for s, w, g in zip(s_nodes, s_weights, heat):   # g: heat of f at s
        big = bessel_heat(nu, t - s, x[:, None], znodes[None, :])
        dbig = dy_bessel_heat(nu, t - s, x[:, None], znodes[None, :])
        r1 += w * (big @ (zw * rpp * g))
        r2 += 2.0 * w * (dbig @ (zw * rp * g))
        r3 += w * (big @ (zw * drift * g))
    return r1, r2, r3


def ref_duhamel_residual_kernels(basis, kernels, rho, t, x, y):
    nu = basis.nu
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    znodes, zw, rp, rpp, drift = _ramp(rho, nu)
    floor = kernels.heat_floor()

    s_nodes, s_weights = _s_panel_nodes(t)
    r1 = np.zeros((len(x), len(y)))
    r2 = np.zeros((len(x), len(y)))
    r3 = np.zeros((len(x), len(y)))
    for s, w in zip(s_nodes, s_weights):
        if s > 1.05 * floor:
            inner = kernels.heat_mu(s, znodes, y, matrix=True)
        else:
            inner = bessel_heat(nu, s, znodes[:, None], y[None, :])
        big = bessel_heat(nu, t - s, x[:, None], znodes[None, :])
        dbig = dy_bessel_heat(nu, t - s, x[:, None], znodes[None, :])
        r1 += w * (big * (zw * rpp)[None, :]) @ inner
        r2 += 2.0 * w * (dbig * (zw * rp)[None, :]) @ inner
        r3 += w * (big * (zw * drift)[None, :]) @ inner
    return r1, r2, r3


# ---------------------------------------------------------------------------
# samples


ORDERS = st.floats(min_value=-0.5, max_value=12.0, exclude_min=True,
                   allow_nan=False)
SIZES = st.sampled_from([0, 1, 2, 7, 300, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                         2 * _CHUNK + 5])
SLOW = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _points(rng, size, switches, hi):
    """Points in [0, hi]: half log-spread, half within a few percent (and a
    few ulps) of one of the switch points, on both sides."""
    spread = 10.0 ** rng.uniform(-3.0, np.log10(hi), size - size // 2)
    sw = rng.choice(np.asarray(switches, dtype=float), size // 2)
    near = sw * (1.0 + rng.choice([1e-15, 1e-9, 1e-3, 5e-2], size // 2)
                 * rng.uniform(-1.0, 1.0, size // 2))
    x = np.concatenate([spread, np.minimum(near, hi)])
    x[: min(size, 3)] = np.asarray(switches, dtype=float)[:min(size, 3)]
    rng.shuffle(x)
    return x


def _assert_rel(got, ref, rtol):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    zero = ref == 0
    assert np.all(got[zero] == 0)
    rel = np.abs(got[~zero] - ref[~zero]) / np.abs(ref[~zero])
    assert np.all(rel <= rtol), float(np.max(rel))


# ---------------------------------------------------------------------------
# properties


@SLOW
@given(nu=ORDERS, size=SIZES, seed=st.integers(0, 2**32 - 1))
def test_j_is_bit_identical(nu, size, seed):
    order = Order(nu)
    x = _points(np.random.default_rng(seed), size,
                [order.j_switch, 2.0 * order.j_switch, 3.0 * order.j_switch],
                1e4)
    assert np.array_equal(specfun.bessel_j(order, x), ref_bessel_j(order, x))
    assert np.array_equal(specfun.besselj_over_xnu(order, x),
                          ref_besselj_over_xnu(order, x))


@pytest.mark.parametrize("nu", [-0.4999, -0.45, 0.5, 1.0, 4.5, 12.0])
def test_j_series_stop_is_bit_identical(nu):
    """Every element of the series stops where the reference's does when
    the largest argument is shared, when every argument is 0, at size 1 and
    at sizes next to a block."""
    sw, rng = Order(nu).j_switch, np.random.default_rng(23)
    cases = [np.array([0.3 * sw, sw, 0.5, sw, sw]), np.full(4, 0.7 * sw),
             np.zeros(6), np.zeros(1), np.array([sw]), np.array([1e-3]),
             rng.uniform(0.0, sw, _CHUNK - 1), rng.uniform(0.0, sw, _CHUNK + 1)]
    cases[-1][::5] = sw
    for x in cases:
        assert np.array_equal(specfun._over_series(nu, x, -1.0), ref_jover_series(nu, x))


@settings(max_examples=80, deadline=None)
@given(nu=ORDERS, sign=st.sampled_from([-1.0, 1.0]),
       size=st.integers(0, 2 * specfun._SCALAR_MAX), seed=st.integers(0, 2**32 - 1))
def test_a_handful_of_arguments_sums_as_the_blocks_do(nu, sign, size, seed):
    """Up to _SCALAR_MAX arguments, summed one at a time, and every size up to
    twice that give the bits the same arguments get inside an array above the
    limit, which the block loop sums.  The arguments lie in [0, switch] (J's or
    I's) and hold 0 and the switch itself."""
    order = Order(nu)
    switch = order.j_switch if sign < 0 else order.i_switch
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, switch, size)
    x[:2] = [0.0, switch][:size]
    rng.shuffle(x)
    big = np.concatenate([x, rng.uniform(0.0, switch, specfun._SCALAR_MAX + 1)])
    assert np.array_equal(specfun._over_series(nu, x, sign),
                          specfun._over_series(nu, big, sign)[:size])


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_a_basis_build_sums_no_handful_of_arguments_in_blocks(nu, monkeypatch):
    """A build's series calls on at most _SCALAR_MAX arguments (the zero
    finder's few zeros below the switch, at each bisection step) skip the block
    loop, and every zero table and residual is the one a build gets with every
    call in blocks."""
    sizes, blocks = [], specfun._series_blocks

    def spy(*args):
        sizes.append(args[1].size)
        return blocks(*args)
    monkeypatch.setattr(specfun, "_series_blocks", spy)
    got = EigenBasis.build(Order(nu), 2400)
    assert sizes and min(sizes) > specfun._SCALAR_MAX
    sizes.clear()
    monkeypatch.setattr(specfun, "_SCALAR_MAX", -1)
    want = EigenBasis.build(Order(nu), 2400)
    assert min(sizes) <= 3 and len(sizes) > 50
    for name in ("zeros", "residuals"):
        assert getattr(got.table, name).tobytes() == getattr(want.table, name).tobytes()
    assert got.norm_constants.tobytes() == want.norm_constants.tobytes()


@SLOW
@given(nu=ORDERS, size=SIZES, lo=st.floats(0.0, 2.5), width=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_j_is_bit_identical_on_bands(nu, size, lo, width, seed):
    """Bands of x past the switch: the stopping indices then sit below the
    cap, and elements differ in where their terms stop mattering."""
    order = Order(nu)
    start = order.j_switch * 10.0 ** lo
    x = start * (1.0 + width * np.random.default_rng(seed).random(size))
    assert np.array_equal(specfun.bessel_j(order, x), ref_bessel_j(order, x))


@pytest.mark.parametrize("nu", [-0.45, -0.4, 0.45, 0.55])
def test_j_is_bit_identical_near_half_order(nu):
    """Near nu = 1/2 the odd sum Q is small (a_1 = (4 nu^2 - 1)/8), so the
    terms skipped as absorbed must still leave its last bit as it is."""
    order, rng = Order(nu), np.random.default_rng(11)
    for lo in (12.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0):
        for _ in range(20):
            x = lo * (1.0 + 0.5 * rng.random(500))
            assert np.array_equal(specfun.bessel_j(order, x), ref_bessel_j(order, x))


@SLOW
@given(nu=ORDERS, size=SIZES, seed=st.integers(0, 2**32 - 1))
def test_i_within_a_few_ulps(nu, size, seed):
    order = Order(nu)
    x = _points(np.random.default_rng(seed), size,
                [order.i_switch, _IVE_SWITCH, 2.0 * _IVE_SWITCH], 650.0)
    _assert_rel(specfun.bessel_i_scaled(order, x), ref_bessel_i_scaled(order, x),
                4e-15)
    small = x[x <= order.i_switch]      # the I series of the heat kernels
    _assert_rel(specfun._over_series(order.nu, small, 1.0),
                ref_besseli_over_xnu(order, small), 4e-15)


def test_scalar_and_empty_inputs_keep_their_shape():
    order = Order(1.0)
    for fn, ref in ((specfun.bessel_j, ref_bessel_j),
                    (specfun.bessel_i_scaled, ref_bessel_i_scaled)):
        for x in (0.0, 11.0, 12.0, 35.0, 1e4):
            got = fn(order, x)
            assert isinstance(got, float) and got == ref(order, x)
        assert fn(order, np.zeros((0, 3))).shape == (0, 3)
        got = fn(order, np.array([[13.0, 40.0], [0.5, 900.0]]))
        assert np.array_equal(got, ref(order, np.array([[13.0, 40.0],
                                                         [0.5, 900.0]])))


@settings(max_examples=15, deadline=None)
@given(nu=ORDERS)
def test_zero_tables_are_bit_identical(nu):
    def zeros():
        try:
            table = specfun.bessel_zeros(Order(nu), 200)
        except NumericsError as exc:   # past the evaluators' order range
            return str(exc), None
        return table.zeros, table.residuals

    got = zeros()
    with mock.patch.object(specfun, "bessel_j", ref_bessel_j):
        ref = zeros()
    if ref[1] is None:
        assert got == ref
    else:
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@SLOW
@given(nu=ORDERS, size=SIZES, seed=st.integers(0, 2**32 - 1))
def test_halfline_heat_kernels(nu, size, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, size)
    y = rng.uniform(0.0, 3.0, size)
    x[::7] = 0.0
    t = 10.0 ** rng.uniform(-6.0, 1.0, size)
    # every third point sits next to the route switch u = xy/2t = _IVE_SWITCH
    near = slice(1, None, 3)
    t[near] = np.maximum(x[near] * y[near], 1e-12) / (
        2.0 * _IVE_SWITCH * (1.0 + rng.uniform(-1e-3, 1e-3, t[near].size)))
    for fn, ref in ((bessel_heat, ref_bessel_heat),
                    (dy_bessel_heat, ref_dy_bessel_heat)):
        _assert_rel(fn(nu, t, x, y), ref(nu, t, x, y), 4e-15)


def test_halfline_heat_broadcasts_and_skips_zero_factors():
    x = np.linspace(0.0, 3.0, 41)
    y = np.linspace(0.0, 3.0, 23)[:, None]
    for t in (1e-4, 0.01, 0.7):
        for fn, ref in ((bessel_heat, ref_bessel_heat),
                        (dy_bessel_heat, ref_dy_bessel_heat)):
            got, want = fn(1.0, t, x, y), ref(1.0, t, x, y)
            assert got.shape == (23, 41)
            _assert_rel(got, want, 4e-15)
        assert isinstance(bessel_heat(1.0, t, 0.4, 0.5), float)
    # at t = 1e-4 most Gaussian factors underflow to 0
    assert np.mean(ref_bessel_heat(1.0, 1e-4, x, y) == 0) > 0.5


def _check_stops(nu):
    """The lookup table gives the earlier of the scan's two indices on
    log-spread points and on every threshold, a few ulps and 2e-12 or 1e-9
    relative to either side."""
    ref, th = ref_stops(nu)
    x = [np.geomspace(1e-3, 1e6, 4001), th]
    for ulps in (1, 4):
        x += [th + ulps * np.spacing(th), th - ulps * np.spacing(th)]
    for rel in (2e-12, 1e-9):
        x += [th * (1.0 + rel), th * (1.0 - rel)]
    x = np.concatenate(x)
    with np.errstate(over="ignore"):   # x**j past 1e308 at the largest thresholds
        got, want = specfun._asymptotic_table(nu)[3](x), np.minimum(*ref(x))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("nu", [-0.3, 0.25, 1.0, 1.5, 2.5, 7.5, 12.0, 30.0])
def test_stop_lookup_matches_the_scan(nu):
    _check_stops(nu)


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(min_value=-0.5, max_value=30.0, exclude_min=True,
                    allow_nan=False))
def test_stop_lookup_matches_the_scan_at_any_order(nu):
    _check_stops(nu)


def _poisson_points(rng, size):
    x = rng.uniform(0.0, 3.0, size)
    y = rng.uniform(0.0, 3.0, size)
    x[::7] = 0.0
    return 10.0 ** rng.uniform(-3.0, 1.0, size), x, y


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nu=ORDERS, size=st.sampled_from([0, 1, 2, 7, 300, _SUB_BLOCK // 3 + 1]),
       seed=st.integers(0, 2**32 - 1))
def test_bessel_poisson_against_blocked_loop(nu, size, seed):
    """Per-point times; sizes that pack many nodes into a block."""
    t, x, y = _poisson_points(np.random.default_rng(seed), size)
    _assert_rel(_subordinated_poisson(nu, t, x, y), ref_bessel_poisson(nu, t, x, y), 4e-15)


@pytest.mark.parametrize("size", [_SUB_BLOCK // 2 - 1, _SUB_BLOCK // 2, _SUB_BLOCK // 2 + 1,
                                  _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1])
def test_bessel_poisson_against_blocked_loop_near_block_size(size):
    """Points next to half a block (two nodes per block, then one) and next
    to a whole block."""
    t, x, y = _poisson_points(np.random.default_rng(size), size)
    for nu in (-0.3, 1.0):
        _assert_rel(_subordinated_poisson(nu, t, x, y), ref_bessel_poisson(nu, t, x, y), 4e-15)


def _spy_terms(nu, t, x, y):
    """_subordinated_poisson at (t, x, y), and its weighted subordination terms
    (node x point; 0 where no term was added), read from the node-block
    calls of `_heat`."""
    tb, xb, yb = (np.ravel(a) for a in np.broadcast_arrays(t, x, y))
    s_all = _SUB_INV_4V2[:, None] * (tb * tb)
    terms = np.zeros(s_all.shape)
    real = kernels._heat

    def spy(orders, s, points, dy, keep=True):
        out = real(orders, s, points, dy, keep)
        if np.ndim(s) == 2:   # a node block, not the reference term
            i = int(np.flatnonzero(np.all(s_all == s[0], axis=1))[0])
            terms[i:i + len(s)] = _SUB_WEIGHT[i:i + len(s), None] * out
        return out

    with mock.patch.object(kernels, "_heat", spy):
        got = _subordinated_poisson(nu, tb, xb, yb)
    return got, terms, s_all


def _cut_points(rng, size):
    """Times in [1e-6, 10] and points in [0, 3]^2 with x = y, x = 0, y = 0
    and |x - y| >> t among them."""
    t = 10.0 ** rng.uniform(-6.0, 1.0, size)
    x = rng.uniform(0.0, 3.0, size)
    y = rng.uniform(0.0, 3.0, size)
    y[::5] = x[::5]
    x[1::7] = 0.0
    y[2::7] = 0.0
    far = slice(3, None, 6)
    x[far], y[far] = rng.uniform(0.0, 0.5, x[far].size), rng.uniform(1.5, 3.0, y[far].size)
    t[far] = 10.0 ** rng.uniform(-6.0, -3.0, t[far].size)
    return t, x, y


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nu=ORDERS, size=st.sampled_from([1, 2, 7, 60, 300]), seed=st.integers(0, 2**32 - 1))
def test_subordination_cut_is_certified(nu, size, seed):
    """The value matches the blocked loop, and per point the terms the cut
    skipped, recomputed from the reference's per-node heat values, sum to at
    most 2^-60 of the point's sum.  The sums are of magnitudes: every true
    term is positive, but near nu = 12 the scaled I just past u = 30 can come
    out negative in both evaluators (the strict xfail
    test_bessel_i_scaled_large_order_past_the_switch)."""
    t, x, y = _cut_points(np.random.default_rng(seed), size)
    got, terms, s_all = _spy_terms(nu, t, x, y)
    with np.errstate(over="ignore"):   # a / x**k past 1e308 in ref_ive_asymptotic
        want = ref_bessel_poisson(nu, t, x, y)
        ref_terms = np.abs(_SUB_WEIGHT[:, None] * ref_bessel_heat(nu, s_all, x, y))
    _assert_rel(got, want, 4e-15)
    skipped = np.where(terms == 0.0, ref_terms, 0.0).sum(axis=0)
    assert np.all(skipped <= 2.0**-60 * ref_terms.sum(axis=0))
    _assert_rel(np.abs(terms[terms != 0]), ref_terms[terms != 0], 4e-15)


def test_subordination_cut_skips_terms_the_gaussian_keeps():
    """On a compare_semigroups-like table at nu = 1 the cut leaves out a
    good share of the terms whose Gaussian factor does not underflow."""
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(0.005, 0.5, 24),
                                           np.linspace(0.01, 0.5, 20)))
    for t in (0.01, 0.1, 0.9):
        _, terms, s_all = _spy_terms(1.0, t, x, y)
        ref_terms = ref_bessel_heat(1.0, s_all, x, y)
        assert np.count_nonzero(terms) < 0.9 * np.count_nonzero(ref_terms)


def test_subordination_cut_is_off_where_the_prefactor_may_overflow():
    """At t = 1e-76 the last nodes' heat times fall below s_safe: every term
    is tried there, so an overflowed prefactor times a zero Gaussian factor
    stays NaN, and x = y = 0 stays inf, as in the reference."""
    x, y = np.array([0.5, 0.0, 0.3, 0.0]), np.array([0.5, 0.0, 0.9, 0.4])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _subordinated_poisson(1.0, 1e-76, x, y), ref_bessel_poisson(1.0, 1e-76, x, y)
    assert np.isnan(want[3]) and np.isinf(want[1])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    _assert_rel(got[fin], want[fin], 4e-15)


def test_bessel_poisson_refuses_underflowing_heat_times():
    for t in (1e-162, np.array([0.5, 1e-170, 0.2])):
        with pytest.raises(ValueError, match=r"^bessel_poisson needs t\^2/576 > 0"):
            _subordinated_poisson(1.0, t, 0.5, 0.5)


def test_bessel_poisson_scalar_and_empty_inputs():
    """Scalars give floats and empty shapes stay empty; the values match the
    mpmath oracle to rel 1e-13 (the sweep's bound in test_poisson_oracle)."""
    for nu, t, x, y in ((1.0, 0.3, 0.5, 0.7), (-0.3, 2.0, 0.0, 1.5), (12.0, 0.05, 2.0, 2.1)):
        got = bessel_poisson(nu, t, x, y)
        assert isinstance(got, float)
        _assert_rel(got, poisson_oracle(nu, t, x, y), 1e-13)
    for shape in ((0,), (0, 3)):
        assert bessel_poisson(1.0, np.ones(shape), 0.5, 0.5).shape == shape
    x = np.linspace(0.0, 3.0, 9)
    got = bessel_poisson(2.5, 0.4, x[:, None], x[None, :])
    half = {(i, j): poisson_oracle(2.5, 0.4, x[i], x[j]) for i in range(9) for j in range(i, 9)}
    want = np.array([[half[min(i, j), max(i, j)] for j in range(9)] for i in range(9)])   # P(x, y) = P(y, x)
    _assert_rel(got, want, 1e-13)


def _gate7_bumps(grid, seed=4101, count=20):
    rng = np.random.default_rng(seed)
    fs = []
    for _ in range(count):
        a = 0.02 + 0.30 * rng.random()
        b = a + 0.04 + (0.47 - a - 0.04) * rng.random()
        amp = 0.5 + rng.random()
        vals = amp * np.sin(np.pi * np.clip((grid.nodes - a) / (b - a),
                                            0.0, 1.0)) ** 2
        vals[grid.nodes <= a] = 0.0
        vals[grid.nodes >= 0.51] = 0.0
        fs.append(SampledFunction(grid=grid, values=vals))
    return fs


def _compare_against_reference(basis, fs, t_grid, n_x):
    got = compare_semigroups(basis, fs, t_grid=t_grid, n_x=n_x)
    ref = ref_compare_semigroups(basis, fs, t_grid=t_grid, n_x=n_x)
    for g, r in zip(got, ref):
        assert g["f_norm_l1"] == r["f_norm_l1"]
        assert abs(g["ratio"] - r["ratio"]) <= 1e-13 * abs(r["ratio"])
    assert len(got) == len(ref)


def test_compare_semigroups_gate7_bumps(basis_half, grid_mu):
    _compare_against_reference(basis_half, _gate7_bumps(grid_mu),
                               np.geomspace(1e-2, 0.9, 8), 32)


def test_compare_semigroups_integer_order():
    basis = EigenBasis.build(Order(1.0), 400)
    grid = make_quadrature("unit_interval", 128, measure=MEASURE_MU, nu=1.0)
    _compare_against_reference(basis, _gate7_bumps(grid, seed=7, count=4),
                               np.geomspace(5e-2, 0.9, 4), 16)


def test_compare_semigroups_all_zero_inputs(basis_half, grid_mu):
    zero = SampledFunction(grid=grid_mu, values=np.zeros(len(grid_mu.nodes)))
    out = compare_semigroups(basis_half, [zero, zero], t_grid=[0.1, 0.5], n_x=8)
    assert [r["ratio"] for r in out] == [0.0, 0.0]


def _duhamel_case(nu):
    basis = EigenBasis.build(Order(nu), 400)
    grid = make_quadrature("unit_interval", 128, measure=MEASURE_MU, nu=nu)
    u = lambda z: (z - 0.08) / 0.32
    z = grid.nodes
    f = SampledFunction(grid=grid, values=np.where(
        (u(z) > 0) & (u(z) < 1), np.sin(np.pi * np.clip(u(z), 0, 1)) ** 2, 0.0))
    return basis, CutoffRho.build(0.02), f


def _sliced_heat(fn, *args):
    """fn(*args) and the 3-d (sliced) values of bessel_heat and
    dy_bessel_heat it asked maximal for, stacked along the s nodes."""
    seen = {"bessel_heat": [], "dy_bessel_heat": []}

    def spy(real):
        def call(nu, t, x, y):
            out = real(nu, t, x, y)
            if np.ndim(out) == 3:
                seen[real.__name__].append(out)
            return out
        return call

    with mock.patch.object(maximal, "bessel_heat", spy(bessel_heat)), \
            mock.patch.object(maximal, "dy_bessel_heat", spy(dy_bessel_heat)):
        got = fn(*args)
    return got, [np.concatenate(seen[k]) for k in ("bessel_heat", "dy_bessel_heat")]


@pytest.mark.parametrize("nu", [-0.3, 0.5, 1.0, 2.5])
def test_duhamel_sliced_heat_matches_per_node_calls(nu):
    basis, rho, f = _duhamel_case(nu)
    kern = UnitIntervalKernels(basis)
    t = 0.3
    x, xg = np.linspace(0.03, 0.49, 24), np.linspace(0.05, 0.45, 7)
    znodes = _ramp(rho, nu)[0]
    s_nodes = _s_panel_nodes(t)[0]
    for fn, args, ref, xs in (
            (duhamel_residuals, (basis, rho, f, t, x), ref_duhamel_residuals, x),
            (duhamel_residual_kernels, (basis, kern, rho, t, xg, xg),
             ref_duhamel_residual_kernels, xg)):
        got, heats = _sliced_heat(fn, *args)
        for heat, per_node in zip(heats, (bessel_heat, dy_bessel_heat)):
            want = np.array([per_node(nu, t - s, xs[:, None], znodes[None, :])
                             for s in s_nodes])
            assert np.array_equal(heat, want)
        for r, r_ref in zip(got, ref(*args)):
            assert r.shape == r_ref.shape
            _assert_rel(r, r_ref, 1e-13)
