"""Poisson and heat kernels for the Bessel operator, with sharp-bound checks.

On (0, 1), with lam_n the positive zeros of J_nu, phi_n / psi_n the weighted
and flat orthonormal systems from `basis`, and chi_n the image of psi_n under
-d/dx + (nu + 1/2)/x, SERIES_KERNELS holds the series kernels:

    poisson_mu         sum_n exp(-t lam_n)   phi_n(x) phi_n(y)
    poisson_lebesgue   sum_n exp(-t lam_n)   psi_n(x) psi_n(y)
    heat_mu            sum_n exp(-t lam_n^2) phi_n(x) phi_n(y)
    heat_lebesgue      sum_n exp(-t lam_n^2) psi_n(x) psi_n(y)
    delta_poisson      sum_n exp(-t lam_n)   chi_n(x) psi_n(y)

On (0, inf) the heat kernel of the Bessel operator has the closed form

    T_t(x, y) = (2t)^(-1-nu) exp(-(x^2+y^2)/4t) h_nu(xy/2t),
    h_nu(u) = I_nu(u)/u^nu.

T takes h_nu from its series up to u = xy/2t = 30 and, above, the scaled form
(xy)^(-nu) / 2t exp(-(x-y)^2/4t) exp(-u) I_nu(u), one I evaluation per route.
The Poisson kernel is the Muckenhoupt-Stein integral (Trans. AMS 118, 1965)

    P_t(x, y) = (2nu+1) t 4^nu/pi int_0^1 (c(1-c))^(nu-1/2) (a + bc)^(-nu-3/2) dc

with a = t^2 + (x-y)^2, b = 4xy: positive at every order.  Its mass sits at
c ~ eps = a/b; with c = eps (e^w - 1), [0, 1/2] reads ((1 - e^-w)(1 - c))^(nu-1/2)
e^-w dw / (a b^(nu+1/2)), w <= ln(1 + 1/2eps), taken by 40 Gauss-Jacobi nodes for
w^(nu-1/2) up to w = 10 and 16 Legendre ones on to at most w = 40 (the rest is
below e^-40); [1/2, 1] takes 20 nodes for (1 - c)^(nu-1/2).  Where b <= 2^-60 a,
the y = 0 limit (2nu+1) 4^nu B(nu+1/2, nu+1/2) t/pi a^(-nu-3/2) is exact.
maximal.uchiyama_kernel alone still subordinates T over 352 fixed nodes, P_t =
pi^(-1/2) int_0^inf exp(-u) u^(-1/2) T_{t^2/4u} du, skipping each term whose
bound from I_nu(u) <= (u/2)^nu e^u / Gamma(nu + 1) (DLMF 10.32.2) is below
2^-60/352 of the term at the node nearest its peak (so below 2^-60 of P in all).

Series kernels are truncated with certified geometric tail bounds owned by the
basis object, taken at the smallest x y of each call (phi rows) or anywhere
(psi and chi rows), so every value carries an absolute-accuracy guarantee;
when a requested time is too small for the available zero table a
NumericsError is raised rather than returning an uncertified number.

`check_sharp_estimate` measures two-sided comparability (or a one-sided bound)
against the closed-form comparand of each estimate on a deterministic
(t, x, y) box and reports min/max ratios together with their drift under a
twofold grid refinement.  The refined grid is a superset of the base grid, so
the extremes can only widen; an estimate passes when the ratios are finite and
widen by less than ten percent.  Each estimate is one row of `_LEMMAS`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .basis import EigenBasis, scale_rows
from .errors import NumericsError
from .quadrature import Measure, MEASURE_MU, _gauss_jacobi, _gl_on_panels
from . import specfun
from .specfun import Order

GAUSS_DECAY_C = 0.2   # exponent constant used by every Gaussian comparand
_DRIFT_TOL = 0.10     # widest ratio drift under refinement that passes


def _broadcast(*arrays):
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))


# ---------------------------------------------------------------------------
# series kernels on (0, 1)


# semigroup -> multiplier of the n-th term, (lam_n, t) -> weight
SEMIGROUPS = {
    "poisson": lambda lam, t: np.exp(-t * lam),
    "heat": lambda lam, t: np.exp(-t * lam**2),
}

# kernel name -> (semigroup, basis tail count, x rows, y rows); each is a method
SERIES_KERNELS = {
    "poisson_mu": ("poisson", "poisson_terms_needed", "phi", "phi"),
    "poisson_lebesgue": ("poisson", "poisson_terms_needed", "psi", "psi"),
    "heat_mu": ("heat", "heat_terms_needed", "phi", "phi"),
    "heat_lebesgue": ("heat", "heat_terms_needed", "psi", "psi"),
    "delta_poisson": ("poisson", "delta_terms_needed", "chi", "psi"),
}

# row builders, looked up at call time so that wrapped basis methods are seen
_ROWS = {"phi": lambda k: k.basis.phi_matrix,
         "psi": lambda k: k.basis.psi_matrix,
         "chi": lambda k: k._chi_matrix}


class UnitIntervalKernels:
    """Certified evaluators for the series kernels on (0, 1).

    Each entry of SERIES_KERNELS is a method; pointwise calls broadcast x
    against y elementwise, matrix calls return the full outer table
    (len(x), len(y)).  `series_tol` is an absolute accuracy target per value.
    """

    def __init__(self, basis: EigenBasis, series_tol: float = 1e-10):
        self.basis = basis
        self.series_tol = float(series_tol)
        self._tables = {}   # (tag, shape, bytes of x) -> raw rows, LRU first

    @property
    def nu(self) -> float:
        return self.basis.nu

    @property
    def lam1(self) -> float:
        return float(self.basis.table.zeros[0])

    # -- truncation ----------------------------------------------------------

    def _n(self, terms_needed, t: float, tol: float | None = None) -> int:
        n = terms_needed(t, self.series_tol if tol is None else tol)
        return min(len(self.basis), max(n, 1) + 8)

    def poisson_floor(self) -> float:
        """Smallest time the zero table certifies for Poisson-type series at
        series_tol."""
        return self.basis.min_poisson_time(self.series_tol)

    def heat_floor(self) -> float:
        return self.basis.min_heat_time(self.series_tol)

    def derivative_floor(self, x_min: float, y_min: float) -> float:
        """Smallest time certified for both derivative series when the
        evaluation grid stays inside [x_min, 1) x [y_min, 1).  The derivative
        kernels tighten series_tol by grid-dependent factors, so their floor
        sits above the plain Poisson one."""
        tol = self.series_tol
        tol_dx = tol * min(1.0, (x_min * y_min) ** (self.nu + 0.5))
        tol_dy = tol * min(1.0, y_min / (self.nu + 0.5))

        def both(t: float, _tol):
            self.basis.delta_terms_needed(t, tol_dx)
            return self.basis.poisson_terms_needed(t, tol_dy)

        t = self.basis._min_time(both, tol, 1e-8)
        return t if t == 1e-8 else 1.02 * t

    # -- evaluation cores ----------------------------------------------------

    def _chi_matrix(self, x, n: int, out=None) -> np.ndarray:
        """Rows c_n lam_n sqrt(x) J_{nu+1}(lam_n x): the image of psi_n under
        the first-order factor  -d/dx + (nu + 1/2)/x; built in out if given."""
        x = np.ravel(np.asarray(x, dtype=float))
        lam = self.basis.table.zeros[:n]
        rows = np.multiply.outer(lam, x, out=out)
        specfun.bessel_j(Order(self.nu + 1.0), rows, out=rows)
        return scale_rows(rows, self.basis.norm_constants[:n] * lam, np.sqrt(x))

    def _rows(self, tag: str, x: np.ndarray, n: int) -> np.ndarray:
        """Rows 1..n of `tag` at x: table[:n], a read-only prefix of one of the
        last two tables (LRU) kept by tag and exact points, rebuilt at n if
        shorter, in the memory of the table it replaces or evicts if that is
        large enough and no view of it is held outside (getrefcount(store) is
        2).  Every Bessel sum stops per element, so a prefix equals a fresh
        build at n bit for bit."""
        key = (tag, x.shape, x.tobytes())
        table = self._tables.pop(key, None)
        if table is None or len(table) < n:
            if table is None and len(self._tables) == 2:
                table = self._tables.pop(next(iter(self._tables)))
            # drop our view first, so that getrefcount sees only views held elsewhere
            store, table, size = getattr(table, "base", None), None, n * x.size
            if store is None or store.size < size or sys.getrefcount(store) > 2:
                store = None   # free an outgrown store before allocating its replacement
                store = np.empty(size)
            table = _ROWS[tag](self)(x, n, out=store[:size].reshape(n, x.size))
            table.setflags(write=False)
        self._tables[key] = table
        return table[:n]

    @staticmethod
    def _rows_at(rows_fn, x, n, weights=None):
        """Rows (times weights, if any) at the points of x (raveled), once per
        distinct point (J depends on each argument alone) from `_rows`,
        gathered by `take` in C order, so einsum sums as on fresh rows."""
        pts, inv = np.unique(x, return_inverse=True)
        rows = rows_fn(pts, n) if weights is None else rows_fn(pts, n) * weights[:, None]
        return rows.take(inv.ravel(), axis=1)

    def _eval(self, weight_fn, rows_fn_x, rows_fn_y, n, x, y, matrix):
        """Outer table, or x against y broadcast; rows come from `_rows`."""
        w = weight_fn(self.basis.table.zeros[:n])
        if matrix:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            y = np.atleast_1d(np.asarray(y, dtype=float))
            return (rows_fn_x(x, n) * w[:, None]).T @ rows_fn_y(y, n)
        xb, yb = _broadcast(x, y)
        shape = xb.shape
        out = np.einsum("np,np->p", self._rows_at(rows_fn_x, xb, n, w),
                        self._rows_at(rows_fn_y, yb, n))
        return float(out[0]) if shape == () else out.reshape(shape)

    # -- public kernels (the SERIES_KERNELS methods are set below) -----------

    def dy_poisson_lebesgue(self, t: float, x, y, matrix: bool = False, tol=None):
        """y-derivative of the flat Poisson kernel,
        (nu + 1/2)/y P_t(x, y) - [delta series with the roles of x, y swapped]."""
        tol = self.series_tol if tol is None else tol
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        scale = min(1.0, float(np.min(ya)) / (self.nu + 0.5))
        n = max(self._n(self.basis.delta_terms_needed, t, tol),
                self._n(partial(self.basis.poisson_terms_needed, xy=1.0), t, tol * scale))
        p, d = (self._eval(lambda lam: SEMIGROUPS["poisson"](lam, t),
                           partial(self._rows, "psi"), partial(self._rows, y_rows),
                           n, x, y, matrix) for y_rows in ("psi", "chi"))
        out = (self.nu + 0.5) * p / (ya[None, :] if matrix else _broadcast(x, y)[1]) - d
        return float(out) if np.ndim(out) == 0 else out


def _min_xy(x, y, matrix: bool) -> float:
    """Smallest x y over the pairs a call evaluates (an outer table or x against y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(x.min(initial=np.inf) * y.min(initial=np.inf) if matrix
                 else (x * y).min(initial=np.inf))


def _series_method(name: str):
    semigroup, terms, x_rows, y_rows = SERIES_KERNELS[name]

    def kernel(self, t: float, x, y, matrix: bool = False, tol=None):
        count = getattr(self.basis, terms)
        if x_rows != "chi":   # phi rows are bounded at the call's points, psi rows anywhere
            count = partial(count, xy=1.0 if x_rows == "psi" else _min_xy(x, y, matrix))
        n = self._n(count, t, tol)
        return self._eval(lambda lam: SEMIGROUPS[semigroup](lam, t),
                          partial(self._rows, x_rows), partial(self._rows, y_rows),
                          n, x, y, matrix)
    kernel.__name__ = name
    kernel.__qualname__ = f"UnitIntervalKernels.{name}"
    return kernel


for _name in SERIES_KERNELS:
    setattr(UnitIntervalKernels, _name, _series_method(_name))


# ---------------------------------------------------------------------------
# closed-form kernels on the half-line

_IVE_SWITCH = 30.0   # h_nu route up to the smallest i_switch, scaled route above

# route (h_nu?) -> its one I evaluation at u for an order: I_nu(u)/u^nu by the
# series, or exp(-u) I_nu(u) by the asymptotic form unless i_switch > 30 (nu > 15)
_ROUTE_I = {True: lambda order, u: specfun._over_series(order.nu, u, 1.0),
            False: lambda order, u: specfun._ive_asymptotic(order.nu, u)
            if order.i_switch == _IVE_SWITCH else specfun.bessel_i_scaled(order, u)}


def _halfline(op: str, nu: float, t, x, y, kernel):
    """kernel((Order(nu), Order(nu + 1)), t, (x, y, xy, x^2 + y^2, (x - y)^2,
    (xy)^-nu)) at checked t, x, y (NaN fails) in their broadcast shape; an
    infinite t, x or y gets the kernels' limit there, 0."""
    orders = Order(nu), Order(nu + 1.0)
    tb, xb, yb = _broadcast(t, x, y)
    t, x, y = (np.ravel(a) for a in (tb, xb, yb))
    if not (np.all(t > 0) and np.all(x >= 0) and np.all(y >= 0)):
        raise ValueError(f"{op} needs t > 0 and x, y >= 0, none of them NaN")
    out = np.zeros(t.shape)
    keep = np.isfinite(t) & np.isfinite(x) & np.isfinite(y)
    t, x, y = t[keep], x[keep], y[keep]
    xy = x * y
    with np.errstate(divide="ignore"):   # (xy)^-nu at xy = 0, read only where xy > 0
        out[keep] = kernel(orders, t, (x, y, xy, x**2 + y**2, (x - y) ** 2, xy ** (-nu)))
    return float(out[0]) if tb.shape == () else out.reshape(tb.shape)


def _heat(orders, s, points, dy: bool, keep=True) -> np.ndarray:
    """Heat kernel, or with dy its y-derivative, at heat times s (one per
    point, or a row per subordination node) over the points.  Each route
    forms its Gaussian factor first and evaluates I only where that factor
    is nonzero and `keep` (broadcast like s) holds, or everywhere if some s
    is at most s_safe; the kernel is exactly 0 at every other element."""
    x, y, xy, sq, d2, xyn = points
    nu = orders[0].nu
    h = xy / (2.0 * s) <= _IVE_SWITCH
    out = np.zeros(h.shape)
    # exp underflows to 0 below -746, which zeroes every finite prefactor; both
    # stay below 1e300 above s_safe (as xy > 60 s on the scaled route), and
    # below it every element is tried, so an overflowed one times 0 is NaN.
    # u and the exponent are made again on the live elements, so no full-size
    # array of either is held while I is evaluated
    s_safe = 0.5 * 10.0 ** (-300.0 / (1.0 + nu)) if nu >= 0 else 1e-146
    live = np.flatnonzero(((np.where(h, sq, d2) / (-4.0 * s) > -746.0) & keep).ravel() |
                          (s.min(initial=np.inf) <= s_safe))
    s, h = np.ravel(s), np.ravel(h)
    for h_route in (True, False):
        idx = live[h[live] == h_route]
        ts, col = s[idx], idx % xy.size
        g = ((2.0 * ts) ** (-1.0 - nu) if h_route else xyn[col] / (2.0 * ts)) * \
            np.exp((sq if h_route else d2)[col] / (-4.0 * ts))
        nz = g != 0
        idx, ts, col, g = idx[nz], ts[nz], col[nz], g[nz]
        if idx.size:
            us = xy[col] / (2.0 * ts)
            val = _ROUTE_I[h_route](orders[0], us)
            if dy:   # on the h_nu route I_{nu+1} enters as u h_{nu+1}(u)
                val = (x[col] / (2.0 * ts)) * (us if h_route else 1.0) * \
                    _ROUTE_I[h_route](orders[1], us) - (y[col] / (2.0 * ts)) * val
            out.flat[idx] = g * val
    return out


def bessel_heat(nu: float, t, x, y):
    """Heat kernel of the Bessel operator on (0, inf) against x^(2nu+1) dx,
    on the two algebraically identical routes of the module docstring; the
    scaled one stays finite where the unscaled I_nu would overflow."""
    return _halfline("bessel_heat", nu, t, x, y, partial(_heat, dy=False))


def dy_bessel_heat(nu: float, t, x, y):
    """Derivative of the half-line heat kernel in its second argument."""
    return _halfline("dy_bessel_heat", nu, t, x, y, partial(_heat, dy=True))


_SUB_V, _SUB_W = _gl_on_panels(np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0]),
                               (64, 64, 64, 64, 64, 32))
_SUB_WEIGHT = _SUB_W * np.exp(-_SUB_V * _SUB_V)
_SUB_INV_4V2 = 1.0 / (4.0 * _SUB_V * _SUB_V)
_SUB_BLOCK = 16384   # max heat values per node block (nodes x points)
_SUB_CUT = math.log(2.0**-60 / len(_SUB_V))   # skipped term / reference term


def _subordinate(orders, t, points) -> np.ndarray:
    t2, nu = t * t, orders[0].nu
    if not np.all(_SUB_INV_4V2[-1] * t2 > 0):   # the last node's heat time
        raise ValueError("bessel_poisson needs t^2/576 > 0, t above about 5e-161")
    q = points[4] / t2   # (x - y)^2 / t^2
    v = np.sqrt((1.0 + nu) / (1.0 + q))   # where the terms' bound peaks
    j = np.rint(np.interp(v, _SUB_V, np.arange(len(_SUB_V)))).astype(int)   # nearest node
    # term (i, p) has log bound top[i] - v_i^2 q[p] - (1 + nu) log t^2 - nu log 2
    # - lgamma(1 + nu); it is kept unless that is below log(reference) + _SUB_CUT
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = np.log(_SUB_WEIGHT[j] * _heat(orders, _SUB_INV_4V2[j] * t2, points, False)) \
            + _SUB_CUT + (1.0 + nu) * np.log(t2) + nu * math.log(2.0) + math.lgamma(1.0 + nu)
    top = np.log(_SUB_WEIGHT) - (1.0 + nu) * np.log(2.0 * _SUB_INV_4V2)
    step = max(1, _SUB_BLOCK // max(t.size, 1))
    acc = np.zeros(t.size)
    for i in range(0, len(_SUB_V), step):   # a NaN floor (no finite reference) keeps all
        keep = ~(top[i:i + step, None] - _SUB_V[i:i + step, None] ** 2 * q < floor)
        s = _SUB_INV_4V2[i:i + step, None] * t2
        acc += (_SUB_WEIGHT[i:i + step, None] * _heat(orders, s, points, False, keep)).sum(axis=0)
    return acc * (2.0 / math.sqrt(math.pi))


def _subordinated_poisson(nu: float, t, x, y):
    """P by the 352-node subordination, wrong off the diagonal at small t."""
    return _halfline("bessel_poisson", nu, t, x, y, _subordinate)


_MS_HEAD, _MS_SPAN = 10.0, 40.0   # w's Jacobi panel ends at 10, its Legendre one by 40
_MS_BLOCK = 8192   # max (points x nodes) elements per block: under glibc's mmap threshold


def _muckenhoupt_stein(orders, t, points) -> np.ndarray:
    _, _, xy, _, d2, _ = points
    nu = orders[0].nu
    beta, p = nu - 0.5, nu + 0.5
    (s0, w0), (s1, w1), (s2, w2) = (_gauss_jacobi(40, 0.0, beta), _gauss_jacobi(16, 0.0, 0.0),
                                    _gauss_jacobi(20, beta, 0.0))
    c2 = 0.75 + 0.25 * s2   # [1/2, 1], with c^(nu - 1/2) 4^(-nu - 1/2) in its weights
    w2 = w2 * c2**beta * 4.0**-p
    a, b = t * t + d2, 4.0 * xy
    out = np.empty(t.shape)   # the integral times a/t (t/a = 1/(t + d2/t) if t^2 underflows)
    edge = b <= a * 2.0**-60
    step = _MS_BLOCK // len(s0)
    with np.errstate(divide="ignore", over="ignore"):   # a = 0: x = y and t^2 underflows
        out[edge] = math.exp(2.0 * math.lgamma(p) - math.lgamma(2.0 * p)) * a[edge] ** -p
        live = np.flatnonzero(~edge)
        for k in (live[i:i + step] for i in range(0, live.size, step)):
            ak, bk = a[k, None], b[k, None]
            span = np.minimum(np.log1p(0.5 * bk / ak), _MS_SPAN)
            head = np.minimum(span, _MS_HEAD)
            eps = ak / bk
            w = 0.5 * head * (1.0 + s0)
            lower = ((-np.expm1(-w) / w * (1.0 - eps * np.expm1(w))) ** beta * np.exp(-w)) @ w0
            w = head + 0.5 * (span - head) * (1.0 + s1)   # of width 0 where span <= 10
            f = (-np.expm1(-w) * (1.0 - eps * np.expm1(w))) ** beta * np.exp(-w)
            lower += (2.0 / _MS_HEAD) ** p * 0.5 * (span - head)[:, 0] * (f @ w1)
            u = ak + bk * c2
            out[k] = (0.5 * head[:, 0] / b[k]) ** p * lower + (ak / u * u**-p) @ w2
    return out * ((2.0 * nu + 1.0) * 4.0**nu / math.pi / (t + d2 / t))


def bessel_poisson(nu: float, t, x, y):
    """Poisson kernel of the Bessel operator on (0, inf) against x^(2nu+1) dx,
    by the module docstring's Gauss-Jacobi rules: positive at every order, and
    within 1e-13 relative of mpmath on nu in (-1/2, 8], t in [1e-7, 10] and
    x, y in (0, 8].  t, x and y broadcast, so every point may carry its own time."""
    return _halfline("bessel_poisson", nu, t, x, y, _muckenhoupt_stein)


# semigroup -> half-line kernel (nu, t, x, y); the lambdas look the module
# functions up at call time, so a wrapped bessel_heat is the one called
HALFLINE_KERNELS = {
    "heat": lambda nu, t, x, y: bessel_heat(nu, t, x, y),
    "poisson": lambda nu, t, x, y: bessel_poisson(nu, t, x, y),
}


# ---------------------------------------------------------------------------
# comparands for the sharp estimates


def comparand_poisson_mu(nu: float, lam1: float, t, x, y):
    t, x, y = _broadcast(t, x, y)
    small = (t**2 + x**2 + y**2) ** (-nu - 0.5) * \
        ((1 - x) * (1 - y) / (t**2 + (1 - x) ** 2 + (1 - y) ** 2)) * \
        t / (t**2 + (x - y) ** 2)
    large = (1 - x) * (1 - y) * np.exp(-t * lam1)
    return np.where(t <= 1.0, small, large)


def comparand_poisson_lebesgue(nu: float, lam1: float, t, x, y):
    t, x, y = _broadcast(t, x, y)
    small = (x * y / (t**2 + x**2 + y**2)) ** (nu + 0.5) * \
        ((1 - x) * (1 - y) / (t**2 + (1 - x) ** 2 + (1 - y) ** 2)) * \
        t / (t**2 + (x - y) ** 2)
    large = (x * y) ** (nu + 0.5) * (1 - x) * (1 - y) * np.exp(-t * lam1)
    return np.where(t <= 1.0, small, large)


def comparand_gradient(t, x, y):
    t, x, y = _broadcast(t, x, y)
    return 1.0 / (t**2 + (x - y) ** 2)


def comparand_heat_gauss(nu: float, t, x, y):
    """Gaussian upper comparand exp(-c(x-y)^2/t) / (sqrt(t) (t v xy)^(nu+1/2))
    for the weighted heat kernel on (0, 1), times in (0, 1); c = GAUSS_DECAY_C."""
    t, x, y = _broadcast(t, x, y)
    return np.exp(-GAUSS_DECAY_C * (x - y) ** 2 / t) / \
        (np.sqrt(t) * np.maximum(t, x * y) ** (nu + 0.5))


def comparand_heat_large(lam1: float, t, x, y):
    t, x, y = _broadcast(t, x, y)
    return (1 - x) * (1 - y) * np.exp(-t * lam1**2)


def comparand_bessel_heat_gauss(nu: float, t, x, y):
    """exp(-c(x-y)^2/t) / mu(B(x, sqrt(t))) on the half-line; c = GAUSS_DECAY_C."""
    t, x, y = _broadcast(t, x, y)
    r = np.sqrt(t)
    ball = Measure.of(MEASURE_MU, nu).interval(np.maximum(x - r, 0.0), x + r)
    return np.exp(-GAUSS_DECAY_C * (x - y) ** 2 / t) / ball


def comparand_dy_bessel_heat(nu: float, t, x, y):
    return comparand_bessel_heat_gauss(nu, t, x, y) / np.sqrt(t)


# ---------------------------------------------------------------------------
# estimate checking


def _json_float(v: float):
    return float(v) if math.isfinite(v) else None


@dataclass
class EstimateReport:
    lemma: str
    kind: str                 # "two_sided" or "upper"
    nu: float
    t_range: tuple
    n_samples: int
    n_masked: int
    ratio_min: float
    ratio_max: float
    refined_min: float
    refined_max: float
    drift_min: float
    drift_max: float
    passed: bool
    witness_min: dict = field(default_factory=dict)
    witness_max: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({k: _json_float(v) for k, v in out.items() if isinstance(v, float)})
        out["t_range"] = list(self.t_range)
        return out


def _refine_linear(a: np.ndarray) -> np.ndarray:
    mid = 0.5 * (a[:-1] + a[1:])
    return np.sort(np.concatenate([a, mid]))


def _refine_geometric(a: np.ndarray) -> np.ndarray:
    mid = np.sqrt(a[:-1] * a[1:])
    return np.sort(np.concatenate([a, mid]))


class _RatioScan:
    """Tracks extreme kernel/comparand ratios with their witnesses.

    Pairs whose comparand sits below a floor are skipped and counted: there
    the bound is numerically vacuous (both sides are under the accuracy of
    the kernel evaluation, or underflow outright)."""

    def __init__(self):
        self.rmin = math.inf
        self.rmax = -math.inf
        self.wmin = {}
        self.wmax = {}
        self.count = 0
        self.masked = 0

    def update(self, t, xg, yg, kernel, comparand, floor):
        valid = comparand > floor
        self.masked += int(np.sum(~valid))
        if not np.any(valid):
            return
        ratio = np.where(valid, kernel / np.where(valid, comparand, 1.0), np.nan)
        self.count += int(np.sum(valid))
        if not np.all(np.isfinite(ratio[valid])):
            bad = np.argwhere(valid & ~np.isfinite(ratio))[0]
            raise NumericsError(
                "sharp_estimate",
                f"non-finite ratio at t={t}, x={xg[bad[0]]}, y={yg[bad[1]]}")
        def witness(i, j):
            return {"t": float(t), "x": float(xg[i]), "y": float(yg[j]),
                    "kernel": float(kernel[i, j]),
                    "comparand": float(comparand[i, j]), "ratio": float(ratio[i, j])}
        i, j = np.unravel_index(np.nanargmin(ratio), ratio.shape)
        if ratio[i, j] < self.rmin:
            self.rmin, self.wmin = float(ratio[i, j]), witness(i, j)
        i, j = np.unravel_index(np.nanargmax(ratio), ratio.shape)
        if ratio[i, j] > self.rmax:
            self.rmax, self.wmax = float(ratio[i, j]), witness(i, j)


def _poisson_tol(kernels, t: float):
    """Beyond t = 1 the kernel decays like exp(-t lam_1): scale tol with it."""
    return None if t <= 1.0 else kernels.series_tol * math.exp(-t * kernels.lam1)


def _poisson_times(kernels, x_grid, n_t: int) -> np.ndarray:
    small = np.geomspace(max(kernels.poisson_floor(), 1e-4), 1.0, n_t)
    return np.concatenate([small, np.geomspace(1.25, 3.0, max(n_t // 2, 4))])


def _derivative_times(kernels, x_grid, n_t: int) -> np.ndarray:
    floor = kernels.derivative_floor(x_grid[0], x_grid[0])
    return np.geomspace(max(floor, 1e-4), 1.0, n_t)


class _Lemma(NamedTuple):
    two_sided: bool        # else an upper bound
    halfline: bool         # domain (0, inf), else (0, 1)
    times: Callable        # (kernels, x_grid, n_t) -> base time grid
    kernel: Callable       # (kernels, nu, t, x, y, tol) -> kernel table
    comparand: Callable    # (kernels, nu, t, x[:, None], y[None, :])
    tol: Callable = lambda kernels, t: None   # series tol at t; None: the default


# estimate id -> row; the callables name module functions and kernel methods,
# so those are looked up at call time
_LEMMAS = {
    "sharp-P": _Lemma(
        True, False, _poisson_times,
        lambda k, nu, t, x, y, tol: k.poisson_lebesgue(t, x, y, matrix=True, tol=tol),
        lambda k, nu, t, x, y: comparand_poisson_lebesgue(nu, k.lam1, t, x, y),
        _poisson_tol),
    "sharp-Pmu": _Lemma(
        True, False, _poisson_times,
        lambda k, nu, t, x, y, tol: k.poisson_mu(t, x, y, matrix=True, tol=tol),
        lambda k, nu, t, x, y: comparand_poisson_mu(nu, k.lam1, t, x, y),
        _poisson_tol),
    "grad-P": _Lemma(
        False, False, _derivative_times,
        lambda k, nu, t, x, y, tol: np.abs(k.delta_poisson(t, x, y, matrix=True)),
        lambda k, nu, t, x, y: comparand_gradient(t, x, y)),
    "dy-P": _Lemma(
        False, False, _derivative_times,
        lambda k, nu, t, x, y, tol: np.abs(k.dy_poisson_lebesgue(t, x, y, matrix=True)),
        lambda k, nu, t, x, y: comparand_gradient(t, x, y)),
    "heat-gauss": _Lemma(
        False, False, lambda k, x, n_t: np.geomspace(max(k.heat_floor(), 1e-6), 1.0, n_t),
        lambda k, nu, t, x, y, tol: k.heat_mu(t, x, y, matrix=True),
        lambda k, nu, t, x, y: comparand_heat_gauss(nu, t, x, y)),
    "heat-large-t": _Lemma(
        True, False, lambda k, x, n_t: np.geomspace(1.0, 6.0, n_t),
        lambda k, nu, t, x, y, tol: k.heat_mu(t, x, y, matrix=True, tol=tol),
        lambda k, nu, t, x, y: comparand_heat_large(k.lam1, t, x, y),
        lambda k, t: k.series_tol * math.exp(-t * k.lam1**2)),
    "bessel-heat-gauss": _Lemma(
        False, True, lambda k, x, n_t: np.geomspace(1e-4, 10.0, n_t),
        lambda k, nu, t, x, y, tol: bessel_heat(nu, t, x[:, None], y[None, :]),
        lambda k, nu, t, x, y: comparand_bessel_heat_gauss(nu, t, x, y)),
    "dy-bessel-heat": _Lemma(
        False, True, lambda k, x, n_t: np.geomspace(1e-4, 10.0, n_t),
        lambda k, nu, t, x, y, tol: np.abs(dy_bessel_heat(nu, t, x[:, None], y[None, :])),
        lambda k, nu, t, x, y: comparand_dy_bessel_heat(nu, t, x, y)),
}

LEMMA_IDS = tuple(_LEMMAS)


def _scan_lemma(row: _Lemma, kernels: UnitIntervalKernels | None, nu: float,
                t_grid: np.ndarray, x_grid: np.ndarray, y_grid: np.ndarray) -> _RatioScan:
    scan = _RatioScan()
    for t in t_grid:
        t = float(t)
        tol = row.tol(kernels, t)
        k = row.kernel(kernels, nu, t, x_grid, y_grid, tol)
        comp = row.comparand(kernels, nu, t, x_grid[:, None], y_grid[None, :])
        # closed-form kernels only need a guard against underflow
        floor = 1e-280 if row.halfline else \
            1e3 * (kernels.series_tol if tol is None else tol)
        scan.update(t, x_grid, y_grid, np.asarray(k, dtype=float), comp, floor)
    return scan


def check_sharp_estimate(lemma: str, kernels: UnitIntervalKernels | None = None,
                         nu: float | None = None, n_t: int = 14,
                         n_space: int = 18) -> EstimateReport:
    """Measure one sharp estimate over a deterministic (t, x, y) box.

    Unit-interval estimates need `kernels`; half-line ones only need `nu`.
    Two-sided estimates must have both ratio extremes finite and stable under
    refinement; one-sided (upper) estimates only constrain the maximum, but
    the minimum is still reported for the record.
    """
    if lemma not in _LEMMAS:
        raise ValueError(f"unknown estimate id {lemma!r}; choose from {LEMMA_IDS}")
    row = _LEMMAS[lemma]
    if row.halfline:
        if nu is None:
            raise ValueError("half-line estimates need nu")
        x_grid = np.geomspace(0.03, 7.5, n_space)
    else:
        if kernels is None:
            raise ValueError(f"estimate {lemma!r} needs a UnitIntervalKernels instance")
        nu = kernels.nu
        inner = np.linspace(0.03, 0.97, n_space)
        x_grid = np.sort(np.concatenate([[0.008], inner, [0.992]]))
    t_grid = row.times(kernels, x_grid, n_t)
    y_grid = x_grid.copy()

    base = _scan_lemma(row, kernels, nu, t_grid, x_grid, y_grid)
    fine = _scan_lemma(row, kernels, nu, _refine_geometric(t_grid),
                       _refine_linear(x_grid), _refine_linear(y_grid))

    # the refined grid is a superset, so extremes only widen
    drift_max = fine.rmax / base.rmax - 1.0 if base.rmax > 0 else math.inf
    drift_min = base.rmin / fine.rmin - 1.0 if fine.rmin > 0 else math.inf
    ok = math.isfinite(fine.rmax) and abs(drift_max) <= _DRIFT_TOL
    if row.two_sided:
        ok = ok and fine.rmin > 0 and abs(drift_min) <= _DRIFT_TOL
    return EstimateReport(
        lemma=lemma, kind="two_sided" if row.two_sided else "upper", nu=nu,
        t_range=(float(t_grid[0]), float(t_grid[-1])),
        n_samples=base.count + fine.count, n_masked=base.masked + fine.masked,
        ratio_min=base.rmin, ratio_max=base.rmax,
        refined_min=fine.rmin, refined_max=fine.rmax,
        drift_min=drift_min, drift_max=drift_max, passed=bool(ok),
        witness_min=base.wmin, witness_max=base.wmax)
