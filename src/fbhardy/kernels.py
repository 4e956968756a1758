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
    h_nu(u) = I_nu(u)/u^nu,

and the Poisson kernel is produced from it by one-sided subordination,

    P_t(x, y) = pi^(-1/2) int_0^inf exp(-u) u^(-1/2) T_{t^2/4u}(x, y) du.

Series kernels are truncated with certified geometric tail bounds owned by the
basis object, so every value carries an absolute-accuracy guarantee; when a
requested time is too small for the available zero table a NumericsError is
raised rather than returning an uncertified number.

`check_sharp_estimate` measures two-sided comparability (or a one-sided bound)
against the closed-form comparand of each estimate on a deterministic
(t, x, y) box and reports min/max ratios together with their drift under a
twofold grid refinement.  The refined grid is a superset of the base grid, so
the extremes can only widen; an estimate passes when the ratios are finite and
widen by less than ten percent.  Each estimate is one row of `_LEMMAS`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .basis import EigenBasis
from .errors import NumericsError
from .quadrature import Measure, MEASURE_MU
from . import specfun
from .specfun import Order

GAUSS_DECAY_C = 0.2   # exponent constant used by every Gaussian comparand


def _broadcast(*arrays):
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))


# ---------------------------------------------------------------------------
# series kernels on (0, 1)


# semigroup -> multiplier of the n-th term, (lam_n, t) -> weight
SEMIGROUPS = {
    "poisson": lambda lam, t: np.exp(-t * lam),
    "heat": lambda lam, t: np.exp(-t * lam**2),
}

# kernel name -> (semigroup, basis tail count, x rows, y rows); each entry is
# a UnitIntervalKernels method
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
        self._tables = {}   # (tag, n, shape, bytes of x) -> raw rows, LRU first

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

    def poisson_floor(self, tol: float | None = None) -> float:
        """Smallest time the zero table certifies for Poisson-type series."""
        return self.basis.min_poisson_time(self.series_tol if tol is None else tol)

    def heat_floor(self, tol: float | None = None) -> float:
        return self.basis.min_heat_time(self.series_tol if tol is None else tol)

    def derivative_floor(self, x_min: float, y_min: float,
                         tol: float | None = None) -> float:
        """Smallest time certified for both derivative series when the
        evaluation grid stays inside [x_min, 1) x [y_min, 1).  The derivative
        kernels tighten the requested tolerance by grid-dependent factors, so
        their floor sits above the plain Poisson one."""
        tol = self.series_tol if tol is None else tol
        tol_dx = tol * min(1.0, (x_min * y_min) ** (self.nu + 0.5))
        tol_dy = tol * min(1.0, y_min / (self.nu + 0.5))

        def both(t: float, _tol):
            self.basis.delta_terms_needed(t, tol_dx)
            return self.basis.poisson_terms_needed(t, tol_dy)

        t = self.basis._min_time(both, tol, 1e-8)
        return t if t == 1e-8 else 1.02 * t

    # -- evaluation cores ----------------------------------------------------

    def _chi_matrix(self, x, n: int) -> np.ndarray:
        """Rows c_n lam_n sqrt(x) J_{nu+1}(lam_n x): the image of psi_n under
        the first-order factor  -d/dx + (nu + 1/2)/x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lam = self.basis.table.zeros[:n]
        up = Order(self.nu + 1.0)
        j1 = np.asarray(specfun.bessel_j(up, np.outer(lam, x)))
        return (self.basis.norm_constants[:n] * lam)[:, None] * np.sqrt(x)[None, :] * j1

    def _rows(self, tag: str, x: np.ndarray, n: int) -> np.ndarray:
        """Unweighted rows 1..n of system `tag` at x, reused exactly: the last
        two tables stay, read-only, keyed by tag, n and the exact points; a
        miss drops the least recently used one before building."""
        key = (tag, n, x.shape, x.tobytes())
        table = self._tables.pop(key, None)
        if table is None:
            if len(self._tables) == 2:
                del self._tables[next(iter(self._tables))]
            table = _ROWS[tag](self)(x, n)
            table.setflags(write=False)
        self._tables[key] = table
        return table

    @staticmethod
    def _rows_at(rows_fn, x, n, weights=1.0):
        """Rows times weights at the points of x (raveled), once per distinct
        point (J depends only on the set of its arguments) from `_rows`, and
        gathered by `take` in C order, so einsum sums as on fresh rows."""
        pts, inv = np.unique(x, return_inverse=True)
        rows = rows_fn(pts, n) * np.atleast_1d(weights)[:, None]
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
                self._n(self.basis.poisson_terms_needed, t, tol * scale))
        p, d = (self._eval(lambda lam: SEMIGROUPS["poisson"](lam, t),
                           partial(self._rows, "psi"), partial(self._rows, y_rows),
                           n, x, y, matrix) for y_rows in ("psi", "chi"))
        out = (self.nu + 0.5) * p / (ya[None, :] if matrix else _broadcast(x, y)[1]) - d
        return float(out) if np.ndim(out) == 0 else out


def _series_method(name: str):
    semigroup, terms, x_rows, y_rows = SERIES_KERNELS[name]

    def kernel(self, t: float, x, y, matrix: bool = False, tol=None):
        n = self._n(getattr(self.basis, terms), t, tol)
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

_IVE_SWITCH = 100.0   # h_nu route below, exponentially-scaled route above


def _halfline_heat(op: str, nu: float, t, x, y, dy: bool):
    """Shared body of bessel_heat and dy_bessel_heat: validation, u = xy/2t
    and the two routes.  Each route forms its Gaussian factor first and
    evaluates the Bessel functions only where that factor is nonzero; the
    kernel is exactly 0 everywhere else."""
    orders = Order(nu), Order(nu + 1.0)
    tb, xb, yb = _broadcast(t, x, y)
    t, x, y = (np.ravel(a) for a in (tb, xb, yb))
    if np.any(t <= 0) or np.any(x < 0) or np.any(y < 0):
        raise ValueError(f"{op} needs t > 0 and x, y >= 0")
    u = x * y / (2.0 * t)
    out = np.zeros(t.shape)
    small = u <= _IVE_SWITCH
    for h_route in (True, False):
        idx = np.flatnonzero(small == h_route)
        ts, xs, ys = t[idx], x[idx], y[idx]
        pre, arg = ((2.0 * ts) ** (-1.0 - nu), -(xs**2 + ys**2) / (4.0 * ts)) if h_route \
            else ((xs * ys) ** (-nu) / (2.0 * ts), -((xs - ys) ** 2) / (4.0 * ts))
        # exp underflows to 0 below -746, which zeroes every finite prefactor
        live = np.flatnonzero((arg > -746.0) | ~np.isfinite(pre))
        g = pre[live] * np.exp(arg[live])
        live, g = live[g != 0], g[g != 0]
        if not live.size:
            continue
        idx, ts, xs, ys, us = idx[live], ts[live], xs[live], ys[live], u[idx[live]]
        bessel = specfun.besseli_over_xnu if h_route else specfun.bessel_i_scaled
        val = np.asarray(bessel(orders[0], us))
        if dy:   # on the h_nu route I_{nu+1} enters as u h_{nu+1}(u)
            val = (xs / (2.0 * ts)) * (us if h_route else 1.0) * \
                np.asarray(bessel(orders[1], us)) - (ys / (2.0 * ts)) * val
        out[idx] = g * val
    return float(out[0]) if tb.shape == () else out.reshape(tb.shape)


def bessel_heat(nu: float, t, x, y):
    """Heat kernel of the Bessel operator on (0, inf) against x^(2nu+1) dx.

    Two algebraically identical routes are used: the h_nu form for moderate
    xy/2t, and an exponentially scaled form that stays finite when xy/2t is
    large and the unscaled I_nu would overflow.  I_nu is evaluated only
    where the Gaussian factor is nonzero."""
    return _halfline_heat("bessel_heat", nu, t, x, y, dy=False)


def dy_bessel_heat(nu: float, t, x, y):
    """Derivative of the half-line heat kernel in its second argument."""
    return _halfline_heat("dy_bessel_heat", nu, t, x, y, dy=True)


_SUBORD_PANELS = ((0.0, 0.5, 64), (0.5, 1.0, 64), (1.0, 2.0, 64),
                  (2.0, 4.0, 64), (4.0, 8.0, 64), (8.0, 12.0, 32))


def _subordination_nodes():
    nodes, weights = [], []
    for a, b, n in _SUBORD_PANELS:
        z, w = np.polynomial.legendre.leggauss(n)
        nodes.append(0.5 * (b - a) * z + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


_SUB_V, _SUB_W = _subordination_nodes()
_SUB_WEIGHT = _SUB_W * np.exp(-_SUB_V * _SUB_V)
_SUB_INV_4V2 = 1.0 / (4.0 * _SUB_V * _SUB_V)
_SUB_BLOCK = 8192   # max elements per bessel_heat call (nodes x points)


def bessel_poisson(nu: float, t, x, y):
    """Poisson kernel of the Bessel operator on (0, inf) by subordination.

    After the substitution u = v^2 the defining integral becomes
    2 pi^(-1/2) int_0^inf exp(-v^2) T_{t^2/4v^2}(x, y) dv; the integrand is
    smooth on each panel and dies like exp(-v^2), so fixed Gauss-Legendre
    panels out to v = 12 give near machine accuracy.

    t, x and y broadcast against each other, so every point may carry its
    own time.  Each bessel_heat call covers a block of nodes times all
    points, at most _SUB_BLOCK elements (a single node when the points alone
    exceed that), so no call holds more than max(_SUB_BLOCK, points) heat
    values at once."""
    tb, xb, yb = _broadcast(t, x, y)
    if np.any(tb <= 0):
        raise ValueError("bessel_poisson needs t > 0")
    t2, xf, yf = (np.ravel(a) for a in (tb * tb, xb, yb))
    step = max(1, _SUB_BLOCK // max(xf.size, 1))
    acc = np.zeros(xf.size)
    for i in range(0, len(_SUB_V), step):
        s = _SUB_INV_4V2[i:i + step, None] * t2
        acc += (_SUB_WEIGHT[i:i + step, None] * bessel_heat(nu, s, xf, yf)).sum(axis=0)
    acc *= 2.0 / math.sqrt(math.pi)
    return float(acc[0]) if xb.shape == () else acc.reshape(xb.shape)


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


def comparand_heat_gauss(nu: float, t, x, y, c: float = GAUSS_DECAY_C):
    """Gaussian upper comparand exp(-c(x-y)^2/t) / (sqrt(t) (t v xy)^(nu+1/2))
    for the weighted heat kernel on (0, 1), times in (0, 1)."""
    t, x, y = _broadcast(t, x, y)
    return np.exp(-c * (x - y) ** 2 / t) / \
        (np.sqrt(t) * np.maximum(t, x * y) ** (nu + 0.5))


def comparand_heat_large(lam1: float, t, x, y):
    t, x, y = _broadcast(t, x, y)
    return (1 - x) * (1 - y) * np.exp(-t * lam1**2)


def comparand_bessel_heat_gauss(nu: float, t, x, y, c: float = GAUSS_DECAY_C):
    """exp(-c(x-y)^2/t) / mu(B(x, sqrt(t))) on the half-line."""
    t, x, y = _broadcast(t, x, y)
    r = np.sqrt(t)
    ball = Measure.of(MEASURE_MU, nu).interval(np.maximum(x - r, 0.0), x + r)
    return np.exp(-c * (x - y) ** 2 / t) / ball


def comparand_dy_bessel_heat(nu: float, t, x, y, c: float = GAUSS_DECAY_C):
    return comparand_bessel_heat_gauss(nu, t, x, y, c) / np.sqrt(t)


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
        return {
            "lemma": self.lemma, "kind": self.kind, "nu": self.nu,
            "t_range": list(self.t_range), "n_samples": self.n_samples,
            "n_masked": self.n_masked,
            "ratio_min": _json_float(self.ratio_min),
            "ratio_max": _json_float(self.ratio_max),
            "refined_min": _json_float(self.refined_min),
            "refined_max": _json_float(self.refined_max),
            "drift_min": _json_float(self.drift_min),
            "drift_max": _json_float(self.drift_max),
            "passed": self.passed,
            "witness_min": self.witness_min, "witness_max": self.witness_max,
        }


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
                         n_space: int = 18, drift_tol: float = 0.10) -> EstimateReport:
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
    ok = math.isfinite(fine.rmax) and abs(drift_max) <= drift_tol
    if row.two_sided:
        ok = ok and fine.rmin > 0 and abs(drift_min) <= drift_tol
    return EstimateReport(
        lemma=lemma, kind="two_sided" if row.two_sided else "upper", nu=nu,
        t_range=(float(t_grid[0]), float(t_grid[-1])),
        n_samples=base.count + fine.count, n_masked=base.masked + fine.masked,
        ratio_min=base.rmin, ratio_max=base.rmax,
        refined_min=fine.rmin, refined_max=fine.rmax,
        drift_min=drift_min, drift_max=drift_max, passed=bool(ok),
        witness_min=base.wmin, witness_max=base.wmax)
