"""Bessel functions of real order nu > -1/2 and their positive zeros.

Everything here is hand-rolled on top of numpy so the evaluation strategy is
explicit and testable: the ascending power series on [0, x_switch] and the
large-argument (Hankel-type) asymptotic expansion with phase
x - (nu/2 + 1/4)*pi beyond it.  The switch point is max(12, 2|nu|) for J.
For I the series has no cancellation, so the switch sits higher, at
max(30, 2|nu|), which keeps the smoothed asymptotic remainder (~exp(-2x)
relative) below double precision.  At nu = 1/2 both expansions terminate and
reproduce the closed forms sqrt(2/(pi x)) sin x and (e^x - e^-x)/sqrt(2 pi x)
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, pi
import math

import numpy as np

from .errors import NumericsError

_SERIES_CAP = 220      # ample for x <= 36: terms decay factorially past k ~ x/2
_ASYMP_CAP = 40


@dataclass(frozen=True)
class Order:
    """Validated Bessel order; the toolkit requires nu > -1/2."""

    nu: float

    def __post_init__(self):
        if not np.isfinite(self.nu) or not self.nu > -0.5:
            raise ValueError(f"order must satisfy nu > -1/2, got {self.nu}")

    @property
    def j_switch(self) -> float:
        return max(12.0, 2.0 * abs(self.nu))

    @property
    def i_switch(self) -> float:
        return max(30.0, 2.0 * abs(self.nu))


def _as_f64(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr


# ---------------------------------------------------------------------------
# ascending series


def _jover_series(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) / x^nu by the ascending series; entire in x^2, no 0^nu issues."""
    q = 0.25 * x * x
    term = np.full_like(q, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
    out = term.copy()
    for k in range(1, _SERIES_CAP + 1):
        term = term * (-q) / (k * (nu + k))
        out += term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(out)), 1e-300):
            break
    return out


def _iover_series(nu: float, x: np.ndarray) -> np.ndarray:
    """I_nu(x) / x^nu by the ascending series (all terms positive)."""
    q = 0.25 * x * x
    term = np.full_like(q, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
    out = term.copy()
    for k in range(1, _SERIES_CAP + 1):
        term = term * q / (k * (nu + k))
        out += term
        if np.max(term) < 1e-18 * max(np.max(out), 1e-300):
            break
    return out


# ---------------------------------------------------------------------------
# large-argument expansions


def _hankel_pq(nu: float, x: np.ndarray):
    """Even/odd asymptotic sums P, Q with per-element stopping at the
    smallest term (the usual optimal truncation of a divergent series)."""
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
        if not active.any() or np.max(np.where(active, mag, 0.0)) < 1e-18:
            break
    return P, Q


def _j_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    P, Q = _hankel_pq(nu, x)
    chi = x - (0.5 * nu + 0.25) * pi
    return np.sqrt(2.0 / (pi * x)) * (np.cos(chi) * P - np.sin(chi) * Q)


def _ive_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_nu(x) for large x, with the smoothed subdominant exp(-2x)
    term (coefficient -sin(nu pi); exact at half-integer orders, vanishing at
    integer orders)."""
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


# ---------------------------------------------------------------------------
# public evaluators (scalar in, scalar out; arrays in, arrays out)


def _check_domain(x: np.ndarray, op: str, positive: bool = False):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{op}: argument must be finite")
    if positive:
        if np.any(x <= 0):
            raise ValueError(f"{op}: argument must be positive")
    elif np.any(x < 0):
        raise ValueError(f"{op}: argument must be nonnegative")


def besselj_over_xnu(order: Order, x) -> np.ndarray | float:
    """J_nu(x) / x^nu, finite down to x = 0 for every admissible order."""
    arr = _as_f64(x)
    _check_domain(arr, "besselj_over_xnu")
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.j_switch
    if small.any():
        out[small] = _jover_series(order.nu, flat[small])
    if (~small).any():
        xs = flat[~small]
        out[~small] = _j_asymptotic(order.nu, xs) / xs**order.nu
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def bessel_j(order: Order, x) -> np.ndarray | float:
    """Bessel J of the first kind, vectorized over x >= 0."""
    arr = _as_f64(x)
    _check_domain(arr, "bessel_j")
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.j_switch
    if small.any():
        xs = flat[small]
        with np.errstate(divide="ignore"):
            out[small] = _jover_series(order.nu, xs) * xs**order.nu
    if (~small).any():
        out[~small] = _j_asymptotic(order.nu, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def bessel_j_derivative(order: Order, x) -> np.ndarray | float:
    """J_nu'(x) via the recurrence (nu/x) J_nu - J_{nu+1}."""
    arr = _as_f64(x)
    _check_domain(arr, "bessel_j_derivative", positive=True)
    return (order.nu / arr) * bessel_j(order, arr) - bessel_j(Order(order.nu + 1.0), arr)


def bessel_i_scaled(order: Order, x) -> np.ndarray | float:
    """exp(-x) I_nu(x); never overflows and is what the heat kernels use."""
    arr = _as_f64(x)
    _check_domain(arr, "bessel_i_scaled")
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.i_switch
    if small.any():
        xs = flat[small]
        with np.errstate(divide="ignore"):
            out[small] = np.exp(-xs) * _iover_series(order.nu, xs) * xs**order.nu
    if (~small).any():
        out[~small] = _ive_asymptotic(order.nu, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def besseli_over_xnu(order: Order, x) -> np.ndarray | float:
    """I_nu(x) / x^nu; entire, positive.  Overflows (by design) past x ~ 700."""
    arr = _as_f64(x)
    _check_domain(arr, "besseli_over_xnu")
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= order.i_switch
    if small.any():
        out[small] = _iover_series(order.nu, flat[small])
    if (~small).any():
        xs = flat[~small]
        if np.any(xs > 700.0):
            raise NumericsError("besseli_over_xnu",
                                "argument beyond exp overflow range; use bessel_i_scaled")
        out[~small] = _ive_asymptotic(order.nu, xs) * np.exp(xs) / xs**order.nu
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def bessel_i(order: Order, x) -> np.ndarray | float:
    """Modified Bessel I; raises past the representable exp range."""
    arr = _as_f64(x)
    _check_domain(arr, "bessel_i")
    if np.any(arr > 700.0):
        raise NumericsError("bessel_i", "overflow: use bessel_i_scaled for x > 700")
    scaled = np.asarray(bessel_i_scaled(order, arr))
    out = scaled * np.exp(_as_f64(arr))
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# zeros


@dataclass(frozen=True)
class BesselZeroTable:
    """First `count` positive zeros of J_nu with their residuals |J_nu(zero)|."""

    order: Order
    zeros: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        self.zeros.setflags(write=False)
        self.residuals.setflags(write=False)
        if np.any(self.zeros <= 0):
            raise NumericsError("bessel_zeros", "nonpositive zero in table")
        gaps = np.diff(self.zeros)
        if len(gaps) and np.min(gaps) <= 1e-12:
            raise NumericsError("bessel_zeros", "zeros not strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def bessel_zeros(order: Order, count: int, zero_tol: float = 1e-12,
                 iter_cap: int = 100) -> BesselZeroTable:
    """Locate the first `count` positive zeros of J_nu.

    A sign scan with step pi/4 (well under the minimal zero spacing for
    nu > -1/2) brackets each zero near its McMahon location
    (k + nu/2 - 1/4) pi; bisection shrinks the bracket and a couple of
    safeguarded Newton steps polish it.  Residuals are checked against
    zero_tol and kept in the returned table.
    """
    if count < 1:
        raise ValueError("count must be positive")
    nu = order.nu
    step = pi / 4.0
    x_hi = (count + 0.5 * nu + 1.0) * pi + 2 * pi
    brackets_lo: list[float] = []
    brackets_hi: list[float] = []
    while len(brackets_lo) < count:
        grid = np.arange(0.3, x_hi, step)
        vals = np.asarray(bessel_j(order, grid))
        sgn = np.sign(vals)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        brackets_lo = list(grid[flips[:count]])
        brackets_hi = list(grid[flips[:count] + 1])
        if len(brackets_lo) < count:
            x_hi += 16 * pi
            if x_hi > (count + abs(nu)) * 40 * pi:
                raise NumericsError("bessel_zeros", "sign scan failed to bracket zeros")

    lo = np.array(brackets_lo)
    hi = np.array(brackets_hi)
    flo = np.asarray(bessel_j(order, lo))
    iters = 0
    for _ in range(60):
        iters += 1
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(bessel_j(order, mid))
        left = flo * fmid <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
        # stop at the floating-point width floor so the fallback midpoint is
        # fully converged even when the Newton polish below rejects its step
        if np.max((hi - lo) / np.maximum(lo, 1.0)) < 4e-16:
            break
    roots = 0.5 * (lo + hi)
    for _ in range(8):
        iters += 1
        f = np.asarray(bessel_j(order, roots))
        if np.max(np.abs(f)) < 0.1 * zero_tol:
            break
        df = np.asarray(bessel_j_derivative(order, roots))
        stepn = np.where(df != 0, f / np.where(df == 0, 1.0, df), 0.0)
        cand = roots - stepn
        ok = (cand > lo) & (cand < hi)
        roots = np.where(ok, cand, 0.5 * (lo + hi))
        if iters > iter_cap:
            raise NumericsError("bessel_zeros", f"iteration cap {iter_cap} exceeded")
    res = np.abs(np.asarray(bessel_j(order, roots)))
    if np.max(res) > zero_tol:
        raise NumericsError(
            "bessel_zeros",
            f"residual {np.max(res):.3e} above tolerance {zero_tol:.1e}")
    return BesselZeroTable(order=order, zeros=roots, residuals=res)
