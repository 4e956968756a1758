"""Bessel functions of real order nu > -1/2 and their positive zeros.

Everything here is hand-rolled on top of numpy so the evaluation strategy is
explicit and testable: the ascending power series on [0, x_switch] and the
large-argument (Hankel-type) asymptotic expansion with phase
x - (nu/2 + 1/4)*pi beyond it.  The switch point is max(12, 2|nu|) for J.
For I the series has no cancellation, so the switch sits higher, at
max(30, 2|nu|); there the subdominant term sin(nu pi) exp(-2x) of exp(-x) I_nu
is below 2^-86 relative, and the asymptotic form leaves it out.  At nu = 1/2
both expansions terminate: J is sqrt(2/(pi x)) sin x exactly (it skips the P
and Q sums, P = 1 and Q = 0, and takes the cosine term alone), and exp(-x) I
is 1/sqrt(2 pi x).

The I sums stop per element (at the smallest term, or at the first term
below 1e-18 of the element's own sum), so a value does not depend on the
rest of the call.  The J sums keep one stopping index for the whole array
(the series: found from the largest argument and a running bound; the
asymptotic form: the first term at which every element is past its smallest
term or below 1e-18) and add a_k / x**k in order of k, skipping only terms
too small to change a rounded sum, so J and the zero tables keep their bits:
at nu = 1 the small-time weighted heat ratios are J rounding noise times
norm constants of ~1e6 (ROADMAP item 2), and recorded results reproduce
only with the same bits.  An element's smallest and first tiny asymptotic
terms are read from two per-order tables of the gaps between the sorted
thresholds, one search per element; elements within 1e-12 of a threshold are
compared term by term.  Elements are sorted by their last term in blocks of
_CHUNK (a stable sort of the 8-bit key top - last), so term k of a sum
touches one contiguous prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, pi
import math

import numpy as np

from .errors import NumericsError

_SERIES_CAP = 220      # ample for x <= 36: terms decay factorially past k ~ x/2
_ASYMP_CAP = 40
_CHUNK = 1 << 14       # elements per sorted block of the truncated sums


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


# ---------------------------------------------------------------------------
# ascending series


def _jover_series(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x) / x^nu by the ascending series; entire in x^2, no 0^nu issues.

    It stops at the first k with max|term_k| < 1e-18 max|out|.  |term_k| is
    |term_{k-1}| q / (k (nu + k)) rounded, and rounding is monotone, so that
    max is tk = |term_k| at argmax(q).  The sum B of t_0..t_k bounds |out| up
    to 2 * _SERIES_CAP roundings of 2^-53, well inside a margin of 1e-12, so
    max|out| is reduced only once tk < 1e-18 B (1 + 1e-12): the stop index,
    and every bit of J, stay those of the test on max|out| at every k."""
    q = 0.25 * x * x
    term = np.full_like(q, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
    out = term.copy()
    top = int(np.argmax(q))
    bound = abs(term[top])
    for k in range(1, _SERIES_CAP + 1):
        term = term * (-q) / (k * (nu + k))
        out += term
        tk = abs(term[top])
        bound += tk
        if tk < 1e-18 * max(bound * (1.0 + 1e-12), 1e-300) and \
                tk < 1e-18 * max(np.max(np.abs(out)), 1e-300):
            break
    return out


def _iover_series(nu: float, x: np.ndarray) -> np.ndarray:
    """I_nu(x) / x^nu by the ascending series (all terms positive).  The
    terms needed grow with x, so in each block sorted by x the live
    elements are a prefix, cut (every fourth term) after the last one not
    yet converged."""
    q = 0.25 * x * x
    out = np.empty_like(q)
    for lo in range(0, q.size, _CHUNK):
        order = lo + np.argsort(-q[lo:lo + _CHUNK])
        qs = q[order]
        term = np.full_like(qs, math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0)))
        acc, n = term.copy(), qs.size
        for k in range(1, _SERIES_CAP + 1):
            t, s = term[:n], acc[:n]
            np.multiply(t, qs[:n], out=t)
            t /= k * (nu + k)
            s += t
            if k % 4:   # terms past a stop are below 1e-18 of the sum: they round away
                continue
            live = np.flatnonzero(t >= 1e-18 * s)
            if not live.size:
                break
            n = int(live[-1]) + 1
        out[order] = acc
    return out


# ---------------------------------------------------------------------------
# large-argument expansions


@lru_cache(maxsize=64)
def _asymptotic_table(nu: float):
    """Coefficients a_1..a_K of the Hankel-type sums (K stops at _ASYMP_CAP
    or before the first vanishing a_k), the J and I term lists for
    _power_sums, stops(x) and the absorb thresholds; t_k = a_k / x^k.
    stops gives per element the last term before |t_k| stops decreasing
    (x <= |a_k/a_{k-1}|) and the first below 1e-18 (x > (1e18 |a_k|)^(1/k);
    K + 1 if none), read from its gap between thresholds, and within 1e-12
    of one from the loop's own comparisons.  absorb: past floor, |t_2| <= 1/160
    and 80 |t_3| <= |t_1| keep |P| > 3/4, |Q| > 3/4 |t_1|; once x > absorb[k-1]
    the J terms after k are below 2^-56 min(1, |t_1|), and a float S plus
    less than 2^-54 |S| rounds to S."""
    mu4, c, a = 4.0 * nu * nu, 1.0, []
    for k in range(1, _ASYMP_CAP + 1):
        c *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k)
        if c == 0.0:
            break
        a.append(c)
    K, k = len(a), np.arange(1, len(a) + 1)
    A = np.abs(np.array(a + [0.0] * 3))
    ak, b = A[:K], 2.0**56 * A[1:K]
    r, s = ak[1:] / ak[:-1], (1e18 * ak) ** (1.0 / k)
    rise, tiny = np.maximum.accumulate(r), np.minimum.accumulate(s)
    ties = np.sort(np.concatenate([[-np.inf, np.inf], r, s]))
    # rise and tiny take their values from the ties, so the counts below are
    # the same across each gap between neighbouring ties
    stop_at = np.minimum(1 + np.searchsorted(rise, ties, side="right"), K).astype(np.int8)
    small_at = (1 + np.searchsorted(-tiny, -ties, side="left")).astype(np.int8)

    def stops(x):
        i = np.searchsorted(ties, x) - 1   # ties[i] < x <= ties[i + 1]
        stop, small = stop_at[i], small_at[i]
        near = np.flatnonzero(np.minimum(x - ties[i], ties[i + 1] - x) <= 1e-12 * x)
        live, prev = np.ones(near.size, dtype=bool), np.inf
        small[near] = K + 1
        for j, cj in enumerate(a if near.size else (), start=1):
            mag = np.abs(cj / x[near] ** j)
            live &= mag < prev
            stop[near[live]], prev = j, mag
            small[near[live & (mag < 1e-18) & (small[near] > K)]] = j
        return stop, small
    absorb = np.maximum(b ** (1.0 / k[1:]), (b / A[0]) ** (1.0 / k[:-1]))
    add, sub = np.add, np.subtract   # J: P takes even k, Q odd, sign (-1)^(k // 2)
    return (K, tuple((c, j % 2, (add, add, sub, sub)[j % 4]) for j, c in enumerate(a, 1)),
            tuple((c, 0, sub if j % 2 else add) for j, c in enumerate(a, 1)),
            stops, np.minimum.accumulate(absorb),
            math.sqrt(max(160.0 * A[1], 80.0 * A[2] / A[0])) if K else math.inf)


def _power_sums(x: np.ndarray, lasts, init, terms) -> np.ndarray:
    """Row i: init[i] plus, per element, the terms k = 1..last in order of k,
    lasts holding each _CHUNK block's last terms; terms[k-1] = (c, i, op)
    applies op(row i, c / x**k), op = np.add or np.subtract.  A block is
    sorted only if its last terms differ."""
    out = np.repeat(np.asarray(init, dtype=float)[:, None], x.size, axis=1)
    for lo, blk in zip(range(0, x.size, _CHUNK), lasts):
        top = int(blk.max())
        if blk.min() == top:
            idx, live = slice(lo, lo + blk.size), [blk.size] * top
        else:
            key = (top - blk).astype(np.uint8)
            order = np.argsort(key, kind="stable")
            idx = lo + order
            live = np.searchsorted(key[order], np.arange(top - 1, -1, -1), side="right").tolist()
        xs, acc = x[idx], out[:, idx]
        for k, n in enumerate(live, start=1):
            c, i, op = terms[k - 1]
            t = xs[:n] ** k
            np.divide(c, t, out=t)
            op(acc[i, :n], t, out=acc[i, :n])
        out[:, idx] = acc
    return out


def _hankel_pq(nu: float, x: np.ndarray):
    """Even/odd asymptotic sums P, Q, each element up to its smallest term
    (the usual optimal truncation of a divergent series) and the whole
    array up to the first term where every element is past that or below
    1e-18.  Terms that rounding would absorb into P and Q are skipped."""
    K, terms, _, stops, absorb, floor = _asymptotic_table(nu)
    blocks = np.split(x, np.arange(_CHUNK, x.size, _CHUNK))
    ends = [(stop, np.max(np.minimum(stop + 1, small), initial=1))
            for stop, small in map(stops, blocks)]
    whole = min(K, max(int(w) for _, w in ends))
    return _power_sums(x, (np.minimum(np.minimum(stop, whole), np.where(
        xs >= floor, 1 + np.searchsorted(-absorb, -xs, side="right"), K))
        for (stop, _), xs in zip(ends, blocks)), (1.0, 0.0), terms)


def _j_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    chi = x - (0.5 * nu + 0.25) * pi
    if not _asymptotic_table(nu)[0]:   # nu = 1/2: a_1 = 0, P = 1 and Q = 0
        return np.sqrt(2.0 / (pi * x)) * np.cos(chi)
    P, Q = _hankel_pq(nu, x)
    return np.sqrt(2.0 / (pi * x)) * (np.cos(chi) * P - np.sin(chi) * Q)


def _ive_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_nu(x) for x > 30 from the sum of (-1)^k a_k / x^k; each
    element stops at its smallest term or at its first term below 1e-18."""
    K, _, terms, stops, _, _ = _asymptotic_table(nu)
    E = 1.0   # nu = 1/2: a_1 = 0 and the sum is 1
    if K:
        E = _power_sums(x, (np.minimum(*stops(xs)) for xs in
                            np.split(x, np.arange(_CHUNK, x.size, _CHUNK))), (1.0,), terms)[0]
    return E / np.sqrt(2.0 * pi * x)


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


def _evaluate(op: str, order: Order, x, switch: float, series, asymptotic):
    """The range switch shared by the public evaluators: validate x, use the
    series on [0, switch] and the asymptotic form beyond it, keep x's shape."""
    arr = np.asarray(x, dtype=np.float64)
    _check_domain(arr, op)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= switch
    with np.errstate(divide="ignore"):   # x**nu at x = 0 for nu < 0
        if small.any():
            out[small] = series(order.nu, flat[small])
        if (~small).any():
            out[~small] = asymptotic(order.nu, flat[~small])
    out = out.reshape(np.atleast_1d(arr).shape)
    return float(out[0]) if arr.ndim == 0 else out


def besselj_over_xnu(order: Order, x) -> np.ndarray | float:
    """J_nu(x) / x^nu, finite down to x = 0 for every admissible order."""
    return _evaluate("besselj_over_xnu", order, x, order.j_switch, _jover_series,
                     lambda nu, xs: _j_asymptotic(nu, xs) / xs**nu)


def bessel_j(order: Order, x) -> np.ndarray | float:
    """Bessel J of the first kind, vectorized over x >= 0."""
    return _evaluate("bessel_j", order, x, order.j_switch,
                     lambda nu, xs: _jover_series(nu, xs) * xs**nu, _j_asymptotic)


def bessel_j_derivative(order: Order, x) -> np.ndarray | float:
    """J_nu'(x) via the recurrence (nu/x) J_nu - J_{nu+1}."""
    arr = np.asarray(x, dtype=np.float64)
    _check_domain(arr, "bessel_j_derivative", positive=True)
    return (order.nu / arr) * bessel_j(order, arr) - bessel_j(Order(order.nu + 1.0), arr)


def bessel_i_scaled(order: Order, x) -> np.ndarray | float:
    """exp(-x) I_nu(x); never overflows and is what the heat kernels use."""
    return _evaluate("bessel_i_scaled", order, x, order.i_switch,
                     lambda nu, xs: np.exp(-xs) * _iover_series(nu, xs) * xs**nu,
                     _ive_asymptotic)


def _iover_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    if np.any(x > 700.0):
        raise NumericsError("besseli_over_xnu",
                            "argument beyond exp overflow range; use bessel_i_scaled")
    return _ive_asymptotic(nu, x) * np.exp(x) / x**nu


def besseli_over_xnu(order: Order, x) -> np.ndarray | float:
    """I_nu(x) / x^nu; entire, positive.  Overflows (by design) past x ~ 700."""
    return _evaluate("besseli_over_xnu", order, x, order.i_switch, _iover_series,
                     _iover_asymptotic)


def bessel_i(order: Order, x) -> np.ndarray | float:
    """Modified Bessel I; raises past the representable exp range."""
    arr = np.asarray(x, dtype=np.float64)
    _check_domain(arr, "bessel_i")
    if np.any(arr > 700.0):
        raise NumericsError("bessel_i", "overflow: use bessel_i_scaled for x > 700")
    out = np.asarray(bessel_i_scaled(order, arr)) * np.exp(arr)
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
