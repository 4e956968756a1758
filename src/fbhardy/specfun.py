"""Bessel functions of real order nu > -1/2 and their positive zeros.

Everything here is hand-rolled on top of numpy so the evaluation strategy is
explicit and testable: the ascending power series on [0, x_switch] and the
large-argument (Hankel-type) asymptotic expansion with phase
x - (nu/2 + 1/4)*pi beyond it.  The switch point is max(12, 2|nu|) for J.
For I the series has no cancellation, so the switch sits higher, at
max(30, 2|nu|); there the subdominant term sin(nu pi) exp(-2x) of exp(-x) I_nu
is below 2^-86 relative, and the asymptotic form leaves it out.  The Hankel
sums have K terms, and K = 0 at nu = 1/2 alone: there J / x^(1/2) is
sqrt(2/pi) sin(x)/x exactly (DLMF 10.16.1), J's switch is 0 (the series
serves x = 0 alone), and exp(-x) I is 1/sqrt(2 pi x).

Every sum stops per element, so a value depends on its own argument alone.
One ascending series serves J and I (q = -x^2/4 or x^2/4): an element stops
at its first term below 1e-18 of its own sum, which comes after its largest
term, so later terms round away and a block is cut exactly, every fourth term,
after its last live element, in any order (a one-byte key of |x| puts them first).
A handful of arguments (at most _SCALAR_MAX, as at each step of the zero
finder's bisection) take the same float steps one element at a time: the cost
is per numpy call, not per element.
The asymptotic sums stop at an element's smallest term or its first term
below 1e-18, and J's also before the terms rounding would absorb: one sorted
table of edges per order and sum (its thresholds merged) holds the last term
of each gap, one search per element; elements within 2e-12 of a threshold
are computed term by term.  In each block of _CHUNK elements they are sorted by
their last term (a stable sort of the 8-bit key top - last), so term k of a
sum touches one contiguous prefix; once that prefix holds at most _TAIL
elements (from k = 4 on), the long tail of their terms is summed as one
(k, element) block, in order of k, bit for bit as term by term.  The public
evaluators check x, write into out= (x itself allowed) and run the asymptotic
form on one block of _CHUNK = 8192 elements of x at a time, whose temporaries
stay under glibc's 128 KiB mmap threshold (larger ones are mapped fresh and
fault on every page, each call).
The zero finder calls J unchecked (_j) on the arrays it makes itself, and in
its bisection only where a McMahon interval does not fix J's sign (_sure_sides).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import lgamma, pi
import math

import numpy as np

from .errors import NumericsError

_SERIES_CAP = 220      # ample for x <= 36: terms decay factorially past k ~ x/2
_ASYMP_CAP = 40
_CHUNK = 1 << 13       # elements per block: 64 KiB of float64, under the mmap threshold
_SCALAR_MAX = 16       # summed one at a time up to here: ~3.5 us each, a block loop ~100 us
_TAIL = 64             # live elements whose remaining Hankel terms are summed as one array
_SURE = 1e-13          # |J| whose computed sign is certain past _sure_sides' start


@dataclass(frozen=True)
class Order:
    """Validated Bessel order; the toolkit requires nu > -1/2."""

    nu: float

    def __post_init__(self):
        if not np.isfinite(self.nu) or not self.nu > -0.5:
            raise ValueError(f"order must satisfy nu > -1/2, got {self.nu}")

    @property
    def j_switch(self) -> float:
        return 0.0 if self.nu == 0.5 else max(12.0, 2.0 * abs(self.nu))   # K = 0 at 1/2 alone

    @property
    def i_switch(self) -> float:
        return max(30.0, 2.0 * abs(self.nu))


# ---------------------------------------------------------------------------
# ascending series


def _over_series(nu: float, x: np.ndarray, sign: float) -> np.ndarray:
    """J_nu(x) / x^nu (sign -1) or I_nu(x) / x^nu (sign +1) by the ascending
    series in q = sign x^2 / 4; entire in x^2, no 0^nu issues.  At most
    _SCALAR_MAX elements take _series_blocks' float steps one at a time, each
    stopping at its own first stop: the cost is per numpy call, not per element."""
    head = math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0))
    if x.size > _SCALAR_MAX:
        return _series_blocks(nu, x, sign, head)
    out = []
    for v in x.tolist():
        q, t, s = sign * (0.25 * v * v), head, head
        for k in range(1, _SERIES_CAP + 1):
            t = t * q / (k * (nu + k))
            s += t
            if not k % 4 and abs(t) < 1e-18 * abs(s):
                break
        out.append(s)
    return np.array(out, dtype=np.float64)


def _series_blocks(nu: float, x: np.ndarray, sign: float, head: float) -> np.ndarray:
    """The series from head = 1 / (2^nu Gamma(nu + 1)) on whole blocks of x.  The
    terms needed grow with x, so a block ordered by 255 - min(4|x|, 255) (a radix
    sort) is cut, every fourth term, after the last element not converged."""
    q = 0.25 * x * x
    out = np.empty_like(q)
    for lo in range(0, q.size, _CHUNK):
        key = 255.0 - np.minimum(4.0 * np.abs(x[lo:lo + _CHUNK]), 255.0)
        order = lo + np.argsort(key.astype(np.uint8), kind="stable")
        qs = sign * q[order]
        term = np.full_like(qs, head)
        acc, n = term.copy(), qs.size
        for k in range(1, _SERIES_CAP + 1):
            t, s = term[:n], acc[:n]
            np.multiply(t, qs[:n], out=t)
            t /= k * (nu + k)
            s += t
            if k % 4:   # terms past a stop are below 1e-18 of the sum: they round away
                continue
            live = np.flatnonzero(np.abs(t) >= 1e-18 * np.abs(s))
            if not live.size:
                break
            n = int(live[-1]) + 1
        out[order] = acc
    return out


# ---------------------------------------------------------------------------
# large-argument expansions


def _gap_table(exact, cuts):
    """exact(x) (int8, 1 to 127, constant between the cuts, all >= 0) from its
    value on each gap between bands of 2e-12 relative around the cuts, one
    search per element; exact itself computes the elements in a band."""
    c = np.sort(cuts)   # a band that overlaps the one before starts where it ends
    edges = np.maximum.accumulate(np.column_stack([c * (1.0 - 2e-12), c * (1.0 + 2e-12)]).ravel())
    value = np.zeros(edges.size + 1, dtype=np.int8)   # 0 in the bands: computed
    with np.errstate(over="ignore"):   # x**j past 1e308 beyond the largest cut
        value[0::2] = exact(np.append(edges[0::2], 2.0 * edges[-1]))

    def last(x):
        out = value[np.searchsorted(edges, x)]   # edges[i - 1] < x <= edges[i]
        if (near := np.flatnonzero(out == 0)).size:
            out[near] = exact(x[near])
        return out
    return last


@lru_cache(maxsize=64)
def _asymptotic_table(nu: float):
    """Coefficients a_1..a_K of the Hankel-type sums (K stops at _ASYMP_CAP
    or before the first vanishing a_k), the J and I terms for _power_sums
    (signed a_k and their rows), and two _gap_tables of each element's last
    term (t_k = a_k / x^k).  stops: the earlier of the last before |t_k| stops decreasing
    (x <= |a_k/a_{k-1}|) and the first below 1e-18 (x > (1e18 |a_k|)^(1/k)).
    j_last: that, or past floor the last before absorb: |t_2| <= 1/160 and
    80 |t_3| <= |t_1| keep |P| > 3/4, |Q| > 3/4 |t_1|; once x > absorb[k-1] the J
    terms after k are below 2^-56 min(1, |t_1|), and S + (< 2^-54 |S|) rounds to S."""
    mu4, c, a = 4.0 * nu * nu, 1.0, []
    for k in range(1, _ASYMP_CAP + 1):
        c *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k)
        if c == 0.0:
            break
        a.append(c)
    K, k = len(a), np.arange(1, len(a) + 1)
    if not K:   # nu = 1/2: every element sums no term
        none = partial(np.zeros_like, dtype=np.int8)
        return K, (), (), none, none

    def scan(x):
        stop, live, prev = np.ones(x.size, dtype=np.int8), np.ones(x.size, dtype=bool), np.inf
        for j, cj in enumerate(a, start=1):
            mag = np.abs(cj / x**j)
            live &= mag < prev
            stop[live], prev = j, mag
            live &= mag >= 1e-18
        return stop
    A = np.abs(np.array(a + [0.0] * 3))
    ak, b = A[:K], 2.0**56 * A[1:K]
    ties = np.concatenate([ak[1:] / ak[:-1], (1e18 * ak) ** (1.0 / k)])
    stops = _gap_table(scan, ties)
    absorb = np.minimum.accumulate(np.maximum(b ** (1.0 / k[1:]), (b / A[0]) ** (1.0 / k[:-1])))
    floor = math.sqrt(max(160.0 * A[1], 80.0 * A[2] / A[0]))
    j_last = _gap_table(lambda x: np.minimum(stops(x), np.where(
        x >= floor, 1 + np.searchsorted(-absorb, -x, side="right"), K)),
        np.concatenate([ties, absorb, [floor]]))
    coef = np.array(a)   # J: P takes even k, Q odd, sign (-1)^(k // 2); I: sign (-1)^k
    J = coef * np.array([1.0, 1.0, -1.0, -1.0])[k % 4], k % 2
    I = coef * (-1.0) ** k, np.zeros(K, dtype=int)
    for arr in J + I:   # the cache hands them to every caller
        arr.setflags(write=False)
    return K, J, I, stops, j_last


def _power_sums(x: np.ndarray, last, init, terms) -> np.ndarray:
    """Row i: init[i] plus, per element, the terms k = 1..last in order of k,
    last(xs) giving them for each block xs of _CHUNK elements of x; term k adds
    coef[k-1] / x**k to row row[k-1] of (coef, row) = terms (signed: a - t is
    a + (-t)).  A block is sorted only if its last terms differ.  From k = 4 on
    (past numpy's x**1 and x**2 fast paths), once at most _TAIL elements are
    live, their remaining terms form one (k, element) array, +0.0 past each
    element's last term, and each row is summed down it in order of k."""
    coef, row = terms
    out = np.empty((len(init), x.size))
    for lo in range(0, x.size, _CHUNK):
        blk = last(x[lo:lo + _CHUNK])
        top = int(blk.max())
        if blk.min() == top:
            idx, live = slice(lo, lo + blk.size), [blk.size] * top
        else:
            key = (top - blk).astype(np.uint8)
            order = np.argsort(key, kind="stable")
            idx, blk = lo + order, blk.take(order)
            live = np.searchsorted(key[order], np.arange(top - 1, -1, -1), side="right").tolist()
        xs, acc = x[idx], np.repeat(np.asarray(init, dtype=float)[:, None], blk.size, axis=1)
        for k, n in enumerate(live, start=1):
            if k >= 4 and n <= _TAIL:
                ks = np.arange(k, top + 1)
                with np.errstate(over="ignore"):   # x**k past an element's last term
                    t = coef[ks - 1, None] / xs[:n] ** ks[:, None]
                t[ks[:, None] > blk[:n]] = 0.0
                for i, a in enumerate(acc[:, :n]):
                    a[:] = np.add.accumulate(np.vstack([a, t[row[ks - 1] == i]]))[-1]
                break
            t = xs[:n] ** k
            np.divide(coef[k - 1], t, out=t)
            np.add(acc[row[k - 1], :n], t, out=acc[row[k - 1], :n])
        out[:, idx] = acc
    return out


def _j_asymptotic(nu: float, x: np.ndarray, over: bool = False) -> np.ndarray:
    """J_nu(x), or J_nu(x) / x^nu if over, past the switch, from the even and
    odd Hankel sums P, Q, each element to j_last.  At nu = 1/2 (K = 0)
    J / x^(1/2) = sqrt(2/pi) sin(x) / x exactly (DLMF 10.16.1), on all of
    (0, inf): sin(x) / x stays finite at subnormal x, where 2 / (pi x) overflows."""
    K, terms, _, _, j_last = _asymptotic_table(nu)
    if not K:
        j = math.sqrt(2.0 / pi) * (np.sin(x) / x)
        return j if over else j * np.sqrt(x)
    chi = x - (0.5 * nu + 0.25) * pi
    P, Q = _power_sums(x, j_last, (1.0, 0.0), terms)
    j = np.sqrt(2.0 / (pi * x)) * (np.cos(chi) * P - np.sin(chi) * Q)
    return j / x**nu if over else j


def _ive_asymptotic(nu: float, x: np.ndarray) -> np.ndarray:
    """exp(-x) I_nu(x) for x > 30 from the sum of (-1)^k a_k / x^k; each
    element stops at its smallest term or at its first term below 1e-18."""
    K, _, terms, stops, _ = _asymptotic_table(nu)   # nu = 1/2: a_1 = 0 and the sum is 1
    E = _power_sums(x, stops, (1.0,), terms)[0] if K else 1.0
    return E / np.sqrt(2.0 * pi * x)


# ---------------------------------------------------------------------------
# public evaluators (scalar in, scalar out; arrays in, arrays out)


def _check_domain(x: np.ndarray, op: str):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{op}: argument must be finite")
    if np.any(x < 0):
        raise ValueError(f"{op}: argument must be nonnegative")


def _evaluate(op: str, order: Order, x, switch: float, series, asymptotic, out=None):
    """The public evaluators: check x and out (x's shape, or a new array), then _switch."""
    arr = np.asarray(x, dtype=np.float64)
    _check_domain(arr, op)
    res = np.empty(arr.shape) if out is None else out
    if res.shape != arr.shape or res.dtype != np.float64 or not res.flags.c_contiguous:
        raise ValueError(f"{op}: out must be a C-contiguous float64 array of shape {arr.shape}")
    _switch(order, arr.reshape(-1), res.reshape(-1), switch, series, asymptotic)
    return float(res) if arr.ndim == 0 and out is None else res


def _switch(order: Order, flat, dst, switch: float, series, asymptotic):
    """The range switch: the series on [0, switch] and the asymptotic form
    beyond it, per _CHUNK block of flat, into dst."""
    small = flat <= switch
    with np.errstate(divide="ignore"):   # x**nu at x = 0 for nu < 0
        if (idx := np.flatnonzero(small)).size:
            dst[idx] = series(order.nu, flat[idx])
        for lo in range(0, flat.size, _CHUNK):
            if (big := ~small[lo:lo + _CHUNK]).any():
                big = slice(None) if big.all() else big
                dst[lo:lo + _CHUNK][big] = asymptotic(order.nu, flat[lo:lo + _CHUNK][big])
    return dst


def besselj_over_xnu(order: Order, x, out=None) -> np.ndarray | float:
    """J_nu(x) / x^nu, finite down to x = 0 for every admissible order."""
    return _evaluate("besselj_over_xnu", order, x, order.j_switch,
                     lambda nu, xs: _over_series(nu, xs, -1.0),
                     lambda nu, xs: _j_asymptotic(nu, xs, over=True), out)


_J = (lambda nu, xs: _over_series(nu, xs, -1.0) * xs**nu, _j_asymptotic)


def _j(order: Order, x: np.ndarray) -> np.ndarray:
    """bessel_j without the domain check, at a 1-d array of finite x >= 0
    made by the caller (the zero finder's scan grid, brackets and roots)."""
    return _switch(order, x, np.empty(x.shape), order.j_switch, *_J)


def bessel_j(order: Order, x, out=None) -> np.ndarray | float:
    """Bessel J of the first kind, vectorized over x >= 0: _j after the check."""
    return _evaluate("bessel_j", order, x, order.j_switch, *_J, out)


def bessel_i_scaled(order: Order, x, out=None) -> np.ndarray | float:
    """exp(-x) I_nu(x); never overflows and is what the heat kernels use."""
    return _evaluate("bessel_i_scaled", order, x, order.i_switch,
                     lambda nu, xs: np.exp(-xs) * _over_series(nu, xs, 1.0) * xs**nu,
                     _ive_asymptotic, out)


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


def _sure_sides(order: Order, lo, hi, flo, fhi):
    """(r - d, r + d) per bracket, r McMahon's four-term guess for zero k (DLMF
    10.21.19) and d = 16 |its last term| + 2 _SURE sqrt(pi r / 2), where start =
    max(2 j_switch, nu^2, |nu|) < lo < r - d < r + d < hi < 8000 and J at lo, r - d,
    r + d, hi has the sign of J(lo), J(lo), J(hi), J(hi) and |J| > _SURE; else
    (-inf, inf).  On (start, 8000) J's error is at most 5.2e-15 (against scipy's jv,
    nu in (-1/2, 12]), a tenth of _SURE / 2 (past 8000 it grows with x's ulp: 4e-14
    on [1e5, 1e6] against mpmath), so these signs are true and the bracket's one
    zero lies in (r - d, r + d).  For x > |nu|, J'' J = -(1 - nu^2 / x^2) J^2 < 0
    where J' = 0 (DLMF 10.2.1): |J| has no interior minimum on [lo, r - d] or
    [r + d, hi], so it stays above _SURE / 2 there and J's computed sign at each
    midpoint in them is J(lo)'s, J(hi)'s."""
    nu = order.nu
    mu, a = 4.0 * nu * nu, (np.arange(1, lo.size + 1) + 0.5 * nu - 0.25) * pi
    e, m1 = 1.0 / (8.0 * a), mu - 1.0
    last = 32.0 * m1 * ((83.0 * mu - 982.0) * mu + 3779.0) / 15.0 * e**5
    r = a - m1 * e - 4.0 * m1 * (7.0 * mu - 31.0) / 3.0 * e**3 - last
    d = 16.0 * np.abs(last) + 2.0 * _SURE * np.sqrt(0.5 * pi * r)
    start, ends = max(2.0 * order.j_switch, nu * nu, abs(nu)), np.sign([flo, fhi])
    i = np.flatnonzero((start < lo) & (lo < r - d) & (r + d < hi) & (hi < 8000.0)
                       & (np.minimum(np.abs(flo), np.abs(fhi)) > _SURE))
    ok = np.zeros(lo.size, dtype=bool)
    ok[i] = np.all(ends[:, i] * _j(order, np.append(r[i] - d[i], r[i] + d[i])).reshape(2, -1)
                   > _SURE, axis=0)
    return np.where(ok, r - d, -np.inf), np.where(ok, r + d, np.inf)


def bessel_zeros(order: Order, count: int, zero_tol: float = 1e-12) -> BesselZeroTable:
    """Locate the first `count` positive zeros of J_nu.

    A sign scan with step pi/4 (well under the minimal zero spacing for
    nu > -1/2) brackets each zero near its McMahon location
    (k + nu/2 - 1/4) pi; bisection shrinks the bracket and a couple of
    safeguarded Newton steps polish it.  Residuals are checked against
    zero_tol and kept in the returned table.  No J_nu value is asked for
    twice or where its sign is certain, so the brackets are bit for bit the
    plain bisection's: J at the lower brackets is read from the scan, a
    midpoint that is one of its bracket's ends or lies outside _sure_sides'
    (r - d, r + d) takes the side J would give it, Newton's derivative
    (nu/x) J_nu - J_{nu+1} reuses the step's J_nu, and the residuals are
    the polish's last J_nu unless its last step moved the roots.
    """
    if count < 1:
        raise ValueError("count must be positive")
    nu = order.nu
    step = pi / 4.0
    x_hi = (count + 0.5 * nu + 1.0) * pi + 2 * pi
    while True:
        grid = np.arange(0.3, x_hi, step)
        vals = _j(order, grid)
        sgn = np.sign(vals)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0][:count]
        if flips.size == count:
            break
        x_hi += 16 * pi
        if x_hi > (count + abs(nu)) * 40 * pi:
            raise NumericsError("bessel_zeros", "sign scan failed to bracket zeros")

    lo, hi, flo = grid[flips], grid[flips + 1], vals[flips]
    below, above = _sure_sides(order, lo, hi, flo, vals[flips + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = (mid > above) | (mid == hi)   # mid < below or mid == lo: right
        ask = np.flatnonzero(~left & (mid >= below) & (mid != lo))
        left[ask] = flo[ask] * _j(order, mid[ask]) <= 0   # J(lo) keeps flo's sign
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        # stop at the floating-point width floor so the fallback midpoint is
        # fully converged even when the Newton polish below rejects its step
        if np.max((hi - lo) / np.maximum(lo, 1.0)) < 4e-16:
            break
    roots = 0.5 * (lo + hi)
    for _ in range(8):
        f = _j(order, roots)
        if np.max(np.abs(f)) < 0.1 * zero_tol:
            break
        df = (nu / roots) * f - _j(Order(nu + 1.0), roots)   # J_nu'(roots)
        stepn = np.where(df != 0, f / np.where(df == 0, 1.0, df), 0.0)
        cand = roots - stepn
        ok = (cand > lo) & (cand < hi)
        roots = np.where(ok, cand, 0.5 * (lo + hi))
    else:   # the last step moved the roots
        f = _j(order, roots)
    res = np.abs(f)
    if res[worst := int(np.argmax(res))] > zero_tol:
        raise NumericsError(
            "bessel_zeros", f"residual above zero_tol = {zero_tol:.1e} at nu = {nu:g}, "
            f"n_zeros = {count}: zero {worst + 1} has residual {res[worst]:.3e}")
    return BesselZeroTable(order=order, zeros=roots, residuals=res)
