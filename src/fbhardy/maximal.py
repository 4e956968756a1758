"""Semigroups applied to functions, maximal operators, and comparison tools.

The semigroup action on a sampled function goes through its expansion in the
eigenbasis: the coefficients are computed once by quadrature (truncated at the
grid's resolvable frequency), and each time slice is a synthesis weighted by
the semigroup's multiplier from `basis.SEMIGROUPS`. This route stays
accurate for every t > 0, unlike pointwise kernel series which need
small-time certification. On the half line the semigroups act by quadrature
against `kernels.HALFLINE_KERNELS`.

The module also contains:

  * the discretized maximal operator (sup over a geometric TimeGrid; the
    result also holds the sups on either side of the split at t = 1, the
    local and global regimes),
  * the Uchiyama condition checker: on-diagonal lower bound, size bound with
    exponent -2, and a Lipschitz bound on admissible triples, for kernel
    families on intervals of (0, 1) and for the time-reparametrized half-line
    Poisson kernel,
  * Duhamel residuals comparing the unit-interval heat semigroup with the
    half-line one through a smooth cutoff, at operator and at kernel level
    (one loop over the s nodes sums both),
  * the sup-t comparison of the two Poisson semigroups on functions living
    near the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SEMIGROUPS, EigenBasis, coefficients
from .covers import DyadicCover, Interval, FAMILY_ONE_END, FAMILY_TWO_END
from .errors import NumericsError
from .kernels import (_SUB_BLOCK, HALFLINE_KERNELS, UnitIntervalKernels,
                      _heat_and_dy, _subordinated_poisson, bessel_heat, bessel_poisson)
from .quadrature import (Measure, SampledFunction, _gauss_legendre, grid_on_interval,
                         MEASURE_LEBESGUE, MEASURE_MU)


# ---------------------------------------------------------------------------
# time grids


@dataclass(frozen=True)
class TimeGrid:
    values: np.ndarray
    split: float = 1.0

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or len(v) < 2 or np.any(v <= 0) or np.any(np.diff(v) <= 0):
            raise ValueError("time grid must be increasing and positive")
        below = v[v < 1.0]
        if len(below) > 1:
            r = np.max(below[1:] / below[:-1])
            if r > 1.2500001:
                raise ValueError(f"grid ratio {r:.4f} exceeds 1.25 below t=1")
        self.values.setflags(write=False)

    @classmethod
    def build(cls, t_min: float = 1e-6, t_max: float = 10.0,
              ratio: float = 1.25, split: float = 1.0) -> "TimeGrid":
        if not (0 < t_min < split < t_max):
            raise ValueError("need t_min < split < t_max")
        n = int(math.ceil(math.log(t_max / t_min) / math.log(ratio))) + 1
        vals = np.geomspace(t_min, t_max, n)
        vals = np.unique(np.concatenate([vals, [split]]))
        return cls(values=vals, split=split)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# spectral application of the semigroups


class SpectralExpansion:
    """Eigen-coefficients of a sampled function, reusable across times.

    f may be a batch, values of shape (..., len(grid)): its inputs share the
    rows and each time's product, and every slice keeps the batch axes. The
    measure tag picks the rows: mu-tagged functions expand in phi (weighted
    Poisson/heat), Lebesgue-tagged ones in psi."""

    def __init__(self, f: SampledFunction, basis: EigenBasis):
        self.basis = basis
        self.rows = basis.phi_matrix if f.measure == MEASURE_MU else basis.psi_matrix
        c = coefficients(f, basis)
        nz = np.flatnonzero(c.reshape(-1, c.shape[-1]).any(axis=0))
        self.n_active = int(nz[-1]) + 1 if len(nz) else 1
        self.coeffs = c[..., :self.n_active]

    def _slices(self, t_values, x, kind: str):
        """The semigroup at each t on x, one slice (..., len(x)) at a time;
        a slice does not depend on the other times."""
        if kind not in SEMIGROUPS:
            raise ValueError(f"unknown semigroup {kind!r}")
        if not np.all(np.asarray(t_values, dtype=float) > 0):
            raise ValueError("time must be positive")
        wfun = SEMIGROUPS[kind].weight
        lam = self.basis.table.zeros[:self.n_active]
        mat = self.rows(np.atleast_1d(np.asarray(x, dtype=float)), self.n_active)
        for t in t_values:
            yield (self.coeffs * wfun(lam, float(t))) @ mat

    def at_time(self, t: float, x, kind: str = "poisson") -> np.ndarray:
        return self.sweep([t], x, kind)[0]

    def sweep(self, t_values, x, kind: str = "poisson") -> np.ndarray:
        """The slices stacked: shape (len(t_values), ..., len(x))."""
        return np.array(list(self._slices(t_values, x, kind)))


def apply_halfline(nu: float, f: SampledFunction, t: float, x,
                   kind: str = "poisson") -> np.ndarray:
    """Half-line semigroups applied by kernel quadrature against f's grid."""
    if f.measure != MEASURE_MU:
        raise ValueError("half-line semigroups act on mu-tagged functions")
    if kind not in HALFLINE_KERNELS:
        raise ValueError(f"unknown half-line semigroup {kind!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kmat = HALFLINE_KERNELS[kind](nu, t, x[:, None], f.nodes[None, :])
    return kmat @ (f.grid.weights * f.values)


# ---------------------------------------------------------------------------
# maximal operators


@dataclass
class MaximalResult:
    x: np.ndarray
    values: np.ndarray        # sup over the whole grid
    argmax_t: np.ndarray
    small: np.ndarray         # sup over t <= split
    large: np.ndarray         # sup over t >= split
    grid: TimeGrid

    def l1_norm(self, weights: np.ndarray):
        """Quadrature L1 norm of the maximal function, one per batch input."""
        return self.values @ weights


def maximal_function(basis: EigenBasis, f: SampledFunction,
                     grid: TimeGrid) -> MaximalResult:
    """Discretized sup over t of |Poisson of f| at f's nodes, with per-node
    argmax times (the first on ties). For a batch f every array of the
    result carries its leading axes. The sups are taken slice by slice as
    the sweep makes them, so the (times, inputs, points) array is never held."""
    x = f.nodes
    shape = f.values.shape[:-1] + x.shape
    values, argmax_t = np.full(shape, -np.inf), np.zeros(shape)
    small, large = np.zeros(shape), np.zeros(shape)
    slices = SpectralExpansion(f, basis)._slices(grid.values, x, "poisson")
    for t, s in zip(grid.values, slices):
        s = np.abs(s)
        np.copyto(argmax_t, t, where=s > values)
        np.maximum(values, s, out=values)
        if t <= grid.split:
            np.maximum(small, s, out=small)
        if t >= grid.split:
            np.maximum(large, s, out=large)
    return MaximalResult(x=x, values=values, argmax_t=argmax_t, small=small,
                         large=large, grid=grid)


# ---------------------------------------------------------------------------
# Uchiyama conditions


def uchiyama_time(nu: float, r, x):
    """Radius-to-time reparametrization: r x^(-2nu-1) while r <= x^(2nu+2),
    the (2nu+2)-th root of r beyond; continuous at the branch point."""
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    p = Measure.of(MEASURE_MU, nu).p
    return np.where(r <= x**p, r * x ** (1.0 - p), r ** (1.0 / p))


def uchiyama_kernel(nu: float, r: float, x, y, sigma_total: float | None = None):
    """Half-line Poisson kernel at the reparametrized time t(x, r), still by the
    352-node subordination: the benchmark records `halfline-0` from it (ROADMAP
    item 12); `kernels._subordinate` and `_SUB_*` go when that reference moves."""
    if sigma_total is not None and not (0 < r < sigma_total):
        raise ValueError(f"radius {r} outside (0, {sigma_total})")
    return _subordinated_poisson(nu, uchiyama_time(nu, float(r), x), x, y)


# each metric is the cdf distance of one measure
_METRIC_MEASURE = {"euclidean": MEASURE_LEBESGUE, "mu_cdf": MEASURE_MU}


@dataclass(frozen=True)
class HomogeneousSpace:
    """Interval space (X, d, sigma): sigma is the measure the tag names, and
    d is the Euclidean distance or the mu-measure of the interval between
    two points ("mu_cdf")."""
    interval: Interval
    metric: str            # "euclidean" or "mu_cdf"
    measure: str           # MEASURE_MU or MEASURE_LEBESGUE
    nu: float

    def __post_init__(self):
        if self.metric not in _METRIC_MEASURE:
            raise ValueError(f"unknown metric {self.metric!r}")
        Measure.of(self.measure, self.nu)     # rejects an unknown tag

    @property
    def _metric_measure(self) -> Measure:
        return Measure.of(_METRIC_MEASURE[self.metric], self.nu)

    def distance(self, u, v):
        return self._metric_measure.distance(u, v)

    def sigma_total(self) -> float:
        return float(Measure.of(self.measure, self.nu).interval(
            self.interval.a, self.interval.b))

    def ball_sigma(self, x, r):
        """sigma(B_d(x, r) intersected with the interval)."""
        d = self._metric_measure
        m = d.cdf(x)
        lo = np.maximum(d.quantile(m - r), self.interval.a)
        hi = np.minimum(d.quantile(m + r), self.interval.b)
        return Measure.of(self.measure, self.nu).interval(lo, hi)

    def shift(self, y, delta, sign: int):
        """A point at metric distance delta from y (before clipping into X)."""
        d = self._metric_measure
        z = d.quantile(d.cdf(y) + sign * delta)
        return np.clip(z, self.interval.a + 1e-12, self.interval.b - 1e-12)

    def inner_points(self, n: int) -> np.ndarray:
        a, b = self.interval.a, self.interval.b
        pad = 0.02 * (b - a)
        return np.linspace(a + pad, b - pad, n)


@dataclass
class UchiyamaReport:
    label: str
    r_range: tuple
    a_ball: float
    a_lower: float
    a_size: float
    a_lipschitz: float
    n_samples: int
    min_kernel: float

    @property
    def a_total(self) -> float:
        return max(self.a_ball, self.a_lower, self.a_size, self.a_lipschitz)

    def to_dict(self) -> dict:
        return {"label": self.label, "r_range": list(self.r_range),
                "A_ball": self.a_ball, "A_lower": self.a_lower,
                "A_size": self.a_size, "A_lipschitz": self.a_lipschitz,
                "A": self.a_total, "n_samples": self.n_samples,
                "min_kernel": self.min_kernel}


def check_uchiyama_conditions(kernel_fn, space: HomogeneousSpace,
                              r_values, label: str,
                              n_space: int = 12) -> UchiyamaReport:
    """Empirical constants for the three kernel conditions on one space.

    kernel_fn(r, x, y) evaluates the family member pointwise (broadcasting).
    The Lipschitz constant is measured only on admissible triples, i.e.
    d(y, z) <= (r + d(x, y)) / (4A) with A taken from the first two
    conditions.
    """
    pts = space.inner_points(n_space)
    r_values = np.asarray(r_values, dtype=float)
    a_ball = 0.0
    for r in r_values:
        s = space.ball_sigma(pts, r)
        if np.any(s <= 0):
            raise NumericsError("uchiyama", f"empty ball at r={r}")
        a_ball = max(a_ball, float(np.max(s / r)), float(np.max(r / s)))

    a_lower = 0.0
    a_size = 0.0
    min_kernel = math.inf
    n_samples = 0
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    kmats = []
    for r in r_values:
        diag = np.asarray(kernel_fn(float(r), pts, pts))
        if np.any(diag <= 0):
            raise NumericsError("uchiyama", f"non-positive diagonal at r={r}")
        a_lower = max(a_lower, float(np.max(1.0 / (r * diag))))
        kmat = np.asarray(kernel_fn(float(r), xg, yg))
        kmats.append(kmat)
        n_samples += kmat.size
        min_kernel = min(min_kernel, float(np.min(kmat)))
        d = space.distance(xg, yg)
        a_size = max(a_size, float(np.max(kmat * r * (1.0 + d / r) ** 2)))

    a0 = max(a_ball, a_lower, a_size)
    a_lip = 0.0
    for r, base in zip(r_values, kmats):
        d = space.distance(xg, yg)
        adm = (r + d) / (4.0 * a0)
        for frac in (0.35, 0.9):
            for sign in (+1, -1):
                z = space.shift(yg, frac * adm, sign)
                dyz = space.distance(yg, z)
                ok = (dyz > 1e-13) & (dyz <= adm)
                if not np.any(ok):
                    continue
                shifted = np.asarray(kernel_fn(float(r), xg, z))
                n_samples += int(np.sum(ok))
                num = np.abs(base - shifted) * r**2 * (1.0 + d / r) ** 2
                val = np.where(ok, num / np.where(ok, dyz, 1.0), 0.0)
                a_lip = max(a_lip, float(np.max(val)))
    return UchiyamaReport(label=label,
                          r_range=(float(r_values[0]), float(r_values[-1])),
                          a_ball=a_ball, a_lower=a_lower, a_size=a_size,
                          a_lipschitz=a_lip, n_samples=n_samples,
                          min_kernel=min_kernel)


def uchiyama_families(kernels: UnitIntervalKernels, zeta: float = 0.02,
                      unit_js=(1, 2, 3, 4, 5, 6),
                      flat_js=(-5, -4, -3, -2, -1, 1, 2, 3, 4, 5),
                      n_r: int = 7, n_space: int = 12) -> list:
    """Reports for the three kernel families of the H1 equivalence proofs.

    Series-kernel families need small times, so the radius grid starts at the
    certified series floor; the report records the actual range used."""
    nu = kernels.nu
    reports = []
    one_end = DyadicCover(FAMILY_ONE_END, zeta=zeta)
    floor_p = kernels.floor("poisson")
    # (cover, pieces, measure, series kernel, label prefix)
    unit_families = ((one_end, unit_js, MEASURE_MU, "poisson_mu", "unit-mu"),
                     (DyadicCover(FAMILY_TWO_END, zeta=zeta), flat_js,
                      MEASURE_LEBESGUE, "poisson_lebesgue", "unit-flat"))
    for cover, js, measure, method, prefix in unit_families:
        for j in js:
            space = HomogeneousSpace(cover.starred(j, 2), "euclidean", measure, nu)
            cap = 0.9 * space.sigma_total()
            lo = max(1.02 * floor_p, cap / 64.0)
            if lo >= cap:
                raise NumericsError(
                    "uchiyama", f"series floor {floor_p:.2e} too high for piece {j}, "
                    f"which needs a floor below {cap / 1.02:.2e}; raise n_zeros "
                    f"(now {len(kernels.basis)})")
            reports.append(check_uchiyama_conditions(
                getattr(kernels, method), space, np.geomspace(lo, cap, n_r),
                label=f"{prefix}-{j}", n_space=n_space))

    iv0 = one_end.starred(0, 2)
    space0 = HomogeneousSpace(iv0, "mu_cdf", MEASURE_MU, nu)
    cap0 = 0.9 * space0.sigma_total()
    r_vals = np.geomspace(cap0 / 4096.0, cap0, n_r + 3)
    fn0 = lambda r, x, y: uchiyama_kernel(nu, r, x, y)
    reports.append(check_uchiyama_conditions(
        fn0, space0, r_vals, label="halfline-0", n_space=n_space))
    return reports


# ---------------------------------------------------------------------------
# Duhamel residuals


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (6.0 * u**2 - 15.0 * u + 10.0)


def _smoothstep_d1(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u**2 * (u - 1.0) ** 2, 0.0)


def _smoothstep_d2(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 60.0 * u * (2.0 * u - 1.0) * (u - 1.0), 0.0)


@dataclass(frozen=True)
class CutoffRho:
    """Smooth cutoff: 1 on (0, inner], 0 on [outer, infinity), a degree-5
    smoothstep ramp in between (two continuous derivatives)."""
    inner: float
    outer: float

    @classmethod
    def build(cls, zeta: float = 0.02) -> "CutoffRho":
        cover = DyadicCover(FAMILY_ONE_END, zeta=zeta)
        return cls(inner=cover.starred(0, 2).b, outer=cover.starred(0, 3).b)

    def _u(self, x):
        return (self.outer - np.asarray(x, dtype=float)) / (self.outer - self.inner)

    def value(self, x):
        return _smoothstep(self._u(x))

    def derivative(self, x):
        return -_smoothstep_d1(self._u(x)) / (self.outer - self.inner)

    def second_derivative(self, x):
        return _smoothstep_d2(self._u(x)) / (self.outer - self.inner) ** 2


def _s_panel_nodes(t: float):
    """Quadrature nodes/weights for int_0^t ds, 24 Gauss-Legendre nodes per
    panel, with square-root substitutions on the endpoint panels (integrands
    may have boundary layers there): s = v^2 on [0, 0.01 t] and t - s = v^2
    on [0.99 t, t]."""
    breaks = [0.01 * t, 0.1 * t, 0.5 * t, 0.9 * t, 0.99 * t]
    z, w = _gauss_legendre(24)
    ends = []
    for vmax in (math.sqrt(breaks[0]), math.sqrt(t - breaks[-1])):
        v = 0.5 * vmax * (z + 1.0)
        ends.append((v**2, 0.5 * vmax * w * 2.0 * v))
    mids = [(0.5 * (b - a) * z + 0.5 * (a + b), 0.5 * (b - a) * w)
            for a, b in zip(breaks[:-1], breaks[1:])]
    nodes, weights = zip(ends[0], *mids, (t - ends[1][0], ends[1][1]))
    return np.concatenate(nodes), np.concatenate(weights)


def _ramp(rho: CutoffRho, nu: float) -> tuple:
    """On the ramp of rho, a 48-node grid: mu-nodes and weights, rho', rho'',
    (2nu+1)/z rho'."""
    zg = grid_on_interval(rho.inner, rho.outer, 48, MEASURE_MU, nu)
    rp = rho.derivative(zg.nodes)
    return (zg.nodes, zg.weights, rp, rho.second_derivative(zg.nodes),
            (2.0 * nu + 1.0) / zg.nodes * rp)


def _duhamel_sums(nu: float, t: float, x, ramp: tuple, inner, pair) -> tuple:
    """R1, R2, R3: sums over the s nodes of pair(c w_s, K, zw f, g), g from
    inner(s nodes), K = T_{t-s}(x, z) with f = rho'' (R1) or (2nu+1)/z rho'
    (R3), or dy T with c = 2 and f = rho' (R2); c = 1 otherwise.  T and dy T
    come from one _heat_and_dy call per slice of at most _SUB_BLOCK values
    (the heat times t - s as rows), each as a call at its own s gives it."""
    x, (znodes, zw, rp, rpp, drift) = np.atleast_1d(np.asarray(x, dtype=float)), ramp
    s_nodes, s_weights = _s_panel_nodes(t)
    step = max(1, _SUB_BLOCK // max(x.size * znodes.size, 1))
    r, inners = [0.0] * 3, iter(inner(s_nodes))
    for i in range(0, len(s_nodes), step):
        ts = (t - s_nodes[i:i + step])[:, None, None]
        big, dbig = _heat_and_dy(nu, ts, x[:, None], znodes[None, :])
        for j, (w, g) in enumerate(zip(s_weights[i:i + step], inners)):
            r = [rn + pair(c * w, k[j], zw * f, g) for rn, (c, k, f) in
                 zip(r, ((1.0, big, rpp), (2.0, dbig, rp), (1.0, big, drift)))]
    return tuple(r)


def duhamel_residuals(basis: EigenBasis, rho: CutoffRho, f: SampledFunction,
                      t: float, x, expansion: SpectralExpansion | None = None) -> tuple:
    """The three residual terms of the heat-semigroup comparison at time t.

    R1 pairs the half-line kernel with the second derivative of the cutoff,
    R2 (with its factor 2) pairs the kernel's derivative with the first
    derivative, and R3 carries the first-order drift (2nu+1)/z. All three
    integrate over the ramp of rho in space and over (0, t) in time with
    endpoint-regularized panels, the half-line kernels taken in slices of s
    nodes (`_duhamel_sums`). Requires supp f inside the region where rho = 1;
    expansion, if given, is SpectralExpansion(f, basis), made by the caller."""
    if not 0 < t < 1:
        raise ValueError("duhamel residuals are set up for 0 < t < 1")
    if f.measure != MEASURE_MU:
        raise ValueError("duhamel residuals need a mu-tagged function")
    if np.any((f.nodes >= rho.inner) & (np.abs(f.values) > 0)):
        raise ValueError("f must be supported where the cutoff equals 1")
    ramp, sweep = _ramp(rho, basis.nu), (expansion or SpectralExpansion(f, basis)).sweep
    return _duhamel_sums(basis.nu, t, x, ramp, lambda s: sweep(s, ramp[0], "heat"),
                         lambda cw, k, zwf, g: cw * (k @ (zwf * g)))


def duhamel_closure(basis: EigenBasis, rho: CutoffRho, f: SampledFunction,
                    t: float, x) -> dict:
    """Compare both sides of the semigroup-difference identity at time t.

    Left side: (cutoff times unit-interval heat of f) minus (half-line heat
    of f), evaluated spectrally and by kernel quadrature respectively.  Right
    side: R1 + R2 + R3."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    exp = SpectralExpansion(f, basis)
    lhs = rho.value(x) * exp.at_time(t, x, "heat") - \
        apply_halfline(basis.nu, f, t, x, kind="heat")
    r1, r2, r3 = duhamel_residuals(basis, rho, f, t, x, exp)
    rhs = r1 + r2 + r3
    return {"x": x, "lhs": lhs, "rhs": rhs, "r1": r1, "r2": r2, "r3": r3,
            "max_error": float(np.max(np.abs(lhs - rhs)))}


def duhamel_residual_kernels(basis: EigenBasis,
                             kernels: UnitIntervalKernels, rho: CutoffRho,
                             t: float, x, y) -> tuple:
    """Pointwise residual kernels R[j](x, y) on a grid, for the uniform
    boundedness check.

    The inner factor is the unit-interval heat kernel at time s; below the
    certified series floor it is replaced by the half-line heat kernel, whose
    deviation (a boundary reflection term) is exponentially negligible at
    those times for arguments left of the ramp.  The outer half-line kernels
    come in slices of s nodes, as in duhamel_residuals."""
    nu, y = basis.nu, np.atleast_1d(np.asarray(y, dtype=float))
    ramp, floor = _ramp(rho, nu), kernels.floor("heat")
    z = ramp[0]
    return _duhamel_sums(nu, t, x, ramp, lambda s_nodes: (
        kernels.heat_mu(s, z, y, matrix=True) if s > 1.05 * floor
        else bessel_heat(nu, s, z[:, None], y[None, :]) for s in s_nodes),
        lambda cw, k, zwf, g: (cw * (k * zwf[None, :])) @ g)


# ---------------------------------------------------------------------------
# semigroup comparison near the origin


def compare_semigroups(basis: EigenBasis, fs, t_grid=None,
                       n_x: int = 48, zeta: float = 0.02) -> list:
    """Ratio ||sup_t |halfline Poisson - unit Poisson| of f||_L1 / ||f||_L1
    on the origin piece, for a batch of mu-tagged inputs sharing one grid.

    The half-line kernel matrix is built once per time, on the grid columns
    where some input of the batch is nonzero (every other column meets a
    zero weight), and applied to the whole batch (bessel_poisson's fixed
    rules, 76 nodes a point); the unit-interval side is one spectral sweep of
    the whole batch over all times."""
    if isinstance(fs, SampledFunction):
        fs = [fs]
    cover = DyadicCover(FAMILY_ONE_END, zeta=zeta)
    edge = cover.starred(0, 2).b
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 0.999, 20)
    xg = grid_on_interval(1e-9, edge, n_x, MEASURE_MU, basis.nu)
    xw, xn = xg.weights, xg.nodes

    grid0 = fs[0].grid
    if any(f.grid is not grid0 for f in fs):
        raise ValueError("batch inputs must share one grid")
    if grid0.measure != MEASURE_MU:
        raise ValueError("comparison inputs must be mu-tagged")
    values = np.array([f.values for f in fs])
    if np.any((grid0.nodes >= edge) & (np.abs(values) > 0)):
        raise ValueError("inputs must be supported in the origin piece")

    cols = np.flatnonzero(np.any(values != 0, axis=0))
    mass = grid0.weights[cols] * values[:, cols]
    units = SpectralExpansion(SampledFunction(grid=grid0, values=values),
                              basis).sweep(t_grid, xn, "poisson")
    sup = np.zeros((len(fs), len(xn)))
    for t, unit in zip(t_grid, units):
        kmat = bessel_poisson(basis.nu, float(t), xn[:, None], grid0.nodes[None, cols])
        sup = np.maximum(sup, np.abs(mass @ kmat.T - unit))

    out = []
    for i, f in enumerate(fs):
        fnorm = float(f.grid.weights @ np.abs(f.values))
        out.append({"sup_norm_l1": float(xw @ sup[i]), "f_norm_l1": fnorm,
                    "ratio": float(xw @ sup[i]) / fnorm if fnorm > 0 else 0.0})
    return out
