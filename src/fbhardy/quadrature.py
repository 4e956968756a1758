"""Composite Gauss-Legendre quadrature, the power-law measures x^(p-1) dx on
the half-line (the weighted x^(2nu+1) dx and Lebesgue), and grid-sampled
functions with their integration weights.

Grids are composite GL rules.  For the weighted measure the panels are graded
geometrically toward 0 (the density is smooth but non-polynomial there), and
callers can inject extra split points so kernels and piecewise profiles are
integrated panel-by-panel without crossing their breakpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MEASURE_MU = "mu"
MEASURE_LEBESGUE = "lebesgue"


@dataclass(frozen=True)
class Measure:
    """The power law x^(p - 1) dx on (0, infinity): p = 2 nu + 2 for the
    weighted measure x^(2 nu + 1) dx, p = 1 for Lebesgue measure. All
    methods work elementwise."""

    p: float

    @classmethod
    def of(cls, tag: str, nu: float) -> "Measure":
        if tag == MEASURE_MU:
            return cls(2.0 * nu + 2.0)
        if tag == MEASURE_LEBESGUE:
            return cls(1.0)
        raise ValueError(f"unknown measure tag {tag!r}")

    def density(self, x):
        return np.asarray(x, dtype=float) ** (self.p - 1.0)

    def cdf(self, x):
        """Measure of (0, x)."""
        return np.asarray(x, dtype=float) ** self.p / self.p

    def quantile(self, m):
        """The point x with cdf(x) = m; negative m maps to 0."""
        return np.maximum(self.p * np.asarray(m, dtype=float), 0.0) ** (1.0 / self.p)

    def interval(self, a, b):
        """Measure of (a, b), cdf(b) - cdf(a), and 0 where b <= a."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return np.where(b > a, self.cdf(b) - self.cdf(a), 0.0)

    def distance(self, x, y):
        """The measure of the interval between x and y: symmetric, zero only
        on the diagonal, and a metric because the measure is additive."""
        return np.abs(self.cdf(x) - self.cdf(y))

    def linear_integrals(self, s, c, lo, hi):
        """Integral of s x + c over [lo, hi] against the density.  It is
        summed scaled by 2^64, which moves no bit of a normal-range sum, so
        that a subnormal product, quotient or sum rounds only once, when the
        scale is taken off (s and c times the power differences must stay
        below 2^960)."""
        p, scale = self.p, 2.0**64
        return (s * scale * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
                + c * scale * (hi**p - lo**p) / p) / scale


# ---------------------------------------------------------------------------
# composite Gauss-Legendre grids


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes and weights; the measure is folded into the weights."""

    nodes: np.ndarray
    weights: np.ndarray
    measure: str
    nu: float
    domain: tuple[float, float]
    panel_edges: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values))

    def resolution_frequency(self) -> float:
        """Largest oscillation frequency the rule integrates reliably:
        conservatively 2 (p - 2) / width per panel with p nodes."""
        edges = self.panel_edges
        widths = np.diff(edges)
        counts = np.histogram(self.nodes, bins=edges)[0]
        good = counts >= 4
        if not good.any():
            return 0.0
        return float(np.min(2.0 * (counts[good] - 2) / widths[good]))


@lru_cache(maxsize=64)
def _gauss_legendre(n: int):
    """numpy's n-point Gauss-Legendre rule, built once: read-only nodes and weights."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _gl_on_panels(edges: np.ndarray, counts):
    """Gauss-Legendre nodes and weights, counts[i] of them on panel i."""
    rules = [_gauss_legendre(int(p)) for p in counts]
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    return (np.concatenate([m + h * z for m, h, (z, _) in zip(mid, half, rules)]),
            np.concatenate([h * w for h, (_, w) in zip(half, rules)]))


@lru_cache(maxsize=16)
def _gauss_jacobi(n: int, a1: float, b1: float):
    """n-point Gauss rule for (1 - s)^(a1 - 1) (1 + s)^(b1 - 1) on [-1, 1] (a1, b1 > 0)
    by Golub-Welsch, built once: read-only nodes and weights.  The factors that vanish
    as an exponent nears -1 come from a1, b1 exactly when either is 1, so no bit is lost."""
    alpha, beta = a1 - 1.0, b1 - 1.0
    c = min(a1, b1) + (max(a1, b1) - 1.0)   # alpha + beta + 1
    k = np.arange(1.0, n)
    s = 2.0 * k - 1.0 + c
    diag = np.concatenate([[(beta - alpha) / (c + 1.0)],
                           (beta * beta - alpha * alpha) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * (k - 1.0 + a1) * (k - 1.0 + b1) * (k - 1.0 + c)
                  / (s * s * (s + 1.0) * (2.0 * k - 2.0 + c)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mass = math.exp(c * math.log(2.0) + math.lgamma(a1) + math.lgamma(b1)
                    - math.lgamma(c + 1.0))
    weights = mass * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _grid(edges: np.ndarray, n_nodes: int, measure: str, nu: float,
          domain: tuple[float, float]) -> Grid:
    """GL nodes on the panels, at least 12 per panel, with the measure's
    density folded into the weights."""
    density = Measure.of(measure, nu).density
    lengths = np.diff(edges)
    counts = np.maximum(12, np.ceil(lengths / lengths.sum() * n_nodes).astype(int))
    nodes, w = _gl_on_panels(edges, counts)
    return Grid(nodes=nodes, weights=w * density(nodes), measure=measure, nu=nu,
                domain=domain, panel_edges=edges)


def _panel_edges(domain: tuple[float, float], measure: str, nu: float,
                 split_points=()) -> np.ndarray:
    a, b = domain
    edges = {a, b}
    edges.update(s for s in split_points if a < s < b)
    if measure == MEASURE_MU and a == 0.0:
        p = Measure.of(measure, nu).p
        # geometric grading toward the origin where the density is not
        # smooth; a panel (0, h) contributes error like h^p, and integer
        # exponents are integrated exactly, so only fractional powers need
        # the deep grading
        depth = 11 if p.is_integer() else max(11, math.ceil(46.0 / p))
        e = min(2.0**-2, b / 2)
        while e > 2.0**-depth:
            edges.add(e)
            e /= 2
    # keep panels from exceeding unit length
    base = sorted(edges)
    out = [base[0]]
    for right in base[1:]:
        left = out[-1]
        n_sub = max(1, int(math.ceil((right - left) / 0.5)))
        for i in range(1, n_sub):
            out.append(left + (right - left) * i / n_sub)
        out.append(right)
    return np.array(out)


def make_quadrature(domain: str, n_nodes: int, measure: str = MEASURE_MU,
                    nu: float = 0.5, radius: float | None = None,
                    split_points=()) -> Grid:
    """Build a composite GL grid on the unit interval or a truncated half-line.

    domain: 'unit_interval' or 'halfline_truncated' (requires radius > 1).
    n_nodes is a target total; every panel gets at least 12 nodes.
    """
    if n_nodes < 8:
        raise ValueError("n_nodes must be at least 8")
    if domain == "unit_interval":
        dom = (0.0, 1.0)
    elif domain == "halfline_truncated":
        if radius is None or radius <= 1.0:
            raise ValueError("halfline_truncated needs radius > 1")
        dom = (0.0, float(radius))
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return _grid(_panel_edges(dom, measure, nu, split_points), n_nodes,
                 measure, nu, dom)


def grid_on_interval(a: float, b: float, n_nodes: int, measure: str,
                     nu: float) -> Grid:
    """Gauss-Legendre grid on one panel [a, b] (the Duhamel cutoff ramp)."""
    if not (b > a >= 0.0):
        raise ValueError("need 0 <= a < b")
    return _grid(np.array([a, b]), n_nodes, measure, nu, (a, b))


# ---------------------------------------------------------------------------
# sampled functions


@dataclass
class SampledFunction:
    """Function values on a quadrature grid, tagged with the measure the
    weights integrate against. values may carry leading batch axes, shape
    (..., len(grid)); the integrals and norms are for a single input."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-1:] != self.grid.nodes.shape:
            raise ValueError("values shape does not match grid")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def measure(self) -> str:
        return self.grid.measure

    def l1_norm(self) -> float:
        return self.grid.integrate(np.abs(self.values))

    def scaled(self, c: float) -> "SampledFunction":
        return SampledFunction(grid=self.grid, values=c * self.values)
