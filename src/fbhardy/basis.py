"""Orthonormal Fourier-Bessel eigensystems on (0, 1).

For order nu > -1/2 and the n-th positive zero lam_n of J_nu, the functions

    phi_n(x) = c_n J_nu(lam_n x) x^-nu,        c_n = sqrt(2) / |J_{nu+1}(lam_n)|,

form an orthonormal basis of L^2((0,1), x^(2nu+1) dx); the conjugated system
psi_n = x^(nu+1/2) phi_n is orthonormal in plain L^2(0, 1).  The prefactor
c_n is forced by the classical norm identity
int_0^1 J_nu(lam_n x)^2 x dx = J_{nu+1}(lam_n)^2 / 2 and is verified here by
quadrature at construction time.

The basis also certifies every series tail the kernel evaluators truncate
(`terms_needed`), from the multipliers in SEMIGROUPS, a margin M with
c_n <= M sqrt(pi lam_n) checked on the whole table, and
s_rho = sup_z sqrt(z) |J_rho(z)| for rho = nu, nu + 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericsError
from .quadrature import SampledFunction, make_quadrature, MEASURE_MU
from . import specfun
from .specfun import BesselZeroTable, Order

_NORM_CHECK_MODES = 64   # quadrature norm check capped here; higher modes rely
                         # on the classical identity, which tests probe directly
_NORM_CHECK_NODES = 1024   # least node count of the norm-check grid
_NORM_TOL = 1e-8           # largest |norm - 1| the build accepts


class Semigroup(NamedTuple):
    weight: Callable      # (lam_n, t) -> multiplier of the n-th term
    log_ratio: Callable   # (lam, t, d) -> bound on log weight(lam + e) / weight(lam), e >= d
    t_lo: float           # where the bisection for the smallest certified time starts
    advice: str = ""      # ends the message of a refused tail count


# semigroup -> its multiplier and decay, for the series and their tail counts
SEMIGROUPS = {
    "poisson": Semigroup(lambda lam, t: np.exp(-t * lam), lambda lam, t, d: -t * d, 1e-8,
                         "; enlarge the zero table or raise t"),
    "heat": Semigroup(lambda lam, t: np.exp(-t * lam**2),
                      lambda lam, t, d: -2.0 * t * lam * d, 1e-10),
}


def _sup_sqrtz_j(order: Order) -> float:
    """Numerical sup of sqrt(z)|J_nu(z)|, with a safety margin.

    Beyond the scan window the envelope sqrt(2/pi)(1 + O(1/z)) applies, so the
    max over [grid, asymptotic envelope] inflated by 2 percent is a safe desk
    constant.  For |nu| <= 1/2, z (J_nu^2 + Y_nu^2) rises to 2/pi (Watson
    section 13.74, with M_{-nu} = M_nu), so the scan never reaches the
    envelope and is skipped."""
    envelope = math.sqrt(2.0 / math.pi) * 1.01
    if abs(order.nu) <= 0.5:
        return 1.02 * envelope
    z = np.linspace(1e-3, 260.0, 26000)
    return 1.02 * max(float(np.max(np.sqrt(z) * np.abs(specfun.bessel_j(order, z)))), envelope)


@dataclass(frozen=True)
class EigenBasis:
    order: Order
    table: BesselZeroTable
    norm_constants: np.ndarray
    c_margin: float
    s_nu: float
    s_nu1: float

    def __post_init__(self):
        self.norm_constants.setflags(write=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, order: Order, n_zeros: int, zero_tol: float = 1e-12) -> "EigenBasis":
        table = specfun.bessel_zeros(order, n_zeros, zero_tol=zero_tol)
        if np.any(np.diff(table.zeros) < math.pi * cls._THETA):   # the tail bounds' premise
            raise NumericsError("eigenbasis", "zeros closer than pi theta: tails not certifiable")
        jnext = np.abs(specfun._j(Order(order.nu + 1.0), table.zeros))
        if np.any(jnext == 0.0):
            raise NumericsError("eigenbasis", "J_{nu+1} vanishes at a computed zero")
        c = math.sqrt(2.0) / jnext
        margin = float(np.max(c / np.sqrt(math.pi * table.zeros)))
        if margin > 2.0:
            raise NumericsError("eigenbasis",
                                f"norm-constant margin {margin:.3f} too large for tail bounds")
        basis = cls(order=order, table=table, norm_constants=c,
                    c_margin=1.05 * margin, s_nu=_sup_sqrtz_j(order),
                    s_nu1=_sup_sqrtz_j(Order(order.nu + 1.0)))
        errors = basis.norm_check_errors
        if errors[worst := int(np.argmax(errors))] > _NORM_TOL:
            raise NumericsError("eigenbasis", f"unit-norm quadrature check failed at nu = "
                                f"{order.nu:g}, n_zeros = {n_zeros}: mode {worst + 1} of "
                                f"{len(errors)} is off by {errors[worst]:.3e}")
        return basis

    @functools.cached_property
    def norm_check_errors(self) -> np.ndarray:
        """|norm - 1| of the first modes by quadrature against mu. Panels of
        at most a sixteenth of the nodes (64 of 1024 while lam_64 <= 96 pi)
        keep numpy's O(p^3) p-node Gauss-Legendre rules small."""
        n_check = min(len(self), _NORM_CHECK_MODES)
        # resolve the fastest oscillation: ~10 nodes per period of J_nu(lam x)
        nodes = max(_NORM_CHECK_NODES,
                    int(10 * self.table.zeros[n_check - 1] / math.pi) + 64)
        grid = make_quadrature("unit_interval", nodes, MEASURE_MU, self.nu,
                               split_points=np.arange(1, 16) / 16)
        phi = self.phi_matrix(grid.nodes, n_check)
        return np.abs((phi * phi) @ grid.weights - 1.0)

    # -- basic data ----------------------------------------------------------

    @property
    def nu(self) -> float:
        return self.order.nu

    def __len__(self) -> int:
        return len(self.table.zeros)

    def phi_matrix(self, x, n: int | None = None, out=None) -> np.ndarray:
        """Rows phi_1 .. phi_n sampled at x (shape (n, len(x))), built in out if given."""
        n = len(self) if n is None else n
        x = np.ravel(np.asarray(x, dtype=float))
        lam = self.table.zeros[:n]
        rows = np.multiply.outer(lam, x, out=out)
        specfun.besselj_over_xnu(self.order, rows, out=rows)
        rows *= (self.norm_constants[:n] * lam**self.nu)[:, None]
        return rows

    def psi_matrix(self, x, n: int | None = None, out=None) -> np.ndarray:
        """Rows of the conjugated (Lebesgue-orthonormal) system
        psi_n(x) = c_n sqrt(x) J_nu(lam_n x), built in out if given."""
        n = len(self) if n is None else n
        x = np.ravel(np.asarray(x, dtype=float))
        lam = self.table.zeros[:n]
        rows = np.multiply.outer(lam, x, out=out)
        specfun.bessel_j(self.order, rows, out=rows)
        return scale_rows(rows, self.norm_constants[:n], np.sqrt(x))

    # -- certified series tails ----------------------------------------------
    #
    # With theta = 0.9 the spacing lam_{n+k} >= lam_n + k pi theta holds for
    # every order nu > -1/2 (the table is checked at build time).  A term
    # |phi_n(x) phi_n(y)| is bounded two ways, with c_n <= M sqrt(pi lam_n):
    #   point-free, sup_x |phi_n(x)| <= c_n lam_n^nu / (2^nu Gamma(nu+1)):
    #     M^2 pi lam_n^(2nu+1) / (2^nu Gamma(nu+1))^2;
    #   pointwise, |J_nu(z)| <= s_nu z^(-1/2), at x y >= xy:
    #     M^2 pi s_nu^2 xy^(-nu-1/2),
    # and psi_n = x^(nu+1/2) phi_n makes the pointwise one M^2 pi s_nu^2 (xy = 1);
    # |chi_n(x) psi_n(y)| <= K lam_n, K = M^2 pi s_nu s_{nu+1}.  Times the
    # semigroup's weight, the tail past index n is bounded by a geometric series
    # whose first term (the smaller bound) and ratio q_n (exp of the weight's
    # log_ratio over one spacing plus p pi theta / lam_n, p = 2nu + 1 or 1 for
    # chi) are computed for every n at once.  The truncation index is the first
    # n whose bound falls below tol.

    _THETA = 0.9

    def _global_coeff(self) -> float:
        g = 2.0**self.nu * math.gamma(self.nu + 1.0)
        return (self.c_margin**2) * math.pi / g**2

    @functools.cached_property
    def _point_free_coeff(self) -> np.ndarray:
        return self._global_coeff() * self.table.zeros ** (2 * self.nu + 1)

    def _first_coeff(self, xy: float | None) -> np.ndarray:
        """Bound on |phi_n(x) phi_n(y)| at x y >= xy; point-free if xy is None."""
        coeff = self._point_free_coeff
        if xy is not None and xy > 0:
            with np.errstate(over="ignore"):   # inf at tiny xy: point-free there
                local = self.c_margin**2 * math.pi * self.s_nu**2 \
                    * np.float64(xy) ** (-self.nu - 0.5)
            coeff = np.minimum(coeff, local)
        return coeff

    def terms_needed(self, semigroup: str, t: float, tol: float,
                     xy: float | None = None, rows: str = "phi") -> int:
        """Smallest N so the tail past N of sum weight(lam_n, t) |chi_n psi_n|
        (rows "chi") or |phi_n(x) phi_n(y)| at x y >= xy (anywhere if None)
        is below tol; a NumericsError if the table cannot certify it."""
        if t <= 0:
            raise ValueError("t must be positive")
        lam, sg = self.table.zeros, SEMIGROUPS[semigroup]
        pt = math.pi * self._THETA
        if rows == "chi":
            coeff, p = self.c_margin**2 * math.pi * self.s_nu * self.s_nu1 * lam, 1
            operation, advice = "gradient_kernel", ""
        else:
            coeff, p = self._first_coeff(xy), 2 * self.nu + 1
            operation, advice = f"{semigroup}_kernel", sg.advice
        q = np.exp(sg.log_ratio(lam, t, pt) + p * pt / lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (q < 1.0) & (coeff * sg.weight(lam, t) / (1.0 - q) < tol)
        n = int(ok.argmax())
        if not ok[n]:
            raise NumericsError(operation, f"tail not certified at t={t:.3e} with "
                                f"table of {len(lam)} zeros{advice}")
        return n

    def _min_time(self, terms_needed, tol: float, lo: float) -> float:
        """Smallest t in [lo, 10] at which terms_needed(t, tol) certifies,
        located by 60 geometric bisection steps."""
        def ok(t):
            try:
                terms_needed(t, tol)
                return True
            except NumericsError:
                return False
        if ok(lo):
            return lo
        hi = 10.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi


def scale_rows(rows: np.ndarray, row_scale, col_scale) -> np.ndarray:
    """rows *= row_scale[:, None] * col_scale, the factor made _CHUNK elements at a time."""
    step = max(1, specfun._CHUNK // max(rows.shape[1], 1))
    for lo in range(0, len(rows), step):
        rows[lo:lo + step] *= np.multiply.outer(row_scale[lo:lo + step], col_scale)
    return rows


# ---------------------------------------------------------------------------
# coefficients


def coefficients(f: SampledFunction, basis: EigenBasis,
                 n_max: int | None = None) -> np.ndarray:
    """All coefficients up to n_max in the system matching f's measure tag,
    truncated at the grid's resolvable frequency so unresolved modes are not
    polluted by quadrature noise (they are returned as exact zeros). A batch
    f (values of shape (..., len(grid))) gives shape (..., n_max) from one
    row build and one product."""
    n_max = len(basis) if n_max is None else n_max
    lam = basis.table.zeros[:n_max]
    resol = f.grid.resolution_frequency()
    n_ok = int(np.searchsorted(lam, resol))
    n_ok = min(max(n_ok, 1), n_max)
    mat = (basis.phi_matrix(f.nodes, n_ok) if f.measure == MEASURE_MU
           else basis.psi_matrix(f.nodes, n_ok))
    batch = (f.grid.weights * f.values).reshape(-1, len(f.grid))
    out = np.zeros(f.values.shape[:-1] + (n_max,))
    out[..., :n_ok] = (mat @ batch.T).T.reshape(out.shape[:-1] + (n_ok,))
    return out
