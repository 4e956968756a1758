"""Pointwise series kernels and the Uchiyama checker against the ravelled code.

The reference functions below are the earlier implementations, kept verbatim
apart from renaming and the tail counts of `dy_poisson_lebesgue`, which
take the kernel's current pointwise bound (xy = 1) for psi and go through
the kernels' one `_n`: `_pointwise`, the pointwise branch of
`UnitIntervalKernels._eval` and of `dy_poisson_lebesgue`, which build basis
rows at every raveled point, and
`check_uchiyama_conditions`, which evaluates each radius's kernel table a
second time for the Lipschitz loop. The current code builds rows once per
distinct point and reuses the table; every value must come out bit for bit
the same.  J at nu = 1/2 is the closed form, held to mpmath by
`test_half_order_j`.
"""
import math
from functools import lru_cache
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy import maximal, specfun
from fbhardy.basis import EigenBasis
from fbhardy.covers import Interval
from fbhardy.errors import NumericsError
from fbhardy.kernels import UnitIntervalKernels, _broadcast
from fbhardy.quadrature import MEASURE_LEBESGUE
from fbhardy.specfun import Order
from test_half_order_j import assert_half_order_j, half_order_zeros_are_n_pi

# ---------------------------------------------------------------------------
# reference: rows at every raveled point, P and Q at every order


def ref_pointwise(weights, rows_x, rows_y):
    return np.einsum("np,np->p", rows_x * weights[:, None], rows_y)


class RefKernels(UnitIntervalKernels):
    def _eval(self, weight_fn, rows_fn_x, rows_fn_y, n, x, y, matrix):
        w = weight_fn(self.basis.table.zeros[:n])
        if matrix:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            y = np.atleast_1d(np.asarray(y, dtype=float))
            return (rows_fn_x(x, n) * w[:, None]).T @ rows_fn_y(y, n)
        xb, yb = _broadcast(x, y)
        shape = xb.shape
        out = ref_pointwise(w, rows_fn_x(xb.ravel(), n), rows_fn_y(yb.ravel(), n))
        return float(out[0]) if shape == () else out.reshape(shape)

    def dy_poisson_lebesgue(self, t, x, y, matrix=False, tol=None):
        tol = self.series_tol if tol is None else tol
        ya = np.atleast_1d(np.asarray(y, dtype=float))
        scale = min(1.0, float(np.min(ya)) / (self.nu + 0.5))
        n = max(self._n("poisson", t, tol, rows="chi"),
                self._n("poisson", t, tol * scale, xy=1.0))
        w = np.exp(-t * self.basis.table.zeros[:n])
        if matrix:
            xa = np.atleast_1d(np.asarray(x, dtype=float))
            psi_x = self.basis.psi_matrix(xa, n)
            p = (psi_x * w[:, None]).T @ self.basis.psi_matrix(ya, n)
            d = (psi_x * w[:, None]).T @ self._chi_matrix(ya, n)
            return (self.nu + 0.5) * p / ya[None, :] - d
        xb, yb = _broadcast(x, y)
        shape = xb.shape
        psi_x = self.basis.psi_matrix(xb.ravel(), n)
        p = ref_pointwise(w, psi_x, self.basis.psi_matrix(yb.ravel(), n))
        d = ref_pointwise(w, psi_x, self._chi_matrix(yb.ravel(), n))
        out = (self.nu + 0.5) * p / yb.ravel() - d
        return float(out[0]) if shape == () else out.reshape(shape)


def ref_check_uchiyama_conditions(kernel_fn, space, r_values, label, n_space=12):
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
    for r in r_values:
        diag = np.asarray(kernel_fn(float(r), pts, pts))
        if np.any(diag <= 0):
            raise NumericsError("uchiyama", f"non-positive diagonal at r={r}")
        a_lower = max(a_lower, float(np.max(1.0 / (r * diag))))
        kmat = np.asarray(kernel_fn(float(r), xg, yg))
        n_samples += kmat.size
        min_kernel = min(min_kernel, float(np.min(kmat)))
        d = space.distance(xg, yg)
        a_size = max(a_size, float(np.max(kmat * r * (1.0 + d / r) ** 2)))

    a0 = max(a_ball, a_lower, a_size)
    a_lip = 0.0
    for r in r_values:
        d = space.distance(xg, yg)
        adm = (r + d) / (4.0 * a0)
        base = np.asarray(kernel_fn(float(r), xg, yg))
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
    return maximal.UchiyamaReport(label=label,
                                  r_range=(float(r_values[0]), float(r_values[-1])),
                                  a_ball=a_ball, a_lower=a_lower, a_size=a_size,
                                  a_lipschitz=a_lip, n_samples=n_samples,
                                  min_kernel=min_kernel)


# ---------------------------------------------------------------------------
# pointwise kernels

ORDERS = (-0.3, 0.5, 1.0, 2.5)


@lru_cache(maxsize=None)
def _pair(nu):
    basis = EigenBasis.build(Order(nu), 200)
    return UnitIntervalKernels(basis), RefKernels(basis)


def _kernel_calls(t, t_heat):
    return {
        "poisson_mu": lambda k, x, y: k.poisson_mu(t, x, y),
        "poisson_lebesgue": lambda k, x, y: k.poisson_lebesgue(t, x, y),
        "heat_mu": lambda k, x, y: k.heat_mu(t_heat, x, y),
        "heat_lebesgue": lambda k, x, y: k.heat_lebesgue(t_heat, x, y),
        "delta_poisson": lambda k, x, y: k.delta_poisson(t, x, y),
        "dy_poisson_lebesgue": lambda k, x, y: k.dy_poisson_lebesgue(t, x, y),
    }


_point = st.floats(0.02, 0.98, allow_nan=False)


@st.composite
def _inputs(draw):
    """(x, y) in one of five shapes; points repeat and come unsorted."""
    kind = draw(st.sampled_from(["mesh", "outer", "scalar", "size1", "repeated"]))
    pool = draw(st.lists(_point, min_size=1, max_size=8))
    pick = lambda size: np.array(draw(st.lists(st.sampled_from(pool),
                                               min_size=size, max_size=size)))
    if kind == "mesh":
        return np.meshgrid(pick(8), pick(8), indexing="ij")
    if kind == "outer":
        k, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        return pick(k)[:, None], pick(m)[None, :]
    if kind == "scalar":
        return np.asarray(pick(1)[0]), np.asarray(pick(1)[0])
    if kind == "size1":
        return pick(1), pick(1)
    size = draw(st.integers(2, 24))
    return pick(size), pick(size)


@settings(max_examples=60, deadline=None)
@given(nu=st.sampled_from(ORDERS), xy=_inputs(),
       t=st.floats(0.12, 1.5), t_heat=st.floats(2e-4, 0.5))
def test_pointwise_kernels_bit_identical(nu, xy, t, t_heat):
    new, ref = _pair(nu)
    x, y = xy
    for name, call in _kernel_calls(t, t_heat).items():
        got, want = call(new, x, y), call(ref, x, y)
        assert type(got) is type(want), name
        assert np.shape(got) == np.shape(want), name
        assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# the Uchiyama checker


@pytest.fixture(scope="module")
def basis_half_600():
    return EigenBasis.build(Order(0.5), 600)


# the pieces whose radius range the 600-zero series floor certifies
SMALL = dict(unit_js=(1, 2, 3, 4), flat_js=(-4, -3, -2, -1, 1, 2, 3, 4),
             n_r=2, n_space=5)


def test_uchiyama_families_equal_reference(basis_half_600):
    got = maximal.uchiyama_families(UnitIntervalKernels(basis_half_600), **SMALL)
    with mock.patch.object(maximal, "check_uchiyama_conditions", ref_check_uchiyama_conditions):
        want = maximal.uchiyama_families(RefKernels(basis_half_600), **SMALL)
    labels = [r.label for r in got]
    assert labels == [r.label for r in want]
    assert {lab.rstrip("-0123456789") for lab in labels} == {"unit-mu", "unit-flat",
                                                         "halfline"}
    assert [r.to_dict() for r in got] == [r.to_dict() for r in want]


def test_uchiyama_checker_six_kernel_calls_per_radius():
    sp = maximal.HomogeneousSpace(Interval(0.0, 1.0), "euclidean",
                                  MEASURE_LEBESGUE, 0.5)
    calls = []

    def gauss(r, x, y):
        calls.append(r)
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.exp(-0.5 * (d / r) ** 2) / (math.sqrt(2.0 * pi) * r)

    radii = [0.05, 0.1, 0.2]
    rep = maximal.check_uchiyama_conditions(gauss, sp, radii, label="gauss",
                                            n_space=25)
    assert all(calls.count(r) <= 6 for r in radii)
    assert set(calls) == set(radii)
    want = ref_check_uchiyama_conditions(gauss, sp, radii, label="gauss",
                                         n_space=25)
    assert rep.to_dict() == want.to_dict()


# ---------------------------------------------------------------------------
# J at nu = 1/2: the closed form, against mpmath


HALF = Order(0.5)


@pytest.mark.parametrize("size", [0, 1, 2, 2**14 + 1])
def test_half_order_j_without_q_sum(size):
    x = np.geomspace(np.nextafter(12.0, 13.0), 1e5, size)
    assert_half_order_j(x)
    assert specfun.bessel_j(HALF, x).shape == specfun.besselj_over_xnu(HALF, x).shape == (size,)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(12.0, 1e5, exclude_min=True), min_size=1, max_size=40))
def test_half_order_j_on_drawn_points(xs):
    assert_half_order_j(np.array(xs))


def test_half_order_zero_table_unchanged():
    half_order_zeros_are_n_pi(specfun.bessel_zeros(HALF, 2400).zeros)
