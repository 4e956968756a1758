"""Series kernels reuse their basis row tables exactly.

`UnitIntervalKernels._rows` keeps the last two raw row tables, keyed by
system, truncation n and the exact points, and hands a kept table out again
instead of building it anew. These tests hold every series kernel and
`dy_poisson_lebesgue`, pointwise and as a matrix, bit for bit to a subclass
that builds fresh rows on every call, over call sequences that hit, miss and
evict kept tables; pin the kept tables to read-only memory and the eviction
to least recently used; and count the row builds of one Uchiyama check.
"""
from functools import lru_cache

import numpy as np
import pytest

from fbhardy.basis import EigenBasis
from fbhardy.covers import DyadicCover, FAMILY_ONE_END
from fbhardy.kernels import _ROWS, SERIES_KERNELS, UnitIntervalKernels
from fbhardy.maximal import HomogeneousSpace, check_uchiyama_conditions
from fbhardy.quadrature import MEASURE_MU
from fbhardy.specfun import Order

from test_atom_table import _counting


class FreshRows(UnitIntervalKernels):
    """The kernels as they were before row reuse: every table built anew."""

    def _rows(self, tag, x, n):
        return _ROWS[tag](self)(x, n)


ORDERS = (-0.3, 0.5, 1.0, 2.5)
KERNELS = (*SERIES_KERNELS, "dy_poisson_lebesgue")
# two Poisson and two heat times with different truncations n on 200 zeros
TIMES = {"poisson": (0.15, 0.6), "heat": (0.005, 0.02)}


@lru_cache(maxsize=None)
def _basis(nu):
    return EigenBasis.build(Order(nu), 200)


def _calls():
    """(time index, x, y): x = y, the same points at a new n, the same n at
    new points, meshes as the Uchiyama checker passes them, and returns to
    points whose tables were evicted in between."""
    rng = np.random.default_rng(7)
    a = np.sort(rng.uniform(0.05, 0.95, 9))
    b, c = rng.uniform(0.05, 0.95, (2, 9))
    xg, yg = np.meshgrid(a, a, indexing="ij")
    _, zg = np.meshgrid(a, c, indexing="ij")
    return [(0, a, a), (1, a, a), (0, a, b), (0, a, c), (0, b, c), (0, a, a),
            (0, xg, yg), (0, xg, zg), (1, xg, yg), (1, c, c), (0, a[3], a[5]),
            (0, a, a)]


def _call(k, name, i, x, y, matrix):
    semigroup = "heat" if name.startswith("heat") else "poisson"
    return getattr(k, name)(TIMES[semigroup][i], x, y, matrix=matrix)


@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("nu", ORDERS)
def test_reused_rows_give_the_values_of_fresh_rows(nu, matrix):
    kept, fresh = UnitIntervalKernels(_basis(nu)), FreshRows(_basis(nu))
    for name in KERNELS:
        for i, x, y in _calls():
            if matrix:
                x, y = np.ravel(x), np.ravel(y)
            got, want = (_call(k, name, i, x, y, matrix) for k in (kept, fresh))
            assert type(got) is type(want), name
            assert np.shape(got) == np.shape(want), name
            assert np.array_equal(got, want), name


def test_kept_tables_are_read_only_and_evicted_least_recent_first():
    k = UnitIntervalKernels(_basis(0.5))
    a, b = np.linspace(0.1, 0.9, 5), np.linspace(0.15, 0.85, 4)
    first = k._rows("phi", a, 6)
    assert k._rows("phi", a.copy(), 6) is first
    k._rows("psi", a, 6)
    assert k._rows("phi", a, 6) is first      # a hit makes it most recent
    k._rows("phi", b, 6)                     # evicts psi, not phi
    assert k._rows("phi", a, 6) is first
    assert k._rows("phi", a, 7) is not first  # a new n is a new table
    assert len(k._tables) == 2
    for table in (first, *k._tables.values()):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    k.poisson_mu(0.15, a, a)   # x = y: one new table
    assert len(k._tables) == 2
    assert not any(t.flags.writeable for t in k._tables.values())


@pytest.mark.parametrize("n_r", [1, 4])
def test_uchiyama_check_builds_at_most_six_tables_per_radius(monkeypatch, n_r):
    """Fresh rows take twelve builds per radius: x and y rows for each of the
    six kernel calls. The diagonal and the table share all their points and
    every shifted call its x points, so a radius needs its x points once and
    the four shifted y points: five builds for one radius. With several
    radii the x table of each radius is evicted before the Lipschitz loop
    comes back to it and is built once more."""
    space = HomogeneousSpace(DyadicCover(FAMILY_ONE_END, zeta=0.02).starred(1, 2),
                             "euclidean", MEASURE_MU, 0.5)
    radii = np.geomspace(0.063, 0.9 * space.sigma_total(), n_r)
    phi, psi = (_counting(monkeypatch, EigenBasis, name)
                for name in ("phi_matrix", "psi_matrix"))
    counts, reports = [], []
    for k in (UnitIntervalKernels(_basis(0.5)), FreshRows(_basis(0.5))):
        phi.clear()
        psi.clear()
        reports.append(check_uchiyama_conditions(k.poisson_mu, space, radii,
                                                 label="unit-mu-1", n_space=6))
        counts.append(len(phi) + len(psi))
    assert reports[0].to_dict() == reports[1].to_dict()
    assert counts[1] == 12 * n_r
    assert counts[0] <= (5 if n_r == 1 else 6 * n_r)
