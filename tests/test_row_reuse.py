"""Series kernels reuse their basis row tables exactly.

`UnitIntervalKernels._rows` keeps the last two raw row tables, keyed by
system and the exact points, and hands out the prefix view table[:n] for a
truncation n the kept table covers, so one build serves a whole scan of
times. These tests hold every series kernel and `dy_poisson_lebesgue`,
pointwise and as a matrix, bit for bit to a subclass that builds fresh rows
on every call, over call sequences that hit, miss and evict kept tables; pin
the kept tables and their prefixes to read-only views, growth to a rebuild
that replaces the table, and the eviction to least recently used; check that
a new table is built in the memory of the one it evicts, unless a view of
that one is still held; hold the prefixes that the shipped callers read,
and any prefix of any table, to fresh builds at their n, and J at each
argument of a table to J at that argument alone; and count the row builds
of one Uchiyama check and of the Duhamel residual kernels.
"""
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy import maximal
from fbhardy.basis import EigenBasis
from fbhardy.covers import DyadicCover, FAMILY_ONE_END
from fbhardy.kernels import (_LEMMAS, _ROWS, SERIES_KERNELS, UnitIntervalKernels,
                             check_sharp_estimate)
from fbhardy.maximal import (CutoffRho, HomogeneousSpace, check_uchiyama_conditions,
                             duhamel_residual_kernels, uchiyama_families)
from fbhardy.quadrature import MEASURE_MU
from fbhardy.specfun import Order, bessel_j

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
def _basis(nu, n_zeros=200):
    return EigenBasis.build(Order(nu), n_zeros)


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


def test_kept_tables_are_read_only_and_evicted_least_recent_first(monkeypatch):
    phi, psi = (_counting(monkeypatch, EigenBasis, name)
                for name in ("phi_matrix", "psi_matrix"))
    k = UnitIntervalKernels(_basis(0.5))
    a, b = np.linspace(0.1, 0.9, 5), np.linspace(0.15, 0.85, 4)
    full = k._rows("phi", a, 6)
    table = full.base                          # the memory the kept table lives in
    assert full.shape == (6, 5) and table.shape == (30,)
    prefix = k._rows("phi", a.copy(), 4)      # the same points, a smaller n
    assert prefix.base is table and prefix.shape == (4, 5)
    assert prefix.flags.c_contiguous and not prefix.flags.writeable
    assert np.array_equal(prefix, full[:4])
    psi_table = k._rows("psi", a, 6).base
    assert k._rows("phi", a, 6).base is table  # a hit makes it most recent
    b_table = k._rows("phi", b, 6).base        # evicts psi, not phi
    assert not any(t.base is psi_table for t in k._tables.values())
    assert k._rows("phi", a, 5).base is table
    grown = k._rows("phi", a, 9)               # a larger n rebuilds and replaces
    assert grown.base is not table and grown.shape == (9, 5)
    assert np.array_equal(grown[:6], full)
    assert not any(t.base is table for t in k._tables.values())
    assert k._rows("phi", b, 3).base is b_table
    assert k._rows("phi", a, 7).base is grown.base
    assert len(k._tables) == 2
    assert (len(phi), len(psi)) == (3, 1)
    for rows in (full, prefix, grown, *k._tables.values()):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
    k.poisson_mu(0.15, a, a)   # x = y: one new table
    assert len(k._tables) == 2
    assert not any(t.flags.writeable for t in k._tables.values())


def _stores(k):
    """Weak references to the memory of the kept tables: a strong one would
    keep `_rows` from recycling it, and an id can come back on new memory."""
    return [weakref.ref(t.base) for t in k._tables.values()]


def _kept_in(k, stores) -> bool:
    """Whether every kept table of k lives in one of the stores."""
    return all(any(t.base is store() for store in stores) for t in k._tables.values())


class _Requests(FreshRows):
    """Fresh rows, the n of every request logged."""

    def __init__(self, basis):
        super().__init__(basis)
        self.ns = []

    def _rows(self, tag, x, n):
        self.ns.append(n)
        return super()._rows(tag, x, n)


@pytest.mark.parametrize("nu", ORDERS)
def test_recycled_storage_gives_the_values_of_fresh_rows(nu):
    """Once two tables of the largest n are kept, each new table is built in
    the memory of the one it evicts: a pointwise call, a matrix call whose y
    side evicts the table the pointwise x side read, and the calls that
    follow (every system, both modes) equal fresh rows bit for bit, with no
    new memory.  The first call, at half the others' time, asks for the
    largest n, which each call checks."""
    kept, fresh = UnitIntervalKernels(_basis(nu)), _Requests(_basis(nu))
    rng = np.random.default_rng(11)
    a, b, c, d = (np.sort(rng.uniform(0.05, 0.95, 8)) for _ in range(4))
    for k in (kept, fresh):
        k.poisson_mu(TIMES["poisson"][0] / 2, a, b)
    largest, stores = max(fresh.ns), _stores(kept)
    assert len(stores) == 2
    calls = [("poisson_mu", a, b, False), ("poisson_mu", b, c, True),
             ("poisson_mu", d, a, False), ("heat_mu", c, d, True),
             ("poisson_lebesgue", a, b, False), ("delta_poisson", c, a, True),
             ("dy_poisson_lebesgue", b, d, False), ("dy_poisson_lebesgue", a, c, True),
             ("poisson_mu", c, a[3], False)]
    for name, x, y, matrix in calls:
        fresh.ns.clear()
        got, want = (_call(k, name, 0, x, y, matrix) for k in (kept, fresh))
        assert max(fresh.ns) <= largest, (name, matrix)
        assert np.array_equal(got, want), (name, matrix)
        assert len(kept._tables) == 2 and _kept_in(kept, stores), (name, matrix)


def test_a_held_prefix_keeps_its_values_when_its_table_is_evicted():
    """A prefix view still held outside keeps its memory: the table that
    evicts its table is built in new memory."""
    k = UnitIntervalKernels(_basis(0.5))
    a, b, c = np.linspace(0.1, 0.9, 5), np.linspace(0.15, 0.85, 5), np.linspace(0.2, 0.8, 5)
    held = k._rows("phi", a, 6)
    want = held.copy()
    k._rows("phi", b, 6)
    k._rows("phi", c, 6)                        # evicts a's table
    assert not any(t.base is held.base for t in k._tables.values())
    assert np.array_equal(held, want)
    del held
    store = _stores(k)[0]
    k._rows("psi", a, 6)                        # evicts b's table, held by no one
    assert any(t.base is store() for t in k._tables.values())


@pytest.mark.parametrize("n_r", [1, 4, 7])
def test_uchiyama_check_builds_at_most_six_tables_per_radius(monkeypatch, n_r):
    """Fresh rows take twelve builds per radius: x and y rows for each of the
    six kernel calls. The diagonal and the table share all their points and
    every shifted call its x points; the radii run upward, so the first
    radius asks for the largest truncation and the x rows are built once for
    all radii. Each radius then builds its four shifted y point sets: 1 + 4
    n_r builds."""
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
    assert counts[0] == 1 + 4 * n_r


def _duhamel_kernels(k):
    """duhamel_residual_kernels as `fbhardy duhamel` calls it."""
    xg = np.linspace(0.05, 0.45, 7)
    return duhamel_residual_kernels(k.basis, k, CutoffRho.build(0.02), 0.3, xg, xg)


def test_duhamel_residual_kernels_build_each_row_table_once(monkeypatch):
    """The s nodes run upward, so the first heat_mu call asks for the largest
    truncation and one table at the ramp nodes and one at the grid serve all
    of them; fresh rows build both at almost every node."""
    kept, fresh = (cls(_basis(1.0, 2400)) for cls in (UnitIntervalKernels, FreshRows))
    phi, psi = (_counting(monkeypatch, EigenBasis, name)
                for name in ("phi_matrix", "psi_matrix"))
    got = _duhamel_kernels(kept)
    assert len(phi) + len(psi) <= 2
    want = _duhamel_kernels(fresh)
    assert len(phi) + len(psi) > 2
    for r_got, r_want in zip(got, want, strict=True):
        assert np.array_equal(r_got, r_want)


class _Recording(UnitIntervalKernels):
    """Kept rows, each request logged with the rows it got."""

    def __init__(self, basis):
        super().__init__(basis)
        self.log = []

    def _rows(self, tag, x, n):
        rows = super()._rows(tag, x, n)
        self.log.append((tag, x.copy(), n, rows))
        return rows


def _shipped_row_requests(monkeypatch, k):
    """The row requests of the shipped callers on k: the unit-interval
    estimate scans at n_space=18 (the base and the refined x grid), the
    Duhamel residual kernels (the 48 ramp nodes and the 7-point grid), and
    the Uchiyama checks of `fbhardy uchiyama` at their inner points and
    radii (the diagonal call; the table call reads the same rows)."""
    for lemma, row in _LEMMAS.items():
        if not row.halfline:
            check_sharp_estimate(lemma, kernels=k, n_space=18)
    _duhamel_kernels(k)

    def diagonal(kernel_fn, space, r_values, label, n_space):
        if label.startswith("unit"):
            pts = space.inner_points(n_space)
            for r in r_values:
                kernel_fn(float(r), pts, pts)
    monkeypatch.setattr(maximal, "check_uchiyama_conditions", diagonal)
    # at nu >= 1 the series floor of 2400 zeros is too high for piece 6
    unit_js = (1, 2, 3, 4, 5, 6) if k.nu < 1 else (1, 2, 3, 4, 5)
    uchiyama_families(k, zeta=0.02, unit_js=unit_js, n_r=5, n_space=8)
    return k.log


@pytest.mark.parametrize("nu", ORDERS)
def test_prefixes_the_shipped_callers_read_equal_fresh_builds(monkeypatch, nu):
    """Every truncation the shipped callers request at their point sets: the
    prefix of a table built at the largest of them, and the rows handed out,
    equal a fresh build at that n bit for bit."""
    k = _Recording(_basis(nu, 2400))
    groups = {}
    for tag, x, n, rows in _shipped_row_requests(monkeypatch, k):
        groups.setdefault((tag, x.tobytes()), (x, []))[1].append((n, rows))
    assert {len(x) for x, _ in groups.values()} == {7, 8, 20, 39, 48}
    for (tag, _), (x, requests) in groups.items():
        whole = _ROWS[tag](k)(x, max(n for n, _ in requests))
        for n in {n for n, _ in requests}:
            assert np.array_equal(whole[:n], _ROWS[tag](k)(x, n)), (tag, len(x), n)
        for n, rows in requests:
            assert np.array_equal(rows, whole[:n]), (tag, len(x), n)


@pytest.mark.parametrize("nu", ORDERS)
def test_prefixes_equal_fresh_builds_at_every_point(nu):
    """Every Bessel sum stops per element, so every prefix of a table equals
    a fresh build at its n, x = 1.0 included: there lam_k * 1.0 is a computed
    zero of J and the phi and psi rows are rounding noise, which a stop
    shared by the whole array moved by up to 2e-19."""
    k = UnitIntervalKernels(_basis(nu))
    x = np.append(np.geomspace(0.021, 0.979, 13), 1.0)
    for tag in _ROWS:
        whole = _ROWS[tag](k)(x, len(k.basis))
        for n in range(1, len(k.basis) + 1):
            assert np.array_equal(whole[:n], _ROWS[tag](k)(x, n)), (tag, n)


def test_chi_prefix_equals_a_fresh_build_at_order_seven_and_a_half():
    """At nu = 7.5 the chi row at x = 0.8627 (argument 16.32 of J_8.5) of
    an 8-row build was an ulp off the prefix of a 400-row build, whose
    series range also held the larger arguments of the 0.25 column."""
    k = UnitIntervalKernels(_basis(7.5, 400))
    x = np.array([0.25, 0.8627])
    assert np.array_equal(_ROWS["chi"](k)(x, 400)[:8], _ROWS["chi"](k)(x, 8))


@settings(max_examples=30, deadline=None)
@given(nu=st.sampled_from(ORDERS + (7.5,)), tag=st.sampled_from(sorted(_ROWS)),
       x=st.lists(st.one_of(st.just(1.0), st.floats(0.01, 1.0)), min_size=1, max_size=6),
       sizes=st.tuples(st.integers(1, 200), st.integers(1, 200)))
def test_any_prefix_equals_a_fresh_build_and_j_is_pointwise(nu, tag, x, sizes):
    """Any prefix of any row table equals a fresh build at any point set,
    and J at each argument of a row table equals J at that argument alone."""
    k, x = UnitIntervalKernels(_basis(nu)), np.array(x)
    n, m = sorted(sizes)
    assert np.array_equal(_ROWS[tag](k)(x, m)[:n], _ROWS[tag](k)(x, n))
    order = Order(nu + 1.0 if tag == "chi" else nu)
    args = np.multiply.outer(k.basis.table.zeros[:m], x).ravel()
    got = bessel_j(order, args)
    assert all(g == bessel_j(order, a) for g, a in zip(got.tolist(), args.tolist()))
