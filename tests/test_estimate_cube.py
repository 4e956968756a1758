"""Each sharp-estimate and Duhamel kernel value is computed once.

`check_sharp_estimate` scans each grid as one (t, x, y) cube, the refined
grid first, and the base grid's rows are columns of the refined grid's kept
tables; `_heat_and_dy` gives the half-line heat kernel and its y-derivative
from one Gaussian factor and one I_nu; each series floor is bisected once per
kernels object.  These tests hold the reports to the per-time two-scan loop
the cube replaced (kept verbatim below, base grid first, on its own kernels
object), the fused kernels to the two separate calls and the gathered rows
to fresh builds, all bit for bit; and they count the row builds, the
bisections and the `_heat` calls, and check that a dropped kernels object is
collected.
"""
import gc
import json
import math
import weakref
from functools import lru_cache

import numpy as np
import pytest

from fbhardy import kernels
from fbhardy.basis import EigenBasis
from fbhardy.kernels import (_LEMMAS, _ROWS, LEMMA_IDS, UnitIntervalKernels, _heat_and_dy,
                             bessel_heat, check_sharp_estimate, dy_bessel_heat)
from fbhardy.specfun import Order

from test_atom_table import _counting
from test_dispatch_tables import RefRatioScan

ORDERS = (-0.3, 0.5, 1.0, 2.5)


@lru_cache(maxsize=None)
def _basis(nu, n_zeros=400):
    return EigenBasis.build(Order(nu), n_zeros)


# ---------------------------------------------------------------------------
# reference: the per-time scan, base grid first


def ref_scan_lemma(row, kernels_, nu, t_grid, x_grid, y_grid):
    scan = RefRatioScan()
    for t in t_grid:
        t = float(t)
        tol = row.tol(kernels_, t)
        k = row.kernel(kernels_, nu, t, x_grid, y_grid, tol)
        comp = row.comparand(kernels_, nu, t, x_grid[:, None], y_grid[None, :])
        # closed-form kernels only need a guard against underflow
        floor = 1e-280 if row.halfline else \
            1e3 * (kernels_.series_tol if tol is None else tol)
        scan.update(t, x_grid, y_grid, np.asarray(k, dtype=float), comp, floor)
    return scan


def ref_check_sharp_estimate(lemma, kernels_, n_t=14, n_space=18):
    row = _LEMMAS[lemma]
    nu = kernels_.nu
    if row.halfline:
        x_grid = np.geomspace(0.03, 7.5, n_space)
    else:
        inner = np.linspace(0.03, 0.97, n_space)
        x_grid = np.sort(np.concatenate([[0.008], inner, [0.992]]))
    t_grid = row.times(kernels_, x_grid, n_t)
    y_grid = x_grid.copy()

    base = ref_scan_lemma(row, kernels_, nu, t_grid, x_grid, y_grid)
    fine = ref_scan_lemma(row, kernels_, nu, kernels._refine_geometric(t_grid),
                          kernels._refine_linear(x_grid), kernels._refine_linear(y_grid))

    drift_max = fine.rmax / base.rmax - 1.0 if base.rmax > 0 else math.inf
    drift_min = base.rmin / fine.rmin - 1.0 if fine.rmin > 0 else math.inf
    ok = math.isfinite(fine.rmax) and abs(drift_max) <= kernels._DRIFT_TOL
    if row.two_sided:
        ok = ok and fine.rmin > 0 and abs(drift_min) <= kernels._DRIFT_TOL
    return kernels.EstimateReport(
        lemma=lemma, kind="two_sided" if row.two_sided else "upper", nu=nu,
        t_range=(float(t_grid[0]), float(t_grid[-1])),
        n_samples=base.count + fine.count, n_masked=base.masked + fine.masked,
        ratio_min=base.rmin, ratio_max=base.rmax,
        refined_min=fine.rmin, refined_max=fine.rmax,
        drift_min=drift_min, drift_max=drift_max, passed=bool(ok),
        witness_min=base.wmin, witness_max=base.wmax)


# ---------------------------------------------------------------------------
# the cube scans


@pytest.mark.parametrize("nu", ORDERS)
def test_cube_scans_give_the_per_time_reports_bit_for_bit(nu):
    """Every estimate's report, witnesses included, equals the per-time
    loop's on a kernels object of its own, to the last bit (json keeps the
    sign of a zero and every digit of a float)."""
    got_k, want_k = UnitIntervalKernels(_basis(nu)), UnitIntervalKernels(_basis(nu))
    for lemma in LEMMA_IDS:
        got = check_sharp_estimate(lemma, kernels=got_k, nu=nu)
        want = ref_check_sharp_estimate(lemma, want_k)
        assert got.witness_max and got.witness_min, lemma
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), lemma


def test_the_eight_estimates_bisect_three_floors_build_five_tables_and_call_heat_four_times(
        monkeypatch):
    """A floor is bisected once per kernels object (Poisson, heat and the
    derivative one: 5 bisections when each estimate made its own); the
    refined grid's tables serve the base grid (5 builds, 14 before); and a
    half-line estimate is one kernel call per grid (41 calls each before)."""
    counts = {name: _counting(monkeypatch, owner, name) for owner, name in (
        (EigenBasis, "_min_time"), (EigenBasis, "phi_matrix"), (EigenBasis, "psi_matrix"),
        (UnitIntervalKernels, "_chi_matrix"), (kernels, "_heat"))}
    k = UnitIntervalKernels(_basis(1.0))
    for lemma in LEMMA_IDS:
        check_sharp_estimate(lemma, kernels=k, nu=1.0)
    builds = sum(len(counts[name]) for name in ("phi_matrix", "psi_matrix", "_chi_matrix"))
    assert (len(counts["_min_time"]), builds, len(counts["_heat"])) == (3, 5, 4)


def test_an_estimate_with_no_comparand_above_its_floor_reports_no_ratio():
    """An empty scan keeps the loop's initial extremes and no witness."""
    k = UnitIntervalKernels(_basis(0.5))
    row = _LEMMAS["heat-large-t"]._replace(comparand=lambda k, nu, t, x, y: 0.0 * t * x * y)
    t, x = np.geomspace(1.0, 6.0, 3), np.linspace(0.1, 0.9, 4)
    scan = kernels._scan_lemma(row, k, 0.5, t, x, x)
    assert scan == (math.inf, -math.inf, {}, {}, 0, 48)


# ---------------------------------------------------------------------------
# the heat kernel and its y-derivative from one I_nu


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("nu", (*ORDERS, 20.0))
def test_fused_heat_rows_are_the_two_kernels_bit_for_bit(nu):
    """Rows 0 and 1 of `_heat_and_dy` are bessel_heat and dy_bessel_heat
    over broadcast shapes, at x or y = 0 or inf, where the Gaussian
    underflows, on both I routes (u <= 30 and u > 30; at nu = 20 the scaled
    one is bessel_i_scaled), at times below s_safe and at scalars."""
    x = np.concatenate([[0.0, np.inf, 1e-3], np.geomspace(0.01, 8.0, 9)])
    t = np.geomspace(1e-4, 10.0, 6)[:, None, None]
    with np.errstate(invalid="ignore"):   # 0 inf and inf - inf: NaN, not a case
        u = x[:, None] * x[None, :] / (2.0 * t)
        gauss = (x[:, None] - x[None, :]) ** 2 / (4.0 * t)
    assert np.any(u <= 30.0) and np.any(np.isfinite(u) & (u > 30.0))
    assert np.any(np.isfinite(gauss) & (gauss > 746.0))   # exp underflows there
    cases = [(t, x[:, None], x[None, :]), (t[:, :, 0], x, x[::-1]), (0.3, 2.0, 0.5),
             (1e-3, 0.0, np.inf), (1e-300, x[3:], 0.02), (2.0, x, 0.0)]
    for args in cases:
        with np.errstate(all="ignore"):
            both = _heat_and_dy(nu, *args)
            heat, dy = bessel_heat(nu, *args), dy_bessel_heat(nu, *args)
        assert _same_bits(both[0], heat) and _same_bits(both[1], dy), np.shape(heat)
        assert both.shape == (2,) + np.shape(heat)
    assert np.any(both[0] > 0)


# ---------------------------------------------------------------------------
# base rows gathered from the refined tables


@pytest.mark.parametrize("nu", ORDERS)
def test_sub_grid_rows_are_read_only_columns_of_a_kept_table(monkeypatch, nu):
    """Points among a kept table's, with its two ends, get its columns at
    any n it covers: a fresh build's bits, read-only, and not kept.  Other
    ends, a point outside the table or a larger n build fresh."""
    base = np.sort(np.concatenate([[0.008], np.linspace(0.03, 0.97, 6), [0.992]]))
    fine = kernels._refine_linear(base)
    moved = base.copy()
    moved[3] = np.nextafter(moved[3], 1.0)
    some = np.concatenate([fine[:1], np.sort(np.random.default_rng(5).choice(
        fine[1:-1], 7, replace=False)), fine[-1:]])
    k = UnitIntervalKernels(_basis(nu))   # _ROWS[tag](k) builds, bypassing k's tables
    fresh = {tag: (_ROWS[tag](k)(base, 40), _ROWS[tag](k)(some, 30)) for tag in _ROWS}
    builds = [_counting(monkeypatch, owner, name) for owner, name in (
        (EigenBasis, "phi_matrix"), (EigenBasis, "psi_matrix"),
        (UnitIntervalKernels, "_chi_matrix"))]

    def n_builds():
        return sum(map(len, builds))

    for i, tag in enumerate(("phi", "psi", "chi")):
        k._rows(tag, fine, 40)
        kept = [(key, id(table)) for key, table in k._tables.items()]
        for x, n, want in ((base, 40, fresh[tag][0]), (base, 17, fresh[tag][0][:17]),
                           (base, 1, fresh[tag][0][:1]), (some, 30, fresh[tag][1])):
            rows = k._rows(tag, x, n)
            assert _same_bits(rows, want) and not rows.flags.writeable, (tag, n)
        assert n_builds() == i + 1
        assert [(key, id(table)) for key, table in k._tables.items()] == kept
    for x, n in ((base[1:], 20), (base[:-1], 20), (moved, 20), (base, 41)):
        k = UnitIntervalKernels(_basis(nu))
        k._rows("psi", fine, 40)
        before = n_builds()
        assert _same_bits(k._rows("psi", x, n), _ROWS["psi"](k)(x, n))
        assert n_builds() == before + 2   # the request and the check: no gather


# ---------------------------------------------------------------------------
# floors once per kernels object, and no object kept alive


def test_each_floor_is_bisected_once_per_kernels_object(monkeypatch):
    bisections = _counting(monkeypatch, EigenBasis, "_min_time")
    k = UnitIntervalKernels(_basis(0.5))
    floors = (k.floor("poisson"), k.floor("heat"), k.derivative_floor(0.008, 0.008))
    assert len(bisections) == 3
    assert (k.floor("poisson"), k.floor("heat"), k.derivative_floor(0.008, 0.008)) == floors
    assert len(bisections) == 3
    k.derivative_floor(0.03, 0.03)             # another grid: its own floor
    assert len(bisections) == 4
    other = UnitIntervalKernels(k.basis)
    assert other.floor("poisson") == floors[0]  # another object bisects again
    assert len(bisections) == 5


def test_a_dropped_kernels_object_is_collected():
    """The floors and tables live on the object, not in a cache that would
    keep it (and its row tables) alive."""
    k = UnitIntervalKernels(_basis(1.0))
    for lemma in LEMMA_IDS:
        check_sharp_estimate(lemma, kernels=k, nu=1.0, n_t=4, n_space=5)
    gone = weakref.ref(k)
    del k
    gc.collect()
    assert gone() is None
