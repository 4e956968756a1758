"""The kernel and estimate tables against the branch chains they replaced.

`ref_scan_lemma` and `ref_check_sharp_estimate` are the earlier if/elif
implementations, kept verbatim apart from renaming and module prefixes, and
`RefRatioScan` the per-time extreme tracker they fed.  Every report must come
out equal, float for float, from the `_LEMMAS` rows.
"""
import inspect
import math

import numpy as np
import pytest

from fbhardy import cli, kernels
from fbhardy.basis import EigenBasis
from fbhardy.errors import NumericsError
from fbhardy.kernels import (HALFLINE_KERNELS, LEMMA_IDS, SERIES_KERNELS,
                             UnitIntervalKernels, check_sharp_estimate)
from fbhardy.maximal import apply_halfline
from fbhardy.quadrature import SampledFunction, make_quadrature, MEASURE_MU
from fbhardy.specfun import Order

# ---------------------------------------------------------------------------
# reference: one branch per estimate


REF_TWO_SIDED = {"sharp-P": True, "sharp-Pmu": True, "grad-P": False,
                 "dy-P": False, "heat-gauss": False, "heat-large-t": True,
                 "bessel-heat-gauss": False, "dy-bessel-heat": False}


def ref_unit_space_grid(n: int = 18) -> np.ndarray:
    inner = np.linspace(0.03, 0.97, n)
    return np.sort(np.concatenate([[0.008], inner, [0.992]]))


def ref_halfline_space_grid(n: int = 16) -> np.ndarray:
    return np.geomspace(0.03, 7.5, n)


class RefRatioScan:
    """Tracks extreme kernel/comparand ratios with their witnesses.

    Pairs whose comparand sits below a floor are skipped and counted: there
    the bound is numerically vacuous (both sides are under the accuracy of
    the kernel evaluation, or underflow outright)."""

    def __init__(self):
        self.rmin = math.inf
        self.rmax = -math.inf
        self.wmin = {}
        self.wmax = {}
        self.count = 0
        self.masked = 0

    def update(self, t, xg, yg, kernel, comparand, floor):
        valid = comparand > floor
        self.masked += int(np.sum(~valid))
        if not np.any(valid):
            return
        ratio = np.where(valid, kernel / np.where(valid, comparand, 1.0), np.nan)
        self.count += int(np.sum(valid))
        if not np.all(np.isfinite(ratio[valid])):
            bad = np.argwhere(valid & ~np.isfinite(ratio))[0]
            raise NumericsError(
                "sharp_estimate",
                f"non-finite ratio at t={t}, x={xg[bad[0]]}, y={yg[bad[1]]}")
        def witness(i, j):
            return {"t": float(t), "x": float(xg[i]), "y": float(yg[j]),
                    "kernel": float(kernel[i, j]),
                    "comparand": float(comparand[i, j]), "ratio": float(ratio[i, j])}
        i, j = np.unravel_index(np.nanargmin(ratio), ratio.shape)
        if ratio[i, j] < self.rmin:
            self.rmin, self.wmin = float(ratio[i, j]), witness(i, j)
        i, j = np.unravel_index(np.nanargmax(ratio), ratio.shape)
        if ratio[i, j] > self.rmax:
            self.rmax, self.wmax = float(ratio[i, j]), witness(i, j)


def ref_scan_lemma(lemma, kernels_, nu, t_grid, x_grid, y_grid):
    scan = RefRatioScan()
    for t in t_grid:
        t = float(t)
        floor = 1e-280   # closed-form kernels only need a guard against underflow
        if lemma == "sharp-P":
            tol = None if t <= 1.0 else kernels_.series_tol * math.exp(-t * kernels_.lam1)
            k = kernels_.poisson_lebesgue(t, x_grid, y_grid, matrix=True, tol=tol)
            comp = kernels.comparand_poisson_lebesgue(nu, kernels_.lam1, t,
                                                      x_grid[:, None], y_grid[None, :])
            floor = 1e3 * (kernels_.series_tol if tol is None else tol)
        elif lemma == "sharp-Pmu":
            tol = None if t <= 1.0 else kernels_.series_tol * math.exp(-t * kernels_.lam1)
            k = kernels_.poisson_mu(t, x_grid, y_grid, matrix=True, tol=tol)
            comp = kernels.comparand_poisson_mu(nu, kernels_.lam1, t,
                                                x_grid[:, None], y_grid[None, :])
            floor = 1e3 * (kernels_.series_tol if tol is None else tol)
        elif lemma == "grad-P":
            k = np.abs(kernels_.delta_poisson(t, x_grid, y_grid, matrix=True))
            comp = kernels.comparand_gradient(t, x_grid[:, None], y_grid[None, :])
            floor = 1e3 * kernels_.series_tol
        elif lemma == "dy-P":
            k = np.abs(kernels_.dy_poisson_lebesgue(t, x_grid, y_grid, matrix=True))
            comp = kernels.comparand_gradient(t, x_grid[:, None], y_grid[None, :])
            floor = 1e3 * kernels_.series_tol
        elif lemma == "heat-gauss":
            k = kernels_.heat_mu(t, x_grid, y_grid, matrix=True)
            comp = kernels.comparand_heat_gauss(nu, t, x_grid[:, None], y_grid[None, :])
            floor = 1e3 * kernels_.series_tol
        elif lemma == "heat-large-t":
            tol = kernels_.series_tol * math.exp(-t * kernels_.lam1**2)
            k = kernels_.heat_mu(t, x_grid, y_grid, matrix=True, tol=tol)
            comp = kernels.comparand_heat_large(kernels_.lam1, t,
                                                x_grid[:, None], y_grid[None, :])
            floor = 1e3 * tol
        elif lemma == "bessel-heat-gauss":
            k = kernels.bessel_heat(nu, t, x_grid[:, None], y_grid[None, :])
            comp = kernels.comparand_bessel_heat_gauss(nu, t, x_grid[:, None],
                                                       y_grid[None, :])
        elif lemma == "dy-bessel-heat":
            k = np.abs(kernels.dy_bessel_heat(nu, t, x_grid[:, None], y_grid[None, :]))
            comp = kernels.comparand_dy_bessel_heat(nu, t, x_grid[:, None],
                                                    y_grid[None, :])
        else:
            raise ValueError(f"unknown estimate id {lemma!r}")
        scan.update(t, x_grid, y_grid, np.asarray(k, dtype=float), comp, floor)
    return scan


def ref_check_sharp_estimate(lemma, kernels_=None, nu=None, n_t=14, n_space=18,
                             drift_tol=0.10):
    halfline = lemma in ("bessel-heat-gauss", "dy-bessel-heat")
    if halfline:
        x_grid = ref_halfline_space_grid(n_space)
        t_grid = np.geomspace(1e-4, 10.0, n_t)
    else:
        nu = kernels_.nu
        x_grid = ref_unit_space_grid(n_space)
        if lemma in ("sharp-P", "sharp-Pmu"):
            floor = kernels_.floor("poisson")
            t_grid = np.concatenate([np.geomspace(max(floor, 1e-4), 1.0, n_t),
                                     np.geomspace(1.25, 3.0, max(n_t // 2, 4))])
        elif lemma in ("grad-P", "dy-P"):
            floor = kernels_.derivative_floor(x_grid[0], x_grid[0])
            t_grid = np.geomspace(max(floor, 1e-4), 1.0, n_t)
        elif lemma == "heat-gauss":
            floor = kernels_.floor("heat")
            t_grid = np.geomspace(max(floor, 1e-6), 1.0, n_t)
        else:  # heat-large-t
            t_grid = np.geomspace(1.0, 6.0, n_t)
    y_grid = x_grid.copy()

    base = ref_scan_lemma(lemma, kernels_, nu, t_grid, x_grid, y_grid)
    fine = ref_scan_lemma(lemma, kernels_, nu, kernels._refine_geometric(t_grid),
                          kernels._refine_linear(x_grid), kernels._refine_linear(y_grid))

    drift_max = fine.rmax / base.rmax - 1.0 if base.rmax > 0 else math.inf
    drift_min = base.rmin / fine.rmin - 1.0 if fine.rmin > 0 else math.inf
    two_sided = REF_TWO_SIDED[lemma]
    ok = math.isfinite(fine.rmax) and abs(drift_max) <= drift_tol
    if two_sided:
        ok = ok and fine.rmin > 0 and abs(drift_min) <= drift_tol
    return kernels.EstimateReport(
        lemma=lemma, kind="two_sided" if two_sided else "upper", nu=nu,
        t_range=(float(t_grid[0]), float(t_grid[-1])),
        n_samples=base.count + fine.count, n_masked=base.masked + fine.masked,
        ratio_min=base.rmin, ratio_max=base.rmax,
        refined_min=fine.rmin, refined_max=fine.rmax,
        drift_min=drift_min, drift_max=drift_max, passed=bool(ok),
        witness_min=base.wmin, witness_max=base.wmax)


# ---------------------------------------------------------------------------
# the estimate table


@pytest.mark.parametrize("nu", [-0.3, 0.5, 1.0])
def test_lemma_table_matches_branch_chain(nu):
    k = UnitIntervalKernels(EigenBasis.build(Order(nu), 400))
    assert LEMMA_IDS == tuple(REF_TWO_SIDED)
    for lemma in LEMMA_IDS:
        got = check_sharp_estimate(lemma, kernels=k, nu=nu, n_t=5, n_space=6)
        want = ref_check_sharp_estimate(lemma, k, nu=nu, n_t=5, n_space=6)
        assert got.to_dict() == want.to_dict(), lemma


def test_unknown_lemma_is_rejected():
    with pytest.raises(ValueError, match=r"unknown estimate id 'sharp-Q'; "
                                         r"choose from \('sharp-P', "):
        check_sharp_estimate("sharp-Q")


# ---------------------------------------------------------------------------
# the kernel tables


def test_kernel_choices_are_the_table_keys():
    series = {name.replace("_", "-") for name, (_, xr, yr)
              in SERIES_KERNELS.items() if xr == yr}
    halfline = {f"bessel-{kind}" for kind in HALFLINE_KERNELS}
    assert set(cli._KERNEL_CHOICES) == series | halfline
    assert cli._KERNEL_CHOICES == ("poisson-mu", "poisson-lebesgue", "heat-mu",
                                   "heat-lebesgue", "bessel-heat", "bessel-poisson")
    parser = cli._build_parser()
    for which in cli._KERNEL_CHOICES:
        assert parser.parse_args(["kernel", "--which", which]).which == which


def test_series_methods_are_class_functions_of_the_module():
    # a tracer that wraps the class's functions must find every table method
    for name in SERIES_KERNELS:
        fn = vars(UnitIntervalKernels)[name]
        assert inspect.isfunction(fn) and fn.__name__ == name
        assert fn.__code__.co_filename == kernels.__file__


def test_halfline_table_looks_kernels_up_at_call_time(monkeypatch):
    grid = make_quadrature("unit_interval", 32, measure=MEASURE_MU, nu=0.5)
    f = SampledFunction(grid=grid, values=np.ones(len(grid.nodes)))
    calls = []
    heat = kernels.bessel_heat

    def counted(*args):
        calls.append(args[1])
        return heat(*args)

    monkeypatch.setattr(kernels, "bessel_heat", counted)
    want = heat(0.5, 0.2, np.array([0.3])[:, None], grid.nodes[None, :]) @ \
        (grid.weights * f.values)
    assert np.array_equal(apply_halfline(0.5, f, 0.2, [0.3], kind="heat"), want)
    assert calls == [0.2]
    with pytest.raises(ValueError, match="unknown half-line semigroup 'wave'"):
        apply_halfline(0.5, f, 0.2, [0.3], kind="wave")
