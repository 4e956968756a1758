"""Ten release gates, one test per criterion.

Each test computes its quantities with the pinned tolerances, records a
one-line verdict for the terminal summary, and then asserts.  Oracles are
embedded rather than imported from the package under test wherever an
independent route exists (plain bisection on scipy Bessel evaluations,
method-of-images closed forms, slope fits on seeded atom batches).
"""
import math
import re
import time

import numpy as np
import pytest
import scipy.special as sps

from conftest import record_acceptance
from fbhardy.basis import EigenBasis
from fbhardy.covers import DyadicCover, FAMILY_ONE_END
from fbhardy.hardy import (PiecewiseLinear, atomic_decompose, h1_norm_report,
                           random_atoms)
from fbhardy.kernels import (LEMMA_IDS, bessel_heat, check_sharp_estimate)
from fbhardy.maximal import (CutoffRho, TimeGrid, compare_semigroups,
                             duhamel_closure, duhamel_residual_kernels,
                             maximal_function, uchiyama_families)
from fbhardy.quadrature import (SampledFunction, make_quadrature,
                                MEASURE_LEBESGUE, MEASURE_MU)
from fbhardy.specfun import Order, bessel_zeros


def _bisect(f, lo, hi, steps=80):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_criterion_01_zeros():
    t0 = time.perf_counter()
    half = bessel_zeros(Order(0.5), 50).zeros
    zero = bessel_zeros(Order(0.0), 2).zeros
    elapsed = time.perf_counter() - t0
    err_half = float(np.max(np.abs(half - np.arange(1, 51) * math.pi)))
    oracle = [_bisect(lambda v: sps.jv(0.0, v), 2.0, 3.0),
              _bisect(lambda v: sps.jv(0.0, v), 5.0, 6.0)]
    err_zero = float(np.max(np.abs(zero - np.array(oracle))))
    ok = err_half < 1e-10 and err_zero < 1e-10 and elapsed < 1.0
    record_acceptance(1, ok, f"half-order err {err_half:.2e}, order-zero err "
                             f"{err_zero:.2e}, {elapsed:.3f}s")
    assert err_half < 1e-10
    assert err_zero < 1e-10
    assert elapsed < 1.0


def test_criterion_02_orthonormality():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.5):
        basis = EigenBasis.build(Order(nu), 24)
        g = make_quadrature("unit_interval", 2048, measure=MEASURE_MU, nu=nu)
        rows = basis.phi_matrix(g.nodes, 20)
        gram = (rows * g.weights[None, :]) @ rows.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(20)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    record_acceptance(2, ok, f"max |gram - id| {worst:.2e} over four orders, "
                             f"{elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_semigroup_identities(kernels_half, basis_half,
                                           grid_mu, grid_leb):
    t = 0.5
    mat = kernels_half.poisson_mu(t, grid_mu.nodes, grid_mu.nodes, matrix=True)
    eig_err = 0.0
    for n in range(1, 11):
        phi = basis_half.phi_matrix(grid_mu.nodes, n)[n - 1]
        lam = basis_half.table.zeros[n - 1]
        got = mat @ (grid_mu.weights * phi)
        eig_err = max(eig_err, float(np.max(np.abs(got - math.exp(-t * lam)
                                                   * phi))))
    ck_err = 0.0
    for build, grid in ((kernels_half.poisson_mu, grid_mu),
                        (kernels_half.poisson_lebesgue, grid_leb)):
        w, xn = grid.weights, grid.nodes
        mats = {u: build(u, xn, xn, matrix=True)
                for u in (0.2, 0.4, 0.5, 0.7, 1.0)}
        for s in (0.2, 0.5):
            for u in (0.2, 0.5):
                comp = mats[s] @ (w[:, None] * mats[u])
                ck_err = max(ck_err, float(np.max(np.abs(comp
                                                         - mats[s + u]))))
    ok = eig_err < 1e-8 and ck_err < 1e-7
    record_acceptance(3, ok, f"eigenfunction err {eig_err:.2e}, "
                             f"composition err {ck_err:.2e}")
    assert eig_err < 1e-8
    assert ck_err < 1e-7


def test_criterion_04_half_order_closed_forms(kernels_half):
    closed = 2.0 * math.exp(-math.pi) / (1.0 - math.exp(-2.0 * math.pi))
    got = kernels_half.poisson_lebesgue(1.0, np.array([0.5]),
                                        np.array([0.5]))[0]
    p_err = abs(got - closed)

    t_grid = np.geomspace(0.01, 2.0, 20)
    x = np.linspace(0.1, 3.0, 20)
    heat_err = 0.0
    for t in t_grid:
        got = bessel_heat(0.5, float(t), x[:, None], x[None, :])
        gauss = (np.exp(-((x[:, None] - x[None, :]) ** 2) / (4 * t))
                 - np.exp(-((x[:, None] + x[None, :]) ** 2) / (4 * t)))
        expect = gauss / (2 * np.sqrt(np.pi * t) * x[:, None] * x[None, :])
        heat_err = max(heat_err, float(np.max(np.abs(got / expect - 1.0))))
    ok = p_err < 1e-10 and heat_err < 1e-10
    record_acceptance(4, ok, f"poisson diagonal err {p_err:.2e}, "
                             f"heat image-formula rel err {heat_err:.2e}")
    assert p_err < 1e-10
    assert heat_err < 1e-10


def test_criterion_05_sharp_estimate_reports(kernels_half):
    t0 = time.perf_counter()
    lines = []
    all_ok = True
    for lemma in LEMMA_IDS:
        rep = check_sharp_estimate(lemma, kernels=kernels_half, nu=0.5,
                                   n_space=10)
        finite = math.isfinite(rep.ratio_max) and rep.ratio_min >= 0
        drift_ok = abs(rep.drift_max) <= 0.10
        if rep.kind == "two_sided":
            drift_ok = drift_ok and abs(rep.drift_min) <= 0.10
        all_ok = all_ok and rep.passed and finite and drift_ok
        lines.append(f"{lemma}[{rep.ratio_min:.3g},{rep.ratio_max:.3g}]")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 300.0
    record_acceptance(5, ok, f"8 reports pass in {elapsed:.1f}s: "
                             + " ".join(lines))
    assert all_ok
    assert elapsed < 300.0


def test_criterion_06_duhamel(basis_half, kernels_half, grid_mu):
    rho = CutoffRho.build(0.02)
    nodes = np.linspace(0.08, 0.40, 33)
    u = (nodes - 0.08) / 0.32
    fn = PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)
    f = SampledFunction(grid=grid_mu, values=fn.evaluate(grid_mu.nodes))
    x = np.linspace(0.03, 0.49, 24)
    closure = duhamel_closure(basis_half, rho, f, 0.3, x)
    xg = np.linspace(0.05, 0.45, 7)
    r1, r2, r3 = duhamel_residual_kernels(basis_half, kernels_half, rho,
                                          0.3, xg, xg)
    res_sup = max(float(np.max(np.abs(r))) for r in (r1, r2, r3))
    ok = closure["max_error"] < 1e-5 and math.isfinite(res_sup) \
        and res_sup < 5.0
    record_acceptance(6, ok, f"closure sup err {closure['max_error']:.2e}, "
                             f"residual kernels sup {res_sup:.3g}")
    assert closure["max_error"] < 1e-5
    assert math.isfinite(res_sup) and res_sup < 5.0


def test_criterion_07_semigroup_comparison(basis_half, grid_mu):
    rng = np.random.default_rng(4101)
    fs = []
    for _ in range(20):
        a = 0.02 + 0.30 * rng.random()
        b = a + 0.04 + (0.47 - a - 0.04) * rng.random()
        amp = 0.5 + rng.random()
        vals = amp * np.sin(np.pi * np.clip((grid_mu.nodes - a) / (b - a),
                                            0.0, 1.0)) ** 2
        vals[grid_mu.nodes <= a] = 0.0
        vals[grid_mu.nodes >= 0.51] = 0.0
        fs.append(SampledFunction(grid=grid_mu, values=vals))
    base = compare_semigroups(basis_half, fs,
                              t_grid=np.geomspace(1e-2, 0.9, 8), n_x=32)
    fine = compare_semigroups(basis_half, fs,
                              t_grid=np.geomspace(1e-2, 0.9, 16), n_x=64)
    rb = np.array([r["ratio"] for r in base])
    rf = np.array([r["ratio"] for r in fine])
    finite = bool(np.all(np.isfinite(rb)) and np.all(rb > 0))
    drift = float(np.max(np.abs(rf - rb) / rb))
    ok = finite and drift <= 0.20
    record_acceptance(7, ok, f"20 inputs, ratios [{rb.min():.4g}, "
                             f"{rb.max():.4g}], refinement drift {drift:.3f}")
    assert finite
    assert drift <= 0.20


def test_criterion_08_uchiyama_constants(kernels_half):
    reports = uchiyama_families(kernels_half, zeta=0.02, n_r=5, n_space=8)
    groups = {"unit-mu": [], "unit-flat": [], "halfline": []}
    finite = True
    for rep in reports:
        parts = (rep.a_ball, rep.a_lower, rep.a_size, rep.a_lipschitz,
                 rep.a_total)
        finite = finite and all(math.isfinite(v) for v in parts)
        for key in groups:
            if rep.label.startswith(key):
                groups[key].append(rep.a_total)
    spreads = {key: max(vals) / min(vals) for key, vals in groups.items()
               if vals}
    counts = {key: len(vals) for key, vals in groups.items()}
    ok = (finite and counts["unit-mu"] == 6 and counts["unit-flat"] == 10
          and counts["halfline"] == 1
          and all(s < 5.0 for s in spreads.values()))
    record_acceptance(8, ok, "spreads " + ", ".join(
        f"{k} {s:.2f}" for k, s in sorted(spreads.items())))
    assert finite
    assert counts == {"unit-mu": 6, "unit-flat": 10, "halfline": 1}
    for key, spread in spreads.items():
        assert spread < 5.0, key


def test_criterion_09_uniform_atom_bound(basis_half):
    tg = TimeGrid.build(1e-6, 10.0, ratio=1.25)
    details = []
    ok = True
    for measure in (MEASURE_MU, MEASURE_LEBESGUE):
        grid = make_quadrature("unit_interval", 1024, measure=measure, nu=0.5)
        rng = np.random.default_rng(20240)
        atoms = random_atoms(rng, measure, 0.5, 104, scale_max=8)
        batch = SampledFunction(grid=grid, values=atoms.evaluate(grid.nodes))
        norms = maximal_function(basis_half, batch, tg).l1_norm(grid.weights)
        js = np.array([abs(int(re.search(r"-j(-?\d+)-", atom.label).group(1)))
                       for _, atom in atoms])
        means = np.array([np.mean(norms[js == j]) if np.any(js == j)
                          else np.nan for j in range(9)])
        use = np.isfinite(means) & (means > 0)
        slope = float(np.polyfit(np.arange(9)[use], np.log(means[use]), 1)[0])
        fam_ok = (np.all(np.isfinite(norms)) and np.all(norms > 0)
                  and abs(slope) <= 0.15)
        ok = ok and bool(fam_ok)
        details.append(f"{measure}: n={len(norms)} max {norms.max():.3g} "
                       f"slope {slope:+.3f}")
        assert np.all(np.isfinite(norms)) and np.all(norms > 0), measure
        assert abs(slope) <= 0.15, measure
    record_acceptance(9, ok, "; ".join(details))
    assert ok


def test_criterion_10_decomposition_round_trip(basis_half, grid_mu, grid_leb):
    nodes = np.linspace(0.08, 0.40, 33)
    u = (nodes - 0.08) / 0.32
    bump = PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)
    cases = [
        (MEASURE_MU, grid_mu, bump),
        (MEASURE_MU, grid_mu,
         PiecewiseLinear.from_breaks_levels([0.12, 0.27, 0.42], [1.1, -0.7])),
        (MEASURE_LEBESGUE, grid_leb, PiecewiseLinear.tent(0.3, 0.62, 1.0)),
        (MEASURE_LEBESGUE, grid_leb,
         PiecewiseLinear.from_breaks_levels([0.22, 0.47, 0.68], [0.9, -0.5])),
    ]
    worst = 0.0
    for measure, grid, fn in cases:
        dec = atomic_decompose(fn, nu=0.5, measure=measure)
        f = SampledFunction(grid=grid, values=fn.evaluate(grid.nodes))
        rel = dec.summary(f)["residual_rel"]
        worst = max(worst, float(rel))

    tg = TimeGrid.build(1e-3, 2.0, ratio=1.25)
    ratio_drift = 0.0
    ratios = {}
    for measure, profile in ((MEASURE_MU, bump),
                             (MEASURE_LEBESGUE,
                              PiecewiseLinear.tent(0.3, 0.62, 1.0))):
        pair = []
        for n in (64, 128):
            g = make_quadrature("unit_interval", n, measure=measure, nu=0.5)
            f = SampledFunction(grid=g, values=profile.evaluate(g.nodes))
            rep = h1_norm_report(f, basis_half, tg, 0.5)
            assert 0 < rep["ratio"] < math.inf
            pair.append(rep["ratio"])
        ratios[measure] = pair[1]
        ratio_drift = max(ratio_drift,
                          abs(pair[1] - pair[0]) / pair[0])
    ok = worst < 1e-6 and ratio_drift <= 0.20
    record_acceptance(10, ok, f"worst residual {worst:.2e}; h1 ratios "
                              f"mu {ratios[MEASURE_MU]:.3f} / lebesgue "
                              f"{ratios[MEASURE_LEBESGUE]:.3f}, drift "
                              f"{ratio_drift:.3f}")
    assert worst < 1e-6
    assert ratio_drift <= 0.20
