"""Semigroup application, maximal operators, Uchiyama checker, Duhamel glue.

The Uchiyama condition checker is calibrated against a translation-invariant
Gaussian family whose constants are known in closed form: on the diagonal
r K(r, x, x) = 1/sqrt(2 pi) for every r and x, so the lower-bound constant
must equal sqrt(2 pi) exactly, and the size constant is capped by the global
maximum of exp(-s^2/2) (1+s)^2 / sqrt(2 pi), attained at s = 1.
"""
import math

import numpy as np
import pytest

from fbhardy.basis import EigenBasis, coefficients
from fbhardy.covers import DyadicCover, Interval, FAMILY_ONE_END
from fbhardy.errors import NumericsError
from fbhardy.hardy import random_atoms
from fbhardy.kernels import UnitIntervalKernels, bessel_poisson
from fbhardy.maximal import (CutoffRho, HomogeneousSpace, MaximalResult,
                             SpectralExpansion, TimeGrid, apply_halfline,
                             check_uchiyama_conditions,
                             compare_semigroups, duhamel_closure,
                             duhamel_residual_kernels, maximal_function,
                             uchiyama_families, uchiyama_kernel, uchiyama_time)
from fbhardy.quadrature import (MEASURE_LEBESGUE, MEASURE_MU, Measure,
                                SampledFunction, make_quadrature)
from fbhardy.specfun import Order

SQRT_2PI = 2.5066282746310002
# max over s >= 0 of exp(-s^2/2) (1+s)^2 / sqrt(2 pi), attained at s = 1
GAUSS_SIZE_CAP = 4.0 * math.exp(-0.5) / SQRT_2PI


def _bump(grid, a=0.08, b=0.40):
    def fn(x):
        u = (x - a) / (b - a)
        return np.where((u > 0) & (u < 1), np.sin(np.pi * np.clip(u, 0, 1)) ** 2, 0.0)
    return SampledFunction(grid=grid, values=fn(grid.nodes))


# ---------------------------------------------------------------------------
# time grids


def test_time_grid_build_contains_endpoints_and_split():
    g = TimeGrid.build(1e-4, 5.0, ratio=1.25)
    assert g.values[0] == pytest.approx(1e-4)
    assert g.values[-1] == pytest.approx(5.0)
    assert 1.0 in g.values
    assert np.all(np.diff(g.values) > 0)


def test_time_grid_ratio_guard_below_split():
    with pytest.raises(ValueError):
        TimeGrid(values=np.array([0.1, 0.2, 0.5]))
    # coarse spacing above t = 1 is allowed
    TimeGrid(values=np.array([0.5, 0.6, 2.0, 8.0]))


def test_time_grid_rejects_disorder():
    with pytest.raises(ValueError):
        TimeGrid(values=np.array([0.2, 0.1, 0.3]))
    with pytest.raises(ValueError):
        TimeGrid(values=np.array([-0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        TimeGrid.build(0.5, 0.8)   # split outside (t_min, t_max)


# ---------------------------------------------------------------------------
# spectral application


def _at_time(basis, f, t, kind="poisson"):
    """One time slice of f, sampled back on f's own grid."""
    vals = SpectralExpansion(f, basis).at_time(t, f.nodes, kind)
    return SampledFunction(grid=f.grid, values=vals)


def test_apply_poisson_scales_eigenfunction(basis_half, grid_mu):
    lam = basis_half.table.zeros[2]
    f = SampledFunction(grid=grid_mu, values=basis_half.phi_matrix(grid_mu.nodes, 3)[2])
    out = _at_time(basis_half, f, 0.4, "poisson")
    assert np.allclose(out.values, math.exp(-0.4 * lam) * f.values, atol=1e-8)


def test_apply_heat_scales_eigenfunction(basis_half, grid_mu):
    lam = basis_half.table.zeros[2]
    f = SampledFunction(grid=grid_mu, values=basis_half.phi_matrix(grid_mu.nodes, 3)[2])
    out = _at_time(basis_half, f, 0.05, "heat")
    assert np.allclose(out.values, math.exp(-0.05 * lam**2) * f.values,
                       atol=1e-8)


def test_psi_system_used_for_lebesgue_inputs(basis_half, grid_leb):
    lam = basis_half.table.zeros[1]
    f = SampledFunction(grid=grid_leb, values=basis_half.psi_matrix(grid_leb.nodes, 2)[1])
    exp = SpectralExpansion(f, basis_half)
    out = exp.at_time(0.1, grid_leb.nodes, "heat")
    assert np.allclose(out, math.exp(-0.1 * lam**2) * f.values, atol=1e-8)


def test_expansion_resolves_single_mode(basis_half, grid_mu):
    f = SampledFunction(grid=grid_mu, values=basis_half.phi_matrix(grid_mu.nodes, 3)[2])
    exp = SpectralExpansion(f, basis_half)
    # trimmed far below the table size by the grid's resolvable frequency
    assert exp.n_active < len(basis_half) // 4
    assert abs(exp.coeffs[2] - 1.0) < 1e-10
    rest = np.delete(exp.coeffs, 2)
    assert np.max(np.abs(rest)) < 1e-10


def test_semigroup_property_through_sampled_functions(basis_half, grid_mu):
    f = _bump(grid_mu)
    two_step = _at_time(basis_half, _at_time(basis_half, f, 0.15), 0.25)
    one_step = _at_time(basis_half, f, 0.40)
    assert np.allclose(two_step.values, one_step.values, atol=1e-9)


def test_apply_rejects_nonpositive_time(basis_half, grid_mu):
    f = _bump(grid_mu)
    with pytest.raises(ValueError):
        _at_time(basis_half, f, 0.0, "poisson")
    with pytest.raises(ValueError):
        _at_time(basis_half, f, -0.1, "heat")


def test_expansion_rejects_unknown_semigroup(basis_half, grid_mu):
    exp = SpectralExpansion(_bump(grid_mu), basis_half)
    with pytest.raises(ValueError, match="unknown semigroup 'wave'"):
        exp.at_time(0.1, [0.3], "wave")


def test_apply_halfline_matches_closed_form_kernel(grid_mu):
    # at nu = 1/2 the half-line Poisson kernel has an elementary form
    f = _bump(grid_mu)
    x = np.array([0.11, 0.3, 0.62])
    t = 0.2
    y = grid_mu.nodes
    closed = (t / np.pi) / (np.outer(x, y)) * (
        1.0 / (t**2 + (x[:, None] - y[None, :]) ** 2)
        - 1.0 / (t**2 + (x[:, None] + y[None, :]) ** 2))
    expected = closed @ (grid_mu.weights * f.values)
    got = apply_halfline(0.5, f, t, x, kind="poisson")
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        apply_halfline(0.5, f, t, x, kind="wave")


def test_apply_halfline_needs_mu_tag(grid_leb):
    f = _bump(grid_leb)
    with pytest.raises(ValueError):
        apply_halfline(0.5, f, 0.2, np.array([0.3]))


# ---------------------------------------------------------------------------
# maximal operator


def test_maximal_of_eigenfunction_peaks_at_smallest_time(basis_half, grid_mu):
    lam = basis_half.table.zeros[0]
    f = SampledFunction(grid=grid_mu, values=basis_half.phi_matrix(grid_mu.nodes, 1)[0])
    grid = TimeGrid.build(1e-4, 5.0, ratio=1.25)
    res = maximal_function(basis_half, f, grid)
    expected = math.exp(-grid.values[0] * lam) * np.abs(f.values)
    assert np.allclose(res.values, expected, atol=1e-9)
    assert np.all(res.argmax_t == grid.values[0])


def test_maximal_split_pieces_recombine(basis_half, grid_mu):
    f = _bump(grid_mu)
    grid = TimeGrid.build(1e-3, 4.0, ratio=1.25)
    res = maximal_function(basis_half, f, grid)
    v = grid.values
    small = maximal_function(basis_half, f, TimeGrid(
        values=v[v <= grid.split], split=grid.split)).values
    large = maximal_function(basis_half, f, TimeGrid(
        values=v[v >= grid.split], split=grid.split)).values
    assert np.array_equal(small, res.small)
    assert np.array_equal(large, res.large)
    assert np.allclose(np.maximum(res.small, res.large), res.values)
    assert res.l1_norm(grid_mu.weights) == pytest.approx(
        float(grid_mu.weights @ res.values))


def _atom_batch(grid, count, seed=20240, scale_max=8):
    atoms = random_atoms(np.random.default_rng(seed), grid.measure, grid.nu,
                         count, scale_max=scale_max)
    return atoms, SampledFunction(grid=grid, values=atoms.evaluate(grid.nodes))


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_maximal_batch_equals_its_rows(basis_half, grid_mu, grid_leb, measure):
    grid = grid_mu if measure == MEASURE_MU else grid_leb
    _, batch = _atom_batch(grid, 12, scale_max=5)
    tg = TimeGrid.build(1e-4, 5.0, ratio=1.25)
    res = maximal_function(basis_half, batch, tg)
    assert res.values.shape == res.small.shape == res.argmax_t.shape == \
        batch.values.shape
    assert res.l1_norm(grid.weights).shape == (12,)
    for i, row in enumerate(batch.values):
        one = maximal_function(basis_half, SampledFunction(grid=grid, values=row), tg)
        scale = np.max(one.values)
        for name in ("values", "small", "large"):
            got, want = getattr(res, name)[i], getattr(one, name)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (i, name)
    # leading axes beyond one are kept as they are
    square = SampledFunction(grid=grid, values=batch.values.reshape(3, 4, -1))
    res34 = maximal_function(basis_half, square, tg)
    assert res34.values.shape == (3, 4, len(grid))
    assert np.allclose(res34.values.reshape(res.values.shape), res.values,
                       rtol=1e-13, atol=1e-13 * np.max(res.values))


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_one_element_batch_is_bit_identical(basis_half, grid_mu, grid_leb,
                                            measure):
    grid = grid_mu if measure == MEASURE_MU else grid_leb
    f = _bump(grid, 0.1, 0.6)
    one = SampledFunction(grid=grid, values=f.values[None, :])
    tg = TimeGrid.build(1e-4, 5.0, ratio=1.25)
    res, res1 = maximal_function(basis_half, f, tg), maximal_function(basis_half, one, tg)
    for name in ("values", "argmax_t", "small", "large"):
        assert np.array_equal(getattr(res1, name), getattr(res, name)[None, :])
    x = np.linspace(0.05, 0.95, 7)
    sweep = SpectralExpansion(f, basis_half).sweep([0.01, 0.3], x, "heat")
    sweep1 = SpectralExpansion(one, basis_half).sweep([0.01, 0.3], x, "heat")
    assert sweep1.shape == (2, 1, 7)
    assert np.array_equal(sweep1[:, 0], sweep)


@pytest.mark.xfail(strict=True, reason=(
    "the expansion is cut at the grid's resolvable frequency, so the finest "
    "atoms lose mass that M a >= |a| requires (ROADMAP item 7)"))
def test_maximal_mass_of_every_atom_reaches_its_l1_norm(basis_half):
    tg = TimeGrid.build(1e-6, 10.0, ratio=1.25)
    for measure in (MEASURE_MU, MEASURE_LEBESGUE):
        grid = make_quadrature("unit_interval", 1024, measure=measure, nu=0.5)
        atoms, batch = _atom_batch(grid, 104)
        mass = maximal_function(basis_half, batch, tg).l1_norm(grid.weights)
        l1 = np.array([a.fn.l1_norm(a.measure, a.nu) for _, a in atoms])
        assert np.all(mass >= 0.9 * l1), measure


def test_maximal_monotone_under_time_refinement(basis_half, grid_mu):
    f = _bump(grid_mu)
    grid = TimeGrid.build(1e-3, 4.0, ratio=1.25)
    base = maximal_function(basis_half, f, grid)
    # the grid with its geometric midpoints inserted
    mids = np.sqrt(grid.values[:-1] * grid.values[1:])
    refined = TimeGrid(values=np.unique(np.concatenate([grid.values, mids])),
                       split=grid.split)
    fine = maximal_function(basis_half, f, refined)
    assert np.all(fine.values >= base.values - 1e-15)


# ---------------------------------------------------------------------------
# Uchiyama reparametrization and checker


def test_uchiyama_time_branches_and_continuity():
    nu = 0.5
    p = 2.0 * nu + 2.0
    x = 0.7
    r_star = x**p
    assert uchiyama_time(nu, 0.5 * r_star, x) == pytest.approx(
        0.5 * r_star * x ** (-(2 * nu + 1)))
    assert uchiyama_time(nu, 2.0 * r_star, x) == pytest.approx(
        (2.0 * r_star) ** (1.0 / p))
    below = uchiyama_time(nu, r_star * (1 - 1e-9), x)
    above = uchiyama_time(nu, r_star * (1 + 1e-9), x)
    assert abs(below - above) < 1e-8
    assert uchiyama_time(nu, r_star, x) == pytest.approx(x)


def test_uchiyama_kernel_matches_reparametrized_poisson():
    nu, r = 0.5, 0.03
    x = np.array([0.2, 0.5, 1.4])
    y = np.array([0.3, 0.5, 1.1])
    got = uchiyama_kernel(nu, r, x[:, None], y[None, :])
    for i, xv in enumerate(x):
        t = float(uchiyama_time(nu, r, xv))
        row = bessel_poisson(nu, t, np.full_like(y, xv), y)
        assert np.allclose(got[i], row, rtol=1e-12)
    assert isinstance(uchiyama_kernel(nu, r, 0.4, 0.5), float)
    with pytest.raises(ValueError):
        uchiyama_kernel(nu, r, 0.4, 0.5, sigma_total=0.01)


def test_homogeneous_space_lebesgue_balls():
    sp = HomogeneousSpace(Interval(0.2, 0.8), "euclidean", MEASURE_LEBESGUE, 0.5)
    assert sp.sigma_total() == pytest.approx(0.6)
    assert sp.ball_sigma(0.5, 0.1) == pytest.approx(0.2)      # interior
    assert sp.ball_sigma(0.25, 0.1) == pytest.approx(0.15)    # clipped left
    pts = sp.inner_points(5)
    assert np.all((pts > 0.2) & (pts < 0.8))


def test_homogeneous_space_rejects_unknown_metric_and_measure():
    # a misspelt metric used to fall through to the mu-cdf distance
    with pytest.raises(ValueError, match="unknown metric"):
        HomogeneousSpace(Interval(0.2, 0.8), "euclidian", MEASURE_LEBESGUE, 0.5)
    with pytest.raises(ValueError, match="unknown measure tag"):
        HomogeneousSpace(Interval(0.2, 0.8), "euclidean", "Lebesgue", 0.5)


def test_homogeneous_space_mu_cdf_metric():
    nu = 0.5
    sp = HomogeneousSpace(Interval(0.0, 2.0), "mu_cdf", MEASURE_MU, nu)
    u, v = 0.7, 1.3
    assert sp.distance(u, v) == pytest.approx(Measure.of(MEASURE_MU, nu).distance(u, v))
    # metric balls have measure 2r away from the ends, by construction
    assert sp.ball_sigma(1.0, 0.05) == pytest.approx(0.1)
    z = sp.shift(1.0, 0.07, +1)
    assert sp.distance(1.0, z) == pytest.approx(0.07)


def test_uchiyama_checker_on_gaussian_family():
    sp = HomogeneousSpace(Interval(0.0, 1.0), "euclidean", MEASURE_LEBESGUE, 0.5)

    def gauss(r, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.exp(-0.5 * (d / r) ** 2) / (SQRT_2PI * r)

    rep = check_uchiyama_conditions(gauss, sp, [0.05, 0.1, 0.2],
                                    label="gauss", n_space=25)
    assert rep.a_lower == pytest.approx(SQRT_2PI, rel=1e-12)
    assert rep.a_ball == pytest.approx(2.0, rel=1e-12)
    assert 0.93 <= rep.a_size <= GAUSS_SIZE_CAP + 1e-9
    assert 0 < rep.a_lipschitz < math.inf
    assert rep.min_kernel > 0
    assert rep.a_total == max(rep.a_ball, rep.a_lower, rep.a_size,
                              rep.a_lipschitz)
    d = rep.to_dict()
    assert d["label"] == "gauss" and d["A"] == rep.a_total


def test_uchiyama_checker_rejects_nonpositive_diagonal():
    sp = HomogeneousSpace(Interval(0.0, 1.0), "euclidean", MEASURE_LEBESGUE, 0.5)

    def bad(r, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return d * d - 0.5   # negative on the diagonal

    with pytest.raises(NumericsError):
        check_uchiyama_conditions(bad, sp, [0.02], label="bad", n_space=10)


# ---------------------------------------------------------------------------
# cutoff and Duhamel closure


def test_cutoff_plateaus_and_derivatives():
    rho = CutoffRho.build(0.02)
    cover = DyadicCover(FAMILY_ONE_END, zeta=0.02)
    assert rho.inner == pytest.approx(cover.starred(0, 2).b)
    assert rho.outer == pytest.approx(cover.starred(0, 3).b)
    assert rho.value(rho.inner - 1e-6) == 1.0
    assert rho.value(rho.outer + 1e-6) == 0.0
    ramp = np.linspace(rho.inner, rho.outer, 9)[1:-1]
    vals = rho.value(ramp)
    assert np.all(np.diff(vals) < 0)
    h = 1e-7
    fd1 = (rho.value(ramp + h) - rho.value(ramp - h)) / (2 * h)
    assert np.allclose(rho.derivative(ramp), fd1, rtol=1e-4, atol=1e-6)
    fd2 = (rho.derivative(ramp + h) - rho.derivative(ramp - h)) / (2 * h)
    assert np.allclose(rho.second_derivative(ramp), fd2, rtol=1e-4, atol=1e-2)
    # two continuous derivatives at the junctions
    for edge in (rho.inner, rho.outer):
        assert abs(rho.derivative(edge)) < 1e-12
        assert abs(rho.second_derivative(edge)) < 1e-12


def test_duhamel_closure_small_residual(basis_half, grid_mu):
    rho = CutoffRho.build(0.02)
    f = _bump(grid_mu)
    x = np.linspace(0.03, 0.49, 12)
    out = duhamel_closure(basis_half, rho, f, 0.3, x)
    assert out["max_error"] < 1e-5
    assert np.allclose(out["rhs"], out["r1"] + out["r2"] + out["r3"])


def test_duhamel_input_guards(basis_half, grid_mu, grid_leb):
    rho = CutoffRho.build(0.02)
    f = _bump(grid_mu)
    with pytest.raises(ValueError):
        duhamel_closure(basis_half, rho, f, 1.5, [0.3])
    with pytest.raises(ValueError):
        duhamel_closure(basis_half, rho, _bump(grid_leb), 0.3, [0.3])
    wide = _bump(grid_mu, a=0.1, b=0.9)   # sticks out past the cutoff plateau
    with pytest.raises(ValueError):
        duhamel_closure(basis_half, rho, wide, 0.3, [0.3])


def test_duhamel_residual_kernels_bounded(basis_half, kernels_half):
    rho = CutoffRho.build(0.02)
    x = np.linspace(0.05, 0.45, 5)
    r1, r2, r3 = duhamel_residual_kernels(basis_half, kernels_half, rho,
                                          0.3, x, x)
    for r in (r1, r2, r3):
        assert np.all(np.isfinite(r))
        assert np.max(np.abs(r)) < 5.0


# ---------------------------------------------------------------------------
# semigroup comparison and commutators


def _windowed(grid, shift):
    def fn(x):
        u = (x - 0.06 - shift) / 0.3
        return np.where((u > 0) & (u < 1),
                        np.sin(np.pi * np.clip(u, 0, 1)) ** 2, 0.0)
    vals = fn(grid.nodes)
    vals[grid.nodes >= 0.51] = 0.0
    return SampledFunction(grid=grid, values=vals)


def test_compare_semigroups_batch(basis_half, grid_mu):
    fs = [_windowed(grid_mu, 0.0), _windowed(grid_mu, 0.05)]
    t_grid = np.geomspace(1e-2, 0.9, 6)
    out = compare_semigroups(basis_half, fs, t_grid=t_grid, n_x=24)
    assert len(out) == 2
    for row in out:
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0
        assert row["sup_norm_l1"] == pytest.approx(
            row["ratio"] * row["f_norm_l1"])
    single = compare_semigroups(basis_half, fs[0], t_grid=t_grid, n_x=24)
    assert single[0]["ratio"] == pytest.approx(out[0]["ratio"])


def test_compare_semigroups_input_guards(basis_half, grid_mu, grid_leb):
    f = _windowed(grid_mu, 0.0)
    with pytest.raises(ValueError):
        compare_semigroups(basis_half, _bump(grid_leb))
    with pytest.raises(ValueError):
        compare_semigroups(basis_half, _bump(grid_mu, a=0.3, b=0.9))
    other = SampledFunction(grid=grid_leb, values=0 * grid_leb.nodes)
    with pytest.raises(ValueError):
        compare_semigroups(basis_half, [f, other])


def test_uchiyama_floor_refusal_names_the_zero_table_knob():
    """At nu = 1 the series floor of the shipped 2400 zeros is above what
    piece 6 needs (its radius cap over 1.02): the refusal gives both floors
    and the knob that lowers the floor, with its current value."""
    kernels = UnitIntervalKernels(EigenBasis.build(Order(1.0), 2400))
    with pytest.raises(NumericsError) as err:
        uchiyama_families(kernels, zeta=0.02, n_r=1, n_space=8)
    assert str(err.value) == ("uchiyama: series floor 7.12e-03 too high for piece 6, "
                              "which needs a floor below 6.92e-03; raise n_zeros (now 2400)")
