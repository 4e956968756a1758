"""Series tail counts against reference implementations, and the certificate.

The `ref_*` functions below are the original one-index-at-a-time loops of
the Poisson, heat and gradient (delta) tail counts, kept verbatim apart from
two edits: `self` is the basis argument, and the local coefficient bound is
replaced by its value when no xy floor is given (infinity, so the global
bound always decides). The `prev_*` functions are the vectorised point-free
counts as they were before the pointwise bound, kept verbatim apart from
`self` being the basis argument and `self._first_below` being the copy
`first_below` below. Called without xy, `EigenBasis.terms_needed` must
return the same truncation index, or raise the same NumericsError, for every
(semigroup, rows) pair of SERIES_KERNELS everywhere the properties sample.
With xy, the count must still certify the tail at the kernel's own points.
The geometric tail rests on each semigroup's `log_ratio`, itself checked
against its weight.
"""
import contextlib
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.basis import SEMIGROUPS, EigenBasis
from fbhardy.errors import NumericsError
from fbhardy.kernels import SERIES_KERNELS, UnitIntervalKernels
from fbhardy.specfun import Order


def ref_poisson_terms_needed(self, t: float, tol: float) -> int:
    if t <= 0:
        raise ValueError("t must be positive")
    lam = self.table.zeros
    pt = math.pi * self._THETA
    local = math.inf
    glob = self._global_coeff()
    for n in range(0, len(lam)):
        lam_next = lam[n]          # first term of the tail is index n
        q_loc = math.exp(-t * pt)
        bound_loc = local * math.exp(-t * lam_next) / max(1.0 - q_loc, 1e-300)
        lg = math.log(lam_next)
        q_glob = math.exp(-t * pt + (2 * self.nu + 1) * pt / lam_next)
        if q_glob < 1.0:
            bound_glob = (glob * lam_next ** (2 * self.nu + 1)
                          * math.exp(-t * lam_next) / (1.0 - q_glob))
        else:
            bound_glob = math.inf
        if min(bound_loc, bound_glob) < tol:
            return n
    raise NumericsError(
        "poisson_kernel",
        f"tail not certified at t={t:.3e} with table of {len(lam)} zeros; "
        "enlarge the zero table or raise t")


def ref_heat_terms_needed(self, t: float, tol: float) -> int:
    if t <= 0:
        raise ValueError("t must be positive")
    lam = self.table.zeros
    pt = math.pi * self._THETA
    local = math.inf
    glob = self._global_coeff()
    for n in range(0, len(lam)):
        lam_next = lam[n]
        decay = math.exp(-t * lam_next**2)
        q = math.exp(-2.0 * t * lam_next * pt + (2 * self.nu + 1) * pt / lam_next)
        if q >= 1.0:
            continue
        bound = min(local, glob * lam_next ** (2 * self.nu + 1)) * decay / (1.0 - q)
        if bound < tol:
            return n
    raise NumericsError(
        "heat_kernel",
        f"tail not certified at t={t:.3e} with table of {len(lam)} zeros")


def ref_delta_terms_needed(self, t: float, tol: float) -> int:
    if t <= 0:
        raise ValueError("t must be positive")
    lam = self.table.zeros
    pt = math.pi * self._THETA
    coeff = (self.c_margin**2) * math.pi * self.s_nu * self.s_nu1
    for n in range(0, len(lam)):
        lam_next = lam[n]
        q = math.exp(-t * pt + pt / lam_next)
        if q >= 1.0:
            continue
        bound = coeff * lam_next * math.exp(-t * lam_next) / (1.0 - q)
        if bound < tol:
            return n
    raise NumericsError(
        "gradient_kernel",
        f"tail not certified at t={t:.3e} with table of {len(lam)} zeros")


def first_below(first, log_q, tol, operation, message) -> int:
    """First index n with first[n] / (1 - q_n) < tol and q_n < 1, where
    q_n = exp(log_q[n]); raises NumericsError when no index qualifies."""
    q = np.exp(log_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (q < 1.0) & (first / (1.0 - q) < tol)
    n = int(ok.argmax())
    if not ok[n]:
        raise NumericsError(operation, message)
    return n


def prev_poisson_terms_needed(self, t: float, tol: float) -> int:
    """Smallest N so the tail of sum exp(-t lam_n) |phi phi| past N is
    below tol, or a NumericsError if the table cannot certify it."""
    if t <= 0:
        raise ValueError("t must be positive")
    lam = self.table.zeros
    pt = math.pi * self._THETA
    p = 2 * self.nu + 1
    return first_below(
        self._global_coeff() * lam**p * np.exp(-t * lam),
        -t * pt + p * pt / lam, tol, "poisson_kernel",
        f"tail not certified at t={t:.3e} with table of {len(lam)} zeros; "
        "enlarge the zero table or raise t")


def prev_heat_terms_needed(self, t: float, tol: float) -> int:
    if t <= 0:
        raise ValueError("t must be positive")
    lam = self.table.zeros
    pt = math.pi * self._THETA
    p = 2 * self.nu + 1
    return first_below(
        self._global_coeff() * lam**p * np.exp(-t * lam**2),
        -2.0 * t * lam * pt + p * pt / lam, tol, "heat_kernel",
        f"tail not certified at t={t:.3e} with table of {len(lam)} zeros")


# the Poisson and heat floors at tol 1e-10 of the nu = 1/2, 2400-zero
# basis, recorded with the scalar loops above
SEED_MIN_POISSON_TIME = 0.006073069820746941
SEED_MIN_HEAT_TIME = 7.93295620378067e-07

ORDERS = (-0.3, 0.5, 1.0, 2.5)

# (semigroup, x rows) -> the counts that certify it without xy
REFERENCES = {("poisson", "phi"): (ref_poisson_terms_needed, prev_poisson_terms_needed),
              ("poisson", "psi"): (ref_poisson_terms_needed, prev_poisson_terms_needed),
              ("heat", "phi"): (ref_heat_terms_needed, prev_heat_terms_needed),
              ("heat", "psi"): (ref_heat_terms_needed, prev_heat_terms_needed),
              ("poisson", "chi"): (ref_delta_terms_needed,)}


@pytest.fixture(scope="module")
def bases():
    return {nu: EigenBasis.build(Order(nu), 200) for nu in ORDERS}


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except NumericsError as exc:
        return ("raise", exc.operation, exc.detail)


@pytest.mark.parametrize("nu", ORDERS)
@settings(max_examples=150, deadline=None)
@given(log_t=st.floats(-6.0, math.log10(12.0)), log_tol=st.floats(-14.0, -6.0))
def test_tail_counts_match_scalar_reference(bases, nu, log_t, log_tol):
    basis = bases[nu]
    t, tol = 10.0**log_t, 10.0**log_tol
    assert {(sg, rows) for sg, rows, _ in SERIES_KERNELS.values()} == set(REFERENCES)
    for (semigroup, rows), refs in REFERENCES.items():
        new = partial(basis.terms_needed, semigroup, rows=rows)
        for ref in refs:
            assert _outcome(new, t, tol) == _outcome(ref, basis, t, tol), (semigroup, rows)


@pytest.mark.parametrize("semigroup", sorted(SEMIGROUPS))
@settings(max_examples=200, deadline=None)
@given(log_t=st.floats(-8.0, math.log10(12.0)), n=st.integers(0, 2399),
       extra=st.floats(0.0, 1e3))
def test_log_ratio_bounds_the_weight_over_a_spacing(basis_half, semigroup, log_t, n, extra):
    """weight(lam + d) / weight(lam) <= exp(log_ratio(lam, t, pi theta)) for
    every d >= pi theta and lam on the 2400-zero table, the premise of the
    geometric tail, up to the rounding of the two logarithms; below the
    normal range, where the logarithms lose their digits, the weight only
    has to fall."""
    sg, t, lam = SEMIGROUPS[semigroup], 10.0**log_t, float(basis_half.table.zeros[n])
    pt = math.pi * EigenBasis._THETA
    w0, w1 = sg.weight(lam, t), sg.weight(lam + pt + extra, t)
    if w1 < np.finfo(float).tiny:
        assert w1 <= w0
        return
    logs = math.log(w0), math.log(w1)   # each off by eps/2 (w) + eps |log| (its argument)
    assert logs[1] - logs[0] <= sg.log_ratio(lam, t, pt) + \
        4 * np.finfo(float).eps * (2 + abs(logs[0]) + abs(logs[1]))


def test_time_floors_match_recorded_values(basis_half):
    kernels = UnitIntervalKernels(basis_half, series_tol=1e-10)
    assert kernels.floor("poisson") == pytest.approx(SEED_MIN_POISSON_TIME, rel=1e-12)
    assert kernels.floor("heat") == pytest.approx(SEED_MIN_HEAT_TIME, rel=1e-12)


def test_poisson_count_past_exp_underflow(bases):
    """Once exp(-t lam_1) underflows, the tail bound is exactly zero and no
    term is needed.  The scalar reference refuses here instead: its unused
    local bound becomes inf * 0 = nan, and a nan minimum never compares
    below tol."""
    basis = bases[0.5]
    t = 800.0 / basis.table.zeros[0]
    assert basis.terms_needed("poisson", t, 1e-10) == 0
    with pytest.raises(NumericsError):
        ref_poisson_terms_needed(basis, t, 1e-10)


# ---------------------------------------------------------------------------
# the pointwise bound


def _count_or_inf(count, *args, **kw):
    try:
        return count(*args, **kw)
    except NumericsError:
        return math.inf


@pytest.mark.parametrize("nu", ORDERS)
def test_time_floors_equal_the_previous_formula(bases, nu):
    """The floors pass no points, so they stay bit for bit as they were."""
    basis = bases[nu]
    kernels = UnitIntervalKernels(basis, series_tol=1e-10)
    assert kernels.floor("poisson") == \
        basis._min_time(partial(prev_poisson_terms_needed, basis), 1e-10, 1e-8)
    assert kernels.floor("heat") == \
        basis._min_time(partial(prev_heat_terms_needed, basis), 1e-10, 1e-10)


@pytest.mark.parametrize("nu", ORDERS)
@settings(max_examples=100, deadline=None)
@given(log_t=st.floats(-6.0, math.log10(12.0)), log_tol=st.floats(-14.0, -6.0),
       xy=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2, max_size=2))
def test_pointwise_count_is_at_most_the_point_free_one(bases, nu, log_t, log_tol, xy):
    """Never above the point-free count, and not increasing as x y grows."""
    basis = bases[nu]
    t, tol = 10.0**log_t, 10.0**log_tol
    small, large = sorted(xy)
    for count in (partial(basis.terms_needed, "poisson"), partial(basis.terms_needed, "heat")):
        free = _count_or_inf(count, t, tol)
        assert _count_or_inf(count, t, tol, xy=large) <= \
            _count_or_inf(count, t, tol, xy=small) <= free


@contextlib.contextmanager
def recorded_counts(calls):
    """Append (xy, count) of every tail count made inside."""
    original = EigenBasis.terms_needed

    def counted(self, semigroup, t, tol, xy=None, rows="phi"):
        calls.append((xy, original(self, semigroup, t, tol, xy, rows)))
        return calls[-1][1]
    with mock.patch.object(EigenBasis, "terms_needed", counted):
        yield


_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


# EigenBasis.build refuses nu in [7.96, 8]: c_n needs J_{nu+1}, and bessel_j
# is off by up to 0.36 at orders from about 8.5 on; hence 7.9
@settings(max_examples=8, deadline=None)
@given(nu=st.floats(-0.5, 7.9, exclude_min=True), frac=st.floats(0.0, 1.0),
       x=_unit, y=_unit)
def test_series_kernels_certify_at_their_points(nu, frac, x, y):
    """For each of the four series kernels on the shipped 2400-zero table, at
    t from its floor to 1: the tail past the kernel's count, summed in
    absolute value, is below tol, so the value at the count is within tol of
    the 2400-term value (whose own tail the floor certifies), up to the
    rounding of the two sums, each within n eps sum|terms| (Higham 2002, 4.2)."""
    basis = EigenBasis.build(Order(nu), 2400)
    kernels = UnitIntervalKernels(basis)
    tol, lam = kernels.series_tol, basis.table.zeros
    floors = {semigroup: kernels.floor(semigroup) for semigroup in SEMIGROUPS}
    for name, semigroup, rows in (("poisson_mu", "poisson", basis.phi_matrix),
                                  ("poisson_lebesgue", "poisson", basis.psi_matrix),
                                  ("heat_mu", "heat", basis.phi_matrix),
                                  ("heat_lebesgue", "heat", basis.psi_matrix)):
        t = floors[semigroup] ** (1.0 - frac)
        basis.terms_needed(semigroup, t, tol)   # the full table certifies
        calls = []
        with recorded_counts(calls):
            value = getattr(kernels, name)(t, x, y)
        ((xy, n),) = calls
        assert xy == (x * y if rows == basis.phi_matrix else 1.0), name
        table = rows(np.array([x, y]), len(basis))
        terms = SEMIGROUPS[semigroup].weight(lam, t) * table[:, 0] * table[:, 1]
        assert np.sum(np.abs(terms[n:])) < tol, name
        rounding = 2 * len(lam) * np.finfo(float).eps * np.sum(np.abs(terms))
        assert abs(value - np.sum(terms)) <= tol + rounding, name
