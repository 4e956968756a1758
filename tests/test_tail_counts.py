"""Series tail counts against a scalar reference implementation.

The reference functions below are the original one-index-at-a-time loops of
`EigenBasis.*_terms_needed`, kept verbatim apart from two edits: `self` is
the basis argument, and the local coefficient bound is replaced by its value
when no xy floor is given (infinity, so the global bound always decides).
The vectorised methods must return the same truncation index, or raise the
same NumericsError, everywhere the property samples.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.basis import EigenBasis
from fbhardy.errors import NumericsError
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


# min_poisson_time(1e-10) and min_heat_time(1e-10) of the nu = 1/2,
# 2400-zero basis, recorded with the scalar loops above
SEED_MIN_POISSON_TIME = 0.006073069820746941
SEED_MIN_HEAT_TIME = 7.93295620378067e-07

ORDERS = (-0.3, 0.5, 1.0, 2.5)


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
    for new, ref in ((basis.poisson_terms_needed, ref_poisson_terms_needed),
                     (basis.heat_terms_needed, ref_heat_terms_needed),
                     (basis.delta_terms_needed, ref_delta_terms_needed)):
        assert _outcome(new, t, tol) == _outcome(ref, basis, t, tol)


def test_time_floors_match_recorded_values(basis_half):
    assert basis_half.min_poisson_time(1e-10) == pytest.approx(
        SEED_MIN_POISSON_TIME, rel=1e-12)
    assert basis_half.min_heat_time(1e-10) == pytest.approx(
        SEED_MIN_HEAT_TIME, rel=1e-12)


def test_poisson_count_past_exp_underflow(bases):
    """Once exp(-t lam_1) underflows, the tail bound is exactly zero and no
    term is needed.  The scalar reference refuses here instead: its unused
    local bound becomes inf * 0 = nan, and a nan minimum never compares
    below tol."""
    basis = bases[0.5]
    t = 800.0 / basis.table.zeros[0]
    assert basis.poisson_terms_needed(t, 1e-10) == 0
    with pytest.raises(NumericsError):
        ref_poisson_terms_needed(basis, t, 1e-10)
