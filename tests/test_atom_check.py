"""The column check of an AtomTable against the per-atom check it replaces.

`AtomTable.check` computes every atom condition for every row of a table in
one array pass; `AtomTable.reports` reads it. The reference
`ref_validate_atom` below is the per-atom check as it was before, verbatim
apart from its name, `size_slack` kept at its one value, the atom methods it
called (`interval`, `sigma`, `sup_norm`, `cancellation`) written out as the
calls they made on the atom's function, and the atom read as row i of a
table: its function `table.row(i)`, its kind and label `table.kind(i)` and
`table.label(i)`, its measure and order the table's. Every report must equal
the reference byte for byte, and so must the report of the row alone, as a
one-row table: floats by their bytes, so a -0.0 for a 0.0 is a
mismatch, and booleans, strings and keys exactly. The rows come from seeded
`random_atoms` tables at both measures and three orders, from the four
decompositions of acceptance criterion 10, and from `globalize_special`
pairs, each with and without a cover, and from rows made to fail one
condition each or to integrate to -0.0.
"""
import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.covers import FAMILY_ONE_END, FAMILY_TWO_END, DyadicCover
from fbhardy.hardy import (KIND_CANCELLATIVE, KIND_SPECIAL, AtomTable,
                           PiecewiseLinear, atomic_decompose, globalize_special,
                           random_atoms)
from fbhardy.quadrature import MEASURE_LEBESGUE, MEASURE_MU, Measure

from test_cascade_arrays import _gate10_cases


def ref_validate_atom(table: AtomTable, i: int, cover: DyadicCover | None = None,
                      cancel_tol: float = 1e-10, size_slack: float = 1e-9) -> dict:
    """Defect report for the atom of row i; 'valid' aggregates the individual checks."""
    fn, kind = table.row(i), table.kind(i)
    iv = fn.support
    sigma = float(Measure.of(table.measure, table.nu).interval(iv.a, iv.b))
    sup = fn.sup_norm()
    report = {
        "kind": kind,
        "measure": table.measure,
        "label": table.label(i),
        "support": (iv.a, iv.b),
        "support_ok": bool(0.0 <= iv.a < iv.b <= 1.0),
        "sigma": sigma,
        "sup_norm": sup,
        "size_limit": 1.0 / sigma,
        "size_ok": bool(sup <= (1.0 + size_slack) / sigma),
    }
    if kind == KIND_CANCELLATIVE:
        defect = fn.integral(table.measure, table.nu)
        report["cancellation"] = defect
        report["cancellation_ok"] = bool(abs(defect) <= cancel_tol)
    else:
        # a special atom is the exact normalized indicator of a cover cell
        flat = bool(np.all(fn.slopes == 0.0)
                    and np.ptp(fn.intercepts) == 0.0)
        value_ok = flat and abs(fn.intercepts[0] * sigma - 1.0) < 1e-12
        report["constant_ok"] = value_ok
        if cover is not None:
            report["cell_match_ok"] = any(
                abs(cell.a - iv.a) < 1e-12 and abs(cell.b - iv.b) < 1e-12
                for cell in map(cover.interval, cover.indices()))
    report["valid"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report


def _bytes(v):
    """A report value with floats as their bytes and numpy bools as bools."""
    if isinstance(v, tuple):
        return tuple(map(_bytes, v))
    if isinstance(v, (float, np.floating)):
        return struct.pack("<d", float(v))
    return bool(v) if isinstance(v, np.bool_) else v


def assert_same_report(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    assert {k: _bytes(v) for k, v in got.items()} == {k: _bytes(v) for k, v in want.items()}


def report_alone(table: AtomTable, i: int, cover: DyadicCover | None = None) -> dict:
    """The report of row i rebuilt alone, as a one-row table."""
    alone = AtomTable.of(table.row(i), table.measure, table.nu, table.kind(i), table.label(i))
    return alone.reports(cover)[0]


_FAMILY = {MEASURE_MU: FAMILY_ONE_END, MEASURE_LEBESGUE: FAMILY_TWO_END}


def _cover(measure: str) -> DyadicCover:
    return DyadicCover(_FAMILY[measure], zeta=0.02, j_max=12)


def _random(measure, nu):
    return random_atoms(np.random.default_rng(20240), measure, nu, 400)


def _decomposition(case):
    measure, fn = _gate10_cases()[case]
    return atomic_decompose(fn, nu=0.5, measure=measure).atoms()


def _globalized(measure, nu):
    cover = _cover(measure)
    js = (0, 3, 7) if measure == MEASURE_MU else (-5, -1, 2, 6)
    return AtomTable._concat(measure, nu, [globalize_special(cover, j, nu, measure, 0.7 - 0.3 * j)
                                           for j in js])


_SOURCES = ([(_random, (m, nu)) for m in (MEASURE_MU, MEASURE_LEBESGUE)
             for nu in (-0.3, 0.5, 1.0)]
            + [(_decomposition, (case,)) for case in range(4)]
            + [(_globalized, (m, nu)) for m in (MEASURE_MU, MEASURE_LEBESGUE)
               for nu in (-0.3, 0.5, 1.0)])


@functools.lru_cache(maxsize=None)
def _source(i: int) -> AtomTable:
    build, args = _SOURCES[i]
    return build(*args)


@functools.lru_cache(maxsize=None)
def _reports(i: int, with_cover: bool) -> list:
    table = _source(i)
    return table.reports(_cover(table.measure) if with_cover else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_SOURCES) - 1), st.booleans(),
       st.lists(st.integers(0, 2**31), min_size=1, max_size=40))
def test_check_equals_the_per_atom_reference(i, with_cover, draws):
    table = _source(i)
    cover = _cover(table.measure) if with_cover else None
    got = _reports(i, with_cover)
    for r in sorted({d % len(table) for d in draws}):
        want = ref_validate_atom(table, r, cover)
        assert_same_report(got[r], want)
        assert_same_report(report_alone(table, r, cover), want)


@pytest.mark.parametrize("i", [i for i, (build, args) in enumerate(_SOURCES)
                               if build is not _decomposition or args == (1,)])
def test_check_equals_the_reference_on_every_row(i):
    """Every row of the random and globalized tables and of the 119-row
    decomposition, with and without a cover."""
    table = _source(i)
    for cover in (None, _cover(table.measure)):
        got = table.reports(cover)
        assert len(got) == len(table)
        for (_, i), report in zip(table, got):
            assert_same_report(report, ref_validate_atom(table, i, cover))


def test_check_columns():
    """One entry per row in every column; the _ok columns of a kind they do
    not check read True, and valid is their conjunction."""
    table = _globalized(MEASURE_LEBESGUE, 0.5)
    cols = table.check(_cover(MEASURE_LEBESGUE))
    special = np.array([table.tags[i][0] != KIND_CANCELLATIVE for i in range(len(table))])
    assert special.any() and not special.all()
    assert cols["support"].shape == (len(table), 2)
    assert all(len(v) == len(table) for v in cols.values())
    assert cols["cancellation_ok"][special].all()
    assert cols["constant_ok"][~special].all() and cols["cell_match_ok"][~special].all()
    ok = [v for k, v in cols.items() if k.endswith("_ok")]
    assert np.array_equal(cols["valid"], np.logical_and.reduce(ok))
    assert "cell_match_ok" not in table.check()


def test_check_keeps_the_sign_of_a_zero_cancellation():
    """Rows whose pieces all integrate to -0.0: PiecewiseLinear.integral
    adds a one-piece row's piece to 0.0, reading 0.0, and sums a longer row
    from its first piece, reading -0.0. The check gives the same bytes."""
    atoms = [AtomTable.of(PiecewiseLinear(breaks, np.full(len(breaks) - 1, -0.0),
                                          np.full(len(breaks) - 1, -0.0)),
                          MEASURE_LEBESGUE, 0.5, KIND_CANCELLATIVE)
             for breaks in ([0.2, 0.6], [0.2, 0.4, 0.6], [0.1, 0.2, 0.4, 0.6])]
    table = AtomTable._concat(MEASURE_LEBESGUE, 0.5, atoms)
    assert [_bytes(v) for v in table.check()["cancellation"]] == [
        _bytes(v) for v in (0.0, -0.0, -0.0)]
    for (_, i), report in zip(table, table.reports()):
        assert_same_report(report, ref_validate_atom(table, i))


def test_check_flags_each_defect_as_the_reference_does():
    """A support reaching below 0, a special row that is not constant, and
    a special row on a cell's left end only: each fails its own check, as
    the reference finds."""
    cover = _cover(MEASURE_MU)
    cell = cover.interval(3)
    mid = 0.5 * (cell.a + cell.b)
    level, half = (1.0 / float(Measure.of(MEASURE_MU, 0.5).interval(lo, hi))
                   for lo, hi in ((cell.a, cell.b), (cell.a, mid)))
    cases = [
        ("support_ok", AtomTable.of(
            PiecewiseLinear.from_breaks_levels([-0.1, 0.0, 0.1], [1.0, -1.0]),
            MEASURE_LEBESGUE, 0.5, KIND_CANCELLATIVE)),
        ("constant_ok", AtomTable.of(
            PiecewiseLinear.from_breaks_levels([cell.a, mid, cell.b], [level, 2.0 * level]),
            MEASURE_MU, 0.5, KIND_SPECIAL)),
        ("cell_match_ok", AtomTable.of(PiecewiseLinear.constant(cell.a, mid, half),
                                       MEASURE_MU, 0.5, KIND_SPECIAL)),
    ]
    for flag, atom in cases:
        want = ref_validate_atom(atom, 0, cover)
        assert not want[flag] and not want["valid"], flag
        assert_same_report(atom.reports(cover)[0], want)
