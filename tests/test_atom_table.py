"""The one checked table behind closers and atoms.

An `AtomTable` is the one representation of an atom: a ragged table checked
once with PiecewiseLinear's conditions and read as a sequence of
(coefficient, atom) rows. An atom holds only its table and row index; its
function, a read-only view of the row, and its label are built when first
read and then kept. The public `Atom` constructor builds a one-row table,
`random_atoms` joins its atoms into one table, and a cascade keeps its
closers, unnormalized, as the closer rows of an `AtomTable` read by column.
One writer, `LocalCascade._write`, puts a cascade's detail and closer rows
straight into the columns of a table: `LocalCascade.materialize` sizes a
table of its own for it, and `Decomposition.atoms()` sizes one table for
every piece and writes each piece's special rows after its cascade's.
These tests pin the table check to the constructor's messages, the views
and columns to read-only memory, the rows to building nothing until read,
the atoms to what the public constructor builds from the same numbers, the
joined table to the list of pairs it replaces, and `AtomTable.evaluate` to
each row's atom, bit for bit.

`ref_details`, `ref_concat`, `ref_take`, `ref_materialize_table` and
`ref_atoms_table` are the path the writer replaced: a checked detail table,
joined to the closers, taken in order and rescaled, then joined again across
pieces. They are kept verbatim apart from their names, with `self` an
argument. `materialize()` and `atoms()` must equal them column for column,
byte for byte, with the same tags and labels.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbhardy.errors import NumericsError
from fbhardy.covers import FAMILY_ONE_END, FAMILY_TWO_END, DyadicCover, Interval
from fbhardy.hardy import (KIND_CANCELLATIVE, KIND_SPECIAL, Atom, AtomTable,
                           CascadeLevel, Decomposition, PiecewiseLinear,
                           _haar_levels, atomic_decompose, cascade_decompose,
                           globalize_special, haar_atom, random_atoms,
                           special_atom, two_atom_split, validate_atom)
from fbhardy.quadrature import MEASURE_LEBESGUE, MEASURE_MU, Measure

from test_cascade_arrays import (_gate10_cases, ref_cascade_decompose,
                                 ref_haar_atom, ref_materialize)


def _table(rows, n_slopes=None):
    """A table of closer rows holding the given rows of breaks, with zero
    pieces (n_slopes of them, if given, instead of one per piece)."""
    counts = [len(r) - 1 for r in rows]
    n_pieces = sum(counts)
    return AtomTable(
        MEASURE_MU, 0.5, np.ones(len(rows)), np.ones(len(rows), dtype=bool),
        np.ones(len(rows), dtype=np.int64), np.arange(len(rows)),
        np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        np.concatenate([np.asarray(r, dtype=float) for r in rows]),
        np.zeros(n_pieces if n_slopes is None else n_slopes), np.zeros(n_pieces))


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("bad", [[0.3, 0.3, 0.4], [0.4, 0.35], [0.3]])
def test_table_rejects_a_row_as_the_constructor_does(bad):
    """One non-increasing (or one-break) row among good ones fails the
    whole table with the constructor's message for that row."""
    rows = [[0.1, 0.2], bad, [0.5, 0.6, 0.9]]
    want = _message(lambda: PiecewiseLinear(
        bad, np.zeros(max(len(bad) - 1, 0)), np.zeros(max(len(bad) - 1, 0))))
    assert want == "breaks must be strictly increasing, length >= 2"
    assert _message(lambda: _table(rows)) == want


def test_table_rejects_a_missing_slope_as_the_constructor_does():
    want = _message(lambda: PiecewiseLinear([0.1, 0.2, 0.3], [0.0], [0.0, 0.0]))
    assert want == "one slope and intercept per piece"
    assert _message(lambda: _table([[0.1, 0.2], [0.1, 0.2, 0.3]], n_slopes=2)) == want


def test_table_rows_may_decrease_across_rows():
    """Only the breaks inside a row must increase: rows come in any order."""
    t = _table([[0.5, 0.6], [0.1, 0.2, 0.3], [0.05, 0.4]])
    assert [list(PiecewiseLinear._row(t, i).breaks) for i in range(len(t))] \
        == [[0.5, 0.6], [0.1, 0.2, 0.3], [0.05, 0.4]]


def test_materialize_rejects_a_degenerate_detail_as_haar_atom_does():
    """A detail cell too deep to split in floating point has its median on
    an edge; the atom table refuses it with the constructor's message."""
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.0)
    cascade = cascade_decompose(fn, Interval(0.2, 0.5), MEASURE_LEBESGUE, 0.5)
    deep = CascadeLevel(depth=80, idx=np.array([3]), lam=np.array([1e3]))
    broken = dataclasses.replace(cascade, levels=cascade.levels + [deep])
    left, med, right = (float(e[0]) for e in broken.edges(80, [3]))
    assert not left < med < right
    with np.errstate(divide="ignore", invalid="ignore"):    # its levels
        want = _message(lambda: haar_atom(left, med, right, 0.5,
                                          MEASURE_LEBESGUE))
        assert _message(broken.materialize) == want


def test_atoms_reject_a_degenerate_detail_as_haar_atom_does():
    """The same depth-80 level in one piece of a decomposition fails atoms()
    with the constructor's message, before its levels are taken."""
    fn = PiecewiseLinear.tent(0.3, 0.62, 1.0)
    dec = atomic_decompose(fn, nu=0.5, measure=MEASURE_LEBESGUE, depth_cap=8)
    cascade, special = dec.pieces[1]
    deep = CascadeLevel(depth=80, idx=np.array([3]), lam=np.array([1e3]))
    broken = dataclasses.replace(cascade, levels=cascade.levels + [deep])
    left, med, right = (float(e[0]) for e in broken.edges(80, [3]))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _message(lambda: haar_atom(left, med, right, 0.5, MEASURE_LEBESGUE))
    pieces = dec.pieces[:1] + [(broken, special)] + dec.pieces[2:]
    with np.errstate(divide="raise", invalid="raise"):
        assert _message(Decomposition(MEASURE_LEBESGUE, 0.5, pieces).atoms) == want
    assert want == "breaks must be strictly increasing, length >= 2"


def _cascade(build=cascade_decompose):
    fn = PiecewiseLinear.from_node_values([0.22, 0.3, 0.41, 0.46],
                                          [0.0, 1.0, -0.4, 0.0])
    return build(fn, Interval(0.2, 0.5), MEASURE_MU, 0.5, detail_cut=1e-7)


@pytest.mark.parametrize("max_atoms", [None, 7])
def test_materialized_arrays_are_read_only_views(max_atoms):
    pairs = _cascade().materialize()[:max_atoms]
    assert len(pairs) == max_atoms or {a.label[:4] for _, a in pairs} \
        == {"haar", "clos"}
    arrays = [arr for _, a in pairs
              for arr in (a.fn.breaks, a.fn.slopes, a.fn.intercepts)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # every function is a view of the same three table arrays
    assert len({id(arr.base) for arr in arrays}) == 3


def test_closer_rows_are_read_only_views():
    """Every column of a closer table is read-only and stays so."""
    t = _cascade().closers
    assert len(t) > 10 and t.closer.all()
    for f in dataclasses.fields(t):
        arr = getattr(t, f.name)
        if not isinstance(arr, np.ndarray):   # measure, nu and tags
            continue
        assert not arr.flags.writeable, f.name
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_every_table_column_is_read_only():
    """Coefficients and labels cannot go stale: no column of either table
    can be written after the table is built."""
    cascade = _cascade()
    pairs = cascade.materialize()
    for table in (pairs, cascade.closers):
        for f in dataclasses.fields(table):
            col = getattr(table, f.name)
            assert not isinstance(col, np.ndarray) or not col.flags.writeable, f.name
    with pytest.raises(ValueError):
        pairs.coef[0] = 5.0
    with pytest.raises(ValueError):
        cascade.closers.coef[0] = 7.0


def test_atoms_and_functions_have_no_instance_dict():
    _, atom = _cascade().materialize()[0]
    assert not hasattr(atom, "__dict__") and not hasattr(atom.fn, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        atom.fn.breaks = np.zeros(2)


def _fields(atom):
    return (atom.measure, atom.nu, atom.kind, atom.label)


def test_gate10_atoms_equal_their_public_rebuild():
    """Each atom of the four gate-10 decompositions, rebuilt by the public
    constructor from copies of its arrays, passes the constructor's check
    and equals it: the same fields, and float64 arrays equal bit for bit."""
    for measure, fn in _gate10_cases():
        pairs = atomic_decompose(fn, nu=0.5, measure=measure).atoms()
        rebuilt = [Atom(fn=PiecewiseLinear(a.fn.breaks.copy(),
                                           a.fn.slopes.copy(),
                                           a.fn.intercepts.copy()),
                        measure=a.measure, nu=a.nu, kind=a.kind, label=a.label)
                   for _, a in pairs]
        atoms = [a for _, a in pairs]
        assert [_fields(a) for a in atoms] == [_fields(b) for b in rebuilt]
        for name in ("breaks", "slopes", "intercepts"):
            got = [getattr(a.fn, name) for a in atoms]
            want = [getattr(b.fn, name) for b in rebuilt]
            assert [len(g) for g in got] == [len(w) for w in want]
            assert {g.dtype for g in got} == {w.dtype for w in want} \
                == {np.dtype(np.float64)}
            assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()


def _counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(name)
        return original(*args, **kw)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_counting_gate10_atoms_builds_no_function(monkeypatch):
    """len() and the coefficient sum of the gate-10 atoms read the table's
    coefficients only: no row function and no label is built."""
    decs = [atomic_decompose(fn, nu=0.5, measure=measure)
            for measure, fn in _gate10_cases()]
    built = [_counting(monkeypatch, PiecewiseLinear, "_row"),
             _counting(monkeypatch, PiecewiseLinear, "__post_init__"),
             _counting(monkeypatch, AtomTable, "_label")]
    count = 0
    for dec in decs:
        pairs = dec.atoms()
        count += len(pairs)
        total = sum(abs(c) for c, _ in pairs)
        assert total == pytest.approx(dec.coeff_l1(), rel=1e-12)
    assert count > 100_000
    assert built == [[], [], []]


def test_coeff_l1_reads_the_special_rows_by_column(monkeypatch):
    """On the four gate-10 decompositions coeff_l1 equals, byte for byte, the
    sum that reads each piece's special rows by iteration, and builds no atom."""
    decs = [atomic_decompose(fn, nu=0.5, measure=measure)
            for measure, fn in _gate10_cases()]
    want = []
    for dec in decs:
        total = 0.0
        for cascade, special in dec.pieces:
            total += cascade.coeff_l1()
            total += sum(abs(c) for c, _ in special)
        want.append(total)
    assert sum(len(special) for dec in decs for _, special in dec.pieces) > 0
    rows = _counting(monkeypatch, Atom, "_of_row")
    got = [dec.coeff_l1() for dec in decs]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(v) is float for v in got) and rows == []


def test_row_atom_builds_its_function_once(monkeypatch):
    rows = _counting(monkeypatch, PiecewiseLinear, "_row")
    pairs = _cascade().materialize()
    atoms = [a for _, a in pairs]
    assert rows == []
    for atom in atoms:
        assert atom.fn is atom.fn
        assert validate_atom(atom)["support"] == (atom.fn.support.a, atom.fn.support.b)
    assert len(rows) == len(atoms)


def test_row_atom_builds_its_label_on_first_read(monkeypatch):
    """Labels are built when read, once, and equal the labels of the eager
    per-entry reference."""
    cascade = _cascade()
    want = [a.label for _, a in ref_materialize(_cascade(ref_cascade_decompose))]
    labels = _counting(monkeypatch, AtomTable, "_label")
    atoms = [a for _, a in cascade.materialize()]
    assert labels == []
    got = [a.label for a in atoms]
    assert [a.label for a in atoms] == got == want
    assert len(labels) == len(atoms)


def _atom_key(pair):
    c, a = pair
    return c, a.label, a.fn.breaks.tobytes(), a.fn.slopes.tobytes()


@pytest.mark.parametrize("table, key", [(lambda c: c.materialize(), _atom_key)])
def test_tables_index_and_slice_as_a_list(table, key):
    rows_of = table(_cascade())
    rows = list(rows_of)
    assert len(rows) == len(rows_of) > 10
    for i in (0, 3, -1, -len(rows)):
        assert key(rows_of[i]) == key(rows[i])
    for sl in (slice(2, 9), slice(None, None, -3), slice(len(rows) + 5, None)):
        got = rows_of[sl]
        assert isinstance(got, list)
        assert [key(r) for r in got] == [key(r) for r in rows[sl]]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows_of[i]


def test_atom_table_coefficients_are_floats():
    pairs = _cascade().materialize()
    assert isinstance(pairs, AtomTable)
    assert all(type(c) is float for c, _ in pairs)
    assert type(pairs[0][0]) is float


def test_atom_fields_are_read_only():
    built = haar_atom(0.2, 0.3, 0.4, 0.5, MEASURE_LEBESGUE)
    _, row = _cascade().materialize()[0]
    for atom in (built, row):
        for name, value in (("fn", built.fn), ("label", "x"), ("kind", "x"),
                            ("measure", MEASURE_MU), ("nu", 1.0)):
            with pytest.raises(AttributeError):
                setattr(atom, name, value)
        with pytest.raises(AttributeError):
            atom.extra = 1


# ---------------------------------------------------------------------------
# one kind of atom: constructor atoms and the joined decomposition table


def ref_atoms(self):
    """`Decomposition.atoms` as a list of pairs, verbatim."""
    return [pair for cascade, special_pairs in self.pieces
            for pair in (*cascade.materialize(), *special_pairs)]


def ref_globalize_special(cover, j, nu, measure, coef):
    """`globalize_special` as a list of pairs, verbatim."""
    split = two_atom_split(cover, j, nu, measure)
    return [(coef, split["cell_special"]),
            (-coef * split["lam1"], split["cancellative"])]


def _same_pairs(got, want):
    """Two lists of (coef, atom) pairs hold the same float coefficients, the
    same fields and the same float64 arrays, bit for bit."""
    assert len(got) == len(want)
    assert all(type(c) is float for c, _ in got)
    assert np.array([c for c, _ in got]).tobytes() \
        == np.array([c for c, _ in want]).tobytes()
    assert [_fields(a) for _, a in got] == [_fields(a) for _, a in want]
    for name in ("breaks", "slopes", "intercepts"):
        g = [getattr(a.fn, name) for _, a in got]
        w = [getattr(a.fn, name) for _, a in want]
        assert [len(x) for x in g] == [len(x) for x in w]
        assert np.concatenate(g).tobytes() == np.concatenate(w).tobytes()


def test_gate10_atoms_are_the_rows_of_the_pair_list():
    """On the four gate-10 cases the joined table gives, by len, index,
    negative index, slice and iteration, the pairs of the list it replaced."""
    for measure, fn in _gate10_cases():
        dec = atomic_decompose(fn, nu=0.5, measure=measure)
        rows, want = dec.atoms(), ref_atoms(dec)
        assert isinstance(rows, AtomTable) and len(rows) == len(want)
        for i in (0, 1, len(want) // 2, -1, -len(want)):
            _same_pairs([rows[i]], [want[i]])
        for sl in (slice(None, 40), slice(None, None, 7)):
            _same_pairs(rows[sl], want[sl])
        _same_pairs(list(rows), want)
        assert [a.kind for _, a in want].count(KIND_SPECIAL) \
            == len(dec.pieces) == sum(len(sp) for _, sp in dec.pieces) // 2


@pytest.mark.parametrize("measure, family, js", [
    (MEASURE_MU, FAMILY_ONE_END, (0, 3, 7)),
    (MEASURE_LEBESGUE, FAMILY_TWO_END, (-5, -1, 4))])
def test_globalized_special_rows_equal_the_pair_list(measure, family, js):
    cover = DyadicCover(family, zeta=0.02)
    for j in js:
        got = globalize_special(cover, j, 0.5, measure, 0.7)
        assert isinstance(got, AtomTable)
        _same_pairs(list(got), ref_globalize_special(cover, j, 0.5, measure, 0.7))
        assert [(a.kind, a.label) for _, a in got] == [
            (KIND_SPECIAL, f"special[{j}]"),
            (KIND_CANCELLATIVE, f"two-atom-corrector[{j}]")]


def test_constructor_atom_is_the_one_row_of_its_table():
    fn = PiecewiseLinear.tent(0.2, 0.6)
    atom = Atom(fn=fn, measure=MEASURE_MU, nu=0.5, kind=KIND_SPECIAL, label="t")
    table = atom._table
    assert isinstance(table, AtomTable) and len(table) == 1 and atom._row == 0
    assert atom.fn is fn and _fields(atom) == (MEASURE_MU, 0.5, KIND_SPECIAL, "t")
    (coef, row), = table
    assert coef == 1.0 and row is not atom
    _same_pairs([(coef, row)], [(1.0, atom)])


def _special_ref(iv, nu, measure, label):
    s = Measure.of(measure, nu).interval(iv.a, iv.b)
    return Atom(fn=PiecewiseLinear.constant(iv.a, iv.b, 1.0 / s), measure=measure,
                nu=nu, kind=KIND_SPECIAL, label=label)


@pytest.mark.parametrize("measure, family, j", [(MEASURE_MU, FAMILY_ONE_END, 3),
                                                (MEASURE_LEBESGUE, FAMILY_TWO_END, -2)])
def test_built_atoms_keep_their_fields_and_arrays(measure, family, j):
    """haar_atom, special_atom and two_atom_split give the fields and arrays
    of their references, and each atom is the one row of its own table."""
    cover = DyadicCover(family, zeta=0.02)
    split = two_atom_split(cover, j, 0.5, measure)
    cell, big = cover.interval(j), cover.starred(j, 2)
    pts = np.unique(np.array([big.a, cell.a, cell.b, big.b]))
    s_cell, s_big = (Measure.of(measure, 0.5).interval(iv.a, iv.b) for iv in (cell, big))
    diff = PiecewiseLinear.from_breaks_levels(pts, [
        (1.0 / s_cell if cell.a <= lo and hi <= cell.b else 0.0) - 1.0 / s_big
        for lo, hi in zip(pts[:-1], pts[1:])])
    corrector = Atom(fn=diff.scaled(1.0 / split["lam1"]), measure=measure,
                     nu=0.5, kind=KIND_CANCELLATIVE, label=f"two-atom-corrector[{j}]")
    assert split["lam1"] == s_big * diff.sup_norm()
    pairs = [(haar_atom(0.2, 0.3, 0.45, 0.5, measure, label="h"),
              ref_haar_atom(0.2, 0.3, 0.45, 0.5, measure, label="h")),
             (haar_atom(0.2, 0.3, 0.45, 0.5, measure),
              ref_haar_atom(0.2, 0.3, 0.45, 0.5, measure)),
             (special_atom(cover, j, 0.5, measure),
              _special_ref(cell, 0.5, measure, f"special[{j}]")),
             (split["cell_special"], _special_ref(cell, 0.5, measure, f"special[{j}]")),
             (split["local_special"],
              _special_ref(big, 0.5, measure, f"local-special[{j}]")),
             (split["cancellative"], corrector)]
    for got, want in pairs:
        _same_pairs([(1.0, got)], [(1.0, want)])
        assert len(got._table) == 1
        _same_pairs(list(got._table), [(1.0, got)])


# ---------------------------------------------------------------------------
# the one writer against the path it replaced, and evaluating every row at once


def ref_details(self) -> AtomTable:
    depth = np.concatenate([np.full(len(lev.idx), lev.depth) for lev in self.levels]
                           + [self.closers.depth[:0]])
    cell = np.concatenate([lev.idx for lev in self.levels] + [self.closers.cell[:0]])
    lam = np.concatenate([lev.lam for lev in self.levels] + [self.closers.coef[:0]])
    edges = self.edges(depth, cell)
    return AtomTable(self.measure, self.nu, lam, np.zeros(len(lam), bool), depth, cell,
                     2 * np.arange(len(lam) + 1), np.column_stack(edges).ravel(),
                     np.zeros(2 * len(lam)), np.column_stack(
                         _haar_levels(*edges, self.measure, self.nu)).ravel())


def ref_concat(tables) -> AtomTable:
    rows = np.cumsum([0] + [len(t) for t in tables]).tolist()
    pieces = np.cumsum([0] + [t.start[-1] for t in tables])
    cols = {name: np.concatenate([getattr(t, name) for t in tables])
            for name in ("coef", "closer", "depth", "cell", "breaks",
                         "slopes", "intercepts")}
    start = np.concatenate([[0]] + [t.start[1:] + p for t, p in zip(tables, pieces)])
    return AtomTable._unchecked(measure=tables[0].measure, nu=tables[0].nu, start=start, **cols,
                                tags={r + i: tag for t, r in zip(tables, rows)
                                      for i, tag in t.tags.items()})


def ref_take(self, order) -> AtomTable:
    n, counts = len(order), np.diff(self.start)[order]
    start = np.concatenate([[0], np.cumsum(counts)])
    first = self.start[order] - start[:-1]
    piece = np.repeat(first, counts) + np.arange(start[-1])
    brk = np.repeat(first + order - np.arange(n), counts + 1)
    brk += np.arange(start[-1] + n)
    return AtomTable._unchecked(
        measure=self.measure, nu=self.nu, coef=self.coef[order],
        closer=self.closer[order], depth=self.depth[order], cell=self.cell[order],
        start=start, breaks=self.breaks[brk], slopes=self.slopes[piece],
        intercepts=self.intercepts[piece], tags={
            i: self.tags[r] for i, r in enumerate(order.tolist())
            if r in self.tags} if self.tags else {})


def ref_materialize_table(self) -> AtomTable:
    t = self.closers
    with np.errstate(divide="ignore", over="ignore"):
        bad = np.flatnonzero(~np.isfinite(1.0 / t.coef))
    for j in bad[np.lexsort((t.cell[bad], t.depth[bad], -np.abs(t.coef[bad])))][:1]:  # largest
        raise NumericsError("materialize", f"closer [d{t.depth[j]},k{t.cell[j]}]: "
                            f"coefficient {t.coef[j]:.3e} cannot be normalized")
    rows = ref_concat([ref_details(self), t])
    rows = ref_take(rows, np.lexsort((rows.cell, rows.depth, -np.abs(rows.coef))))
    scale = np.repeat(1.0 / np.where(rows.closer, rows.coef, 1.0), np.diff(rows.start))
    return AtomTable._unchecked(**vars(rows) | {"slopes": rows.slopes * scale,
                                                "intercepts": rows.intercepts * scale})


def ref_atoms_table(self) -> "AtomTable | tuple":
    tables = [t for cascade, special in self.pieces
              for t in (ref_materialize_table(cascade), special) if len(t)]
    return ref_concat(tables) if tables else ()


def _same_table(got, want):
    """Two tables hold the same columns (dtype and bytes, read-only), tags,
    labels and kinds."""
    assert isinstance(got, AtomTable) and isinstance(want, AtomTable)
    assert (got.measure, got.nu, len(got)) == (want.measure, want.nu, len(want))
    for f in dataclasses.fields(AtomTable):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), f.name
            assert not g.flags.writeable, f.name
    assert got.tags == want.tags
    assert [(a.label, a.kind) for _, a in got] == [(a.label, a.kind) for _, a in want]


@st.composite
def decomposition_inputs(draw):
    """A piecewise-linear input whose support crosses several cover cells,
    either measure, nu in {-0.3, 1/2, 1}, three cuts and two depth caps."""
    a = draw(st.floats(0.08, 0.5))
    nodes = np.linspace(a, a + draw(st.floats(0.05, 0.3)), n := draw(st.integers(2, 6)))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    fn = PiecewiseLinear.from_node_values(nodes, np.asarray(values) * 1e-3)
    return (fn, draw(st.sampled_from([-0.3, 0.5, 1.0])),
            draw(st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE])),
            draw(st.sampled_from([1e-2, 1e-4, 1e-6])), draw(st.sampled_from([6, 26])))


@settings(max_examples=30, deadline=None)
@given(decomposition_inputs())
def test_written_tables_equal_the_joined_and_taken_path(inputs):
    fn, nu, measure, tol, depth_cap = inputs
    dec = atomic_decompose(fn, nu=nu, measure=measure, reconstruct_tol=tol,
                           depth_cap=depth_cap)
    got, want = dec.atoms(), ref_atoms_table(dec)
    assert (got == ()) == (want == ())
    if want != ():
        _same_table(got, want)
    for cascade, _ in dec.pieces:
        _same_table(cascade.materialize(), ref_materialize_table(cascade))


def test_gate10_tables_equal_the_joined_and_taken_path():
    """The four gate-10 decompositions (more than 100 000 rows), the bump at
    nu = -0.3 and a mu tent of several pieces at nu = 1."""
    cases = [(measure, fn, 0.5) for measure, fn in _gate10_cases()] + [
        (MEASURE_MU, _gate10_cases()[0][1], -0.3),
        (MEASURE_MU, PiecewiseLinear.tent(0.3, 0.62, 1.0), 1.0)]
    for measure, fn, nu in cases:
        dec = atomic_decompose(fn, nu=nu, measure=measure)
        _same_table(dec.atoms(), ref_atoms_table(dec))
    assert len(dec.pieces) > 1


def test_coefficient_ties_order_by_depth_then_cell():
    """Rows of equal |coef| come by depth, then by cell: a closer's row
    precedes the detail rows of later cells at its depth that tie with it."""
    cascade = _cascade()
    t = cascade.closers
    d, k, lam = t.depth.item(0), t.cell.item(0), t.coef.item(0)
    tie = CascadeLevel(depth=d, idx=np.array([k + 1, k + 3]), lam=np.array([-lam, lam]))
    tied = dataclasses.replace(cascade, levels=[tie])
    got = tied.materialize()
    _same_table(got, ref_materialize_table(tied))
    labels = [a.label for _, a in got]
    i = labels.index(f"closer[d{d},k{k}]")
    assert labels[i:i + 3] == [f"closer[d{d},k{k}]", f"haar[d{d},k{k + 1}]", f"haar[d{d},k{k + 3}]"]


def _same_as_the_coefficient_list(table):
    """Iterating the table gives coef.tolist() (same floats, same type) with
    the atom of each row in order."""
    pairs = list(table)
    assert [type(c) for c, _ in pairs] == [float] * len(table)
    assert [c for c, _ in pairs] == table.coef.tolist()
    assert np.array([c for c, _ in pairs], dtype=float).tobytes() == table.coef.tobytes()
    assert all(a._table is table for _, a in pairs)
    assert [a._row for _, a in pairs] == list(range(len(table)))


def test_iterating_streams_the_coefficient_list():
    """The gate-10 bump's 57 035 rows (more than one block of floats) and an
    empty table."""
    bump_table = atomic_decompose(_gate10_cases()[0][1], nu=0.5, measure=MEASURE_MU).atoms()
    assert len(bump_table) > 50_000
    _same_as_the_coefficient_list(bump_table)
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.0)
    _same_as_the_coefficient_list(
        cascade_decompose(fn, Interval(0.2, 0.5), MEASURE_MU, 0.5, depth_cap=0).materialize())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_iterating_a_random_batch_streams_the_coefficient_list(seed, count):
    _same_as_the_coefficient_list(
        random_atoms(np.random.default_rng(seed), MEASURE_LEBESGUE, 0.5, count))


def test_an_empty_cascade_writes_no_rows():
    """A cascade capped at depth 0 holds no detail and no closer: its table
    is empty, and a decomposition of such pieces has no atoms."""
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.0)
    cascade = cascade_decompose(fn, Interval(0.2, 0.5), MEASURE_MU, 0.5, depth_cap=0)
    _same_table(cascade.materialize(), ref_materialize_table(cascade))
    assert len(cascade.materialize()) == 0
    assert Decomposition(MEASURE_MU, 0.5, [(cascade, ())] * 2).atoms() == ()


def _taken_tables():
    """A materialized cascade, a random batch (its rows carry tags) and a
    joined decomposition table (cascade rows and special rows)."""
    nodes = np.linspace(0.08, 0.40, 9)
    bump = PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * (nodes - 0.08) / 0.32))
    return [_cascade().materialize(),
            random_atoms(np.random.default_rng(5), MEASURE_LEBESGUE, -0.3, 30),
            atomic_decompose(bump, nu=1.0, measure=MEASURE_MU).atoms()]


def test_taken_rows_equal_their_source_rows():
    """ref_take, the reference that the written tables are compared
    against, takes rows as indexing reads them."""
    rng = np.random.default_rng(17)
    for table in _taken_tables():
        n = len(table)
        assert len(ref_take(table, np.zeros(0, dtype=np.int64))) == 0
        for order in (rng.permutation(n), np.arange(n)[::-1], rng.integers(0, n, 25)):
            taken = ref_take(table, order)
            assert isinstance(taken, AtomTable) and len(taken) == len(order)
            _same_pairs(list(taken), [table[i] for i in order.tolist()])
            for name in ("closer", "depth", "cell"):
                assert getattr(taken, name).tobytes() == getattr(table, name)[order].tobytes()
            assert not taken.breaks.flags.writeable and not taken.coef.flags.writeable


@st.composite
def tables_and_points(draw):
    """A random batch (both measures, nu including -0.3), a materialized
    cascade or a globalized special pair, with points on the table's
    breaks, one ulp either side of them, outside every support and between."""
    measure, family = draw(st.sampled_from([(MEASURE_MU, FAMILY_ONE_END),
                                            (MEASURE_LEBESGUE, FAMILY_TWO_END)]))
    nu = draw(st.sampled_from([-0.3, 0.5, 1.0]))
    source = draw(st.sampled_from(["random", "materialize", "special"]))
    if source == "random":
        table = random_atoms(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                             measure, nu, draw(st.integers(1, 40)))
    elif source == "materialize":
        fn = PiecewiseLinear.from_node_values([0.22, 0.3, 0.41, 0.46],
                                              [0.0, 1.0, -0.4, 0.0])
        table = cascade_decompose(fn, Interval(0.2, 0.5), measure, nu,
                                  detail_cut=draw(st.sampled_from([1e-4, 1e-6]))).materialize()
    else:
        j = draw(st.integers(0, 6) if family == FAMILY_ONE_END
                 else st.sampled_from([-5, -3, -1, 1, 2, 6]))
        table = globalize_special(DyadicCover(family, zeta=0.02), j, nu, measure,
                                  draw(st.floats(-3.0, 3.0)))
    breaks = np.unique(table.breaks)
    on = breaks[draw(st.lists(st.integers(0, len(breaks) - 1), min_size=1, max_size=80))]
    between = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    x = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf), between,
                        [breaks[0] - 0.25, breaks[-1] + 0.25, -1.0, 2.0]])
    return table, x


@settings(max_examples=40, deadline=None)
@given(tables_and_points())
def test_table_evaluate_equals_each_rows_atom(case):
    table, x = case
    got = table.evaluate(x)
    want = np.array([a.fn.evaluate(x) for _, a in table])
    assert got.shape == (len(table), len(x)) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
