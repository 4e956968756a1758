"""Atoms for the two atomic Hardy spaces on (0, 1), and the decomposition
pipeline that produces them.

Atoms are represented exactly as piecewise-linear functions, so sup norms,
integrals, and cancellation defects are computed in closed form rather than
by quadrature. There are two families, tagged by the measure: the weighted
family uses the measure x^(2 nu + 1) dx and the dyadic cover accumulating at
the endpoint 1; the flat family uses Lebesgue measure and the two-end cover.

A cancellative atom is supported in an interval I inside (0, 1), has sup norm
at most sigma(I)^(-1), and integrates to zero; a special atom is the
normalized indicator of one cover interval. The two-atom split implemented
here is the constructive step that rewrites a localized piece's mean as a
combination of two valid global atoms.

The local decomposition on an enlarged cover piece is a Haar cascade on
measure-median cells: each cell splits where the measure is halved, the
detail coefficient is the difference of the two half-cell integrals, and the
two-bar detail function is itself a valid atom. Cells are refined adaptively
(a cell stays active while it contains a breakpoint of the input or its
linear-oscillation bound exceeds the cut), so piecewise inputs terminate with
a handful of atoms per level instead of 2^d; every cell that stops closes
with its exact remainder, itself a valid atom after normalization, so the
finite expansion reproduces the input to rounding.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .covers import DyadicCover, Interval, FAMILY_ONE_END, FAMILY_TWO_END
from .errors import NumericsError
from .quadrature import Measure, SampledFunction, MEASURE_LEBESGUE, MEASURE_MU

KIND_CANCELLATIVE = "cancellative"
KIND_SPECIAL = "special"
# the report fields that a row of each kind leaves out
_NOT_CHECKED = {KIND_CANCELLATIVE: ("constant_ok", "cell_match_ok"),
                KIND_SPECIAL: ("cancellation", "cancellation_ok")}
SIZE_SLACK = 1e-9       # relative slack of the size condition sup <= 1/sigma

_FAMILY_OF_MEASURE = {MEASURE_MU: FAMILY_ONE_END,
                      MEASURE_LEBESGUE: FAMILY_TWO_END}


# ---------------------------------------------------------------------------
# exact piecewise-linear functions


@dataclass(frozen=True, slots=True, eq=False)
class PiecewiseLinear:
    """slope * x + intercept on [breaks[i], breaks[i+1]), zero outside,
    held as read-only float64 arrays (a float64 input is not copied). The
    functions of materialized atoms are views of one table that
    _check_table checked once, as the constructor checks one row.
    Equality and hashing are by identity."""

    breaks: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(v, dtype=float)
                  for v in (self.breaks, self.slopes, self.intercepts)]
        _check_table(np.array([0, arrays[0].size - 1]), *arrays)
        for name, arr in zip(self.__slots__, arrays):
            object.__setattr__(self, name, arr)

    # -- constructors

    @classmethod
    def _row(cls, table, i: int) -> "PiecewiseLinear":
        """Row i of a ragged table that _check_table passed, as views: the
        pieces start[i]:start[i+1] of its slopes and intercepts and their
        breaks from breaks[start[i] + i]. No check, no copy."""
        lo, hi = table.start.item(i), table.start.item(i + 1)
        fn = object.__new__(cls)
        object.__setattr__(fn, "breaks", table.breaks[lo + i:hi + i + 1])
        object.__setattr__(fn, "slopes", table.slopes[lo:hi])
        object.__setattr__(fn, "intercepts", table.intercepts[lo:hi])
        return fn

    @classmethod
    def constant(cls, a: float, b: float, value: float) -> "PiecewiseLinear":
        return cls(np.array([a, b]), np.zeros(1), np.array([float(value)]))

    @classmethod
    def from_breaks_levels(cls, breaks, levels) -> "PiecewiseLinear":
        return cls(breaks, np.zeros(len(levels)), levels)

    @classmethod
    def from_node_values(cls, nodes, values) -> "PiecewiseLinear":
        """Continuous interpolant through (nodes, values)."""
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        slopes = np.diff(values) / np.diff(nodes)
        intercepts = values[:-1] - slopes * nodes[:-1]
        return cls(nodes, slopes, intercepts)

    @classmethod
    def tent(cls, a: float, b: float, height: float = 1.0) -> "PiecewiseLinear":
        c = 0.5 * (a + b)
        s1 = height / (c - a)
        s2 = -height / (b - c)
        return cls([a, c, b], [s1, s2], [-s1 * a, -s2 * b])

    # -- basic queries

    @property
    def support(self) -> Interval:
        return Interval(float(self.breaks[0]), float(self.breaks[-1]))

    def _piece_index(self, x):
        """Index of the piece holding each x; the end pieces extend outward."""
        return np.minimum(np.maximum(np.searchsorted(self.breaks, x, side="right") - 1, 0),
                          len(self.slopes) - 1)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.breaks[0]) & (x <= self.breaks[-1])
        idx = self._piece_index(x)
        out = np.where(inside, self.slopes[idx] * x + self.intercepts[idx], 0.0)
        return float(out) if out.ndim == 0 else out

    def sup_norm(self) -> float:
        left = self.slopes * self.breaks[:-1] + self.intercepts
        right = self.slopes * self.breaks[1:] + self.intercepts
        return float(np.max(np.abs(np.concatenate([left, right]))))

    # -- exact integrals

    def cumulative(self, pts, measure: str, nu: float):
        """Exact integral from the support's left end to each point."""
        pts = np.clip(np.asarray(pts, dtype=float), self.breaks[0], self.breaks[-1])
        integrals = Measure.of(measure, nu).linear_integrals
        piece_full = integrals(self.slopes, self.intercepts, self.breaks[:-1],
                               self.breaks[1:])
        prefix = np.concatenate([[0.0], np.cumsum(piece_full)])
        idx = self._piece_index(pts)
        partial = integrals(self.slopes[idx], self.intercepts[idx],
                            self.breaks[idx], pts)
        return prefix[idx] + partial

    def integral(self, measure: str, nu: float) -> float:
        return float(self.cumulative(np.array([self.breaks[-1]]), measure, nu)[0])

    def integral_between(self, a, b, measure: str, nu: float):
        return self.cumulative(b, measure, nu) - self.cumulative(a, measure, nu)

    def l1_norm(self, measure: str, nu: float) -> float:
        """Exact integral of |f|: linear pieces are split at sign changes."""
        s, c = self.slopes, self.intercepts
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = -c / s
        inside = (s != 0) & (roots > self.breaks[:-1]) & (roots < self.breaks[1:])
        pts = np.unique(np.concatenate([self.breaks, roots[inside]]))
        vals = self.integral_between(pts[:-1], pts[1:], measure, nu)
        return float(np.sum(np.abs(vals)))

    # -- exact algebra

    def scaled(self, c: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.breaks.copy(), c * self.slopes,
                               c * self.intercepts)

    def plus_constant(self, c: float) -> "PiecewiseLinear":
        """Add c on the whole support (the support does not change)."""
        return PiecewiseLinear(self.breaks.copy(), self.slopes.copy(),
                               self.intercepts + c)


def _check_table(start, breaks, slopes, intercepts) -> None:
    """PiecewiseLinear's checks on every row of a ragged table at once; the
    table is then read-only, so PiecewiseLinear._row can hand out its rows
    as views."""
    n = len(start) - 1
    if breaks.ndim != 1 or len(breaks) != start[-1] + n \
            or (start[1:] - start[:-1] < 1).any() \
            or (np.delete(breaks[1:] - breaks[:-1],      # gaps inside rows
                          start[1:-1] + np.arange(n - 1)) <= 0).any():
        raise ValueError("breaks must be strictly increasing, length >= 2")
    if len(slopes) != start[-1] or len(intercepts) != start[-1]:
        raise ValueError("one slope and intercept per piece")
    for arr in (start, breaks, slopes, intercepts):
        arr.setflags(write=False)


def chord_product(f: PiecewiseLinear, g: PiecewiseLinear,
                  points: np.ndarray) -> PiecewiseLinear:
    """Piecewise-linear chord of the product f * g on the given breakpoints.

    On each interval between consecutive points the product is replaced by
    the straight line through its one-sided endpoint values. When the points
    contain the breaks of both factors, the chords of a partition of unity
    against a fixed f sum exactly to f: linear interpolation is linear in
    the values."""
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[:-1] + points[1:])

    def _piece(h, x):
        idx = h._piece_index(x)
        outside = (x < h.breaks[0]) | (x > h.breaks[-1])
        s = np.where(outside, 0.0, h.slopes[idx])
        c = np.where(outside, 0.0, h.intercepts[idx])
        return s, c

    sf, cf = _piece(f, mids)
    sg, cg = _piece(g, mids)
    lo, hi = points[:-1], points[1:]
    v_lo = (sf * lo + cf) * (sg * lo + cg)
    v_hi = (sf * hi + cf) * (sg * hi + cg)
    slopes = (v_hi - v_lo) / (hi - lo)
    return PiecewiseLinear(points, slopes, v_lo - slopes * lo)


# ---------------------------------------------------------------------------
# atoms


class Atom:
    """An atom: row _row of an AtomTable, with the table's measure and order
    nu and the row's kind and label. The constructor builds a one-row table
    (coefficient 1) around fn; an atom read from a larger table builds its
    function, a read-only view of its row, and its label the first time they
    are read. The fields are read-only, and equality is by identity."""

    __slots__ = ("_table", "_row", "_fn", "_label")

    def __init__(self, fn: PiecewiseLinear, measure: str, nu: float,
                 kind: str, label: str = ""):
        # fn passed _check_table, alone or as a row of a checked table
        z = np.zeros(1, dtype=np.int64)
        self._table = AtomTable._unchecked(
            measure=measure, nu=nu, tags={0: (kind, label)}, coef=np.ones(1),
            closer=z.astype(bool), depth=z, cell=z, start=np.array([0, len(fn.slopes)]),
            breaks=fn.breaks, slopes=fn.slopes, intercepts=fn.intercepts)
        self._row, self._fn, self._label = 0, fn, label

    @classmethod
    def _of_row(cls, table: "AtomTable", i: int) -> "Atom":
        atom = object.__new__(cls)
        atom._table, atom._row, atom._fn, atom._label = table, i, None, None
        return atom

    measure = property(lambda self: self._table.measure)
    nu = property(lambda self: self._table.nu)
    kind = property(lambda self: self._table.tags.get(
        self._row, (KIND_CANCELLATIVE,))[0])

    @property
    def fn(self) -> PiecewiseLinear:
        if self._fn is None:
            self._fn = PiecewiseLinear._row(self._table, self._row)
        return self._fn

    @property
    def label(self) -> str:
        if self._label is None:
            self._label = self._table._label(self._row)
        return self._label

    def __repr__(self) -> str:
        return f"Atom({self.label!r}, {self.kind}, {self.measure}, nu={self.nu})"


def special_atom(cover: DyadicCover, j: int, nu: float, measure: str,
                 label: str = "") -> Atom:
    cell = cover.interval(j)
    s = Measure.of(measure, nu).interval(cell.a, cell.b)
    fn = PiecewiseLinear.constant(cell.a, cell.b, 1.0 / s)
    return Atom(fn=fn, measure=measure, nu=nu, kind=KIND_SPECIAL,
                label=label or f"special[{j}]")


def _haar_levels(a, m, b, measure: str, nu: float) -> tuple:
    """Levels of the two-bar atoms on [a, m) and [m, b), elementwise:
    opposite-sign constants balanced so the integral vanishes exactly,
    scaled so the sup norm is 1/sigma(a, b); as 1-d arrays, in four buffers."""
    cdf = Measure.of(measure, nu).cdf
    ca, cm, cb = (np.atleast_1d(cdf(v)) for v in (a, m, b))
    s2, s, s1 = cb - cm, np.subtract(cb, ca, out=cb), np.subtract(cm, ca, out=cm)
    h1, h2 = np.divide(1.0, s, out=ca), np.divide(np.multiply(ca, s1, out=s1), s2, out=s1)
    # an off-median split peaks on the right
    scale = np.divide(1.0, np.maximum(1.0, np.multiply(h2, s, out=s), out=s), out=s)
    return np.multiply(scale, h1, out=h1), np.multiply(np.negative(scale, out=scale), h2, out=h2)


def haar_atom(a: float, m: float, b: float, nu: float, measure: str,
              label: str = "") -> Atom:
    """Two-bar cancellative atom on [a, m) and [m, b) (see _haar_levels)."""
    fn = PiecewiseLinear.from_breaks_levels(
        [a, m, b], np.concatenate(_haar_levels(a, m, b, measure, nu)))
    return Atom(fn=fn, measure=measure, nu=nu, kind=KIND_CANCELLATIVE,
                label=label or "haar")


def validate_atom(atom: Atom, cover: DyadicCover | None = None,
                  cancel_tol: float = 1e-10) -> dict:
    """Defect report for one atom: the one row of its own table's check (see
    AtomTable.check and AtomTable.reports); 'valid' aggregates the checks.
    A row of a cascade's closers table is an unnormalized remainder, not an
    atom: validate the atoms that materialize writes."""
    table = Atom(atom.fn, atom.measure, atom.nu, atom.kind, atom.label)._table
    return table.reports(cover, cancel_tol)[0]


# ---------------------------------------------------------------------------
# splitting identities


def two_atom_split(cover: DyadicCover, j: int, nu: float, measure: str) -> dict:
    """Split the cell's special atom as lam1 * a1 + (local special atom).

    The difference between the cell indicator atom and the normalized
    indicator of the doubly enlarged cell is cancellative; dividing by lam1
    (its sup norm times the enlarged measure) makes it a valid atom. Read
    backwards, this writes the local special atom of the enlarged piece as a
    combination of two valid global atoms."""
    cell = cover.interval(j)
    big = cover.starred(j, 2)
    s_cell, s_big = (float(Measure.of(measure, nu).interval(iv.a, iv.b))
                     for iv in (cell, big))
    pts = np.unique(np.array([big.a, cell.a, cell.b, big.b]))
    levels = [(1.0 / s_cell if cell.a <= lo and hi <= cell.b else 0.0)
              - 1.0 / s_big for lo, hi in zip(pts[:-1], pts[1:])]
    diff = PiecewiseLinear.from_breaks_levels(pts, levels)
    lam1 = s_big * diff.sup_norm()
    a1 = Atom(fn=diff.scaled(1.0 / lam1), measure=measure, nu=nu,
              kind=KIND_CANCELLATIVE, label=f"two-atom-corrector[{j}]")
    local_special = Atom(PiecewiseLinear.constant(big.a, big.b, 1.0 / s_big), measure,
                         nu, KIND_SPECIAL, label=f"local-special[{j}]")
    return {"lam1": lam1, "cancellative": a1,
            "cell_special": special_atom(cover, j, nu, measure),
            "local_special": local_special}


def globalize_special(cover: DyadicCover, j: int, nu: float, measure: str,
                      coef: float) -> "AtomTable":
    """Rewrite coef times the enlarged piece's special atom as a combination
    of two global atoms: the rows (coef, cell special atom) and
    (-coef * lam1, corrector) of one AtomTable."""
    split = two_atom_split(cover, j, nu, measure)
    pair = AtomTable._concat([split["cell_special"]._table, split["cancellative"]._table])
    return AtomTable._unchecked(**vars(pair) | {"coef": np.array([coef, -coef * split["lam1"]])})


# ---------------------------------------------------------------------------
# partition of unity (piecewise-linear ramps on the star overlaps)


@dataclass(frozen=True)
class PartitionMember:
    j: int
    star2: Interval
    eta: PiecewiseLinear


def build_partition(cover: DyadicCover) -> list:
    """Partition of unity subordinate to the starred cover.

    Each member ramps linearly inside the overlap of consecutive starred
    intervals (shrunk 10 percent on each side), so the members sum to one
    exactly between the first ramp and the start of the last member's
    closing ramp, and the slope of member j is of order 2^j as required.
    Each member keeps the doubly-starred cell its cascade runs on."""
    order = cover.indices()
    ramps = []
    for a, b in zip(order[:-1], order[1:]):
        star_a = cover.starred(a, 1)
        star_b = cover.starred(b, 1)
        lo, hi = star_b.a, star_a.b
        if hi <= lo:
            raise NumericsError("partition",
                                f"starred intervals {a} and {b} do not overlap")
        width = hi - lo
        ramps.append((lo + 0.1 * width, hi - 0.1 * width))

    members = []
    for pos, j in enumerate(order):
        cell = cover.interval(j)
        left = ramps[pos - 1] if pos > 0 else None
        right = ramps[pos] if pos < len(ramps) else None
        pts, vals = ([cell.a], [1.0]) if left is None else (list(left), [0.0, 1.0])
        pts += list(right) if right is not None \
            else [cell.b - 0.1 * cell.length, cell.b]
        vals += [1.0, 0.0]
        eta = PiecewiseLinear.from_node_values(pts, vals)
        members.append(PartitionMember(j=j, star2=cover.starred(j, 2), eta=eta))
    return members


def partition_coverage(members) -> Interval:
    """Interval on which the members provably sum to one.

    The last member closes with a ramp down to zero inside its own cell
    (the truncated cover has nothing beyond it to hand mass to), so the
    guaranteed region ends where that ramp starts, not at the cell edge."""
    return Interval(members[0].eta.breaks[0],
                    float(members[-1].eta.breaks[-2]))


# ---------------------------------------------------------------------------
# local Haar cascade


@dataclass
class CascadeLevel:
    depth: int
    idx: np.ndarray     # sorted cell indices at this depth with detail != 0
    lam: np.ndarray     # detail coefficients (half-integral differences)


@dataclass(frozen=True, eq=False)
class AtomTable(Sequence):
    """Piecewise-linear rows of one measure and order nu as flat arrays: every
    atom, and a cascade's closers. Row i has coefficient coef[i], the pieces
    start[i]:start[i+1] of slopes and intercepts, and their breaks from
    breaks[start[i] + i]. A row in tags carries its own (kind, label); every
    other row is a cancellative cascade row of cell[i] at depth[i]: a Haar
    detail's two-bar atom, or a closer (closer[i] set), which a cascade holds
    as its remainder and writes as an atom scaled by 1/coef[i]. A table is
    checked once, when built (_concat writes checked rows), and read-only;
    indexing and iteration yield (coef, atom) pairs whose atoms build their
    views and labels when first read."""
    measure: str
    nu: float
    coef: np.ndarray
    closer: np.ndarray
    depth: np.ndarray
    cell: np.ndarray
    start: np.ndarray
    breaks: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_table(self.start, self.breaks, self.slopes, self.intercepts)
        for col in (self.coef, self.closer, self.depth, self.cell):
            col.setflags(write=False)

    @classmethod
    def _unchecked(cls, **values) -> "AtomTable":
        """The table of the given fields, not checked again: for rows of checked
        tables or functions. Its columns are made read-only."""
        table = object.__new__(cls)
        vars(table).update({"tags": {}, **values})
        for col in values.values():
            if isinstance(col, np.ndarray):
                col.setflags(write=False)
        return table

    @classmethod
    def _concat(cls, parts) -> "AtomTable":
        """The rows of the parts (tables or cascades of one measure and order
        nu) in order as one table, sized once, each part writing its rows."""
        shapes = np.array([t._shape() for t in parts], dtype=np.int64)
        rows, pieces = shapes.sum(axis=0).tolist()
        cols = dict(coef=np.empty(rows), closer=np.empty(rows, bool), tags={},
                    depth=np.empty(rows, np.int64), cell=np.empty(rows, np.int64),
                    start=np.zeros(rows + 1, np.int64), breaks=np.empty(rows + pieces),
                    slopes=np.zeros(pieces), intercepts=np.empty(pieces))
        for t, (row, piece) in zip(parts, (np.cumsum(shapes, axis=0) - shapes).tolist()):
            t._write(cols, row, piece)
        return cls._unchecked(measure=parts[0].measure, nu=parts[0].nu, **cols)

    def _shape(self) -> tuple:
        return len(self), self.start.item(-1)

    def _write(self, cols: dict, row: int, piece: int) -> None:
        """Copy the rows into cols (see _concat) from row `row` and piece `piece` on."""
        for name, at in (("coef", row), ("closer", row), ("depth", row), ("cell", row),
                         ("breaks", row + piece), ("slopes", piece), ("intercepts", piece)):
            cols[name][at:at + len(getattr(self, name))] = getattr(self, name)
        cols["start"][row + 1:row + len(self) + 1] = self.start[1:] + piece
        cols["tags"].update({row + i: tag for i, tag in self.tags.items()})

    def _pieces(self, rows, x):
        """The piece of row rows[i] holding x[i] (broadcast; a row's end
        pieces extend outward), as PiecewiseLinear._piece_index finds it: one
        searchsorted over the (row, break) keys. Complex numbers order them
        lexicographically, so a point on a break is compared exactly."""
        keys = np.repeat(np.arange(len(self)), np.diff(self.start) + 1) + 1j * self.breaks
        pos = np.searchsorted(keys, rows + 1j * x, side="right") - rows - 1
        return np.minimum(np.maximum(pos, self.start[rows]), self.start[rows + 1] - 1)

    def evaluate(self, x) -> np.ndarray:
        """Every row at the points x, as a (rows, len(x)) array whose row i
        equals the atom of row i evaluated at x, bit for bit."""
        x = np.asarray(x, dtype=float)
        rows = np.arange(len(self))[:, None]
        piece = self._pieces(rows, x)
        inside = (x >= self.breaks[self.start[:-1, None] + rows]) \
            & (x <= self.breaks[self.start[1:, None] + rows])
        return np.where(inside, self.slopes[piece] * x + self.intercepts[piece], 0.0)

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return self.coef.item(i), Atom._of_row(self, i)

    def __iter__(self):
        # the coefficients become Python floats 4096 at a time, not all at once
        coef = itertools.chain.from_iterable(self.coef[lo:lo + 4096].tolist()
                                             for lo in range(0, len(self), 4096))
        return zip(coef, map(functools.partial(Atom._of_row, self), range(len(self))))

    def _label(self, i: int) -> str:
        if i in self.tags:
            return self.tags[i][1]
        return (f"{'closer' if self.closer.item(i) else 'haar'}"
                f"[d{self.depth.item(i)},k{self.cell.item(i)}]")

    def check(self, cover: DyadicCover | None = None, cancel_tol: float = 1e-10) -> dict:
        """The atom conditions (Coifman-Weiss) of every row, in one array
        pass, as columns named as in validate_atom's report:
        - support, a (rows, 2) array of each row's first and last break, and
          support_ok, the support lies in [0, 1];
        - sigma, the support's measure, sup_norm, size_limit = 1/sigma, and
          size_ok, sup_norm <= (1 + SIZE_SLACK)/sigma;
        - for cancellative rows, the cancellation (the row's integral, its
          pieces summed from the left as PiecewiseLinear.integral sums them)
          and cancellation_ok, |cancellation| <= cancel_tol;
        - for special rows, constant_ok, the row is the exact normalized
          indicator of its support, and, given a cover, cell_match_ok, the
          support is a cell of the cover to 1e-12;
        - valid, all of the _ok columns.
        An _ok column reads True on the rows of the kind it does not check.
        A cascade's closers table holds unnormalized remainders, not atoms:
        check the table that materialize or Decomposition.atoms() writes."""
        rows, pieces = np.arange(len(self)), np.diff(self.start)
        left = np.arange(len(self.slopes)) + np.repeat(rows, pieces)   # pieces' left breaks
        x0, x1, s, c = self.breaks[left], self.breaks[left + 1], self.slopes, self.intercepts
        lo, hi = self.breaks[self.start[:-1] + rows], self.breaks[self.start[1:] + rows]
        meas, first = Measure.of(self.measure, self.nu), c[self.start[:-1]]
        sigma = meas.interval(lo, hi)
        sup = np.maximum.reduceat(np.maximum(np.abs(s * x0 + c), np.abs(s * x1 + c)),
                                  self.start[:-1])
        # -0.0 + x is x, and a one-piece row adds its piece to 0.0
        cancellation = np.where(pieces > 1, -0.0, 0.0)
        integrals = meas.linear_integrals(s, c, x0, x1)
        for k in range(pieces.max(initial=0)):
            on = np.flatnonzero(pieces > k)
            cancellation[on] += integrals[self.start[on] + k]
        special = np.zeros(len(self), bool)
        special[[i for i, (kind, _) in self.tags.items() if kind == KIND_SPECIAL]] = True
        flat = np.logical_and.reduceat((s == 0.0) & (c == np.repeat(first, pieces)),
                                       self.start[:-1])
        cols = {"support": np.column_stack([lo, hi]),
                "support_ok": (0.0 <= lo) & (lo < hi) & (hi <= 1.0),
                "sigma": sigma, "sup_norm": sup, "size_limit": 1.0 / sigma,
                "size_ok": sup <= (1.0 + SIZE_SLACK) / sigma,
                "cancellation": cancellation,
                "cancellation_ok": special | (np.abs(cancellation) <= cancel_tol),
                "constant_ok": ~special | (flat & (np.abs(first * sigma - 1.0) < 1e-12))}
        if cover is not None:
            cells = np.array([(iv.a, iv.b) for iv in map(cover.interval, cover.indices())])
            match = np.zeros(len(self), bool)
            match[special] = ((np.abs(cells[:, 0] - lo[special, None]) < 1e-12)
                              & (np.abs(cells[:, 1] - hi[special, None]) < 1e-12)).any(axis=1)
            cols["cell_match_ok"] = ~special | match
        cols["valid"] = np.logical_and.reduce([v for k, v in cols.items() if k.endswith("_ok")])
        return cols

    def reports(self, cover: DyadicCover | None = None, cancel_tol: float = 1e-10) -> list:
        """validate_atom's report for every row, read from one check: a
        cancellative row's report has no constant_ok or cell_match_ok, and a
        special row's has no cancellation or cancellation_ok."""
        cols = {k: v.tolist() for k, v in self.check(cover, cancel_tol).items()}
        cols["support"] = list(map(tuple, cols["support"]))
        out = []
        for i, values in enumerate(zip(*cols.values())):
            kind = self.tags.get(i, (KIND_CANCELLATIVE,))[0]
            out.append({"kind": kind, "measure": self.measure, "label": self._label(i)})
            out[-1].update((k, v) for k, v in zip(cols, values) if k not in _NOT_CHECKED[kind])
        return out


def _ragged(first, counts):
    """first[i] + 0, 1, ..., counts[i] - 1, for each i in order."""
    return np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _remainders(fn: PiecewiseLinear, depth, cells, a, b, sigma_total: float,
                measure: str, nu: float) -> AtomTable:
    """The nonzero remainders of fn on the cells [a, b] at the given depths,
    of measure sigma_total 2^-depth, all in one pass, as closer rows of an
    AtomTable whose coef is each one's sup norm times the cell measure.

    A remainder is fn cut to the cell, padded with zero where fn's support
    ends inside it, minus the cell average, with the arithmetic of a
    one-cell cut, integral, zero pad, plus_constant and sup_norm per element.
    Its breaks are the cell's ends and fn's breaks strictly inside the cell."""
    br = fn.breaks
    sel = np.flatnonzero(np.minimum(b, br[-1]) > np.maximum(a, br[0]))
    sigma_cell = np.ldexp(sigma_total, -depth[sel])
    first = np.searchsorted(br, a[sel], side="right")
    n_breaks = np.searchsorted(br, b[sel], side="left") - first + 2
    start, last = np.cumsum(n_breaks) - n_breaks, np.cumsum(n_breaks) - 1
    owner = np.repeat(np.arange(len(sel)), n_breaks)
    brk = br[np.minimum(np.maximum(_ragged(first - 1, n_breaks), 0), len(br) - 1)]
    brk[start], brk[last] = a[sel], b[sel]
    left = np.delete(np.arange(len(brk)), last)
    x0, x1, owner = brk[left], brk[left + 1], owner[left]
    idx = fn._piece_index(0.5 * (x0 + x1))
    on = (x1 > br[0]) & (x0 < br[-1])          # off: zero padding
    s = np.where(on, fn.slopes[idx], 0.0)
    c = np.where(on, fn.intercepts[idx], 0.0)
    # each cell's integral summed left to right from 0, as cumulative() does
    counts = n_breaks - 1
    rows = np.zeros((len(sel), int(counts.max(initial=0)) + 1))
    integrals = Measure.of(measure, nu).linear_integrals
    rows[owner, left - start[owner] + 1] = integrals(s, c, x0, x1)
    c = c - (np.cumsum(rows, axis=1)[:, -1] / sigma_cell)[owner]
    ends = np.maximum(np.abs(s * x0 + c), np.abs(s * x1 + c))
    sup = np.maximum.reduceat(ends, start - np.arange(len(sel))) \
        if len(sel) else ends
    keep = ~(sup <= 0.0)
    return AtomTable(measure, nu, sup[keep] * sigma_cell[keep], np.ones(keep.sum(), bool),
                     depth[sel[keep]], cells[sel[keep]], np.append(0, np.cumsum(counts[keep])),
                     brk[np.repeat(keep, n_breaks)], s[np.repeat(keep, counts)],
                     c[np.repeat(keep, counts)])


@dataclass
class LocalCascade:
    """Measure-median detail expansion of one localized piece.

    The expansion is exact: levels hold the retained Haar details, and each
    cell deactivated by the cut (or stopped by the depth cap) contributes a
    closing piece carrying the remainder there, so evaluate() reproduces the
    input to rounding. The closing pieces are the closer rows of one
    AtomTable (see _remainders); the closed cells are disjoint, so each
    point reads at most one of them."""
    space: Interval
    measure: str
    nu: float
    sigma_total: float
    mean_coef: float            # integral of the piece over the space
    levels: list
    closers: AtomTable
    depth: int
    closure_l1: float           # coefficient mass of the closing pieces

    def _u(self, x):
        cdf = Measure.of(self.measure, self.nu).cdf
        return np.clip((cdf(np.maximum(x, 0.0)) - cdf(self.space.a))
                       / self.sigma_total, 0.0, 1.0 - 1e-15)

    def evaluate(self, x):
        """Mean part, all retained details, and the closing remainders. Cell k
        of depth d holds the points with k 2^-d <= u < (k + 1) 2^-d: with u sorted
        once, one searchsorted of the detail cells' ends and medians, and one of
        the closed cells' ends, find the points each cell adds to, and no other."""
        x = np.asarray(x, dtype=float)
        inside = (x > self.space.a) & (x <= self.space.b)
        out = np.where(inside, self.mean_coef / self.sigma_total, 0.0)
        u, pts = np.ravel(self._u(x)), np.flatnonzero(inside)
        pts = pts[np.argsort(u[pts])]
        flat, us, t = out.reshape(-1), u[pts], self.closers
        # every detail cell, level by level after an empty one (add.at adds in
        # this order); int32 depths keep ldexp's fast loop; 2^-d scales exactly
        levels = self.levels + [CascadeLevel(0, t.cell[:0], t.coef[:0])]
        depth = np.repeat([v.depth for v in levels], [len(v.idx) for v in levels]).astype("i4")
        cell, lam = (np.concatenate([getattr(v, k) for v in levels]) for k in ("idx", "lam"))
        lo, mid, hi = np.searchsorted(us, (cell + [[0.0], [0.5], [1.0]]) * np.ldexp(1.0, -depth))
        h, counts = lam / np.ldexp(self.sigma_total, -depth), np.column_stack([mid - lo, hi - mid])
        np.add.at(flat, pts[_ragged(np.column_stack([lo, mid]).ravel(), counts.ravel())],
                  np.repeat(np.column_stack([h, -h]).ravel(), counts.ravel()))
        # then every closed cell, found alike, so a point on a cell edge counts
        # once, each point clamped into its closer's breaks (the quantile edges
        # can sit one ulp away)
        lo, hi = np.searchsorted(us, (t.cell + [[0], [1]]) * np.ldexp(1.0, -t.depth.astype("i4")))
        at, j = pts[_ragged(lo, hi - lo)], np.repeat(np.arange(len(t)), hi - lo)
        xc = np.clip(np.ravel(x)[at], t.breaks[t.start[j] + j], t.breaks[t.start[j + 1] + j])
        piece = t._pieces(j, xc)
        flat[at] += t.slopes[piece] * xc + t.intercepts[piece]
        return out

    def coeff_l1(self) -> float:
        details = sum(np.sum(np.abs(lev.lam)) for lev in self.levels)
        return float(details) + self.closure_l1

    def edges(self, depth, cells) -> tuple:
        """(left, median, right) x-coordinates of the given cells; depth is
        one depth or one per cell."""
        return tuple(self._at(depth, np.asarray(cells, dtype=float) + o) for o in (0.0, 0.5, 1.0))

    def _at(self, depth, pos):
        """Where the measure from the space's left end is pos cells of depth."""
        meas = Measure.of(self.measure, self.nu)
        scale = np.ldexp(self.sigma_total, -np.asarray(depth))
        return meas.quantile(meas.cdf(self.space.a) + pos * scale)

    def _shape(self) -> tuple:
        n_details = sum(len(lev.idx) for lev in self.levels)
        return n_details + len(self.closers), 2 * n_details + self.closers.start.item(-1)

    def _write(self, cols: dict, row: int, piece: int) -> None:
        """Write the atoms into cols (see _concat) from row `row` and piece
        `piece` on, in (-|coef|, depth, cell) order: each Haar detail's two-bar
        atom, checked as haar_atom checks it, and each closer scaled by 1/coef.
        The keys are sorted in the table's own columns; no row is copied twice."""
        t = self.closers
        with np.errstate(divide="ignore", over="ignore"):
            bad = np.flatnonzero(~np.isfinite(1.0 / t.coef))
        for j in bad[np.lexsort((t.cell[bad], t.depth[bad], -np.abs(t.coef[bad])))][:1]:  # largest
            raise NumericsError("materialize", f"closer [d{t.depth[j]},k{t.cell[j]}]: "
                                f"coefficient {t.coef[j]:.3e} cannot be normalized")
        n_details = (n := self._shape()[0]) - len(t)
        coef, closer, depth, cell = (cols[k][row:row + n]
                                     for k in ("coef", "closer", "depth", "cell"))
        for col, name, last in ((coef, "lam", t.coef), (depth, "depth", t.depth),
                                (cell, "idx", t.cell)):
            np.concatenate([np.broadcast_to(getattr(lev, name), len(lev.idx))
                            for lev in self.levels] + [last], out=col)
        src = np.lexsort((cell, depth, -np.abs(coef)))
        for col in (coef, depth, cell):
            col[:] = col[src]
        src = src[np.greater_equal(src, n_details, out=closer)] - n_details   # closers' rows of t
        first, n_pieces = cols["start"][row:row + n + 1], np.diff(t.start)[src]
        first[1:], first[1:][closer] = 2, n_pieces      # first[0] is piece; then piece counts
        np.cumsum(first, out=first)
        edges = self.edges(depth[~closer], cell[~closer])
        if (np.diff(edges, axis=0) <= 0).any():
            raise ValueError("breaks must be strictly increasing, length >= 2")
        brk = cols["breaks"][row + piece:row + n + first.item(-1)]
        on = np.repeat(closer, np.diff(first) + 1)      # the closers' breaks; below, pieces
        brk[~on] = np.column_stack(edges).ravel()
        brk[on] = t.breaks[_ragged(t.start[src] + src, n_pieces + 1)]
        slopes, intercepts = (cols[k][piece:first.item(-1)] for k in ("slopes", "intercepts"))
        on = np.repeat(closer, np.diff(first))          # details keep _concat's zero slopes
        intercepts[~on] = np.column_stack(_haar_levels(*edges, self.measure, self.nu)).ravel()
        at, scale = _ragged(t.start[src], n_pieces), np.repeat(1.0 / coef[closer], n_pieces)
        slopes[on], intercepts[on] = t.slopes[at] * scale, t.intercepts[at] * scale

    def materialize(self) -> AtomTable:
        """The atoms, written once by _write, as the (coef, atom) rows of a table."""
        return AtomTable._concat([self])


def cascade_decompose(fn: PiecewiseLinear, space: Interval, measure: str,
                      nu: float, depth_cap: int = 26,
                      detail_cut: float | None = None) -> LocalCascade:
    """Adaptive Haar cascade of fn on the space, in measure-median cells.

    A cell splits at the point halving its measure; the detail coefficient is
    the difference of the two half integrals, and a child stays active while
    it contains a breakpoint of fn or while the oscillation bound of its
    linear piece exceeds the cut. A cell that stops (by the cut or by the
    depth cap) emits its exact remainder as a closing piece, so the cascade
    reproduces fn to rounding whatever the cut; the cut only trades the
    number of detail levels against the coefficient mass of the closers.
    Each depth is one array pass over its cells. A cell carries its ends and
    fn's cumulative integral C there from its parent: (2k) sigma 2^-(d+1) =
    k sigma 2^-d and (2k + 1) sigma 2^-(d+1) = (k + 1/2) sigma 2^-d exactly,
    so a depth makes one quantile and one cumulative call, on its medians
    (depth 0 also on the root's ends). One remainder pass after the last
    depth closes every cell that stopped."""
    sigma_total = float(Measure.of(measure, nu).interval(space.a, space.b))
    if sigma_total <= 0:
        raise ValueError("empty cascade space")
    mean_coef = float(fn.integral(measure, nu))
    if detail_cut is None:
        # the active front on a sloped stretch grows like cut^(-1/2); this
        # default keeps a bare call near 1e4 cells with closer mass around
        # 1e-4 of the input's scale
        detail_cut = 1e-8 * max(abs(mean_coef), fn.sup_norm() * sigma_total, 1e-300)

    inner_breaks = fn.breaks[(fn.breaks > space.a) & (fn.breaks < space.b)]
    levels = []
    closed = [(np.zeros(0, dtype=np.int64),) * 4]   # (depth, cell, a, b) that stop
    active = np.array([0], dtype=np.int64)
    cascade = LocalCascade(space=space, measure=measure, nu=nu,
                           sigma_total=sigma_total, mean_coef=mean_coef,
                           levels=levels, closers=None, depth=0,
                           closure_l1=0.0)
    pos = np.array([0.0, 0.5, 1.0])     # depth 0: the root's ends and median
    for d in range(depth_cap):
        if len(active) == 0:
            break
        med = cascade._at(d, pos)
        cmed = fn.cumulative(med, measure, nu)
        if d == 0:
            (left, med, right), (cleft, cmed, cright) = med[:, None], cmed[:, None]
        lam = (cmed - cleft) - (cright - cmed)
        keep = lam != 0.0
        if np.any(keep):
            levels.append(CascadeLevel(depth=d, idx=active[keep],
                                       lam=lam[keep]))
        # children either stay active, close, or vanish with the function;
        # child 2k is (left, med) and 2k + 1 is (med, right), with fn's C there
        a, b, ca, cb, child = (np.column_stack(v).ravel() for v in (
            (left, med), (med, right), (cleft, cmed), (cmed, cright), 2 * active + [[0], [1]]))
        live = (b > fn.breaks[0]) & (a < fn.breaks[-1])
        has_break = (np.searchsorted(inner_breaks, b, side="left")
                     > np.searchsorted(inner_breaks, a, side="right"))
        osc = np.abs(fn.slopes[fn._piece_index(0.5 * (a + b))]) * (b - a)
        split = live & (has_break | (osc * np.ldexp(sigma_total, -d - 1)
                                     > detail_cut)) & (d + 1 < depth_cap)
        closed.append((np.full(np.count_nonzero(~split), d + 1), child[~split],
                       a[~split], b[~split]))
        active, left, right, cleft, cright = (v[split] for v in (child, a, b, ca, cb))
        pos = active + 0.5
        cascade.depth = d + 1
    # one remainder pass closes the stopped cells in closing order (by depth,
    # then cell) and drops those where fn vanishes
    cascade.closers = _remainders(fn, *map(np.concatenate, zip(*closed)),
                                  sigma_total, measure, nu)
    # closure mass summed in closing order, as the closers were found
    cascade.closure_l1 = float(np.cumsum(np.append(0.0, cascade.closers.coef))[-1])
    return cascade


# ---------------------------------------------------------------------------
# the decomposition pipeline


@dataclass
class Decomposition:
    measure: str
    nu: float
    pieces: list          # (cascade, special rows: an AtomTable or ())

    def reconstruct(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for cascade, _ in self.pieces:
            out = out + cascade.evaluate(x)
        return out

    def atoms(self) -> "AtomTable | tuple":
        """(coefficient, atom) rows, piece by piece: the cascade's atoms, as
        materialize writes them, then its globalized special rows, written
        once into one read-only AtomTable sized up front (an empty tuple when
        no row is left). len is O(1); no atom exists until its row is read."""
        parts = [t for piece in self.pieces for t in piece if not isinstance(t, tuple)]
        table = AtomTable._concat(parts) if parts else ()
        return table if len(table) else ()

    def coeff_l1(self) -> float:
        total = 0.0
        for cascade, special in self.pieces:
            total += cascade.coeff_l1()
            if len(special):   # the special rows by column, in iteration's order
                total += sum(np.abs(special.coef).tolist())
        return total

    def summary(self, f: SampledFunction | None = None) -> dict:
        n_details = sum(len(lev.idx) for c, _ in self.pieces
                        for lev in c.levels)
        n_closers = sum(len(c.closers) for c, _ in self.pieces)
        n_special = sum(len(sp) for _, sp in self.pieces)
        out = {"measure": self.measure, "n_pieces": len(self.pieces),
               "n_details": int(n_details), "n_closers": int(n_closers),
               "n_special_pairs": int(n_special),
               "coeff_l1": self.coeff_l1(),
               "closure_l1": float(sum(c.closure_l1
                                       for c, _ in self.pieces))}
        if f is not None:
            res = float(f.grid.weights @ np.abs(f.values - self.reconstruct(f.nodes)))
            norm = f.l1_norm()
            out["residual_l1"] = res
            out["residual_rel"] = res / norm if norm > 0 else 0.0
        return out


def atomic_decompose(f, nu: float, measure: str | None = None,
                     cover: DyadicCover | None = None,
                     depth_cap: int = 26, reconstruct_tol: float = 1e-6,
                     zeta: float = 0.02) -> Decomposition:
    """Full atomic decomposition of a function on (0, 1).

    The function is cut by the partition of unity, each piece is expanded by
    the Haar cascade on its doubly-starred interval, and each piece's mean
    part is rewritten through the two-atom split as a combination of global
    atoms. The pieces are chord products on one shared breakpoint set, so
    they sum back to the input exactly; the cascades close their remainders
    exactly as well, so the reconstruction holds to rounding and
    reconstruct_tol only steers how the coefficient mass splits between
    Haar details and closers."""
    if isinstance(f, SampledFunction):
        fn = PiecewiseLinear.from_node_values(f.nodes, f.values)
        measure = f.measure if measure is None else measure
    elif not isinstance(fn := f, PiecewiseLinear):
        raise TypeError("expected a PiecewiseLinear or SampledFunction")
    if measure is None:
        raise ValueError("measure tag required for raw piecewise input")
    family = _FAMILY_OF_MEASURE[measure]
    supp = fn.support
    if cover is None:
        j_need = [abs(DyadicCover(family, zeta=zeta, j_max=60).index_of(e))
                  for e in (supp.a, supp.b) if 0.0 < e < 1.0]
        j_max = max(8, max(j_need, default=8) + 2)
        cover = DyadicCover(family, zeta=zeta, j_max=j_max)
    members = build_partition(cover)
    coverage = partition_coverage(members)
    if supp.a < coverage.a or supp.b > coverage.b:
        raise ValueError(
            f"support ({supp.a:.3g}, {supp.b:.3g}) leaves the partition "
            f"coverage ({coverage.a:.3g}, {coverage.b:.3g}); enlarge j_max")

    points = np.unique(np.concatenate(
        [fn.breaks] + [m.eta.breaks for m in members]))
    norm_l1 = fn.l1_norm(measure, nu)
    # The closers keep every cascade exact whatever the cut; tying the cut
    # to the tolerance keeps their coefficient mass (which scales like
    # sqrt(cut)) well below reconstruct_tol relative to the input.
    cut = 1e-2 * reconstruct_tol * max(norm_l1, 1e-300)
    pieces = []
    for m in members:
        window = m.eta.support
        piece_pts = points[(points >= window.a) & (points <= window.b)]
        if len(piece_pts) < 2:
            continue
        piece = chord_product(fn, m.eta, piece_pts)
        if piece.sup_norm() == 0.0:
            continue
        cascade = cascade_decompose(piece, m.star2, measure, nu,
                                    depth_cap=depth_cap, detail_cut=cut)
        special = () if cascade.mean_coef == 0.0 else globalize_special(
            cover, m.j, nu, measure, cascade.mean_coef)
        pieces.append((cascade, special))
    return Decomposition(measure=measure, nu=nu, pieces=pieces)


# ---------------------------------------------------------------------------
# random atoms and reports


_PROFILES = ("haar", "tent", "twobar")


def random_atoms(rng, measure: str, nu: float, count: int,
                 scale_max: int = 8, zeta: float = 0.02) -> AtomTable:
    """Seeded atoms of the three cancellative profiles plus occasional
    special atoms, at dyadic cover scales up to scale_max, as the rows
    (coefficient 1) of one AtomTable."""
    family = _FAMILY_OF_MEASURE[measure]
    meas = Measure.of(measure, nu)
    cover = DyadicCover(family, zeta=zeta, j_max=max(scale_max, 8))
    out = []
    for i in range(count):
        if family == FAMILY_ONE_END:
            j = int(rng.integers(0, scale_max + 1))
        else:
            j = int(rng.integers(1, scale_max + 1)) * (1 if rng.random() < 0.5
                                                       else -1)
        cell = cover.interval(j)
        if i % 7 == 6:
            out.append(special_atom(cover, j, nu, measure,
                                    label=f"special-j{j}-{i}"))
            continue
        frac = 2.0 ** -int(rng.integers(0, 3))
        width = frac * cell.length
        a = cell.a + float(rng.random()) * (cell.length - width)
        b = a + width
        profile = _PROFILES[int(rng.integers(0, len(_PROFILES)))]
        label, ca, cb = f"{profile}-j{j}-{i}", meas.cdf(a), meas.cdf(b)
        if profile != "tent":   # split at the median, or at a drawn quantile
            q = 0.5 * (ca + cb) if profile == "haar" \
                else ca + (0.3 + 0.4 * float(rng.random())) * (cb - ca)
            out.append(haar_atom(a, float(meas.quantile(q)), b, nu, measure,
                                 label=label))
        else:
            tent = PiecewiseLinear.tent(a, b, 1.0)
            s_ab = meas.interval(a, b)
            mean = tent.integral(measure, nu) / s_ab
            centered = tent.plus_constant(-mean)
            scale = 1.0 / (centered.sup_norm() * s_ab)
            out.append(Atom(fn=centered.scaled(scale), measure=measure, nu=nu,
                            kind=KIND_CANCELLATIVE, label=label))
    return AtomTable._concat([atom._table for atom in out])


def h1_norm_report(f: SampledFunction, basis, time_grid, nu: float,
                   depth_cap: int = 26, reconstruct_tol: float = 1e-6,
                   zeta: float = 0.02) -> dict:
    """Atomic coefficient mass against the maximal-function L1 norm.

    The two numbers estimate the same Hardy-space norm through its two
    characterizations; their ratio is the quantity tracked for stability.
    depth_cap, reconstruct_tol and zeta go to atomic_decompose."""
    from .maximal import maximal_function

    dec = atomic_decompose(f, nu=nu, measure=f.measure, depth_cap=depth_cap,
                           reconstruct_tol=reconstruct_tol, zeta=zeta)
    res = maximal_function(basis, f, time_grid)
    maximal_l1 = float(f.grid.weights @ res.values)
    coeff = dec.coeff_l1()
    summary = dec.summary(f)
    return {"coeff_l1": coeff, "maximal_l1": maximal_l1,
            "ratio": maximal_l1 / coeff if coeff > 0 else math.inf,
            "residual_rel": summary["residual_rel"],
            "n_details": summary["n_details"]}
