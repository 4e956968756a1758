"""The array-native Haar cascade against a scalar reference implementation.

The reference functions below are the original one-cell-at-a-time routines:
`cascade_decompose` with its per-cell `close()`, the per-closer loop of
`LocalCascade.evaluate` and the per-entry `materialize` with its scalar
`haar_atom`, and the `PiecewiseLinear.restricted` and `.extended` that
`close()` calls. They are kept verbatim apart from five edits: the methods
take the cascade as an argument, the reference cascade keeps its closers
in a plain list of `RefCloser` records, interval measures come from
`Measure.interval`, comments inside the loops are dropped, and `restricted`
and `extended` are module functions of the piecewise-linear `self`. The array
routines must find the same cells, coefficients and remainders, evaluate
to the same values and materialize the same atoms in the same order; the
closer table is compared by column.

`cascade_decompose` closes every stopped cell in one remainder pass after its
last depth, and each cell carries its ends and the input's cumulative
integral there from its parent, so a depth finds only its medians, with one
quantile and one cumulative call. `ref_depth_cascade_decompose` and
`ref_depth_remainders` stand for the routines it replaced: one remainder
pass per depth, all three ends of every cell found again at each depth, and
two `integral_between` calls per depth. They are kept verbatim apart from
their names. Every array a cascade yields must be equal to theirs byte for
byte: closer columns, detail levels, `closure_l1`, `coeff_l1` and
`evaluate`. The carry is also pinned by count: one quantile per visited
cell plus the root's two ends, against the reference's three per cell, and
one cumulative call per depth.

`LocalCascade.evaluate` sorts the points by u once. One `searchsorted` of
every detail cell's ends and median finds the points of each cell's two
halves, which one `np.add.at` adds to in depth order; one `searchsorted` of
the closed cells' ends finds their points, and one exact `AtomTable._pieces`
lookup each point's closer piece. `ref_piece_loop_evaluate` stands for the
routine it replaced, with a pass over every point per detail level, a pass
over every point for the closers and a loop over piece positions, kept
verbatim apart from its name. The two must agree byte for byte, on every
closer break, closed cell edge and detail cell's ends and median, one ulp
either side of them, on shuffled and repeated points and points outside the
space, and at 0-d and 2-D points, whose shapes are kept.

`ref_haar_levels` is `_haar_levels` as a fresh array per operation, before
it reused four buffers; the two must agree byte for byte.
"""
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fbhardy import hardy
from fbhardy.covers import Interval
from fbhardy.hardy import (KIND_CANCELLATIVE, Atom, AtomTable, CascadeLevel,
                           LocalCascade, PiecewiseLinear, _haar_levels,
                           atomic_decompose, cascade_decompose)
from fbhardy.quadrature import MEASURE_LEBESGUE, MEASURE_MU, Measure


class RefCloser(NamedTuple):
    """One closing piece of the reference cascade: the remainder fn of the
    cell at depth, with lam its sup norm times the cell measure."""
    depth: int
    cell: int
    lam: float
    fn: PiecewiseLinear


def ref_restricted(self, a: float, b: float) -> "PiecewiseLinear | None":
    a = max(a, float(self.breaks[0]))
    b = min(b, float(self.breaks[-1]))
    if b <= a:
        return None
    pts = np.unique(np.concatenate([[a, b],
                                    self.breaks[(self.breaks > a)
                                                & (self.breaks < b)]]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    idx = self._piece_index(mids)
    return PiecewiseLinear(pts, self.slopes[idx], self.intercepts[idx])


def ref_extended(self, a: float, b: float) -> "PiecewiseLinear":
    """Pad with zero pieces so the support becomes [a, b]."""
    lo = [a] if a < self.breaks[0] else []
    hi = [b] if b > self.breaks[-1] else []
    if not (lo or hi):
        return self
    zl, zh = [0.0] * len(lo), [0.0] * len(hi)
    return PiecewiseLinear(np.concatenate([lo, self.breaks, hi]),
                           np.concatenate([zl, self.slopes, zh]),
                           np.concatenate([zl, self.intercepts, zh]))


def ref_haar_atom(a, m, b, nu, measure, label=""):
    s = Measure.of(measure, nu).interval(a, b)
    s1 = Measure.of(measure, nu).interval(a, m)
    s2 = Measure.of(measure, nu).interval(m, b)
    h1 = 1.0 / s
    h2 = h1 * s1 / s2
    scale = 1.0 / max(1.0, h2 * s)   # an off-median split peaks on the right
    fn = PiecewiseLinear.from_breaks_levels([a, m, b],
                                            [scale * h1, -scale * h2])
    return Atom(fn=fn, measure=measure, nu=nu, kind=KIND_CANCELLATIVE,
                label=label or "haar")


def ref_cascade_decompose(fn, space, measure, nu, depth_cap=26,
                          detail_cut=None):
    sigma_total = float(Measure.of(measure, nu).interval(space.a, space.b))
    if sigma_total <= 0:
        raise ValueError("empty cascade space")
    mean_coef = float(fn.integral(measure, nu))
    if detail_cut is None:
        detail_cut = 1e-8 * max(abs(mean_coef), fn.sup_norm() * sigma_total, 1e-300)

    inner_breaks = fn.breaks[(fn.breaks > space.a) & (fn.breaks < space.b)]
    levels = []
    closers = []
    closure_l1 = 0.0
    active = np.array([0], dtype=np.int64)
    cascade = LocalCascade(space=space, measure=measure, nu=nu,
                           sigma_total=sigma_total, mean_coef=mean_coef,
                           levels=levels, closers=closers, depth=0,
                           closure_l1=0.0)

    def close(depth, k, a, b, sigma_cell):
        r = ref_restricted(fn, a, b)
        if r is None:
            return 0.0
        avg = float(r.integral(measure, nu)) / sigma_cell
        rem = ref_extended(r, a, b).plus_constant(-avg)
        s = rem.sup_norm()
        if s <= 0.0:
            return 0.0
        closers.append(RefCloser(depth=depth, cell=int(k),
                                 lam=s * sigma_cell, fn=rem))
        return s * sigma_cell

    for d in range(depth_cap):
        if len(active) == 0:
            break
        left, med, right = cascade.edges(d, active)
        half1 = fn.integral_between(left, med, measure, nu)
        half2 = fn.integral_between(med, right, measure, nu)
        lam = half1 - half2
        keep = lam != 0.0
        if np.any(keep):
            levels.append(CascadeLevel(depth=d, idx=active[keep],
                                       lam=lam[keep]))
        child_idx = []
        sigma_child = sigma_total / 2.0 ** (d + 1)
        for k, el, em, er in zip(active, left, med, right):
            for child, (a, b) in ((2 * k, (el, em)), (2 * k + 1, (em, er))):
                if b <= fn.breaks[0] or a >= fn.breaks[-1]:
                    continue   # the function vanishes on this cell
                has_break = bool(np.any((inner_breaks > a) & (inner_breaks < b)))
                mids = 0.5 * (a + b)
                slope = fn.slopes[min(max(np.searchsorted(fn.breaks, mids,
                                                          side="right") - 1, 0),
                                      len(fn.slopes) - 1)]
                osc = abs(slope) * (b - a)
                if (has_break or osc * sigma_child > detail_cut) \
                        and d + 1 < depth_cap:
                    child_idx.append(child)
                else:
                    closure_l1 += close(d + 1, child, a, b, sigma_child)
        active = np.asarray(sorted(child_idx), dtype=np.int64)
        cascade.depth = d + 1
    cascade.levels = levels
    cascade.closure_l1 = closure_l1
    return cascade


def ref_evaluate(self, x):
    x = np.asarray(x, dtype=float)
    inside = (x > self.space.a) & (x <= self.space.b)
    out = np.where(inside, self.mean_coef / self.sigma_total, 0.0)
    u = self._u(x)
    for lev in self.levels:
        cell = np.floor(u * 2.0**lev.depth).astype(np.int64)
        pos = np.searchsorted(lev.idx, cell)
        pos_c = np.clip(pos, 0, len(lev.idx) - 1)
        hit = inside & (lev.idx[pos_c] == cell)
        sign = np.where(np.floor(u * 2.0 ** (lev.depth + 1)) % 2 == 0,
                        1.0, -1.0)
        sigma_cell = self.sigma_total / 2.0**lev.depth
        out = out + np.where(hit, sign * lev.lam[pos_c] / sigma_cell, 0.0)
    for cp in self.closers:
        cell = np.floor(u * 2.0**cp.depth).astype(np.int64)
        hit = inside & (cell == cp.cell)
        xc = np.clip(x, cp.fn.breaks[0], cp.fn.breaks[-1])
        out = out + np.where(hit, cp.fn.evaluate(xc), 0.0)
    return out


def ref_materialize(self, max_atoms=None):
    entries = []
    for lev in self.levels:
        for k, lam in zip(lev.idx, lev.lam):
            entries.append((abs(lam), lev.depth, int(k), float(lam), None))
    for cp in self.closers:
        entries.append((abs(cp.lam), cp.depth, cp.cell, cp.lam, cp))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    if max_atoms is not None:
        entries = entries[:max_atoms]
    out = []
    for _, depth, k, lam, cp in entries:
        if cp is None:
            left, med, right = self.edges(depth, np.array([k]))
            atom = ref_haar_atom(float(left[0]), float(med[0]), float(right[0]),
                                 self.nu, self.measure,
                                 label=f"haar[d{depth},k{k}]")
        else:
            atom = Atom(fn=cp.fn.scaled(1.0 / cp.lam), measure=self.measure,
                        nu=self.nu, kind=KIND_CANCELLATIVE,
                        label=f"closer[d{depth},k{k}]")
        out.append((lam, atom))
    return out


# ---------------------------------------------------------------------------
# inputs


@st.composite
def cascade_inputs(draw):
    """A space inside (0, 1) and a random piecewise-linear input whose
    breaks fall inside the space, straddle it, or sit on its ends."""
    a = draw(st.floats(0.02, 0.6))
    b = a + draw(st.floats(0.05, 0.95 - a))
    n = draw(st.integers(2, 7))
    where = draw(st.sampled_from(["inside", "straddle", "ends"]))
    lo, hi = {"inside": (a, b), "straddle": (max(a - 0.1, 1e-3), b + 0.04),
              "ends": (a, b)}[where]
    pts = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    if where == "ends":
        pts += [a, b]
    breaks = np.unique(np.asarray(pts, dtype=float))
    if len(breaks) < 2 or np.min(np.diff(breaks)) < 1e-6:
        breaks = np.linspace(lo, hi, n)
    # values on a 1e-3 grid: flat pieces occur, denormal ones do not
    vals = draw(st.lists(st.integers(-2000, 2000), min_size=2 * len(breaks),
                         max_size=2 * len(breaks)))
    slopes = np.asarray(vals[:len(breaks) - 1]) * 4e-3
    levels = np.asarray(vals[len(breaks):2 * len(breaks) - 1]) * 1e-3
    fn = PiecewiseLinear(breaks, slopes, levels - slopes * breaks[:-1])
    nu = draw(st.sampled_from([-0.3, 0.5, 1.0, 2.5]))
    measure = draw(st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE]))
    cut = 10.0 ** -draw(st.floats(3.0, 9.0))
    depth_cap = draw(st.sampled_from([2, 5, 26]))
    return fn, Interval(a, b), measure, nu, cut, depth_cap


def _build(fn, space, measure, nu, cut, depth_cap):
    # the cut is relative to the input's scale on the space, as the default
    sigma = float(Measure.of(measure, nu).interval(space.a, space.b))
    detail_cut = cut * max(fn.sup_norm() * sigma, 1e-300)
    new = cascade_decompose(fn, space, measure, nu, depth_cap=depth_cap,
                            detail_cut=detail_cut)
    ref = ref_cascade_decompose(fn, space, measure, nu, depth_cap=depth_cap,
                                detail_cut=detail_cut)
    return new, ref


def _same(x, y, exact, rel=1e-12):
    """x equals y bit for bit where exact is set, and to rel elsewhere."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    exact = np.broadcast_to(exact, y.shape)
    np.testing.assert_array_equal(x[exact], y[exact])
    np.testing.assert_allclose(x[~exact], y[~exact], rtol=rel,
                               atol=rel * float(np.max(np.abs(y), initial=0)))


def _columns(pairs):
    """A list of (coefficient, PiecewiseLinear) as the columns of a ragged
    table: coefficients, piece counts, breaks, slopes, intercepts."""
    def flat(key):
        return np.concatenate([getattr(f, key) for _, f in pairs] or [np.zeros(0)])
    return ([c for c, _ in pairs], [len(f.slopes) for _, f in pairs],
            flat("breaks"), flat("slopes"), flat("intercepts"))


def _same_pieces(got, want, exact):
    """Two ragged tables, given by _columns, agree row by row."""
    exact = np.asarray(exact, dtype=bool)
    assert list(got[1]) == list(want[1])
    _same(got[0], want[0], exact)
    sizes = np.array(want[1], dtype=int)
    for g, w, extra in zip(got[2:], want[2:], (1, 0, 0)):
        _same(g, w, np.repeat(exact, sizes + extra))


def _check(new, ref, rng):
    assert new.depth == ref.depth
    assert len(new.levels) == len(ref.levels)
    for ln, lr in zip(new.levels, ref.levels):
        assert ln.depth == lr.depth
        np.testing.assert_array_equal(ln.idx, lr.idx)
        np.testing.assert_array_equal(ln.lam, lr.lam)
    t = new.closers
    assert list(zip(t.depth.tolist(), t.cell.tolist())) \
        == [(c.depth, c.cell) for c in ref.closers]
    exact = [len(c.fn.slopes) == 1 for c in ref.closers]
    one_piece = all(exact)
    _same_pieces((t.coef, np.diff(t.start), t.breaks, t.slopes, t.intercepts),
                 _columns([(c.lam, c.fn) for c in ref.closers]), exact)
    _same(new.closure_l1, ref.closure_l1, one_piece)

    # random points, and the quantile edges of up to 400 closed cells
    x = rng.uniform(max(new.space.a - 0.05, 0.0), new.space.b + 0.05, 2001)
    pick = rng.permutation(len(ref.closers))[:400]
    for i in pick:
        cp = ref.closers[i]
        x = np.concatenate([x, *new.edges(cp.depth, [cp.cell])])
    x = np.concatenate([x, [new.space.a, new.space.b]])
    _same(new.evaluate(x), ref_evaluate(ref, x), one_piece)
    assert np.ndim(new.evaluate(float(x[0]))) == 0

    table = new.materialize()
    for max_atoms in (None, 1, 10):
        got, want = table[:max_atoms], ref_materialize(ref, max_atoms)
        assert [(a.label, a.kind) for _, a in got] \
            == [(a.label, a.kind) for _, a in want]
        _same_pieces(_columns([(c, a.fn) for c, a in got]),
                     _columns([(c, a.fn) for c, a in want]),
                     [one_piece or a.label.startswith("haar") for _, a in want])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cascade_inputs(), st.integers(0, 2**32 - 1))
def test_array_cascade_matches_scalar_reference(inputs, seed):
    new, ref = _build(*inputs)
    _check(new, ref, np.random.default_rng(seed))


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
@pytest.mark.parametrize("cut", [1e-3, 1e-5, 1e-7])
def test_tent_sweep_matches_scalar_reference(measure, cut):
    """The decomposition_profile tent, whose closers are all one piece."""
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    space = Interval(0.2, 0.5)
    new = cascade_decompose(fn, space, measure, 0.5, detail_cut=cut)
    ref = ref_cascade_decompose(fn, space, measure, 0.5, detail_cut=cut)
    _check(new, ref, np.random.default_rng(7))


def test_depth_cap_keeps_breakpoint_cells_as_multi_piece_closers():
    fn = PiecewiseLinear.from_node_values([0.1, 0.13, 0.2, 0.21, 0.35],
                                          [0.0, 1.0, -0.5, 0.4, 0.0])
    new, ref = _build(fn, Interval(0.05, 0.4), MEASURE_MU, 0.5, 1e-6, 5)
    assert max(np.diff(new.closers.start)) > 1
    _check(new, ref, np.random.default_rng(3))


def test_a_cascade_capped_at_depth_zero_has_no_closers():
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    empty = cascade_decompose(fn, Interval(0.2, 0.5), MEASURE_LEBESGUE, 0.5,
                              depth_cap=0)
    assert len(empty.closers) == 0 and empty.closure_l1 == 0.0
    assert np.all(empty.evaluate(np.linspace(0.21, 0.5, 7))
                  == empty.mean_coef / empty.sigma_total)


# ---------------------------------------------------------------------------
# one remainder pass per cascade against the per-depth passes it replaced


def ref_depth_remainders(fn: PiecewiseLinear, depth: int, cells, a, b,
                         sigma_cell: float, measure: str, nu: float) -> tuple:
    """Closer columns (depth, cell, lam, piece counts, breaks, slopes,
    intercepts) of the nonzero remainders of fn on the cells [a, b] of one
    depth, all in one pass.

    A remainder is fn cut to the cell, padded with zero where fn's support
    ends inside it, minus the cell average, with the arithmetic of a
    one-cell cut, integral, zero pad, plus_constant and sup_norm per element.
    Its breaks are the cell's ends and fn's breaks strictly inside the cell."""
    br = fn.breaks
    sel = np.flatnonzero(np.minimum(b, br[-1]) > np.maximum(a, br[0]))
    first = np.searchsorted(br, a[sel], side="right")
    n_breaks = np.searchsorted(br, b[sel], side="left") - first + 2
    start, last = np.cumsum(n_breaks) - n_breaks, np.cumsum(n_breaks) - 1
    owner = np.repeat(np.arange(len(sel)), n_breaks)
    brk = br[np.clip(np.arange(len(owner)) - start[owner] + first[owner] - 1,
                     0, len(br) - 1)]
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
    return (np.full(np.count_nonzero(keep), depth), cells[sel[keep]],
            sup[keep] * sigma_cell, counts[keep], brk[np.repeat(keep, n_breaks)],
            s[np.repeat(keep, counts)], c[np.repeat(keep, counts)])


def ref_depth_cascade_decompose(fn: PiecewiseLinear, space: Interval,
                                measure: str, nu: float, depth_cap: int = 26,
                                detail_cut: float | None = None) -> LocalCascade:
    """Adaptive Haar cascade of fn on the space, in measure-median cells.

    A cell splits at the point halving its measure; the detail coefficient is
    the difference of the two half integrals, and a child stays active while
    it contains a breakpoint of fn or while the oscillation bound of its
    linear piece exceeds the cut. A cell that stops (by the cut or by the
    depth cap) emits its exact remainder as a closing piece, so the cascade
    reproduces fn to rounding whatever the cut; the cut only trades the
    number of detail levels against the coefficient mass of the closers.
    Each depth is one array pass over its cells."""
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
    closed = []                 # per depth: the columns of the closer table
    active = np.array([0], dtype=np.int64)
    cascade = LocalCascade(space=space, measure=measure, nu=nu,
                           sigma_total=sigma_total, mean_coef=mean_coef,
                           levels=levels, closers=None, depth=0,
                           closure_l1=0.0)
    for d in range(depth_cap):
        if len(active) == 0:
            break
        left, med, right = cascade.edges(d, active)
        lam = (fn.integral_between(left, med, measure, nu)
               - fn.integral_between(med, right, measure, nu))
        keep = lam != 0.0
        if np.any(keep):
            levels.append(CascadeLevel(depth=d, idx=active[keep],
                                       lam=lam[keep]))
        # children either stay active, close, or vanish with the function;
        # child 2k is (left, med) and 2k + 1 is (med, right)
        a = np.column_stack([left, med]).ravel()
        b = np.column_stack([med, right]).ravel()
        child = np.column_stack([2 * active, 2 * active + 1]).ravel()
        live = (b > fn.breaks[0]) & (a < fn.breaks[-1])
        has_break = (np.searchsorted(inner_breaks, b, side="left")
                     > np.searchsorted(inner_breaks, a, side="right"))
        osc = np.abs(fn.slopes[fn._piece_index(0.5 * (a + b))]) * (b - a)
        sigma_child = sigma_total / 2.0 ** (d + 1)
        split = live & (has_break | (osc * sigma_child > detail_cut)) \
            & (d + 1 < depth_cap)
        # the remainder pass drops the cells where fn vanishes
        closed.append(ref_depth_remainders(fn, d + 1, child[~split], a[~split],
                                           b[~split], sigma_child, measure, nu))
        active = child[split]
        cascade.depth = d + 1
    depth, cell, lam, counts, breaks, slopes, intercepts = (
        [np.concatenate(col) for col in zip(*closed)] or [np.zeros(0)] * 7)
    cascade.closers = AtomTable(
        measure, nu, lam, np.ones(len(lam), dtype=bool),
        depth.astype(np.int64), cell.astype(np.int64),
        np.concatenate([[0], np.cumsum(counts)]).astype(np.int64), breaks,
        slopes, intercepts)
    # closure mass summed in closing order, as the closers were found
    cascade.closure_l1 = float(np.cumsum(np.append(0.0, lam))[-1])
    return cascade


def _gate10_cases():
    nodes = np.linspace(0.08, 0.40, 33)
    u = (nodes - 0.08) / 0.32
    bump = PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)
    return [
        (MEASURE_MU, bump),
        (MEASURE_MU, PiecewiseLinear.from_breaks_levels([0.12, 0.27, 0.42],
                                                        [1.1, -0.7])),
        (MEASURE_LEBESGUE, PiecewiseLinear.tent(0.3, 0.62, 1.0)),
        (MEASURE_LEBESGUE, PiecewiseLinear.from_breaks_levels(
            [0.22, 0.47, 0.68], [0.9, -0.5])),
    ]


def _cascade_bytes(c):
    """Every array a cascade yields, as (dtype, bytes): the closer columns,
    the detail levels, closure_l1, coeff_l1, the depth reached, and evaluate
    on a grid around the space and on every closed cell's edges."""
    t = c.closers
    cols = [getattr(t, name) for name in ("coef", "closer", "depth", "cell", "start",
                                          "breaks", "slopes", "intercepts")]
    cols += [v for lev in c.levels for v in (np.int64(lev.depth), lev.idx, lev.lam)]
    x = np.concatenate([np.linspace(c.space.a - 0.02, c.space.b + 0.02, 2001),
                        *c.edges(t.depth, t.cell)])
    cols += [np.float64(c.closure_l1), np.float64(c.coeff_l1()),
             np.int64(c.depth), c.evaluate(x)]
    return [(np.asarray(v).dtype.str, np.asarray(v).tobytes()) for v in cols]


def _same_as_per_depth(fn, space, measure, nu, **kw):
    new = cascade_decompose(fn, space, measure, nu, **kw)
    ref = ref_depth_cascade_decompose(fn, space, measure, nu, **kw)
    assert _cascade_bytes(new) == _cascade_bytes(ref)
    return new


def test_gate10_cascades_equal_the_per_depth_passes(monkeypatch):
    """Every cascade of the four gate-10 decompositions, bit for bit."""
    seen = []

    def both(*args, **kw):
        seen.append(_same_as_per_depth(*args, **kw))
        return seen[-1]
    monkeypatch.setattr(hardy, "cascade_decompose", both)
    for measure, fn in _gate10_cases():
        atomic_decompose(fn, nu=0.5, measure=measure)
    assert len(seen) > 4 and sum(len(c.closers) for c in seen) > 10_000


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_profile_cuts_equal_the_per_depth_passes(measure):
    """The decomposition_profile tent at each of its cuts, bit for bit."""
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    for k in range(3, 10):
        _same_as_per_depth(fn, Interval(0.2, 0.5), measure, 0.5,
                           detail_cut=10.0 ** -k)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cascade_inputs())
def test_drawn_cascades_equal_the_per_depth_passes(inputs):
    fn, space, measure, nu, cut, depth_cap = inputs
    sigma = float(Measure.of(measure, nu).interval(space.a, space.b))
    _same_as_per_depth(fn, space, measure, nu, depth_cap=depth_cap,
                       detail_cut=cut * max(fn.sup_norm() * sigma, 1e-300))


@pytest.mark.parametrize("fn, space, depth_cap, n_closers", [
    # a zero input closes no cell, however deep its break cells split
    (PiecewiseLinear.constant(0.3, 0.4, 0.0), Interval(0.2, 0.5), 26, 0),
    (PiecewiseLinear.tent(0.25, 0.45, 1.3), Interval(0.2, 0.5), 0, 0),
    (PiecewiseLinear.tent(0.25, 0.45, 1.3), Interval(0.2, 0.5), 1, 2),
    # a narrow tent in a wide space: most stopped cells hold no part of it
    (PiecewiseLinear.tent(0.3, 0.33, 1.0), Interval(0.05, 0.9), 26, None),
    (PiecewiseLinear.constant(0.2, 0.5, 0.7), Interval(0.2, 0.5), 26, None)])
@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_edge_cascades_equal_the_per_depth_passes(fn, space, depth_cap,
                                                  n_closers, measure):
    new = _same_as_per_depth(fn, space, measure, 0.5, depth_cap=depth_cap)
    assert n_closers is None or len(new.closers) == n_closers


# ---------------------------------------------------------------------------
# the closers' piece lookup against the per-position loop it replaced


def ref_piece_loop_evaluate(self, x):
    """Mean part, all retained details, and the closing remainders."""
    x = np.asarray(x, dtype=float)
    inside = (x > self.space.a) & (x <= self.space.b)
    out = np.where(inside, self.mean_coef / self.sigma_total, 0.0)
    u = self._u(x)
    for lev in self.levels:
        cell = np.floor(u * 2.0**lev.depth).astype(np.int64)
        pos = np.searchsorted(lev.idx, cell)
        pos_c = np.clip(pos, 0, len(lev.idx) - 1)
        hit = inside & (lev.idx[pos_c] == cell)
        sign = np.where(np.floor(u * 2.0 ** (lev.depth + 1)) % 2 == 0,
                        1.0, -1.0)
        sigma_cell = self.sigma_total / 2.0**lev.depth
        out = out + np.where(hit, sign * lev.lam[pos_c] / sigma_cell, 0.0)
    t = self.closers
    if len(t) == 0:
        return out
    u0 = np.ldexp(t.cell.astype(float), -t.depth)
    order = np.argsort(u0)
    j = order[np.maximum(np.searchsorted(u0[order], u, side="right") - 1, 0)]
    hit = inside & (np.floor(np.ldexp(u, t.depth[j])) == t.cell[j])
    first, count = t.start[j], t.start[j + 1] - t.start[j]
    xc = np.clip(x, t.breaks[first + j], t.breaks[first + j + count])
    piece = first
    for q in range(1, int(np.max(count, initial=1))):   # later pieces
        nxt = t.breaks[np.minimum(first + j + q, len(t.breaks) - 1)]
        piece = piece + ((q < count) & (nxt <= xc))
    return out + np.where(hit, t.slopes[piece] * xc + t.intercepts[piece], 0.0)


def _same_as_piece_loop(c):
    """evaluate equals the piece loop bit for bit on a grid around the space,
    on every closer break and closed cell edge, and one ulp either side."""
    t = c.closers
    edges = np.concatenate([t.breaks, *c.edges(t.depth, t.cell)])
    x = np.concatenate([np.linspace(c.space.a - 0.02, c.space.b + 0.02, 2001), edges,
                        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    assert c.evaluate(x).tobytes() == ref_piece_loop_evaluate(c, x).tobytes()


def test_gate10_piece_lookup_equals_the_piece_loop(monkeypatch):
    seen = []

    def keep(*args, **kw):
        seen.append(cascade_decompose(*args, **kw))
        return seen[-1]
    monkeypatch.setattr(hardy, "cascade_decompose", keep)
    for measure, fn in _gate10_cases():
        atomic_decompose(fn, nu=0.5, measure=measure)
    assert max(np.diff(c.closers.start).max(initial=0) for c in seen) > 1
    for c in seen:
        _same_as_piece_loop(c)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cascade_inputs())
def test_drawn_piece_lookup_equals_the_piece_loop(inputs):
    fn, space, measure, nu, cut, depth_cap = inputs
    sigma = float(Measure.of(measure, nu).interval(space.a, space.b))
    _same_as_piece_loop(cascade_decompose(
        fn, space, measure, nu, depth_cap=depth_cap,
        detail_cut=cut * max(fn.sup_norm() * sigma, 1e-300)))


# ---------------------------------------------------------------------------
# the read-back from sorted points against the per-level passes it replaced


def _read_back_points(c, rng):
    """A grid around the space; every detail cell's ends and median, every
    closer break and closed cell edge, and one ulp either side of each;
    points outside the space; shuffled, with a third of them repeated."""
    t = c.closers
    edges = np.concatenate([t.breaks, *c.edges(t.depth, t.cell)] + [
        e for lev in c.levels for e in c.edges(lev.depth, lev.idx)])
    x = np.concatenate([np.linspace(c.space.a - 0.02, c.space.b + 0.02, 2001), edges,
                        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [-np.inf, -1.0, 0.0, c.space.a, c.space.b, 1.0, 2.0, np.inf]])
    return rng.permutation(np.concatenate([x, rng.choice(x, len(x) // 3)]))


def _same_as_per_level_passes(c, rng):
    """evaluate equals ref_piece_loop_evaluate, whose levels pass over every
    point, byte for byte on _read_back_points, and on 1200 of them as a 2-D
    array and at two as 0-d points, keeping each shape."""
    x = _read_back_points(c, rng)
    for pts in (x, x[:1200].reshape(-1, 6), x[0], x[1]):
        got, want = c.evaluate(pts), ref_piece_loop_evaluate(c, pts)
        assert np.shape(got) == np.shape(want) == np.shape(pts)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_gate10_read_back_equals_the_per_level_passes(monkeypatch):
    seen = []

    def keep(*args, **kw):
        seen.append(cascade_decompose(*args, **kw))
        return seen[-1]
    monkeypatch.setattr(hardy, "cascade_decompose", keep)
    for measure, fn in _gate10_cases():
        atomic_decompose(fn, nu=0.5, measure=measure)
    assert sum(len(lev.idx) for c in seen for lev in c.levels) > 10_000
    rng = np.random.default_rng(11)
    for c in seen:
        _same_as_per_level_passes(c, rng)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cascade_inputs(), st.integers(0, 2**32 - 1))
def test_drawn_read_back_equals_the_per_level_passes(inputs, seed):
    fn, space, measure, nu, cut, depth_cap = inputs
    sigma = float(Measure.of(measure, nu).interval(space.a, space.b))
    _same_as_per_level_passes(cascade_decompose(
        fn, space, measure, nu, depth_cap=depth_cap,
        detail_cut=cut * max(fn.sup_norm() * sigma, 1e-300)), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# each cell's ends and integrals carried from its parent


def _carry_counts(build, fn, *args, **kw):
    """(elements passed to Measure.quantile, calls of fn's cumulative, the
    cascade) while build(fn, *args, **kw) runs."""
    counts = [0, 0]
    quantile, cumulative = Measure.quantile, PiecewiseLinear.cumulative

    def counted_quantile(self, m):
        counts[0] += np.size(m)
        return quantile(self, m)

    def counted_cumulative(self, *a):
        counts[1] += self is fn
        return cumulative(self, *a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Measure, "quantile", counted_quantile)
        mp.setattr(PiecewiseLinear, "cumulative", counted_cumulative)
        cascade = build(fn, *args, **kw)
    return counts[0], counts[1], cascade


def _carries(fn, space, measure, nu, **kw):
    """cascade_decompose finds one quantile per visited cell, plus the root's
    two ends, and calls fn's cumulative once per depth (and once for its
    integral); the per-depth reference finds each visited cell's three ends."""
    ref_q, _, ref = _carry_counts(ref_depth_cascade_decompose, fn, space, measure, nu, **kw)
    q, calls, new = _carry_counts(cascade_decompose, fn, space, measure, nu, **kw)
    assert ref_q % 3 == 0 and ref_q > 0
    assert q == ref_q // 3 + 2
    assert calls == new.depth + 1 == ref.depth + 1
    return q


@pytest.mark.parametrize("measure", [MEASURE_MU, MEASURE_LEBESGUE])
def test_profile_cuts_find_one_quantile_per_cell(measure):
    fn = PiecewiseLinear.tent(0.25, 0.45, 1.3)
    counts = [_carries(fn, Interval(0.2, 0.5), measure, 0.5, detail_cut=10.0 ** -k)
              for k in range(3, 10)]
    if measure == MEASURE_MU:   # the cut-mu-1e-08 sweep item: 10 686 at three per cell
        assert counts[5] == 3564


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cascade_inputs())
def test_drawn_cascades_find_one_quantile_per_cell(inputs):
    fn, space, measure, nu, cut, depth_cap = inputs
    sigma = float(Measure.of(measure, nu).interval(space.a, space.b))
    _carries(fn, space, measure, nu, depth_cap=depth_cap,
             detail_cut=cut * max(fn.sup_norm() * sigma, 1e-300))


# ---------------------------------------------------------------------------
# the two-bar levels in four buffers against the plain expression


def ref_haar_levels(a, m, b, measure: str, nu: float) -> tuple:
    cdf = Measure.of(measure, nu).cdf
    ca, cm, cb = cdf(a), cdf(m), cdf(b)
    s, s1, s2 = cb - ca, cm - ca, cb - cm
    h1, h2 = 1.0 / s, 1.0 / s * s1 / s2
    scale = 1.0 / np.maximum(1.0, h2 * s)   # an off-median split peaks on the right
    return scale * h1, -scale * h2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-4, 0.9), st.floats(1e-12, 0.099),
                          st.floats(0.001, 0.999)), min_size=1, max_size=50),
       st.sampled_from([MEASURE_MU, MEASURE_LEBESGUE]), st.sampled_from([-0.3, 0.5, 1.0]))
def test_buffered_haar_levels_equal_the_plain_expression(cells, measure, nu):
    """On drawn cells, at and off their measure medians, and on one cell
    given as floats (as haar_atom passes it), byte for byte."""
    a, width, frac = map(np.array, zip(*cells))
    b, m = a + width, a + frac * width
    med = Measure.of(measure, nu).quantile(0.5 * (Measure.of(measure, nu).cdf(a)
                                                  + Measure.of(measure, nu).cdf(b)))
    for mid in (m, med):
        ok = (a < mid) & (mid < b)
        edges = (a[ok], mid[ok], b[ok])
        got, want = _haar_levels(*edges, measure, nu), ref_haar_levels(*edges, measure, nu)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    got = _haar_levels(float(a[0]), float(m[0]), float(b[0]), measure, nu)
    want = ref_haar_levels(float(a[0]), float(m[0]), float(b[0]), measure, nu)
    assert [g.shape for g in got] == [(1,), (1,)]
    assert [g.tobytes() for g in got] == [np.float64(w).tobytes() for w in want]
