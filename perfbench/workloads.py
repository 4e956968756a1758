"""The benchmark workloads, one per user-facing job of fbhardy.

Each workload builds its inputs from the seed (``prepare``), runs one pass
item by item through the library's public API with the arguments the
matching CLI command, script or acceptance gate uses (``run``), and checks
its outputs against the gate's own conditions (``check``). Outputs are
summarised into flat dicts of plain numbers so they can be compared with the
recorded reference values and with the CLI's JSON files.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fbhardy import maximal
from fbhardy.basis import EigenBasis
from fbhardy.covers import Interval
from fbhardy.hardy import PiecewiseLinear, atomic_decompose, cascade_decompose
from fbhardy.kernels import LEMMA_IDS, UnitIntervalKernels, check_sharp_estimate
from fbhardy.maximal import (CutoffRho, compare_semigroups, duhamel_closure,
                             duhamel_residual_kernels)
from fbhardy.quadrature import (SampledFunction, make_quadrature,
                                MEASURE_LEBESGUE, MEASURE_MU)
from fbhardy.specfun import Order

from perfbench.tracer import rebind, restore

DEFAULT_SEED = 20240      # the seed of configs/default.cfg and the scripts
GATE7_SEED = 4101         # acceptance gate 7 draws its bumps from this seed
N_ZEROS = 2400            # shipped zero-table size
ZETA = 0.02               # shipped cover enlargement


@dataclass
class Context:
    basis: EigenBasis
    kernels: UnitIntervalKernels


class Pass:
    """One pass of a workload: per-item latency, outputs and failures.

    ``on_item`` is called with each item's name before it starts; the tracer
    uses it to tag spans with the item they belong to."""

    def __init__(self, expected, on_item=None):
        self.expected = list(expected)
        self.seconds = {}
        self.outputs = {}
        self.failures = {}
        self.on_item = on_item
        self.wall = 0.0           # seconds for the whole pass

    def item(self, name, summarise, fn, *args, **kw):
        """Run one item, timing only the library call; the summary is made
        after the clock stops. An exception is recorded and None returned."""
        if self.on_item is not None:
            self.on_item(name)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kw)
        except Exception as exc:   # an item that raises is a failed item
            self.seconds[name] = time.perf_counter() - t0
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
            return None
        self.seconds[name] = time.perf_counter() - t0
        self.outputs[name] = summarise(result)
        return result

    def fail(self, name, message):
        self.failures.setdefault(name, []).append(message)

    def failed_items(self) -> set:
        missing = {n for n in self.expected if n not in self.outputs}
        return missing | set(self.failures)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _fail_group(p: Pass, names, message):
    for name in names:
        p.fail(name, message)


def _setup(nu: float) -> Context:
    """What every CLI command pays first: the eigenbasis and the kernels."""
    basis = EigenBasis.build(Order(nu), N_ZEROS)
    return Context(basis=basis, kernels=UnitIntervalKernels(basis))


def bump_profile(a: float = 0.08, b: float = 0.40) -> PiecewiseLinear:
    """The sin^2 bump of the CLI, gate 6 and gate 10."""
    nodes = np.linspace(a, b, 33)
    u = (nodes - a) / (b - a)
    return PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)


def _sampled(fn: PiecewiseLinear, grid) -> SampledFunction:
    return SampledFunction(grid=grid, values=fn.evaluate(grid.nodes))


def _identity(out):
    return out


@dataclass
class Step:
    """One item: ``call(ctx)`` makes the library call, ``summarise`` turns
    its result into the item's outputs after the clock stops."""
    name: str
    call: Callable
    summarise: Callable = _identity


class Workload:
    """Set-up at the workload's order; unless a workload says otherwise its
    items are independent library calls, listed by ``prepare`` as Steps."""
    nu = 0.5

    def setup(self) -> Context:
        return _setup(self.nu)

    def expected(self, steps):
        return [s.name for s in steps]

    def run(self, ctx, steps, p: Pass):
        for s in steps:
            p.item(s.name, s.summarise, s.call, ctx)


# ---------------------------------------------------------------------------
# uchiyama: `fbhardy uchiyama` and gate 8


class Uchiyama(Workload):
    name = "uchiyama"
    seeded = False
    why = ("Uchiyama kernel-condition sweep at the shipped config: many tiny "
           "half-line subordination calls and series tail scans")
    _GROUPS = {"unit-mu": 6, "unit-flat": 10, "halfline": 1}

    def prepare(self, ctx, seed):
        return None

    def expected(self, inputs):
        return ([f"unit-mu-{j}" for j in range(1, 7)]
                + [f"unit-flat-{j}" for j in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)]
                + ["halfline-0"])

    def run(self, ctx, inputs, p: Pass):
        with self.probe(p):
            maximal.uchiyama_families(ctx.kernels, zeta=ZETA, n_r=5, n_space=8)

    @contextlib.contextmanager
    def probe(self, p: Pass):
        """Time each check_uchiyama_conditions call inside uchiyama_families
        as an item and the uchiyama_families call as the pass, whoever makes
        it (this workload or `fbhardy uchiyama`)."""
        check = maximal.check_uchiyama_conditions
        families = maximal.uchiyama_families

        def item(*args, **kw):
            report = p.item(kw["label"], _report_dict, check, *args, **kw)
            if report is None:
                raise RuntimeError(f"item {kw['label']} failed")
            return report

        def whole(*args, **kw):
            t0 = time.perf_counter()
            try:
                return families(*args, **kw)
            finally:
                p.wall = time.perf_counter() - t0

        undo = rebind({id(check): (check, item),
                       id(families): (families, whole)})
        try:
            yield
        finally:
            restore(undo)

    def check(self, p: Pass):
        for name, out in p.outputs.items():
            if not _finite(out["A_ball"], out["A_lower"], out["A_size"],
                           out["A_lipschitz"], out["A"]):
                p.fail(name, "non-finite constant")
        for group, count in self._GROUPS.items():
            names = [n for n in p.outputs if n.startswith(group)]
            if len(names) != count:
                _fail_group(p, names, f"{len(names)} {group} reports, "
                                      f"expected {count}")
            totals = [p.outputs[n]["A"] for n in names]
            if totals and not max(totals) / min(totals) < 5.0:
                _fail_group(p, names, f"{group} spread "
                                      f"{max(totals) / min(totals):.3g} >= 5")

    def cli_steps(self, seed):
        return [CliStep(["uchiyama"], covers=None, builds_basis=True,
                        compare=_compare_uchiyama)]


def _report_dict(rep) -> dict:
    return rep.to_dict()


def _compare_uchiyama(out_dir):
    payload = _read_json(out_dir, "uchiyama.json")
    return {r["label"]: r for r in payload["reports"]}


# ---------------------------------------------------------------------------
# decompose: gate 10 pipeline cases and the decomposition_profile cut sweep


_CUTS = tuple(10.0 ** -k for k in range(3, 9))
_RECONSTRUCT_TOL = 1e-6


def _case_item(ctx, fn, measure, grid):
    dec = atomic_decompose(fn, nu=0.5, measure=measure)
    summary = dec.summary(_sampled(fn, grid))
    atoms = dec.atoms()
    summary["n_atoms"] = len(atoms)
    summary["atoms_l1"] = float(sum(abs(c) for c, _ in atoms))
    return summary


def _sweep_item(ctx, fn, space, measure, cut, x):
    c = cascade_decompose(fn, space, measure, 0.5, detail_cut=cut)
    err = np.abs(c.evaluate(x) - fn.evaluate(x))
    k = int(np.argmax(err))
    return {"n_details": int(sum(len(lev.idx) for lev in c.levels)),
            "n_closers": len(c.closers), "closure_l1": c.closure_l1,
            "coeff_l1": c.coeff_l1(), "sup_error": float(err[k]),
            "sup_error_x": float(x[k]), "sup_f": fn.sup_norm()}


class Decompose(Workload):
    name = "decompose"
    seeded = False
    why = ("atomic decompositions and the cut sweep: Haar cascades built and "
           "read back, one Python close() per closing cell")

    def prepare(self, ctx, seed):
        grids = {m: make_quadrature("unit_interval", 256, measure=m, nu=self.nu)
                 for m in (MEASURE_MU, MEASURE_LEBESGUE)}
        cases = [
            ("case-1-mu", MEASURE_MU, bump_profile()),
            ("case-2-mu", MEASURE_MU, PiecewiseLinear.from_breaks_levels(
                [0.12, 0.27, 0.42], [1.1, -0.7])),
            ("case-3-lebesgue", MEASURE_LEBESGUE,
             PiecewiseLinear.tent(0.3, 0.62, 1.0)),
            ("case-4-lebesgue", MEASURE_LEBESGUE,
             PiecewiseLinear.from_breaks_levels([0.22, 0.47, 0.68],
                                                [0.9, -0.5])),
        ]
        steps = [Step(name, functools.partial(_case_item, fn=fn,
                                              measure=measure,
                                              grid=grids[measure]))
                 for name, measure, fn in cases]
        tent = PiecewiseLinear.tent(0.25, 0.45, 1.3)
        space = Interval(0.2, 0.5)
        x = np.linspace(space.a, space.b, 4001)
        for measure, tag in ((MEASURE_MU, "mu"), (MEASURE_LEBESGUE,
                                                  "lebesgue")):
            for cut in _CUTS:
                steps.append(Step(f"cut-{tag}-{cut:.0e}", functools.partial(
                    _sweep_item, fn=tent, space=space, measure=measure,
                    cut=cut, x=x)))
        return steps

    def check(self, p: Pass):
        for name, out in p.outputs.items():
            if name.startswith("case-"):
                if not out["residual_rel"] < _RECONSTRUCT_TOL:
                    p.fail(name, f"residual_rel {out['residual_rel']:.3e}")
            elif not out["sup_error"] < _RECONSTRUCT_TOL * out["sup_f"]:
                p.fail(name, f"evaluate sup error {out['sup_error']:.3e}")

    def cli_steps(self, seed):
        # `fbhardy atoms decompose` runs the two-bar profiles of cases 2 and 4
        return [CliStep(["atoms", "decompose", "--family", tag],
                        covers=name, builds_basis=False,
                        compare=_decompose_comparer(tag, name))
                for tag, name in (("mu", "case-2-mu"),
                                  ("lebesgue", "case-4-lebesgue"))]


def _decompose_comparer(tag, name):
    def compare(out_dir):
        return {name: _read_json(out_dir, f"atoms_decompose_{tag}.json")}
    return compare


# ---------------------------------------------------------------------------
# general-order: nu = 1 estimates, Duhamel identity and semigroup comparison


def _estimate_dict(rep) -> dict:
    d = rep.to_dict()
    return {k: d[k] for k in ("lemma", "kind", "t_range", "n_samples",
                              "n_masked", "ratio_min", "ratio_max",
                              "refined_min", "refined_max", "drift_min",
                              "drift_max", "passed")}


def _closure_dict(closure) -> dict:
    return {"closure_max_error": closure["max_error"]}


def _residual_dict(kernels) -> dict:
    return {f"residual_sup_r{i}": float(np.max(np.abs(r)))
            for i, r in enumerate(kernels, start=1)}


def _ratios_dict(rows) -> dict:
    return {"ratios": [r["ratio"] for r in rows]}


def gate7_bumps(grid, seed):
    """Twenty seeded sin^2 bumps supported near the origin, as in gate 7."""
    rng = np.random.default_rng(seed)
    fs = []
    for _ in range(20):
        a = 0.02 + 0.30 * rng.random()
        b = a + 0.04 + (0.47 - a - 0.04) * rng.random()
        amp = 0.5 + rng.random()
        vals = amp * np.sin(np.pi * np.clip((grid.nodes - a) / (b - a),
                                            0.0, 1.0)) ** 2
        vals[grid.nodes <= a] = 0.0
        vals[grid.nodes >= 0.51] = 0.0
        fs.append(SampledFunction(grid=grid, values=vals))
    return fs


def _estimate_step(lemma):
    return Step(f"estimates-{lemma}", lambda ctx: check_sharp_estimate(
        lemma, kernels=ctx.kernels, nu=GeneralOrder.nu, n_space=18),
        _estimate_dict)


class GeneralOrder(Workload):
    name = "general-order"
    nu = 1.0
    seeded = True
    why = ("nu = 1, where the Bessel series and asymptotic loops do not "
           "terminate: estimates, Duhamel and a large-array comparison")

    def prepare(self, ctx, seed):
        grid = make_quadrature("unit_interval", 256, measure=MEASURE_MU,
                               nu=self.nu)
        bump = _sampled(bump_profile(0.08, 0.40), grid)
        bumps = gate7_bumps(grid, GATE7_SEED if seed == DEFAULT_SEED
                            else seed)
        rho = CutoffRho.build(ZETA)
        x = np.linspace(0.03, 0.49, 24)
        xg = np.linspace(0.05, 0.45, 7)
        return [_estimate_step(lemma) for lemma in LEMMA_IDS] + [
            Step("duhamel-closure", lambda ctx: duhamel_closure(
                ctx.basis, rho, bump, 0.3, x), _closure_dict),
            Step("duhamel-kernels", lambda ctx: duhamel_residual_kernels(
                ctx.basis, ctx.kernels, rho, 0.3, xg, xg), _residual_dict),
            Step("compare", lambda ctx: compare_semigroups(
                ctx.basis, bumps, t_grid=np.geomspace(1e-2, 0.9, 8),
                n_x=32), _ratios_dict),
        ]

    def check(self, p: Pass):
        for name, out in p.outputs.items():
            if name.startswith("estimates-") and not out["passed"]:
                p.fail(name, "estimate report did not pass")
            elif name == "duhamel-closure" and \
                    not out["closure_max_error"] < 1e-5:
                p.fail(name, f"closure error {out['closure_max_error']:.3e}")
            elif name == "duhamel-kernels":
                sups = list(out.values())
                if not (_finite(*sups) and max(sups) < 5.0):
                    p.fail(name, f"residual sup {max(sups)!r}")
            elif name == "compare":
                r = out["ratios"]
                if not (_finite(*r) and min(r) > 0):
                    p.fail(name, "comparison ratio not finite and positive")

    def cli_steps(self, seed):
        return [CliStep(["--nu", "1", "estimates"], covers="estimates-",
                        builds_basis=True, compare=_compare_estimates),
                CliStep(["--nu", "1", "duhamel"], covers="duhamel-",
                        builds_basis=True, compare=_compare_duhamel)]


def _compare_estimates(out_dir):
    return {f"estimates-{lemma}": _read_json(out_dir,
                                             f"estimates_{lemma}.json")
            for lemma in LEMMA_IDS}


def _compare_duhamel(out_dir):
    payload = _read_json(out_dir, "duhamel.json")
    return {"duhamel-closure":
            {"closure_max_error": payload["closure_max_error"]},
            "duhamel-kernels":
            {f"residual_sup_{k}": v
             for k, v in payload["residual_sup"].items()}}


# ---------------------------------------------------------------------------
# CLI steps


@dataclass
class CliStep:
    """One `fbhardy` invocation matching some of a workload's items.

    ``covers`` names the items it reproduces: None for the whole pass, else
    an item name or a name prefix. ``compare(out_dir)`` reads the command's
    JSON and returns {item name: {key: value}} to set against the
    workload's own outputs."""
    argv: list
    covers: str | None
    builds_basis: bool
    compare: Callable

    def covered(self, p: Pass) -> list:
        if self.covers is None:
            return list(p.expected)
        return [n for n in p.expected if n.startswith(self.covers)]


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (Uchiyama(), Decompose(), GeneralOrder())}
