"""Command line interface.

Every subcommand reads the same flat config (file plus flag overrides),
seeds its own generator, and writes its outputs atomically into the chosen
output directory, so identical config and seed give byte-identical files.
Function-on-a-grid outputs use the two-column schema ``x,value``; kernel
samples use ``t,x,y,value``. Numerical certification failures exit with
code 1 and a JSON report naming the failing operation; configuration
problems exit with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import cached_property

import numpy as np

from .basis import EigenBasis
from .config import RunConfig, load_config
from .covers import DyadicCover, FAMILY_ONE_END, FAMILY_TWO_END
from .errors import ConfigError, NumericsError
from .hardy import (PiecewiseLinear, atomic_decompose, h1_norm_report,
                    random_atoms)
from .kernels import (HALFLINE_KERNELS, LEMMA_IDS, SERIES_KERNELS,
                      UnitIntervalKernels, check_sharp_estimate)
from .maximal import (CutoffRho, SpectralExpansion, TimeGrid, duhamel_closure,
                      duhamel_residual_kernels, maximal_function,
                      uchiyama_families)
from .quadrature import (SampledFunction, make_quadrature, MEASURE_LEBESGUE,
                         MEASURE_MU)
from .specfun import Order, bessel_zeros

_FAMILY_ALIASES = {
    "mu": MEASURE_MU, "calL": MEASURE_MU, "weighted": MEASURE_MU,
    "L": MEASURE_LEBESGUE, "lebesgue": MEASURE_LEBESGUE,
}


# ---------------------------------------------------------------------------
# io helpers


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(_fmt, row)) for row in rows]) + "\n"


def _py(obj):
    """Recursively convert numpy scalars/arrays into plain python types."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_py(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):      # bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: str, payload) -> None:
    _write_atomic(path, json.dumps(_py(payload), sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# shared session state


class _Session:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def basis(self) -> EigenBasis:
        return EigenBasis.build(Order(self.cfg.nu), self.cfg.n_zeros,
                                zero_tol=self.cfg.zero_tol)

    @cached_property
    def kernels(self) -> UnitIntervalKernels:
        return UnitIntervalKernels(self.basis, series_tol=self.cfg.series_tol)

    def unit_grid(self, measure: str):
        return make_quadrature("unit_interval", self.cfg.quad_nodes_per_unit,
                               measure=measure, nu=self.cfg.nu)

    def time_grid(self) -> TimeGrid:
        return TimeGrid.build(self.cfg.t_min, self.cfg.t_max,
                              ratio=self.cfg.t_ratio)

    def out(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)


def _bump_profile(a: float = 0.08, b: float = 0.42) -> PiecewiseLinear:
    """Smooth-looking piecewise-linear bump used as the default input."""
    nodes = np.linspace(a, b, 33)
    u = (nodes - a) / (b - a)
    return PiecewiseLinear.from_node_values(nodes, np.sin(np.pi * u) ** 2)


def _twobar_profile(measure: str) -> PiecewiseLinear:
    if measure == MEASURE_MU:
        return PiecewiseLinear.from_breaks_levels([0.12, 0.27, 0.42], [1.1, -0.7])
    return PiecewiseLinear.from_breaks_levels([0.22, 0.47, 0.68], [0.9, -0.5])


def _sampled(session: _Session, fn: PiecewiseLinear,
             measure: str) -> SampledFunction:
    grid = session.unit_grid(measure)
    return SampledFunction(grid=grid, values=fn.evaluate(grid.nodes))


# ---------------------------------------------------------------------------
# subcommands


def cmd_zeros(session: _Session, args) -> int:
    table = bessel_zeros(Order(session.cfg.nu), session.cfg.n_zeros,
                         zero_tol=session.cfg.zero_tol)
    idx = np.arange(1, len(table.zeros) + 1, dtype=float)
    _write_atomic(session.out("zeros.csv"), _csv("x,value", zip(idx, table.zeros)))
    print(f"zeros: wrote {len(table.zeros)} zeros for nu={session.cfg.nu} "
          f"-> {session.out('zeros.csv')}")
    return 0


# --which choice -> kernel: the series kernels of one system (poisson-mu ->
# poisson_mu; delta_poisson mixes two) and the half-line ones (bessel-heat)
_SERIES_CHOICES = {name.replace("_", "-"): name
                   for name, (_, x_rows, y_rows) in SERIES_KERNELS.items()
                   if x_rows == y_rows}
_HALFLINE_CHOICES = {f"bessel-{kind}": kind for kind in HALFLINE_KERNELS}
_KERNEL_CHOICES = tuple(_SERIES_CHOICES) + tuple(_HALFLINE_CHOICES)


def cmd_kernel(session: _Session, args) -> int:
    which = args.which
    n = args.grid
    cfg = session.cfg
    if which in _HALFLINE_CHOICES:
        x = np.geomspace(0.05, 0.75 * cfg.halfline_radius, n)
        halfline = HALFLINE_KERNELS[_HALFLINE_CHOICES[which]]
        kernel = lambda t: halfline(cfg.nu, t, x[:, None], x[None, :])
    else:
        x = np.linspace(0.5 / (n + 1), 1.0 - 0.5 / (n + 1), n)
        method = getattr(session.kernels, _SERIES_CHOICES[which])
        kernel = lambda t: method(t, x, x, matrix=True)
    rows = [(t, xi, yk, v) for t in args.t
            for xi, row in zip(x, kernel(t)) for yk, v in zip(x, row)]
    path = session.out(f"kernel_{which}.csv")
    _write_atomic(path, _csv("t,x,y,value", rows))
    print(f"kernel: {which} at t={list(args.t)} on {n} points -> {path}")
    return 0


def cmd_estimates(session: _Session, args) -> int:
    lemmas = (args.lemma,) if args.lemma in LEMMA_IDS else LEMMA_IDS   # or "all"
    kernels = session.kernels
    status = 0
    for lemma in lemmas:
        report = check_sharp_estimate(lemma, kernels=kernels,
                                      nu=session.cfg.nu,
                                      n_space=args.grid)
        path = session.out(f"estimates_{lemma}.json")
        _write_json(path, report.to_dict())
        tag = "PASS" if report.passed else "FAIL"
        if not report.passed:
            status = 1
        print(f"estimates[{lemma}]: {tag} ratio in "
              f"[{report.ratio_min:.4g}, {report.ratio_max:.4g}] -> {path}")
    return status


def cmd_maximal(session: _Session, args) -> int:
    f = _sampled(session, _bump_profile(), MEASURE_MU)
    res = maximal_function(session.basis, f, session.time_grid())
    _write_atomic(session.out("maximal.csv"), _csv("x,value", zip(res.x, res.values)))
    summary = {
        "l1_norm": float(f.grid.weights @ res.values),
        "sup": float(np.max(res.values)),
        "small_l1": float(f.grid.weights @ res.small),
        "large_l1": float(f.grid.weights @ res.large),
        "argmax_t_range": [float(np.min(res.argmax_t)),
                           float(np.max(res.argmax_t))],
        "n_times": len(res.grid),
    }
    _write_json(session.out("maximal.json"), summary)
    print(f"maximal: L1 norm {summary['l1_norm']:.6g} over "
          f"{summary['n_times']} times -> {session.out('maximal.csv')}")
    return 0


def cmd_duhamel(session: _Session, args) -> int:
    cfg = session.cfg
    rho = CutoffRho.build(cfg.zeta)
    fn = _bump_profile(a=0.08, b=0.40)
    f = _sampled(session, fn, MEASURE_MU)
    x = np.linspace(0.03, 0.49, 24)
    closure = duhamel_closure(session.basis, rho, f, args.t, x)
    xg = np.linspace(0.05, 0.45, 7)
    residuals = duhamel_residual_kernels(session.basis, session.kernels,
                                         rho, args.t, xg, xg)
    summary = {
        "t": args.t,
        "closure_max_error": closure["max_error"],
        "residual_sup": {f"r{i}": float(np.max(np.abs(r)))
                         for i, r in enumerate(residuals, start=1)},
    }
    _write_json(session.out("duhamel.json"), summary)
    _write_atomic(session.out("duhamel.csv"),
                  _csv("x,value", zip(x, closure["lhs"] - closure["rhs"])))
    print(f"duhamel: closure error {closure['max_error']:.3e} at t={args.t} "
          f"-> {session.out('duhamel.json')}")
    return 0


def cmd_uchiyama(session: _Session, args) -> int:
    reports = uchiyama_families(session.kernels, zeta=session.cfg.zeta,
                                n_r=args.n_r, n_space=args.grid)
    summary = {"reports": [r.to_dict() for r in reports]}
    for family in ("unit-mu", "unit-flat"):
        a = [r.a_total for r in reports if r.label.startswith(family)]
        summary[f"spread_{family.replace('-', '_')}"] = max(a) / min(a) if a else None
    _write_json(session.out("uchiyama.json"), summary)
    for r in reports:
        print(f"uchiyama[{r.label}]: A={r.a_total:.4g} "
              f"(ball {r.a_ball:.3g}, lower {r.a_lower:.3g}, "
              f"size {r.a_size:.3g}, lip {r.a_lipschitz:.3g})")
    print(f"uchiyama: -> {session.out('uchiyama.json')}")
    return 0


def cmd_atoms(session: _Session, args) -> int:
    cfg = session.cfg
    measure = _FAMILY_ALIASES[args.family]
    tag = "mu" if measure == MEASURE_MU else "lebesgue"
    if args.action == "validate":
        rng = np.random.default_rng(cfg.seed)
        atoms = random_atoms(rng, measure, cfg.nu, args.count,
                             scale_max=cfg.atom_scale_max, zeta=cfg.zeta)
        family = FAMILY_ONE_END if measure == MEASURE_MU else FAMILY_TWO_END
        cover = DyadicCover(family, zeta=cfg.zeta,
                            j_max=max(cfg.atom_scale_max, 8))
        reports = atoms.reports(cover, cfg.cancel_tol)
        payload = {"count": len(reports),
                   "n_valid": sum(1 for r in reports if r["valid"]),
                   "reports": reports}
        path = session.out(f"atoms_validate_{tag}.json")
        _write_json(path, payload)
        print(f"atoms validate[{tag}]: {payload['n_valid']}/{payload['count']} "
              f"valid -> {path}")
        return 0
    if args.action == "decompose":
        fn = _twobar_profile(measure)
        f = _sampled(session, fn, measure)
        dec = atomic_decompose(fn, nu=cfg.nu, measure=measure,
                               depth_cap=cfg.cascade_depth_cap,
                               reconstruct_tol=cfg.reconstruct_tol,
                               zeta=cfg.zeta)
        summary = dec.summary(f)
        path = session.out(f"atoms_decompose_{tag}.json")
        _write_json(path, summary)
        rec = dec.reconstruct(f.nodes)
        _write_atomic(session.out(f"reconstruction_{tag}.csv"),
                      _csv("x,value", zip(f.nodes, rec)))
        print(f"atoms decompose[{tag}]: residual {summary['residual_rel']:.3e} "
              f"with {summary['n_details']} details -> {path}")
        return 0
    # batch: validity plus maximal-function mass per seeded atom
    rng = np.random.default_rng(cfg.seed)
    atoms = random_atoms(rng, measure, cfg.nu, args.count,
                         scale_max=cfg.atom_scale_max, zeta=cfg.zeta)
    grid = session.unit_grid(measure)
    batch = SampledFunction(grid=grid, values=atoms.evaluate(grid.nodes))
    res = maximal_function(session.basis, batch, session.time_grid())
    rows = [{"index": i, "label": r["label"], "kind": r["kind"],
             "maximal_l1": float(grid.weights @ values), "valid": r["valid"]}
            for i, (r, values) in enumerate(zip(atoms.reports(cancel_tol=cfg.cancel_tol),
                                                res.values))]
    norms = [r["maximal_l1"] for r in rows]
    payload = {"count": len(rows), "max_norm": max(norms),
               "min_norm": min(norms), "rows": rows}
    path = session.out(f"atoms_batch_{tag}.json")
    _write_json(path, payload)
    print(f"atoms batch[{tag}]: maximal L1 in "
          f"[{min(norms):.4g}, {max(norms):.4g}] -> {path}")
    return 0


def cmd_h1_report(session: _Session, args) -> int:
    cfg = session.cfg
    out = {}
    for measure, tag in ((MEASURE_MU, "mu"), (MEASURE_LEBESGUE, "lebesgue")):
        f = _sampled(session, _twobar_profile(measure), measure)
        out[tag] = h1_norm_report(f, session.basis, session.time_grid(), cfg.nu,
                                  depth_cap=cfg.cascade_depth_cap,
                                  reconstruct_tol=cfg.reconstruct_tol, zeta=cfg.zeta)
    path = session.out("h1_report.json")
    _write_json(path, out)
    print(f"h1-report: ratios mu={out['mu']['ratio']:.4g} "
          f"lebesgue={out['lebesgue']['ratio']:.4g} -> {path}")
    return 0


def cmd_dirichlet(session: _Session, args) -> int:
    """Evolution traces of the boundary-value problem whose solution operator
    is the weighted Poisson semigroup: u(x, t) at a ladder of times."""
    cfg = session.cfg
    f = _sampled(session, _bump_profile(), MEASURE_MU)
    x = np.linspace(0.02, 0.98, args.grid)
    times = np.geomspace(args.t_min, args.t_max, args.n_t)
    traces = SpectralExpansion(f, session.basis).sweep(times, x, "poisson")
    manifest = []
    for k, (t, values) in enumerate(zip(times, traces)):
        name = f"dirichlet_{k:02d}.csv"
        _write_atomic(session.out(name), _csv("x,value", zip(x, values)))
        manifest.append({"t": float(t), "file": name})
    _write_json(session.out("dirichlet.json"), {"traces": manifest})
    print(f"dirichlet: {len(times)} traces on {args.grid} points "
          f"-> {session.out('dirichlet.json')}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fbhardy",
        description="Desk-scale checks for Fourier-Bessel expansions, "
                    "semigroup kernels, maximal operators, and atomic "
                    "Hardy-space decompositions.")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--nu", type=float, default=None, help="Bessel order override")
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--out", default=None, help="output directory override")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("zeros", help="tabulate Bessel zeros")

    k = sub.add_parser("kernel", help="sample a semigroup kernel on a grid")
    k.add_argument("--which", choices=_KERNEL_CHOICES, default="poisson-mu")
    k.add_argument("--t", type=float, action="append", default=None)
    k.add_argument("--grid", type=int, default=12)

    e = sub.add_parser("estimates", help="sharp kernel estimate reports")
    e.add_argument("--lemma", choices=LEMMA_IDS + ("all",), default="all")
    e.add_argument("--grid", type=int, default=18,
                   help="spatial samples per axis")

    sub.add_parser("maximal", help="discretized maximal function of a bump")

    d = sub.add_parser("duhamel", help="semigroup comparison residuals")
    d.add_argument("--t", type=float, default=0.3)

    u = sub.add_parser("uchiyama", help="kernel condition constants per piece")
    u.add_argument("--grid", type=int, default=8, help="spatial samples")
    u.add_argument("--n-r", dest="n_r", type=int, default=5,
                   help="radii per piece")

    a = sub.add_parser("atoms", help="atom generation, validation, decomposition")
    a.add_argument("action", choices=("validate", "decompose", "batch"))
    a.add_argument("--family", choices=sorted(_FAMILY_ALIASES), default="mu")
    a.add_argument("--count", type=int, default=40)

    sub.add_parser("h1-report", help="atomic mass against maximal-function mass")

    dr = sub.add_parser("dirichlet", help="evolution traces of the semigroup")
    dr.add_argument("--grid", type=int, default=33)
    dr.add_argument("--t-min", dest="t_min", type=float, default=0.05)
    dr.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    dr.add_argument("--n-t", dest="n_t", type=int, default=8)
    return p


# command -> (flag, test, requirement): a value failing its test is a config
# error naming the flag; every value of a repeated flag (kernel --t) is tested
_AT_LEAST_ONE = (lambda v, args: v >= 1, "at least 1")
_POSITIVE = (lambda v, args: v > 0, "positive")
_FLAG_RULES = {
    "kernel": (("--grid", *_AT_LEAST_ONE), ("--t", *_POSITIVE)),
    "estimates": (("--grid", *_AT_LEAST_ONE),),
    "duhamel": (("--t", *_POSITIVE),),
    "uchiyama": (("--grid", *_AT_LEAST_ONE), ("--n-r", *_AT_LEAST_ONE)),
    "atoms": (("--count", *_AT_LEAST_ONE),),
    "dirichlet": (("--grid", *_AT_LEAST_ONE), ("--n-t", *_AT_LEAST_ONE),
                  ("--t-min", *_POSITIVE),
                  ("--t-max", lambda v, args: v >= args.t_min,
                   "at least --t-min")),
}


def _check_flags(args) -> None:
    for flag, ok, need in _FLAG_RULES.get(args.command, ()):
        value = getattr(args, flag[2:].replace("-", "_"))
        for v in value if isinstance(value, list) else [value]:
            if not ok(v, args):
                raise ConfigError(f"{flag} must be {need}, got {v!r}")


_DISPATCH = {"zeros": cmd_zeros, "kernel": cmd_kernel,
             "estimates": cmd_estimates, "maximal": cmd_maximal,
             "duhamel": cmd_duhamel, "uchiyama": cmd_uchiyama,
             "atoms": cmd_atoms, "h1-report": cmd_h1_report,
             "dirichlet": cmd_dirichlet}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides={
            "nu": args.nu, "seed": args.seed, "out_dir": args.out})
        if args.command == "kernel" and args.t is None:
            args.t = [0.1, 1.0]
        _check_flags(args)
        session = _Session(cfg)
        return _DISPATCH[args.command](session, args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(json.dumps({"error": "numerics", "operation": exc.operation,
                          "detail": exc.detail}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
