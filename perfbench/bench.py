"""Measurement: untraced runs for the end-to-end metrics, traced runs for
the per-layer metrics, the CLI representativeness pass, reference checks
and the machine context recorded next to every result."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

from perfbench import ROOT, SRC
from perfbench.tracer import Tracer
from perfbench.workloads import Pass

SETUPS = 5                 # setups per untraced run; setup_s is their median
REFERENCE = ROOT / "perfbench" / "reference.json"
OUT_DIR = ROOT / ".perfbench"

# Accuracy each output is certified to, as (rtol, atol) for np.isclose;
# ("upper", atol) means the value may fall but may not exceed the reference
# by more than atol. Keys not listed must match exactly (counts, labels,
# flags). Documented in perfbench/README.md.
TOLERANCES = {
    "uchiyama": {
        "r_range": (1e-12, 0.0),
        "A_ball": (1e-12, 0.0),          # geometry only
        "A_lower": (1e-6, 0.0),          # series kernels: 1e-10 absolute,
        "A_size": (1e-6, 0.0),           # amplified at most 1e4 by the
        "A_lipschitz": (1e-6, 0.0),      # Lipschitz quotient
        "A": (1e-6, 0.0),
        "min_kernel": (1e-6, 1e-10),
    },
    "decompose": {
        "coeff_l1": (1e-9, 0.0), "closure_l1": (1e-9, 0.0),
        "atoms_l1": (1e-9, 0.0), "sup_f": (1e-12, 0.0),
        # reconstruction is certified below reconstruct_tol = 1e-6
        "residual_l1": (0.0, 1e-6), "residual_rel": (0.0, 1e-6),
        # the pointwise evaluate error is recorded, and may only improve
        "sup_error": ("upper", 1e-12), "sup_error_x": None,
    },
    "general-order": {
        "t_range": (1e-12, 0.0),
        # ratios are masked where the comparand is below 1e3 * series_tol,
        # so a kernel certified to series_tol gives ratios to 1e-3
        **{k: (1e-6, 1e-3) for k in ("ratio_min", "ratio_max",
                                     "refined_min", "refined_max",
                                     "drift_min", "drift_max")},
        "closure_max_error": (1e-6, 0.0),
        **{f"residual_sup_r{i}": (1e-8, 0.0) for i in (1, 2, 3)},
        "ratios": (1e-8, 0.0),
    },
}


# ---------------------------------------------------------------------------
# passes and checks


def run_pass(workload, ctx, inputs, on_item=None) -> Pass:
    p = Pass(workload.expected(inputs), on_item)
    t0 = time.perf_counter()
    try:
        workload.run(ctx, inputs, p)
    except Exception as exc:   # items it did not reach count as failed
        p.fail("pass", f"aborted: {type(exc).__name__}: {exc}")
    p.wall = time.perf_counter() - t0
    return p


def _matches(got, ref, tol) -> bool:
    """tol: None (not compared), () (exact), ("upper", atol) or
    (rtol, atol); lists are compared element by element."""
    if tol is None:
        return True
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            _matches(g, r, tol) for g, r in zip(got, ref))
    if ref is None or got is None or isinstance(ref, (str, bool)) \
            or isinstance(got, (str, bool)):
        return got == ref
    if tol == ():
        return got == ref
    if tol[0] == "upper":
        return got <= ref + tol[1]
    return bool(np.isclose(got, ref, rtol=tol[0], atol=tol[1]))


def compare_reference(p: Pass, items: dict, tolerances: dict) -> None:
    """Mark every item whose outputs leave the certified accuracy of the
    recorded reference values."""
    for name, ref in items.items():
        got = p.outputs.get(name)
        if got is None:
            continue
        for key, value in ref.items():
            if not _matches(got.get(key), value, tolerances.get(key, ())):
                p.fail(name, f"{key} = {got.get(key)!r}, reference {value!r}")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_pass(workload, p: Pass, seed: int, reference: dict) -> None:
    workload.check(p)
    ref = reference.get(workload.name)
    if ref is not None and (not workload.seeded or seed == ref["seed"]):
        compare_reference(p, ref["items"], TOLERANCES[workload.name])


def _canonical(outputs) -> dict:
    """Outputs as JSON text per item, so NaN compares equal to itself."""
    return {k: json.dumps(v, sort_keys=True) for k, v in outputs.items()}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    all order statistics. A pass has 11 to 17 items, and a single order
    statistic swings with second-scale changes in machine speed more than
    the weighted average over its neighbours does."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # Beta(a, b) cdf at i/n by the midpoint rule (the density may be
    # singular at an end point, but only integrably)
    grid = (np.arange(100_000) + 0.5) / 100_000
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    cdf /= cdf[-1]
    edges = cdf[np.rint(np.arange(n + 1) / n * 100_000).astype(int)]
    return float(np.diff(edges) @ x)


def item_quantiles(passes) -> dict:
    """Median and 95th percentile of the item latencies of the passes."""
    latencies = [s * 1e3 for p in passes for s in p.seconds.values()]
    return {"item_p50_ms": (hd_quantile(latencies, 0.50), "ms"),
            "item_p95_ms": (hd_quantile(latencies, 0.95), "ms")}


def measure(workload, seed: int, seconds: float, reference: dict) -> dict:
    """Set up SETUPS times, then run whole passes, each on a fresh setup,
    until `seconds` have passed (at least one)."""
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
    inputs = workload.prepare(ctx, seed)
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, ctx, inputs)
        check_pass(workload, p, seed, reference)
        passes.append(p)
        if time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
    attempted = sum(len(p.expected) for p in passes)
    failed = sum(len(p.failed_items() & set(p.expected)) for p in passes)
    return {
        "passes": passes, "attempted": attempted, "failed": failed,
        "items": item_quantiles(passes),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(p.wall for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        },
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


# (metric, groups, field, unit); fields come from Tracer.aggregate
LAYER_METRICS = [
    ("specfun.calls", ("specfun",), "calls", "count"),
    ("specfun.points", ("specfun",), "points", "count"),
    ("specfun.self_s", ("specfun",), "self_s", "s"),
    ("specfun.zeros_s", ("specfun.zeros",), "total_s", "s"),
    ("basis.build_s", ("basis.build",), "total_s", "s"),
    ("basis.rows.calls", ("basis.rows",), "calls", "count"),
    ("basis.rows.entries", ("basis.rows",), "points", "count"),
    ("basis.rows.self_s", ("basis.rows",), "self_s", "s"),
    ("basis.tail.calls", ("basis.tail",), "calls", "count"),
    ("basis.tail.self_s", ("basis.tail",), "self_s", "s"),
    ("basis.floor.calls", ("basis.floor",), "calls", "count"),
    ("basis.floor.total_s", ("basis.floor",), "total_s", "s"),
    ("basis.coefficients.calls", ("basis.coefficients",), "calls", "count"),
    ("basis.coefficients.total_s", ("basis.coefficients",), "total_s", "s"),
    ("quadrature.grids.calls", ("quadrature.grids",), "calls", "count"),
    ("quadrature.self_s", ("quadrature", "quadrature.grids"), "self_s", "s"),
    ("kernels.series.calls", ("kernels.series",), "calls", "count"),
    ("kernels.series.total_s", ("kernels.series",), "total_s", "s"),
    ("kernels.series.self_s", ("kernels.series",), "self_s", "s"),
    ("kernels.floor.calls", ("kernels.floor",), "calls", "count"),
    ("kernels.floor.total_s", ("kernels.floor",), "total_s", "s"),
    ("kernels.halfline.calls", ("kernels.halfline",), "calls", "count"),
    ("kernels.halfline.points", ("kernels.halfline",), "points", "count"),
    ("kernels.halfline.self_s", ("kernels.halfline",), "self_s", "s"),
    ("kernels.subordination.calls", ("kernels.subordination",), "calls",
     "count"),
    ("kernels.subordination.points", ("kernels.subordination",), "points",
     "count"),
    ("kernels.subordination.total_s", ("kernels.subordination",), "total_s",
     "s"),
    ("kernels.subordination.self_s", ("kernels.subordination",), "self_s",
     "s"),
    ("kernels.estimate.calls", ("kernels.estimate",), "calls", "count"),
    ("kernels.estimate.total_s", ("kernels.estimate",), "total_s", "s"),
    ("maximal.expansion.calls", ("maximal.expansion",), "calls", "count"),
    ("maximal.expansion.total_s", ("maximal.expansion",), "total_s", "s"),
    ("maximal.sweep.calls", ("maximal.sweep",), "calls", "count"),
    ("maximal.sweep.times", ("maximal.sweep",), "points", "count"),
    ("maximal.sweep.self_s", ("maximal.sweep",), "self_s", "s"),
    ("maximal.uchiyama.calls", ("maximal.uchiyama",), "calls", "count"),
    ("maximal.uchiyama.total_s", ("maximal.uchiyama",), "total_s", "s"),
    ("maximal.uchiyama_kernel.calls", ("maximal.uchiyama_kernel",), "calls",
     "count"),
    ("maximal.uchiyama_kernel.self_s", ("maximal.uchiyama_kernel",),
     "self_s", "s"),
    ("maximal.duhamel.total_s", ("maximal.duhamel",), "total_s", "s"),
    ("maximal.compare.total_s", ("maximal.compare",), "total_s", "s"),
    ("covers.calls", ("covers",), "calls", "count"),
    ("covers.self_s", ("covers",), "self_s", "s"),
    ("hardy.decompose.calls", ("hardy.decompose",), "calls", "count"),
    ("hardy.decompose.total_s", ("hardy.decompose",), "total_s", "s"),
    ("hardy.cascade.calls", ("hardy.cascade",), "calls", "count"),
    ("hardy.cascade.total_s", ("hardy.cascade",), "total_s", "s"),
    ("hardy.cascade.self_s", ("hardy.cascade",), "self_s", "s"),
    ("hardy.pl.calls", ("hardy.pl",), "calls", "count"),
    ("hardy.pl.self_s", ("hardy.pl",), "self_s", "s"),
    ("hardy.evaluate.calls", ("hardy.evaluate",), "calls", "count"),
    ("hardy.evaluate.total_s", ("hardy.evaluate",), "total_s", "s"),
    ("hardy.materialize.total_s", ("hardy.materialize",), "total_s", "s"),
    ("hardy.atoms.calls", ("hardy.atoms",), "calls", "count"),
    ("hardy.atoms.total_s", ("hardy.atoms",), "total_s", "s"),
]
# metrics computed from more than one aggregate; units for the manifest
DERIVED_METRICS = [
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("specfun.ns_per_point", "ns"),
    ("hardy.details", "count"),
    ("hardy.closers", "count"),
    ("hardy.closer_share", "ratio"),
    ("hardy.evaluate.sup_error", "abs"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("error_rate", "ratio"),
]


def _layer_metrics(tracer: Tracer) -> dict:
    agg = tracer.aggregate()
    out = {}
    for name, groups, field, unit in LAYER_METRICS:
        out[name] = (sum(agg.get(g, {}).get(field, 0) for g in groups), unit)
    spec = agg.get("specfun", {})
    out["specfun.ns_per_point"] = (
        1e9 * spec["self_s"] / spec["points"] if spec.get("points") else 0.0,
        "ns")
    details = tracer.counters.get("hardy.details", 0)
    closers = tracer.counters.get("hardy.closers", 0)
    out["hardy.details"] = (details, "count")
    out["hardy.closers"] = (closers, "count")
    out["hardy.closer_share"] = (
        closers / (details + closers) if details + closers else 0.0, "ratio")
    return out


def _cli_pass(workload, steps, base: Pass, setup_s: float,
              probe_whole: bool) -> float:
    """Run each matching `fbhardy` command once into a temporary directory
    and check its JSON numbers equal the workload's own. With `probe_whole`
    the one command that runs the whole pass also fills `base`, through the
    workload's probe, as the untraced pass. Returns the CLI wall time beyond
    the library work it shares with the untraced pass."""
    from fbhardy import cli
    overhead = 0.0
    OUT_DIR.mkdir(exist_ok=True)
    for step in steps:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            probe = workload.probe(base) if probe_whole \
                else contextlib.nullcontext()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), probe:
                code = cli.main(["--out", tmp] + step.argv)
            wall = time.perf_counter() - t0
            covered = step.covered(base)
            if code != 0:
                for name in covered:
                    base.fail(name, f"fbhardy {' '.join(step.argv)} exited "
                                    f"{code}")
                continue
            got = step.compare(tmp)
        for name in covered:
            mine = base.outputs.get(name)
            theirs = got.get(name)
            if mine is None:
                continue
            if theirs is None:
                base.fail(name, "missing from the CLI output")
                continue
            for key in set(mine) & set(theirs):
                if json.loads(json.dumps(mine[key])) != theirs[key]:
                    base.fail(name, f"CLI {key} = {theirs[key]!r}, "
                                    f"workload {mine[key]!r}")
        shared = base.wall if step.covers is None else \
            sum(base.seconds.get(n, 0.0) for n in covered)
        overhead += wall - shared - (setup_s if step.builds_basis else 0.0)
    return overhead


def measure_traced(workload, seed: int, reference: dict) -> dict:
    """One untraced pass, one traced pass (set-up included) and the CLI
    pass, in this process. When one CLI command runs the whole pass and the
    workload can probe it, that command is the untraced pass."""
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
    inputs = workload.prepare(ctx, seed)
    steps = workload.cli_steps(seed)
    probe_whole = hasattr(workload, "probe") and len(steps) == 1 \
        and steps[0].covers is None
    if probe_whole:
        base = Pass(workload.expected(inputs))
    else:
        base = run_pass(workload, ctx, inputs)

    tracer = Tracer()
    tracer.install()
    try:
        ctx_traced = workload.setup()
        tracer.start_run("pass")
        first_run = tracer.run
        traced = run_pass(workload, ctx_traced, inputs,
                          on_item=tracer.start_run)
    finally:
        tracer.uninstall()

    cli_overhead = _cli_pass(workload, steps, base, statistics.median(setups),
                             probe_whole)
    # the trace must not change a single bit of the outputs
    mine, theirs = _canonical(base.outputs), _canonical(traced.outputs)
    for name in set(mine) | set(theirs):
        if mine.get(name) != theirs.get(name):
            traced.fail(name, "traced output differs from untraced")
    for p in (base, traced):
        check_pass(workload, p, seed, reference)

    attempted = len(base.expected) + len(traced.expected)
    failed = len(base.failed_items() & set(base.expected)) + \
        len(traced.failed_items() & set(traced.expected))
    metrics = {**item_quantiles([base]), **_layer_metrics(tracer)}
    sup_errors = [o["sup_error"] for o in traced.outputs.values()
                  if "sup_error" in o]
    metrics["hardy.evaluate.sup_error"] = (max(sup_errors, default=0.0),
                                           "abs")
    metrics["cli.overhead_s"] = (cli_overhead, "s")
    metrics["trace.overhead_s"] = (traced.wall - base.wall, "s")
    pass_runs = set(range(first_run, len(tracer.run_names)))
    metrics["trace.unaccounted_s"] = (
        traced.wall - tracer.root_seconds(pass_runs), "s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    return {"passes": [base, traced], "attempted": attempted,
            "failed": failed, "metrics": metrics, "tracer": tracer,
            "spans": len(tracer.spans)}


# ---------------------------------------------------------------------------
# context


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_stats() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(SRC).as_posix().encode()
        digest.update(name + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def context(threads: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "blas": _blas(), "blas_threads": threads,
            "numpy": np.__version__, "python": sys.version.split()[0],
            "git_rev": _git_rev(), **_src_stats()}
