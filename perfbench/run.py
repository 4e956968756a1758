#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload uchiyama --seed 20240 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. The line before it holds the machine context. Results and
spans are also written under ``.perfbench/`` in the checkout.
"""
import os
import sys

BLAS_THREADS = 1
# pin BLAS threads before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default 20240, the shipped seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this many seconds pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "fbhardy" / "__init__.py").is_file():
        print(f"perfbench: no fbhardy sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import bench
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    reference = bench.load_reference()
    if args.trace:
        result = bench.measure_traced(workload, seed, reference)
    else:
        result = bench.measure(workload, seed, args.seconds, reference)

    ctx = bench.context(BLAS_THREADS)
    record = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "context": ctx,
        "items": {k: v for k, (v, _) in result.get("items", {}).items()},
        "metrics": {k: v for k, (v, _) in result["metrics"].items()},
        "passes": [{"wall_s": p.wall, "item_s": p.seconds,
                    "outputs": p.outputs, "failures": p.failures}
                   for p in result["passes"]],
    }
    bench.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    with open(bench.OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        result["tracer"].write(bench.OUT_DIR / f"{stem}-spans.npz")

    for p in result["passes"]:
        for name, messages in sorted(p.failures.items()):
            print(f"FAIL {workload.name}/{name}: {'; '.join(messages)}")
    samples = sum(len(p.seconds) for p in result["passes"])
    print(json.dumps({"passes": len(result["passes"]), "item_samples": samples,
                      **{k: v for k, (v, _) in
                         result.get("items", {}).items()}}))
    print(json.dumps({"context": ctx}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
