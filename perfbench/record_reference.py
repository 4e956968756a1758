#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs one untraced pass of each workload at the default seed and writes
every item's outputs to perfbench/reference.json (other workloads' entries
are kept). Record only from a commit whose outputs are trusted: the
benchmark counts any later departure beyond the certified accuracy as a
failed item.
"""
import argparse
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                os.path.join(os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__))), "src")]

from perfbench import bench  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    try:
        reference = bench.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in args.workload or list(WORKLOADS):
        w = WORKLOADS[name]
        ctx = w.setup()
        p = bench.run_pass(w, ctx, w.prepare(ctx, DEFAULT_SEED))
        w.check(p)
        if p.failed_items():
            sys.exit(f"{name}: failed items {sorted(p.failed_items())}; "
                     "not recording")
        reference[name] = {"seed": DEFAULT_SEED, "items": p.outputs}
        print(f"{name}: {len(p.outputs)} items recorded")
    with open(bench.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
