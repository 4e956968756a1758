#!/usr/bin/env python3
"""Maximal-function mass of seeded random atoms, grouped by cover scale.

The uniform-bound property says the L1 mass of the maximal function of an
atom should not grow or shrink systematically with the scale of the cell the
atom lives in.  This script generates a batch per measure family, computes
the mass of each atom, fits the log-mean trend across scales, and writes a
per-atom CSV plus a per-scale summary.
"""
import argparse
import os
import re

import numpy as np

from fbhardy.basis import EigenBasis
from fbhardy.hardy import random_atoms
from fbhardy.maximal import TimeGrid, maximal_function
from fbhardy.quadrature import (SampledFunction, make_quadrature,
                                MEASURE_LEBESGUE, MEASURE_MU)
from fbhardy.specfun import Order


def sweep(basis, measure, count, scale_max, seed, n_nodes):
    grid = make_quadrature("unit_interval", n_nodes, measure=measure, nu=basis.nu)
    tg = TimeGrid.build(1e-6, 10.0, ratio=1.25)
    rng = np.random.default_rng(seed)
    atoms = random_atoms(rng, measure, basis.nu, count, scale_max=scale_max)
    batch = SampledFunction(grid=grid, values=atoms.evaluate(grid.nodes))
    norms = maximal_function(basis, batch, tg).l1_norm(grid.weights)
    labels = [a.label for _, a in atoms]
    js = [abs(int(re.search(r"-j(-?\d+)-", label).group(1))) for label in labels]
    return [(j, label, float(norm)) for j, label, norm in zip(js, labels, norms)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=0.5)
    ap.add_argument("--count", type=int, default=104)
    ap.add_argument("--scale-max", type=int, default=8)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--n-nodes", type=int, default=1024)
    ap.add_argument("--out", default="out/atom_sweep")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    basis = EigenBasis.build(Order(args.nu), 2400)
    for measure in (MEASURE_MU, MEASURE_LEBESGUE):
        rows = sweep(basis, measure, args.count, args.scale_max, args.seed,
                     args.n_nodes)
        path = os.path.join(args.out, f"atoms_{measure}.csv")
        with open(path, "w") as fh:
            fh.write("scale,label,maximal_l1\n")
            for j, label, norm in rows:
                fh.write(f"{j},{label},{'%.17g' % norm}\n")
        js = np.array([r[0] for r in rows])
        norms = np.array([r[2] for r in rows])
        means = []
        for j in range(args.scale_max + 1):
            sel = norms[js == j]
            means.append(float(np.mean(sel)) if len(sel) else float("nan"))
        use = np.isfinite(means := np.array(means)) & (means > 0)
        slope = np.polyfit(np.arange(len(means))[use], np.log(means[use]), 1)[0]
        print(f"{measure}: {len(rows)} atoms, mass in "
              f"[{norms.min():.4g}, {norms.max():.4g}], "
              f"log-mean slope {slope:+.4f} -> {path}")
        summary = os.path.join(args.out, f"scales_{measure}.csv")
        with open(summary, "w") as fh:
            fh.write("scale,mean_maximal_l1\n")
            for j, m in enumerate(means):
                fh.write(f"{j},{'%.17g' % m}\n")


if __name__ == "__main__":
    main()
