"""Goldilocks decay of the trace-to-spectral-norm ratio.

The ratio trace(H)/||H|| counts how many directions carry curvature: D for a
flat spectrum, 1 for a single spike. Holding the residual noise scale fixed
while the class-mean amplitude grows with sigma_z (fixed-sigma_e sweep mode)
concentrates the curvature into ever fewer directions, and the ratio
collapses by orders of magnitude across the sweep.

A random d=10 hyperplane sees the same story: the projected ratio tracks the
full one closely in rank (Spearman printed below), which is what makes
low-dimensional probes of the full landscape trustworthy in this regime.
"""

import argparse
import os

import scipy.stats

from lossgeom import ModelParams, SweepSpec, point_means, run_sigma_z_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out/goldilocks")
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    spec = SweepSpec(points=args.points, repeats=args.repeats, fixed_sigma_e=True)
    records = run_sigma_z_sweep(ModelParams(seed=0), spec)

    grid = spec.grid()
    full = point_means(records, "trace_ratio")
    proj = point_means(records, "projected_trace_ratio")

    print("sigma_z        trace/||H||   projected (d=10)")
    for sigma_z, f, p in zip(grid, full, proj):
        print(f"{sigma_z:10.4g}   {f:10.4g}   {p:10.4g}")

    rho = scipy.stats.spearmanr(full, proj).statistic
    print(f"\ndecay across the grid: {full[0] / full[-1]:.1f}x")
    print(f"Spearman rank correlation, full vs d=10 projected: {rho:.3f}")

    path = os.path.join(args.out, "trace_ratio.csv")
    with open(path, "w") as fh:
        fh.write("sigma_z,trace_ratio,projected_trace_ratio\n")
        for sigma_z, f, p in zip(grid, full, proj):
            fh.write(f"{sigma_z:.17g},{f:.17g},{p:.17g}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
