"""Rise and fall of the top Hessian eigenvalue along a sigma_z sweep.

Two forces compete as the logit scale sigma_z grows: the class-mean gradient
amplitude sigma_c grows like sigma_z^gamma (pushing the top eigenvalue up),
while probability freezing drains the coupling matrix (pulling it down). The
freezing drain is only polynomial in sigma_z, so the outcome depends on
gamma:

* gamma = 0.15 (default here): freezing wins eventually; the top eigenvalue
  rises, peaks in the grid interior and declines.
* gamma = 0.5: amplitude growth wins through sigma_z = 100 and the curve is
  monotone on this grid (run with --gamma 0.5 to see it).

Uses a reduced grid by default so the demo finishes in about a minute.
Writes the per-point mean top eigenvalue to top_eigenvalue.csv under --out.
"""

import argparse
import os

import numpy as np

from lossgeom import ModelParams, SweepSpec, point_means, run_sigma_z_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out/sweep")
    parser.add_argument("--gamma", type=float, default=0.15)
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    spec = SweepSpec(points=args.points, repeats=args.repeats, gamma=args.gamma)
    print(f"sweeping sigma_z over {args.points} log points in "
          f"[{spec.sigma_z_min:g}, {spec.sigma_z_max:g}], gamma={args.gamma}, "
          f"{args.repeats} repeats per point")
    records = run_sigma_z_sweep(ModelParams(seed=0), spec)

    grid = spec.grid()
    tops = point_means(records, "top_eigenvalue")
    for sigma_z, top in zip(grid, tops):
        bar = "#" * max(1, int(40 * top / tops.max()))
        print(f"  sigma_z {sigma_z:9.4g}  top {top:10.4g}  {bar}")

    peak = int(np.argmax(tops))
    where = "interior" if 0 < peak < len(grid) - 1 else "edge"
    print(f"\npeak at sigma_z = {grid[peak]:.4g} ({where} of the grid), "
          f"{tops[peak] / tops[0]:.2f}x the left endpoint and "
          f"{tops[peak] / tops[-1]:.2f}x the right")

    with open(os.path.join(args.out, "top_eigenvalue.csv"), "w") as fh:
        fh.write("sigma_z,mean_top_eigenvalue\n")
        for sigma_z, top in zip(grid, tops):
            fh.write(f"{sigma_z:.17g},{top:.17g}\n")
    print(f"wrote top_eigenvalue.csv to {args.out}")


if __name__ == "__main__":
    main()
