"""Bulk-plus-outliers structure of the model Hessian.

Samples the reference ensemble (N=300 examples, C=10 classes, D=1000
weights), assembles the curvature matrix, and shows that its spectrum splits
into a noise bulk plus exactly C-1 = 9 detached outliers: the class-mean
gradients span a 10-dimensional space, but the coupling matrix kills the
all-ones direction, so only 9 signal directions survive.

Writes spectrum.csv and outliers.json under --out.
"""

import argparse
import json
import os

from lossgeom import ModelParams, run_spectrum_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out/spectrum", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    params = ModelParams(seed=args.seed)
    print(f"sampling ensemble: N={params.n_examples} C={params.n_classes} "
          f"D={params.n_weights} sigma_z={params.sigma_z}")
    spectrum, report = run_spectrum_experiment(params)

    print(f"top eigenvalue        {spectrum.eigenvalues[0]:.6g}")
    print(f"bulk edge             {report.bulk_edge:.6g}")
    print(f"detached outliers     {report.n_outliers} (expect C-1 = 9)")
    for i, value in enumerate(report.outlier_values):
        print(f"  outlier {i}: {value:.6g}")

    with open(os.path.join(args.out, "spectrum.csv"), "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, value in enumerate(spectrum.eigenvalues):
            fh.write(f"{i},{value:.17g}\n")
    with open(os.path.join(args.out, "outliers.json"), "w") as fh:
        json.dump(
            {
                "n_outliers": report.n_outliers,
                "bulk_edge": report.bulk_edge,
                "outlier_values": [float(v) for v in report.outlier_values],
            },
            fh,
            indent=2,
        )
    print(f"wrote spectrum.csv and outliers.json to {args.out}")


if __name__ == "__main__":
    main()
