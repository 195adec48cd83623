"""Clustering statistics, their SNR prediction, and the dump round trip.

Part 1 sweeps the signal-to-noise ratio sigma_c^2/sigma_e^2 and compares the
measured same-logit clustering statistic q_sl against its closed-form
prediction SNR/(SNR+1): per-logit gradients are a shared class mean plus
i.i.d. residuals, and the mean pairwise cosine concentrates on the fraction
of variance the mean carries. Each point is scored as ``cluster`` scores a
model sample, one block of examples at a time as it is drawn (the same draw
at every SNR, its residuals scaled).

Part 2 exercises the ingestion path: a sampled gradient tensor is written to a
binary .lgrd dump and a .csv dump, then each is scored as ``cluster --input``
scores it, one block of examples at a time as it is read; both reproduce the
statistics of the model sample exactly, which is how externally measured
gradients would be scored.
"""

import argparse
import os

import numpy as np

from lossgeom import (
    ModelParams,
    predicted_q_sl,
    run_clustering_experiment,
    run_dump_clustering,
    sample_ensemble,
    sample_logit_gradients,
    write_dump,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out/clustering")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    base = ModelParams(seed=0)
    print("SNR     predicted q_sl   measured q_sl")
    rows = []
    for snr in (0.1, 0.5, 1.0, 2.04, 5.0, 10.0):
        sigma_e = base.sigma_c / np.sqrt(snr)
        params = ModelParams(sigma_e=float(sigma_e), seed=0)
        predicted = predicted_q_sl(params.sigma_c, params.sigma_e)
        measured = run_clustering_experiment(params).q_sl
        rows.append((snr, predicted, measured))
        print(f"{snr:5.2f}      {predicted:.4f}         {measured:.4f}")

    with open(os.path.join(args.out, "snr_vs_q.csv"), "w") as fh:
        fh.write("snr,predicted_q_sl,measured_q_sl\n")
        for snr, predicted, measured in rows:
            fh.write(f"{snr:.17g},{predicted:.17g},{measured:.17g}\n")

    # round trip: write the model sample, then read and score it; the
    # statistics must match those of the sample scored as it is drawn, bit for bit
    params = ModelParams(n_examples=60, n_classes=5, n_weights=120,
                         hyperplane_dim=6, seed=1)
    in_memory = run_clustering_experiment(params)
    grads = sample_logit_gradients(params)
    labels = sample_ensemble(params).labels

    for name in ("dump.lgrd", "dump.csv"):
        path = os.path.join(args.out, name)
        write_dump(path, grads, labels)
        report = run_dump_clustering(path)
        match = (report.q_sl == in_memory.q_sl
                 and report.q_slsc == in_memory.q_slsc
                 and report.q_dl == in_memory.q_dl)
        print(f"{name}: q_sl {report.q_sl:.6f}, exact match with in-memory: {match}")

    print(f"wrote snr_vs_q.csv, dump.lgrd, dump.csv to {args.out}")


if __name__ == "__main__":
    main()
