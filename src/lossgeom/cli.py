"""Command-line front end.

Subcommands: spectrum, overlap, sweep-sigmaz, sweep-snr, freeze, cluster,
project. Common flags: --config PATH (flat key=value file, see
:mod:`lossgeom.config`), --out DIR (output directory, default ``out``),
--seed INT (overrides the config's seed), --json (print a summary to
stdout). Exit codes: 0 success, 1 validation error (bad arguments, config,
parameters or dump contents), 2 I/O error. A sweep-sigmaz task that fails
exits 1 after writing the records finished before it to sweep.csv (no file
when none finished, and no summary).

All CSVs are written with 17 significant digits so they re-parse to the
exact values computed. The same config, seed and numpy/scipy/BLAS build at
one numpy CPU-dispatch level give byte-identical files (across levels, values
agree to roundoff). Every measurement holds to one thread each OpenBLAS
loaded when it starts, so where the BLAS is OpenBLAS the bytes do not depend
on its thread count (``OPENBLAS_NUM_THREADS``). The five Hessian commands
import scipy, and so load its BLAS and LAPACK, when their measurement
starts; ``cluster``, ``freeze``, every usage or config error and a Hessian
command that fails its checks before it measures run on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from .clustering import predicted_q_sl
from .config import RunConfig, parse_config
from .experiments import (
    SweepError,
    SweepRecord,
    check_freezing_memory,
    point_means,
    run_clustering_experiment,
    run_dump_clustering,
    run_freezing_experiment,
    run_overlap_experiment,
    run_projection_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
)
from .spectra import spectral_norm, top10_power, trace_norm_ratio

DEFAULT_SNR_GRID = (10.0, 2.04, 0.5, 0.1, 0.01)
SNR_FIELDS = ("snr", "n_outliers", "q_sl")

SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _write_csv(path: str, header: str, rows) -> None:
    # 17 significant digits also print every integer below 2**53 exactly
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _write_json(path: str, payload: dict) -> None:
    # serialize first: a payload with NaN/inf raises before the file exists
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_spectrum(cfg: RunConfig, outdir: str, args) -> dict:
    spectrum, report = run_spectrum_experiment(cfg.params)
    payload = {  # before any file: a zero H has no trace ratio
        "n_outliers": report.n_outliers,
        "bulk_edge": report.bulk_edge,
        "outlier_values": [float(v) for v in report.outlier_values],
        "top_eigenvalue": float(spectrum.eigenvalues[0]),
        "trace": spectrum.trace,
        "trace_ratio": trace_norm_ratio(spectrum),
    }
    _write_csv(
        os.path.join(outdir, "spectrum.csv"),
        "index,eigenvalue",
        enumerate(spectrum.eigenvalues),
    )
    _write_json(os.path.join(outdir, "outliers.json"), payload)
    return payload


def _cmd_overlap(cfg: RunConfig, outdir: str, args) -> dict:
    cosines, cumulative = run_overlap_experiment(cfg.params)
    _write_csv(
        os.path.join(outdir, "overlaps.csv"),
        "index,cosine,cumulative_power",
        ((i, c, p) for i, (c, p) in enumerate(zip(cosines, cumulative))),
    )
    payload = {"grad_power_top10": top10_power(cumulative)}
    _write_json(os.path.join(outdir, "overlap.json"), payload)
    return payload


def _cmd_sweep_sigmaz(cfg: RunConfig, outdir: str, args) -> dict:
    csv_path = os.path.join(outdir, "sweep.csv")
    try:
        records = run_sigma_z_sweep(cfg.params, cfg.sweep)
    except SweepError as exc:
        # keep the rows finished before the failure; a partial grid has no summary
        if exc.records:
            _write_csv(csv_path, SWEEP_CSV_HEADER, map(astuple, exc.records))
        raise
    _write_csv(csv_path, SWEEP_CSV_HEADER, map(astuple, records))
    grid = cfg.sweep.grid()
    tops = point_means(records, "top_eigenvalue")
    ratios = point_means(records, "trace_ratio")
    return {
        "points": cfg.sweep.points,
        "repeats": cfg.sweep.repeats,
        "fixed_sigma_e": cfg.sweep.fixed_sigma_e,
        "peak_sigma_z": float(grid[int(np.argmax(tops))]),
        "trace_ratio_first": float(ratios[0]),
        "trace_ratio_last": float(ratios[-1]),
    }


def _cmd_sweep_snr(cfg: RunConfig, outdir: str, args) -> dict:
    results = run_snr_sweep(cfg.params, DEFAULT_SNR_GRID)
    _write_csv(os.path.join(outdir, "snr_sweep.csv"), ",".join(SNR_FIELDS), results)
    return {"rows": [dict(zip(SNR_FIELDS, row)) for row in results]}


def _cmd_freeze(cfg: RunConfig, outdir: str, args) -> dict:
    check_freezing_memory(cfg.params, cfg.sweep.points)  # before the grid's own 8 bytes a point
    results = run_freezing_experiment(cfg.params, cfg.sweep.grid())
    _write_csv(
        os.path.join(outdir, "freezing.csv"),
        "sigma_z,mean_entropy,mean_max_prob",
        ((sz, ent, mx) for sz, ent, mx, _ in results),
    )
    simplex_rows = [
        (sz, x, y) for sz, _, _, pts in results for x, y in pts
    ]
    if simplex_rows:
        _write_csv(os.path.join(outdir, "simplex.csv"), "sigma_z,x,y", simplex_rows)
    return {
        "points": len(results),
        "final_mean_entropy": results[-1][1],
        "final_mean_max_prob": results[-1][2],
        "simplex_rows": len(simplex_rows),
    }


def _cmd_cluster(cfg: RunConfig, outdir: str, args) -> dict:
    if args.input is not None:
        report = run_dump_clustering(args.input)
        payload = {"source": args.input}
    else:
        report = run_clustering_experiment(cfg.params)
        payload = {
            "source": "model",
            "predicted_q_sl": predicted_q_sl(cfg.params.sigma_c, cfg.params.sigma_e),
        }
    payload.update(
        q_slsc=report.q_slsc,
        q_sl=report.q_sl,
        q_dl=report.q_dl,
        per_class_q=[float(v) for v in report.per_class_q],
    )
    _write_json(os.path.join(outdir, "clustering.json"), payload)
    return payload


def _cmd_project(cfg: RunConfig, outdir: str, args) -> dict:
    spectrum, projected = run_projection_experiment(cfg.params)
    tol = 1e-9 * max(spectral_norm(spectrum), 1e-300)
    payload = {  # before any file: a zero H has no trace ratio
        "hyperplane_dim": cfg.params.hyperplane_dim,
        "top_full": float(spectrum.eigenvalues[0]),
        "top_projected": float(projected.eigenvalues[0]),
        "full_trace_ratio": trace_norm_ratio(spectrum),
        "projected_trace_ratio": trace_norm_ratio(projected),
        "interlacing_ok": bool(
            projected.eigenvalues[0] <= spectrum.eigenvalues[0] + tol
            and projected.eigenvalues[-1] >= spectrum.eigenvalues[-1] - tol
        ),
    }
    _write_csv(
        os.path.join(outdir, "projected_spectrum.csv"),
        "index,eigenvalue",
        enumerate(projected.eigenvalues),
    )
    _write_json(os.path.join(outdir, "projection.json"), payload)
    return payload


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "overlap": _cmd_overlap,
    "sweep-sigmaz": _cmd_sweep_sigmaz,
    "sweep-snr": _cmd_sweep_snr,
    "freeze": _cmd_freeze,
    "cluster": _cmd_cluster,
    "project": _cmd_project,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="lossgeom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--json", action="store_true", help="print a JSON summary")
        if name == "cluster":
            p.add_argument(
                "--input", default=None,
                help="gradient dump (.lgrd binary or .csv) to score instead "
                     "of a model-sampled ensemble",
            )
    return parser


def run_command(argv) -> int:
    """Run one subcommand; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig() if args.config is None else parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, params=replace(cfg.params, seed=args.seed))
        os.makedirs(args.out, exist_ok=True)
        payload = _COMMANDS[args.command](cfg, args.out, args)
        if args.json:
            print(json.dumps(payload, sort_keys=True, allow_nan=False))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
