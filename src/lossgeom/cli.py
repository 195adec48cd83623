"""Command-line front end.

Subcommands: spectrum, overlap, sweep-sigmaz, sweep-snr, freeze, cluster,
project. Common flags: --config PATH (flat key=value file, see
:mod:`lossgeom.config`), --out DIR (output directory, default ``out``),
--seed INT (overrides the config's seed), --json (print a summary to
stdout). Exit codes: 0 success, 1 validation error (bad arguments, config,
parameters or dump contents), 2 I/O error. A command computes its files, and
one writer (:func:`_write_files`) writes them, so a command that fails
writes no file; but a failing sweep-sigmaz task exits 1 after writing the
records finished before it to sweep.csv (and no summary).

All CSVs are written with 17 significant digits so they re-parse to the
exact values computed. README's Determinism section states when the bytes
repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from .clustering import predicted_q_sl
from .config import parse_config
from .experiments import (
    SweepError,
    SweepRecord,
    SweepSpec,
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
from .params import ModelParams
from .spectra import spectral_norm, top10_power, trace_norm_ratio

DEFAULT_SNR_GRID = (10.0, 2.04, 0.5, 0.1, 0.01)
SNR_FIELDS = ("snr", "n_outliers", "q_sl")

SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise _UsageError(message)


def _csv_lines(header: str, rows):
    # 17 significant digits also print every integer below 2**53 exactly
    for i, row in enumerate(rows):
        if i == 0:
            yield header + "\n"
        yield ",".join(format(float(v), ".17g") for v in row) + "\n"


def _write_files(outdir: str, files: dict) -> None:
    """Write ``files`` into ``outdir`` in order: a dict as JSON, a ``(header,
    rows)`` pair as CSV. Every JSON payload is serialized before the first
    file opens, so one with NaN or inf leaves no file; CSV rows stream, and a
    CSV is created at its first row (no rows, no file)."""
    texts = {name: json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"
             for name, body in files.items() if isinstance(body, dict)}
    for name, body in files.items():
        lines = iter([texts[name]] if name in texts else _csv_lines(*body))
        first = next(lines, None)
        if first is not None:
            with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(first)
                fh.writelines(lines)


def _cmd_spectrum(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    spectrum, report = run_spectrum_experiment(params)
    payload = {
        "n_outliers": report.n_outliers,
        "bulk_edge": report.bulk_edge,
        "outlier_values": [float(v) for v in report.outlier_values],
        "top_eigenvalue": float(spectrum.eigenvalues[0]),
        "trace": spectrum.trace,
        "trace_ratio": trace_norm_ratio(spectrum),
    }
    return {"spectrum.csv": ("index,eigenvalue", enumerate(spectrum.eigenvalues)),
            "outliers.json": payload}, payload


def _cmd_overlap(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    cosines, cumulative = run_overlap_experiment(params)
    payload = {"grad_power_top10": top10_power(cumulative)}
    rows = ((i, c, p) for i, (c, p) in enumerate(zip(cosines, cumulative)))
    return {"overlaps.csv": ("index,cosine,cumulative_power", rows),
            "overlap.json": payload}, payload


def _cmd_sweep_sigmaz(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    records = run_sigma_z_sweep(params, sweep)
    tops = point_means(records, "top_eigenvalue")
    ratios = point_means(records, "trace_ratio")
    return {"sweep.csv": (SWEEP_CSV_HEADER, map(astuple, records))}, {
        "points": sweep.points,
        "repeats": sweep.repeats,
        "fixed_sigma_e": sweep.fixed_sigma_e,
        "peak_sigma_z": float(sweep.grid()[int(np.argmax(tops))]),
        "trace_ratio_first": float(ratios[0]),
        "trace_ratio_last": float(ratios[-1]),
    }


def _cmd_sweep_snr(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    results = run_snr_sweep(params, DEFAULT_SNR_GRID)
    summary = {"rows": [dict(zip(SNR_FIELDS, row)) for row in results]}
    return {"snr_sweep.csv": (",".join(SNR_FIELDS), results)}, summary


def _cmd_freeze(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    check_freezing_memory(params, sweep.points)  # before the grid's own 8 bytes a point
    results = run_freezing_experiment(params, sweep.grid())
    freezing = ((sz, ent, mx) for sz, ent, mx, _ in results)
    simplex = ((sz, x, y) for sz, _, _, pts in results for x, y in pts)
    files = {"freezing.csv": ("sigma_z,mean_entropy,mean_max_prob", freezing),
             "simplex.csv": ("sigma_z,x,y", simplex)}
    return files, {
        "points": len(results),
        "final_mean_entropy": results[-1][1],
        "final_mean_max_prob": results[-1][2],
        "simplex_rows": sum(len(pts) for *_, pts in results),
    }


def _cmd_cluster(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    if args.input is not None:
        report = run_dump_clustering(args.input)
        payload = {"source": args.input}
    else:
        report = run_clustering_experiment(params)
        payload = {
            "source": "model",
            "predicted_q_sl": predicted_q_sl(params.sigma_c, params.sigma_e),
        }
    payload.update(
        q_slsc=report.q_slsc,
        q_sl=report.q_sl,
        q_dl=report.q_dl,
        per_class_q=[float(v) for v in report.per_class_q],
    )
    return {"clustering.json": payload}, payload


def _cmd_project(params: ModelParams, sweep: SweepSpec, args) -> tuple[dict, dict]:
    spectrum, projected = run_projection_experiment(params)
    tol = 1e-9 * max(spectral_norm(spectrum), 1e-300)
    payload = {
        "hyperplane_dim": params.hyperplane_dim,
        "top_full": float(spectrum.eigenvalues[0]),
        "top_projected": float(projected.eigenvalues[0]),
        "full_trace_ratio": trace_norm_ratio(spectrum),
        "projected_trace_ratio": trace_norm_ratio(projected),
        "interlacing_ok": bool(
            projected.eigenvalues[0] <= spectrum.eigenvalues[0] + tol
            and projected.eigenvalues[-1] >= spectrum.eigenvalues[-1] - tol
        ),
    }
    return {"projected_spectrum.csv": ("index,eigenvalue", enumerate(projected.eigenvalues)),
            "projection.json": payload}, payload


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
        params, sweep = ((ModelParams(), SweepSpec()) if args.config is None
                         else parse_config(args.config))
        if args.seed is not None:
            params = replace(params, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        try:
            files, summary = _COMMANDS[args.command](params, sweep, args)
        except SweepError as exc:  # the rows finished before the failure; no summary
            _write_files(args.out, {"sweep.csv": (SWEEP_CSV_HEADER, map(astuple, exc.records))})
            raise
        _write_files(args.out, files)
        if args.json:
            print(json.dumps(summary, sort_keys=True, allow_nan=False))
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
