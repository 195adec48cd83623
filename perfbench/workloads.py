"""The four benchmark workloads: generated inputs, program calls, parsed outputs.

Every workload reaches the program only through its public entry points,
``lossgeom.cli.run_command`` and ``lossgeom.dumps.write_dump``, looked up at
call time so that a tracer installed on the package sees the calls. The
program receives only inputs generated here from the workload seed: a config
file, or a dump file.

Why these four:

* ``sweep-ref``: the reference N=300, C=10, D=1000 sweep. The eigensolve is
  most of the time; outputs read only the top 3C+1 eigenvalues, 10
  eigenvectors and the trace, so a need-driven spectrum and a sweep pool
  should both show here.
* ``sweep-many-small``: 50 short N=1000, D=200 tasks, where sampling and
  assembly outweigh the eigensolve and per-task orchestration cost shows.
  An eigensolve-only win should barely move it.
* ``spectrum-full``: spectrum, overlap and project once each at the
  reference config. Every eigenpair is read and each command is one task,
  so neither a top-k solve nor a pool may slow it.
* ``ingest``: dump writing and reading in both formats plus clustering,
  the two layers no other workload runs. There is no Hessian here.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SHAPES = ("full", "tiny")

# key = value config files; the seed is passed on the command line
_SWEEP_REF = {
    "full": dict(sigma_z_min=1e-3, sigma_z_max=1e2, points=4, repeats=2),
    "tiny": dict(n_examples=30, n_classes=3, n_weights=20, hyperplane_dim=5,
                 sigma_z_min=1e-3, sigma_z_max=1e2, points=2, repeats=2),
}
_SWEEP_MANY_SMALL = {
    "full": dict(n_examples=1000, n_weights=200, sigma_z_min=1e-3, sigma_z_max=1e2,
                 points=25, repeats=2),
    "tiny": dict(n_examples=40, n_classes=3, n_weights=12, hyperplane_dim=4,
                 sigma_z_min=1e-3, sigma_z_max=1e2, points=3, repeats=2),
}
_SPECTRUM_FULL = {
    "full": dict(n_examples=300, n_classes=10, n_weights=1000),
    "tiny": dict(n_examples=30, n_classes=3, n_weights=20, hyperplane_dim=5),
}
# (N, C, D) of the generated gradient dumps
_INGEST = {
    "full": {"lgrd": (300, 10, 4000), "csv": (100, 10, 200)},
    "tiny": {"lgrd": (20, 3, 16), "csv": (12, 3, 8)},
}

SWEEP_COLUMNS = (
    "sigma_z", "sigma_c", "top_eigenvalue", "trace", "spectral_norm", "trace_ratio",
    "projected_trace_ratio", "mean_entropy", "mean_max_prob", "n_outliers",
    "grad_power_top10", "repeat",
)


@dataclass(frozen=True)
class Call:
    """One program call. It writes only under ``out``, which the harness empties
    before each call; ``run()`` returns the exit code and ``extract()`` parses
    the outputs into named values for the checker."""

    name: str
    out: str
    run: Callable[[], int]
    extract: Callable[[], dict]


# ---- output parsing ---------------------------------------------------------

def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv_columns(path: str) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _json_fields(path: str, skip=()) -> dict:
    name = os.path.basename(path)
    return {f"{name}:{k}": v for k, v in _read_json(path).items() if k not in skip}


def _extract_sweep(out: str) -> dict:
    cols = _read_csv_columns(os.path.join(out, "sweep.csv"))
    if tuple(cols) != SWEEP_COLUMNS:
        raise ValueError(f"sweep.csv header {tuple(cols)} is not the pinned header")
    return {f"sweep.csv:{k}": v for k, v in cols.items()}


def _extract_spectrum(out: str) -> dict:
    values = _json_fields(os.path.join(out, "outliers.json"))
    values["spectrum.csv:eigenvalue"] = _read_csv_columns(
        os.path.join(out, "spectrum.csv"))["eigenvalue"]
    return values


def _extract_overlap(out: str) -> dict:
    values = _json_fields(os.path.join(out, "overlap.json"))
    values["overlaps.csv:cumulative_power_last"] = _read_csv_columns(
        os.path.join(out, "overlaps.csv"))["cumulative_power"][-1]
    return values


def _extract_projection(out: str) -> dict:
    return _json_fields(os.path.join(out, "projection.json"))


def _extract_clustering(out: str) -> dict:
    return _json_fields(os.path.join(out, "clustering.json"), skip=("source",))


# ---- program calls ------------------------------------------------------------

def _write_config(path: str, values: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value!r}\n")
    return path


def _cli_call(name: str, out: str, argv: list[str], extract) -> Call:
    def run() -> int:
        import lossgeom.cli

        return lossgeom.cli.run_command([*argv, "--out", out])

    return Call(name, out, run, lambda: extract(out))


def _cli_calls(work: str, seed: int, config: dict, commands) -> list[Call]:
    cfg = _write_config(os.path.join(work, "run.cfg"), config)
    return [
        _cli_call(cmd, os.path.join(work, cmd), [cmd, "--config", cfg, "--seed", str(seed)],
                  extract)
        for cmd, extract in commands
    ]


def _prepare_sweep(configs: dict, work: str, seed: int, shape: str) -> list[Call]:
    return _cli_calls(work, seed, configs[shape], [("sweep-sigmaz", _extract_sweep)])


def _prepare_spectrum_full(work: str, seed: int, shape: str) -> list[Call]:
    return _cli_calls(work, seed, _SPECTRUM_FULL[shape], [
        ("spectrum", _extract_spectrum),
        ("overlap", _extract_overlap),
        ("project", _extract_projection),
    ])


def _gradient_dump_inputs(seed: int, n: int, c: int, d: int, fmt: str):
    """Clustered (N, C, D) gradients (class means plus residuals at the
    reference scales) and labels with at least two examples per class."""
    gen = np.random.default_rng([seed, n, c, d, 0 if fmt == "lgrd" else 1])
    scale = 1.0 / math.sqrt(d)
    tensor = gen.standard_normal((n, c, d))
    tensor *= 0.7 * scale
    tensor += scale * gen.standard_normal((c, d))[np.newaxis]
    labels = gen.permutation(np.arange(n) % c).astype(np.int32)
    return tensor, labels


def _prepare_ingest(work: str, seed: int, shape: str) -> list[Call]:
    calls = []
    for fmt, (n, c, d) in _INGEST[shape].items():
        tensor, labels = _gradient_dump_inputs(seed, n, c, d, fmt)
        out = os.path.join(work, f"dump-{fmt}")
        path = os.path.join(out, f"grads.{fmt}")

        def write(path=path, tensor=tensor, labels=labels) -> int:
            import lossgeom.dumps

            lossgeom.dumps.write_dump(path, tensor, labels)
            return 0

        def extract_dump(path=path, n=n, c=c, d=d, fmt=fmt) -> dict:
            size = os.path.getsize(path)
            if fmt == "lgrd" and size != 20 + n * c * d * 8 + n * 4:
                raise ValueError(f"{path}: {size} bytes, not the LGRD size for {n}x{c}x{d}")
            return {}

        calls.append(Call(f"write_dump.{fmt}", out, write, extract_dump))
        calls.append(_cli_call(f"cluster.{fmt}", os.path.join(work, f"cluster-{fmt}"),
                               ["cluster", "--input", path], _extract_clustering))
    return calls


WORKLOADS = {
    "sweep-ref": functools.partial(_prepare_sweep, _SWEEP_REF),
    "sweep-many-small": functools.partial(_prepare_sweep, _SWEEP_MANY_SMALL),
    "spectrum-full": _prepare_spectrum_full,
    "ingest": _prepare_ingest,
}
