"""The memory guard bounds the peak of every model-sampled command.

Each command's experiment runs twice on one model: once with the memory
limit lowered to 64 bytes, where the guard rejects it before any draw and
names its estimate (the ``(N in all)`` figure of its message), then at the
real limit under tracemalloc. The peak must not pass the estimate.

tracemalloc sees what numpy and Python allocate. OpenBLAS's own buffers
(its thread workspace, LAPACK's internal copies) are not traced, so they are
not bounded here. The guard estimates an instance's arrays, so the CLI's own
fixed cost around the experiment (argparse, the config parse, about 60 kB)
is not measured either.
"""

import re

import pytest

from helpers import peak_bytes
from lossgeom import (
    ModelParams,
    SweepSpec,
    run_clustering_experiment,
    run_freezing_experiment,
    run_overlap_experiment,
    run_projection_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
)
from lossgeom import experiments
from lossgeom.cli import DEFAULT_SNR_GRID

SPEC = SweepSpec(points=2, repeats=2)
# what each model-sampled command runs
COMMANDS = {
    "spectrum": run_spectrum_experiment,
    "overlap": run_overlap_experiment,
    "project": run_projection_experiment,
    "sweep-sigmaz": lambda params: run_sigma_z_sweep(params, SPEC),
    "sweep-snr": lambda params: run_snr_sweep(params, DEFAULT_SNR_GRID),
    "cluster": run_clustering_experiment,
    "freeze": lambda params: run_freezing_experiment(params, SPEC.grid()),
}
# (N, C, D, hyperplane_dim) where each of the guard's terms dominates
SHAPES = {
    # 10 blocks of about 1 MiB: the three block buffers outweigh H and the ensemble
    "blocks": (600, 10, 200, 10),
    # 60,000 x 3 logits outweigh three 1 MiB blocks (3 of them per tensor)
    "ensemble": (60_000, 3, 2, 1),
    # a 600 x 600 H and its solve outweigh one block of all 50 examples
    "hessian": (50, 3, 600, 10),
    # a 600 x 600 hyperplane basis, its transpose and B^T H outweigh H's solve
    "projection": (50, 3, 600, 600),
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("command", COMMANDS)
def test_the_peak_stays_within_the_guards_estimate(monkeypatch, command, shape):
    n, c, d, k = shape
    params = ModelParams(n_examples=n, n_classes=c, n_weights=d, hyperplane_dim=k)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "DEFAULT_MEMORY_LIMIT", 64)
        with pytest.raises(ValueError, match=r"over the 64-byte memory limit$") as rejected:
            COMMANDS[command](params)
    estimate = int(re.search(r"\((\d+) in all\)", str(rejected.value))[1])
    peak = peak_bytes(COMMANDS[command], params)
    print(f"{command} {shape}: peak {peak} of {estimate} bytes ({peak / estimate:.2f})")
    assert peak <= estimate
