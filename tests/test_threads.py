"""The package's threads: BLAS held to one thread inside each measurement,
outputs independent of the BLAS thread count, and nothing started at import."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS before the counts are read)

import lossgeom
from blas_threads import openblas_thread_counts
from lossgeom import ModelParams, SweepSpec, cli, experiments, write_dump

TESTS_DIR = Path(__file__).parent
PACKAGE_ROOT = Path(lossgeom.__file__).parent.parent
TINY = ModelParams(n_examples=20, n_classes=3, n_weights=30, hyperplane_dim=4)
needs_openblas = pytest.mark.skipif(
    not openblas_thread_counts(), reason="no OpenBLAS is loaded"
)


def _env(**extra):
    paths = [str(PACKAGE_ROOT), str(TESTS_DIR), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **extra}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_starts_no_thread_and_keeps_blas_counts():
    code = (
        "import os, threading, numpy, scipy.linalg\n"
        "from blas_threads import openblas_thread_counts as counts\n"
        "def state():\n"
        "    return threading.active_count(), len(os.listdir('/proc/self/task')), counts()\n"
        "before = state()\n"
        "import lossgeom, lossgeom.cli\n"
        "after = state()\n"
        "assert before == after, (before, after)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


RUNS = {
    "spectrum": lambda: experiments.run_spectrum_experiment(TINY),
    "overlap": lambda: experiments.run_overlap_experiment(TINY),
    "project": lambda: experiments.run_projection_experiment(TINY),
    "cluster": lambda: experiments.run_clustering_experiment(TINY),
    "sweep": lambda: experiments.run_sigma_z_sweep(TINY, SweepSpec(points=2, repeats=1)),
    "snr": lambda: experiments.run_snr_sweep(TINY, [1.0]),
    "freeze": lambda: experiments.run_freezing_experiment(TINY, [1.0, 2.0]),
}


@needs_openblas
@pytest.mark.parametrize("name", RUNS)
def test_run_holds_blas_to_one_thread_and_restores_the_counts(name, monkeypatch):
    seen = []
    # every run samples its logits; read the counts there, inside the run
    original = experiments.sample_ensemble

    def sample_ensemble(*args, **kwargs):
        seen.append(openblas_thread_counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_ensemble", sample_ensemble)
    before = openblas_thread_counts()
    RUNS[name]()
    assert openblas_thread_counts() == before
    assert seen and all(set(counts.values()) == {1} for counts in seen)


@needs_openblas
def test_failed_run_and_dump_scoring_restore_the_counts(tmp_path, monkeypatch, capsys):
    before = openblas_thread_counts()
    with pytest.raises(ValueError):
        experiments.run_spectrum_experiment(ModelParams(n_weights=10**6))
    assert openblas_thread_counts() == before

    seen = []
    original = cli.clustering_report

    def clustering_report(*args):
        seen.append(openblas_thread_counts())
        return original(*args)

    monkeypatch.setattr(cli, "clustering_report", clustering_report)
    dump = tmp_path / "g.lgrd"
    write_dump(str(dump), np.ones((4, 2, 3)) + np.arange(3), [0, 1, 0, 1])
    args = ["cluster", "--input", dump, "--out", tmp_path / "out"]
    assert cli.run_command([str(a) for a in args]) == 0
    assert [set(counts.values()) for counts in seen] == [{1}]
    assert openblas_thread_counts() == before


# at this size the eigensolvers change last bits between one and two BLAS
# threads unless the package holds BLAS to one
DETERMINISM_CFG = """
n_examples = 100
n_classes = 10
n_weights = 300
points = 2
repeats = 1
"""


@needs_openblas
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DETERMINISM_CFG)
    outputs = {}
    for threads in ("1", "2"):
        for command in ("sweep-sigmaz", "overlap"):
            out = tmp_path / f"{command}-{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "lossgeom", command, "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env=_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert result.returncode == 0, result.stderr
            for path in sorted(out.iterdir()):
                outputs.setdefault((command, path.name), []).append(path.read_bytes())
    assert len(outputs) == 3
    for name, (one, two) in outputs.items():
        assert one == two, name
