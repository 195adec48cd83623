"""Demos run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lossgeom

PACKAGE_ROOT = Path(lossgeom.__file__).parent.parent
DEMO_DIR = Path(__file__).parent.parent / "demos"


def run_demo(name, out, *args):
    paths = [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, str(DEMO_DIR / name), "--out", str(out), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_clustering_demo_scores_sampled_gradients_and_both_dumps(tmp_path):
    lines = run_demo("clustering_and_ingestion.py", tmp_path).splitlines()
    for name in ("dump.lgrd", "dump.csv"):
        [line] = [line for line in lines if line.startswith(f"{name}:")]
        assert line.endswith("exact match with in-memory: True"), line
        assert (tmp_path / name).exists()
    assert (tmp_path / "snr_vs_q.csv").exists()


@pytest.mark.parametrize(
    "demo, args, outputs",
    [
        ("spectrum_outliers.py", (), ["outliers.json", "spectrum.csv"]),
        ("eigenvalue_sweep.py", ("--points", "2", "--repeats", "1"), ["top_eigenvalue.csv"]),
    ],
)
def test_demo_writes_its_data_files_and_nothing_else(tmp_path, demo, args, outputs):
    last = run_demo(demo, tmp_path, *args).splitlines()[-1]
    assert not list(tmp_path.glob("*.svg"))
    assert sorted(p.name for p in tmp_path.iterdir()) == outputs
    assert last.startswith("wrote ") and all(name in last for name in outputs), last
