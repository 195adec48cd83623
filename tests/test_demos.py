"""Demos run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import lossgeom

PACKAGE_ROOT = Path(lossgeom.__file__).parent.parent
DEMO_DIR = Path(__file__).parent.parent / "demos"


def test_clustering_demo_scores_sampled_gradients_and_both_dumps(tmp_path):
    demo = DEMO_DIR / "clustering_and_ingestion.py"
    paths = [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, str(demo), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for name in ("dump.lgrd", "dump.csv"):
        [line] = [line for line in lines if line.startswith(f"{name}:")]
        assert line.endswith("exact match with in-memory: True"), line
        assert (tmp_path / name).exists()
    assert (tmp_path / "snr_vs_q.csv").exists()
