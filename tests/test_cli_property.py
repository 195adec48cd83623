"""Every config that validation accepts either completes or fails cleanly.

Generated tiny configs (N <= 40, C <= 6, D <= 30, scales log-uniform over
1e-300 .. 1e300 or over 1e-3 .. 1e3, with zeros, gamma in [-5, 5]) run
through every subcommand, with blocks of 256 gradient bytes, so that most
tensors span several blocks and the next blocks are drawn on the sampling
pool while one is read.
Exit 0 leaves files and a ``--json`` line that parse and hold only finite
values; exit 1 prints one ``error:`` line and leaves no file, but for the
partial ``sweep.csv`` that a failing ``sweep-sigmaz`` task documents. Any
other exception fails the test with its traceback.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lossgeom import gradients
from lossgeom.cli import run_command

COMMANDS = ("spectrum", "overlap", "sweep-sigmaz", "sweep-snr", "freeze", "cluster", "project")
# most configs drawn over 600 decades fail a bound; over 6 they reach the measurements
EXPONENTS = st.floats(-300, 300) | st.floats(-3, 3)
SCALES = st.just(0.0) | EXPONENTS.map(lambda e: 10.0 ** e)


@st.composite
def configs(draw):
    """A config file's keys: every model and sweep key, some of them invalid."""
    n_weights = draw(st.integers(1, 30))
    low, high = sorted((draw(EXPONENTS), draw(EXPONENTS)))
    return {
        "n_examples": draw(st.integers(1, 40)),
        "n_classes": draw(st.integers(1, 6)),
        "n_weights": n_weights,
        "hyperplane_dim": draw(st.integers(1, n_weights)),
        "sigma_z": draw(SCALES),
        "sigma_c": draw(SCALES),
        "sigma_e": draw(SCALES),
        "length_beta": draw(st.floats(0, 5)),
        "target_accuracy": draw(st.floats(0, 1)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "sigma_z_min": 10.0 ** low,
        "sigma_z_max": 10.0 ** high,
        "points": draw(st.integers(2, 4)),
        "gamma": draw(st.floats(-5, 5)),
        "repeats": draw(st.integers(1, 2)),
        "fixed_sigma_e": draw(st.booleans()),
    }


def numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        return [v for item in value.values() for v in numbers(item)]
    if isinstance(value, list):
        return [v for item in value for v in numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def file_numbers(path):
    """Every number an output file holds: a JSON file's, or a CSV's after its header."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return numbers(json.loads(text))
    header, *rows = text.splitlines()
    assert header and rows, path
    return [float(v) for row in rows for v in row.split(",")]


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(configs())
# the ratio 1e-200 / 1e200 underflows to 0, and 0.0 ** -1 raised out of sweep-sigmaz
@example({"sigma_z": 1e200, "sigma_z_min": 1e-200, "sigma_z_max": 1e-190, "gamma": -1.0,
          "n_examples": 10, "n_classes": 3, "n_weights": 5, "hyperplane_dim": 2,
          "points": 2, "repeats": 1})
def test_every_command_completes_or_fails_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                             keys):
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 256)  # 1 to 16 examples a block
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        cfg = Path(scratch) / "run.cfg"
        cfg.write_text("".join(f"{key} = {str(value).lower()}\n" for key, value in keys.items()))
        for command in COMMANDS:
            out = Path(scratch) / command
            code = run_command([command, "--config", str(cfg), "--out", str(out), "--json"])
            captured = capsys.readouterr()
            files = sorted(out.iterdir()) if out.exists() else []
            if code == 0:
                assert captured.err == "", (command, captured.err)
                assert np.isfinite(numbers(json.loads(captured.out))).all(), command
            else:
                [line] = captured.err.splitlines()
                assert code == 1 and line.startswith("error: "), (command, code, line)
                assert captured.out == "", command
                partial = {"sweep.csv"} if command == "sweep-sigmaz" else set()
                assert {p.name for p in files} <= partial, (command, files)
            for path in files:
                assert np.isfinite(file_numbers(path)).all(), path
