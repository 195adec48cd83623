"""The package's threads: BLAS held to one thread inside each measurement,
outputs independent of the BLAS thread count, and nothing started at import.
Importing the package, and every command, loads numpy alone: the Hessian
commands call the BLAS and LAPACK of numpy's OpenBLAS, and none imports scipy."""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lossgeom
from blas_threads import openblas_thread_counts
from lossgeom import ModelParams, SweepError, SweepSpec, cli, experiments, write_dump

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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cold_import_loads_numpy_alone():
    # scipy.linalg was about 0.35 s of every command's 0.55 s of imports, and
    # only the Hessian commands call it
    code = (
        "import os, sys, threading, numpy\n"
        "from blas_threads import openblas_thread_counts as counts\n"
        "def state():\n"
        "    return threading.active_count(), len(os.listdir('/proc/self/task')), counts()\n"
        "before = state()\n"
        "import lossgeom, lossgeom.cli\n"
        "after = state()\n"
        "assert before == after, (before, after)\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy, scipy\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# python -m lossgeom <args>, then print the scipy modules it imported
WITHOUT_SCIPY = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('lossgeom', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
    "    code = done.code\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    "sys.exit(code)\n"
)
TINY_CFG = "n_examples = 20\nn_classes = 3\nn_weights = 30\nhyperplane_dim = 4\n"
NUMPY_ALONE = {
    "cluster --input": (["cluster", "--input", "{dir}/g.lgrd"], 0),
    "cluster": (["cluster", "--config", "{dir}/tiny.cfg"], 0),
    "freeze": (["freeze", "--config", "{dir}/tiny.cfg"], 0),
    "usage error": (["spectrum", "--no-such-flag"], 1),
    "config error": (["spectrum", "--config", "{dir}/bad.cfg"], 1),
    # Hessian commands that fail their own checks before they measure
    "sweep-sigmaz underflow": (["sweep-sigmaz", "--config", "{dir}/gamma.cfg"], 1),
    "sweep-snr zero sigma_c": (["sweep-snr", "--config", "{dir}/sigma_c.cfg"], 1),
    "overlap zero sigmas": (["overlap", "--config", "{dir}/sigmas.cfg"], 1),
    # a Hessian command that the memory guard rejects
    "spectrum over the memory limit": (["spectrum", "--config", "{dir}/wide.cfg"], 1),
}
# the Hessian commands measure on numpy's OpenBLAS: they import no scipy either
HESSIAN = {
    command: ([command, "--config", "{dir}/sweep.cfg"], 0)
    for command in ("spectrum", "overlap", "project", "sweep-snr", "sweep-sigmaz")
}


@pytest.mark.parametrize("case", NUMPY_ALONE)
def test_commands_without_a_hessian_never_import_scipy(case, tmp_path):
    _assert_imports_no_scipy(*NUMPY_ALONE[case], tmp_path)


@pytest.mark.parametrize("case", HESSIAN)
def test_cold_hessian_commands_never_import_scipy(case, tmp_path):
    _assert_imports_no_scipy(*HESSIAN[case], tmp_path)


def _assert_imports_no_scipy(argv, expected, tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY_CFG)
    (tmp_path / "sweep.cfg").write_text(TINY_CFG + "points = 2\nrepeats = 1\n")
    (tmp_path / "bad.cfg").write_text(TINY_CFG + "no_such_key = 1\n")
    (tmp_path / "gamma.cfg").write_text(TINY_CFG + "gamma = 400\n")
    (tmp_path / "sigma_c.cfg").write_text(TINY_CFG + "sigma_c = 0\n")
    (tmp_path / "sigmas.cfg").write_text(TINY_CFG + "sigma_c = 0\nsigma_e = 0\n")
    (tmp_path / "wide.cfg").write_text(TINY_CFG.replace("n_weights = 30", "n_weights = 20000"))
    write_dump(str(tmp_path / "g.lgrd"), np.ones((4, 2, 3)) + np.arange(3), [0, 1, 0, 1])
    args = [a.format(dir=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, *args], capture_output=True, text=True,
        env=_env(), timeout=120,
    )
    assert result.returncode == expected, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# run commands in turn with scipy not imported; print their exit codes, the
# OpenBLAS thread counts before them, at each fold and each solve, and after,
# and the scipy modules imported by the end
COLD_HESSIAN_RUN = (
    "import sys\n"
    "from blas_threads import openblas_thread_counts as counts\n"
    "from lossgeom import cli, experiments\n"
    "cfg, out, *commands = sys.argv[1:]\n"
    "seen = {}\n"
    "def spy(stage, fn):\n"
    "    def call(*args, **kwargs):\n"
    "        seen.setdefault(stage, []).append(counts())\n"
    "        return fn(*args, **kwargs)\n"
    "    return call\n"
    "experiments.fold_hessian = spy('fold', experiments.fold_hessian)\n"
    "experiments.eigh = spy('solve', experiments.eigh)\n"
    "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
    "before = counts()\n"
    "codes = [cli.run_command([c, '--config', cfg, '--out', out]) for c in commands]\n"
    "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print(repr((codes, before, seen, counts(), scipy)))\n"
)


@needs_openblas
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize(
    "commands",
    [["spectrum"], ["overlap"], ["project"], ["sweep-snr"], ["sweep-sigmaz"],
     ["freeze", "spectrum"]],
    ids=["spectrum", "overlap", "project", "sweep-snr", "sweep-sigmaz", "freeze-then-spectrum"],
)
def test_a_cold_hessian_run_holds_numpys_blas_and_imports_no_scipy(commands, tmp_path):
    # every fold and solve calls numpy's OpenBLAS and must run inside the
    # hold; after a hold without a Hessian (freeze), the next hold must read
    # the libraries again; and the run ends with no scipy module loaded
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG + "points = 2\nrepeats = 1\n")  # sweep-sigmaz: two tasks
    result = subprocess.run(
        [sys.executable, "-c", COLD_HESSIAN_RUN, str(cfg), str(tmp_path / "out"), *commands],
        capture_output=True, text=True, timeout=120, env=_env(OPENBLAS_NUM_THREADS="2"),
    )
    assert result.returncode == 0, result.stderr
    codes, before, seen, after, scipy = ast.literal_eval(result.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert scipy == []
    assert sorted(seen) == ["fold", "solve"]
    for stage, readings in seen.items():
        for counts in readings:
            assert counts == dict.fromkeys(after, 1), (stage, counts)
    [count] = set(before.values())  # every OpenBLAS starts at the same count
    assert after == dict.fromkeys(after, count)


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
    # cluster --input scores the dump's blocks as they are read; watch the scoring
    original = experiments.blocked_clustering_report

    def blocked_clustering_report(*args):
        seen.append(openblas_thread_counts())
        return original(*args)

    monkeypatch.setattr(experiments, "blocked_clustering_report", blocked_clustering_report)
    dump = tmp_path / "g.lgrd"
    write_dump(str(dump), np.ones((4, 2, 3)) + np.arange(3), [0, 1, 0, 1])
    args = ["cluster", "--input", dump, "--out", tmp_path / "out"]
    assert cli.run_command([str(a) for a in args]) == 0
    assert [set(counts.values()) for counts in seen] == [{1}]
    assert openblas_thread_counts() == before


def test_no_thread_outlives_a_sweep(monkeypatch):
    spec = SweepSpec(points=2, repeats=2)
    experiments.run_sigma_z_sweep(TINY, spec)  # anything meant to outlive a run starts here
    before = set(threading.enumerate())
    experiments.run_sigma_z_sweep(TINY, spec)
    assert set(threading.enumerate()) == before
    original = experiments._sweep_record

    def failing(point, prefix, *args):
        if prefix == "sweep:1:0:":
            raise ValueError("planted failure")
        return original(point, prefix, *args)

    monkeypatch.setattr(experiments, "_sweep_record", failing)
    with pytest.raises(SweepError, match="planted failure"):
        experiments.run_sigma_z_sweep(TINY, spec)
    assert set(threading.enumerate()) == before
    experiments.run_snr_sweep(TINY, [1.0, 2.0, 4.0])
    assert set(threading.enumerate()) == before
    draw = experiments._draw

    def failing_draw(point, prefix, *args):
        if prefix == "snr:1:":  # drawn on the worker while task 0 solves
            raise ValueError("planted failure")
        return draw(point, prefix, *args)

    monkeypatch.setattr(experiments, "_draw", failing_draw)
    with pytest.raises(ValueError, match="^planted failure$"):  # snr errors are not prefixed
        experiments.run_snr_sweep(TINY, [1.0, 2.0, 4.0])
    assert set(threading.enumerate()) == before


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, in order."""
    threads, start = [], threading.Thread.start

    def spy(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return threads


def test_one_task_runs_start_no_thread(started):
    # drawing a one-task run on a worker thread raised spectrum's peak RSS by about 7%
    for name in ("spectrum", "overlap", "project", "cluster"):
        RUNS[name]()  # TINY fits in one block: there is no block to draw ahead
        assert started == [], name
    RUNS["sweep"]()  # two tasks: one lane each
    assert len(started) == 2


# 4 blocks of 65 examples: a one-task run has blocks to draw ahead
MULTI_BLOCK = ModelParams(n_examples=200, n_classes=10, n_weights=200, hyperplane_dim=4)


def test_a_sweeps_lanes_sample_on_their_own_threads(started):
    # a one-task run draws the next blocks ahead on its executor; a two-task
    # sweep starts its two lanes and nothing else
    experiments.run_sigma_z_sweep(MULTI_BLOCK, SweepSpec(points=2, repeats=1))
    assert len(started) == 2
    started.clear()
    experiments.run_spectrum_experiment(MULTI_BLOCK)
    assert 0 < len(started) <= experiments._LANES


@pytest.mark.parametrize("module", ["rng.py", "gradients.py"])
def test_sampling_modules_start_no_thread(module):
    # a run's threads belong to the executor it owns (experiments._pipeline);
    # the sampling code only draws on the threads it is called on or given
    tree = ast.parse((Path(lossgeom.__file__).parent / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"threading", "concurrent"}, imported


COMMANDS = {
    "spectrum": experiments.run_spectrum_experiment,
    "overlap": experiments.run_overlap_experiment,
    "project": experiments.run_projection_experiment,
    "cluster": experiments.run_clustering_experiment,
}


@pytest.mark.parametrize("name", COMMANDS)
def test_no_thread_outlives_a_command(name, started):
    # the threads that draw ahead belong to the run and are joined before it returns
    before = set(threading.enumerate())
    COMMANDS[name](MULTI_BLOCK)
    assert started, "the run drew no block ahead"
    assert not [thread for thread in started if thread.is_alive()]
    assert set(threading.enumerate()) == before


def test_lanes_switching_every_microsecond_keep_every_record():
    # the two lanes share one queue of buffers; a buffer handed to both lanes
    # at once would mix two tasks' H and change their records
    spec = SweepSpec(points=4, repeats=3)
    expected = experiments.run_sigma_z_sweep(TINY, spec)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.extend(
            experiments.run_sigma_z_sweep(TINY, spec)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == expected


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
