import json
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import (
    clustering_report, fresh_python, model_hessian, no_draws, peak_bytes, sweep_tasks,
)
from lossgeom import (
    ModelParams,
    SweepRecord,
    SweepSpec,
    parse_config,
    run_sigma_z_sweep,
    run_spectrum_experiment,
    sample_ensemble,
    sample_logit_gradients,
    write_dump,
)
from lossgeom import cli, experiments, gradients, spectra
from lossgeom.cli import SWEEP_CSV_HEADER, run_command


SMALL_CFG = """
n_examples = 60
n_classes = 5
n_weights = 120
hyperplane_dim = 6
points = 4
repeats = 2
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run(args):
    return run_command([str(a) for a in args])


def test_spectrum_writes_csv_and_json(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["spectrum", "--config", cfg_path, "--out", out, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_outliers"] >= 0
    assert (out / "spectrum.csv").exists()
    assert (out / "outliers.json").exists()
    header, first = (out / "spectrum.csv").read_text().splitlines()[:2]
    assert header == "index,eigenvalue"
    idx, value = first.split(",")
    assert idx == "0"
    assert float(value) == payload["top_eigenvalue"]


def test_overlap_outputs(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run(["overlap", "--config", cfg_path, "--out", out]) == 0
    lines = (out / "overlaps.csv").read_text().splitlines()
    assert lines[0] == "index,cosine,cumulative_power"
    assert len(lines) == 1 + 120
    payload = json.loads((out / "overlap.json").read_text())
    assert 0.0 <= payload["grad_power_top10"] <= 1.0


def test_sweep_sigmaz_pinned_header_and_row_count(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg_path, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert (
        lines[0]
        == "sigma_z,sigma_c,top_eigenvalue,trace,spectral_norm,trace_ratio,"
        "projected_trace_ratio,mean_entropy,mean_max_prob,n_outliers,"
        "grad_power_top10,repeat"
    )
    assert len(lines) == 1 + 4 * 2
    last = lines[-1].split(",")
    assert len(last) == 12
    assert last[-1] == "1"  # repeat index of the final record


def test_sweep_csv_rows_round_trip_to_records(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg_path, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    columns = lines[0].split(",")
    parse = {f.name: int if f.type in (int, "int") else float
             for f in fields(SweepRecord)}
    parsed = [
        SweepRecord(**{k: parse[k](v) for k, v in zip(columns, line.split(","))})
        for line in lines[1:]
    ]
    params = ModelParams(n_examples=60, n_classes=5, n_weights=120, hyperplane_dim=6)
    assert parsed == run_sigma_z_sweep(params, SweepSpec(points=4, repeats=2))
    assert all(type(r.n_outliers) is int and type(r.repeat) is int for r in parsed)


def test_failing_sweep_point_is_named(tmp_path, capsys):
    # every row frozen onto its label: a zero gradient that only the draw shows
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(
        SMALL_CFG + "target_accuracy = 1\nsigma_z_min = 1e5\nsigma_z_max = 1e6\n"
    )
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "sweep point 0 (sigma_z=100000) repeat 0: gradient is zero" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("stage", ["_sweep_record", "_draw"])
def test_failing_sweep_keeps_the_rows_finished_before_it(tmp_path, capsys, monkeypatch, stage):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    full = tmp_path / "full"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", full]) == 0
    original = getattr(experiments, stage)

    def fail_at_task_3(point, prefix, *args, **kwargs):
        if prefix == "sweep:1:1:":  # 4 points x 2 repeats: the fourth task
            raise ValueError("planted failure")
        return original(point, prefix, *args, **kwargs)

    monkeypatch.setattr(experiments, stage, fail_at_task_3)
    out = tmp_path / "partial"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out, "--json"]) == 1
    captured = capsys.readouterr()
    assert "sweep point 1 (sigma_z=0.0464159) repeat 1: planted failure" in captured.err
    assert captured.out == ""
    # the header and tasks 0-2, byte for byte; no summary
    rows = (full / "sweep.csv").read_bytes().splitlines(keepends=True)[:4]
    assert (out / "sweep.csv").read_bytes() == b"".join(rows)
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]


@pytest.mark.parametrize(
    "extra, message",
    [
        # (1e-3/15)^200 underflows: sigma_c = sigma_e = 0 in tied mode
        ("gamma = 200", "sweep point 0 (sigma_z=0.001) repeat 0: (sigma_z/15)"
         "^gamma underflows to sigma_c = sigma_e = 0"),
        # point 0 runs, but point 1's sigma_c^2 and with it H overflow
        ("sigma_z_min = 20\ngamma = 400", "sweep point 1 (sigma_z=44.7214) repeat 0: "
         "sigma_c must be 0 or have a square in [2.22507e-308, inf), "
         "got 5.369141968010673e+188"),
    ],
    ids=["underflow", "overflow"],
)
def test_sweep_whose_scaling_cannot_run_fails_before_any_draw(
    tmp_path, capsys, monkeypatch, extra, message
):
    calls = []
    monkeypatch.setattr(
        experiments, "logit_gradient_blocks", lambda *a: calls.append(a)
    )
    cfg = tmp_path / "scale.cfg"
    small = SMALL_CFG.replace("points = 4", "points = 3").replace("repeats = 2", "repeats = 1")
    cfg.write_text(small + extra + "\n")
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (out / "sweep.csv").exists()


def test_a_zero_scale_stays_zero_where_the_sweep_factor_is_infinite(tmp_path, capsys):
    # (1e-200 / 1e200) ** -1 is inf; sigma_c = 0 must stay 0, not become 0 * inf = nan,
    # and the fixed sigma_e keeps its value
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("sigma_z = 1e200\nsigma_z_min = 1e-200\nsigma_z_max = 1e-190\ngamma = -1\n"
                   "n_examples = 10\nn_classes = 3\nn_weights = 5\nhyperplane_dim = 2\n"
                   "points = 2\nrepeats = 1\nsigma_c = 0\nfixed_sigma_e = true\n")
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 0, capsys.readouterr().err
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[:, 1].tolist() == [0.0, 0.0]


SIGMA_Z_BOUND = "sigma_z must be at most 1.04858e+307"
SIGMA_C_SQUARE = "sigma_c must be 0 or have a square in [2.22507e-308, inf), got "
SIGMA_E_SQUARE = SIGMA_C_SQUARE.replace("sigma_c", "sigma_e")
ZERO_SIGMAS = "sigma_c = sigma_e = 0 makes every gradient and the Hessian zero"


@pytest.mark.parametrize(
    "command, config, message",
    [
        # a logit gap of 2 * 8.572 * sigma_z overflows
        ("spectrum", SMALL_CFG + "sigma_z = 1e308", SIGMA_Z_BOUND),
        ("freeze", SMALL_CFG + "sigma_z_max = 1e308",
         "error: freeze point 3 (sigma_z=1e+308): " + SIGMA_Z_BOUND),
        ("freeze", SMALL_CFG + "sigma_z_max = 2e307",
         "error: freeze point 3 (sigma_z=2e+307): " + SIGMA_Z_BOUND),
        ("sweep-sigmaz", SMALL_CFG + "sigma_z_max = 1e308",
         "sweep point 3 (sigma_z=1e+308) repeat 0: " + SIGMA_Z_BOUND),
        # 80 TiB of logits, and a grid of 8 TB
        ("freeze", "n_examples = 1099511627776", "1099511627776x10 logit ensemble "
         "with its temporaries needs 703687441776640 bytes"),
        ("freeze", "points = 1000000000000", "a grid of 1000000000000 points needs "
         "8000000000000 bytes, over the 2147483648-byte memory limit"),
        ("sweep-sigmaz", "points = 1000000000000", "a grid of 1000000000000 points"),
        # the sweep scales sigma_c by (sigma_z / the model's sigma_z)^gamma
        ("sweep-sigmaz", SMALL_CFG + "sigma_z = 0", "a sigma_z sweep scales around the "
         "model's sigma_z, which must not be 0"),
        # squares that overflow or underflow: garbage statistics or a misleading error
        ("cluster", SMALL_CFG + "sigma_e = 1e200", SIGMA_E_SQUARE + "1e+200"),
        ("spectrum", SMALL_CFG + "sigma_e = 1e200", SIGMA_E_SQUARE + "1e+200"),
        ("cluster", SMALL_CFG + "sigma_c = 1e-200\nsigma_e = 1e-200", SIGMA_C_SQUARE + "1e-200"),
        ("spectrum", SMALL_CFG + "sigma_c = 1e-200\nsigma_e = 1e-200", SIGMA_C_SQUARE + "1e-200"),
        # row norms would sum 120 squares of entries up to 8.572 * 2e153
        ("cluster", SMALL_CFG + "sigma_c = 1e153\nsigma_e = 1e153", "sigma_c must be at most "
         "2.25764e+151, past which sums of squares of the gradients overflow, got 1e+153"),
        # every point would have sigma_e = sigma_c/sqrt(snr) = 0
        ("sweep-snr", SMALL_CFG + "sigma_c = 0", "an snr sweep needs sigma_c > 0"),
        # sigma_e = sigma_c / sqrt(0.01) passes the sums bound at the last point only
        ("sweep-snr", "sigma_c = 1e150", "error: snr point 4 (snr=0.01): "
         "sigma_e must be at most 7.13929e+150"),
        # q_sl averages pairs of examples: one example has none
        ("sweep-snr", "n_examples = 1\nn_classes = 3\nn_weights = 5\nhyperplane_dim = 2",
         "error: need at least 2 examples, got 1"),
        # (1e-200 / 1e200) ** -1: the ratio underflows to 0, whose negative power is inf
        ("sweep-sigmaz", "sigma_z = 1e200\nsigma_z_min = 1e-200\nsigma_z_max = 1e-190\n"
         "gamma = -1\nn_examples = 10\nn_classes = 3\nn_weights = 5\nhyperplane_dim = 2\n"
         "points = 2\nrepeats = 1", "error: sweep point 0 (sigma_z=1e-200) repeat 0: "
         "sigma_c must be a finite nonnegative real, got inf"),
        # removed keys: the log grid and --out replace them, sigma_z replaces sigma_z_ref
        ("sweep-sigmaz", SMALL_CFG + "scale = linear", "unknown key 'scale'"),
        ("sweep-sigmaz", SMALL_CFG + "sigma_z_ref = 5", "unknown key 'sigma_z_ref'"),
        ("spectrum", SMALL_CFG + "output_dir = results", "unknown key 'output_dir'"),
        # every gradient and H would be zero: no trace ratio, no overlaps
        *((command, SMALL_CFG + "sigma_c = 0\nsigma_e = 0", ZERO_SIGMAS)
          for command in ("spectrum", "project", "overlap", "sweep-sigmaz", "cluster")),
    ],
    ids=["spectrum-sigma_z", "freeze-sigma_z", "freeze-sigma_z-2e307",
         "sweep-sigma_z", "freeze-memory", "freeze-points", "sweep-points",
         "sweep-sigma_z-0", "cluster-sigma_e-overflow", "spectrum-sigma_e-overflow",
         "cluster-underflow", "spectrum-underflow", "cluster-sums-overflow", "snr-sigma_c-0",
         "snr-sigma_e-overflow", "snr-one-example", "sweep-gamma-underflow",
         "key-scale", "key-sigma_z_ref", "key-output_dir", "spectrum-sigmas-0",
         "project-sigmas-0", "overlap-sigmas-0", "sweep-sigmas-0", "cluster-sigmas-0"],
)
def test_config_that_cannot_run_fails_before_any_draw(
    tmp_path, capsys, monkeypatch, command, config, message
):
    no_draws(monkeypatch)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line, line
    assert list(out.glob("*")) == []


NO_OPENBLAS = "need numpy linked to an OpenBLAS that exports dsyrk, dsymm, dsyevr and dsyevd"


@pytest.mark.parametrize(
    "command, n_weights, extra, message",
    [("spectrum", 3000, "", NO_OPENBLAS), ("sweep-sigmaz", 3000, "", NO_OPENBLAS),
     # the config and the memory guard are checked first
     ("spectrum", 3000, "no_such_key = 1", "unknown key 'no_such_key'"),
     ("sweep-sigmaz", 20000, "", "over the 2147483648-byte memory limit")],
    ids=["spectrum", "sweep-sigmaz", "config-first", "memory-first"],
)
def test_hessian_commands_without_openblas_fail_before_any_buffer(
    tmp_path, capsys, monkeypatch, command, n_weights, extra, message
):
    no_draws(monkeypatch)
    monkeypatch.setattr(spectra, "openblas_libraries", lambda: [])  # none mapped
    spectra.openblas_routines.cache_clear()
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(SMALL_CFG.replace("= 120", f"= {n_weights}") + extra + "\n")
    tracemalloc.start()
    try:
        assert run([command, "--config", cfg, "--out", out]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line, line
    assert peak < 500_000, peak  # half of a 1 MB block: no block or H is allocated
    assert list(out.glob("*")) == []


def test_freeze_rejects_an_oversized_grid_before_building_it(tmp_path, capsys):
    # 20M points pass SweepSpec's 8-byte-a-point cap, but not the results' 12 KB
    # a point at C = 3; the grid itself would take 160 MB and numpy twice that
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("n_classes = 3\npoints = 20000000\n")
    out = tmp_path / "out"
    peak = peak_bytes(run, ["freeze", "--config", cfg, "--out", out])
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: 20000000-point freezing grid with its results needs "
                           "245760000000 bytes"), line
    assert peak < 2**20, peak
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["spectrum", "project", "overlap"])
def test_a_zero_hessian_fails_without_writing_a_file(tmp_path, capsys, command):
    # every row freezes one-hot, so H = 0: its trace ratio is undefined and
    # its eigenbasis arbitrary (the gradient is not zero: some labels miss)
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text("n_examples = 50\nn_weights = 100\nsigma_z = 1e6\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert "spectral norm is zero" in capsys.readouterr().err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["cluster", "spectrum", "overlap"])
def test_sigmas_under_the_sum_bound_run(tmp_path, command):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(SMALL_CFG + "sigma_c = 1e150\nsigma_e = 1e150\n")
    # pytest turns a RuntimeWarning, such as an overflow, into a failure
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 0


def test_cluster_checks_class_counts_before_drawing_the_tensor(tmp_path, capsys, monkeypatch):
    # 9 labels cannot give 5 classes two examples each; the tensor would be 360 MB
    no_draws(monkeypatch, ["logit_gradient_blocks"])
    cfg = tmp_path / "few.cfg"
    cfg.write_text("n_examples = 9\nn_classes = 5\nn_weights = 1000000\n")
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg, "--out", out]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: class ") and "need at least 2" in line, line
    assert list(out.glob("*")) == []


def test_freeze_at_the_largest_sigma_z_writes_finite_values(tmp_path):
    cfg = tmp_path / "freeze.cfg"
    cfg.write_text(
        "n_examples = 200\nn_weights = 20\nhyperplane_dim = 5\n"
        "sigma_z_max = 1e307\npoints = 3\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["freeze", "--config", cfg, "--out", out, "--json"]) == 0
    lines = (out / "freezing.csv").read_text().splitlines()
    assert len(lines) == 1 + 3
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.isfinite(values).all()


@pytest.mark.parametrize("n_weights", [0, -4])
def test_nonpositive_n_weights_is_a_config_error(tmp_path, capsys, n_weights):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"n_weights = {n_weights}\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "n_weights must be a positive integer" in err
    assert f"got {n_weights}\n" in err


def test_sweep_sigmaz_reruns_byte_identical(cfg_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["sweep-sigmaz", "--config", cfg_path, "--out", out_a]) == 0
    assert run(["sweep-sigmaz", "--config", cfg_path, "--out", out_b]) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


# spectrum, overlap, then sweep-sigmaz, into sys.argv[2]
THREE_COMMANDS = (
    "import sys\n"
    "from lossgeom.cli import run_command\n"
    "for command in ('spectrum', 'overlap', 'sweep-sigmaz'):\n"
    "    assert run_command([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
)


def test_values_agree_to_roundoff_across_numpy_cpu_dispatch(cfg_path, tmp_path, monkeypatch):
    # numpy picks its exp and log1p kernels by CPU feature at run time, so the
    # draws' bits depend on the dispatch level, but values agree to roundoff.
    # The variable acts only on the interpreter started with it. On a CPU
    # without AVX-512 it turns nothing off and the two runs coincide: the same
    # checks then hold at zero difference.
    plain, other = tmp_path / "plain", tmp_path / "no-avx512"
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    for out in (plain, other):
        result = fresh_python("-c", THREE_COMMANDS, cfg_path, out)
        assert result.returncode == 0, result.stderr
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")

    def agree(a, b, slack=0.0):  # within 1e-12 of each column's largest magnitude
        a, b = np.atleast_1d(a).astype(float), np.atleast_1d(b).astype(float)
        return a.shape == b.shape and np.all(
            np.abs(b - a) <= 1e-12 * np.abs(a).max(axis=0, initial=0.0) + slack)

    def csv(out, name):
        return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)

    assert agree(csv(plain, "spectrum.csv"), csv(other, "spectrum.csv"))
    a, b = (json.loads((out / "outliers.json").read_text()) for out in (plain, other))
    assert a.keys() == b.keys() and all(agree(a[key], b[key]) for key in a)
    # a cosine is determined as far as its eigenvector is: within eps * sqrt(D)
    # / gap (Davis-Kahan), the gap to its nearest eigenvalue over the top one
    params, spec = parse_config(cfg_path)
    lam = np.linalg.eigvalsh(model_hessian(sample_logit_gradients(params),
                                           sample_ensemble(params)))[::-1]
    steps = np.abs(np.diff(lam))
    gap = np.minimum(np.r_[np.inf, steps], np.r_[steps, np.inf]) / lam[0]
    a, b = csv(plain, "overlaps.csv"), csv(other, "overlaps.csv")
    assert a.shape == b.shape and a[:, 0].tolist() == b[:, 0].tolist()
    assert np.all(np.abs(b[:, 1] - a[:, 1]) * gap <= 2.2e-16 * np.sqrt(params.n_weights))
    assert abs(b[9, 2] - a[9, 2]) <= 1e-14 and abs(b[-1, 2] - a[-1, 2]) <= 1e-14
    a, b = (json.loads((out / "overlap.json").read_text()) for out in (plain, other))
    assert a.keys() == b.keys() and all(agree(a[key], b[key]) for key in a)
    power = SWEEP_CSV_HEADER.split(",").index("grad_power_top10")
    a, b = csv(plain, "sweep.csv"), csv(other, "sweep.csv")
    assert agree(np.delete(a, power, axis=1), np.delete(b, power, axis=1))
    # the top-10 power is determined only as far as the span of the top 10
    # eigenvectors is: within eps * sqrt(D) / gap (Davis-Kahan), for the gap
    # under the 10th eigenvalue over the top one. It is about 1e-3 at most
    # tasks, but 1e-9 where sigma_z = 100 freezes the rows into H's near-null
    # space, and the power moves by 3e-10 there.
    gaps = []
    for _, _, point, prefix in sweep_tasks(params, spec):
        hessian = model_hessian(sample_logit_gradients(point, prefix),
                                sample_ensemble(point, prefix))
        lam = np.linalg.eigvalsh(hessian)[::-1]
        gaps.append((lam[9] - lam[10]) / lam[0])
    bound = 2.2e-16 * np.sqrt(params.n_weights) / np.array(gaps)
    assert agree(a[:, power], b[:, power], bound)


def test_seed_override_changes_output(cfg_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["spectrum", "--config", cfg_path, "--out", out_a]) == 0
    assert run(["spectrum", "--config", cfg_path, "--out", out_b, "--seed", 5]) == 0
    assert (out_a / "spectrum.csv").read_text() != (out_b / "spectrum.csv").read_text()


def test_sweep_snr_outputs(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run(["sweep-snr", "--config", cfg_path, "--out", out]) == 0
    lines = (out / "snr_sweep.csv").read_text().splitlines()
    assert lines[0] == "snr,n_outliers,q_sl"
    assert len(lines) == 6
    assert lines[1].startswith("10,")


def test_freeze_outputs_with_three_classes(tmp_path):
    cfg = tmp_path / "freeze.cfg"
    cfg.write_text(
        "n_examples = 200\nn_classes = 3\nn_weights = 30\nhyperplane_dim = 3\n"
        "points = 3\n"
    )
    out = tmp_path / "out"
    assert run(["freeze", "--config", cfg, "--out", out]) == 0
    lines = (out / "freezing.csv").read_text().splitlines()
    assert lines[0] == "sigma_z,mean_entropy,mean_max_prob"
    assert len(lines) == 4
    simplex = (out / "simplex.csv").read_text().splitlines()
    assert simplex[0] == "sigma_z,x,y"
    assert len(simplex) == 1 + 3 * 200


def test_cluster_from_model_includes_prediction(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg_path, "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == "model"
    assert "predicted_q_sl" in payload
    assert abs(payload["q_sl"] - payload["predicted_q_sl"]) < 0.1
    on_disk = json.loads((out / "clustering.json").read_text())
    assert on_disk == payload


@pytest.mark.parametrize(
    "sigma_c, sigma_e, predicted", [("1e150", "1e-150", 1.0), ("1e-150", "1e150", 0.0)],
    ids=["snr-overflows", "snr-underflows"],
)
def test_cluster_predicts_q_at_extreme_scale_ratios(tmp_path, capsys, sigma_c, sigma_e,
                                                      predicted):
    # (sigma_c/sigma_e)^2 = 1e600 once raised OverflowError after the clustering ran
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text(SMALL_CFG + f"sigma_c = {sigma_c}\nsigma_e = {sigma_e}\n")
    out = tmp_path / "out"
    assert run(["cluster", "--config", cfg, "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted_q_sl"] == predicted
    assert json.loads((out / "clustering.json").read_text()) == payload


def test_cluster_from_dump(cfg_path, tmp_path, capsys):
    params = ModelParams(n_examples=30, n_classes=4, n_weights=40, hyperplane_dim=4)
    grads = sample_logit_gradients(params)
    labels = sample_ensemble(params).labels
    dump_path = tmp_path / "input.lgrd"
    write_dump(str(dump_path), grads, labels)
    out = tmp_path / "out"
    code = run(["cluster", "--config", cfg_path, "--out", out,
                "--input", dump_path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == str(dump_path)
    assert "predicted_q_sl" not in payload
    assert len(payload["per_class_q"]) == 4


@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("source", ["model", "x.lgrd", "x.csv"])
def test_blocked_cluster_writes_the_whole_tensor_report(tmp_path, monkeypatch, source, rows):
    # 53 examples: blocks of 16 leave a ragged last block of 5. At this shape
    # and seed, adding each block's row sum at once (not row by row) moves q_dl.
    params = ModelParams(n_examples=53, n_classes=4, n_weights=64, hyperplane_dim=4, seed=3)
    tensor, labels = sample_logit_gradients(params), sample_ensemble(params).labels
    with experiments.one_blas_thread():
        expected = clustering_report(tensor, labels)  # one block of the whole tensor
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", rows * 8 * 4 * 64)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_examples = 53\nn_classes = 4\nn_weights = 64\nhyperplane_dim = 4\n")
    args = ["cluster", "--config", cfg, "--seed", "3", "--out", tmp_path / "out"]
    if source != "model":
        write_dump(str(tmp_path / source), tensor, labels)
        args += ["--input", tmp_path / source]
    assert run(args) == 0
    payload = json.loads((tmp_path / "out" / "clustering.json").read_text())
    assert [payload[k].hex() for k in ("q_sl", "q_slsc", "q_dl")] == [
        expected.q_sl.hex(), expected.q_slsc.hex(), expected.q_dl.hex()]
    assert [v.hex() for v in payload["per_class_q"]] == [
        float(v).hex() for v in expected.per_class_q]


def test_project_reports_interlacing(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["project", "--config", cfg_path, "--out", out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["interlacing_ok"] is True
    assert payload["top_projected"] <= payload["top_full"] * (1 + 1e-9)
    lines = (out / "projected_spectrum.csv").read_text().splitlines()
    assert len(lines) == 1 + 6


def test_defaults_run_without_config(tmp_path):
    # No --config: reference parameters, but on a faster subcommand.
    out = tmp_path / "out"
    assert run(["freeze", "--out", out]) == 0
    assert (out / "freezing.csv").exists()


def test_missing_config_gives_exit_2(tmp_path):
    code = run(["spectrum", "--config", tmp_path / "none.cfg", "--out", tmp_path])
    assert code == 2


def test_bad_config_gives_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 1\n")
    code = run(["spectrum", "--config", cfg, "--out", tmp_path / "o"])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_dump_gives_exit_1(cfg_path, tmp_path):
    dump = tmp_path / "junk.lgrd"
    dump.write_bytes(b"NOPE" + b"\x00" * 32)
    code = run(["cluster", "--config", cfg_path, "--out", tmp_path / "o",
                "--input", dump])
    assert code == 1


def test_malformed_csv_dump_gives_exit_1_naming_the_file(cfg_path, tmp_path, capsys):
    dump = tmp_path / "ragged.csv"
    dump.write_text("1,2,3\n4,5\n" + "1,2,3\n" * 6)
    # two examples a class, so the class counts pass and the ragged row is reached
    (tmp_path / "ragged.labels.csv").write_text("0\n0\n1\n1\n")
    code = run(["cluster", "--config", cfg_path, "--out", tmp_path / "o", "--input", dump])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {dump}: the number of columns changed"), line


@pytest.mark.parametrize("name, value", [("nan.lgrd", np.nan), ("inf.csv", np.inf)])
def test_non_finite_dump_gives_exit_1_and_no_json(
    cfg_path, tmp_path, capsys, name, value
):
    params = ModelParams(n_examples=30, n_classes=4, n_weights=40, hyperplane_dim=4)
    grads = sample_logit_gradients(params)
    grads[2, 1, 3] = value
    dump = tmp_path / name
    write_dump(str(dump), grads, sample_ensemble(params).labels)
    out = tmp_path / "o"
    code = run(["cluster", "--config", cfg_path, "--out", out,
                "--input", dump, "--json"])
    assert code == 1
    captured = capsys.readouterr()
    assert "non-finite value" in captured.err
    assert "example 2, logit 1, weight 3" in captured.err
    assert captured.out == ""
    assert not (out / "clustering.json").exists()


def test_zero_gradient_row_in_dump_gives_exit_1_and_no_json(cfg_path, tmp_path, capsys):
    tensor = np.random.default_rng(0).standard_normal((6, 2, 5))
    tensor[1, 0] = 0.0
    dump = tmp_path / "zero.lgrd"
    write_dump(str(dump), tensor, np.array([0, 0, 0, 1, 1, 1]))
    out = tmp_path / "o"
    code = run(["cluster", "--config", cfg_path, "--out", out,
                "--input", dump, "--json"])
    assert code == 1
    captured = capsys.readouterr()
    assert "zero gradient vector at example 1, logit 0" in captured.err
    assert captured.out == ""
    assert not (out / "clustering.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_payload_that_cannot_be_serialized_leaves_no_file(
    cfg_path, tmp_path, capsys, monkeypatch, value
):
    # spectrum.csv comes before outliers.json, but the one writer serializes
    # every JSON payload before it opens the first file
    def bad_edge(params):
        spectrum, report = run_spectrum_experiment(params)
        return spectrum, replace(report, bulk_edge=value)

    monkeypatch.setattr(cli, "run_spectrum_experiment", bad_edge)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg_path, "--out", out, "--json"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: Out of range float values are not JSON compliant")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_unknown_subcommand_gives_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert "usage error" in capsys.readouterr().err
