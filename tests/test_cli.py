import json
from dataclasses import fields

import numpy as np
import pytest

from lossgeom import (
    ModelParams,
    SweepRecord,
    SweepSpec,
    run_sigma_z_sweep,
    sample_ensemble,
    sample_logit_gradients,
    write_dump,
)
from lossgeom import experiments
from lossgeom.cli import SWEEP_CSV_HEADER, _write_json, run_command


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


@pytest.mark.parametrize(
    "extra, message",
    [
        ("gamma = 0.5", "gamma = 0.5 in tied sigma_e mode gives sigma_c = sigma_e = 0"),
        ("gamma = -0.5", "gamma = -0.5 in tied sigma_e mode gives an infinite sigma_c"),
        ("gamma = -0.5\nfixed_sigma_e = true", "gamma = -0.5 in fixed sigma_e mode"),
    ],
)
def test_sweep_from_zero_that_cannot_run_is_rejected_by_the_config(
    tmp_path, capsys, extra, message
):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(SMALL_CFG + f"scale = linear\nsigma_z_min = 0\n{extra}\n")
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"zero.cfg: sigma_z_min = 0 with {message}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        # (1e-3/15)^200 underflows: sigma_c = sigma_e = 0 in tied mode
        ("gamma = 200", "sweep point 0 (sigma_z=0.001) repeat 0: (sigma_z/sigma_z_ref)"
         "^gamma underflows to sigma_c = sigma_e = 0"),
        # point 0 runs, but point 1's sigma_c^2 and with it H overflow
        ("sigma_z_min = 20\ngamma = 400", "sweep point 1 (sigma_z=44.7214) repeat 0: "
         "(sigma_z/sigma_z_ref)^gamma = 5.8816e+189 gives sigma_c = 5.36914e+188, "
         "whose square overflows"),
    ],
    ids=["underflow", "overflow"],
)
def test_sweep_whose_scaling_cannot_run_fails_before_any_draw(
    tmp_path, capsys, monkeypatch, extra, message
):
    calls = []
    monkeypatch.setattr(
        experiments, "sample_logit_gradients", lambda *a: calls.append(a)
    )
    cfg = tmp_path / "scale.cfg"
    small = SMALL_CFG.replace("points = 4", "points = 3").replace("repeats = 2", "repeats = 1")
    cfg.write_text(small + extra + "\n")
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (out / "sweep.csv").exists()


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


def test_json_with_nan_is_rejected_before_the_file_is_created(tmp_path):
    path = tmp_path / "payload.json"
    with pytest.raises(ValueError):
        _write_json(str(path), {"q_sl": float("nan")})
    assert not path.exists()


def test_unknown_subcommand_gives_exit_1(capsys):
    assert run(["no-such-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_svg_emission(tmp_path):
    cfg = tmp_path / "svg.cfg"
    cfg.write_text(SMALL_CFG + "emit_svg = true\n")
    out = tmp_path / "out"
    assert run(["sweep-sigmaz", "--config", cfg, "--out", out]) == 0
    assert (out / "sweep.svg").exists()
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    assert (out / "spectrum.svg").exists()
