from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from helpers import full_solve_sweep
from lossgeom import (
    ModelParams,
    SweepRecord,
    SweepSpec,
    run_clustering_experiment,
    run_freezing_experiment,
    run_overlap_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
)
from lossgeom import experiments

SMALL = ModelParams(n_examples=60, n_classes=5, n_weights=120, hyperplane_dim=6)


def test_sweep_spec_grid_endpoints_and_scale():
    spec = SweepSpec()
    grid = spec.grid()
    assert grid.shape == (25,)
    assert np.isclose(grid[0], 1e-3)
    assert np.isclose(grid[-1], 1e2)
    # log spacing: constant successive ratios
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)

    linear = SweepSpec(
        sigma_z_min=0.0, sigma_z_max=1.0, points=5, scale="linear", gamma=0.0
    )
    assert np.allclose(linear.grid(), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(scale="cubic")
    with pytest.raises(ValueError):
        SweepSpec(sigma_z_min=1.0, sigma_z_max=0.1)
    with pytest.raises(ValueError):
        SweepSpec(sigma_z_min=0.0, scale="log")
    with pytest.raises(ValueError):
        SweepSpec(points=1)
    with pytest.raises(ValueError):
        SweepSpec(repeats=0)
    with pytest.raises(ValueError):
        SweepSpec(sigma_z_ref=0.0)
    with pytest.raises(ValueError, match="need 0 < sigma_z_ref < inf"):
        SweepSpec(sigma_z_ref=float("inf"))
    with pytest.raises(ValueError, match="sigma_z_max must be finite"):
        SweepSpec(sigma_z_max=float("inf"))
    # a linear grid from 0 that cannot run its first point
    zero = dict(sigma_z_min=0.0, sigma_z_max=1.0, scale="linear")
    for gamma, fixed in ((0.5, False), (-0.5, False), (-0.5, True)):
        with pytest.raises(ValueError, match="sigma_z_min = 0 with gamma"):
            SweepSpec(**zero, gamma=gamma, fixed_sigma_e=fixed)


@pytest.mark.parametrize("gamma, fixed", [(0.5, True), (0.0, False), (0.0, True)])
def test_accepted_sweeps_from_zero_complete(gamma, fixed):
    spec = SweepSpec(
        sigma_z_min=0.0, sigma_z_max=1.0, points=2, scale="linear", gamma=gamma,
        repeats=1, fixed_sigma_e=fixed,
    )
    records = run_sigma_z_sweep(SMALL, spec)
    assert [r.sigma_z for r in records] == [0.0, 1.0]
    assert all(np.isfinite(astuple(r)).all() for r in records)


def test_spectrum_experiment_reference_outlier_count():
    spectrum, report = run_spectrum_experiment(ModelParams())
    assert spectrum.eigenvalues.shape == (1000,)
    assert report.n_outliers == 9
    assert report.outlier_values.min() > report.bulk_edge
    # exact rerun determinism
    spectrum2, report2 = run_spectrum_experiment(ModelParams())
    assert np.array_equal(spectrum.eigenvalues, spectrum2.eigenvalues)
    assert report2.n_outliers == 9


def test_spectrum_experiment_no_signal_no_outliers():
    params = ModelParams(
        n_examples=80, n_classes=5, n_weights=160, sigma_c=0.0, hyperplane_dim=6
    )
    _, report = run_spectrum_experiment(params)
    assert report.n_outliers == 0


def test_overlap_experiment_confinement_without_noise():
    # sigma_e = 0 confines the gradient to the rank-(C-1) mean subspace, so
    # the top C eigenvectors capture essentially all of it.
    params = ModelParams(
        n_examples=80, n_classes=5, n_weights=160, sigma_e=0.0, hyperplane_dim=6
    )
    cosines, cumulative = run_overlap_experiment(params)
    assert cumulative.shape == (160,)
    assert cumulative[4] > 0.999
    assert np.isclose(cumulative[-1], 1.0, atol=1e-9)


def test_overlap_experiment_pure_noise_loses_confinement():
    # Without class means there is no low-rank signal subspace. The gradient
    # and Hessian still share the residual draw, which leaves some alignment,
    # but the top-10 power drops far below the with-signal values (~0.6-0.8).
    params = ModelParams(sigma_c=0.0, seed=2)
    _, cumulative = run_overlap_experiment(params)
    assert cumulative[9] < 0.3


def test_sweep_records_fields_and_determinism():
    spec = SweepSpec(points=3, repeats=2)
    records = run_sigma_z_sweep(SMALL, spec)
    assert len(records) == 6
    grid = spec.grid()
    for i, point in enumerate(grid):
        for rep in range(2):
            rec = records[2 * i + rep]
            assert rec.sigma_z == pytest.approx(float(point))
            assert rec.repeat == rep
            factor = (point / spec.sigma_z_ref) ** spec.gamma
            assert rec.sigma_c == pytest.approx(SMALL.sigma_c * factor)
            assert rec.spectral_norm > 0
            assert rec.trace_ratio == pytest.approx(rec.trace / rec.spectral_norm)
            assert 0.0 <= rec.grad_power_top10 <= 1.0 + 1e-12
            assert 0.0 <= rec.mean_max_prob <= 1.0
            assert rec.mean_entropy >= 0.0
            assert rec.n_outliers >= 0
    again = run_sigma_z_sweep(SMALL, spec)
    assert records == again


@pytest.mark.parametrize(
    "params",
    [
        # 3C+1 = 7 eigenvalues are fewer than the 10 eigenvectors of the power
        ModelParams(n_examples=200, n_classes=2, n_weights=300, seed=4),
        # D <= 3C+1: the top-k request clamps to the whole spectrum
        ModelParams(n_examples=30, n_classes=4, n_weights=12, hyperplane_dim=5, seed=1),
    ],
    ids=["C=2", "D<=3C+1"],
)
def test_sweep_records_match_full_solve_at_small_c_and_d(params):
    spec = SweepSpec(points=3, repeats=2)
    records = run_sigma_z_sweep(params, spec)
    names = [f.name for f in fields(SweepRecord)]
    for record, want in zip(records, full_solve_sweep(params, spec), strict=True):
        got = astuple(record)
        for name, g, w in zip(names, got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0), (name, record)
        assert record.n_outliers == want[names.index("n_outliers")]


def test_sweeps_never_ask_for_a_whole_eigensystem(monkeypatch):
    calls = []
    solve = experiments.eigh

    def spy(matrix, top=None, vectors=True):
        calls.append((matrix.shape[0], top, vectors))
        return solve(matrix, top=top, vectors=vectors)

    monkeypatch.setattr(experiments, "eigh", spy)
    run_sigma_z_sweep(SMALL, SweepSpec(points=2, repeats=2))
    k = 3 * SMALL.n_classes + 1
    assert calls == [(120, k, True), (6, None, False)] * 4
    calls.clear()
    run_snr_sweep(SMALL, (10.0, 0.1))
    assert calls == [(120, k, False)] * 2


def test_sweep_repeats_differ():
    spec = SweepSpec(points=2, repeats=2)
    records = run_sigma_z_sweep(SMALL, spec)
    assert records[0].top_eigenvalue != records[1].top_eigenvalue


def test_sweep_entropy_decreases_with_sigma_z():
    spec = SweepSpec(points=6, repeats=1)
    records = run_sigma_z_sweep(SMALL, spec)
    entropies = [r.mean_entropy for r in records]
    assert entropies[0] > entropies[-1]
    assert records[0].mean_max_prob < records[-1].mean_max_prob


def test_sweep_gamma_zero_trace_ratio_non_increasing():
    # With gamma = 0 the gradient scales are constant and the trace ratio
    # decays as freezing kills per-example curvature; allow small noise.
    spec = SweepSpec(points=8, repeats=3, gamma=0.0)
    records = run_sigma_z_sweep(SMALL, spec)
    means = []
    for i in range(8):
        chunk = [r.trace_ratio for r in records[3 * i : 3 * i + 3]]
        means.append(np.mean(chunk))
    for left, right in zip(means, means[1:]):
        assert right <= left * 1.10, means


def test_sweep_fixed_sigma_e_mode_decays_harder():
    # Holding sigma_e fixed while sigma_c grows drives the ratio of SNRs and
    # hence the trace ratio down much harder across the grid.
    spec = SweepSpec(points=6, repeats=2)
    tied = run_sigma_z_sweep(SMALL, spec)
    fixed = run_sigma_z_sweep(SMALL, replace(spec, fixed_sigma_e=True))

    def endpoint_means(records):
        first = np.mean([r.trace_ratio for r in records[:2]])
        last = np.mean([r.trace_ratio for r in records[-2:]])
        return first, last

    t0, t1 = endpoint_means(tied)
    f0, f1 = endpoint_means(fixed)
    assert f0 / f1 > 5.0
    assert f0 / f1 > t0 / t1
    # sigma_c sequences agree between modes; only sigma_e differs
    assert [r.sigma_c for r in tied] == [r.sigma_c for r in fixed]


def test_snr_sweep_outliers_absorb_into_bulk():
    grid = (10.0, 2.04, 0.5, 0.1, 0.01)
    results = run_snr_sweep(ModelParams(), grid)
    assert [snr for snr, _, _ in results] == list(grid)
    counts = [n for _, n, _ in results]
    assert counts == sorted(counts, reverse=True)
    assert counts[1] == 9
    assert counts[-1] == 0
    qs = [q for _, _, q in results]
    assert qs == sorted(qs, reverse=True)


def test_snr_sweep_accepts_infinite_snr_and_rejects_nonpositive():
    params = ModelParams(n_examples=40, n_classes=4, n_weights=60, hyperplane_dim=5)
    results = run_snr_sweep(params, (float("inf"),))
    assert results[0][2] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="positive"):
        run_snr_sweep(params, (0.0,))


def test_freezing_experiment_curve_and_simplex():
    params = ModelParams(n_examples=3000, n_classes=10, seed=5)
    results = run_freezing_experiment(params, (1e-3, 15.0, 1e4))
    sigma, entropy, max_prob, simplex = results[0]
    assert sigma == 1e-3
    assert abs(entropy - np.log2(10.0)) < 0.02
    assert simplex.shape == (0, 2)  # only emitted for C=3
    assert results[-1][1] < 0.01
    assert results[-1][2] > 0.999
    assert results[0][2] < results[1][2] < results[2][2]


def test_freezing_experiment_simplex_coordinates_for_three_classes():
    params = ModelParams(n_examples=700, n_classes=3, n_weights=30, hyperplane_dim=3)
    results = run_freezing_experiment(params, (1.0,))
    simplex = results[0][3]
    assert simplex.shape == (500, 2)  # capped at the sample limit
    # Barycentric points stay inside the triangle's bounding box.
    assert simplex[:, 0].min() >= 0.0
    assert simplex[:, 0].max() <= 1.0
    assert simplex[:, 1].min() >= 0.0
    assert simplex[:, 1].max() <= np.sqrt(3.0) / 2.0 + 1e-12


TOO_MANY_RESIDUALS = ModelParams(n_examples=7000, n_classes=10, n_weights=1000)
RESIDUALS_MESSAGE = (
    "7000x10x1000 residual tensor with its temporaries needs 2240000000 bytes"
)


@pytest.mark.parametrize(
    "run, params, message",
    [
        (
            run_spectrum_experiment,
            ModelParams(n_examples=2, n_classes=2, n_weights=16385, hyperplane_dim=1),
            "dense 16385x16385 Hessian with its eigensolve needs 8590983200 bytes",
        ),
        (
            # 8 * D**2 fits, the solve's 4 * 8 * D**2 does not
            run_spectrum_experiment,
            ModelParams(n_examples=2, n_classes=2, n_weights=12000, hyperplane_dim=1),
            "dense 12000x12000 Hessian with its eigensolve needs 4608000000 bytes",
        ),
        (run_spectrum_experiment, TOO_MANY_RESIDUALS, RESIDUALS_MESSAGE),
        (run_clustering_experiment, TOO_MANY_RESIDUALS, RESIDUALS_MESSAGE),
    ],
    ids=["hessian", "hessian-solve", "residuals", "cluster"],
)
def test_memory_guard_rejects_before_sampling(monkeypatch, run, params, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled before the memory check")

    monkeypatch.setattr(experiments, "sample_ensemble", no_draws)
    monkeypatch.setattr(experiments, "sample_logit_gradients", no_draws)
    with pytest.raises(ValueError, match=message):
        run(params)


def test_clustering_is_not_held_to_the_hessian_memory_term():
    # 8 * 16385**2 bytes is over the limit, but clustering builds no Hessian.
    params = ModelParams(n_examples=8, n_classes=2, n_weights=16385, hyperplane_dim=1)
    report = run_clustering_experiment(params)
    assert report.per_class_q.shape == (2,)
