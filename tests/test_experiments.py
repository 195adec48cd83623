import ast
import ctypes
import math
import os
import threading
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    fresh_python, full_solve_sweep, model_hessian, no_draws, peak_bytes, q_sl, weight_gradient,
)
from lossgeom import (
    ModelParams,
    SweepError,
    SweepRecord,
    SweepSpec,
    run_clustering_experiment,
    run_freezing_experiment,
    run_overlap_experiment,
    run_projection_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
    sample_ensemble,
    sample_logit_gradients,
)
from lossgeom import experiments, gradients, spectra
from lossgeom.spectra import detect_outliers, eigh, gradient_overlaps

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


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(sigma_z_min=1.0, sigma_z_max=0.1)
    with pytest.raises(ValueError, match="need 0 < sigma_z_min"):
        SweepSpec(sigma_z_min=0.0)
    with pytest.raises(ValueError, match="need 0 < sigma_z_min"):
        SweepSpec(sigma_z_min=-1.0)
    with pytest.raises(ValueError):
        SweepSpec(points=1)
    with pytest.raises(ValueError):
        SweepSpec(repeats=0)
    with pytest.raises(ValueError, match="sigma_z_max < inf"):
        SweepSpec(sigma_z_max=float("inf"))
    with pytest.raises(ValueError, match="gamma must be finite"):
        SweepSpec(gamma=float("nan"))


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
            factor = (point / SMALL.sigma_z) ** spec.gamma
            assert rec.sigma_c == pytest.approx(SMALL.sigma_c * factor)
            assert rec.spectral_norm > 0
            assert rec.trace_ratio == pytest.approx(rec.trace / rec.spectral_norm)
            assert 0.0 <= rec.grad_power_top10 <= 1.0 + 1e-12
            assert 0.0 <= rec.mean_max_prob <= 1.0
            assert rec.mean_entropy >= 0.0
            assert rec.n_outliers >= 0
    again = run_sigma_z_sweep(SMALL, spec)
    assert records == again


def test_sweep_passes_through_the_model_at_its_own_sigma_z():
    params = replace(SMALL, sigma_z=10.0)
    spec = SweepSpec(sigma_z_min=1.0, sigma_z_max=100.0, points=3, repeats=1)
    records = run_sigma_z_sweep(params, spec)
    assert records[1].sigma_z == 10.0
    assert records[1].sigma_c == params.sigma_c
    assert records[2].sigma_c == pytest.approx(params.sigma_c * 10**0.5, rel=1e-15)


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
    assert calls == [(6, None, False), (120, k, True)] * 4  # each record projects H first
    calls.clear()
    run_snr_sweep(SMALL, (10.0, 0.1))
    assert calls == [(120, k, False)] * 2


def test_pipelined_sweep_equals_its_stages_run_serially(monkeypatch):
    # blocks of 16 examples (a ragged last one of 8): the worker draws the next
    # task, two blocks ahead on the sampling pool, while this thread solves
    params = ModelParams(n_examples=200, n_classes=5, n_weights=100, hyperplane_dim=6)
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 16 * 8 * 5 * 100)
    spec = SweepSpec(points=3, repeats=2)
    grid = (10.0, 0.5, float("inf"))

    def draw(point, prefix, reads):
        blocks = [np.empty((16, 5, 100)) for _ in range(experiments._BLOCKS)]
        # zeroed as the loop's H: eigh checks the lower triangle it does not read
        return experiments._draw(point, prefix, reads, blocks, np.zeros((100, 100)))

    serial, serial_snr = [], []
    spectra.load_lapack()  # as the loop does, so that the hold holds scipy's BLAS
    with experiments.one_blas_thread():
        for i, sigma_z in enumerate(spec.grid()):
            point = experiments._sweep_point(params, spec, float(sigma_z))
            for rep in range(spec.repeats):
                prefix = f"sweep:{i}:{rep}:"
                ensemble, gradient, hessian = draw(point, prefix, experiments._gradient)
                serial.append(experiments._sweep_record(
                    point, prefix, rep, ensemble, gradient, hessian
                ))
        for i, snr in enumerate(grid):
            sigma_e = 0.0 if math.isinf(snr) else params.sigma_c / math.sqrt(snr)
            point = replace(params, sigma_e=sigma_e)
            _, q, hessian = draw(point, f"snr:{i}:", experiments._same_logit_q)
            spectrum = eigh(hessian, top=3 * params.n_classes + 1, vectors=False)
            report = detect_outliers(spectrum, max_candidates=3 * params.n_classes)
            serial_snr.append((snr, report.n_outliers, q))
    assert run_sigma_z_sweep(params, spec) == serial
    assert run_snr_sweep(params, grid) == serial_snr


def test_every_hessian_is_drawn_and_assembled_in_the_one_loop():
    # a second use of either stage would fork the measurement path; the
    # whole-tensor sample_logit_gradients is its one-block case, and cluster,
    # which builds no Hessian, reads the blocks it draws
    uses = []
    stages = ("_draw", "logit_gradient_blocks", "fold_hessian")
    for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name in stages and isinstance(node.ctx, ast.Load):
                    uses.append((name, path.name, getattr(top, "name", None)))
    assert sorted(uses) == [
        ("_draw", "experiments.py", "_pipeline"),
        ("fold_hessian", "experiments.py", "_draw"),
        ("logit_gradient_blocks", "experiments.py", "_draw"),
        ("logit_gradient_blocks", "experiments.py", "run_clustering_experiment"),
        ("logit_gradient_blocks", "gradients.py", "sample_logit_gradients"),
    ]


def _fail_at(monkeypatch, stage, prefix):
    """Make ``experiments.<stage>`` raise for the task with label prefix ``prefix``."""
    original = getattr(experiments, stage)

    def failing(point, task_prefix, *args, **kwargs):
        if task_prefix == prefix:
            raise ValueError(f"{stage} failed")
        return original(point, task_prefix, *args, **kwargs)

    monkeypatch.setattr(experiments, stage, failing)


def test_sweep_error_names_the_first_failing_task_and_keeps_the_records_before_it(
    monkeypatch,
):
    spec = SweepSpec(points=3, repeats=2)
    full = run_sigma_z_sweep(SMALL, spec)
    # task 2 fails on the worker while the caller's draw of task 3 fails
    _fail_at(monkeypatch, "_sweep_record", "sweep:1:0:")
    _fail_at(monkeypatch, "_draw", "sweep:1:1:")
    with pytest.raises(SweepError) as caught:
        run_sigma_z_sweep(SMALL, spec)
    sigma_z = spec.grid()[1]
    assert str(caught.value) == f"sweep point 1 (sigma_z={sigma_z:g}) repeat 0: _sweep_record failed"
    assert caught.value.records == full[:2]
    monkeypatch.undo()
    _fail_at(monkeypatch, "_draw", "sweep:1:1:")
    with pytest.raises(SweepError, match=r"repeat 1: _draw failed$") as caught:
        run_sigma_z_sweep(SMALL, spec)
    assert caught.value.records == full[:3]


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


def test_snr_sweep_accepts_infinite_snr_and_rejects_nonpositive(monkeypatch):
    params = ModelParams(n_examples=40, n_classes=4, n_weights=60, hyperplane_dim=5)
    results = run_snr_sweep(params, (float("inf"),))
    assert results[0][2] == pytest.approx(1.0, abs=1e-12)
    no_draws(monkeypatch)  # the whole grid is checked before its first point runs
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=f"snr values must be positive, got {bad}"):
            run_snr_sweep(params, (1.0, bad))


@pytest.mark.parametrize("grid", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_snr_sweep_rejects_an_empty_grid(monkeypatch, grid):
    no_draws(monkeypatch)
    with pytest.raises(ValueError, match="^an snr sweep needs at least one snr value$"):
        run_snr_sweep(ModelParams(n_examples=40, n_classes=4, n_weights=60), grid)


def test_outputs_read_the_gradients_before_assembly_overwrites_them():
    # a fresh draw at the same prefix holds the gradients each output must read
    for i, (snr, _, q) in enumerate(run_snr_sweep(SMALL, (2.0, 0.5))):
        point = replace(SMALL, sigma_e=SMALL.sigma_c / math.sqrt(snr))
        assert q == q_sl(sample_logit_gradients(point, f"snr:{i}:"))
    cosines, cumulative = run_overlap_experiment(SMALL)
    with experiments.one_blas_thread():
        ensemble, tensor = sample_ensemble(SMALL), sample_logit_gradients(SMALL)
        gradient = weight_gradient(tensor, ensemble)
        expected = gradient_overlaps(eigh(model_hessian(tensor, ensemble)), gradient)
    assert np.array_equal(cosines, expected[0])
    assert np.array_equal(cumulative, expected[1])


def test_an_instance_holds_one_tensor():
    # Here the tensor is only three H: overlap holds H and its whole solve's
    # 2x H, 1.01x the tensor (1.44x when it folded the tensor as one block, and
    # 2.34x with a second copy of it). Neither holds the tensor itself
    # (test_overlap_holds_no_tensor, test_a_blocked_sweep_holds_no_tensor).
    params = ModelParams()
    tensor_bytes = 8 * params.n_examples * params.n_classes * params.n_weights
    peaks = {
        "2-task sweep": peak_bytes(run_sigma_z_sweep, params, SweepSpec(points=2, repeats=1)),
        "overlap": peak_bytes(run_overlap_experiment, params),
    }
    for name, peak in peaks.items():
        print(f"{name} peak: {peak / tensor_bytes:.2f}x the tensor")
        assert peak < 1.6 * tensor_bytes, name


def test_a_blocked_sweep_holds_no_tensor():
    # A sweep task draws and folds 1 MB blocks of examples, so a run holds its
    # two H (0.67x the tensor here), three blocks and the sampling chunks:
    # 0.90-0.92x the tensor by tracemalloc, against 1.52x when each task drew
    # the tensor.
    params = ModelParams()
    tensor_bytes = 8 * params.n_examples * params.n_classes * params.n_weights
    peak = peak_bytes(run_sigma_z_sweep, params, SweepSpec(points=3, repeats=1))
    print(f"3-task sweep peak: {peak / tensor_bytes:.2f}x the tensor")
    assert peak < 1.0 * tensor_bytes


def test_overlap_holds_no_tensor():
    # overlap folds 1 MB blocks like every Hessian output: 0.12x the tensor at
    # this tensor-dominated shape by tracemalloc, against 1.12x when it folded
    # the whole tensor as one block (scipy loaded first in both)
    params = ModelParams(n_examples=3000, n_classes=10, n_weights=200)
    tensor_bytes = 8 * params.n_examples * params.n_classes * params.n_weights
    spectra.load_lapack()  # importing scipy inside the trace would count its allocations
    peak = peak_bytes(run_overlap_experiment, params)
    print(f"overlap peak: {peak / tensor_bytes:.2f}x the tensor")
    assert peak < 0.25 * tensor_bytes


def test_overlap_writes_the_whole_tensor_formula_bit_for_bit():
    # SMALL's tensor fits in one block, which gives the bits of H = X^T X / N
    # over the whole tensor (test_blocked_overlap_moves_each_cosine_within_its_bound
    # covers tensors of many blocks)
    cosines, cumulative = run_overlap_experiment(SMALL)
    with experiments.one_blas_thread():
        ensemble, tensor = sample_ensemble(SMALL), sample_logit_gradients(SMALL)
        p, n = ensemble.probs, SMALL.n_examples
        coef = np.eye(SMALL.n_classes)[ensemble.labels] - p
        gradient = np.einsum("nc,ncd->d", coef, tensor) / n
        x = tensor - np.einsum("nc,ncd->nd", p, tensor)[:, np.newaxis, :]
        x *= np.sqrt(p)[:, :, np.newaxis]
        x = x.reshape(-1, SMALL.n_weights)
        expected = gradient_overlaps(eigh(x.T @ x / n), gradient)
    assert cosines.tobytes() == expected[0].tobytes()
    assert cumulative.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_blocked_overlap_moves_each_cosine_within_its_bound(seed):
    # Blocked sums move H by roundoff, eps * ||H||. An eigenvector then turns
    # by about eps * sqrt(D) / gap (Davis-Kahan), gap being the distance to
    # its nearest eigenvalue over lambda_1. Frozen rows leave a near-null
    # space, so only about 28% of the rows have a gap above 1e-6; the others
    # moved by up to 2.8e-7 against the whole-tensor fold, and none past the
    # bound (largest moves where the gap exceeds 1e-6: 6.3e-14, 4.6e-14 and
    # 1.1e-13 on seeds 1, 3 and 5).
    params = ModelParams(seed=seed)
    cosines, cumulative = run_overlap_experiment(params)
    with experiments.one_blas_thread():
        ensemble, tensor = sample_ensemble(params), sample_logit_gradients(params)
        gradient = weight_gradient(tensor, ensemble)  # before the fold overwrites the tensor
        whole = eigh(model_hessian(tensor, ensemble))
        expected, expected_cumulative = gradient_overlaps(whole, gradient)
    steps = np.abs(np.diff(whole.eigenvalues))
    gap = np.minimum(np.r_[np.inf, steps], np.r_[steps, np.inf]) / whole.eigenvalues[0]
    moved = np.abs(cosines - expected)
    eps = np.finfo(float).eps
    print(f"seed {seed}: largest move {moved.max():.2g}, where the gap exceeds 1e-6 "
          f"{moved[gap > 1e-6].max():.2g}, over {np.count_nonzero(gap > 1e-6)} rows")
    assert np.all(moved * gap <= eps * math.sqrt(params.n_weights))
    assert np.all(moved[gap > 1e-6] <= 1e-12)
    assert abs(cumulative[9] - expected_cumulative[9]) <= 1e-14
    assert abs(cumulative[-1] - expected_cumulative[-1]) <= 1e-14


def _has_malloc_trim() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except TypeError:  # no CDLL(None)
        return False


# two rounds of the three one-task Hessian commands at the reference config;
# prints the process's high-water mark after each round
ROUNDS = """
from lossgeom import (ModelParams, run_overlap_experiment, run_projection_experiment,
                      run_spectrum_experiment)
params = ModelParams(seed=3)
for _ in range(2):
    for run in (run_spectrum_experiment, run_overlap_experiment, run_projection_experiment):
        run(params)
    with open("/proc/self/status") as fh:
        print(next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or not _has_malloc_trim(),
                    reason="needs /proc/self/status and malloc_trim")
def test_a_run_returns_its_memory():
    # Each run trims the heap when it ends, so the second round reuses the
    # first round's peak. Without the trim, freed arrays of 8-24 MB stayed
    # resident and the second round rose 15.1-15.4 MiB (about two H) above
    # the first; it rises 2.2-2.6 MiB now.
    result = fresh_python("-c", ROUNDS)
    assert result.returncode == 0, result.stderr
    first, second = map(int, result.stdout.split())
    d = ModelParams().n_weights
    print(f"high-water mark {first / 2**20:.1f} -> {second / 2**20:.1f} MiB")
    assert second - first < 8 * d * d


@pytest.mark.parametrize("run", [
    run_spectrum_experiment, run_overlap_experiment, run_projection_experiment,
    lambda params: run_sigma_z_sweep(params, SweepSpec(points=2, repeats=2)),
    lambda params: run_snr_sweep(params, (10.0, 0.1)),
], ids=["spectrum", "overlap", "project", "sweep-sigmaz", "sweep-snr"])
def test_a_hessian_run_finishes_its_loop(monkeypatch, run):
    # a caller that stops iterating the loop early leaves its heap untrimmed
    # and, until the loop is collected, the BLAS hold taken
    trims = []
    monkeypatch.setattr(experiments, "_trim_heap", lambda: trims.append(1))
    run(SMALL)
    held = []

    def take():  # from another thread: the hold re-enters in this one
        held.append(experiments._HOLD.acquire(blocking=False))
        if held[0]:
            experiments._HOLD.release()

    other = threading.Thread(target=take)
    other.start()
    other.join()
    assert trims == [1]
    assert held == [True]


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
    ],
    ids=["hessian", "hessian-solve"],
)
def test_memory_guard_rejects_before_sampling(monkeypatch, run, params, message):
    no_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run(params)


@pytest.mark.parametrize("run", [run_spectrum_experiment, run_overlap_experiment,
                                 run_projection_experiment,
                                 lambda params: run_snr_sweep(params, (1.0,)),
                                 run_clustering_experiment])
def test_blocked_outputs_are_not_held_to_the_tensor_memory_term(monkeypatch, run):
    # 2 * 8 * N*C*D = 3.2e9 bytes for this tensor, but a blocked output holds
    # three blocks of 13 examples (cluster also C x D unit sums and N squared
    # norms): the guard passes, and the first draw follows
    no_draws(monkeypatch)
    with pytest.raises(AssertionError, match="sampled before the check"):
        run(ModelParams(n_examples=20_000, n_classes=10, n_weights=1000))


def test_cluster_is_not_held_to_an_n_by_d_memory_term(monkeypatch):
    # N x D per-example unit sums would take 2.4e9 bytes here; cluster keeps
    # their N squared norms, so the guard passes and the first draw follows
    no_draws(monkeypatch)
    with pytest.raises(AssertionError, match="sampled before the check"):
        run_clustering_experiment(ModelParams(n_examples=300_000, n_classes=2, n_weights=1000))


def test_clustering_is_not_held_to_the_hessian_memory_term():
    # 8 * 16385**2 bytes is over the limit, but clustering builds no Hessian.
    params = ModelParams(n_examples=8, n_classes=2, n_weights=16385, hyperplane_dim=1)
    report = run_clustering_experiment(params)
    assert report.per_class_q.shape == (2,)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda params: run_sigma_z_sweep(params, SweepSpec(points=100, repeats=5)),
         "500 sweep tasks with their records needs 640000 bytes"),
        (lambda params: run_freezing_experiment(params, np.logspace(-1, 1, 100)),
         "100-point freezing grid with its results needs 1228800 bytes"),
        (lambda params: run_freezing_experiment(replace(params, n_classes=10),
                                                np.logspace(-1, 1, 1000)),
         "1000-point freezing grid with its results needs 512000 bytes"),
    ],
    ids=["sweep", "freeze-simplex", "freeze"],
)
def test_memory_guard_counts_what_a_grid_builds_before_its_first_draw(monkeypatch, run, message):
    # the instance's arrays take under 70 kB; what its grid builds up front
    # (tasks and records, or results with simplex rows) takes more than the limit
    no_draws(monkeypatch)
    monkeypatch.setattr(experiments, "DEFAULT_MEMORY_LIMIT", 500_000)
    with pytest.raises(ValueError, match=f"^{message} "):
        run(ModelParams(n_examples=20, n_classes=3, n_weights=30, hyperplane_dim=4))


def test_memory_guard_counts_two_tensors(monkeypatch):
    # two doubles per gradient entry of the three blocks held, eight per logit
    # and four per entry of H: 2 * 8 * 39*C*D plus 8 * 8 * N*C plus 4 * 8 * D**2
    monkeypatch.setattr(experiments, "DEFAULT_MEMORY_LIMIT", 64)
    n, c, d = 7000, 10, 1000
    rows = 3 * gradients.block_rows(n, c, d)
    total = 2 * 8 * rows * c * d + 8 * 8 * n * c + 4 * 8 * d * d
    with pytest.raises(ValueError, match=rf"\({total} in all\)"):
        experiments._check_memory(ModelParams(n_examples=n, n_classes=c, n_weights=d))
