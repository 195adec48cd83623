import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import (
    brute_force_hessian,
    brute_force_weight_gradient,
    class_coupling_matrix,
    clustered_hessian,
    fd_gradient,
    fd_hessian,
    model_hessian,
    peak_bytes,
    sample_residuals,
    weight_gradient,
)
from lossgeom import (
    LogitEnsemble,
    ModelParams,
    sample_ensemble,
    sample_logit_gradients,
)
from lossgeom.gradients import logit_gradient_blocks, sample_mean_logit_gradients
from lossgeom.logits import softmax_probs
from lossgeom.rng import RngStream
from lossgeom.spectra import fold_hessian


def small_instance(seed=0, n=8, c=3, d=12, **overrides):
    overrides.setdefault("hyperplane_dim", min(4, d))
    params = ModelParams(
        n_examples=n, n_classes=c, n_weights=d, seed=seed, **overrides
    )
    ensemble = sample_ensemble(params)
    grads = sample_logit_gradients(params)
    return params, ensemble, grads


def planted_split(params, prefix=""):
    """The class means and residuals that sample_logit_gradients adds up."""
    seed = params.seed
    means = sample_mean_logit_gradients(params, RngStream(seed, prefix + "means"))
    residuals = sample_residuals(params, RngStream(seed, prefix + "residuals"))
    return means, residuals


def test_mean_gradient_shapes_and_row_scales():
    params = ModelParams()
    means = sample_mean_logit_gradients(params, RngStream(0, "means"))
    assert means.shape == (10, 1000)
    # sigma_c = 1/sqrt(D) makes each row roughly unit length.
    norms = np.linalg.norm(means, axis=1)
    assert np.all(np.abs(norms - 1.0) < 0.1)


def test_mean_gradient_rows_nearly_orthogonal_in_high_dimension():
    params = ModelParams()
    means = sample_mean_logit_gradients(params, RngStream(0, "means"))
    units = means / np.linalg.norm(means, axis=1, keepdims=True)
    overlap = units @ units.T - np.eye(10)
    assert np.abs(overlap).max() < 0.1


def test_length_beta_scales_rows_exactly():
    base = sample_mean_logit_gradients(ModelParams(), RngStream(4, "m"))
    varied = sample_mean_logit_gradients(
        ModelParams(length_beta=2.0), RngStream(4, "m")
    )
    lengths = 1.0 + 2.0 * np.arange(10) / 9.0
    assert np.array_equal(varied, base * lengths[:, np.newaxis])
    assert np.array_equal(varied[0], base[0])


def test_residual_tensor_shape_and_variance():
    params = ModelParams()
    residuals = sample_residuals(params, RngStream(0, "resid"))
    assert residuals.shape == (300, 10, 1000)
    # 3e6 entries: sample variance concentrates well within 2 percent.
    assert abs(residuals.var() / params.sigma_e**2 - 1.0) < 0.02


def test_sample_logit_gradients_deterministic():
    params = ModelParams(n_examples=20, n_weights=50)
    a = sample_logit_gradients(params)
    b = sample_logit_gradients(params)
    c = sample_logit_gradients(params, label_prefix="x:")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_logit_gradients_is_means_plus_residuals_bit_for_bit():
    for params, prefix in [
        (ModelParams(n_examples=8, n_classes=3, n_weights=12, hyperplane_dim=4), ""),
        (ModelParams(n_examples=20, n_weights=50, length_beta=0.5, seed=3), "x:"),
    ]:
        means, residuals = planted_split(params, prefix)
        tensor = sample_logit_gradients(params, label_prefix=prefix)
        assert tensor.shape == residuals.shape
        assert np.array_equal(tensor, means[np.newaxis] + residuals)


def test_weight_gradient_matches_brute_force_double_loop():
    _, ensemble, grads = small_instance()
    g = weight_gradient(grads, ensemble)
    brute = brute_force_weight_gradient(grads, ensemble.probs, ensemble.labels)
    assert np.abs(g - brute).max() < 1e-15


def test_weight_gradient_brute_force_at_reference_scale():
    params = ModelParams()
    ensemble = sample_ensemble(params)
    grads = sample_logit_gradients(params)
    g = weight_gradient(grads, ensemble)
    brute = brute_force_weight_gradient(grads, ensemble.probs, ensemble.labels)
    assert np.abs(g - brute).max() < 1e-12


def test_weight_gradient_zero_when_predictions_are_frozen_correct():
    # One-hot probability rows with matching labels give y - p = 0.
    _, _, grads = small_instance()
    n, c, _ = grads.shape
    probs = np.zeros((n, c))
    labels = np.arange(n) % c
    probs[np.arange(n), labels] = 1.0
    ensemble = LogitEnsemble(logits=np.log(probs + 1e-300), probs=probs, labels=labels)
    assert np.allclose(weight_gradient(grads, ensemble), 0.0, atol=1e-16)


def unit_gradient_hessian(probs):
    """H when every example's logit gradients are the unit vectors (J = I).

    Then H is the class coupling matrix P = (1/N) sum_mu diag(p) - p p^T.
    """
    n, c = probs.shape
    grads = np.eye(c)[np.newaxis] + np.zeros((n, c, c))
    ensemble = LogitEnsemble(
        logits=np.zeros((n, c)), probs=probs, labels=np.zeros(n, dtype=int)
    )
    return model_hessian(grads, ensemble)


def test_class_coupling_matrix_small_cases():
    # Single uniform row over 2 classes: diag(1/2) - 1/4 = [[.25,-.25],[-.25,.25]].
    p = np.array([[0.5, 0.5]])
    expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.allclose(unit_gradient_hessian(p), expected, atol=1e-16)

    # One-hot rows: diag(p) - p p^T vanishes row by row.
    assert np.allclose(unit_gradient_hessian(np.eye(4)), 0.0, atol=1e-16)


def test_class_coupling_matrix_invariants():
    probs = softmax_probs(np.random.default_rng(5).standard_normal((40, 6)) * 2.0)
    p_mat = unit_gradient_hessian(probs)
    assert np.abs(p_mat - class_coupling_matrix(probs)).max() < 1e-15
    assert np.array_equal(p_mat, p_mat.T)
    # Rows sum to zero, so the all-ones vector is annihilated: rank <= C-1.
    assert np.abs(p_mat @ np.ones(6)).max() < 1e-15
    eigs = np.linalg.eigvalsh(p_mat)
    assert eigs.min() > -1e-14
    assert np.sum(eigs > 1e-12) <= 5


def test_model_hessian_matches_brute_force_assembly():
    _, ensemble, grads = small_instance()
    h = model_hessian(grads.copy(), ensemble)
    brute = brute_force_hessian(grads, ensemble.probs)
    scale = np.abs(brute).max()
    assert np.abs(h - brute).max() < 1e-13 * max(1.0, scale)


def test_model_hessian_writes_its_rows_into_the_tensor():
    _, ensemble, grads = small_instance(n=200, c=10, d=100)
    n, c, d = grads.shape
    tensor = grads.copy()
    peak = peak_bytes(model_hessian, tensor, ensemble)
    h = model_hessian(grads.copy(), ensemble)
    # the tensor now holds X: rows sqrt(p_k) (J_k - sum_l p_l J_l) of each example
    for mu in range(n):
        p = ensemble.probs[mu]
        rows = np.sqrt(p)[:, None] * (grads[mu] - p @ grads[mu])
        assert np.allclose(tensor[mu], rows, rtol=0.0, atol=1e-15)
    x = tensor.reshape(n * c, d)
    assert np.array_equal(x.T @ x / n, h)
    # besides H, only the (N, D) per-example means: 0.09x the tensor here
    besides_h = (peak - h.nbytes) / grads.nbytes
    print(f"model_hessian peak besides H: {besides_h:.3f}x the tensor")
    assert besides_h < 0.2


def test_model_hessian_is_exactly_symmetric():
    for n, c, d in [(8, 3, 12), (40, 5, 333), (1, 2, 3), (300, 10, 1000)]:
        _, ensemble, grads = small_instance(n=n, c=c, d=d)
        h = model_hessian(grads, ensemble)
        assert np.array_equal(h, h.T), (n, c, d)


def test_model_hessian_is_psd_by_construction():
    for seed in range(3):
        _, ensemble, grads = small_instance(seed=seed, n=20, c=5, d=30)
        h = model_hessian(grads, ensemble)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-12 * max(1.0, eigs.max())


def test_model_hessian_zero_for_frozen_onehot_rows():
    _, _, grads = small_instance()
    n, c, _ = grads.shape
    probs = np.zeros((n, c))
    labels = np.arange(n) % c
    probs[np.arange(n), labels] = 1.0
    ensemble = LogitEnsemble(logits=np.log(probs + 1e-300), probs=probs, labels=labels)
    h = model_hessian(grads, ensemble)
    assert np.abs(h).max() < 1e-16


def test_model_hessian_zero_residuals_match_brute_force_with_rank_bound():
    params, ensemble, _ = small_instance(n=30, c=4, d=25, sigma_e=0.0)
    grads = sample_logit_gradients(params)
    assert not planted_split(params)[1].any()
    h = model_hessian(grads.copy(), ensemble)
    brute = brute_force_hessian(grads, ensemble.probs)
    assert np.abs(h - brute).max() < 1e-14 * max(1.0, np.abs(brute).max())
    eigs = np.linalg.eigvalsh(h)
    rank = int(np.sum(eigs > 1e-12 * eigs.max()))
    assert rank <= params.n_classes - 1


def test_zero_residual_gradient_lies_in_mean_row_space():
    params, ensemble, _ = small_instance(n=30, c=4, d=25, sigma_e=0.0)
    grads = sample_logit_gradients(params)
    g = weight_gradient(grads, ensemble)
    means, _ = planted_split(params)
    coeffs, residual, _, _ = np.linalg.lstsq(means.T, g, rcond=None)
    recon = means.T @ coeffs
    assert np.linalg.norm(g - recon) < 1e-10 * max(1e-30, np.linalg.norm(g))


def test_hessian_and_gradient_match_finite_differences():
    # Independent oracle: build linear logits z = J w* at a random w*, then
    # difference the stable cross-entropy directly in weight space.
    rng = np.random.default_rng(11)
    n, c, d = 8, 3, 10
    tensor = rng.standard_normal((n, c, d)) / np.sqrt(d)
    w_star = rng.standard_normal(d)
    logits = tensor @ w_star
    probs = softmax_probs(logits)
    labels = rng.integers(0, c, n)
    ensemble = LogitEnsemble(logits=logits, probs=probs, labels=labels)
    g = weight_gradient(tensor, ensemble)
    fd_g = fd_gradient(tensor, labels, w_star, step=1e-5)
    assert np.abs(fd_g + g).max() < 1e-6  # g is minus the loss gradient

    h = model_hessian(tensor.copy(), ensemble)
    fd_h = fd_hessian(tensor, labels, w_star, step=1e-3)
    rel = np.linalg.norm(fd_h - h) / np.linalg.norm(h)
    assert rel < 1e-5


def test_hessian_scaling_covariance():
    # Doubling every logit gradient multiplies H by 4 and g by 2 exactly.
    _, ensemble, grads = small_instance(n=12, c=3, d=15)
    doubled = 2.0 * grads
    h1 = model_hessian(grads.copy(), ensemble)
    h2 = model_hessian(doubled.copy(), ensemble)
    g1 = weight_gradient(grads, ensemble)
    g2 = weight_gradient(doubled, ensemble)
    assert np.allclose(h2, 4.0 * h1, rtol=0.0, atol=1e-15 * np.abs(h1).max())
    assert np.allclose(g2, 2.0 * g1, rtol=0.0, atol=1e-18)


def test_clustered_hessian_cross_term_identity():
    # H - signal - noise must equal the mean/residual cross-terms exactly;
    # verify against explicit per-example assembly of those cross-terms.
    params, ensemble, grads = small_instance(n=6, c=3, d=8)
    h = model_hessian(grads, ensemble)
    means, residuals = planted_split(params)
    signal, noise = clustered_hessian(means, residuals, ensemble.probs)

    n = ensemble.n_examples
    cross = np.zeros((8, 8))
    for mu in range(n):
        a = np.diag(ensemble.probs[mu]) - np.outer(ensemble.probs[mu], ensemble.probs[mu])
        e = residuals[mu]
        cross += means.T @ a @ e + e.T @ a @ means
    cross /= n

    lhs = h - signal - noise
    assert np.abs(lhs - cross).max() < 1e-14 * max(1.0, np.abs(h).max())


def test_clustered_hessian_zero_residuals_collapse_to_signal():
    params, ensemble, _ = small_instance(n=20, c=4, d=12, sigma_e=0.0)
    grads = sample_logit_gradients(params)
    signal, noise = clustered_hessian(*planted_split(params), ensemble.probs)
    h = model_hessian(grads, ensemble)
    assert not noise.any()
    assert np.abs(h - signal).max() < 1e-15 * max(1.0, np.abs(h).max())


def test_clustered_split_is_close_at_reference_scale():
    params = ModelParams()
    ensemble = sample_ensemble(params)
    grads = sample_logit_gradients(params)
    h = model_hessian(grads, ensemble)
    signal, noise = clustered_hessian(*planted_split(params), ensemble.probs)
    ratio = np.linalg.norm(h - signal - noise) / np.linalg.norm(h)
    # Cross-terms are zero-mean and self-average, so the split captures most
    # of H. No hard bound is claimed; we record the measured fraction (about
    # 0.26 to 0.30 over seeds at the reference scale) and fence it loosely.
    print(f"cross-term Frobenius fraction at reference scale: {ratio:.4f}")
    assert 0.0 < ratio < 0.5


@pytest.mark.parametrize("buffers", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 16, 64])
@pytest.mark.parametrize(
    "n, c, d", [(150, 4, 6), (150, 3, 5), (45, 10, 1000)], ids=["even-CD", "odd-CD", "ref-CD"]
)
def test_gradient_blocks_are_the_rows_of_the_whole_draw(n, c, d, rows, buffers):
    # at odd C*D a Box-Muller pair straddles every other block edge; 150 and 45
    # examples leave a ragged last block; at C*D = 10,000 a block of 16 spans
    # several sampling chunks; the other buffers are drawn on the executor
    # while one is read
    params = ModelParams(n_examples=n, n_classes=c, n_weights=d, hyperplane_dim=4, seed=2)
    means, residuals = planted_split(params, "b:")
    whole = residuals + means
    buffers = [np.full((rows, c, d), np.nan) for _ in range(buffers)]
    seen = 0
    with ThreadPoolExecutor(2) as pool:
        for start, block in logit_gradient_blocks(params, "b:", buffers, pool):
            assert start == seen
            assert block.tobytes() == whole[start : start + rows].tobytes()
            seen += len(block)
    assert seen == n


@pytest.mark.parametrize("buffers", [1, 3])
def test_gradient_blocks_drawn_off_the_pool_are_the_rows_of_the_whole_draw(monkeypatch, buffers):
    # a sweep lane draws its one block with no executor; a block of 16 rows
    # at C*D = 10,000 spans three sampling chunks, all computed on this thread
    params = ModelParams(n_examples=45, n_classes=10, n_weights=1000, hyperplane_dim=4, seed=2)
    means, residuals = planted_split(params, "b:")
    whole = residuals + means
    monkeypatch.setattr(threading.Thread, "start", lambda t: pytest.fail("a thread started"))
    buffers = [np.full((16, 10, 1000), np.nan) for _ in range(buffers)]
    seen = 0
    for start, block in logit_gradient_blocks(params, "b:", buffers):
        assert block.tobytes() == whole[start : start + 16].tobytes()
        seen += len(block)
    assert seen == 45


@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_hessian_matches_the_whole_tensor(seed):
    params, ensemble, grads = small_instance(seed=seed, n=150, c=10, d=120)
    n, _, d = grads.shape
    whole = model_hessian(grads.copy(), ensemble)
    for rows in (1, 16, 64, n):
        h = np.full((d, d), np.nan)  # the first fold ignores what H held
        for start in range(0, n, rows):
            block = grads[start : start + rows].copy()
            fold_hessian(h, block, ensemble.probs[start : start + rows], start == 0)
        h /= n
        assert np.isnan(h[np.tril_indices(d, -1)]).all()  # the lower triangle is not written
        h, upper = np.triu(h), np.triu(whole)
        if rows == n:
            assert h.tobytes() == upper.tobytes()
        else:
            assert np.abs(h - upper).max() <= 1e-15 * np.abs(whole).max(), rows


def test_gradient_blocks_stopped_early_leave_no_draw_running():
    params = ModelParams(n_examples=60, n_classes=10, n_weights=1000, seed=3)
    _, residuals = planted_split(params, "s:")
    buffers = [np.full((16, 10, 1000), np.nan) for _ in range(3)]
    with ThreadPoolExecutor(2) as pool:
        blocks = logit_gradient_blocks(params, "s:", buffers, pool)
        next(blocks)
        blocks.close()  # the residuals of blocks 1 and 2 were being drawn into buffers 1 and 2
        for b in (1, 2):  # done when close returns, the executor still open
            assert buffers[b].tobytes() == residuals[16 * b : 16 * b + 16].tobytes()


def test_fold_hessian_rejects_a_hessian_blas_cannot_write():
    _, ensemble, grads = small_instance()
    d = grads.shape[2]
    for bad in (np.empty((d, d), dtype=np.float32), np.empty((d, d + 1)),
                np.empty((d, 2 * d))[:, ::2]):
        with pytest.raises(ValueError, match="writable C-contiguous float64"):
            fold_hessian(bad, grads.copy(), ensemble.probs, True)


def test_concurrent_block_draws_sharing_one_executor_are_exact():
    # more drawing threads than cores, each two blocks ahead on one shared executor
    params = [ModelParams(n_examples=40, n_classes=10, n_weights=1000, seed=s)
              for s in range(2 * os.cpu_count() + 2)]
    results = {}

    def draw(p, pool):
        buffers = [np.empty((8, 10, 1000)) for _ in range(3)]
        results[p.seed] = np.concatenate(
            [block.copy() for _, block in logit_gradient_blocks(p, "c:", buffers, pool)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            threads = [threading.Thread(target=draw, args=(p, pool)) for p in params]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for p in params:
        means, residuals = planted_split(p, "c:")
        assert results[p.seed].tobytes() == (residuals + means).tobytes()
