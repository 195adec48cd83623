import numpy as np
import pytest

from helpers import model_hessian, weight_gradient
from lossgeom import (
    LogitEnsemble,
    ModelParams,
    assign_labels,
    freezing_stats,
    sample_ensemble,
    shannon_entropy,
    softmax_probs,
)
from lossgeom.rng import substream


def in_logit_space(logits, label=0):
    """One example whose logit gradients are the unit vectors (J = I).

    The weights are then the logits themselves, so weight_gradient is the
    logit-space gradient y - p and model_hessian is A = diag(p) - p p^T.
    """
    z = np.asarray(logits, dtype=float)[np.newaxis, :]
    c = z.shape[1]
    grads = np.eye(c)[np.newaxis] + np.zeros((1, c, c))
    ensemble = LogitEnsemble(logits=z, probs=softmax_probs(z), labels=np.array([label]))
    return weight_gradient(grads, ensemble), model_hessian(grads, ensemble)


def test_softmax_equal_logits_is_uniform():
    p = softmax_probs(np.zeros((3, 10)))
    assert np.allclose(p, 0.1, atol=1e-15)


def test_softmax_log2_gap_gives_two_thirds():
    p = softmax_probs(np.array([[np.log(2.0), 0.0]]))
    assert np.allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_survives_huge_logits():
    p = softmax_probs(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == 1.0
    assert p[0, 1] == 0.0


def test_softmax_shift_invariance_exact_on_dyadic_inputs():
    # Adding a constant representable without rounding (here 128.0 to logits
    # that are small multiples of 1/16) leaves every intermediate float
    # identical, so the outputs must agree bit for bit.
    z = np.array([[0.0, 0.25, -1.5, 3.0625], [2.0, -2.0, 0.5, 0.0]])
    assert np.array_equal(softmax_probs(z), softmax_probs(z + 128.0))


def test_softmax_shift_invariance_general():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((20, 7)) * 3.0
    shift = rng.standard_normal((20, 1)) * 50.0
    assert np.allclose(softmax_probs(z), softmax_probs(z + shift), atol=1e-14)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    p = softmax_probs(rng.standard_normal((50, 10)) * 15.0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p >= 0).all()


def test_logit_gradient_components_sum_to_zero():
    z = np.array([1.0, -0.5, 2.0])
    g, _ = in_logit_space(z, label=2)
    assert np.isclose(g.sum(), 0.0, atol=1e-15)
    assert np.allclose(g, np.array([0.0, 0.0, 1.0]) - softmax_probs(z), atol=1e-16)


def test_logit_gradient_vanishes_on_frozen_correct_prediction():
    g, _ = in_logit_space([0.0, 1000.0, 0.0], label=1)
    assert not g.any()


def test_logit_hessian_uniform_row():
    _, a = in_logit_space(np.zeros(4))
    expected = np.diag(np.full(4, 0.25)) - np.full((4, 4), 0.0625)
    assert np.allclose(a, expected, atol=1e-16)
    assert np.allclose(a.sum(axis=1), 0.0, atol=1e-15)


def test_logit_hessian_is_minus_jacobian_of_logit_gradient():
    # Central finite differences of g(z) = y - softmax(z) in the logits.
    z = np.array([0.3, -1.2, 0.8, 0.1])
    label = 2
    h = 1e-6
    jac = np.zeros((4, 4))
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = h
        gp, _ = in_logit_space(z + bump, label)
        gm, _ = in_logit_space(z - bump, label)
        jac[:, j] = (gp - gm) / (2.0 * h)
    _, a = in_logit_space(z, label)
    assert np.allclose(-jac, a, atol=1e-9)


def test_logit_hessian_is_psd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        _, a = in_logit_space(rng.standard_normal(8) * 5.0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() >= -1e-15


def test_shannon_entropy_values():
    assert np.isclose(shannon_entropy(np.full(8, 0.125)), 3.0, atol=1e-14)
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert np.isclose(shannon_entropy(np.array([0.5, 0.5])), 1.0, atol=1e-15)


def test_assign_labels_exact_accuracy_and_wrong_labels_differ_from_argmax():
    params = ModelParams()
    ensemble = sample_ensemble(params)
    argmax = ensemble.probs.argmax(axis=1)
    accuracy = (ensemble.labels == argmax).mean()
    assert accuracy == round(0.95 * params.n_examples) / params.n_examples
    wrong = ensemble.labels != argmax
    assert wrong.sum() == params.n_examples - round(0.95 * params.n_examples)
    assert (ensemble.labels[wrong] != argmax[wrong]).all()
    assert ensemble.labels.min() >= 0
    assert ensemble.labels.max() < params.n_classes


def test_assign_labels_extremes():
    probs = softmax_probs(np.random.default_rng(3).standard_normal((40, 5)))
    argmax = probs.argmax(axis=1)
    all_right = assign_labels(probs, 1.0, substream(0, "a"))
    assert np.array_equal(all_right, argmax)
    all_wrong = assign_labels(probs, 0.0, substream(0, "a"))
    assert (all_wrong != argmax).all()


def test_assign_labels_rejects_bad_accuracy():
    probs = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        assign_labels(probs, 1.5, substream(0, "a"))
    with pytest.raises(ValueError):
        assign_labels(probs, -0.1, substream(0, "a"))


def test_assign_labels_deterministic_per_stream():
    probs = softmax_probs(np.random.default_rng(4).standard_normal((100, 10)))
    a = assign_labels(probs, 0.5, substream(9, "labels"))
    b = assign_labels(probs, 0.5, substream(9, "labels"))
    c = assign_labels(probs, 0.5, substream(10, "labels"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_ensemble_deterministic_and_prefix_separated():
    params = ModelParams(n_examples=50, n_weights=20)
    a = sample_ensemble(params)
    b = sample_ensemble(params)
    c = sample_ensemble(params, label_prefix="other:")
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.logits, c.logits)


def test_freezing_stats_uniform_limit():
    # sigma_z -> 0 gives uniform rows: entropy log2(C), max prob 1/C.
    params = ModelParams(n_examples=200, sigma_z=1e-8)
    entropy, max_prob = freezing_stats(sample_ensemble(params))
    assert abs(entropy - np.log2(10.0)) < 1e-6
    assert abs(max_prob - 0.1) < 1e-6


def test_freezing_stats_frozen_limit():
    params = ModelParams(n_examples=200, sigma_z=1e4)
    entropy, max_prob = freezing_stats(sample_ensemble(params))
    assert entropy < 0.01
    assert max_prob > 0.999


def test_freezing_monotone_in_sigma_z():
    # Mean entropy decreases along a sigma_z ladder; allow at most 1 percent
    # relative uptick between adjacent points from finite-sample noise.
    grid = np.logspace(-3.0, 2.0, 11)
    entropies = []
    for i, sigma_z in enumerate(grid):
        params = ModelParams(n_examples=3000, sigma_z=float(sigma_z), seed=17)
        ensemble = sample_ensemble(params, label_prefix=f"freeze-test:{i}:")
        entropies.append(freezing_stats(ensemble)[0])
    for left, right in zip(entropies, entropies[1:]):
        assert right <= left * 1.01, entropies


def test_ensemble_shape_properties():
    ensemble = LogitEnsemble(
        logits=np.zeros((6, 4)),
        probs=np.full((6, 4), 0.25),
        labels=np.zeros(6, dtype=int),
    )
    assert ensemble.n_examples == 6
    assert ensemble.n_classes == 4
