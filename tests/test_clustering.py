import numpy as np
import pytest

from helpers import (
    brute_force_pair_cosines,
    clustering_report,
    empirical_class_means,
    peak_bytes,
    q_sl,
    whole_tensor_clustering,
)
from lossgeom import (
    ModelParams,
    predicted_q_sl,
    sample_ensemble,
    sample_logit_gradients,
)
from lossgeom import gradients
from lossgeom.gradients import sample_mean_logit_gradients
from lossgeom.rng import RngStream


def report(grads):
    """clustering_report with round-robin labels (at least 2 per class when N >= 2C)."""
    n, c, _ = grads.shape
    return clustering_report(grads, np.arange(n) % c)


def test_cosine_basic_values():
    # Two examples and one logit: q_sl is the cosine of the two rows.
    def pair(u, v):
        return q_sl(np.array([[u], [v]], dtype=float))

    assert pair([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert pair([1.0, 0.0], [2.0, 0.0]) == 1.0
    assert pair([1.0, 0.0], [-3.0, 0.0]) == -1.0
    assert np.isclose(pair([1.0, 1.0], [1.0, 0.0]), np.sqrt(0.5), atol=1e-15)


def test_q_sl_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((6, 3, 5)) + 0.5
    assert np.isclose(
        q_sl(tensor), brute_force_pair_cosines(tensor, "sl"), atol=1e-12
    )


def test_q_dl_matches_brute_force_enumeration():
    rng = np.random.default_rng(1)
    tensor = rng.standard_normal((6, 3, 4)) - 0.2
    assert np.isclose(
        report(tensor).q_dl, brute_force_pair_cosines(tensor, "dl"), atol=1e-12
    )


def test_q_slsc_matches_direct_average():
    rng = np.random.default_rng(2)
    n, c, d = 9, 3, 6
    tensor = rng.standard_normal((n, c, d)) + 1.0
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    units = tensor / np.linalg.norm(tensor, axis=2, keepdims=True)
    expected = []
    for k in range(c):
        members = np.flatnonzero(labels == k)
        vals = [
            float(units[mu, k] @ units[nu, k])
            for mu in members
            for nu in members
            if mu != nu
        ]
        expected.append(np.mean(vals))
    result = clustering_report(tensor, labels)
    assert np.allclose(result.per_class_q, expected, atol=1e-12)
    assert np.isclose(result.q_slsc, np.mean(expected), atol=1e-12)


def test_q_slsc_rejects_too_small_class():
    tensor = np.random.default_rng(3).standard_normal((4, 2, 3))
    tensor[0, 0] = 0.0  # the class check comes before the zero-row check
    labels = np.array([0, 0, 0, 0])  # class 1 empty
    with pytest.raises(ValueError, match="class 1"):
        clustering_report(tensor, labels)


def test_identical_rows_give_unit_statistics():
    base = np.random.default_rng(4).standard_normal((1, 3, 8))
    tensor = np.repeat(base, 10, axis=0)  # every example identical
    assert np.isclose(q_sl(tensor), 1.0, atol=1e-12)
    labels = np.arange(10) % 3
    assert np.isclose(clustering_report(tensor, labels).q_slsc, 1.0, atol=1e-12)


def test_zero_residuals_give_q_sl_exactly_one():
    params = ModelParams(n_examples=20, n_weights=50, sigma_e=0.0, hyperplane_dim=5)
    grads = sample_logit_gradients(params)
    assert np.isclose(q_sl(grads), 1.0, atol=1e-12)


def test_orthonormal_means_give_zero_q_dl():
    # Rows along distinct coordinate axes: every cross-logit cosine is 0.
    n, c, d = 8, 4, 10
    means = np.eye(c, d)
    grads = means[np.newaxis] + np.zeros((n, c, d))
    assert np.isclose(report(grads).q_dl, 0.0, atol=1e-14)
    assert np.isclose(q_sl(grads), 1.0, atol=1e-14)


def test_rotation_invariance():
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((8, 3, 40)) + 0.3
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    rotated = tensor @ q
    labels = np.arange(8) % 3
    assert np.isclose(q_sl(rotated), q_sl(tensor), atol=1e-12)
    turned, plain = clustering_report(rotated, labels), clustering_report(tensor, labels)
    assert np.isclose(turned.q_dl, plain.q_dl, atol=1e-12)
    assert np.allclose(turned.per_class_q, plain.per_class_q, atol=1e-12)


def test_q_sl_tracks_predicted_value_across_snr():
    # predicted q = SNR/(SNR+1); empirical q_sl lands within 0.03 at D=1000.
    base = ModelParams()
    for snr in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        sigma_e = base.sigma_c / np.sqrt(snr)
        params = ModelParams(sigma_e=float(sigma_e), seed=3)
        grads = sample_logit_gradients(params, label_prefix=f"snr-test:{snr}:")
        predicted = predicted_q_sl(params.sigma_c, params.sigma_e)
        assert abs(q_sl(grads) - predicted) < 0.03, (snr, q_sl(grads), predicted)


def test_predicted_q_sl_values_and_errors():
    assert predicted_q_sl(1.0, 1.0) == 0.5
    assert predicted_q_sl(3.0, 0.0) == 1.0
    assert np.isclose(predicted_q_sl(1.0, 2.0), 0.2, atol=1e-15)
    with pytest.raises(ValueError):
        predicted_q_sl(0.0, 0.0)


def test_statistics_ordering_at_reference_scale():
    # Gradients are independent of labels in this model, so q_slsc and q_sl
    # share the same mean; the ordering below holds for this pinned seed, and
    # q_sl >> q_dl holds robustly (cross-logit means are nearly orthogonal).
    params = ModelParams()
    ensemble = sample_ensemble(params)
    grads = sample_logit_gradients(params)
    report = clustering_report(grads, ensemble.labels)
    assert report.q_slsc >= report.q_sl
    assert report.q_sl > report.q_dl
    assert abs(report.q_slsc - report.q_sl) < 0.01
    assert abs(report.q_dl) < 0.01
    assert report.per_class_q.shape == (10,)
    assert np.isclose(report.per_class_q.mean(), report.q_slsc, atol=1e-15)


def test_q_sl_close_to_q_slsc_across_seeds():
    for seed in range(3):
        params = ModelParams(n_examples=120, n_weights=400, seed=seed)
        ensemble = sample_ensemble(params)
        grads = sample_logit_gradients(params)
        report = clustering_report(grads, ensemble.labels)
        assert abs(report.q_slsc - report.q_sl) < 0.02
        assert report.q_sl > report.q_dl


def test_pure_noise_statistics_concentrate_near_zero():
    params = ModelParams(sigma_c=0.0, seed=7)
    grads = sample_logit_gradients(params)
    assert abs(q_sl(grads)) < 0.05
    assert abs(report(grads).q_dl) < 0.05


def test_q_dl_scale_with_dimension():
    # Mean-vector overlaps scale like 1/sqrt(D): the small-D statistic is
    # noisier and larger in magnitude on average.
    wide = ModelParams(n_examples=100, n_weights=1000, seed=11)
    assert abs(report(sample_logit_gradients(wide)).q_dl) < 0.02


def test_empirical_class_means_recover_planted_means():
    params = ModelParams(sigma_e=0.01, seed=13)
    ensemble = sample_ensemble(params)
    grads = sample_logit_gradients(params)
    means = empirical_class_means(grads, ensemble.labels)
    planted_means = sample_mean_logit_gradients(params, RngStream(params.seed, "means"))
    for k in range(params.n_classes):
        planted = planted_means[k]
        cos = means[k] @ planted / (np.linalg.norm(means[k]) * np.linalg.norm(planted))
        assert cos > 0.99


def test_tensor_input_validation():
    with pytest.raises(ValueError, match="zero gradient"):
        q_sl(np.zeros((3, 2, 4)))
    with pytest.raises(ValueError, match="at least 2"):
        q_sl(np.ones((1, 2, 4)))
    with pytest.raises(ValueError, match="N >= 2"):
        clustering_report(np.ones((4, 1, 4)), np.zeros(4, dtype=int))


def test_labels_must_give_one_class_per_example():
    with pytest.raises(ValueError, match=r"labels of shape \(7,\) for 4 examples"):
        clustering_report(np.ones((4, 2, 3)), [0, 0, 1, 1, 1, 1, 0])
    with pytest.raises(ValueError, match=r"labels of shape \(4,\) for 6 examples"):
        clustering_report(np.ones((6, 2, 3)), [0, 0, 1, 1])
    message = r"label 7 of example 4 is not an integer in \[0, 2\)"
    with pytest.raises(ValueError, match=message):
        clustering_report(np.ones((6, 2, 3)), [0, 0, 1, 1, 7, 7])


def test_non_integer_labels_are_rejected():
    tensor = np.random.default_rng(8).standard_normal((6, 2, 3))
    with pytest.raises(ValueError, match=r"label 0.5 of example 4 is not an integer"):
        clustering_report(tensor, [0, 0, 1, 1, 0.5, 0.5])
    with pytest.raises(ValueError, match=r"label nan of example 5 is not an integer"):
        clustering_report(tensor, [0, 0, 1, 1, 1, np.nan])
    # integral values of a float array are labels like any other
    whole = clustering_report(tensor, np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0]))
    ints = clustering_report(tensor, [0, 0, 1, 1, 1, 0])
    assert (whole.q_slsc, whole.q_sl, whole.q_dl) == (ints.q_slsc, ints.q_sl, ints.q_dl)


def test_zero_row_at_a_labeled_entry_is_named():
    tensor = np.random.default_rng(9).standard_normal((6, 2, 5))
    tensor[1, 0] = 0.0
    labels = np.array([0, 0, 0, 1, 1, 1])
    with pytest.raises(ValueError, match="zero gradient vector at example 1, logit 0"):
        clustering_report(tensor, labels)


def assert_matches_whole_tensor_formula(tensor, labels):
    q_slsc, q_sl_whole, q_dl, per_class_q = whole_tensor_clustering(tensor, labels)
    result = clustering_report(tensor, labels)
    assert (result.q_slsc, result.q_sl, result.q_dl) == (q_slsc, q_sl_whole, q_dl)
    assert result.per_class_q.tobytes() == per_class_q.tobytes()
    assert q_sl(tensor) == q_sl_whole


@pytest.mark.parametrize("rows_per_block", [1, 3, 4, 100])
def test_blocked_pass_matches_the_whole_tensor_formula_bit_for_bit(
    monkeypatch, rows_per_block
):
    # N = 11 is not a multiple of 3 or 4; classes hold 6, 3 and 2 examples
    n, c, d = 11, 3, 7
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", rows_per_block * 8 * c * d)
    tensor = np.random.default_rng(20).standard_normal((n, c, d)) + 0.4
    labels = np.array([0, 1, 0, 2, 0, 1, 0, 0, 2, 1, 0])
    assert_matches_whole_tensor_formula(tensor, labels)


def test_blocked_pass_matches_the_whole_tensor_formula_at_full_blocks():
    # about 1 MB per block: 10 examples of 3 x 4096, so 37 ends in a short block
    rng = np.random.default_rng(21)
    tensor = rng.standard_normal((37, 3, 4096)) * 0.02 + rng.standard_normal((3, 4096)) * 0.03
    labels = np.array([2] * 5 + [1] * 20 + [0] * 12)
    assert_matches_whole_tensor_formula(tensor, labels)


def test_q_sl_matches_the_whole_tensor_formula_at_two_examples(monkeypatch):
    tensor = np.random.default_rng(22).standard_normal((2, 4, 9))
    assert q_sl(tensor) == whole_tensor_clustering(tensor, None)[1]
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 8)  # one example per block
    assert q_sl(tensor) == whole_tensor_clustering(tensor, None)[1]


def test_zero_row_past_the_first_block_names_its_global_index(monkeypatch):
    n, c, d = 10, 2, 5
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 3 * 8 * c * d)
    tensor = np.random.default_rng(23).standard_normal((n, c, d))
    tensor[7, 1] = 0.0
    message = "zero gradient vector at example 7, logit 1"
    with pytest.raises(ValueError, match=message):
        clustering_report(tensor, np.arange(n) % c)
    with pytest.raises(ValueError, match=message):
        q_sl(tensor)


def test_scoring_holds_well_under_a_tensor_size_copy():
    params = ModelParams(seed=24)
    grads = sample_logit_gradients(params)
    labels = sample_ensemble(params).labels
    for name, peak in [
        ("clustering_report", peak_bytes(clustering_report, grads, labels)),
        ("q_sl", peak_bytes(q_sl, grads)),
    ]:
        print(f"{name} peak: {peak / grads.nbytes:.3f}x the tensor")
        assert peak < 0.25 * grads.nbytes
