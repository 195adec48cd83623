import numpy as np
import pytest
import scipy.linalg

from helpers import gram_schmidt, mirrored, model_hessian, peak_bytes, random_symmetric
from lossgeom import (
    ModelParams,
    sample_ensemble,
    sample_logit_gradients,
    spectral_norm,
    trace_norm_ratio,
)
from lossgeom import spectra
from lossgeom.rng import RngStream
from lossgeom.spectra import (
    detect_outliers,
    eigh,
    fold_hessian,
    gradient_overlaps,
    project_hessian,
    random_orthonormal_basis,
)


def model_hessian_at(n, c, d):
    params = ModelParams(n_examples=n, n_classes=c, n_weights=d, hyperplane_dim=6)
    return model_hessian(sample_logit_gradients(params), sample_ensemble(params))


def test_eigh_two_by_two():
    spectrum = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spectrum.eigenvalues, [3.0, 1.0], atol=1e-14)
    v0 = spectrum.eigenvectors[:, 0]
    assert np.allclose(np.abs(v0), np.sqrt(0.5), atol=1e-14)
    assert v0[0] > 0  # sign convention: largest-magnitude component positive


def test_eigh_identity():
    spectrum = eigh(np.eye(50))
    assert np.array_equal(spectrum.eigenvalues, np.ones(50))
    assert np.allclose(
        spectrum.eigenvectors.T @ spectrum.eigenvectors, np.eye(50), atol=1e-14
    )


def test_eigh_descending_reconstruction_orthonormality():
    rng = np.random.default_rng(0)
    for dim in (3, 10, 50, 120):
        for _ in range(3):
            h = random_symmetric(rng, dim)
            spectrum = eigh(h.copy())  # a solve consumes its matrix
            lam, vec = spectrum.eigenvalues, spectrum.eigenvectors
            assert np.all(np.diff(lam) <= 1e-12)
            recon = vec @ np.diag(lam) @ vec.T
            assert np.linalg.norm(recon - h) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert np.abs(vec.T @ vec - np.eye(dim)).max() <= 1e-10


def test_eigh_sign_convention_deterministic():
    rng = np.random.default_rng(1)
    h = random_symmetric(rng, 30)
    vec = eigh(h.copy()).eigenvectors
    peaks = vec[np.abs(vec).argmax(axis=0), np.arange(30)]
    assert (peaks > 0).all()
    assert np.array_equal(vec, eigh(h.copy()).eigenvectors)


def test_eigh_top_k_matches_the_whole_solve():
    rng = np.random.default_rng(11)
    params = ModelParams(n_examples=60, n_classes=5, n_weights=120, hyperplane_dim=6)
    psd = model_hessian(sample_logit_gradients(params), sample_ensemble(params))
    for h in (random_symmetric(rng, 120), psd):
        whole = eigh(h.copy())  # a solve consumes its matrix
        norm = spectral_norm(whole)
        for k in (1, 10, 31):
            top = eigh(h.copy(), top=k)
            lam, vec = top.eigenvalues, top.eigenvectors
            assert lam.shape == (k,) and vec.shape == (120, k)
            assert np.all(np.diff(lam) <= 0)
            assert np.abs(lam - whole.eigenvalues[:k]).max() <= 1e-12 * norm
            assert np.abs(h @ vec - vec * lam).max() <= 1e-12 * norm
            assert np.abs(vec.T @ vec - np.eye(k)).max() <= 1e-12
            peaks = vec[np.abs(vec).argmax(axis=0), np.arange(k)]
            assert (peaks > 0).all()  # the same sign convention
            assert np.abs(vec - whole.eigenvectors[:, :k]).max() <= 1e-9
            assert top.trace == whole.trace == float(np.trace(h))
            values = eigh(h.copy(), top=k, vectors=False)
            assert values.eigenvectors is None
            assert np.abs(values.eigenvalues - lam).max() <= 1e-12 * norm
    assert spectral_norm(eigh(psd.copy(), top=3)) == pytest.approx(norm, rel=1e-14)


def test_eigh_top_k_clamps_to_the_whole_spectrum():
    h = random_symmetric(np.random.default_rng(12), 8)
    whole = eigh(h.copy())
    for top in (8, 9, 1000):
        clamped = eigh(h.copy(), top=top)
        assert np.array_equal(clamped.eigenvalues, whole.eigenvalues)
        assert np.array_equal(clamped.eigenvectors, whole.eigenvectors)
    values = eigh(h.copy(), top=9, vectors=False)
    assert np.array_equal(values.eigenvalues, eigh(h.copy(), vectors=False).eigenvalues)
    with pytest.raises(ValueError, match="top must be at least 1"):
        eigh(h, top=0)


@pytest.mark.parametrize("shape", [(300, 10, 1000), (1000, 10, 200), (40, 5, 333)])
def test_top_k_solve_is_scipys_evr_to_the_bit(shape):
    h = model_hessian_at(*shape)
    d = h.shape[0]
    for k in (1, 10, 31):
        for vectors in (True, False):
            want = scipy.linalg.eigh(
                h, eigvals_only=not vectors, subset_by_index=[d - k, d - 1], driver="evr"
            )
            values, vecs = spectra._top_eigenpairs(h.copy(), k, vectors)
            if vectors:
                assert np.array_equal(values, want[0]) and np.array_equal(vecs, want[1])
                assert vecs.strides == want[1].strides  # the same layout downstream
            else:
                assert np.array_equal(values, want) and vecs is None


@pytest.mark.parametrize("top", [None, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigh_rejects_infs_and_nans_with_scipys_message(top, bad):
    h = np.eye(5)
    h[2, 2] = bad
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        eigh(h, top=top)
    # a large entry elsewhere must not hide it
    h[0, 0] = 1e300
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        eigh(h, top=top)


@pytest.mark.parametrize("top", [None, 3])
def test_eigh_checks_the_triangle_it_does_not_read(top):
    h = np.eye(5)
    h[3, 1] = np.nan  # below the diagonal: LAPACK does not read it
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        eigh(h, top=top)


def as_eigh(values, vectors=None):
    """scipy's ascending eigenpairs in eigh's order and sign convention."""
    if vectors is None:
        return values[::-1]
    vectors = vectors[:, ::-1]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])])
    return values[::-1], vectors * np.where(signs == 0, 1.0, signs)


@pytest.mark.parametrize("shape", [(40, 5, 333), (300, 10, 1000)])
def test_the_upper_triangle_gives_the_bytes_of_the_mirrored_hessian(shape):
    n, c, d = shape
    params = ModelParams(n_examples=n, n_classes=c, n_weights=d, hyperplane_dim=6, seed=4)
    upper = np.zeros((d, d))  # as the measurement loop leaves it: the lower triangle unwritten
    fold_hessian(upper, sample_logit_gradients(params), sample_ensemble(params).probs, True)
    upper /= n
    whole = mirrored(upper.copy())
    junk = upper.copy()
    junk[np.tril_indices(d, -1)] = -7.5
    basis = random_orthonormal_basis(params, RngStream(params.seed, "hyperplane"))
    evr = scipy.linalg.eigh(whole, subset_by_index=[d - 31, d - 1], driver="evr")
    evd = scipy.linalg.eigh(whole, driver="evd")
    values = scipy.linalg.eigvalsh(whole, driver="evd")
    projected = basis.T @ whole @ basis
    wants = [as_eigh(*evr), as_eigh(*evd), (as_eigh(values),),
             ((projected + projected.T) / 2,)]
    for h in (upper, junk):
        top, spectrum = eigh(h.copy(), top=31), eigh(h.copy())
        gots = [(top.eigenvalues, top.eigenvectors),
                (spectrum.eigenvalues, spectrum.eigenvectors),
                (eigh(h.copy(), vectors=False).eigenvalues,), (project_hessian(h, basis),)]
        for got, want in zip(gots, wants):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_top_k_solve_rejects_a_matrix_it_cannot_overwrite():
    h = random_symmetric(np.random.default_rng(13), 20)
    read_only = h.copy()
    read_only.flags.writeable = False
    single = h.astype(np.float32)
    fortran = np.asfortranarray(h)  # not the row-major buffer the contract reads
    for bad in (read_only, single, fortran):
        before = bad.copy()
        for top in (3, None):  # the whole-spectrum solve works in its buffer too
            with pytest.raises(ValueError, match="eigh overwrites its matrix"):
                eigh(bad, top=top)
            assert np.array_equal(bad, before)
    with pytest.raises(ValueError, match="eigh overwrites its matrix"):
        eigh(h.tolist(), top=3)


def test_top_k_solve_consumes_its_matrix_and_reads_the_trace_first():
    h = model_hessian_at(300, 10, 1000)
    before = h.copy()
    peak = peak_bytes(lambda: eigh(h, top=31))
    print(f"top-31 eigh peak: {peak / h.nbytes:.2f}x the matrix")
    assert peak < 0.5 * h.nbytes  # solved in H's own buffer, with no copy
    assert not np.array_equal(h, before)  # LAPACK overwrote H
    spectrum = eigh(before.copy(), top=31)
    assert spectrum.trace == float(np.trace(before))
    assert spectrum.trace == eigh(before.copy()).trace


def test_eigh_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((3, 4)))


def test_eigh_values_hold_no_matrix_size_temporary_besides_lapacks_copy():
    h = random_symmetric(np.random.default_rng(5), 600)
    for kwargs, bound in (({"vectors": False}, 1.5), ({"top": 31, "vectors": False}, 1.5),
                          ({}, 2.2)):  # dsyevd's workspace for vectors is 2 H
        matrix = h.copy()  # consumed by the solve, and made before the count starts
        peak = peak_bytes(lambda: eigh(matrix, **kwargs))
        print(f"eigh {kwargs} peak: {peak / h.nbytes:.2f}x the matrix")
        assert peak < bound * h.nbytes


def test_eigh_accepts_roundoff_asymmetry():
    rng = np.random.default_rng(2)
    h = random_symmetric(rng, 20)
    h[0, 1] += 1e-12  # below the relative symmetry tolerance
    spectrum = eigh(h)
    assert spectrum.eigenvalues.shape == (20,)


def test_spectral_norm_uses_absolute_value():
    spectrum = eigh(np.diag([3.0, -5.0]))
    assert spectral_norm(spectrum) == 5.0
    assert spectral_norm(eigh(np.zeros((4, 4)))) == 0.0


def test_trace_norm_ratio_values():
    assert np.isclose(trace_norm_ratio(eigh(np.eye(7))), 7.0, atol=1e-14)
    rank_one = np.outer(np.ones(5), np.ones(5))
    assert np.isclose(trace_norm_ratio(eigh(rank_one)), 1.0, atol=1e-12)
    assert np.isclose(trace_norm_ratio(eigh(np.diag([2.0, 1.0, 1.0]))), 2.0, atol=1e-14)


def test_trace_norm_ratio_rejects_zero_matrix():
    with pytest.raises(ValueError, match="spectral norm is zero"):
        trace_norm_ratio(eigh(np.zeros((3, 3))))


def test_detect_outliers_planted_pair():
    # Two planted eigenvalues at 10 over a bulk near 1: the largest relative
    # gap sits between index 1 and 2, so exactly 2 outliers.
    rng = np.random.default_rng(3)
    bulk = np.ones(98) + 0.01 * rng.standard_normal(98)
    h = np.diag(np.concatenate([[10.0, 10.0], bulk]))
    report = detect_outliers(eigh(h), max_candidates=30)
    assert report.n_outliers == 2
    assert np.allclose(report.outlier_values, [10.0, 10.0], atol=1e-12)
    assert report.bulk_edge < 1.1


def test_detect_outliers_featureless_spectra():
    assert detect_outliers(eigh(np.eye(40)), max_candidates=30).n_outliers == 0
    # A GOE bulk has no detached eigenvalue and tiny edge gaps.
    rng = np.random.default_rng(4)
    report = detect_outliers(eigh(random_symmetric(rng, 100)), max_candidates=30)
    assert report.n_outliers == 0
    assert report.bulk_edge == pytest.approx(
        float(eigh(random_symmetric(np.random.default_rng(4), 100)).eigenvalues[0])
    )


def test_detect_outliers_adding_a_far_spike_increments_count():
    # Planting a rank-one spike far above the top eigenvalue adds exactly one
    # outlier to a bulk-only spectrum.
    rng = np.random.default_rng(5)
    for trial in range(5):
        h = random_symmetric(rng, 80)
        spectrum = eigh(h.copy())
        base = detect_outliers(spectrum, max_candidates=30)
        assert base.n_outliers == 0
        top = spectrum.eigenvalues[0]
        v = rng.standard_normal(80)
        v /= np.linalg.norm(v)
        spiked = h + 20.0 * abs(top) * np.outer(v, v)
        report = detect_outliers(eigh(spiked), max_candidates=30)
        assert report.n_outliers == 1


def test_detect_outliers_respects_threshold_and_window():
    h = np.diag(np.concatenate([[10.0], np.ones(20)]))
    spectrum = eigh(h)
    assert detect_outliers(spectrum, max_candidates=30).n_outliers == 1
    # A largest relative gap of 1.5 stays under the threshold of 2.
    flat = eigh(np.diag([2.5] + [1.0] * 20))
    assert detect_outliers(flat, max_candidates=30).n_outliers == 0
    # Window of 1 can still see the first gap.
    assert detect_outliers(spectrum, max_candidates=1).n_outliers == 1


def test_detect_outliers_on_model_hessian():
    params = ModelParams()
    h = model_hessian(sample_logit_gradients(params), sample_ensemble(params))
    report = detect_outliers(eigh(h), max_candidates=30)
    assert report.n_outliers == 9
    assert report.outlier_values.min() > report.bulk_edge


def test_gradient_overlaps_aligned_with_one_eigenvector():
    spectrum = eigh(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    g = np.zeros(5)
    g[4] = 2.5  # aligned with the smallest-eigenvalue eigenvector
    cosines, cumulative = gradient_overlaps(spectrum, g)
    assert np.isclose(abs(cosines[4]), 1.0, atol=1e-14)
    assert np.isclose(cumulative[3], 0.0, atol=1e-14)
    assert np.isclose(cumulative[4], 1.0, atol=1e-14)


def test_gradient_overlaps_cumulative_reaches_one():
    rng = np.random.default_rng(6)
    spectrum = eigh(random_symmetric(rng, 40))
    _, cumulative = gradient_overlaps(spectrum, rng.standard_normal(40))
    assert np.isclose(cumulative[-1], 1.0, atol=1e-10)
    assert np.all(np.diff(cumulative) >= -1e-15)


def test_gradient_overlaps_rejects_zero_gradient():
    with pytest.raises(ValueError, match="zero"):
        gradient_overlaps(eigh(np.eye(3)), np.zeros(3))
    with pytest.raises(ValueError, match="without eigenvectors"):
        gradient_overlaps(eigh(np.eye(3), vectors=False), np.ones(3))


def test_random_orthonormal_basis_properties():
    params = ModelParams(n_weights=200, hyperplane_dim=10)
    basis = random_orthonormal_basis(params, RngStream(0, "basis"))
    assert basis.shape == (200, 10)
    assert np.abs(basis.T @ basis - np.eye(10)).max() < 1e-10
    again = random_orthonormal_basis(params, RngStream(0, "basis"))
    assert np.array_equal(basis, again)
    other = random_orthonormal_basis(params, RngStream(1, "basis"))
    assert not np.array_equal(basis, other)


def test_random_orthonormal_basis_full_and_single_column():
    square = ModelParams(n_weights=12, hyperplane_dim=12)
    b = random_orthonormal_basis(square, RngStream(2, "b"))
    assert np.abs(b.T @ b - np.eye(12)).max() < 1e-10
    line = ModelParams(n_weights=12, hyperplane_dim=1)
    v = random_orthonormal_basis(line, RngStream(2, "b"))
    assert np.isclose(np.linalg.norm(v[:, 0]), 1.0, atol=1e-12)


def test_random_orthonormal_basis_is_gram_schmidt_of_the_draw():
    for d_big, d_small in ((200, 10), (12, 12), (30, 1)):
        params = ModelParams(n_weights=d_big, hyperplane_dim=d_small)
        basis = random_orthonormal_basis(params, RngStream(5, "gs"))
        raw = RngStream(5, "gs").gaussians(d_big * d_small).reshape(d_big, d_small)
        assert np.abs(basis - gram_schmidt(raw)).max() < 1e-13


def test_project_hessian_identity_and_similarity():
    rng = np.random.default_rng(7)
    h = random_symmetric(rng, 15)
    params = ModelParams(n_examples=5, n_weights=15, hyperplane_dim=15)
    q = random_orthonormal_basis(params, RngStream(3, "q"))
    rotated = project_hessian(h, q)
    # Full-rank orthonormal basis: eigenvalues are preserved (similarity).
    assert np.allclose(
        eigh(rotated).eigenvalues, eigh(h).eigenvalues, atol=1e-10
    )
    assert np.allclose(project_hessian(np.eye(15), q), np.eye(15), atol=1e-12)


def test_project_hessian_trace_invariance_under_rotation():
    rng = np.random.default_rng(8)
    h = random_symmetric(rng, 60)
    params = ModelParams(n_examples=5, n_weights=60, hyperplane_dim=60)
    q = random_orthonormal_basis(params, RngStream(4, "q"))
    scale = max(1.0, float(np.abs(h).max()) * 60)
    assert abs(np.trace(project_hessian(h, q)) - np.trace(h)) <= 1e-9 * scale


def test_project_hessian_interlacing():
    rng = np.random.default_rng(9)
    params = ModelParams(n_examples=5, n_weights=60, hyperplane_dim=10)
    for trial in range(20):
        h = random_symmetric(rng, 60)
        basis = random_orthonormal_basis(params, RngStream(trial, "interlace"))
        full = eigh(h.copy()).eigenvalues  # a solve consumes its matrix
        proj = eigh(project_hessian(h, basis)).eigenvalues
        tol = 1e-9 * max(1.0, abs(full[0]))
        # Cauchy interlacing: lambda_{i+D-d} <= mu_i <= lambda_i.
        for i in range(10):
            assert proj[i] <= full[i] + tol
            assert proj[i] >= full[i + 60 - 10] - tol


def test_project_hessian_rejects_non_orthonormal_basis():
    h = np.eye(6)
    bad = np.ones((6, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        project_hessian(h, bad)


def test_project_hessian_rejects_a_matrix_the_basis_does_not_fit():
    basis = np.eye(6)[:, :2]
    for h in (np.eye(5), np.eye(7), np.ones((6, 5)), np.ones(6)):
        with pytest.raises(ValueError, match="need a DxD matrix and a D-row basis"):
            project_hessian(h, basis)
    with pytest.raises(ValueError, match="need a DxD matrix and a D-row basis"):
        project_hessian(np.eye(6), np.ones(6))
