"""Acceptance gate: one test per target property at its stated tolerance.

Each test prints its measured numbers (visible with -s, and always visible in
the failure report), then asserts the target. Several targets are known to be
mathematically out of reach for this model at the pinned parameters; those
tests state why in their docstrings and are left to fail honestly rather than
being loosened:

* criterion 3, second clause: the class coupling matrix annihilates the
  all-ones vector identically, so the Hessian signal block has rank at most
  C-1 = 9 and a 10th outlier cannot appear at any length variation;
* criterion 4: the per-seed floor of 0.60 is below roughly one in three
  seeds' draw (seed-mean stays comfortably inside [0.6, 0.85]);
* criteria 5 and 6: with gamma = 0.5 the coupling matrix's top eigenvalue
  decays only polynomially in sigma_z (about sigma_z^-0.5 once frozen), so
  sigma_c^2 growth wins through sigma_z = 100: the top eigenvalue keeps
  rising (no interior peak) and the tied-noise trace ratio decays too little.
  The fixed-sigma_e sweep mode does show the strong decay; test 6 prints it
  for comparison.
"""

import numpy as np
import pytest
import scipy.stats

from helpers import fd_gradient, fd_hessian, model_hessian, weight_gradient
from lossgeom import (
    LogitEnsemble,
    ModelParams,
    SweepSpec,
    detect_outliers,
    eigh,
    point_means,
    predicted_q_sl,
    project_hessian,
    q_sl,
    random_orthonormal_basis,
    run_overlap_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
    sample_ensemble,
    sample_logit_gradients,
)
from lossgeom.logits import freezing_stats, softmax_probs
from lossgeom.rng import substream


SEEDS = range(10)


@pytest.fixture(scope="module")
def default_sweep():
    """The pinned sweep: 25 log points over 1e-3..1e2, gamma=0.5, 5 repeats."""
    records = run_sigma_z_sweep(ModelParams(seed=0), SweepSpec())
    names = ("top_eigenvalue", "trace_ratio", "projected_trace_ratio")
    return SweepSpec().grid(), [point_means(records, name) for name in names]


def test_criterion_1_same_logit_clustering_level():
    """Measured q_sl sits at 0.67 +- 0.03 and matches the SNR prediction."""
    params = ModelParams(seed=0)
    grads = sample_logit_gradients(params)
    measured = q_sl(grads)
    predicted = predicted_q_sl(params.sigma_c, params.sigma_e)
    print(f"criterion 1: q_sl measured={measured:.4f} predicted={predicted:.4f}")
    assert abs(measured - 0.67) <= 0.03
    assert abs(measured - predicted) <= 0.03


def test_criterion_2_freezing_scale():
    """Mean max probability at sigma_z=15, C=10, N=3000 is 0.94 +- 0.03."""
    params = ModelParams(n_examples=3000, seed=0)
    _, mean_max_prob = freezing_stats(sample_ensemble(params))
    print(f"criterion 2: mean max probability = {mean_max_prob:.4f}")
    assert abs(mean_max_prob - 0.94) <= 0.03


def test_criterion_3_outlier_counts():
    """C-1 = 9 outliers in >= 8/10 seeds; 10 with length variation.

    The second clause cannot hold: P 1 = 0 identically, so rank(P) <= C-1
    and the signal block supports at most 9 detached eigenvalues no matter
    the length variation. Measured counts stay at 9. Honest failure.
    """
    flat_counts = []
    varied_counts = []
    for seed in SEEDS:
        _, report = run_spectrum_experiment(ModelParams(seed=seed))
        flat_counts.append(report.n_outliers)
        _, report = run_spectrum_experiment(ModelParams(seed=seed, length_beta=2.0))
        varied_counts.append(report.n_outliers)
    print(f"criterion 3: length_beta=0 counts {flat_counts}")
    print(f"criterion 3: length_beta=2 counts {varied_counts}")
    assert sum(c == 9 for c in flat_counts) >= 8
    assert sum(c == 10 for c in varied_counts) >= 8, (
        f"10th outlier never appears (counts {varied_counts}): the coupling "
        "matrix annihilates the all-ones vector, capping the signal rank at "
        "C-1 = 9"
    )


def test_criterion_4_gradient_confinement():
    """Top-10 cumulative gradient power >= 0.60 per seed, mean in [0.6, 0.85].

    The per-seed floor fails: individual seeds fluctuate to ~0.41-0.84 at
    these scales, and about one seed in three lands under 0.60. The
    seed-mean clause holds. Honest failure on the floor.
    """
    powers = []
    for seed in SEEDS:
        _, cumulative = run_overlap_experiment(ModelParams(seed=seed))
        powers.append(float(cumulative[9]))
    mean = float(np.mean(powers))
    print(f"criterion 4: per-seed top-10 power {[round(p, 4) for p in powers]}")
    print(f"criterion 4: seed-mean = {mean:.4f}")
    assert 0.6 <= mean <= 0.85
    assert min(powers) >= 0.60, (
        f"per-seed floor violated (min {min(powers):.4f}); the top-10 power "
        "fluctuates below 0.60 in roughly a third of seeds at these scales"
    )


def test_criterion_5_non_monotone_top_eigenvalue(default_sweep):
    """Repeat-averaged top eigenvalue peaks in the grid interior.

    With gamma = 0.5 the sigma_c^2 ~ sigma_z growth outruns the coupling
    matrix's polynomial (~sigma_z^-0.5) freezing decay, so the curve rises
    through sigma_z = 100 and the argmax lands on the right edge. Honest
    failure; a smaller growth exponent (gamma ~ 0.15) does produce the
    interior peak, as the demo script shows.
    """
    grid, (tops, _, _) = default_sweep
    peak = int(np.argmax(tops))
    print(
        f"criterion 5: argmax at point {peak}/24 (sigma_z={grid[peak]:.4g}), "
        f"top={tops[peak]:.4g}, endpoints {tops[0]:.4g} / {tops[-1]:.4g}"
    )
    assert 0 < peak < len(grid) - 1, (
        f"top eigenvalue is monotone over the grid (argmax at index {peak}); "
        "sigma_c growth dominates the polynomial freezing decay at gamma=0.5"
    )
    assert tops[peak] >= 2.0 * tops[0]
    assert tops[peak] >= 2.0 * tops[-1]


def test_criterion_6_goldilocks_trace_ratio_decay(default_sweep):
    """trace_ratio decays 5x across the sweep and the d=10 ratio tracks it.

    In the default tied-noise mode the trace ratio is scale-free in the
    gradient amplitudes, so it only reflects freezing and decays ~2.5x, and
    the d=10 projection of a 1000-dimensional bulk is too noisy to rank-track
    it (Spearman ~0.5). Honest failure; the fixed-sigma_e mode (printed
    below) meets both numbers.
    """
    grid, (_, ratios, projected) = default_sweep
    decay = ratios[0] / ratios[-1]
    rho = float(scipy.stats.spearmanr(ratios, projected).statistic)
    print(f"criterion 6: tied mode decay {decay:.2f}x, Spearman {rho:.3f}")

    alt_records = run_sigma_z_sweep(ModelParams(seed=0), SweepSpec(fixed_sigma_e=True))
    alt_ratios = point_means(alt_records, "trace_ratio")
    alt_projected = point_means(alt_records, "projected_trace_ratio")
    alt_decay = alt_ratios[0] / alt_ratios[-1]
    alt_rho = float(scipy.stats.spearmanr(alt_ratios, alt_projected).statistic)
    print(f"criterion 6: fixed-sigma_e mode decay {alt_decay:.2f}x, Spearman {alt_rho:.3f}")

    assert decay >= 5.0, (
        f"tied-noise trace ratio decays only {decay:.2f}x (fixed-sigma_e mode "
        f"reaches {alt_decay:.2f}x)"
    )
    assert rho >= 0.9, (
        f"tied-noise Spearman is {rho:.3f} (fixed-sigma_e mode reaches {alt_rho:.3f})"
    )


def test_criterion_7_linear_network_oracle():
    """20 random small instances match central finite differences."""
    rng = np.random.default_rng(2024)
    worst_h = 0.0
    worst_g = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        c = 3
        d = int(rng.integers(2, 21))
        tensor = rng.standard_normal((n, c, d)) / np.sqrt(d)
        w_star = rng.standard_normal(d)
        probs = softmax_probs(tensor @ w_star)
        labels = rng.integers(0, c, n)
        ensemble = LogitEnsemble(logits=tensor @ w_star, probs=probs, labels=labels)
        h = model_hessian(tensor.copy(), ensemble)
        fd_h = fd_hessian(tensor, labels, w_star, step=1e-3)
        worst_h = max(worst_h, float(np.linalg.norm(fd_h - h) / np.linalg.norm(h)))

        g = weight_gradient(tensor, ensemble)
        fd_g = fd_gradient(tensor, labels, w_star, step=1e-5)
        worst_g = max(worst_g, float(np.abs(fd_g + g).max()))
    print(f"criterion 7: worst Hessian rel err {worst_h:.2e}, "
          f"worst gradient abs err {worst_g:.2e}")
    assert worst_h <= 1e-5
    assert worst_g <= 1e-6


def test_criterion_8_spectral_correctness():
    """Reconstruction/orthonormality at 1e-9 on 100 matrices; interlacing."""
    rng = np.random.default_rng(4096)
    worst_recon = 0.0
    worst_ortho = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 201))
        raw = rng.standard_normal((dim, dim))
        h = (raw + raw.T) / 2.0
        spectrum = eigh(h)
        lam, vec = spectrum.eigenvalues, spectrum.eigenvectors
        recon = np.linalg.norm(vec @ np.diag(lam) @ vec.T - h) / max(
            np.linalg.norm(h), 1e-300
        )
        ortho = float(np.abs(vec.T @ vec - np.eye(dim)).max())
        worst_recon = max(worst_recon, float(recon))
        worst_ortho = max(worst_ortho, ortho)
    print(f"criterion 8: worst reconstruction {worst_recon:.2e}, "
          f"worst orthonormality {worst_ortho:.2e}")
    assert worst_recon <= 1e-9
    assert worst_ortho <= 1e-9

    violations = 0
    for trial in range(100):
        dim = 60
        raw = rng.standard_normal((dim, dim))
        h = (raw + raw.T) / 2.0
        d_small = int(rng.integers(1, dim))
        params = ModelParams(
            n_examples=5, n_weights=dim, hyperplane_dim=d_small
        )
        basis = random_orthonormal_basis(params, substream(trial, "acceptance"))
        full = eigh(h).eigenvalues
        proj = eigh(project_hessian(h, basis)).eigenvalues
        tol = 1e-9 * max(1.0, abs(full[0]), abs(full[-1]))
        for i in range(d_small):
            if not (
                proj[i] <= full[i] + tol and proj[i] >= full[i + dim - d_small] - tol
            ):
                violations += 1
    print(f"criterion 8: interlacing violations {violations}/100 projections")
    assert violations == 0


def test_criterion_9_bbp_absorption():
    """Outlier count is non-increasing in decreasing SNR and hits 0 at 0.01."""
    results = run_snr_sweep(ModelParams(seed=0), (10.0, 2.04, 0.5, 0.1, 0.01))
    counts = [n for _, n, _ in results]
    print(f"criterion 9: outlier counts by SNR {dict((s, n) for s, n, _ in results)}")
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0
