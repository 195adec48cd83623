"""Symmetries of the model that every measurement must keep.

Scaling sigma_c and sigma_e by one factor f scales every logit gradient by f
and H by f^2, and leaves the probabilities alone. So the eigenvalues scale by
f^2, and the trace ratios, outlier counts, entropies and the clustering
statistics, which read unit vectors, do not move. A hyperplane of dimension
D is a rotation, so the projected spectrum is H's own. The tolerances are
1e-12 relative; the largest deviations measured at these shapes (seeds 0-5,
or 0-9 for clustering and the full projection) were 6.3e-16 for the trace
ratio, 1.5e-15 for the projected one, 2.3e-15 of lambda_1 for the
eigenvalues, 1.7e-16 for q_sl, 3.3e-16 for q_slsc, 5.0e-16 for the
per-class q and 1.7e-15 of lambda_1 for the full projection. q_dl sits near
0 (1.6e-5 at seed 5), so it is held to 1e-12 absolute: it moved by at most
5.2e-17, 1.7e-12 of itself.
"""

from dataclasses import replace

import numpy as np
import pytest

from lossgeom import (
    ModelParams,
    SweepSpec,
    run_clustering_experiment,
    run_projection_experiment,
    run_sigma_z_sweep,
    run_spectrum_experiment,
)

SMALL = ModelParams(n_examples=60, n_classes=5, n_weights=120, hyperplane_dim=6)


def test_tied_mode_sweep_does_not_depend_on_gamma():
    # in the tied mode gamma only sets the common factor of sigma_c and sigma_e
    # at each grid point, which the ratios cancel
    low, high = (run_sigma_z_sweep(SMALL, SweepSpec(points=6, repeats=2, gamma=gamma))
                 for gamma in (0.1, 0.5))
    assert len(low) == len(high) == 12
    for a, b in zip(low, high):
        assert a.sigma_c != b.sigma_c  # gamma moved the scale
        assert a.trace_ratio == pytest.approx(b.trace_ratio, rel=1e-12, abs=0)
        assert a.projected_trace_ratio == pytest.approx(b.projected_trace_ratio, rel=1e-12, abs=0)
        assert a.n_outliers == b.n_outliers
        assert a.mean_entropy == b.mean_entropy


@pytest.mark.parametrize("factor", [3.0, 0.1, 1e3])
def test_scaling_both_sigmas_scales_the_spectrum_by_the_square(factor):
    scaled = replace(SMALL, sigma_c=factor * SMALL.sigma_c, sigma_e=factor * SMALL.sigma_e)
    spectrum, report = run_spectrum_experiment(SMALL)
    got, got_report = run_spectrum_experiment(scaled)
    want = factor**2 * spectrum.eigenvalues
    assert np.abs(got.eigenvalues - want).max() <= 1e-12 * want[0]
    assert got_report.n_outliers == report.n_outliers


@pytest.mark.parametrize("factor", [3.0, 0.1, 1e3])
def test_scaling_both_sigmas_keeps_the_clustering_statistics(factor):
    scaled = replace(SMALL, sigma_c=factor * SMALL.sigma_c, sigma_e=factor * SMALL.sigma_e)
    want, got = run_clustering_experiment(SMALL), run_clustering_experiment(scaled)
    assert got.q_sl == pytest.approx(want.q_sl, rel=1e-12, abs=0)
    assert got.q_slsc == pytest.approx(want.q_slsc, rel=1e-12, abs=0)
    assert got.q_dl == pytest.approx(want.q_dl, rel=0, abs=1e-12)
    assert np.allclose(got.per_class_q, want.per_class_q, rtol=1e-12, atol=0)


def test_a_full_dimensional_projection_keeps_the_spectrum():
    spectrum, projected = run_projection_experiment(replace(SMALL, hyperplane_dim=SMALL.n_weights))
    want = spectrum.eigenvalues
    assert projected.eigenvalues.shape == want.shape
    assert np.abs(projected.eigenvalues - want).max() <= 1e-12 * want[0]
