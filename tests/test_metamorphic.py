"""Symmetries of the model that every measurement must keep.

Scaling sigma_c and sigma_e by one factor f scales every logit gradient by f
and H by f^2, and leaves the probabilities alone. So the eigenvalues scale by
f^2, and the trace ratios, outlier counts and entropies do not move. The
tolerances are 1e-12 relative; the largest deviations measured at these
shapes (seeds 0-5) were 6.3e-16 for the trace ratio, 1.5e-15 for the
projected one and 2.3e-15 of lambda_1 for the eigenvalues.
"""

from dataclasses import replace

import numpy as np
import pytest

from lossgeom import ModelParams, SweepSpec, run_sigma_z_sweep, run_spectrum_experiment

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
