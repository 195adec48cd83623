"""Random-model simulator for neural loss-landscape gradients and Hessians.

A softmax/cross-entropy layer over i.i.d. Gaussian logits, with logit
gradients split into class means plus residuals, yields a weight-space
gradient and a G-term Hessian whose spectra reproduce the characteristic
local geometry of real networks: a bulk plus C-1 outlier eigenvalues,
gradients confined to the outlier eigenspace, a logit-variance-driven rise
of the top eigenvalue, and the decay of the trace-to-norm curvature ratio.
"""

import types

from .clustering import (
    ClusteringReport,
    clustering_report,
    predicted_q_sl,
    q_sl,
)
from .config import ConfigError, RunConfig, parse_config
from .dumps import DumpError, write_dump
from .experiments import (
    SweepError,
    SweepRecord,
    SweepSpec,
    point_means,
    run_clustering_experiment,
    run_dump_clustering,
    run_freezing_experiment,
    run_overlap_experiment,
    run_projection_experiment,
    run_sigma_z_sweep,
    run_snr_sweep,
    run_spectrum_experiment,
)
from .gradients import sample_logit_gradients, sample_mean_logit_gradients
from .logits import (
    LogitEnsemble,
    assign_labels,
    freezing_stats,
    sample_ensemble,
    sample_logits,
    shannon_entropy,
    softmax_probs,
)
from .params import ModelParams
from .rng import RngStream, gaussian_matrix, substream
from .spectra import (
    OutlierReport,
    SymmetricSpectrum,
    detect_outliers,
    eigh,
    gradient_overlaps,
    project_hessian,
    random_orthonormal_basis,
    spectral_norm,
    trace_norm_ratio,
)

__version__ = "0.1.0"

# every public name imported above; submodules are not part of the API
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
