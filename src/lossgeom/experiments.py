"""Experiment orchestration: the property experiments and the sweeps.

Every Hessian measurement takes one path, :func:`_instance` (sample the
ensemble and gradients, assemble H, solve it for only what the output
reads), and every projected spectrum another, :func:`_projected`. Each
experiment is a pure function of a :class:`ModelParams` (plus a sweep spec
where applicable): identical inputs give identical outputs. Sweep tasks draw
from labeled substreams (``sweep:<point>:<repeat>:<role>``), so points and
repeats are independent and could run concurrently; this implementation
executes them serially in grid order, which is also the merge order.

Labels are re-drawn per sweep point and repeat at the configured target
accuracy: each point models a training snapshot at fixed accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusteringReport, clustering_report, q_sl
from .gradients import model_hessian, sample_logit_gradients, weight_gradient
from .logits import LogitEnsemble, freezing_stats, sample_ensemble
from .params import ModelParams
from .rng import substream
from .spectra import (
    OutlierReport,
    SymmetricSpectrum,
    detect_outliers,
    eigh,
    gradient_overlaps,
    project_hessian,
    random_orthonormal_basis,
    spectral_norm,
    top10_power,
    trace_norm_ratio,
)

DEFAULT_MEMORY_LIMIT = 2**31  # bytes allowed for one instance's large arrays
SIMPLEX_SAMPLE_LIMIT = 500
# equilateral-triangle corners for barycentric plotting of C=3 rows
_SIMPLEX_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for the logit-variance sweep.

    ``gamma`` is the mean-gradient growth exponent: at grid value sigma_z the
    ensemble uses sigma_c(sigma_z) = sigma_c_base * (sigma_z/sigma_z_ref)^gamma,
    with sigma_e scaled by the same factor so sigma_c/sigma_e stays constant
    (see :func:`run_sigma_z_sweep` for the fixed-sigma_e alternate mode).
    """

    sigma_z_min: float = 1e-3
    sigma_z_max: float = 1e2
    points: int = 25
    scale: str = "log"
    gamma: float = 0.5
    sigma_z_ref: float = 15.0
    repeats: int = 5

    def __post_init__(self) -> None:
        if self.scale not in ("log", "linear"):
            raise ValueError(f"scale must be 'log' or 'linear', got {self.scale!r}")
        if not self.sigma_z_min < self.sigma_z_max:
            raise ValueError(
                f"need sigma_z_min < sigma_z_max, got {self.sigma_z_min} "
                f"and {self.sigma_z_max}"
            )
        if self.scale == "log" and self.sigma_z_min <= 0:
            raise ValueError("log scale needs sigma_z_min > 0")
        if self.sigma_z_min < 0:
            raise ValueError(f"sigma_z_min must be nonnegative, got {self.sigma_z_min}")
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        if self.repeats < 1:
            raise ValueError(f"need at least 1 repeat, got {self.repeats}")
        if not self.sigma_z_ref > 0:
            raise ValueError(f"sigma_z_ref must be positive, got {self.sigma_z_ref}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(
                math.log10(self.sigma_z_min), math.log10(self.sigma_z_max), self.points
            )
        return np.linspace(self.sigma_z_min, self.sigma_z_max, self.points)


@dataclass(frozen=True)
class SweepRecord:
    """One (grid point, repeat) summary of the sweep."""

    sigma_z: float
    sigma_c: float
    top_eigenvalue: float
    trace: float
    spectral_norm: float
    trace_ratio: float
    projected_trace_ratio: float
    mean_entropy: float
    mean_max_prob: float
    n_outliers: int
    grad_power_top10: float
    repeat: int


def point_means(records: list[SweepRecord], name: str) -> np.ndarray:
    """Per-point mean of field ``name`` over the repeats, records in sweep order."""
    repeats = records[-1].repeat + 1
    values = np.array([getattr(r, name) for r in records])
    return values.reshape(-1, repeats).mean(axis=1)


def _check_memory(params: ModelParams, hessian: bool = True) -> None:
    """Fail before any draw if the residuals (and the dense Hessian) would not fit.

    Box-Muller sampling is the peak, at about 3.5 N*C*D double arrays
    (uniforms, radii, angles, output and half-size temporaries); Hessian
    assembly holds two (the tensor and its centered, weighted rows). The
    bound counts four. ``hessian=False`` checks the residual term alone,
    for paths that build no Hessian.
    """
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    terms = {f"{n}x{c}x{d} residual tensor with its temporaries": 4 * 8 * n * c * d}
    if hessian:
        terms[f"dense {d}x{d} Hessian"] = 8 * d * d
    needed = sum(terms.values())
    if needed > DEFAULT_MEMORY_LIMIT:
        name = max(terms, key=terms.get)
        raise ValueError(
            f"{name} needs {terms[name]} bytes ({needed} in all), over the "
            f"{DEFAULT_MEMORY_LIMIT}-byte memory limit"
        )


def _instance(
    params: ModelParams, prefix: str = "", top: bool = False, vectors: bool = True
) -> tuple[LogitEnsemble, np.ndarray, np.ndarray, SymmetricSpectrum]:
    """The one measurement path: sample, assemble the Hessian, solve it for
    only what the output reads. ``top=True`` asks for the k = min(D, max(3C+1,
    10)) largest pairs: the outlier scan reads 3C+1 eigenvalues, the top-10
    gradient power 10 eigenvectors. ``vectors=False`` skips the eigenvectors."""
    _check_memory(params)
    ensemble = sample_ensemble(params, prefix)
    tensor = sample_logit_gradients(params, prefix)
    hessian = model_hessian(tensor, ensemble)
    k = min(params.n_weights, max(3 * params.n_classes + 1, 10)) if top else None
    return ensemble, tensor, hessian, eigh(hessian, top=k, vectors=vectors)


def _projected(params: ModelParams, prefix: str, hessian: np.ndarray) -> SymmetricSpectrum:
    """Eigenvalues of H compressed onto the random ``<prefix>hyperplane`` basis."""
    basis = random_orthonormal_basis(
        params, substream(params.seed, prefix + "hyperplane")
    )
    return eigh(project_hessian(hessian, basis), vectors=False)


def run_spectrum_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, OutlierReport]:
    """One full ensemble at params: Hessian eigenvalues plus outlier report."""
    spectrum = _instance(params, vectors=False)[3]
    return spectrum, detect_outliers(spectrum, max_candidates=3 * params.n_classes)


def run_overlap_experiment(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/eigenvector cosines and cumulative power at params.

    Raises the zero-gradient error if every probability row is frozen
    exactly onto its label.
    """
    ensemble, tensor, _, spectrum = _instance(params)
    return gradient_overlaps(spectrum, weight_gradient(tensor, ensemble))


def run_projection_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, SymmetricSpectrum]:
    """Hessian eigenvalues and those of its compression onto a random hyperplane."""
    _, _, hessian, spectrum = _instance(params, vectors=False)
    return spectrum, _projected(params, "", hessian)


def run_clustering_experiment(params: ModelParams) -> ClusteringReport:
    """Clustering statistics of one model-sampled gradient tensor."""
    _check_memory(params, hessian=False)
    labels = sample_ensemble(params).labels
    return clustering_report(sample_logit_gradients(params), labels)


def run_sigma_z_sweep(
    params: ModelParams, spec: SweepSpec, fixed_sigma_e: bool = False
) -> list[SweepRecord]:
    """Sweep sigma_z over spec's grid, one record per (point, repeat).

    Default mode scales sigma_e together with sigma_c (constant
    sigma_c/sigma_e); ``fixed_sigma_e=True`` is the alternate mode that
    holds sigma_e at its base value while sigma_c still grows, provided for
    comparison. Records appear in grid order, repeats innermost. A failing
    task re-raises its ValueError prefixed with the point, sigma_z and repeat.
    """
    records: list[SweepRecord] = []
    for i, sigma_z in enumerate(spec.grid()):
        factor = (sigma_z / spec.sigma_z_ref) ** spec.gamma
        sigma_c = params.sigma_c * factor
        sigma_e = params.sigma_e if fixed_sigma_e else params.sigma_e * factor
        point_params = replace(
            params, sigma_z=float(sigma_z), sigma_c=sigma_c, sigma_e=sigma_e
        )
        for rep in range(spec.repeats):
            prefix = f"sweep:{i}:{rep}:"
            try:
                record = _sweep_record(point_params, prefix, rep)
            except ValueError as exc:
                raise ValueError(
                    f"sweep point {i} (sigma_z={sigma_z:g}) repeat {rep}: {exc}"
                ) from exc
            records.append(record)
    return records


def _sweep_record(params: ModelParams, prefix: str, rep: int) -> SweepRecord:
    ensemble, tensor, hessian, spectrum = _instance(params, prefix, top=True)
    projected = _projected(params, prefix, hessian)
    _, cumulative = gradient_overlaps(spectrum, weight_gradient(tensor, ensemble))
    mean_entropy, mean_max_prob = freezing_stats(ensemble)
    report = detect_outliers(spectrum, max_candidates=3 * params.n_classes)
    return SweepRecord(
        sigma_z=params.sigma_z,
        sigma_c=params.sigma_c,
        top_eigenvalue=float(spectrum.eigenvalues[0]),
        trace=spectrum.trace,
        spectral_norm=spectral_norm(spectrum),
        trace_ratio=trace_norm_ratio(spectrum),
        projected_trace_ratio=trace_norm_ratio(projected),
        mean_entropy=mean_entropy,
        mean_max_prob=mean_max_prob,
        n_outliers=report.n_outliers,
        grad_power_top10=top10_power(cumulative),
        repeat=rep,
    )


def run_snr_sweep(
    params: ModelParams, snr_grid
) -> list[tuple[float, int, float]]:
    """(snr, n_outliers, q_sl) per grid point, sigma_c fixed, sigma_e = sigma_c/sqrt(snr)."""
    results: list[tuple[float, int, float]] = []
    for i, snr in enumerate(snr_grid):
        if not snr > 0:
            raise ValueError(f"snr values must be positive, got {snr!r}")
        sigma_e = 0.0 if math.isinf(snr) else params.sigma_c / math.sqrt(snr)
        point_params = replace(params, sigma_e=sigma_e)
        _, tensor, _, spectrum = _instance(
            point_params, f"snr:{i}:", top=True, vectors=False
        )
        report = detect_outliers(spectrum, max_candidates=3 * params.n_classes)
        results.append((float(snr), report.n_outliers, q_sl(tensor)))
    return results


def run_freezing_experiment(
    params: ModelParams, sigma_z_grid
) -> list[tuple[float, float, float, np.ndarray]]:
    """(sigma_z, mean_entropy, mean_max_prob, simplex_points) per grid point.

    ``simplex_points`` holds barycentric plane coordinates of up to 500
    probability rows when C=3 (for plotting the freezing motion on the
    probability simplex) and is empty otherwise.
    """
    results = []
    for i, sigma_z in enumerate(sigma_z_grid):
        point_params = replace(params, sigma_z=float(sigma_z))
        ensemble = sample_ensemble(point_params, f"freeze:{i}:")
        mean_entropy, mean_max_prob = freezing_stats(ensemble)
        if params.n_classes == 3:
            rows = ensemble.probs[:SIMPLEX_SAMPLE_LIMIT]
            simplex = rows @ _SIMPLEX_CORNERS
        else:
            simplex = np.empty((0, 2))
        results.append((float(sigma_z), mean_entropy, mean_max_prob, simplex))
    return results
