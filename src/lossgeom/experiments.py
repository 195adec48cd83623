"""Experiment orchestration: the property experiments and the sweeps.

Every Hessian measurement takes one path, :func:`_instance` (sample the
ensemble and gradients, assemble H, solve it for only what the output
reads), and every projected spectrum another, :func:`_projected`. Each
experiment is a pure function of a :class:`ModelParams` (plus a sweep spec
where applicable): identical inputs give identical outputs. Sweep tasks draw
from labeled substreams (``sweep:<point>:<repeat>:<role>``), so points and
repeats are independent and could run concurrently; this implementation
executes them serially in grid order, which is also the merge order. Every
public ``run_*`` function runs under :data:`one_blas_thread`, so its outputs
do not depend on the BLAS thread count.

Labels are re-drawn per sweep point and repeat at the configured target
accuracy: each point models a training snapshot at fixed accuracy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
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
    """Grid, noise mode and repeats of the logit-variance sweep.

    ``gamma`` is the mean-gradient growth exponent: at grid value sigma_z the
    ensemble uses sigma_c(sigma_z) = sigma_c_base * (sigma_z/sigma_z_ref)^gamma.
    The tied mode scales sigma_e by the same factor (constant sigma_c/sigma_e);
    ``fixed_sigma_e=True`` holds sigma_e at its base value. A linear grid from
    sigma_z = 0 is rejected where that point cannot run: gamma < 0 (infinite
    sigma_c, either mode), and gamma > 0 in tied mode (sigma_c = sigma_e = 0).
    """

    sigma_z_min: float = 1e-3
    sigma_z_max: float = 1e2
    points: int = 25
    scale: str = "log"
    gamma: float = 0.5
    sigma_z_ref: float = 15.0
    repeats: int = 5
    fixed_sigma_e: bool = False

    def __post_init__(self) -> None:
        if self.scale not in ("log", "linear"):
            raise ValueError(f"scale must be 'log' or 'linear', got {self.scale!r}")
        if not math.isfinite(self.sigma_z_max):
            raise ValueError(f"sigma_z_max must be finite, got {self.sigma_z_max!r}")
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
        if not 0 < self.sigma_z_ref < math.inf:
            raise ValueError(f"need 0 < sigma_z_ref < inf, got {self.sigma_z_ref}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        tied = not self.fixed_sigma_e
        if self.sigma_z_min == 0 and (self.gamma < 0 or self.gamma > 0 and tied):
            cause = "an infinite sigma_c" if self.gamma < 0 else "sigma_c = sigma_e = 0"
            raise ValueError(
                f"sigma_z_min = 0 with gamma = {self.gamma:g} in "
                f"{'tied' if tied else 'fixed'} sigma_e mode gives {cause} at point 0"
            )

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


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln[ln.index("/"):].strip() for ln in fh if "openblas" in ln.lower()}
    except OSError:  # no /proc: no OpenBLAS is found
        return ()
    found = []
    for lib in map(ctypes.CDLL, sorted(paths)):
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


class _OneBlasThread(contextlib.ContextDecorator):
    """Hold every loaded OpenBLAS to one thread, restoring the counts on exit.

    Each BLAS or LAPACK call then runs on the calling thread, so results do
    not depend on the BLAS thread count, and no BLAS worker competes with the
    sampling threads (:mod:`lossgeom.rng`) for the cores. The libraries are
    found at the first hold, not at import. A nested hold re-enters; holds
    in other threads wait for it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._saved: list[list] = []  # (set, count) per library, one list per hold

    def __enter__(self) -> None:
        libs = _openblas_threads()
        self._lock.acquire()
        self._saved.append([(put, get()) for get, put in libs])
        for put, _ in self._saved[-1]:
            put(1)

    def __exit__(self, *exc) -> None:
        for put, count in self._saved.pop():
            put(count)
        self._lock.release()


one_blas_thread = _OneBlasThread()


def point_means(records: list[SweepRecord], name: str) -> np.ndarray:
    """Per-point mean of field ``name`` over the repeats, records in sweep order."""
    repeats = records[-1].repeat + 1
    values = np.array([getattr(r, name) for r in records])
    return values.reshape(-1, repeats).mean(axis=1)


def _check_memory(params: ModelParams, hessian: bool = True) -> None:
    """Fail before any draw if the residuals (and the dense Hessian) would not fit.

    Box-Muller sampling writes straight into the tensor and holds only
    fixed per-chunk temporaries (about 1.3 MB per core): tracemalloc reads
    1.14 N*C*D doubles at the reference config. Hessian assembly holds two
    (the tensor and its centered, weighted rows) and is the peak. The bound
    counts four. Besides H, the solve allocates 2.0x H for eigenvalues
    or the top k and 3.0x H for a whole eigensystem (tracemalloc, D=600), so
    the bound counts four D*D doubles. ``hessian=False`` skips that term.
    """
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    terms = {f"{n}x{c}x{d} residual tensor with its temporaries": 4 * 8 * n * c * d}
    if hessian:
        terms[f"dense {d}x{d} Hessian with its eigensolve"] = 4 * 8 * d * d
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


@one_blas_thread
def run_spectrum_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, OutlierReport]:
    """One full ensemble at params: Hessian eigenvalues plus outlier report."""
    spectrum = _instance(params, vectors=False)[3]
    return spectrum, detect_outliers(spectrum, max_candidates=3 * params.n_classes)


@one_blas_thread
def run_overlap_experiment(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/eigenvector cosines and cumulative power at params.

    Raises the zero-gradient error if every probability row is frozen
    exactly onto its label.
    """
    ensemble, tensor, _, spectrum = _instance(params)
    return gradient_overlaps(spectrum, weight_gradient(tensor, ensemble))


@one_blas_thread
def run_projection_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, SymmetricSpectrum]:
    """Hessian eigenvalues and those of its compression onto a random hyperplane."""
    _, _, hessian, spectrum = _instance(params, vectors=False)
    return spectrum, _projected(params, "", hessian)


@one_blas_thread
def run_clustering_experiment(params: ModelParams) -> ClusteringReport:
    """Clustering statistics of one model-sampled gradient tensor."""
    _check_memory(params, hessian=False)
    labels = sample_ensemble(params).labels
    return clustering_report(sample_logit_gradients(params), labels)


@one_blas_thread
def run_sigma_z_sweep(params: ModelParams, spec: SweepSpec) -> list[SweepRecord]:
    """Sweep sigma_z over spec's grid, one record per (point, repeat).

    sigma_c grows with sigma_z, and sigma_e with it unless
    ``spec.fixed_sigma_e`` holds it at its base value (see :class:`SweepSpec`).
    Records appear in grid order, repeats innermost. A failing task re-raises
    its ValueError prefixed with the point, sigma_z and repeat.
    """
    points: list[ModelParams] = []
    for i, sigma_z in enumerate(spec.grid()):
        with _sweep_task(i, sigma_z, 0):
            points.append(_sweep_point(params, spec, float(sigma_z)))
    records: list[SweepRecord] = []
    for i, point in enumerate(points):
        for rep in range(spec.repeats):
            with _sweep_task(i, point.sigma_z, rep):
                records.append(_sweep_record(point, f"sweep:{i}:{rep}:", rep))
    return records


@contextlib.contextmanager
def _sweep_task(i: int, sigma_z: float, rep: int):
    try:
        yield
    except ValueError as exc:
        raise ValueError(
            f"sweep point {i} (sigma_z={sigma_z:g}) repeat {rep}: {exc}"
        ) from exc


def _sweep_point(params: ModelParams, spec: SweepSpec, sigma_z: float) -> ModelParams:
    """params at grid value sigma_z, checked before any draw: the scaled sigmas
    must not underflow to zero together, and each must have a finite square."""
    try:
        factor = (sigma_z / spec.sigma_z_ref) ** spec.gamma
    except OverflowError:
        factor = math.inf
    sigma_c = params.sigma_c * factor
    sigma_e = params.sigma_e if spec.fixed_sigma_e else params.sigma_e * factor
    if sigma_c == sigma_e == 0 < params.sigma_c + params.sigma_e:
        raise ValueError("(sigma_z/sigma_z_ref)^gamma underflows to sigma_c = sigma_e = 0")
    for name, value in (("sigma_c", sigma_c), ("sigma_e", sigma_e)):
        if not math.isfinite(value * value):
            raise ValueError(
                f"(sigma_z/sigma_z_ref)^gamma = {factor:g} gives {name} = {value:g}, "
                "whose square overflows"
            )
    return replace(params, sigma_z=sigma_z, sigma_c=sigma_c, sigma_e=sigma_e)


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


@one_blas_thread
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


@one_blas_thread
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
