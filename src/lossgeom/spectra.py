"""Symmetric eigendecomposition and spectral diagnostics.

Eigensystems are computed with LAPACK's dsyev (Householder tridiagonalization
followed by implicit-shift QL/QR iteration, via scipy's driver='ev'), then
reordered descending with a deterministic eigenvector sign convention. On top
of that sit the diagnostics used by the experiments: largest-relative-gap
outlier detection, gradient/eigenvector overlaps, the trace-to-spectral-norm
ratio, and random-hyperplane projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .params import ModelParams
from .rng import RngStream, gaussian_matrix

DEFAULT_GAP_THRESHOLD = 2.0


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues sorted descending with column-matched orthonormal eigenvectors."""

    eigenvalues: np.ndarray  # (D,) descending
    eigenvectors: np.ndarray  # (D, D), column i pairs with eigenvalues[i]


@dataclass(frozen=True)
class OutlierReport:
    """Outliers above the largest relative spectral gap.

    ``bulk_edge`` is the largest eigenvalue below the gap (the top eigenvalue
    itself when no outliers are declared); all outlier_values exceed it.
    """

    n_outliers: int
    bulk_edge: float
    outlier_values: np.ndarray


def eigh(matrix: np.ndarray) -> SymmetricSpectrum:
    """Full eigensystem of a symmetric matrix, descending order.

    Requires symmetry within 1e-8 (scaled by the largest entry). Eigenvector
    signs are fixed by making each column's largest-magnitude component
    positive (first occurrence on ties). Non-convergence of the QL/QR
    iteration raises scipy's LinAlgError; it is treated as fatal.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)
    asym = float(np.abs(h - h.T).max()) if h.size else 0.0
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix is not symmetric (max |H - H^T| = {asym:.3e})")
    sym = (h + h.T) / 2.0
    values, vectors = scipy.linalg.eigh(sym, driver="ev")
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    flat_idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[flat_idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return SymmetricSpectrum(eigenvalues=values, eigenvectors=vectors * signs)


def spectral_norm(spectrum: SymmetricSpectrum) -> float:
    """max |lambda_i|."""
    return float(np.abs(spectrum.eigenvalues).max())


def trace_norm_ratio(spectrum: SymmetricSpectrum) -> float:
    """trace / spectral norm; errors when the spectral norm is zero."""
    norm = spectral_norm(spectrum)
    if norm == 0.0:
        raise ValueError("trace/norm ratio undefined: spectral norm is zero")
    return float(spectrum.eigenvalues.sum()) / norm


def detect_outliers(spectrum: SymmetricSpectrum, max_candidates: int) -> OutlierReport:
    """Declare outliers above the largest relative gap among the top eigenvalues.

    Scans the top ``max_candidates`` descending eigenvalues for the largest
    relative gap g_i = (lambda_i - lambda_{i+1}) / max(lambda_{i+1}, eps)
    (eps guards zero/negative denominators). If that gap exceeds
    ``DEFAULT_GAP_THRESHOLD``, everything above it is an outlier and the
    eigenvalue just below is the bulk edge; otherwise the report is empty.
    Ties on the largest gap resolve to the fewest outliers. Zero outliers is
    a valid report.
    """
    lam = spectrum.eigenvalues
    m = min(int(max_candidates), lam.shape[0] - 1)
    if m < 1:
        return OutlierReport(0, float(lam[0]), np.empty(0))
    top = lam[: m + 1]
    eps = 1e-12 * max(abs(float(lam[0])), np.finfo(float).tiny)
    gaps = (top[:-1] - top[1:]) / np.maximum(top[1:], eps)
    best = int(np.argmax(gaps))
    if gaps[best] <= DEFAULT_GAP_THRESHOLD:
        return OutlierReport(0, float(lam[0]), np.empty(0))
    return OutlierReport(
        n_outliers=best + 1,
        bulk_edge=float(top[best + 1]),
        outlier_values=top[: best + 1].copy(),
    )


def gradient_overlaps(
    spectrum: SymmetricSpectrum, gradient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of the gradient against each eigenvector, plus cumulative power.

    cosines[i] = <g, v_i> / ||g||; cumulative_power[i] is the squared power
    captured by the first i+1 eigenvectors, reaching 1 at the last index.
    Errors on a zero gradient.
    """
    g = np.asarray(gradient, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ValueError("gradient is zero; overlaps undefined")
    cosines = spectrum.eigenvectors.T @ (g / norm)
    return cosines, np.cumsum(cosines**2)


def top10_power(cumulative_power: np.ndarray) -> float:
    """Gradient power captured by the top 10 eigenvectors (all when D < 10)."""
    return float(cumulative_power[min(10, cumulative_power.shape[0]) - 1])


def random_orthonormal_basis(params: ModelParams, stream: RngStream) -> np.ndarray:
    """D x d basis: modified Gram-Schmidt on d i.i.d. Gaussian columns.

    Redraws on numerical rank deficiency (probability ~0 for d <= D).
    """
    d_big, d_small = params.n_weights, params.hyperplane_dim
    for _ in range(8):
        raw = gaussian_matrix(stream, d_big, d_small, 1.0)
        basis = np.empty_like(raw)
        ok = True
        for j in range(d_small):
            v = raw[:, j].copy()
            for i in range(j):  # modified Gram-Schmidt: subtract as you go
                v -= (basis[:, i] @ v) * basis[:, i]
            norm = float(np.linalg.norm(v))
            if norm < 1e-8 * np.sqrt(d_big):
                ok = False
                break
            basis[:, j] = v / norm
        if ok:
            return basis
    raise RuntimeError("random basis draw kept collapsing; giving up after 8 tries")


def project_hessian(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Compression B^T H B onto an orthonormal basis (columns of B).

    Its eigenvalues interlace H's: the top cannot rise, the bottom cannot
    fall. Requires B^T B = I within 1e-8.
    """
    h = np.asarray(matrix, dtype=float)
    b = np.asarray(basis, dtype=float)
    gram_err = float(np.abs(b.T @ b - np.eye(b.shape[1])).max())
    if gram_err > 1e-8:
        raise ValueError(f"basis columns not orthonormal (max deviation {gram_err:.3e})")
    proj = b.T @ h @ b
    return (proj + proj.T) / 2.0
