"""Symmetric eigendecomposition and spectral diagnostics.

:func:`eigh` solves only for what its caller reads: the whole spectrum by
LAPACK dsyevd, the top k eigenpairs by dsyevr. Both read the upper triangle
that :func:`fold_hessian` writes (by BLAS dsyrk), in the matrix's own
buffer: a solve consumes its matrix. These routines and the projection's
dsymm are called by ctypes in the OpenBLAS that numpy maps
(:func:`openblas_routines`; README, Determinism), which releases the GIL.
Results are reordered descending with a deterministic eigenvector sign
convention. On top of that sit the diagnostics used by the experiments:
largest-relative-gap outlier detection, gradient/eigenvector overlaps, the
trace-to-spectral-norm ratio, and random-hyperplane projection.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .rng import RngStream

DEFAULT_GAP_THRESHOLD = 2.0


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Descending eigenvalues, the column-matched eigenvectors if solved for,
    and the matrix's trace (read off its diagonal, so also exact for top k)."""

    eigenvalues: np.ndarray  # (k,) descending; k = D unless only the top k
    eigenvectors: np.ndarray | None  # (D, k), column i pairs with eigenvalues[i]
    trace: float


@dataclass(frozen=True)
class OutlierReport:
    """Outliers above the largest relative spectral gap.

    ``bulk_edge`` is the largest eigenvalue below the gap (the top eigenvalue
    itself when no outliers are declared); all outlier_values exceed it.
    """

    n_outliers: int
    bulk_edge: float
    outlier_values: np.ndarray


def eigh(
    matrix: np.ndarray, top: int | None = None, vectors: bool = True
) -> SymmetricSpectrum:
    """Eigenvalues of a symmetric matrix, descending, and optionally eigenvectors.

    ``top=None`` solves for the whole spectrum (dsyevd); ``top=k`` for the k
    largest eigenpairs only (dsyevr), with k >= D clamped to the whole
    spectrum. ``vectors=False`` skips the eigenvectors. The matrix is read
    from its upper triangle, as :func:`fold_hessian` writes it: LAPACK reads
    the lower triangle of the row-major buffer taken as column-major. The
    other triangle is not read, but every entry of the buffer must be finite.
    The trace is read before the solve.

    A solve consumes ``matrix``: LAPACK works in its buffer, so afterwards its
    contents are unspecified. It raises ValueError, rather than work on a
    copy, unless ``matrix`` is a writable C-contiguous float64 array.
    Eigenvector signs are fixed by making each column's largest-magnitude
    component positive (first occurrence on ties). Non-convergence raises
    LinAlgError; it is treated as fatal.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    if top is not None and top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    if h is not matrix or not h.flags.writeable or not h.flags.c_contiguous:
        raise ValueError(
            "eigh overwrites its matrix: need a writable C-contiguous float64 "
            f"array, got {np.asarray(matrix).dtype} (writeable={h.flags.writeable}, "
            f"c_contiguous={h.flags.c_contiguous})"
        )
    d = h.shape[0]
    high, low = (float(h.max()), float(h.min())) if h.size else (0.0, 0.0)
    if not (math.isfinite(high) and math.isfinite(low)):  # max and min propagate NaN
        raise ValueError("array must not contain infs or NaNs")
    trace = float(np.trace(h))
    k = d if top is None else min(int(top), d)
    if k == d:
        values = np.empty(d)
        _with_workspace("dsyevd", b"V" if vectors else b"N", b"L", d, h, d, values)
        vecs = h.T if vectors else None  # the eigenvectors overwrite H, column-major
    else:
        values, vecs = _top_eigenpairs(h, k, vectors)
    if vectors:
        vecs = vecs[:, ::-1]
        signs = np.sign(vecs[np.abs(vecs).argmax(axis=0), np.arange(k)])
        vecs = vecs * np.where(signs == 0, 1.0, signs)
    return SymmetricSpectrum(values[::-1].copy(), vecs, trace)


# the BLAS and LAPACK routines called: (character, pointer) argument counts
_ROUTINES = {"dsyrk": (2, 8), "dsymm": (2, 10), "dsyevr": (3, 18), "dsyevd": (2, 9)}
_library = functools.cache(ctypes.CDLL)


def openblas_libraries() -> list:
    """Each OpenBLAS mapped into this process now, opened by ctypes: the
    memory map is read at every call."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln[ln.index("/"):].strip() for ln in fh if "openblas" in ln.lower()}
    except OSError:  # no /proc: no OpenBLAS is found
        return []
    return [_library(path) for path in sorted(paths)]


@functools.cache
def openblas_routines() -> tuple:
    """(integer type, {name: routine}) for :data:`_ROUTINES`, bound at the
    first call in a mapped OpenBLAS that exports all four, 64-bit symbols
    first (numpy's; README, Dependencies). A routine takes its character and
    then pointer arguments, the Fortran argument list without string
    lengths; a symbol ending ``_64_`` takes 64-bit integers. Raises
    ValueError if no OpenBLAS exports them.
    """
    for pattern in ("scipy_{}_64_", "{}_64_", "scipy_{}_", "{}_"):
        for lib in openblas_libraries():
            found = {name: getattr(lib, pattern.format(name), None) for name in _ROUTINES}
            if all(found.values()):
                for name, (chars, pointers) in _ROUTINES.items():
                    found[name].argtypes = [ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers
                    found[name].restype = None
                return (ctypes.c_int64 if pattern.endswith("_64_") else ctypes.c_int), found
    raise ValueError("the Hessian commands need numpy linked to an OpenBLAS that exports "
                     "dsyrk, dsymm, dsyevr and dsyevd (numpy's own Linux wheels are); "
                     "no OpenBLAS loaded exports them")


def _call(name: str, *args) -> None:
    """Call routine ``name``: bytes pass as characters, arrays by address,
    and floats and ints by reference, as doubles and the routine's integers."""
    integer, routines = openblas_routines()
    routines[name](*[
        a if isinstance(a, bytes) else a.ctypes.data if isinstance(a, np.ndarray)
        else ctypes.byref((ctypes.c_double if isinstance(a, float) else integer)(a))
        for a in args])


def _with_workspace(name: str, *args) -> None:
    """Call LAPACK ``name`` on ``args`` and then its optimal (work, lwork,
    iwork, liwork), read by a workspace query first, and info. A nonzero
    info raises LinAlgError."""
    integer = np.dtype(openblas_routines()[0])
    info, work, iwork = np.zeros(1, dtype=integer), np.empty(1), np.empty(1, dtype=integer)

    def solve(lwork: int, liwork: int) -> None:
        _call(name, *args, work, lwork, iwork, liwork, info)
        if info[0] != 0:
            raise np.linalg.LinAlgError(f"LAPACK {name} failed with info = {info[0]}")

    solve(-1, -1)  # the query writes the optimal sizes to work[0] and iwork[0]
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=integer)
    solve(work.size, iwork.size)


def fold_hessian(hessian: np.ndarray, block: np.ndarray, probs: np.ndarray, first: bool) -> None:
    """Add X^T X to the upper triangle of the D x D ``hessian`` (write it there
    when ``first``), for X the rows sqrt(p[mu,k]) (J[mu,k] - w[mu]) of a block
    J of examples with probabilities ``probs``; X overwrites the block. The
    product is one BLAS dsyrk, called without the GIL; on a whole tensor it
    gives the bits of numpy's X^T X. ``hessian`` must be a writable
    C-contiguous float64 D x D array; BLAS writes its upper triangle in place.
    """
    rows, c, d = block.shape
    if not (hessian.shape == (d, d) and hessian.dtype == np.float64
            and hessian.flags.c_contiguous and hessian.flags.writeable):
        raise ValueError(f"need a writable C-contiguous float64 {d}x{d} hessian")
    block -= np.einsum("nc,ncd->nd", probs, block)[:, np.newaxis, :]
    block *= np.sqrt(probs)[:, :, np.newaxis]
    x = np.ascontiguousarray(block.reshape(rows * c, d), dtype=np.float64)
    # column-major, H's buffer holds H^T: its lower triangle ("L") is H's upper one
    _call("dsyrk", b"L", b"N", d, rows * c, 1.0, x, d, 0.0 if first else 1.0, hessian, d)


def _top_eigenpairs(
    h: np.ndarray, k: int, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """dsyevr's k largest eigenpairs, ascending, solved in h's own buffer.

    The arguments are scipy's for driver='evr' with subset_by_index
    [D-k, D-1]: range 'I', the lower triangle and abstol 0. The eigenvectors
    come back as a column-major (D, k) array, as scipy returns them.
    """
    d = h.shape[0]
    integer = np.dtype(openblas_routines()[0])
    values, found = np.empty(d), np.empty(1, dtype=integer)
    z = np.empty((k, d) if vectors else (1, 1))  # column-major D x k, LDZ = D
    _with_workspace("dsyevr", b"V" if vectors else b"N", b"I", b"L", d, h, d, 0.0, 0.0,
                    d - k + 1, d, 0.0, found, values, z, z.shape[1],
                    np.empty(2 * k, dtype=integer))
    return values[:k], z.T if vectors else None


def spectral_norm(spectrum: SymmetricSpectrum) -> float:
    """max |lambda_i| over the eigenvalues held: for the top k of a PSD
    matrix, such as the Hessian, lambda_1, the norm of the whole matrix."""
    return float(np.abs(spectrum.eigenvalues).max())


def trace_norm_ratio(spectrum: SymmetricSpectrum) -> float:
    """trace / spectral norm; errors when the spectral norm is zero."""
    norm = spectral_norm(spectrum)
    if norm == 0.0:
        raise ValueError("trace/norm ratio undefined: spectral norm is zero")
    return spectrum.trace / norm


def detect_outliers(spectrum: SymmetricSpectrum, max_candidates: int) -> OutlierReport:
    """Declare outliers above the largest relative gap among the top eigenvalues.

    Scans the top ``max_candidates`` descending eigenvalues for the largest
    relative gap g_i = (lambda_i - lambda_{i+1}) / max(lambda_{i+1}, eps)
    (eps guards zero/negative denominators). If that gap exceeds
    ``DEFAULT_GAP_THRESHOLD``, everything above it is an outlier and the
    eigenvalue just below is the bulk edge; otherwise the report is empty.
    Ties on the largest gap resolve to the fewest outliers. Zero outliers is
    a valid report. A top-k spectrum gives the same report when it holds
    ``max_candidates + 1`` eigenvalues or the whole spectrum.
    """
    lam = spectrum.eigenvalues
    top = lam[: max(int(max_candidates), 0) + 1]
    eps = 1e-12 * max(abs(float(lam[0])), np.finfo(float).tiny)
    gaps = (top[:-1] - top[1:]) / np.maximum(top[1:], eps)
    best = int(np.argmax(gaps)) if gaps.size else 0
    if not gaps.size or gaps[best] <= DEFAULT_GAP_THRESHOLD:
        return OutlierReport(0, float(lam[0]), np.empty(0))
    return OutlierReport(
        n_outliers=best + 1,
        bulk_edge=float(top[best + 1]),
        outlier_values=top[: best + 1].copy(),
    )


def gradient_overlaps(
    spectrum: SymmetricSpectrum, gradient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of the gradient against each eigenvector held, plus cumulative power.

    cosines[i] = <g, v_i> / ||g||; cumulative_power[i] is the squared power
    of the first i+1, reaching 1 at the last index of a whole eigensystem.
    Errors on a zero gradient or a spectrum solved without eigenvectors.
    """
    g = np.asarray(gradient, dtype=float)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise ValueError("gradient is zero; overlaps undefined")
    if spectrum.eigenvectors is None:
        raise ValueError("spectrum was solved without eigenvectors")
    cosines = spectrum.eigenvectors.T @ (g / norm)
    return cosines, np.cumsum(cosines**2)


def top10_power(cumulative_power: np.ndarray) -> float:
    """Gradient power captured by the top 10 eigenvectors (all when fewer are held)."""
    return float(cumulative_power[min(10, cumulative_power.shape[0]) - 1])


def random_orthonormal_basis(params: ModelParams, stream: RngStream) -> np.ndarray:
    """D x d basis: QR of d i.i.d. Gaussian columns with diag(R) made positive.

    The sign fix makes it the Gram-Schmidt basis of the draw, which has full
    rank with probability 1 for d <= D.
    """
    d, k = params.n_weights, params.hyperplane_dim
    q, r = np.linalg.qr(stream.gaussians(d * k).reshape(d, k))
    return q * np.sign(np.diag(r))


def project_hessian(matrix: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Compression B^T H B onto an orthonormal basis (columns of B).

    H is read from its upper triangle, as :func:`eigh` reads it: one BLAS
    dsymm forms B^T H, which gives the bits of numpy's ``b.T @ h`` on a
    symmetric H. Its eigenvalues interlace H's: the top cannot rise, the
    bottom cannot fall. Requires a D x D H for a D-row B, and B^T B = I
    within 1e-8.
    """
    h = np.ascontiguousarray(matrix, dtype=np.float64)
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or h.shape != (b.shape[0],) * 2:
        raise ValueError(f"need a DxD matrix and a D-row basis, got {h.shape} and {b.shape}")
    gram_err = float(np.abs(b.T @ b - np.eye(b.shape[1])).max())
    if gram_err > 1e-8:
        raise ValueError(f"basis columns not orthonormal (max deviation {gram_err:.3e})")
    d, small = b.shape
    bt = np.ascontiguousarray(b.T)
    bth = np.empty((small, d))
    # column-major, bt's buffer is B and H's buffer is H with its lower triangle
    # ("L") the upper one: C = H B, whose buffer read row-major is B^T H
    _call("dsymm", b"L", b"L", d, small, 1.0, h, d, bt, d, 0.0, bth, d)
    proj = bth @ b
    return (proj + proj.T) / 2.0
