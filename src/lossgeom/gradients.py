"""Weight-space gradient and G-term Hessian of the random model.

Logit gradients decompose into class means plus residuals,
J[mu,k] = dz[mu,k]/dW = c[k] + E[mu,k], with c ~ N(0, sigma_c^2) (optionally
length-varied per class) and E ~ N(0, sigma_e^2). J is always one (N, C, D)
array, sampled by :func:`sample_logit_gradients` or read from a dump. The
weight-space objects are

    g  = (1/N) sum_mu sum_k (y - p)[mu,k] J[mu,k]
    H  = (1/N) sum_mu J[mu]^T A[mu] J[mu],   A[mu] = diag(p) - p p^T

H is assembled through the exact variance identity
J^T A J = sum_k p_k (J_k - w)(J_k - w)^T with w = sum_l p_l J_l, which keeps
it PSD by construction.

Sign convention: g uses y - p, so g is minus the gradient of the
cross-entropy loss (the finite-difference tests check -g).
"""

from __future__ import annotations

import numpy as np

from .logits import LogitEnsemble
from .params import ModelParams
from .rng import RngStream, gaussian_matrix, substream


def gradient_tensor(grads) -> np.ndarray:
    """``grads`` as a float (N, C, D) array; errors on any other shape."""
    tensor = np.asarray(grads, dtype=float)
    if tensor.ndim != 3:
        raise ValueError(f"expected an (N, C, D) tensor, got shape {tensor.shape}")
    return tensor


def class_labels(labels, n: int, c: int) -> np.ndarray:
    """``labels`` as (N,) int32; errors unless each is an integer in [0, C)."""
    given = np.asarray(labels)
    if given.shape != (n,):
        raise ValueError(f"got labels of shape {given.shape} for {n} examples")
    bad = np.flatnonzero((given < 0) | (given >= c) | (given != np.floor(given)))
    if bad.size:
        mu = bad[0]
        raise ValueError(f"label {given[mu]} of example {mu} is not an integer in [0, {c})")
    return given.astype(np.int32)


def sample_mean_logit_gradients(params: ModelParams, stream: RngStream) -> np.ndarray:
    """C x D class-mean gradients, row k scaled by 1 + length_beta*k/(C-1)."""
    base = gaussian_matrix(stream, params.n_classes, params.n_weights, params.sigma_c)
    k = np.arange(params.n_classes)
    lengths = 1.0 + params.length_beta * k / (params.n_classes - 1)
    return base * lengths[:, np.newaxis]


def sample_residuals(params: ModelParams, stream: RngStream) -> np.ndarray:
    """(N, C, D) i.i.d. Normal(0, sigma_e^2) residual tensor.

    Drawn example-major, logit-next, weight-last (matching the dump layout).
    """
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    return gaussian_matrix(stream, n * c, d, params.sigma_e).reshape(n, c, d)


def sample_logit_gradients(params: ModelParams, label_prefix: str = "") -> np.ndarray:
    """The (N, C, D) tensor J[mu,k] = c[k] + E[mu,k] at params.seed.

    Residuals come from the ``<prefix>residuals`` substream and the class
    means from ``<prefix>means``; the means are added in place.
    """
    seed = params.seed
    tensor = sample_residuals(params, substream(seed, label_prefix + "residuals"))
    means = sample_mean_logit_gradients(params, substream(seed, label_prefix + "means"))
    tensor += means
    return tensor


def weight_gradient(tensor: np.ndarray, ensemble: LogitEnsemble) -> np.ndarray:
    """The D-vector g = (1/N) sum_{mu,k} (y - p)[mu,k] J[mu,k]."""
    coef = np.eye(ensemble.n_classes)[ensemble.labels] - ensemble.probs
    return np.einsum("nc,ncd->d", coef, tensor) / ensemble.n_examples


def _weighted_centered_rows(tensor: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Rows sqrt(p[mu,k]) (T[mu,k] - sum_l p[mu,l] T[mu,l]), flattened to (N*C, D).

    Building block of the variance identity: for X = this matrix,
    X^T X = sum_mu T[mu]^T A[mu] T[mu] exactly. Allocates one tensor-size
    array and never writes into ``tensor``.
    """
    n, c, d = tensor.shape
    w = np.einsum("nc,ncd->nd", probs, tensor)
    centered = tensor - w[:, np.newaxis, :]
    centered *= np.sqrt(probs)[:, :, np.newaxis]
    return centered.reshape(n * c, d)


def model_hessian(tensor: np.ndarray, ensemble: LogitEnsemble) -> np.ndarray:
    """Dense D x D G-term Hessian H = (1/N) sum_mu J[mu]^T A[mu] J[mu].

    Exact assembly via the variance identity (module docstring); PSD by
    construction up to roundoff, and exactly symmetric (numpy forms X^T X
    with one triangle-mirroring syrk). ``tensor`` is left unchanged.
    """
    x = _weighted_centered_rows(tensor, ensemble.probs)
    return (x.T @ x) / tensor.shape[0]
