"""Weight-space gradient and G-term Hessian of the random model.

Logit gradients decompose into class means plus residuals,
J[mu,k] = dz[mu,k]/dW = c[k] + E[mu,k], with c ~ N(0, sigma_c^2) (optionally
length-varied per class) and E ~ N(0, sigma_e^2). J is an (N, C, D) array,
sampled whole by :func:`sample_logit_gradients`, or a block of examples at a
time by :func:`logit_gradient_blocks` or from a dump. The weight-space
objects are sums over examples, so both are built by block:

    g  = (1/N) sum_mu sum_k (y - p)[mu,k] J[mu,k]
    H  = (1/N) sum_mu J[mu]^T A[mu] J[mu],   A[mu] = diag(p) - p p^T

H is assembled through the exact variance identity
J^T A J = sum_k p_k (J_k - w)(J_k - w)^T with w = sum_l p_l J_l, which keeps
it PSD by construction: :func:`lossgeom.spectra.fold_hessian` writes the
rows X = sqrt(p_k) (J_k - w) over a block and adds X^T X to H's upper
triangle, the one triangle that module reads. Every blocked reader
(assembly, clustering, the dump reader) takes :func:`block_rows` examples.

Sign convention: g uses y - p, so g is minus the gradient of the
cross-entropy loss (the finite-difference tests check -g).
"""

from __future__ import annotations

import numpy as np

from .logits import LogitEnsemble
from .params import ModelParams
from .rng import GaussianDraw, RngStream

_BLOCK_BYTES = 1 << 20  # gradient bytes per block of examples


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


def block_rows(n: int, c: int, d: int) -> int:
    """Examples per block of an (N, C, D) tensor: about ``_BLOCK_BYTES`` of
    gradients, at least one and at most N (when N > 0)."""
    return max(1, min(n, _BLOCK_BYTES // max(1, 8 * c * d)))


def sample_mean_logit_gradients(params: ModelParams, stream: RngStream) -> np.ndarray:
    """C x D class-mean gradients, row k scaled by 1 + length_beta*k/(C-1)."""
    c, d = params.n_classes, params.n_weights
    lengths = 1.0 + params.length_beta * np.arange(c) / (c - 1)
    return stream.gaussians(c * d, params.sigma_c).reshape(c, d) * lengths[:, np.newaxis]


def sample_logit_gradients(params: ModelParams, label_prefix: str = "") -> np.ndarray:
    """The (N, C, D) tensor J[mu,k] = c[k] + E[mu,k] at params.seed: the one
    block of :func:`logit_gradient_blocks` that holds all N examples."""
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    [(_, tensor)] = logit_gradient_blocks(params, label_prefix, [np.empty((n, c, d))])
    return tensor


def logit_gradient_blocks(params: ModelParams, label_prefix: str, buffers):
    """Yield (start, J[start : start + rows]) for the tensor of
    :func:`sample_logit_gradients`, rows = len(buffers[0]) examples at a time.

    Each block's residual rows (``<prefix>residuals``) are drawn at their own
    offset of the whole draw, so they are its rows bit for bit; the class
    means (``<prefix>means``) are added in place. Blocks take turns in
    ``buffers``, (rows, C, D) float64 arrays; the next blocks, one per other
    buffer, are drawn on the sampling pool while the caller reads this one,
    which it must be done with when it asks for the next.
    """
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    residuals = GaussianDraw(RngStream(params.seed, label_prefix + "residuals"), n * c * d,
                             params.sigma_e)
    means = sample_mean_logit_gradients(params, RngStream(params.seed, label_prefix + "means"))
    starts = range(0, n, len(buffers[0]))

    def begin(b: int, background: bool = True):
        block = buffers[b % len(buffers)][: n - starts[b]]
        return block, residuals.fill(block, starts[b] * c * d, background)

    pending = []
    try:
        for b, start in enumerate(starts):
            block, futures = pending.pop(0) if pending else begin(b, False)
            for future in futures:
                future.result()
            while len(pending) < len(buffers) - 1 and b + 1 + len(pending) < len(starts):
                pending.append(begin(b + 1 + len(pending)))
            block += means
            yield start, block
    finally:  # a caller that stops early: no draw outlives it into the buffers
        for _, futures in pending:
            for future in futures:
                future.result()


def gradient_sum(tensor: np.ndarray, ensemble: LogitEnsemble, start: int = 0) -> np.ndarray:
    """The D-vector sum_{mu,k} (y - p)[mu,k] J[mu,k] over a block of examples
    start, start + 1, ... of the ensemble."""
    rows = slice(start, start + len(tensor))
    coef = np.eye(ensemble.n_classes)[ensemble.labels[rows]] - ensemble.probs[rows]
    return np.einsum("nc,ncd->d", coef, tensor)
