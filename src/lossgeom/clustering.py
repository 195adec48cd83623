"""Clustering statistics of logit-gradient vector sets.

:func:`q_sl` is the same-logit mean pairwise cosine over the (N, C, D)
gradient tensor: pairs of examples sharing logit index k. Under the
mean+residual model it concentrates on SNR/(SNR+1) with
SNR = sigma_c^2/sigma_e^2 (:func:`predicted_q_sl`). :func:`clustering_report`
adds, from one normalization of the tensor:

* same-logit-same-class: pairs sharing logit index k, restricted to
  examples labeled k, averaged per class then across classes;
* different-logits: pairs with k != l, all example pairs.

All pair averages are computed exactly at any N through closed forms over
unit vectors (sums of all pairwise cosines reduce to norms of vector sums),
so no pair subsampling is ever needed; brute-force all-pairs equivalence is
covered by the tests at small N.

Functions take the (N, C, D) gradient tensor as an array, sampled or ingested
from a dump alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import class_labels, gradient_tensor


@dataclass(frozen=True)
class ClusteringReport:
    """All clustering statistics of one gradient tensor (entries in [-1, 1])."""

    q_slsc: float
    q_sl: float
    q_dl: float
    per_class_q: np.ndarray  # (C,) per-class same-logit-same-class averages


def _unit_rows(tensor: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(tensor, axis=-1)
    if np.any(norms == 0.0):
        mu, k = np.argwhere(norms == 0.0)[0]
        raise ValueError(f"zero gradient vector at example {mu}, logit {k}")
    return tensor / norms[..., np.newaxis]


def _pair_mean(unit_sum: np.ndarray, count: int) -> float:
    # sum over ordered pairs of distinct unit vectors = ||sum||^2 - count
    return (float(unit_sum @ unit_sum) - count) / (count * (count - 1))


def _same_logit(per_logit: np.ndarray, n: int) -> float:
    return float(np.mean([_pair_mean(unit_sum, n) for unit_sum in per_logit]))


def q_sl(grads) -> float:
    """Same-logit statistic: mean cosine over all example pairs, per logit."""
    tensor = gradient_tensor(grads)
    n = tensor.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 examples, got {n}")
    return _same_logit(_unit_rows(tensor).sum(axis=0), n)


def _q_dl(units: np.ndarray, per_logit: np.ndarray) -> float:
    """Different-logits statistic: mean cosine over pairs with k != l, mu != nu."""
    n, c, _ = units.shape
    per_example = units.sum(axis=1)  # (N, D) sums over logits
    total = per_logit.sum(axis=0)
    # inclusion-exclusion over the constraints mu != nu and k != l
    pair_sum = (
        float(total @ total)
        - float((per_logit * per_logit).sum())
        - float((per_example * per_example).sum())
        + n * c
    )
    return pair_sum / (n * (n - 1) * c * (c - 1))


def predicted_q_sl(sigma_c: float, sigma_e: float) -> float:
    """Model prediction SNR/(SNR+1), SNR = sigma_c^2/sigma_e^2 (1 if sigma_e=0)."""
    if sigma_c == 0.0 and sigma_e == 0.0:
        raise ValueError("predicted q undefined when both scales are zero")
    if sigma_e == 0.0:
        return 1.0
    snr = (sigma_c / sigma_e) ** 2
    return snr / (snr + 1.0)


def clustering_report(grads, labels: np.ndarray) -> ClusteringReport:
    """All three statistics plus the per-class same-logit-same-class vector.

    Errors unless ``labels`` holds one integer label in [0, C) per example,
    if any class has fewer than two labeled examples, if N < 2 or C < 2, or
    if any (example, logit) gradient row is zero.
    """
    tensor = gradient_tensor(grads)
    n, c, _ = tensor.shape
    labels = class_labels(labels, n, c)
    members = [np.flatnonzero(labels == k) for k in range(c)]
    for k, idx in enumerate(members):
        if idx.size < 2:
            raise ValueError(
                f"class {k} has {idx.size} labeled example(s); need at least 2"
            )
    if n < 2 or c < 2:
        raise ValueError(f"need N >= 2 and C >= 2, got N={n}, C={c}")
    units = _unit_rows(tensor)
    per_logit = units.sum(axis=0)  # (C, D) sums over examples
    # per class k: mean pairwise cosine of {dz[mu,k]/dW : label(mu) = k}
    per_class = np.array(
        [_pair_mean(units[idx, k].sum(axis=0), idx.size) for k, idx in enumerate(members)]
    )
    return ClusteringReport(
        q_slsc=float(per_class.mean()),
        q_sl=_same_logit(per_logit, n),
        q_dl=_q_dl(units, per_logit),
        per_class_q=per_class,
    )
