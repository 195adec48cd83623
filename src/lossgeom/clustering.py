"""Clustering statistics of logit-gradient vector sets.

Three mean pairwise-cosine statistics over the (N, C, D) gradient tensor:

* same-logit-same-class: pairs sharing logit index k, restricted to
  examples labeled k, averaged per class then across classes;
* same-logit: pairs sharing k, all example pairs;
* different-logits: pairs with k != l, all example pairs.

Under the mean+residual model the same-logit value concentrates on
SNR/(SNR+1) with SNR = sigma_c^2/sigma_e^2 (:func:`predicted_q_sl`).

All pair averages are computed exactly at any N through closed forms over
unit vectors (sums of all pairwise cosines reduce to norms of vector sums),
so no pair subsampling is ever needed; brute-force all-pairs equivalence is
covered by the tests at small N.

Functions accept either a :class:`~lossgeom.gradients.LogitGradientSet` or a
raw (N, C, D) array (e.g. an ingested dump), since the statistics only need
the composed gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import gradient_tensor


@dataclass(frozen=True)
class ClusteringReport:
    """All clustering statistics of one gradient set (entries in [-1, 1])."""

    q_slsc: float
    q_sl: float
    q_dl: float
    per_class_q: np.ndarray  # (C,) per-class same-logit-same-class averages


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors, clamped to [-1, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.clip((u @ v) / (nu * nv), -1.0, 1.0))


def _unit_rows(tensor: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(tensor, axis=-1)
    if np.any(norms == 0.0):
        mu, k = np.argwhere(norms == 0.0)[0]
        raise ValueError(f"zero gradient vector at example {mu}, logit {k}")
    return tensor / norms[..., np.newaxis]


def _pair_mean(unit_sum: np.ndarray, count: int) -> float:
    # sum over ordered pairs of distinct unit vectors = ||sum||^2 - count
    return (float(unit_sum @ unit_sum) - count) / (count * (count - 1))


def per_class_q_slsc(grads, labels: np.ndarray) -> np.ndarray:
    """Per-class mean pairwise cosine of {dz[mu,k]/dW : label(mu) = k}.

    Errors if any class has fewer than two labeled examples.
    """
    tensor = gradient_tensor(grads)
    labels = np.asarray(labels)
    n, c, _ = tensor.shape
    values = np.empty(c)
    for k in range(c):
        members = np.flatnonzero(labels == k)
        if members.size < 2:
            raise ValueError(
                f"class {k} has {members.size} labeled example(s); need at least 2"
            )
        units = _unit_rows(tensor[members, k, :])
        values[k] = _pair_mean(units.sum(axis=0), members.size)
    return values


def q_sl(grads) -> float:
    """Same-logit statistic: mean cosine over all example pairs, per logit."""
    tensor = gradient_tensor(grads)
    n, c, _ = tensor.shape
    if n < 2:
        raise ValueError(f"need at least 2 examples, got {n}")
    units = _unit_rows(tensor)
    sums = units.sum(axis=0)  # (C, D)
    return float(np.mean([_pair_mean(sums[k], n) for k in range(c)]))


def q_dl(grads) -> float:
    """Different-logits statistic: mean cosine over pairs with k != l, mu != nu."""
    tensor = gradient_tensor(grads)
    n, c, _ = tensor.shape
    if n < 2 or c < 2:
        raise ValueError(f"need N >= 2 and C >= 2, got N={n}, C={c}")
    units = _unit_rows(tensor)
    per_logit = units.sum(axis=0)  # (C, D) sums over examples
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


def empirical_class_means(grads, labels: np.ndarray) -> np.ndarray:
    """Row k = mean of dz[mu,k]/dW over examples labeled k. Errors on empty classes."""
    tensor = gradient_tensor(grads)
    labels = np.asarray(labels)
    n, c, d = tensor.shape
    means = np.empty((c, d))
    for k in range(c):
        members = np.flatnonzero(labels == k)
        if members.size == 0:
            raise ValueError(f"class {k} has no labeled examples")
        means[k] = tensor[members, k, :].mean(axis=0)
    return means


def clustering_report(grads, labels: np.ndarray) -> ClusteringReport:
    """All three statistics plus the per-class same-logit-same-class vector."""
    tensor = gradient_tensor(grads)
    per_class = per_class_q_slsc(tensor, labels)
    return ClusteringReport(
        q_slsc=float(per_class.mean()),
        q_sl=q_sl(tensor),
        q_dl=q_dl(tensor),
        per_class_q=per_class,
    )
