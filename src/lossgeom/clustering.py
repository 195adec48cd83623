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
covered by the tests at small N. The vector sums come from one pass over
blocks of examples (:func:`_unit_sums`) that never copies the whole tensor.

:func:`q_sl` and :func:`clustering_report` take the (N, C, D) gradient tensor
as an array; :func:`blocked_clustering_report` takes its blocks, so a tensor
drawn or read block by block (a model draw, a dump file) is scored without
ever being held whole.
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


_BLOCK_BYTES = 1 << 20  # tensor bytes per block of _tensor_blocks


def _tensor_blocks(tensor: np.ndarray):
    """(start, tensor[start : start + rows]), rows = about ``_BLOCK_BYTES`` of examples."""
    n, c, d = tensor.shape
    step = max(1, _BLOCK_BYTES // max(1, 8 * c * d))
    return ((start, tensor[start : start + step]) for start in range(0, n, step))


def _unit_sums(shape: tuple, blocks, labels: np.ndarray | None = None):
    """Sums of the unit rows u[mu, k] = J[mu, k] / |J[mu, k]| of the (N, C, D)
    tensor J that ``blocks`` yields as (start, J[start : start + rows]): per
    logit over examples (C, D) and, given ``labels``, per class of
    u[mu, labels[mu]] (C, D) and per example over logits (N, D), else None.
    One pass normalizes one block at a time (:func:`_add_unit_sums`)."""
    n, c, d = shape
    per_logit = np.zeros((c, d))
    per_class = None if labels is None else np.zeros((c, d))
    per_example = None if labels is None else np.empty((n, d))
    for start, block in blocks:
        _add_unit_sums(block, start, per_logit, labels, per_class, per_example)
    return per_logit, per_class, per_example


def _add_unit_sums(block, start, per_logit, labels=None, per_class=None, per_example=None):
    """Add the unit rows of a block of examples start, start + 1, ... to the
    sums of :func:`_unit_sums`, in example order, as numpy's axis-0 reduction
    adds them: whatever the blocks, every sum keeps the whole-tensor bits."""
    norms = np.linalg.norm(block, axis=-1)
    if np.any(norms == 0.0):
        mu, k = np.argwhere(norms == 0.0)[0]
        raise ValueError(f"zero gradient vector at example {start + mu}, logit {k}")
    units = block / norms[..., np.newaxis]
    for mu, rows in enumerate(units, start):
        per_logit += rows
        if labels is not None:
            per_class[labels[mu]] += rows[labels[mu]]
    if labels is not None:
        units.sum(axis=1, out=per_example[start : start + len(units)])


def _pair_mean(unit_sum: np.ndarray, count: int) -> float:
    # sum over ordered pairs of distinct unit vectors = ||sum||^2 - count
    return (float(unit_sum @ unit_sum) - count) / (count * (count - 1))


def _same_logit(per_logit: np.ndarray, n: int) -> float:
    if n < 2:
        raise ValueError(f"need at least 2 examples, got {n}")
    return float(np.mean([_pair_mean(unit_sum, n) for unit_sum in per_logit]))


def q_sl(grads) -> float:
    """Same-logit statistic: mean cosine over all example pairs, per logit."""
    tensor = gradient_tensor(grads)
    return _same_logit(_unit_sums(tensor.shape, _tensor_blocks(tensor))[0], tensor.shape[0])


def predicted_q_sl(sigma_c: float, sigma_e: float) -> float:
    """Model prediction SNR/(SNR+1), SNR = sigma_c^2/sigma_e^2 (1 if sigma_e=0)."""
    if sigma_c == 0.0 and sigma_e == 0.0:
        raise ValueError("predicted q undefined when both scales are zero")
    if sigma_c == 0.0:
        return 0.0
    # 1/(1 + 1/SNR): a float product overflows to inf (giving 0), where ** raises
    ratio = sigma_e / sigma_c
    return 1.0 / (1.0 + ratio * ratio)


def class_counts(labels: np.ndarray, n_classes: int) -> list[int]:
    """Examples per class of valid ``labels``; errors if a class has fewer than two."""
    counts = np.bincount(labels, minlength=n_classes).tolist()
    for k, count in enumerate(counts):
        if count < 2:
            raise ValueError(f"class {k} has {count} labeled example(s); need at least 2")
    return counts


def clustering_report(grads, labels: np.ndarray) -> ClusteringReport:
    """All three statistics plus the per-class same-logit-same-class vector
    of an (N, C, D) tensor: :func:`blocked_clustering_report` of its blocks."""
    tensor = gradient_tensor(grads)
    return blocked_clustering_report(tensor.shape, labels, _tensor_blocks(tensor))


def blocked_clustering_report(shape: tuple, labels, blocks) -> ClusteringReport:
    """:func:`clustering_report` of the (N, C, D) tensor J that ``blocks``
    yields one block of examples at a time, as (start, J[start : start + rows])
    in example order; the bits do not depend on the blocks.

    Errors, before the first block is read, unless ``labels`` holds one
    integer label in [0, C) per example, if any class has fewer than two
    labeled examples, or if N < 2 or C < 2; then at the first zero
    (example, logit) gradient row.
    """
    n, c, _ = shape
    labels = class_labels(labels, n, c)
    counts = class_counts(labels, c)
    if n < 2 or c < 2:
        raise ValueError(f"need N >= 2 and C >= 2, got N={n}, C={c}")
    per_logit, per_class, per_example = _unit_sums(shape, blocks, labels)
    # per class k: mean pairwise cosine of {dz[mu,k]/dW : label(mu) = k}
    per_class_q = np.array([_pair_mean(sums, m) for sums, m in zip(per_class, counts)])
    # different logits (k != l, mu != nu) by inclusion-exclusion over both
    total = per_logit.sum(axis=0)
    pair_sum = float(total @ total) - float((per_logit * per_logit).sum())
    per_example *= per_example  # in place: its square is the last read of it
    pair_sum = pair_sum - float(per_example.sum()) + n * c
    return ClusteringReport(
        q_slsc=float(per_class_q.mean()),
        q_sl=_same_logit(per_logit, n),
        q_dl=pair_sum / (n * (n - 1) * c * (c - 1)),
        per_class_q=per_class_q,
    )
