"""Clustering statistics of logit-gradient vector sets.

:func:`blocked_clustering_report` scores an (N, C, D) gradient tensor from
its blocks of examples, so a tensor drawn or read block by block (a model
draw, a dump file) is scored without ever being held whole. It reports:

* same-logit (q_sl): mean pairwise cosine over pairs of examples sharing
  logit index k; under the mean+residual model it concentrates on
  SNR/(SNR+1) with SNR = sigma_c^2/sigma_e^2 (:func:`predicted_q_sl`);
* same-logit-same-class: pairs sharing logit index k, restricted to
  examples labeled k, averaged per class then across classes;
* different-logits: pairs with k != l, all example pairs.

All pair averages are computed exactly at any N through closed forms over
unit vectors (sums of all pairwise cosines reduce to norms of vector sums),
so no pair subsampling is ever needed; brute-force all-pairs equivalence is
covered by the tests at small N. One pass over blocks of examples
(:class:`UnitSums`) keeps only C x D vector sums and N squared norms;
``sweep-snr`` reads q_sl alone from the same sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradients import class_labels


@dataclass(frozen=True)
class ClusteringReport:
    """All clustering statistics of one gradient tensor (entries in [-1, 1])."""

    q_slsc: float
    q_sl: float
    q_dl: float
    per_class_q: np.ndarray  # (C,) per-class same-logit-same-class averages


def _pair_mean(unit_sum: np.ndarray, count: int) -> float:
    # sum over ordered pairs of distinct unit vectors = ||sum||^2 - count
    return (float(unit_sum @ unit_sum) - count) / (count * (count - 1))


class UnitSums:
    """Sums of the unit rows u[mu, k] = J[mu, k] / |J[mu, k]| of an (N, C, D) tensor
    J, added a block of examples at a time in example order, as numpy's axis-0
    reduction adds them, so whatever the blocks each keeps its whole-tensor bits:
    ``per_logit`` (C, D) over examples and, given ``labels``, ``per_class`` (C, D)
    over the examples of each class and ``squares`` (N,), |sum_k u[mu, k]|^2."""

    def __init__(self, shape: tuple, labels: np.ndarray | None = None):
        n, c, d = shape
        self.n, self.labels, self.per_logit = self.check(n), labels, np.zeros((c, d))
        if labels is not None:
            self.per_class, self.squares = np.zeros((c, d)), np.empty(n)

    @staticmethod
    def check(n: int) -> int:
        if n < 2:  # no pair of examples to average over
            raise ValueError(f"need at least 2 examples, got {n}")
        return n

    def add(self, start: int, block: np.ndarray) -> None:
        """Add J[start : start + len(block)]. A row whose squares overflow or may
        underflow (norm inf or under 1e-140, where a square can be subnormal) is
        divided by its largest magnitude first, other rows keep their bits, and a
        zero row raises."""
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=-1)
        odd = (norms < 1e-140) | (norms == np.inf)
        if odd.any():
            peaks = np.abs(block).max(axis=-1)
            if np.any(peaks == 0.0):
                mu, k = np.argwhere(peaks == 0.0)[0]
                raise ValueError(f"zero gradient vector at example {start + mu}, logit {k}")
            block = np.where(odd[..., np.newaxis], block / peaks[..., np.newaxis], block)
            norms = np.linalg.norm(block, axis=-1)
        units = block / norms[..., np.newaxis]
        for mu, rows in enumerate(units, start):
            self.per_logit += rows
            if self.labels is not None:
                self.per_class[self.labels[mu]] += rows[self.labels[mu]]
        if self.labels is not None:
            sums = units.sum(axis=1)
            np.square(sums, out=sums).sum(axis=1, out=self.squares[start : start + len(units)])

    def q_sl(self) -> float:
        """The same-logit statistic: the mean over logits of its example pairs' cosine."""
        return float(np.mean([_pair_mean(unit_sum, self.n) for unit_sum in self.per_logit]))


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


def blocked_clustering_report(shape: tuple, labels, blocks) -> ClusteringReport:
    """All three statistics plus the per-class same-logit-same-class vector of
    the (N, C, D) tensor J that ``blocks`` yields one block of examples at a
    time, as (start, J[start : start + rows]) in example order; the bits do
    not depend on the blocks (a tensor in memory is one block, [(0, J)]).

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
    sums = UnitSums(shape, labels)
    for start, block in blocks:
        sums.add(start, block)
    # per class k: mean pairwise cosine of {dz[mu,k]/dW : label(mu) = k}
    per_class_q = np.array([_pair_mean(s, m) for s, m in zip(sums.per_class, counts)])
    # different logits (k != l, mu != nu) by inclusion-exclusion over both
    total = sums.per_logit.sum(axis=0)
    pair_sum = float(total @ total - np.square(sums.per_logit).sum() - sums.squares.sum() + n * c)
    return ClusteringReport(
        q_slsc=float(per_class_q.mean()),
        q_sl=sums.q_sl(),
        q_dl=pair_sum / (n * (n - 1) * c * (c - 1)),
        per_class_q=per_class_q,
    )
