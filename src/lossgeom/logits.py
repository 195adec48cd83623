"""Softmax / cross-entropy layer of the random model.

Logits z of shape (N, C) are i.i.d. Normal(0, sigma_z^2); probabilities are
row-wise softmax; labels are assigned to hit a target simulated accuracy.
As sigma_z grows the softmax rows freeze onto single classes (the Boltzmann
freezing of i.i.d. random energies), which :func:`freezing_stats` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams
from .rng import RngStream


@dataclass(frozen=True)
class LogitEnsemble:
    """Sampled logits with derived probabilities and assigned labels.

    Invariants: each probs row sums to 1 within 1e-12 and labels lie in
    [0, C). Rows are strictly positive whenever no within-row logit gap
    exceeds ~745 (the float64 exp underflow threshold); beyond that,
    underflowed zeros are possible.
    """

    logits: np.ndarray  # (N, C)
    probs: np.ndarray  # (N, C)
    labels: np.ndarray  # (N,) int

    @property
    def n_examples(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax in max-subtracted form (no overflow for finite input)."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def shannon_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each probability row (last axis), with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=float)
    terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def assign_labels(
    probs: np.ndarray, target_accuracy: float, stream: RngStream
) -> np.ndarray:
    """Labels hitting the target simulated accuracy.

    Exactly round(target_accuracy * N) examples (a uniformly random subset)
    get their argmax class (ties broken toward the lowest index); the rest
    get a uniformly random class different from the argmax.
    """
    if not 0.0 <= target_accuracy <= 1.0:
        raise ValueError(f"target_accuracy must lie in [0, 1], got {target_accuracy!r}")
    probs = np.asarray(probs, dtype=float)
    n, c = probs.shape
    argmax = probs.argmax(axis=1)
    labels = argmax.copy()
    n_correct = int(round(target_accuracy * n))
    order = stream.permutation(n)
    wrong = order[n_correct:]
    if wrong.size:
        # draw over C-1 classes, then skip past the argmax slot
        draw = stream.integers(c - 1, wrong.size)
        labels[wrong] = draw + (draw >= argmax[wrong])
    return labels


def freezing_stats(ensemble: LogitEnsemble) -> tuple[float, float]:
    """(mean entropy in bits, mean max probability) over the ensemble."""
    return (
        float(shannon_entropy(ensemble.probs).mean()),
        float(ensemble.probs.max(axis=1).mean()),
    )


def sample_ensemble(params: ModelParams, label_prefix: str = "") -> LogitEnsemble:
    """Draw N x C i.i.d. Normal(0, sigma_z^2) logits and their labels at params.seed.

    Stream labels are ``<prefix>logits`` and ``<prefix>labels``; sweep
    code passes per-task prefixes like ``"sweep:3:1:"`` so each (point,
    repeat) task owns independent streams.
    """
    n, c, seed = params.n_examples, params.n_classes, params.seed
    stream = RngStream(seed, label_prefix + "logits")
    logits = stream.gaussians(n * c, params.sigma_z).reshape(n, c)
    probs = softmax_probs(logits)
    labels = assign_labels(probs, params.target_accuracy, RngStream(seed, label_prefix + "labels"))
    return LogitEnsemble(logits=logits, probs=probs, labels=labels)
