"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals: losses
are recomputed from first principles and derivatives come from central finite
differences, so agreement with the library is evidence rather than tautology.
"""

import numpy as np


def reference_cross_entropy(tensor, labels, weights):
    """Mean cross-entropy of linear logits z_mu = J_mu @ w, computed stably."""
    logits = tensor @ weights
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_norm[:, None]
    rows = np.arange(tensor.shape[0])
    return -log_probs[rows, labels].mean()


def fd_gradient(tensor, labels, weights, step):
    """Central-difference gradient of reference_cross_entropy in weights."""
    dim = weights.shape[0]
    grad = np.zeros(dim)
    for i in range(dim):
        bump = np.zeros(dim)
        bump[i] = step
        up = reference_cross_entropy(tensor, labels, weights + bump)
        down = reference_cross_entropy(tensor, labels, weights - bump)
        grad[i] = (up - down) / (2.0 * step)
    return grad


def fd_hessian(tensor, labels, weights, step):
    """Central-difference Hessian of reference_cross_entropy in weights."""
    dim = weights.shape[0]
    hess = np.zeros((dim, dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        for j in range(i, dim):
            ej = np.zeros(dim)
            ej[j] = step
            pp = reference_cross_entropy(tensor, labels, weights + ei + ej)
            pm = reference_cross_entropy(tensor, labels, weights + ei - ej)
            mp = reference_cross_entropy(tensor, labels, weights - ei + ej)
            mm = reference_cross_entropy(tensor, labels, weights - ei - ej)
            value = (pp - pm - mp + mm) / (4.0 * step * step)
            hess[i, j] = value
            hess[j, i] = value
    return hess


def random_symmetric(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim))
    return scale * (raw + raw.T) / 2.0


def brute_force_weight_gradient(tensor, probs, labels):
    """Double loop over (example, class); the library must match this."""
    n_examples, n_classes, dim = tensor.shape
    total = np.zeros(dim)
    for mu in range(n_examples):
        for k in range(n_classes):
            coef = (1.0 if labels[mu] == k else 0.0) - probs[mu, k]
            total += coef * tensor[mu, k]
    return total / n_examples


def brute_force_hessian(tensor, probs):
    """Per-example J^T A J accumulation with explicit A = diag(p) - p p^T."""
    n_examples, n_classes, dim = tensor.shape
    total = np.zeros((dim, dim))
    for mu in range(n_examples):
        curvature = np.diag(probs[mu]) - np.outer(probs[mu], probs[mu])
        total += tensor[mu].T @ curvature @ tensor[mu]
    return total / n_examples


def brute_force_pair_cosines(tensor, mode):
    """All-pairs cosine means by explicit enumeration.

    mode "sl": same class index, distinct examples.
    mode "dl": different class, different example.
    """
    n_examples, n_classes, _ = tensor.shape
    units = tensor / np.linalg.norm(tensor, axis=2, keepdims=True)
    total = 0.0
    count = 0
    for mu in range(n_examples):
        for k in range(n_classes):
            for nu in range(n_examples):
                for l in range(n_classes):
                    if mu == nu:
                        continue
                    if mode == "sl" and k != l:
                        continue
                    if mode == "dl" and k == l:
                        continue
                    total += float(units[mu, k] @ units[nu, l])
                    count += 1
    return total / count


def class_coupling_matrix(probs):
    """P = (1/N) sum_mu (diag(p_mu) - p_mu p_mu^T), one example at a time."""
    n_examples, n_classes = probs.shape
    total = np.zeros((n_classes, n_classes))
    for mu in range(n_examples):
        total += np.diag(probs[mu]) - np.outer(probs[mu], probs[mu])
    return total / n_examples


def clustered_hessian(means, residuals, probs):
    """(signal, noise) split of the Hessian with mean/residual cross-terms dropped.

    signal = C^T P C from the class means and the coupling matrix;
    noise = (1/N) sum_mu E_mu^T A_mu E_mu from the residuals alone.
    """
    signal = means.T @ class_coupling_matrix(probs) @ means
    return signal, brute_force_hessian(residuals, probs)


def empirical_class_means(tensor, labels):
    """Row k = mean of tensor[mu, k] over the examples mu labeled k."""
    n_examples, n_classes, dim = tensor.shape
    means = np.zeros((n_classes, dim))
    for k in range(n_classes):
        members = [mu for mu in range(n_examples) if labels[mu] == k]
        for mu in members:
            means[k] += tensor[mu, k]
        means[k] /= len(members)
    return means
