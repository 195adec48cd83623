"""Shared oracles for the test suite.

The oracles are deliberately independent of the package internals: losses
are recomputed from first principles and derivatives come from central finite
differences, so agreement with the library is evidence rather than tautology.
The one exception, :func:`full_solve_sweep`, samples through the package and
differs from it only in how it solves each Hessian. :func:`model_hessian`,
:func:`weight_gradient`, :func:`read_dump`, :func:`clustering_report` and
:func:`q_sl` are the package's blocked paths applied to a whole tensor or
file: one block, all blocks at once, or the tensor's blocks of
:func:`~lossgeom.gradients.block_rows` examples (:func:`tensor_blocks`).
:func:`fresh_python` runs code in a new interpreter, for what one process
keeps across calls (its peak memory) or prints to its own stderr.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from lossgeom import sample_ensemble, sample_logit_gradients
from lossgeom.clustering import UnitSums, blocked_clustering_report
from lossgeom.dumps import read_dump_blocks
from lossgeom.gradients import block_rows, gradient_sum
from lossgeom.logits import freezing_stats
from lossgeom.rng import RngStream
from lossgeom.spectra import (
    detect_outliers, fold_hessian, openblas_routines, project_hessian, random_orthonormal_basis,
)
from lossgeom import experiments


def model_hessian(tensor, ensemble):
    """H = (1/N) sum_mu J[mu]^T A[mu] J[mu] folded from the whole tensor as one
    block, which it overwrites with the rows X. The fold writes the upper
    triangle, which is copied onto the lower one: H is returned whole."""
    n, _, d = tensor.shape
    hessian = np.empty((d, d))
    fold_hessian(hessian, tensor, ensemble.probs, first=True)
    hessian /= n
    return mirrored(hessian)


def mirrored(hessian):
    """``hessian`` with its upper triangle copied onto its lower one, in place."""
    upper = np.triu_indices(len(hessian), 1)
    hessian.T[upper] = hessian[upper]
    return hessian


def weight_gradient(tensor, ensemble):
    """g = (1/N) sum_{mu,k} (y - p)[mu,k] J[mu,k] of the whole tensor."""
    return gradient_sum(tensor, ensemble) / ensemble.n_examples


def read_dump(path):
    """(tensor, labels) of the dump at ``path``, its blocks copied into one array
    (the binary reader reuses one buffer for every block)."""
    shape, labels, blocks = read_dump_blocks(path)
    data = np.empty(shape)
    for start, block in blocks:
        data[start : start + len(block)] = block
    return data, labels


def tensor_blocks(tensor):
    """(start, tensor[start : start + rows]) per block, rows = block_rows of its shape."""
    step = block_rows(*tensor.shape)
    return ((start, tensor[start : start + step]) for start in range(0, len(tensor), step))


def clustering_report(tensor, labels):
    """The clustering statistics of an (N, C, D) tensor, scored block by block."""
    return blocked_clustering_report(tensor.shape, labels, tensor_blocks(np.asarray(tensor)))


def q_sl(tensor):
    """The same-logit statistic of an (N, C, D) tensor as ``sweep-snr`` reads it:
    its per-logit unit sums added block by block. Unlike :func:`clustering_report`
    it needs no labels, and takes C = 1."""
    sums = UnitSums(np.shape(tensor))
    for start, block in tensor_blocks(np.asarray(tensor, dtype=float)):
        sums.add(start, block)
    return sums.q_sl()


def philox_generator(seed, label):
    """The Philox generator rng.py documents for (seed, label), at draw 0."""
    digest = hashlib.sha256(
        int(seed).to_bytes(8, "little") + b"\x1f" + label.encode("utf-8")
    ).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], "<u8")))


def sample_residuals(params, stream):
    """The whole (N, C, D) residual draw in one call: i.i.d. Normal(0, sigma_e^2),
    example-major, logit-next, weight-last."""
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    return stream.gaussians(n * c * d, params.sigma_e).reshape(n, c, d)


def serial_gaussians(gen, n):
    """n Box-Muller normals from ``gen``, one whole-array pass over ceil(n/2) pairs."""
    m = (n + 1) // 2
    u = gen.random((2, m))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    theta = 2.0 * np.pi * u[1]
    z = np.empty(2 * m)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


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


def whole_tensor_clustering(tensor, labels):
    """(q_slsc, q_sl, q_dl, per_class_q) from one unit-row copy of the whole tensor.

    The closed forms of lossgeom.clustering written over whole-tensor
    reductions; the blocked pass must give the same bits.
    """
    n, c, _ = tensor.shape
    units = tensor / np.linalg.norm(tensor, axis=-1)[..., np.newaxis]

    def pair_mean(unit_sum, count):
        return (float(unit_sum @ unit_sum) - count) / (count * (count - 1))

    per_logit = units.sum(axis=0)
    q_sl = float(np.mean([pair_mean(row, n) for row in per_logit]))
    if labels is None:
        return None, q_sl, None, None
    members = [np.flatnonzero(labels == k) for k in range(c)]
    per_class = np.array(
        [pair_mean(units[idx, k].sum(axis=0), idx.size) for k, idx in enumerate(members)]
    )
    per_example = units.sum(axis=1)
    total = per_logit.sum(axis=0)
    pair_sum = (
        float(total @ total)
        - float((per_logit * per_logit).sum())
        - float((per_example * per_example).sum(axis=1).sum())  # per example, then over examples
        + n * c
    )
    q_dl = pair_sum / (n * (n - 1) * c * (c - 1))
    return float(per_class.mean()), q_sl, q_dl, per_class


def peak_bytes(fn, *args):
    """Peak bytes numpy and Python allocate while ``fn(*args)`` runs (tracemalloc).
    The BLAS and LAPACK routines are bound first: their first binding would count
    its ctypes objects."""
    openblas_routines()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_python(*args):
    """``python *args`` in a fresh interpreter that imports this package; its
    completed process, output captured as text."""
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


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


def gram_schmidt(raw):
    """Modified Gram-Schmidt orthonormalization of the columns of ``raw``."""
    basis = np.empty_like(raw)
    for j in range(raw.shape[1]):
        v = raw[:, j].copy()
        for i in range(j):
            v -= (basis[:, i] @ v) * basis[:, i]
        basis[:, j] = v / np.linalg.norm(v)
    return basis


def sweep_tasks(params, spec):
    """(sigma_z, repeat, point, label prefix) of each task of the default
    (tied) sweep mode, in grid order."""
    for i, sigma_z in enumerate(spec.grid()):
        factor = (sigma_z / params.sigma_z) ** spec.gamma
        point = replace(
            params, sigma_z=float(sigma_z), sigma_c=params.sigma_c * factor,
            sigma_e=params.sigma_e * factor,
        )
        for rep in range(spec.repeats):
            yield float(sigma_z), rep, point, f"sweep:{i}:{rep}:"


def full_solve_sweep(params, spec):
    """run_sigma_z_sweep's records (tuples in field order) from whole eigensystems.

    Samples as the default sweep mode does, then solves every Hessian with
    numpy.linalg.eigh and reads each column off the whole spectrum: the trace
    is the eigenvalue sum, the norm max |lambda|, the top-10 power from the
    first 10 eigenvectors.
    """
    records = []
    for sigma_z, rep, point, prefix in sweep_tasks(params, spec):
        ensemble = sample_ensemble(point, prefix)
        tensor = sample_logit_gradients(point, prefix)
        hessian = model_hessian(tensor.copy(), ensemble)
        lam, vec = np.linalg.eigh(hessian)
        lam, vec = lam[::-1], vec[:, ::-1]
        stream = RngStream(point.seed, prefix + "hyperplane")
        basis = random_orthonormal_basis(point, stream)
        mu = np.linalg.eigvalsh(project_hessian(hessian, basis))
        g = weight_gradient(tensor, ensemble)
        cosines = vec[:, :10].T @ g / np.linalg.norm(g)
        whole = SimpleNamespace(eigenvalues=lam)
        outliers = detect_outliers(whole, 3 * params.n_classes)
        norm = np.abs(lam).max()
        records.append((
            float(sigma_z), point.sigma_c, lam[0], lam.sum(), norm, lam.sum() / norm,
            mu.sum() / np.abs(mu).max(), *freezing_stats(ensemble),
            outliers.n_outliers, float(cosines @ cosines), rep,
        ))
    return records


def no_draws(monkeypatch, samplers=("sample_ensemble", "logit_gradient_blocks")):
    """Fail the test if an experiment calls one of ``samplers``: by default it
    may sample neither an ensemble nor a gradient tensor."""
    def fail(*args, **kwargs):
        raise AssertionError("sampled before the check")

    for name in samplers:
        monkeypatch.setattr(experiments, name, fail)
