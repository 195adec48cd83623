"""Experiment orchestration: the property experiments and the sweeps.

Every Hessian output runs through one loop, :func:`_pipeline`: each task is
drawn block by block (:func:`_draw`), folded into H, then measured by a solve
for only what the output reads. No output holds the (N, C, D) tensor. Each
experiment is a pure function of a :class:`ModelParams` (plus a sweep spec
where applicable). Every public ``run_*`` function measures under
:func:`one_blas_thread`. README's Determinism section states the threads,
the streams and the byte contract.

Labels are re-drawn per sweep point and repeat at the configured target
accuracy: each point models a training snapshot at fixed accuracy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .clustering import (
    ClusteringReport,
    UnitSums,
    blocked_clustering_report,
    class_counts,
)
from .dumps import read_dump_blocks
from .gradients import block_rows, gradient_sum, logit_gradient_blocks
from .logits import LogitEnsemble, freezing_stats, sample_ensemble
from .params import ModelParams
from .rng import RngStream
from .spectra import (
    OutlierReport,
    SymmetricSpectrum,
    detect_outliers,
    eigh,
    fold_hessian,
    gradient_overlaps,
    openblas_libraries,
    openblas_routines,
    project_hessian,
    random_orthonormal_basis,
    spectral_norm,
    top10_power,
    trace_norm_ratio,
)

DEFAULT_MEMORY_LIMIT = 2**31  # bytes allowed for one instance's large arrays
_BLOCKS = 3  # a one-task run's block buffers: the one read and two drawn meanwhile
_LANES = 2  # a run's threads: lanes drawing and measuring whole tasks, or one task's draw-ahead
# bytes built per grid entry before the first draw (tracemalloc, rounded up):
# a sweep task (755 B) and its record (425-456 B) per (point, repeat); a freeze
# point's params and results (443 B), or 8.5-11.8 KB with C = 3 simplex rows
_SWEEP_TASK_BYTES = 1280
_FREEZE_POINT_BYTES = 512
_SIMPLEX_POINT_BYTES = 12288
SIMPLEX_SAMPLE_LIMIT = 500
# equilateral-triangle corners for barycentric plotting of C=3 rows
_SIMPLEX_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


@dataclass(frozen=True)
class SweepSpec:
    """Log grid, noise mode and repeats of the logit-variance sweep.

    ``gamma`` is the mean-gradient growth exponent: at grid value sigma_z a
    sweep of ``params`` uses sigma_c = params.sigma_c * (sigma_z /
    params.sigma_z)^gamma, so the sweep passes through the model it scales.
    The tied mode scales sigma_e by the same factor (constant
    sigma_c/sigma_e); ``fixed_sigma_e=True`` holds sigma_e at its base value.
    """

    sigma_z_min: float = 1e-3
    sigma_z_max: float = 1e2
    points: int = 25
    gamma: float = 0.5
    repeats: int = 5
    fixed_sigma_e: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.sigma_z_min < self.sigma_z_max < math.inf:
            raise ValueError(
                f"need 0 < sigma_z_min < sigma_z_max < inf, got {self.sigma_z_min} "
                f"and {self.sigma_z_max}"
            )
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        if 8 * self.points > DEFAULT_MEMORY_LIMIT:
            raise ValueError(
                f"a grid of {self.points} points needs {8 * self.points} bytes, over "
                f"the {DEFAULT_MEMORY_LIMIT}-byte memory limit"
            )
        if self.repeats < 1:
            raise ValueError(f"need at least 1 repeat, got {self.repeats}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    def grid(self) -> np.ndarray:
        return np.logspace(
            math.log10(self.sigma_z_min), math.log10(self.sigma_z_max), self.points
        )


@dataclass(frozen=True)
class SweepRecord:
    """One (grid point, repeat) summary of the sweep."""

    sigma_z: float
    sigma_c: float
    top_eigenvalue: float
    trace: float
    spectral_norm: float
    trace_ratio: float
    projected_trace_ratio: float
    mean_entropy: float
    mean_max_prob: float
    n_outliers: int
    grad_power_top10: float
    repeat: int


class SweepError(ValueError):
    """A sweep task's error, prefixed with its point, sigma_z and repeat.

    ``records`` holds the records finished before the failing task, in grid
    order (empty when it failed before any record).
    """

    def __init__(self, message: str, records: list[SweepRecord] | None = None) -> None:
        super().__init__(message)
        self.records: list[SweepRecord] = records or []


@functools.cache
def _thread_count_functions(lib: ctypes.CDLL) -> tuple:
    """(get, set) thread-count functions of the OpenBLAS ``lib``, or ()."""
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return ()


_HOLD = threading.RLock()


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS to one thread, restoring the counts on exit.

    Each BLAS or LAPACK call then runs on the calling thread, so results do
    not depend on the BLAS thread count, and no BLAS worker competes with a
    run's own threads (:func:`_pipeline`) for the cores. Each hold reads the
    libraries loaded when it is entered (numpy's among them). A nested hold
    re-enters; holds in other threads wait for it.
    """
    libs = [found for found in map(_thread_count_functions, openblas_libraries()) if found]
    with _HOLD:
        saved = [(put, get()) for get, put in libs]
        try:
            for put, _ in saved:
                put(1)
            yield
        finally:
            for put, count in saved:
                put(count)


def point_means(records: list[SweepRecord], name: str) -> np.ndarray:
    """Per-point mean of field ``name`` over the repeats, records in sweep order."""
    repeats = records[-1].repeat + 1
    values = np.array([getattr(r, name) for r in records])
    return values.reshape(-1, repeats).mean(axis=1)


def _check_memory(params: ModelParams, blocks: bool = True, hessian: bool = True,
                  extra: dict | None = None) -> None:
    """Fail before any draw if the ensemble, gradients or dense Hessian would not fit.

    ``blocks`` counts the gradients of three blocks of :func:`block_rows`
    examples, as a one-task Hessian output or ``cluster`` holds (a lane holds
    one). tracemalloc reads 6.1-7.0 N*C doubles for the ensemble and its
    freezing statistics (C = 2 to 30), so the bound counts eight. A blocked
    sweep holds 3.5-4.7 MB besides its two H (5.0-5.9 MB with three blocks):
    blocks, sampling chunks and q_sl's unit rows. So the bound counts two
    doubles per gradient entry of three blocks. Besides H, in whose buffer every
    solve works, the solve allocates under 0.2x H for eigenvalues or the top
    k and 2.0x H for a whole eigensystem (tracemalloc, D=600 and D=1000), so
    the bound counts four D*D doubles: one H and a whole solve, or a
    many-task run's two H and top-k solves; ``hessian=False`` skips it.
    ``extra`` maps what else a run holds to its bytes: its grid, built before
    the first draw (:data:`_SWEEP_TASK_BYTES`), or its projection (:func:`_projection`).
    """
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    terms = {f"{n}x{c} logit ensemble with its temporaries": 8 * 8 * n * c}
    if blocks:
        rows = _BLOCKS * block_rows(n, c, d)
        terms[f"{rows}x{c}x{d} gradient blocks with its temporaries"] = 2 * 8 * rows * c * d
    if hessian:
        terms[f"dense {d}x{d} Hessian with its eigensolve"] = 4 * 8 * d * d
    terms.update(extra or {})
    needed = sum(terms.values())
    if needed > DEFAULT_MEMORY_LIMIT:
        name = max(terms, key=terms.get)
        raise ValueError(f"{name} needs {terms[name]} bytes ({needed} in all), over the "
                         f"{DEFAULT_MEMORY_LIMIT}-byte memory limit")


def _check_gradients(params: ModelParams) -> None:
    if params.sigma_c == params.sigma_e == 0:  # every gradient, and H, would be zero
        raise ValueError("sigma_c = sigma_e = 0 makes every gradient and the Hessian zero")


def _draw(params: ModelParams, prefix: str, reads, blocks: list, hessian: np.ndarray,
          pool=None):
    """Draw one task: sample its ensemble and its gradients block by block
    into ``blocks`` (:func:`logit_gradient_blocks`, drawing ahead on ``pool``
    if given); each block is read, with ``reads(params, ensemble)``'s (add,
    value) pair, then folded into ``hessian``'s upper triangle.
    Returns (ensemble, value(), H / N)."""
    ensemble = sample_ensemble(params, prefix)
    add, value = reads(params, ensemble)
    for start, block in logit_gradient_blocks(params, prefix, blocks, pool):
        add(start, block)
        fold_hessian(hessian, block, ensemble.probs[start : start + len(block)], start == 0)
    hessian /= params.n_examples
    return ensemble, value(), hessian


def _no_read(params: ModelParams, ensemble: LogitEnsemble):
    return (lambda start, block: None), (lambda: None)


def _gradient(params: ModelParams, ensemble: LogitEnsemble):
    """Read the weight gradient g = (1/N) sum_mu (y - p)[mu] J[mu], summed by block."""
    total = np.zeros(params.n_weights)
    return ((lambda start, block: np.add(total, gradient_sum(block, ensemble, start), out=total)),
            lambda: total / params.n_examples)


def _same_logit_q(params: ModelParams, ensemble: LogitEnsemble):
    """Read q_sl, the same-logit statistic, its unit sums added block by block."""
    sums = UnitSums((params.n_examples, params.n_classes, params.n_weights))
    return sums.add, sums.q_sl


def _top_k(params: ModelParams) -> int:
    """k = min(D, max(3C+1, 10)): the outlier scan reads 3C+1 eigenvalues,
    the top-10 gradient power 10 eigenvectors."""
    return min(params.n_weights, max(3 * params.n_classes + 1, 10))


@dataclass(frozen=True)
class _Task:
    """One Hessian measurement."""

    params: ModelParams
    prefix: str = ""
    repeat: int = 0


def _pipeline(tasks: list[_Task], reads, measure, extra: dict | None = None):
    """Yield ``measure(task, ensemble, read, hessian)`` per task, in order; the
    caller must exhaust it. Tasks share one shape, drawn in blocks of
    :func:`block_rows` examples. A model with sigma_c = sigma_e = 0 (H = 0) is
    rejected first, then one that fails the memory check (with the ``extra``
    terms of :func:`_check_memory`), then a process with no BLAS to bind
    (:func:`openblas_routines`), all before any buffer or draw. The run owns
    one executor of ``_LANES`` threads, joined before it returns: one task is
    drawn here into ``_BLOCKS`` buffers, the executor drawing the next blocks
    ahead; many go to it in grid order, each thread drawing a whole task into
    its one block and measuring it. All under :func:`one_blas_thread`; then
    the heap is trimmed (:func:`_trim_heap`), so a process running many
    commands keeps the peak of its largest one. Task t's error raises in
    place of item t."""
    params = tasks[0].params
    _check_gradients(params)
    _check_memory(params, extra=extra)
    openblas_routines()  # bound, or the run fails, before any buffer or draw
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    rows, one = block_rows(n, c, d), len(tasks) == 1
    free = queue.SimpleQueue()  # each lane's buffers, while no task holds them
    for _ in tasks[:_LANES]:  # H zeroed: eigh checks the unread triangle
        free.put(([np.empty((rows, c, d)) for _ in range(_BLOCKS if one else 1)], np.zeros((d, d))))

    def run(task: _Task, pool=None):
        blocks, hessian = free.get()
        try:
            ensemble, read, hessian = _draw(task.params, task.prefix, reads, blocks, hessian,
                                            pool)
            if one:
                blocks.clear()  # the blocks go before the solve
            return measure(task, ensemble, read, hessian)
        finally:
            free.put((blocks, hessian))

    with one_blas_thread(), ThreadPoolExecutor(_LANES) as pool:
        if one:
            yield run(tasks[0], pool)
        else:
            submitted = (pool.submit(run, task) for task in tasks)
            ahead = list(itertools.islice(submitted, 2 * _LANES))  # few: the guard counts none
            try:
                while ahead:
                    result = ahead.pop(0).result()
                    ahead.extend(itertools.islice(submitted, 1))
                    yield result
            finally:  # after a failure no lane takes another task
                pool.shutdown(cancel_futures=True)
    _trim_heap()


def _trim_heap() -> None:
    """Return the C heap's free pages to the OS: glibc's ``malloc_trim``, where there is one."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, TypeError):  # no malloc_trim; no CDLL(None) on Windows
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _projection(params: ModelParams, lanes: int = 1) -> dict:
    """The guard's term for :func:`_projected` (B, B^T, B^T H and two k x k) on ``lanes``
    threads at once: tracemalloc reads 3.1-5.0 D*k doubles per projection at D = 600, 1000
    and k = 10 to D; it counts 4 D*k + 2 k^2."""
    d, k = params.n_weights, params.hyperplane_dim
    name = f"{d}x{k} hyperplane basis with its projection"
    return {name + f", on each of {lanes} lanes" * (lanes > 1): lanes * 8 * (4 * d * k + 2 * k * k)}


def _projected(params: ModelParams, prefix: str, hessian: np.ndarray) -> SymmetricSpectrum:
    """Eigenvalues of H compressed onto the random ``<prefix>hyperplane`` basis."""
    basis = random_orthonormal_basis(params, RngStream(params.seed, prefix + "hyperplane"))
    return eigh(project_hessian(hessian, basis), vectors=False)


def run_spectrum_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, OutlierReport]:
    """One full ensemble at params: Hessian eigenvalues plus outlier report."""
    [spectrum] = _pipeline([_Task(params)], _no_read,
                           lambda task, ensemble, read, h: eigh(h, vectors=False))
    return spectrum, detect_outliers(spectrum, max_candidates=3 * params.n_classes)


def run_overlap_experiment(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Gradient/eigenvector cosines and cumulative power at params.

    Raises the zero-gradient error if every probability row is frozen
    exactly onto its label, else the zero-norm error if every row is one-hot.
    """
    def measure(task, ensemble, gradient, h):
        spectrum = eigh(h)
        overlaps = gradient_overlaps(spectrum, gradient)
        if spectral_norm(spectrum) == 0.0:  # H = 0, whose eigenbasis is arbitrary
            raise ValueError("overlaps undefined: spectral norm is zero")
        return overlaps

    [overlaps] = _pipeline([_Task(params)], _gradient, measure)
    return overlaps


def run_projection_experiment(
    params: ModelParams,
) -> tuple[SymmetricSpectrum, SymmetricSpectrum]:
    """Hessian eigenvalues and those of its compression onto a random
    hyperplane, projected first: the solve consumes H."""
    def measure(task, ensemble, read, h):
        projected = _projected(params, "", h)
        return eigh(h, vectors=False), projected

    [spectra] = _pipeline([_Task(params)], _no_read, measure, _projection(params))
    return spectra


@one_blas_thread()
def run_clustering_experiment(params: ModelParams) -> ClusteringReport:
    """Clustering statistics of one model-sampled gradient tensor, scored one
    block of about 1 MB of examples at a time as it is drawn."""
    n, c, d = params.n_examples, params.n_classes, params.n_weights
    _check_gradients(params)
    _check_memory(params, hessian=False)
    labels = sample_ensemble(params).labels
    class_counts(labels, c)  # before the blocks are allocated and drawn
    blocks = [np.empty((block_rows(n, c, d), c, d)) for _ in range(_BLOCKS)]
    with ThreadPoolExecutor(_LANES) as pool:  # draws the next blocks ahead
        return blocked_clustering_report((n, c, d), labels,
                                         logit_gradient_blocks(params, "", blocks, pool))


@one_blas_thread()
def run_dump_clustering(path: str) -> ClusteringReport:
    """Clustering statistics of the gradient dump at ``path``, read and scored
    one block of about 1 MB of examples at a time (:func:`read_dump_blocks`)."""
    shape, labels, blocks = read_dump_blocks(path)
    return blocked_clustering_report(shape, labels, blocks)


def run_sigma_z_sweep(params: ModelParams, spec: SweepSpec) -> list[SweepRecord]:
    """Sweep sigma_z over spec's grid, one record per (point, repeat).

    sigma_c grows with sigma_z, and sigma_e with it unless
    ``spec.fixed_sigma_e`` holds it at its base value (see :class:`SweepSpec`).
    Records appear in grid order, repeats innermost. A failing task re-raises
    its ValueError as a :class:`SweepError` prefixed with the point, sigma_z
    and repeat of the first failing task in grid order, and carrying the
    records finished before it. A model sigma_z = 0 is rejected first, then
    a sweep whose tasks, records, blocks and H would not fit in memory.
    """
    if params.sigma_z == 0:
        raise ValueError("a sigma_z sweep scales around the model's sigma_z, which must not be 0")
    n_tasks = spec.points * spec.repeats
    _check_memory(params, extra={f"{n_tasks} sweep tasks with their records":
                                 _SWEEP_TASK_BYTES * n_tasks, **_projection(params, _LANES)})
    records: list[SweepRecord] = []

    def failed(i: int, sigma_z: float, rep: int, exc: ValueError) -> SweepError:
        return SweepError(f"sweep point {i} (sigma_z={sigma_z:g}) repeat {rep}: {exc}", records)

    tasks = []
    for i, sigma_z in enumerate(spec.grid()):  # every point is checked before the first draw
        try:
            point = _sweep_point(params, spec, float(sigma_z))
        except ValueError as exc:
            raise failed(i, sigma_z, 0, exc) from exc
        tasks += [_Task(point, f"sweep:{i}:{rep}:", rep) for rep in range(spec.repeats)]
    try:
        for record in _pipeline(tasks, _gradient, lambda task, *stages: _sweep_record(
                task.params, task.prefix, task.repeat, *stages)):
            records.append(record)
    except ValueError as exc:  # the first failing task is the next unfinished one
        task = tasks[len(records)]
        raise failed(len(records) // spec.repeats, task.params.sigma_z, task.repeat, exc) from exc
    return records


def _sweep_point(params: ModelParams, spec: SweepSpec, sigma_z: float) -> ModelParams:
    """params at grid value sigma_z, checked before any draw: the scaled sigmas
    must not underflow to zero together (``replace`` checks each one's square)."""
    try:
        factor = (sigma_z / params.sigma_z) ** spec.gamma
    except (OverflowError, ZeroDivisionError):  # 0.0 ** gamma < 0 raises: it is inf too
        factor = math.inf
    # a zero scale stays zero under an infinite factor, where 0 * inf is nan
    sigma_c = params.sigma_c * factor if params.sigma_c else 0.0
    sigma_e = params.sigma_e * factor if params.sigma_e and not spec.fixed_sigma_e else params.sigma_e
    if sigma_c == sigma_e == 0 < params.sigma_c + params.sigma_e:
        raise ValueError(f"(sigma_z/{params.sigma_z:g})^gamma underflows to sigma_c = sigma_e = 0")
    return replace(params, sigma_z=sigma_z, sigma_c=sigma_c, sigma_e=sigma_e)


def _sweep_record(
    params: ModelParams, prefix: str, rep: int, ensemble: LogitEnsemble,
    gradient: np.ndarray, hessian: np.ndarray,
) -> SweepRecord:
    """One task's record. Projects H first, then hands it to the top-k solve,
    which consumes it."""
    projected = _projected(params, prefix, hessian)
    spectrum = eigh(hessian, top=_top_k(params))
    _, cumulative = gradient_overlaps(spectrum, gradient)
    mean_entropy, mean_max_prob = freezing_stats(ensemble)
    report = detect_outliers(spectrum, max_candidates=3 * params.n_classes)
    return SweepRecord(
        sigma_z=params.sigma_z,
        sigma_c=params.sigma_c,
        top_eigenvalue=float(spectrum.eigenvalues[0]),
        trace=spectrum.trace,
        spectral_norm=spectral_norm(spectrum),
        trace_ratio=trace_norm_ratio(spectrum),
        projected_trace_ratio=trace_norm_ratio(projected),
        mean_entropy=mean_entropy,
        mean_max_prob=mean_max_prob,
        n_outliers=report.n_outliers,
        grad_power_top10=top10_power(cumulative),
        repeat=rep,
    )


def run_snr_sweep(
    params: ModelParams, snr_grid
) -> list[tuple[float, int, float]]:
    """(snr, n_outliers, q_sl) per grid point, sigma_c fixed, sigma_e = sigma_c/sqrt(snr)."""
    if params.sigma_c == 0:
        raise ValueError("an snr sweep needs sigma_c > 0, else every gradient is zero")
    UnitSums.check(params.n_examples)  # q_sl pairs examples
    snrs, tasks = [], []
    for i, snr in enumerate(snr_grid):  # every point is checked before the first draw
        if not snr > 0:
            raise ValueError(f"snr values must be positive, got {snr!r}")
        sigma_e = 0.0 if math.isinf(snr) else params.sigma_c / math.sqrt(snr)
        try:
            tasks.append(_Task(replace(params, sigma_e=sigma_e), f"snr:{i}:"))
        except ValueError as exc:
            raise ValueError(f"snr point {i} (snr={snr:g}): {exc}") from exc
        snrs.append(float(snr))
    if not tasks:
        raise ValueError("an snr sweep needs at least one snr value")

    def outliers(task, ensemble, same_logit_q, hessian):
        spectrum = eigh(hessian, top=_top_k(task.params), vectors=False)
        report = detect_outliers(spectrum, max_candidates=3 * params.n_classes)
        return report.n_outliers, same_logit_q

    counts = list(_pipeline(tasks, _same_logit_q, outliers))  # zip alone would not exhaust it
    return [(snr, n, q) for snr, (n, q) in zip(snrs, counts)]


def check_freezing_memory(params: ModelParams, points: int) -> None:
    """Fail unless the ensemble and ``points`` freezing grid points with their results fit."""
    per_point = _SIMPLEX_POINT_BYTES if params.n_classes == 3 else _FREEZE_POINT_BYTES
    _check_memory(params, blocks=False, hessian=False, extra={
        f"{points}-point freezing grid with its results": per_point * points})


@one_blas_thread()
def run_freezing_experiment(
    params: ModelParams, sigma_z_grid
) -> list[tuple[float, float, float, np.ndarray]]:
    """(sigma_z, mean_entropy, mean_max_prob, simplex_points) per grid point.

    ``simplex_points`` holds barycentric plane coordinates of up to 500
    probability rows when C=3 (for plotting the freezing motion on the
    probability simplex) and is empty otherwise.
    """
    check_freezing_memory(params, len(sigma_z_grid))
    points = []
    for i, sigma_z in enumerate(sigma_z_grid):  # every point is checked before the first draw
        try:
            points.append(replace(params, sigma_z=float(sigma_z)))
        except ValueError as exc:
            raise ValueError(f"freeze point {i} (sigma_z={sigma_z:g}): {exc}") from exc
    results = []
    for i, point in enumerate(points):
        ensemble = sample_ensemble(point, f"freeze:{i}:")
        rows = ensemble.probs[:SIMPLEX_SAMPLE_LIMIT] if params.n_classes == 3 else np.empty((0, 3))
        results.append((point.sigma_z, *freezing_stats(ensemble), rows @ _SIMPLEX_CORNERS))
    return results
