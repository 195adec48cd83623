"""Outside-in layer tracing of the ``lossgeom`` package.

The tracer wraps, from outside the package, the public functions of each
``lossgeom`` module plus the public methods of ``RngStream``. Every wrapped
call records a span; a layer's busy (self) time is the span's duration minus
the part covered by its child spans. Counts are taken at the same boundary.

``from .x import f`` binds ``f`` in the importing module too, so installing
a wrapper rebinds every module attribute that is the original function
(for example ``experiments.eigh``, ``cli.eigh`` and ``cli.read_dump``).
``uninstall`` restores the originals, so one process can alternate traced
and untraced iterations.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# module -> default layer key; _layer_of splits some modules by function name
_MODULE_LAYERS = {
    "rng": "rng",
    "logits": "logits",
    "gradients": "gradients.sample",
    "spectra": "spectra.diag",
    "clustering": "clustering",
    "dumps": "dumps",
    "experiments": "experiments",
    "config": "config",
    "cli": "cli",
}


def _layer_of(module: str, name: str) -> str:
    if module == "gradients":
        if "hessian" in name or "coupling" in name:
            return "gradients.hessian"
        if name == "weight_gradient":
            return "gradients.weight_gradient"
    if module == "spectra" and "eig" in name:
        return "spectra.eigh"
    return _MODULE_LAYERS[module]


def _dump_format(path) -> str:
    return "csv" if str(path).endswith(".csv") else "lgrd"


def _dump_bytes(path) -> int:
    path = str(path)
    size = os.path.getsize(path)
    if path.endswith(".csv"):
        size += os.path.getsize(os.path.splitext(path)[0] + ".labels.csv")
    return size


def _out_dir(argv) -> str | None:
    argv = list(argv)
    if "--out" in argv[:-1]:
        return argv[argv.index("--out") + 1]
    return None


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


class _Frame:
    __slots__ = ("module", "start", "child")

    def __init__(self, module: str, start: float):
        self.module = module
        self.start = start
        self.child = 0.0


class LayerTracer:
    """Span stack plus per-layer accumulators for one traced process."""

    def __init__(self, package: str = "lossgeom"):
        self.package = package
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # ---- accumulators -------------------------------------------------
    def reset(self) -> None:
        self.busy = defaultdict(float)  # layer key -> self seconds
        self.entries = defaultdict(int)  # module -> calls entering it from outside
        self.calls = defaultdict(int)  # layer key -> every call
        self.counts = defaultdict(float)  # named counters (normals, bytes, ...)

    def _on_return(self, module: str, name: str, key: str, args, kwargs, result, outer):
        c = self.counts
        if module == "rng" and name == "gaussians":
            c["rng.normals"] += int(args[1] if len(args) > 1 else kwargs["n"])
        elif key == "gradients.hessian" and name == "model_hessian":
            n, k, d = args[0].shape
            c["gradients.hessian_gflop"] += 2.0 * n * k * d * d / 1e9
        elif key == "spectra.eigh" and hasattr(result, "eigenvalues"):
            c["spectra.eigh_dim_max"] = max(
                c["spectra.eigh_dim_max"], float(len(args[0]) if args else 0)
            )
            c["spectra.eigenpairs_returned"] += len(result.eigenvalues)
        elif module == "clustering" and outer:
            grads = args[0]
            tensor = getattr(grads, "residuals", grads)
            c["clustering.input_mb"] += getattr(tensor, "nbytes", 0) / 1e6
        elif key.startswith("dumps."):
            c[key + "_mb"] += _dump_bytes(args[0] if args else kwargs["path"]) / 1e6
        elif module == "experiments" and outer:
            c["experiments.tasks"] += len(result) if isinstance(result, list) else 1
        elif module == "cli" and name == "run_command":
            out = _out_dir(args[0] if args else kwargs["argv"])
            if out is not None and os.path.isdir(out):
                c["cli.output_mb"] += _tree_bytes(out) / 1e6

    def _wrap(self, module: str, name: str, fn):
        key = _layer_of(module, name)
        is_dump_io = module == "dumps" and name in ("write_dump", "read_dump")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_key = key
            if is_dump_io:
                path = args[0] if args else kwargs["path"]
                op = "write" if name == "write_dump" else "read"
                span_key = f"dumps.{_dump_format(path)}.{op}"
            outer = not stack or stack[-1].module != module
            frame = _Frame(module, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame.start
                stack.pop()
                self.busy[span_key] += duration - frame.child
                self.calls[span_key] += 1
                if outer:
                    self.entries[module] += 1
                if stack:
                    stack[-1].child += duration
            self._on_return(module, name, span_key, args, kwargs, result, outer)
            return result

        return wrapper

    # ---- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of the traced modules (idempotent)."""
        if self._patches:
            return
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        }
        replacements: dict[int, object] = {}
        for short in _MODULE_LAYERS:
            mod = modules.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                replacements[id(obj)] = (obj, self._wrap(short, name, obj))
            if short == "rng":
                cls = mod.RngStream
                for name, obj in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._patch(cls, name, self._wrap("rng", name, obj))
        # rebind the originals wherever a module imported them by name
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # ---- per-layer metrics ------------------------------------------------
    def metrics(self, iterations: int) -> dict[str, float]:
        """Per-iteration layer metrics from everything recorded since reset."""
        per = 1.0 / max(iterations, 1)
        b, c = self.busy, self.counts

        def rate(amount: float, seconds: float) -> float:
            return amount / seconds if seconds > 0 else 0.0

        rng_busy = b["rng"]
        hess_busy = b["gradients.hessian"]
        clus_busy = b["clustering"]
        m = {
            "rng.calls": self.entries["rng"],
            "rng.normals": c["rng.normals"],
            "rng.busy_s": rng_busy,
            "logits.calls": self.entries["logits"],
            "logits.busy_s": b["logits"],
            "gradients.sample_busy_s": b["gradients.sample"],
            "gradients.weight_gradient_busy_s": b["gradients.weight_gradient"],
            "gradients.hessian_calls": self.calls["gradients.hessian"],
            "gradients.hessian_busy_s": hess_busy,
            "gradients.hessian_gflop": c["gradients.hessian_gflop"],
            "spectra.eigh_calls": self.calls["spectra.eigh"],
            "spectra.eigh_busy_s": b["spectra.eigh"],
            "spectra.eigenpairs_returned": c["spectra.eigenpairs_returned"],
            "spectra.diag_busy_s": b["spectra.diag"],
            "clustering.calls": self.entries["clustering"],
            "clustering.busy_s": clus_busy,
            "clustering.input_mb": c["clustering.input_mb"],
            "dumps.lgrd.write_s": b["dumps.lgrd.write"],
            "dumps.lgrd.read_s": b["dumps.lgrd.read"],
            "dumps.lgrd.mb": max(c["dumps.lgrd.write_mb"], c["dumps.lgrd.read_mb"]),
            "dumps.csv.write_s": b["dumps.csv.write"],
            "dumps.csv.read_s": b["dumps.csv.read"],
            "dumps.csv.mb": max(c["dumps.csv.write_mb"], c["dumps.csv.read_mb"]),
            "experiments.tasks": c["experiments.tasks"],
            "experiments.self_s": b["experiments"],
            "config.busy_s": b["config"],
            "cli.calls": self.entries["cli"],
            "cli.self_s": b["cli"],
            "cli.output_mb": c["cli.output_mb"],
        }
        m = {k: float(v) * per for k, v in m.items()}
        # ratios and maxima are not per-iteration sums
        m["rng.normals_per_s"] = rate(c["rng.normals"], rng_busy)
        m["gradients.hessian_gflops"] = rate(c["gradients.hessian_gflop"], hess_busy)
        m["spectra.eigh_dim_max"] = float(c["spectra.eigh_dim_max"])
        m["clustering.mb_per_s"] = rate(c["clustering.input_mb"], clus_busy)
        m["dumps.lgrd.read_mb_per_s"] = rate(c["dumps.lgrd.read_mb"], b["dumps.lgrd.read"])
        return m
