"""Benchmark of the lossgeom CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-ref --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
One process drives every call (a closed loop with one client). Each
iteration runs the workload's program calls once, then checks their outputs
outside the timed region; iterations repeat until ``--seconds`` have passed
and at least two (five for spectrum-full) have run.

``--trace 0`` reports the end-to-end metrics: the median over iterations of
the wall and CPU time of the program calls, the peak resident memory, and
``setup_s``, the median time of eleven fresh processes that import
``lossgeom.cli``, started after the measured loop.
``--trace 1`` alternates untraced and traced iterations and reports
per-layer metrics (per iteration) from the traced ones, plus the tracing
overhead. The last line of standard output is the result object; a
full run record with provenance goes to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

# One fresh import takes about 0.5 s and varies by about 10% from the next,
# so setup_s is the median of many.
SETUP_REPEATS = 11
# A sweep iteration takes 10-20 s, and a run's spread over seeds comes from
# the shared machine's slow and fast phases, which last minutes: over ten
# runs, the median of two sweep iterations spread as little as that of three.
# A spectrum-full iteration holds only three full eigensolves, whose time on
# two BLAS threads of a shared 2-core machine swings by about 20%, so that
# workload takes five of its short iterations.
MIN_ITERATIONS = 2
MIN_ITERATIONS_OF = {"spectrum-full": 5}
MAX_PROBLEMS_KEPT = 20


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def _setup_seconds(src: str) -> list[float]:
    """Wall time of fresh interpreters that import ``lossgeom.cli``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import lossgeom.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, src], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# ---- provenance ---------------------------------------------------------------

def _openblas_runtime() -> list[dict]:
    """Config string and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            if "openblas" in line.lower() and "/" in line:
                paths.add(line[line.index("/"):].strip())
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    entry["threads"] = get_threads()
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "lossgeom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(src: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}: "
                      f"{blas.get('openblas configuration', '')}",
        "blas_runtime": _openblas_runtime(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(src),
        "seed": seed,
    }


# ---- the measured loop ----------------------------------------------------------

def _reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _check_call(call, refs, local_refs, problems: list) -> bool:
    """Check one call's outputs; returns True when they pass."""
    try:
        values = call.extract()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        found = [f"outputs unreadable: {exc!r}"]
    else:
        found = check.invariant_problems(values)
        if refs is not None:
            if call.name in refs:
                found += check.mismatches(values, refs[call.name])
            else:
                found.append("no stored reference for this call")
        elif call.name in local_refs:
            found += check.mismatches(values, local_refs[call.name])
        elif not found:
            local_refs[call.name] = values
    problems.extend(f"{call.name}: {p}" for p in found)
    return not found


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  shape: str = "full", refs_dir: str | None = check.REFS_DIR,
                  after_call=None, min_iterations: int | None = None) -> dict:
    """Run one benchmark run and return its record (result plus details).

    ``refs_dir=None`` skips stored references: the first passing call of each
    kind becomes the reference for the rest of the run. ``after_call(call)``
    runs after each call, before its check (the self-test alters outputs).
    ``min_iterations`` overrides the workload's minimum iteration count.
    """
    if min_iterations is None:
        min_iterations = MIN_ITERATIONS_OF.get(workload, MIN_ITERATIONS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lossgeom", "cli.py")):
        raise FileNotFoundError(f"no lossgeom sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import lossgeom.cli
    import lossgeom.dumps  # noqa: F401  (imported before the tracer installs)

    if not os.path.abspath(lossgeom.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"lossgeom was imported from {lossgeom.cli.__file__}, not {src}")

    from layertrace import LayerTracer

    work = os.path.join(ROOT, ".perfbench", "work", f"{workload}-{seed}-{os.getpid()}")
    _reset_dir(work)
    refs = None if refs_dir is None else check.load_refs(workload, shape, seed, refs_dir)
    reference = "stored" if refs is not None else "first-call"
    local_refs: dict = {}
    problems: list[str] = []
    iterations: list[dict] = []
    attempted = failed = 0
    tracer = LayerTracer() if trace else None
    try:
        calls = workloads.WORKLOADS[workload](work, seed, shape)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(iterations) % 2 == 1
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
            wall = cpu = 0.0
            for call in calls:
                _reset_dir(call.out)
                t0, c0 = time.perf_counter(), _cpu_seconds()
                try:
                    code = call.run()
                except Exception:  # a failing call is counted, and the run goes on
                    code = None
                    problems.append(f"{call.name}: raised\n{traceback.format_exc()}")
                wall += time.perf_counter() - t0
                cpu += _cpu_seconds() - c0
                attempted += 1
                if after_call is not None:
                    after_call(call)
                if code not in (0, None):
                    problems.append(f"{call.name}: exit code {code}")
                failed += not (code == 0 and _check_call(call, refs, local_refs, problems))
            iterations.append({"wall_s": wall, "cpu_s": cpu, "traced": traced})
            if (len(iterations) >= min_iterations
                    and time.perf_counter() - start >= seconds):
                break
        if tracer is not None:
            tracer.uninstall()
        peak_rss = _peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [it for it in iterations if not it["traced"]]
    if tracer is None:
        # After the peak RSS reading: these children must not count in it.
        setup = _setup_seconds(src)
        values = {
            "wall_s": statistics.median(it["wall_s"] for it in untraced),
            "cpu_s": statistics.median(it["cpu_s"] for it in untraced),
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setup),
        }
        units = declared_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        setup = []
        traced = [it for it in iterations if it["traced"]]
        layer = tracer.metrics(len(traced))
        layer["trace.overhead_frac"] = (
            statistics.median(it["wall_s"] for it in traced)
            / statistics.median(it["wall_s"] for it in untraced) - 1.0
        )
        units = declared_units("per_layer")
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": shape,
        "reference": reference,
        "provenance": provenance(src, seed),
        "iterations": iterations,
        "setup_samples_s": setup,
        "ops_failed_frac": failed / attempted,
        "problems": problems[:MAX_PROBLEMS_KEPT],
        "reference_values": local_refs,
        "result": result,
    }


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def _save_record(record: dict) -> str:
    digest = record["provenance"]["source_sha256"][:12]
    folder = os.path.join(ROOT, ".perfbench", "runs", digest)
    os.makedirs(folder, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path = os.path.join(folder, name)
    slim = {k: v for k, v in record.items() if k != "reference_values"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(slim, fh, indent=1, allow_nan=False)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=workloads.SHAPES, default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.shape)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    path = _save_record(record)
    print(json.dumps({"record": os.path.relpath(path, ROOT),
                      "reference": record["reference"],
                      "provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(record["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
