"""Output check: parsed values against stored or in-run reference values.

Tolerances follow the project's rule that a speedup must reproduce its
numbers to roundoff. Values are compared after parsing, never as bytes,
because output bytes change with the BLAS thread count.

* counts and flags (``n_outliers``, ``repeat``, ``interlacing_ok``,
  ``hyperplane_dim``): exact
* eigenvalue lists: each within 1e-12 times the spectral norm
* every other number: within 1e-12 relative
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-12
EXACT_FIELDS = {"n_outliers", "repeat", "interlacing_ok", "hyperplane_dim"}
EIGENVALUE_FIELDS = {"eigenvalue", "outlier_values"}

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
# Reference values exist for these seeds. HELD_OUT_SEED is kept for the final
# check of a performance claim (a seed not used while the change was written):
# do not run it while developing a change.
DEV_SEEDS = range(0, 16)
HELD_OUT_SEED = 7919


def ref_path(workload: str, shape: str, seed: int, refs_dir: str = REFS_DIR) -> str:
    return os.path.join(refs_dir, workload, f"{shape}-seed-{seed}.json")


def load_refs(workload: str, shape: str, seed: int, refs_dir: str = REFS_DIR) -> dict | None:
    """Stored reference values per call name, or None when none are stored."""
    path = ref_path(workload, shape, seed, refs_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["calls"]


def save_refs(workload: str, shape: str, seed: int, calls: dict,
              refs_dir: str = REFS_DIR) -> str:
    path = ref_path(workload, shape, seed, refs_dir)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "shape": shape, "seed": seed, "calls": calls}, fh,
                  allow_nan=False, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return path


def _numbers(value) -> list:
    return list(value) if isinstance(value, list) else [value]


def invariant_problems(values: dict) -> list[str]:
    """Checks that hold for every seed: finite numbers, sorted spectra, and
    the documented ranges of the reported statistics."""
    problems = []
    for key, value in values.items():
        for v in _numbers(value):
            if isinstance(v, float) and not math.isfinite(v):
                problems.append(f"{key}: non-finite value {v!r}")
                break
    eig = values.get("spectrum.csv:eigenvalue")
    if eig is not None and any(a < b for a, b in zip(eig, eig[1:])):
        problems.append("spectrum.csv: eigenvalues are not in descending order")
    if values.get("projection.json:interlacing_ok") is False:
        problems.append("projection.json: interlacing_ok is false")
    for key in ("clustering.json:q_slsc", "clustering.json:q_sl", "clustering.json:q_dl"):
        if key in values and not -1.0 <= values[key] <= 1.0:
            problems.append(f"{key}: {values[key]!r} outside [-1, 1]")
    return problems


def _field(key: str) -> str:
    return key.split(":", 1)[1]


def mismatches(values: dict, ref: dict) -> list[str]:
    """Differences between parsed outputs and reference values of one call."""
    problems = []
    if set(values) != set(ref):
        problems.append(
            f"output fields differ: missing {sorted(set(ref) - set(values))}, "
            f"extra {sorted(set(values) - set(ref))}"
        )
    for key in sorted(set(values) & set(ref)):
        got, want = _numbers(values[key]), _numbers(ref[key])
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        field = _field(key)
        if field in EIGENVALUE_FIELDS:
            norm = max((abs(w) for w in want), default=0.0)
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if not abs(g - w) <= REL_TOL * norm]
        elif field in EXACT_FIELDS:
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        else:
            bad = [i for i, (g, w) in enumerate(zip(got, want))
                   if not abs(g - w) <= REL_TOL * max(abs(g), abs(w))]
        if bad:
            i = bad[0]
            problems.append(
                f"{key}[{i}]: {got[i]!r} against reference {want[i]!r} "
                f"({len(bad)} of {len(got)} differ)"
            )
    return problems
