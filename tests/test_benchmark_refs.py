"""The benchmark's stored reference outputs hold for the program in src/.

Each workload of ``perfbench/`` runs its program calls once at seed 0 and
checks the parsed outputs as the benchmark does (``check.invariant_problems``
and ``check.mismatches`` against the stored references), without timing
them. The held-out seed (``check.HELD_OUT_SEED``) is never run here.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_the_stored_references(tmp_path, workload):
    refs = check.load_refs(workload, "full", 0)
    assert refs is not None, f"no stored references for {workload} at seed 0"
    problems = []
    for call in workloads.WORKLOADS[workload](str(tmp_path), 0, "full"):
        os.makedirs(call.out, exist_ok=True)
        assert call.run() == 0, call.name
        values = call.extract()
        found = check.invariant_problems(values)
        found += check.mismatches(values, refs[call.name]) if call.name in refs else [
            "no stored reference for this call"]
        problems += [f"{call.name}: {p}" for p in found]
    assert not problems, "\n".join(problems)
