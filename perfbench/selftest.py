"""Self-test of the benchmark (not of the program). Takes about a minute.

    python3 perfbench/selftest.py

At the tiny shape it checks that every workload runs untraced and traced,
that every metric BENCHMARK.json names is reported with its unit, that the
printed result is valid JSON without NaN, that a deliberately altered output
file is counted as a failed call, and that the benchmark fails without
printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import check
import run
import workloads

SCRATCH = os.path.join(run.ROOT, ".perfbench", "selftest")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _fail(message: str) -> None:
    raise AssertionError(message)


def _check_result(result: dict, expected: dict[str, str], what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{what}: {result['failed']} of {result['attempted']} calls failed")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected:
        _fail(f"{what}: metrics {units} differ from BENCHMARK.json {expected}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{what}: {name} = {value!r}")


def _nudged(value: float) -> float:
    return value * (1 + 1e-9) if value else 1e-300


def alter_output(path: str) -> None:
    """Nudge one parsed value of a text output by 1e-9 relative: the last real
    of a JSON object (by key order), or the last number of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
        key = max(k for k, v in data.items() if isinstance(v, float))
        data[key] = _nudged(data[key])
        text = json.dumps(data)
    else:
        last = list(_NUMBER.finditer(text))[-1]
        text = text[:last.start()] + repr(_nudged(float(last.group()))) + text[last.end():]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _text_outputs(call) -> list[str]:
    return sorted(os.path.join(call.out, f) for f in os.listdir(call.out)
                  if f.endswith((".csv", ".json")))


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        _fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    refs_dir = os.path.join(SCRATCH, "refs")
    try:
        for name in workloads.WORKLOADS:
            first = run.run_benchmark(name, 3, 0, False, shape="tiny", refs_dir=None)
            _check_result(first["result"], end_to_end, f"{name} untraced")
            check.save_refs(name, "tiny", 3, first["reference_values"], refs_dir)

            traced = run.run_benchmark(name, 3, 0, True, shape="tiny", refs_dir=refs_dir)
            if traced["reference"] != "stored":
                _fail(f"{name}: stored tiny references were not used")
            _check_result(traced["result"], per_layer, f"{name} traced")

            altered: list[str] = []

            def alter_first_text_output(call) -> None:
                outputs = _text_outputs(call)
                if outputs and not altered:
                    alter_output(outputs[0])
                    altered.append(f"{call.name}: {outputs[0]}")

            bad = run.run_benchmark(name, 3, 0, False, shape="tiny", refs_dir=refs_dir,
                                    after_call=alter_first_text_output)["result"]
            if bad["correct"] or bad["failed"] != 1:
                _fail(f"{name}: altering {altered} gave {bad['failed']} failed calls, not 1")
            print(f"ok {name}: runs untraced and traced; altered {altered[0]} is caught")

        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "ingest",
               "--seed", "0", "--seconds", "0", "--trace", "0", "--shape", "tiny"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)

        def no_constants(token):
            raise ValueError(f"non-standard JSON constant {token}")

        result = json.loads(done.stdout.splitlines()[-1], parse_constant=no_constants)
        _check_result(result, end_to_end, "printed result")
        print("ok printed result is valid JSON without NaN")

        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        cmd[1] = os.path.join(bare, "perfbench", "run.py")
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            _fail(f"without sources: exit {done.returncode}, stdout {done.stdout!r}")
        print("ok without the program's sources it exits", done.returncode, "and prints nothing")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
