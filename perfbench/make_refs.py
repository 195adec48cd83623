"""Record reference output values for the benchmark's output check.

    python3 perfbench/make_refs.py [--seeds 0 1 ...] [--workloads ...]

Runs each workload once per seed at the full shape and stores the parsed
outputs under ``perfbench/refs/<workload>/full-seed-<n>.json``. Defaults: every
workload, the development seeds plus the held-out seed. Re-record only when
the program's outputs are meant to change, and say why in the change.
"""

from __future__ import annotations

import argparse
import sys

import check
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[*check.DEV_SEEDS, check.HELD_OUT_SEED])
    parser.add_argument("--workloads", nargs="+", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            record = run.run_benchmark(workload, seed, seconds=0, trace=False,
                                       refs_dir=None, min_iterations=1)
            if not record["result"]["correct"]:
                print("\n".join(record["problems"]), file=sys.stderr)
                return 1
            path = check.save_refs(workload, "full", seed, record["reference_values"])
            print(f"{path}: {record['iterations'][0]['wall_s']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
