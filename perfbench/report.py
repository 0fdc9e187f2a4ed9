"""Untraced and traced run of one workload, reported side by side.

    python3 perfbench/report.py --workload short --seed 1 [--seconds 40]

Prints the end-to-end table from the untraced run, the per-layer table from
the traced run, and the tracing overhead: for each end-to-end metric both
runs measure, the traced value's difference from the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_PREFIX = "traced_end_to_end "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run.py --trace {trace} exited {out.returncode}")
    return out.stdout.strip().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]
    plain = run_once(args.workload, args.seed, seconds, 0)
    traced = run_once(args.workload, args.seed, seconds, 1)
    untraced = json.loads(plain[-1])
    traced_e2e = next(json.loads(line[len(TRACED_PREFIX):]) for line in traced
                      if line.startswith(TRACED_PREFIX))
    print("\n".join(line for line in plain[:-1]))
    print("\n".join(line for line in traced[:-1]
                    if not line.startswith(("workload ", "machine ", "inputs ", TRACED_PREFIX))))
    print("tracing overhead (traced run against untraced run, same seed)")
    for name, m in untraced["metrics"].items():
        if name in traced_e2e and m["value"]:
            diff = traced_e2e[name] - m["value"]
            print(f"  {name:<36} {m['value']:>12.6g} -> {traced_e2e[name]:>12.6g} {m['unit']}"
                  f"  ({100.0 * diff / m['value']:+.1f}%)")
    ok = untraced["correct"] and json.loads(traced[-1])["correct"]
    print(f"operations: untraced {untraced['attempted']} attempted, {untraced['failed']} failed; "
          f"traced {json.loads(traced[-1])['attempted']} attempted, "
          f"{json.loads(traced[-1])['failed']} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
