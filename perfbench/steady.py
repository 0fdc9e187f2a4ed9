"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload short --seeds 1-5 [--seconds 40]

Spread is the distance between the first and third quartile of the runs'
values, as a share of their median (`statistics.quantiles(values, n=4)`),
set against the metric's bound in BENCHMARK.json. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += result["failed"] + (not result["correct"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.monotonic() - start:.1f}s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}  n")
    for name, vals in values.items():
        bound = bounds.get(name)
        sp = stats.spread(vals) if len(vals) >= 2 and stats.median(vals) else float("nan")
        flag = "" if bound is None else ("  ok" if sp <= bound / 3 else
                                         ("  within bound" if sp <= bound else "  OVER"))
        print(f"{name:<36} {stats.median(vals):>12.6g} {sp:>8.4f} "
              f"{'' if bound is None else bound:>6}  {len(vals)}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
