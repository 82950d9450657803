"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload rank-20k --seeds 0-9 [--trace 0]

For every metric: the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential, one
benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="first-last")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    values: dict = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} {median:12.6g} {spread:8.4f} {bounds.get(name) or '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
