"""geodl's benchmark: seeded CLI pipelines with checked outputs.

    python3 perfbench/run.py --workload train-2k --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts one child interpreter
(child.py) with ``src`` on its path and BLAS pinned to one thread, waits for
it, and prints every metric by name and unit, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A workload is a pipeline of ``geodl.cli.main`` calls (split, train, eval)
over a generated surrogate ontology (child.py).  The child repeats the
pipeline, one call at a time, until ``--seconds`` have passed; timings are
medians over those pipeline runs.  The speed of a shared machine drifts, so
a fixed probe (child.probe) runs before and after each pipeline run and each
wall time is divided by the probes' mean over child.PROBE_REF_S: times read
in seconds of a machine on which the probe takes PROBE_REF_S.  The raw wall
times and speed factors are printed too.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json:

    setup_s                  import geodl, generate and write the input
                             (median of three; numpy's import is excluded)
    pipeline_s               time of all CLI calls of one pipeline run
    train_terms_per_s        training axioms (baseline: triples) x epochs
                             / time of ``geodl train``
    eval_pairs_per_s         test pairs ranked / time of ``geodl eval``
    peak_rss_mb              ru_maxrss of the child after the pipeline runs
    test_hits10_vs_ref       (Hits@10 hits + 1) / (reference hits + 1), first
                             eval report; the reference is reference.json's
                             value for the same data seed
    test_median_rank_vs_ref  median rank / reference median rank
    ok_frac                  1 - failed / attempted operations (CLI calls and
                             output checks)

``--trace 1`` alternates untraced and traced pipeline runs and reports the
per-layer metrics of the traced ones (tracing.py; interactions.json says
which end-to-end metric each should move).  Checks: every report's ranks
against an independent oracle (oracle.py), identical output bytes across
the pipeline runs of a run, traced or not, and across runs of the same code
and seed, and exactly repeating per-layer counts.

The input comes from data seed ``seed % data_seeds``; reference.json holds
its sha256, and the run refuses to start if the generated input differs.
Scratch files, per-run records and span dumps go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int,
              extra: tuple = ()) -> dict:
    """Run child.py once; its result, or None when it failed."""
    work = ROOT / ".perfbench" / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    out = work / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--out", str(out), *extra]
    try:
        # the child's stdout (geodl's progress lines) goes to our stderr, so
        # the JSON result stays the last line of our stdout
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr) as proc:
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                print(f"perfbench: child exceeded {CHILD_TIMEOUT_S} s",
                      file=sys.stderr)
                return None
        if code != 0 or not out.is_file():
            print(f"perfbench: child exited with {code}", file=sys.stderr)
            return None
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    mapped = json.loads((HERE / "interactions.json").read_text())["per_layer"]
    if set(mapped) != {m["name"] for m in spec["per_layer"]}:
        print("perfbench: interactions.json and BENCHMARK.json name different "
              "per-layer metrics", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "geodl" / "cli.py").is_file():
        print(f"perfbench: no geodl source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_child(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in result["metrics"]}
    print(f"workload {args.workload}  seed {args.seed} (data seed "
          f"{result['data_seed']})  BLAS {result['blas']}")
    print("  pipeline runs, wall s / machine speed: " + " ".join(
        f"{t:.3f}/{speed:.2f}{'*' if traced else ''}"
        for t, speed, traced in result["pipeline_runs"])
        + ("  (* traced)" if args.trace else ""))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "hashes" in result:
        print(f"  test hits10 {result['hits10']}  median rank {result['median_rank']}"
              f"  outputs match reference: {result['matches_reference']}")
        for name, digest in result["hashes"].items():
            print(f"  sha256 {digest}  {name}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    correct = not result["problems"] and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
