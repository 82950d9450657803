#!/usr/bin/env python3
"""Append benchmark records to ``BENCH_<workload>.json``, one per run.

    python3 scripts/bench.py --workload baseline-2k --seed 3 --seconds 45
    python3 scripts/bench.py --workload scale-20k --runs 10

Run from anywhere; records go to the root of the checkout the script sits
in.  Each file holds a JSON list of records, oldest first.  Every record
names the code it measured: the git commit, whether tracked files differed
from it (``BENCH_*.json`` aside), and the sha256 of ``src/geodl/*.py``.

A workload of ``BENCHMARK.json`` (train-2k, baseline-2k) runs once a seed
through ``perfbench/run.py``'s ``run_child`` at ``--trace 0``.  Its record
holds the end-to-end medians, ``ok_frac``, whether the outputs matched
``perfbench/reference.json`` and that file's sha256, since quality ratios
only compare across runs of one reference.

``scale-20k`` is a probe with no bound: in a fresh interpreter it runs
``geodl.cli.main`` over ``surrogate_lines(20000, seed=2)``: split (seed 3),
EmElVar train, eval sub filtered by train.el, eval sup radius-adjusted,
TransH train, TransH eval sub filtered, each training for 3 epochs with
seed 3 and no sibling valid.el (train.el is copied away from the split's
valid.el first).  Its record holds each stage's wall time and the process
peak RSS after it, and the sha256 of every output file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.run import run_child  # noqa: E402

BENCHMARK_WORKLOADS = tuple(w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"])
SCALE = {"workload": "scale-20k", "classes": 20000, "data_seed": 2,
         "split_seed": 3, "train_seed": 3, "epochs": 3}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git(*args: str):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def code_identity() -> dict:
    """The commit, whether tracked files differ from it (the BENCH files
    aside), and the sha256 of geodl's source files in name order."""
    status = _git("status", "--porcelain", "--untracked-files=no", "--", ".",
                  ":(exclude)BENCH_*.json")
    sources = sorted((ROOT / "src" / "geodl").glob("*.py"))
    return {"git_sha": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "source_sha256": sha256(b"".join(
                sha256(p.read_bytes()).encode() for p in sources))}


def append_record(path: Path, record: dict) -> None:
    """Add *record* at the end of the JSON list in *path*."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def benchmark_record(result, workload: str, seed: int, seconds: float) -> dict:
    """The record of one ``run_child`` result (None when the child failed)."""
    reference = ROOT / "perfbench" / "reference.json"
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              **code_identity(),
              "reference_sha256": sha256(reference.read_bytes())}
    if result is None:
        return {**record, "correct": False, "ok_frac": None, "metrics": {},
                "matches_reference": None}
    metrics = dict(result["metrics"])
    return {**record, "correct": not result["problems"],
            "ok_frac": metrics.pop("ok_frac"), "metrics": metrics,
            "matches_reference": result.get("matches_reference")}


def scale_stages(work: Path, classes: int) -> dict:
    """Run the scale probe's CLI calls in this interpreter; its result."""
    from geodl.cli import main
    from geodl.synthetic import surrogate_lines

    out = work / "out"
    split, alone = out / "split", out / "alone"
    alone.mkdir(parents=True)
    data = ("\n".join(surrogate_lines(classes, seed=SCALE["data_seed"]))
            + "\n").encode()
    (work / "input.el").write_bytes(data)
    (work / "train.cfg").write_text(
        f"epochs={SCALE['epochs']}\nseed={SCALE['train_seed']}\n")
    train, test, cfg = alone / "train.el", split / "test.el", work / "train.cfg"
    stages = [
        ("split", ["split", str(work / "input.el"), str(split),
                   "--seed", str(SCALE["split_seed"])]),
        ("emelvar_train", ["train", str(train), str(out / "ball.tsv"),
                           "--config", str(cfg), "--variant", "emel-var"]),
        ("eval_sub_filtered", ["eval", str(out / "ball.tsv"), str(test),
                               str(out / "ball_sub.tsv"), "--direction", "sub",
                               "--filtered", str(train)]),
        ("eval_sup_radius_adjusted", ["eval", str(out / "ball.tsv"), str(test),
                                      str(out / "ball_sup.tsv"), "--direction",
                                      "sup", "--radius-adjusted"]),
        ("transh_train", ["train", str(train), str(out / "transh.tsv"),
                          "--config", str(cfg), "--model", "transh"]),
        ("transh_eval", ["eval", str(out / "transh.tsv"), str(test),
                         str(out / "transh_sub.tsv"), "--direction", "sub",
                         "--filtered", str(train)]),
    ]
    timings = {}
    for name, argv in stages:
        start = time.perf_counter()
        code = main(argv)
        took = time.perf_counter() - start
        if code != 0:
            return {"failed": f"{name} exited with {code}", "stages": timings}
        timings[name] = {"s": took, "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024}
        if name == "split":  # keep the split's valid.el out of training
            shutil.copyfile(split / "train.el", train)
    return {"failed": None, "stages": timings, "input_sha256": sha256(data),
            "outputs": {str(p.relative_to(out)): sha256(p.read_bytes())
                        for p in sorted(out.rglob("*")) if p.is_file()}}


def scale_record(classes: int = SCALE["classes"]) -> dict:
    """Run the scale probe in a fresh interpreter; its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        result_path = Path(tmp) / "result.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--scale-child",
               tmp, "--classes", str(classes)]
        # the CLI's progress lines go to our stderr
        code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        result = (json.loads(result_path.read_text()) if result_path.exists()
                  else {"failed": f"probe exited with {code}", "stages": {}})
    stages = result["stages"]
    return {**SCALE, "classes": classes,
            **code_identity(), "failed": result["failed"], "stages": stages,
            "peak_rss_mb": max((s["peak_rss_mb"] for s in stages.values()),
                               default=None),
            "input_sha256": result.get("input_sha256"),
            "outputs": result.get("outputs", {})}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=(*BENCHMARK_WORKLOADS, SCALE["workload"]))
    p.add_argument("--seed", type=int, default=0,
                   help="first perfbench seed; run i uses seed + i")
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--classes", type=int, default=SCALE["classes"],
                   help=argparse.SUPPRESS)
    p.add_argument("--scale-child", metavar="WORK", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.scale_child:
        result = scale_stages(Path(args.scale_child), args.classes)
        (Path(args.scale_child) / "result.json").write_text(json.dumps(result))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.runs < 1 or args.seed < 0 or args.seconds <= 0:
        p.error("--runs must be >= 1, --seed >= 0 and --seconds > 0")
    path = ROOT / f"BENCH_{args.workload}.json"
    failed = 0
    for i in range(args.runs):
        if args.workload == SCALE["workload"]:
            record = scale_record(args.classes)
            ok = record["failed"] is None
            shown = " ".join(f"{k} {v['s']:.3f}" for k, v in
                             record["stages"].items())
        else:
            seed = args.seed + i
            record = benchmark_record(
                run_child(args.workload, seed, args.seconds, 0),
                args.workload, seed, args.seconds)
            ok = record["correct"]
            shown = " ".join(f"{k} {v:.6g}" for k, v in
                             record["metrics"].items())
            shown += f"  matches_reference {record['matches_reference']}"
        record["utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        append_record(path, record)
        failed += not ok
        print(f"{path.name}: run {i + 1}/{args.runs} "
              f"{'ok' if ok else 'FAILED'}  {shown}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
