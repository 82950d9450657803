"""One benchmark run in a fresh interpreter, started by run.py.

Sets up the workload's input, then runs its ``geodl`` CLI pipeline in a
closed loop, one call at a time, until ``--seconds`` have passed, then checks
the outputs.  The result goes to ``--out`` as JSON.  Exit 3 means the
generated input does not match its recorded fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# numpy is geodl's only dependency; importing it here keeps its import time
# out of setup_s, which measures geodl's own import and the input generation.
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
# The speed of this machine drifts by up to 2x over minutes, for every kind of
# work alike, so each timing is scaled by the probe runs around it: a time
# reads in seconds of a machine on which probe() takes PROBE_REF_S.
PROBE_REF_S = 0.25
REFERENCE = HERE / "reference.json"
GEODL = ("cli", "model", "training", "ranking", "baselines", "synthetic")

# Epoch counts are fixed so that a numerics change cannot shorten a run; the
# patience is above the number of validation passes, so no run stops early.
CONFIG = "epochs={epochs}\npatience=1000\n"
WORKLOADS = {
    "train-2k": {
        "classes": 2000,
        "epochs": 50,
        "train": ["--variant", "emel-var"],
        "evals": [["--direction", "sub", "--filtered", "{train}"],
                  ["--direction", "sup", "--radius-adjusted"]],
    },
    "baseline-2k": {
        "classes": 2000,
        "epochs": 60,
        "train": ["--model", "transh"],
        "evals": [["--direction", "sub", "--filtered", "{train}"],
                  ["--direction", "sup", "--filtered", "{train}"]],
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def code_hash() -> str:
    """Fingerprint of geodl's source and the benchmark's own files."""
    files = sorted((ROOT / "src" / "geodl").glob("*.py")) + sorted(HERE.glob("*.*"))
    return sha256(b"".join(sha256(p.read_bytes()).encode() for p in files))[:16]


def probe() -> float:
    """Seconds for a fixed mix of numpy and Python work shaped like geodl's:
    row gathers, row norms and np.add.at on a 2000 x 50 array, then string
    splitting and dict counting over axiom-like lines."""
    rng = np.random.default_rng(0)
    centers = rng.random((2000, 50))
    batches = rng.integers(0, 2000, (320, 512))
    lines = [f"subClassOf(c{i:04d},some(role{i % 10},c{i * 7 % 2000:04d}))"
             for i in range(2000)]
    start = time.perf_counter()
    for rows in batches:
        grad = np.zeros_like(centers)
        diff = centers[rows] - centers[rows[::-1]]
        dist = np.linalg.norm(diff, axis=1)
        np.add.at(grad, rows, diff / (dist[:, None] + 1.0))
        centers -= 1e-3 * grad
    counts: dict = {}
    for _ in range(20):
        for line in lines:
            for name in line[11:-1].replace("some(", "").split(","):
                counts[name] = counts.get(name, 0) + 1
    return time.perf_counter() - start


def set_up(spec: dict, data_seed: int, work: Path) -> tuple:
    """Import geodl afresh, generate and write the inputs.

    Returns the seconds taken, the input's sha256 and geodl's modules.
    """
    start = time.perf_counter()
    for name in [m for m in sys.modules if m.split(".")[0] == "geodl"]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"geodl.{name}") for name in GEODL}
    lines = modules["synthetic"].surrogate_lines(
        n_classes=spec["classes"], seed=data_seed)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    (work / "input.el").write_bytes(data)
    (work / "train.cfg").write_text(CONFIG.format(epochs=spec["epochs"]),
                                   encoding="utf-8")
    return time.perf_counter() - start, sha256(data), modules


def plan(spec: dict, work: Path, it_dir: Path, data_seed: int) -> list:
    """(step, argv, eval options) for each CLI call of one pipeline run."""
    seed = str(data_seed)
    split_dir = it_dir / "split"
    train_el = str(split_dir / "train.el")
    model = str(it_dir / "model.tsv")
    steps = [
        ("split", ["split", str(work / "input.el"), str(split_dir),
                   "--seed", seed], None),
        ("train", ["train", train_el, model, "--config", str(work / "train.cfg"),
                   "--seed", seed, *spec["train"]], None),
    ]
    for i, extra in enumerate(spec["evals"], start=1):
        extra = [a.replace("{train}", train_el) for a in extra]
        options = {
            "report": it_dir / f"eval{i}.tsv",
            "direction": extra[extra.index("--direction") + 1]
            if "--direction" in extra else "sub",
            "radius_adjusted": "--radius-adjusted" in extra,
            "filtered": "--filtered" in extra,
        }
        steps.append(("eval", ["eval", model, str(split_dir / "test.el"),
                               str(options["report"]), *extra], options))
    return steps


def run_pipeline(cli, steps: list, tracer) -> tuple:
    """Wall time of each CLI call, and the failures, of one pipeline run."""
    times, failures = [], []
    for step, argv, _ in steps:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{step}"):
                    code = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failure
            code = f"{type(exc).__name__}: {exc}"
        times.append((step, time.perf_counter() - start))
        if code != 0:
            failures.append(f"geodl {step} exited with {code}")
            break
    return times, failures


def hash_outputs(it_dir: Path) -> dict:
    return {str(p.relative_to(it_dir)): sha256(p.read_bytes())
            for p in sorted(it_dir.rglob("*")) if p.is_file()}


class Tally:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.problems: list = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


def check_outputs(steps: list, it_dir: Path, tally: Tally) -> dict:
    """Oracle checks of one pipeline run's reports; rows of the first report."""
    split = dict(line.split("\t") for line in
                 (it_dir / "split" / "split.tsv").read_text("utf-8").splitlines())
    try:
        model = oracle.Model(it_dir / "model.tsv")
    except oracle.OracleError as exc:
        tally.check(False, str(exc))
        return {}
    tests = oracle.read_subclass_pairs(it_dir / "split" / "test.el")
    known = oracle.read_subclass_pairs(it_dir / "split" / "train.el")
    first = {}
    for _, _, options in steps:
        if options is None:
            continue
        try:
            rows = oracle.check_report(
                options["report"], model, tests, options["direction"],
                options["radius_adjusted"], known if options["filtered"] else None,
                int(split["test_axioms"]))
            tally.check(True, "")
            first = first or rows
        except (oracle.OracleError, KeyError, ValueError) as exc:
            tally.check(False, f"oracle: {exc}")
    return first


def training_terms(modules: dict, spec: dict, it_dir: Path) -> int:
    """Training axioms (or baseline triples) times epochs of one train call."""
    cli = modules["cli"]
    with open(it_dir / "split" / "train.el", encoding="utf-8") as fh:
        onto = cli.normalize(cli.parse_ontology(fh.read().splitlines())[0])
    terms = (len(modules["baselines"].extract_triples(onto))
             if "--model" in spec["train"] else len(onto.axioms))
    return terms * spec["epochs"]


def compare_record(path: Path, key: str, value, tally: Tally, what: str) -> None:
    """Agree with an earlier run of the same code and seed, or record *value*."""
    record = json.loads(path.read_text()) if path.exists() else {}
    if key in record:
        tally.check(record[key] == value, f"{what} differ from an earlier run "
                    f"of the same code and seed ({path.name})")
    else:
        record[key] = value
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True))


def seconds(run: dict, step: str = None) -> float:
    """Time of one pipeline run, or of its calls of one CLI step, scaled by
    the probe runs around it."""
    return sum(t for s, t in run["times"] if step in (None, s)) / run["speed"]


def end_to_end_metrics(runs, spec, modules, it_dir, first, ref) -> dict:
    """Medians over the pipeline runs, and quality against the reference."""
    terms = training_terms(modules, spec, it_dir)
    n = int(first["test_count"]) if first else 0
    pairs = n * len(spec["evals"])
    metrics = {
        "pipeline_s": statistics.median(seconds(r) for r in runs),
        "train_terms_per_s": statistics.median(
            terms / seconds(r, "train") for r in runs),
        "eval_pairs_per_s": statistics.median(
            pairs / seconds(r, "eval") for r in runs),
    }
    if ref and first:
        # Hits@10 as hit counts plus one, so that a reference without a hit
        # (TransH ranks no test pair of data seed 6 in its top 10) still
        # gives a ratio
        metrics["test_hits10_vs_ref"] = (
            (round(float(first["hits10"]) * n) + 1) / (round(ref["hits10"] * n) + 1))
        metrics["test_median_rank_vs_ref"] = (
            int(first["median_rank"]) / ref["median_rank"])
    return metrics


def layer_metrics(runs, tracer, tally, record) -> dict:
    """Medians of the traced pipeline runs' per-layer metrics; their counts
    must repeat exactly, within this run and across runs."""
    traced = [i for i, r in enumerate(runs) if r["traced"]]
    layers = [{k: v / runs[i]["speed"] if k.endswith("_s") else v
               for k, v in tracer.layer_metrics(i).items()} for i in traced]
    counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
    for i, layer in zip(traced[1:], layers[1:]):
        tally.check({k: layer[k] for k in counts} == counts,
                    f"traced run {i} counted other work than run {traced[0]}")
    compare_record(record, "counts", counts, tally, "per-layer counts")
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    plain = statistics.median(seconds(r) for r in runs if not r["traced"])
    metrics["trace.overhead_frac"] = statistics.median(
        seconds(runs[i]) for i in traced) / plain - 1.0
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--new-reference", action="store_true",
                   help="skip the fingerprint check (when recording a reference)")
    args = p.parse_args(argv)
    spec = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    data_seed = args.seed % reference["data_seeds"]
    ref = reference["workloads"].get(args.workload, {}).get(str(data_seed), {})
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    probes = [probe()]
    setup_times, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        took, fingerprint, modules = set_up(spec, data_seed, work)
        setup_times.append(took)
        fingerprints.add(fingerprint)
    if not args.new_reference and fingerprints != {ref.get("input_sha256")}:
        print(f"perfbench: generated input for {args.workload} data seed "
              f"{data_seed} has sha256 {sorted(fingerprints)}, recorded "
              f"{ref.get('input_sha256')}; geodl.synthetic changed the workload",
              file=sys.stderr)
        return 3

    probes.append(probe())
    setup_speed = (probes[0] + probes[1]) / 2 / PROBE_REF_S
    tally = Tally()
    tracer = Tracer() if args.trace else None
    runs: list = []
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(runs)
        traced = bool(args.trace) and i % 2 == 1
        it_dir = work / f"run{i}"
        steps = plan(spec, work, it_dir, data_seed)
        if traced:
            tracer.run_id = i
            tracer.install(modules)
        try:
            times, failures = run_pipeline(modules["cli"], steps,
                                           tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        tally.attempted += len(times)
        tally.problems += failures
        if failures:
            break
        probes.append(probe())
        runs.append({"traced": traced, "times": times, "hashes": hash_outputs(it_dir),
                     "speed": (probes[-2] + probes[-1]) / 2 / PROBE_REF_S})
        if i > 0:
            tally.check(runs[i]["hashes"] == runs[0]["hashes"],
                        f"pipeline run {i} (traced={traced}) wrote other bytes "
                        f"than run 0")
            shutil.rmtree(it_dir)
        if len(runs) >= 1 + args.trace and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "workload": args.workload, "seed": args.seed, "data_seed": data_seed,
        "input_sha256": fingerprints.pop(),
        "pipeline_runs": [(seconds(r) * r["speed"], r["speed"], r["traced"])
                          for r in runs],
        "setup_speed": setup_speed,
        "blas": {"library": np.show_config(mode="dicts")["Build Dependencies"]
                 ["blas"].get("name"),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    records = ROOT / ".perfbench" / "records" / code_hash()
    record = records / f"{args.workload}-seed{args.seed}.json"
    metrics: dict = {}
    if runs and not tally.problems:
        it_dir = work / "run0"
        first = check_outputs(plan(spec, work, it_dir, data_seed), it_dir, tally)
        hashes = runs[0]["hashes"]
        compare_record(record, "hashes", hashes, tally, "output hashes")
        result.update(hashes=hashes, hits10=float(first.get("hits10", "nan")),
                      median_rank=int(first.get("median_rank", 0)),
                      matches_reference=hashes == ref.get("hashes"))
        if args.trace:
            metrics = layer_metrics(runs, tracer, tally, record)
            spans = ROOT / ".perfbench" / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end_metrics(runs, spec, modules, it_dir, first, ref)
            metrics.update(setup_s=statistics.median(setup_times) / setup_speed,
                           peak_rss_mb=peak_rss_mb)
    failed = len(tally.problems)
    attempted = max(tally.attempted, 1)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    result.update(attempted=attempted, failed=failed, problems=tally.problems,
                  metrics=metrics)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
