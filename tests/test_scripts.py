"""The scripts run on small settings.

``bench.py``'s scale probe runs on a small surrogate, and its record writer
on a stub benchmark result.  ``mutants.py``'s table of planted one-line
mutants still applies to the current source.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCALE_STAGES = ["split", "emelvar_train", "eval_sub_filtered",
                "eval_sup_radius_adjusted", "transh_train", "transh_eval"]


def test_bench_scale_probe_on_a_small_surrogate():
    bench = load("bench")
    first, second = bench.scale_record(classes=200), bench.scale_record(200)
    assert first["failed"] is None and first["classes"] == 200
    assert list(first["stages"]) == SCALE_STAGES
    assert all(stage["s"] > 0 and stage["peak_rss_mb"] > 0
               for stage in first["stages"].values())
    assert first["peak_rss_mb"] == max(
        stage["peak_rss_mb"] for stage in first["stages"].values())
    assert {"split/train.el", "split/valid.el", "alone/train.el", "ball.tsv",
            "ball_sub.tsv", "ball_sup.tsv", "transh.tsv",
            "transh_sub.tsv"} <= set(first["outputs"])
    assert first["outputs"] == second["outputs"]  # byte-reproducible
    assert len(first["source_sha256"]) == 64


def test_bench_record_writer_on_a_stub_result(tmp_path):
    bench = load("bench")
    stub = {"metrics": {"pipeline_s": 1.5, "eval_pairs_per_s": 4000.0,
                        "ok_frac": 1.0},
            "problems": [], "matches_reference": True}
    record = bench.benchmark_record(stub, "baseline-2k", 7, 45.0)
    reference = bench.ROOT / "perfbench" / "reference.json"
    assert record["workload"] == "baseline-2k" and record["seed"] == 7
    assert record["metrics"] == {"pipeline_s": 1.5, "eval_pairs_per_s": 4000.0}
    assert record["ok_frac"] == 1.0 and record["correct"] is True
    assert record["matches_reference"] is True
    assert record["reference_sha256"] == hashlib.sha256(
        reference.read_bytes()).hexdigest()
    assert {"git_sha", "dirty", "source_sha256"} <= set(record)
    failed = bench.benchmark_record(None, "baseline-2k", 8, 45.0)
    assert failed["correct"] is False and failed["ok_frac"] is None
    path = tmp_path / "BENCH_baseline-2k.json"
    bench.append_record(path, record)
    bench.append_record(path, failed)
    assert json.loads(path.read_text()) == [record, failed]


def test_every_mutant_still_applies_to_the_source():
    mutants = load("mutants")
    assert len(mutants.MUTANTS) == 9
    for path, old, new, reason in mutants.MUTANTS:
        assert (mutants.ROOT / path).read_text().count(old) == 1, (path, old)
        assert new != old and reason
