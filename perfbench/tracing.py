"""Spans around geodl's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function where its caller looks it
up (a module attribute or a class attribute) and ``uninstall`` puts the
originals back, so an untraced pipeline runs geodl's code untouched.  A span
records name, start, end, parent span and run id; spans stay in memory until
the run ends.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

KERNELS = ("nf1", "nf2", "nf3", "nf4", "disjoint", "bottom", "nf3_negative")

# (module, attribute path, span name); the benchmark's own "cli.<step>" spans
# wrap each geodl.cli.main call.
TRACED = [
    ("cli", "parse_ontology", "parser.parse_ontology"),
    ("cli", "normalize", "normalize.normalize"),
    ("training", "split", "training.split"),
    ("training", "train", "training.train"),
    ("training", "_batch_gradient", "training.batch_gradient"),
    ("training", "_Adam.step", "training.optimizer_step"),
    ("model", "GradientAccumulator.zeros_like", "training.zeros_like"),
    ("model", "EmbeddingState.all_finite", "training.finite_check"),
    ("model", "EmbeddingState.copy", "training.checkpoint_copy"),
    ("model", "save_model", "model.save_model"),
    ("model", "load_model", "model.load_model"),
    ("ranking", "evaluate", "ranking.evaluate"),
    ("ranking", "baseline_evaluate", "ranking.baseline_evaluate"),
    ("ranking", "write_report", "ranking.write_report"),
    ("baselines", "train_baseline", "baselines.train_baseline"),
    ("baselines", "_scores_batch", "baselines.scores_batch"),
    ("baselines", "_score_grads", "baselines.score_grads"),
    ("baselines", "save_baseline", "baselines.save_baseline"),
    ("baselines", "load_baseline", "baselines.load_baseline"),
] + [("model", f"{k}_batch", f"model.{k}") for k in KERNELS]


def _count_kernel(counts, name, bound, result):
    hinges = result[1]
    counts[f"{name}_rows"] += len(hinges)
    counts[f"{name}_active"] += int(np.count_nonzero(hinges > 0.0))


def _count_ranking(counts, name, bound, result):
    """Tests ranked, candidate rows scored and distinct sources of one call."""
    args = bound.arguments
    tests = args["tests"]
    universe = set(args["candidate_universe"].tolist())
    sub = args["direction"] == "sub"
    known: dict = {}
    for ax in args["filter_known"] or ():
        source, target = (ax.d, ax.c) if sub else (ax.c, ax.d)
        known.setdefault(source, set()).add(target)
    sources = set()
    for t in tests:
        source, target = (t.d, t.c) if sub else (t.c, t.d)
        sources.add(source)
        dropped = (known.get(source, set()) - {target}) | {source}
        counts["ranking.distance_rows"] += len(universe) - len(dropped & universe)
    counts["ranking.tests_ranked"] += len(tests)
    counts["ranking.distinct_sources"] += len(sources)


COUNTERS = {
    "parser.parse_ontology":
        lambda c, n, b, r: c.update({"parser.lines": len(b.args[0])}),
    "normalize.normalize":
        lambda c, n, b, r: c.update({"normalize.axioms_out": len(r.axioms)}),
    "model.save_model":
        lambda c, n, b, r: c.update(
            {"model.file_mb": os.path.getsize(b.args[0]) / 2**20}),
    "ranking.evaluate": _count_ranking,
    "ranking.baseline_evaluate": _count_ranking,
    **{f"model.{k}": _count_kernel for k in KERNELS},
}


class _Args:
    """Positional arguments, bound to names only when a counter asks."""

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    @property
    def arguments(self):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.counts: dict = defaultdict(Counter)  # run id -> counters
        self.run_id = None
        self._stack: list = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.run_id], name, _Args(fn, args, kwargs),
                      result)
            return result

        setattr(owner, attr,
                staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        self._patched.append((owner, attr, raw))

    def install(self, modules: dict) -> None:
        for module, path, name in TRACED:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def layer_metrics(self, run_id) -> dict:
        """Per-layer times (s) and counts of one traced pipeline run."""
        total: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        validation: Counter = Counter()
        for name, start, end, parent, rid in self.spans:
            if rid != run_id:
                continue
            total[name] += end - start
            self_time[name] += end - start
            calls[name] += 1
            if parent is not None:
                parent_name = self.spans[parent][0]
                self_time[parent_name] -= end - start
                if name == "ranking.evaluate" and parent_name == "training.train":
                    validation["passes"] += 1
                    validation["s"] += end - start
        c = self.counts[run_id]
        out = {
            "cli.split_s": total["cli.split"],
            "cli.train_s": total["cli.train"],
            "cli.eval_s": total["cli.eval"],
            "cli.self_s": sum(self_time[f"cli.{s}"] for s in ("split", "train", "eval")),
            "parser.parse_ontology_s": total["parser.parse_ontology"],
            "parser.lines": c["parser.lines"],
            "normalize.normalize_s": total["normalize.normalize"],
            "normalize.axioms_out": c["normalize.axioms_out"],
            "training.split_s": total["training.split"],
            "training.train_s": total["training.train"],
            "training.self_s": self_time["training.train"],
            "training.batches": calls["training.batch_gradient"],
            "training.batch_gradient_s": total["training.batch_gradient"],
            "training.optimizer_step_s": total["training.optimizer_step"],
            "training.zeros_like_s": total["training.zeros_like"],
            "training.finite_check_s": total["training.finite_check"],
            "training.checkpoint_copies": calls["training.checkpoint_copy"],
            "training.validation_passes": validation["passes"],
            "training.validation_s": validation["s"],
        }
        for k in KERNELS:
            rows = c[f"model.{k}_rows"]
            out[f"model.{k}_s"] = total[f"model.{k}"]
            out[f"model.{k}_rows"] = rows
            out[f"model.{k}_active_share"] = (
                c[f"model.{k}_active"] / rows if rows else 0.0)
        tests = c["ranking.tests_ranked"]
        out.update({
            "model.save_model_s": total["model.save_model"],
            "model.load_model_s": total["model.load_model"],
            "model.file_mb": c["model.file_mb"],
            "ranking.evaluate_s": total["ranking.evaluate"],
            "ranking.baseline_evaluate_s": total["ranking.baseline_evaluate"],
            "ranking.tests_ranked": tests,
            "ranking.distance_rows": c["ranking.distance_rows"],
            "ranking.distinct_source_share":
                c["ranking.distinct_sources"] / tests if tests else 0.0,
            "ranking.write_report_s": total["ranking.write_report"],
            "baselines.train_baseline_s": total["baselines.train_baseline"],
            "baselines.scores_batch_s": total["baselines.scores_batch"],
            "baselines.score_grads_s": total["baselines.score_grads"],
            "baselines.save_baseline_s": total["baselines.save_baseline"],
            "baselines.load_baseline_s": total["baselines.load_baseline"],
        })
        return out
