"""Independent rank oracle for ``geodl eval`` outputs.

Recomputes the rank of every test pair from the saved model file with numpy
alone; nothing here imports ``geodl``.  The rules come from the README: a
test pair ``C <= D`` ranks C among the candidates ordered by distance from
D's center (``sup`` swaps the roles), candidates exclude ``__nf_*`` helpers,
nominal classes and the source itself, ``--filtered`` also drops the other
known subclasses of the source, and ties break by class index.

Every comparison that decides a rank uses exact per-row norms of
``center - source``, the arithmetic geodl performs, so the oracle's ranks
must equal the ``.ranks`` sidecar exactly.  Each distinct source is scored
once; a row's norm does not depend on the other rows, so this gives the same
numbers as scoring each test's candidate subset.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict

import numpy as np

_NAME = r"nominal\([^(),#\s]+\)|[^(),#\s]+"
_NF1_LINE = re.compile(rf"^subClassOf\(({_NAME}),({_NAME})\)$")
_NOMINAL = re.compile(r"^nominal\([^(),#\s]+\)$")
_FRESH_PREFIX = "__nf_"
_SUBCLASS_RELATION = "__subClassOf__"


class OracleError(Exception):
    """An output disagrees with the oracle or is malformed."""


def read_subclass_pairs(path) -> list:
    """(sub, sup) class names of the plain subclass lines of an axiom file."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            m = _NF1_LINE.match(line)
            if m and m.group(2) != "bottom":
                pairs.append((m.group(1), m.group(2)))
    return pairs


class Model:
    """Parameters of a geodl model file, ball or baseline."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
        fields = dict(part.split("=", 1) for part in header[2:])
        dim = int(fields["dim"])
        self.kind = fields.get("model", "ball")
        if header[0] == "#geodl":
            by_kind = {"C": [], "R": []}
            width = 3 + dim
        elif header[0] == "#geodl-baseline":
            by_kind = {"E": [], "R": [], "W": []}
            width = 2 + dim
        else:
            raise OracleError(f"{path}: unknown model header {header!r}")
        for row in rows:
            if len(row) != width or row[0] not in by_kind:
                raise OracleError(f"{path}: malformed row {row[:2]!r}")
            by_kind[row[0]].append(row)
        entity_rows = by_kind["C"] if self.kind == "ball" else by_kind["E"]
        self.class_names = [row[1] for row in entity_rows]
        self.class_index = {n: i for i, n in enumerate(self.class_names)}
        self.relation_names = [row[1] for row in by_kind["R"]]
        self.arrays = {
            kind: np.array([[float(v) for v in row[2:]] for row in got],
                           dtype=float).reshape(len(got), width - 2)
            for kind, got in by_kind.items()
        }
        for kind, arr in self.arrays.items():
            if not np.isfinite(arr).all():
                raise OracleError(f"{path}: non-finite {kind} parameters")

    def universe(self) -> np.ndarray:
        return np.array([
            not name.startswith(_FRESH_PREFIX) and not _NOMINAL.match(name)
            for name in self.class_names
        ])

    def ball_scores(self, rows, source: int, direction: str,
                    radius_adjusted: bool, dist=None):
        """Distance of each class in *rows* from *source*, with geodl's
        arithmetic; *dist* replaces the exact norms when given."""
        radii = self.arrays["C"][:, 0]
        if dist is None:
            centers = self.arrays["C"][:, 1:]
            dist = np.linalg.norm(centers[rows] - centers[source], axis=1)
        if radius_adjusted:
            src_r = abs(float(radii[source]))
            if direction == "sub":
                dist = dist + np.abs(radii[rows]) - src_r
            else:
                dist = dist + src_r - np.abs(radii[rows])
        return dist

    def transh_scores(self, source: int, direction: str):
        """Subclass score of every class as the held-out end (higher ranks
        first), with geodl's arithmetic."""
        if self.kind != "transh":
            raise OracleError(f"no oracle for baseline model {self.kind!r}")
        r = self.relation_names.index(_SUBCLASS_RELATION)
        ent = self.arrays["E"]
        rel = self.arrays["R"][r]
        w = self.arrays["W"][r]
        fixed = ent[source]
        fixed_p = fixed - (fixed @ w) * w
        moving_p = ent - (ent @ w)[:, None] * w
        if direction == "sub":  # score(X, subClassOf, source)
            return -np.linalg.norm(moving_p + rel - fixed_p, axis=1)
        return -np.linalg.norm(fixed_p + rel - moving_p, axis=1)


def _count_ball(model, source, targets, keep, direction, radius_adjusted,
                sq, norms, gram_row):
    """(better, tied-before) counts per target for one ball-model source.

    The Gram expansion |c|^2 + |s|^2 - 2 c.s gives every distance to within
    (dim + 3) * eps * (|c| + |s|)^2 of its square; candidates closer than
    1e-6 * (|c| + |s|), far above that bound, to a target's score are
    re-scored with exact per-row norms, so every comparison that decides a
    rank is made on the same numbers geodl computes.
    """
    ids = np.flatnonzero(keep)
    approx = np.sqrt(np.maximum(sq[ids] + sq[source] - 2.0 * gram_row[ids], 0.0))
    approx = model.ball_scores(ids, source, direction, radius_adjusted, approx)
    tol = 1e-6 * (norms[ids] + norms[source]) + 1e-9
    out = []
    for target in targets:
        s = model.ball_scores([target], source, direction, radius_adjusted)[0]
        clearly_better = approx < s - tol
        near = ids[~clearly_better & (approx <= s + tol)]
        exact = model.ball_scores(near, source, direction, radius_adjusted)
        better = np.count_nonzero(clearly_better) + np.count_nonzero(exact < s)
        out.append((int(better), int(np.count_nonzero((exact == s) & (near < target)))))
    return out


def oracle_ranks(model: Model, tests: list, direction: str,
                 radius_adjusted: bool = False, known=None) -> list:
    """Rank of each (sub, sup) test pair, by name, under the eval rules."""
    idx = model.class_index
    pairs = [(idx[c], idx[d]) for c, d in tests]
    role = (lambda c, d: (c, d)) if direction == "sub" else (lambda c, d: (d, c))
    drop = defaultdict(set)
    for c, d in known or ():
        if c in idx and d in idx:
            target, source = role(idx[c], idx[d])
            drop[source].add(target)
    by_source = defaultdict(list)
    for i, (c, d) in enumerate(pairs):
        target, source = role(c, d)
        by_source[source].append((i, target))
    universe = model.universe()
    for source, group in by_source.items():
        for _, target in group:
            if not universe[target] or target == source:
                raise OracleError(f"test target {target} is not a candidate")
    ranks = [0] * len(pairs)
    sources = list(by_source)
    if model.kind == "ball":
        centers = model.arrays["C"][:, 1:]
        sq = np.einsum("ij,ij->i", centers, centers)
        norms = np.sqrt(sq)
    for start in range(0, len(sources), 256):
        block = sources[start:start + 256]
        if model.kind == "ball":
            gram = centers[block] @ centers.T
        for j, source in enumerate(block):
            group = by_source[source]
            keep = universe.copy()
            keep[source] = False
            keep[sorted(drop[source])] = False  # the target never counts itself
            targets = [target for _, target in group]
            if model.kind == "ball":
                counts = _count_ball(model, source, targets, keep, direction,
                                     radius_adjusted, sq, norms, gram[j])
            else:
                scores = model.transh_scores(source, direction)
                vals, cand = scores[keep], np.flatnonzero(keep)
                counts = [
                    (int(np.count_nonzero(vals > scores[t])),
                     int(np.count_nonzero((vals == scores[t]) & (cand < t))))
                    for t in targets
                ]
            for (i, _), (better, tied) in zip(group, counts):
                ranks[i] = 1 + better + tied
    return ranks


def read_report(path) -> tuple:
    """(metric rows, ranks) of a rank report and its ``.ranks`` sidecar."""
    with open(path, encoding="utf-8") as fh:
        rows = dict(line.rstrip("\n").split("\t") for line in fh
                    if not line.startswith("#"))
    with open(f"{path}.ranks", encoding="utf-8") as fh:
        ranks = [int(line) for line in fh if line.strip()]
    return rows, ranks


def check_report(report_path, model: Model, tests: list, direction: str,
                 radius_adjusted: bool, known, split_test_count: int) -> dict:
    """Raise OracleError unless the report matches the oracle; return its rows."""
    rows, ranks = read_report(report_path)
    n = len(ranks)
    if int(rows["test_count"]) != n or n != split_test_count:
        raise OracleError(
            f"{report_path}: test_count {rows['test_count']}, {n} ranks, "
            f"split held out {split_test_count}")
    expected = oracle_ranks(model, tests, direction, radius_adjusted, known)
    if ranks != expected:
        bad = next(i for i, (a, b) in enumerate(zip(ranks, expected)) if a != b)
        raise OracleError(f"{report_path}: test {bad} ranked {ranks[bad]}, "
                          f"oracle says {expected[bad]}")
    ordered = sorted(ranks)
    derived = {
        "hits10": f"{sum(r <= 10 for r in ranks) / n:.6f}",
        "median_rank": str(ordered[math.ceil(0.5 * n) - 1]),
    }
    for key, value in derived.items():
        if rows[key] != value:
            raise OracleError(f"{report_path}: {key} {rows[key]}, ranks give {value}")
    return rows
