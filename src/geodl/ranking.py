"""Subsumption ranking: per-test ranks and the aggregate metric report.

For a test pair C <= D the superclass D is the source: every candidate class
is ordered by distance of its center from D's center, and the rank of C is
reported (``--direction`` swaps the roles).  Baseline models order the
candidates by descending subclass score instead.  Candidates exclude
normalization helpers and nominal point classes, and the test's own source.
``is_fresh_name`` and ``is_nominal_name`` are the package's one definition of
those two kinds of class: they read the reserved name shapes.

One core ranks every model.  It groups the tests by source and computes one
score row per distinct source over the whole candidate universe, higher
better (a ball model scores the negated distance), then ranks all of that
source's targets from that row: rank = 1 + #higher + #tied with a smaller
class index, so ties break deterministically by class index.  A score
row holding a non-finite value raises ``NumericalError`` (exit 2 in the CLI)
instead of being ranked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import baselines
from .model import EmbeddingState, NumericalError, row_norms
from .normalize import NF1, FRESH_PREFIX

_NOMINAL_NAME = re.compile(r"^nominal\([^(),#\s]+\)$")

DIRECTIONS = ("sub", "sup")


def is_fresh_name(name: str) -> bool:
    return name.startswith(FRESH_PREFIX)


def is_nominal_name(name: str) -> bool:
    return bool(_NOMINAL_NAME.match(name))


def not_a_candidate(held_out: str) -> str:
    """Why a pair whose held-out class is named *held_out* cannot be ranked,
    when that class is not among ``eligible_candidates``."""
    return (f"held-out class {held_out!r} is a normalization helper or a "
            f"nominal, never a candidate")


def eligible_candidates(class_names: Sequence[str]) -> np.ndarray:
    """Indices of classes that may appear in a ranking candidate list."""
    return np.array(
        [
            i
            for i, name in enumerate(class_names)
            if not is_fresh_name(name) and not is_nominal_name(name)
        ],
        dtype=int,
    )


@dataclass
class RankReport:
    ranks: list[int]
    hits1: float
    hits10: float
    hits100: float
    median_rank: int
    p90_rank: int
    candidate_count: int
    direction: str = "sub"
    filtered: bool = False


def _ball_rows(
    state: EmbeddingState,
    candidate_ids: np.ndarray,
    direction: str,
    adjust_radius: bool,
) -> Callable[[int], np.ndarray]:
    """Source -> minus the distance of every candidate's center from the
    source's center (plus the radius slack when *adjust_radius*)."""
    centers = state.class_centers[candidate_ids]
    cand_r = np.abs(state.class_radii_raw[candidate_ids]) if adjust_radius else None
    buf = np.empty_like(centers)

    def row(source: int) -> np.ndarray:
        dist = row_norms(np.subtract(centers, state.class_centers[source], out=buf))
        if adjust_radius:
            src_r = abs(float(state.class_radii_raw[source]))
            if direction == "sub":
                dist = dist + cand_r - src_r  # candidate ball must fit inside source
            else:
                dist = dist + src_r - cand_r  # source ball must fit inside candidate
        return np.negative(dist, out=dist)

    return row


def _aggregate(
    ranks: list[int], candidate_count: int, direction: str, filtered: bool
) -> RankReport:
    if not ranks:
        raise ValueError("cannot aggregate an empty list of test ranks")
    sorted_ranks = sorted(ranks)
    n = len(sorted_ranks)
    hits = lambda k: sum(1 for r in sorted_ranks if r <= k) / n
    median = sorted_ranks[math.ceil(0.5 * n) - 1]
    p90 = sorted_ranks[math.ceil(0.9 * n) - 1]
    return RankReport(
        ranks=list(ranks),
        hits1=hits(1),
        hits10=hits(10),
        hits100=hits(100),
        median_rank=median,
        p90_rank=p90,
        candidate_count=candidate_count,
        direction=direction,
        filtered=filtered,
    )


def _rank_by_source(
    tests: Sequence[NF1],
    candidate_universe: np.ndarray,
    direction: str,
    filter_known: Optional[Iterable[NF1]],
    score_rows: Callable[[np.ndarray], Callable[[int], np.ndarray]],
) -> list[int]:
    """Rank of every test's target, scoring each distinct source once.

    ``score_rows(ids)`` does the work that does not depend on the source and
    returns a function from a source class to a new score row over the sorted
    class ids *ids*, higher better.  A test's candidates are the universe
    minus its source and, when *filter_known* is given, minus the source's
    other known targets.  They are never materialized: the excluded entries
    of the shared row are set to -inf after the targets' own scores are
    read, so they can be neither better than nor tied with any target.
    """
    if len(tests) == 0:
        raise ValueError("cannot evaluate an empty test list")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    ids = np.sort(candidate_universe)
    if np.any(ids[1:] == ids[:-1]):
        raise ValueError("the candidate universe lists a class more than once")

    def roles(ax: NF1) -> tuple:
        return (ax.c, ax.d) if direction == "sub" else (ax.d, ax.c)

    by_source: dict = {}
    for i, test in enumerate(tests):
        target, source = roles(test)
        by_source.setdefault(source, []).append((i, target))
    known: dict = {}
    for ax in filter_known or ():
        target, source = roles(ax)
        known.setdefault(source, set()).add(target)

    row_of = score_rows(ids)
    ranks = [0] * len(tests)
    for source, group in by_source.items():
        order, targets = zip(*group)
        pos = np.searchsorted(ids, targets)
        for p, target in zip(pos, targets):
            if p == len(ids) or ids[p] != target or target == source:
                raise ValueError(f"target class {target} is not among the candidates")
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            row = row_of(source)
        if not np.isfinite(row).all():
            raise NumericalError(f"non-finite ranking score for source class {source}")
        own = row[pos]
        dropped = np.array([source, *known.get(source, ())])
        at = np.minimum(np.searchsorted(ids, dropped), len(ids) - 1)
        row[at[ids[at] == dropped]] = -np.inf
        for i, p, s in zip(order, pos, own):
            better = np.count_nonzero(row > s)
            ranks[i] = 1 + int(better + np.count_nonzero(row[:p] == s))
    return ranks


def evaluate(
    tests: Sequence[NF1],
    state: EmbeddingState,
    candidate_universe: np.ndarray,
    direction: str = "sub",
    adjust_radius: bool = False,
    filter_known: Optional[Iterable[NF1]] = None,
) -> RankReport:
    """Rank every test axiom against the candidate universe minus its source."""
    ranks = _rank_by_source(
        tests, candidate_universe, direction, filter_known,
        lambda ids: _ball_rows(state, ids, direction, adjust_radius),
    )
    return _aggregate(
        ranks, len(candidate_universe), direction, filter_known is not None
    )


def baseline_evaluate(
    tests: Sequence[NF1],
    state: baselines.BaselineState,
    candidate_universe: np.ndarray,
    direction: str = "sub",
    filter_known: Optional[Iterable[NF1]] = None,
    *,
    sub_relation: int,
) -> RankReport:
    """As evaluate, but candidates are ordered by descending score of the
    subclass relation *sub_relation*."""
    ranks = _rank_by_source(
        tests, candidate_universe, direction, filter_known,
        lambda ids: baselines.candidate_scores(
            state, sub_relation, ids, as_head=direction == "sub"
        ),
    )
    return _aggregate(
        ranks, len(candidate_universe), direction, filter_known is not None
    )


# --- report output ---------------------------------------------------------


def write_report(path, report: RankReport) -> None:
    """Metric rows as TSV plus a ``.ranks`` sidecar, one rank per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# geodl rank report direction={report.direction} "
            f"filtered={'yes' if report.filtered else 'no'}\n"
        )
        fh.write(f"hits1\t{report.hits1:.6f}\n")
        fh.write(f"hits10\t{report.hits10:.6f}\n")
        fh.write(f"hits100\t{report.hits100:.6f}\n")
        fh.write(f"median_rank\t{report.median_rank}\n")
        fh.write(f"p90_rank\t{report.p90_rank}\n")
        fh.write(f"candidate_count\t{report.candidate_count}\n")
        fh.write(f"test_count\t{len(report.ranks)}\n")
    with open(f"{path}.ranks", "w", encoding="utf-8") as fh:
        for r in report.ranks:
            fh.write(f"{r}\n")
