"""Subsumption ranking: per-test ranks and the aggregate metric report.

For a test pair C <= D the superclass D is the source: every candidate class
is ordered by distance of its center from D's center, and the rank of C is
reported (``--direction`` swaps the roles).  Baseline models order the
candidates by descending subclass score instead.  Candidates exclude
normalization helpers and nominal point classes, and the test's own source.
``is_fresh_name`` and ``is_nominal_name`` are the package's one definition of
those two kinds of class: they read the reserved name shapes.

One core ranks every model.  It groups the tests by source.  Every score is
higher-better (a ball model scores the negated distance), and rank = 1 +
#higher + #tied with a smaller class index, so ties break deterministically
by class index.  A non-finite score raises ``NumericalError`` (exit 2 in the
CLI) instead of being ranked.

Each model's scores come from a ``_Scorer`` with two functions:

* ``block`` scores a block of sources against every candidate with one
  matrix product.  The ball model and the translation baselines take the
  distance from ||q||^2 + ||m||^2 - 2 q.m (q a source's row, m a
  candidate's), DistMult the product q.m.  ``bound`` holds, per source, an
  E such that each approximate score of its row is within E of the exact.
* ``exact`` scores (source, candidate) pairs with the arithmetic of a full
  score row: subtract (or multiply), square, one pairwise reduce over dim
  per pair, square root, then the radius terms in their order.  Each pair
  sees only elementwise operations and its own row's reduce, so its score
  has the same bits whichever pairs are scored with it.

With s the target's exact score, a candidate whose approximate score a has
fl(a - s) > E is better than the target and one with fl(a - s) < -E is
worse: rounding is monotone, so either inequality implies the same for the
real a - s, and then |a - exact| <= E puts the exact score on the same side
of s.  Only the candidates between, in practice the target itself and true
ties, are scored exactly.  The counts, and so the ranks, are those of the
exact scores: the same as of a full score row.

The bound.  Let n = dim, u = 2^-53, gamma_k = k u / (1 - k u), eta = 2^-1074
(the smallest subnormal), and for a source q let B be ||q|| + max ||m||,
plus |r_q| + max |r_m| when radii enter the score.  Summing k terms in any
order, with or without fused multiply-adds, errs by at most gamma_(k-1)
times their absolute sum, and a product that underflows errs by at most
eta / 2 instead (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 3).  So:

* Distance.  The exact path's sum of squares is d^2 (1 + theta), |theta| <=
  gamma_(n+2), and its square root d (1 + theta'), |theta'| <= gamma_(n+3),
  with d = ||m - q|| <= B.  The block's -2 q.m + ||m||^2 + ||q||^2 errs by
  at most gamma_(n+2) (||q|| + ||m||)^2 <= gamma_(n+2) B^2, so its clamped
  square root errs by at most sqrt(gamma_(n+2)) B (|sqrt x - sqrt y| <=
  sqrt |x - y|), and by 2 u B more from rounding the root.  Each path then
  adds the two radius terms, 2 u B each.  Underflowing products add at most
  sqrt(8 n eta).  In all, |a - exact| <= (sqrt(gamma_(n+2)) + gamma_(n+3)
  + 6 u) B + sqrt(8 n eta).
* Product.  Both paths sum n products, so each errs by at most gamma_n
  ||q|| ||m|| + n eta / 2: |a - exact| <= 2 gamma_n B + n eta, with B =
  ||q|| max ||m||.

E is twice c B + t, with c = sqrt(gamma_(n+2)) and t = sqrt(8 n eta) for a
distance, c = 2 gamma_n and t = n eta for a product.  For dim < 2^20 the
doubling exceeds the bound's lower-order terms and the relative error of
computing B and E in floating point (under gamma_(2n+8)).  A source is
certified only when its B is at most 2^510.  Then no square or product in
either path reaches 2^1021, so nothing overflows and every score is finite.
An uncertified source -- B non-finite or too large -- is scored with
``exact`` over every candidate, its whole row in the band, and that row's
finiteness is checked as a full score row's was, dropped candidates (the
source itself, filtered known targets) included.
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

# Sources per scored block and tests per counting pass, sized by memory:
# every per-block array is at most this many rows of candidates (256 KiB at
# 2000 candidates), however many tests one source holds.
_CHUNK = 16
_LIMIT = 2.0 ** 510  # largest certified bound size B (module docstring)
_U = 2.0 ** -53
_ETA = 2.0 ** -1074


def is_fresh_name(name: str) -> bool:
    return name.startswith(FRESH_PREFIX)


def is_nominal_name(name: str) -> bool:
    return bool(_NOMINAL_NAME.match(name))


def _is_candidate(name: str) -> bool:
    return not is_fresh_name(name) and not is_nominal_name(name)


def unrankable(class_names: Sequence[str], sub: int, sup: int,
               direction: str = "sub") -> Optional[str]:
    """``subClassOf(C,D) cannot be ranked: <why>`` for the pair of class ids
    *sub* <= *sup*, or None when the pair can be ranked in *direction*: its
    two classes differ and its held-out class (the subclass for "sub", the
    superclass for "sup") is among ``eligible_candidates``."""
    c, d = class_names[sub], class_names[sup]
    held_out = c if direction == "sub" else d
    if sub == sup:
        why = "a class is never ranked against itself"
    elif not _is_candidate(held_out):
        why = (f"held-out class {held_out!r} is a normalization helper or a "
               f"nominal, never a candidate")
    else:
        return None
    return f"subClassOf({c},{d}) cannot be ranked: {why}"


def eligible_candidates(class_names: Sequence[str]) -> np.ndarray:
    """Indices of classes that may appear in a ranking candidate list."""
    return np.array(
        [i for i, name in enumerate(class_names) if _is_candidate(name)],
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


class _Scorer:
    """One model's scores of the distinct sources against the sorted
    candidates, split in a matrix-product block and exact pairs (see the
    module docstring).

    *moving* holds one row per candidate and *fixed* one row per source; the
    score is moving . fixed when *product*, else minus ||moving - fixed||,
    which *radii* (candidate radii, source radii, direction is "sub")
    adjusts for a ball.  ``bound`` is E per source, inf where uncertified.
    """

    def __init__(self, moving: np.ndarray, fixed: np.ndarray, product: bool,
                 radii: Optional[tuple] = None):
        self.moving, self.fixed = moving, fixed
        self.product, self.radii = product, radii
        n = moving.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # uncertified below
            self.moving_sq = np.einsum("ij,ij->i", moving, moving)
            self.fixed_sq = np.einsum("ij,ij->i", fixed, fixed)
            reach = math.sqrt(np.max(self.moving_sq, initial=0.0))
            if product:
                size = np.sqrt(self.fixed_sq) * reach
                c, t = 2.0 * _gamma(n), n * _ETA
            else:
                size = np.sqrt(self.fixed_sq) + reach
                if radii is not None:
                    size += radii[1] + np.max(radii[0], initial=0.0)
                c, t = math.sqrt(_gamma(n + 2)), math.sqrt(8 * n * _ETA)
            self.bound = np.where(size <= _LIMIT, 2.0 * (c * size + t), np.inf)

    def block(self, rows: slice) -> np.ndarray:
        """Approximate scores of the sources *rows* against every candidate.
        Rows of uncertified sources may hold anything, non-finite values
        included."""
        scores = self.fixed[rows] @ self.moving.T
        if self.product:
            return scores
        scores *= -2.0
        scores += self.moving_sq
        scores += self.fixed_sq[rows, None]
        dist = np.sqrt(np.maximum(scores, 0.0, out=scores), out=scores)
        if self.radii is not None:
            cand_r, src_r, sub = self.radii
            src_r = src_r[rows, None]
            dist += cand_r if sub else src_r
            dist -= src_r if sub else cand_r
        return np.negative(dist, out=dist)

    def exact(self, si, cj) -> np.ndarray:
        """Scores of the pairs (source row *si*, candidate row *cj*), indices,
        arrays or slices that broadcast, with a full score row's bits."""
        if self.product:
            return np.add.reduce(
                np.multiply(self.moving[cj], self.fixed[si]), axis=1)
        dist = row_norms(np.subtract(self.moving[cj], self.fixed[si]))
        if self.radii is not None:
            cand_r, src_r, sub = self.radii
            dist += cand_r[cj] if sub else src_r[si]
            dist -= src_r[si] if sub else cand_r[cj]
        return np.negative(dist, out=dist)


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def _count_ahead(scorer: _Scorer, approx: np.ndarray, bound: np.ndarray,
                 local: np.ndarray, si: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per test, the candidates whose exact score is above its target's, or
    equal with a smaller index.  Test k's source is row *local[k]* of
    *approx* and *bound* and row *si[k]* of *scorer*; its target is
    candidate *pos[k]*.  Dropped candidates are -inf in *approx*."""
    own = scorer.exact(si, pos)
    gap = approx[local]
    with np.errstate(over="ignore"):  # to an infinity of the right sign
        gap -= own[:, None]
    e = bound[local, None]
    ahead = np.count_nonzero(gap > e, axis=1)
    # A target that is not dropped lies in its own band; only a test whose
    # band holds more than that needs exact scores.
    band = np.count_nonzero(gap >= -e, axis=1) - ahead
    rows = np.flatnonzero(band > (approx[local, pos] != -np.inf))
    if len(rows):
        k, cj = np.nonzero(np.abs(gap[rows]) <= e[rows])
        k = rows[k]
        score, s = scorer.exact(si[k], cj), own[k]
        before = (score > s) | ((score == s) & (cj < pos[k]))
        ahead += np.bincount(k[before], minlength=len(own))
    return ahead


def _rank_by_source(
    tests: Sequence[NF1],
    candidate_universe: np.ndarray,
    direction: str,
    filter_known: Optional[Iterable[NF1]],
    scorer_of: Callable[[np.ndarray, np.ndarray], _Scorer],
) -> list[int]:
    """Rank of every test's target, scoring the distinct sources in blocks.

    ``scorer_of(ids, sources)`` scores the distinct sources *sources*, in
    first-appearance order, against the sorted class ids *ids*.  A test's
    candidates are the universe minus its source and, when *filter_known*
    is given, minus the source's other known targets.  They are never
    materialized: the excluded entries of a source's approximate row are set
    to -inf, so they are neither in its band nor better than any target.
    Sources are checked in first-appearance order, each one's targets before
    its scores' finiteness.
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

    sources = list(by_source)
    groups = list(by_source.values())
    first = np.cumsum([0] + [len(g) for g in groups])  # source k's tests
    order = np.array([i for g in groups for i, _ in g])
    targets = np.array([t for g in groups for _, t in g], dtype=int)
    si = np.repeat(np.arange(len(sources)), np.diff(first))
    pos, ok = _find(ids, targets)
    ok &= targets != np.array(sources)[si]
    targets_ok = np.logical_and.reduceat(ok, first[:-1])
    drop_row, drop_class = np.array(
        [(k, c) for k, s in enumerate(sources) for c in (s, *known.get(s, ()))],
        dtype=int).T
    drop_pos, present = _find(ids, drop_class)
    drop_row, drop_pos = drop_row[present], drop_pos[present]

    scorer = scorer_of(ids, np.array(sources, dtype=int))
    flagged = ~targets_ok | (scorer.bound == np.inf)
    ranks = np.empty(len(tests), dtype=int)
    for start in range(0, len(sources), _CHUNK):
        stop = min(start + _CHUNK, len(sources))
        with np.errstate(over="ignore", invalid="ignore"):  # uncertified rows
            approx = scorer.block(slice(start, stop))
        bound = scorer.bound[start:stop].copy()
        for k in start + np.flatnonzero(flagged[start:stop]):
            if not targets_ok[k]:
                group = slice(first[k], first[k + 1])
                raise ValueError(f"target class {targets[group][~ok[group]][0]} "
                                 f"is not among the candidates")
            # uncertified: the whole row is in the band, scored exactly
            with np.errstate(over="ignore", invalid="ignore"):  # caught below
                row = approx[k - start] = scorer.exact(k, slice(None))
            if not np.isfinite(row).all():
                raise NumericalError(
                    f"non-finite ranking score for source class {sources[k]}")
            bound[k - start] = 0.0
        rows = slice(*np.searchsorted(drop_row, [start, stop]))
        approx[drop_row[rows] - start, drop_pos[rows]] = -np.inf
        for c in range(first[start], first[stop], _CHUNK):
            part = slice(c, min(c + _CHUNK, first[stop]))
            ranks[order[part]] = 1 + _count_ahead(
                scorer, approx, bound, si[part] - start, si[part], pos[part])
    return ranks.tolist()


def _find(ids: np.ndarray, classes: np.ndarray) -> tuple:
    """Position of each class among the sorted *ids*, and whether it is
    there."""
    pos = np.searchsorted(ids, classes)
    found = pos < len(ids)
    found[found] = ids[pos[found]] == classes[found]
    return pos, found


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
        lambda ids, sources: _ball_scorer(
            state, ids, sources, direction, adjust_radius),
    )
    return _aggregate(
        ranks, len(candidate_universe), direction, filter_known is not None
    )


def _ball_scorer(state: EmbeddingState, ids: np.ndarray, sources: np.ndarray,
                 direction: str, adjust_radius: bool) -> _Scorer:
    """Minus the distance between centers; with *adjust_radius*, plus the
    candidate's radius minus the source's when *direction* is "sub" (the
    candidate ball must fit inside the source's), else the reverse."""
    centers = state.class_centers
    radii = None
    if adjust_radius:
        r = np.abs(state.class_radii_raw)
        radii = (r[ids], r[sources], direction == "sub")
    return _Scorer(centers[ids], centers[sources], False, radii)


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
        lambda ids, sources: _baseline_scorer(
            state, sub_relation, ids, sources, as_head=direction == "sub"),
    )
    return _aggregate(
        ranks, len(candidate_universe), direction, filter_known is not None
    )


def _baseline_scorer(state: baselines.BaselineState, r: int, ids: np.ndarray,
                     sources: np.ndarray, as_head: bool) -> _Scorer:
    """Scores of (X, r, source) for every candidate X when *as_head*, else
    of (source, r, X)."""
    return _Scorer(*baselines.ranking_sides(state, r, ids, sources, as_head))


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
