"""Test-only reference code that ``src/`` no longer carries.

* The full-row ranking: one score row per distinct source over every
  candidate, ranked as rank = 1 + #higher + #tied with a smaller class index.
  ``geodl.ranking`` scores only the candidates its error band cannot decide,
  and its ranks and errors are checked against these.
* The character-by-character parser cursor that ``geodl.parser`` replaced
  with one tokenizer pass per line, and its name-character rule.  The
  parser's ASTs and error messages are checked against these.
* The parser's round-trip printer and expression-size helper.
* The training configuration's printer, whose text ``parse_config`` must
  read back to the same config.
"""

import numpy as np

from geodl.model import NumericalError, Variant, row_norms
from geodl.parser import (
    BOTTOM,
    TOP,
    Atomic,
    EquivalentClasses,
    Existential,
    Intersection,
    Nominal,
    ParseError,
    SubClassOf,
    concept_to_text,
)


# --- full score rows ----------------------------------------------------------


def ball_rows(state, candidate_ids, direction, adjust_radius):
    """Source -> minus the distance of every candidate's center from the
    source's center (plus the radius slack when *adjust_radius*)."""
    centers = state.class_centers[candidate_ids]
    cand_r = np.abs(state.class_radii_raw[candidate_ids]) if adjust_radius else None
    buf = np.empty_like(centers)

    def row(source):
        dist = row_norms(np.subtract(centers, state.class_centers[source], out=buf))
        if adjust_radius:
            src_r = abs(float(state.class_radii_raw[source]))
            if direction == "sub":
                dist = dist + cand_r - src_r  # candidate ball must fit inside source
            else:
                dist = dist + src_r - cand_r  # source ball must fit inside candidate
        return np.negative(dist, out=dist)

    return row


def _translation_rows(moving, fixed, rel, as_head):
    """Source -> -||X + rel - fixed(source)|| over the rows X of *moving*
    when *as_head*, else -||fixed(source) + rel - X||."""
    buf = np.empty_like(moving)
    if as_head:
        np.add(moving, rel, out=moving)
        return lambda s: -row_norms(np.subtract(moving, fixed(s), out=buf))
    return lambda s: -row_norms(np.subtract(fixed(s) + rel, moving, out=buf))


def _transe_rows(state, r, candidates, as_head):
    e = state.entity_embeddings
    return _translation_rows(
        e[candidates], lambda s: e[s], state.relation_embeddings[r], as_head)


def _transh_rows(state, r, candidates, as_head):
    e = state.entity_embeddings
    w = state.normals[r]
    # Project every entity, not just the candidates: a matrix-vector product
    # may round a row differently depending on the rows around it, and a
    # score must not depend on which candidates are asked for.
    projected = e - (e @ w)[:, None] * w
    return _translation_rows(
        projected[candidates], lambda s: e[s] - (e[s] @ w) * w,
        state.relation_embeddings[r], as_head)


def _distmult_rows(state, r, candidates, as_head):
    e = state.entity_embeddings
    rel = state.relation_embeddings[r]
    moving = e[candidates]
    buf = np.empty_like(moving)
    if as_head:
        return lambda s: np.add.reduce(
            np.multiply(moving, rel * e[s], out=buf), axis=1)
    return lambda s: np.add.reduce(
        np.multiply(moving, e[s] * rel, out=buf), axis=1)


_BASELINE_ROWS = {"transe": _transe_rows, "transh": _transh_rows,
                  "distmult": _distmult_rows}


def baseline_rows(state, r, candidates, as_head):
    """Source -> scores of (X, r, source) for every candidate X when
    *as_head*, else of (source, r, X)."""
    return _BASELINE_ROWS[state.model](state, r, candidates, as_head)


def rank_by_source(tests, candidate_universe, direction, filter_known, score_rows):
    """Rank of every test's target from one full score row per distinct
    source, with the target check and error order of ``geodl.ranking``."""
    if len(tests) == 0:
        raise ValueError("cannot evaluate an empty test list")
    ids = np.sort(candidate_universe)

    def roles(ax):
        return (ax.c, ax.d) if direction == "sub" else (ax.d, ax.c)

    by_source = {}
    for i, test in enumerate(tests):
        target, source = roles(test)
        by_source.setdefault(source, []).append((i, target))
    known = {}
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


def ball_ranks(tests, state, candidate_universe, direction="sub",
               adjust_radius=False, filter_known=None):
    """The ranks ``geodl.ranking.evaluate`` reports, from full rows."""
    return rank_by_source(
        tests, candidate_universe, direction, filter_known,
        lambda ids: ball_rows(state, ids, direction, adjust_radius))


def baseline_ranks(tests, state, candidate_universe, direction="sub",
                   filter_known=None, *, sub_relation):
    """The ranks ``geodl.ranking.baseline_evaluate`` reports, from full rows."""
    return rank_by_source(
        tests, candidate_universe, direction, filter_known,
        lambda ids: baseline_rows(state, sub_relation, ids, direction == "sub"))


# --- character cursor parser -------------------------------------------------

FORBIDDEN_IN_NAMES = set("(),#")


def name_char_rejected(ch):
    """The name rule before the tokenizer: whitespace or one of ``(),#``."""
    return ch.isspace() or ch in FORBIDDEN_IN_NAMES


class Cursor:
    """Single-line cursor that skips whitespace and scans names one
    character at a time; columns count from the start of *text*."""

    def __init__(self, text, line, max_depth):
        self.text = text
        self.pos = 0
        self.line = line
        self.max_depth = max_depth

    def error(self, message):
        return ParseError(message, self.line, self.pos + 1)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            shown = repr(got) if got else "end of line"
            raise self.error(f"expected {ch!r}, found {shown}")
        self.pos += 1

    def name(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and not name_char_rejected(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            got = self.text[start] if start < len(self.text) else ""
            shown = repr(got) if got else "end of line"
            raise self.error(f"expected a name, found {shown}")
        return self.text[start:self.pos]

    def at_end(self):
        self._skip_ws()
        return self.pos >= len(self.text)

    def concept(self, depth=0):
        if depth >= self.max_depth:
            raise self.error(f"nesting deeper than the limit of {self.max_depth}")
        tok = self.name()
        if tok == "top":
            return TOP
        if tok == "bottom":
            return BOTTOM
        if self.peek() == "(" and tok in ("and", "some", "nominal"):
            self.expect("(")
            if tok == "nominal":
                individual = self.name()
                self.expect(")")
                return Nominal(individual)
            if tok == "some":
                role = self.name()
                self.expect(",")
                filler = self.concept(depth + 1)
                self.expect(")")
                return Existential(role, filler)
            left = self.concept(depth + 1)
            self.expect(",")
            right = self.concept(depth + 1)
            self.expect(")")
            return Intersection(left, right)
        return Atomic(tok)

    def axiom(self):
        head = self.name()
        if head not in ("subClassOf", "equivalentClasses", "disjointWith"):
            raise self.error(
                f"expected subClassOf, equivalentClasses or disjointWith, found {head!r}"
            )
        self.expect("(")
        first = self.concept(1)
        self.expect(",")
        second = self.concept(1)
        self.expect(")")
        if head == "subClassOf":
            return SubClassOf(first, second)
        if head == "equivalentClasses":
            return EquivalentClasses(first, second)
        return SubClassOf(Intersection(first, second), BOTTOM)


def _parse_whole(text, max_depth, line, rule):
    cur = Cursor(text, line, max_depth)
    result = rule(cur)
    if not cur.at_end():
        raise cur.error(f"trailing input {cur.text[cur.pos:].strip()!r}")
    return result


def parse_concept(text, max_depth=64, line=1):
    return _parse_whole(text, max_depth, line, Cursor.concept)


def parse_axiom(text, max_depth=64, line=1):
    return _parse_whole(text, max_depth, line, Cursor.axiom)


# --- parser text helpers ------------------------------------------------------


def axiom_to_text(ax):
    if isinstance(ax, SubClassOf):
        return f"subClassOf({concept_to_text(ax.sub)},{concept_to_text(ax.sup)})"
    if isinstance(ax, EquivalentClasses):
        return f"equivalentClasses({concept_to_text(ax.a)},{concept_to_text(ax.b)})"
    raise TypeError(f"not an axiom: {ax!r}")


def concept_size(c):
    """Number of nodes in the expression tree."""
    if isinstance(c, Intersection):
        return 1 + concept_size(c.left) + concept_size(c.right)
    if isinstance(c, Existential):
        return 1 + concept_size(c.filler)
    return 1


# --- config printer -------------------------------------------------------------


def config_to_text(cfg):
    variant = "emel-var" if cfg.variant is Variant.EMEL_VAR else "emel"
    lines = [
        f"dim={cfg.dim}",
        f"margin={cfg.margin!r}",
        f"variant={variant}",
        f"lr={cfg.lr!r}",
        f"optimizer={cfg.optimizer}",
        f"epochs={cfg.epochs}",
        f"batch_size={cfg.batch_size}",
        f"negatives={'on' if cfg.negatives else 'off'}",
        f"seed={cfg.seed}",
        f"patience={cfg.patience}",
        f"sigma_reg={cfg.sigma_reg!r}",
    ]
    return "\n".join(lines) + "\n"
