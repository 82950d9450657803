"""Test-only reference code that ``src/`` no longer carries.

* The full-row ranking: one score row per distinct source over every
  candidate, ranked as rank = 1 + #higher + #tied with a smaller class index.
  ``geodl.ranking`` scores only the candidates its error band cannot decide,
  and its ranks and errors are checked against these.
* The character-by-character parser cursor that ``geodl.parser`` replaced
  with one tokenizer pass per line, and its name-character rule.  The
  parser's ASTs and error messages are checked against these.
* The parser's round-trip printer and expression-size helper.
* A plain recursive walk over each read line's tree that counts a file's
  distinct classes, relations and individuals; ``parse_ontology`` counts
  them in its name tables while it reads.
* The training configuration's printer, whose text ``parse_config`` must
  read back to the same config.
* The one-mask-per-bucket split of a training batch that
  ``training._AxiomArrays.bucket_of`` replaced with one stable sort.
* The ball loss kernels as one call per term, each gathering, penalizing and
  scattering its own rows with ``np.add.at`` on the named blocks, which
  ``geodl.model.batch_terms`` replaced with one stacked pass per batch.
* The model file reader that keeps a list of Python floats per row until one
  ``np.array`` at the end, testing each float for finiteness;
  ``geodl.model.read_model_file`` converts each row into a float64 array as
  it reads, and its fields, names, line numbers, arrays and error messages
  are checked against this one.
* The mean hinge of one axiom shape over a trained state, a diagnostic that
  no command prints; acceptance criterion 4's hub experiment reads it.
"""

import math
from typing import Sequence

import numpy as np

from geodl import model as gm
from geodl.model import (
    _DIST,
    _RC,
    _RD,
    _SIGMA,
    _TWO_BALL,
    EmbeddingState,
    NumericalError,
    Variant,
    _safe_unit,
    row_norms,
)
from geodl.normalize import NF3, SHAPES, NormalAxiom
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
from geodl.training import _AxiomArrays


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


def ontology_counts(lines):
    """(axioms, classes, relations, individuals) of a file: each line cut at
    ``#``, read by the character cursor unless blank, and its names
    collected by a walk over the tree."""
    classes, relations, individuals = set(), set(), set()

    def walk(c):
        if isinstance(c, Atomic):
            classes.add(c.name)
        elif isinstance(c, Nominal):
            individuals.add(c.individual)
        elif isinstance(c, Intersection):
            walk(c.left)
            walk(c.right)
        elif isinstance(c, Existential):
            relations.add(c.role)
            walk(c.filler)

    axioms = 0
    for line in lines:
        text = line.split("#", 1)[0]
        if not text.strip():
            continue
        ax = parse_axiom(text)
        axioms += 1
        for c in (ax.sub, ax.sup) if isinstance(ax, SubClassOf) else (ax.a, ax.b):
            walk(c)
    return axioms, len(classes), len(relations), len(individuals)


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


# --- training batches -----------------------------------------------------------


def bucket_of(offsets, global_idx):
    """Shape key -> the batch's indices in ``[lo, hi)`` of its bucket, less
    ``lo``, in batch order; one mask per bucket, in *offsets* order, and a
    bucket no index falls in is left out."""
    out = {}
    for key, (lo, hi) in offsets.items():
        mask = (global_idx >= lo) & (global_idx < hi)
        if mask.any():
            out[key] = global_idx[mask] - lo
    return out


# --- ball kernels, one call per term ------------------------------------------


def unit_penalty(centers):
    """P = | ||x|| - 1 | per row and its gradient rows (which overwrite
    *centers*): the unit rows, then a multiply by sign(||x|| - 1)."""
    norms = row_norms(centers, np.empty_like(centers))
    excess = norms - 1.0
    grads = _safe_unit(centers, norms)
    grads *= np.sign(excess)[:, None]
    return np.abs(excess), grads


def two_ball(key, state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """The hinge ``_TWO_BALL[key]`` plus both unit-sphere penalties over id
    columns ``(C, R, D)`` or ``(C, D)``, gradients added to *acc*."""
    row = _TWO_BALL[key]
    C, R, D = ids if row.shift else (ids[0], None, ids[1])
    n = len(C)
    CD = np.concatenate((C, D))
    f = state.class_centers[CD]
    fc, fd = f[:n], f[n:]
    raw_r = state.class_radii_raw[CD]
    r = np.abs(raw_r)
    slacked = bool(row.shift) and variant is Variant.EMEL_VAR
    if row.shift:
        raw_sig = state.relation_sigmas_raw[R]
        sig = np.abs(raw_sig) if slacked else np.zeros_like(raw_sig)
        fr = state.relation_vectors[R]
        t = fc + fr if row.shift > 0 else fc - fr
        t -= fd
    else:
        t, sig = fc - fd, None
    dist = row_norms(t, np.empty_like(t))
    operands = (dist, r[:n], r[n:], sig, gamma)
    h = operands[row.first]
    for op, index in row.steps:
        h = op(h, operands[index])
    hinge = np.maximum(h, 0.0)
    p, p_grad = unit_penalty(f)  # C's rows, then D's
    values = (hinge + p[:n]) + p[n:]
    if slacked and row.regularized:
        values = values + sigma_reg * sig
    if acc is not None:
        active = (h > 0.0).astype(float)
        g = _safe_unit(t, dist)
        g *= (row.sign[_DIST] * active)[:, None]
        p_grad[:n] += g
        p_grad[n:] -= g
        np.add.at(acc.class_centers, CD, p_grad)
        if row.shift:
            np.add.at(acc.relation_vectors, R, g if row.shift > 0 else -g)
        radius = np.sign(raw_r)
        radius[:n] *= row.sign[_RC] * active
        radius[n:] *= row.sign[_RD] * active
        np.add.at(acc.class_radii_raw, CD, radius)
        if slacked:
            slack = row.sign[_SIGMA] * active
            if row.regularized:
                slack = sigma_reg + slack
            np.add.at(acc.relation_sigmas_raw, R, slack * np.sign(raw_sig))
    return values, hinge


def nf2_kernel(state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """C and D <= E over id columns ``(C, D, E)``."""
    C, D, E = ids
    n = len(C)
    CDE = np.concatenate((C, D, E))
    f = state.class_centers[CDE]
    fc, fd, fe = f[:n], f[n:2 * n], f[2 * n:]
    raw_r = state.class_radii_raw[CDE[:2 * n]]
    r = np.abs(raw_r)
    rc, rd = r[:n], r[n:]
    u1, u2, u3 = fc - fd, fc - fe, fd - fe
    d1, d2, d3 = (row_norms(u, np.empty_like(u)) for u in (u1, u2, u3))
    h1 = d1 - rc - rd - gamma
    h2 = d2 - rc - gamma
    h3 = d3 - rd - gamma
    hinge = np.maximum(h1, 0.0) + np.maximum(h2, 0.0) + np.maximum(h3, 0.0)
    p, p_grad = unit_penalty(f)  # C's rows, then D's, then E's
    values = ((hinge + p[:n]) + p[n:2 * n]) + p[2 * n:]
    if acc is not None:
        a1, a2, a3 = ((h > 0.0).astype(float) for h in (h1, h2, h3))
        g1 = _safe_unit(u1, d1) * a1[:, None]
        g2 = _safe_unit(u2, d2) * a2[:, None]
        g3 = _safe_unit(u3, d3) * a3[:, None]
        p_grad[:n] += g1 + g2
        p_grad[n:2 * n] += -g1 + g3
        p_grad[2 * n:] += -g2 - g3
        np.add.at(acc.class_centers, CDE, p_grad)
        radius = np.sign(raw_r)
        radius[:n] *= -(a1 + a2)
        radius[n:] *= -(a1 + a3)
        np.add.at(acc.class_radii_raw, CDE[:2 * n], radius)
    return values, hinge


def bottom_kernel(state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """C <= nothing over the id column ``(C,)``: the radius is the loss."""
    (C,) = ids
    raw = state.class_radii_raw[C]
    if acc is not None:
        np.add.at(acc.class_radii_raw, C, np.sign(raw))
    return np.abs(raw), np.zeros(len(C))


def kernel(key, state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """One term's kernel call: ``(values, hinges)``, gradients added to
    *acc* by ``np.add.at`` on each block it touches."""
    if key == "nf2":
        return nf2_kernel(state, ids, gamma, variant, acc, sigma_reg)
    if key == "bottom":
        return bottom_kernel(state, ids, gamma, variant, acc, sigma_reg)
    return two_ball(key, state, ids, gamma, variant, acc, sigma_reg)


# --- model file reader, one Python float per value ----------------------------


def read_model_file(path, prefix, fields, kinds):
    """``geodl.model.read_model_file``'s checks, in its order, over rows kept
    as lists of Python floats and converted by one ``np.array`` per kind."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(prefix):
            raise ValueError(f"{path}:1: header does not start with {prefix!r}")
        found = {}
        for part in header[len(prefix):].split():
            key, eq, value = part.partition("=")
            if not eq or key not in fields:
                raise ValueError(f"{path}:1: unknown header field {part!r}")
            if key in found:
                raise ValueError(f"{path}:1: header field {key!r} repeated")
            try:
                found[key] = fields[key](value)
            except ValueError:
                raise ValueError(
                    f"{path}:1: bad header value {part!r}"
                ) from None
        missing = [key for key in fields if key not in found]
        if missing:
            raise ValueError(f"{path}:1: header lacks {', '.join(missing)}")
        dim = found["dim"]
        if dim < 1:
            raise ValueError(f"{path}:1: dim must be at least 1, got {dim}")
        rows = {kind: [] for kind in kinds}
        seen = {kind: {} for kind in kinds}
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            kind = parts[0]
            if kind not in kinds:
                raise ValueError(f"{path}:{lineno}: unknown row kind {kind!r}")
            width = 2 + kinds[kind] + dim
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns")
            name = parts[1]
            if name in seen[kind]:
                raise ValueError(
                    f"{path}:{lineno}: duplicate {kind} row {name!r} "
                    f"(first on line {seen[kind][name]})"
                )
            seen[kind][name] = lineno
            try:
                row = list(map(float, parts[2:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows[kind].append(row)
    parsed = {}
    for kind, scalars in kinds.items():
        values = np.array(rows[kind], dtype=float).reshape(
            len(rows[kind]), scalars + dim)
        parsed[kind] = (list(seen[kind]), list(seen[kind].values()), values)
    return found, parsed


# --- mean hinge of one shape ---------------------------------------------------


def mean_hinge(
    state: EmbeddingState,
    axioms: Sequence[NormalAxiom],
    gamma: float,
    variant: Variant,
    kind=NF3,
) -> float:
    """Mean hinge component over the axioms of one shape, for diagnostics."""
    if kind not in SHAPES:
        raise ValueError(f"not a normal-form shape: {kind!r}")
    key = SHAPES[kind].key
    rows = _AxiomArrays.build(
        axioms, state.num_classes, state.num_relations).rows[key]
    if not len(rows):
        return 0.0
    _, hinges = gm.batch_terms(state, [(key, rows.T)], gamma, variant)[0]
    return float(hinges.mean())
