"""Translation/bilinear triple baselines over the normalized ontology.

Subclass axioms are triple-ized through a reserved ``__subClassOf__``
relation so the same ranking protocol applies to every model.  All scores
are "higher is better".  Each model is one row of a table: its batch score,
its score gradient, its candidate and source rows for ranking, and whether it
carries relation hyperplane normals (TransH).  A state's parameters live in
one contiguous buffer laid out by the ball model's ``_FlatBlocks``, and the
gradient rows are added with ``_add_rows`` into a ``GradientAccumulator`` of
the same layout.

A training batch is one pass through the model; its two sides share one
gather of the relation rows.  Scoring a side keeps what its gradient needs
(TransE: the residual and its norms; TransH: the residual, its norms and the
head and tail projections on the normal; DistMult: only the ids), and the
gradient works from those pieces on the active triples (one index array),
re-gathering other rows.  The norm that gives a score is the norm its
gradient divides by.  The arithmetic runs in the arrays that hold the terms.
Training runs in the epoch loop every model shares, ``training._fit``: it
scales the gradient buffer, and the SGD step subtracts it from the
parameters in place, each one pass; every value sees the same IEEE
operations in the same order as when each step made new arrays, so the
outputs are byte-identical to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    GradientAccumulator, NumericalError, _add_rows, _all_finite, _FlatBlocks,
    _safe_unit, _unit_rows, read_model_file, row_norms, write_rows,
)
from .normalize import NF1, NF3, NF4, NormalizedOntology
from .training import TrainConfig, TrainResult, _fit

SUBCLASS_RELATION = "__subClassOf__"

BASELINE_HEADER_PREFIX = "#geodl-baseline v1"


class BaselineState(_FlatBlocks):
    """Parameters of one baseline model, laid out by ``_FlatBlocks``: the
    entity rows, the relation rows and, for a model with normals, one
    hyperplane normal per relation (``normals`` is None otherwise).

    *model* must be one of ``MODELS``; this is the one place it is checked.
    The arrays given are copied into a new buffer; normals not given are 0.
    """

    def __init__(self, model: str, entity_embeddings, relation_embeddings,
                 normals=None):
        self.model = model
        self.spec = _spec(model)
        blocks = {"entity_embeddings": entity_embeddings,
                  "relation_embeddings": relation_embeddings}
        self.normals = None
        if self.spec.normals:
            blocks["normals"] = (np.zeros(np.shape(relation_embeddings))
                                 if normals is None else normals)
        super().__init__(**blocks)

    def all_finite(self) -> bool:
        with np.errstate(over="ignore"):
            return _all_finite(self.flat)


def baseline_relation_names(onto: NormalizedOntology) -> list:
    return onto.relations + [SUBCLASS_RELATION]


def extract_triples(onto: NormalizedOntology) -> np.ndarray:
    """``[n, 3]`` (head, relation, tail) ids in axiom order: NF1 via the
    reserved subclass relation, NF3/NF4 as (C, R, D); other axiom shapes
    carry no single relation edge and are skipped."""
    sub_rel = len(onto.relations)
    rows = [(ax.c, sub_rel if isinstance(ax, NF1) else ax.r, ax.d)
            for ax in onto.axioms if isinstance(ax, (NF1, NF3, NF4))]
    return np.array(rows, dtype=int).reshape(len(rows), 3)


# --- the models --------------------------------------------------------------


def _transe_scores(state, H, rel, T):
    e = state.entity_embeddings
    u = e.take(H, axis=0)
    u += rel[0]
    tail = e.take(T, axis=0)
    u -= tail
    norms = row_norms(u, tail)
    return -norms, (u, norms)


def _transe_grads(state, h, t, rows, pieces, active, sign):
    """d score / d (head, relation, tail) is (-uhat, -uhat, uhat), with uhat
    the unit residual."""
    u, norms = pieces
    uhat = _safe_unit(u.take(active, axis=0), norms.take(active))
    flipped = np.negative(uhat)
    return (uhat, uhat, flipped, None) if sign < 0 else (
        flipped, flipped, uhat, None)


def _transh_scores(state, H, rel, T):
    """Minus the norm of the translation residual u between the hyperplane
    projections of head and tail; kept: u, its norms and the projections
    ``wh``, ``wt`` of head and tail on the normal."""
    e = state.entity_embeddings
    vectors, w = rel
    u = e.take(H, axis=0)
    tail = e.take(T, axis=0)
    scratch = w * u
    wh = np.add.reduce(scratch, axis=1, keepdims=True)
    wt = np.add.reduce(np.multiply(w, tail, out=scratch), axis=1, keepdims=True)
    u -= np.multiply(wh, w, out=scratch)
    u += vectors
    tail -= np.multiply(wt, w, out=scratch)
    u -= tail
    norms = row_norms(u, scratch)
    return -norms, (u, norms, wh, wt)


def _transh_grads(state, h, t, w, pieces, active, sign):
    """d score / d (head, relation, tail, normal) is (-g_t, -uhat, g_t, -g_w),
    with uhat the unit residual, g_t = uhat - (uhat.w) w and
    g_w = (uhat.w) (tail - head) + (wt - wh) uhat."""
    u, norms, wh, wt = pieces
    uhat = _safe_unit(u.take(active, axis=0), norms.take(active))
    e = state.entity_embeddings
    g_t = uhat * w
    uw = np.add.reduce(g_t, axis=1, keepdims=True)
    np.subtract(uhat, np.multiply(uw, w, out=g_t), out=g_t)
    head = e.take(h, axis=0)
    g_w = e.take(t, axis=0)
    g_w -= head
    g_w *= uw
    g_w += np.multiply((wt - wh).take(active, axis=0), uhat, out=head)
    flipped = np.negative(g_t)
    if sign < 0:
        return g_t, uhat, flipped, g_w
    return (flipped, np.negative(uhat, out=uhat), g_t,
            np.negative(g_w, out=g_w))


def _distmult_scores(state, H, rel, T):
    e = state.entity_embeddings
    x = e.take(H, axis=0)
    x *= rel[0]
    x *= e.take(T, axis=0)
    return np.add.reduce(x, axis=1), None


def _distmult_grads(state, h, t, rel, pieces, active, sign):
    """d score / d (head, relation, tail) is (rel * tail, head * tail,
    head * rel); negating one factor negates a product exactly."""
    e = state.entity_embeddings
    head, tail = e.take(h, axis=0), e.take(t, axis=0)
    if sign < 0:
        rel = np.negative(rel)
    g_h = rel * tail
    g_t = head * rel
    if sign < 0:
        np.negative(head, out=head)
    return g_h, np.multiply(head, tail, out=tail), g_t, None


def _translation_sides(moving, fixed, rel, as_head):
    """Candidate and source rows whose difference is the translation
    residual: X + rel against fixed(source) when *as_head*, else X against
    fixed(source) + rel (the residual fixed(source) + rel - X is the negated
    difference, so its norm has the same bits)."""
    side = moving if as_head else fixed
    np.add(side, rel, out=side)
    return moving, fixed, False


def _transe_sides(state, r, candidates, sources, as_head):
    e = state.entity_embeddings
    return _translation_sides(e[candidates], e[sources],
                              state.relation_embeddings[r], as_head)


def _transh_sides(state, r, candidates, sources, as_head):
    e = state.entity_embeddings
    w = state.normals[r]
    # Project every entity, not just the candidates: a matrix-vector product
    # may round a row differently depending on the rows around it, and a
    # score must not depend on which candidates are asked for.  For the same
    # reason each source is projected with its own 1-D dot.
    projected = e - (e @ w)[:, None] * w
    fixed = np.empty((len(sources), e.shape[1]))
    for k, s in enumerate(sources):
        fixed[k] = e[s] - (e[s] @ w) * w
    return _translation_sides(projected[candidates], fixed,
                              state.relation_embeddings[r], as_head)


def _distmult_sides(state, r, candidates, sources, as_head):
    e = state.entity_embeddings
    return e[candidates], state.relation_embeddings[r] * e[sources], True


class _Model(NamedTuple):
    name: str
    scores: Callable  # (state, H, rel, T) -> (score per triple, pieces kept)
    grads: Callable  # (state, h, t, rows, pieces, active, sign) -> see _score_grads
    # (state, r, candidates, sources, as_head) -> (moving, fixed, product)
    # for ranking: one row per candidate and one per source, such that the
    # score of (X, r, source) when as_head, else of (source, r, X), is
    # moving . fixed when product and minus ||moving - fixed|| otherwise
    # (see ranking._Scorer).  Each row depends only on its own class, not on
    # which others are asked for.  New arrays.
    sides: Callable
    normals: bool  # carries one hyperplane normal per relation
    reads: Optional[str]  # the relation block whose rows the gradient reads


_MODELS = {spec.name: spec for spec in (
    _Model("transe", _transe_scores, _transe_grads, _transe_sides, False, None),
    _Model("transh", _transh_scores, _transh_grads, _transh_sides, True,
           "normals"),
    _Model("distmult", _distmult_scores, _distmult_grads, _distmult_sides, False,
           "relation_embeddings"),
)}

MODELS = tuple(_MODELS)


def _spec(model: str) -> _Model:
    if model not in _MODELS:
        raise ValueError(f"unknown baseline model {model!r}")
    return _MODELS[model]


def _scores_batch(state: BaselineState, H, rel, T) -> tuple:
    """The score of each triple, and what its gradient needs: the entity ids
    and the pieces the model keeps.  *rel* holds the triples' rows of each
    relation block after the entities (vectors, then TransH's normals)."""
    scores, pieces = state.spec.scores(state, H, rel, T)
    return scores, (H, T, pieces)


def _score_grads(state: BaselineState, kept, rows, active, sign: float):
    """*sign* times the gradient of each *active* triple's score wrt its
    head, relation and tail rows (and its normal, for TransH), from what
    ``_scores_batch`` kept and their *rows* of block ``_Model.reads``.
    Returns ``(g_h, g_r, g_t, g_w or None)``; two parts may be one array."""
    H, T, pieces = kept
    return state.spec.grads(state, H.take(active), T.take(active), rows,
                            pieces, active, sign)


# --- training ----------------------------------------------------------------


def initialize_baseline(
    model: str, num_entities: int, num_relations: int, dim: int,
    rng: np.random.Generator,
) -> BaselineState:
    """Every parameter uniform in [-0.5, 0.5]; normals then scaled to unit
    length."""
    state = BaselineState(
        model, rng.uniform(-0.5, 0.5, size=(num_entities, dim)),
        rng.uniform(-0.5, 0.5, size=(num_relations, dim)))
    if state.spec.normals:
        state.normals[...] = rng.uniform(-0.5, 0.5, size=(num_relations, dim))
        _unit_rows(state.normals)
    return state


def _batch_hinge(state: BaselineState, grad: GradientAccumulator,
                 h, r, t, hn, tn, margin: float) -> np.ndarray:
    """The hinge max(margin - score(h, r, t) + score(hn, r, tn), 0) of each
    triple of a batch, scoring each side once.  The gradient of their sum
    is added into *grad*, which the caller has zeroed."""
    rel = [getattr(state, b).take(r, axis=0) for b in list(state.base)[1:]]
    s_pos, pos = _scores_batch(state, h, rel, t)
    s_neg, neg = _scores_batch(state, hn, rel, tn)
    del rel  # from here on only the active triples' rows are read
    hinge = np.maximum(margin - s_pos + s_neg, 0.0)
    active = np.flatnonzero(hinge > 0.0)
    if not len(active):
        return hinge
    r_active, reads = r.take(active), state.spec.reads
    rows = getattr(state, reads).take(r_active, axis=0) if reads else None
    ph, pr, pt, pw = _score_grads(state, pos, rows, active, -1.0)
    nh, nr, nt, nw = _score_grads(state, neg, rows, active, 1.0)
    for ids, part in ((h, ph), (t, pt), (hn, nh), (tn, nt)):
        _add_rows(grad, "entity_embeddings", ids.take(active), part)
    # after the entity parts: a relation part may share their array
    _add_rows(grad, "relation_embeddings", r_active, np.add(pr, nr, out=pr))
    if pw is not None:
        _add_rows(grad, "normals", r_active, np.add(pw, nw, out=pw))
    return hinge


def train_baseline(
    model: str, triples, num_entities: int, num_relations: int,
    config: TrainConfig,
) -> TrainResult:
    """Margin ranking over uniformly corrupted heads/tails, plain SGD, on
    ``[n, 3]`` (head, relation, tail) triples, in training's epoch loop.  Of
    the validated *config* it reads ``dim``, ``margin``, ``lr``, ``epochs``,
    ``batch_size`` and ``seed``.  Each log row's ``total_loss`` is the
    epoch's mean hinge per triple."""
    if len(triples) == 0:
        raise ValueError("cannot train a baseline on an empty triple list")
    config.validate()
    if num_entities < 2:
        raise ValueError("need at least 2 entities to draw corrupted triples")
    rng = np.random.default_rng(config.seed)
    state = initialize_baseline(
        model, num_entities, num_relations, config.dim, rng)
    H, R, T = np.asarray(triples, dtype=int).T

    def batch(idx, last, grad):
        h, r, t = H[idx], R[idx], T[idx]
        # uniform corruption of head or tail, never reproducing the original
        corrupt_head = rng.random(len(idx)) < 0.5
        repl = rng.integers(0, num_entities - 1, size=len(idx))
        hn = np.where(corrupt_head, repl + (repl >= h), h)
        tn = np.where(corrupt_head, t, repl + (repl >= t))
        hinge = _batch_hinge(state, grad, h, r, t, hn, tn, config.margin)
        total = float(hinge.sum())
        if not math.isfinite(total):
            raise NumericalError(f"non-finite {model} loss")
        # no active hinge: nothing to step on
        scale = config.lr / len(idx) if hinge.any() else None
        return {model: total}, {model: len(idx)}, scale

    def step(state, grad):
        state.flat -= grad.flat
        if state.spec.normals:
            _unit_rows(state.normals)

    return _fit(config, rng, state, len(H), batch, step)


# --- persistence -----------------------------------------------------------


def save_baseline(
    path, state: BaselineState, entity_names: list, relation_names: list
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{BASELINE_HEADER_PREFIX} model={state.model} "
                 f"dim={state.entity_embeddings.shape[1]}\n")
        write_rows(fh, "E", entity_names, state.entity_embeddings)
        write_rows(fh, "R", relation_names, state.relation_embeddings)
        if state.spec.normals:
            write_rows(fh, "W", relation_names, state.normals)


@dataclass
class SavedBaseline:
    state: BaselineState
    entity_names: list
    relation_names: list


def load_baseline(path) -> SavedBaseline:
    fields, rows = read_model_file(
        path, BASELINE_HEADER_PREFIX, {"model": _spec, "dim": int},
        {"E": 0, "R": 0, "W": 0},
    )
    spec = fields["model"]
    relations, normal_rows = rows["R"], rows["W"]
    normals = None
    if spec.normals:
        named = set(relations.names)
        for name, lineno in zip(normal_rows.names, normal_rows.lines):
            if name not in named:
                raise ValueError(f"{path}:{lineno}: W row for unknown relation {name!r}")
        at = {name: i for i, name in enumerate(normal_rows.names)}
        for name, lineno in zip(relations.names, relations.lines):
            if name not in at:
                raise ValueError(f"{path}:{lineno}: relation {name!r} has no W row")
        normals = normal_rows.values[[at[name] for name in relations.names]]
    elif normal_rows.names:
        raise ValueError(
            f"{path}:{normal_rows.lines[0]}: W rows belong to transh models only"
        )
    state = BaselineState(spec.name, rows["E"].values, relations.values, normals)
    return SavedBaseline(state, rows["E"].names, relations.names)
