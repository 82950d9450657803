"""Translation/bilinear triple baselines over the normalized ontology.

Subclass axioms are triple-ized through a reserved ``__subClassOf__``
relation so the same ranking protocol applies to every model.  All scores
are "higher is better"; the scalar scoring functions accumulate strictly
left to right so an independent straight-line evaluation reproduces them
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import read_model_file, row_norms
from .normalize import NF1, NF3, NF4, NormalizedOntology

SUBCLASS_RELATION = "__subClassOf__"

MODELS = ("transe", "transh", "distmult")

BASELINE_HEADER_PREFIX = "#geodl-baseline v1"


@dataclass(frozen=True, slots=True)
class Triple:
    head: int
    relation: int
    tail: int
    from_nf4: bool = False


@dataclass
class BaselineState:
    model: str
    entity_embeddings: np.ndarray  # [num_entities, dim]
    relation_embeddings: np.ndarray  # [num_relations, dim]
    normals: Optional[np.ndarray] = None  # transh hyperplane normals, unit rows

    @property
    def dim(self) -> int:
        return self.entity_embeddings.shape[1]

    def copy(self) -> "BaselineState":
        return BaselineState(
            self.model,
            self.entity_embeddings.copy(),
            self.relation_embeddings.copy(),
            None if self.normals is None else self.normals.copy(),
        )


def baseline_relation_names(onto: NormalizedOntology) -> list:
    return [info.name for info in onto.relations] + [SUBCLASS_RELATION]


def extract_triples(onto: NormalizedOntology) -> list[Triple]:
    """NF1 via the reserved subclass relation, NF3/NF4 as (C, R, D); other
    axiom shapes carry no single relation edge and are skipped."""
    sub_rel = len(onto.relations)
    triples: list[Triple] = []
    for ax in onto.axioms:
        if isinstance(ax, NF1):
            triples.append(Triple(ax.c, sub_rel, ax.d))
        elif isinstance(ax, NF3):
            triples.append(Triple(ax.c, ax.r, ax.d))
        elif isinstance(ax, NF4):
            triples.append(Triple(ax.c, ax.r, ax.d, from_nf4=True))
    return triples


# --- scalar scores (strict left-to-right accumulation) --------------------


def score_transe(h: int, r: int, t: int, state: BaselineState) -> float:
    e = state.entity_embeddings
    rel = state.relation_embeddings
    total = 0.0
    for i in range(state.dim):
        diff = e[h, i] + rel[r, i] - e[t, i]
        total += diff * diff
    return -math.sqrt(total)


def score_transh(h: int, r: int, t: int, state: BaselineState) -> float:
    e = state.entity_embeddings
    rel = state.relation_embeddings
    w = state.normals
    wh = 0.0
    wt = 0.0
    for i in range(state.dim):
        wh += w[r, i] * e[h, i]
    for i in range(state.dim):
        wt += w[r, i] * e[t, i]
    total = 0.0
    for i in range(state.dim):
        diff = (e[h, i] - wh * w[r, i]) + rel[r, i] - (e[t, i] - wt * w[r, i])
        total += diff * diff
    return -math.sqrt(total)


def score_distmult(h: int, r: int, t: int, state: BaselineState) -> float:
    e = state.entity_embeddings
    rel = state.relation_embeddings
    total = 0.0
    for i in range(state.dim):
        total += e[h, i] * rel[r, i] * e[t, i]
    return total


def score(h: int, r: int, t: int, state: BaselineState) -> float:
    if state.model == "transe":
        return score_transe(h, r, t, state)
    if state.model == "transh":
        return score_transh(h, r, t, state)
    if state.model == "distmult":
        return score_distmult(h, r, t, state)
    raise ValueError(f"unknown baseline model {state.model!r}")


# --- vectorized scoring (training and ranking) ----------------------------


def candidate_scores(
    state: BaselineState, r: int, candidates: np.ndarray, as_head: bool
) -> Callable[[int], np.ndarray]:
    """Source -> scores of (X, r, source) for every candidate X when *as_head*,
    else of (source, r, X).

    Work that does not depend on the source is done once here: gathering the
    candidates and, for TransH, projecting them onto the relation's
    hyperplane.  Each call of the returned function makes one pass over the
    candidates and returns a new array.
    """
    e = state.entity_embeddings
    rel = state.relation_embeddings[r]
    moving = e
    fixed = lambda s: e[s]
    if state.model == "transh":
        w = state.normals[r]
        # Project every entity, not just the candidates: a matrix-vector
        # product may round a row differently depending on the rows around
        # it, and a score must not depend on which candidates are asked for.
        moving = e - (e @ w)[:, None] * w
        fixed = lambda s: e[s] - (e[s] @ w) * w
    elif state.model not in MODELS:
        raise ValueError(f"unknown baseline model {state.model!r}")
    moving = moving[candidates]
    buf = np.empty_like(moving)
    if state.model == "distmult":
        if as_head:
            return lambda s: np.add.reduce(
                np.multiply(moving, rel * e[s], out=buf), axis=1)
        return lambda s: np.add.reduce(
            np.multiply(moving, e[s] * rel, out=buf), axis=1)
    if as_head:
        np.add(moving, rel, out=moving)
        return lambda s: -row_norms(np.subtract(moving, fixed(s), out=buf))
    return lambda s: -row_norms(np.subtract(fixed(s) + rel, moving, out=buf))


def _scores_batch(state: BaselineState, H, R, T) -> np.ndarray:
    e = state.entity_embeddings
    rel = state.relation_embeddings
    if state.model == "transe":
        return -np.linalg.norm(e[H] + rel[R] - e[T], axis=1)
    if state.model == "transh":
        w = state.normals[R]
        eh = e[H]
        et = e[T]
        hp = eh - np.sum(w * eh, axis=1, keepdims=True) * w
        tp = et - np.sum(w * et, axis=1, keepdims=True) * w
        return -np.linalg.norm(hp + rel[R] - tp, axis=1)
    if state.model == "distmult":
        return np.sum(e[H] * rel[R] * e[T], axis=1)
    raise ValueError(f"unknown baseline model {state.model!r}")


def _score_grads(state: BaselineState, H, R, T):
    """Per-triple gradients of the score wrt head/relation/tail rows (and
    normals for transh).  Returns (g_h, g_r, g_t, g_w or None)."""
    e = state.entity_embeddings
    rel = state.relation_embeddings
    if state.model == "transe":
        u = e[H] + rel[R] - e[T]
        dist = np.linalg.norm(u, axis=1)
        uhat = np.zeros_like(u)
        np.divide(u, dist[:, None], out=uhat, where=dist[:, None] > 0.0)
        return -uhat, -uhat, uhat, None
    if state.model == "transh":
        w = state.normals[R]
        eh = e[H]
        et = e[T]
        wh = np.sum(w * eh, axis=1, keepdims=True)
        wt = np.sum(w * et, axis=1, keepdims=True)
        u = (eh - wh * w) + rel[R] - (et - wt * w)
        dist = np.linalg.norm(u, axis=1)
        uhat = np.zeros_like(u)
        np.divide(u, dist[:, None], out=uhat, where=dist[:, None] > 0.0)
        uw = np.sum(uhat * w, axis=1, keepdims=True)
        g_h = -(uhat - uw * w)
        g_t = uhat - uw * w
        g_r = -uhat
        g_w = -(uw * (et - eh) + (wt - wh) * uhat)
        return g_h, g_r, g_t, g_w
    if state.model == "distmult":
        g_h = rel[R] * e[T]
        g_r = e[H] * e[T]
        g_t = e[H] * rel[R]
        return g_h, g_r, g_t, None
    raise ValueError(f"unknown baseline model {state.model!r}")


def initialize_baseline(
    model: str, num_entities: int, num_relations: int, dim: int,
    rng: np.random.Generator,
) -> BaselineState:
    if model not in MODELS:
        raise ValueError(f"unknown baseline model {model!r}")
    ent = rng.uniform(-0.5, 0.5, size=(num_entities, dim))
    rel = rng.uniform(-0.5, 0.5, size=(num_relations, dim))
    normals = None
    if model == "transh":
        normals = rng.uniform(-0.5, 0.5, size=(num_relations, dim))
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        normals /= norms
    return BaselineState(model, ent, rel, normals)


def train_baseline(
    model: str,
    triples: list[Triple],
    *,
    num_entities: int,
    num_relations: int,
    dim: int = 50,
    margin: float = 1.0,
    lr: float = 0.01,
    epochs: int = 100,
    batch_size: int = 512,
    seed: int = 42,
    loss_log: Optional[list] = None,
) -> BaselineState:
    """Margin ranking over uniformly corrupted heads/tails, plain SGD."""
    if not triples:
        raise ValueError("cannot train a baseline on an empty triple list")
    if dim < 1 or lr <= 0.0 or batch_size < 1 or epochs < 0:
        raise ValueError("invalid baseline training configuration")
    if num_entities < 2:
        raise ValueError("need at least 2 entities to draw corrupted triples")
    rng = np.random.default_rng(seed)
    state = initialize_baseline(model, num_entities, num_relations, dim, rng)
    H = np.array([t.head for t in triples])
    R = np.array([t.relation for t in triples])
    T = np.array([t.tail for t in triples])
    n = len(triples)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            h, r, t = H[idx], R[idx], T[idx]
            # uniform corruption of head or tail, never reproducing the original
            corrupt_head = rng.random(len(idx)) < 0.5
            repl = rng.integers(0, num_entities - 1, size=len(idx))
            hn = h.copy()
            tn = t.copy()
            repl_h = repl + (repl >= h)
            repl_t = repl + (repl >= t)
            hn[corrupt_head] = repl_h[corrupt_head]
            tn[~corrupt_head] = repl_t[~corrupt_head]
            s_pos = _scores_batch(state, h, r, t)
            s_neg = _scores_batch(state, hn, r, tn)
            hinge = np.maximum(margin - s_pos + s_neg, 0.0)
            epoch_loss += float(hinge.sum())
            active = hinge > 0.0
            if not active.any():
                continue
            ah, ar, at = h[active], r[active], t[active]
            anh, ant = hn[active], tn[active]
            gph, gpr, gpt, gpw = _score_grads(state, ah, ar, at)
            gnh, gnr, gnt, gnw = _score_grads(state, anh, ar, ant)
            ge = np.zeros_like(state.entity_embeddings)
            gr = np.zeros_like(state.relation_embeddings)
            # d/dθ [ -score(pos) + score(neg) ]
            np.add.at(ge, ah, -gph)
            np.add.at(ge, at, -gpt)
            np.add.at(ge, anh, gnh)
            np.add.at(ge, ant, gnt)
            np.add.at(gr, ar, -gpr + gnr)
            scale = lr / len(idx)
            state.entity_embeddings -= scale * ge
            state.relation_embeddings -= scale * gr
            if state.model == "transh":
                gw = np.zeros_like(state.normals)
                np.add.at(gw, ar, -gpw + gnw)
                state.normals -= scale * gw
                norms = np.linalg.norm(state.normals, axis=1, keepdims=True)
                norms[norms == 0.0] = 1.0
                state.normals /= norms
        if loss_log is not None:
            loss_log.append(epoch_loss / n)
    return state


# --- persistence -----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_baseline(
    path, state: BaselineState, entity_names: list, relation_names: list
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{BASELINE_HEADER_PREFIX} model={state.model} dim={state.dim}\n")
        for i, name in enumerate(entity_names):
            row = ["E", name]
            row.extend(_fmt(v) for v in state.entity_embeddings[i])
            fh.write("\t".join(row) + "\n")
        for i, name in enumerate(relation_names):
            row = ["R", name]
            row.extend(_fmt(v) for v in state.relation_embeddings[i])
            fh.write("\t".join(row) + "\n")
        if state.model == "transh":
            for i, name in enumerate(relation_names):
                row = ["W", name]
                row.extend(_fmt(v) for v in state.normals[i])
                fh.write("\t".join(row) + "\n")


@dataclass
class SavedBaseline:
    state: BaselineState
    entity_names: list
    relation_names: list


def _model_name(text: str) -> str:
    if text not in MODELS:
        raise ValueError(f"unknown baseline model {text!r}")
    return text


def load_baseline(path) -> SavedBaseline:
    fields, rows = read_model_file(
        path, BASELINE_HEADER_PREFIX, {"model": _model_name, "dim": int},
        {"E": 0, "R": 0, "W": 0},
    )
    model = fields["model"]
    relations, normal_rows = rows["R"], rows["W"]
    normals = None
    if model == "transh":
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
    state = BaselineState(model, rows["E"].values, relations.values, normals)
    return SavedBaseline(state, rows["E"].names, relations.names)
