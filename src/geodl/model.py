"""Ball embeddings: parameters, loss terms, analytic gradients, persistence.

Each class is an n-ball (center vector + radius), each relation a translation
vector; in the variance-extended variant every relation also carries a scalar
slack that widens the admissible region after translation, so one relation can
reach many targets.  Radii and slacks are stored as raw reals whose effective
value is the absolute value, which keeps them non-negative without projection.

Loss terms are hinges on ball containment/overlap plus a soft unit-sphere
penalty P(x) = | ||center(x)|| - 1 | on every class mentioned.  Components are
summed in a fixed order (hinges, then penalties in argument order, then the
slack regularizer) so results are bit-reproducible.  ``term_batch`` runs the
kernel of a shape key; ``loss`` and ``gradients`` are built on it.  Five of
the seven kernels are one two-ball hinge that differs only in the signs and
order of its terms; they all run ``_two_ball``, driven by one row each of the
``_TWO_BALL`` table, from which the gradient signs are read as well.

Parameters and gradients live in one contiguous float64 buffer each, with
the four named blocks as views into it (``_FlatBlocks``), so zeroing,
scaling, copying, the finiteness check and the optimizer step are each one
pass over the buffer.  The kernels add their row contributions into the
gradient buffer with ``_add_rows``, one ``np.add.at`` call per contribution
in the same order as before the flat layout, onto a zeroed buffer: every
cell sees the same additions in the same sequence, so outputs are
byte-identical to per-block storage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .normalize import (
    NF1, NF2, NF3, NF4, BottomSub, Disjoint, NormalAxiom, class_ids, shape_of,
)

CLASS_CENTER = "class_center"
CLASS_RADIUS = "class_radius"
RELATION_VECTOR = "relation_vector"
RELATION_SIGMA = "relation_sigma"


class NumericalError(Exception):
    """A computation produced a non-finite loss, parameter or ranking score."""


class Variant(enum.Enum):
    EMEL = "EmEl"
    EMEL_VAR = "EmElVar"


def parse_variant(text: str) -> Variant:
    key = text.strip().lower().replace("_", "-")
    if key in ("emel", "base"):
        return Variant.EMEL
    if key in ("emel-var", "emelvar", "var"):
        return Variant.EMEL_VAR
    raise ValueError(f"unknown variant {text!r} (expected emel or emel-var)")


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of *x*, overwriting *x* with its squares.

    The arithmetic of ``np.linalg.norm(x, axis=1)``, bit for bit, without its
    two full-size temporaries.
    """
    np.multiply(x, x, out=x)
    return np.sqrt(np.add.reduce(x, axis=1))


class _FlatBlocks:
    """The four parameter blocks as views into one contiguous float64 buffer.

    ``flat`` holds, in this order, the class centers (row-major), the raw
    class radii, the relation vectors (row-major) and the raw relation
    slacks.  Each named block is a view of its slice, so writing a block
    writes ``flat``, and an elementwise operation over ``flat`` does per
    element exactly what the same operation over each block does.
    """

    def __init__(self, class_centers, class_radii_raw, relation_vectors,
                 relation_sigmas_raw):
        num_classes, dim = np.shape(class_centers)
        num_relations = len(relation_vectors)
        self._bind(np.empty((num_classes + num_relations) * (dim + 1)),
                   num_classes, num_relations, dim)
        self.class_centers[...] = class_centers
        self.class_radii_raw[...] = class_radii_raw
        self.relation_vectors[...] = relation_vectors
        self.relation_sigmas_raw[...] = relation_sigmas_raw

    def _bind(self, flat: np.ndarray, num_classes: int, num_relations: int,
              dim: int) -> None:
        radii = num_classes * dim
        relations = radii + num_classes
        sigmas = relations + num_relations * dim
        self.flat = flat
        self.centers_base = 0
        self.relations_base = relations
        self.class_centers = flat[:radii].reshape(num_classes, dim)
        self.class_radii_raw = flat[radii:relations]
        self.relation_vectors = flat[relations:sigmas].reshape(num_relations, dim)
        self.relation_sigmas_raw = flat[sigmas:]

    @classmethod
    def _on(cls, flat: np.ndarray, like: "_FlatBlocks"):
        """An instance whose blocks are views of *flat*, laid out as *like*."""
        num_classes, dim = like.class_centers.shape
        out = cls.__new__(cls)
        out._bind(flat, num_classes, len(like.relation_vectors), dim)
        return out


class EmbeddingState(_FlatBlocks):
    """Model parameters; see ``_FlatBlocks`` for the layout.  The four
    arrays given are copied into a new buffer."""

    @property
    def dim(self) -> int:
        return self.class_centers.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_centers.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_vectors.shape[0]

    def radius(self, c: int) -> float:
        return abs(float(self.class_radii_raw[c]))

    def sigma(self, r: int) -> float:
        return abs(float(self.relation_sigmas_raw[r]))

    def copy(self) -> "EmbeddingState":
        return EmbeddingState._on(self.flat.copy(), self)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    @staticmethod
    def initialize(
        num_classes: int, num_relations: int, dim: int, rng: np.random.Generator
    ) -> "EmbeddingState":
        """Centers uniform in [-1,1]^n scaled onto the unit sphere; radii 0.1;
        relation vectors uniform in [-0.5,0.5]^n; raw slacks 0.01."""
        centers = rng.uniform(-1.0, 1.0, size=(num_classes, dim))
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        centers /= norms
        radii = np.full(num_classes, 0.1)
        rel = rng.uniform(-0.5, 0.5, size=(num_relations, dim))
        sigmas = np.full(num_relations, 0.01)
        return EmbeddingState(centers, radii, rel, sigmas)


class GradientAccumulator(_FlatBlocks):
    """Summed gradients, laid out as the state they belong to."""

    @staticmethod
    def zeros_like(state: EmbeddingState) -> "GradientAccumulator":
        return GradientAccumulator._on(np.zeros_like(state.flat), state)

    def scale(self, factor: float) -> None:
        self.flat *= factor


def _add_rows(acc: GradientAccumulator, base: int, rows: np.ndarray,
              values: np.ndarray) -> None:
    """``np.add.at(block, rows, values)`` for the row block starting at
    ``acc.flat[base]``, through numpy's faster 1-D indexed loop.

    Cell ``(rows[i], j)`` of the block is ``flat[base + rows[i]*dim + j]``,
    and the flattened indices run i-major, so each cell receives its
    contributions in the order ``np.add.at`` on the block adds them and the
    sums are bit-identical.  *rows* must lie in ``[0, block rows)``, or the
    sum lands in another block: ids are class and relation indices, and the
    kernels gather the same rows first, which rejects ids past the end.
    """
    dim = values.shape[1]
    index = rows[:, None] * dim + (base + np.arange(dim))
    np.add.at(acc.flat, index.ravel(), values.ravel())


@dataclass
class LossTerm:
    """One loss term: non-negative value, its hinge component, and gradients
    keyed by (parameter block, row index)."""

    value: float
    hinge: float
    grads: dict


def _safe_unit(vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vectors)
    np.divide(vectors, norms[:, None], out=out, where=norms[:, None] > 0.0)
    return out


def _unit_penalty(centers: np.ndarray):
    """P = | ||x|| - 1 | per row, with its gradient rows."""
    norms = np.linalg.norm(centers, axis=1)
    values = np.abs(norms - 1.0)
    grads = np.sign(norms - 1.0)[:, None] * _safe_unit(centers, norms)
    return values, grads


# Each two-ball hinge h is a signed sum of the operands below, and the table
# holds its terms in the order h adds them: float addition is not
# associative, so the order is part of the model's output bytes.  A term's
# sign is also dh/d(term), so every gradient sign is read from the same row
# and a hinge cannot disagree with its derivative.  The relation shift gives
# t = c + shift * r - d (0: no relation); "regularized" marks the shapes
# whose slack carries the sigma_reg * sigma regularizer.
_OPERANDS = ("dist", "r_C", "r_D", "sigma", "gamma")
_DIST, _RC, _RD, _SIGMA, _GAMMA = range(len(_OPERANDS))


class _TwoBall(NamedTuple):
    first: int  # operand index h starts from, with sign +
    steps: tuple  # (np.add or np.subtract, operand index), in order
    sign: tuple  # sign of each operand in h, 0 when absent
    shift: int
    regularized: bool


def _two_ball_row(formula: str, shift: int, regularized: bool) -> _TwoBall:
    terms = [(1 if token[0] == "+" else -1, _OPERANDS.index(token[1:]))
             for token in formula.split()]
    sign = [0] * len(_OPERANDS)
    for s, index in terms:
        sign[index] = s
    steps = tuple((np.add if s > 0 else np.subtract, index)
                  for s, index in terms[1:])
    return _TwoBall(terms[0][1], steps, tuple(sign), shift, regularized)


_TWO_BALL = {
    "nf1": _two_ball_row("+dist +r_C -r_D -gamma", 0, False),
    "nf3": _two_ball_row("+dist +r_C -r_D -sigma -gamma", 1, True),
    "nf4": _two_ball_row("+dist -r_C -r_D -sigma -gamma", -1, True),
    "disjoint": _two_ball_row("+r_C +r_D -dist +gamma", 0, False),
    "nf3_negative": _two_ball_row("+r_C +r_D +sigma +gamma -dist", 1, False),
}


def _two_ball(key, state, C, R, D, gamma, variant, acc, sigma_reg):
    """The hinge ``_TWO_BALL[key]`` between the C-ball and the D-ball (after
    translation by relation R) plus both unit-sphere penalties, with its
    gradients added to *acc*; returns ``(values, hinges)``.

    The slack is the relation's |raw sigma| in the variance-extended variant
    and 0 otherwise.  A shape marked regularized adds sigma_reg * sigma to
    its value.  At sigma_reg = 1.0 every active hinge (-1) is cancelled by
    its own regularizer (+1), so the slack can plateau but never grow; a
    weight below 1 lets relations with several active targets buy slack.
    """
    row = _TWO_BALL[key]
    fc = state.class_centers[C]
    fd = state.class_centers[D]
    raw_rc = state.class_radii_raw[C]
    raw_rd = state.class_radii_raw[D]
    slacked = bool(row.shift) and variant is Variant.EMEL_VAR
    if row.shift:
        fr = state.relation_vectors[R]
        raw_sig = state.relation_sigmas_raw[R]
        sig = np.abs(raw_sig) if slacked else np.zeros_like(raw_sig)
        t = (fc + fr if row.shift > 0 else fc - fr) - fd
    else:
        t, sig = fc - fd, None
    dist = np.linalg.norm(t, axis=1)
    operands = (dist, np.abs(raw_rc), np.abs(raw_rd), sig, gamma)
    h = operands[row.first]
    for op, index in row.steps:
        h = op(h, operands[index])
    hinge = np.maximum(h, 0.0)
    pc, pc_grad = _unit_penalty(fc)
    pd, pd_grad = _unit_penalty(fd)
    values = hinge + pc + pd
    if slacked and row.regularized:
        values = values + sigma_reg * sig
    if acc is not None:
        active = (h > 0.0).astype(float)
        g = (row.sign[_DIST] * active)[:, None] * _safe_unit(t, dist)
        _add_rows(acc, acc.centers_base, C, g + pc_grad)
        _add_rows(acc, acc.centers_base, D, pd_grad - g)
        if row.shift:
            _add_rows(acc, acc.relations_base, R, g if row.shift > 0 else -g)
        np.add.at(acc.class_radii_raw, C,
                  row.sign[_RC] * active * np.sign(raw_rc))
        np.add.at(acc.class_radii_raw, D,
                  row.sign[_RD] * active * np.sign(raw_rd))
        if slacked:
            slack = row.sign[_SIGMA] * active
            if row.regularized:
                slack = sigma_reg + slack
            np.add.at(acc.relation_sigmas_raw, R, slack * np.sign(raw_sig))
    return values, hinge


def nf1_batch(state: EmbeddingState, C: np.ndarray, D: np.ndarray,
              gamma: float, acc: Optional[GradientAccumulator] = None):
    """C <= D: the C-ball must sit inside the D-ball."""
    return _two_ball("nf1", state, C, None, D, gamma, None, acc, None)


def nf2_batch(state: EmbeddingState, C: np.ndarray, D: np.ndarray,
              E: np.ndarray, gamma: float,
              acc: Optional[GradientAccumulator] = None):
    """C and D <= E: C,D overlap and E's center lies in both balls."""
    fc = state.class_centers[C]
    fd = state.class_centers[D]
    fe = state.class_centers[E]
    raw_rc = state.class_radii_raw[C]
    raw_rd = state.class_radii_raw[D]
    rc = np.abs(raw_rc)
    rd = np.abs(raw_rd)
    u1 = fc - fd
    u2 = fc - fe
    u3 = fd - fe
    d1 = np.linalg.norm(u1, axis=1)
    d2 = np.linalg.norm(u2, axis=1)
    d3 = np.linalg.norm(u3, axis=1)
    h1 = d1 - rc - rd - gamma
    h2 = d2 - rc - gamma
    h3 = d3 - rd - gamma
    hinge = np.maximum(h1, 0.0) + np.maximum(h2, 0.0) + np.maximum(h3, 0.0)
    pc, pc_grad = _unit_penalty(fc)
    pd, pd_grad = _unit_penalty(fd)
    pe, pe_grad = _unit_penalty(fe)
    values = hinge + pc + pd + pe
    if acc is not None:
        a1 = (h1 > 0.0).astype(float)
        a2 = (h2 > 0.0).astype(float)
        a3 = (h3 > 0.0).astype(float)
        u1h = _safe_unit(u1, d1)
        u2h = _safe_unit(u2, d2)
        u3h = _safe_unit(u3, d3)
        _add_rows(acc, acc.centers_base, C,
                  a1[:, None] * u1h + a2[:, None] * u2h + pc_grad)
        _add_rows(acc, acc.centers_base, D,
                  -a1[:, None] * u1h + a3[:, None] * u3h + pd_grad)
        _add_rows(acc, acc.centers_base, E,
                  -a2[:, None] * u2h - a3[:, None] * u3h + pe_grad)
        np.add.at(acc.class_radii_raw, C, -(a1 + a2) * np.sign(raw_rc))
        np.add.at(acc.class_radii_raw, D, -(a1 + a3) * np.sign(raw_rd))
    return values, hinge


def nf3_batch(state: EmbeddingState, C: np.ndarray, R: np.ndarray,
              D: np.ndarray, gamma: float, variant: Variant,
              acc: Optional[GradientAccumulator] = None,
              sigma_reg: float = 1.0):
    """C <= some R. D: C's center translated by R lands within the D-ball,
    up to the relation slack; sigma_reg scales the slack regularizer."""
    return _two_ball("nf3", state, C, R, D, gamma, variant, acc, sigma_reg)


def nf4_batch(state: EmbeddingState, R: np.ndarray, C: np.ndarray,
              D: np.ndarray, gamma: float, variant: Variant,
              acc: Optional[GradientAccumulator] = None,
              sigma_reg: float = 1.0):
    """some R. C <= D: translation runs backwards and the balls must meet,
    up to the relation slack."""
    return _two_ball("nf4", state, C, R, D, gamma, variant, acc, sigma_reg)


def disjoint_batch(state: EmbeddingState, C: np.ndarray, D: np.ndarray,
                   gamma: float, acc: Optional[GradientAccumulator] = None):
    """C and D <= nothing: the two balls must separate by at least the margin."""
    return _two_ball("disjoint", state, C, None, D, gamma, None, acc, None)


def bottom_batch(state: EmbeddingState, C: np.ndarray,
                 acc: Optional[GradientAccumulator] = None):
    """C <= nothing: the radius itself is the loss, driving the ball to a point."""
    raw = state.class_radii_raw[C]
    values = np.abs(raw)
    if acc is not None:
        np.add.at(acc.class_radii_raw, C, np.sign(raw))
    return values, np.zeros_like(values)


def nf3_negative_batch(state: EmbeddingState, C: np.ndarray, R: np.ndarray,
                       D: np.ndarray, gamma: float, variant: Variant,
                       acc: Optional[GradientAccumulator] = None):
    """Corrupted C <= some R. D': push the translated ball away from D'."""
    return _two_ball("nf3_negative", state, C, R, D, gamma, variant, acc,
                     None)


def _collect_grads(
    acc: GradientAccumulator, class_rows, relation_rows
) -> dict:
    grads: dict = {}
    for c in sorted(set(class_rows)):
        vec = acc.class_centers[c]
        if np.any(vec != 0.0):
            grads[(CLASS_CENTER, c)] = vec.copy()
        val = acc.class_radii_raw[c]
        if val != 0.0:
            grads[(CLASS_RADIUS, c)] = float(val)
    for r in sorted(set(relation_rows)):
        vec = acc.relation_vectors[r]
        if np.any(vec != 0.0):
            grads[(RELATION_VECTOR, r)] = vec.copy()
        val = acc.relation_sigmas_raw[r]
        if val != 0.0:
            grads[(RELATION_SIGMA, r)] = float(val)
    return grads


# Arguments each kernel takes after its id columns, besides ``acc``.
_KERNEL_ARGS = {
    "nf1": ("gamma",),
    "nf2": ("gamma",),
    "nf3": ("gamma", "variant", "sigma_reg"),
    "nf4": ("gamma", "variant", "sigma_reg"),
    "disjoint": ("gamma",),
    "bottom": (),
    "nf3_negative": ("gamma", "variant"),
}


def term_batch(
    key: str,
    state: EmbeddingState,
    columns,
    gamma: float,
    variant: Variant,
    acc: Optional[GradientAccumulator] = None,
    sigma_reg: float = 1.0,
):
    """Run the kernel ``<key>_batch`` over id *columns* given in its argument
    order, passing it the arguments it takes; returns ``(values, hinges)``.

    The kernel is looked up on the module at each call, so a wrapper set on
    the module attribute sees every call.
    """
    given = {"gamma": gamma, "variant": variant, "sigma_reg": sigma_reg}
    kernel = globals()[f"{key}_batch"]
    return kernel(state, *columns, acc=acc,
                  **{name: given[name] for name in _KERNEL_ARGS[key]})


def _term(ax: NormalAxiom, sign: int, state: EmbeddingState):
    """Kernel key and one-row id columns of a (normal axiom, sign) term.

    Sign +1 is a positive term; sign -1 marks a corrupted role axiom and is
    valid only for the C <= some R. D shape.  Every id must index a row of
    *state*: the kernels would wrap a negative one and put its gradient in
    another block.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if sign == -1 and not isinstance(ax, NF3):
        raise ValueError("negative terms exist only for the C <= some R. D shape")
    shape = shape_of(ax)
    ids = [getattr(ax, f) for f in shape.fields]
    for f, i in zip(shape.fields, ids):
        count = state.num_relations if f in shape.relations else state.num_classes
        if not 0 <= i < count:
            raise ValueError(
                f"{type(ax).__name__}.{f} = {i!r} is outside [0, {count})")
    key = shape.key if sign == 1 else "nf3_negative"
    return key, [np.array([i]) for i in ids]


def loss(
    ax: NormalAxiom,
    state: EmbeddingState,
    gamma: float,
    variant: Variant = Variant.EMEL,
    sigma_reg: float = 1.0,
    sign: int = 1,
) -> LossTerm:
    """The loss term of one normal axiom, signed as in ``gradients``."""
    key, columns = _term(ax, sign, state)
    acc = GradientAccumulator.zeros_like(state)
    values, hinges = term_batch(key, state, columns, gamma, variant, acc,
                                sigma_reg)
    relation_ids = [getattr(ax, f) for f in shape_of(ax).relations]
    grads = _collect_grads(acc, class_ids(ax), relation_ids)
    return LossTerm(float(values[0]), float(hinges[0]), grads)


def loss_nf1(state: EmbeddingState, c: int, d: int, gamma: float) -> LossTerm:
    return loss(NF1(c, d), state, gamma)


def loss_nf2(state: EmbeddingState, c: int, d: int, e: int, gamma: float) -> LossTerm:
    return loss(NF2(c, d, e), state, gamma)


def loss_nf3(
    state: EmbeddingState, c: int, r: int, d: int, gamma: float,
    variant: Variant, sigma_reg: float = 1.0,
) -> LossTerm:
    return loss(NF3(c, r, d), state, gamma, variant, sigma_reg)


def loss_nf4(
    state: EmbeddingState, c: int, r: int, d: int, gamma: float,
    variant: Variant, sigma_reg: float = 1.0,
) -> LossTerm:
    return loss(NF4(r, c, d), state, gamma, variant, sigma_reg)


def loss_disjoint(state: EmbeddingState, c: int, d: int, gamma: float) -> LossTerm:
    return loss(Disjoint(c, d), state, gamma)


def loss_bottom(state: EmbeddingState, c: int) -> LossTerm:
    return loss(BottomSub(c), state, 0.0)  # the bottom term has no margin


def loss_nf3_negative(
    state: EmbeddingState, c: int, r: int, d_neg: int, gamma: float, variant: Variant
) -> LossTerm:
    return loss(NF3(c, r, d_neg), state, gamma, variant, sign=-1)


def gradients(
    batch,
    state: EmbeddingState,
    gamma: float,
    variant: Variant,
    sigma_reg: float = 1.0,
) -> GradientAccumulator:
    """Summed analytic gradients for a batch of (normal axiom, sign) pairs.

    Sign +1 is a positive term; sign -1 marks a corrupted role axiom and is
    valid only for the C <= some R. D shape.
    """
    acc = GradientAccumulator.zeros_like(state)
    for ax, sign in batch:
        key, columns = _term(ax, sign, state)
        term_batch(key, state, columns, gamma, variant, acc, sigma_reg)
    return acc


# --- persistence ---------------------------------------------------------

MODEL_HEADER_PREFIX = "#geodl v1"


@dataclass
class SavedModel:
    state: EmbeddingState
    class_names: list
    relation_names: list
    variant: Variant
    margin: float


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_model(
    path,
    state: EmbeddingState,
    class_names: list,
    relation_names: list,
    variant: Variant,
    margin: float,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{MODEL_HEADER_PREFIX} dim={state.dim} variant={variant.value} "
            f"margin={_fmt(margin)}\n"
        )
        for i, name in enumerate(class_names):
            row = ["C", name, _fmt(state.class_radii_raw[i])]
            row.extend(_fmt(v) for v in state.class_centers[i])
            fh.write("\t".join(row) + "\n")
        for i, name in enumerate(relation_names):
            row = ["R", name, _fmt(state.relation_sigmas_raw[i])]
            row.extend(_fmt(v) for v in state.relation_vectors[i])
            fh.write("\t".join(row) + "\n")


class ModelRows(NamedTuple):
    """The rows of one kind in a model file, in file order."""

    names: list
    lines: list  # 1-based line number of each row
    values: np.ndarray  # [rows, scalars + dim]


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_model_file(path, prefix: str, fields: dict, kinds: dict) -> tuple:
    """Strict reader shared by the ball and the baseline model files.

    Line 1 is *prefix* followed by exactly the ``key=value`` fields named in
    *fields*, each converted by its function; ``dim`` must be at least 1.
    Every other non-empty line is ``kind name v_1 ... v_m`` with tab
    separators, where *kinds* maps each allowed kind to its count of scalars
    before the dim-wide vector.  Values must be finite and names distinct
    within a kind.  Returns the converted header fields and a ``ModelRows``
    per kind; any violation raises ``ValueError`` naming ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(prefix):
            raise ValueError(f"{path}:1: header does not start with {prefix!r}")
        found: dict = {}
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
        rows: dict = {kind: [] for kind in kinds}
        seen: dict = {kind: {} for kind in kinds}  # name -> line, in file order
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
                rows[kind].append([float(v) for v in parts[2:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    parsed = {}
    for kind, scalars in kinds.items():
        values = np.array(rows[kind], dtype=float).reshape(
            len(rows[kind]), scalars + dim)
        lines = list(seen[kind].values())
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ValueError(f"{path}:{lines[finite.argmin()]}: non-finite value")
        parsed[kind] = ModelRows(list(seen[kind]), lines, values)
    return found, parsed


def load_model(path) -> SavedModel:
    fields, rows = read_model_file(
        path, MODEL_HEADER_PREFIX,
        {"dim": int, "variant": Variant, "margin": _finite_float},
        {"C": 1, "R": 1},
    )
    classes, relations = rows["C"].values, rows["R"].values
    state = EmbeddingState(
        classes[:, 1:], classes[:, 0], relations[:, 1:], relations[:, 0])
    return SavedModel(
        state, rows["C"].names, rows["R"].names, fields["variant"],
        fields["margin"],
    )
