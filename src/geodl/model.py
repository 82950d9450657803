"""Ball embeddings: parameters, loss terms, analytic gradients, persistence.

Each class is an n-ball (center vector + radius), each relation a translation
vector; in the variance-extended variant every relation also carries a scalar
slack that widens the admissible region after translation, so one relation can
reach many targets.  Radii and slacks are stored as raw reals whose effective
value is the absolute value, which keeps them non-negative without projection.

Loss terms are hinges on ball containment/overlap plus a soft unit-sphere
penalty P(x) = | ||center(x)|| - 1 | on every class mentioned.  Components are
summed in a fixed order (hinges, then penalties in argument order, then the
slack regularizer) so results are bit-reproducible.  ``batch_terms`` runs
every term of a training batch in one stacked pass; its docstring gives the
layout of the stacks.  Five of the seven shapes are one two-ball hinge,
``_two_ball`` bound to one row each of the ``_TWO_BALL`` table.

Parameters and gradients live in one contiguous float64 buffer each, with
the named blocks as views into it (``_FlatBlocks``, which the baselines
share), so zeroing, scaling, copying, the finiteness check and the SGD step
are each one pass over the buffer; the Adam step walks it in cache-sized
slices (``training._Adam``).  A pass adds its rows, in term order, into the
gradient buffer with one ``np.add.at`` or ``_add_rows`` (flat offsets, no
table) call per block, so every cell sees the same additions in the same
sequence as one call per term and per block gave, onto a zeroed buffer, and
outputs are byte-identical to per-block storage.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

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


def row_norms(x: np.ndarray,
              squares: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean norm of each row of *x*, writing its squares to *squares*
    (*x* itself by default).

    The arithmetic of ``np.linalg.norm(x, axis=1)``, bit for bit, without its
    two full-size temporaries.
    """
    squares = x if squares is None else squares
    np.multiply(x, x, out=squares)
    return np.sqrt(np.add.reduce(squares, axis=1))


def _unit_rows(x: np.ndarray) -> None:
    """Scale each nonzero row of *x* to unit length, in place."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    x /= norms


class _FlatBlocks:
    """Named arrays as views into one contiguous float64 buffer, ``flat``.

    The arrays given are copied into a new buffer, row-major, in the order
    given; ``base[name]`` is the offset of each block in ``flat``.  Each
    named block is a view of its slice, so writing a block writes ``flat``,
    and an elementwise operation over ``flat`` does per element exactly what
    the same operation over each block does.
    """

    def __init__(self, **blocks):
        sizes = [math.prod(np.shape(array)) for array in blocks.values()]
        self.flat = np.empty(sum(sizes))
        self.base = {}
        start = 0
        for (name, array), size in zip(blocks.items(), sizes):
            self.base[name] = start
            view = self.flat[start:start + size].reshape(np.shape(array))
            view[...] = array
            setattr(self, name, view)
            start += size


class EmbeddingState(_FlatBlocks):
    """Model parameters: the class centers, the raw class radii, the relation
    vectors and the raw relation slacks, in this order in ``flat``."""

    def __init__(self, class_centers, class_radii_raw, relation_vectors,
                 relation_sigmas_raw):
        super().__init__(class_centers=class_centers,
                         class_radii_raw=class_radii_raw,
                         relation_vectors=relation_vectors,
                         relation_sigmas_raw=relation_sigmas_raw)

    @property
    def dim(self) -> int:
        return self.class_centers.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_centers.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_vectors.shape[0]

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(self.class_centers, self.class_radii_raw,
                              self.relation_vectors, self.relation_sigmas_raw)

    def all_finite(self) -> bool:
        with np.errstate(over="ignore"):
            return _all_finite(self.flat)

    @staticmethod
    def initialize(
        num_classes: int, num_relations: int, dim: int, rng: np.random.Generator
    ) -> "EmbeddingState":
        """Centers uniform in [-1,1]^n scaled onto the unit sphere; radii 0.1;
        relation vectors uniform in [-0.5,0.5]^n; raw slacks 0.01."""
        centers = rng.uniform(-1.0, 1.0, size=(num_classes, dim))
        _unit_rows(centers)
        radii = np.full(num_classes, 0.1)
        rel = rng.uniform(-0.5, 0.5, size=(num_relations, dim))
        sigmas = np.full(num_relations, 0.01)
        return EmbeddingState(centers, radii, rel, sigmas)


class GradientAccumulator(_FlatBlocks):
    """Summed gradients, laid out as the parameters they belong to."""

    @staticmethod
    def zeros_like(state: _FlatBlocks) -> "GradientAccumulator":
        """Zeros in *state*'s blocks, ball model or baseline."""
        return GradientAccumulator(**{
            name: np.zeros_like(getattr(state, name)) for name in state.base})


def _all_finite(values: np.ndarray) -> bool:
    """Whether the 1-D *values* are all finite, under the caller's
    ``np.errstate(over="ignore")``: a finite sum of squares has only finite
    terms, and only an infinite one, maybe an overflow of finite terms, has
    its terms tested (a dot product is cheaper and makes no bool array)."""
    return math.isfinite(values.dot(values)) or bool(np.isfinite(values).all())


def _add_rows(acc: _FlatBlocks, block: str, rows: np.ndarray,
              values: np.ndarray) -> None:
    """``np.add.at(acc.<block>, rows, values)`` for a row block, through
    numpy's faster 1-D indexed loop over ``acc.flat``: row i's cells are at
    ``base + i * width + arange(width)``, listed row by row, so each cell
    receives its contributions in ``np.add.at``'s order, bit for bit.  As
    there, a row past the block's end raises IndexError and a negative row
    wraps within the block (bare offsets would reach a neighbouring block).
    """
    count, width = getattr(acc, block).shape
    lo, hi = (rows.min(), rows.max()) if len(rows) else (0, 0)
    if lo < -count or hi >= count:
        raise IndexError(f"a row is outside block {block!r} of {count} rows")
    offsets = (rows % count if lo < 0 else rows) * width
    index = np.add.outer(offsets, acc.base[block] + np.arange(width))
    np.add.at(acc.flat, index.ravel(), values.ravel())


def _safe_unit(vectors: np.ndarray, norms: np.ndarray,
               scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Divide each row of *vectors* by its norm in place and return it; a row
    whose norm is not > 0 (zero, underflowed or NaN) becomes +0.0.

    With *scale* (one value per row, each +-1 or +-0.0), each row comes out
    multiplied by its scale in the same pass, bit for bit: the divisor is
    norm / scale, and x / (+-norm) is (x / norm) * (+-1) exactly, while
    x / (+-inf) is the zero (x / norm) * (+-0.0) with its sign.
    """
    ok = norms > 0.0
    if scale is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            norms = norms / scale  # rows not ok are overwritten below
    if ok.all():
        return np.divide(vectors, norms[:, None], out=vectors)
    np.divide(vectors, np.where(ok, norms, 1.0)[:, None], out=vectors)
    vectors[~ok] = 0.0 if scale is None else 0.0 * scale[~ok, None]
    return vectors


def _unit_penalty(centers: np.ndarray,
                  squares: Optional[np.ndarray] = None):
    """P = | ||x|| - 1 | per row, with its gradient rows, which overwrite
    *centers*; *squares* is scratch of the same shape (a new array by
    default)."""
    if squares is None:
        squares = np.empty_like(centers)
    norms = row_norms(centers, squares)
    excess = norms - 1.0
    grads = _safe_unit(centers, norms, np.sign(excess))
    return np.abs(excess), grads


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
    # C <= D: the C-ball must sit inside the D-ball.
    "nf1": _two_ball_row("+dist +r_C -r_D -gamma", 0, False),
    # C <= some R. D: C's center translated by R lands within the D-ball,
    # up to the relation slack.
    "nf3": _two_ball_row("+dist +r_C -r_D -sigma -gamma", 1, True),
    # some R. C <= D: translation runs backwards and the balls must meet,
    # up to the relation slack.
    "nf4": _two_ball_row("+dist -r_C -r_D -sigma -gamma", -1, True),
    # C and D <= nothing: the two balls must separate by at least the margin.
    "disjoint": _two_ball_row("+r_C +r_D -dist +gamma", 0, False),
    # Corrupted C <= some R. D': push the translated ball away from D'.
    "nf3_negative": _two_ball_row("+r_C +r_D +sigma +gamma -dist", 1, False),
}

# The signs of dist, r_C, r_D and sigma on a term's pair rows, one column
# per kernel key: a two-ball row's are its hinge's; nf2's three distances
# each enter their hinge with +1, and nf2 forms its radius gradients itself.
_PAIR_SIGNS = {key: np.array(row.sign[:_GAMMA], dtype=float)[:, None]
               for key, row in _TWO_BALL.items()}
_PAIR_SIGNS["nf2"] = np.array([[1.0], [0.0], [0.0], [0.0]])
_SHIFTED = {key for key, row in _TWO_BALL.items() if row.shift}

class _Rows(NamedTuple):
    """Where one term's rows sit in the stacks of a pass."""

    n: int  # rows of the term
    cls: int  # first row in the class stack: C's rows, D's, then nf2's E's
    rad: int  # first row in the radius stack: C's rows, then D's
    pair: int  # first row in the pair stack: one per distance


class _Pass(NamedTuple):
    """The stacked quantities a shape step reads, and ``h``, the pair
    stack's hinge arguments, which the steps write."""

    dist: np.ndarray  # per pair row
    h: np.ndarray  # per pair row
    r: np.ndarray  # |raw radius| per radius row
    sig: np.ndarray  # slack per relation row (0 in emel), pair-aligned
    p: np.ndarray  # unit penalty per class row
    gamma: float
    slacked: bool
    sigma_reg: float


def _two_ball(key, q: _Pass, at: _Rows):
    """The hinge ``_TWO_BALL[key]`` between the C-ball and the D-ball (after
    translation by relation R) plus both unit-sphere penalties, for the
    term at *at*; returns ``(values, hinges)``.

    The slack is the relation's |raw sigma| in the variance-extended variant
    and 0 otherwise.  A shape marked regularized adds sigma_reg * sigma to
    its value.  At sigma_reg = 1.0 every active hinge (-1) is cancelled by
    its own regularizer (+1), so the slack can plateau but never grow; a
    weight below 1 lets relations with several active targets buy slack.
    """
    row = _TWO_BALL[key]
    n = at.n
    pairs = slice(at.pair, at.pair + n)
    r = q.r[at.rad:at.rad + 2 * n]
    sig = q.sig[pairs] if row.shift else None
    operands = (q.dist[pairs], r[:n], r[n:], sig, q.gamma)
    h = q.h[pairs]
    (op, index), *steps = row.steps
    op(operands[row.first], operands[index], out=h)
    for op, index in steps:
        op(h, operands[index], out=h)
    hinge = np.maximum(h, 0.0)
    p = q.p[at.cls:at.cls + 2 * n]  # C's rows, then D's
    values = hinge + p[:n]
    values += p[n:]
    if q.slacked and row.regularized:
        values += q.sigma_reg * sig
    return values, hinge


nf1_batch = functools.partial(_two_ball, "nf1")
nf3_batch = functools.partial(_two_ball, "nf3")
nf4_batch = functools.partial(_two_ball, "nf4")
disjoint_batch = functools.partial(_two_ball, "disjoint")
nf3_negative_batch = functools.partial(_two_ball, "nf3_negative")


def nf2_batch(q: _Pass, at: _Rows):
    """C and D <= E: C,D overlap and E's center lies in both balls.  The
    pair rows hold ||c-d||, then ||c-e||, then ||d-e||."""
    n = at.n
    d = q.dist[at.pair:at.pair + 3 * n]
    h = q.h[at.pair:at.pair + 3 * n]
    r = q.r[at.rad:at.rad + 2 * n]  # rc, then rd
    h1 = np.subtract(d[:n], r[:n], out=h[:n])  # d1 - rc - rd - gamma
    h1 -= r[n:]
    h1 -= q.gamma
    np.subtract(d[n:], r, out=h[n:])  # d2 - rc - gamma, d3 - rd - gamma
    h[n:] -= q.gamma
    parts = np.maximum(h, 0.0)
    hinge = parts[:n] + parts[n:2 * n]
    hinge += parts[2 * n:]
    p = q.p[at.cls:at.cls + 3 * n]  # C's rows, then D's, then E's
    values = hinge + p[:n]
    values += p[n:2 * n]
    values += p[2 * n:]
    return values, hinge


def _nf2_gradient(at: _Rows, g, active, p_grad, radius) -> None:
    """Add nf2's distance gradients g_i = a_i * unit(u_i) to its class rows
    of *p_grad* as (g1 + g2), (-g1 + g3) and (-g2 - g3), and scale its
    radius rows by -(a1 + a2) and -(a1 + a3).  Negation is exact, so g3 - g1
    and -(g2 + g3) give those sums bit for bit."""
    n = at.n
    g1, g2, g3 = (g[at.pair + i * n:at.pair + (i + 1) * n] for i in range(3))
    pc, pd, pe = (p_grad[at.cls + i * n:at.cls + (i + 1) * n]
                  for i in range(3))
    scratch = np.empty_like(g1)
    pc += np.add(g1, g2, out=scratch)
    pd += np.subtract(g3, g1, out=scratch)
    pe -= np.add(g2, g3, out=scratch)
    a = active[at.pair:at.pair + 3 * n]
    factor = a[n:].reshape(2, n) + a[:n]  # a2 + a1, then a3 + a1
    radius[at.rad:at.rad + 2 * n] *= np.negative(factor, out=factor).ravel()


def bottom_batch(q: _Pass, at: _Rows):
    """C <= nothing: the radius itself is the loss, driving the ball to a point."""
    values = q.r[at.rad:at.rad + at.n]
    return values, np.zeros_like(values)


def _stack(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=int)


def batch_terms(
    state: EmbeddingState,
    terms: list,
    gamma: float,
    variant: Variant,
    acc: Optional[GradientAccumulator] = None,
    sigma_reg: float = 1.0,
) -> list:
    """Values and hinges of every term of a batch, in one stacked pass, with
    the gradients added to *acc*; returns one ``(values, hinges)`` per term.

    *terms* is ``[(key, columns), ...]`` in the order the terms are summed:
    *columns* holds one id array per field of the shape, in the order of
    ``normalize.SHAPES`` (nf3_negative's as nf3's).

    One loop over *terms* gives each term its ``_Rows``.  The class stack
    holds each term's C's, then D's, then nf2's E's; the radius stack its
    C's, then D's (bottom's C's only); the pair stack one row per distance
    (nf2 has three, bottom none).  Shifted terms (nf3, nf4, nf3_negative)
    take pair rows from 0 and the others from the shifted total, each in
    term order, so that the pair stack's head lines up with the relation
    rows, which only the shifted terms have.  Centers, raw radii and unit
    penalties are taken once over the class and radius stacks; norms, unit
    residuals, active masks and gradient signs once over the pair stack.

    Per term run only the operations on its slices, which no other term
    writes: its residuals ``t = c + shift * r - d`` and operand signs, the
    hinge chain of its shape in the step ``<key>_batch`` (looked up on the
    module at each call, so a wrapper set on the module attribute sees
    every term), nf2's three-way sums, and its gradient rows.  Each
    parameter block is then scattered once, its rows in term order, so
    every cell receives the same additions in the same sequence as one pass
    per term gave, bit for bit.
    """
    slacked = variant is Variant.EMEL_VAR
    cls_ids, rad_ids, rel_ids, rows = [], [], [], []
    cls = rad = head = 0  # head: the next pair row of a shifted term
    pair = sum(len(columns[0]) for key, columns in terms if key in _SHIFTED)
    for key, columns in terms:
        n = len(columns[0])
        if key == "bottom":
            rows.append(_Rows(n, cls, rad, 0))
            rad_ids.append(columns[0])
            rad += n
            continue
        if key in _SHIFTED:
            C, R, D = columns
            rel_ids.append(R)
            rows.append(_Rows(n, cls, rad, head))
            head += n
            cls_ids += (C, D)
        else:
            C, D, *E = columns  # nf2's E
            rows.append(_Rows(n, cls, rad, pair))
            pair += 3 * n if key == "nf2" else n
            cls_ids += (C, D, *E)
        rad_ids += (C, D)
        cls += (3 if key == "nf2" else 2) * n
        rad += 2 * n

    CC, RR, R = _stack(cls_ids), _stack(rad_ids), _stack(rel_ids)
    f = state.class_centers.take(CC, axis=0)
    raw_r = state.class_radii_raw.take(RR)
    raw_sig = state.relation_sigmas_raw.take(R)
    sig = np.abs(raw_sig) if slacked else np.zeros_like(raw_sig)
    fr = state.relation_vectors.take(R, axis=0)
    t = np.empty((pair, state.dim))
    coef = np.empty((_GAMMA, pair))  # the signs of dist, r_C, r_D and sigma
    for (key, _), at in zip(terms, rows):
        n = at.n
        if key == "bottom":
            continue
        span = 3 * n if key == "nf2" else n
        coef[:, at.pair:at.pair + span] = _PAIR_SIGNS[key]
        fc, fd = f[at.cls:at.cls + n], f[at.cls + n:at.cls + 2 * n]
        out = t[at.pair:at.pair + n]
        if key == "nf2":
            fe = f[at.cls + 2 * n:at.cls + 3 * n]
            np.subtract(fc, fd, out=out)
            np.subtract(fc, fe, out=t[at.pair + n:at.pair + 2 * n])
            np.subtract(fd, fe, out=t[at.pair + 2 * n:at.pair + 3 * n])
        elif key in _SHIFTED:
            op = np.add if _TWO_BALL[key].shift > 0 else np.subtract
            op(fc, fr[at.pair:at.pair + n], out=out)
            out -= fd
        else:
            np.subtract(fc, fd, out=out)
    squares = np.empty_like(f)
    dist = row_norms(t, squares[:pair])
    p, p_grad = _unit_penalty(f, squares)
    del squares, fr
    q = _Pass(dist, np.empty(pair), np.abs(raw_r), sig, p, gamma, slacked,
              sigma_reg)
    results = [globals()[f"{key}_batch"](q, at)
               for (key, _), at in zip(terms, rows)]
    if acc is None:
        return results

    coef *= q.h > 0.0  # each operand's sign times the active mask
    g = _safe_unit(t, dist, coef[_DIST])
    radius = np.sign(raw_r)
    for (key, _), at in zip(terms, rows):
        n = at.n
        if key == "bottom":
            continue
        if key == "nf2":
            _nf2_gradient(at, g, coef[_DIST], p_grad, radius)
            continue
        pairs = slice(at.pair, at.pair + n)
        p_grad[at.cls:at.cls + n] += g[pairs]
        p_grad[at.cls + n:at.cls + 2 * n] -= g[pairs]
        both = radius[at.rad:at.rad + 2 * n].reshape(2, n)  # C's, then D's
        both *= coef[_RC:_RD + 1, pairs]
        row = _TWO_BALL[key]
        if row.shift < 0:
            np.negative(g[pairs], out=g[pairs])
        if slacked and row.regularized:
            coef[_SIGMA, pairs] += sigma_reg
    _add_rows(acc, "class_centers", CC, p_grad)
    np.add.at(acc.class_radii_raw, RR, radius)
    if len(R):
        _add_rows(acc, "relation_vectors", R, g[:len(R)])
        if slacked:
            np.add.at(acc.relation_sigmas_raw, R,
                      coef[_SIGMA, :len(R)] * np.sign(raw_sig))
    return results


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
        write_rows(fh, "C", class_names, state.class_centers,
                   state.class_radii_raw)
        write_rows(fh, "R", relation_names, state.relation_vectors,
                   state.relation_sigmas_raw)


def write_rows(fh, kind: str, names: list, vectors: np.ndarray,
               scalars: Optional[np.ndarray] = None) -> None:
    """One ``kind name [scalar] v_1 ... v_dim`` line per name, tab-separated,
    for the ball and the baseline model files.

    Each row is formatted by one ``%`` over its values, converted row by row
    (one whole-array ``tolist`` costs resident memory); ``"%.17g" % x`` is
    ``format(x, ".17g")``, ``_fmt``'s format, for every float.
    """
    width = vectors.shape[1] + (scalars is not None)
    template = "\t".join(["%s", "%s"] + ["%.17g"] * width) + "\n"
    for i, name in enumerate(names):
        row = vectors[i].tolist()
        if scalars is not None:
            row.insert(0, float(scalars[i]))
        fh.write(template % (kind, name, *row))


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
    per kind; a violation raises ``ValueError`` naming ``path:line`` of the
    first faulty line in file order.

    Each row is converted on its own into a float64 array, so no Python
    float outlives its line, and each kind's rows are stacked once at the
    end: about 8 bytes per value plus one small array object per row.
    """
    # a row's sum of squares may overflow; it is tested, not warned of
    with open(path, "r", encoding="utf-8") as fh, np.errstate(over="ignore"):
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
                row = np.fromiter(map(float, parts[2:]), float, width - 2)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not _all_finite(row):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows[kind].append(row)
    parsed = {}
    for kind, scalars in kinds.items():
        values = (np.stack(rows[kind]) if rows[kind]
                  else np.empty((0, scalars + dim)))
        parsed[kind] = ModelRows(list(seen[kind]), list(seen[kind].values()),
                                 values)
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
