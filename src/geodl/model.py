"""Ball embeddings: parameters, loss terms, analytic gradients, persistence.

Each class is an n-ball (center vector + radius), each relation a translation
vector; in the variance-extended variant every relation also carries a scalar
slack that widens the admissible region after translation, so one relation can
reach many targets.  Radii and slacks are stored as raw reals whose effective
value is the absolute value, which keeps them non-negative without projection.

Loss terms are hinges on ball containment/overlap plus a soft unit-sphere
penalty P(x) = | ||center(x)|| - 1 | on every class mentioned.  Components are
summed in a fixed order (hinges, then penalties in argument order, then the
slack regularizer) so results are bit-reproducible.  Every kernel has one
signature, ``<key>_batch(state, ids, gamma, variant, acc=None,
sigma_reg=1.0)``: *ids* is the tuple of id columns in the order of the
shape's fields in ``normalize.SHAPES`` (nf3_negative's as nf3's), and a
kernel ignores the arguments it does not use.  ``term_batch`` runs the
kernel of a shape key; training maps axioms to id columns
(``training._AxiomArrays``).  Five of the seven kernels are one two-ball
hinge that differs only in the signs and order of its terms; they are
``_two_ball`` bound to one row each of the ``_TWO_BALL`` table, from which
the gradient signs are read as well.  A kernel stacks the class ids of its
terms (C's, then D's, then nf2's E's), gathers the centers and the raw radii
of the stack once each and runs ``_unit_penalty`` once over it; the hinge
works on the stack's per-class views.  Every step is row by row, so the
stack gives what one call per class gave, bit for bit.  The kernels work on
their gathered rows in place: a row norm is ``row_norms``, a unit row
``_safe_unit``, and each gradient sum is built in the arrays that hold its
terms, adding them in the order written: one numpy pass per (rows x dim)
quantity and one scratch array per call.

Parameters and gradients live in one contiguous float64 buffer each, with
the named blocks as views into it (``_FlatBlocks``, which the baselines
share), so zeroing, scaling, copying, the finiteness check and the SGD step
are each one pass over the buffer; the Adam step walks it in cache-sized
slices (``training._Adam``).  The kernels add their row contributions into the
gradient buffer with ``_add_rows`` and ``np.add.at``, one call per block a
kernel touches: the stacked class rows go in one call, C's rows before D's,
so every cell sees the same additions in the same sequence as one call per
class and per block gave, onto a zeroed buffer, and outputs are
byte-identical to per-block storage.
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
    given; ``base[name]`` is the offset of each block in ``flat``, and
    ``columns[name]`` the offsets of a 2-D block's first row
    (``base + arange(dim)``).  Each named block is a view of its slice, so
    writing a block writes ``flat``, and an elementwise operation over
    ``flat`` does per element exactly what the same operation over each
    block does.
    """

    def __init__(self, **blocks):
        sizes = [math.prod(np.shape(array)) for array in blocks.values()]
        self.flat = np.empty(sum(sizes))
        self.base = {}
        self.columns = {}
        start = 0
        for (name, array), size in zip(blocks.items(), sizes):
            self.base[name] = start
            view = self.flat[start:start + size].reshape(np.shape(array))
            view[...] = array
            setattr(self, name, view)
            if view.ndim == 2:
                self.columns[name] = start + np.arange(view.shape[1])
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
        return bool(np.isfinite(self.flat).all())

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


def _add_rows(acc: _FlatBlocks, block: str, rows: np.ndarray,
              values: np.ndarray) -> None:
    """``np.add.at(acc.<block>, rows, values)`` for a row block, through
    numpy's faster 1-D indexed loop over ``acc.flat``.

    Cell ``(rows[i], j)`` of the block is ``flat[base + rows[i]*dim + j]``,
    and the flattened indices run i-major, so each cell receives its
    contributions in the order ``np.add.at`` on the block adds them and the
    sums are bit-identical.  *rows* must lie in ``[0, block rows)``, or the
    sum lands in another block: training checks every id when it builds its
    columns, and the kernels gather the same rows first, which rejects ids
    past the end.
    """
    columns = acc.columns[block]
    index = rows[:, None] * len(columns) + columns
    np.add.at(acc.flat, index.ravel(), values.ravel())


def _safe_unit(vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Divide each row of *vectors* by its norm in place and return it; a row
    whose norm is not > 0 (zero, underflowed or NaN) becomes +0.0."""
    ok = norms > 0.0
    if ok.all():
        return np.divide(vectors, norms[:, None], out=vectors)
    np.divide(vectors, np.where(ok, norms, 1.0)[:, None], out=vectors)
    vectors[~ok] = 0.0
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
    grads = _safe_unit(centers, norms)
    grads *= np.sign(excess)[:, None]
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


def _two_ball(key, state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """The hinge ``_TWO_BALL[key]`` between the C-ball and the D-ball (after
    translation by relation R) plus both unit-sphere penalties, with its
    gradients added to *acc*; returns ``(values, hinges)``.  *ids* is
    ``(C, R, D)`` for a shape with a relation and ``(C, D)`` otherwise.

    The slack is the relation's |raw sigma| in the variance-extended variant
    and 0 otherwise.  A shape marked regularized adds sigma_reg * sigma to
    its value.  At sigma_reg = 1.0 every active hinge (-1) is cancelled by
    its own regularizer (+1), so the slack can plateau but never grow; a
    weight below 1 lets relations with several active targets buy slack.
    """
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
        op = np.add if row.shift > 0 else np.subtract
        t = op(fc, fr, out=fr)
        t -= fd
    else:
        t, sig = fc - fd, None
    squares = np.empty_like(f)
    dist = row_norms(t, squares[:n])
    operands = (dist, r[:n], r[n:], sig, gamma)
    h = operands[row.first]
    for op, index in row.steps:
        h = op(h, operands[index])
    hinge = np.maximum(h, 0.0)
    p, p_grad = _unit_penalty(f, squares)  # C's rows, then D's
    values = (hinge + p[:n]) + p[n:]
    if slacked and row.regularized:
        values = values + sigma_reg * sig
    if acc is not None:
        active = (h > 0.0).astype(float)
        g = _safe_unit(t, dist)
        g *= (row.sign[_DIST] * active)[:, None]
        p_grad[:n] += g
        p_grad[n:] -= g
        _add_rows(acc, "class_centers", CD, p_grad)
        if row.shift:
            _add_rows(acc, "relation_vectors", R,
                      g if row.shift > 0 else np.negative(g, out=g))
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


nf1_batch = functools.partial(_two_ball, "nf1")
nf3_batch = functools.partial(_two_ball, "nf3")
nf4_batch = functools.partial(_two_ball, "nf4")
disjoint_batch = functools.partial(_two_ball, "disjoint")
nf3_negative_batch = functools.partial(_two_ball, "nf3_negative")


def nf2_batch(state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """C and D <= E: C,D overlap and E's center lies in both balls."""
    C, D, E = ids
    n = len(C)
    CDE = np.concatenate((C, D, E))
    f = state.class_centers[CDE]
    fc, fd, fe = f[:n], f[n:2 * n], f[2 * n:]
    raw_r = state.class_radii_raw[CDE[:2 * n]]
    r = np.abs(raw_r)
    rc, rd = r[:n], r[n:]
    u1 = fc - fd
    u2 = fc - fe
    u3 = fd - fe
    squares = np.empty_like(f)
    scratch = squares[:n]
    d1 = row_norms(u1, scratch)
    d2 = row_norms(u2, scratch)
    d3 = row_norms(u3, scratch)
    h1 = d1 - rc - rd - gamma
    h2 = d2 - rc - gamma
    h3 = d3 - rd - gamma
    hinge = np.maximum(h1, 0.0) + np.maximum(h2, 0.0) + np.maximum(h3, 0.0)
    p, p_grad = _unit_penalty(f, squares)  # C's rows, then D's, then E's
    values = ((hinge + p[:n]) + p[n:2 * n]) + p[2 * n:]
    if acc is not None:
        a1 = (h1 > 0.0).astype(float)
        a2 = (h2 > 0.0).astype(float)
        a3 = (h3 > 0.0).astype(float)
        # g_i = a_i * unit(u_i) in place; the row sums add their terms in the
        # order of (g1 + g2) + pc_grad, (-g1 + g3) + pd_grad and
        # (-g2 - g3) + pe_grad, with scratch rows of squares
        g1 = _safe_unit(u1, d1)
        g1 *= a1[:, None]
        g2 = _safe_unit(u2, d2)
        g2 *= a2[:, None]
        g3 = _safe_unit(u3, d3)
        g3 *= a3[:, None]
        p_grad[:n] += np.add(g1, g2, out=scratch)
        p_grad[n:2 * n] += np.add(np.negative(g1, out=scratch), g3,
                                  out=scratch)
        p_grad[2 * n:] += np.subtract(np.negative(g2, out=scratch), g3,
                                      out=scratch)
        _add_rows(acc, "class_centers", CDE, p_grad)
        radius = np.sign(raw_r)
        radius[:n] *= -(a1 + a2)
        radius[n:] *= -(a1 + a3)
        np.add.at(acc.class_radii_raw, CDE[:2 * n], radius)
    return values, hinge


def bottom_batch(state, ids, gamma, variant, acc=None, sigma_reg=1.0):
    """C <= nothing: the radius itself is the loss, driving the ball to a point."""
    (C,) = ids
    raw = state.class_radii_raw[C]
    values = np.abs(raw)
    if acc is not None:
        np.add.at(acc.class_radii_raw, C, np.sign(raw))
    return values, np.zeros_like(values)


def term_batch(
    key: str,
    state: EmbeddingState,
    columns,
    gamma: float,
    variant: Variant,
    acc: Optional[GradientAccumulator] = None,
    sigma_reg: float = 1.0,
):
    """Run the kernel ``<key>_batch`` over id *columns*, in the order of the
    shape's fields in ``normalize.SHAPES``; returns ``(values, hinges)``.

    The kernel is looked up on the module at each call, so a wrapper set on
    the module attribute sees every call.
    """
    return globals()[f"{key}_batch"](state, columns, gamma, variant, acc,
                                     sigma_reg)


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
                rows[kind].append(list(map(float, parts[2:])))
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
