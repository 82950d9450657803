"""Dataset splitting, mini-batch optimization, checkpointing, early stopping.

One epoch loop, ``_fit``, trains the ball model and the baselines; each
model hands it a batch function and a step.  All randomness flows from the
config seed through one generator, and every ball batch runs its terms in
one stacked pass (``model.batch_terms``) in one fixed order (the shapes in
``normalize.SHAPES`` order, then the negatives, then the nominal term), so a
run is bit-reproducible.  One gradient accumulator is reused for every
batch, and the steps update the flat parameter buffer in place (see
``model._FlatBlocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import model as gm
from . import ranking
from .model import EmbeddingState, GradientAccumulator, NumericalError, Variant
from .normalize import (
    NF1,
    SHAPES,
    NormalAxiom,
    NormalizedOntology,
    class_ids,
    shape_of,
)


def _parse_switch(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"negatives must be on or off, got {value!r}")


# Config-file keys, each with the parser of its value.
_CONFIG_PARSERS = {
    "dim": int,
    "margin": float,
    "variant": gm.parse_variant,
    "lr": float,
    "optimizer": str.lower,
    "epochs": int,
    "batch_size": int,
    "negatives": _parse_switch,
    "seed": int,
    "patience": int,
    "sigma_reg": float,
}
CONFIG_KEYS = tuple(_CONFIG_PARSERS)

VALIDATION_INTERVAL = 25  # epochs between validation rankings


@dataclass
class TrainConfig:
    dim: int = 50
    margin: float = 0.1
    variant: Variant = Variant.EMEL
    lr: float = 0.01
    optimizer: str = "adam"
    epochs: int = 1000
    batch_size: int = 512
    negatives: bool = True
    seed: int = 42
    patience: int = 10
    # weight on the per-term slack regularizer (config key sigma_reg).  At
    # 1.0, the formulas as written, slack cannot grow; a weight below 1 lets
    # the emel-var slack grow where a relation has several active targets.
    sigma_reg: float = 1.0

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed}")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be sgd or adam")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise ValueError("margin must be non-negative and finite")
        if not (math.isfinite(self.sigma_reg) and self.sigma_reg >= 0.0):
            raise ValueError("sigma_reg must be non-negative and finite")


def parse_config(text: str) -> TrainConfig:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    cfg = TrainConfig()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _CONFIG_PARSERS[key](value))
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    cfg.validate()
    return cfg


# --- splitting -------------------------------------------------------------


@dataclass
class SplitSpec:
    train_frac: float = 0.7
    valid_frac: float = 0.2
    test_frac: float = 0.1
    seed: int = 42

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed}")
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if not all(math.isfinite(f) for f in fracs):
            raise ValueError("split fractions must be finite")
        if any(f < 0.0 for f in fracs):
            raise ValueError("split fractions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.train_frac <= 0.0:
            raise ValueError("training fraction must be positive")


@dataclass
class SplitResult:
    train: list[NormalAxiom]
    valid: list[NF1]
    test: list[NF1]
    eligible_count: int
    swaps: int
    candidate_count: int


def split(onto: NormalizedOntology, spec: SplitSpec) -> SplitResult:
    """Hold out subclass pairs for validation/testing, everything else trains.

    A pair may be held out when it is an NF1 between two different ranking
    candidates.  Every class mentioned in a held-out pair is guaranteed to
    occur in some training axiom; violating pairs are swapped back into
    training and a replacement is drawn, with the number of swaps reported.
    """
    spec.validate()
    candidates = set(ranking.eligible_candidates(onto.classes).tolist())
    eligible, rest = [], []
    for ax in onto.axioms:
        held_out = (isinstance(ax, NF1) and ax.c != ax.d
                    and ax.c in candidates and ax.d in candidates)
        (eligible if held_out else rest).append(ax)
    n = len(eligible)
    if n < 10:
        raise ValueError(
            f"need at least 10 eligible subclass axioms to split, found {n}"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    shuffled = [eligible[i] for i in order]
    n_test = int(math.floor(spec.test_frac * n))
    n_valid = int(math.floor(spec.valid_frac * n))
    test = shuffled[:n_test]
    valid = shuffled[n_test:n_test + n_valid]
    train_eligible = shuffled[n_test + n_valid:]

    coverage: dict = {}
    for ax in rest + train_eligible:
        for cid in class_ids(ax):
            coverage[cid] = coverage.get(cid, 0) + 1

    def covered(ax: NF1) -> bool:
        return all(coverage.get(cid, 0) > 0 for cid in (ax.c, ax.d))

    swaps = 0
    for part in (valid, test):
        for i in range(len(part)):
            if covered(part[i]):
                continue
            offender = part[i]
            replacement_idx = None
            for j, cand in enumerate(train_eligible):
                if all(coverage.get(cid, 0) >= 2 for cid in (cand.c, cand.d)):
                    replacement_idx = j
                    break
            # move offender into training either way
            train_eligible.append(offender)
            for cid in (offender.c, offender.d):
                coverage[cid] = coverage.get(cid, 0) + 1
            if replacement_idx is None:
                part[i] = None  # shrink: no safe replacement exists
            else:
                cand = train_eligible.pop(replacement_idx)
                for cid in (cand.c, cand.d):
                    coverage[cid] -= 1
                part[i] = cand
            swaps += 1
    valid = [ax for ax in valid if ax is not None]
    test = [ax for ax in test if ax is not None]
    return SplitResult(
        train=rest + train_eligible,
        valid=valid,
        test=test,
        eligible_count=n,
        swaps=swaps,
        candidate_count=len(candidates),
    )


# --- optimizers ------------------------------------------------------------


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, state: EmbeddingState, grad: GradientAccumulator) -> None:
        """``x -= lr*g`` in place, with no temporary; leaves *grad* as scratch."""
        grad.flat *= self.lr
        state.flat -= grad.flat


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per slice of the Adam step: the slices of m, v, g, x and the
# scratch array (5 x 256 KiB) stay in a 2 MiB L2 cache across the step's
# passes.  Measured on a 2000-class, dim-50 state (102,510 elements): 16384
# to 65536 tie, 8192 or fewer lose to per-call overhead.
_ADAM_BLOCK = 32768


class _Adam:
    """Adam over the whole flat parameter buffer, in place.

    The moments and one block-sized scratch array are allocated once.  The
    step walks the buffer in fixed slices of ``_ADAM_BLOCK`` elements and runs
    all of its passes over one slice before the next.  Per element it runs
    the operations of the textbook update in the same order, bit for bit:
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``, then
    ``x -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``.  A slice of ``grad`` is spent
    once ``v`` is updated and then holds the denominator: ``grad`` is scratch.
    """

    def __init__(self, lr: float, state: EmbeddingState):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(state.flat)
        self.v = np.zeros_like(state.flat)
        self._a = np.empty(min(_ADAM_BLOCK, state.flat.size))

    def step(self, state: EmbeddingState, grad: GradientAccumulator) -> None:
        """One update of *state* from *grad*; leaves *grad* as scratch."""
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        for lo in range(0, state.flat.size, _ADAM_BLOCK):
            block = slice(lo, lo + _ADAM_BLOCK)
            g, m, v = grad.flat[block], self.m[block], self.v[block]
            a = self._a[:len(g)]
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=a)
            a *= g
            v += a
            np.divide(m, correction1, out=a)
            a *= self.lr
            np.divide(v, correction2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            a /= g
            state.flat[block] -= a


# --- training --------------------------------------------------------------


@dataclass
class LogRow:
    epoch: int
    total_loss: float
    nf1_loss: float
    nf2_loss: float
    nf3_loss: float
    nf4_loss: float
    disjoint_loss: float
    neg_loss: float
    valid_hits10: float  # nan when not evaluated this epoch


LOG_COLUMNS = tuple(f.name for f in fields(LogRow))
# the loss sums' keys behind LogRow's per-key columns, in field order
_LOSS_KEYS = tuple(name[:-len("_loss")] for name in LOG_COLUMNS[2:-1])


def write_log(path, rows: Sequence[LogRow],
              columns: Sequence[str] = LOG_COLUMNS) -> None:
    """A header of *columns*, then one tab-separated line per row: the
    epoch, then each other column's field with 10 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            cells = (format(getattr(row, name), ".10g")
                     for name in columns[1:])
            fh.write("\t".join((str(row.epoch), *cells)) + "\n")


@dataclass
class _AxiomArrays:
    """Training axioms regrouped as index arrays, one bucket per shape."""

    rows: dict  # shape key -> int array [k, len(fields)], columns in field order
    starts: np.ndarray  # each bucket's first index in the global index

    @staticmethod
    def build(axioms: Sequence[NormalAxiom], num_classes: int,
              num_relations: int) -> "_AxiomArrays":
        """Every id must index a row of its block: the kernels would wrap a
        negative one and put its gradient in another block."""
        buckets: dict = {shape: [] for shape in SHAPES.values()}
        for ax in axioms:
            shape = shape_of(ax)
            buckets[shape].append([getattr(ax, f) for f in shape.fields])
        rows = {}
        for kind, shape in SHAPES.items():
            ids = buckets[shape]
            block = np.array(ids, dtype=int).reshape(len(ids), len(shape.fields))
            for f, column in zip(shape.fields, block.T):
                count = num_relations if f in shape.relations else num_classes
                bad = (column < 0) | (column >= count)
                if bad.any():
                    raise ValueError(f"{kind.__name__}.{f} = "
                                     f"{column[bad][0]} is outside [0, {count})")
            rows[shape.key] = block
        sizes = [len(block) for block in rows.values()]
        return _AxiomArrays(rows, np.cumsum([0] + sizes[:-1]))

    @property
    def total(self) -> int:
        return sum(len(block) for block in self.rows.values())

    def bucket_of(self, global_idx: np.ndarray):
        """Map global indices in ``[0, total)`` to per-bucket local index
        arrays, in SHAPES order, each keeping the order of *global_idx*;
        a bucket none of them falls in is left out.

        One stable sort by bucket puts each bucket's indices in one run, in
        SHAPES order, and the bucket counts give the runs' lengths."""
        # an empty bucket starts where the next one does: "right" skips it
        bucket = np.searchsorted(self.starts[1:], global_idx, side="right")
        grouped = global_idx[np.argsort(bucket, kind="stable")]
        counts = np.bincount(bucket, minlength=len(self.starts)).tolist()
        out = {}
        at = 0
        for key, lo, count in zip(self.rows, self.starts.tolist(), counts):
            if count:
                out[key] = grouped[at:at + count] - lo
                at += count
        return out


@dataclass
class TrainResult:
    state: EmbeddingState  # or a baselines.BaselineState
    log: list[LogRow]
    stopped_epoch: int
    best_hits10: float = float("nan")


def _batch_gradient(
    state: EmbeddingState,
    rows: dict,
    negatives: Optional[np.ndarray],
    nominals: Optional[np.ndarray],
    gamma: float,
    variant: Variant,
    acc: GradientAccumulator,
    sigma_reg: float = 1.0,
):
    """Gradient and per-bucket loss sums/counts for one mini-batch: the
    buckets' terms (*rows*: shape key -> the batch's id rows of that shape),
    then the negatives, then the nominal term, in one ``model.batch_terms``
    pass.  Every id array has one row per term and one column per kernel
    field.

    Each term sum is checked once: a non-finite one raises
    ``NumericalError`` naming the key and, when a term itself is not
    finite, the ids of the first such term (a finite sum has only finite
    terms, so the terms are tested only then)."""
    sums: dict = {}
    counts: dict = {}
    terms = [(key, key, ids) for key, ids in rows.items()]
    terms += [("neg", "nf3_negative", negatives), ("nominal", "bottom", nominals)]
    terms = [term for term in terms if term[2] is not None and len(term[2])]
    results = gm.batch_terms(
        state, [(kernel, ids.T) for _, kernel, ids in terms], gamma,
        variant, acc, sigma_reg)
    for (key, _, ids), (values, _) in zip(terms, results):
        total = float(values.sum())
        if not math.isfinite(total):
            bad = ~np.isfinite(values)
            where = (f" for axiom with ids {ids[bad.argmax()].tolist()}"
                     if bad.any() else "")
            raise NumericalError(f"non-finite {key} loss{where}")
        sums[key] = total
        counts[key] = len(values)
    return sums, counts


def _fit(config: TrainConfig, rng: np.random.Generator, state, terms: int,
         batch, step, valid=None) -> TrainResult:
    """The epoch loop every model trains in.

    Each epoch shuffles the *terms* training items with *rng* and cuts the
    permutation into ``batch_size`` slices.  The loop zeroes *grad*, then
    ``batch(idx, last, grad)`` draws what else it needs from *rng*, adds the
    batch's summed gradient into *grad* and returns its per-key loss sums,
    term counts and the gradient's scale; *last* marks the epoch's final
    batch.  The batch function checks each loss sum it makes and raises
    ``NumericalError`` on a non-finite one; the loop adds the epoch, the
    batch and the advice to the message: a smaller learning rate, or,
    before the first step, the margin and the initial parameters.  Unless
    the scale is None, the gradient is scaled and ``step(state, grad)``
    moves the parameters; a non-finite parameter raises ``NumericalError``.
    With ``valid(state) -> Hits@10``, validates every
    ``VALIDATION_INTERVAL`` epochs, keeps the best checkpoint and stops once
    ``patience`` evaluations pass without improvement.
    """
    grad = GradientAccumulator.zeros_like(state)
    log: list[LogRow] = []
    best_state = None
    best_hits = -1.0
    evals_since_best = 0
    stepped = False
    n_batches = math.ceil(terms / config.batch_size)
    with np.errstate(all="ignore"):  # non-finite values raise below
        for epoch in range(config.epochs):
            order = rng.permutation(terms)
            epoch_sums: dict = {}
            epoch_counts: dict = {}
            for b in range(n_batches):
                idx = order[b * config.batch_size:(b + 1) * config.batch_size]
                where = f"epoch {epoch} batch {b}; try a smaller learning rate"
                grad.flat.fill(0.0)
                try:
                    sums, counts, scale = batch(idx, b == n_batches - 1, grad)
                except NumericalError as exc:
                    if not stepped:  # the learning rate has not acted yet
                        where = (f"epoch {epoch} batch {b}; no step has run: "
                                 f"check the margin and the initial parameters")
                    raise NumericalError(f"{exc} in {where}") from None
                if scale is not None:
                    grad.flat *= scale
                    step(state, grad)
                    stepped = True
                    if not state.all_finite():
                        raise NumericalError(
                            f"non-finite parameter after {where}")
                for key, val in sums.items():
                    epoch_sums[key] = epoch_sums.get(key, 0.0) + val
                    epoch_counts[key] = epoch_counts.get(key, 0) + counts[key]

            def mean_of(key):
                cnt = epoch_counts.get(key, 0)
                return epoch_sums.get(key, 0.0) / cnt if cnt else 0.0

            total_terms = sum(epoch_counts.values())
            total_loss = (sum(epoch_sums.values()) / total_terms
                          if total_terms else 0.0)
            hits = float("nan")
            if valid is not None and (epoch + 1) % VALIDATION_INTERVAL == 0:
                hits = valid(state)
                if hits > best_hits:
                    best_hits = hits
                    best_state = state.copy()
                    evals_since_best = 0
                else:
                    evals_since_best += 1
            log.append(LogRow(epoch, total_loss, *map(mean_of, _LOSS_KEYS), hits))
            if valid is not None and evals_since_best >= config.patience:
                break

    return TrainResult(
        state=state if best_state is None else best_state,
        log=log,
        stopped_epoch=len(log),
        best_hits10=best_hits if best_hits >= 0.0 else float("nan"),
    )


def train(
    onto: NormalizedOntology,
    config: TrainConfig,
    train_axioms: Optional[Sequence[NormalAxiom]] = None,
    valid_nf1: Optional[Sequence[NF1]] = None,
) -> TrainResult:
    """Optimize ball embeddings over the training axioms with ``_fit``.

    With a validation list, early-stops on its Hits@10 and returns the best
    checkpoint; otherwise runs all epochs and returns the final state.  A
    validation pair that cannot be ranked raises ValueError before the first
    epoch.
    """
    config.validate()
    axioms = list(train_axioms) if train_axioms is not None else list(onto.axioms)
    if not axioms:
        raise ValueError("no training axioms")
    arrays = _AxiomArrays.build(axioms, len(onto.classes), len(onto.relations))
    rng = np.random.default_rng(config.seed)
    state = EmbeddingState.initialize(
        len(onto.classes), len(onto.relations), config.dim, rng
    )
    optimizer = (
        _Adam(config.lr, state) if config.optimizer == "adam" else _Sgd(config.lr)
    )
    nominal_ids = np.array(
        [i for i, name in enumerate(onto.classes) if ranking.is_nominal_name(name)],
        dtype=int,
    )[:, None]
    valid = None
    if valid_nf1:
        pairs = list(valid_nf1)
        for ax in pairs:
            for cid in (ax.c, ax.d):
                if not 0 <= cid < len(onto.classes):
                    raise ValueError(
                        f"validation pair NF1({ax.c}, {ax.d}) names class "
                        f"{cid}, outside [0, {len(onto.classes)})")
            why = ranking.unrankable(onto.classes, ax.c, ax.d)
            if why:
                raise ValueError(f"validation pair {why}")
        candidates = ranking.eligible_candidates(onto.classes)

        def valid(state):
            return ranking.evaluate(pairs, state, candidates).hits10

    num_classes = len(onto.classes)

    def batch(idx, last, acc):
        rows = {key: arrays.rows[key][local]
                for key, local in arrays.bucket_of(idx).items()}
        negatives = None
        if config.negatives and "nf3" in rows and num_classes > 1:
            negatives = rows["nf3"].copy()
            # uniform over all classes except the true tail
            repl = rng.integers(0, num_classes - 1, size=len(negatives))
            negatives[:, 2] = repl + (repl >= negatives[:, 2])
        sums, counts = _batch_gradient(
            state, rows, negatives, nominal_ids if last else None,
            config.margin, config.variant, acc, config.sigma_reg,
        )
        return sums, counts, 1.0 / sum(counts.values())

    return _fit(config, rng, state, arrays.total, batch, optimizer.step, valid)
