"""Dataset splitting, mini-batch optimization, checkpointing, early stopping.

All randomness flows from the config seed through one generator, so a
single-threaded run is bit-reproducible.  With ``threads > 1`` the per-batch
gradient is computed over contiguous chunks in a thread pool and merged in
chunk order; only single-threaded runs are the reproducibility reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model as gm
from . import ranking
from .model import EmbeddingState, GradientAccumulator, NumericalError, Variant
from .normalize import (
    NF1,
    NF2,
    NF3,
    NF4,
    BottomSub,
    Disjoint,
    NormalAxiom,
    NormalizedOntology,
)


CONFIG_KEYS = (
    "dim",
    "margin",
    "variant",
    "lr",
    "optimizer",
    "epochs",
    "batch_size",
    "negatives",
    "seed",
    "threads",
    "patience",
)

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
    threads: int = 1
    patience: int = 10
    # weight on the per-term slack regularizer; not a config-file key.
    # At 1.0 (the formulas as written) slack cannot grow, so experiments
    # that rely on learned slack set it below 1.
    sigma_reg: float = 1.0

    def validate(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be sgd or adam")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.margin < 0.0:
            raise ValueError("margin must be non-negative")
        if self.sigma_reg < 0.0:
            raise ValueError("sigma_reg must be non-negative")


def parse_config(text: str) -> TrainConfig:
    """Flat key=value lines; '#' comments and blank lines ignored."""
    cfg = TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            if key == "dim":
                cfg.dim = int(value)
            elif key == "margin":
                cfg.margin = float(value)
            elif key == "variant":
                cfg.variant = gm.parse_variant(value)
            elif key == "lr":
                cfg.lr = float(value)
            elif key == "optimizer":
                cfg.optimizer = value.lower()
            elif key == "epochs":
                cfg.epochs = int(value)
            elif key == "batch_size":
                cfg.batch_size = int(value)
            elif key == "negatives":
                lowered = value.lower()
                if lowered in ("on", "true", "1", "yes"):
                    cfg.negatives = True
                elif lowered in ("off", "false", "0", "no"):
                    cfg.negatives = False
                else:
                    raise ValueError(f"negatives must be on or off, got {value!r}")
            elif key == "seed":
                cfg.seed = int(value)
            elif key == "threads":
                cfg.threads = int(value)
            elif key == "patience":
                cfg.patience = int(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    cfg.validate()
    return cfg


def config_to_text(cfg: TrainConfig) -> str:
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
        f"threads={cfg.threads}",
        f"patience={cfg.patience}",
    ]
    return "\n".join(lines) + "\n"


# --- splitting -------------------------------------------------------------


@dataclass
class SplitSpec:
    train_frac: float = 0.7
    valid_frac: float = 0.2
    test_frac: float = 0.1
    seed: int = 42

    def validate(self) -> None:
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
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
    seed: int
    fractions: tuple


def _is_eligible_nf1(ax: NormalAxiom, onto: NormalizedOntology) -> bool:
    if not isinstance(ax, NF1) or ax.c == ax.d:
        return False
    for cid in (ax.c, ax.d):
        info = onto.classes[cid]
        if info.is_fresh or info.is_nominal:
            return False
    return True


def _mentioned_classes(ax: NormalAxiom) -> tuple:
    if isinstance(ax, NF1):
        return (ax.c, ax.d)
    if isinstance(ax, NF2):
        return (ax.c, ax.d, ax.e)
    if isinstance(ax, (NF3, NF4)):
        return (ax.c, ax.d)
    if isinstance(ax, Disjoint):
        return (ax.c, ax.d)
    return (ax.c,)


def split(onto: NormalizedOntology, spec: SplitSpec) -> SplitResult:
    """Hold out subclass pairs for validation/testing, everything else trains.

    Every class mentioned in a held-out pair is guaranteed to occur in some
    training axiom; violating pairs are swapped back into training and a
    replacement is drawn, with the number of swaps reported.
    """
    spec.validate()
    eligible = [ax for ax in onto.axioms if _is_eligible_nf1(ax, onto)]
    rest = [ax for ax in onto.axioms if not _is_eligible_nf1(ax, onto)]
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
        for cid in _mentioned_classes(ax):
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

    candidate_count = len(
        ranking.eligible_candidates([info.name for info in onto.classes])
    )
    return SplitResult(
        train=rest + train_eligible,
        valid=valid,
        test=test,
        eligible_count=n,
        swaps=swaps,
        candidate_count=candidate_count,
        seed=spec.seed,
        fractions=(spec.train_frac, spec.valid_frac, spec.test_frac),
    )


# --- optimizers ------------------------------------------------------------


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, state: EmbeddingState, grad: GradientAccumulator) -> None:
        state.class_centers -= self.lr * grad.class_centers
        state.class_radii_raw -= self.lr * grad.class_radii_raw
        state.relation_vectors -= self.lr * grad.relation_vectors
        state.relation_sigmas_raw -= self.lr * grad.relation_sigmas_raw


class _Adam:
    def __init__(self, lr: float, state: EmbeddingState,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = GradientAccumulator.zeros_like(state)
        self.v = GradientAccumulator.zeros_like(state)

    def step(self, state: EmbeddingState, grad: GradientAccumulator) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for name in (
            "class_centers",
            "class_radii_raw",
            "relation_vectors",
            "relation_sigmas_raw",
        ):
            g = getattr(grad, name)
            m = getattr(self.m, name)
            v = getattr(self.v, name)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            getattr(state, name)[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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


LOG_COLUMNS = (
    "epoch",
    "total_loss",
    "nf1_loss",
    "nf2_loss",
    "nf3_loss",
    "nf4_loss",
    "disjoint_loss",
    "neg_loss",
    "valid_hits10",
)


def write_log(path, rows: Sequence[LogRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(LOG_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                f"{row.epoch}\t{row.total_loss:.10g}\t{row.nf1_loss:.10g}\t"
                f"{row.nf2_loss:.10g}\t{row.nf3_loss:.10g}\t{row.nf4_loss:.10g}\t"
                f"{row.disjoint_loss:.10g}\t{row.neg_loss:.10g}\t"
                f"{row.valid_hits10:.10g}\n"
            )


@dataclass
class _AxiomArrays:
    """Training axioms regrouped as index arrays, one bucket per shape."""

    nf1: np.ndarray  # [k, 2] columns c, d
    nf2: np.ndarray  # [k, 3] columns c, d, e
    nf3: np.ndarray  # [k, 3] columns c, r, d
    nf4: np.ndarray  # [k, 3] columns r, c, d
    disjoint: np.ndarray  # [k, 2]
    bottom: np.ndarray  # [k]
    offsets: dict

    @staticmethod
    def build(axioms: Sequence[NormalAxiom]) -> "_AxiomArrays":
        buckets: dict = {"nf1": [], "nf2": [], "nf3": [], "nf4": [],
                         "disjoint": [], "bottom": []}
        for ax in axioms:
            if isinstance(ax, NF1):
                buckets["nf1"].append((ax.c, ax.d))
            elif isinstance(ax, NF2):
                buckets["nf2"].append((ax.c, ax.d, ax.e))
            elif isinstance(ax, NF3):
                buckets["nf3"].append((ax.c, ax.r, ax.d))
            elif isinstance(ax, NF4):
                buckets["nf4"].append((ax.r, ax.c, ax.d))
            elif isinstance(ax, Disjoint):
                buckets["disjoint"].append((ax.c, ax.d))
            elif isinstance(ax, BottomSub):
                buckets["bottom"].append(ax.c)
            else:
                raise TypeError(f"not a normal axiom: {ax!r}")
        widths = {"nf1": 2, "nf2": 3, "nf3": 3, "nf4": 3, "disjoint": 2,
                  "bottom": 1}
        as_array = {
            key: np.array(rows, dtype=int).reshape(len(rows), widths[key])
            for key, rows in buckets.items()
        }
        as_array["bottom"] = as_array["bottom"].reshape(-1)
        offsets = {}
        start = 0
        for key in ("nf1", "nf2", "nf3", "nf4", "disjoint", "bottom"):
            count = len(as_array[key])
            offsets[key] = (start, start + count)
            start += count
        return _AxiomArrays(
            nf1=as_array["nf1"],
            nf2=as_array["nf2"],
            nf3=as_array["nf3"],
            nf4=as_array["nf4"],
            disjoint=as_array["disjoint"],
            bottom=as_array["bottom"],
            offsets=offsets,
        )

    @property
    def total(self) -> int:
        return self.offsets["bottom"][1]

    def bucket_of(self, global_idx: np.ndarray):
        """Map shuffled global indices to per-bucket local index arrays."""
        out = {}
        for key, (lo, hi) in self.offsets.items():
            mask = (global_idx >= lo) & (global_idx < hi)
            if mask.any():
                out[key] = global_idx[mask] - lo
        return out


@dataclass
class TrainResult:
    state: EmbeddingState
    log: list[LogRow]
    stopped_epoch: int
    best_hits10: float = float("nan")


def _batch_gradient(
    state: EmbeddingState,
    arrays: _AxiomArrays,
    buckets: dict,
    negatives: Optional[np.ndarray],
    gamma: float,
    variant: Variant,
    acc: GradientAccumulator,
    sigma_reg: float = 1.0,
):
    """Gradient and per-bucket loss sums/counts for one mini-batch slice."""
    sums: dict = {}
    counts: dict = {}

    def record(key, rows, values):
        if not np.isfinite(values).all():
            bad = int(np.nonzero(~np.isfinite(values))[0][0])
            ids = np.atleast_1d(rows[bad]).tolist()
            raise NumericalError(
                f"non-finite {key} loss for axiom with ids {ids}"
            )
        sums[key] = float(values.sum())
        counts[key] = len(values)

    if "nf1" in buckets:
        rows = arrays.nf1[buckets["nf1"]]
        values, _ = gm.nf1_batch(state, rows[:, 0], rows[:, 1], gamma, acc)
        record("nf1", rows, values)
    if "nf2" in buckets:
        rows = arrays.nf2[buckets["nf2"]]
        values, _ = gm.nf2_batch(
            state, rows[:, 0], rows[:, 1], rows[:, 2], gamma, acc)
        record("nf2", rows, values)
    if "nf3" in buckets:
        rows = arrays.nf3[buckets["nf3"]]
        values, _ = gm.nf3_batch(
            state, rows[:, 0], rows[:, 1], rows[:, 2], gamma, variant, acc,
            sigma_reg)
        record("nf3", rows, values)
    if "nf4" in buckets:
        rows = arrays.nf4[buckets["nf4"]]
        values, _ = gm.nf4_batch(
            state, rows[:, 0], rows[:, 1], rows[:, 2], gamma, variant, acc,
            sigma_reg)
        record("nf4", rows, values)
    if "disjoint" in buckets:
        rows = arrays.disjoint[buckets["disjoint"]]
        values, _ = gm.disjoint_batch(state, rows[:, 0], rows[:, 1], gamma, acc)
        record("disjoint", rows, values)
    if "bottom" in buckets:
        rows = arrays.bottom[buckets["bottom"]]
        values, _ = gm.bottom_batch(state, rows, acc)
        record("bottom", rows, values)
    if negatives is not None and len(negatives):
        values, _ = gm.nf3_negative_batch(
            state, negatives[:, 0], negatives[:, 1], negatives[:, 2],
            gamma, variant, acc)
        record("neg", negatives, values)
    return sums, counts


def train(
    onto: NormalizedOntology,
    config: TrainConfig,
    train_axioms: Optional[Sequence[NormalAxiom]] = None,
    valid_nf1: Optional[Sequence[NF1]] = None,
) -> TrainResult:
    """Optimize ball embeddings over the training axioms.

    With a validation list, ranks it every 25 epochs, keeps the best
    checkpoint by Hits@10 and stops once `patience` evaluations pass without
    improvement; otherwise runs all epochs and returns the final state.
    """
    config.validate()
    axioms = list(train_axioms) if train_axioms is not None else list(onto.axioms)
    if not axioms:
        raise ValueError("no training axioms")
    arrays = _AxiomArrays.build(axioms)
    rng = np.random.default_rng(config.seed)
    state = EmbeddingState.initialize(
        len(onto.classes), len(onto.relations), config.dim, rng
    )
    optimizer = (
        _Adam(config.lr, state) if config.optimizer == "adam" else _Sgd(config.lr)
    )
    nominal_ids = np.array(
        [i for i, info in enumerate(onto.classes) if info.is_nominal], dtype=int
    )
    candidates = None
    if valid_nf1:
        candidates = ranking.eligible_candidates(
            [info.name for info in onto.classes]
        )

    pool = None
    if config.threads > 1:
        pool = ThreadPoolExecutor(max_workers=config.threads)

    log: list[LogRow] = []
    best_state = state.copy()
    best_hits = -1.0
    evals_since_best = 0
    stopped_epoch = 0
    num_classes = len(onto.classes)
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(arrays.total)
            epoch_sums: dict = {}
            epoch_counts: dict = {}
            n_batches = math.ceil(arrays.total / config.batch_size)
            for b in range(n_batches):
                batch_idx = order[b * config.batch_size:(b + 1) * config.batch_size]
                buckets = arrays.bucket_of(batch_idx)
                negatives = None
                if config.negatives and "nf3" in buckets and num_classes > 1:
                    rows = arrays.nf3[buckets["nf3"]]
                    # uniform over all classes except the true tail
                    repl = rng.integers(0, num_classes - 1, size=len(rows))
                    corrupted = repl + (repl >= rows[:, 2])
                    negatives = np.column_stack(
                        (rows[:, 0], rows[:, 1], corrupted)
                    )
                include_nominals = b == n_batches - 1 and len(nominal_ids) > 0
                acc = GradientAccumulator.zeros_like(state)
                term_count = len(batch_idx) + (
                    len(negatives) if negatives is not None else 0
                )
                if pool is None or len(batch_idx) < 2 * config.threads:
                    sums, counts = _batch_gradient(
                        state, arrays, buckets, negatives,
                        config.margin, config.variant, acc, config.sigma_reg,
                    )
                else:
                    sums, counts = {}, {}
                    chunks = np.array_split(batch_idx, config.threads)
                    neg_chunks = (
                        np.array_split(negatives, config.threads)
                        if negatives is not None else [None] * config.threads
                    )
                    accs = [GradientAccumulator.zeros_like(state)
                            for _ in chunks]
                    futures = [
                        pool.submit(
                            _batch_gradient, state, arrays,
                            arrays.bucket_of(chunk), neg,
                            config.margin, config.variant, accs[i],
                            config.sigma_reg,
                        )
                        for i, (chunk, neg) in enumerate(zip(chunks, neg_chunks))
                    ]
                    for i, fut in enumerate(futures):
                        part_sums, part_counts = fut.result()
                        acc.add(accs[i])
                        for key, val in part_sums.items():
                            sums[key] = sums.get(key, 0.0) + val
                            counts[key] = counts.get(key, 0) + part_counts[key]
                if include_nominals:
                    values, _ = gm.bottom_batch(state, nominal_ids, acc)
                    sums["nominal"] = float(values.sum())
                    counts["nominal"] = len(values)
                    term_count += len(nominal_ids)
                acc.scale(1.0 / term_count)
                optimizer.step(state, acc)
                if not state.all_finite():
                    raise NumericalError(
                        f"non-finite parameter after epoch {epoch} batch {b}; "
                        f"try a smaller learning rate"
                    )
                for key, val in sums.items():
                    epoch_sums[key] = epoch_sums.get(key, 0.0) + val
                    epoch_counts[key] = epoch_counts.get(key, 0) + counts[key]

            def mean_of(key):
                cnt = epoch_counts.get(key, 0)
                return epoch_sums.get(key, 0.0) / cnt if cnt else 0.0

            total_terms = sum(epoch_counts.values())
            total_loss = sum(epoch_sums.values()) / total_terms if total_terms else 0.0
            hits = float("nan")
            if candidates is not None and (epoch + 1) % VALIDATION_INTERVAL == 0:
                report = ranking.evaluate(list(valid_nf1), state, candidates)
                hits = report.hits10
                if hits > best_hits:
                    best_hits = hits
                    best_state = state.copy()
                    evals_since_best = 0
                else:
                    evals_since_best += 1
            log.append(LogRow(
                epoch=epoch,
                total_loss=total_loss,
                nf1_loss=mean_of("nf1"),
                nf2_loss=mean_of("nf2"),
                nf3_loss=mean_of("nf3"),
                nf4_loss=mean_of("nf4"),
                disjoint_loss=mean_of("disjoint"),
                neg_loss=mean_of("neg"),
                valid_hits10=hits,
            ))
            stopped_epoch = epoch + 1
            if candidates is not None and evals_since_best >= config.patience:
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if candidates is not None and best_hits >= 0.0:
        final_state = best_state
    else:
        final_state = state
    return TrainResult(
        state=final_state,
        log=log,
        stopped_epoch=stopped_epoch,
        best_hits10=best_hits if best_hits >= 0.0 else float("nan"),
    )


def mean_hinge(
    state: EmbeddingState,
    axioms: Sequence[NormalAxiom],
    gamma: float,
    variant: Variant,
    kind=NF3,
) -> float:
    """Mean hinge component over axioms of one shape, for diagnostics."""
    arrays = _AxiomArrays.build([ax for ax in axioms if isinstance(ax, kind)])
    if kind is NF3:
        if not len(arrays.nf3):
            return 0.0
        _, hinges = gm.nf3_batch(
            state, arrays.nf3[:, 0], arrays.nf3[:, 1], arrays.nf3[:, 2],
            gamma, variant,
        )
    elif kind is NF1:
        if not len(arrays.nf1):
            return 0.0
        _, hinges = gm.nf1_batch(
            state, arrays.nf1[:, 0], arrays.nf1[:, 1], gamma
        )
    else:
        raise ValueError("mean_hinge supports NF1 and NF3 shapes")
    return float(hinges.mean())
