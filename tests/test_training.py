import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import make_state, one_term
from reference import config_to_text
from geodl.model import EmbeddingState, GradientAccumulator, Variant, term_batch
from geodl.normalize import NF1, SHAPES, normalize
from geodl.parser import parse_ontology
from geodl.ranking import DIRECTIONS, is_fresh_name, is_nominal_name, unrankable
from geodl.synthetic import random_raw_lines, surrogate_lines
from geodl.training import (
    CONFIG_KEYS,
    NumericalError,
    SplitSpec,
    TrainConfig,
    mean_hinge,
    parse_config,
    _ADAM_BLOCK,
    _Adam,
    split,
    train,
    write_log,
)


def norm_lines(lines):
    axioms, _ = parse_ontology(lines)
    return normalize(axioms)


def chain_lines(n):
    return [f"subClassOf(K{i},K{i + 1})" for i in range(n)]


# --- config ------------------------------------------------------------------


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.dim == 50
    assert cfg.margin == 0.1
    assert cfg.optimizer == "adam"
    assert cfg.epochs == 1000
    assert cfg.batch_size == 512
    assert cfg.negatives
    assert cfg.seed == 42
    assert cfg.patience == 10
    cfg.validate()


def test_config_parse_round_trip():
    cfg = TrainConfig(dim=12, margin=0.2, variant=Variant.EMEL_VAR, lr=0.05,
                      optimizer="sgd", epochs=7, batch_size=3, negatives=False,
                      seed=9, patience=4, sigma_reg=0.25)
    parsed = parse_config(config_to_text(cfg))
    assert parsed == cfg


def test_config_parse_values():
    text = """
    # comment
    dim = 10
    variant = emel-var
    negatives = off
    lr = 0.5
    sigma_reg = 0.25
    """
    cfg = parse_config(text)
    assert cfg.dim == 10
    assert cfg.variant is Variant.EMEL_VAR
    assert not cfg.negatives
    assert cfg.lr == 0.5
    assert cfg.sigma_reg == 0.25


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("learning_rate=1")


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        parse_config("dim=one")
    with pytest.raises(ValueError):
        parse_config("dim=1")  # below minimum
    with pytest.raises(ValueError):
        parse_config("negatives=maybe")
    with pytest.raises(ValueError):
        parse_config("optimizer=lbfgs")


_CONFIG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1e400", "-1e400", "nan", "inf",
                     "-inf", "0.5", "on", "off", "emel-var", "adam", "sgd"]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS + ("threads",)), _CONFIG_VALUES).map(
        "=".join),
    st.text(max_size=12),
)


@given(st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
@example("lr=1e400")
@example("margin=nan")
def test_config_parse_fuzz(text):
    """Any text is either a valid config or a ValueError, never a config
    holding a value training cannot use."""
    try:
        cfg = parse_config(text)
    except ValueError:
        return
    assert math.isfinite(cfg.lr) and cfg.lr > 0.0
    assert math.isfinite(cfg.margin) and cfg.margin >= 0.0
    assert cfg.dim >= 2 and cfg.batch_size >= 1 and cfg.patience >= 1
    assert cfg.epochs >= 0 and cfg.optimizer in ("sgd", "adam")
    assert math.isfinite(cfg.sigma_reg) and cfg.sigma_reg >= 0.0
    assert parse_config(config_to_text(cfg)) == cfg


def test_config_rejects_non_finite_sigma_reg():
    # nan used to pass validate
    for value in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="sigma_reg"):
            TrainConfig(sigma_reg=value).validate()
        with pytest.raises(ValueError, match="sigma_reg"):
            parse_config(f"sigma_reg={value!r}")


# --- split ---------------------------------------------------------------------


def test_split_exact_sizes():
    onto = norm_lines(chain_lines(10))
    result = split(onto, SplitSpec(seed=0))
    assert len(result.test) == 1
    assert len(result.valid) == 2
    assert len(result.train) == 7
    assert result.eligible_count == 10


def test_split_too_few_nf1():
    onto = norm_lines(["subClassOf(A,B)"])
    with pytest.raises(ValueError, match="at least 10"):
        split(onto, SplitSpec())


def test_split_deterministic():
    onto = norm_lines(chain_lines(30))
    a = split(onto, SplitSpec(seed=5))
    b = split(onto, SplitSpec(seed=5))
    assert a.train == b.train
    assert a.valid == b.valid
    assert a.test == b.test


def test_split_is_partition():
    onto = norm_lines(chain_lines(40))
    result = split(onto, SplitSpec(seed=1))
    pieces = result.train + result.valid + result.test
    assert sorted(map(str, pieces)) == sorted(map(str, onto.axioms))


def test_split_valid_test_classes_covered_in_train():
    lines = chain_lines(20) + [
        "subClassOf(K0,some(R,K5))",
        "disjointWith(K3,K9)",
    ]
    onto = norm_lines(lines)
    for seed in range(10):
        result = split(onto, SplitSpec(seed=seed))
        seen = set()
        for ax in result.train:
            from geodl.normalize import class_ids

            seen.update(class_ids(ax))
        for ax in result.valid + result.test:
            assert ax.c in seen and ax.d in seen


def test_split_excludes_fresh_and_nominal_pairs():
    lines = chain_lines(12) + [
        "subClassOf(nominal(x),K0)",
        "subClassOf(and(K1,K2),some(R,K3))",
    ]
    onto = norm_lines(lines)
    result = split(onto, SplitSpec(seed=3))
    for ax in result.valid + result.test:
        for cid in (ax.c, ax.d):
            name = onto.classes[cid]
            assert not is_fresh_name(name) and not is_nominal_name(name)


@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_split_holds_out_exactly_the_rankable_pairs(seed, n_axioms):
    """Over ontologies with helpers and nominals, split's candidate-set test
    and ranking's pair rule agree: the pairs split may hold out are those
    that can be ranked in both directions."""
    onto = norm_lines(random_raw_lines(np.random.default_rng(seed), n_axioms))
    rankable = [ax for ax in onto.axioms if isinstance(ax, NF1) and all(
        unrankable(onto.classes, ax.c, ax.d, d) is None for d in DIRECTIONS)]
    spec = SplitSpec(train_frac=0.4, valid_frac=0.3, test_frac=0.3, seed=seed)
    if len(rankable) < 10:
        with pytest.raises(ValueError, match="at least 10 eligible"):
            split(onto, spec)
        return
    result = split(onto, spec)
    assert result.eligible_count == len(rankable)
    assert all(ax in rankable for ax in result.valid + result.test)


def test_split_non_nf1_always_trains():
    lines = chain_lines(15) + ["disjointWith(K1,K7)", "subClassOf(K2,some(R,K4))"]
    onto = norm_lines(lines)
    result = split(onto, SplitSpec(seed=2))
    from geodl.normalize import NF3, Disjoint

    assert any(isinstance(ax, Disjoint) for ax in result.train)
    assert any(isinstance(ax, NF3) for ax in result.train)
    assert all(isinstance(ax, NF1) for ax in result.valid + result.test)


# --- training -------------------------------------------------------------------


def tiny_config(**overrides):
    defaults = dict(dim=4, epochs=50, batch_size=16, seed=1, margin=0.1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_zero_epochs_returns_initialization():
    onto = norm_lines(["subClassOf(A,B)"])
    cfg = tiny_config(epochs=0)
    result = train(onto, cfg)
    from geodl.model import EmbeddingState

    rng = np.random.default_rng(cfg.seed)
    init = EmbeddingState.initialize(
        len(onto.classes), len(onto.relations), cfg.dim, rng
    )
    assert np.array_equal(result.state.class_centers, init.class_centers)
    assert np.array_equal(result.state.class_radii_raw, init.class_radii_raw)
    assert result.log == []


def test_toy_nf1_converges():
    # constant-step methods floor out near the learning rate on the
    # absolute-value penalties, so converge with a small one
    onto = norm_lines(["subClassOf(A,B)"])
    cfg = tiny_config(epochs=3000, margin=0.0, negatives=False, lr=0.001)
    result = train(onto, cfg)
    assert one_term("nf1", result.state, (0, 1), 0.0).value < 1e-3


def test_training_is_bit_deterministic():
    onto = norm_lines(
        ["subClassOf(A,B)", "subClassOf(B,C)", "subClassOf(A,some(R,C))",
         "disjointWith(A,C)"]
    )
    cfg = tiny_config(epochs=30, variant=Variant.EMEL_VAR)
    a = train(onto, cfg)
    b = train(onto, cfg)
    assert np.array_equal(a.state.class_centers, b.state.class_centers)
    assert np.array_equal(a.state.class_radii_raw, b.state.class_radii_raw)
    assert np.array_equal(a.state.relation_vectors, b.state.relation_vectors)
    assert np.array_equal(a.state.relation_sigmas_raw, b.state.relation_sigmas_raw)


def test_parameters_finite_and_effective_values_nonnegative():
    onto = norm_lines(
        ["subClassOf(A,B)", "subClassOf(A,some(R,C))", "subClassOf(C,bottom)",
         "subClassOf(nominal(x),B)"]
    )
    cfg = tiny_config(epochs=100, variant=Variant.EMEL_VAR)
    result = train(onto, cfg)
    assert result.state.all_finite()
    assert (np.abs(result.state.class_radii_raw) >= 0).all()
    assert (np.abs(result.state.relation_sigmas_raw) >= 0).all()


def test_loss_mostly_non_increasing():
    onto = norm_lines(
        ["subClassOf(A,B)", "subClassOf(B,C)", "subClassOf(D,B)",
         "disjointWith(A,D)"]
    )
    cfg = tiny_config(epochs=100, negatives=False)
    result = train(onto, cfg)
    totals = [row.total_loss for row in result.log]
    drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a + 1e-9)
    assert drops / (len(totals) - 1) >= 0.9


def test_nominal_radius_shrinks():
    onto = norm_lines(["subClassOf(nominal(x),B)", "subClassOf(A,B)"])
    nominal_id = onto.class_index["nominal(x)"]
    cfg = tiny_config(epochs=400, negatives=False)
    result = train(onto, cfg)
    # initialization sets every raw radius to 0.1; the point class shrinks
    assert abs(result.state.class_radii_raw[nominal_id]) < 0.02
    other = onto.class_index["B"]
    assert abs(result.state.class_radii_raw[nominal_id]) < abs(
        result.state.class_radii_raw[other]
    )


def test_validation_early_stopping_and_best_checkpoint():
    onto = norm_lines(chain_lines(30))
    result_split = split(onto, SplitSpec(seed=0))
    cfg = tiny_config(epochs=600, patience=2)
    result = train(onto, cfg, train_axioms=result_split.train,
                   valid_nf1=result_split.valid)
    assert result.stopped_epoch <= 600
    evaluated = [row for row in result.log if not np.isnan(row.valid_hits10)]
    assert evaluated, "validation should run every 25 epochs"
    assert result.best_hits10 == max(row.valid_hits10 for row in evaluated)


@pytest.mark.parametrize("pair, message", [
    (("__nf_0", "B"), "'__nf_0' is a normalization helper or a nominal"),
    (("nominal(x)", "B"), "'nominal(x)' is a normalization helper or a nominal"),
    (("A", "A"), "never ranked against itself"),
], ids=["helper", "nominal", "same_class"])
def test_unrankable_validation_pair_raises_before_training(pair, message):
    """A validation pair the ranking would refuse raises before the first
    epoch, naming its classes, not at the first validation pass."""
    onto = norm_lines(["subClassOf(A,some(R,and(B,C)))",
                       "subClassOf(nominal(x),B)"])
    assert "__nf_0" in onto.classes
    c, d = (onto.class_index[name] for name in pair)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(onto, tiny_config(epochs=0), valid_nf1=[NF1(c, d)])


@pytest.mark.parametrize("c", [-1, 2])
def test_validation_pair_outside_the_class_table_raises(c):
    onto = norm_lines(["subClassOf(A,B)"])
    with pytest.raises(ValueError, match=re.escape("outside [0, 2)")):
        train(onto, tiny_config(epochs=0), valid_nf1=[NF1(c, 1)])


def test_non_finite_loss_aborts_with_diagnostic():
    onto = norm_lines(["subClassOf(A,B)"])
    cfg = tiny_config(epochs=5)
    arrays_backup = onto.axioms
    result = train(onto, cfg)  # sanity: normal run works
    assert result.state.all_finite()

    # poison the initial state through an absurd learning rate on sgd
    cfg_bad = tiny_config(epochs=50, optimizer="sgd", lr=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            train(onto, cfg_bad)
    assert onto.axioms is arrays_backup


def test_log_columns_written(tmp_path):
    onto = norm_lines(chain_lines(12))
    cfg = tiny_config(epochs=3)
    result = train(onto, cfg)
    path = tmp_path / "log.tsv"
    write_log(path, result.log)
    lines = path.read_text().splitlines()
    assert lines[0] == ("epoch\ttotal_loss\tnf1_loss\tnf2_loss\tnf3_loss\t"
                        "nf4_loss\tdisjoint_loss\tneg_loss\tvalid_hits10")
    assert len(lines) == 4


def test_mean_hinge_reports_nf3_component():
    onto = norm_lines(["subClassOf(A,some(R,B))", "subClassOf(A,B)"])
    cfg = tiny_config(epochs=1)
    result = train(onto, cfg)
    value = mean_hinge(result.state, onto.axioms, cfg.margin, cfg.variant)
    assert value >= 0.0


# --- optimizer -------------------------------------------------------------------

BLOCKS = ("class_centers", "class_radii_raw", "relation_vectors",
          "relation_sigmas_raw")


def test_adam_in_place_matches_textbook_per_block(rng):
    state = make_state(rng, num_classes=5, num_relations=3, dim=4)
    start = {name: getattr(state, name).ravel().tolist() for name in BLOCKS}
    steps = []
    for scale in (1.0, 1e-3, 50.0, 0.0, 1.0):
        grad = GradientAccumulator.zeros_like(state)
        grad.flat[...] = scale * rng.normal(size=grad.flat.size)
        steps.append(grad)
    optimizer = _Adam(0.05, state)
    for grad in steps:
        optimizer.step(state, grad)
    for name in BLOCKS:
        expected = oracles.adam(
            start[name], [getattr(g, name).ravel().tolist() for g in steps],
            lr=0.05)
        assert np.array_equal(getattr(state, name).ravel(), expected), name


def test_blocked_adam_matches_textbook_across_blocks(rng):
    """A buffer of two full Adam slices and a partial third: every slice
    boundary leaves the per-element arithmetic unchanged."""
    size = 2 * _ADAM_BLOCK + 3
    # one class of width size - 3, one relation of width 1
    state = EmbeddingState(rng.normal(size=(1, size - 3)), rng.normal(size=1),
                           rng.normal(size=(1, 1)), rng.normal(size=1))
    assert state.flat.size == size
    start = state.flat.tolist()
    steps = [scale * rng.normal(size=size) for scale in (1.0, 1e-3, 0.0)]
    optimizer = _Adam(0.05, state)
    for g in steps:
        grad = GradientAccumulator.zeros_like(state)
        grad.flat[...] = g
        optimizer.step(state, grad)
    expected = oracles.adam(start, [g.tolist() for g in steps], lr=0.05)
    assert np.array_equal(state.flat, expected)


# --- epoch time, shown in the benchmark table of every test run ---------------


def test_bench_train_epochs_2k(benchmark):
    """Three EmElVar epochs over the training part of the seeded 2000-class
    surrogate: the loss kernels, the scatter-add and the Adam step."""
    onto = norm_lines(surrogate_lines(seed=0))
    parts = split(onto, SplitSpec(seed=0))
    cfg = TrainConfig(variant=Variant.EMEL_VAR, epochs=3, seed=0)
    result = benchmark.pedantic(
        train, args=(onto, cfg), kwargs={"train_axioms": parts.train},
        rounds=3, iterations=1,
    )
    assert len(result.log) == 3
    assert result.state.all_finite()


def test_bench_optimizer_step_2k(benchmark, rng):
    """One Adam step over 2000 classes and 10 relations at dim 50."""
    state = make_state(rng, num_classes=2000, num_relations=10, dim=50)
    grad = GradientAccumulator.zeros_like(state)
    grad.flat[...] = rng.normal(size=grad.flat.size)
    optimizer = _Adam(0.01, state)
    benchmark.pedantic(optimizer.step, args=(state, grad), rounds=50,
                       iterations=1)
    assert optimizer.t >= 1
    assert state.all_finite()


# the ball-kernel terms of one train-2k batch (512 axioms, EmElVar)
KERNEL_MIX_2K = {"nf1": 349, "nf3": 153, "nf3_negative": 153, "disjoint": 7,
                 "nf2": 2, "nf4": 1}


def test_bench_kernel_batch_2k(benchmark, rng):
    """One batch of the train-2k kernel mix through ``term_batch`` over 2000
    classes and 10 relations at dim 50, gradients into one accumulator."""
    state = EmbeddingState.initialize(2000, 10, 50, rng)
    shapes = {shape.key: shape for shape in SHAPES.values()}
    shapes["nf3_negative"] = shapes["nf3"]
    columns = {
        key: tuple(rng.integers(0, 10 if f in shapes[key].relations else 2000,
                                size=rows)
                   for f in shapes[key].fields)
        for key, rows in KERNEL_MIX_2K.items()}
    acc = GradientAccumulator.zeros_like(state)

    def batch():
        acc.flat.fill(0.0)
        return [term_batch(key, state, ids, 0.1, Variant.EMEL_VAR, acc)[0]
                for key, ids in columns.items()]

    values = benchmark.pedantic(batch, rounds=50, iterations=1)
    assert [len(v) for v in values] == list(KERNEL_MIX_2K.values())
    assert all(np.isfinite(v).all() for v in values)
    assert np.isfinite(acc.flat).all()
