import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import make_state, one_term
import reference
from reference import config_to_text, mean_hinge
from geodl.baselines import extract_triples, initialize_baseline, train_baseline
from geodl.model import (
    EmbeddingState,
    GradientAccumulator,
    Variant,
    batch_terms,
)
from geodl.normalize import NF1, NF2, NF3, SHAPES, normalize
from geodl.parser import parse_ontology
from geodl.ranking import DIRECTIONS, is_fresh_name, is_nominal_name, unrankable
from geodl.synthetic import random_raw_lines, surrogate_lines
from geodl import training
from geodl.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    CONFIG_KEYS,
    NumericalError,
    SplitSpec,
    TrainConfig,
    parse_config,
    _ADAM_BLOCK,
    _Adam,
    _AxiomArrays,
    _batch_gradient,
    _fit,
    _Sgd,
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


@pytest.mark.parametrize("text, message", [
    ("epochs=5\nepochs=10", "config line 2: key 'epochs' repeated (first on line 1)"),
    ("variant=emel\n# comment\n\n variant = emel-var",
     "config line 4: key 'variant' repeated (first on line 1)"),
    ("dim=4\nlr=0.1\ndim=4", "config line 3: key 'dim' repeated (first on line 1)"),
], ids=["epochs", "variant", "dim"])
def test_config_rejects_a_repeated_key(text, message):
    """The last value used to win, even where the two lines disagree."""
    with pytest.raises(ValueError) as caught:
        parse_config(text)
    assert str(caught.value) == message


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


def test_split_shrinks_when_no_replacement_is_safe():
    """Each X_i occurs in one axiom only, so a held-out pair leaves its
    subclass out of training and no training pair could replace it: every
    held-out pair goes back to training, and valid and test come back
    empty."""
    onto = norm_lines([f"subClassOf(X{i},Y)" for i in range(12)])
    result = split(onto, SplitSpec(seed=0))
    assert result.valid == [] and result.test == []
    assert result.swaps == 3
    assert sorted(map(str, result.train)) == sorted(map(str, onto.axioms))


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


_SURROGATE_200 = norm_lines(surrogate_lines(200, seed=0))


def _split_input(shape, seed, size):
    """A normalized ontology of *shape*: ``random_raw_lines`` (helpers,
    nominals, few mentions per class, so that pairs are swapped), the
    200-class surrogate, or a star of ``X_i`` under a few hubs where only
    every third ``X_i`` has a second superclass (so that parts shrink)."""
    if shape == "random":
        return norm_lines(random_raw_lines(np.random.default_rng(seed), size))
    if shape == "surrogate":
        return _SURROGATE_200
    hubs = 1 + seed % 4
    return norm_lines([f"subClassOf(X{i},Y{i % hubs})" for i in range(size)]
                      + [f"subClassOf(X{i},Z)" for i in range(0, size, 3)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["random", "surrogate", "star"]),
       st.integers(0, 2**32 - 1), st.integers(8, 120), st.integers(0, 45),
       st.integers(0, 45))
def test_split_matches_the_plain_oracle(shape, seed, size, test_pct,
                                        valid_pct):
    """``split`` against ``oracles.split`` across ontology shapes, seeds and
    fractions: the same parts in the same order and the same counts, or
    both too few pairs to split."""
    onto = _split_input(shape, seed, size)
    spec = SplitSpec(train_frac=1 - (test_pct + valid_pct) / 100,
                     valid_frac=valid_pct / 100, test_frac=test_pct / 100,
                     seed=seed)
    plain = [(type(ax) is NF1, tuple(getattr(ax, f.name)
                                     for f in dataclasses.fields(ax)
                                     if f.name != "r"))
             for ax in onto.axioms]
    try:
        want = oracles.split(plain, onto.classes, seed, spec.valid_frac,
                             spec.test_frac)
    except ValueError:
        with pytest.raises(ValueError, match="at least 10 eligible"):
            split(onto, spec)
        return
    train_ids, valid_ids, test_ids, swaps, eligible, candidates = want
    got = split(onto, spec)
    assert got.train == [onto.axioms[i] for i in train_ids]
    assert got.valid == [onto.axioms[i] for i in valid_ids]
    assert got.test == [onto.axioms[i] for i in test_ids]
    assert (got.swaps, got.eligible_count, got.candidate_count) == (
        swaps, eligible, candidates)


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
    result = train(dataclasses.replace(onto, axioms=result_split.train), cfg,
                   valid_nf1=result_split.valid)
    assert result.stopped_epoch <= 600
    evaluated = [row for row in result.log if not np.isnan(row.valid_hits10)]
    assert evaluated, "validation should run every 25 epochs"
    assert result.best_hits10 == max(row.valid_hits10 for row in evaluated)


# --- the loop's rules, checked by behaviour rather than by pinned bytes -------


def spy_on_batches(monkeypatch):
    """The arguments of every ``_batch_gradient`` call ``train`` makes."""
    calls = []
    real = training._batch_gradient

    def spy(state, rows, negatives, nominals, *args):
        calls.append((rows, negatives, nominals))
        return real(state, rows, negatives, nominals, *args)

    monkeypatch.setattr(training, "_batch_gradient", spy)
    return calls


def test_no_corrupted_tail_equals_its_positive_tail(monkeypatch):
    """A negative keeps its nf3 axiom's head and role and takes another
    class as tail, never the true one: on three classes a draw without the
    skip would hit it about every other time."""
    calls = spy_on_batches(monkeypatch)
    onto = norm_lines(["subClassOf(A,some(R,B))", "subClassOf(B,some(R,C))",
                       "subClassOf(C,some(R,A))"])
    train(onto, tiny_config(epochs=30, batch_size=2))
    assert len(calls) == 60
    for rows, negatives, _ in calls:
        positives = rows["nf3"]
        assert np.array_equal(negatives[:, :2], positives[:, :2])
        assert (negatives[:, 2] != positives[:, 2]).all()
        assert ((negatives[:, 2] >= 0) & (negatives[:, 2] < 3)).all()


def test_nominal_term_enters_only_on_each_epochs_last_batch(monkeypatch):
    calls = spy_on_batches(monkeypatch)
    onto = norm_lines(["subClassOf(nominal(x),B)", "subClassOf(A,B)",
                       "subClassOf(B,C)", "subClassOf(C,nominal(y))",
                       "subClassOf(D,E)"])
    nominal_ids = [onto.class_index[n] for n in ("nominal(x)", "nominal(y)")]
    train(onto, tiny_config(epochs=3, batch_size=2))  # 3 batches an epoch
    assert [nominals is not None for _, _, nominals in calls] == [
        False, False, True] * 3
    for _, _, nominals in calls[2::3]:
        assert nominals.ravel().tolist() == nominal_ids


def test_validation_runs_on_every_25th_epoch_only():
    """valid_hits10 is a number on epochs 25, 50, ... (counted from 1), the
    interval the README states, and nan on every other epoch."""
    onto = norm_lines(chain_lines(30))
    parts = split(onto, SplitSpec(seed=0))
    result = train(dataclasses.replace(onto, axioms=parts.train),
                   tiny_config(epochs=110, patience=100), valid_nf1=parts.valid)
    assert len(result.log) == 110
    assert [row.epoch + 1 for row in result.log
            if not math.isnan(row.valid_hits10)] == [25, 50, 75, 100]


@pytest.mark.parametrize("hits, patience, evaluations", [
    ([0.5, 0.4, 0.4, 0.4, 0.4], 1, 2),
    ([0.5, 0.4, 0.4, 0.4, 0.4], 3, 4),
    ([0.5, 0.5, 0.5, 0.5], 2, 3),  # a tie is no improvement
    ([0.1, 0.2, 0.1, 0.3, 0.2, 0.2, 0.9, 0.9], 2, 6),
])
def test_training_stops_after_exactly_patience_evaluations_without_gain(
        rng, hits, patience, evaluations):
    """With scripted validation scores, the loop stops on the evaluation
    that makes *patience* in a row without a new best, and returns the
    best checkpoint."""
    state = make_state(rng)
    scores = iter(hits)
    snapshots = []

    def batch(idx, last, grad):
        grad.flat += 1.0
        return {"nf1": 1.0}, {"nf1": len(idx)}, 1.0

    def valid(state):
        snapshots.append(state.flat.copy())
        return next(scores)

    result = _fit(tiny_config(epochs=25 * len(hits), patience=patience), rng,
                  state, 4, batch, _Sgd(0.01).step, valid)
    assert len(result.log) == 25 * evaluations
    assert [row.valid_hits10 for row in result.log
            if not math.isnan(row.valid_hits10)] == hits[:evaluations]
    best = max(range(evaluations), key=lambda i: (hits[i], -i))
    assert np.array_equal(result.state.flat, snapshots[best])


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
    with pytest.raises(NumericalError,  # and no numpy warning leaks
                       match=r" in epoch \d+ batch \d+; try a smaller "
                             r"learning rate$"):
        train(onto, cfg_bad)
    assert onto.axioms is arrays_backup


def test_overflowing_loss_sum_raises_the_loop_message(monkeypatch):
    """Two finite nf1 terms near the largest float sum to infinity: the
    batch stops with the loop's message, which names no axiom because no
    term is at fault, and, as no step has run, not the learning rate."""
    onto = norm_lines(["subClassOf(A,B)", "subClassOf(A,C)"])
    assert not onto.relations
    centers = np.zeros((len(onto.classes), 4))
    centers[:, 0] = 1.0
    radii = np.zeros(len(onto.classes))
    radii[onto.class_index["A"]] = 1e308
    state = EmbeddingState(centers, radii, np.zeros((0, 4)), np.zeros(0))
    monkeypatch.setattr(EmbeddingState, "initialize",
                        staticmethod(lambda *args: state))
    with pytest.raises(NumericalError) as raised:
        train(onto, tiny_config())
    assert str(raised.value) == ("non-finite nf1 loss in epoch 0 batch 0; "
                                 "no step has run: check the margin and "
                                 "the initial parameters")


def test_fit_hands_every_batch_a_zeroed_gradient(rng):
    """The loop zeroes the gradient before each batch, whether or not the
    previous batch stepped: 5 terms in batches of 2 make 3 batches per
    epoch, and the middle one returns scale None (no step)."""
    state = make_state(rng)
    start = state.flat.copy()
    calls = []

    def batch(idx, last, grad):
        assert not grad.flat.any()
        grad.flat += rng.normal(size=grad.flat.size)
        calls.append(last)
        scale = None if len(calls) % 3 == 2 else 1.0 / len(idx)
        return {"nf1": 1.0}, {"nf1": len(idx)}, scale

    result = _fit(tiny_config(epochs=2, batch_size=2), rng, state, 5, batch,
                  _Adam(0.01, state).step)
    assert calls == [False, False, True] * 2
    assert len(result.log) == 2
    assert not np.array_equal(state.flat, start)


@pytest.mark.parametrize("kind", ["ball", "transh"])
def test_fit_refuses_a_non_finite_parameter_after_a_step(rng, kind):
    """A finite gradient that the SGD step overflows leaves an infinite
    parameter: the loop stops right after that step, naming the epoch, the
    batch and the advice."""
    state = (make_state(rng) if kind == "ball"
             else initialize_baseline(kind, 3, 2, 4, rng))

    def batch(idx, last, grad):
        grad.flat[0] = 1e300
        return {"nf1": 1.0}, {"nf1": len(idx)}, 1.0

    with pytest.raises(NumericalError) as raised:
        _fit(tiny_config(), rng, state, 4, batch, _Sgd(1e10).step)
    assert str(raised.value) == ("non-finite parameter after epoch 0 batch 0; "
                                 "try a smaller learning rate")


@given(st.lists(st.integers(0, 30), min_size=len(SHAPES),
                max_size=len(SHAPES)),
       st.integers(1, 40), st.integers(0, 2**32 - 1))
@example([0, 0, 0, 25, 0, 0], 8, 0)  # every batch from one bucket
@example([3, 0, 5, 0, 0, 2], 4, 1)  # empty buckets, a short last batch
def test_bucket_of_matches_the_mask_reference(sizes, batch_size, seed):
    """Each shuffled batch splits into the same buckets, in SHAPES order,
    each with the same local indices in the same order, as one mask per
    bucket gives."""
    axioms = [kind(**dict.fromkeys(shape.fields, 0))
              for (kind, shape), size in zip(SHAPES.items(), sizes)
              for _ in range(size)]
    arrays = _AxiomArrays.build(axioms, 1, 1)
    offsets, lo = {}, 0  # each bucket's [lo, hi) in the global index
    for key, size in zip(arrays.rows, sizes):
        offsets[key] = (lo, lo + size)
        lo += size
    order = np.random.default_rng(seed).permutation(arrays.total)
    for start in range(0, len(order), batch_size):  # the last may be short
        idx = order[start:start + batch_size]
        got = arrays.bucket_of(idx)
        want = reference.bucket_of(offsets, idx)
        assert list(got) == list(want)
        for key, local in want.items():
            assert got[key].dtype == local.dtype
            assert got[key].tolist() == local.tolist()


# finite parameters with repeated values and both zeros, so that coincident
# centers, zero radii and slacks, unit norms and the addition order show in
# the output bytes
BALL_PARAMS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.1]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


def ball_batch(state, axioms, order, negatives, nominals):
    """The arguments ``_batch_gradient`` takes for the batch of *axioms*
    picked by the global indices *order* (their id rows, per shape key, as
    training gathers them), plus the negatives and the nominal term, each a
    list of id rows or None."""
    arrays = _AxiomArrays.build(axioms, state.num_classes, state.num_relations)
    batch_rows = {key: arrays.rows[key][local] for key, local
                  in arrays.bucket_of(np.array(order, dtype=int)).items()}
    extra = [None if rows is None else np.array(rows, dtype=int).reshape(
        len(rows), width) for rows, width in ((negatives, 3), (nominals, 1))]
    return (state, batch_rows, *extra)


@st.composite
def ball_batches(draw):
    classes = draw(st.integers(1, 5))
    relations = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))

    def block(*shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(BALL_PARAMS, min_size=size,
                                      max_size=size))).reshape(shape)

    state = EmbeddingState(block(classes, dim), block(classes),
                           block(relations, dim), block(relations))
    ids = {False: st.integers(0, classes - 1),
           True: st.integers(0, relations - 1)}
    axioms = [kind(**{f: draw(ids[f in shape.relations]) for f in shape.fields})
              for kind, shape in SHAPES.items()
              for _ in range(draw(st.integers(0, 4)))]
    order = draw(st.permutations(range(len(axioms))))
    order = order[:draw(st.integers(0, len(order)))]
    negatives = draw(st.none() | st.lists(
        st.tuples(ids[False], ids[True], ids[False]), min_size=1, max_size=4))
    nominals = draw(st.none() | st.lists(
        st.tuples(ids[False]), min_size=1, max_size=3))
    return ball_batch(state, axioms, order, negatives, nominals)


def reference_batch(state, batch_rows, negatives, nominals, gamma, variant,
                    sigma_reg):
    """The per-term kernels of ``reference`` in term order onto a zeroed
    accumulator: per-key sums and counts, the accumulator, and each term's
    values and hinges."""
    acc = GradientAccumulator.zeros_like(state)
    terms = [(key, key, rows) for key, rows in batch_rows.items()]
    terms += [("neg", "nf3_negative", negatives), ("nominal", "bottom", nominals)]
    sums, counts, outputs = {}, {}, []
    for key, kernel, rows in terms:
        if rows is None or not len(rows):
            continue
        values, hinges = reference.kernel(kernel, state, rows.T, gamma,
                                          variant, acc, sigma_reg)
        sums[key] = float(values.sum())
        counts[key] = len(values)
        outputs.append((kernel, rows, values, hinges))
    return sums, counts, acc, outputs


# class 0 is nf1's D, nf2's C, one nf3's C and another's D, one negative's
# C and another's D, and a nominal: its cells receive contributions from
# several terms, in an order that the one scatter per block must keep
SHARED_CLASS_BATCH = ball_batch(
    make_state(np.random.default_rng(3), num_classes=3, num_relations=2,
               dim=3),
    [NF1(1, 0), NF2(0, 1, 2), NF3(0, 1, 1), NF3(2, 0, 0)], [0, 1, 2, 3],
    [(0, 1, 1), (1, 1, 0)], [(0,), (2,)])


@given(ball_batches(), st.sampled_from([Variant.EMEL, Variant.EMEL_VAR]),
       st.sampled_from([1.0, 0.25]), st.sampled_from([0.0, 0.1]),
       st.randoms(use_true_random=False))
@example(SHARED_CLASS_BATCH, Variant.EMEL_VAR, 0.25, 0.1, random.Random(0))
@example(SHARED_CLASS_BATCH, Variant.EMEL, 1.0, 0.0, random.Random(1))
def test_batch_gradient_matches_the_per_term_kernels(batch, variant,
                                                     sigma_reg, gamma, rng):
    """One stacked pass gives, byte for byte, what one kernel call per term
    in term order gave onto a zeroed accumulator: the per-key sums and
    counts, every gradient cell, and each term's values and hinges.  The
    same holds for the batch's terms in an order drawn with *rng*, with one
    term of at least two rows split in two, so that keys repeat and shifted
    terms sit between the others."""
    state, batch_rows, negatives, nominals = batch
    want_sums, want_counts, want_acc, outputs = reference_batch(
        state, batch_rows, negatives, nominals, gamma, variant, sigma_reg)
    acc = GradientAccumulator.zeros_like(state)
    sums, counts = _batch_gradient(state, batch_rows, negatives, nominals,
                                   gamma, variant, acc, sigma_reg)
    assert sums == want_sums
    assert counts == want_counts
    assert acc.flat.tobytes() == want_acc.flat.tobytes()
    got = batch_terms(state, [(kernel, rows.T) for kernel, rows, *_ in outputs],
                      gamma, variant, None, sigma_reg)
    for (values, hinges), (_, _, want_values, want_hinges) in zip(got, outputs):
        assert values.tobytes() == want_values.tobytes()
        assert hinges.tobytes() == want_hinges.tobytes()

    terms = [(kernel, rows) for kernel, rows, *_ in outputs]
    long = [i for i, (_, rows) in enumerate(terms) if len(rows) > 1]
    if long:
        i = rng.choice(long)
        kernel, rows = terms[i]
        cut = rng.randrange(1, len(rows))
        terms[i:i + 1] = [(kernel, rows[:cut]), (kernel, rows[cut:])]
    rng.shuffle(terms)
    acc = GradientAccumulator.zeros_like(state)
    want_acc = GradientAccumulator.zeros_like(state)
    got = batch_terms(state, [(kernel, rows.T) for kernel, rows in terms],
                      gamma, variant, acc, sigma_reg)
    for (kernel, rows), (values, hinges) in zip(terms, got):
        want_values, want_hinges = reference.kernel(
            kernel, state, rows.T, gamma, variant, want_acc, sigma_reg)
        assert values.tobytes() == want_values.tobytes()
        assert hinges.tobytes() == want_hinges.tobytes()
    assert acc.flat.tobytes() == want_acc.flat.tobytes()


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
        scratch = GradientAccumulator.zeros_like(state)
        scratch.flat[...] = grad.flat  # the step leaves its gradient as scratch
        optimizer.step(state, scratch)
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


def test_adam_zero_gradient_cells_only_decay_their_moments(rng):
    """Cells whose gradient is +0.0 or -0.0 get exactly ``b1*m`` and
    ``b2*v``, and no step leaves a -0.0 in ``m`` or ``v``: the moment
    updates of an untouched row are the decay alone."""
    state = make_state(rng, num_classes=40, num_relations=4, dim=5)
    optimizer = _Adam(0.05, state)
    for step in range(6):
        grad = GradientAccumulator.zeros_like(state)
        grad.flat[...] = rng.normal(size=grad.flat.size)
        rows = rng.choice(40, size=24, replace=False)
        for sign, half in ((0.0, rows[:12]), (-0.0, rows[12:])):
            grad.class_centers[half] = sign
            grad.class_radii_raw[half] = sign
        grad.relation_vectors[step % 4] = -0.0
        zero = grad.flat == 0.0
        assert zero.sum() == 24 * 6 + 5
        decayed_m = ADAM_BETA1 * optimizer.m[zero]
        decayed_v = ADAM_BETA2 * optimizer.v[zero]
        optimizer.step(state, grad)
        for moment, decayed in ((optimizer.m, decayed_m), (optimizer.v, decayed_v)):
            assert np.array_equal(moment[zero].view(np.uint64),
                                  decayed.view(np.uint64)), step
            assert not np.any(np.signbit(moment) & (moment == 0.0)), step


def test_sgd_step_is_in_place_and_textbook(rng):
    """One SGD step on a 2000 x 50 state allocates nothing parameter-sized
    (a ``lr * g`` temporary peaked at 1.0x the parameter bytes) and gives
    ``x - lr*g`` bit for bit."""
    state = make_state(rng, num_classes=2000, num_relations=10, dim=50)
    grad = GradientAccumulator.zeros_like(state)
    grad.flat[...] = rng.normal(size=grad.flat.size)
    expected = state.flat - 0.05 * grad.flat
    step = _Sgd(0.05).step
    tracemalloc.start()
    try:
        step(state, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * state.flat.nbytes, peak / state.flat.nbytes
    assert np.array_equal(state.flat, expected)


# --- epoch time, shown in the benchmark table of every test run ---------------


def test_bench_train_epochs_2k(benchmark):
    """Three EmElVar epochs over the training part of the seeded 2000-class
    surrogate: the loss kernels, the scatter-add and the Adam step."""
    onto = norm_lines(surrogate_lines(seed=0))
    parts = split(onto, SplitSpec(seed=0))
    cfg = TrainConfig(variant=Variant.EMEL_VAR, epochs=3, seed=0)
    result = benchmark.pedantic(
        train, args=(dataclasses.replace(onto, axioms=parts.train), cfg),
        rounds=3, iterations=1,
    )
    assert len(result.log) == 3
    assert result.state.all_finite()


@pytest.mark.parametrize("model, bound", [("ball", 7.3), ("transh", 5.5)])
def test_one_2k_epoch_peaks_below_its_bound(model, bound):
    """The traced peak of one epoch over the 2000-class surrogate, as a
    multiple of the parameter bytes: EmElVar with Adam, or TransH with SGD.
    An int64 offset table per scattered row block (about 1x the parameters)
    and a second Adam scratch slice made the peaks about 8.0x and 6.1x; the
    scatter now derives each offset, and they are about 6.6x and 4.8x."""
    onto = norm_lines(surrogate_lines(seed=0))
    cfg = TrainConfig(variant=Variant.EMEL_VAR, epochs=1, seed=0)
    tracemalloc.start()
    try:
        if model == "ball":
            state = train(onto, cfg).state
        else:
            state = train_baseline(
                model, extract_triples(onto), len(onto.classes),
                len(onto.relations) + 1, cfg).state
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * state.flat.nbytes, peak / state.flat.nbytes


def test_bench_optimizer_step_2k(benchmark, rng):
    """One Adam step over 2000 classes and 10 relations at dim 50."""
    state = make_state(rng, num_classes=2000, num_relations=10, dim=50)
    grad = GradientAccumulator.zeros_like(state)
    values = rng.normal(size=grad.flat.size)
    optimizer = _Adam(0.01, state)

    def refill():  # the step leaves its gradient as scratch
        grad.flat[...] = values
        return (state, grad), {}

    benchmark.pedantic(optimizer.step, setup=refill, rounds=50, iterations=1)
    assert optimizer.t >= 1
    assert state.all_finite()


# the terms of one train-2k batch (512 axioms, EmElVar) by shape, and the
# negatives drawn for its nf3 terms
KERNEL_MIX_2K = {"nf1": 349, "nf2": 2, "nf3": 153, "nf4": 1, "disjoint": 7}


def test_bench_kernel_batch_2k(benchmark, rng):
    """One ``_batch_gradient`` over the train-2k mix of one batch, its nf3
    negatives included, over 2000 classes and 10 relations at dim 50, onto
    a zeroed accumulator."""
    state = EmbeddingState.initialize(2000, 10, 50, rng)
    axioms = [kind(**{f: int(rng.integers(0, 10 if f in shape.relations
                                          else 2000))
                      for f in shape.fields})
              for kind, shape in SHAPES.items()
              for _ in range(KERNEL_MIX_2K.get(shape.key, 0))]
    arrays = _AxiomArrays.build(axioms, 2000, 10)
    batch_rows = {key: arrays.rows[key][local] for key, local
                  in arrays.bucket_of(rng.permutation(arrays.total)).items()}
    nf3 = batch_rows["nf3"]  # in batch order, as training
    negatives = np.column_stack((nf3[:, :2], rng.integers(0, 2000, len(nf3))))
    acc = GradientAccumulator.zeros_like(state)

    def batch():
        acc.flat.fill(0.0)
        return _batch_gradient(state, batch_rows, negatives, None, 0.1,
                               Variant.EMEL_VAR, acc)

    sums, counts = benchmark.pedantic(batch, rounds=50, iterations=1)
    assert counts == {**KERNEL_MIX_2K, "neg": len(nf3)}
    assert all(math.isfinite(total) for total in sums.values())
    assert np.isfinite(acc.flat).all()


@pytest.mark.parametrize("key", ["nf1", "nf2", "nf3"])
def test_bench_kernel_one_row_2k(benchmark, rng, key):
    """One single-row call of a kernel through ``batch_terms`` over 2000
    classes and 10 relations at dim 50, gradients into one accumulator:
    the fixed cost each kernel call pays before its rows."""
    state = EmbeddingState.initialize(2000, 10, 50, rng)
    shape = next(s for s in SHAPES.values() if s.key == key)
    ids = tuple(np.array([i + 1]) for i in range(len(shape.fields)))
    acc = GradientAccumulator.zeros_like(state)
    [(values, _)] = benchmark.pedantic(
        batch_terms, args=(state, [(key, ids)], 0.1, Variant.EMEL_VAR, acc),
        rounds=200, iterations=5)
    assert len(values) == 1 and np.isfinite(values).all()
    assert np.isfinite(acc.flat).all()
