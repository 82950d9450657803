import hashlib

import numpy as np
import pytest

import oracles
from geodl.baselines import (
    BaselineState,
    MODELS,
    SUBCLASS_RELATION,
    _batch_hinge,
    _scores_batch,
    baseline_relation_names,
    extract_triples,
    initialize_baseline,
    load_baseline,
    save_baseline,
    train_baseline,
)
from geodl.model import GradientAccumulator
from geodl.normalize import normalize
from geodl.parser import parse_ontology
from geodl.ranking import _baseline_scorer
from geodl.synthetic import surrogate_lines
from geodl.training import TrainConfig


def norm_lines(lines):
    axioms, _ = parse_ontology(lines)
    return normalize(axioms)


def make_baseline(rng, model="transe", n_ent=5, n_rel=3, dim=4):
    state = initialize_baseline(model, n_ent, n_rel, dim, rng)
    state.entity_embeddings[:] = rng.uniform(-2, 2, size=(n_ent, dim))
    state.relation_embeddings[:] = rng.uniform(-2, 2, size=(n_rel, dim))
    return state


def ranking_scores(state, r, candidates, source, as_head):
    """The exact ranking scores of *source* against every candidate."""
    scorer = _baseline_scorer(state, r, candidates, np.array([source]), as_head)
    return scorer.exact(0, np.arange(len(candidates)))


def relation_rows(state, R):
    """The rows of *R* in each relation block, as ``_scores_batch`` takes
    them."""
    return [getattr(state, b)[R] for b in list(state.base)[1:]]


def score(h, r, t, state):
    """The training score of one triple."""
    scores, _ = _scores_batch(state, np.array([h]),
                              relation_rows(state, np.array([r])), np.array([t]))
    return float(scores[0])


def oracle_score(h, r, t, state):
    e, rel = state.entity_embeddings, state.relation_embeddings
    args = [list(e[h]), list(rel[r]), list(e[t])]
    if state.model == "transh":
        return oracles.transh(*args, list(state.normals[r]))
    return getattr(oracles, state.model)(*args)


# --- triple extraction -------------------------------------------------------


def test_extract_nf1_as_subclass_triple():
    onto = norm_lines(["subClassOf(A,B)"])
    triples = extract_triples(onto)
    assert triples.tolist() == [[0, 0, 1]]
    assert baseline_relation_names(onto) == [SUBCLASS_RELATION]


def test_extract_skips_nf2():
    onto = norm_lines(["subClassOf(A,some(R,B))", "subClassOf(and(A,B),C)"])
    triples = extract_triples(onto)
    assert len(triples) == 1
    assert triples[0, 1] == 0  # the ontology relation, not subclass


def test_extract_nf4_direction_flag():
    onto = norm_lines(["subClassOf(some(R,A),B)"])
    assert extract_triples(onto).tolist() == [
        [onto.class_index["A"], 0, onto.class_index["B"]]]


def test_extract_census_matches_axiom_types():
    onto = norm_lines(
        ["subClassOf(A,B)", "subClassOf(A,some(R,C))",
         "subClassOf(some(R,B),C)", "disjointWith(A,C)",
         "subClassOf(D,bottom)", "subClassOf(and(A,B),D)"]
    )
    from geodl.normalize import NF1, NF3, NF4

    expected = sum(isinstance(ax, (NF1, NF3, NF4)) for ax in onto.axioms)
    assert len(extract_triples(onto)) == expected


# --- scoring -----------------------------------------------------------------


def test_transe_exact_translation():
    state = BaselineState(
        "transe",
        np.array([[1.0, 0.0], [1.0, 1.0]]),
        np.array([[0.0, 1.0]]),
    )
    assert score(0, 0, 1, state) == 0.0


def test_transe_identity_relation():
    state = BaselineState(
        "transe",
        np.array([[1.0, 2.0], [1.0, 2.0]]),
        np.array([[0.0, 0.0]]),
    )
    assert score(0, 0, 1, state) == 0.0


def test_transh_reduces_to_transe_with_orthogonal_normal():
    state = BaselineState(
        "transh",
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0.5, 0.5, 0.0]]),
        normals=np.array([[0.0, 0.0, 1.0]]),
    )
    assert score(0, 0, 1, state) == pytest.approx(
        score(0, 0, 1, BaselineState(
            "transe", state.entity_embeddings, state.relation_embeddings
        )),
        rel=1e-15,
    )


def test_transh_projection_to_origin():
    w = np.array([1.0, 0.0])
    state = BaselineState(
        "transh",
        np.array([[2.0, 0.0], [3.0, 0.0]]),  # both parallel to w
        np.array([[0.0, 0.0]]),
        normals=w.reshape(1, 2),
    )
    assert score(0, 0, 1, state) == 0.0


def test_distmult_all_ones_relation():
    state = BaselineState(
        "distmult",
        np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        np.array([[1.0, 1.0, 1.0]]),
    )
    expected = float(np.dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))
    assert score(0, 0, 1, state) == pytest.approx(expected, rel=1e-15)


def test_distmult_zero_vector():
    state = BaselineState(
        "distmult",
        np.array([[0.0, 0.0], [4.0, 5.0]]),
        np.array([[1.0, 1.0]]),
    )
    assert score(0, 0, 1, state) == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_scores_match_independent_oracle(model, rng):
    """The batch scores used in training equal the scalar oracles exactly:
    at dim 4 numpy sums each row left to right, as the oracles do."""
    for _ in range(300):
        state = make_baseline(rng, model)
        H, R, T = rng.integers(0, 5, 6), rng.integers(0, 3, 6), rng.integers(0, 5, 6)
        got, _ = _scores_batch(state, H, relation_rows(state, R), T)
        for i in range(6):
            assert got[i] == oracle_score(H[i], R[i], T[i], state)


@pytest.mark.parametrize("model", MODELS)
def test_vectorized_scoring_matches_scalar(model, rng):
    """The ranking rows and a multi-triple training batch agree, to rounding,
    with the score of each triple taken on its own and with the oracle."""
    state = make_baseline(rng, model, n_ent=8)
    everyone = np.arange(8)
    got = ranking_scores(state, 1, everyone, 3, as_head=True)
    for i, h in enumerate(everyone):
        assert got[i] == pytest.approx(score(h, 1, 3, state), rel=1e-12)
        assert got[i] == pytest.approx(oracle_score(h, 1, 3, state), rel=1e-12)
    got = ranking_scores(state, 1, everyone, 2, as_head=False)
    for i, t in enumerate(everyone):
        assert got[i] == pytest.approx(score(2, 1, t, state), rel=1e-12)
        assert got[i] == pytest.approx(oracle_score(2, 1, t, state), rel=1e-12)
    got, _ = _scores_batch(state, np.array([0, 1]),
                           relation_rows(state, np.array([1, 2])), np.array([3, 4]))
    assert got[0] == pytest.approx(score(0, 1, 3, state), rel=1e-12)
    assert got[1] == pytest.approx(score(1, 2, 4, state), rel=1e-12)


# --- training ----------------------------------------------------------------


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_single_triple_separates(model):
    triples = [(0, 0, 1)]
    state = train_baseline(
        model, triples, 2, 1,
        TrainConfig(dim=8, margin=1.0, lr=0.05, epochs=300, batch_size=4, seed=7),
    ).state
    pos = score(0, 0, 1, state)
    # both possible corruptions with two entities
    for neg in (score(1, 0, 1, state), score(0, 0, 0, state)):
        assert pos >= neg + 1.0 - 1e-6


def test_empty_triples_error():
    with pytest.raises(ValueError):
        train_baseline("transe", [], 2, 1, TrainConfig())


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("margin", -1.0),
    ("margin", float("nan")),
])
def test_invalid_config_error(field, value):
    # the baseline's own check used to let these through
    with pytest.raises(ValueError, match=field):
        train_baseline("transe", [(0, 0, 1)], 2, 1, TrainConfig(**{field: value}))


def test_training_is_deterministic():
    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 0)]
    cfg = TrainConfig(dim=6, margin=1.0, epochs=50, seed=11)
    a = train_baseline("transh", triples, 3, 2, cfg).state
    b = train_baseline("transh", triples, 3, 2, cfg).state
    assert np.array_equal(a.entity_embeddings, b.entity_embeddings)
    assert np.array_equal(a.relation_embeddings, b.relation_embeddings)
    assert np.array_equal(a.normals, b.normals)


def test_transh_normals_stay_unit():
    triples = [(0, 0, 1), (1, 1, 2), (2, 0, 3)]
    state = train_baseline(
        "transh", triples, 4, 2,
        TrainConfig(dim=5, margin=1.0, epochs=40, seed=3)).state
    norms = np.linalg.norm(state.normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_all_models_finite_after_training(rng):
    triples = [(int(a), int(r), int(b))
               for a, r, b in zip(rng.integers(0, 6, 30),
                                  rng.integers(0, 2, 30),
                                  rng.integers(0, 6, 30))
               if a != b]
    for model in ("transe", "transh", "distmult"):
        state = train_baseline(
            model, triples, 6, 2,
            TrainConfig(dim=4, margin=1.0, epochs=20, seed=1)).state
        assert np.isfinite(state.entity_embeddings).all()
        assert np.isfinite(state.relation_embeddings).all()


# one batch with repeated head and tail rows, and a corruption of each triple
H = np.array([0, 0, 1, 2]); R = np.array([1, 0, 1, 1]); T = np.array([2, 2, 0, 1])
Hn = np.array([3, 0, 1, 3]); Tn = np.array([2, 1, 3, 1])


def batch_hinges(state, margin):
    rel = relation_rows(state, R)
    pos, _ = _scores_batch(state, H, rel, T)
    neg, _ = _scores_batch(state, Hn, rel, Tn)
    return margin - pos + neg


def assert_gradient_matches_fd(state, margin):
    """The gradient buffer that one training batch fills, against central
    differences of the batch hinge loss over every parameter (entities,
    relations and TransH's normals)."""
    step = 1e-6

    def batch_loss():
        return float(np.maximum(batch_hinges(state, margin), 0.0).sum())

    grad = GradientAccumulator.zeros_like(state)
    hinge = _batch_hinge(state, grad, H, R, T, Hn, Tn, margin)
    assert np.array_equal(hinge, np.maximum(batch_hinges(state, margin), 0.0))
    fd = np.zeros_like(state.flat)
    for i in range(state.flat.size):
        orig = state.flat[i]
        state.flat[i] = orig + step
        up = batch_loss()
        state.flat[i] = orig - step
        down = batch_loss()
        state.flat[i] = orig
        fd[i] = (up - down) / (2 * step)
    assert np.allclose(grad.flat, fd, rtol=1e-5, atol=1e-6), state.model


def test_margin_loss_gradient_matches_fd(rng):
    """Every hinge active: the margin is far above any reachable score gap."""
    for model in MODELS:
        state = make_baseline(rng, model, n_ent=4, n_rel=2, dim=3)
        assert_gradient_matches_fd(state, 100.0)


@pytest.mark.parametrize("model", MODELS)
def test_partial_batch_gradient_matches_fd(rng, model):
    """Some hinges inactive: the gradient comes from the pieces the scoring
    pass kept, for the active triples only.  The margin lies midway between
    two score gaps, so no hinge is within 1e-3 of zero and a finite
    difference step cannot switch one on or off."""
    state = make_baseline(rng, model, n_ent=4, n_rel=2, dim=3)
    gaps = np.sort(-batch_hinges(state, 0.0))
    margin = float(gaps[1] + gaps[2]) / 2
    hinges = batch_hinges(state, margin)
    assert np.abs(hinges).min() > 1e-3
    assert 0 < np.count_nonzero(hinges > 0.0) < len(H)
    assert_gradient_matches_fd(state, margin)


# sha256 of train_baseline's parameter buffer on a 300-class surrogate at
# margin 0.1 and batch 64, where about 60 % of the hinges are active.
# Recorded with numpy 2.4 on x86-64; another numpy or BLAS build may round
# differently.
GOLDEN_SURROGATE = {
    "transe": "efefe9d779e9c920597504723e3649640d83c19636fdbf75c5572394244f8832",
    "transh": "cacba9f2c16eaeabff56642a824486379aded57b3f3fc14c7f2b6ab76b0c48a1",
    "distmult": "2849aedb6b1cf86736678cdc992127c5b2608c71f1df7dfdd332400869d71153",
}


@pytest.mark.parametrize("model", MODELS)
def test_surrogate_training_bytes_are_pinned(model):
    """Many batches with partly active hinges write exactly the recorded
    parameter bytes: a change to the scoring, the gradient, the row scatter
    or the SGD step that alters any arithmetic fails here."""
    onto = norm_lines(surrogate_lines(300, seed=0))
    state = train_baseline(
        model, extract_triples(onto), len(onto.classes), len(onto.relations) + 1,
        TrainConfig(dim=50, margin=0.1, lr=0.01, epochs=5, batch_size=64, seed=3)).state
    assert hashlib.sha256(state.flat.tobytes()).hexdigest() == (
        GOLDEN_SURROGATE[model])


def test_bench_baseline_train_epoch_2k(benchmark):
    """One TransH epoch over the triples of the seeded 2000-class surrogate
    at dim 50, batch 512 and margin 0.1, the training configuration's
    default: scoring, score gradients, the row scatter and the SGD step."""
    onto = norm_lines(surrogate_lines(seed=0))
    triples = extract_triples(onto)
    cfg = TrainConfig(epochs=1, seed=0)
    state = benchmark.pedantic(
        train_baseline,
        args=("transh", triples, len(onto.classes), len(onto.relations) + 1, cfg),
        rounds=3, iterations=1).state
    assert state.entity_embeddings.shape == (2000, 50)
    assert np.isfinite(state.flat).all()


# --- persistence -------------------------------------------------------------


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_baseline_round_trip(tmp_path, rng, model):
    state = make_baseline(rng, model)
    path = tmp_path / "b.tsv"
    ents = [f"e{i}" for i in range(5)]
    rels = ["r0", "r1", SUBCLASS_RELATION]
    save_baseline(path, state, ents, rels)
    loaded = load_baseline(path)
    assert loaded.entity_names == ents
    assert loaded.relation_names == rels
    assert loaded.state.model == model
    assert np.array_equal(loaded.state.entity_embeddings,
                          state.entity_embeddings)
    assert np.array_equal(loaded.state.relation_embeddings,
                          state.relation_embeddings)
    if model == "transh":
        assert np.array_equal(loaded.state.normals, state.normals)
    header = path.read_text().splitlines()[0]
    assert header == f"#geodl-baseline v1 model={model} dim=4"
