import numpy as np
import pytest

import oracles
from geodl.baselines import (
    BaselineState,
    SUBCLASS_RELATION,
    Triple,
    _scores_batch,
    baseline_relation_names,
    candidate_scores,
    extract_triples,
    initialize_baseline,
    load_baseline,
    save_baseline,
    score,
    score_distmult,
    score_transe,
    score_transh,
    train_baseline,
)
from geodl.normalize import normalize
from geodl.parser import parse_ontology


def norm_lines(lines):
    axioms, _ = parse_ontology(lines)
    return normalize(axioms)


def make_baseline(rng, model="transe", n_ent=5, n_rel=3, dim=4):
    state = initialize_baseline(model, n_ent, n_rel, dim, rng)
    state.entity_embeddings[:] = rng.uniform(-2, 2, size=(n_ent, dim))
    state.relation_embeddings[:] = rng.uniform(-2, 2, size=(n_rel, dim))
    return state


# --- triple extraction -------------------------------------------------------


def test_extract_nf1_as_subclass_triple():
    onto = norm_lines(["subClassOf(A,B)"])
    triples = extract_triples(onto)
    assert triples == [Triple(0, 0, 1)]
    assert baseline_relation_names(onto) == [SUBCLASS_RELATION]


def test_extract_skips_nf2():
    onto = norm_lines(["subClassOf(A,some(R,B))", "subClassOf(and(A,B),C)"])
    triples = extract_triples(onto)
    assert len(triples) == 1
    assert triples[0].relation == 0  # the ontology relation, not subclass


def test_extract_nf4_direction_flag():
    onto = norm_lines(["subClassOf(some(R,A),B)"])
    (triple,) = extract_triples(onto)
    assert triple.from_nf4
    assert (triple.head, triple.tail) == (
        onto.class_index["A"], onto.class_index["B"]
    )


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
    assert score_transe(0, 0, 1, state) == 0.0


def test_transe_identity_relation():
    state = BaselineState(
        "transe",
        np.array([[1.0, 2.0], [1.0, 2.0]]),
        np.array([[0.0, 0.0]]),
    )
    assert score_transe(0, 0, 1, state) == 0.0


def test_transh_reduces_to_transe_with_orthogonal_normal():
    state = BaselineState(
        "transh",
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0.5, 0.5, 0.0]]),
        normals=np.array([[0.0, 0.0, 1.0]]),
    )
    assert score_transh(0, 0, 1, state) == pytest.approx(
        score_transe(0, 0, 1, BaselineState(
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
    assert score_transh(0, 0, 1, state) == 0.0


def test_distmult_all_ones_relation():
    state = BaselineState(
        "distmult",
        np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        np.array([[1.0, 1.0, 1.0]]),
    )
    expected = float(np.dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]))
    assert score_distmult(0, 0, 1, state) == pytest.approx(expected, rel=1e-15)


def test_distmult_zero_vector():
    state = BaselineState(
        "distmult",
        np.array([[0.0, 0.0], [4.0, 5.0]]),
        np.array([[1.0, 1.0]]),
    )
    assert score_distmult(0, 0, 1, state) == 0.0


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_scores_match_independent_oracle(model, rng):
    for _ in range(300):
        state = make_baseline(rng, model)
        h, t = (int(x) for x in rng.choice(5, size=2, replace=False))
        r = int(rng.integers(0, 3))
        eh = list(state.entity_embeddings[h])
        er = list(state.relation_embeddings[r])
        et = list(state.entity_embeddings[t])
        got = score(h, r, t, state)
        if model == "transe":
            want = oracles.transe(eh, er, et)
        elif model == "transh":
            want = oracles.transh(eh, er, et, list(state.normals[r]))
        else:
            want = oracles.distmult(eh, er, et)
        assert got == want  # identical accumulation order -> exact


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_vectorized_scoring_matches_scalar(model, rng):
    state = make_baseline(rng, model, n_ent=8)
    heads = np.arange(8)
    got = candidate_scores(state, 1, heads, as_head=True)(3)
    for i, h in enumerate(heads):
        assert got[i] == pytest.approx(score(int(h), 1, 3, state), rel=1e-12)
    tails = np.arange(8)
    got = candidate_scores(state, 1, tails, as_head=False)(2)
    for i, t in enumerate(tails):
        assert got[i] == pytest.approx(score(2, 1, int(t), state), rel=1e-12)
    got = _scores_batch(state, np.array([0, 1]), np.array([1, 2]),
                        np.array([3, 4]))
    assert got[0] == pytest.approx(score(0, 1, 3, state), rel=1e-12)
    assert got[1] == pytest.approx(score(1, 2, 4, state), rel=1e-12)


# --- training ----------------------------------------------------------------


@pytest.mark.parametrize("model", ["transe", "transh", "distmult"])
def test_single_triple_separates(model):
    triples = [Triple(0, 0, 1)]
    state = train_baseline(
        model, triples, num_entities=2, num_relations=1, dim=8,
        margin=1.0, lr=0.05, epochs=300, batch_size=4, seed=7,
    )
    pos = score(0, 0, 1, state)
    # both possible corruptions with two entities
    for neg in (score(1, 0, 1, state), score(0, 0, 0, state)):
        assert pos >= neg + 1.0 - 1e-6


def test_empty_triples_error():
    with pytest.raises(ValueError):
        train_baseline("transe", [], num_entities=2, num_relations=1)


def test_training_is_deterministic():
    triples = [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 1, 0)]
    kwargs = dict(num_entities=3, num_relations=2, dim=6, epochs=50, seed=11)
    a = train_baseline("transh", triples, **kwargs)
    b = train_baseline("transh", triples, **kwargs)
    assert np.array_equal(a.entity_embeddings, b.entity_embeddings)
    assert np.array_equal(a.relation_embeddings, b.relation_embeddings)
    assert np.array_equal(a.normals, b.normals)


def test_transh_normals_stay_unit():
    triples = [Triple(0, 0, 1), Triple(1, 1, 2), Triple(2, 0, 3)]
    state = train_baseline(
        "transh", triples, num_entities=4, num_relations=2, dim=5,
        epochs=40, seed=3,
    )
    norms = np.linalg.norm(state.normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_all_models_finite_after_training(rng):
    triples = [Triple(int(a), int(r), int(b))
               for a, r, b in zip(rng.integers(0, 6, 30),
                                  rng.integers(0, 2, 30),
                                  rng.integers(0, 6, 30))
               if a != b]
    for model in ("transe", "transh", "distmult"):
        state = train_baseline(
            model, triples, num_entities=6, num_relations=2, dim=4,
            epochs=20, seed=1,
        )
        assert np.isfinite(state.entity_embeddings).all()
        assert np.isfinite(state.relation_embeddings).all()


def test_margin_loss_gradient_matches_fd(rng):
    """Spot-check the hand gradients through the batch hinge loss."""
    for model in ("transe", "transh", "distmult"):
        state = make_baseline(rng, model, n_ent=4, n_rel=2, dim=3)
        H = np.array([0]); R = np.array([1]); T = np.array([2])
        Hn = np.array([3]); Tn = np.array([2])
        margin = 100.0  # far above any reachable score gap: hinge always active

        def batch_loss(s):
            pos = _scores_batch(s, H, R, T)
            neg = _scores_batch(s, Hn, R, Tn)
            return float(np.maximum(margin - pos + neg, 0.0).sum())

        from geodl.baselines import _score_grads

        gph, gpr, gpt, gpw = _score_grads(state, H, R, T)
        gnh, gnr, gnt, gnw = _score_grads(state, Hn, R, Tn)
        analytic_e = np.zeros_like(state.entity_embeddings)
        analytic_e[0] -= gph[0]
        analytic_e[2] -= gpt[0]
        analytic_e[3] += gnh[0]
        analytic_e[2] += gnt[0]
        analytic_r = np.zeros_like(state.relation_embeddings)
        analytic_r[1] = -gpr[0] + gnr[0]

        step = 1e-6
        fd_e = np.zeros_like(analytic_e)
        flat = state.entity_embeddings.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss(state)
            flat[i] = orig - step
            down = batch_loss(state)
            flat[i] = orig
            fd_e.reshape(-1)[i] = (up - down) / (2 * step)
        assert np.allclose(analytic_e, fd_e, rtol=1e-5, atol=1e-6)

        fd_r = np.zeros_like(analytic_r)
        flat = state.relation_embeddings.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss(state)
            flat[i] = orig - step
            down = batch_loss(state)
            flat[i] = orig
            fd_r.reshape(-1)[i] = (up - down) / (2 * step)
        assert np.allclose(analytic_r, fd_r, rtol=1e-5, atol=1e-6)

        if model == "transh":
            analytic_w = np.zeros_like(state.normals)
            analytic_w[1] = -gpw[0] + gnw[0]
            fd_w = np.zeros_like(analytic_w)
            flat = state.normals.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = batch_loss(state)
                flat[i] = orig - step
                down = batch_loss(state)
                flat[i] = orig
                fd_w.reshape(-1)[i] = (up - down) / (2 * step)
            assert np.allclose(analytic_w, fd_w, rtol=1e-5, atol=1e-6)


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
