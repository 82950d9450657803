import io
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_hyp

import oracles
import reference
from conftest import make_state, one_term
from geodl import model as gm
from geodl.baselines import (
    BASELINE_HEADER_PREFIX,
    MODELS,
    _spec,
    initialize_baseline,
    load_baseline,
    save_baseline,
)
from geodl.model import (
    MODEL_HEADER_PREFIX,
    EmbeddingState,
    GradientAccumulator,
    Variant,
    _finite_float,
    _safe_unit,
    _unit_penalty,
    load_model,
    read_model_file,
    save_model,
    write_rows,
)

EMEL = Variant.EMEL
VAR = Variant.EMEL_VAR


def state_2d(centers, radii, rel_vectors=(), sigmas=()):
    return EmbeddingState(
        class_centers=np.array(centers, dtype=float),
        class_radii_raw=np.array(radii, dtype=float),
        relation_vectors=np.array(rel_vectors, dtype=float).reshape(
            len(rel_vectors), len(centers[0])
        ),
        relation_sigmas_raw=np.array(sigmas, dtype=float),
    )


# --- hand cases, expected values frozen from the scalar oracle --------------


def test_nf1_contained_ball_is_zero():
    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.2])
    assert one_term("nf1", st, (0, 1), 0.0).value == 0.0


def test_nf1_separated_centers():
    st = state_2d([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.1])
    expected = math.sqrt(2.0) + 0.2  # 1.6142135623730951
    assert one_term("nf1", st, (0, 1), 0.0).value == pytest.approx(
        expected, rel=1e-12)
    assert one_term("nf1", st, (0, 1), 0.0).value == pytest.approx(
        oracles.nf1([1.0, 0.0], [0.0, 1.0], 0.3, 0.1, 0.0), rel=1e-15
    )


def test_nf1_penalties_only():
    st = state_2d([[0.5, 0.0], [0.5, 0.0]], [0.2, 0.2])
    assert one_term("nf1", st, (0, 1), 0.0).value == pytest.approx(1.0, rel=1e-12)


def test_nf2_coincident_is_zero():
    st = state_2d([[0.0, 1.0]] * 3, [0.0, 0.0, 0.0])
    assert one_term("nf2", st, (0, 1, 2), 0.0).value == 0.0


def test_nf2_two_active_hinges():
    st = state_2d([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0.1, 0.1, 0.1])
    expected = (math.sqrt(2.0) - 0.2) + (math.sqrt(2.0) - 0.1)  # 2.5284271247461903
    got = one_term("nf2", st, (0, 1, 2), 0.0).value
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(
        oracles.nf2([1, 0], [0, 1], [1, 0], 0.1, 0.1, 0.0), rel=1e-15
    )


def test_nf3_sigma_regularizer_only():
    st = state_2d(
        [[1.0, 0.0], [0.0, 1.0]], [0.1, 0.2], [[-1.0, 1.0]], [0.05]
    )
    term = one_term("nf3", st, (0, 0, 1), 0.0, VAR)
    assert term.hinge == 0.0
    assert term.value == pytest.approx(0.05, rel=1e-12)


def test_nf3_emel_ignores_sigma():
    st = state_2d(
        [[1.0, 0.0], [0.0, 1.0]], [0.1, 0.2], [[-1.0, 1.0]], [0.05]
    )
    assert one_term("nf3", st, (0, 0, 1), 0.0, EMEL).value == 0.0


def test_nf3_sigma_absorbs_translation_slack():
    # translated center lands 0.1 away; slack 0.2 deactivates the hinge
    st = state_2d(
        [[1.0, 0.0], [1.0, 0.1]], [0.3, 0.3], [[0.0, 0.0]], [0.2]
    )
    term = one_term("nf3", st, (0, 0, 1), 0.0, VAR)
    assert term.hinge == 0.0
    penalties = abs(math.hypot(1.0, 0.1) - 1.0)
    assert term.value == pytest.approx(0.2 + penalties, rel=1e-12)


def test_nf4_exact_translation_is_zero():
    st = state_2d([[0.0, 1.0], [0.0, -1.0]], [0.3, 0.1], [[0.0, 2.0]], [0.0])
    assert one_term("nf4", st, (0, 0, 1), 0.0, EMEL).value == 0.0


def test_nf4_active_hinge():
    # || f(c) - f(r) - f(d) || = ||(-1,0)|| = 1, radii 0.1 each
    st = state_2d([[0.0, 1.0], [1.0, 0.0]], [0.1, 0.1], [[0.0, 1.0]], [0.0])
    got = one_term("nf4", st, (0, 0, 1), 0.0, EMEL)
    assert got.value == pytest.approx(0.8, rel=1e-12)
    assert got.value == pytest.approx(
        oracles.nf4([0, 1], [0, 1], [1, 0], 0.1, 0.1, 0.0), rel=1e-15
    )


def test_nf4_var_sigma_trades_hinge_for_regularizer():
    st = state_2d([[0.0, 1.0], [1.0, 0.0]], [0.1, 0.1], [[0.0, 1.0]], [0.3])
    term = one_term("nf4", st, (0, 0, 1), 0.0, VAR)
    assert term.hinge == pytest.approx(0.5, rel=1e-12)
    assert term.value == pytest.approx(0.8, rel=1e-12)
    assert term.value == pytest.approx(
        oracles.nf4_var([0, 1], [0, 1], [1, 0], 0.1, 0.1, 0.3, 0.0), rel=1e-15
    )


def test_disjoint_separated_is_zero():
    st = state_2d([[1.0, 0.0], [-1.0, 0.0]], [0.1, 0.1])
    assert one_term("disjoint", st, (0, 1), 0.0).value == 0.0


def test_disjoint_overlapping_balls():
    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    assert one_term("disjoint", st, (0, 1), 0.0).value == pytest.approx(
        1.0, rel=1e-12)


def test_disjoint_coincident_points():
    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.0, 0.0])
    assert one_term("disjoint", st, (0, 1), 0.0).value == 0.0


def test_bottom_absolute_value():
    st = state_2d([[1.0, 0.0]], [0.3])
    assert one_term("bottom", st, (0,)).value == pytest.approx(0.3)
    st = state_2d([[1.0, 0.0]], [-0.3])
    assert one_term("bottom", st, (0,)).value == pytest.approx(0.3)
    st = state_2d([[1.0, 0.0]], [0.0])
    assert one_term("bottom", st, (0,)).value == 0.0


def test_negative_far_apart_is_zero():
    st = state_2d([[1.0, 0.0], [-1.0, 0.0]], [0.05, 0.05], [[0.0, 0.0]], [0.0])
    assert one_term("nf3_negative", st, (0, 0, 1), 0.0, VAR).value == 0.0


def test_negative_coincident_translation():
    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.1], [[0.0, 0.0]], [0.0])
    assert one_term("nf3_negative", st, (0, 0, 1), 0.0, VAR).value == pytest.approx(
        0.2, rel=1e-12
    )


def test_negative_sigma_widens_margin():
    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.1], [[0.0, 0.0]], [0.3])
    assert one_term("nf3_negative", st, (0, 0, 1), 0.0, VAR).value == pytest.approx(
        0.5, rel=1e-12
    )
    assert one_term("nf3_negative", st, (0, 0, 1), 0.0, VAR).value == pytest.approx(
        oracles.nf3_negative([1, 0], [0, 0], [1, 0], 0.1, 0.1, 0.3, 0.0),
        rel=1e-15,
    )


# --- random-instance oracle agreement (the acceptance suite runs 1000) ------


def _random_instance(rng, dim=None):
    dim = dim or int(rng.integers(2, 7))
    st = make_state(rng, num_classes=5, num_relations=2, dim=dim)
    ids = rng.choice(5, size=3, replace=False)
    r = int(rng.integers(0, 2))
    gamma = float(rng.uniform(0.0, 0.5))
    return st, int(ids[0]), int(ids[1]), int(ids[2]), r, gamma


def _eff(x):
    return abs(float(x))


@pytest.mark.parametrize("seed", range(3))
def test_all_losses_match_oracle_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        st, c, d, e, r, gamma = _random_instance(rng)
        fc = list(st.class_centers[c])
        fd = list(st.class_centers[d])
        fe = list(st.class_centers[e])
        fr = list(st.relation_vectors[r])
        rc, rd = _eff(st.class_radii_raw[c]), _eff(st.class_radii_raw[d])
        sig = _eff(st.relation_sigmas_raw[r])
        tol = dict(rel=1e-12, abs=1e-12)
        assert one_term("nf1", st, (c, d), gamma).value == pytest.approx(
            oracles.nf1(fc, fd, rc, rd, gamma), **tol)
        assert one_term("nf2", st, (c, d, e), gamma).value == pytest.approx(
            oracles.nf2(fc, fd, fe, rc, rd, gamma), **tol)
        assert one_term("nf3", st, (c, r, d), gamma, EMEL).value == pytest.approx(
            oracles.nf3(fc, fr, fd, rc, rd, gamma), **tol)
        assert one_term("nf3", st, (c, r, d), gamma, VAR).value == pytest.approx(
            oracles.nf3_var(fc, fr, fd, rc, rd, sig, gamma), **tol)
        assert one_term("nf4", st, (c, r, d), gamma, EMEL).value == pytest.approx(
            oracles.nf4(fc, fr, fd, rc, rd, gamma), **tol)
        assert one_term("nf4", st, (c, r, d), gamma, VAR).value == pytest.approx(
            oracles.nf4_var(fc, fr, fd, rc, rd, sig, gamma), **tol)
        assert one_term("disjoint", st, (c, d), gamma).value == pytest.approx(
            oracles.disjoint(fc, fd, rc, rd, gamma), **tol)
        assert one_term("bottom", st, (c,)).value == pytest.approx(
            oracles.bottom(rc), **tol)
        assert one_term(
            "nf3_negative", st, (c, r, d), gamma, VAR).value == pytest.approx(
            oracles.nf3_negative(fc, fr, fd, rc, rd, sig, gamma), **tol)


# --- structural properties ---------------------------------------------------


def _all_losses(st, c, d, e, r, gamma, variant):
    return [
        one_term("nf1", st, (c, d), gamma).value,
        one_term("nf2", st, (c, d, e), gamma).value,
        one_term("nf3", st, (c, r, d), gamma, variant).value,
        one_term("nf4", st, (c, r, d), gamma, variant).value,
        one_term("disjoint", st, (c, d), gamma).value,
        one_term("bottom", st, (c,)).value,
        one_term("nf3_negative", st, (c, r, d), gamma, variant).value,
    ]


def test_non_negativity(rng):
    for _ in range(300):
        st, c, d, e, r, gamma = _random_instance(rng)
        for variant in (EMEL, VAR):
            for value in _all_losses(st, c, d, e, r, gamma, variant):
                assert value >= 0.0


finite_floats = st_hyp.floats(min_value=-10.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False)


@given(
    data=st_hyp.lists(finite_floats, min_size=21, max_size=21),
    gamma=st_hyp.floats(min_value=0.0, max_value=1.0),
    variant=st_hyp.sampled_from([EMEL, VAR]),
)
def test_non_negativity_hypothesis(data, gamma, variant):
    vals = np.array(data)
    st = EmbeddingState(
        class_centers=vals[:9].reshape(3, 3),
        class_radii_raw=vals[9:12],
        relation_vectors=vals[12:18].reshape(2, 3),
        relation_sigmas_raw=vals[18:20],
    )
    for value in _all_losses(st, 0, 1, 2, 0, gamma, variant):
        assert value >= 0.0


def test_sigma_monotonicity(rng):
    """Hinge is non-increasing in the slack; the regularizer strictly grows."""
    for _ in range(100):
        st, c, d, e, r, gamma = _random_instance(rng)
        sigmas = np.linspace(0.0, 2.0, 9)
        hinges3, hinges4, regs = [], [], []
        for s in sigmas:
            st.relation_sigmas_raw[r] = s
            t3 = one_term("nf3", st, (c, r, d), gamma, VAR)
            t4 = one_term("nf4", st, (c, r, d), gamma, VAR)
            base = one_term("nf3", st, (c, r, d), gamma, EMEL)
            penalties = base.value - base.hinge
            hinges3.append(t3.hinge)
            hinges4.append(t4.hinge)
            regs.append(t3.value - t3.hinge - penalties)
        assert all(a >= b - 1e-15 for a, b in zip(hinges3, hinges3[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(hinges4, hinges4[1:]))
        # regularizer component == sigma itself, strictly increasing
        assert all(b > a for a, b in zip(regs, regs[1:]))


def test_emel_reduction_is_bitwise(rng):
    for _ in range(500):
        st, c, d, e, r, gamma = _random_instance(rng)
        st.relation_sigmas_raw[:] = 0.0
        assert (
            one_term("nf3", st, (c, r, d), gamma, VAR).value
            == one_term("nf3", st, (c, r, d), gamma, EMEL).value
        )
        assert (
            one_term("nf4", st, (c, r, d), gamma, VAR).value
            == one_term("nf4", st, (c, r, d), gamma, EMEL).value
        )
        assert (
            one_term("nf3_negative", st, (c, r, d), gamma, VAR).value
            == one_term("nf3_negative", st, (c, r, d), gamma, EMEL).value
        )


def _random_rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def test_orthogonal_invariance(rng):
    for _ in range(50):
        st, c, d, e, r, gamma = _random_instance(rng)
        before = _all_losses(st, c, d, e, r, gamma, VAR)
        q = _random_rotation(rng, st.dim)
        rotated = EmbeddingState(
            st.class_centers @ q.T,
            st.class_radii_raw.copy(),
            st.relation_vectors @ q.T,
            st.relation_sigmas_raw.copy(),
        )
        after = _all_losses(rotated, c, d, e, r, gamma, VAR)
        for x, y in zip(before, after):
            assert y == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_zero_loss_nf1_implies_containment_on_sphere():
    # exact zero is reachable only with exactly unit-norm centers
    st = state_2d([[0.0, 1.0], [0.0, 1.0]], [0.1, 0.25])
    term = one_term("nf1", st, (0, 1), 0.0)
    assert term.value == 0.0
    dist = np.linalg.norm(st.class_centers[0] - st.class_centers[1])
    assert dist + abs(st.class_radii_raw[0]) <= abs(st.class_radii_raw[1])
    assert np.linalg.norm(st.class_centers[0]) == 1.0
    assert np.linalg.norm(st.class_centers[1]) == 1.0
    # violating containment forces a positive value
    st.class_radii_raw[0] = 0.5
    assert one_term("nf1", st, (0, 1), 0.0).value > 0.0
    # off-sphere centers force a positive value even when contained
    st2 = state_2d([[0.0, 0.9], [0.0, 0.9]], [0.1, 0.25])
    assert one_term("nf1", st2, (0, 1), 0.0).value > 0.0


def test_zero_loss_nf1_random_scan(rng):
    for _ in range(200):
        st, c, d, _, _, gamma = _random_instance(rng)
        term = one_term("nf1", st, (c, d), 0.0)
        if term.value == 0.0:
            dist = float(np.linalg.norm(st.class_centers[c] - st.class_centers[d]))
            assert dist + abs(st.class_radii_raw[c]) <= abs(st.class_radii_raw[d])
            assert float(np.linalg.norm(st.class_centers[c])) == 1.0
            assert float(np.linalg.norm(st.class_centers[d])) == 1.0


# --- flat parameter layout ---------------------------------------------------

BLOCKS = ("class_centers", "class_radii_raw", "relation_vectors",
          "relation_sigmas_raw")


# every baseline model's blocks, in buffer order
BASELINE_BLOCKS = {
    "transe": ("entity_embeddings", "relation_embeddings"),
    "transh": ("entity_embeddings", "relation_embeddings", "normals"),
    "distmult": ("entity_embeddings", "relation_embeddings"),
}


def test_blocks_are_views_of_flat_in_order(rng):
    """The ball state, its accumulator and its copy, and each baseline state
    and its accumulator: named blocks that tile ``flat`` front to back."""
    state = make_state(rng, num_classes=5, num_relations=3, dim=4)
    layouts = [(obj, BLOCKS) for obj in (
        state, GradientAccumulator.zeros_like(state), state.copy())]
    assert sorted(BASELINE_BLOCKS) == sorted(MODELS)
    for model, blocks in BASELINE_BLOCKS.items():
        baseline = initialize_baseline(model, 5, 3, 4, rng)
        layouts += [(baseline, blocks),
                    (GradientAccumulator.zeros_like(baseline), blocks)]
    for obj, blocks in layouts:
        assert tuple(obj.base) == blocks
        assert obj.flat.dtype == np.float64 and obj.flat.flags.c_contiguous
        obj.flat[...] = np.arange(obj.flat.size)
        # the blocks read the buffer front to back, each cell exactly once
        cells = np.concatenate([getattr(obj, name).ravel() for name in blocks])
        assert cells.tolist() == list(range(obj.flat.size))
        for name in blocks:
            block = getattr(obj, name)
            assert block.base is obj.flat
            assert block.ravel()[0] == obj.base[name]


def test_copy_shares_no_memory(rng):
    arrays = [rng.uniform(size=shape) for shape in ((5, 4), 5, (3, 4), 3)]
    state = EmbeddingState(*arrays)
    for array in arrays:  # the constructor copies too
        assert not np.shares_memory(array, state.flat)
    dup = state.copy()
    assert not np.shares_memory(dup.flat, state.flat)
    assert dup.flat.tobytes() == state.flat.tobytes()
    dup.class_centers[0, 0] += 1.0
    assert state.class_centers[0, 0] == arrays[0][0, 0]


# every block of the ball state and of each baseline state, as the state
# itself lays them out
FINITE_BLOCKS = [pytest.param(None, name, id=name) for name in BLOCKS] + [
    pytest.param(model, name, id=f"{model}-{name}") for model in MODELS
    for name in initialize_baseline(model, 1, 1, 1,
                                    np.random.default_rng(0)).base]


@pytest.mark.parametrize("cell", [0, -1])
@pytest.mark.parametrize("model, name", FINITE_BLOCKS)
def test_all_finite_sees_each_block(rng, model, name, cell):
    # a NaN or an infinity in the first or last cell of any block: an
    # off-by-one block offset leaves one of them unchecked
    state = (make_state(rng, num_classes=5, num_relations=3, dim=4)
             if model is None else initialize_baseline(model, 5, 3, 4, rng))
    assert state.all_finite()
    block = getattr(state, name)
    for value in (np.nan, np.inf, -np.inf):
        block[(cell,) * block.ndim] = value
        assert not state.all_finite()


@pytest.mark.parametrize("model", [None, *MODELS])
def test_all_finite_when_finite_cells_overflow_their_sum(rng, model):
    """Finite cells whose sum overflows, or is inf - inf, are finite: a
    check that trusted the sum of the buffer alone would call them not."""
    state = (make_state(rng, num_classes=5, num_relations=3, dim=4)
             if model is None else initialize_baseline(model, 5, 3, 4, rng))
    state.flat[:2] = 1.7e308
    assert state.all_finite()
    state.flat[-2:] = -1.7e308
    assert state.all_finite()
    state.flat[-1] = -np.inf
    assert not state.all_finite()


# --- row helpers ---------------------------------------------------------------

EDGE_ROWS = np.array([
    [0.0, 0.0, 0.0],
    [1e-200, -1e-200, 1e-200],  # the squares underflow: norm 0
    [0.0, -1.0, 0.0],  # norm exactly 1.0
    [-0.0, -0.0, -0.0],
    [-0.0, 3.0, -4.0],
    [np.nan, 1.0, 2.0],
    [0.3, -2.0, 0.7],
])


def _masked_unit(vectors, norms):
    """The masked-divide formula the in-place helpers replaced."""
    out = np.zeros_like(vectors)
    np.divide(vectors, norms[:, None], out=out, where=norms[:, None] > 0.0)
    return out


# rows whose norms are all > 0, from tiny (the squares are subnormal) to huge
POSITIVE_ROWS = np.array([
    [1e-160, 0.0, -0.0],
    [0.0, -1.0, 0.0],
    [-0.0, 3.0, -4.0],
    [1e153, -2e153, 3e153],
    [0.3, -2.0, 0.7],
])


def test_safe_unit_and_unit_penalty_edge_rows():
    """Zero, underflowing, unit, signed-zero and NaN rows, and a block whose
    norms are all > 0 (the fast path), give, byte for byte, what the masked
    divide gave: rows whose norm is not > 0 become +0.0, the penalty
    gradient is sign(||x|| - 1) times that, and so is a scaled unit row."""
    for rows in (EDGE_ROWS, POSITIVE_ROWS):
        norms = np.linalg.norm(rows, axis=1)
        unit = _safe_unit(rows.copy(), norms)
        values, grads = _unit_penalty(rows.copy(), np.empty_like(rows))
        expected_grads = (np.sign(norms - 1.0)[:, None]
                          * _masked_unit(rows, norms))
        assert unit.tobytes() == _masked_unit(rows, norms).tobytes()
        assert values.tobytes() == np.abs(norms - 1.0).tobytes()
        assert grads.tobytes() == expected_grads.tobytes()
        # a per-row scale of +-1 or +-0.0 folded into the divide gives the
        # unit rows times the scale, zero signs included
        for pattern in ([1.0], [-1.0], [0.0], [-0.0], [1.0, -0.0, -1.0, 0.0]):
            scale = np.resize(pattern, len(rows))
            scaled = _safe_unit(rows.copy(), norms, scale)
            want = _masked_unit(rows, norms) * scale[:, None]
            assert scaled.tobytes() == want.tobytes()
        if rows is EDGE_ROWS:  # -1 * +0.0: the row is below the sphere
            assert np.signbit(grads[1]).all()
        else:
            assert (norms > 0.0).all()


def test_write_rows_formats_each_value_as_17g():
    vectors = np.array([[-0.0, 5e-324, 1e300, -1e-310, 0.1, 1.0 / 3.0]])
    fh = io.StringIO()
    write_rows(fh, "C", ["A%s"], vectors, np.array([-2.5]))
    cells = ["C", "A%s", "-2.5"] + [format(v, ".17g") for v in vectors[0]]
    assert fh.getvalue() == "\t".join(cells) + "\n"


# --- persistence -------------------------------------------------------------


def test_model_round_trip_is_bit_faithful(tmp_path, rng):
    st = make_state(rng, num_classes=6, num_relations=3, dim=5)
    path = tmp_path / "model.tsv"
    class_names = [f"K{i}" for i in range(6)]
    rel_names = [f"r{i}" for i in range(3)]
    save_model(path, st, class_names, rel_names, VAR, 0.1)
    loaded = load_model(path)
    assert loaded.class_names == class_names
    assert loaded.relation_names == rel_names
    assert loaded.variant is VAR
    assert loaded.margin == 0.1
    assert np.array_equal(loaded.state.class_centers, st.class_centers)
    assert np.array_equal(loaded.state.class_radii_raw, st.class_radii_raw)
    assert np.array_equal(loaded.state.relation_vectors, st.relation_vectors)
    assert np.array_equal(loaded.state.relation_sigmas_raw, st.relation_sigmas_raw)
    # the reader fills one buffer, laid out as the state built from four arrays
    assert loaded.state.flat.tobytes() == st.flat.tobytes()
    for name in BLOCKS:
        assert getattr(loaded.state, name).base is loaded.state.flat
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.tsv"
    save_model(path2, loaded.state, class_names, rel_names, VAR, 0.1)
    assert path.read_bytes() == path2.read_bytes()


def test_model_header_format(tmp_path, rng):
    st = make_state(rng, num_classes=2, num_relations=1, dim=4)
    path = tmp_path / "m.tsv"
    save_model(path, st, ["A", "B"], ["r"], EMEL, 0.25)
    header = path.read_text().splitlines()[0]
    assert header.startswith("#geodl v1 dim=4 variant=EmEl margin=0.25")


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(path)


# (header prefix, header fields, row kinds, scalars per row) of each model
# file, as ``load_model`` and ``load_baseline`` hand them to
# ``read_model_file``
FORMATS = {
    "ball": (MODEL_HEADER_PREFIX,
             {"dim": int, "variant": Variant, "margin": _finite_float},
             ("C", "R"), 1),
    "baseline": (BASELINE_HEADER_PREFIX, {"model": _spec, "dim": int},
                 ("E", "R", "W"), 0),
}
HEADERS = {"ball": "variant=EmEl margin=0.1", "baseline": "model=transh"}
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               -2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -7.0, 0.1]
VALUE_TEXTS = st_hyp.one_of(
    st_hyp.tuples(
        st_hyp.sampled_from(EDGE_VALUES)
        | st_hyp.floats(allow_nan=False, allow_infinity=False),
        st_hyp.sampled_from(["%.17g".__mod__, repr, "{:.6E}".format]),
    ).map(lambda t: t[1](t[0])),
    st_hyp.integers(-10**20, 10**20).map(str),
    st_hyp.sampled_from(["1_0", " 1.5"]),
)
BAD_TOKENS = ["x", "", "nan", "-inf", "1e400", "1,5", "0x1p3", " ", "1#2",
              '"1"', "\x1e1"]


@st_hyp.composite
def model_texts(draw):
    """``(format, lines)`` of a valid ball or baseline model file: every row
    kind with 0-4 rows, kinds interleaved, blank lines among them, values
    written as ``%.17g``, ``repr``, ``E`` exponents and integers."""
    fmt = draw(st_hyp.sampled_from(sorted(FORMATS)))
    prefix, _, kinds, scalars = FORMATS[fmt]
    dim = draw(st_hyp.integers(1, 4))
    rows = [
        (kind, name) for kind in kinds
        for name in draw(st_hyp.lists(st_hyp.text("aB_%", min_size=1,
                                                  max_size=3),
                                      unique=True, max_size=4))
    ]
    lines = [f"{prefix} dim={dim} {HEADERS[fmt]}"]
    for kind, name in draw(st_hyp.permutations(rows)):
        width = scalars + dim
        values = draw(st_hyp.lists(VALUE_TEXTS, min_size=width,
                                   max_size=width))
        lines += [""] * draw(st_hyp.integers(0, 1))
        lines.append("\t".join([kind, name, *values]))
    return fmt, lines


def read_both(fmt, lines):
    """What ``read_model_file`` and the list-based reference make of
    *lines*: the header fields and, per kind, the names, the line numbers
    and the values' shape, dtype and bytes; or the error message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "m.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for reader in (read_model_file, reference.read_model_file):
            try:
                found, rows = reader(path, *FORMATS[fmt])
            except ValueError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append((found, {
                kind: (names, numbers, values.shape, values.dtype,
                       values.tobytes())
                for kind, (names, numbers, values) in rows.items()}))
    return outcomes


@settings(max_examples=150)
@given(model_texts())
def test_reader_matches_the_list_reference_bit_for_bit(case):
    got, want = read_both(*case)
    assert not isinstance(want, str), want
    assert got == want


@st_hyp.composite
def faulty_model_texts(draw):
    """A ``model_texts`` file with one to three faults on its row lines: a
    value that is not a finite float, a column too few, another or an
    unknown row kind, or a copy of a row further down (a duplicate name)."""
    fmt, lines = draw(model_texts())
    for _ in range(draw(st_hyp.integers(1, 3))):
        rows = [i for i, line in enumerate(lines)
                if i and line.count("\t") >= 2]
        if not rows:
            break
        at = draw(st_hyp.sampled_from(rows))
        parts = lines[at].split("\t")
        fault = draw(st_hyp.sampled_from(["value", "short", "kind", "copy"]))
        if fault == "value":
            cell = draw(st_hyp.integers(2, len(parts) - 1))
            parts[cell] = draw(st_hyp.sampled_from(BAD_TOKENS))
        elif fault == "short":
            parts.pop()
        elif fault == "kind":
            parts[0] = draw(st_hyp.sampled_from(["C", "E", "W", "Q", ""]))
        else:
            lines.insert(draw(st_hyp.integers(at + 1, len(lines))), lines[at])
        lines[at] = "\t".join(parts)
    return fmt, lines


@settings(max_examples=150)
@given(faulty_model_texts())
def test_reader_faults_match_the_list_reference(case):
    """The same message from the same line, whichever fault comes first."""
    got, want = read_both(*case)
    assert got == want


def read_rows(fmt, dim, rows):
    """``read_both`` of the *rows* under a *fmt* header of width *dim*."""
    prefix = FORMATS[fmt][0]
    return read_both(fmt, [f"{prefix} dim={dim} {HEADERS[fmt]}", *rows])


def test_a_value_fault_in_another_kind_on_an_earlier_line_comes_first():
    got, want = read_rows("ball", 1, ["C\tA\t0\t1", "R\tr\t0\tx",
                                      "C\tB\t0\ty"])
    assert got == want
    assert got.endswith("m.tsv:3: could not convert string to float: 'x'")


@pytest.mark.parametrize("token, message", [
    ("z", "could not convert string to float: 'z'"),
    ("inf", "non-finite value"),
])
def test_a_fault_past_the_first_block_names_its_line(token, message):
    """Row 600 of 700 rows of one kind, past a first block of rows."""
    rows = [f"C\tA{i}\t0\t{token if i == 599 else i}" for i in range(700)]
    got, want = read_rows("ball", 1, rows + ["R\tr\t0\t1"])
    assert got == want
    assert got.endswith(f"m.tsv:601: {message}")


@pytest.mark.parametrize("token", ["", " "])
def test_a_blank_value_at_dim_1_is_refused(token):
    """``np.loadtxt`` would skip an empty values text, not refuse it."""
    for rows in ([f"W\tB\t{token}"],
                 ["E\tA\t1", f"W\tB\t{token}", "E\tC\t2"]):
        got, want = read_rows("baseline", 1, rows)
        assert got == want
        assert f"could not convert string to float: {token!r}" in got


@pytest.mark.parametrize("token", ["1_0", "\uff11", " 1.5", "\x0c1"])
def test_values_that_float_takes_load_as_the_reference(token):
    """``1_0`` and a fullwidth digit are refused by ``np.loadtxt`` and
    taken by ``float()``; leading whitespace is taken by both."""
    for dim in (1, 2):
        got, want = read_rows("baseline", dim,
                              ["E\tA" + "\t1.25" * (dim - 1) + f"\t{token}"])
        assert not isinstance(want, str), want
        assert got == want


@pytest.mark.parametrize("token", ["1#2", '"1"', "\x1c1", "1\x1f"])
def test_values_that_float_refuses_are_refused(token):
    """A comment or quote character, and the ASCII separators that
    ``np.loadtxt`` strips as whitespace, each in the last column."""
    for dim in (1, 2):
        got, want = read_rows("baseline", dim,
                              ["E\tA" + "\t1.25" * (dim - 1) + f"\t{token}"])
        assert got == want
        assert got.endswith(
            f"m.tsv:2: could not convert string to float: {token!r}")


def mixed_lines(fmt, token=None):
    """A *fmt* file of 600 rows of every kind, interleaved: every seventh
    row is of a minority kind, and a blank line follows every 97th row, so
    that the first block of 512 rows ends past line 513 and both blocks mix
    kinds.  *token*, when given, is the last value of the first
    minority-kind row of the second block.  Returns ``(lines, line of that
    row)``."""
    prefix, _, kinds, scalars = FORMATS[fmt]
    dim = 3
    rng = np.random.default_rng(7)
    lines = [f"{prefix} dim={dim} {HEADERS[fmt]}"]
    at = None
    for i in range(600):
        kind = kinds[0] if i % 7 != 6 else kinds[1 + i // 7 % (len(kinds) - 1)]
        values = ["%.17g" % x for x in rng.standard_normal(scalars + dim)]
        if kind != kinds[0] and i >= 512 and at is None:
            values[-1] = token or values[-1]
            at = len(lines) + 1
        lines.append("\t".join([kind, f"{kind}{i}", *values]))
        if i % 97 == 96:
            lines.append("")
    return lines, at


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mixed_kind_blocks_load_as_the_reference(fmt):
    """Two blocks of interleaved kinds, converted by ``np.loadtxt``; with
    ``1_0`` in a minority-kind row of the second block, which loadtxt
    refuses and ``float()`` takes, converted row by row; with ``x`` there,
    refused on that row's line."""
    for token in (None, "1_0"):
        got, want = read_both(fmt, mixed_lines(fmt, token)[0])
        assert not isinstance(want, str), want
        assert got == want
    lines, at = mixed_lines(fmt, "x")
    assert at > 513
    got, want = read_both(fmt, lines)
    assert got == want
    assert got.endswith(f"m.tsv:{at}: could not convert string to float: 'x'")


def saved_2k(tmp_path, kind):
    """A 2000 x 50 model of *kind* ("ball" or "transh") saved in *tmp_path*:
    ``(path, state, loader)``."""
    rng = np.random.default_rng(3)
    names = [f"C{i}" for i in range(2000)]
    relations = ["r0", "r1", "r2"]
    path = tmp_path / "m.tsv"
    if kind == "ball":
        state = make_state(rng, num_classes=2000, num_relations=3, dim=50)
        save_model(path, state, names, relations, VAR, 0.1)
        return path, state, load_model
    state = initialize_baseline(kind, 2000, 3, 50, rng)
    save_baseline(path, state, names, relations)
    return path, state, load_baseline


@pytest.mark.parametrize("kind", ["ball", "transh"])
def test_loading_a_2k_model_peaks_below_3_5x_its_parameters(tmp_path, kind):
    """Rows are converted into float64 by blocks of 512 rows in file order:
    about 8 bytes per value plus one block of text, where a Python float
    per value made the traced peak 5.6x the state."""
    path, state, load = saved_2k(tmp_path, kind)
    tracemalloc.start()
    try:
        loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.state.flat.tobytes() == state.flat.tobytes()
    assert peak < 3.5 * state.flat.nbytes, peak / state.flat.nbytes


@pytest.mark.parametrize("kind", ["ball", "transh"])
def test_a_valid_2k_model_loads_by_blocks_alone(tmp_path, monkeypatch, kind):
    """One ``np.loadtxt`` call per block of rows in file order, and no row
    converted on its own."""
    path, state, load = saved_2k(tmp_path, kind)
    calls = []
    real_loadtxt = np.loadtxt

    def loadtxt(texts, *args, **kwargs):
        calls.append(len(texts))
        return real_loadtxt(texts, *args, **kwargs)

    def convert_rows(*args):
        raise AssertionError("a row was converted on its own")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(gm, "_convert_rows", convert_rows)
    loaded = load(path)
    assert loaded.state.flat.tobytes() == state.flat.tobytes()
    # 2000 classes, then the 3 relations (and the 3 TransH normals), the
    # last block holding rows of every kind
    last = 470 if kind == "transh" else 467
    assert calls == [512, 512, 512, last]


def test_bench_load_model_2k(benchmark, tmp_path):
    path, state, _ = saved_2k(tmp_path, "ball")
    loaded = benchmark.pedantic(load_model, args=(path,), rounds=3,
                                iterations=1)
    assert loaded.state.flat.tobytes() == state.flat.tobytes()
