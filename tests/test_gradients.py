"""Analytic gradients against central finite differences.

Each loss is piecewise smooth; points are resampled until they are at least
a margin away from every hinge boundary, absolute-value kink, zero distance
and zero center norm, where the derivative is well defined.  Every term runs
through ``batch_terms``, the entry point training uses, with ids in each
kernel's column order.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import make_state, one_term
from geodl.baselines import MODELS, BaselineState
from geodl.model import (
    EmbeddingState,
    GradientAccumulator,
    Variant,
    _add_rows,
    batch_terms,
)
from geodl.normalize import NF1, NF2, NF3, NF4, BottomSub
from geodl.training import train
from reference import mean_hinge
from test_training import norm_lines, tiny_config

EMEL = Variant.EMEL
VAR = Variant.EMEL_VAR

KINK_MARGIN = 1e-4
FD_STEP = 1e-6


def fd_gradients(loss_value, state, step=FD_STEP):
    """Central finite differences over every cell of ``state.flat``."""
    flat = state.flat
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = loss_value(state)
        flat[i] = original - step
        down = loss_value(state)
        flat[i] = original
        grads[i] = (up - down) / (2.0 * step)
    return grads


def compare(acc, fd, tol=1e-5):
    """Every cell of ``acc.flat`` against its finite difference."""
    a = acc.flat
    bad = np.abs(a - fd) > tol * np.maximum(1.0, np.maximum(np.abs(a),
                                                            np.abs(fd)))
    if bad.any():
        i = int(np.argmax(bad))
        raise AssertionError(
            f"flat[{i}]: analytic {a[i]} vs finite difference {fd[i]}")


def value_of(key, ids, gamma, variant=EMEL):
    """The kernel's value on one row as a function of the state, without
    accumulating gradients."""
    columns = [np.array([i]) for i in ids]
    return lambda state: float(
        batch_terms(state, [(key, columns)], gamma, variant)[0][0][0])


def check_gradients(key, state, ids, gamma, variant=EMEL, tol=1e-5):
    """The term's analytic gradient against finite differences of its
    value; returns the term."""
    term = one_term(key, state, ids, gamma, variant)
    compare(term.acc, fd_gradients(value_of(key, ids, gamma, variant), state),
            tol)
    return term


def away_from_kinks(values, margin=KINK_MARGIN):
    return all(abs(v) > margin for v in values)


def sample_smooth_point(rng, build):
    """Draw states until the instance is differentiable with margin."""
    for _ in range(200):
        state, ids, kink_values = build(rng)
        if away_from_kinks(kink_values):
            return state, ids
    raise AssertionError("could not find a smooth sample point")


def _norms(state, ids):
    out = []
    for c in ids:
        n = float(np.linalg.norm(state.class_centers[c]))
        out.append(n)
        out.append(n - 1.0)
    return out


# Each builder returns (state, (ids..., gamma), kinks), ids in the kernel's
# column order.


def _build_nf1(rng):
    state = make_state(rng, num_classes=4, num_relations=1, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    dist = float(np.linalg.norm(state.class_centers[c] - state.class_centers[d]))
    rc, rd = abs(state.class_radii_raw[c]), abs(state.class_radii_raw[d])
    h = dist + rc - rd - gamma
    kinks = [dist, h, state.class_radii_raw[c], state.class_radii_raw[d]]
    kinks += _norms(state, (c, d))
    return state, (c, d, gamma), kinks


def test_nf1_gradients(rng):
    for _ in range(60):
        state, (c, d, gamma) = sample_smooth_point(rng, _build_nf1)
        check_gradients("nf1", state, (c, d), gamma)


def _build_nf2(rng):
    state = make_state(rng, num_classes=5, num_relations=1, dim=3)
    c, d, e = (int(x) for x in rng.choice(5, size=3, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    fc, fdv, fe = (state.class_centers[i] for i in (c, d, e))
    d1 = float(np.linalg.norm(fc - fdv))
    d2 = float(np.linalg.norm(fc - fe))
    d3 = float(np.linalg.norm(fdv - fe))
    rc, rd = abs(state.class_radii_raw[c]), abs(state.class_radii_raw[d])
    kinks = [
        d1, d2, d3,
        d1 - rc - rd - gamma, d2 - rc - gamma, d3 - rd - gamma,
        state.class_radii_raw[c], state.class_radii_raw[d],
    ]
    kinks += _norms(state, (c, d, e))
    return state, (c, d, e, gamma), kinks


def test_nf2_gradients(rng):
    for _ in range(60):
        state, (c, d, e, gamma) = sample_smooth_point(rng, _build_nf2)
        check_gradients("nf2", state, (c, d, e), gamma)


def _build_translation(rng, sign):
    """nf3 and nf3_negative for sign +1, nf4 for sign -1; ids (c, r, d)."""
    state = make_state(rng, num_classes=4, num_relations=2, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    r = int(rng.integers(0, 2))
    gamma = float(rng.uniform(0.0, 0.3))
    t = (state.class_centers[c] + sign * state.relation_vectors[r]
         - state.class_centers[d])
    dist = float(np.linalg.norm(t))
    rc, rd = abs(state.class_radii_raw[c]), abs(state.class_radii_raw[d])
    sig = abs(state.relation_sigmas_raw[r])
    if sign > 0:
        h = dist + rc - rd - sig - gamma
        h_neg = rc + rd + sig + gamma - dist
    else:
        h = dist - rc - rd - sig - gamma
        h_neg = 0.5  # unused for nf4
    h_emel = h + sig
    kinks = [
        dist, h, h_emel, h_neg,
        state.class_radii_raw[c], state.class_radii_raw[d],
        state.relation_sigmas_raw[r],
    ]
    kinks += _norms(state, (c, d))
    return state, (c, r, d, gamma), kinks


def _translation_gradients(rng, key, sign):
    for variant in (EMEL, VAR):
        for _ in range(40):
            state, (*ids, gamma) = sample_smooth_point(
                rng, lambda g: _build_translation(g, sign))
            check_gradients(key, state, ids, gamma, variant)


def test_nf3_gradients_both_variants(rng):
    _translation_gradients(rng, "nf3", +1)


def test_nf4_gradients_both_variants(rng):
    _translation_gradients(rng, "nf4", -1)


def test_negative_gradients(rng):
    _translation_gradients(rng, "nf3_negative", +1)


def _build_disjoint(rng):
    state = make_state(rng, num_classes=4, num_relations=1, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    dist = float(np.linalg.norm(state.class_centers[c] - state.class_centers[d]))
    rc, rd = abs(state.class_radii_raw[c]), abs(state.class_radii_raw[d])
    h = rc + rd - dist + gamma
    kinks = [dist, h, state.class_radii_raw[c], state.class_radii_raw[d]]
    kinks += _norms(state, (c, d))
    return state, (c, d, gamma), kinks


def test_disjoint_gradients(rng):
    for _ in range(60):
        state, (c, d, gamma) = sample_smooth_point(rng, _build_disjoint)
        check_gradients("disjoint", state, (c, d), gamma)


def test_bottom_gradients(rng):
    for _ in range(40):
        state = make_state(rng, num_classes=3, num_relations=1, dim=3)
        c = int(rng.integers(0, 3))
        if abs(state.class_radii_raw[c]) <= KINK_MARGIN:
            continue
        term = check_gradients("bottom", state, (c,), 0.0)
        assert term.acc.class_radii_raw[c] == np.sign(state.class_radii_raw[c])


def test_empty_batch_is_zero_accumulator(rng):
    """Empty id columns through every kernel: empty values and hinges, and
    no gradient."""
    state = make_state(rng)
    for key, columns in KERNEL_COLUMNS.items():
        empty = [np.array([], dtype=int)] * len(columns)
        for variant, sigma_reg in KERNEL_SETTINGS:
            acc = GradientAccumulator.zeros_like(state)
            [(values, hinges)] = batch_terms(
                state, [(key, empty)], 0.1, variant, acc, sigma_reg)
            assert values.shape == hinges.shape == (0,)
            assert not acc.flat.any()


def test_batch_gradients_sum_per_term_gradients():
    """Each kernel over a multi-row batch with repeated rows gives each
    row's value and hinge and the sum of the rows' gradients."""
    for key, columns in KERNEL_COLUMNS.items():
        for variant, sigma_reg in KERNEL_SETTINGS:
            state = _kernel_state()
            acc = GradientAccumulator.zeros_like(state)
            [(values, hinges)] = batch_terms(
                state, [(key, columns)], 0.1, variant, acc, sigma_reg)
            expected = np.zeros_like(acc.flat)
            for i, ids in enumerate(zip(*columns)):
                term = one_term(key, state, ids, 0.1, variant, sigma_reg)
                assert abs(values[i] - term.value) <= 1e-12
                assert abs(hinges[i] - term.hinge) <= 1e-12
                expected += term.acc.flat
            assert np.abs(acc.flat - expected).max() <= 1e-12, (key, variant)


@pytest.mark.parametrize("axiom, message", [
    pytest.param(NF1(-1, 0), "NF1.c = -1 is outside [0, 3)", id="nf1-c"),
    pytest.param(NF1(0, 3), "NF1.d = 3 is outside [0, 3)", id="nf1-d"),
    pytest.param(NF2(0, 1, -2), "NF2.e = -2 is outside [0, 3)", id="nf2-e"),
    pytest.param(NF3(0, -1, 1), "NF3.r = -1 is outside [0, 2)", id="nf3-r"),
    pytest.param(NF4(0, 2, 1), "NF4.r = 2 is outside [0, 2)", id="nf4-r"),
    pytest.param(BottomSub(-3), "BottomSub.c = -3 is outside [0, 3)",
                 id="bottom-c"),
])
def test_single_term_rejects_ids_out_of_range(rng, axiom, message):
    """An id outside [0, count) would gather a wrapped row, or none, and
    put its gradient in another block; training and the hinge diagnostic
    refuse it, naming the field."""
    onto = norm_lines(["subClassOf(A,some(R,B))", "subClassOf(C,some(S,A))"])
    assert (len(onto.classes), len(onto.relations)) == (3, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(onto, tiny_config(epochs=1), train_axioms=[axiom])
    state = make_state(rng, num_classes=3, num_relations=2, dim=2)
    with pytest.raises(ValueError, match=re.escape(message)):
        mean_hinge(state, [axiom], 0.1, VAR, kind=type(axiom))


def test_inactive_hinge_unit_centers_zero_gradient():
    from test_losses import state_2d

    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.2])
    term = one_term("nf1", st, (0, 1), 0.0)
    assert term.value == 0.0
    assert not term.acc.flat.any()


def test_repeated_ids_sum_contributions(rng):
    # same class on both sides still matches finite differences
    for _ in range(20):
        state = make_state(rng, num_classes=3, num_relations=1, dim=3)
        c = int(rng.integers(0, 3))
        gamma = 0.05
        if (abs(state.class_radii_raw[c]) <= KINK_MARGIN
                or abs(2 * abs(state.class_radii_raw[c]) + gamma) <= KINK_MARGIN
                or not away_from_kinks(_norms(state, (c,)))):
            continue
        check_gradients("disjoint", state, (c, c), gamma)


# --- the row scatter ------------------------------------------------------------

# finite values of every magnitude, with both zeros, so the addition order
# shows in the last bits
SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -1.0, 1e300, -1e300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def zero_state(model, num_rows, num_relations, dim):
    """All-zero parameters of the ball model or of a baseline model."""
    if model == "ball":
        return EmbeddingState(np.zeros((num_rows, dim)), np.zeros(num_rows),
                              np.zeros((num_relations, dim)),
                              np.zeros(num_relations))
    return BaselineState(model, np.zeros((num_rows, dim)),
                         np.zeros((num_relations, dim)))


@st.composite
def scatter_cases(draw):
    state = zero_state(draw(st.sampled_from(("ball",) + MODELS)),
                       draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                       draw(st.integers(1, 3)))
    size = state.flat.size
    start = draw(st.lists(SCATTER_VALUES, min_size=size, max_size=size))
    row_blocks = [name for name in state.base if getattr(state, name).ndim == 2]
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(row_blocks))
        bound, dim = getattr(state, name).shape
        # rows counted from the end too, which np.add.at wraps
        rows = draw(st.lists(st.one_of(st.integers(0, bound - 1),
                                       st.integers(-bound, -1)), max_size=6))
        values = draw(st.lists(SCATTER_VALUES, min_size=len(rows) * dim,
                               max_size=len(rows) * dim))
        calls.append((name, np.array(rows, dtype=int),
                      np.array(values).reshape(len(rows), dim)))
    return state, np.array(start), calls


@given(scatter_cases())
@example((zero_state("ball", 1, 1, 1), np.array([1e300, 0.0, 0.0, 0.0]), [
    ("class_centers", np.array([0, 0]), np.array([[-1e300], [1.0]]))]))
def test_add_rows_is_bitwise_2d_add_at(case):
    """The flat 1-D scatter adds to every cell in np.add.at's order, over
    repeated rows, negative rows, empty batches and signed zeros, in every
    row block of the ball layout and of each baseline layout (TransH normals
    included)."""
    state, start, calls = case
    acc = GradientAccumulator.zeros_like(state)
    expected = GradientAccumulator.zeros_like(state)
    acc.flat[...] = start
    expected.flat[...] = start
    for name, rows, values in calls:
        _add_rows(acc, name, rows, values)
        np.add.at(getattr(expected, name), rows, values)
    assert acc.flat.tobytes() == expected.flat.tobytes()


@pytest.mark.parametrize("name, row", [
    ("class_centers", 2), ("class_centers", -3), ("relation_vectors", 1)])
def test_add_rows_refuses_a_row_outside_its_block(name, row):
    """Row 2 of a 2-row block has offsets inside the next block; like
    np.add.at, the scatter raises IndexError and adds nothing."""
    acc = GradientAccumulator.zeros_like(zero_state("ball", 2, 1, 3))
    rows, values = np.array([0, row]), np.ones((2, 3))
    with pytest.raises(IndexError):
        np.add.at(getattr(acc, name), rows, values)
    with pytest.raises(IndexError):
        _add_rows(acc, name, rows, values)
    assert not acc.flat.any()


# --- kernel-level golden digests -------------------------------------------------

# One seeded batch per kernel that reaches every branch: repeated rows, a row
# whose two centers coincide after translation (dist = 0, the zero branch of
# the unit direction), zero raw radii and slacks of both signs (np.sign = 0)
# and negative raw values.  Columns are in each kernel's id column order.
CLASS_PAIR = (np.array([0, 0, 5, 2, 3, 1, 4, 0]),
              np.array([5, 5, 0, 2, 1, 3, 4, 2]))
ROLE = (np.array([1, 1, 3, 0, 4, 5, 2]),
        np.array([0, 0, 1, 2, 1, 2, 0]),
        np.array([2, 2, 4, 5, 3, 0, 1]))
KERNEL_COLUMNS = {
    "nf1": CLASS_PAIR,
    "nf2": CLASS_PAIR + (np.array([1, 2, 0, 2, 5, 5, 4, 3]),),
    "nf3": ROLE,
    "nf4": ROLE,
    "disjoint": CLASS_PAIR,
    "bottom": (np.array([0, 1, 4, 4, 2]),),
    "nf3_negative": ROLE,
}

# sha256 over values, hinges and accumulator bytes of the kernel's run under
# each (variant, sigma_reg) in KERNEL_SETTINGS order
KERNEL_SETTINGS = [(EMEL, 1.0), (EMEL, 0.25), (VAR, 1.0), (VAR, 0.25)]
KERNEL_DIGESTS = {
    "bottom": "83098dcaa7a31dacbfee339c2fb4805d39cdff892aba56183154dfd36cbb8b8b",
    "disjoint": "d0562a032410fcf24efce5dee83c48936bf830500ec6091827c31f53d6224e26",
    "nf1": "0676577464799add8a0ac442297475dfab565ee8ff6e222e93c47e1a11b1e18f",
    "nf2": "f57287feda1f3b403d8e4d1817be6805c6c27164b1e616259e10bbc22002dbe2",
    "nf3": "b3b1ce419ea2bd3d1e8039fcb6e6ff92c923708627ad25b937d85d5fcc76e711",
    "nf3_negative": "7b6780fa64bfcea83ad95f71f8f95a1049daa7a1b402549192a1dbdac1becc66",
    "nf4": "6987a362b9da308db5788d80e1c7c2fc7c3236683f9b093d97443b0d5da7b648",
}


def _kernel_state():
    state = make_state(np.random.default_rng(7), num_classes=6,
                       num_relations=3, dim=3, scale=0.6)
    state.class_radii_raw[[1, 4]] = [0.0, -0.0]
    state.relation_sigmas_raw[[1, 2]] = [-0.0, 0.0]
    state.class_centers[5] = state.class_centers[0]
    # row 0 of ROLE: fc + fr - fd = 0; row 2 read as nf4: fc - fr - fd = 0
    state.class_centers[2] = state.class_centers[1] + state.relation_vectors[0]
    state.class_centers[4] = state.class_centers[3] - state.relation_vectors[1]
    return state


def _kernel_digest(key):
    digest = hashlib.sha256()
    for variant, sigma_reg in KERNEL_SETTINGS:
        state = _kernel_state()
        acc = GradientAccumulator.zeros_like(state)
        [(values, hinges)] = batch_terms(
            state, [(key, KERNEL_COLUMNS[key])], 0.1, variant, acc, sigma_reg)
        for array in (values, hinges, acc.flat):
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(KERNEL_COLUMNS))
def test_kernel_bytes_are_pinned(key):
    """Each kernel's values, hinges and gradient bytes on the edge-case batch
    are pinned: a changed sign, term order or zero branch changes them."""
    assert _kernel_digest(key) == KERNEL_DIGESTS[key]
