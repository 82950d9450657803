"""Analytic gradients against central finite differences.

Each loss is piecewise smooth; points are resampled until they are at least
a margin away from every hinge boundary, absolute-value kink, zero distance
and zero center norm, where the derivative is well defined.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import make_state
from geodl.model import (
    CLASS_CENTER,
    CLASS_RADIUS,
    RELATION_SIGMA,
    RELATION_VECTOR,
    EmbeddingState,
    GradientAccumulator,
    Variant,
    _add_rows,
    loss_bottom,
    loss_disjoint,
    loss_nf1,
    loss_nf2,
    loss_nf3,
    loss_nf3_negative,
    loss_nf4,
    term_batch,
)

EMEL = Variant.EMEL
VAR = Variant.EMEL_VAR

KINK_MARGIN = 1e-4
FD_STEP = 1e-6


def fd_gradients(loss_value, state, step=FD_STEP):
    """Central finite differences over every parameter entry."""
    grads = {}

    def probe(array, key_of):
        flat = array.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_value(state)
            flat[i] = original - step
            down = loss_value(state)
            flat[i] = original
            g = (up - down) / (2.0 * step)
            if g != 0.0:
                key, comp = key_of(i)
                grads.setdefault(key, {})[comp] = g

    dim = state.dim
    probe(state.class_centers,
          lambda i: ((CLASS_CENTER, i // dim), i % dim))
    probe(state.class_radii_raw, lambda i: ((CLASS_RADIUS, i), 0))
    probe(state.relation_vectors,
          lambda i: ((RELATION_VECTOR, i // dim), i % dim))
    probe(state.relation_sigmas_raw, lambda i: ((RELATION_SIGMA, i), 0))
    return grads


def compare(term, fd, dim, tol=1e-5):
    keys = set(term.grads) | set(fd)
    for key in keys:
        analytic = term.grads.get(key)
        if analytic is None:
            analytic = np.zeros(dim) if key[0] in (CLASS_CENTER, RELATION_VECTOR) \
                else 0.0
        numeric_map = fd.get(key, {})
        if np.ndim(analytic) == 0:
            pairs = [(float(analytic), numeric_map.get(0, 0.0))]
        else:
            pairs = [(float(analytic[i]), numeric_map.get(i, 0.0))
                     for i in range(dim)]
        for a, n in pairs:
            assert abs(a - n) <= tol * max(1.0, abs(a), abs(n)), (
                f"{key}: analytic {a} vs finite difference {n}"
            )


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


def _build_nf1(rng):
    state = make_state(rng, num_classes=4, num_relations=1, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    dist = float(np.linalg.norm(state.class_centers[c] - state.class_centers[d]))
    h = dist + state.radius(c) - state.radius(d) - gamma
    kinks = [dist, h, state.class_radii_raw[c], state.class_radii_raw[d]]
    kinks += _norms(state, (c, d))
    return state, (c, d, gamma), kinks


def test_nf1_gradients(rng):
    for _ in range(60):
        state, (c, d, gamma) = sample_smooth_point(rng, _build_nf1)
        term = loss_nf1(state, c, d, gamma)
        fd = fd_gradients(lambda s: loss_nf1(s, c, d, gamma).value, state)
        compare(term, fd, state.dim)


def _build_nf2(rng):
    state = make_state(rng, num_classes=5, num_relations=1, dim=3)
    c, d, e = (int(x) for x in rng.choice(5, size=3, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    fc, fdv, fe = (state.class_centers[i] for i in (c, d, e))
    d1 = float(np.linalg.norm(fc - fdv))
    d2 = float(np.linalg.norm(fc - fe))
    d3 = float(np.linalg.norm(fdv - fe))
    rc, rd = state.radius(c), state.radius(d)
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
        term = loss_nf2(state, c, d, e, gamma)
        fd = fd_gradients(lambda s: loss_nf2(s, c, d, e, gamma).value, state)
        compare(term, fd, state.dim)


def _build_translation(rng, sign):
    state = make_state(rng, num_classes=4, num_relations=2, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    r = int(rng.integers(0, 2))
    gamma = float(rng.uniform(0.0, 0.3))
    t = (state.class_centers[c] + sign * state.relation_vectors[r]
         - state.class_centers[d])
    dist = float(np.linalg.norm(t))
    if sign > 0:
        h = dist + state.radius(c) - state.radius(d) - state.sigma(r) - gamma
        h_neg = state.radius(c) + state.radius(d) + state.sigma(r) + gamma - dist
    else:
        h = dist - state.radius(c) - state.radius(d) - state.sigma(r) - gamma
        h_neg = 0.5  # unused for nf4
    h_emel = h + state.sigma(r)
    kinks = [
        dist, h, h_emel, h_neg,
        state.class_radii_raw[c], state.class_radii_raw[d],
        state.relation_sigmas_raw[r],
    ]
    kinks += _norms(state, (c, d))
    return state, (c, r, d, gamma), kinks


def test_nf3_gradients_both_variants(rng):
    for variant in (EMEL, VAR):
        for _ in range(40):
            state, (c, r, d, gamma) = sample_smooth_point(
                rng, lambda g: _build_translation(g, +1)
            )
            term = loss_nf3(state, c, r, d, gamma, variant)
            fd = fd_gradients(
                lambda s: loss_nf3(s, c, r, d, gamma, variant).value, state
            )
            compare(term, fd, state.dim)


def test_nf4_gradients_both_variants(rng):
    for variant in (EMEL, VAR):
        for _ in range(40):
            state, (c, r, d, gamma) = sample_smooth_point(
                rng, lambda g: _build_translation(g, -1)
            )
            term = loss_nf4(state, c, r, d, gamma, variant)
            fd = fd_gradients(
                lambda s: loss_nf4(s, c, r, d, gamma, variant).value, state
            )
            compare(term, fd, state.dim)


def test_negative_gradients(rng):
    for variant in (EMEL, VAR):
        for _ in range(40):
            state, (c, r, d, gamma) = sample_smooth_point(
                rng, lambda g: _build_translation(g, +1)
            )
            term = loss_nf3_negative(state, c, r, d, gamma, variant)
            fd = fd_gradients(
                lambda s: loss_nf3_negative(s, c, r, d, gamma, variant).value,
                state,
            )
            compare(term, fd, state.dim)


def _build_disjoint(rng):
    state = make_state(rng, num_classes=4, num_relations=1, dim=3)
    c, d = (int(x) for x in rng.choice(4, size=2, replace=False))
    gamma = float(rng.uniform(0.0, 0.3))
    dist = float(np.linalg.norm(state.class_centers[c] - state.class_centers[d]))
    h = state.radius(c) + state.radius(d) - dist + gamma
    kinks = [dist, h, state.class_radii_raw[c], state.class_radii_raw[d]]
    kinks += _norms(state, (c, d))
    return state, (c, d, gamma), kinks


def test_disjoint_gradients(rng):
    for _ in range(60):
        state, (c, d, gamma) = sample_smooth_point(rng, _build_disjoint)
        term = loss_disjoint(state, c, d, gamma)
        fd = fd_gradients(lambda s: loss_disjoint(s, c, d, gamma).value, state)
        compare(term, fd, state.dim)


def test_bottom_gradients(rng):
    for _ in range(40):
        state = make_state(rng, num_classes=3, num_relations=1, dim=3)
        c = int(rng.integers(0, 3))
        if abs(state.class_radii_raw[c]) <= KINK_MARGIN:
            continue
        term = loss_bottom(state, c)
        fd = fd_gradients(lambda s: loss_bottom(s, c).value, state)
        compare(term, fd, state.dim)
        assert term.grads[(CLASS_RADIUS, c)] == np.sign(state.class_radii_raw[c])


def test_empty_batch_is_zero_accumulator(rng):
    from geodl.model import gradients

    state = make_state(rng)
    acc = gradients([], state, 0.1, VAR)
    assert not acc.class_centers.any()
    assert not acc.class_radii_raw.any()
    assert not acc.relation_vectors.any()
    assert not acc.relation_sigmas_raw.any()


def test_batch_gradients_sum_per_term_gradients(rng):
    from geodl.model import gradients
    from geodl.normalize import NF1, NF3, Disjoint

    state = make_state(rng, num_classes=5, num_relations=2, dim=3)
    batch = [
        (NF1(0, 1), 1),
        (NF3(1, 0, 2), 1),
        (NF3(1, 0, 3), -1),
        (Disjoint(2, 4), 1),
    ]
    gamma = 0.1
    acc = gradients(batch, state, gamma, VAR)
    expected = GradientAccumulator.zeros_like(state)
    for term in (
        loss_nf1(state, 0, 1, gamma),
        loss_nf3(state, 1, 0, 2, gamma, VAR),
        loss_nf3_negative(state, 1, 0, 3, gamma, VAR),
        loss_disjoint(state, 2, 4, gamma),
    ):
        for (block, row), grad in term.grads.items():
            if block == CLASS_CENTER:
                expected.class_centers[row] += grad
            elif block == CLASS_RADIUS:
                expected.class_radii_raw[row] += grad
            elif block == RELATION_VECTOR:
                expected.relation_vectors[row] += grad
            elif block == RELATION_SIGMA:
                expected.relation_sigmas_raw[row] += grad
    assert np.allclose(acc.class_centers, expected.class_centers, atol=1e-12)
    assert np.allclose(acc.class_radii_raw, expected.class_radii_raw,
                       atol=1e-12)
    assert np.allclose(acc.relation_vectors, expected.relation_vectors,
                       atol=1e-12)
    assert np.allclose(acc.relation_sigmas_raw, expected.relation_sigmas_raw,
                       atol=1e-12)


def test_batch_gradients_reject_bad_sign(rng):
    from geodl.model import gradients
    from geodl.normalize import NF1

    state = make_state(rng)
    with pytest.raises(ValueError):
        gradients([(NF1(0, 1), 0)], state, 0.1, VAR)
    with pytest.raises(ValueError):
        gradients([(NF1(0, 1), -1)], state, 0.1, VAR)


@pytest.mark.parametrize("term, field", [
    pytest.param(lambda st: loss_nf1(st, -1, 0, 0.1), "NF1.c = -1", id="nf1-c"),
    pytest.param(lambda st: loss_nf1(st, 0, 3, 0.1), "NF1.d = 3", id="nf1-d"),
    pytest.param(lambda st: loss_nf2(st, 0, 1, -2, 0.1), "NF2.e = -2",
                 id="nf2-e"),
    pytest.param(lambda st: loss_nf3(st, 0, -1, 1, 0.1, VAR), "NF3.r = -1",
                 id="nf3-r"),
    pytest.param(lambda st: loss_nf4(st, 0, 2, 1, 0.1, EMEL), "NF4.r = 2",
                 id="nf4-r"),
    pytest.param(lambda st: loss_bottom(st, -3), "BottomSub.c = -3",
                 id="bottom-c"),
    pytest.param(lambda st: loss_nf3_negative(st, 0, 1, 7, 0.1, VAR),
                 "NF3.d = 7", id="nf3_negative-d"),
])
def test_single_term_rejects_ids_out_of_range(rng, term, field):
    """An id outside [0, count) would gather a wrapped row, or none, and
    put its gradient in another block; it is refused, naming the field."""
    state = make_state(rng, num_classes=3, num_relations=2, dim=2)
    with pytest.raises(ValueError, match=field):
        term(state)


def test_inactive_hinge_unit_centers_zero_gradient():
    from test_losses import state_2d

    st = state_2d([[1.0, 0.0], [1.0, 0.0]], [0.1, 0.2])
    term = loss_nf1(st, 0, 1, 0.0)
    assert term.value == 0.0
    assert term.grads == {}


def test_repeated_ids_sum_contributions(rng):
    # same class on both sides still matches finite differences
    for _ in range(20):
        state = make_state(rng, num_classes=3, num_relations=1, dim=3)
        c = int(rng.integers(0, 3))
        gamma = 0.05
        dist = 0.0  # same id, distance kink sits at zero
        term = loss_disjoint(state, c, c, gamma)
        if (abs(state.class_radii_raw[c]) <= KINK_MARGIN
                or abs(2 * state.radius(c) + gamma) <= KINK_MARGIN
                or not away_from_kinks(_norms(state, (c,)))):
            continue
        fd = fd_gradients(lambda s: loss_disjoint(s, c, c, gamma).value, state)
        compare(term, fd, state.dim)
        assert dist == 0.0


# --- the row scatter ------------------------------------------------------------

# finite values of every magnitude, with both zeros, so the addition order
# shows in the last bits
SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -1.0, 1e300, -1e300]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def scatter_cases(draw):
    num_classes = draw(st.integers(1, 4))
    num_relations = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    size = (num_classes + num_relations) * (dim + 1)
    start = draw(st.lists(SCATTER_VALUES, min_size=size, max_size=size))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["class_centers", "relation_vectors"]))
        bound = num_classes if name == "class_centers" else num_relations
        rows = draw(st.lists(st.integers(0, bound - 1), max_size=6))
        values = draw(st.lists(SCATTER_VALUES, min_size=len(rows) * dim,
                               max_size=len(rows) * dim))
        calls.append((name, np.array(rows, dtype=int),
                      np.array(values).reshape(len(rows), dim)))
    return num_classes, num_relations, dim, np.array(start), calls


@given(scatter_cases())
@example((1, 1, 1, np.array([1e300, 0.0, 0.0, 0.0]), [
    ("class_centers", np.array([0, 0]), np.array([[-1e300], [1.0]]))]))
def test_add_rows_is_bitwise_2d_add_at(case):
    """The flat 1-D scatter adds to every cell in np.add.at's order, over
    repeated rows, empty batches and signed zeros, in both row blocks."""
    num_classes, num_relations, dim, start, calls = case
    state = EmbeddingState(np.zeros((num_classes, dim)), np.zeros(num_classes),
                           np.zeros((num_relations, dim)),
                           np.zeros(num_relations))
    acc = GradientAccumulator.zeros_like(state)
    expected = GradientAccumulator.zeros_like(state)
    acc.flat[...] = start
    expected.flat[...] = start
    for name, rows, values in calls:
        base = acc.centers_base if name == "class_centers" else acc.relations_base
        _add_rows(acc, base, rows, values)
        np.add.at(getattr(expected, name), rows, values)
    assert acc.flat.tobytes() == expected.flat.tobytes()


# --- kernel-level golden digests -------------------------------------------------

# One seeded batch per kernel that reaches every branch: repeated rows, a row
# whose two centers coincide after translation (dist = 0, the zero branch of
# the unit direction), zero raw radii and slacks of both signs (np.sign = 0)
# and negative raw values.  Columns are in each kernel's argument order.
CLASS_PAIR = (np.array([0, 0, 5, 2, 3, 1, 4, 0]),
              np.array([5, 5, 0, 2, 1, 3, 4, 2]))
ROLE = (np.array([1, 1, 3, 0, 4, 5, 2]),
        np.array([0, 0, 1, 2, 1, 2, 0]),
        np.array([2, 2, 4, 5, 3, 0, 1]))
KERNEL_COLUMNS = {
    "nf1": CLASS_PAIR,
    "nf2": CLASS_PAIR + (np.array([1, 2, 0, 2, 5, 5, 4, 3]),),
    "nf3": ROLE,
    "nf4": (ROLE[1], ROLE[0], ROLE[2]),
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
        values, hinges = term_batch(key, state, KERNEL_COLUMNS[key], 0.1,
                                    variant, acc, sigma_reg)
        for array in (values, hinges, acc.flat):
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(KERNEL_COLUMNS))
def test_kernel_bytes_are_pinned(key):
    """Each kernel's values, hinges and gradient bytes on the edge-case batch
    are pinned: a changed sign, term order or zero branch changes them."""
    assert _kernel_digest(key) == KERNEL_DIGESTS[key]
