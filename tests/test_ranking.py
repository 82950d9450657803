import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import reference
from conftest import make_state
from test_baselines import oracle_score, ranking_scores
from geodl import baselines
from geodl.baselines import SUBCLASS_RELATION, BaselineState
from geodl.model import EmbeddingState, NumericalError
from geodl.normalize import NF1
from geodl.ranking import (
    DIRECTIONS,
    _ball_scorer,
    _baseline_scorer,
    baseline_evaluate,
    eligible_candidates,
    evaluate,
    write_report,
)


def point_state(points, radii=None):
    pts = np.array(points, dtype=float)
    r = np.array(radii if radii is not None else [0.1] * len(pts))
    return EmbeddingState(pts, r, np.zeros((0, pts.shape[1])), np.zeros(0))


def brute_force_rank(scores, candidate_ids, target_id, ascending=True):
    """Materialize and sort every (score, id) pair, then find the target."""
    key = [(s if ascending else -s, i) for s, i in zip(scores, candidate_ids)]
    ordered = sorted(key)
    for position, (_, cid) in enumerate(ordered, start=1):
        if cid == target_id:
            return position
    raise AssertionError("target not present")


def rank_of(test, state, candidates, direction="sub", adjust_radius=False):
    """The rank of one test axiom, through the ranking the CLI runs."""
    return evaluate([test], state, candidates, direction=direction,
                    adjust_radius=adjust_radius).ranks[0]


# --- one test at a time --------------------------------------------------------


def test_rank_one_spec_example():
    # d at the origin, candidates A,B,C at distances 1,2,3; test pair (A, d)
    state = point_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    candidates = np.array([0, 1, 2])
    assert rank_of(NF1(0, 3), state, candidates) == 1
    assert rank_of(NF1(1, 3), state, candidates) == 2
    assert rank_of(NF1(2, 3), state, candidates) == 3


def test_rank_one_single_candidate():
    state = point_state([[1.0, 0.0], [0.0, 0.0]])
    assert rank_of(NF1(0, 1), state, np.array([0])) == 1


def test_rank_one_all_ties_break_by_index():
    state = point_state([[1.0, 0.0]] * 4 + [[0.0, 0.0]])
    candidates = np.array([0, 1, 2, 3])
    for target in range(4):
        assert rank_of(NF1(target, 4), state, candidates) == target + 1


def test_rank_one_missing_target_errors():
    state = point_state([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        rank_of(NF1(0, 1), state, np.array([1]))


def test_rank_one_direction_swap():
    # distances measured from the subclass when direction = sup
    state = point_state([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    candidates = np.array([1, 2])
    assert rank_of(NF1(0, 1), state, candidates, direction="sup") == 1
    assert rank_of(NF1(0, 2), state, candidates, direction="sup") == 2


def test_rank_one_brute_force_equivalence(rng):
    for _ in range(300):
        n = int(rng.integers(2, 30))
        state = point_state(rng.normal(size=(n + 1, 3)))
        candidates = np.arange(n)
        target = int(rng.integers(0, n))
        got = rank_of(NF1(target, n), state, candidates)
        dists = np.linalg.norm(
            state.class_centers[candidates] - state.class_centers[n], axis=1
        )
        want = brute_force_rank(dists, candidates, target)
        assert got == want


def test_rank_monotone_in_candidates(rng):
    for _ in range(100):
        n = int(rng.integers(3, 20))
        state = point_state(rng.normal(size=(n + 2, 3)))
        base = np.arange(n)
        target = int(rng.integers(0, n))
        r1 = rank_of(NF1(target, n + 1), state, base)
        r2 = rank_of(NF1(target, n + 1), state, np.append(base, n))
        assert r2 >= r1


def test_rank_invariant_under_monotone_transform(rng):
    # distances d and d**2 from a source at the origin order alike
    for _ in range(100):
        n = int(rng.integers(2, 40))
        dists = rng.normal(size=n) ** 2
        target = int(rng.integers(0, n))
        ranks = [
            rank_of(NF1(target, n), point_state(np.append(x, 0.0)[:, None]),
                     np.arange(n))
            for x in (dists, dists**2)
        ]
        assert ranks[0] == ranks[1]


def test_radius_adjusted_flag_changes_order():
    # same centers, radically different radii
    state = point_state(
        [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], radii=[0.9, 0.1, 0.5]
    )
    candidates = np.array([0, 1])
    plain = rank_of(NF1(0, 2), state, candidates)
    adjusted = rank_of(NF1(0, 2), state, candidates, adjust_radius=True)
    assert plain == 1  # tie broken by index
    assert adjusted == 2  # big ball cannot fit inside the source ball


# --- evaluate ----------------------------------------------------------------


def test_metrics_on_fixed_ranks():
    from geodl.ranking import _aggregate

    report = _aggregate([1, 5, 200], candidate_count=500,
                        direction="sub", filtered=False)
    assert report.hits1 == pytest.approx(1 / 3)
    assert report.hits10 == pytest.approx(2 / 3)
    assert report.hits100 == pytest.approx(2 / 3)
    assert report.median_rank == 5
    assert report.p90_rank == 200


def test_single_rank_one_report():
    from geodl.ranking import _aggregate

    report = _aggregate([1], candidate_count=10, direction="sub", filtered=False)
    assert report.hits1 == report.hits10 == report.hits100 == 1.0
    assert report.median_rank == 1
    assert report.p90_rank == 1


def test_equal_ranks_step_function():
    from geodl.ranking import _aggregate

    report = _aggregate([10] * 7, candidate_count=50,
                        direction="sub", filtered=False)
    assert report.hits1 == 0.0
    assert report.hits10 == 1.0
    assert report.hits100 == 1.0


def test_evaluate_excludes_source_and_orders():
    state = point_state(
        [[0.1, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 0.0]]
    )
    tests = [NF1(0, 3)]
    report = evaluate(tests, state, np.array([0, 1, 2, 3]))
    assert report.ranks == [1]
    assert report.candidate_count == 4


def test_evaluate_empty_tests_error():
    state = point_state([[0.0, 0.0]])
    with pytest.raises(ValueError):
        evaluate([], state, np.array([0]))


def test_evaluate_filtered_removes_known_positives():
    # candidates 0,1,2; test (2, 3); class 1 is a known subclass of 3 and
    # closer to the source, so filtering improves the rank
    state = point_state(
        [[3.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
    )
    tests = [NF1(2, 3)]
    universe = np.array([0, 1, 2])
    unfiltered = evaluate(tests, state, universe)
    filtered = evaluate(tests, state, universe, filter_known=[NF1(1, 3)])
    assert unfiltered.ranks == [2]
    assert filtered.ranks == [1]
    assert filtered.filtered


def test_random_embedding_median_near_half(rng):
    n_candidates = 200
    n_tests = 60
    medians = []
    for seed in range(20):
        local = np.random.default_rng(seed)
        state = point_state(local.normal(size=(n_candidates + 1, 8)))
        source = n_candidates
        tests = [
            NF1(int(local.integers(0, n_candidates)), source)
            for _ in range(n_tests)
        ]
        report = evaluate(tests, state, np.arange(n_candidates))
        medians.append(report.median_rank)
    mean_median = float(np.mean(medians))
    assert abs(mean_median - n_candidates / 2) <= 0.15 * n_candidates


def test_eligible_candidates_filters_reserved_names():
    names = ["A", "__nf_0", "nominal(x)", "top", "B"]
    assert list(eligible_candidates(names)) == [0, 3, 4]


# --- baseline ranking ---------------------------------------------------------


def test_baseline_perfect_model_hits1():
    # entity 0 translated by the subclass relation lands exactly on entity 2
    ents = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
    rels = np.array([[1.0, 1.0]])
    state = BaselineState("transe", ents, rels)
    report = baseline_evaluate(
        [NF1(0, 2)], state, np.array([0, 1]), sub_relation=0
    )
    assert report.hits1 == 1.0
    assert report.ranks == [1]


def test_baseline_direction_swap_uses_tail_scores():
    # entity 2 translated by the subclass relation lands on entity 1, so in
    # the swapped direction candidate tails are ranked for head 2
    ents = np.array([[9.0, 9.0], [1.0, 1.0], [0.0, 0.0]])
    rels = np.array([[1.0, 1.0]])
    state = BaselineState("transe", ents, rels)
    report = baseline_evaluate(
        [NF1(2, 1)], state, np.array([0, 1]), direction="sup", sub_relation=0
    )
    assert report.ranks == [1]
    assert report.direction == "sup"


def test_baseline_random_embedding_median_near_half():
    n_candidates = 100
    medians = []
    for seed in range(20):
        local = np.random.default_rng(seed)
        state = BaselineState(
            "transe",
            local.normal(size=(n_candidates + 1, 6)),
            local.normal(size=(1, 6)),
        )
        tests = [NF1(int(local.integers(0, n_candidates)), n_candidates)
                 for _ in range(40)]
        report = baseline_evaluate(
            tests, state, np.arange(n_candidates), sub_relation=0
        )
        medians.append(report.median_rank)
    mean_median = float(np.mean(medians))
    assert abs(mean_median - n_candidates / 2) <= 0.15 * n_candidates


def test_baseline_brute_force_equivalence(rng):
    for _ in range(100):
        n = int(rng.integers(2, 25))
        ents = rng.normal(size=(n + 1, 4))
        rels = rng.normal(size=(1, 4))
        state = BaselineState("transe", ents, rels)
        target = int(rng.integers(0, n))
        cands = np.arange(n)
        got = baseline_evaluate(
            [NF1(target, n)], state, cands, sub_relation=0
        ).ranks[0]
        scores = ranking_scores(state, 0, cands, n, as_head=True)
        assert got == brute_force_rank(scores, cands, target, ascending=False)


# --- report output -------------------------------------------------------------


def test_write_report_seven_rows_and_sidecar(tmp_path):
    from geodl.ranking import _aggregate

    report = _aggregate([1, 5, 200], 500, "sub", False)
    path = tmp_path / "report.tsv"
    write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# geodl rank report direction=sub filtered=no")
    metric_rows = [l for l in lines if not l.startswith("#")]
    assert len(metric_rows) == 7
    names = [row.split("\t")[0] for row in metric_rows]
    assert names == ["hits1", "hits10", "hits100", "median_rank",
                     "p90_rank", "candidate_count", "test_count"]
    ranks = (tmp_path / "report.tsv.ranks").read_text().splitlines()
    assert ranks == ["1", "5", "200"]


# --- the shared ranking core ------------------------------------------------

GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def ranking_cases(draw):
    """Few classes on a coarse grid, so equal scores are common: duplicated
    points and points at equal distance from a source.  Grid values keep
    every score exact, so the scalar and vectorized paths agree bit for bit."""
    n = draw(st.integers(2, 10))
    dim = draw(st.integers(1, 3))
    points = draw(arrays(float, (n, dim), elements=GRID))
    ids = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    universe = draw(st.permutations(ids))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        target = draw(st.sampled_from(ids))
        source = draw(st.integers(0, n - 1).filter(lambda s: s != target))
        pairs.append((target, source))
    known = None
    if draw(st.booleans()):
        ints = st.integers(0, n - 1)
        known = draw(st.lists(st.tuples(ints, ints), max_size=12))
        known += [p for p in pairs if draw(st.booleans())]  # targets themselves
        known += [(s, s) for _, s in pairs if draw(st.booleans())]  # sources
    return points, np.array(universe), pairs, known, draw(st.sampled_from(DIRECTIONS))


def as_axioms(pairs, direction):
    """(target, source) pairs as test axioms of the given direction."""
    if direction == "sub":
        return [NF1(t, s) for t, s in pairs]
    return [NF1(s, t) for t, s in pairs]


def brute_force_ranks(pairs, universe, known, score_of, ascending):
    """Build each test's candidate list explicitly and rank within it."""
    ranks = []
    for target, source in pairs:
        dropped = {source} | {t for t, s in known or () if s == source} - {target}
        cands = np.array([c for c in universe if c not in dropped])
        scores = np.array([score_of(source, c) for c in cands])
        ranks.append(brute_force_rank(scores, cands, target, ascending))
    return ranks


@given(ranking_cases(), arrays(float, 10, elements=GRID), st.booleans())
def test_core_matches_brute_force_ball(case, radii, adjust_radius):
    points, universe, pairs, known, direction = case
    n = len(points)
    state = point_state(points, radii[:n])

    def score_of(source, cand):
        dist = float(np.linalg.norm(points[cand] - points[source]))
        if adjust_radius:
            slack = abs(radii[cand]) - abs(radii[source])
            dist = dist + (slack if direction == "sub" else -slack)
        return dist

    report = evaluate(
        as_axioms(pairs, direction), state, universe, direction=direction,
        adjust_radius=adjust_radius,
        filter_known=None if known is None else as_axioms(known, direction),
    )
    assert report.ranks == brute_force_ranks(
        pairs, universe, known, score_of, ascending=True)


@given(ranking_cases(), st.sampled_from(baselines.MODELS),
       arrays(float, (1, 3), elements=GRID), st.integers(0, 2),
       st.sampled_from([-1.0, 1.0]))
def test_core_matches_brute_force_baselines(case, model, rel, axis, sign):
    points, universe, pairs, known, direction = case
    dim = points.shape[1]
    normals = None
    if model == "transh":  # an axis-aligned unit normal keeps projections exact
        normals = np.zeros((1, dim))
        normals[0, axis % dim] = sign
    state = baselines.BaselineState(model, points, rel[:, :dim], normals)

    def score_of(source, cand):
        if direction == "sub":
            return oracle_score(cand, 0, source, state)
        return oracle_score(source, 0, cand, state)

    report = baseline_evaluate(
        as_axioms(pairs, direction), state, universe, direction=direction,
        filter_known=None if known is None else as_axioms(known, direction),
        sub_relation=0,
    )
    assert report.ranks == brute_force_ranks(
        pairs, universe, known, score_of, ascending=False)


def test_core_rejects_target_outside_candidates():
    state = point_state([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="not among the candidates"):
        evaluate([NF1(2, 0)], state, np.array([0, 1]))
    with pytest.raises(ValueError, match="not among the candidates"):
        evaluate([NF1(1, 1)], state, np.array([0, 1, 2]))


def test_evaluate_non_finite_score_raises():
    # a NaN center used to rank its test 1 because nothing compares below NaN
    state = point_state([[0.0, 0.0], [np.nan, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(NumericalError):
        evaluate([NF1(1, 0)], state, np.array([1, 2, 3]))
    huge = point_state([[0.0, 0.0], [1e300, 0.0], [2.0, 0.0]])  # overflows
    with pytest.raises(NumericalError):
        evaluate([NF1(2, 0)], huge, np.array([1, 2]))


@pytest.mark.parametrize("model", baselines.MODELS)
def test_baseline_evaluate_non_finite_score_raises(model):
    ents = np.array([[0.0, 1.0], [np.nan, 0.0], [2.0, 0.0], [3.0, 0.0]])
    normals = np.array([[1.0, 0.0]]) if model == "transh" else None
    state = baselines.BaselineState(model, ents, np.ones((1, 2)), normals)
    for direction in DIRECTIONS:
        with pytest.raises(NumericalError):
            baseline_evaluate([NF1(2, 0)], state, np.arange(4),
                              direction=direction, sub_relation=0)


# --- the banded core against full score rows ----------------------------------

RANKED_MODELS = ("ball",) + baselines.MODELS


def nudge(x, steps):
    """*x* moved *steps* ulps up (down when negative)."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        x = np.nextafter(x, toward)
    return x


def ranked_state(model, rows, radii, rng):
    """A ball state from *rows* and *radii*, or a baseline state from *rows*
    with a random subclass relation (and unit normal, for TransH)."""
    if model == "ball":
        return point_state(rows, radii)
    dim = rows.shape[1]
    normals = None
    if model == "transh":
        normals = rng.normal(size=(1, dim))
        normals /= np.linalg.norm(normals)
    return BaselineState(model, rows, rng.normal(size=(1, dim)), normals)


def both_ranks(model, tests, state, universe, direction, adjust_radius, known):
    """(ranks of geodl.ranking, ranks of the full-row reference); a
    NumericalError stands in for the ranks of a side that raised it."""
    out = []
    for ranked in ((evaluate, baseline_evaluate),
                   (reference.ball_ranks, reference.baseline_ranks)):
        fn = ranked[model != "ball"]
        kwargs = ({"adjust_radius": adjust_radius} if model == "ball"
                  else {"sub_relation": 0})
        try:
            got = fn(tests, state, universe, direction=direction,
                     filter_known=known, **kwargs)
        except NumericalError:
            got = NumericalError
        out.append(getattr(got, "ranks", got))
    return out


@pytest.mark.parametrize("model", RANKED_MODELS)
def test_exact_pairs_have_full_row_bits(model, rng):
    """Scored in any grouping -- a whole row, one pair at a time, or
    shuffled pairs of many sources -- a pair's exact score has the bits of
    its cell in the full-row reference."""
    n = 40
    state = ranked_state(model, rng.normal(size=(n, 50)), rng.normal(size=n), rng)
    ids, sources = np.arange(n), rng.permutation(n)[:7]
    for direction in DIRECTIONS:
        for adjust_radius in ((False, True) if model == "ball" else (False,)):
            if model == "ball":
                scorer = _ball_scorer(state, ids, sources, direction, adjust_radius)
                row_of = reference.ball_rows(state, ids, direction, adjust_radius)
            else:
                scorer = _baseline_scorer(state, 0, ids, sources, direction == "sub")
                row_of = reference.baseline_rows(state, 0, ids, direction == "sub")
            want = np.array([row_of(s) for s in sources])
            si, cj = np.divmod(rng.permutation(want.size), n)
            for k in range(len(sources)):
                assert np.array_equal(scorer.exact(k, slice(None)), want[k])
                assert all(scorer.exact(k, [j])[0] == want[k, j] for j in ids)
            assert np.array_equal(scorer.exact(si, cj), want[si, cj])


@st.composite
def near_tie_cases(draw):
    """dim-50 continuous states with the band's hard cases built in: rows
    copied from a target row exactly (duplicated centers) or moved 1-4 ulps
    in a few coordinates and in the radius, so that candidates score at or a
    few ulps from a target's exact score, and one source holding many
    tests."""
    model = draw(st.sampled_from(RANKED_MODELS))
    direction = draw(st.sampled_from(DIRECTIONS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rows = rng.normal(size=(n, 50)) * scale
    radii = rng.normal(size=n) * scale
    for _ in range(draw(st.integers(0, 12))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[dst], radii[dst] = rows[src], radii[src]
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, 49))
            rows[dst, k] = nudge(rows[dst, k], draw(st.integers(-4, 4)))
        radii[dst] = nudge(radii[dst], draw(st.integers(-4, 4)))
    hub = draw(st.integers(0, n - 1))
    pairs = []
    for _ in range(draw(st.integers(1, 30))):
        source = hub if draw(st.booleans()) else draw(st.integers(0, n - 1))
        target = draw(st.integers(0, n - 1).filter(lambda t: t != source))
        pairs.append((target, source))
    known = None
    if draw(st.booleans()):
        known = [(int(t), int(s)) for t, s in rng.integers(0, n, (n, 2))]
        known += [p for p in pairs if draw(st.booleans())]
    adjust_radius = model == "ball" and draw(st.booleans())
    return (model, ranked_state(model, rows, radii, rng), rng.permutation(n),
            pairs, known, direction, adjust_radius)


@settings(max_examples=300)
@given(near_tie_cases())
def test_banded_ranks_equal_full_rows(case):
    model, state, universe, pairs, known, direction, adjust_radius = case
    got, want = both_ranks(
        model, as_axioms(pairs, direction), state, universe, direction,
        adjust_radius, None if known is None else as_axioms(known, direction))
    assert got == want


@pytest.mark.parametrize("filtered", [False, True])
def test_non_finite_dropped_candidate_raises(filtered):
    """A score that the ranking drops still raises, as a full row's check
    did: a filtered known target, or the source scored against itself."""
    nan = point_state([[0.0, 0.0], [np.nan, 0.0], [1.0, 0.0], [2.0, 0.0]])
    huge = point_state([[0.0, 0.0], [1e300, 0.0], [1.0, 0.0], [2.0, 0.0]])
    known = [NF1(1, 0)] if filtered else None
    for state in (nan, huge):
        with pytest.raises(NumericalError):
            evaluate([NF1(2, 0)], state, np.arange(4), filter_known=known)
    # DistMult's source scored against itself is the only one that overflows
    ents = np.array([[1e200, 1.0], [1e-10, 1.0], [1e-10, 2.0]])
    state = BaselineState("distmult", ents, np.ones((1, 2)))
    for direction in DIRECTIONS:
        tests = as_axioms([(1, 0)], direction)
        known = as_axioms([(2, 0)], direction) if filtered else None
        args = ("distmult", tests, state, np.arange(3), direction, False, known)
        assert both_ranks(*args) == [NumericalError, NumericalError]


@pytest.mark.parametrize("model", RANKED_MODELS)
def test_certification_limit_ranks_like_full_rows(model, rng):
    """Scaled from deep underflow to past overflow, across the certification
    limit, states rank like the full-row reference or raise where it does."""
    rows = rng.normal(size=(30, 50))
    radii = rng.normal(size=30)
    rows[1] = rows[0]  # a true tie
    state = ranked_state(model, rows, radii, rng)
    pairs = [(t, s) for t, s in rng.integers(0, 30, (40, 2)) if t != s]
    certified, raised = set(), set()
    # DistMult's bound grows as the square of the scale, so its limit is
    # crossed near 2^252, the distances' near 2^505; squares overflow past 2^511
    for power in np.concatenate([np.arange(-560, -520, 0.25),
                                 np.arange(250, 262, 0.25),
                                 np.arange(500, 515, 0.25)]).tolist():
        scaled = ranked_state(model, rows * 2.0 ** power, radii * 2.0 ** power,
                              np.random.default_rng(0))
        if model == "ball":
            scorer = _ball_scorer(scaled, np.arange(30), np.arange(30), "sub", True)
        else:
            scorer = _baseline_scorer(scaled, 0, np.arange(30), np.arange(30), True)
        certified |= set(np.isfinite(scorer.bound).tolist())
        for direction in DIRECTIONS:
            got, want = both_ranks(model, as_axioms(pairs, direction), scaled,
                                   np.arange(30), direction, True, None)
            assert got == want, (power, direction)
            raised.add(got is NumericalError)
    assert certified == raised == {True, False}


# --- ranking time, shown in the benchmark table of every test run --------------


def _bench_case(n_classes=2000, dim=50, n_tests=494, n_sources=260):
    """A seeded random 2000-class state with tests sharing sources the way
    held-out subclass pairs do, and a known set for filtered ranking."""
    rng = np.random.default_rng(0)
    sources = rng.choice(n_classes, size=n_sources, replace=False)
    tests = []
    for _ in range(n_tests):
        d = int(rng.choice(sources))
        c = int(rng.integers(0, n_classes - 1))
        tests.append(NF1(c + (c >= d), d))
    known = [NF1(int(c), int(d)) for c, d in rng.integers(0, n_classes, (5000, 2))]
    return rng, tests, known, np.arange(n_classes)


def test_bench_evaluate_2k(benchmark):
    rng, tests, known, universe = _bench_case()
    state = make_state(rng, num_classes=len(universe), num_relations=1, dim=50)
    report = benchmark.pedantic(
        evaluate, args=(tests, state, universe),
        kwargs={"filter_known": known}, rounds=3, iterations=1,
    )
    assert len(report.ranks) == len(tests)


def test_bench_evaluate_sup_radius_adjusted_2k(benchmark):
    rng, tests, known, universe = _bench_case()
    state = make_state(rng, num_classes=len(universe), num_relations=1, dim=50)
    report = benchmark.pedantic(
        evaluate, args=(tests, state, universe),
        kwargs={"direction": "sup", "adjust_radius": True}, rounds=3,
        iterations=1,
    )
    assert len(report.ranks) == len(tests)


def test_bench_baseline_evaluate_2k(benchmark):
    rng, tests, known, universe = _bench_case()
    state = baselines.initialize_baseline("transh", len(universe), 2, 50, rng)
    report = benchmark.pedantic(
        baseline_evaluate, args=(tests, state, universe),
        kwargs={"filter_known": known, "sub_relation": 1}, rounds=3,
        iterations=1,
    )
    assert len(report.ranks) == len(tests)
