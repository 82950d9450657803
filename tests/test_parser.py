from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from geodl.normalize import normalize
from geodl.parser import (
    Atomic,
    BOTTOM,
    Bottom,
    EquivalentClasses,
    Existential,
    Intersection,
    Nominal,
    ParseError,
    SubClassOf,
    TOP,
    _check_name,
    concept_to_text,
    parse_axiom,
    parse_concept,
    parse_ontology,
)
from geodl.synthetic import random_raw_lines, surrogate_lines
from reference import axiom_to_text, concept_size


def test_atomic():
    assert parse_concept("A") == Atomic("A")


def test_nested_intersection_existential():
    expected = Intersection(Atomic("A"), Existential("R", Atomic("B")))
    assert parse_concept("and(A,some(R,B))") == expected


def test_unmatched_paren_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_concept("and(A")
    assert err.value.line == 1
    assert err.value.col >= 6


def test_top_bottom_are_variants():
    assert parse_concept("top") is TOP
    assert parse_concept("bottom") is BOTTOM
    with pytest.raises(ValueError):
        Atomic("top")


def test_keywords_without_paren_are_names():
    assert parse_concept("and") == Atomic("and")
    assert parse_concept("some(R,and)") == Existential("R", Atomic("and"))


def test_whitespace_insensitive():
    spaced = parse_axiom("subClassOf( and( A , B ) , some( R , C ) )")
    tight = parse_axiom("subClassOf(and(A,B),some(R,C))")
    assert spaced == tight


def test_nominal():
    assert parse_concept("nominal(jane)") == Nominal("jane")


def test_disjoint_desugars():
    ax = parse_axiom("disjointWith(A,B)")
    assert ax == SubClassOf(Intersection(Atomic("A"), Atomic("B")), BOTTOM)


def test_equivalent_classes():
    ax = parse_axiom("equivalentClasses(A,and(B,C))")
    assert isinstance(ax, EquivalentClasses)


def test_recursion_limit():
    deep = "and(A," * 70 + "B" + ")" * 70
    with pytest.raises(ParseError, match="nesting"):
        parse_concept(deep)


def _nested(levels):
    return "and(A," * levels + "B" + ")" * levels


def test_nesting_limit_boundary():
    """A concept nests 63 levels below its root and no deeper; an axiom's
    operands start one level down, so it holds 62.  Every refusal is the
    nesting error at the character cursor's line and column."""
    message = "nesting deeper than the limit of 64"
    assert parse_concept(_nested(63)) == reference.parse_concept(_nested(63),
                                                                 max_depth=64)
    expected = _outcome(reference.parse_concept, _nested(64), max_depth=64,
                        line=5)
    assert message in expected[0]
    assert _outcome(parse_concept, _nested(64), line=5) == expected
    ok, deep = (f"subClassOf(X,{_nested(n)})" for n in (62, 63))
    assert parse_axiom(ok) == reference.parse_axiom(ok, max_depth=64)
    assert parse_ontology(["subClassOf(A,B)", ok])[0][1] == parse_axiom(ok)
    expected = _outcome(reference.parse_axiom, deep, max_depth=64, line=2)
    assert message in expected[0]
    assert _outcome(parse_axiom, deep, line=2) == expected
    assert _outcome(parse_ontology, ["subClassOf(A,B)", deep]) == expected
    # far past the limit, the refusal comes before Python's recursion limit
    assert message in _outcome(parse_concept, _nested(1500))[0]


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_concept("A B")
    with pytest.raises(ParseError):
        parse_axiom("subClassOf(A,B) extra")


def test_bad_axiom_head():
    with pytest.raises(ParseError, match="subClassOf"):
        parse_axiom("unionOf(A,B)")


def test_parse_ontology_two_lines():
    axioms, stats = parse_ontology(["subClassOf(A,B)", "subClassOf(B,C)"])
    assert len(axioms) == 2
    assert stats.axiom_count == 2
    assert stats.class_count == 3
    assert stats.relation_count == 0
    assert stats.individual_count == 0


def test_parse_ontology_empty():
    axioms, stats = parse_ontology([])
    assert axioms == []
    assert stats.axiom_count == 0
    assert stats.class_count == 0
    assert stats.relation_count == 0
    assert stats.individual_count == 0


def test_parse_ontology_comments_and_blanks():
    lines = [
        "# a comment",
        "",
        "subClassOf(A,B)  # trailing comment",
        "   ",
        "subClassOf(A,some(R,nominal(x)))",
    ]
    axioms, stats = parse_ontology(lines)
    assert len(axioms) == 2
    assert stats.class_count == 2
    assert stats.relation_count == 1
    assert stats.individual_count == 1


def test_parse_ontology_error_carries_line_number():
    lines = ["subClassOf(A,B)", "subClassOf(A,", "subClassOf(B,C)"]
    with pytest.raises(ParseError) as err:
        parse_ontology(lines)
    assert err.value.line == 2


def test_flat_lines_share_one_existential_per_role_and_filler():
    lines = ["subClassOf(A,some(R,B))", "disjointWith(C,some(R,B))",
             "equivalentClasses(D,some(R,B))", "subClassOf(A,some(R,C))",
             "subClassOf(A,some(S,B))"]
    axioms, stats = parse_ontology(lines)
    shared = axioms[0].sup
    assert axioms[1].sub.right is shared and axioms[2].b is shared
    assert axioms[3].sup is not shared and axioms[4].sup is not shared
    assert axioms == [parse_axiom(line) for line in lines]
    assert astuple(stats) == reference.ontology_counts(lines)


def test_existential_still_checks_its_role():
    for role in ("", "a b", "r,s", "r(", "r#"):
        with pytest.raises(ValueError, match="role name"):
            Existential(role, Atomic("B"))


def test_parse_is_pure():
    text = "subClassOf(and(A,B),some(R,C))"
    assert parse_axiom(text) == parse_axiom(text)


names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in ("top", "bottom")
)


def concepts(max_leaves=12):
    base = st.one_of(
        names.map(Atomic),
        st.just(TOP),
        st.just(BOTTOM),
        names.map(Nominal),
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: Intersection(*p)),
            st.tuples(names, children).map(lambda p: Existential(*p)),
        ),
        max_leaves=max_leaves,
    )


@given(concepts())
def test_print_then_parse_is_identity(concept):
    assert parse_concept(concept_to_text(concept)) == concept


@given(concepts())
def test_parse_then_print_is_identity_on_canonical_text(concept):
    text = concept_to_text(concept)
    assert concept_to_text(parse_concept(text)) == text


@given(st.tuples(concepts(6), concepts(6)))
def test_axiom_round_trip(pair):
    ax = SubClassOf(*pair)
    assert parse_axiom(axiom_to_text(ax)) == ax
    eq = EquivalentClasses(*pair)
    assert parse_axiom(axiom_to_text(eq)) == eq


@given(concepts())
def test_concept_size_counts_nodes(concept):
    assert concept_size(concept) >= 1
    text = concept_to_text(concept)
    # every structural node shows up as a head keyword or a leaf
    assert concept_size(concept) <= len(text)


def test_stats_counts_distinct_entities():
    _, stats = parse_ontology(
        ["subClassOf(A,some(R,A))", "subClassOf(A,some(R,B))"]
    )
    assert stats.class_count == 2
    assert stats.relation_count == 1


# --- error columns are positions in the file's line ---------------------------


@pytest.mark.parametrize("line, message", [
    ("   subClassOf(A,)", "col 17: expected a name, found ')'"),
    ("\tsubClassOf(A,B  \u3000 # no closing paren",
     "col 16: expected ')', found end of line"),
    (" subClassOf(A,B) C\u00a0 # note", "col 18: trailing input 'C'"),
], ids=["indent", "end-of-line", "trailing"])
def test_error_column_is_position_in_file_line(line, message):
    with pytest.raises(ParseError) as err:
        parse_ontology(["subClassOf(A,B)", line])
    assert str(err.value) == f"line 2, {message}"


# --- the token cursor against the character cursor it replaced ----------------

_SEPARATORS = st.sampled_from(
    ["", "", " ", "  ", "\t", "\u00a0", "\u3000", "\u2003", "\x1c", "\x85"])
# names include the keywords, which are names unless a '(' follows
_NAMES = st.sampled_from(["A", "Cat", "r", "x_1", "\u00e9t\u00e9", "and", "some",
                          "nominal"])
_WORDS = st.one_of(_NAMES, st.sampled_from([
    "top", "bottom", "and(", "some(", "nominal(", "top(", "bottom(",
    "subClassOf", "equivalentClasses(", "disjointWith", "(", ")", ",", "#",
]))
_HEADS = st.sampled_from(["subClassOf", "equivalentClasses", "disjointWith"])
_TREES = st.recursive(
    st.one_of(_NAMES.map(Atomic), st.sampled_from([TOP, BOTTOM]), _NAMES.map(Nominal)),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: Intersection(*p)),
        st.tuples(_NAMES, children).map(lambda p: Existential(*p)),
    ),
    max_leaves=8,
)


def _tokens(c):
    if isinstance(c, Intersection):
        return ["and", "(", *_tokens(c.left), ",", *_tokens(c.right), ")"]
    if isinstance(c, Existential):
        return ["some", "(", c.role, ",", *_tokens(c.filler), ")"]
    if isinstance(c, Nominal):
        return ["nominal", "(", c.individual, ")"]
    return [concept_to_text(c)]


@st.composite
def _deep_trees(draw):
    """A tree inside 58 to 66 levels of ``and`` and ``some``, so that its
    nesting ends on either side of the parser's limit of 64 levels."""
    tree = draw(_TREES)
    for _ in range(draw(st.integers(58, 66))):
        name = draw(_NAMES)
        tree = draw(st.sampled_from([Intersection(Atomic(name), tree),
                                     Intersection(tree, Atomic(name)),
                                     Existential(name, tree)]))
    return tree


@st.composite
def _lines(draw, trees=_TREES, concept=False):
    """An axiom's tokens over *trees*, or a *concept*'s, with a few dropped
    or inserted, or a token soup, joined by whitespace runs that may be
    empty."""
    if draw(st.integers(0, 3)) == 0:
        toks = draw(st.lists(_WORDS, max_size=12))
    else:
        toks = (_tokens(draw(trees)) if concept else
                [draw(_HEADS), "(", *_tokens(draw(trees)), ",",
                 *_tokens(draw(trees)), ")"])
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(toks)))
            if k < len(toks) and draw(st.booleans()):
                del toks[k]
            else:
                toks.insert(k, draw(_WORDS))
    seps = draw(st.lists(_SEPARATORS, min_size=len(toks) + 1, max_size=len(toks) + 1))
    return "".join(sep + tok for sep, tok in zip(seps, toks)) + seps[-1]


# the flat lines' names: the reserved words and the keywords are names too,
# in class and in role positions
_FLAT_NAMES = st.sampled_from(["A", "Cat", "\u00e9t\u00e9", "\u732b", "top",
                               "bottom", "and", "some", "nominal"])


@st.composite
def _flat_lines(draw):
    """``head(A,B)`` or ``head(A,some(R,B))`` with no separators, the lines
    ``parse_ontology`` reads with one regex match."""
    head, first, second = draw(_HEADS), draw(_FLAT_NAMES), draw(_FLAT_NAMES)
    if draw(st.booleans()):
        second = f"some({draw(_FLAT_NAMES)},{second})"
    return f"{head}({first},{second})"


def _outcome(parse, text, **kwargs):
    try:
        return parse(text, **kwargs)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def _first_axiom(raw):
    return parse_ontology([raw])[0][0]


# lines whose nesting ends on either side of the limit, at varied columns
_DEEP_LINES = st.one_of(_lines(_deep_trees()), _lines(_deep_trees(), concept=True))


@settings(max_examples=400)
@given(st.one_of(_lines(), _flat_lines(), _DEEP_LINES),
       st.sampled_from(["", "  ", "\u3000"]), st.sampled_from(["", " # note", "#"]))
@example("disjointWith(top,some(bottom,nominal))", "", "")
def test_token_cursor_matches_character_cursor(line, indent, comment):
    """On stripped text both cursors give equal trees or equal errors, the
    character cursor at the limit of 64 levels.  In a file, the line is read
    as drawn and again with the indent and comment, and an error column is
    the stripped text's column plus the leading whitespace; a flat line as
    drawn takes ``parse_ontology``'s regex path, whose trees must be the
    cursor's."""
    text = line.strip()
    for ours, theirs in ((parse_axiom, reference.parse_axiom),
                         (parse_concept, reference.parse_concept)):
        expected = _outcome(theirs, text, max_depth=64, line=3)
        assert _outcome(ours, text, line=3) == expected
    for raw in (line, indent + line + comment):
        cut = raw.split("#", 1)[0]
        if not cut.strip():
            continue
        lead = len(cut) - len(cut.lstrip())
        expected = _outcome(reference.parse_axiom, cut.strip(), max_depth=64)
        got = _outcome(_first_axiom, raw)
        if isinstance(expected, tuple):
            message = expected[0].split(": ", 1)[1]
            col = expected[2] + lead
            expected = (f"line 1, col {col}: {message}", 1, col)
        assert got == expected


@settings(max_examples=300)
@given(st.lists(st.one_of(st.text(st.characters(exclude_categories=())), _lines(),
                          _DEEP_LINES),
                max_size=4))
def test_parse_ontology_raises_only_parse_error(lines):
    try:
        axioms, stats = parse_ontology(lines)
    except ParseError as exc:
        assert 1 <= exc.line <= len(lines) and exc.col >= 1
    else:
        assert stats.axiom_count == len(axioms) <= len(lines)


# --- the name tables' counts against a walk over the trees --------------------


@st.composite
def _axiom_lines(draw):
    """A well-formed axiom over the keyword-laden trees, its tokens joined
    by whitespace runs that may be empty, maybe with a comment."""
    toks = [draw(_HEADS), "(", *_tokens(draw(_TREES)), ",",
            *_tokens(draw(_TREES)), ")"]
    seps = draw(st.lists(_SEPARATORS, min_size=len(toks) + 1, max_size=len(toks) + 1))
    return ("".join(sep + tok for sep, tok in zip(seps, toks)) + seps[-1]
            + draw(st.sampled_from(["", " # note", "#"])))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.one_of(_axiom_lines(), _flat_lines(),
                          st.sampled_from(["", "  ", "# only a comment"])),
                max_size=8))
def test_stats_match_a_name_walk(seed, extra):
    """Every production, top, bottom and nominals (``random_raw_lines``),
    keywords and reserved words used as names on flat lines and on spaced or
    commented ones: the counts are those of a walk over the trees."""
    lines = random_raw_lines(np.random.default_rng(seed), n_axioms=20) + extra
    _, stats = parse_ontology(lines)
    assert astuple(stats) == reference.ontology_counts(lines)


@pytest.mark.parametrize("lines, counts", [
    (["subClassOf(some,and)"], (1, 2, 0, 0)),
    (["subClassOf(nominal,some(some,nominal))"], (1, 1, 1, 0)),
    (["subClassOf( and , some( and , nominal ) )"], (1, 2, 1, 0)),
    (["disjointWith(nominal(some),and(and,some))"], (1, 2, 0, 1)),
    (["subClassOf(top,some(top,bottom))", "equivalentClasses(nominal(top),bottom)",
      "subClassOf(nominal(nominal),some(nominal,nominal))"], (3, 1, 2, 2)),
], ids=["flat", "flat-some", "spaced", "nominal", "reserved"])
def test_stats_count_keywords_without_paren_as_names(lines, counts):
    _, stats = parse_ontology(lines)
    assert astuple(stats) == counts == reference.ontology_counts(lines)


def test_stats_match_a_name_walk_on_the_surrogate():
    lines = surrogate_lines(2000, seed=0)
    _, stats = parse_ontology(lines)
    assert astuple(stats) == reference.ontology_counts(lines)
    assert stats.class_count >= 2000


def test_check_name_rejects_exactly_the_old_rule():
    rejected = []
    for cp in range(0x110000):
        try:
            _check_name(chr(cp), "name")
        except ValueError:
            rejected.append(cp)
    assert rejected == [cp for cp in range(0x110000)
                        if reference.name_char_rejected(chr(cp))]


# --- read time, shown in the benchmark table of every test run ----------------


def test_bench_parse_normalize_2k(benchmark):
    """Reading the seeded 2000-class surrogate: parse, then normalize."""
    lines = surrogate_lines(2000, seed=0)
    onto = benchmark.pedantic(lambda: normalize(parse_ontology(lines)[0]),
                              rounds=5, iterations=1)
    assert len(onto.classes) >= 2000


def test_bench_subclass_pairs_2k(benchmark, tmp_path):
    """The ``--filtered`` read of the 2000-class surrogate's split
    ``train.el``: its subclass pairs by the pair rule, with their NF1s."""
    from geodl.cli import _subclass_pairs, main

    source = tmp_path / "in.el"
    source.write_text("\n".join(surrogate_lines(2000, seed=0)) + "\n")
    assert main(["split", str(source), str(tmp_path / "split")]) == 0
    train = tmp_path / "split" / "train.el"
    name_to_id = normalize(parse_ontology(
        train.read_text().splitlines())[0]).class_index
    pairs = benchmark.pedantic(
        lambda: [ax for _, _, ax in _subclass_pairs(str(train), name_to_id) if ax],
        rounds=5, iterations=1)
    assert len(pairs) >= 3000
