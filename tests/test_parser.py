import pytest
from hypothesis import given, strategies as st

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
    compute_stats,
    concept_to_text,
    parse_axiom,
    parse_concept,
    parse_ontology,
)
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
    assert parse_concept(deep, max_depth=128)


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
    axioms, _ = parse_ontology(
        ["subClassOf(A,some(R,A))", "subClassOf(A,some(R,B))"]
    )
    stats = compute_stats(axioms)
    assert stats.class_count == 2
    assert stats.relation_count == 1
