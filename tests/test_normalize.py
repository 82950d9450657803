import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geodl.normalize import (
    NF1,
    NF2,
    NF3,
    NF4,
    SHAPES,
    BottomSub,
    Disjoint,
    normal_axiom_to_text,
    normalize,
    subclass_pairs,
    verify_normal,
)
from geodl.parser import ParseError, parse_axiom, parse_ontology, SubClassOf
from geodl.ranking import is_fresh_name, is_nominal_name
from geodl.synthetic import random_raw_lines, surrogate_lines
import reference
from reference import concept_size
from test_parser import _flat_lines, _lines


def norm_lines(lines):
    axioms, _ = parse_ontology(lines)
    return normalize(axioms)


def shapes(onto):
    from dataclasses import fields

    out = []
    for ax in onto.axioms:
        row = [type(ax).__name__]
        for f in fields(ax):
            v = getattr(ax, f.name)
            row.append(onto.relations[v] if f.name == "r" else onto.classes[v])
        out.append(tuple(row))
    return out


def test_already_normal_subclass():
    onto = norm_lines(["subClassOf(A,B)"])
    assert shapes(onto) == [("NF1", "A", "B")]


def test_conjunction_left_existential_right():
    onto = norm_lines(["subClassOf(and(A,B),some(R,C))"])
    assert shapes(onto) == [
        ("NF2", "A", "B", "__nf_0"),
        ("NF3", "__nf_0", "R", "C"),
    ]
    assert onto.fresh_count == 1


def test_disjoint_desugared():
    onto = norm_lines(["disjointWith(A,B)"])
    assert shapes(onto) == [("Disjoint", "A", "B")]


def test_equivalence_expansion():
    onto = norm_lines(["equivalentClasses(A,and(B,C))"])
    assert shapes(onto) == [
        ("NF1", "A", "B"),
        ("NF1", "A", "C"),
        ("NF2", "B", "C", "A"),
    ]
    assert onto.fresh_count == 0


def test_existential_left():
    onto = norm_lines(["subClassOf(some(R,A),B)"])
    assert shapes(onto) == [("NF4", "A", "R", "B")]


def test_right_filler_gets_sup_side_definition():
    onto = norm_lines(["subClassOf(A,some(R,and(B,C)))"])
    # fresh class defined as a subclass of the conjunction
    assert ("NF3", "A", "R", "__nf_0") in shapes(onto)
    assert ("NF1", "__nf_0", "B") in shapes(onto)
    assert ("NF1", "__nf_0", "C") in shapes(onto)


def test_bottom_on_right_forms():
    onto = norm_lines(["subClassOf(A,bottom)"])
    assert shapes(onto) == [("BottomSub", "A")]
    onto = norm_lines(["subClassOf(some(R,A),bottom)"])
    assert ("NF4", "A", "R", "__nf_0") in shapes(onto)
    assert ("BottomSub", "__nf_0") in shapes(onto)


def test_bottom_on_left_is_dropped_but_names_kept():
    onto = norm_lines(["subClassOf(bottom,A)", "subClassOf(and(A,bottom),B)"])
    assert onto.axioms == []
    assert "A" in onto.class_index
    assert "B" in onto.class_index


def test_existential_bottom_filler_collapses():
    onto = norm_lines(["subClassOf(A,some(R,bottom))"])
    assert shapes(onto) == [("BottomSub", "A")]
    onto = norm_lines(["subClassOf(some(R,bottom),A)"])
    assert onto.axioms == []


def test_empty_filler_on_the_right_collapses_with_no_helper():
    """``A <= some R. F`` with F empty however deep its ``bottom`` sits makes
    A empty: BottomSub(A), and no helper class for F, which would be empty."""
    onto = norm_lines(["subClassOf(A,some(R,and(bottom,B)))",
                       "subClassOf(C,some(R,bottom))"])
    assert shapes(onto) == [("BottomSub", "A"), ("BottomSub", "C")]
    assert onto.fresh_definitions == {}
    assert onto.classes == ["A", "B", "C"] and onto.relations == ["R"]


@pytest.mark.parametrize("line, classes, relations", [
    ("subClassOf(and(bottom,A),some(R,B))", ["A", "B"], ["R"]),
    ("subClassOf(some(R,bottom),some(S,B))", ["B"], ["R", "S"]),
    ("subClassOf(and(and(bottom,A),C),D)", ["A", "C", "D"], []),
    ("subClassOf(some(R,and(bottom,A)),D)", ["A", "D"], ["R"]),
])
def test_empty_left_side_writes_no_axiom_and_no_helper(line, classes,
                                                       relations):
    """A left side that is empty however deep its ``bottom`` sits makes the
    axiom vacuous: no axiom and no helper class, whose definition would be
    empty, and the names stay in the tables."""
    onto = norm_lines([line])
    assert onto.axioms == [] and onto.fresh_definitions == {}
    assert onto.classes == classes and onto.relations == relations


def test_top_is_an_ordinary_class():
    onto = norm_lines(["subClassOf(A,top)", "subClassOf(top,B)"])
    assert ("NF1", "A", "top") in shapes(onto)
    assert ("NF1", "top", "B") in shapes(onto)
    name = onto.classes[onto.class_index["top"]]
    assert not is_fresh_name(name) and not is_nominal_name(name)


def test_nominal_becomes_flagged_class():
    onto = norm_lines(["subClassOf(nominal(jane),Person)"])
    name = onto.classes[onto.class_index["nominal(jane)"]]
    assert is_nominal_name(name) and not is_fresh_name(name)
    assert ("NF1", "nominal(jane)", "Person") in shapes(onto)


def test_structural_sharing_of_fresh_classes():
    onto = norm_lines(
        ["subClassOf(and(A,B),C)", "subClassOf(and(A,B),D)",
         "subClassOf(X,some(R,and(A,B)))"]
    )
    # conjunction is already NF2-able on the left; only the right-side
    # occurrence needs a fresh name
    assert onto.fresh_count <= 1
    onto = norm_lines(
        ["subClassOf(some(R,and(A,B)),C)", "subClassOf(some(S,and(A,B)),D)"]
    )
    assert onto.fresh_count == 1


def test_verify_normal_accepts_normalize_output():
    onto = norm_lines(
        ["subClassOf(and(A,some(R,B)),some(S,and(C,D)))",
         "equivalentClasses(E,some(R,E))",
         "disjointWith(A,nominal(x))"]
    )
    assert verify_normal(onto)


def test_shape_table_matches_axiom_types():
    # kernels take ids in dataclass field order; "r" is the one relation field
    from dataclasses import fields

    assert list(SHAPES) == [NF1, NF2, NF3, NF4, Disjoint, BottomSub]
    for cls, shape in SHAPES.items():
        assert shape.fields == tuple(f.name for f in fields(cls))
        assert shape.relations == tuple(f for f in shape.fields if f == "r")


def test_verify_normal_rejects_compound_payload():
    onto = norm_lines(["subClassOf(A,B)"])
    onto.axioms.append(NF1(SubClassOf, 0))  # type: ignore[arg-type]
    assert not verify_normal(onto)
    onto.axioms.pop()
    onto.axioms.append(NF3(0, 99, 0))
    assert not verify_normal(onto)


def test_name_preservation():
    lines = ["subClassOf(bottom,Gone)", "subClassOf(and(Kept,bottom),Other)"]
    onto = norm_lines(lines)
    for name in ("Gone", "Kept", "Other"):
        assert name in onto.class_index


def reparse(onto):
    lines = [normal_axiom_to_text(ax, onto) for ax in onto.axioms]
    return norm_lines(lines)


def count_subexpressions(lines):
    axioms, _ = parse_ontology(lines)
    total = 0
    for ax in axioms:
        pair = (ax.sub, ax.sup) if isinstance(ax, SubClassOf) else (ax.a, ax.b)
        total += sum(concept_size(c) for c in pair)
    return total


@pytest.mark.parametrize("seed", range(8))
def test_random_ontologies_normalize_cleanly(seed):
    rng = np.random.default_rng(seed)
    lines = random_raw_lines(rng, n_axioms=40)
    onto = norm_lines(lines)
    assert verify_normal(onto)
    assert onto.fresh_count <= count_subexpressions(lines)
    again = reparse(onto)
    # idempotence: re-normalizing the printed output allocates nothing new
    assert len(again.fresh_definitions) == 0
    assert verify_normal(again)


def test_shared_existentials_normalize_like_separate_ones():
    """The flat lines' shared ``Existential`` objects give the same ids,
    tables and axioms as one fresh tree per line."""
    lines = surrogate_lines(300, seed=1)
    shared = normalize(parse_ontology(lines)[0])
    separate = normalize([parse_axiom(line) for line in lines
                          if line and not line.startswith("#")])
    assert shared == separate


def test_idempotence_keeps_axiom_shapes():
    onto = norm_lines(
        ["subClassOf(and(A,B),some(R,C))", "disjointWith(A,B)",
         "subClassOf(X,bottom)"]
    )
    again = reparse(onto)
    assert sorted(map(str, shapes(again))) == sorted(map(str, shapes(onto)))


# --- entailment preservation spot-check ------------------------------------


def closure(onto):
    """Reflexive-transitive subclass closure with conjunction saturation."""
    n = len(onto.classes)
    sub = {i: {i} for i in range(n)}  # i -> known superclasses

    changed = True
    while changed:
        changed = False
        for ax in onto.axioms:
            if isinstance(ax, NF1):
                for i in range(n):
                    if ax.c in sub[i] and ax.d not in sub[i]:
                        sub[i].add(ax.d)
                        changed = True
            elif isinstance(ax, NF2):
                for i in range(n):
                    if ax.c in sub[i] and ax.d in sub[i] and ax.e not in sub[i]:
                        sub[i].add(ax.e)
                        changed = True
    return sub


def entails(onto, sub_name, sup_name):
    closure_map = closure(onto)
    c = onto.class_index[sub_name]
    d = onto.class_index[sup_name]
    return d in closure_map[c]


def test_equivalence_entailments_preserved():
    onto = norm_lines(["equivalentClasses(A,and(B,C))", "subClassOf(D,A)"])
    assert entails(onto, "A", "B")
    assert entails(onto, "A", "C")
    assert entails(onto, "D", "B")
    assert not entails(onto, "B", "A")


def test_chain_through_fresh_classes_preserved():
    onto = norm_lines(
        ["subClassOf(and(A,B),some(R,C))", "subClassOf(X,A)", "subClassOf(X,B)"]
    )
    # X <= A and X <= B, so X reaches the fresh head of the conjunction
    fresh = [i for i, name in enumerate(onto.classes) if is_fresh_name(name)]
    assert len(fresh) == 1
    closure_map = closure(onto)
    x = onto.class_index["X"]
    assert fresh[0] in closure_map[x]


atomic_names = st.sampled_from(["A", "B", "C", "D", "E"])
roles = st.sampled_from(["r", "s"])


def raw_concepts():
    base = st.one_of(atomic_names, st.just("top"), st.just("bottom"))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: f"and({p[0]},{p[1]})"),
            st.tuples(roles, kids).map(lambda p: f"some({p[0]},{p[1]})"),
        ),
        max_leaves=8,
    )


@settings(max_examples=60)
@given(st.lists(st.tuples(
    st.sampled_from(["subClassOf", "equivalentClasses", "disjointWith"]),
    raw_concepts(), raw_concepts()), min_size=1, max_size=12))
def test_normalize_is_total_and_verified(specs):
    lines = [f"{head}({a},{b})" for head, a, b in specs]
    onto = norm_lines(lines)
    assert verify_normal(onto)
    assert onto.fresh_count <= count_subexpressions(lines)
    assert len(reparse(onto).fresh_definitions) == 0


# --- subclass pairs from the lines alone --------------------------------------


def normalized_pairs(lines):
    """The pair names that normalizing *lines* gives (``reference``)."""
    return [(c, d) for c, d, _ in reference.subclass_pairs(lines, {})]


@pytest.mark.parametrize("line, pairs", [
    ("subClassOf(A,B)", [("A", "B")]),
    ("subClassOf(A,A)", [("A", "A")]),
    ("equivalentClasses(A,B)", [("A", "B"), ("B", "A")]),
    ("equivalentClasses( A , B )", [("A", "B"), ("B", "A")]),
    ("subClassOf(top,B)", [("top", "B")]),
    ("subClassOf(A,bottom)", []),
    ("subClassOf(bottom,A)", []),
    ("equivalentClasses(A,bottom)", []),
    ("equivalentClasses(bottom,A) # note", []),
    ("subClassOf(A,some(R,B))", []),
    ("equivalentClasses(A,some(R,B))", []),
    ("disjointWith(A,B)", []),
    ("subClassOf(and(A,B),C)", []),
    ("subClassOf(some(R,A),C)", []),
    ("subClassOf(__nf_0,B)", [("__nf_0", "B")]),
    ("subClassOf(nominal(x),and(B,and(some(R,C),and(top,bottom))))",
     [("nominal(x)", "B"), ("nominal(x)", "top")]),
    ("equivalentClasses(and(A,B),C)", [("C", "A"), ("C", "B")]),
    ("subClassOf(and,some)", [("and", "some")]),
    ("subClassOf(A,some(R,and(B,C)))", []),
    ("equivalentClasses(A,and(B,some(R,and(C,D))))", [("A", "B")]),
], ids=lambda value: value if isinstance(value, str) else None)
def test_subclass_pairs_of_one_line(line, pairs):
    """A basic left side gives one pair per basic conjunct on the right;
    bottom, existentials, a complex left side and disjointness give none."""
    assert subclass_pairs([line]) == pairs == normalized_pairs([line])


_PAIR_FILE_EXTRAS = st.one_of(
    _flat_lines(),
    _flat_lines().map(lambda line: line.replace(",", " , ", 1)),
    _flat_lines().map(lambda line: f"  {line}  # note"),
    st.sampled_from(["", "  ", "# only a comment", "subClassOf(__nf_0,A0)",
                     "equivalentClasses(__nf_1,and(A1,some(r0,A2)))",
                     "subClassOf(A3,and(__nf_0,__nf_2))"]),
)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.lists(_PAIR_FILE_EXTRAS, max_size=10),
       st.randoms(use_true_random=False))
def test_subclass_pairs_match_normalizing_the_file(seed, extra, rnd):
    """Every production (``random_raw_lines``), flat lines over keywords and
    reserved words, spaced, commented and blank lines, literal ``__nf_k``
    names and repeated lines, in any order: the pairs and their order are
    those of normalizing the whole file."""
    lines = random_raw_lines(np.random.default_rng(seed), n_axioms=20) + extra
    lines += rnd.sample(lines, min(3, len(lines)))
    rnd.shuffle(lines)
    assert subclass_pairs(lines) == normalized_pairs(lines)


def _outcome(read, lines):
    try:
        return read(lines)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 19), _lines())
@example(0, 3, "subClassOf(A,(B))")
def test_subclass_pairs_raise_the_parse_error_of_the_file(seed, at, corrupt):
    """A file with one corrupted line: the same error text, line and column
    as reading it with ``parse_ontology``, or the same pairs if it parses."""
    lines = random_raw_lines(np.random.default_rng(seed), n_axioms=20)
    lines[at] = corrupt
    expected = _outcome(normalized_pairs, lines)
    assert _outcome(subclass_pairs, lines) == expected
    if isinstance(expected, tuple):
        assert expected == _outcome(parse_ontology, lines)

