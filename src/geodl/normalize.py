"""Flatten parsed axioms into normal forms over atomic class/relation ids.

Every axiom is rewritten into one of six shapes, introducing fresh helper
classes (``__nf_<k>``) for complex sub-expressions:

    NF1(c, d)        C <= D
    NF2(c, d, e)     C and D <= E
    NF3(c, r, d)     C <= some R. D
    NF4(c, r, d)     some R. C <= D
    Disjoint(c, d)   C and D <= nothing
    BottomSub(c)     C <= nothing

``_norm`` rewrites ``sub <= sup`` by the first rule that fits (basic: a
class name, ``top`` or a nominal; complex: a conjunction or an existential):
split a conjunction on the right; drop an empty left side (``nothing``, or
a conjunction or existential built over it, ``_empty``); a basic left gives
BottomSub, NF1 or NF3; a complex left under an existential goes through a
fresh middle class; a conjunction on the left gives Disjoint or NF2; an
existential on the left gives BottomSub of a fresh helper, or NF4.  A
complex conjunct or filler becomes a fresh class; an empty filler on the
right makes the axiom BottomSub.

The class and relation tables are lists of names in id order.  ``top``
becomes an ordinary class; a nominal becomes a class named by its canonical
``nominal(x)`` text, which no atomic name can spell, so the name alone says
what a class is (``ranking.is_fresh_name`` and ``ranking.is_nominal_name``)
and survives a round trip through the axiom format.  Identical complex
sub-expressions share one fresh class, memoized by canonical text.

``SHAPES`` is the one table of the six shapes; every per-shape rule in the
package (printing, checking, training buckets, kernel dispatch) reads it.

``subclass_pairs`` gives a file's NF1 pairs between its own classes, each
nested line normalized alone; the CLI reads pair files (eval's test and
``--filtered`` files, train's ``valid.el``) by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

from .parser import (
    _FLAT,
    Atomic,
    Bottom,
    Concept,
    Existential,
    Intersection,
    Nominal,
    RawAxiom,
    SubClassOf,
    Top,
    concept_to_text,
    parse_axiom,
)

FRESH_PREFIX = "__nf_"


@dataclass(frozen=True, slots=True)
class NF1:
    c: int
    d: int


@dataclass(frozen=True, slots=True)
class NF2:
    c: int
    d: int
    e: int


@dataclass(frozen=True, slots=True)
class NF3:
    c: int
    r: int
    d: int


@dataclass(frozen=True, slots=True)
class NF4:
    c: int
    r: int
    d: int


@dataclass(frozen=True, slots=True)
class Disjoint:
    c: int
    d: int


@dataclass(frozen=True, slots=True)
class BottomSub:
    c: int


NormalAxiom = Union[NF1, NF2, NF3, NF4, Disjoint, BottomSub]


class Shape(NamedTuple):
    """What every per-shape rule needs to know about one normal form."""

    key: str  # names the training bucket and the kernel model.<key>_batch
    fields: tuple  # id fields, in the order of the kernel's id columns
    relations: tuple  # the fields among them that hold relation ids
    template: str  # text form in the axiom grammar, over the fields' names


# The six shapes, in the order training accumulates their terms.
SHAPES = {
    NF1: Shape("nf1", ("c", "d"), (), "subClassOf({c},{d})"),
    NF2: Shape("nf2", ("c", "d", "e"), (), "subClassOf(and({c},{d}),{e})"),
    NF3: Shape("nf3", ("c", "r", "d"), ("r",), "subClassOf({c},some({r},{d}))"),
    NF4: Shape("nf4", ("c", "r", "d"), ("r",), "subClassOf(some({r},{c}),{d})"),
    Disjoint: Shape("disjoint", ("c", "d"), (), "disjointWith({c},{d})"),
    BottomSub: Shape("bottom", ("c",), (), "subClassOf({c},bottom)"),
}


def shape_of(ax: NormalAxiom) -> Shape:
    shape = SHAPES.get(type(ax))
    if shape is None:
        raise TypeError(f"not a normal axiom: {ax!r}")
    return shape


def class_ids(ax: NormalAxiom) -> tuple:
    """The class ids an axiom mentions, in field order."""
    shape = shape_of(ax)
    return tuple(getattr(ax, f) for f in shape.fields if f not in shape.relations)


@dataclass
class NormalizedOntology:
    axioms: list[NormalAxiom]
    classes: list[str]  # class names, in id order
    relations: list[str]  # relation names, in id order
    class_index: dict[str, int] = field(default_factory=dict)
    # fresh class name -> canonical text of the sub-expression it stands for
    fresh_definitions: dict[str, str] = field(default_factory=dict)

    @property
    def fresh_count(self) -> int:
        """Helpers this normalization made, not ``__nf_*`` names it read."""
        return len(self.fresh_definitions)


# Concept types that name one class; every other concept needs a rule.  The
# rules test a concept's exact type: the parser makes no subclasses.
_BASIC = frozenset((Atomic, Top, Nominal))


def _empty(c: Concept) -> bool:
    """Whether *c* is empty in every model: ``nothing``, a conjunction with
    an empty part, or an existential with an empty filler."""
    kind = type(c)
    if kind is Intersection:
        return _empty(c.left) or _empty(c.right)
    if kind is Existential:
        return _empty(c.filler)
    return kind is Bottom


class _Normalizer:
    def __init__(self):
        self.classes: list[str] = []
        self.relations: list[str] = []
        self.class_index: dict[str, int] = {}
        self.relation_index: dict[str, int] = {}
        self.fresh_definitions: dict[str, str] = {}
        self.out: list[NormalAxiom] = []
        self._fresh_counter = 0
        # (canonical text, side) pairs whose defining axioms were emitted;
        # side is "left" for expr <= A, "right" for A <= expr
        self._defined: set[tuple[str, str]] = set()

    def class_id(self, c: Concept) -> int:
        """Id of the class a basic concept names.  Every class and relation
        has its id before a rule asks for it (``_register_concept`` gives
        the input's, ``_fresh_for`` each helper's), so this is one lookup."""
        return self.class_index[c.name if type(c) is Atomic else concept_to_text(c)]

    def _register_concept(self, c: Concept) -> None:
        """Give each class and relation *c* names an id, in reading order."""
        kind = type(c)
        if kind in _BASIC:
            key = c.name if kind is Atomic else concept_to_text(c)
            if key not in self.class_index:
                self.class_index[key] = len(self.classes)
                self.classes.append(key)
        elif kind is Intersection:
            self._register_concept(c.left)
            self._register_concept(c.right)
        elif kind is Existential:
            if c.role not in self.relation_index:
                self.relation_index[c.role] = len(self.relations)
                self.relations.append(c.role)
            self._register_concept(c.filler)

    def _fresh_for(self, expr: Concept, side: str) -> Atomic:
        """Fresh class standing for *expr*, defining axioms emitted once per side."""
        key = concept_to_text(expr)
        idx = self.class_index.get(key)
        if idx is None:
            name = f"{FRESH_PREFIX}{self._fresh_counter}"
            self._fresh_counter += 1
            while name in self.class_index:  # input may reuse the prefix
                name = f"{FRESH_PREFIX}{self._fresh_counter}"
                self._fresh_counter += 1
            idx = len(self.classes)
            self.class_index[key] = idx
            self.classes.append(name)
            self.fresh_definitions[name] = key
        ref = Atomic(self.classes[idx])
        # Re-register under the fresh name too so references resolve.
        self.class_index.setdefault(ref.name, idx)
        if (key, side) not in self._defined:
            self._defined.add((key, side))
            if side == "left":
                self._norm(expr, ref)
            else:
                self._norm(ref, expr)
        return ref

    def _atom(self, c: Concept, side: str) -> int:
        """Class id of *c*, through a fresh class unless *c* is basic."""
        if type(c) not in _BASIC:
            c = self._fresh_for(c, side)
        return self.class_id(c)

    def _norm(self, sub: Concept, sup: Concept) -> None:
        """Emit the normal forms of ``sub <= sup``, one rule per branch."""
        basic = type(sub) in _BASIC  # a basic concept is never empty
        if type(sup) is Intersection:  # split into independent axioms
            self._norm(sub, sup.left)
            self._norm(sub, sup.right)
        elif not basic and _empty(sub):
            return  # an empty left side makes the axiom hold vacuously
        elif basic:
            c = self.class_id(sub)
            if type(sup) in _BASIC:
                self.out.append(NF1(c, self.class_id(sup)))
            elif _empty(sup):  # nothing, or some R. F over an empty F
                self.out.append(BottomSub(c))
            else:
                r = self.relation_index[sup.role]
                self.out.append(NF3(c, r, self._atom(sup.filler, "right")))
        elif type(sup) is Existential:
            # Both sides complex: route through a fresh middle class.
            self._norm(self._fresh_for(sub, "left"), sup)
        elif type(sub) is Intersection:
            parts = [self._atom(part, "left") for part in (sub.left, sub.right)]
            if type(sup) is Bottom:
                self.out.append(Disjoint(*parts))
            else:
                self.out.append(NF2(*parts, self.class_id(sup)))
        else:
            f = self._atom(sub.filler, "left")
            if type(sup) is Bottom:
                # some R. F <= nothing, folded through a fresh helper so the
                # bottom form stays unary
                self.out.append(BottomSub(self._atom(sub, "left")))
            else:
                r = self.relation_index[sub.role]
                self.out.append(NF4(f, r, self.class_id(sup)))


def subclass_pairs(lines: Iterable[str]) -> list[tuple[str, str]]:
    """The (sub name, sup name) of each NF1 that normalizing *lines* emits
    between two classes the normalization did not create, in emission
    order, duplicates and self-pairs kept.

    A flat line (``parser._FLAT``) gives its pairs from its match groups.
    Every other line is cut at ``#``, skipped if blank, read by
    ``parse_axiom`` as ``parse_ontology`` reads it (so a ``ParseError`` is
    the same) and normalized alone.  That gives the file's pairs, because
    lines share only fresh helpers and no NF1 between two input classes
    passes through a helper.  The whole input is read before the list is
    returned.
    """
    pairs: list[tuple[str, str]] = []
    add = pairs.append
    fullmatch = _FLAT.fullmatch
    for lineno, raw in enumerate(lines, start=1):
        match = fullmatch(raw)
        if match is not None:
            head, a, role, _, b = match.groups()
            if role is None and head != "disjointWith" and "bottom" not in (a, b):
                add((a, b))
                if head == "equivalentClasses":
                    add((b, a))
            continue
        text = raw.split("#", 1)[0]
        if not text.strip():
            continue
        onto = normalize([parse_axiom(text, line=lineno)])
        names, fresh = onto.classes, onto.fresh_definitions
        for ax in onto.axioms:
            if type(ax) is NF1:
                sub, sup = names[ax.c], names[ax.d]
                if sub not in fresh and sup not in fresh:
                    add((sub, sup))
    return pairs


def normalize(axioms: list[RawAxiom]) -> NormalizedOntology:
    """Rewrite raw axioms into normal forms; total for any parsed input."""
    norm = _Normalizer()
    # Register every original name first so dropped tautologies still leave
    # their classes and relations in the tables.
    register, rewrite = norm._register_concept, norm._norm
    for ax in axioms:
        if type(ax) is SubClassOf:
            register(ax.sub)
            register(ax.sup)
        else:
            register(ax.a)
            register(ax.b)
    for ax in axioms:
        if type(ax) is SubClassOf:
            rewrite(ax.sub, ax.sup)
        else:
            rewrite(ax.a, ax.b)
            rewrite(ax.b, ax.a)
    return NormalizedOntology(
        axioms=norm.out,
        classes=norm.classes,
        relations=norm.relations,
        class_index=norm.class_index,
        fresh_definitions=norm.fresh_definitions,
    )


def _valid_id(x, limit: int) -> bool:
    return type(x) is int and 0 <= x < limit


def verify_normal(onto: NormalizedOntology) -> bool:
    """Self-check: every axiom is one of the six shapes over table-backed ids."""
    nc = len(onto.classes)
    nr = len(onto.relations)
    for ax in onto.axioms:
        shape = SHAPES.get(type(ax))
        if shape is None:
            return False
        for f in shape.fields:
            if not _valid_id(getattr(ax, f), nr if f in shape.relations else nc):
                return False
    return True


def normal_axiom_to_text(ax: NormalAxiom, onto: NormalizedOntology) -> str:
    """Print a normal axiom back into the line-based grammar."""
    shape = shape_of(ax)
    names = {
        f: (onto.relations if f in shape.relations else onto.classes)[getattr(ax, f)]
        for f in shape.fields
    }
    return shape.template.format(**names)
