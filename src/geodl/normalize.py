"""Flatten parsed axioms into normal forms over atomic class/relation ids.

Every axiom is rewritten into one of six shapes, introducing fresh helper
classes (``__nf_<k>``) for complex sub-expressions:

    NF1(c, d)        C <= D
    NF2(c, d, e)     C and D <= E
    NF3(c, r, d)     C <= some R. D
    NF4(c, r, d)     some R. C <= D
    Disjoint(c, d)   C and D <= nothing
    BottomSub(c)     C <= nothing

The class and relation tables are lists of names in id order.  ``top``
becomes an ordinary class; a nominal becomes a class named by its canonical
``nominal(x)`` text, which no atomic name can spell, so the name alone says
what a class is (``ranking.is_fresh_name`` and ``ranking.is_nominal_name``)
and survives a round trip through the axiom format.  Identical complex
sub-expressions share one fresh class, memoized by canonical text.
Tautologies with an empty left-hand side are dropped.

``SHAPES`` is the one table of the six shapes; every per-shape rule in the
package (printing, checking, training buckets, kernel dispatch) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .parser import (
    Atomic,
    Bottom,
    Concept,
    EquivalentClasses,
    Existential,
    Intersection,
    Nominal,
    RawAxiom,
    SubClassOf,
    Top,
    concept_to_text,
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
        return sum(1 for name in self.classes if name.startswith(FRESH_PREFIX))


def _is_basic(c: Concept) -> bool:
    return isinstance(c, (Atomic, Top, Nominal))


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
        key = c.name if type(c) is Atomic else concept_to_text(c)
        idx = self.class_index.get(key)
        if idx is None:
            idx = len(self.classes)
            self.class_index[key] = idx
            self.classes.append(key)
        return idx

    def relation_id(self, name: str) -> int:
        idx = self.relation_index.get(name)
        if idx is None:
            idx = len(self.relations)
            self.relation_index[name] = idx
            self.relations.append(name)
        return idx

    def _register_concept(self, c: Concept) -> None:
        if _is_basic(c):
            self.class_id(c)
        elif isinstance(c, Intersection):
            self._register_concept(c.left)
            self._register_concept(c.right)
        elif isinstance(c, Existential):
            self.relation_id(c.role)
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

    def _norm(self, sub: Concept, sup: Concept) -> None:
        # Conjunction on the right splits into independent axioms.
        if isinstance(sup, Intersection):
            self._norm(sub, sup.left)
            self._norm(sub, sup.right)
            return
        if _is_basic(sub) or isinstance(sub, Bottom):
            self._norm_basic_left(sub, sup)
        else:
            self._norm_complex_left(sub, sup)

    def _norm_basic_left(self, sub: Concept, sup: Concept) -> None:
        if isinstance(sub, Bottom):
            return  # nothing <= X holds vacuously
        c = self.class_id(sub)
        if isinstance(sup, Bottom):
            self.out.append(BottomSub(c))
        elif _is_basic(sup):
            self.out.append(NF1(c, self.class_id(sup)))
        elif isinstance(sup, Existential):
            r = self.relation_id(sup.role)
            filler = sup.filler
            if isinstance(filler, Bottom):
                # some R. nothing is empty, so the axiom collapses
                self.out.append(BottomSub(c))
                return
            if not _is_basic(filler):
                filler = self._fresh_for(filler, side="right")
            self.out.append(NF3(c, r, self.class_id(filler)))
        else:  # pragma: no cover - Intersection handled by caller
            raise AssertionError("conjunction on the right must be split first")

    def _norm_complex_left(self, sub: Concept, sup: Concept) -> None:
        if not (_is_basic(sup) or isinstance(sup, Bottom)):
            # Both sides complex: route through a fresh middle class.
            mid = self._fresh_for(sub, side="left")
            self._norm(mid, sup)
            return
        if isinstance(sub, Intersection):
            conjuncts = []
            for part in (sub.left, sub.right):
                if isinstance(part, Bottom):
                    return  # the left side is empty; the axiom is vacuous
                if not _is_basic(part):
                    part = self._fresh_for(part, side="left")
                conjuncts.append(self.class_id(part))
            c, d = conjuncts
            if isinstance(sup, Bottom):
                self.out.append(Disjoint(c, d))
            else:
                self.out.append(NF2(c, d, self.class_id(sup)))
            return
        # sub is an existential
        assert isinstance(sub, Existential)
        filler = sub.filler
        if isinstance(filler, Bottom):
            return  # some R. nothing is empty; the axiom is vacuous
        if not _is_basic(filler):
            filler = self._fresh_for(filler, side="left")
        r = self.relation_id(sub.role)
        f = self.class_id(filler)
        if isinstance(sup, Bottom):
            # some R. F <= nothing, folded through a fresh name so the
            # bottom form stays unary
            helper = self._fresh_for(sub, side="left")
            self.out.append(BottomSub(self.class_id(helper)))
        else:
            self.out.append(NF4(f, r, self.class_id(sup)))


def normalize(axioms: list[RawAxiom]) -> NormalizedOntology:
    """Rewrite raw axioms into normal forms; total for any parsed input."""
    norm = _Normalizer()
    # Register every original name first so dropped tautologies still leave
    # their classes and relations in the tables.
    for ax in axioms:
        pair = (ax.sub, ax.sup) if isinstance(ax, SubClassOf) else (ax.a, ax.b)
        for side in pair:
            norm._register_concept(side)
    for ax in axioms:
        if isinstance(ax, EquivalentClasses):
            norm._norm(ax.a, ax.b)
            norm._norm(ax.b, ax.a)
        else:
            norm._norm(ax.sub, ax.sup)
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
