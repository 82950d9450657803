"""Line-based EL axiom format: expression trees, parsing, canonical printing.

One axiom per line, ``#`` starts a comment, blank lines are ignored::

    axiom   := subClassOf(concept, concept)
             | equivalentClasses(concept, concept)
             | disjointWith(concept, concept)
    concept := NAME | top | bottom | nominal(NAME)
             | and(concept, concept) | some(NAME, concept)

NAME is a run of characters excluding whitespace, parentheses, commas and
``#``.  Whitespace between tokens is not significant.  ``top`` and ``bottom``
are reserved: they always parse to the distinguished variants, never to a
named class.  ``and``, ``some`` and ``nominal`` are keywords only when a
``(`` follows; otherwise they are names.  ``disjointWith(C,D)`` is sugar
for ``subClassOf(and(C,D),bottom)`` and is desugared while parsing, so the
in-memory representation has a single canonical form for disjointness.

Two paths read a line of a file (``parse_ontology``):

* A flat line, ``head(A,B)`` or ``head(A,some(R,B))`` for any of the three
  heads, written with no whitespace and no comment, is one regex match
  (``_FLAT``), and its tree is built from the match's groups.  Most
  normal-form files are almost all flat lines.  Such a line is valid by
  construction, so this path cannot fail.  It runs only when the depth
  limit is above 2, the depth of a ``some`` filler; under a smaller limit
  the cursor raises the nesting error.  Each distinct ``some(R,B)`` of
  these lines is one ``Existential`` in the result.
* Every other line (nested, spaced or commented, and every malformed one)
  goes through ``_Cursor``, a recursive descent over the line's tokens.
  The cursor is the only source of ``ParseError``: a line the regex misses
  pays one failed match and is then read exactly as before, so messages
  and columns do not depend on which lines are flat.

Both paths take every name from one ``_Names`` per call, so each class
name is one ``Atomic`` and each individual one ``Nominal`` in the result,
and the sizes of its tables are the call's ``OntologyStats``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

DEFAULT_MAX_DEPTH = 64

# A name, or one character of punctuation; whitespace separates tokens.
_TOKEN = re.compile(r"[^\s(),#]+|\S")
# A flat line, head(A,B) or head(A,some(R,B)), with no whitespace and no
# comment; groups: head, A, then R and B of some(R,B), or B.
_NAME = r"([^\s(),#]+)"
_FLAT = re.compile(rf"(subClassOf|equivalentClasses|disjointWith)\({_NAME},"
                   rf"(?:some\({_NAME},{_NAME}\)|{_NAME})\)")
_NAME_BREAK = re.compile(r"[\s(),#]")
_NOT_NAMES = frozenset(("(", ")", ",", "#", ""))
_RESERVED = ("top", "bottom")


class ParseError(Exception):
    """Syntax or nesting error at the 1-based line and column of the offence,
    counted in the line as given, before comment cutting or stripping."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _check_name(name: str, what: str) -> None:
    if not name:
        raise ValueError(f"{what} must be non-empty")
    if _NAME_BREAK.search(name):
        raise ValueError(f"{what} {name!r} contains whitespace, parens, comma or '#'")


@dataclass(frozen=True, slots=True)
class Atomic:
    name: str

    def __post_init__(self):
        _check_name(self.name, "class name")
        if self.name in _RESERVED:
            raise ValueError(f"{self.name!r} is reserved and cannot name a class")


@dataclass(frozen=True, slots=True)
class Top:
    pass


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class Nominal:
    individual: str

    def __post_init__(self):
        _check_name(self.individual, "individual name")


@dataclass(frozen=True, slots=True)
class Intersection:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True, slots=True)
class Existential:
    role: str
    filler: "Concept"

    def __post_init__(self):
        _check_name(self.role, "role name")


Concept = Union[Atomic, Top, Bottom, Nominal, Intersection, Existential]

TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True, slots=True)
class SubClassOf:
    sub: Concept
    sup: Concept


@dataclass(frozen=True, slots=True)
class EquivalentClasses:
    a: Concept
    b: Concept


RawAxiom = Union[SubClassOf, EquivalentClasses]


@dataclass(frozen=True, slots=True)
class OntologyStats:
    axiom_count: int
    class_count: int
    relation_count: int
    individual_count: int


def concept_to_text(c: Concept) -> str:
    """Canonical printing: no spaces, reparses to an equal tree."""
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bottom"
    if isinstance(c, Nominal):
        return f"nominal({c.individual})"
    if isinstance(c, Intersection):
        return f"and({concept_to_text(c.left)},{concept_to_text(c.right)})"
    if isinstance(c, Existential):
        return f"some({c.role},{concept_to_text(c.filler)})"
    raise TypeError(f"not a concept: {c!r}")


class _Table(dict):
    """Key -> its one object, built by *make* (which checks the key's names)
    the first time the key is asked for."""

    def __init__(self, make, **preset):
        super().__init__(preset)
        self.make = make

    def __missing__(self, key):
        made = self[key] = self.make(key)
        return made


class _Names:
    """The class, role and individual names of one parse; ``top`` and
    ``bottom`` are preloaded, so they are never counted as classes."""

    def __init__(self):
        self.classes = _Table(Atomic, top=TOP, bottom=BOTTOM)
        self.roles = _Table(str)  # Existential checks the name
        self.individuals = _Table(Nominal)

    def stats(self, axiom_count: int) -> OntologyStats:
        return OntologyStats(axiom_count, len(self.classes) - len(_RESERVED),
                             len(self.roles), len(self.individuals))


class _Cursor:
    """Recursive descent over one line's tokens; columns are found on error."""

    def __init__(self, text: str, line: int, max_depth: int,
                 names: Optional[_Names] = None):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]  # "" marks the end of the line
        self.i = 0
        self.line = line
        self.max_depth = max_depth
        self.names = _Names() if names is None else names

    def offset(self, after: bool = False) -> int:
        """Where the next token starts, or where the previous one ends; an
        error at the end of the line points one past its last non-blank."""
        spans = [m.span() for m in _TOKEN.finditer(self.text)]
        if after or self.i == len(spans):
            return spans[self.i - 1][1] if self.i else 0
        return spans[self.i][0]

    def error(self, message: str, after: bool = False) -> ParseError:
        return ParseError(message, self.line, self.offset(after) + 1)

    def expect(self, ch: str) -> None:
        got = self.tokens[self.i]
        if got != ch:
            shown = repr(got[0]) if got else "end of line"
            raise self.error(f"expected {ch!r}, found {shown}")
        self.i += 1

    def name(self) -> str:
        tok = self.tokens[self.i]
        if tok in _NOT_NAMES:
            shown = repr(tok) if tok else "end of line"
            raise self.error(f"expected a name, found {shown}")
        self.i += 1
        return tok

    def end(self, parsed):
        """*parsed*, if nothing follows it on the line."""
        if self.tokens[self.i]:
            rest = self.text[self.offset():].strip()
            raise self.error(f"trailing input {rest!r}")
        return parsed

    def concept(self, depth: int = 0) -> Concept:
        if depth >= self.max_depth:
            raise self.error(f"nesting deeper than the limit of {self.max_depth}",
                             after=True)
        tok = self.name()
        # Keyword heads are only special when a '(' follows; otherwise they
        # are ordinary names.
        if self.tokens[self.i] == "(" and tok in ("and", "some", "nominal"):
            self.i += 1
            if tok == "nominal":
                individual = self.names.individuals[self.name()]
                self.expect(")")
                return individual
            if tok == "some":
                role = self.names.roles[self.name()]
                self.expect(",")
                filler = self.concept(depth + 1)
                self.expect(")")
                return Existential(role, filler)
            left = self.concept(depth + 1)
            self.expect(",")
            right = self.concept(depth + 1)
            self.expect(")")
            return Intersection(left, right)
        return self.names.classes[tok]

    def axiom(self) -> RawAxiom:
        head = self.name()
        if head not in ("subClassOf", "equivalentClasses", "disjointWith"):
            raise self.error(
                f"expected subClassOf, equivalentClasses or disjointWith, found {head!r}",
                after=True,
            )
        self.expect("(")
        first = self.concept(1)
        self.expect(",")
        second = self.concept(1)
        self.expect(")")
        return _axiom(head, first, second)


def _axiom(head: str, first: Concept, second: Concept) -> RawAxiom:
    if head == "subClassOf":
        return SubClassOf(first, second)
    if head == "equivalentClasses":
        return EquivalentClasses(first, second)
    return SubClassOf(Intersection(first, second), BOTTOM)


def parse_concept(text: str, max_depth: int = DEFAULT_MAX_DEPTH, line: int = 1) -> Concept:
    cur = _Cursor(text, line, max_depth)
    return cur.end(cur.concept())


def parse_axiom(text: str, max_depth: int = DEFAULT_MAX_DEPTH, line: int = 1) -> RawAxiom:
    cur = _Cursor(text, line, max_depth)
    return cur.end(cur.axiom())


def parse_ontology(
    lines: Iterable[str], max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[list[RawAxiom], OntologyStats]:
    """Parse a whole axiom file; the first syntax error aborts the run.

    Returns axioms in file order plus counts of distinct classes, relations
    and individuals seen anywhere in them.  Each class name is one
    ``Atomic`` object throughout the result, and each ``some(R,B)`` of the
    flat lines one ``Existential``.
    """
    axioms: list[RawAxiom] = []
    names = _Names()
    atoms, roles = names.classes, names.roles
    somes = _Table(lambda key: Existential(roles[key[0]], atoms[key[1]]))
    flat = max_depth > 2  # a some(R,B) filler sits at depth 2
    fullmatch = _FLAT.fullmatch
    for lineno, raw in enumerate(lines, start=1):
        match = fullmatch(raw) if flat else None
        if match is not None:
            head, a, role, filler, b = match.groups()
            second = atoms[b] if role is None else somes[role, filler]
            if head == "subClassOf":
                axioms.append(SubClassOf(atoms[a], second))
            else:
                axioms.append(_axiom(head, atoms[a], second))
            continue
        text = raw.split("#", 1)[0]
        if text.strip():
            cur = _Cursor(text, lineno, max_depth, names)
            axioms.append(cur.end(cur.axiom()))
    return axioms, names.stats(len(axioms))
