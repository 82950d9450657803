"""Bundled synthetic ontologies for experiments and stress tests.

Two generators:

* ``hub_spoke_lines`` - one source class linked through a single relation to
  several pairwise-disjoint targets.  The disjointness forces the targets
  apart, so a single translation vector cannot reach all of them; this is the
  canonical many-to-many stress case.

* ``surrogate_lines`` - a connected ~2000-class subclass hierarchy with a
  handful of relations, each leading many sources into one small shared
  target pool, standing in for a large biomedical ontology when none is
  bundled.
"""

from __future__ import annotations

import numpy as np

HUB_RELATION = "linksTo"

# surrogate_lines
SURROGATE_RELATIONS = 10  # role0 .. role9
MAX_SHORTCUTS = 2  # extra subclass edges to strict ancestors, per class
ROLE_PROBABILITY = 0.8  # share of classes given one role edge
TARGET_POOL_SIZE = 25  # role targets per relation
SURROGATE_DISJOINT = 80  # disjointWith axioms
SURROGATE_COMPLEX = 40  # axioms with a conjunction or an existential

# random_raw_lines
RAW_NAMES = 20  # classes A0 .. A19
RAW_ROLES = 4  # roles r0 .. r3
RAW_INDIVIDUALS = 4  # nominal(ind0) .. nominal(ind3)
RAW_MAX_DEPTH = 3  # deepest nesting of a concept


def hub_spoke_lines(n_targets: int = 8) -> list[str]:
    """Hub <= some R. Ti for each target, plus pairwise disjoint targets."""
    targets = [f"T{i}" for i in range(1, n_targets + 1)]
    lines = [f"subClassOf(Hub,some({HUB_RELATION},{t}))" for t in targets]
    for i in range(n_targets):
        for j in range(i + 1, n_targets):
            lines.append(f"disjointWith({targets[i]},{targets[j]})")
    return lines


def surrogate_lines(n_classes: int = 2000, seed: int = 0) -> list[str]:
    """Seeded surrogate ontology: an ancestor-redundant subclass DAG plus
    hub-shaped role axioms.

    Each class gets a tree parent (keeping the graph connected) and up to
    ``MAX_SHORTCUTS`` extra subclass edges to strict ancestors, so held-out
    subclass pairs usually stay derivable from surviving chains, as in real
    biomedical hierarchies.  Most classes also get one existential role edge
    into a small per-relation target pool.  A class has at most one role
    edge, so a relation gives each of its heads one tail, while each pool
    class is the tail of several heads: by TransH's categories every
    relation is N-to-1 (on data seed 3, 1.00 tails per head and 5.3-7.2
    heads per tail), not many-to-many.  No axiom line is emitted twice.
    """
    rng = np.random.default_rng(seed)
    names = [f"c{i:04d}" for i in range(n_classes)]
    parent = [0] * n_classes
    subclass_pairs = set()
    lines = []

    def add_subclass(child: int, sup: int) -> None:
        if (child, sup) not in subclass_pairs:
            subclass_pairs.add((child, sup))
            lines.append(f"subClassOf({names[child]},{names[sup]})")

    for i in range(1, n_classes):
        parent[i] = int(rng.integers(0, i))
        add_subclass(i, parent[i])
    for i in range(1, n_classes):
        ancestors = []
        j = parent[i]
        while j != 0:
            ancestors.append(j)
            j = parent[j]
        ancestors.append(0)
        beyond_parent = ancestors[1:]
        if not beyond_parent:
            continue
        k = min(len(beyond_parent), int(rng.integers(1, MAX_SHORTCUTS + 1)))
        picks = rng.choice(len(beyond_parent), size=k, replace=False)
        for p in picks:
            add_subclass(i, beyond_parent[int(p)])

    pools = [
        rng.choice(n_classes, size=TARGET_POOL_SIZE, replace=False)
        for _ in range(SURROGATE_RELATIONS)
    ]
    for i in range(n_classes):
        if rng.random() < ROLE_PROBABILITY:
            k = int(rng.integers(0, SURROGATE_RELATIONS))
            t = int(pools[k][int(rng.integers(0, TARGET_POOL_SIZE))])
            if t != i:
                lines.append(f"subClassOf({names[i]},some(role{k},{names[t]}))")
    for _ in range(SURROGATE_DISJOINT):
        a, b = (int(x) for x in rng.choice(n_classes, size=2, replace=False))
        lines.append(f"disjointWith({names[a]},{names[b]})")
    for _ in range(SURROGATE_COMPLEX):
        a, b, c = (int(x) for x in rng.choice(n_classes, size=3, replace=False))
        rel = f"role{int(rng.integers(0, SURROGATE_RELATIONS))}"
        shape = int(rng.integers(0, 3))
        if shape == 0:
            lines.append(f"subClassOf(and({names[a]},{names[b]}),{names[c]})")
        elif shape == 1:
            lines.append(
                f"subClassOf({names[a]},and({names[b]},some({rel},{names[c]})))"
            )
        else:
            lines.append(f"subClassOf(some({rel},{names[a]}),{names[b]})")
    return lines


def random_raw_lines(rng: np.random.Generator, n_axioms: int = 60) -> list[str]:
    """Random well-formed axiom lines covering every grammar production."""
    names = [f"A{i}" for i in range(RAW_NAMES)]
    roles = [f"r{i}" for i in range(RAW_ROLES)]
    individuals = [f"ind{i}" for i in range(RAW_INDIVIDUALS)]

    def concept(depth: int) -> str:
        choices = ["atomic", "atomic", "atomic", "top", "bottom", "nominal"]
        if depth < RAW_MAX_DEPTH:
            choices += ["and", "and", "some", "some"]
        kind = choices[int(rng.integers(0, len(choices)))]
        if kind == "atomic":
            return names[int(rng.integers(0, RAW_NAMES))]
        if kind == "top":
            return "top"
        if kind == "bottom":
            return "bottom"
        if kind == "nominal":
            return f"nominal({individuals[int(rng.integers(0, RAW_INDIVIDUALS))]})"
        if kind == "and":
            return f"and({concept(depth + 1)},{concept(depth + 1)})"
        role = roles[int(rng.integers(0, RAW_ROLES))]
        return f"some({role},{concept(depth + 1)})"

    lines = []
    for _ in range(n_axioms):
        head = ("subClassOf", "subClassOf", "subClassOf",
                "equivalentClasses", "disjointWith")[int(rng.integers(0, 5))]
        lines.append(f"{head}({concept(1)},{concept(1)})")
    return lines
