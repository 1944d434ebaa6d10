"""Equation specifications over a schema and their entailment order.

A specification is an ordered list of named facts, each a set of parallel
path equations.  Fact A entails fact B when B's equations land in the
bounded congruence closure seeded with A's equations alone (the host
schema contributes only its graph).  The lattice additionally admits
asserted order pairs, kept distinct from derived ones: the closure rules
only ever extend paths, so an ordering that would need cancellation can
be recorded but is never claimed as a derivation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dsl import path_from_expr
from .instance import (Instance, InvalidInstanceError, _check_structure,
                       differing_rows, validate)
from .schema import (
    OlogError,
    PathEquivalence,
    PathPartition,
    Schema,
    congruence_closure,
)

BOTTOM = "∅"


class SpecError(OlogError):
    pass


class UnknownFactError(SpecError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown fact name: {name!r}")
        self.name = name


@dataclass(frozen=True)
class Fact:
    name: str
    equations: Tuple[PathEquivalence, ...]


@dataclass(frozen=True)
class Specification:
    schema: Schema
    facts: Tuple[Fact, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.facts]
        if len(set(names)) != len(names):
            raise SpecError("fact names must be unique")
        for f in self.facts:
            for eq in f.equations:
                self.schema.check_path(eq.lhs)
                self.schema.check_path(eq.rhs)

    def fact(self, name: str) -> Fact:
        for f in self.facts:
            if f.name == name:
                return f
        raise UnknownFactError(name)

    def names(self) -> List[str]:
        return [f.name for f in self.facts]


# -- closure --------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureResult:
    """The bounded congruence closure of a fact subset, queryable by pair."""

    partition: PathPartition

    def contains(self, eq: PathEquivalence) -> bool:
        return self.partition.same(eq.lhs, eq.rhs)


def closure(spec: Specification, subset: Sequence[str], max_len: int) -> ClosureResult:
    """Congruence closure seeded with the named facts' equations only."""
    axioms: List[PathEquivalence] = []
    for name in subset:
        axioms.extend(spec.fact(name).equations)
    return ClosureResult(congruence_closure(spec.schema, max_len, axioms))


# -- entailment order -------------------------------------------------------------


@dataclass(frozen=True)
class OrderEdge:
    above: str
    below: str
    tag: str  # "Derived" | "AssertedOnly"


@dataclass(frozen=True)
class FiberOrder:
    """Preorder on fact nodes (plus the bottom, the empty fact set).

    ``relation`` holds every holding pair, reflexive pairs included;
    ``hasse`` is the covering relation with the same tags.
    """

    nodes: Tuple[str, ...]
    relation: Tuple[OrderEdge, ...]
    hasse: Tuple[OrderEdge, ...]

    def holds(self, above: str, below: str) -> bool:
        return any(e.above == above and e.below == below for e in self.relation)

    def tag_of(self, above: str, below: str) -> Optional[str]:
        for e in self.relation:
            if e.above == above and e.below == below:
                return e.tag
        return None


def entailment_order(
    spec: Specification,
    max_len: int,
    asserted: Sequence[Tuple[str, str]] = (),
) -> FiberOrder:
    """Order the facts (and the bottom) by closure containment.

    An edge above >= below is Derived when every equation of ``below`` is in
    closure({above}) at the bound.  Asserted pairs are added to the order;
    those not independently derivable keep the AssertedOnly tag.  The full
    preorder is the reflexive-transitive closure of both kinds; the Hasse
    reduction is computed on the induced partial order.
    """
    nodes = spec.names() + [BOTTOM]
    for above, below in asserted:
        if above not in nodes or below not in nodes:
            raise UnknownFactError(above if above not in nodes else below)

    closures: Dict[str, ClosureResult] = {
        name: closure(spec, [name], max_len) for name in spec.names()
    }
    empty_closure = closure(spec, [], max_len)
    closures[BOTTOM] = empty_closure

    equations = {f.name: f.equations for f in spec.facts}
    equations[BOTTOM] = ()

    derived: Set[Tuple[str, str]] = set()
    for above in nodes:
        for below in nodes:
            if all(closures[above].contains(eq) for eq in equations[below]):
                derived.add((above, below))

    # Preorder closure over derived + asserted pairs, by Warshall on the
    # set of nodes below each node.
    below_of: Dict[str, Set[str]] = {n: set() for n in nodes}
    for a, b in derived.union(asserted):
        below_of[a].add(b)
    for m in nodes:
        for a in nodes:
            if m in below_of[a]:
                below_of[a] |= below_of[m]
    holds = {(a, b) for a in nodes for b in below_of[a]}

    def tag(a: str, b: str) -> str:
        return "Derived" if (a, b) in derived else "AssertedOnly"

    relation = tuple(
        OrderEdge(a, b, tag(a, b))
        for a in nodes
        for b in nodes
        if (a, b) in holds
    )

    # Hasse reduction on the condensation (mutually-ordered nodes collapse).
    index = {n: i for i, n in enumerate(nodes)}
    scc_rep: Dict[str, str] = {}
    for n in nodes:
        group = [m for m in nodes if (n, m) in holds and (m, n) in holds]
        scc_rep[n] = min(group, key=lambda m: index[m])
    reps = sorted({scc_rep[n] for n in nodes}, key=lambda m: index[m])
    strict = {
        (a, b)
        for a in reps
        for b in reps
        if a != b and (a, b) in holds
    }
    hasse_pairs = {
        (a, b)
        for (a, b) in strict
        if not any((a, m) in strict and (m, b) in strict for m in reps)
    }
    hasse = tuple(
        sorted(
            (OrderEdge(a, b, tag(a, b)) for (a, b) in hasse_pairs),
            key=lambda e: (index[e.above], index[e.below]),
        )
    )
    return FiberOrder(tuple(nodes), relation, hasse)


# -- satisfaction ------------------------------------------------------------------


@dataclass(frozen=True)
class SatisfactionResult:
    holds: bool
    counterexamples: Tuple[Tuple[str, str], ...] = ()  # (equation, row)


def satisfies(instance: Instance, fact: Fact) -> SatisfactionResult:
    """Row-by-row check that an instance models every equation of a fact.

    Refuses instances with structural problems (partial columns, dangling
    keys); violations of the schema's own declared equivalences do not block
    the check, since facts are routinely stronger than the schema.
    """
    if not _check_structure(instance).structurally_ok:
        raise InvalidInstanceError(validate(instance))
    bad = [
        (str(eq), row) for eq in fact.equations for row in differing_rows(instance, eq)
    ]
    return SatisfactionResult(holds=not bad, counterexamples=tuple(bad))


# -- rendering ---------------------------------------------------------------------


def render_hasse(order: FiberOrder) -> str:
    """Deterministic Graphviz DOT for the Hasse diagram.

    Nodes appear in specification order with the bottom last; covering
    edges point from the greater fact down to the lesser; AssertedOnly
    edges are dashed.
    """
    lines = ["digraph fiber_order {"]
    lines.append('  rankdir="TB";')
    lines.append('  node [shape="box"];')
    for n in order.nodes:
        lines.append(f'  "{n}";')
    for e in order.hasse:
        style = ' [style="dashed"]' if e.tag == "AssertedOnly" else ""
        lines.append(f'  "{e.above}" -> "{e.below}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def order_to_dict(order: FiberOrder) -> Dict[str, object]:
    return {
        "nodes": list(order.nodes),
        "hasse": [
            {"above": e.above, "below": e.below, "tag": e.tag} for e in order.hasse
        ],
        "relation": [
            {"above": e.above, "below": e.below, "tag": e.tag}
            for e in sorted(order.relation, key=lambda e: (e.above, e.below))
        ],
    }


# -- file formats ------------------------------------------------------------------

_FACT_OPEN_RE = re.compile(r"^fact\s+([A-Za-z0-9_+-]+)\s*\{(.*)$")


def parse_specification(text: str, schema: Schema) -> Specification:
    """Parse the fact file format::

        fact E1 { u = j.c ; u = w.s.c }

    A fact may span lines until its closing brace; ``#`` comments allowed.
    """
    facts: List[Fact] = []
    current_name: Optional[str] = None
    current_body: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if current_name is None:
            m = _FACT_OPEN_RE.match(line)
            if not m:
                raise SpecError(f"line {lineno}: expected 'fact <name> {{'")
            current_name = m.group(1)
            rest = m.group(2)
        else:
            rest = line
        if "}" in rest:
            body, trailer = rest.split("}", 1)
            if trailer.strip():
                raise SpecError(f"line {lineno}: trailing text after '}}'")
            current_body.append(body)
            facts.append(_build_fact(current_name, " ".join(current_body), schema))
            current_name = None
            current_body = []
        else:
            current_body.append(rest)
    if current_name is not None:
        raise SpecError(f"fact {current_name!r} is missing its closing brace")
    return Specification(schema=schema, facts=tuple(facts))


def _build_fact(name: str, body: str, schema: Schema) -> Fact:
    equations: List[PathEquivalence] = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise SpecError(f"fact {name!r}: equation {chunk!r} lacks '='")
        lhs, rhs = (s.strip() for s in chunk.split("=", 1))
        equations.append(
            PathEquivalence(path_from_expr(schema, lhs), path_from_expr(schema, rhs))
        )
    if not equations:
        raise SpecError(f"fact {name!r} declares no equations")
    return Fact(name=name, equations=tuple(equations))


def parse_asserted(text: str) -> List[Tuple[str, str]]:
    """Parse asserted order lines of the form ``E6 >= E13``."""
    out: List[Tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^([A-Za-z0-9_+-]+)\s*>=\s*([A-Za-z0-9_+-]+)$", line)
        if not m:
            raise SpecError(f"line {lineno}: expected '<fact> >= <fact>'")
        out.append((m.group(1), m.group(2)))
    return out
