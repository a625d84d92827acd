"""Mapping the refined graph into a target domain ontology.

Per-concept inconsistency counts the properties used on a concept's
instances that the target ontology does not declare for that concept or
any of its superclasses.  The final ontology is the graph trimmed to the
target's vocabulary with all offending and domain/range-violating
statements removed.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cache

from .model import (
    LITERAL_RANGE,
    META_CLASSES,
    KnowledgeGraph,
    OntologySchema,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    Term,
    Triple,
    is_schema_triple,
    reachable,
)


@dataclass
class ConceptInconsistency:
    concept: str
    offending_properties: set[str]
    epsilon_c: int
    affected_triples: list[Triple]


@dataclass(frozen=True)
class DomainRangeViolation:
    triple: Triple
    position: str  # "domain" | "range"
    property: str
    expected: frozenset[str]
    found: frozenset[str]


@dataclass
class ConsistencyReport:
    per_concept: list[ConceptInconsistency] = field(default_factory=list)
    epsilon_total: int = 0
    domain_range_violations: list[DomainRangeViolation] = field(default_factory=list)
    removed_triples: list[Triple] = field(default_factory=list)
    retained: int = 0


def _closure(edges: Iterable[tuple[str, str]]) -> Callable[[frozenset[str]], set[str]]:
    """`reachable` along `edges`, memoized per start set (results are shared: read only)."""
    edges = set(edges)
    return cache(lambda start: reachable(edges, start))


def concept_slices(kg: KnowledgeGraph) -> dict[str, list[Triple]]:
    """Each concept of the graph, a class its type assertions name, in sorted
    order, with the data statements about its instances (entities typed it
    or, through the graph's subclass edges, a descendant) in canonical
    order.  One pass over the data statements fills every slice."""
    by_class = kg.entities_by_class()
    down = _closure((parent, child) for child, parent in kg.subclass_edges())
    slices: dict[str, list[Triple]] = {}
    concepts_of: dict[Term, list[str]] = defaultdict(list)
    for c in sorted(by_class.keys() - META_CLASSES):
        slices[c] = []
        for e in set().union(*(by_class.get(d, ()) for d in down(frozenset({c})))):
            concepts_of[e].append(c)
    for st in kg.data_statements:
        for c in concepts_of.get(st.triple.subject, ()):
            slices[c].append(st.triple)
    return slices


def _allowed_properties(on: OntologySchema, c: str) -> set[str]:
    """Target-ontology properties usable on c: declared on c or an ancestor,
    or declared with no domain at all (open)."""
    closure = on.ancestors_or_self(c) if c in on.classes else {c}
    allowed = set()
    for prop, decl in on.properties.items():
        if not decl.domains or decl.domains & closure:
            allowed.add(prop)
    return allowed


def epsilon_for_concept(about: list[Triple], on: OntologySchema, c: str) -> ConceptInconsistency:
    """Count the properties used in `about`, concept c's slice, that the
    target ontology does not declare for c, collecting the statements that
    use them."""
    offending = {t.predicate.value for t in about} - _allowed_properties(on, c)
    affected = [t for t in about if t.predicate.value in offending]
    return ConceptInconsistency(c, offending, len(offending), affected)


def domain_range_check(kg: KnowledgeGraph, on: OntologySchema) -> list[DomainRangeViolation]:
    """Flag statements whose typed subject misses the declared domain or
    whose typed object misses the declared range.  Untyped endpoints and
    undeclared properties never violate."""
    violations: list[DomainRangeViolation] = []
    class_map = kg.class_map()
    # superclass closure over both the graph's and the target's edges,
    # computed once per distinct set of asserted classes
    up = _closure(kg.subclass_edges() | on.subclass_edges)
    for st in kg.data_statements:
        t = st.triple
        decl = on.properties.get(t.predicate.value)
        if decl is None:
            continue
        for position, entity, declared in (
            ("domain", t.subject, decl.domains),
            ("range", t.object, decl.ranges),
        ):
            if not declared:
                continue
            if entity.is_literal:  # only an object: fits a literal range alone
                expected, found = declared, ()
                wrong = LITERAL_RANGE not in declared
            else:
                expected, found = declared - {LITERAL_RANGE}, class_map.get(entity, ())
                wrong = expected and found and not (up(frozenset(found)) & expected)
            if wrong:
                violations.append(DomainRangeViolation(
                    t, position, t.predicate.value, frozenset(expected), frozenset(found)))
    return violations


def _in_vocabulary(t: Triple, on: OntologySchema) -> bool:
    """Whether a statement stays inside the target's vocabulary: type
    assertions name a target class, subclass edges join two, domain/range
    declarations and data statements are about a target property."""
    p = t.predicate.value
    if p == RDF_TYPE:
        return t.object.is_iri and t.object.value in on.classes
    if p == RDFS_SUBCLASS_OF:
        return all(x.is_iri and x.value in on.classes for x in (t.subject, t.object))
    if is_schema_triple(t):
        return t.subject.value in on.properties
    return p in on.properties


def map_to_domain(
    kg: KnowledgeGraph, on: OntologySchema
) -> tuple[KnowledgeGraph, ConsistencyReport]:
    """Trim the graph to the target ontology.

    Removes every statement affected by a per-concept inconsistency, every
    domain/range violation, and everything outside the target's class and
    property vocabulary.  The report accounts for all of it.
    """
    report = ConsistencyReport()
    # a comprehension, so no slice outlives its count
    report.per_concept = [
        epsilon_for_concept(about, on, c) for c, about in concept_slices(kg).items()
    ]
    removed = {t for inc in report.per_concept for t in inc.affected_triples}
    report.epsilon_total = sum(inc.epsilon_c for inc in report.per_concept)

    report.domain_range_violations = domain_range_check(kg, on)
    removed.update(v.triple for v in report.domain_range_violations)

    report.removed_triples = [
        t for t in kg.triples() if t in removed or not _in_vocabulary(t, on)
    ]
    out = kg.without(report.removed_triples)
    report.retained = len(out)
    return out, report
