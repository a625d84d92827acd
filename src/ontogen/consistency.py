"""Mapping the refined graph into a target domain ontology.

Per-concept inconsistency counts the properties used on a concept's
instances that the target ontology does not declare for that concept or
any of its superclasses.  The final ontology is the graph trimmed to the
target's vocabulary with all offending and domain/range-violating
statements removed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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

log = logging.getLogger(__name__)


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


def okg_concepts(kg: KnowledgeGraph) -> set[str]:
    """Concepts of the generated graph: classes referenced by type assertions."""
    out = set()
    for t in kg.type_assertions():
        if t.object.is_iri and t.object.value not in META_CLASSES:
            out.add(t.object.value)
    return out


def _instances_of(kg: KnowledgeGraph, c: str) -> set[Term]:
    """Entities typed c or, through the graph's subclass edges, a descendant."""
    classes = reachable(((parent, child) for child, parent in kg.subclass_edges()), {c})
    by_class = kg.entities_by_class()
    return set().union(*(by_class.get(cls, set()) for cls in classes))


def _concept_slice(kg: KnowledgeGraph, c: str) -> list[Triple]:
    """Data statements about c's instances, in canonical order."""
    instances = _instances_of(kg, c)
    if not instances:
        log.warning("concept %s has no instances in the generated graph", c)
        return []
    return [st.triple for st in kg.data_statements if st.triple.subject in instances]


def concept_properties(kg: KnowledgeGraph, c: str) -> set[str]:
    """Predicates used on instances typed c, directly or via subclass."""
    return {t.predicate.value for t in _concept_slice(kg, c)}


def _allowed_properties(on: OntologySchema, c: str) -> set[str]:
    """Target-ontology properties usable on c: declared on c or an ancestor,
    or declared with no domain at all (open)."""
    closure = on.ancestors_or_self(c) if c in on.classes else {c}
    allowed = set()
    for prop, decl in on.properties.items():
        if not decl.domains or decl.domains & closure:
            allowed.add(prop)
    return allowed


def epsilon_for_concept(kg: KnowledgeGraph, on: OntologySchema, c: str) -> ConceptInconsistency:
    """Count the properties on c's instances that the target ontology does
    not declare for c, collecting the statements that use them."""
    about = _concept_slice(kg, c)
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
    edges = kg.subclass_edges() | on.subclass_edges
    closures: dict[frozenset[str], set[str]] = {}

    def closure(found: set[str]) -> set[str]:
        key = frozenset(found)
        if key not in closures:
            closures[key] = reachable(edges, key)
        return closures[key]

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
                wrong = expected and found and not (closure(found) & expected)
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
    removed: set[Triple] = set()

    for c in sorted(okg_concepts(kg)):
        inc = epsilon_for_concept(kg, on, c)
        report.per_concept.append(inc)
        removed.update(inc.affected_triples)
    report.epsilon_total = sum(inc.epsilon_c for inc in report.per_concept)

    report.domain_range_violations = domain_range_check(kg, on)
    removed.update(v.triple for v in report.domain_range_violations)

    report.removed_triples = [
        t for t in kg.triples() if t in removed or not _in_vocabulary(t, on)
    ]
    out = kg.without(report.removed_triples)
    report.retained = len(out)
    return out, report
