"""Error correction against reference ontologies: disjointness-axiom
violations are resolved by deleting the weaker assertion, and facts for
functional properties are cross-checked against a trusted reference fact
set with object replacement on conflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import KnowledgeGraph, OntologySchema, ScoredTriple, Term, Triple, RDF_TYPE
from .rdf_io import local_name


#: confidence assigned to reference-corrected statements
REFERENCE_CONFIDENCE = 1.0


class CorrectionError(ValueError):
    """Reference ontology unusable for the requested check."""


@dataclass(frozen=True)
class CorrectionConfig:
    #: property IRIs treated as functional when cross-checking reference facts
    functional: frozenset[str] = frozenset()
    #: object values at least this similar to the reference value do not conflict
    sim_threshold: float = 0.8

    def __post_init__(self) -> None:
        for p in self.functional:
            Term.iri(p)  # an item that is not an IRI raises


@dataclass(frozen=True)
class DisjointnessEvidence:
    type_assertion: Triple
    property_triple: Triple
    entity_class: str
    conflicting_class: str
    axiom: tuple[str, str]
    position: str  # "domain" | "range"


@dataclass(frozen=True)
class ReferenceConflictEvidence:
    kg_triple: Triple
    reference_fact: Triple
    proposed: Term


@dataclass(frozen=True)
class Violation:
    triple: Triple
    kind: str  # "disjointness" | "reference-conflict"
    evidence: DisjointnessEvidence | ReferenceConflictEvidence


@dataclass
class CorrectionReport:
    violations: list[Violation] = field(default_factory=list)
    deleted: list[Triple] = field(default_factory=list)
    replaced: list[tuple[Triple, Triple]] = field(default_factory=list)
    checked: int = 0


def detect_disjointness_violations(
    kg: KnowledgeGraph, reference: OntologySchema
) -> list[Violation]:
    """Find statements whose property's declared domain or range is
    disjoint (under subclass closure) with an asserted class of the
    entity filling that position."""
    if not reference.disjoint_pairs:
        raise CorrectionError("reference ontology declares no disjointness axioms")

    violations: list[Violation] = []
    class_map = kg.class_map()
    witnesses: dict[tuple[str, str], tuple[str, str] | None] = {}
    for st in kg.data_statements:
        t = st.triple
        decl = reference.properties.get(t.predicate.value)
        if decl is None:
            continue
        for entity, decl_classes, position in (
            (t.subject, decl.domains, "domain"),
            (t.object, decl.ranges, "range"),
        ):
            if entity.is_literal:
                continue
            hit = None
            for c in sorted(class_map.get(entity, set()) & reference.classes):
                for c2 in sorted(set(decl_classes) & reference.classes):
                    if (c, c2) not in witnesses:
                        witnesses[c, c2] = reference.disjoint_witness(c, c2)
                    axiom = witnesses[c, c2]
                    if axiom is not None:
                        hit = (c, c2, axiom)
                        break
                if hit:
                    break
            if hit is None:
                continue
            c, c2, axiom = hit
            violations.append(
                Violation(
                    triple=t,
                    kind="disjointness",
                    evidence=DisjointnessEvidence(
                        type_assertion=Triple(entity, Term.iri(RDF_TYPE), Term.iri(c)),
                        property_triple=t,
                        entity_class=c,
                        conflicting_class=c2,
                        axiom=axiom,
                        position=position,
                    ),
                )
            )
    return violations


def recheck_disjointness(evidence: DisjointnessEvidence, reference: OntologySchema) -> bool:
    """Re-derive a disjointness violation from its recorded evidence."""
    a, b = evidence.axiom
    if not reference.is_declared_disjoint(a, b):
        return False
    decl = reference.properties.get(evidence.property_triple.predicate.value)
    if decl is None:
        return False
    declared = decl.domains if evidence.position == "domain" else decl.ranges
    if evidence.conflicting_class not in declared:
        return False
    up_entity = reference.ancestors_or_self(evidence.entity_class)
    up_conflict = reference.ancestors_or_self(evidence.conflicting_class)
    return (a in up_entity and b in up_conflict) or (b in up_entity and a in up_conflict)


# ----------------------------------------------------------------------
# reference fact cross-check

def levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def string_similarity(a: str, b: str) -> float:
    """Normalized similarity: 1 - Levenshtein distance / max length."""
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _comparable(term: Term) -> str:
    return local_name(term.value) if term.is_iri else term.value


def terms_agree(a: Term, b: Term, sim_threshold: float) -> bool:
    """Equal terms, or labels (IRI local names, literal values) equal after
    case folding or at least `sim_threshold` similar."""
    if a == b:
        return True
    va, vb = _comparable(a).casefold(), _comparable(b).casefold()
    return va == vb or string_similarity(va, vb) >= sim_threshold


def reference_fact_check(
    kg: KnowledgeGraph, reference: OntologySchema, cfg: CorrectionConfig
) -> list[Violation]:
    """Cross-check functional-property statements against reference facts.

    Statements whose subject and predicate match a reference fact but whose
    object is dissimilar conflict, proposing the reference object.  Facts
    absent from the reference never conflict (open world).
    """
    if not reference.facts:
        raise CorrectionError("reference ontology carries no facts")

    by_sp: dict[tuple[Term, str], list[Triple]] = {}
    for fact in reference.facts:
        by_sp.setdefault((fact.subject, fact.predicate.value), []).append(fact)

    violations: list[Violation] = []
    for st in kg.data_statements:
        t = st.triple
        if t.predicate.value not in cfg.functional:
            continue
        facts = by_sp.get((t.subject, t.predicate.value))
        if not facts:
            continue
        if any(terms_agree(t.object, f.object, cfg.sim_threshold) for f in facts):
            continue
        fact = min(facts, key=Triple.sort_key)
        violations.append(
            Violation(
                triple=t,
                kind="reference-conflict",
                evidence=ReferenceConflictEvidence(
                    kg_triple=t, reference_fact=fact, proposed=fact.object
                ),
            )
        )
    return violations


def correct(
    kg: KnowledgeGraph, reference: OntologySchema, cfg: CorrectionConfig = CorrectionConfig()
) -> tuple[KnowledgeGraph, CorrectionReport]:
    """Apply both checks to the graph and derive the corrected graph.

    Disjointness violations delete the lower-confidence member of the
    (type assertion, property triple) pair, deleting the property triple on
    ties; a violation one of whose members is already deleted deletes
    nothing.  Reference conflicts on the statements left replace the object
    with the reference value at the configured confidence.
    """
    report = CorrectionReport()
    report.checked = len(kg.data_statements) + len(kg.type_assertions())

    deleted: set[Triple] = set()
    added: list[ScoredTriple] = []
    if reference.disjoint_pairs:
        disjoint_violations = detect_disjointness_violations(kg, reference)
        report.violations.extend(disjoint_violations)
        for v in disjoint_violations:
            ev = v.evidence
            if ev.type_assertion in deleted or ev.property_triple in deleted:
                continue
            type_st = kg.statement_for(ev.type_assertion)
            prop_st = kg.statement_for(ev.property_triple)
            deleted.add(
                ev.type_assertion if type_st.confidence < prop_st.confidence else ev.property_triple
            )
        report.deleted = [t for t in kg.triples() if t in deleted]

    if reference.facts and cfg.functional:
        conflicts = [
            v for v in reference_fact_check(kg, reference, cfg) if v.triple not in deleted
        ]
        report.violations.extend(conflicts)
        for v in conflicts:
            old = v.evidence.kg_triple
            fixed = Triple(old.subject, old.predicate, v.evidence.proposed)
            report.replaced.append((old, fixed))
            added.append(ScoredTriple(fixed, REFERENCE_CONFIDENCE, kg.statement_for(old).source_id))

    return kg.without(deleted | {old for old, _ in report.replaced}, added), report
