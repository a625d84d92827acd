import numpy as np
import pytest

import fixture_factory as ff
from ontogen.consistency import (
    concept_slices,
    domain_range_check,
    epsilon_for_concept,
    map_to_domain,
)
from ontogen.model import (
    LITERAL_RANGE,
    META_CLASSES,
    SCHEMA_PREDICATES,
    KnowledgeGraph,
    OntologySchema,
    PropertyDecl,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    Term,
    Triple,
)


def iri(v: str) -> Term:
    return Term.iri("http://example.org/" + v)


RDF_TYPE_T = Term.iri(RDF_TYPE)


def company_table_kg(n_companies: int = 5) -> KnowledgeGraph:
    """A small slice of the company table: every company carries exactly
    the eleven table properties."""
    kg = KnowledgeGraph()
    for i in range(1, n_companies + 1):
        c = ff.company(i)
        kg.add_triple(Triple(c, RDF_TYPE_T, Term.iri(ff.cls("Company"))), 0.9)
        for p in ff.LITERAL_PROPERTIES:
            kg.add_triple(Triple(c, ff.prop(p), Term.literal(f"{p}-{i}")), 0.8)
        kg.add_triple(Triple(c, ff.prop("businessFocus"), ff.focus_term(ff.true_focus(i))), 0.8)
    for f in ff.FOCUSES:
        kg.add_triple(Triple(ff.focus_term(f), RDF_TYPE_T, Term.iri(ff.cls("BusinessFocus"))), 0.9)
    return kg


def concept_properties(kg: KnowledgeGraph, c: str) -> set[str]:
    """Predicates used on c's instances, directly or via subclass."""
    return {t.predicate.value for t in concept_slices(kg).get(c, [])}


def concept_epsilon(kg: KnowledgeGraph, on: OntologySchema, c: str):
    return epsilon_for_concept(concept_slices(kg)[c], on, c)


class TestConceptProperties:
    def test_concept_without_instances(self):
        assert concept_slices(KnowledgeGraph()) == {}
        assert concept_properties(KnowledgeGraph(), "http://example.org/Nothing") == set()

    def test_company_concept_lists_the_eleven_properties(self):
        kg = company_table_kg()
        props = concept_properties(kg, ff.cls("Company"))
        expected = {ff.prop(p).value for p in ff.LITERAL_PROPERTIES} | {ff.prop("businessFocus").value}
        assert props == expected
        assert len(props) == 11

    def test_subclass_instances_count(self):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("Sub"), Term.iri(RDFS_SUBCLASS_OF), iri("Super")), 0.9)
        kg.add_triple(Triple(iri("e"), RDF_TYPE_T, iri("Sub")), 0.9)
        kg.add_triple(Triple(iri("e"), iri("p"), Term.literal("v")), 0.8)
        # a concept is a class some type assertion names: f makes Super one
        kg.add_triple(Triple(iri("f"), RDF_TYPE_T, iri("Super")), 0.9)
        assert concept_properties(kg, "http://example.org/Super") == {"http://example.org/p"}

    def test_two_class_fixture_matches_hand_enumeration(self):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("a"), RDF_TYPE_T, iri("A")), 0.9)
        kg.add_triple(Triple(iri("b"), RDF_TYPE_T, iri("B")), 0.9)
        kg.add_triple(Triple(iri("a"), iri("p1"), Term.literal("x")), 0.8)
        kg.add_triple(Triple(iri("a"), iri("p2"), iri("b")), 0.8)
        kg.add_triple(Triple(iri("b"), iri("p3"), Term.literal("y")), 0.8)
        assert concept_properties(kg, "http://example.org/A") == {
            "http://example.org/p1",
            "http://example.org/p2",
        }
        assert concept_properties(kg, "http://example.org/B") == {"http://example.org/p3"}


class TestEpsilonForConcept:
    def test_company_epsilon_is_three_against_domain_fixture(self, domain_schema):
        kg = company_table_kg()
        inc = concept_epsilon(kg, domain_schema, ff.cls("Company"))
        assert inc.epsilon_c == 3
        assert inc.offending_properties == {
            ff.prop("previousRank").value,
            ff.prop("revenueChange").value,
            ff.prop("profitChange").value,
        }
        assert len(inc.affected_triples) == 15  # 3 properties x 5 companies

    def test_subset_properties_epsilon_zero(self, domain_schema):
        kg = KnowledgeGraph()
        c = ff.company(1)
        kg.add_triple(Triple(c, RDF_TYPE_T, Term.iri(ff.cls("Company"))), 0.9)
        kg.add_triple(Triple(c, ff.prop("rank"), Term.literal("1")), 0.8)
        inc = concept_epsilon(kg, domain_schema, ff.cls("Company"))
        assert inc.epsilon_c == 0 and inc.affected_triples == []

    def test_property_declared_on_superclass_not_offending(self, domain_schema):
        # companyName is declared on Organisation; Company inherits it
        kg = KnowledgeGraph()
        c = ff.company(1)
        kg.add_triple(Triple(c, RDF_TYPE_T, Term.iri(ff.cls("Company"))), 0.9)
        kg.add_triple(Triple(c, ff.prop("companyName"), Term.literal("x")), 0.8)
        inc = concept_epsilon(kg, domain_schema, ff.cls("Company"))
        assert inc.epsilon_c == 0


class TestDomainRangeCheck:
    @pytest.fixture
    def on(self) -> OntologySchema:
        schema = OntologySchema()
        schema.classes |= {"http://example.org/Person", "http://example.org/City"}
        schema.properties["http://example.org/hasLastName"] = PropertyDecl(
            domains={"http://example.org/Person"}, ranges={"literal"}
        )
        schema.properties["http://example.org/livesIn"] = PropertyDecl(
            domains={"http://example.org/Person"}, ranges={"http://example.org/City"}
        )
        schema.properties["http://example.org/noDomain"] = PropertyDecl()
        schema.validate()
        return schema

    def test_typed_subject_in_domain_is_fine(self, on):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("john"), RDF_TYPE_T, iri("Person")), 0.9)
        kg.add_triple(Triple(iri("john"), iri("hasLastName"), Term.literal("Robert")), 0.8)
        assert domain_range_check(kg, on) == []

    def test_undeclared_domain_never_violates(self, on):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("x"), iri("noDomain"), Term.literal("v")), 0.8)
        kg.add_triple(Triple(iri("x"), RDF_TYPE_T, iri("City")), 0.9)
        assert domain_range_check(kg, on) == []

    def test_untyped_subject_skipped(self, on):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("mystery"), iri("hasLastName"), Term.literal("v")), 0.8)
        assert domain_range_check(kg, on) == []

    def test_planted_domain_and_range_violations(self, on):
        kg = KnowledgeGraph()
        for i in range(5):
            kg.add_triple(Triple(iri(f"p{i}"), RDF_TYPE_T, iri("Person")), 0.9)
            kg.add_triple(Triple(iri(f"c{i}"), RDF_TYPE_T, iri("City")), 0.9)
            kg.add_triple(Triple(iri(f"p{i}"), iri("livesIn"), iri(f"c{i}")), 0.8)
        # 5 domain violations: cities carrying a person property
        for i in range(5):
            kg.add_triple(Triple(iri(f"c{i}"), iri("hasLastName"), Term.literal("x")), 0.8)
        # 3 range violations: livesIn pointing at persons
        for i in range(3):
            kg.add_triple(Triple(iri(f"p{i}"), iri("livesIn"), iri(f"p{(i + 1) % 5}")), 0.8)
        violations = domain_range_check(kg, on)
        assert len(violations) == 8
        assert sum(1 for v in violations if v.position == "domain") == 5
        assert sum(1 for v in violations if v.position == "range") == 3


def domain_range_case(seed: int) -> tuple[KnowledgeGraph, OntologySchema]:
    """Random graph/target pair whose subclass edges are split between the
    graph and the target, so a superclass chain can cross from one to the other."""
    rng = np.random.default_rng(seed)
    classes = [f"http://example.org/dr/class{i}" for i in range(8)]
    props = [iri(f"dr/p{i}") for i in range(8)]
    subclass = Term.iri(RDFS_SUBCLASS_OF)
    kg = KnowledgeGraph()
    on = OntologySchema()
    on.classes = set(classes[:6])
    for i in range(1, 8):
        if rng.random() < 0.8:
            parent = classes[int(rng.integers(0, i))]
            if rng.random() < 0.5:
                kg.add_triple(Triple(Term.iri(classes[i]), subclass, Term.iri(parent)), 0.9)
            else:
                on.subclass_edges.add((classes[i], parent))
    for p in props[:6]:
        decl = PropertyDecl()
        decl.domains = {classes[int(i)] for i in rng.choice(8, size=int(rng.integers(0, 3)), replace=False)}
        decl.ranges = {classes[int(i)] for i in rng.choice(8, size=int(rng.integers(0, 3)), replace=False)}
        if rng.random() < 0.4:
            decl.ranges.add(LITERAL_RANGE)
        on.properties[p.value] = decl
    entities = [iri(f"dr/e{i}") for i in range(30)]
    for e in entities:
        for c in rng.choice(8, size=int(rng.integers(0, 3)), replace=False):
            kg.add_triple(Triple(e, RDF_TYPE_T, Term.iri(classes[int(c)])), 0.9)
        for _ in range(4):
            p = props[int(rng.integers(len(props)))]
            if rng.random() < 0.3:
                obj = Term.literal(str(int(rng.integers(0, 100))))
            else:
                obj = entities[int(rng.integers(len(entities)))]
            kg.add_triple(Triple(e, p, obj), 0.8)
    on.validate()
    return kg, on


def brute_force_domain_range(kg: KnowledgeGraph, on: OntologySchema) -> list[tuple]:
    """Per-statement re-derivation: the superclass closure over the graph's
    and the target's edges is recomputed from scratch for every endpoint."""
    types: dict[Term, set[str]] = {}
    for t in kg.triples():
        if t.predicate.value == RDF_TYPE and t.object.is_iri:
            types.setdefault(t.subject, set()).add(t.object.value)

    def supers(classes: set[str]) -> set[str]:
        edges = kg.subclass_edges() | on.subclass_edges
        out = set(classes)
        while True:
            extra = {parent for child, parent in edges if child in out} - out
            if not extra:
                return out
            out |= extra

    found_violations = []
    for st in kg.data_statements:
        t = st.triple
        decl = on.properties.get(t.predicate.value)
        if decl is None:
            continue
        found = types.get(t.subject, set())
        if decl.domains and found and not supers(found) & decl.domains:
            found_violations.append((t, "domain", frozenset(decl.domains), frozenset(found)))
        if not decl.ranges:
            continue
        if t.object.is_literal:
            if LITERAL_RANGE not in decl.ranges:
                found_violations.append((t, "range", frozenset(decl.ranges), frozenset()))
            continue
        class_ranges = decl.ranges - {LITERAL_RANGE}
        found = types.get(t.object, set())
        if class_ranges and found and not supers(found) & class_ranges:
            found_violations.append((t, "range", frozenset(class_ranges), frozenset(found)))
    return found_violations


@pytest.mark.parametrize("seed", range(12))
def test_randomized_domain_range_matches_brute_force(seed):
    kg, on = domain_range_case(seed)
    got = domain_range_check(kg, on)
    assert [(v.triple, v.position, v.expected, v.found) for v in got] == brute_force_domain_range(kg, on)
    assert all(v.property == v.triple.predicate.value for v in got)


def test_domain_range_cases_need_both_edge_sources():
    """The random cases include endpoints whose declared class is reached only
    through the graph's edges, and others reached only through the target's."""
    via_graph = via_target = 0
    for seed in range(12):
        kg, on = domain_range_case(seed)
        both = domain_range_check(kg, on)
        graph_only = KnowledgeGraph()
        for st in kg.statements():
            if st.triple.predicate.value != RDFS_SUBCLASS_OF:
                graph_only.add(st)
        target_only = OntologySchema(
            classes=set(on.classes), properties=on.properties, subclass_edges=set()
        )
        via_graph += len(domain_range_check(graph_only, on)) > len(both)
        via_target += len(domain_range_check(kg, target_only)) > len(both)
        assert len(domain_range_check(graph_only, target_only)) >= len(both)
    assert via_graph and via_target


def brute_force_offending_pairs(kg: KnowledgeGraph, on: OntologySchema) -> set[tuple[str, str]]:
    """Independent re-derivation of the offending (concept, property) pairs."""
    type_assertions = [
        (t.subject, t.object.value) for t in kg.triples() if t.predicate.value == RDF_TYPE
    ]
    concepts = {c for _, c in type_assertions}
    edges = kg.subclass_edges()
    pairs = set()
    for concept in concepts:
        # descendants-or-self by fixpoint iteration
        members = {concept}
        while True:
            extra = {child for child, parent in edges if parent in members} - members
            if not extra:
                break
            members |= extra
        instances = {e for e, c in type_assertions if c in members}
        used = set()
        for st in kg.data_statements:
            if st.triple.subject in instances:
                used.add(st.triple.predicate.value)
        # allowed: declared with empty domain, or domain intersects ancestors-or-self
        ancestors = {concept}
        on_edges = on.subclass_edges
        if concept in on.classes:
            while True:
                extra = {parent for child, parent in on_edges if child in ancestors} - ancestors
                if not extra:
                    break
                ancestors |= extra
        for p in used:
            decl = on.properties.get(p)
            if decl is None or (decl.domains and not (decl.domains & ancestors)):
                pairs.add((concept, p))
    return pairs


class TestMapToDomain:
    def test_consistent_graph_identity(self, domain_schema):
        kg = KnowledgeGraph()
        c = ff.company(1)
        kg.add_triple(Triple(c, RDF_TYPE_T, Term.iri(ff.cls("Company"))), 0.9)
        for p in ("rank", "employees"):
            kg.add_triple(Triple(c, ff.prop(p), Term.literal("1")), 0.8)
        final, report = map_to_domain(kg, domain_schema)
        assert final == kg
        assert report.epsilon_total == 0
        assert report.removed_triples == []

    def test_company_table_keeps_eight_properties(self, domain_schema):
        kg = company_table_kg()
        final, report = map_to_domain(kg, domain_schema)
        kept_props = concept_properties(final, ff.cls("Company"))
        assert kept_props == {ff.prop(p).value for p in ff.SHARED_PROPERTIES}
        for gone in ("previousRank", "revenueChange", "profitChange"):
            assert all(t.predicate != ff.prop(gone) for t in final.triples())
        assert report.epsilon_total == 3

    def test_vocabulary_closure_and_accounting(self, domain_schema):
        kg = company_table_kg()
        final, report = map_to_domain(kg, domain_schema)
        declared = set(domain_schema.properties)
        for st in final.data_statements:
            assert st.triple.predicate.value in declared
        assert report.retained == len(final)
        assert len(kg) - len({t for t in report.removed_triples if t in kg}) == len(final)

    def test_idempotent(self, domain_schema):
        kg = company_table_kg()
        once, _ = map_to_domain(kg, domain_schema)
        twice, report = map_to_domain(once, domain_schema)
        assert twice == once
        assert report.removed_triples == []
        assert report.epsilon_total == 0

    def test_monotone_in_target_declarations(self, domain_schema):
        kg = company_table_kg()
        _, report_small = map_to_domain(kg, domain_schema)
        richer = OntologySchema(
            classes=set(domain_schema.classes),
            subclass_edges=set(domain_schema.subclass_edges),
            properties=dict(domain_schema.properties),
            disjoint_pairs=set(domain_schema.disjoint_pairs),
            facts=set(domain_schema.facts),
        )
        richer.properties[ff.prop("previousRank").value] = PropertyDecl(
            domains={ff.cls("Company")}
        )
        _, report_rich = map_to_domain(kg, richer)
        assert report_rich.epsilon_total <= report_small.epsilon_total

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_epsilon_matches_brute_force(self, seed):
        okg, on = ff.consistency_fixture(seed)
        final, report = map_to_domain(okg, on)
        oracle_pairs = brute_force_offending_pairs(okg, on)
        assert report.epsilon_total == len(oracle_pairs)
        declared = set(on.properties)
        for st in final.data_statements:
            assert st.triple.predicate.value in declared
        again, report2 = map_to_domain(final, on)
        assert again == final
        assert report2.removed_triples == []


class TestOkgConcepts:
    def test_meta_classes_excluded(self):
        kg = KnowledgeGraph()
        kg.add_triple(
            Triple(iri("Company"), RDF_TYPE_T, Term.iri("http://www.w3.org/2000/01/rdf-schema#Class")),
            0.9,
        )
        kg.add_triple(Triple(iri("e"), RDF_TYPE_T, iri("Company")), 0.9)
        assert list(concept_slices(kg)) == ["http://example.org/Company"]


def brute_force_slices(kg: KnowledgeGraph) -> dict[str, list[Triple]]:
    """Each concept's slice re-derived: its descendants-or-self by fixpoint
    over the graph's subclass edges, then every non-schema statement whose
    subject is typed one of them, sorted."""
    types = [
        (t.subject, t.object.value)
        for t in kg.triples()
        if t.predicate.value == RDF_TYPE and t.object.is_iri
    ]
    edges = kg.subclass_edges()
    out = {}
    for concept in sorted({c for _, c in types} - META_CLASSES):
        members = {concept}
        while True:
            extra = {child for child, parent in edges if parent in members} - members
            if not extra:
                break
            members |= extra
        instances = {e for e, c in types if c in members}
        out[concept] = sorted(
            (t for t in kg.triples()
             if t.subject in instances and t.predicate.value not in SCHEMA_PREDICATES),
            key=Triple.sort_key,
        )
    return out


class TestConceptSlices:
    @pytest.mark.parametrize("seed", range(20))
    def test_slices_match_brute_force(self, seed):
        kg, _ = ff.consistency_fixture(seed)
        assert concept_slices(kg) == brute_force_slices(kg)

    def test_chain_multi_typed_and_untyped(self):
        # C < B < A; e3 is typed A and D; u is typed nothing
        kg = KnowledgeGraph()
        for child, parent in (("C", "B"), ("B", "A")):
            kg.add_triple(Triple(iri(child), Term.iri(RDFS_SUBCLASS_OF), iri(parent)), 0.9)
        for e, c in (("e1", "C"), ("e2", "B"), ("e3", "A"), ("e3", "D")):
            kg.add_triple(Triple(iri(e), RDF_TYPE_T, iri(c)), 0.9)
        about = {
            e: Triple(iri(e), iri("p"), iri(o))
            for e, o in (("e1", "u"), ("e2", "e1"), ("e3", "e2"), ("u", "e3"))
        }
        for t in about.values():
            kg.add_triple(t, 0.8)
        slices = concept_slices(kg)
        assert slices == {
            iri(c).value: [about[e] for e in members]
            for c, members in (("A", ["e1", "e2", "e3"]), ("B", ["e1", "e2"]), ("C", ["e1"]),
                               ("D", ["e3"]))
        }
        assert slices == brute_force_slices(kg)
