import pytest

import fixture_factory as ff
from ontogen.correction import (
    CorrectionConfig,
    CorrectionError,
    correct,
    detect_disjointness_violations,
    levenshtein,
    recheck_disjointness,
    reference_fact_check,
    string_similarity,
)
from ontogen.model import (
    KnowledgeGraph,
    OntologySchema,
    PropertyDecl,
    RDF_TYPE,
    Term,
    Triple,
)


def iri(v: str) -> Term:
    return Term.iri("http://example.org/" + v)


@pytest.fixture
def person_location_reference() -> OntologySchema:
    schema = OntologySchema()
    schema.classes |= {"Person", "Location"}
    schema.declare_disjoint("Person", "Location")
    schema.properties["http://example.org/hasPopulation"] = PropertyDecl(domains={"Location"})
    schema.validate()
    return schema


class TestDetectDisjointness:
    def test_person_with_location_property(self, person_location_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("columbus"), Term.iri(RDF_TYPE), Term.iri("Person")), 0.9)
        kg.add_triple(Triple(iri("columbus"), iri("hasPopulation"), Term.literal("900000")), 0.5)
        violations = detect_disjointness_violations(kg, person_location_reference)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "disjointness"
        assert v.evidence.axiom == ("Location", "Person")
        assert recheck_disjointness(v.evidence, person_location_reference)

    def test_no_type_assertions_no_violations(self, person_location_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("x"), iri("hasPopulation"), Term.literal("1")), 0.5)
        assert detect_disjointness_violations(kg, person_location_reference) == []

    def test_requires_axioms(self):
        schema = OntologySchema()
        schema.classes.add("A")
        with pytest.raises(CorrectionError):
            detect_disjointness_violations(KnowledgeGraph(), schema)

    def test_planted_violations_found_exactly(self, reference_schema):
        for seed in (0, 3, 11):
            kg, planted = ff.correction_fixture(seed)
            violations = detect_disjointness_violations(kg, reference_schema)
            assert {v.evidence.property_triple for v in violations} == set(planted)
            for v in violations:
                assert recheck_disjointness(v.evidence, reference_schema)


class TestStringSimilarity:
    def test_levenshtein_basics(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("same", "same") == 0

    def test_similarity_normalized(self):
        assert string_similarity("abc", "abc") == 1.0
        assert string_similarity("", "") == 1.0
        assert 0.0 <= string_similarity("abc", "xyz") <= 0.2


@pytest.fixture
def functional_reference() -> OntologySchema:
    schema = OntologySchema()
    schema.facts.add(Triple(iri("einstein"), iri("field"), iri("Physics")))
    schema.validate()
    return schema


FUNCTIONAL_CFG = CorrectionConfig(functional=frozenset({"http://example.org/field"}))


class TestReferenceFactCheck:
    def test_conflict_proposes_reference_value(self, functional_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("einstein"), iri("field"), iri("Biology")), 0.6)
        violations = reference_fact_check(kg, functional_reference, FUNCTIONAL_CFG)
        assert len(violations) == 1
        assert violations[0].evidence.proposed == iri("Physics")

    def test_absent_subject_never_conflicts(self, functional_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("darwin"), iri("field"), iri("Biology")), 0.6)
        assert reference_fact_check(kg, functional_reference, FUNCTIONAL_CFG) == []

    def test_non_functional_never_conflicts(self, functional_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("einstein"), iri("field"), iri("Biology")), 0.6)
        assert reference_fact_check(kg, functional_reference, CorrectionConfig()) == []

    def test_similar_value_agrees(self, functional_reference):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("einstein"), iri("field"), iri("physics")), 0.6)
        assert reference_fact_check(kg, functional_reference, FUNCTIONAL_CFG) == []

    def test_planted_conflicts_found_with_proposals(self):
        schema = OntologySchema()
        cfg = CorrectionConfig(functional=frozenset({"http://example.org/focus"}))
        kg = KnowledgeGraph()
        planted = {}
        for i in range(30):
            subject = iri(f"e{i}")
            right = iri(f"Value{i}")
            schema.facts.add(Triple(subject, iri("focus"), right))
            if i in (3, 11, 19):
                kg.add_triple(Triple(subject, iri("focus"), iri("WrongThing")), 0.5)
                planted[subject] = right
            else:
                kg.add_triple(Triple(subject, iri("focus"), right), 0.9)
        schema.validate()
        violations = reference_fact_check(kg, schema, cfg)
        assert len(violations) == 3
        assert {v.triple.subject: v.evidence.proposed for v in violations} == planted


class TestCorrect:
    def test_clean_graph_unchanged(self, reference_schema):
        kg, _ = ff.correction_fixture(0)
        clean_kg = kg.without(
            v.evidence.property_triple for v in detect_disjointness_violations(kg, reference_schema)
        )
        corrected, report = correct(clean_kg, reference_schema, CorrectionConfig())
        assert corrected == clean_kg and corrected is not clean_kg
        assert report.deleted == [] and report.replaced == []

    @staticmethod
    def _born_in_reference() -> OntologySchema:
        schema = OntologySchema()
        schema.classes |= {"Person", "Place"}
        schema.declare_disjoint("Person", "Place")
        schema.properties["http://example.org/bornIn"] = PropertyDecl({"Person"}, {"Place"})
        schema.validate()
        return schema

    def test_already_deleted_member_deletes_nothing_more(self):
        # paris's type assertion loses to alice's statement; bob's statement
        # then conflicts with nothing left and must stay
        kg = KnowledgeGraph()
        paris_person = Triple(iri("paris"), Term.iri(RDF_TYPE), Term.iri("Person"))
        kg.add_triple(paris_person, 0.5)
        kg.add_triple(Triple(iri("alice"), iri("bornIn"), iri("paris")), 0.9)
        kg.add_triple(Triple(iri("bob"), iri("bornIn"), iri("paris")), 0.7)
        corrected, report = correct(kg, self._born_in_reference(), CorrectionConfig())
        assert len(report.violations) == 2
        assert report.deleted == [paris_person]
        assert corrected == kg.without([paris_person])

    def test_already_deleted_property_triple_spares_its_other_partner(self):
        # the statement loses its domain violation to alice's type assertion;
        # its range violation then has nothing left to resolve, so paris's
        # weaker type assertion must stay
        kg = KnowledgeGraph()
        born = Triple(iri("alice"), iri("bornIn"), iri("paris"))
        kg.add_triple(born, 0.4)
        kg.add_triple(Triple(iri("alice"), Term.iri(RDF_TYPE), Term.iri("Place")), 0.9)
        kg.add_triple(Triple(iri("paris"), Term.iri(RDF_TYPE), Term.iri("Person")), 0.3)
        corrected, report = correct(kg, self._born_in_reference(), CorrectionConfig())
        assert [v.evidence.position for v in report.violations] == ["domain", "range"]
        assert report.deleted == [born]
        assert corrected == kg.without([born])

    def test_lower_confidence_member_deleted(self, person_location_reference):
        kg = KnowledgeGraph()
        ta = Triple(iri("e"), Term.iri(RDF_TYPE), Term.iri("Person"))
        pt = Triple(iri("e"), iri("hasPopulation"), Term.literal("5"))
        kg.add_triple(ta, 0.3)
        kg.add_triple(pt, 0.9)
        corrected, report = correct(kg, person_location_reference, CorrectionConfig())
        assert report.deleted == [ta]
        assert pt in corrected and ta not in corrected

    def test_tie_deletes_property_triple(self, person_location_reference):
        kg = KnowledgeGraph()
        ta = Triple(iri("e"), Term.iri(RDF_TYPE), Term.iri("Person"))
        pt = Triple(iri("e"), iri("hasPopulation"), Term.literal("5"))
        kg.add_triple(ta, 0.5)
        kg.add_triple(pt, 0.5)
        corrected, report = correct(kg, person_location_reference, CorrectionConfig())
        assert report.deleted == [pt]
        assert ta in corrected

    def test_retype_via_reference(self):
        # an entity misrepresented in one functional property is rewritten
        # to the reference value at full confidence
        schema = OntologySchema()
        schema.facts.add(Triple(iri("co/fb"), iri("industry"), iri("TechCompany")))
        schema.validate()
        cfg = CorrectionConfig(functional=frozenset({"http://example.org/industry"}))
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("co/fb"), iri("industry"), iri("MotorCompany")), 0.6)
        corrected, report = correct(kg, schema, cfg)
        fixed = Triple(iri("co/fb"), iri("industry"), iri("TechCompany"))
        assert report.replaced == [(Triple(iri("co/fb"), iri("industry"), iri("MotorCompany")), fixed)]
        assert corrected.statement_for(fixed).confidence == 1.0

    def test_planted_mixed_errors(self, reference_schema):
        kg, planted = ff.correction_fixture(7)
        schema = reference_schema
        # add reference facts + two functional conflicts on businessFocus
        schema = OntologySchema(
            classes=set(schema.classes),
            subclass_edges=set(schema.subclass_edges),
            properties=dict(schema.properties),
            disjoint_pairs=set(schema.disjoint_pairs),
            facts=set(),
        )
        biz = ff.prop("businessFocus")
        for c in (ff.iri(ff.EX + "corp/corp000"), ff.iri(ff.EX + "corp/corp001")):
            schema.facts.add(Triple(c, biz, ff.focus_term("Finance")))
        cfg = CorrectionConfig(functional=frozenset({biz.value}))
        before_clean = {
            st.triple for st in kg.data_statements if st.triple not in set(planted)
        }
        corrected, report = correct(kg, schema, cfg)
        assert set(report.deleted) == set(planted)
        assert len(report.replaced) == 2
        # no clean triple other than the replaced ones was touched
        after = {st.triple for st in corrected.data_statements}
        replaced_old = {old for old, _ in report.replaced}
        assert before_clean - after == replaced_old

    def test_idempotent(self, reference_schema):
        for seed in (2, 9):
            kg, _ = ff.correction_fixture(seed)
            once, _ = correct(kg, reference_schema, CorrectionConfig())
            twice, report2 = correct(once, reference_schema, CorrectionConfig())
            assert twice == once
            assert report2.deleted == [] and report2.replaced == []
