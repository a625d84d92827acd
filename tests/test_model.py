import pytest
from hypothesis import given, strategies as st

from ontogen.model import (
    KnowledgeGraph,
    ModelError,
    OntologySchema,
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    ScoredTriple,
    Term,
    Triple,
    UnknownClassError,
    connected_components,
    is_schema_triple,
)


def iri(v: str) -> Term:
    return Term.iri("http://example.org/" + v)


def triple(s: str, p: str, o: str) -> Triple:
    return Triple(iri(s), iri(p), iri(o))


class TestTerm:
    def test_iri_rejects_whitespace(self):
        with pytest.raises(ModelError):
            Term.iri("http://example.org/a b")

    def test_iri_rejects_empty(self):
        with pytest.raises(ModelError):
            Term.iri("")

    def test_equality_covers_all_fields(self):
        assert Term.literal("1", datatype="urn:int") != Term.literal("1")
        assert Term.literal("a", language="en") != Term.literal("a", language="de")
        assert Term.literal("a") == Term.literal("a")

    def test_literal_cannot_have_datatype_and_language(self):
        with pytest.raises(ModelError):
            Term.literal("x", datatype="urn:d", language="en")

    def test_literal_never_subject(self):
        with pytest.raises(ModelError):
            Triple(Term.literal("v"), iri("p"), iri("o"))

    def test_predicate_must_be_iri(self):
        with pytest.raises(ModelError):
            Triple(iri("s"), Term.blank("b"), iri("o"))


class TestScoredTriple:
    def test_confidence_range(self):
        t = triple("s", "p", "o")
        with pytest.raises(ModelError):
            ScoredTriple(t, 1.2)
        with pytest.raises(ModelError):
            ScoredTriple(t, -0.1)
        assert ScoredTriple(t, 0.0).confidence == 0.0
        assert ScoredTriple(t, 1.0).confidence == 1.0


class TestKnowledgeGraph:
    def test_max_merge_keeps_strongest(self):
        kg = KnowledgeGraph()
        t = triple("s", "p", "o")
        kg.add(ScoredTriple(t, 0.4))
        kg.add(ScoredTriple(t, 0.7))
        assert len(kg) == 1
        assert kg.confidence(t) == 0.7
        kg.add(ScoredTriple(t, 0.5))
        assert kg.confidence(t) == 0.7

    def test_add_to_empty(self):
        kg = KnowledgeGraph()
        kg.add(ScoredTriple(triple("s", "p", "o"), 0.9))
        assert len(kg) == 1

    def test_idempotent_insertion(self):
        kg1, kg2 = KnowledgeGraph(), KnowledgeGraph()
        st = ScoredTriple(triple("a", "b", "c"), 0.5)
        kg1.add(st)
        kg2.add(st)
        kg2.add(st)
        assert kg1 == kg2

    def test_schema_data_split(self):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("e"), Term.iri(RDF_TYPE), iri("C")), 0.9)
        kg.add_triple(triple("e", "p", "o"), 0.8)
        assert len(kg.schema_statements) == 1
        assert len(kg.data_statements) == 1
        assert is_schema_triple(kg.schema_statements[0])

    def test_unknown_class_flagged(self):
        kg = KnowledgeGraph()
        kg.add_triple(Triple(iri("e"), Term.iri(RDF_TYPE), iri("Mystery")))
        assert kg.unknown_classes() == {"http://example.org/Mystery"}
        kg.add_triple(Triple(iri("Mystery"), Term.iri(RDFS_SUBCLASS_OF), iri("Thing")))
        assert kg.unknown_classes() == set()

    def test_provenance(self):
        kg = KnowledgeGraph()
        t = triple("s", "p", "o")
        kg.add(ScoredTriple(t, 0.5, source_id="gen-1"))
        assert kg.provenance[t] == "gen-1"


def _views(kg: KnowledgeGraph) -> tuple:
    return (
        kg.statements(),
        kg.triples(),
        kg.data_statements,
        kg.class_map(),
        kg.entities_by_class(),
        kg.subclass_edges(),
    )


def _rebuilt(expected: dict[Triple, ScoredTriple]) -> KnowledgeGraph:
    """A fresh graph holding exactly `expected`, inserted in reverse order."""
    kg = KnowledgeGraph()
    for st in reversed(list(expected.values())):
        kg.add(st)
    return kg


class TestCanonicalOrderCache:
    """Ordered reads after each kind of mutation match a graph built from scratch."""

    @pytest.fixture
    def state(self) -> tuple[KnowledgeGraph, dict[Triple, ScoredTriple]]:
        sts = [
            ScoredTriple(Triple(iri("Sub"), Term.iri(RDFS_SUBCLASS_OF), iri("Super")), 0.9),
            ScoredTriple(Triple(iri("m"), Term.iri(RDF_TYPE), iri("Sub")), 0.9),
            ScoredTriple(Triple(iri("a"), Term.iri(RDF_TYPE), iri("Super")), 0.8),
            ScoredTriple(triple("m", "p", "a"), 0.6),
            ScoredTriple(Triple(iri("a"), iri("q"), Term.literal("v")), 0.4),
            ScoredTriple(triple("b", "p", "m"), 0.7),
        ]
        kg = KnowledgeGraph()
        for s in sts:
            kg.add(s)
        _views(kg)  # build the cached order before mutating
        return kg, {s.triple: s for s in sts}

    def test_add_new_triple(self, state):
        kg, expected = state
        for s in (
            ScoredTriple(triple("0", "p", "m"), 0.5),
            ScoredTriple(Triple(iri("b"), Term.iri(RDF_TYPE), iri("Sub")), 0.9),
            ScoredTriple(Triple(iri("Super"), Term.iri(RDFS_SUBCLASS_OF), iri("Top")), 0.9),
        ):
            kg.add(s)
            expected[s.triple] = s
            assert _views(kg) == _views(_rebuilt(expected))

    def test_readd_with_higher_confidence(self, state):
        kg, expected = state
        stronger = ScoredTriple(triple("m", "p", "a"), 0.95)
        kg.add(stronger)
        expected[stronger.triple] = stronger
        assert _views(kg) == _views(_rebuilt(expected))
        assert stronger in kg.statements() and stronger in kg.data_statements
        kg.add(ScoredTriple(triple("m", "p", "a"), 0.1))
        assert _views(kg) == _views(_rebuilt(expected))

    def test_remove(self, state):
        kg, expected = state
        for t in (triple("m", "p", "a"), Triple(iri("m"), Term.iri(RDF_TYPE), iri("Sub"))):
            assert kg.remove(t)
            del expected[t]
            assert _views(kg) == _views(_rebuilt(expected))
        assert not kg.remove(triple("m", "p", "a"))
        assert _views(kg) == _views(_rebuilt(expected))

    def test_copy_then_mutate_only_the_copy(self, state):
        kg, expected = state
        dup = kg.copy()
        dup_expected = dict(expected)
        added = ScoredTriple(triple("c", "p", "a"), 0.5)
        stronger = ScoredTriple(triple("b", "p", "m"), 0.99)
        removed = Triple(iri("Sub"), Term.iri(RDFS_SUBCLASS_OF), iri("Super"))
        dup.add(added)
        dup.add(stronger)
        dup.remove(removed)
        dup_expected[added.triple] = added
        dup_expected[stronger.triple] = stronger
        del dup_expected[removed]
        assert _views(dup) == _views(_rebuilt(dup_expected))
        assert _views(kg) == _views(_rebuilt(expected))

    def test_mutating_returned_lists_does_not_leak(self, state):
        kg, expected = state
        for read in (
            lambda: kg.statements(),
            lambda: kg.triples(),
            lambda: kg.data_statements,
            lambda: kg.schema_statements,
            lambda: kg.type_assertions(),
        ):
            first = read()
            snapshot = list(first)
            first.reverse()
            first.append(first[0])
            assert read() == snapshot
        assert _views(kg) == _views(_rebuilt(expected))


def brute_force_components(edges: list[tuple[Term, Term]]) -> list[frozenset[Term]]:
    """Independent union-find oracle over an undirected edge list."""
    nodes = {n for e in edges for n in e}
    comp = {n: {n} for n in nodes}
    for a, b in edges:
        if comp[a] is not comp[b]:
            merged = comp[a] | comp[b]
            for n in merged:
                comp[n] = merged
    return list({frozenset(c) for c in comp.values()})


class TestConnectedComponents:
    def test_empty_graph(self):
        assert connected_components(KnowledgeGraph()) == []

    def test_two_disjoint_triples(self):
        kg = KnowledgeGraph()
        kg.add_triple(triple("a", "p", "b"), 0.9)
        kg.add_triple(triple("c", "p", "d"), 0.9)
        assert len(connected_components(kg)) == 2

    def test_star_graph(self):
        n = 17
        kg = KnowledgeGraph()
        edges = []
        for i in range(n):
            kg.add_triple(triple("hub", "p", f"leaf{i}"), 0.9)
            edges.append((iri("hub"), iri(f"leaf{i}")))
        comps = connected_components(kg)
        oracle = brute_force_components(edges)
        assert len(comps) == len(oracle) == 1
        assert comps[0] == set(oracle[0])
        assert len(comps[0]) == n + 1

    def test_sorted_by_size_then_smallest_iri(self):
        kg = KnowledgeGraph()
        for i in range(3):
            kg.add_triple(triple("x", "p", f"x{i}"), 0.9)
        kg.add_triple(triple("b", "p", "b1"), 0.9)
        kg.add_triple(triple("a", "p", "a1"), 0.9)
        comps = connected_components(kg)
        assert len(comps[0]) == 4
        assert iri("a") in comps[1]
        assert iri("b") in comps[2]

    def test_type_assertions_do_not_connect(self):
        kg = KnowledgeGraph()
        kg.add_triple(triple("a", "p", "b"), 0.9)
        kg.add_triple(triple("c", "p", "d"), 0.9)
        for e in ("a", "c"):
            kg.add_triple(Triple(iri(e), Term.iri(RDF_TYPE), iri("C")), 0.9)
        assert len(connected_components(kg)) == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=0,
            max_size=60,
        )
    )
    def test_partition_property(self, pairs):
        kg = KnowledgeGraph()
        edges = []
        for i, (a, b) in enumerate(pairs):
            kg.add_triple(triple(f"n{a}", f"p{i % 3}", f"n{b}"), 0.9)
            edges.append((iri(f"n{a}"), iri(f"n{b}")))
        comps = connected_components(kg)
        all_nodes = kg.data_nodes()
        covered = set()
        for comp in comps:
            assert not (comp & covered)
            covered |= comp
        assert covered == all_nodes
        assert {frozenset(c) for c in comps} == {frozenset(c) for c in brute_force_components(edges)}


@pytest.fixture
def diamond() -> OntologySchema:
    schema = OntologySchema()
    for child, parent in (("d", "b"), ("d", "c"), ("b", "a"), ("c", "a")):
        schema.subclass_edges.add((child, parent))
    schema.validate()
    return schema


class TestOntologySchema:
    def test_chain_ancestors(self):
        schema = OntologySchema()
        schema.subclass_edges |= {("leaf", "mid"), ("mid", "root")}
        schema.validate()
        assert schema.ancestors("leaf") == {"mid", "root"}
        assert schema.ancestors("root") == set()

    def test_diamond_ancestors(self, diamond):
        assert diamond.ancestors("d") == {"b", "c", "a"}

    def test_unknown_class_error(self, diamond):
        with pytest.raises(UnknownClassError, match="nope"):
            diamond.ancestors("nope")
        with pytest.raises(UnknownClassError):
            diamond.disjoint("d", "nope")

    def test_ancestors_transitive(self, diamond):
        for a in diamond.classes:
            for b in diamond.ancestors(a):
                assert diamond.ancestors(b) <= diamond.ancestors(a)

    def test_cycle_rejected(self):
        schema = OntologySchema()
        schema.subclass_edges |= {("a", "b"), ("b", "c"), ("c", "a")}
        with pytest.raises(ModelError, match="cycle"):
            schema.validate()

    def test_disjoint_with_ancestor_rejected(self):
        schema = OntologySchema()
        schema.subclass_edges.add(("child", "parent"))
        schema.declare_disjoint("child", "parent")
        with pytest.raises(ModelError):
            schema.validate()

    def test_declared_pair_disjoint(self):
        schema = OntologySchema()
        schema.classes |= {"Person", "Location"}
        schema.declare_disjoint("Person", "Location")
        schema.validate()
        assert schema.disjoint("Person", "Location")
        assert schema.disjoint("Location", "Person")

    def test_disjoint_irreflexive(self):
        schema = OntologySchema()
        schema.classes |= {"Person", "Location"}
        schema.declare_disjoint("Person", "Location")
        schema.validate()
        for c in schema.classes:
            assert not schema.disjoint(c, c)

    def test_disjointness_inherits_downward(self):
        schema = OntologySchema()
        schema.classes |= {"Person", "Location", "City"}
        schema.subclass_edges.add(("City", "Location"))
        schema.declare_disjoint("Person", "Location")
        schema.validate()
        assert schema.disjoint("Person", "City")
        assert schema.disjoint("City", "Person")

    def test_disjoint_symmetric_everywhere(self, diamond):
        diamond.classes.add("x")
        diamond.declare_disjoint("x", "a")
        diamond.validate()
        for c1 in diamond.classes:
            for c2 in diamond.classes:
                assert diamond.disjoint(c1, c2) == diamond.disjoint(c2, c1)
