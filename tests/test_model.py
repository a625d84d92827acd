import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from ontogen import model
from ontogen.model import (
    OWL_CLASS,
    RDFS_CLASS,
    RDFS_DOMAIN,
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
    reachable,
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

    def test_hash_is_the_field_tuple_hash(self):
        # the stored hash is the one the fields would give, so set and
        # dict iteration order (and every artifact) is that of hashing them
        terms = [iri("a"), Term.blank("b"), Term.literal("1", datatype="urn:int"),
                 Term.literal("a", language="en"), Term.literal("")]
        for t in terms:
            assert hash(t) == hash((t.kind, t.value, t.datatype, t.language))
        t = Triple(iri("s"), iri("p"), Term.literal("o", language="en"))
        assert hash(t) == hash((t.subject, t.predicate, t.object))

    def test_stored_hash_is_not_in_repr_or_equality(self):
        a, b = iri("a"), iri("a")
        object.__setattr__(b, "_hash", hash(a) + 1)
        assert a == b
        s, t = Triple(a, a, a), Triple(a, a, a)
        object.__setattr__(t, "_hash", hash(s) + 1)
        assert s == t
        assert "_hash" not in repr(s) and "_hash" not in repr(a)

    def test_unpickled_terms_hash_as_their_fields_in_another_process(self):
        # string hashes differ between processes: a pickle must not carry one
        t = Triple(iri("s"), iri("p"), Term.literal("o", language="en"))
        code = (
            "import pickle, sys\n"
            "t = pickle.loads(sys.stdin.buffer.read())\n"
            "print(hash(t) == hash((t.subject, t.predicate, t.object))"
            " and hash(t.object) == hash(('literal', 'o', None, 'en')))"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(t),
                             capture_output=True, env=env, check=True)
        assert out.stdout.strip() == b"True"
        assert pickle.loads(pickle.dumps(t)) == t

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
        assert kg.statement_for(t).confidence == 0.7
        kg.add(ScoredTriple(t, 0.5))
        assert kg.statement_for(t).confidence == 0.7

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


def _views(kg: KnowledgeGraph) -> tuple:
    return (
        kg.statements(),
        kg.triples(),
        kg.data_statements,
        kg.schema_statements,
        kg.type_assertions(),
        kg.class_map(),
        kg.entities_by_class(),
        kg.subclass_edges(),
        kg.unknown_classes(),
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

    def test_without(self, state):
        kg, expected = state
        before = _views(kg)
        data, schema = triple("m", "p", "a"), Triple(iri("m"), Term.iri(RDF_TYPE), iri("Sub"))
        absent = triple("z", "p", "a")
        derived = kg.without([data, schema, absent])
        assert derived is not kg and len(derived) == len(expected) - 2
        assert _views(derived) == _views(
            _rebuilt({t: s for t, s in expected.items() if t not in (data, schema)})
        )
        assert _views(kg) == before
        assert _views(kg.without([])) == before

    def test_add_to_a_derived_graph_leaves_the_parent(self, state):
        kg, expected = state
        removed = Triple(iri("Sub"), Term.iri(RDFS_SUBCLASS_OF), iri("Super"))
        dup = kg.without([removed])
        dup_expected = dict(expected)
        del dup_expected[removed]
        added = ScoredTriple(triple("c", "p", "a"), 0.5)
        stronger = ScoredTriple(triple("b", "p", "m"), 0.99)
        dup.add(added)
        dup.add(stronger)
        dup_expected[added.triple] = added
        dup_expected[stronger.triple] = stronger
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
            lambda: kg.with_predicate(RDF_TYPE),
        ):
            first = read()
            snapshot = list(first)
            first.reverse()
            first.append(first[0])
            assert read() == snapshot
        assert _views(kg) == _views(_rebuilt(expected))


# a small vocabulary, so that random operations hit the same triples often
_SUBJECTS = [iri("n0"), iri("n1"), iri("C0"), Term.blank("b0")]
_PREDICATES = [iri("p0"), iri("p1")] + [
    Term.iri(p) for p in (RDF_TYPE, RDFS_SUBCLASS_OF, RDFS_DOMAIN)
]
_OBJECTS = _SUBJECTS + [iri("C1"), Term.iri(RDFS_CLASS), Term.iri(OWL_CLASS), Term.literal("v")]

_triples = st.builds(
    Triple, st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 2),
            _triples,
            st.sampled_from([0.1, 0.5, 0.9]),
            st.sampled_from([None, "src"]),
        ),
        st.tuples(
            st.just("without"),
            st.integers(0, 3),
            st.lists(_triples, max_size=3),
            st.lists(
                st.tuples(_triples, st.sampled_from([0.1, 0.5, 0.9]), st.sampled_from([None, "x"])),
                max_size=3,
            ),
        ),
    ),
    max_size=30,
)


def _brute_views(store: dict[Triple, ScoredTriple]) -> tuple:
    """Every view of a graph holding `store`, by scanning the plain dict."""
    ordered = sorted(store.values(), key=lambda s: s.triple.sort_key())
    types = [s.triple for s in ordered if s.triple.predicate.value == RDF_TYPE]
    class_map: dict = {}
    by_class: dict = {}
    for t in types:
        if t.object.is_iri:
            class_map.setdefault(t.subject, set()).add(t.object.value)
            by_class.setdefault(t.object.value, set()).add(t.subject)
    subclass = [s.triple for s in ordered if s.triple.predicate.value == RDFS_SUBCLASS_OF]
    iri_edges = [t for t in subclass if t.subject.is_iri and t.object.is_iri]
    class_decls = (Term.iri(RDFS_CLASS), Term.iri(OWL_CLASS))
    declared = {t.subject.value for t in types if t.object in class_decls}
    declared |= {term.value for t in subclass for term in (t.subject, t.object) if term.is_iri}
    used = {t.object.value for t in types if t.object.is_iri} - {RDFS_CLASS, OWL_CLASS}
    return (
        ordered,
        [s.triple for s in ordered],
        [s for s in ordered if not is_schema_triple(s.triple)],
        [s.triple for s in ordered if is_schema_triple(s.triple)],
        types,
        class_map,
        by_class,
        {(t.subject.value, t.object.value) for t in iri_edges},
        used - declared,
        [[s for s in ordered if s.triple.predicate == p] for p in _PREDICATES],
    )


def _all_views(kg: KnowledgeGraph) -> tuple:
    return (
        *_views(kg),
        [kg.with_predicate(p.value) for p in _PREDICATES],
    )


class TestAddKeepsTheCanonicalOrder:
    """`without(removed, added)` on a graph that has been read filters its
    canonical list and merges in the additions it keeps: every view equals a
    scan of the expected store, the parent is unchanged, and the one sort is
    over the kept additions."""

    @pytest.mark.parametrize("seed", range(5))
    def test_without_then_add_matches_a_fresh_sort(self, seed, monkeypatch):
        rng = random.Random(seed)
        nodes = [iri(f"n{i}") for i in range(30)] + [Term.blank(f"b{i}") for i in range(5)]
        objects = nodes + [Term.literal(f"v{i}") for i in range(5)]
        predicates = [iri(f"p{i}") for i in range(4)] + [Term.iri(RDF_TYPE)]

        def random_triple() -> Triple:
            return Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects))

        kg = KnowledgeGraph()
        for _ in range(300):
            kg.add(ScoredTriple(random_triple(), rng.choice([0.2, 0.5, 0.8])))
        parent = {s.triple: s for s in kg.statements()}
        removed = rng.sample(list(parent), 60) + [random_triple() for _ in range(5)]
        expected = {t: s for t, s in parent.items() if t not in removed}

        # new, stronger, weaker and repeated additions, removed triples among them
        added: list[ScoredTriple] = []
        for _ in range(150):
            roll = rng.random()
            if roll < 0.4:
                t = rng.choice(list(parent))
            elif roll < 0.6 and added:
                t = rng.choice(added).triple
            else:
                t = random_triple()
            st_ = ScoredTriple(t, rng.choice([0.1, 0.6, 0.9, 1.0]), rng.choice([None, "x"]))
            added.append(st_)
            if t not in expected or st_.confidence > expected[t].confidence:
                expected[t] = st_
        added_ids = {id(s) for s in added}
        kept = {id(s) for s in expected.values() if id(s) in added_ids}
        assert kept and len(kept) < len(added)

        sorts = []

        def counting_sort(items, **kw):
            items = list(items)
            sorts.append(items)
            return sorted(items, **kw)

        monkeypatch.setattr(model, "sorted", counting_sort, raising=False)
        derived = kg.without(removed, added)
        assert _all_views(derived) == _brute_views(expected)
        assert len(sorts) == 1 and len(sorts[0]) == len(kept)
        assert {id(s) for s in sorts[0]} == kept
        assert _all_views(kg) == _brute_views(parent)


class TestIndexOracle:
    """Every view of a graph equals a scan of a plain dict after each of a
    random sequence of adds (new, stronger, weaker) and derivations by
    `without` with removals and additions, on the derived graphs and on the
    graphs they came from."""

    @given(_ops)
    def test_views_match_a_scan_after_every_step(self, ops):
        graphs = [(KnowledgeGraph(), {})]
        for op in ops:
            i = op[1] % len(graphs)
            kg, expected = graphs[i]
            if op[0] == "add":
                _, _, t, conf, source = op
                kg.add(ScoredTriple(t, conf, source))
                if t not in expected or conf > expected[t].confidence:
                    expected[t] = ScoredTriple(t, conf, source)
            else:
                _, _, removed, added = op
                added = [ScoredTriple(*a) for a in added]
                derived = kg.without(removed, added)
                exp = {t: s for t, s in expected.items() if t not in removed}
                for a in added:
                    if a.triple not in exp or a.confidence > exp[a.triple].confidence:
                        exp[a.triple] = a
                if len(graphs) < 4:
                    graphs.append((derived, exp))
                else:
                    graphs[i] = (derived, exp)
            for g, exp in graphs:
                assert _all_views(g) == _brute_views(exp)


def _brute_closure(edges: set[tuple[int, int]], start: set[int]) -> set[int]:
    """Fixed-point closure: add every edge target whose source is in the set."""
    out = set(start)
    while True:
        grown = out | {b for a, b in edges if a in out}
        if grown == out:
            return out
        out = grown


_edge_sets = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20)


class TestReachable:
    @given(_edge_sets, st.sets(st.integers(0, 7), max_size=3))
    def test_matches_brute_force_closure(self, edges, start):
        assert reachable(edges, start) == _brute_closure(edges, start)

    @given(_edge_sets)
    def test_matches_brute_force_closure_on_acyclic_edges(self, edges):
        edges = {(a, b) for a, b in edges if a < b}
        for c in range(8):
            assert reachable(edges, {c}) == _brute_closure(edges, {c})

    @given(_edge_sets)
    def test_validate_rejects_exactly_the_cyclic_inputs(self, edges):
        cyclic = any(a in _brute_closure(edges, {b}) for a, b in edges)
        schema = OntologySchema()
        schema.subclass_edges |= {(f"c{a}", f"c{b}") for a, b in edges}
        if cyclic:
            with pytest.raises(ModelError, match="cycle"):
                schema.validate()
        else:
            schema.validate()
            for a in schema.classes:
                assert schema.ancestors(a) == {
                    f"c{n}" for n in _brute_closure(edges, {int(a[1:])})
                } - {a}


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
        assert connected_components([]) == []

    def test_two_disjoint_triples(self):
        kg = KnowledgeGraph()
        kg.add_triple(triple("a", "p", "b"), 0.9)
        kg.add_triple(triple("c", "p", "d"), 0.9)
        assert len(connected_components(kg.statements())) == 2

    def test_star_graph(self):
        n = 17
        kg = KnowledgeGraph()
        edges = []
        for i in range(n):
            kg.add_triple(triple("hub", "p", f"leaf{i}"), 0.9)
            edges.append((iri("hub"), iri(f"leaf{i}")))
        comps = connected_components(kg.statements())
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
        comps = connected_components(kg.statements())
        assert len(comps[0]) == 4
        assert iri("a") in comps[1]
        assert iri("b") in comps[2]

    def test_type_assertions_do_not_connect(self):
        kg = KnowledgeGraph()
        kg.add_triple(triple("a", "p", "b"), 0.9)
        kg.add_triple(triple("c", "p", "d"), 0.9)
        for e in ("a", "c"):
            kg.add_triple(Triple(iri(e), Term.iri(RDF_TYPE), iri("C")), 0.9)
        assert len(connected_components(kg.statements())) == 2

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
        comps = connected_components(kg.statements())
        all_nodes = {n for e in edges for n in e}
        covered = set()
        for comp in comps:
            assert not (comp & covered)
            covered |= comp
        assert covered == all_nodes
        assert {frozenset(c) for c in comps} == {frozenset(c) for c in brute_force_components(edges)}

    @example([(6, 0, 10), (0, 0, 11)])  # two 2-node islands, one without an IRI
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 13)),
                    max_size=14))
    def test_reachability_partition_in_documented_order(self, edges):
        # subjects: IRIs n0-n5 and blanks b0-b3; objects also literals l0-l3,
        # so islands can hold no IRI at all; each term is built anew per use
        def node(i: int) -> Term:
            if i < 6:
                return iri(f"n{i}")
            return Term.blank(f"b{i - 6}") if i < 10 else Term.literal(f"l{i - 10}")

        kg = KnowledgeGraph()
        adjacent: dict[Term, set[Term]] = {}
        for s, p, o in edges:
            kg.add_triple(Triple(node(s), iri(f"p{p}"), node(o)), 0.9)
            adjacent.setdefault(node(s), set()).add(node(o))
            adjacent.setdefault(node(o), set()).add(node(s))
        kg.add_triple(Triple(node(0), Term.iri(RDF_TYPE), iri("C")), 0.9)  # schema: no edge

        partition, placed = [], set()
        for start in adjacent:
            if start in placed:
                continue
            reach, frontier = {start}, [start]
            while frontier:
                for nxt in adjacent[frontier.pop()] - reach:
                    reach.add(nxt)
                    frontier.append(nxt)
            placed |= reach
            partition.append(reach)

        def documented(comp: set[Term]) -> tuple:
            iris = sorted(n.value for n in comp if n.is_iri)
            if iris:
                return (-len(comp), 0, iris[0], ())
            return (-len(comp), 1, "", min(n.sort_key() for n in comp))

        assert connected_components(kg.statements()) == sorted(partition, key=documented)


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
