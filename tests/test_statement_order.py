"""The statement lists and candidate orders each phase emits are filters of
the graph's canonical list.  Each test compares a phase's output with the
form it had when the phase sorted its own output: `sorted(...)` by
`Triple.sort_key` or `Term.sort_key`."""

import numpy as np
import pytest

import fixture_factory as ff
from ontogen.completion import EmbeddingModel, predict_missing
from ontogen.consistency import _in_vocabulary, map_to_domain
from ontogen.correction import CorrectionConfig, correct
from ontogen.model import (
    RDF_TYPE,
    RDFS_SUBCLASS_OF,
    KnowledgeGraph,
    OntologySchema,
    Term,
    Triple,
)
from ontogen.refinement import prune_disconnected

SEEDS = range(20)
FOCUS = ff.prop("businessFocus")


def _island_graph() -> KnowledgeGraph:
    """A typed ring plus a typed three-node island, a type assertion whose
    class is an island node and a subclass edge touching one."""
    kg = KnowledgeGraph()
    rdf_type = Term.iri(RDF_TYPE)
    ring = [ff.iri(f"{ff.EX}ring/n{i:02d}") for i in range(12)]
    for i, node in enumerate(ring):
        kg.add_triple(Triple(node, ff.prop("next"), ring[(i + 1) % len(ring)]), 0.9)
        kg.add_triple(Triple(node, rdf_type, Term.iri(ff.cls("Company"))), 0.9)
    isle = [ff.iri(f"{ff.EX}isle/{name}") for name in ("a", "b", "c")]
    kg.add_triple(Triple(isle[0], ff.prop("next"), isle[1]), 0.8)
    kg.add_triple(Triple(isle[1], ff.prop("next"), isle[2]), 0.8)
    kg.add_triple(Triple(isle[1], ff.prop("rank"), Term.literal("7")), 0.8)
    for node in isle:
        kg.add_triple(Triple(node, rdf_type, Term.iri(ff.cls("Company"))), 0.9)
    kg.add_triple(Triple(ring[0], rdf_type, isle[2]), 0.9)
    kg.add_triple(Triple(isle[0], Term.iri(RDFS_SUBCLASS_OF), Term.iri(ff.cls("Company"))), 0.9)
    return kg


def _graphs():
    for seed in SEEDS:
        yield f"consistency-{seed}", ff.consistency_fixture(seed)[0]
        yield f"correction-{seed}", ff.correction_fixture(seed)[0]
    yield "island", _island_graph()


def _schema_with_facts(seed: int) -> OntologySchema:
    """The reference schema plus a businessFocus fact that conflicts for
    every third company, offset by the seed."""
    ref = ff.reference_schema()
    facts = {
        Triple(ff.iri(f"{ff.EX}corp/corp{i:03d}"), FOCUS, ff.focus_term("Mining"))
        for i in range(seed % 3, 100, 3)
    }
    return OntologySchema(ref.classes, ref.subclass_edges, ref.properties,
                          ref.disjoint_pairs, facts)


def _random_model(kg: KnowledgeGraph, seed: int) -> EmbeddingModel:
    terms = {t.subject for t in kg.triples()} | {t.object for t in kg.triples()}
    entities = sorted((t for t in terms if not t.is_literal), key=Term.sort_key)
    relations = sorted({t.predicate for t in kg.triples()}, key=Term.sort_key)
    rng = np.random.default_rng(seed)
    draw = lambda n: rng.normal(size=(n, 4))
    return EmbeddingModel(
        draw(len(entities)), draw(len(entities)), draw(len(relations)), draw(len(relations)),
        {t: i for i, t in enumerate(entities)}, {t: i for i, t in enumerate(relations)}, 4,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_map_removed_triples_are_sorted_removals(seed):
    for kg, on in (ff.consistency_fixture(seed), (ff.correction_fixture(seed)[0], ff.domain_schema())):
        _, report = map_to_domain(kg, on)
        removed = {t for inc in report.per_concept for t in inc.affected_triples}
        removed |= {v.triple for v in report.domain_range_violations}
        removed |= {t for t in kg.triples() if not _in_vocabulary(t, on)}
        assert report.removed_triples == sorted(removed, key=Triple.sort_key)


@pytest.mark.parametrize("seed", SEEDS)
def test_correction_lists_are_sorted(seed):
    kg, planted = ff.correction_fixture(seed)
    cfg = CorrectionConfig(functional=frozenset({FOCUS.value}))
    _, report = correct(kg, _schema_with_facts(seed), cfg)
    assert set(report.deleted) == set(planted)
    assert report.deleted == sorted(set(report.deleted), key=Triple.sort_key)
    assert len(report.replaced) >= 30
    assert report.replaced == sorted(report.replaced, key=lambda pair: pair[0].sort_key())


def test_prune_disconnected_lists_sorted_removals():
    for name, kg in _graphs():
        nodes, removed = prune_disconnected(kg.statements())
        gone = set(nodes)
        expected = [
            st for st in kg.data_statements
            if st.triple.subject in gone or st.triple.object in gone
        ]
        expected += (st for st in kg.with_predicate(RDF_TYPE) if st.triple.subject in gone)
        assert removed == sorted(expected, key=lambda st: st.triple.sort_key()), name
    assert len(prune_disconnected(_island_graph().statements())[1]) == 6


@pytest.mark.parametrize("seed", SEEDS)
def test_predict_missing_takes_subjects_in_sort_order(seed):
    kg, _ = ff.correction_fixture(seed)
    rng = np.random.default_rng(seed)
    dropped = {
        st.triple for st in kg.with_predicate(FOCUS.value) if rng.random() < 0.3
    }
    kg = kg.without(dropped)
    model = _random_model(kg, seed)
    class_map = kg.class_map()
    observed = {st.triple.subject for st in kg.with_predicate(FOCUS.value)}
    observed_types = set().union(*(class_map.get(e, set()) for e in observed))
    pool = {
        e
        for e in {st.triple.subject for st in kg.data_statements} - observed
        if e in model.entity_index and class_map.get(e, set()) & observed_types
    }
    predictions = predict_missing(model, kg, [FOCUS], threshold=0.0, top_k=1)
    assert [st.triple.subject for st in predictions] == sorted(pool, key=Term.sort_key)
    assert {t.subject for t in dropped} <= pool
