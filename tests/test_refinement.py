import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontogen.model import KnowledgeGraph, RDF_TYPE, ScoredTriple, Term, Triple
from ontogen.refinement import (
    LOF_BLOCK,
    LRD_CAP,
    RefineConfig,
    RefineError,
    implausible_links,
    lof_scores,
    prune_disconnected,
    refine,
    threshold_filter,
    validate_band,
)


def iri(v: str) -> Term:
    return Term.iri("http://example.org/" + v)


def st_triple(s, p, o, conf):
    return ScoredTriple(Triple(iri(s), iri(p), iri(o)), conf)


# ----------------------------------------------------------------------
# brute-force LOF oracle: textbook definitions in pure python over a
# precomputed distance table, sharing no code with the implementation

def brute_force_lof(points, k: int) -> list[float]:
    n = len(points)
    dist = [
        [math.sqrt(sum((x - y) ** 2 for x, y in zip(points[a], points[b]))) for b in range(n)]
        for a in range(n)
    ]
    k_distance = [sorted(dist[p][o] for o in range(n) if o != p)[k - 1] for p in range(n)]
    neighbors = [
        [o for o in range(n) if o != p and dist[p][o] <= k_distance[p]] for p in range(n)
    ]

    def lrd(p):
        total = sum(max(k_distance[o], dist[p][o]) for o in neighbors[p])
        if total == 0.0:
            return LRD_CAP
        return min(len(neighbors[p]) / total, LRD_CAP)

    out = []
    for p in range(n):
        if k_distance[p] == 0.0:
            out.append(1.0)
            continue
        out.append(sum(lrd(o) for o in neighbors[p]) / len(neighbors[p]) / lrd(p))
    return out


class TestLofScores:
    def test_far_outlier_beside_tight_cluster(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate([rng.uniform(0, 0.5, (25, 2)), [[8.0, 8.0]]])
        scores = lof_scores(pts, 3)
        assert scores[-1] > 1.5
        assert abs(np.median(scores[:-1]) - 1.0) < 0.35
        oracle = brute_force_lof(pts.tolist(), 3)
        np.testing.assert_allclose(scores, oracle, atol=1e-9)

    def test_all_points_identical(self):
        scores = lof_scores(np.ones((12, 3)), 4)
        np.testing.assert_array_equal(scores, 1.0)

    def test_matches_oracle_on_random_points(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0, 1, (20, 2))
        np.testing.assert_allclose(lof_scores(pts, 4), brute_force_lof(pts.tolist(), 4), atol=1e-9)

    def test_duplicate_cluster_with_satellite(self):
        pts = [[0.0, 0.0]] * 6 + [[0.1, 0.0], [5.0, 5.0]]
        scores = lof_scores(np.array(pts), 3)
        oracle = brute_force_lof(pts, 3)
        np.testing.assert_allclose(scores, oracle, rtol=1e-9)

    def test_too_few_points(self):
        with pytest.raises(RefineError):
            lof_scores(np.zeros((3, 2)), 3)

    def test_ties_include_all_equidistant(self):
        # 4 points on a unit square: every point has 2 neighbors at distance
        # 1 and one at sqrt(2); k=1 neighborhoods must include both ties
        pts = [[0, 0], [0, 1], [1, 0], [1, 1]]
        np.testing.assert_allclose(lof_scores(np.array(pts, float), 1), brute_force_lof(pts, 1), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(8, 60),
        st.sampled_from([3, 5]),
        st.integers(1, 3),
    )
    def test_oracle_equivalence_property(self, seed, n, k, dim):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1, 1, (n, dim))
        np.testing.assert_allclose(lof_scores(pts, k), brute_force_lof(pts.tolist(), k), atol=1e-9)

    def test_oracle_across_distance_blocks(self):
        # more points than one distance block, with duplicates straddling a block edge
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, (LOF_BLOCK + 45, 5))
        pts[LOF_BLOCK - 3 : LOF_BLOCK + 3] = pts[0]
        np.testing.assert_allclose(lof_scores(pts, 5), brute_force_lof(pts.tolist(), 5), atol=1e-9)

    def test_uniform_hypercube_median_near_one(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (500, 3))
        med = float(np.median(lof_scores(pts, 10)))
        assert 0.8 <= med <= 1.2


class TestThresholdFilter:
    def test_boundary_values(self):
        kg = KnowledgeGraph()
        for i, conf in enumerate((0.29, 0.30, 0.50, 0.51)):
            kg.add(st_triple(f"s{i}", "p", f"o{i}", conf))
        kept, removed, band = threshold_filter(kg, RefineConfig())
        assert [s.confidence for s in removed] == [0.29]
        assert sorted(s.confidence for s in band) == [0.30, 0.50]
        assert [s.confidence for s in kept.data_statements] == [0.51]

    def test_all_high_confidence(self):
        kg = KnowledgeGraph()
        for i in range(5):
            kg.add(st_triple(f"s{i}", "p", "o", 1.0))
        kept, removed, band = threshold_filter(kg, RefineConfig())
        assert not removed and not band
        assert len(kept.data_statements) == 5

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=200))
    def test_partition_matches_scan_oracle(self, confs):
        kg = KnowledgeGraph()
        for i, c in enumerate(confs):
            kg.add(st_triple(f"s{i}", "p", f"o{i}", c))
        cfg = RefineConfig()
        kept, removed, band = threshold_filter(kg, cfg)
        uniq = {}  # max-merge duplicates the same way the graph does
        for i, c in enumerate(confs):
            key = (f"s{i}", f"o{i}")
            uniq[key] = max(uniq.get(key, 0.0), c)
        n_removed = sum(1 for c in uniq.values() if c < cfg.low_threshold)
        n_band = sum(1 for c in uniq.values() if cfg.low_threshold <= c <= cfg.band_upper)
        n_kept = sum(1 for c in uniq.values() if c > cfg.band_upper)
        assert (len(removed), len(band), len(kept.data_statements)) == (n_removed, n_band, n_kept)
        assert len(removed) + len(band) + len(kept.data_statements) == len(uniq)

    def test_bad_config(self):
        with pytest.raises(RefineError):
            RefineConfig(low_threshold=0.6, band_upper=0.5)
        with pytest.raises(RefineError):
            RefineConfig(lof_k=0)


def _context_graph(n=40) -> KnowledgeGraph:
    kg = KnowledgeGraph()
    for i in range(n):
        kg.add(st_triple(f"e{i}", "knows", f"e{(i + 1) % n}", 0.8))
        kg.add(st_triple(f"e{i}", "knows", f"e{(i + 2) % n}", 0.9))
    return kg


class TestValidateBand:
    def test_empty_band(self):
        kept, removed = validate_band([], _context_graph(), RefineConfig())
        assert kept == [] and removed == []

    def test_small_band_kept_with_warning(self, caplog):
        kg = _context_graph()
        band = [st_triple("b0", "knows", "b1", 0.4)]
        with caplog.at_level("WARNING"):
            kept, removed = validate_band(band, kg, RefineConfig())
        assert kept == band and removed == []
        assert any("lof_k" in r.message for r in caplog.records)

    def test_band_matching_population_kept(self):
        kg = _context_graph()
        band = [st_triple(f"e{i}", "knows", f"e{(i + 3) % 40}", 0.45) for i in range(10)]
        kept, removed = validate_band(band, kg, RefineConfig())
        assert removed == []
        assert len(kept) == 10

    def test_band_outlier_removed(self):
        kg = _context_graph()
        band = [st_triple(f"e{i}", "knows", f"e{(i + 3) % 40}", 0.45) for i in range(10)]
        # degree-1 endpoints, unique predicate, borderline confidence
        band.append(st_triple("lonely1", "obscureClaim", "lonely2", 0.31))
        kept, removed = validate_band(band, kg, RefineConfig())
        removed_triples = {s.triple for s, _ in removed}
        assert Triple(iri("lonely1"), iri("obscureClaim"), iri("lonely2")) in removed_triples
        assert all(score > RefineConfig().lof_threshold for _, score in removed)


class TestPruneDisconnected:
    def test_fully_connected_unchanged(self):
        kg = _context_graph(10)
        pruned, removed = prune_disconnected(kg)
        assert removed == []
        assert pruned == kg

    def test_island_removed(self):
        kg = _context_graph(50)
        kg.add(st_triple("islandA", "rel", "islandB", 0.9))
        kg.add_triple(Triple(iri("islandA"), Term.iri(RDF_TYPE), iri("Thing")), 0.9)
        pruned, removed = prune_disconnected(kg)
        assert {n.value for n in removed} == {
            "http://example.org/islandA",
            "http://example.org/islandB",
        }
        assert len(pruned.data_statements) == 100
        # the island's type assertion goes too
        assert all(t.subject != iri("islandA") for t in pruned.type_assertions())

    def test_never_removes_from_retained_component(self):
        kg = _context_graph(30)
        kg.add(st_triple("x", "rel", "y", 0.9))
        before = {s.triple for s in kg.data_statements}
        pruned, removed = prune_disconnected(kg)
        main = {s.triple for s in pruned.data_statements}
        assert main <= before
        assert all(t.subject.value.endswith(("x", "y")) or t.object.value.endswith(("x", "y"))
                   for t in before - main)

    def test_size_tie_keeps_smallest_iri(self):
        kg = KnowledgeGraph()
        kg.add(st_triple("zeta1", "p", "zeta2", 0.9))
        kg.add(st_triple("alpha1", "p", "alpha2", 0.9))
        pruned, removed = prune_disconnected(kg)
        assert iri("alpha1") in {s.triple.subject for s in pruned.data_statements}
        assert iri("zeta1") in set(removed)


class TestImplausibleLinks:
    def _typed_graph(self):
        kg = KnowledgeGraph()
        rdf_type = Term.iri(RDF_TYPE)
        for i in range(55):
            kg.add_triple(Triple(iri(f"p{i}"), rdf_type, iri("Person")), 0.9)
        kg.add_triple(Triple(iri("book"), rdf_type, iri("Book")), 0.9)
        for i in range(50):
            kg.add(st_triple(f"p{i}", "sameAs", f"p{(i + 1) % 50}", 0.8))
        return kg

    def test_person_book_flagged(self):
        kg = self._typed_graph()
        odd = st_triple("p0", "sameAs", "book", 0.8)
        kg.add(odd)
        flagged = implausible_links(kg, None, RefineConfig())
        assert [f.statement.triple for f in flagged] == [odd.triple]
        assert flagged[0].count == 1

    def test_sparse_graph_nothing_flagged(self):
        kg = KnowledgeGraph()
        for i in range(20):
            kg.add(st_triple(f"s{i}", f"p{i}", f"o{i}", 0.8))
        assert implausible_links(kg, None, RefineConfig()) == []

    def test_planted_rare_combos_exactly_flagged(self):
        kg = self._typed_graph()
        planted = [st_triple(f"p{i}", "sameAs", "book", 0.8) for i in range(1)]
        for st_ in planted:
            kg.add(st_)
        flagged = implausible_links(kg, None, RefineConfig())
        assert {f.statement.triple for f in flagged} == {s.triple for s in planted}


class TestRefine:
    def test_monotone_destructive_and_partition(self):
        kg = _context_graph(30)
        kg.add(st_triple("noise", "p", "noise2", 0.1))
        kg.add(st_triple("island1", "p", "island2", 0.9))
        before = {s.triple for s in kg.data_statements}
        refined, report = refine(kg, None, RefineConfig())
        after = {s.triple for s in refined.data_statements}
        assert after <= before
        removed_sets = [
            {s.triple for s in report.removed_by_threshold},
            {s.triple for s, _ in report.removed_by_lof},
            {f.statement.triple for f in report.removed_implausible},
            {s.triple for s in report.removed_disconnected},
        ]
        for i, a in enumerate(removed_sets):
            for b in removed_sets[i + 1:]:
                assert not (a & b)
        assert set.union(*removed_sets) == before - after
        assert report.kept == len(after)
