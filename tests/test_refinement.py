import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontogen import refinement
from ontogen.model import KnowledgeGraph, RDF_TYPE, ScoredTriple, Term, Triple
from ontogen.refinement import (
    LRD_CAP,
    RefineConfig,
    RefineError,
    _block_rows,
    _distance_rows,
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

    @pytest.fixture
    def block_bytes(self, monkeypatch):
        """Set the distance-block byte budget; test-sized point sets then
        span several blocks of `_block_rows(n)` rows."""
        return lambda budget: monkeypatch.setattr(refinement, "LOF_BLOCK_BYTES", budget)

    def test_block_rows_fill_the_byte_budget(self):
        assert _block_rows(10_000) * 8 * 10_000 <= refinement.LOF_BLOCK_BYTES
        assert _block_rows(10**9) == 1

    def test_oracle_across_distance_blocks(self, block_bytes):
        # more points than one distance block, with duplicates straddling a block edge
        n = 301
        block_bytes(256 * 8 * n)
        rows = _block_rows(n)
        assert rows == 256
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, (n, 5))
        pts[rows - 3 : rows + 3] = pts[0]
        np.testing.assert_allclose(lof_scores(pts, 5), brute_force_lof(pts.tolist(), 5), atol=1e-9)

    def test_tie_groups_longer_than_k_across_block_edge(self, block_bytes):
        # points on a 6^3 integer lattice: every lattice distance is shared
        # by many pairs, so neighborhoods run past k, also for the rows on
        # either side of the first block edge
        n = 300
        block_bytes(256 * 8 * n)
        rows = _block_rows(n)
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 6, (n, 3)).astype(float)
        k = 5
        dense = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(2))
        np.fill_diagonal(dense, np.inf)
        kdist = np.sort(dense, axis=1)[:, k - 1]
        sizes = (dense <= kdist[:, None]).sum(axis=1)
        edge = slice(rows - 4, rows + 4)
        assert rows < n and (sizes[edge] > k).all() and (kdist[edge] > 0).all()
        np.testing.assert_allclose(lof_scores(pts, k), brute_force_lof(pts.tolist(), k), atol=1e-9)

    @pytest.mark.parametrize("n", [255, 256, 512])
    def test_oracle_at_block_sizes(self, block_bytes, n):
        # fewer points than one block, exactly one block, an exact multiple
        block_bytes(256 * 8 * n)
        assert _block_rows(n) == 256
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1, 1, (n, 2))
        np.testing.assert_allclose(lof_scores(pts, 4), brute_force_lof(pts.tolist(), 4), atol=1e-9)

    def test_scores_do_not_depend_on_the_block_size(self, block_bytes):
        # tie-heavy points, as the band features are
        pts = np.round(np.random.default_rng(13).uniform(0, 1, (500, 3)), 1)
        block_bytes(256 * 8 * len(pts))
        reference = lof_scores(pts, 5)
        for rows in (1, 7, 49, 208, 500):
            block_bytes(rows * 8 * len(pts))
            assert np.array_equal(lof_scores(pts, 5), reference)

    def test_blocked_distances_equal_dense_reference(self, block_bytes):
        n = 2 * 256 + 40
        block_bytes(256 * 8 * n)
        rows = _block_rows(n)
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.uniform(0, 1, (n - 3, 5)), np.zeros((3, 5))])
        dense = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(2))
        diff = np.empty((rows, n))
        blocked = np.vstack([_distance_rows(pts, s, s + rows, diff) for s in range(0, n, rows)])
        assert np.array_equal(blocked, dense)

    def test_memory_below_one_dense_matrix(self):
        # tie-heavy 5-d points, as the band features are; a single n x n
        # float64 matrix would take n * n * 8 bytes
        n = 4096
        pts = np.round(np.random.default_rng(2).uniform(0, 1, (n, 5)), 1)
        tracemalloc.start()
        try:
            lof_scores(pts, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_memory_a_few_blocks_and_the_neighbor_lists(self, traced_peak):
        # continuous points have no ties, so n * k neighbor pairs; n spans
        # many blocks, and the whole call holds a few block-sized arrays
        n, k = 2512, 5
        pts = np.random.default_rng(4).uniform(0, 1, (n, 5))
        assert _block_rows(n) < n
        _, peak, _ = traced_peak(lof_scores, pts, k)
        assert peak < 4 * refinement.LOF_BLOCK_BYTES + 64 * (n + n * k)

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
        removed, band = threshold_filter(kg, RefineConfig())
        assert [s.confidence for s in removed] == [0.29]
        assert sorted(s.confidence for s in band) == [0.30, 0.50]

    def test_all_high_confidence(self):
        kg = KnowledgeGraph()
        for i in range(5):
            kg.add(st_triple(f"s{i}", "p", "o", 1.0))
        assert threshold_filter(kg, RefineConfig()) == ([], [])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=200))
    def test_partition_matches_scan_oracle(self, confs):
        kg = KnowledgeGraph()
        for i, c in enumerate(confs):
            kg.add(st_triple(f"s{i}", "p", f"o{i}", c))
        cfg = RefineConfig()
        removed, band = threshold_filter(kg, cfg)
        uniq = {}  # max-merge duplicates the same way the graph does
        for i, c in enumerate(confs):
            key = (f"s{i}", f"o{i}")
            uniq[key] = max(uniq.get(key, 0.0), c)
        n_removed = sum(1 for c in uniq.values() if c < cfg.low_threshold)
        n_band = sum(1 for c in uniq.values() if cfg.low_threshold <= c <= cfg.band_upper)
        n_kept = sum(1 for c in uniq.values() if c > cfg.band_upper)
        assert (len(removed), len(band)) == (n_removed, n_band)
        assert len(kg.data_statements) - len(removed) - len(band) == n_kept

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
        assert validate_band([], _context_graph(), RefineConfig()) == []

    def test_small_band_kept_with_warning(self, caplog):
        kg = _context_graph()
        band = [st_triple("b0", "knows", "b1", 0.4)]
        with caplog.at_level("WARNING"):
            removed = validate_band(band, kg, RefineConfig())
        assert removed == []
        assert any("lof_k" in r.message for r in caplog.records)

    def test_band_matching_population_kept(self):
        kg = _context_graph()
        band = [st_triple(f"e{i}", "knows", f"e{(i + 3) % 40}", 0.45) for i in range(10)]
        assert validate_band(band, kg, RefineConfig()) == []

    def test_band_outlier_removed(self):
        kg = _context_graph()
        band = [st_triple(f"e{i}", "knows", f"e{(i + 3) % 40}", 0.45) for i in range(10)]
        # degree-1 endpoints, unique predicate, borderline confidence
        band.append(st_triple("lonely1", "obscureClaim", "lonely2", 0.31))
        removed = validate_band(band, kg, RefineConfig())
        removed_triples = {s.triple for s, _ in removed}
        assert Triple(iri("lonely1"), iri("obscureClaim"), iri("lonely2")) in removed_triples
        assert all(score > RefineConfig().lof_threshold for _, score in removed)

    def test_context_is_the_graph_above_the_band(self):
        # the band in the graph it is checked against changes nothing: the
        # context is kg's data statements above band_upper, and the class
        # map is kg's, which no band statement touches
        band = [st_triple(f"e{i}", "knows", f"e{(i + 3) % 40}", 0.45) for i in range(10)]
        band.append(st_triple("lonely1", "obscureClaim", "lonely2", 0.31))
        kg = _context_graph()
        kg.add_triple(Triple(iri("e1"), Term.iri(RDF_TYPE), iri("Person")), 0.9)
        with_band = kg.without((), band)
        removed = validate_band(band, kg, RefineConfig())
        assert removed and validate_band(band, with_band, RefineConfig()) == removed


def _typed_island_graph() -> KnowledgeGraph:
    """A 30-node ring plus a three-node island whose nodes are all typed."""
    kg = _context_graph(30)
    rdf_type = Term.iri(RDF_TYPE)
    kg.add(st_triple("isleA", "rel", "isleB", 0.9))
    kg.add(st_triple("isleB", "rel", "isleC", 0.9))
    for node, cls in (("isleA", "Firm"), ("isleB", "Firm"), ("isleC", "Place"), ("e0", "Firm")):
        kg.add_triple(Triple(iri(node), rdf_type, iri(cls)), 0.9)
    kg.add_triple(Triple(iri("Firm"), rdf_type, iri("Class")), 1.0)
    return kg


def _prune(kg: KnowledgeGraph):
    """`prune_disconnected` on all of kg's statements, with kg less its removals."""
    nodes, dropped = prune_disconnected(kg.statements())
    return kg.without(st.triple for st in dropped), nodes, dropped


class TestPruneDisconnected:
    def test_fully_connected_unchanged(self):
        kg = _context_graph(10)
        pruned, removed, dropped = _prune(kg)
        assert removed == [] and dropped == []
        assert pruned == kg

    def test_island_removed(self):
        kg = _context_graph(50)
        kg.add(st_triple("islandA", "rel", "islandB", 0.9))
        kg.add_triple(Triple(iri("islandA"), Term.iri(RDF_TYPE), iri("Thing")), 0.9)
        pruned, removed, _ = _prune(kg)
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
        pruned, removed, _ = _prune(kg)
        main = {s.triple for s in pruned.data_statements}
        assert main <= before
        assert all(t.subject.value.endswith(("x", "y")) or t.object.value.endswith(("x", "y"))
                   for t in before - main)

    def test_size_tie_keeps_smallest_iri(self):
        kg = KnowledgeGraph()
        kg.add(st_triple("zeta1", "p", "zeta2", 0.9))
        kg.add(st_triple("alpha1", "p", "alpha2", 0.9))
        pruned, removed, _ = _prune(kg)
        assert iri("alpha1") in {s.triple.subject for s in pruned.data_statements}
        assert iri("zeta1") in set(removed)

    def test_returned_statements_are_the_data_difference(self):
        kg = _context_graph(30)
        for s, o in (("x", "y"), ("y", "z"), ("u", "v")):
            kg.add(st_triple(s, "rel", o, 0.9))
        kg.add_triple(Triple(iri("x"), Term.iri(RDF_TYPE), iri("Thing")), 0.9)
        pruned, removed, dropped = _prune(kg)
        after = set(pruned.data_statements)
        data_dropped = [st for st in dropped if st.triple.predicate.value != RDF_TYPE]
        assert data_dropped == [st for st in kg.data_statements if st not in after]
        assert len(data_dropped) == 3 and len(removed) == 5
        # x's type assertion is returned too: the list is the whole difference
        assert dropped == [st for st in kg.statements() if st not in set(pruned.statements())]

    def test_typed_island_returns_edges_and_types(self):
        kg = _typed_island_graph()
        pruned, removed, dropped = _prune(kg)
        rdf_type = Term.iri(RDF_TYPE)
        assert [st.triple for st in dropped] == [
            Triple(iri("isleA"), iri("rel"), iri("isleB")),
            Triple(iri("isleA"), rdf_type, iri("Firm")),
            Triple(iri("isleB"), iri("rel"), iri("isleC")),
            Triple(iri("isleB"), rdf_type, iri("Firm")),
            Triple(iri("isleC"), rdf_type, iri("Place")),
        ]  # canonical order: edges and types merged by subject
        assert removed == [iri("isleA"), iri("isleB"), iri("isleC")]
        # the class declaration is schema, not an assertion about an island node
        assert Triple(iri("Firm"), rdf_type, iri("Class")) in pruned.triples()
        assert set(pruned.statements()) == set(kg.statements()) - set(dropped)


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
        flagged = implausible_links(kg.data_statements, kg.class_map(), None)
        assert [f.statement.triple for f in flagged] == [odd.triple]
        assert flagged[0].count == 1

    def test_sparse_graph_nothing_flagged(self):
        kg = KnowledgeGraph()
        for i in range(20):
            kg.add(st_triple(f"s{i}", f"p{i}", f"o{i}", 0.8))
        assert implausible_links(kg.data_statements, kg.class_map(), None) == []

    def test_planted_rare_combos_exactly_flagged(self):
        kg = self._typed_graph()
        planted = [st_triple(f"p{i}", "sameAs", "book", 0.8) for i in range(1)]
        for st_ in planted:
            kg.add(st_)
        flagged = implausible_links(kg.data_statements, kg.class_map(), None)
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

    def test_islands_of_one_size_with_and_without_an_iri(self):
        # two 2-node islands tie in size: one holds an IRI, one holds none
        kg = KnowledgeGraph()
        for i in range(5):
            kg.add(st_triple(f"m{i}", "rel", f"m{i + 1}", 0.9))
        name = iri("name")
        kg.add(ScoredTriple(Triple(Term.blank("b1"), name, Term.literal("x")), 0.9))
        kg.add(ScoredTriple(Triple(iri("a"), name, Term.literal("y")), 0.9))
        refined, report = refine(kg, None, RefineConfig())
        assert {st.triple.subject for st in refined.data_statements} == {iri(f"m{i}") for i in range(5)}
        assert report.disconnected_nodes == [Term.blank("b1"), iri("a"), Term.literal("x"),
                                             Term.literal("y")]
        assert report.kept == 5

    def test_report_lists_the_typed_island_types(self):
        kg = _typed_island_graph()
        refined, report = refine(kg, None, RefineConfig())
        listed = {st.triple for st in report.removed_disconnected}
        assert listed == {st.triple for st in kg.statements()} - set(refined.triples())
        assert sum(t.predicate.value == RDF_TYPE for t in listed) == 3
        assert report.kept == len(refined.data_statements) == 60
