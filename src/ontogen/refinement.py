"""Anomaly exclusion: confidence thresholding, Local Outlier Factor
validation of the borderline band, implausible-link filtering, and
disconnected-node pruning.

Sub-steps run in the order threshold, LOF, implausible links, pruning, so
that earlier removals can disconnect nodes before the pruning pass.  The
whole phase only ever removes statements.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import KnowledgeGraph, OntologySchema, ScoredTriple, connected_components
from .model import RDF_TYPE, Term, is_schema_triple

log = logging.getLogger(__name__)

#: local reachability density cap for duplicate-point degeneracies
LRD_CAP = 1e12

#: largest kept-statement sample mixed into the band's LOF context
CONTEXT_POOL = 512

#: rows of the LOF distance matrix computed per block, bounding the
#: difference tensor at LOF_BLOCK x n x dims
LOF_BLOCK = 256


class RefineError(ValueError):
    """Bad configuration or inapplicable LOF call."""


@dataclass(frozen=True)
class RefineConfig:
    low_threshold: float = 0.3
    band_upper: float = 0.5
    lof_k: int = 5
    lof_threshold: float = 1.5
    min_combo_support: int = 2
    prune_disconnected: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_threshold <= self.band_upper <= 1.0:
            raise RefineError(
                f"need 0 <= low ({self.low_threshold}) <= upper ({self.band_upper}) <= 1"
            )
        if self.lof_k < 1:
            raise RefineError("lof_k must be >= 1")


@dataclass
class ImplausibleLink:
    statement: ScoredTriple
    combo: tuple[str, str, str]
    count: int


@dataclass
class RefinementReport:
    removed_by_threshold: list[ScoredTriple] = field(default_factory=list)
    removed_by_lof: list[tuple[ScoredTriple, float]] = field(default_factory=list)
    removed_implausible: list[ImplausibleLink] = field(default_factory=list)
    removed_disconnected: list[ScoredTriple] = field(default_factory=list)
    disconnected_nodes: list[Term] = field(default_factory=list)
    kept: int = 0
    notes: list[str] = field(default_factory=list)


def threshold_filter(
    kg: KnowledgeGraph, cfg: RefineConfig
) -> tuple[KnowledgeGraph, list[ScoredTriple], list[ScoredTriple]]:
    """Partition data statements into kept / removed / borderline band.

    Below the low threshold is removed outright; the closed band
    [low, upper] goes to LOF validation; above the band is kept.  Schema
    statements always stay.
    """
    kept = KnowledgeGraph()
    removed: list[ScoredTriple] = []
    band: list[ScoredTriple] = []
    for st in kg.statements():
        if is_schema_triple(st.triple):
            kept.add(st)
        elif st.confidence < cfg.low_threshold:
            removed.append(st)
        elif st.confidence <= cfg.band_upper:
            band.append(st)
        else:
            kept.add(st)
    return kept, removed, band


def lof_scores(points, k: int) -> np.ndarray:
    """Classical LOF scores for a point set.

    The k-distance neighborhood includes every point tied at the k-th
    distance.  Local reachability density is capped at LRD_CAP when all
    reachability distances vanish, and a point whose k nearest neighbors
    all sit at distance zero gets LOF exactly 1.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise RefineError(f"points must be a 2-d array, got shape {pts.shape}")
    n = len(pts)
    if n <= k:
        raise RefineError(f"need more than k={k} points, got {n}")
    if not np.isfinite(pts).all():
        raise RefineError("points must be finite")

    dist = np.empty((n, n))
    for start in range(0, n, LOF_BLOCK):
        diff = pts[start : start + LOF_BLOCK, None, :] - pts[None, :, :]
        dist[start : start + LOF_BLOCK] = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)

    kdist = np.sort(dist, axis=1)[:, k - 1]
    neighbor = dist <= kdist[:, None]  # ties included; diagonal excluded via inf
    counts = neighbor.sum(axis=1)

    reach = np.maximum(kdist[None, :], dist)
    reach_sum = np.where(neighbor, reach, 0.0).sum(axis=1)
    mean_reach = reach_sum / counts
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach > 0.0, 1.0 / np.where(mean_reach > 0, mean_reach, 1.0), LRD_CAP)
    lrd = np.minimum(lrd, LRD_CAP)

    lof = (neighbor @ lrd) / counts / lrd
    return np.where(kdist == 0.0, 1.0, lof)


# ----------------------------------------------------------------------
# feature space for the band's LOF run

def _degree_stats(statements: list[ScoredTriple]):
    degree: Counter = Counter()
    pred_freq: Counter = Counter()
    for st in statements:
        degree[st.triple.subject] += 1
        degree[st.triple.object] += 1
        pred_freq[st.triple.predicate.value] += 1
    return degree, pred_freq


def _entity_class(
    class_map: dict[Term, set[str]], entity: Term, schema: OntologySchema | None = None
) -> str:
    if entity.is_literal:
        return "literal"
    asserted = class_map.get(entity, set())
    if schema is not None:
        known = asserted & schema.classes
        if known:
            asserted = known
    return min(asserted) if asserted else "?"


def _combo_counts(
    class_map: dict[Term, set[str]],
    statements: list[ScoredTriple],
    schema: OntologySchema | None = None,
) -> Counter:
    combos: Counter = Counter()
    for st in statements:
        t = st.triple
        combos[
            (
                _entity_class(class_map, t.subject, schema),
                t.predicate.value,
                _entity_class(class_map, t.object, schema),
            )
        ] += 1
    return combos


def triple_features(
    statements: list[ScoredTriple], context_kg: KnowledgeGraph, context: list[ScoredTriple]
) -> np.ndarray:
    """Feature vectors for LOF: confidence plus log-scaled degree,
    predicate-frequency, and type-combo-frequency statistics computed over
    the post-threshold statement population."""
    population = context + statements
    degree, pred_freq = _degree_stats(population)
    class_map = context_kg.class_map()
    combos = _combo_counts(class_map, population)

    rows = []
    for st in statements:
        t = st.triple
        combo = (
            _entity_class(class_map, t.subject),
            t.predicate.value,
            _entity_class(class_map, t.object),
        )
        rows.append(
            [
                st.confidence,
                math.log1p(degree[t.subject]),
                math.log1p(degree[t.object]),
                math.log1p(pred_freq[t.predicate.value]),
                math.log1p(combos[combo]),
            ]
        )
    return np.asarray(rows, dtype=float)


def _minmax(X: np.ndarray) -> np.ndarray:
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    return (X - lo) / span


def _context_sample(kept: list[ScoredTriple], limit: int = CONTEXT_POOL) -> list[ScoredTriple]:
    if len(kept) <= limit:
        return list(kept)
    step = len(kept) / limit
    return [kept[int(i * step)] for i in range(limit)]


def validate_band(
    band: list[ScoredTriple], kg: KnowledgeGraph, cfg: RefineConfig
) -> tuple[list[ScoredTriple], list[tuple[ScoredTriple, float]]]:
    """LOF-check borderline statements against a kept-statement context pool.

    Band statements scoring above the LOF threshold are removed.  A band no
    larger than k cannot be scored and is kept with a warning.
    """
    if not band:
        return [], []
    band = sorted(band, key=lambda s: s.triple.sort_key())
    if len(band) <= cfg.lof_k:
        log.warning("band of %d statements <= lof_k=%d; keeping all", len(band), cfg.lof_k)
        return band, []

    context = _context_sample(kg.data_statements)
    stats_kg = kg.copy()
    for st in band:
        stats_kg.add(st)
    points = _minmax(triple_features(band + context, stats_kg, []))
    scores = lof_scores(points, cfg.lof_k)[: len(band)]

    kept: list[ScoredTriple] = []
    removed: list[tuple[ScoredTriple, float]] = []
    for st, score in zip(band, scores):
        if score > cfg.lof_threshold:
            removed.append((st, float(score)))
        else:
            kept.append(st)
    return kept, removed


def implausible_links(
    kg: KnowledgeGraph, schema: OntologySchema | None, cfg: RefineConfig
) -> list[ImplausibleLink]:
    """Flag statements whose (subject-class, predicate, object-class)
    combination is rare while the predicate is common under another
    combination."""
    data = kg.data_statements
    class_map = kg.class_map()
    combos = _combo_counts(class_map, data, schema)
    by_predicate: dict[str, list[tuple[tuple, int]]] = {}
    for combo, count in combos.items():
        by_predicate.setdefault(combo[1], []).append((combo, count))

    flagged = []
    for st in data:
        t = st.triple
        combo = (
            _entity_class(class_map, t.subject, schema),
            t.predicate.value,
            _entity_class(class_map, t.object, schema),
        )
        count = combos[combo]
        if count >= cfg.min_combo_support:
            continue
        if any(c != combo and n >= 10 for c, n in by_predicate[t.predicate.value]):
            flagged.append(ImplausibleLink(st, combo, count))
    return flagged


def prune_disconnected(kg: KnowledgeGraph) -> tuple[KnowledgeGraph, list[Term]]:
    """Keep only the largest connected component of the data graph.

    Type assertions about removed entities go with them; pure schema
    statements (class declarations, subclass edges, domain/range) stay.
    """
    components = connected_components(kg)
    if len(components) <= 1:
        return kg.copy(), []
    keep = components[0]
    removed_nodes = sorted(
        (n for comp in components[1:] for n in comp), key=Term.sort_key
    )
    removed_set = set(removed_nodes)

    out = KnowledgeGraph()
    for st in kg.statements():
        t = st.triple
        if is_schema_triple(t):
            if t.predicate.value == RDF_TYPE and t.subject in removed_set:
                continue
            out.add(st)
        elif t.subject not in removed_set and t.object not in removed_set:
            out.add(st)
    return out, removed_nodes


def refine(
    kg: KnowledgeGraph, schema: OntologySchema | None, cfg: RefineConfig | None = None
) -> tuple[KnowledgeGraph, RefinementReport]:
    """Run the full anomaly-exclusion phase."""
    cfg = cfg or RefineConfig()
    report = RefinementReport()

    kept, removed, band = threshold_filter(kg, cfg)
    report.removed_by_threshold = removed
    if len(band) <= cfg.lof_k and band:
        report.notes.append(f"band of {len(band)} statements <= lof_k={cfg.lof_k}; LOF skipped")
    band_kept, band_removed = validate_band(band, kept, cfg)
    report.removed_by_lof = band_removed
    for st in band_kept:
        kept.add(st)

    flagged = implausible_links(kept, schema, cfg)
    report.removed_implausible = flagged
    for item in flagged:
        kept.remove(item.statement.triple)

    if cfg.prune_disconnected:
        before = {st.triple: st for st in kept.data_statements}
        kept, removed_nodes = prune_disconnected(kept)
        report.disconnected_nodes = removed_nodes
        after = {st.triple for st in kept.data_statements}
        report.removed_disconnected = sorted(
            (st for t, st in before.items() if t not in after),
            key=lambda s: s.triple.sort_key(),
        )

    report.kept = len(kept.data_statements)
    return kept, report
