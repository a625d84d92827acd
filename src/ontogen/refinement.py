"""Anomaly exclusion: confidence thresholding, Local Outlier Factor
validation of the borderline band, implausible-link filtering, and
disconnected-node pruning.

Sub-steps run in the order threshold, LOF, implausible links, pruning, so
that earlier removals can disconnect nodes before the pruning pass.  The
whole phase only ever removes statements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import RDF_TYPE, KnowledgeGraph, OntologySchema, ScoredTriple, Term, Triple
from .model import connected_components, is_schema_triple

#: local reachability density cap for duplicate-point degeneracies
LRD_CAP = 1e12

#: largest kept-statement sample mixed into the band's LOF context
CONTEXT_POOL = 512

#: statements a (subject class, predicate, object class) combination needs to be plausible
MIN_COMBO_SUPPORT = 2

#: bytes of one block of distance rows; LOF holds one such block, two
#: scratch blocks and the neighbor lists, never an n x n matrix
LOF_BLOCK_BYTES = 256 << 10


class RefineError(ValueError):
    """Bad configuration or inapplicable LOF call."""


@dataclass(frozen=True)
class RefineConfig:
    low_threshold: float = 0.3
    band_upper: float = 0.5
    lof_k: int = 5
    lof_threshold: float = 1.5

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
) -> tuple[list[ScoredTriple], list[ScoredTriple]]:
    """Partition data statements into removed / borderline band, both in
    canonical order.

    Below the low threshold is removed outright; the closed band
    [low, upper] goes to LOF validation; the rest, every statement above
    the band and every schema statement, is kept.
    """
    removed: list[ScoredTriple] = []
    band: list[ScoredTriple] = []
    for st in kg.data_statements:
        if st.confidence < cfg.low_threshold:
            removed.append(st)
        elif st.confidence <= cfg.band_upper:
            band.append(st)
    return removed, band


def _distance_rows(pts: np.ndarray, start: int, stop: int, diff: np.ndarray) -> np.ndarray:
    """Euclidean distances from pts[start:stop] to every point.

    Squares are added one dimension at a time: the same sequential sum
    numpy takes over a short (< 8) last axis, so the rows equal
    sqrt(((pts[:, None] - pts[None]) ** 2).sum(2)) bit for bit without a
    rows x n x dims difference tensor.  Each square is formed in the
    caller's scratch `diff` (at least rows x n), so the rows cost one
    rows x n array plus it.
    """
    block = pts[start:stop]
    dist = np.zeros((len(block), len(pts)))
    diff = diff[: len(block)]
    for d in range(pts.shape[1]):
        np.subtract(block[:, d, None], pts[None, :, d], out=diff)
        diff *= diff
        dist += diff
    return np.sqrt(dist, out=dist)


def _block_rows(n: int) -> int:
    """Distance rows per LOF block for n points: as many as fit in
    LOF_BLOCK_BYTES, at least one."""
    return max(1, LOF_BLOCK_BYTES // (8 * n))


def lof_scores(points, k: int) -> np.ndarray:
    """Classical LOF scores for a point set.

    The k-distance neighborhood includes every point tied at the k-th
    distance.  Local reachability density is capped at LRD_CAP when all
    reachability distances vanish, and a point whose k nearest neighbors
    all sit at distance zero gets LOF exactly 1.

    Distances are computed and their k-distances selected `_block_rows(n)`
    rows at a time, through two scratch blocks allocated once per call
    (the squares' `diff` and the partition buffer `part`), and only each
    point's neighborhood is kept, so memory is O(LOF_BLOCK_BYTES + n +
    neighbor pairs).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise RefineError(f"points must be a 2-d array, got shape {pts.shape}")
    n = len(pts)
    if n <= k:
        raise RefineError(f"need more than k={k} points, got {n}")
    if not np.isfinite(pts).all():
        raise RefineError("points must be finite")

    kdist = np.empty(n)
    rows, cols, dists = [], [], []
    height = min(n, _block_rows(n))
    diff, part = np.empty((height, n)), np.empty((height, n))
    for start in range(0, n, height):
        dist = _distance_rows(pts, start, start + height, diff)
        local = np.arange(len(dist))
        dist[local, start + local] = np.inf
        span = part[: len(dist)]
        span[...] = dist
        span.partition(k - 1, axis=1)
        kd = kdist[start : start + len(dist)]
        kd[...] = span[:, k - 1]
        r, c = np.nonzero(dist <= kd[:, None])  # ties included; self excluded via inf
        rows.append(r + start)
        cols.append(c)
        dists.append(dist[r, c])
    rows, cols, dists = np.concatenate(rows), np.concatenate(cols), np.concatenate(dists)
    counts = np.bincount(rows, minlength=n)

    reach = np.maximum(kdist[cols], dists)
    mean_reach = np.bincount(rows, weights=reach, minlength=n) / counts
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach > 0.0, 1.0 / np.where(mean_reach > 0, mean_reach, 1.0), LRD_CAP)
    lrd = np.minimum(lrd, LRD_CAP)

    lof = np.bincount(rows, weights=lrd[cols], minlength=n) / counts / lrd
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


def _combo(
    class_map: dict[Term, set[str]], t: Triple, schema: OntologySchema | None = None
) -> tuple[str, str, str]:
    """The (subject class, predicate, object class) key of a statement."""
    return (
        _entity_class(class_map, t.subject, schema),
        t.predicate.value,
        _entity_class(class_map, t.object, schema),
    )


def _combo_counts(
    class_map: dict[Term, set[str]],
    statements: list[ScoredTriple],
    schema: OntologySchema | None = None,
) -> Counter:
    return Counter(_combo(class_map, st.triple, schema) for st in statements)


def triple_features(statements: list[ScoredTriple], context_kg: KnowledgeGraph) -> np.ndarray:
    """Feature vectors for LOF: confidence plus log-scaled degree,
    predicate-frequency, and type-combo-frequency statistics computed over
    `statements`, typed by `context_kg`'s class map."""
    degree, pred_freq = _degree_stats(statements)
    class_map = context_kg.class_map()
    combos = _combo_counts(class_map, statements)

    rows = []
    for st in statements:
        t = st.triple
        rows.append(
            [
                st.confidence,
                math.log1p(degree[t.subject]),
                math.log1p(degree[t.object]),
                math.log1p(pred_freq[t.predicate.value]),
                math.log1p(combos[_combo(class_map, t)]),
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
) -> list[tuple[ScoredTriple, float]]:
    """The band statements to remove, each with its LOF score, in canonical
    order: those scoring above the LOF threshold against a context pool
    drawn from `kg`'s data statements above the band.

    A band no larger than k cannot be scored and is kept (`refine` notes it).
    """
    if len(band) <= cfg.lof_k:
        return []
    band = sorted(band, key=lambda s: s.triple.sort_key())

    # band statements are never rdf:type (threshold_filter keeps every schema
    # statement), so kg's class map is also that of kg without the band
    context = _context_sample([st for st in kg.data_statements if st.confidence > cfg.band_upper])
    points = _minmax(triple_features(band + context, kg))
    scores = lof_scores(points, cfg.lof_k)[: len(band)]
    return [(st, float(score)) for st, score in zip(band, scores) if score > cfg.lof_threshold]


def implausible_links(
    data: list[ScoredTriple], class_map: dict[Term, set[str]], schema: OntologySchema | None
) -> list[ImplausibleLink]:
    """Flag data statements whose (subject-class, predicate, object-class)
    combination, typed by `class_map`, is rare while the predicate is common
    under another combination."""
    combos = _combo_counts(class_map, data, schema)
    by_predicate: dict[str, list[tuple[tuple, int]]] = {}
    for combo, count in combos.items():
        by_predicate.setdefault(combo[1], []).append((combo, count))

    flagged = []
    for st in data:
        combo = _combo(class_map, st.triple, schema)
        count = combos[combo]
        if count >= MIN_COMBO_SUPPORT:
            continue
        if any(c != combo and n >= 10 for c, n in by_predicate[combo[1]]):
            flagged.append(ImplausibleLink(st, combo, count))
    return flagged


def prune_disconnected(
    statements: list[ScoredTriple],
) -> tuple[list[Term], list[ScoredTriple]]:
    """Keep only the largest connected component of the data graph that
    `statements`, in canonical order, form.

    Returns the removed nodes and every removed statement, both in
    canonical order.  The removed statements are the data statements
    touching a removed node and the type assertions about one; pure schema
    statements (class declarations, subclass edges, domain/range) stay.
    """
    components = connected_components(statements)
    removed_nodes = sorted((n for comp in components[1:] for n in comp), key=Term.sort_key)
    gone = set(removed_nodes)
    removed = [
        st for st in statements
        if (st.triple.subject in gone if st.triple.predicate.value == RDF_TYPE
            else not is_schema_triple(st.triple)
            and (st.triple.subject in gone or st.triple.object in gone))
    ]
    return removed_nodes, removed


def refine(
    kg: KnowledgeGraph, schema: OntologySchema | None, cfg: RefineConfig = RefineConfig()
) -> tuple[KnowledgeGraph, RefinementReport]:
    """Run the full anomaly-exclusion phase.  Each sub-step reads `kg`'s
    statements less the removals before it, and the output is derived once."""
    report = RefinementReport()

    report.removed_by_threshold, band = threshold_filter(kg, cfg)
    if len(band) <= cfg.lof_k and band:
        report.notes.append(f"band of {len(band)} statements <= lof_k={cfg.lof_k}; LOF skipped")
    report.removed_by_lof = validate_band(band, kg, cfg)
    gone = {st.triple for st in report.removed_by_threshold}
    gone.update(st.triple for st, _ in report.removed_by_lof)

    # threshold and LOF remove no rdf:type, so kg's class map is still that of the rest
    report.removed_implausible = implausible_links(
        [st for st in kg.data_statements if st.triple not in gone], kg.class_map(), schema)
    gone.update(item.statement.triple for item in report.removed_implausible)

    report.disconnected_nodes, report.removed_disconnected = prune_disconnected(
        [st for st in kg.statements() if st.triple not in gone])
    gone.update(st.triple for st in report.removed_disconnected)
    kept = kg.without(gone)
    report.kept = len(kept.data_statements)
    return kept, report
