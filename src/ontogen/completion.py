"""Knowledge-graph completion with complex-valued embeddings.

Entities and relations live in C^d, stored as separate real and imaginary
matrices.  The score of (h, r, t) is Re(sum_i r_i * h_i * conj(t_i)), which
lets one relation vector assign different scores to the two directions of a
pair.  Training minimizes logistic loss with L2 weight decay under
per-parameter adaptive gradient scaling.  Negatives come from exact
complement sampling: a head or tail is replaced by an entity drawn
uniformly from those that form no known positive there.  Predictions use
type-constrained candidate tails: a tail must share a class with the
relation's observed objects.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .correction import terms_agree
from .model import (
    KnowledgeGraph, META_CLASSES, ModelError, ScoredTriple, Term, Triple, is_schema_triple,
)
from .rdf_io import parse_term, render_term

_ADAGRAD_EPS = 1e-10
_MAGIC = b"CXEM"
_FORMAT_VERSION = 1


class CompletionError(ValueError):
    """Unknown vocabulary item or unusable training configuration."""


@dataclass(frozen=True)
class TrainConfig:
    dimension: int = 50
    epochs: int = 200
    batch_size: int = 128
    learning_rate: float = 0.05
    l2_lambda: float = 1e-3
    negatives_per_positive: int = 5
    seed: int = 42
    #: pin relation imaginary parts to zero (symmetric control model)
    real_relations: bool = False
    #: relation IRIs whose missing objects `complete_phase` predicts
    predict_relations: frozenset[str] = frozenset()
    #: a prediction's confidence must exceed `threshold`; at most `top_k` are
    #: kept per subject and relation
    threshold: float = 0.5
    top_k: int = 1
    #: fraction of the training pool held out and ranked, in [0, 1)
    holdout: float = 0.0

    def __post_init__(self) -> None:
        if self.dimension <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise CompletionError("dimension, epochs, and batch_size must be positive")
        if self.learning_rate <= 0 or self.l2_lambda < 0 or self.negatives_per_positive <= 0:
            raise CompletionError("learning_rate and negatives must be positive, l2 non-negative")
        if not 0.0 <= self.holdout < 1.0:
            raise CompletionError(f"holdout must be in [0, 1), got {self.holdout}")
        if self.top_k < 1:
            raise CompletionError(f"top_k must be >= 1, got {self.top_k}")
        try:
            for r in self.predict_relations:
                Term.iri(r)
        except ModelError as exc:
            raise CompletionError(f"predict_relations: {exc}") from None


@dataclass
class EmbeddingModel:
    entity_re: np.ndarray
    entity_im: np.ndarray
    relation_re: np.ndarray
    relation_im: np.ndarray
    entity_index: dict[Term, int]
    relation_index: dict[Term, int]
    dimension: int
    loss_history: list[float] = field(default_factory=list, repr=False)

    @property
    def entities(self) -> list[Term]:
        return sorted(self.entity_index, key=lambda t: self.entity_index[t])

    @property
    def relations(self) -> list[Term]:
        return sorted(self.relation_index, key=lambda t: self.relation_index[t])

    def entity_row(self, term: Term) -> int:
        try:
            return self.entity_index[term]
        except KeyError:
            raise CompletionError(f"unknown entity {render_term(term)}") from None

    def relation_row(self, term: Term) -> int:
        try:
            return self.relation_index[term]
        except KeyError:
            raise CompletionError(f"unknown relation {render_term(term)}") from None


@dataclass
class RankMetrics:
    mrr: float
    hits: dict[int, float]
    evaluated: int


# ----------------------------------------------------------------------
# scoring

def score(model: EmbeddingModel, h: Term, r: Term, t: Term) -> float:
    """Re(sum_i r_i * h_i * conj(t_i)) for one triple."""
    hi = np.array([model.entity_row(h)])
    ri = np.array([model.relation_row(r)])
    ti = np.array([model.entity_row(t)])
    return float(_core(model, hi, ri, ti, _workspace(1, model.dimension))[0][0])


def _all_tail_scores(
    m: EmbeddingModel, h: int, r: int, conjugate: bool = False, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Scores of (h, r, e) for every entity e; an entity outside the
    boolean mask `allowed` scores -inf.  With the relation conjugated they
    are the scores of (e, r, h), because Re(conj(r) h conj(e)) equals
    Re(r e conj(h))."""
    h_re, h_im = m.entity_re[h], m.entity_im[h]
    r_re, r_im = m.relation_re[r], m.relation_im[r]
    if conjugate:
        r_im = -r_im
    c_re = r_re * h_re - r_im * h_im
    c_im = r_re * h_im + r_im * h_re
    scores = m.entity_re @ c_re + m.entity_im @ c_im
    return scores if allowed is None else np.where(allowed, scores, -np.inf)


# ----------------------------------------------------------------------
# loss and gradients

@dataclass
class _Step:
    """Logistic data loss, L2 term, and gradients compacted to the distinct
    rows a batch touches."""

    loss: float
    l2: float
    entity_rows: np.ndarray
    entity_re: np.ndarray
    entity_im: np.ndarray
    relation_rows: np.ndarray
    relation_re: np.ndarray
    relation_im: np.ndarray


def _workspace(rows: int, d: int) -> list[np.ndarray]:
    """Scratch for `_core` on batches of up to `rows` triples: five
    2 rows x d float64 blocks, reused by every call.  Five arrays, not
    one: a single array of this size held through `train` raised peak
    RSS where the per-batch arrays it replaces did not, and blocks this
    size fit the heap space those arrays used."""
    return [np.empty((2 * rows, d)) for _ in range(5)]


def _pair(out, a, b, op, c, d, scratch) -> np.ndarray:
    """out = op(a * b, c * d), the second product formed in `scratch`."""
    np.multiply(a, b, out=out)
    return op(out, np.multiply(c, d, out=scratch), out=out)


def _core(
    m: EmbeddingModel, h, r, t, ws: list[np.ndarray], y: np.ndarray | None = None, lam: float = 0.0
) -> tuple[np.ndarray, _Step | None]:
    """Scores for index arrays and, given labels `y` (+1/-1), the logistic
    step: the data loss sum(log(1 + exp(-y f))), L2 on the distinct rows
    touched, and the gradient of loss + L2 on exactly those rows.

    Every batch-sized array lives in the `_workspace` `ws`, whose blocks
    [h_re|h_im], [t_re|t_im], [r_re|r_im], e_re and e_im hold two rows per
    triple.  e_re first holds the two h.t products that f and the relation
    gradient share, then, once the relation sums are taken, the head and
    tail entity gradients; a block is reused as scratch once dead.  Only
    vectors of one value per triple and the returned rows and sums are
    allocated."""
    n, cap = len(h), len(ws[0]) // 2
    (h_re, h_im), (t_re, t_im), (r_re, r_im) = ((b[:n], b[cap : cap + n]) for b in ws[:3])
    e_re, e_im = ws[3][: 2 * n], ws[4][: 2 * n]
    ht_re, ht_im = e_re[:n], e_re[n:]
    # ids are always valid rows; "clip" skips the copy "raise" makes of `out`
    for src, ids, out in (
        (m.entity_re, h, h_re), (m.entity_im, h, h_im), (m.entity_re, t, t_re),
        (m.entity_im, t, t_im), (m.relation_re, r, r_re), (m.relation_im, r, r_im),
    ):
        np.take(src, ids, axis=0, out=out, mode="clip")
    _pair(ht_re, h_re, t_re, np.add, h_im, t_im, e_im[:n])
    _pair(ht_im, h_re, t_im, np.subtract, h_im, t_re, e_im[:n])
    f = _pair(e_im[:n], r_re, ht_re, np.add, r_im, ht_im, e_im[n:]).sum(axis=-1)
    if y is None:
        return f, None
    w = (-y * _sigmoid(-y * f))[:, None]

    # one sort per parameter kind, shared by its real and imaginary parts;
    # the relation rows sort into the dead e_im
    np.multiply(ht_re, w, out=ht_re)
    np.multiply(ht_im, w, out=ht_im)
    ur, gr_re, gr_im = _row_sums(r, ht_re, ht_im, into=(e_im[:n], e_im[n:]))

    # entity rows take the head contributions, then the tail contributions;
    # each product's scratch is a block not yet written, the last one t_re
    for out, a, b, op, c, d, scratch in (
        (e_re[:n], r_re, t_re, np.add, r_im, t_im, e_im[:n]),
        (e_im[:n], r_re, t_im, np.subtract, r_im, t_re, e_re[n:]),
        (e_re[n:], r_re, h_re, np.subtract, r_im, h_im, e_im[n:]),
        (e_im[n:], r_re, h_im, np.add, r_im, h_re, t_re),
    ):
        np.multiply(_pair(out, a, b, op, c, d, scratch), w, out=out)
    # the entity rows sort into the dead h/t blocks
    ue, ge_re, ge_im = _row_sums(
        np.concatenate([h, t]), e_re, e_im, into=(ws[0][: 2 * n], ws[1][: 2 * n])
    )

    l2 = 0.0
    if lam > 0:
        squares = []
        for rows, params, grad in (
            (ue, m.entity_re, ge_re), (ue, m.entity_im, ge_im),
            (ur, m.relation_re, gr_re), (ur, m.relation_im, gr_im),
        ):
            x = np.take(params, rows, axis=0, out=ws[0][: len(rows)], mode="clip")
            squares.append(np.square(x, out=ws[1][: len(rows)]).sum())
            np.add(grad, np.multiply(x, 2 * lam, out=x), out=grad)
        l2 = lam * float(squares[0] + squares[1] + squares[2] + squares[3])
    loss = float(np.logaddexp(0.0, -y * f).sum())
    return f, _Step(loss, l2, ue, ge_re, ge_im, ur, gr_re, gr_im)


def _row_sums(
    ids: np.ndarray, *values: np.ndarray, into: tuple[np.ndarray, ...] | None = None
) -> tuple[np.ndarray, ...]:
    """The distinct ids, ascending, then for each array in `values` the
    per-id sums of its rows: one stable sort, then segment sums.  The
    sorted copy of values[i] is written to into[i] when given."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    return ids[starts], *(
        np.add.reduceat(np.take(v, order, axis=0, out=out, mode="clip"), starts, axis=0)
        for v, out in zip(values, into or [None] * len(values))
    )


@dataclass
class Gradients:
    entity_re: np.ndarray
    entity_im: np.ndarray
    relation_re: np.ndarray
    relation_im: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loss_and_gradient(
    model: EmbeddingModel, batch: list[tuple[Triple, int]], cfg: TrainConfig
) -> tuple[float, Gradients]:
    """Logistic loss sum(log(1 + exp(-y f))) plus L2 on the distinct
    parameters the batch touches, with analytic gradients."""
    if not batch:
        raise CompletionError("empty batch")
    labels = np.array([y for _, y in batch], dtype=float)
    if not np.all(np.abs(labels) == 1):
        raise CompletionError("labels must be +1 or -1")
    h = np.array([model.entity_row(t.subject) for t, _ in batch])
    r = np.array([model.relation_row(t.predicate) for t, _ in batch])
    t_ = np.array([model.entity_row(t.object) for t, _ in batch])

    ws = _workspace(len(batch), model.dimension)
    _, step = _core(model, h, r, t_, ws, labels, cfg.l2_lambda)
    loss = step.loss + step.l2

    grads = Gradients(
        np.zeros_like(model.entity_re),
        np.zeros_like(model.entity_im),
        np.zeros_like(model.relation_re),
        np.zeros_like(model.relation_im),
    )
    grads.entity_re[step.entity_rows] = step.entity_re
    grads.entity_im[step.entity_rows] = step.entity_im
    grads.relation_re[step.relation_rows] = step.relation_re
    grads.relation_im[step.relation_rows] = step.relation_im
    return loss, grads


# ----------------------------------------------------------------------
# training

def _build_vocab(triples: list[Triple]) -> tuple[dict[Term, int], dict[Term, int]]:
    entities = sorted({t.subject for t in triples} | {t.object for t in triples}, key=Term.sort_key)
    relations = sorted({t.predicate for t in triples}, key=Term.sort_key)
    return (
        {term: i for i, term in enumerate(entities)},
        {term: i for i, term in enumerate(relations)},
    )


def _init_model(n_e: int, n_r: int, cfg: TrainConfig, rng: np.random.Generator) -> tuple:
    entity_re = rng.normal(0.0, 0.1, (n_e, cfg.dimension))
    entity_im = rng.normal(0.0, 0.1, (n_e, cfg.dimension))
    relation_re = rng.normal(0.0, 0.1, (n_r, cfg.dimension))
    relation_im = rng.normal(0.0, 0.1, (n_r, cfg.dimension))
    if cfg.real_relations:
        relation_im[:] = 0.0
    return entity_re, entity_im, relation_re, relation_im


@dataclass(frozen=True)
class _Side:
    """The known partners on one side of every (relation, anchor) key.
    Segment s of `adj` stores key s's sorted partners p_0 < p_1 < ... as
    p_i - i + s * stride; the k-th non-partner is then k plus the number
    of the segment's entries at most k + s * stride."""

    keys: np.ndarray  # sorted distinct relation * n_e + anchor
    counts: np.ndarray  # known partners per key
    starts: np.ndarray  # first slot of each key's segment in `adj`
    adj: np.ndarray
    stride: int  # n_e + 1, above any p_i - i

    def nth_free(self, seg: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The k-th (from 0) entity that is not a known partner of key seg."""
        return k + np.searchsorted(self.adj, k + seg * self.stride, side="right") - self.starts[seg]


def _side(key: np.ndarray, partner: np.ndarray, n_e: int) -> _Side:
    order = np.lexsort((partner, key))
    key, partner = key[order], partner[order]
    keys, seg, counts = np.unique(key, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    adj = partner - (np.arange(len(key)) - starts[seg]) + seg * (n_e + 1)
    return _Side(keys, counts, starts, adj, n_e + 1)


def _complement_index(pos: np.ndarray, n_e: int) -> tuple[_Side, _Side]:
    """(tail side, head side) for the (h, r, t) rows `pos`: the known tails
    of each (h, r) and the known heads of each (r, t)."""
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    return _side(r * n_e + h, t, n_e), _side(r * n_e + t, h, n_e)


def _sample_negatives(
    rng: np.random.Generator,
    pos: np.ndarray,
    n_entities: int,
    known: tuple[_Side, _Side],
    per_positive: int,
) -> np.ndarray:
    """Corrupt head or tail with an entity drawn uniformly from those that
    form no known positive there (`known` is `_complement_index` of all
    positives).  A slot whose drawn side has no such entity corrupts the
    other side; it is dropped only when both are full.  Rows are
    (positive index, h, r, t) in slot order."""
    n_e, n = n_entities, len(pos)
    sides = rng.integers(0, 2, size=(n, per_positive))
    u = rng.random((n, per_positive))
    tail, head = known
    h, r, t = pos[:, 0], pos[:, 1], pos[:, 2]
    seg_t = np.searchsorted(tail.keys, r * n_e + h)
    seg_h = np.searchsorted(head.keys, r * n_e + t)
    free_t = (n_e - tail.counts[seg_t])[:, None]
    free_h = (n_e - head.counts[seg_h])[:, None]
    corrupt_head = np.where(sides == 1, free_h > 0, free_t == 0)
    free = np.where(corrupt_head, free_h, free_t)
    k = np.minimum((u * free).astype(np.int64), free - 1)  # u * free may round up to free

    out = np.repeat(np.column_stack([np.arange(n), pos]), per_positive, axis=0)
    out = out.reshape(n, per_positive, 4)
    rows, cols = np.nonzero(corrupt_head & (free > 0))
    out[rows, cols, 1] = head.nth_free(seg_h[rows], k[rows, cols])
    rows, cols = np.nonzero(~corrupt_head & (free > 0))
    out[rows, cols, 3] = tail.nth_free(seg_t[rows], k[rows, cols])
    return out[free > 0]


def train(triples: list[Triple], cfg: TrainConfig = TrainConfig()) -> EmbeddingModel:
    """Train an embedding model on a triple list.

    Input order does not matter: the vocabulary and the positive pool are
    canonicalized by sorting, and every random draw comes from the seeded
    generator, so a fixed seed reproduces the model bit for bit.
    """
    if not triples:
        raise CompletionError("cannot train on an empty triple list")
    triples = sorted(set(triples), key=Triple.sort_key)
    entity_index, relation_index = _build_vocab(triples)
    n_e, n_r = len(entity_index), len(relation_index)
    rng = np.random.default_rng(cfg.seed)

    e_re, e_im, r_re, r_im = _init_model(n_e, n_r, cfg, rng)
    model = EmbeddingModel(e_re, e_im, r_re, r_im, entity_index, relation_index, cfg.dimension)

    pos = np.array(
        [
            (entity_index[t.subject], relation_index[t.predicate], entity_index[t.object])
            for t in triples
        ],
        dtype=np.int64,
    )
    known = _complement_index(pos, n_e)

    acc = Gradients(
        np.zeros_like(e_re), np.zeros_like(e_im), np.zeros_like(r_re), np.zeros_like(r_im)
    )
    lam, lr = cfg.l2_lambda, cfg.learning_rate
    # every batch is at most this many triples: the positives plus their negatives
    ws = _workspace(min(cfg.batch_size, len(pos)) * (1 + cfg.negatives_per_positive), cfg.dimension)

    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(pos))
        epoch_loss = 0.0
        examples = 0
        for start in range(0, len(pos), cfg.batch_size):
            batch_pos = pos[order[start : start + cfg.batch_size]]
            negs = _sample_negatives(rng, batch_pos, n_e, known, cfg.negatives_per_positive)

            h = np.concatenate([batch_pos[:, 0], negs[:, 1]])
            r = np.concatenate([batch_pos[:, 1], negs[:, 2]])
            t = np.concatenate([batch_pos[:, 2], negs[:, 3]])
            y = np.concatenate([np.ones(len(batch_pos)), -np.ones(len(negs))])
            f, step = _core(model, h, r, t, ws, y, lam)
            epoch_loss += step.loss
            epoch_loss += step.l2
            examples += len(f)

            if cfg.real_relations:
                step.relation_im[:] = 0.0

            for rows, grad, accum, params in (
                (step.entity_rows, step.entity_re, acc.entity_re, model.entity_re),
                (step.entity_rows, step.entity_im, acc.entity_im, model.entity_im),
                (step.relation_rows, step.relation_re, acc.relation_re, model.relation_re),
                (step.relation_rows, step.relation_im, acc.relation_im, model.relation_im),
            ):
                accum[rows] += grad * grad
                params[rows] -= lr * grad / np.sqrt(accum[rows] + _ADAGRAD_EPS)

        model.loss_history.append(epoch_loss / max(examples, 1))
    return model


def split_holdout(
    triples: list[Triple], fraction: float, seed: int
) -> tuple[list[Triple], list[Triple]]:
    """Seeded (train, held-out) split that keeps the input order; with a
    fraction of 0 everything trains."""
    if fraction <= 0:
        return triples, []
    order = np.random.default_rng(seed).permutation(len(triples))
    cut = max(1, int(len(triples) * (1 - fraction)))
    return [triples[i] for i in sorted(order[:cut])], [triples[i] for i in sorted(order[cut:])]


# ----------------------------------------------------------------------
# evaluation

def evaluate(
    model: EmbeddingModel, test_triples: list[Triple], all_known: list[Triple]
) -> RankMetrics:
    """Filtered ranking over head and tail corruption.

    Known positives other than the test triple are excluded before
    ranking; ties rank the true entity after its equals (pessimistic).
    `evaluated` counts ranking directions (two per test triple).
    """
    # (conjugate, anchor, relation) -> the answers known for that ranking
    known: dict[tuple[bool, int, int], set[int]] = {}
    for t in all_known:
        try:
            h = model.entity_row(t.subject)
            r = model.relation_row(t.predicate)
            o = model.entity_row(t.object)
        except CompletionError:
            continue
        known.setdefault((False, h, r), set()).add(o)
        known.setdefault((True, o, r), set()).add(h)

    ranks: list[int] = []
    for t in test_triples:
        h = model.entity_row(t.subject)
        r = model.relation_row(t.predicate)
        o = model.entity_row(t.object)
        for anchor, answer, conjugate in ((h, o, False), (o, h, True)):
            allowed = np.ones(len(model.entity_index), dtype=bool)
            allowed[list(known.get((conjugate, anchor, r), ()))] = False
            allowed[answer] = True
            scores = _all_tail_scores(model, anchor, r, conjugate, allowed)
            ranks.append(1 + int((np.delete(scores, answer) >= scores[answer]).sum()))

    arr = np.array(ranks, dtype=float)
    if len(arr) == 0:
        return RankMetrics(0.0, {1: 0.0, 3: 0.0, 10: 0.0}, 0)
    return RankMetrics(
        mrr=float((1.0 / arr).mean()),
        hits={k: float((arr <= k).mean()) for k in (1, 3, 10)},
        evaluated=len(arr),
    )


# ----------------------------------------------------------------------
# prediction

def _observed(kg: KnowledgeGraph, rel: Term) -> list[Triple]:
    """The relation's data statements (its assertions), in canonical order."""
    return [st.triple for st in kg.with_predicate(rel.value) if not is_schema_triple(st.triple)]


def predict_missing(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    candidate_relations: list[Term],
    threshold: float,
    top_k: int,
) -> list[ScoredTriple]:
    """Propose new statements for entities lacking a candidate relation.

    Candidate subjects are the model-covered entities sharing a type with
    the relation's observed subjects (all data-statement subjects when the
    observed subjects carry no types).  Candidate tails are type-constrained
    the same way: an entity must share a class with the relation's observed
    objects, unless those are untyped; the subject itself is never a tail.
    Confidence is sigmoid(score); only the top-k proposals strictly above
    the threshold are emitted, with source id "completion".  Equal scores
    rank the lower entity row first: rows are numbered in `Term.sort_key`
    order (a trained model's vocabulary, kept by `load_model`), so ties
    fall to the smaller sort key.
    """
    class_map = kg.class_map()
    all_subjects = dict.fromkeys(st.triple.subject for st in kg.data_statements)
    entities = model.entities

    def types_of(terms: set[Term]) -> set[str]:
        return set().union(*(class_map.get(e, set()) for e in terms))

    out: list[ScoredTriple] = []
    for rel in sorted(candidate_relations, key=Term.sort_key):
        r = model.relation_row(rel)
        observed = _observed(kg, rel)
        subjects = {t.subject for t in observed}
        observed_types = types_of(subjects)
        range_types = types_of({t.object for t in observed})
        typed = np.array(
            [not range_types or bool(class_map.get(e, set()) & range_types) for e in entities],
            dtype=bool,
        )
        pool = [
            e
            for e in all_subjects
            if e not in subjects
            and e in model.entity_index
            and (not observed_types or class_map.get(e, set()) & observed_types)
        ]
        for subject in pool:
            s_row = model.entity_row(subject)
            allowed = typed.copy()
            allowed[s_row] = False
            scores = _all_tail_scores(model, s_row, r, allowed=allowed)
            conf = _sigmoid(scores)
            for i in np.argsort(-scores, kind="stable")[: max(top_k, 0)]:
                if not allowed[i] or conf[i] <= threshold:
                    break
                out.append(
                    ScoredTriple(Triple(subject, rel, entities[i]), float(conf[i]), "completion")
                )
    return out


def agreement_rates(
    model: EmbeddingModel, kg: KnowledgeGraph, relations: list[Term], sim_threshold: float
) -> dict[str, float | None]:
    """Per relation, the share of subjects whose existing object agrees
    (by `correction.terms_agree`) with the model's best tail among the
    relation's observed objects, ties to the lower row.  A subject with
    several objects compares its first in canonical order.  None when no
    model-covered subject or object is observed."""
    rates: dict[str, float | None] = {}
    entities = model.entities
    for rel in relations:
        existing: dict[Term, Term] = {}
        allowed = np.zeros(len(entities), dtype=bool)
        for t in _observed(kg, rel):
            existing.setdefault(t.subject, t.object)
            if t.object in model.entity_index:
                allowed[model.entity_index[t.object]] = True
        subjects = [s for s in existing if s in model.entity_index]
        if not (subjects and allowed.any()):
            rates[rel.value] = None
            continue
        r = model.relation_row(rel)
        agree = 0
        for s in subjects:
            best = np.argmax(_all_tail_scores(model, model.entity_row(s), r, allowed=allowed))
            agree += terms_agree(existing[s], entities[best], sim_threshold)
        rates[rel.value] = agree / len(subjects)
    return rates


# ----------------------------------------------------------------------
# persistence and dataset loading

def save_model(model: EmbeddingModel, path) -> None:
    """Write the model in the versioned binary layout: magic, version,
    n_e, n_r, d, the two rendered-term name blocks, then the four float64
    little-endian matrices."""
    n_e, n_r, d = len(model.entity_index), len(model.relation_index), model.dimension
    e_names = "\n".join(render_term(t) for t in model.entities).encode("utf-8")
    r_names = "\n".join(render_term(t) for t in model.relations).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _FORMAT_VERSION, n_e, n_r, d))
        fh.write(struct.pack("<Q", len(e_names)))
        fh.write(e_names)
        fh.write(struct.pack("<Q", len(r_names)))
        fh.write(r_names)
        for arr in (model.entity_re, model.entity_im, model.relation_re, model.relation_im):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> EmbeddingModel:
    """A `save_model` file; one cut short, with trailing bytes or with an
    unreadable name is a CompletionError naming `path`."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(size: int) -> bytes:
            if size > end - fh.tell():
                raise CompletionError(f"{path}: truncated model file")
            return fh.read(size)

        if fh.read(4) != _MAGIC:
            raise CompletionError(f"{path}: not a model file (bad magic)")
        version, n_e, n_r, d = struct.unpack("<IIII", read(16))
        if version != _FORMAT_VERSION:
            raise CompletionError(f"{path}: unsupported model version {version}")
        (e_len,) = struct.unpack("<Q", read(8))
        e_names = read(e_len)
        (r_len,) = struct.unpack("<Q", read(8))
        r_names = read(r_len)
        arrays = [
            np.frombuffer(read(rows * d * 8), dtype="<f8").reshape(rows, d).copy()
            for rows in (n_e, n_e, n_r, n_r)
        ]
        if fh.tell() != end:
            raise CompletionError(f"{path}: trailing bytes after the model")
    try:
        entity_terms = [parse_term(s) for s in e_names.decode().split("\n")] if e_names else []
        relation_terms = [parse_term(s) for s in r_names.decode().split("\n")] if r_names else []
    except ValueError as exc:
        raise CompletionError(f"{path}: bad name block: {exc}") from None
    entity_index = {t: i for i, t in enumerate(entity_terms)}
    return EmbeddingModel(*arrays, entity_index, {t: i for i, t in enumerate(relation_terms)}, d)


def load_tsv(path) -> list[Triple]:
    """Load a 3-column (head, relation, tail) tab-separated triple file,
    decoded line by line: a bad line fails as `<path>:<line>: ...`."""
    triples = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                parts = [p.strip().replace(" ", "_") for p in line.rstrip("\n").split("\t")]
                if len(parts) != 3:
                    raise CompletionError(f"expected 3 tab-separated columns, got {len(parts)}")
                triples.append(Triple(*map(Term.iri, parts)))
            except ValueError as exc:
                raise CompletionError(f"{path}:{number}: {exc}") from None
    return triples


def training_triples(kg: KnowledgeGraph) -> list[Triple]:
    """The embedding training pool: resource-object data statements plus
    instance type assertions.

    Literal-valued statements are excluded (their objects are almost
    always singletons and contribute nothing learnable).  Instance typing
    stays because shared classes are strong similarity signal, but
    vocabulary declarations (rdf:type rdfs:Class and friends) are not
    instance data and are left out.
    """
    pool = {st.triple for st in kg.data_statements if not st.triple.object.is_literal}
    pool.update(
        t
        for t in kg.type_assertions()
        if t.object.is_iri and t.object.value not in META_CLASSES
    )
    return sorted(pool, key=Triple.sort_key)
