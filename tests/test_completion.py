import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fixture_factory as ff
from ontogen.completion import (
    _all_tail_scores,
    _complement_index,
    _core,
    _row_sums,
    _sample_negatives,
    _workspace,
    CompletionError,
    EmbeddingModel,
    TrainConfig,
    _sigmoid,
    agreement_rates,
    evaluate,
    load_model,
    load_tsv,
    loss_and_gradient,
    predict_missing,
    save_model,
    score,
    train,
    training_triples,
)
from ontogen.correction import terms_agree
from ontogen.model import RDF_TYPE, KnowledgeGraph, Term, Triple


def iri(v: str) -> Term:
    return Term.iri("urn:" + v)


def random_model(rng, n_e=6, n_r=3, d=4) -> EmbeddingModel:
    ents = [iri(f"e{i}") for i in range(n_e)]
    rels = [iri(f"r{i}") for i in range(n_r)]
    return EmbeddingModel(
        rng.normal(0, 0.5, (n_e, d)),
        rng.normal(0, 0.5, (n_e, d)),
        rng.normal(0, 0.5, (n_r, d)),
        rng.normal(0, 0.5, (n_r, d)),
        {e: i for i, e in enumerate(ents)},
        {r: i for i, r in enumerate(rels)},
        d,
    )


def direct_complex_score(m: EmbeddingModel, h: Term, r: Term, t: Term) -> float:
    """Oracle: evaluate the score with python complex arithmetic."""
    hi, ri, ti = m.entity_index[h], m.relation_index[r], m.entity_index[t]
    total = 0 + 0j
    for i in range(m.dimension):
        hv = complex(m.entity_re[hi, i], m.entity_im[hi, i])
        rv = complex(m.relation_re[ri, i], m.relation_im[ri, i])
        tv = complex(m.entity_re[ti, i], m.entity_im[ti, i])
        total += rv * hv * tv.conjugate()
    return total.real


class TestScore:
    def test_identity_case(self):
        m = EmbeddingModel(
            np.array([[1.0]]), np.array([[0.0]]),
            np.array([[1.0]]), np.array([[0.0]]),
            {iri("e"): 0}, {iri("r"): 0}, 1,
        )
        assert score(m, iri("e"), iri("r"), iri("e")) == 1.0

    def test_zero_relation_vector(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        m.relation_re[0] = 0.0
        m.relation_im[0] = 0.0
        for h in list(m.entity_index)[:3]:
            for t in list(m.entity_index)[:3]:
                assert score(m, h, iri("r0"), t) == 0.0

    def test_imaginary_asymmetry(self):
        m = EmbeddingModel(
            np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]),
            np.array([[0.0]]), np.array([[1.0]]),
            {iri("a"): 0, iri("b"): 1}, {iri("r"): 0}, 1,
        )
        assert score(m, iri("a"), iri("r"), iri("b")) == pytest.approx(-1.0, abs=1e-12)
        assert score(m, iri("b"), iri("r"), iri("a")) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_names_error(self):
        m = random_model(np.random.default_rng(0))
        with pytest.raises(CompletionError, match="nope"):
            score(m, iri("nope"), iri("r0"), iri("e0"))
        with pytest.raises(CompletionError, match="r9"):
            score(m, iri("e0"), iri("r9"), iri("e0"))

    def test_matches_direct_complex_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_model(rng, d=int(rng.integers(1, 8)))
            h, t = rng.choice(list(m.entity_index), 2)
            r = rng.choice(list(m.relation_index))
            assert score(m, h, r, t) == pytest.approx(direct_complex_score(m, h, r, t), abs=1e-9)

    def test_all_real_relations_symmetric(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        m.relation_im[:] = 0.0
        for h in m.entity_index:
            for t in m.entity_index:
                assert score(m, h, iri("r1"), t) == pytest.approx(
                    score(m, t, iri("r1"), h), abs=1e-12
                )

    def test_conjugated_relation_swaps_direction(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = random_model(rng)
            conj = random_model(rng, n_e=len(m.entity_index), n_r=len(m.relation_index), d=m.dimension)
            conj.entity_re, conj.entity_im = m.entity_re, m.entity_im
            conj.relation_re = m.relation_re
            conj.relation_im = -m.relation_im
            conj.entity_index, conj.relation_index = m.entity_index, m.relation_index
            h, t = rng.choice(list(m.entity_index), 2)
            r = rng.choice(list(m.relation_index))
            assert score(conj, h, r, t) == pytest.approx(score(m, t, r, h), abs=1e-9)

    def test_all_entity_scores_in_both_directions(self):
        def head_scores(m, r, t):
            # the head-side formula written out, with no conjugation
            t_re, t_im = m.entity_re[t], m.entity_im[t]
            r_re, r_im = m.relation_re[r], m.relation_im[r]
            c_re = r_re * t_re + r_im * t_im
            c_im = r_re * t_im - r_im * t_re
            return m.entity_re @ c_re + m.entity_im @ c_im

        rng = np.random.default_rng(3)
        for _ in range(200):
            m = random_model(rng, d=int(rng.integers(1, 8)))
            ents = list(m.entity_index)
            a = int(rng.integers(len(ents)))
            r = int(rng.integers(len(m.relation_index)))
            rel = list(m.relation_index)[r]
            tails = _all_tail_scores(m, a, r)
            heads = _all_tail_scores(m, a, r, conjugate=True)
            assert np.array_equal(heads, head_scores(m, r, a))
            for e, term in enumerate(ents):
                tail, head = (ents[a], rel, term), (term, rel, ents[a])
                assert tails[e] == pytest.approx(direct_complex_score(m, *tail), abs=1e-9)
                assert heads[e] == pytest.approx(direct_complex_score(m, *head), abs=1e-9)


class TestLossAndGradient:
    def test_zero_model_loss_is_log2_per_example(self):
        ents = [iri("a"), iri("b")]
        m = EmbeddingModel(
            np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((1, 3)),
            {e: i for i, e in enumerate(ents)}, {iri("r"): 0}, 3,
        )
        batch = [(Triple(ents[0], iri("r"), ents[1]), 1), (Triple(ents[1], iri("r"), ents[0]), -1)]
        loss, _ = loss_and_gradient(m, batch, TrainConfig(dimension=3))
        assert loss == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_doubling_lambda_doubles_regularizer(self):
        rng = np.random.default_rng(2)
        m = random_model(rng)
        batch = [(Triple(iri("e0"), iri("r0"), iri("e1")), 1)]
        base, _ = loss_and_gradient(m, batch, TrainConfig(dimension=4, l2_lambda=0.0))
        l1, _ = loss_and_gradient(m, batch, TrainConfig(dimension=4, l2_lambda=0.01))
        l2, _ = loss_and_gradient(m, batch, TrainConfig(dimension=4, l2_lambda=0.02))
        assert l2 - base == pytest.approx(2 * (l1 - base), rel=1e-12)

    def test_bad_labels_rejected(self):
        m = random_model(np.random.default_rng(0))
        with pytest.raises(CompletionError):
            loss_and_gradient(m, [(Triple(iri("e0"), iri("r0"), iri("e1")), 2)], TrainConfig(dimension=4))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(8065381)  # a 3-point difference at h = 1e-5 misses by 2.3e-4 here, from rounding
    def test_gradients_match_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        n_e = int(rng.integers(2, 11))
        m = random_model(rng, n_e=n_e, n_r=int(rng.integers(1, 4)), d=d)
        cfg = TrainConfig(dimension=d, l2_lambda=float(rng.choice([0.0, 1e-3, 1e-2])))
        ents, rels = list(m.entity_index), list(m.relation_index)
        batch = [
            (
                Triple(ents[rng.integers(n_e)], rels[rng.integers(len(rels))], ents[rng.integers(n_e)]),
                int(rng.choice([-1, 1])),
            )
            for _ in range(8)
        ]
        _, grads = loss_and_gradient(m, batch, cfg)
        # fourth-order five-point stencil: its truncation error at this step
        # stays far below the rounding noise a smaller step would bring
        h = 2e-3

        def loss_at(arr, i, j, x):
            arr[i, j] = x
            return loss_and_gradient(m, batch, cfg)[0]

        for name in ("entity_re", "entity_im", "relation_re", "relation_im"):
            arr = getattr(m, name)
            analytic = getattr(grads, name)
            for i in range(arr.shape[0]):
                for j in range(arr.shape[1]):
                    orig = arr[i, j]
                    fd = (
                        loss_at(arr, i, j, orig - 2 * h) - 8 * loss_at(arr, i, j, orig - h)
                        + 8 * loss_at(arr, i, j, orig + h) - loss_at(arr, i, j, orig + 2 * h)
                    ) / (12 * h)
                    arr[i, j] = orig
                    denom = max(abs(fd), abs(analytic[i, j]), 1e-8)
                    assert abs(fd - analytic[i, j]) / denom < 1e-4


def expression_core(m: EmbeddingModel, h, r, t, y, lam):
    """Oracle for `_core`: the same scores, loss, L2 term and gradient rows
    written as whole-array expressions, each temporary a fresh array, with
    the segment sums taken by a stable sort of the int64 ids."""

    def row_sums(ids, *values):
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        starts = np.flatnonzero(np.diff(ids, prepend=-1))
        return ids[starts], *(np.add.reduceat(v[order], starts, axis=0) for v in values)

    h_re, h_im = m.entity_re[h], m.entity_im[h]
    t_re, t_im = m.entity_re[t], m.entity_im[t]
    r_re, r_im = m.relation_re[r], m.relation_im[r]
    f = (r_re * (h_re * t_re + h_im * t_im) + r_im * (h_re * t_im - h_im * t_re)).sum(axis=-1)
    w = (-y * _sigmoid(-y * f))[:, None]
    ue, ge_re, ge_im = row_sums(
        np.concatenate([h, t]),
        np.concatenate([w * (r_re * t_re + r_im * t_im), w * (r_re * h_re - r_im * h_im)]),
        np.concatenate([w * (r_re * t_im - r_im * t_re), w * (r_re * h_im + r_im * h_re)]),
    )
    ur, gr_re, gr_im = row_sums(
        r, w * (h_re * t_re + h_im * t_im), w * (h_re * t_im - h_im * t_re)
    )
    l2 = 0.0
    if lam > 0:
        l2 = lam * float(
            (m.entity_re[ue] ** 2).sum()
            + (m.entity_im[ue] ** 2).sum()
            + (m.relation_re[ur] ** 2).sum()
            + (m.relation_im[ur] ** 2).sum()
        )
        ge_re += 2 * lam * m.entity_re[ue]
        ge_im += 2 * lam * m.entity_im[ue]
        gr_re += 2 * lam * m.relation_re[ur]
        gr_im += 2 * lam * m.relation_im[ur]
    loss = float(np.logaddexp(0.0, -y * f).sum())
    return f, (loss, l2, ue, ge_re, ge_im, ur, gr_re, gr_im)


class TestWorkspaceCore:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 64),
        extra=st.integers(0, 64),
        d=st.integers(1, 8),
        lam=st.sampled_from([0.0, 1e-3, 0.37]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_the_expression_form(self, rows, extra, d, lam, seed):
        rng = np.random.default_rng(seed)
        n_e, n_r = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        m = random_model(rng, n_e=n_e, n_r=n_r, d=d)
        ws = _workspace(rows + extra, d)
        # a full batch, then a smaller one in the same workspace: no view
        # may keep the larger batch's shape or rows
        for n in (rows + extra, rows):
            h, t = rng.integers(0, n_e, n), rng.integers(0, n_e, n)
            r = rng.integers(0, n_r, n)
            y = rng.choice([-1.0, 1.0], n)
            f, step = _core(m, h, r, t, ws, y, lam)
            ref_f, ref = expression_core(m, h, r, t, y, lam)
            got = (
                step.loss, step.l2, step.entity_rows, step.entity_re, step.entity_im,
                step.relation_rows, step.relation_re, step.relation_im,
            )
            assert np.array_equal(f, ref_f)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
            assert np.array_equal(_core(m, h, r, t, ws)[0], ref_f)

    def test_train_sizes_the_workspace_by_the_pool(self, traced_peak):
        triples = ff.kinship_triples(n_families=1)[:3]
        cfg = TrainConfig(epochs=2, batch_size=1_000_000)
        model, peak, _ = traced_peak(train, triples, cfg)
        assert len(model.loss_history) == 2
        assert peak < 1 << 20

    @pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts are read on Linux")
    def test_training_takes_few_page_faults(self):
        import resource

        # per-batch temporaries freed and faulted back in took ~22,700
        # minor faults over these 20 epochs
        _, train_set, _ = ff.kinship_split()
        train(train_set, TrainConfig(epochs=1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(train_set, TrainConfig(epochs=20))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5_000


class TestRowSums:
    def test_matches_add_at_accumulation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n_ids = int(rng.integers(1, 40))
            ids = rng.integers(0, n_ids, int(rng.integers(1, 300)))
            values = rng.normal(size=(len(ids), int(rng.integers(1, 9))))
            distinct, sums = _row_sums(ids, values)
            ref = np.zeros((n_ids, values.shape[1]))
            np.add.at(ref, ids, values)
            assert np.array_equal(distinct, np.unique(ids))
            # rtol on the scale of the summands: a near-cancelling sum has
            # no relative accuracy in any summation order
            scale = np.zeros_like(ref)
            np.add.at(scale, ids, np.abs(values))
            assert np.all(np.abs(sums - ref[distinct]) <= 1e-12 * scale[distinct])

    def test_several_value_arrays_share_one_order(self):
        ids = np.array([3, 1, 3, 0, 1])
        a = np.arange(10.0).reshape(5, 2)
        distinct, sa, sb = _row_sums(ids, a, -a)
        assert distinct.tolist() == [0, 1, 3]
        assert sa.tolist() == [[6, 7], [10, 12], [4, 6]]
        assert np.array_equal(sb, -sa)


def _random_positives(rng, n_e, n_r):
    m = int(rng.integers(1, n_e * n_e * n_r + 1))
    rows = np.stack(
        [rng.integers(0, n_e, m), rng.integers(0, n_r, m), rng.integers(0, n_e, m)], axis=1
    )
    return np.unique(rows, axis=0)


class TestSampleNegatives:
    def test_draws_avoid_positives_and_keep_relation_and_other_end(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_e, n_r = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            pos = _random_positives(rng, n_e, n_r)
            known = {tuple(row) for row in pos.tolist()}
            both_full = [
                sum((e, r, t) in known for e in range(n_e)) == n_e
                and sum((h, r, e) in known for e in range(n_e)) == n_e
                for h, r, t in pos.tolist()
            ]
            negs = _sample_negatives(rng, pos, n_e, _complement_index(pos, n_e), 5)
            assert len(negs) == 5 * (len(pos) - sum(both_full))
            assert negs[:, 0].tolist() == sorted(negs[:, 0].tolist())
            for i, h, r, t in negs.tolist():
                ph, pr, pt = pos[i].tolist()
                assert (h, r, t) not in known
                assert r == pr and (h == ph) != (t == pt)
                assert 0 <= h < n_e and 0 <= t < n_e

    def test_draws_are_uniform_over_the_complement(self):
        # known tails of (e0, r0): {1, 3, 4}; known heads of (r0, e1): {0, 2, 5}
        pos = np.array([[0, 0, 1], [0, 0, 3], [0, 0, 4], [2, 0, 1], [5, 0, 1]])
        index = _complement_index(pos, 10)
        batch = np.repeat(pos[:1], 2000, axis=0)
        negs = _sample_negatives(np.random.default_rng(5), batch, 10, index, 5)
        assert len(negs) == 10_000
        tail_draws = negs[negs[:, 1] == 0, 3]
        head_draws = negs[negs[:, 3] == 1, 1]
        assert len(tail_draws) + len(head_draws) == 10_000
        tail_free, head_free = [0, 2, 5, 6, 7, 8, 9], [1, 3, 4, 6, 7, 8, 9]
        for draws, free in ((tail_draws, tail_free), (head_draws, head_free)):
            counts = np.bincount(draws, minlength=10)
            assert set(np.flatnonzero(counts)) == set(free)
            expected = len(draws) / len(free)
            chi2 = float(((counts[free] - expected) ** 2 / expected).sum())
            assert chi2 < 22.46  # chi-square, 6 degrees of freedom, p = 0.001

    def test_full_head_side_falls_over_to_tail(self):
        # every entity is a known head of (r0, e0)
        pos = np.array([[e, 0, 0] for e in range(4)])
        index = _complement_index(pos, 4)
        negs = _sample_negatives(np.random.default_rng(0), pos[:1].repeat(50, axis=0), 4, index, 4)
        assert len(negs) == 200
        assert np.all(negs[:, 1] == 0) and np.all(negs[:, 3] != 0)

    def test_slot_with_both_sides_full_is_dropped(self):
        # relation 0 holds every pair of the two entities; relation 1 holds one
        pos = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1], [0, 1, 0]])
        negs = _sample_negatives(np.random.default_rng(0), pos, 2, _complement_index(pos, 2), 3)
        assert negs[:, 0].tolist() == [4, 4, 4]
        assert all(tuple(row) in {(1, 1, 0), (0, 1, 1)} for row in negs[:, 1:].tolist())


class TestTrain:
    def test_empty_input_rejected(self):
        with pytest.raises(CompletionError):
            train([])

    def test_degenerate_config_rejected(self):
        with pytest.raises(CompletionError):
            TrainConfig(epochs=0)
        with pytest.raises(CompletionError):
            TrainConfig(learning_rate=0)

    def test_same_seed_bit_identical(self):
        triples = ff.kinship_triples(n_families=1)
        cfg = TrainConfig(dimension=6, epochs=5, seed=123)
        a = train(triples, cfg)
        b = train(triples, cfg)
        assert np.array_equal(a.entity_re, b.entity_re)
        assert np.array_equal(a.entity_im, b.entity_im)
        assert np.array_equal(a.relation_re, b.relation_re)
        assert np.array_equal(a.relation_im, b.relation_im)
        assert a.loss_history == b.loss_history

    def test_input_order_does_not_matter(self):
        triples = ff.kinship_triples(n_families=1)
        cfg = TrainConfig(dimension=4, epochs=3)
        a = train(triples, cfg)
        b = train(list(reversed(triples)), cfg)
        assert np.array_equal(a.entity_re, b.entity_re)

    def test_loss_nonincreasing_over_ten_epoch_windows(self):
        _, train_set, _ = ff.kinship_split()
        model = train(train_set, TrainConfig())
        hist = np.array(model.loss_history)
        ma = np.convolve(hist, np.ones(10) / 10, mode="valid")
        assert np.all(ma[10:] <= ma[:-10] + 1e-9)

    def test_real_relation_mode_pins_imaginary(self):
        triples = ff.kinship_triples(n_families=1)
        model = train(triples, TrainConfig(dimension=4, epochs=5, real_relations=True))
        assert np.all(model.relation_im == 0.0)

    def test_symmetric_vs_asymmetric_relations(self):
        # dense marriage evidence: held-out reverse directions score close
        # to the trained direction, while parentOf stays one-way
        triples, held_out = ff.couples_triples()
        model = train(triples, TrainConfig())
        married = ff.kin_relation("marriedTo")
        parent = ff.kin_relation("parentOf")
        asym_married = [
            abs(score(model, a, married, b) - score(model, b, married, a)) for a, b in held_out
        ]
        parent_pairs = [(t.subject, t.object) for t in triples if t.predicate == parent][:20]
        asym_parent = [
            abs(score(model, a, parent, b) - score(model, b, parent, a)) for a, b in parent_pairs
        ]
        scale = float(
            np.mean([abs(score(model, t.subject, t.predicate, t.object)) for t in triples])
        )
        assert np.mean(asym_married) < 0.6 * scale
        assert np.mean(asym_married) < 0.5 * np.mean(asym_parent)
        # the unseen reverse direction is still believed
        assert all(score(model, b, married, a) > 0 for a, b in held_out)

    def test_asymmetric_direction_ranked_first(self):
        _, train_set, test_set = ff.kinship_split()
        model = train(train_set, TrainConfig())
        parent = ff.kin_relation("parentOf")
        pairs = [t for t in test_set if t.predicate == parent]
        assert len(pairs) >= 5
        wins = sum(
            1.0 if score(model, t.subject, parent, t.object) > score(model, t.object, parent, t.subject)
            else 0.5 if score(model, t.subject, parent, t.object) == score(model, t.object, parent, t.subject)
            else 0.0
            for t in pairs
        )
        assert wins / len(pairs) >= 0.8


class TestEvaluate:
    def _perfect_model(self):
        # one relation, scores rigged so the true tail/head wins everywhere
        ents = [iri(f"e{i}") for i in range(4)]
        m = EmbeddingModel(
            np.eye(4), np.zeros((4, 4)),
            np.ones((1, 4)), np.zeros((1, 4)),
            {e: i for i, e in enumerate(ents)}, {iri("r"): 0}, 4,
        )
        return m, ents

    def test_perfect_scorer_gets_perfect_metrics(self):
        m, ents = self._perfect_model()
        tests = [Triple(ents[i], iri("r"), ents[i]) for i in range(4)]
        metrics = evaluate(m, tests, tests)
        assert metrics.mrr == 1.0
        assert metrics.hits == {1: 1.0, 3: 1.0, 10: 1.0}
        assert metrics.evaluated == 8

    def test_random_model_mrr_low(self):
        rng = np.random.default_rng(4)
        n = 100
        ents = [iri(f"e{i}") for i in range(n)]
        m = EmbeddingModel(
            rng.normal(0, 1, (n, 8)), rng.normal(0, 1, (n, 8)),
            rng.normal(0, 1, (1, 8)), rng.normal(0, 1, (1, 8)),
            {e: i for i, e in enumerate(ents)}, {iri("r"): 0}, 8,
        )
        tests = [
            Triple(ents[rng.integers(n)], iri("r"), ents[rng.integers(n)]) for _ in range(60)
        ]
        metrics = evaluate(m, tests, tests)
        assert metrics.mrr < 0.2

    def test_hand_computed_three_entity_case(self):
        # d=1 real embeddings: e0=1, e1=2, e2=3; r=1
        # score(h, t) = h*t
        ents = [iri("e0"), iri("e1"), iri("e2")]
        m = EmbeddingModel(
            np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)),
            np.array([[1.0]]), np.zeros((1, 1)),
            {e: i for i, e in enumerate(ents)}, {iri("r"): 0}, 1,
        )
        # test triple (e0, r, e1): tail scores 1,2,3 -> e2 wins, e1 rank 2
        #   nothing filtered except the other known triple (e0, r, e2)
        #   -> tail candidates {e0: 1, e1: 2}: rank(e1) = 1
        # head side: head scores 2,4,6 for tails... known (e2,r,e1) filters e2
        #   -> head candidates {e0: 2, e1: 4}: rank(e0) = 2
        known = [
            Triple(ents[0], iri("r"), ents[1]),
            Triple(ents[0], iri("r"), ents[2]),
            Triple(ents[2], iri("r"), ents[1]),
        ]
        metrics = evaluate(m, [known[0]], known)
        assert metrics.mrr == pytest.approx((1 / 1 + 1 / 2) / 2)
        assert metrics.hits[1] == 0.5
        assert metrics.evaluated == 2
        assert metrics.hits[1] <= metrics.hits[3] <= metrics.hits[10]
        assert metrics.mrr >= metrics.hits[1]

    def test_pessimistic_ties(self):
        # all-zero model: every score ties; true entity ranks last
        ents = [iri(f"e{i}") for i in range(5)]
        m = EmbeddingModel(
            np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((1, 2)), np.zeros((1, 2)),
            {e: i for i, e in enumerate(ents)}, {iri("r"): 0}, 2,
        )
        t = Triple(ents[0], iri("r"), ents[1])
        metrics = evaluate(m, [t], [t])
        assert metrics.mrr == pytest.approx(1 / 5)

    def test_kinship_link_prediction_quality(self):
        all_triples, train_set, test_set = ff.kinship_split()
        model = train(train_set, TrainConfig())
        metrics = evaluate(model, test_set, all_triples)
        assert metrics.hits[10] >= 0.8
        assert metrics.mrr >= 0.4


class TestPredictMissing:
    def test_threshold_one_yields_nothing(self):
        triples = ff.kinship_triples(n_families=1)
        model = train(triples, TrainConfig(dimension=4, epochs=5))
        kg = KnowledgeGraph()
        for t in triples:
            kg.add_triple(t, 0.9)
        assert predict_missing(model, kg, [ff.kin_relation("marriedTo")], 1.0, 3) == []

    def test_dense_relation_holdout_recall(self):
        # remove 20% of a dense relation, train, predict; recall@1 >= 0.6
        rng = np.random.default_rng(42)
        married = ff.kin_relation("marriedTo")
        triples, removed = [], {}
        for i in range(60):
            a, b = Term.iri(f"{ff.KIN}pa{i}"), Term.iri(f"{ff.KIN}pb{i}")
            kid = Term.iri(f"{ff.KIN}kid{i}")
            triples.append(Triple(a, ff.kin_relation("parentOf"), kid))
            triples.append(Triple(b, ff.kin_relation("parentOf"), kid))
            triples.append(Triple(b, married, a))
            if rng.random() < 0.8:
                triples.append(Triple(a, married, b))
            else:
                removed[a] = b
        model = train(triples, TrainConfig())
        kg = KnowledgeGraph()
        for t in triples:
            kg.add_triple(t, 0.9)
        preds = predict_missing(model, kg, [married], threshold=0.05, top_k=1)
        by_subject = {p.triple.subject: p.triple.object for p in preds}
        assert set(by_subject) == set(removed)
        hit = sum(1 for a, b in removed.items() if by_subject.get(a) == b)
        assert hit / len(removed) >= 0.6
        assert all(p.source_id == "completion" and 0 < p.confidence <= 1 for p in preds)

    def test_fortune_every_unassigned_company_gets_one(self, fortune):
        kg = ff.fortune_kg(fortune)
        pool = training_triples(kg)
        model = train(pool, TrainConfig(seed=42, **ff.PIPELINE_TRAIN_OPTIONS))
        preds = predict_missing(model, kg, [ff.prop("businessFocus")], 0.05, 1)
        subjects = [p.triple.subject for p in preds]
        assert len(subjects) == len(set(subjects))
        # the implausible-link company already has a focus statement, so the
        # candidates here are the 430 minus nothing; planted errors count as assigned
        assert set(subjects) == set(fortune.unassigned)

    def _typed_graph(self, typed_objects: bool):
        # one-dimensional real model: score(h, r, t) = h * t, so for the
        # subject c1 the company c4 (5) outscores the focus values f2 (2), f1 (1)
        names = ["c1", "c2", "c3", "c4", "f1", "f2"]
        ents = [iri(n) for n in names]
        rel = iri("focus")
        m = EmbeddingModel(
            np.array([[1.0], [1.0], [1.0], [5.0], [1.0], [2.0]]), np.zeros((6, 1)),
            np.ones((1, 1)), np.zeros((1, 1)),
            {e: i for i, e in enumerate(ents)}, {rel: 0}, 1,
        )
        kg = KnowledgeGraph()
        for e in ents[:4]:
            kg.add_triple(Triple(e, Term.iri(RDF_TYPE), iri("Company")), 0.9)
        if typed_objects:
            for e in ents[4:]:
                kg.add_triple(Triple(e, Term.iri(RDF_TYPE), iri("Focus")), 0.9)
        kg.add_triple(Triple(ents[0], iri("rival"), ents[1]), 0.9)
        kg.add_triple(Triple(ents[1], rel, ents[4]), 0.9)
        kg.add_triple(Triple(ents[2], rel, ents[5]), 0.9)
        kg.add_triple(Triple(ents[3], rel, ents[4]), 0.9)
        return m, kg, ents, rel

    def test_tails_share_a_class_with_observed_objects(self):
        m, kg, ents, rel = self._typed_graph(typed_objects=True)
        preds = predict_missing(m, kg, [rel], threshold=0.5, top_k=3)
        assert [(p.triple.subject, p.triple.object) for p in preds] == [
            (ents[0], ents[5]), (ents[0], ents[4])
        ]

    def test_untyped_observed_objects_add_no_constraint(self):
        m, kg, ents, rel = self._typed_graph(typed_objects=False)
        preds = predict_missing(m, kg, [rel], threshold=0.5, top_k=1)
        assert [(p.triple.subject, p.triple.object) for p in preds] == [(ents[0], ents[3])]

    def test_schema_predicate_observes_only_data_statements(self):
        # rdf:type as a candidate relation: its type assertions are not
        # observed statements, so every data subject is an unconstrained candidate
        m, kg, ents, rel = self._typed_graph(typed_objects=True)
        m.relation_index = {rel: 0, Term.iri(RDF_TYPE): 1}
        m.relation_re, m.relation_im = np.ones((2, 1)), np.zeros((2, 1))
        preds = predict_missing(m, kg, [Term.iri(RDF_TYPE)], threshold=0.5, top_k=1)
        assert [(p.triple.subject, p.triple.object) for p in preds] == [
            (ents[0], ents[3]), (ents[1], ents[3]), (ents[2], ents[3]), (ents[3], ents[5])
        ]


class TestMaskedTailOracle:
    """`predict_missing` and `agreement_rates` against a plain loop over
    `score()` on a one-dimensional real model, where score(h, r, t) = h * t
    is exact and ties are exact."""

    NAMES = ["c0", "c1", "c2", "c3", "f0", "f1", "f2", "f3", "x"]
    #: c0 also carries the Focus class, so it is an allowed tail for others
    #: and the best-scoring one for itself; f0 and f1 tie; f2 scores 0, so
    #: its confidence is exactly 0.5; x, of class Other, outscores every tail
    VALUES = [4.0, 1.0, 1.0, -1.0, 2.0, 2.0, 0.0, -1.0, 8.0]

    def _setup(self):
        ents = [iri(n) for n in self.NAMES]
        rel = iri("focus")
        m = EmbeddingModel(
            np.array([[v] for v in self.VALUES]), np.zeros((9, 1)),
            np.ones((1, 1)), np.zeros((1, 1)),
            {e: i for i, e in enumerate(ents)}, {rel: 0}, 1,
        )
        c0, c1, c2, c3, f0, f1, f2, f3, x = ents
        kg = KnowledgeGraph()
        for e, cls in [(c0, "Company"), (c0, "Focus"), (c1, "Company"), (c2, "Company"),
                       (c3, "Company"), (f0, "Focus"), (f1, "Focus"), (f2, "Focus"),
                       (f3, "Focus"), (x, "Other")]:
            kg.add_triple(Triple(e, Term.iri(RDF_TYPE), iri(cls)), 0.9)
        kg.add_triple(Triple(c0, iri("rival"), c1), 0.9)
        kg.add_triple(Triple(c1, iri("rival"), c2), 0.9)
        kg.add_triple(Triple(c2, rel, f1), 0.9)
        kg.add_triple(Triple(c3, rel, f2), 0.9)
        return m, kg, ents, rel

    def _ranked(self, m, subject, rel, tails):
        # by descending score; the sort is stable, so ties keep the lower row first
        rows = sorted(m.entity_index[e] for e in tails if e != subject)
        return sorted(rows, key=lambda i: -score(m, subject, rel, m.entities[i]))

    @pytest.mark.parametrize("threshold", [0.5, 0.9, -1.0])
    @pytest.mark.parametrize("top_k", [1, 2, 10])
    def test_predict_missing_equals_brute_force(self, threshold, top_k):
        m, kg, ents, rel = self._setup()
        c0, c1, _, _, f0, f1, f2, f3, x = ents
        expected = []
        for subject in (c0, c1):  # Company subjects with no focus yet
            for i in self._ranked(m, subject, rel, [c0, f0, f1, f2, f3])[:top_k]:
                s = score(m, subject, rel, m.entities[i])
                conf = 1 / (1 + np.exp(-s))
                if conf <= threshold:
                    break
                expected.append((subject, m.entities[i], conf))
        preds = predict_missing(m, kg, [rel], threshold, top_k)
        got = [(p.triple.subject, p.triple.object) for p in preds]
        assert got == [(s, o) for s, o, _ in expected]
        assert [p.confidence for p in preds] == pytest.approx([c for _, _, c in expected])
        assert all(p.triple.subject != p.triple.object and p.triple.object != x for p in preds)

    def test_ties_threshold_and_bars(self):
        m, kg, ents, rel = self._setup()
        c0, c1, _, _, f0, f1, f2, f3, _ = ents
        pairs = lambda preds: [(p.triple.subject, p.triple.object) for p in preds]
        # f0 and f1 tie for c0: the lower row wins
        assert pairs(predict_missing(m, kg, [rel], 0.5, 1)) == [(c0, f0), (c1, c0)]
        # f2's confidence equals the threshold exactly and is not emitted
        assert float(_sigmoid(np.array([score(m, c0, rel, f2)]))[0]) == 0.5
        assert pairs(predict_missing(m, kg, [rel], 0.5, 10)) == [
            (c0, f0), (c0, f1), (c1, c0), (c1, f0), (c1, f1)
        ]
        # below every confidence and past the allowed set: still no self or x
        assert pairs(predict_missing(m, kg, [rel], -1.0, 50)) == [
            (c0, f0), (c0, f1), (c0, f2), (c0, f3), (c1, c0), (c1, f0), (c1, f1), (c1, f2),
            (c1, f3),
        ]

    def test_agreement_rates_equal_brute_force(self):
        m, kg, ents, rel = self._setup()
        _, _, c2, c3, f0, f1, f2, _, _ = ents
        # an assertion on a subject the model does not cover still makes f0
        # an observed object; f0 ties with c2's own f1 and, as the lower
        # row, wins: c2 disagrees and c3 agrees
        kg.add_triple(Triple(iri("z"), rel, f0), 0.9)
        agree = 0
        for subject, existing in ((c2, f1), (c3, f2)):
            best = self._ranked(m, subject, rel, [f0, f1, f2])[0]
            agree += terms_agree(existing, m.entities[best], 0.8)
        assert agreement_rates(m, kg, [rel], 0.8) == {rel.value: agree / 2} == {rel.value: 0.5}

    def test_agreement_rates_none_without_comparable_assertions(self):
        # no assertions at all, and assertions whose objects the model lacks
        m, kg, ents, rel = self._setup()
        unused, name = iri("unused"), iri("name")
        m.relation_index = {rel: 0, unused: 1, name: 2}
        m.relation_re, m.relation_im = np.ones((3, 1)), np.zeros((3, 1))
        kg.add_triple(Triple(ents[0], name, Term.literal("c zero")), 0.9)
        assert agreement_rates(m, kg, [unused, name], 0.8) == {unused.value: None, name.value: None}


class TestAgreementCheck:
    def test_identical(self):
        assert terms_agree(iri("a"), iri("a"), 0.8)
        assert terms_agree(Term.literal("b"), iri("b"), 0.8)

    def test_case_fold(self):
        assert terms_agree(iri("Technology"), iri("technology"), 0.99)

    def test_threshold_099(self):
        # one edit in seven characters: similar at 0.8, not at 0.99
        assert terms_agree(iri("label01"), iri("label02"), 0.8)
        assert not terms_agree(iri("label01"), iri("label02"), 0.99)

    def test_seventy_pairs_with_seven_disagreements(self):
        # one-hot model: subject i prefers object target(i) among the 70
        # observed objects; every tenth target is two edits from label i
        n = 70
        target = [(i + 11) % n if i % 10 == 0 else i for i in range(n)]
        subjects = [iri(f"s{i:02d}") for i in range(n)]
        objects = [iri(f"label{i:02d}") for i in range(n)]
        rel = iri("label")
        e_re = np.vstack([np.eye(n)[target], np.eye(n)])
        m = EmbeddingModel(
            e_re, np.zeros_like(e_re), np.ones((1, n)), np.zeros((1, n)),
            {e: i for i, e in enumerate(subjects + objects)}, {rel: 0}, n,
        )
        kg = KnowledgeGraph()
        for s, o in zip(subjects, objects):
            kg.add_triple(Triple(s, rel, o), 0.9)
        assert agreement_rates(m, kg, [rel], 0.8) == {rel.value: pytest.approx(0.9)}


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = train(ff.kinship_triples(n_families=1), TrainConfig(dimension=5, epochs=3))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dimension == 5
        assert loaded.entity_index == model.entity_index
        assert loaded.relation_index == model.relation_index
        np.testing.assert_array_equal(loaded.entity_re, model.entity_re)
        np.testing.assert_array_equal(loaded.relation_im, model.relation_im)

    @pytest.mark.parametrize(
        "damage, match",
        [
            pytest.param(lambda good: b"NOPE" + good[4:], "bad magic", id="bad-magic"),
            pytest.param(lambda good: b"", "bad magic", id="empty"),
            pytest.param(lambda good: good[:10], "truncated", id="10-bytes"),
            pytest.param(lambda good: good[:30], "truncated", id="cut-in-the-names"),
            pytest.param(lambda good: good[:-8], "truncated", id="8-bytes-short"),
            pytest.param(lambda good: good + b"\0\0", "trailing bytes", id="2-trailing-bytes"),
            pytest.param(lambda good: good[:30] + b"\xff" + good[31:], "bad name", id="not-utf8"),
            pytest.param(lambda good: good[:30] + b"<" + good[31:], "bad name", id="bad-iri"),
        ],
    )
    def test_damaged_file_rejected(self, damage, match, tmp_path):
        model = train(ff.kinship_triples(n_families=1), TrainConfig(dimension=4, epochs=1))
        good, path = tmp_path / "model.bin", tmp_path / "damaged.bin"
        save_model(model, good)
        path.write_bytes(damage(good.read_bytes()))
        with pytest.raises(CompletionError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_model(path)

    def test_tsv_loader(self, tmp_path):
        path = tmp_path / "triples.tsv"
        path.write_text("a\tr1\tb\nb\tr2\tc c\n\n", encoding="utf-8")
        triples = load_tsv(path)
        assert len(triples) == 2
        assert triples[1].object == Term.iri("c_c")
        for text, line, message in (
            ("a\tb\n", 1, "expected 3 tab-separated columns, got 2"),
            ("a\tr\tb\n\nx<y\tr\tz\n", 3, "invalid IRI 'x<y'"),
            ("a\tr\tb\na\t\tb\n", 2, "invalid IRI ''"),
            ("a\tr\tb\tc\n", 1, "expected 3 tab-separated columns, got 4"),
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(CompletionError) as err:
                load_tsv(path)
            assert str(err.value) == f"{path}:{line}: {message}"
