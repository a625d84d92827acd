"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fixture_factory as ff
from test_refinement import brute_force_lof
from ontogen import pipeline
from ontogen.completion import (
    EmbeddingModel,
    TrainConfig,
    evaluate,
    loss_and_gradient,
    score,
    train,
)
from ontogen.model import Term, Triple
from ontogen.refinement import lof_scores
from ontogen.rdf_io import parse_ntriples, serialize_ntriples
from ontogen.correction import CorrectionConfig, correct, detect_disjointness_violations
from ontogen.consistency import map_to_domain
from test_consistency import brute_force_offending_pairs


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def _random_model(rng, n_e, n_r, d) -> EmbeddingModel:
    ents = [Term.iri(f"urn:e{i}") for i in range(n_e)]
    rels = [Term.iri(f"urn:r{i}") for i in range(n_r)]
    return EmbeddingModel(
        rng.normal(0, 0.6, (n_e, d)),
        rng.normal(0, 0.6, (n_e, d)),
        rng.normal(0, 0.6, (n_r, d)),
        rng.normal(0, 0.6, (n_r, d)),
        {e: i for i, e in enumerate(ents)},
        {r: i for i, r in enumerate(rels)},
        d,
    )


def _direct_complex(m: EmbeddingModel, h: Term, r: Term, t: Term) -> float:
    hi, ri, ti = m.entity_index[h], m.relation_index[r], m.entity_index[t]
    total = 0 + 0j
    for i in range(m.dimension):
        total += (
            complex(m.relation_re[ri, i], m.relation_im[ri, i])
            * complex(m.entity_re[hi, i], m.entity_im[hi, i])
            * complex(m.entity_re[ti, i], m.entity_im[ti, i]).conjugate()
        )
    return total.real


def test_criterion_01_end_to_end_fixture(pipeline_run, fortune):
    with criterion(1, "end-to-end company fixture: island, corrections, focus coverage, 8 properties"):
        config, _ = pipeline_run
        out = Path(config.output_dir)

        refine_report = json.loads((out / "reports" / "refine.json").read_text())
        assert sorted(refine_report["disconnected_nodes"]) == sorted(
            n.value for n in fortune.island_nodes
        )
        refined, diags = parse_ntriples((out / "kg-refined.nt").read_bytes())
        assert not diags
        refined_set = set(refined)
        for t in fortune.island_triples:
            assert t not in refined_set

        corrected, diags = parse_ntriples((out / "kg-corrected.nt").read_bytes())
        assert not diags
        corrected_set = set(corrected)
        biz = ff.prop("businessFocus")
        for comp, (wrong, right) in fortune.planted_focus_errors.items():
            assert Triple(comp, biz, ff.focus_term(wrong)) not in corrected_set
            assert Triple(comp, biz, ff.focus_term(right)) in corrected_set

        completed, diags = parse_ntriples((out / "kg-completed.nt").read_bytes())
        assert not diags
        focus_of = {}
        for t in completed:
            if t.predicate == biz:
                focus_of.setdefault(t.subject, []).append(t.object)
        for c in fortune.unassigned:
            assert len(focus_of.get(c, [])) == 1, f"{c.value} not assigned exactly once"

        final, diags = parse_ntriples((out / "ontology.nt").read_bytes())
        assert not diags
        company_cls = ff.cls("Company")
        instances = {
            t.subject
            for t in final
            if t.predicate.value.endswith("#type") and t.object.value == company_cls
        }
        assert len(instances) == 500
        used = {
            t.predicate.value
            for t in final
            if t.subject in instances and not t.predicate.value.endswith("#type")
        }
        assert used == {ff.prop(p).value for p in ff.SHARED_PROPERTIES}
        map_report = json.loads((out / "reports" / "map.json").read_text())
        company_eps = next(
            e for e in map_report["per_concept"] if e["concept"] == company_cls
        )
        for gone in ("previousRank", "revenueChange", "profitChange"):
            assert ff.prop(gone).value in company_eps["offending_properties"]

        timing = json.loads((out / "timing.json").read_text())
        assert timing["total"] < 300.0


def test_criterion_02_score_oracle():
    with criterion(2, "score equals direct complex arithmetic on 1000 draws (1e-9)"):
        rng = np.random.default_rng(202)
        draws = 0
        while draws < 1000:
            m = _random_model(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 7)))
            ents, rels = list(m.entity_index), list(m.relation_index)
            for _ in range(10):
                h, t = ents[rng.integers(len(ents))], ents[rng.integers(len(ents))]
                r = rels[rng.integers(len(rels))]
                assert abs(score(m, h, r, t) - _direct_complex(m, h, r, t)) <= 1e-9
                draws += 1


def test_criterion_03_gradient_check():
    with criterion(3, "analytic gradients match central differences on 20 small models (<1e-4)"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            n_e = int(rng.integers(2, 11))
            m = _random_model(rng, n_e, int(rng.integers(1, 4)), d)
            cfg = TrainConfig(dimension=d, l2_lambda=float(rng.choice([0.0, 1e-3])))
            ents, rels = list(m.entity_index), list(m.relation_index)
            batch = [
                (
                    Triple(
                        ents[rng.integers(n_e)],
                        rels[rng.integers(len(rels))],
                        ents[rng.integers(n_e)],
                    ),
                    int(rng.choice([-1, 1])),
                )
                for _ in range(6)
            ]
            _, grads = loss_and_gradient(m, batch, cfg)
            step = 1e-5
            for name in ("entity_re", "entity_im", "relation_re", "relation_im"):
                arr = getattr(m, name)
                analytic = getattr(grads, name)
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        orig = arr[i, j]
                        arr[i, j] = orig + step
                        lp, _ = loss_and_gradient(m, batch, cfg)
                        arr[i, j] = orig - step
                        lm, _ = loss_and_gradient(m, batch, cfg)
                        arr[i, j] = orig
                        fd = (lp - lm) / (2 * step)
                        denom = max(abs(fd), abs(analytic[i, j]), 1e-8)
                        assert abs(fd - analytic[i, j]) / denom < 1e-4


def test_criterion_04_symmetry_controls():
    with criterion(4, "all-real relations score symmetrically (1e-12); d=1 imaginary case is -1/+1"):
        rng = np.random.default_rng(404)
        draws = 0
        while draws < 1000:
            m = _random_model(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(1, 7)))
            m.relation_im[:] = 0.0
            ents, rels = list(m.entity_index), list(m.relation_index)
            for _ in range(10):
                h, t = ents[rng.integers(len(ents))], ents[rng.integers(len(ents))]
                r = rels[rng.integers(len(rels))]
                assert abs(score(m, h, r, t) - score(m, t, r, h)) <= 1e-12
                draws += 1

        a, b, r = Term.iri("urn:a"), Term.iri("urn:b"), Term.iri("urn:r")
        m = EmbeddingModel(
            np.array([[0.0], [1.0]]),
            np.array([[1.0], [0.0]]),
            np.array([[0.0]]),
            np.array([[1.0]]),
            {a: 0, b: 1},
            {r: 0},
            1,
        )
        assert score(m, a, r, b) == pytest.approx(-1.0, abs=1e-12)
        assert score(m, b, r, a) == pytest.approx(1.0, abs=1e-12)


def test_criterion_05_toy_link_prediction():
    with criterion(5, "kinship fixture: Hits@10>=0.8, MRR>=0.4, direction controls"):
        started = time.perf_counter()
        all_triples, train_set, test_set = ff.kinship_split(seed=42)
        entities = {t.subject for t in all_triples} | {t.object for t in all_triples}
        assert 40 <= len(entities) <= 60
        assert len({t.predicate for t in all_triples}) == 4

        model = train(train_set, TrainConfig())
        metrics = evaluate(model, test_set, all_triples)
        assert metrics.hits[10] >= 0.8, metrics
        assert metrics.mrr >= 0.4, metrics

        parent = ff.kin_relation("parentOf")
        pairs = [t for t in test_set if t.predicate == parent]

        def direction_preference(m):
            vals = []
            for t in pairs:
                fwd = score(m, t.subject, parent, t.object)
                rev = score(m, t.object, parent, t.subject)
                vals.append(1.0 if fwd > rev else 0.5 if fwd == rev else 0.0)
            return sum(vals) / len(vals)

        assert direction_preference(model) >= 0.8

        control = train(train_set, TrainConfig(real_relations=True))
        control_pref = direction_preference(control)
        assert 0.4 <= control_pref <= 0.6  # chance +/- 10% under exact ties

        assert time.perf_counter() - started < 120.0


def test_criterion_06_lof_oracle():
    with criterion(6, "LOF equals the O(n^2) brute force on 100 instances (1e-9); hypercube median"):
        started = time.perf_counter()
        rng = np.random.default_rng(606)
        ks = [3, 5, 10]
        for i in range(100):
            k = ks[i % 3]
            n = int(rng.integers(k + 2, 201))
            dim = int(rng.integers(1, 5))
            pts = rng.uniform(-5, 5, (n, dim))
            if rng.random() < 0.3:  # inject duplicates to stress degeneracies
                dup = int(rng.integers(1, max(2, n // 4)))
                pts[:dup] = pts[dup : 2 * dup] if 2 * dup <= n else pts[0]
            got = lof_scores(pts, k)
            want = brute_force_lof(pts.tolist(), k)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)

        pts = np.random.default_rng(42).uniform(0, 1, (500, 3))
        med = float(np.median(lof_scores(pts, 10)))
        assert 0.8 <= med <= 1.2
        assert time.perf_counter() - started < 60.0


def test_criterion_07_correction_soundness(reference_schema):
    with criterion(7, "50 planted-violation fixtures: recall 100%, zero false positives, idempotent"):
        started = time.perf_counter()
        for seed in range(50):
            kg, planted = ff.correction_fixture(seed)
            planted_set = set(planted)
            assert len(kg.data_statements) - len(planted_set) >= 500
            assert 1 <= len(planted_set) <= 20

            violations = detect_disjointness_violations(kg, reference_schema)
            detected = {v.evidence.property_triple for v in violations}
            assert detected == planted_set  # full recall, nothing else

            corrected, report = correct(kg, reference_schema, CorrectionConfig())
            assert set(report.deleted) == planted_set
            clean = {st.triple for st in kg.data_statements} - planted_set
            survived = {st.triple for st in corrected.data_statements}
            assert clean <= survived  # zero false-positive removals

            twice, report2 = correct(corrected, reference_schema, CorrectionConfig())
            assert twice == corrected
            assert report2.deleted == [] and report2.replaced == []
        assert time.perf_counter() - started < 60.0


def test_criterion_08_consistency_accounting():
    with criterion(8, "epsilon equals brute-force offending pairs; vocabulary closure; idempotence"):
        for seed in range(20):
            okg, on = ff.consistency_fixture(seed)
            final, report = map_to_domain(okg, on)
            assert report.epsilon_total == len(brute_force_offending_pairs(okg, on))
            declared = set(on.properties)
            for st in final.data_statements:
                assert st.triple.predicate.value in declared
            again, report2 = map_to_domain(final, on)
            assert again == final
            assert report2.removed_triples == []


def _random_term(rng) -> Term:
    kind = rng.integers(0, 4)
    if kind == 0:
        return Term.blank("b" + str(rng.integers(0, 50)))
    if kind == 1:
        value = "".join(rng.choice(list("abcxyz0123"), size=6))
        return Term.iri(f"http://example.org/{value}")
    chars = list("abc \t\"\\\né 日")
    value = "".join(rng.choice(chars, size=rng.integers(0, 8)))
    if kind == 2:
        return Term.literal(value, datatype="http://www.w3.org/2001/XMLSchema#string") \
            if rng.random() < 0.3 else Term.literal(value)
    return Term.literal(value, language=str(rng.choice(["en", "de", "en-GB"])))


def test_criterion_09_parser_round_trip():
    with criterion(9, "1000 random round trips, deterministic serializer, 10k-line fuzz"):
        started = time.perf_counter()
        rng = np.random.default_rng(909)
        for _ in range(1000):
            n = int(rng.integers(0, 12))
            ts = set()
            for _ in range(n):
                subject = _random_term(rng)
                while subject.is_literal:
                    subject = _random_term(rng)
                predicate = Term.iri(f"http://example.org/p{rng.integers(0, 9)}")
                ts.add(Triple(subject, predicate, _random_term(rng)))
            data = serialize_ntriples(ts)
            parsed, diags = parse_ntriples(data)
            assert not diags
            assert set(parsed) == ts
            shuffled = sorted(ts, key=lambda t: hash(t))
            assert serialize_ntriples(shuffled) == data

        fuzz_rng = np.random.default_rng(910)
        alphabet = list("<>\"\\ ._:#@^abc \té {}|")
        lines = []
        for _ in range(10_000):
            lines.append("".join(fuzz_rng.choice(alphabet, size=fuzz_rng.integers(0, 30))))
        parsed, diags = parse_ntriples("\n".join(lines).encode("utf-8"))
        assert len(diags) > 0
        assert isinstance(parsed, list)
        assert time.perf_counter() - started < 60.0


def test_criterion_10_cleaning_thresholds():
    with criterion(10, "corpus precision/recall >= 0.9 against hand labels; zero tag residue"):
        import re

        from ontogen.cleaning import RawDocument, clean

        labels = json.loads((ff.CORPUS_DIR / "labels.json").read_text())
        residue = re.compile(r"<[A-Za-z]")
        tp = fp = fn = 0
        for name, expected in labels.items():
            result = clean(RawDocument.from_path(ff.CORPUS_DIR / name))
            got, want = set(result.sentences), set(expected)
            tp += len(got & want)
            fp += len(got - want)
            fn += len(want - got)
            for s in result.sentences:
                assert not residue.search(s)
        assert tp / (tp + fp) >= 0.9
        assert tp / (tp + fn) >= 0.9


def test_criterion_11_determinism(pipeline_config_path, tmp_path):
    with criterion(11, "two identical runs produce byte-identical ontologies and manifests"):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.output_dir = tmp_path / "det-out"

        pipeline.run(config)
        first_ontology = (config.output_dir / "ontology.nt").read_bytes()
        first_manifest = (config.output_dir / "manifest.json").read_bytes()

        pipeline.run(config)
        assert (config.output_dir / "ontology.nt").read_bytes() == first_ontology
        assert (config.output_dir / "manifest.json").read_bytes() == first_manifest
        assert len(first_ontology) > 0


#: the least share of the 430 unassigned demo companies whose one predicted
#: business focus must be the true one, on every seed; measured 430, 430,
#: 420 and 430 of 430 on seeds 42, 1, 2 and 3
FOCUS_ACCURACY_BOUND = 0.95


@pytest.mark.parametrize("seed", [42, 1, 2, 3])
def test_criterion_12_focus_accuracy_on_every_seed(seed, request, tmp_path):
    with criterion(12, f"demo business-focus accuracy >= {FOCUS_ACCURACY_BOUND} (seed {seed})"):
        if seed == 42:
            config, _ = request.getfixturevalue("pipeline_run")
        else:
            config = pipeline.PipelineConfig.from_file(ff.write_pipeline_fixture(tmp_path, seed))
            pipeline.run(config)
        final, _ = parse_ntriples((Path(config.output_dir) / "ontology.nt").read_bytes())
        biz = ff.prop("businessFocus")
        focus_of: dict = {}
        for t in final:
            if t.predicate == biz:
                focus_of.setdefault(t.subject, []).append(t.object)
        unassigned = range(71, 501)  # the same companies on every seed
        right = sum(
            focus_of.get(ff.company(i)) == [ff.focus_term(ff.true_focus(i))] for i in unassigned
        )
        assert right / len(unassigned) >= FOCUS_ACCURACY_BOUND
