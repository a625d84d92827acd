import argparse
import inspect
import json
import os
import shutil
import time
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import fixture_factory as ff
from ontogen import cleaning, completion, correction, pipeline, refinement
from ontogen.cli import build_parser, main as cli_main
from ontogen.completion import TrainConfig
from ontogen.model import KnowledgeGraph, Term, Triple
from ontogen.refinement import RefineConfig
from ontogen.rdf_io import parse_ntriples, render_triple


def _run_with(src: Path, tmp: Path, key: str, value) -> list[str]:
    """`run` argv for a copy of the demo config with `key` set to `value`,
    merged into the section when both are mappings; output under `tmp/out`."""
    raw = yaml.safe_load((src / "pipeline.yaml").read_text("utf-8"))
    for k in ("corpus_dir", "scored_triples", "reference_axioms", "reference_facts",
              "domain_ontology"):
        raw[k] = str(src / raw[k])
    raw["output_dir"] = str(tmp / "out")
    section = raw.get(key) or {}
    raw[key] = {**section, **value} if isinstance(value, dict) else value
    path = tmp / "pipeline.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return ["run", "--config", str(path)]


def _kinship_nt(tmp: Path) -> str:
    from ontogen.rdf_io import serialize_ntriples

    path = tmp / "kinship.nt"
    path.write_bytes(serialize_ntriples(ff.kinship_triples(n_families=1)))
    return str(path)


FOCUS = ff.PROP + "businessFocus"
MARRIED = ff.kin_relation("marriedTo").value

# each case: the section its diagnostic must name, and argv from the demo
# fixture directory and a scratch directory
MALFORMED_SETTINGS = [
    pytest.param("seed", lambda src, tmp: _run_with(src, tmp, "seed", "abc"), id="seed-string"),
    pytest.param("complete", lambda src, tmp: _run_with(src, tmp, "complete", {"threshold": "abc"}),
                 id="threshold-string"),
    pytest.param("refine", lambda src, tmp: _run_with(src, tmp, "refine", [1, 2]), id="refine-list"),
    pytest.param("complete",
                 lambda src, tmp: _run_with(src, tmp, "complete", {"predict_relations": None}),
                 id="predict-relations-null"),
    pytest.param("complete",
                 lambda src, tmp: _run_with(src, tmp, "complete", {"predict_relations": FOCUS}),
                 id="predict-relations-scalar"),
    pytest.param("correct", lambda src, tmp: _run_with(src, tmp, "correct", {"functional": FOCUS}),
                 id="functional-scalar"),
    pytest.param("clean", lambda src, tmp: _run_with(src, tmp, "clean", {"denylist": "ads"}),
                 id="denylist-scalar"),
    pytest.param("refine", lambda src, tmp: [
        "refine", "--in", str(src / "triples.jsonl"), "--out", str(tmp / "out" / "kg.nt"),
        "--report", str(tmp / "out" / "refine.json"), "--low", "0.7", "--high", "0.5",
    ], id="refine-flags-low-above-high"),
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--dim", "0", "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-dim-0"),
    # a flag value of the wrong type is the same failure as one out of range
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--dim", "abc", "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-int-abc"),
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--lr", "fast", "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-float-fast"),
    pytest.param("refine", lambda src, tmp: [
        "refine", "--in", str(src / "triples.jsonl"), "--out", str(tmp / "out" / "kg.nt"),
        "--report", str(tmp / "out" / "refine.json"), "--lof-k", "2.5",
    ], id="refine-flag-int-2.5"),
    pytest.param("complete", lambda src, tmp: _run_with(src, tmp, "complete", {"holdout": 1.5}),
                 id="holdout-above-range"),
    pytest.param("complete", lambda src, tmp: _run_with(src, tmp, "complete", {"holdout": -0.1}),
                 id="holdout-negative"),
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--holdout", "1.5",
        "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-holdout-1.5"),
    pytest.param("complete", lambda src, tmp: _run_with(src, tmp, "complete", {
        "predict_relations": ["http://example.org/not an iri"]}), id="predict-relations-bad-iri"),
    pytest.param("clean", lambda src, tmp: _run_with(src, tmp, "clean", {"format": "pdf"}),
                 id="clean-format-pdf"),
    pytest.param("clean", lambda src, tmp: [
        "clean", "--in", str(src / "corpus"), "--out", str(tmp / "out" / "cleaned"),
        "--format", "pdf",
    ], id="clean-flag-format-pdf"),
    pytest.param("clean", lambda src, tmp: _run_with(src, tmp, "clean", {"format": 3}),
                 id="clean-format-int"),
    pytest.param("complete", lambda src, tmp: _run_with(src, tmp, "complete", {"top_k": 1.5}),
                 id="top-k-float"),
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--top-k", "abc", "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-top-k-abc"),
    pytest.param("complete", lambda src, tmp: [
        "complete", "--in", _kinship_nt(tmp), "--top-k", "0", "--out", str(tmp / "out" / "kg.nt"),
    ], id="complete-flag-top-k-0"),
]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def read_graph_triples(path: Path) -> set[Triple]:
    triples, diags = parse_ntriples(path.read_bytes())
    assert not diags
    return set(triples)


class TestValidate:
    def test_valid_fixture_config(self, pipeline_config_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        assert pipeline.validate(config) == []

    def test_threshold_ordering_diagnostic(self, pipeline_config_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.refine_options = {"low_threshold": 0.7, "band_upper": 0.5}
        diagnostics = pipeline.validate(config)
        assert len(diagnostics) == 1
        assert "refine" in diagnostics[0]

    def test_unknown_complete_option_diagnostic(self, pipeline_config_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.train_options = {"loss": "margin"}
        diagnostics = pipeline.validate(config)
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("complete:") and "loss" in diagnostics[0]

    def test_removed_refine_option_diagnostic(self, pipeline_config_path, tmp_path):
        # pruning always runs, so refine has no prune_disconnected switch
        raw = yaml.safe_load(pipeline_config_path.read_text("utf-8"))
        for key in ("corpus_dir", "scored_triples", "reference_axioms", "reference_facts",
                    "domain_ontology"):
            raw[key] = str(pipeline_config_path.parent / raw[key])
        raw["refine"] = {"prune_disconnected": False}
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        diagnostics = pipeline.validate(pipeline.PipelineConfig.from_file(path))
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("refine:") and "prune_disconnected" in diagnostics[0]

    def test_missing_axiom_file_named(self, pipeline_config_path, tmp_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.reference_axioms = tmp_path / "gone.ttl"
        diagnostics = pipeline.validate(config)
        assert any("gone.ttl" in d for d in diagnostics)

    def test_run_refuses_invalid_config(self, pipeline_config_path, tmp_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.scored_triples = tmp_path / "missing.jsonl"
        with pytest.raises(pipeline.ValidationError):
            pipeline.run(config)


class TestIngestFixture:
    def test_bundled_fixture_yields_at_least_770_data_statements(self, fortune):
        kg = ff.fortune_kg(fortune)
        assert len(kg.data_statements) >= 770
        # 70 assigned companies x 11 table properties at minimum
        assert len(fortune.records) >= 770

    def test_dot_node_count_matches_distinct_terms(self, fortune):
        from ontogen.rdf_io import export_dot

        kg = ff.fortune_kg(fortune)
        distinct = {t.subject for t in kg.triples()} | {t.object for t in kg.triples()}
        dot = export_dot(kg).decode()
        node_lines = [l for l in dot.splitlines() if l.startswith("  n") and "->" not in l]
        assert len(node_lines) == len(distinct)


class TestRunArtifacts:
    def test_artifacts_exist(self, pipeline_run):
        config, result = pipeline_run
        out = Path(config.output_dir)
        for name in ("kg-raw.nt", "kg-refined.nt", "kg-corrected.nt", "kg-completed.nt", "ontology.nt"):
            assert (out / name).is_file(), name
        assert (out / "cleaned").is_dir()
        assert (out / "manifest.json").is_file()
        assert (out / "timing.json").is_file()
        for phase in pipeline.PHASES:
            assert (out / "reports" / f"{phase}.json").is_file()

    def test_timing_holds_each_phase_and_total(self, pipeline_run):
        config, _ = pipeline_run
        timing = json.loads((Path(config.output_dir) / "timing.json").read_text())
        assert set(timing) == set(pipeline.PHASES) | {"total"}
        assert all(isinstance(v, float) and v >= 0 and v == round(v, 6) for v in timing.values())
        # clean runs beside the graph phases, which run one after another
        graph = sum(timing[phase] for phase in pipeline.PHASES if phase != "clean")
        assert timing["total"] >= graph - 1e-5
        assert timing["total"] >= timing["clean"]

    def test_monotone_counts_until_completion(self, pipeline_run):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        raw = len(read_graph_triples(out / "kg-raw.nt"))
        refined = len(read_graph_triples(out / "kg-refined.nt"))
        corrected = len(read_graph_triples(out / "kg-corrected.nt"))
        completed = len(read_graph_triples(out / "kg-completed.nt"))
        final = len(read_graph_triples(out / "ontology.nt"))
        assert raw >= refined >= corrected
        assert completed >= corrected  # the only generative phase
        assert final <= completed

    def test_island_removed(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        refined = read_graph_triples(out / "kg-refined.nt")
        for t in fortune.island_triples:
            assert t not in refined
        report = json.loads((out / "reports" / "refine.json").read_text())
        assert sorted(report["disconnected_nodes"]) == sorted(
            n.value for n in fortune.island_nodes
        )

    def test_noise_removed_by_threshold(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        report = json.loads((out / "reports" / "refine.json").read_text())
        removed = set(report["removed_by_threshold"])
        assert {render_triple(t) for t in fortune.noise_triples} <= removed

    def test_band_survives_lof(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        refined = read_graph_triples(out / "kg-refined.nt")
        assert {t for t in fortune.band_triples} <= refined

    def test_implausible_link_removed(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        report = json.loads((out / "reports" / "refine.json").read_text())
        flagged = {entry["triple"] for entry in report["removed_implausible"]}
        assert render_triple(fortune.implausible_triple) in flagged

    def test_planted_errors_corrected(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        corrected = read_graph_triples(out / "kg-corrected.nt")
        biz = ff.prop("businessFocus")
        for comp, (wrong, right) in fortune.planted_focus_errors.items():
            assert Triple(comp, biz, ff.focus_term(wrong)) not in corrected
            assert Triple(comp, biz, ff.focus_term(right)) in corrected
        report = json.loads((out / "reports" / "correct.json").read_text())
        assert len(report["replaced"]) == 2
        assert all(v["kind"] == "reference-conflict" for v in report["violations"])

    def test_all_unassigned_companies_get_a_focus(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        completed = read_graph_triples(out / "kg-completed.nt")
        biz = ff.prop("businessFocus")
        by_subject = {}
        for t in completed:
            if t.predicate == biz:
                by_subject.setdefault(t.subject, []).append(t.object)
        for c in fortune.unassigned:
            assert len(by_subject.get(c, [])) == 1
        report = json.loads((out / "reports" / "complete.json").read_text())
        assert report["predicted_count"] == len(fortune.unassigned)
        # the 70 pre-assigned statements are untouched
        for c in fortune.assigned:
            assert len(by_subject[c]) == 1

    def test_agreement_reported_high(self, pipeline_run):
        config, _ = pipeline_run
        report = json.loads(
            (Path(config.output_dir) / "reports" / "complete.json").read_text()
        )
        rate = report["agreement"][ff.prop("businessFocus").value]
        assert rate is not None and rate >= 0.9

    def test_final_ontology_company_properties(self, pipeline_run):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        final = read_graph_triples(out / "ontology.nt")
        company_cls = ff.cls("Company")
        instances = {
            t.subject for t in final
            if t.predicate.value.endswith("#type") and t.object.value == company_cls
        }
        assert len(instances) == 500
        used = {
            t.predicate.value for t in final
            if t.subject in instances and not t.predicate.value.endswith("#type")
        }
        assert used == {ff.prop(p).value for p in ff.SHARED_PROPERTIES}

    def test_traceability(self, pipeline_run, fortune):
        config, _ = pipeline_run
        out = Path(config.output_dir)
        final = read_graph_triples(out / "ontology.nt")
        ingested = read_graph_triples(out / "kg-raw.nt")
        complete_report = json.loads((out / "reports" / "complete.json").read_text())
        predicted = set()
        for entry in complete_report["predictions"]:
            t, diags = parse_ntriples(entry["triple"].encode())
            assert not diags
            predicted.add(t[0])
        correct_report = json.loads((out / "reports" / "correct.json").read_text())
        replacements = set()
        for entry in correct_report["replaced"]:
            t, _ = parse_ntriples(entry["new"].encode())
            replacements.add(t[0])
        assert final <= ingested | predicted | replacements

    def test_manifest_contents(self, pipeline_run):
        config, result = pipeline_run
        manifest = json.loads((Path(config.output_dir) / "manifest.json").read_text())
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["seed"] == 42
        assert set(manifest["phases"]) == set(pipeline.PHASES)
        assert manifest == result.manifest

    def test_config_hash_ignores_how_a_value_is_spelled(self, pipeline_config_path):
        # a set key's order and repeats, an integer for a number key, and
        # a default written out configure the same run
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        respelled = pipeline.PipelineConfig.from_file(pipeline_config_path)
        config.train_options |= {"threshold": 1.0, "predict_relations": [FOCUS, MARRIED]}
        config.train_options.pop("top_k", None)
        respelled.train_options |= {"threshold": 1, "predict_relations": [MARRIED, FOCUS, FOCUS],
                                    "top_k": TrainConfig.top_k}
        assert respelled.config_hash() == config.config_hash()
        respelled.train_options["threshold"] = 2
        assert respelled.config_hash() != config.config_hash()

    def test_config_hash_ignores_the_output_dir(self, pipeline_config_path, tmp_path):
        config = pipeline.PipelineConfig.from_file(pipeline_config_path)
        before = config.config_hash()
        config.output_dir = tmp_path / "elsewhere"
        assert config.config_hash() == before


class TestEmptyInputs:
    def test_empty_corpus_and_triples(self, tmp_path):
        (tmp_path / "triples.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "axioms.ttl").write_text(ff.reference_axioms_turtle(), encoding="utf-8")
        (tmp_path / "domain.ttl").write_text(ff.domain_ontology_turtle(), encoding="utf-8")
        (tmp_path / "corpus").mkdir()
        config = pipeline.PipelineConfig(
            scored_triples=tmp_path / "triples.jsonl",
            reference_axioms=tmp_path / "axioms.ttl",
            domain_ontology=tmp_path / "domain.ttl",
            output_dir=tmp_path / "out",
            corpus_dir=tmp_path / "corpus",
        )
        result = pipeline.run(config)
        assert (tmp_path / "out" / "ontology.nt").read_bytes() == b""
        assert result.manifest["phases"]["ingest"]["statements"] == 0
        assert result.manifest["phases"]["map"]["retained"] == 0


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children `os.fork` starts during the test."""
    pids: list[int] = []
    fork = os.fork

    def spy() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def _assert_reaped(pids: list[int]) -> None:
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)


def _demo_copy(src: Path, tmp: Path) -> pipeline.PipelineConfig:
    """The demo config over a copy of its inputs in `tmp/work`, trained
    for one epoch, output under `tmp/out`."""
    work = tmp / "work"
    shutil.copytree(src, work, ignore=shutil.ignore_patterns("out"))
    config = pipeline.PipelineConfig.from_file(work / "pipeline.yaml")
    config.train_options = {**config.train_options, "epochs": 1}
    config.output_dir = tmp / "out"
    return config


class TestForkedClean:
    def test_clean_failure_is_raised_and_writes_no_manifest(self, tmp_path, pipeline_fixture_dir,
                                                            forked):
        config = _demo_copy(pipeline_fixture_dir, tmp_path)
        (config.corpus_dir / "broken.txt").write_bytes(b"caf\xe9 \xff\xfe\n")
        with pytest.raises(pipeline.PhaseError) as caught:
            pipeline.run(config)
        assert caught.value.phase == "clean"
        assert isinstance(caught.value.cause, cleaning.CleanError)
        assert "broken.txt" in str(caught.value.cause)
        assert not (tmp_path / "out" / "manifest.json").exists()
        _assert_reaped(forked)

    def test_graph_failure_waits_for_the_whole_clean(self, tmp_path, pipeline_fixture_dir, forked):
        config = _demo_copy(pipeline_fixture_dir, tmp_path)
        config.reference_facts.write_text("garbage here\n", encoding="utf-8")
        with pytest.raises(pipeline.PhaseError) as caught:
            pipeline.run(config)
        assert caught.value.phase == "correct"
        _assert_reaped(forked)
        expected = tmp_path / "expected"
        cleaning.clean_directory(config.corpus_dir, expected, config.phase_configs()["clean"])
        for name in ("sentences.jsonl", "summary.json"):
            got = (tmp_path / "out" / pipeline.ARTIFACTS["clean"] / name).read_bytes()
            assert got == (expected / name).read_bytes()

    def test_clean_child_exit_status_is_reported(self, tmp_path, pipeline_fixture_dir, forked,
                                                 monkeypatch):
        config = _demo_copy(pipeline_fixture_dir, tmp_path)
        monkeypatch.setattr(pipeline, "clean_phase", lambda *args: os._exit(3))
        with pytest.raises(pipeline.PhaseError) as caught:
            pipeline.run(config)
        assert caught.value.phase == "clean"
        assert "status 3" in str(caught.value.cause)
        _assert_reaped(forked)

    def test_clean_failure_comes_before_a_graph_failure(self, tmp_path, pipeline_fixture_dir,
                                                        forked, monkeypatch):
        config = _demo_copy(pipeline_fixture_dir, tmp_path)
        config.reference_facts.write_text("garbage here\n", encoding="utf-8")
        monkeypatch.setattr(pipeline, "clean_phase", lambda *args: os._exit(3))
        with pytest.raises(pipeline.PhaseError) as caught:
            pipeline.run(config)
        assert caught.value.phase == "clean"
        _assert_reaped(forked)

    def test_interrupt_stops_the_clean_child(self, tmp_path, pipeline_fixture_dir, forked,
                                             monkeypatch):
        config = _demo_copy(pipeline_fixture_dir, tmp_path)
        monkeypatch.setattr(pipeline, "clean_phase", lambda *args: time.sleep(60))

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "ingest_phase", interrupted)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            pipeline.run(config)
        assert time.perf_counter() - t0 < 30
        _assert_reaped(forked)

    def test_a_result_larger_than_the_pipe_buffer_is_collected(self, forked):
        big = "x" * (1 << 20)
        value, seconds = pipeline._join("clean", *pipeline._fork(lambda: big))
        assert value == big and seconds >= 0
        _assert_reaped(forked)


class TestRunHoldout:
    def test_run_scores_configured_holdout(self, tmp_path):
        records = [
            {"s": t.subject.value, "p": t.predicate.value, "o": t.object.value,
             "o_kind": "iri", "conf": 0.95}
            for t in ff.kinship_triples()
        ]
        (tmp_path / "triples.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        (tmp_path / "axioms.ttl").write_text(ff.reference_axioms_turtle(), encoding="utf-8")
        (tmp_path / "domain.ttl").write_text(ff.domain_ontology_turtle(), encoding="utf-8")
        (tmp_path / "pipeline.yaml").write_text(
            yaml.safe_dump({"complete": {"dimension": 10, "epochs": 20, "holdout": 0.2}}),
            encoding="utf-8",
        )
        pipeline.run(pipeline.PipelineConfig.from_file(tmp_path / "pipeline.yaml"))
        report = json.loads((tmp_path / "out" / "reports" / "complete.json").read_text())
        assert report["holdout"]["evaluated"] > 0
        assert 0.0 <= report["holdout"]["mrr"] <= 1.0
        assert report["predicted_count"] == 0


def _kinship_with_small_band():
    """Kinship triples at 0.95 plus three borderline statements: a band no
    larger than the default lof_k of 5."""
    kg = KnowledgeGraph()
    for t in ff.kinship_triples():
        kg.add_triple(t, 0.95)
    band = [
        Triple(Term.iri(f"http://example.org/b{i}"), Term.iri("http://example.org/near"),
               Term.iri(f"http://example.org/b{i + 1}"))
        for i in range(3)
    ]
    for t in band:
        kg.add_triple(t, 0.4)
    return kg


class TestRefinePhase:
    SKIPPED = "band of 3 statements <= lof_k=5; LOF skipped"

    def test_small_band_note(self):
        _, report = pipeline.refine_phase(_kinship_with_small_band(), None, RefineConfig())
        assert report["notes"] == [self.SKIPPED]
        assert report["removed_by_lof"] == []

    def test_small_band_note_reaches_the_run_report(self, tmp_path):
        records = [
            {"s": st.triple.subject.value, "p": st.triple.predicate.value,
             "o": st.triple.object.value, "o_kind": "iri", "conf": st.confidence}
            for st in _kinship_with_small_band().statements()
        ]
        (tmp_path / "triples.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        (tmp_path / "axioms.ttl").write_text(ff.reference_axioms_turtle(), encoding="utf-8")
        (tmp_path / "domain.ttl").write_text(ff.domain_ontology_turtle(), encoding="utf-8")
        (tmp_path / "pipeline.yaml").write_text(
            yaml.safe_dump({"complete": {"dimension": 4, "epochs": 2}}), encoding="utf-8"
        )
        pipeline.run(pipeline.PipelineConfig.from_file(tmp_path / "pipeline.yaml"))
        report = json.loads((tmp_path / "out" / "reports" / "refine.json").read_text())
        assert self.SKIPPED in report["notes"]


class TestCorrectPhase:
    def test_reference_schema_is_left_as_given(self, pipeline_fixture_dir):
        facts = pipeline_fixture_dir / "reference_facts.nt"
        assert read_graph_triples(facts)
        reference = pipeline.load_ontology(pipeline_fixture_dir / "reference_axioms.ttl")
        before = set(reference.facts)
        pipeline.correct_phase(KnowledgeGraph(), reference, correction.CorrectionConfig(), facts)
        assert reference.facts == before


class TestCompletePhase:
    def test_report_counts_the_training_split_and_keeps_the_loss_curve(self):
        kg = KnowledgeGraph()
        for t in ff.kinship_triples():
            kg.add_triple(t, 0.9)
        _, report = pipeline.complete_phase(kg, TrainConfig(dimension=4, epochs=3, holdout=0.2))
        assert report["trained_on"] == 160
        assert len(report["loss_history"]) == 3
        assert report["loss_history"][-1] == report["final_loss"]

    def test_predictions_go_to_a_new_graph(self):
        kg = KnowledgeGraph()
        for t in ff.kinship_triples():
            kg.add_triple(t, 0.9)
        before = kg.statements()
        cfg = TrainConfig(dimension=4, epochs=3, predict_relations=frozenset({MARRIED}),
                          threshold=-1.0)
        out, report = pipeline.complete_phase(kg, cfg)
        assert report["predicted_count"] > 0
        assert kg.statements() == before
        assert len(out) == len(kg) + report["predicted_count"]

    def test_a_relation_listed_twice_is_predicted_once(self, tmp_path):
        kg = KnowledgeGraph()
        for t in ff.kinship_triples():
            kg.add_triple(t, 0.9)
        reports = []
        for listed in ([MARRIED], [MARRIED, MARRIED]):
            (tmp_path / "pipeline.yaml").write_text(yaml.safe_dump({"complete": {
                "dimension": 4, "epochs": 3, "threshold": -1.0, "predict_relations": listed,
            }}), encoding="utf-8")
            config = pipeline.PipelineConfig.from_file(tmp_path / "pipeline.yaml")
            out, report = pipeline.complete_phase(kg, config.phase_configs()["complete"])
            assert len(out) == len(kg) + report["predicted_count"]
            reports.append(report)
        once, twice = reports
        assert twice["predicted_count"] == once["predicted_count"] > 0
        assert twice["predictions"] == once["predictions"]


class TestCli:
    def test_phase_subcommands_compose(self, tmp_path, pipeline_fixture_dir, pipeline_run):
        src = pipeline_fixture_dir
        out = tmp_path
        run_reports = Path(pipeline_run[0].output_dir) / "reports"

        def assert_run_schema(cli_report: Path, phase: str) -> None:
            run_report = json.loads((run_reports / f"{phase}.json").read_text())
            assert set(json.loads(cli_report.read_text())) == set(run_report)

        rc = cli_main(
            ["clean", "--in", str(src / "corpus"), "--out", str(out / "cleaned")]
        )
        assert rc == 0
        assert (out / "cleaned" / "summary.json").is_file()

        rc = cli_main(
            ["ingest", "--in", str(src / "triples.jsonl"), "--out", str(out / "raw.nt"),
             "--report", str(out / "ingest.json")]
        )
        assert rc == 0
        assert_run_schema(out / "ingest.json", "ingest")

        rc = cli_main(
            ["refine", "--in", str(src / "triples.jsonl"), "--schema", str(src / "reference_axioms.ttl"),
             "--out", str(out / "refined.nt"), "--report", str(out / "refine.json")]
        )
        assert rc == 0
        assert_run_schema(out / "refine.json", "refine")

        functional = out / "functional.txt"
        functional.write_text(ff.PROP + "businessFocus\n", encoding="utf-8")
        rc = cli_main(
            ["correct", "--in", str(out / "refined.nt"), "--axioms", str(src / "reference_axioms.ttl"),
             "--reference", str(src / "reference_facts.nt"), "--functional", str(functional),
             "--out", str(out / "corrected.nt"), "--report", str(out / "correct.json")]
        )
        assert rc == 0
        report = json.loads((out / "correct.json").read_text())
        assert len(report["replaced"]) == 2
        assert_run_schema(out / "correct.json", "correct")

        rels = out / "rels.txt"
        rels.write_text(ff.PROP + "businessFocus\n", encoding="utf-8")
        rc = cli_main(
            ["complete", "--in", str(out / "corrected.nt"),
             "--dim", "3", "--epochs", "40", "--batch-size", "512", "--seed", "42",
             "--predict-relations", str(rels), "--threshold", "0.05",
             "--out", str(out / "completed.nt"), "--metrics", str(out / "metrics.json"),
             "--model-out", str(out / "model.bin")]
        )
        assert rc == 0
        assert (out / "model.bin").stat().st_size > 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["predicted_count"] == 430
        assert_run_schema(out / "metrics.json", "complete")

        rc = cli_main(
            ["map", "--in", str(out / "completed.nt"), "--domain", str(src / "domain_ontology.ttl"),
             "--out", str(out / "ontology.nt"), "--report", str(out / "map.json")]
        )
        assert rc == 0
        assert json.loads((out / "map.json").read_text())["epsilon_total"] >= 3
        assert_run_schema(out / "map.json", "map")

    def test_complete_holdout_metrics(self, tmp_path, pipeline_fixture_dir):
        kg_path = tmp_path / "kg.nt"
        from ontogen.rdf_io import serialize_ntriples

        kg_path.write_bytes(serialize_ntriples(ff.kinship_triples()))
        rc = cli_main(
            ["complete", "--in", str(kg_path), "--dim", "20", "--epochs", "60",
             "--seed", "42", "--holdout", "0.2",
             "--out", str(tmp_path / "out.nt"), "--metrics", str(tmp_path / "m.json")]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert 0.0 <= metrics["holdout"]["mrr"] <= 1.0
        assert metrics["holdout"]["evaluated"] > 0

    def test_list_files_skip_indented_comments(self, tmp_path):
        # an indented "# note" is a comment, not a relation IRI
        from ontogen.rdf_io import serialize_ntriples

        kg_path = tmp_path / "kg.nt"
        kg_path.write_bytes(serialize_ntriples(ff.kinship_triples(n_families=1)))
        married = ff.kin_relation("marriedTo").value
        rels = tmp_path / "rels.txt"
        rels.write_text(f"  # relations to complete\n\n  {married}  \n", encoding="utf-8")
        rc = cli_main(
            ["complete", "--in", str(kg_path), "--dim", "4", "--epochs", "3",
             "--predict-relations", str(rels),
             "--out", str(tmp_path / "out.nt"), "--metrics", str(tmp_path / "m.json")]
        )
        assert rc == 0
        assert list(json.loads((tmp_path / "m.json").read_text())["agreement"]) == [married]

    def test_train_extra_joins_the_training_pool(self, tmp_path):
        kg_path = _kinship_nt(tmp_path)
        extra = tmp_path / "extra.tsv"
        extra.write_text(
            f"{ff.EX}x1\t{MARRIED}\t{ff.EX}x2\n{ff.EX}x2\t{MARRIED}\t{ff.EX}x1\n",
            encoding="utf-8",
        )
        pool = len(completion.training_triples(pipeline.read_graph(Path(kg_path))))
        for argv, size in (([], pool), (["--train-extra", str(extra)], pool + 2)):
            rc = cli_main(["complete", "--in", kg_path, *argv, "--dim", "4", "--epochs", "3",
                           "--holdout", "0.2", "--out", str(tmp_path / "o.nt"),
                           "--metrics", str(tmp_path / "m.json")])
            assert rc == 0
            report = json.loads((tmp_path / "m.json").read_text())
            assert report["trained_on"] == int(size * 0.8)

    def test_a_relation_listed_twice_in_a_file_is_predicted_once(self, tmp_path):
        kg_path = _kinship_nt(tmp_path)
        reports = []
        for lines in ([MARRIED], [MARRIED, MARRIED]):
            rels = tmp_path / "rels.txt"
            rels.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            rc = cli_main(["complete", "--in", kg_path, "--dim", "4", "--epochs", "3",
                           "--predict-relations", str(rels), "--threshold", "-1",
                           "--out", str(tmp_path / "o.nt"), "--metrics", str(tmp_path / "m.json")])
            assert rc == 0
            report = json.loads((tmp_path / "m.json").read_text())
            added = len(read_graph_triples(tmp_path / "o.nt") - read_graph_triples(Path(kg_path)))
            assert added == report["predicted_count"] > 0
            reports.append(report)
        assert reports[1]["predictions"] == reports[0]["predictions"]

    def test_run_and_report_subcommands(self, pipeline_config_path, pipeline_run, capsys):
        # reuse the session run's output directory
        config, _ = pipeline_run
        rc = cli_main(["report", "--run-dir", str(config.output_dir)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "seed 42" in printed
        timing = json.loads((Path(config.output_dir) / "timing.json").read_text())
        lines = printed.splitlines()
        for phase in pipeline.PHASES:
            [line] = [ln for ln in lines if ln.split()[0] == phase]
            assert f"{timing[phase]:.3f}s" in line
        assert any("clean ran beside the graph phases" in ln for ln in lines)

    def test_validation_exit_code(self, tmp_path, pipeline_config_path):
        raw = yaml.safe_load(pipeline_config_path.read_text())
        raw["scored_triples"] = "does-not-exist.jsonl"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert cli_main(["run", "--config", str(bad)]) == 1

    def test_phase_failure_exit_code(self, tmp_path, pipeline_fixture_dir):
        # syntactically broken axiom file passes existence checks but
        # cannot be parsed -> validation diagnostic -> exit 1; a bad
        # reference-facts file fails inside the correct phase -> exit 2
        src = pipeline_fixture_dir
        work = tmp_path / "work"
        shutil.copytree(src, work)
        (work / "reference_facts.nt").write_text("garbage here\n", encoding="utf-8")
        raw = yaml.safe_load((work / "pipeline.yaml").read_text())
        raw["output_dir"] = str(tmp_path / "out")
        cfg = work / "pipeline.yaml"
        cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert cli_main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("section, argv", MALFORMED_SETTINGS)
    def test_malformed_setting_is_a_validation_failure(
        self, section, argv, tmp_path, pipeline_fixture_dir, capsys
    ):
        assert cli_main(argv(pipeline_fixture_dir, tmp_path)) == 1
        diagnostics = capsys.readouterr().err.splitlines()
        assert any(d.startswith(f"invalid config: {section}") for d in diagnostics), diagnostics
        assert not (tmp_path / "out").exists()

    def test_flags_mirroring_a_setting_have_no_default_of_their_own(self):
        # a flag left out falls through to the config field's or
        # complete_phase's one default
        names = {
            f.name
            for cls in (pipeline.PipelineConfig, cleaning.CleanConfig, refinement.RefineConfig,
                        correction.CorrectionConfig, completion.TrainConfig)
            for f in fields(cls)
        } | set(inspect.signature(pipeline.complete_phase).parameters)
        mirrored = [
            (command, action.dest, action.default)
            for command, parser in _subcommands().items()
            for action in parser._actions
            if action.dest in names
        ]
        assert {"low_threshold", "dimension", "sim_threshold", "threshold"} <= {m[1] for m in mirrored}
        assert [m for m in mirrored if m[2] is not None] == []

    def test_every_setting_flag_is_a_field_of_its_section(self):
        # a flag that is no input or output path reaches the phase only
        # through `phase_config`, as the field of the same name
        paths = {"help", "in_dir", "out_dir", "in_file", "out", "report", "schema", "axioms",
                 "reference", "train_extra", "metrics", "model_out"}
        for command, (cls, _) in pipeline._SECTIONS.items():
            settings = {a.dest for a in _subcommands()[command]._actions} - paths
            assert settings and settings <= {f.name for f in fields(cls)}, command

    def test_missing_report_dir(self, tmp_path):
        assert cli_main(["report", "--run-dir", str(tmp_path)]) == 1
