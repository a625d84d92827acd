"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import generate as gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping) and [8, 12]
    # (clipped to 10); the grandchild [4, 5] sits inside the second child.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 6.0, 0, 0],
        ["c", 4.0, 5.0, 2, 0],
        ["a", 8.0, 12.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 2, 2, 3, 1, 4])
    summary = tracing.summarize(spans)
    assert summary["a"] == pytest.approx({"calls": 2, "total_s": 6.0, "self_s": 6.0})
    assert summary["root"]["self_s"] == pytest.approx(3.0)


def test_summary_counts_nested_same_name_spans_once_and_splits_passes():
    spans = [
        ["model.scan", 0.0, 4.0, -1, 0],
        ["model.scan", 1.0, 3.0, 0, 0],
        ["model.scan", 5.0, 6.0, -1, 1],
    ]
    assert tracing.summarize(spans, 0)["model.scan"] == pytest.approx(
        {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    )
    assert tracing.summarize(spans, 1)["model.scan"]["total_s"] == pytest.approx(1.0)


def _nt(triples: list[tuple[str, str, str]]) -> str:
    return "".join(f"<{s}> <{p}> <{o}> .\n" for s, p, o in triples)


def test_focus_accuracy_on_hand_built_ontology(tmp_path):
    biz = gen.prop("businessFocus")
    first = gen.assigned_count(500) + 1  # C071, the first unassigned company
    right = [(gen.company(i), biz, gen.focus(gen.true_focus(i))) for i in range(first, first + 5)]
    wrong = [(gen.company(first + 5), biz, gen.focus(gen.true_focus(first + 6)))]
    doubled = [
        (gen.company(first + 6), biz, gen.focus(gen.true_focus(first + 6))),
        (gen.company(first + 6), biz, gen.focus(gen.true_focus(first + 7))),
    ]
    assigned = [(gen.company(1), biz, gen.focus(gen.true_focus(1)))]  # not scored
    path = tmp_path / "ontology.nt"
    path.write_text(
        _nt(right + wrong + doubled + assigned) + f'<{gen.company(1)}> <{gen.prop("rank")}> "1" .\n',
        encoding="utf-8",
    )
    triples = workloads.read_ntriples(path)
    assert workloads.focus_accuracy(triples, 500) == pytest.approx(5 / 430)
    problems = workloads.pipeline_problems(triples, demo=False)
    assert len(problems) == 1 and "more than one businessFocus" in problems[0]


def test_demo_checks_flag_island_and_planted_errors():
    biz = gen.prop("businessFocus")
    triples = [
        (gen.company(42), biz, gen.focus("Energy")),
        (gen.MISC + "Idiom", gen.prop("operatesIn"), gen.MISC + "FigureOfSpeech"),
    ]
    problems = " | ".join(workloads.pipeline_problems(triples, demo=True))
    for expected in ("outside the domain vocabulary", "island", "C042", "C054"):
        assert expected in problems


def test_generator_is_deterministic(tmp_path):
    corpus = tmp_path / "corpus-12"
    gen.write_shared_corpus(corpus, 12)
    for name in ("a", "b"):
        gen.write_pipeline_inputs(tmp_path / name, 7, companies=600, band=40, corpus=corpus, epochs=10)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert "corpus_dir: ../corpus-12" in (tmp_path / "a" / "pipeline.yaml").read_text()
    assert len(list(corpus.iterdir())) == 12
    assert gen.kinship_split(7) == gen.kinship_split(7)
    records, _ = gen.fortune_records(7, companies=600, band=40)
    assert len(records) == 9 + 600 * 13 + gen.assigned_count(600) + 1 + 40 + 12 + 2


@pytest.mark.parametrize("seed", [42, 1])
def test_generator_reproduces_the_test_fixtures(tmp_path, seed):
    sys.path.insert(0, str(ROOT / "tests"))
    ff = pytest.importorskip("fixture_factory")
    ff.write_pipeline_fixture(tmp_path / "fixture", seed)
    gen.write_pipeline_inputs(tmp_path / "bench", seed)
    assert _tree(tmp_path / "bench") == _tree(tmp_path / "fixture")

    def plain(triples):
        return [(t.subject.value, t.predicate.value, t.object.value) for t in triples]

    assert tuple(map(list, gen.kinship_split(seed))) == tuple(map(plain, ff.kinship_split(seed)))


def test_tracer_patches_every_lookup_and_restores_it():
    from ontogen import completion, pipeline, rdf_io

    originals = (rdf_io.serialize_ntriples, pipeline.serialize_ntriples, completion._sample_negatives)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert pipeline.serialize_ntriples is rdf_io.serialize_ntriples is not originals[0]
        pipeline.serialize_ntriples([])
    finally:
        tracer.uninstall()
    assert (rdf_io.serialize_ntriples, pipeline.serialize_ntriples, completion._sample_negatives) == originals
    assert [s[0] for s in tracer.spans] == ["rdf_io.serialize_ntriples"]
    assert tracer.counters[0]["rdf_io.serialize_calls"] == 1


def test_missing_private_hook_is_reported_absent(monkeypatch):
    from ontogen import completion

    monkeypatch.delattr(completion, "_sample_negatives")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["ontogen.completion._sample_negatives"]


def test_contract_lists_exactly_the_metrics_the_benchmark_reports():
    import worker

    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    layers = set(worker.layer_metrics(tracing.Tracer(), 0, {})) | {"bench.trace_overhead_s", "bench.absent_hooks"}
    assert {m["name"] for m in contract["per_layer"]} == layers
    assert {m["name"] for m in contract["end_to_end"]} <= {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in contract["workloads"]} <= set(workloads.WORKLOADS)
