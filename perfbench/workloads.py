"""The benchmark workloads: input generation, one timed pass, output checks.

A pass is what a user waits for: `pipeline.run` on a generated config for
the pipeline workloads, `completion.train` plus `completion.evaluate` for
kinship.  Checks and quality scores read the pass's outputs afterwards and
are not timed.  They parse N-Triples with their own reader, so a parser
defect in the program cannot hide an output defect.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import generate as gen

_NT_LINE = re.compile(r"^(<[^>]*>|_:\S+) <([^>]*)> (.+) \.$")
_SCHEMA_PREDICATES = {
    gen.RDF_TYPE,
    "http://www.w3.org/2000/01/rdf-schema#subClassOf",
    "http://www.w3.org/2000/01/rdf-schema#domain",
    "http://www.w3.org/2000/01/rdf-schema#range",
}
_BUSINESS_FOCUS = gen.prop("businessFocus")
_ISLAND = {gen.MISC + n for n in ("KickTheBucket", "Idiom", "FigureOfSpeech")}

PHASES = ("clean", "ingest", "refine", "correct", "complete", "map")

#: criterion 5 of the acceptance suite, applied to every kinship pass
KINSHIP_MIN_MRR = 0.4
KINSHIP_MIN_HITS10 = 0.8


def _strip(term: str) -> str:
    return term[1:-1] if term.startswith("<") and term.endswith(">") else term


def read_ntriples(path: Path) -> list[tuple[str, str, str]]:
    """(subject, predicate, object) per line; IRIs lose their brackets,
    literals keep their N-Triples form."""
    out = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        m = _NT_LINE.match(line)
        if m is None:
            raise ValueError(f"{path.name}:{lineno}: not an N-Triples statement")
        out.append((_strip(m.group(1)), m.group(2), _strip(m.group(3))))
    return out


def focus_by_company(triples: list[tuple[str, str, str]]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s, p, o in triples:
        if p == _BUSINESS_FOCUS:
            out.setdefault(s, []).append(o)
    return out


def focus_accuracy(triples: list[tuple[str, str, str]], companies: int) -> float:
    """Share of the unassigned companies whose single businessFocus is the
    generator's true focus; a missing or repeated focus counts as wrong."""
    focus_of = focus_by_company(triples)
    unassigned = range(gen.assigned_count(companies) + 1, companies + 1)
    right = sum(focus_of.get(gen.company(i)) == [gen.focus(gen.true_focus(i))] for i in unassigned)
    return right / len(unassigned)


def pipeline_problems(triples: list[tuple[str, str, str]], demo: bool) -> list[str]:
    """Output checks on `ontology.nt`: vocabulary and at most one focus per
    company always; island removal and the two reference corrections on
    the demo."""
    problems = []
    allowed = {gen.prop(p) for p in gen.SHARED_PROPERTIES}
    extra = {p for _, p, _ in triples if p not in _SCHEMA_PREDICATES} - allowed
    if extra:
        problems.append(f"data predicates outside the domain vocabulary: {sorted(extra)}")
    focus_of = focus_by_company(triples)
    repeated = sorted(c for c, fs in focus_of.items() if len(fs) > 1)
    if repeated:
        problems.append(f"{len(repeated)} companies with more than one businessFocus, e.g. {repeated[0]}")
    if demo:
        island = {n for s, _, o in triples for n in (s, o)} & _ISLAND
        if island:
            problems.append(f"island nodes survived: {sorted(island)}")
        for i, right in ((42, "Technology"), (54, "Transportation")):
            if focus_of.get(gen.company(i)) != [gen.focus(right)]:
                problems.append(f"C{i:03d} focus is {focus_of.get(gen.company(i))}, want {right}")
    return problems


def predictions_discarded(out_dir: Path) -> int:
    """Predictions in `complete.json` that are absent from `ontology.nt`."""
    report = json.loads((out_dir / "reports" / "complete.json").read_text("utf-8"))
    final = set((out_dir / "ontology.nt").read_text("utf-8").splitlines())
    return sum(p["triple"] not in final for p in report["predictions"])


@dataclass
class Outcome:
    problems: list[str]
    quality: dict[str, float]


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    companies: int
    band: int
    docs: int | None
    epochs: int
    demo: bool  # the reference config: demo checks and focus accuracy

    def generate(self, target: Path, seed: int, cache: Path) -> None:
        corpus = None
        if self.docs is not None:
            corpus = cache / f"corpus-{self.docs}"
            gen.write_shared_corpus(corpus, self.docs)
        gen.write_pipeline_inputs(target, seed, self.companies, self.band, corpus, self.epochs)

    def records(self, inputs: Path) -> int:
        with open(inputs / "triples.jsonl", "rb") as fh:
            return sum(1 for line in fh if line.strip())

    def load(self, inputs: Path):
        from ontogen import pipeline

        return pipeline.PipelineConfig.from_file(inputs / "pipeline.yaml")

    def prepare(self, config) -> None:
        shutil.rmtree(config.output_dir, ignore_errors=True)

    def run_pass(self, config):
        from ontogen import pipeline

        return pipeline.run(config)

    def outcome(self, config, result) -> Outcome:
        triples = read_ntriples(Path(config.output_dir) / "ontology.nt")
        quality = {"focus_accuracy": focus_accuracy(triples, self.companies)} if self.demo else {}
        return Outcome(pipeline_problems(triples, self.demo), quality)

    def file_metrics(self, config) -> dict[str, float]:
        """Phase times from the run's own `timing.json`, and the
        predictions `map` dropped."""
        out_dir = Path(config.output_dir)
        timing = json.loads((out_dir / "timing.json").read_text("utf-8"))
        out = {f"pipeline.{phase}_s": float(timing[phase]) for phase in PHASES}
        out["consistency.predictions_discarded"] = float(predictions_discarded(out_dir))
        return out


@dataclass(frozen=True)
class KinshipWorkload:
    name: str = "kinship"

    def generate(self, target: Path, seed: int, cache: Path) -> None:
        gen.write_kinship_inputs(target, seed)

    def records(self, inputs: Path) -> int:
        return len(json.loads((inputs / "kinship.json").read_text("utf-8"))["all"])

    def load(self, inputs: Path):
        from ontogen.model import Term, Triple

        raw = json.loads((inputs / "kinship.json").read_text("utf-8"))
        return {
            key: [Triple(Term.iri(s), Term.iri(p), Term.iri(o)) for s, p, o in raw[key]]
            for key in ("all", "train", "test")
        }

    def prepare(self, split) -> None:
        pass

    def run_pass(self, split):
        from ontogen import completion

        model = completion.train(split["train"], completion.TrainConfig())
        return completion.evaluate(model, split["test"], split["all"])

    def outcome(self, split, metrics) -> Outcome:
        quality = {"kinship_mrr": metrics.mrr, "kinship_hits10": metrics.hits[10]}
        problems = []
        if not all(math.isfinite(v) for v in (metrics.mrr, *metrics.hits.values())):
            problems.append(f"non-finite ranking metrics: {metrics}")
        if metrics.evaluated != 2 * len(split["test"]):
            problems.append(f"evaluated {metrics.evaluated} directions, want {2 * len(split['test'])}")
        if not (metrics.mrr >= KINSHIP_MIN_MRR and metrics.hits[10] >= KINSHIP_MIN_HITS10):
            problems.append(
                f"MRR {metrics.mrr:.4f} / Hits@10 {metrics.hits[10]:.4f} below "
                f"{KINSHIP_MIN_MRR} / {KINSHIP_MIN_HITS10}"
            )
        return Outcome(problems, quality)

    def file_metrics(self, split) -> dict[str, float]:
        return {}


WORKLOADS = {
    # the ROADMAP reference run: completion-bound, ground truth for focus
    "demo": PipelineWorkload("demo", gen.DEMO_COMPANIES, gen.DEMO_BAND, None, 500, demo=True),
    # gradient and update core; negatives rarely collide
    "kinship": KinshipWorkload(),
    # graph store, map, LOF, I/O and cleaning; training barely runs
    "scale1k": PipelineWorkload("scale1k", 1000, 2000, 2000, 10, demo=False),
}
