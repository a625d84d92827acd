"""Staged pipeline: clean, ingest, refine, correct, complete, map.

Phases hand off through on-disk artifacts so every intermediate graph is
inspectable; each phase also writes a JSON report.  No graph phase reads
what `clean` writes, so `run` cleans in a forked child (POSIX only) while
ingest -> map run in order.  The run manifest holds the config hash, seed,
and per-phase counts and is byte-reproducible for a fixed config and seed;
wall-clock timings go to a separate timing file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from collections.abc import Sequence
from contextlib import contextmanager
from functools import partial
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from . import cleaning, completion, consistency, correction, refinement
from .model import KnowledgeGraph, OntologySchema, Term, Triple, ontology_from_triples
from .rdf_io import (
    ParseError,
    parse_ntriples,
    parse_scored_jsonl,
    parse_turtle,
    render_triple,
    serialize_ntriples,
)

ARTIFACTS = {
    "clean": "cleaned",
    "ingest": "kg-raw.nt",
    "refine": "kg-refined.nt",
    "correct": "kg-corrected.nt",
    "complete": "kg-completed.nt",
    "map": "ontology.nt",
}

PHASES = tuple(ARTIFACTS)


class ValidationError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class PhaseError(RuntimeError):
    def __init__(self, phase: str, cause: Exception):
        super().__init__(f"phase {phase!r} failed: {cause}")
        self.phase = phase
        self.cause = cause


#: config-file section -> (its phase's config class, the PipelineConfig field
#: holding its options); each key of a section is a field of its class,
#: except `complete.train_extra`, a path, and `seed`, which is top-level only
_SECTIONS = {
    "clean": (cleaning.CleanConfig, "clean_options"),
    "refine": (refinement.RefineConfig, "refine_options"),
    "correct": (correction.CorrectionConfig, "correction_options"),
    "complete": (completion.TrainConfig, "train_options"),
}
#: top-level path keys and the file each names when the config leaves it out
_PATHS = {"scored_triples": "triples.jsonl", "reference_axioms": "axioms.ttl",
          "domain_ontology": "domain.ttl", "output_dir": "out", "corpus_dir": None,
          "reference_facts": None}

#: annotated setting type -> (what a value must be, its check, its conversion);
#: `type(v) is int` keeps booleans out of the numbers
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int, int),
    "float": ("a number", lambda v: type(v) in (int, float), float),
    "bool": ("true or false", lambda v: type(v) is bool, bool),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str, lambda v: v),
    "frozenset[str]": ("a list of strings",
                       lambda v: type(v) is list and all(type(s) is str for s in v), frozenset),
}


def _settings(section: str, types: dict[str, str], opts: dict) -> dict:
    """`opts` checked against `types`, the annotated type of each key, and
    converted by `_KINDS`.  Raises ValidationError with one `<section>: ...`
    diagnostic naming the first unknown or mistyped key."""
    out = {}
    for key, value in opts.items():
        if key not in types:
            raise ValidationError([f"{section}: unknown key {key!r}"])
        what, check, convert = _KINDS[types[key]]
        if not check(value):
            where = f"{section}: {key}" if section else key
            raise ValidationError([f"{where} must be {what}, got {value!r}"])
        out[key] = convert(value)
    return out


def phase_config(section: str, cls, opts: dict, **fixed):
    """A `cls` from `opts`, one config-file section or the flags a
    subcommand was given: `_settings` checks and converts each value, a
    field absent from `opts` takes its default, and `cls`'s own checks run
    last.  A field named in `fixed` takes that value and is not a key
    `opts` may set.  Raises ValidationError."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = _settings(section, {k: v for k, v in types.items() if k not in fixed}, opts)
    kwargs |= {k: v for k, v in fixed.items() if k in types}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError([f"{section}: {exc}"]) from None


@dataclass
class PipelineConfig:
    """A run's settings as the config file gives them: paths resolved,
    every other value as written.  `phase_configs` checks and converts
    them with the code the subcommands use for their flags."""

    scored_triples: Path
    reference_axioms: Path
    domain_ontology: Path
    output_dir: Path
    corpus_dir: Path | None = None
    reference_facts: Path | None = None
    seed: int = completion.TrainConfig.seed
    clean_options: dict = field(default_factory=dict)
    refine_options: dict = field(default_factory=dict)
    correction_options: dict = field(default_factory=dict)
    train_options: dict = field(default_factory=dict)
    train_extra: Path | None = None

    # ------------------------------------------------------------------

    @staticmethod
    def from_file(path: Path) -> "PipelineConfig":
        """The config a YAML file holds: each section's keys go to the
        options field `_SECTIONS` names, `complete.train_extra` to its path
        field, relative paths resolve against the file's directory, and no
        value is converted."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ValidationError([f"{path}: {exc}"]) from None
        if not isinstance(raw, dict):
            raise ValidationError([f"{path}: config must be a mapping"])
        given = {key: raw[key] for key in ("seed", *_PATHS) if key in raw}
        for section, (_, options) in _SECTIONS.items():
            opts = raw.get(section) or {}
            if not isinstance(opts, dict):
                raise ValidationError([f"{section}: must be a mapping, got {opts!r}"])
            given[options] = dict(opts)
        given["train_extra"] = given["train_options"].pop("train_extra", None)
        base = path.resolve().parent
        for key, default in (*_PATHS.items(), ("train_extra", None)):
            value = default if given.get(key) is None else given[key]
            if value is not None and not isinstance(value, str):
                raise ValidationError([f"{key}: must be a path, got {value!r}"])
            given[key] = None if value is None else base / value
        return PipelineConfig(**given)

    def phase_configs(self) -> dict:
        """Each section's config object by section name, every value
        checked and converted.  Raises ValidationError with every bad
        section's diagnostics."""
        makers = {
            section: partial(phase_config, section, cls, getattr(self, options), seed=self.seed)
            for section, (cls, options) in _SECTIONS.items()
        }
        makers["seed"] = partial(_settings, "", {"seed": "int"}, {"seed": self.seed})
        built, diagnostics = {}, []
        for name, make in makers.items():
            try:
                built[name] = make()
            except ValidationError as exc:
                diagnostics += exc.diagnostics
        if diagnostics:
            raise ValidationError(diagnostics)
        return built

    def canonical_dict(self) -> dict:
        """What `config_hash` hashes: the input paths (not `output_dir`) as
        strings, the seed, and each section's config object as `phase_configs`
        builds it, sets sorted, so a default written out hashes as one left out."""
        configs = self.phase_configs()
        out = {key: None if getattr(self, key) is None else str(getattr(self, key))
               for key in (*_PATHS, "train_extra") if key != "output_dir"}
        out["seed"] = configs["seed"]["seed"]
        for section in _SECTIONS:
            out[section] = {k: sorted(v) if isinstance(v, frozenset) else v
                            for k, v in asdict(configs[section]).items()}
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _parse_or_raise(path: Path, parse):
    try:
        triples, diags = parse(path.read_bytes())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if diags:
        first = diags[0]
        raise ValueError(f"{path}:{first.line}: {first.message} (+{len(diags) - 1} more)")
    return triples


def load_ontology(path: Path) -> OntologySchema:
    """Schema from an N-Triples (.nt) or Turtle file; any diagnostic fails."""
    return ontology_from_triples(
        _parse_or_raise(path, parse_ntriples if path.suffix == ".nt" else parse_turtle)
    )


def read_ntriples(path: Path) -> list[Triple]:
    """Triples of an N-Triples file; any diagnostic fails."""
    return _parse_or_raise(path, parse_ntriples)


def read_graph(path: Path) -> KnowledgeGraph:
    """Graph from an N-Triples file, every statement at confidence 1."""
    kg = KnowledgeGraph()
    for t in read_ntriples(path):
        kg.add_triple(t)
    return kg


def write_graph(path: Path, kg: KnowledgeGraph) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize_ntriples(kg.triples()))


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check(config: PipelineConfig) -> tuple[list[str], dict]:
    """The config's diagnostics, an empty list when it is runnable, and the
    inputs read before any phase runs, by key, each read once: the
    `reference_axioms` and `domain_ontology` schemas and, when given, the
    `reference_facts` and `train_extra` triples.  A file that is missing or
    does not parse is a diagnostic."""
    out: list[str] = []
    for name in ("scored_triples", "reference_axioms", "domain_ontology", "reference_facts",
                 "train_extra"):
        path = getattr(config, name)
        if path is not None and not Path(path).is_file():
            out.append(f"{name}: no such file: {path}")
    if config.corpus_dir is not None and not Path(config.corpus_dir).is_dir():
        out.append(f"corpus_dir: no such directory: {config.corpus_dir}")

    try:
        config.phase_configs()
    except ValidationError as exc:
        out += exc.diagnostics

    inputs = {}
    for name, read in (("reference_axioms", load_ontology), ("domain_ontology", load_ontology),
                       ("reference_facts", read_ntriples), ("train_extra", completion.load_tsv)):
        path = getattr(config, name)
        if path is not None and Path(path).is_file():
            try:
                inputs[name] = read(Path(path))
            except ValueError as exc:
                out.append(f"{name}: {exc}")
    return out, inputs


def validate(config: PipelineConfig) -> list[str]:
    """Collect configuration diagnostics; an empty list means runnable."""
    return _check(config)[0]


@dataclass
class PipelineResult:
    output_dir: Path
    manifest: dict
    final_ontology: Path


# ----------------------------------------------------------------------
# phases: each takes its inputs and config and returns (graph, report);
# the report is the phase's `reports/<phase>.json` payload.  `run` and the
# CLI subcommands both call these.

def clean_phase(corpus_dir: Path | None, cleaned_dir: Path, cfg: cleaning.CleanConfig) -> dict:
    """Clean every corpus document into `cleaned_dir`; the phase has no
    graph, so only the report is returned."""
    if corpus_dir is None:
        cleaned_dir.mkdir(parents=True, exist_ok=True)
        return {"files": {}, "total_kept": 0, "total_dropped": 0}
    return cleaning.clean_directory(Path(corpus_dir), cleaned_dir, cfg)


def ingest_phase(scored_triples: Path) -> tuple[KnowledgeGraph, dict]:
    statements, diags = parse_scored_jsonl(Path(scored_triples).read_bytes())
    kg = KnowledgeGraph()
    for st in statements:
        kg.add(st)
    return kg, {
        "records": len(statements),
        "diagnostics": [{"line": d.line, "message": d.message} for d in diags],
        "data_statements": len(kg.data_statements),
        "schema_statements": len(kg.schema_statements),
        "unknown_classes": sorted(kg.unknown_classes()),
    }


def refine_phase(
    kg: KnowledgeGraph, reference: OntologySchema | None, cfg: refinement.RefineConfig
) -> tuple[KnowledgeGraph, dict]:
    kg, report = refinement.refine(kg, reference, cfg)
    return kg, {
        "removed_by_threshold": [render_triple(st.triple) for st in report.removed_by_threshold],
        "removed_by_lof": [
            {"triple": render_triple(st.triple), "lof": lof} for st, lof in report.removed_by_lof
        ],
        "removed_implausible": [
            {
                "triple": render_triple(item.statement.triple),
                "combo": list(item.combo),
                "count": item.count,
            }
            for item in report.removed_implausible
        ],
        "removed_disconnected": [render_triple(st.triple) for st in report.removed_disconnected],
        "disconnected_nodes": [n.value for n in report.disconnected_nodes],
        "kept": report.kept,
        "notes": report.notes,
    }


def correct_phase(
    kg: KnowledgeGraph,
    reference: OntologySchema,
    cfg: correction.CorrectionConfig,
    reference_facts: Sequence[Triple] = (),
) -> tuple[KnowledgeGraph, dict]:
    """Correct against the reference axioms, first adding the
    `reference_facts` triples to a copy of the reference schema's facts."""
    if reference_facts:
        reference = replace(reference, facts=reference.facts | set(reference_facts))
    kg, report = correction.correct(kg, reference, cfg)
    return kg, {
        "checked": report.checked,
        "violations": [
            {"kind": v.kind, "triple": render_triple(v.triple)} for v in report.violations
        ],
        "deleted": [render_triple(t) for t in report.deleted],
        "replaced": [
            {"old": render_triple(old), "new": render_triple(new)} for old, new in report.replaced
        ],
    }


def complete_phase(
    kg: KnowledgeGraph,
    cfg: completion.TrainConfig,
    train_extra: Sequence[Triple] = (),
    sim_threshold: float = correction.CorrectionConfig.sim_threshold,
    model_out: Path | None = None,
) -> tuple[KnowledgeGraph, dict]:
    """Train on the graph (plus `train_extra`) and return a new graph with
    the predicted statements for `cfg.predict_relations` added.
    `agreement` compares each existing assertion with the model's best
    observed object, labels matching at `sim_threshold`.  With
    `cfg.holdout` > 0 that fraction of the pool is held out of training
    and ranked (filtered MRR and Hits@k).
    Training is skipped when the pool is empty, or when there is nothing
    to predict, score or save to `model_out`."""
    report: dict = {"predictions": [], "notes": []}
    predictions: list = []
    relations = [Term.iri(r) for r in sorted(cfg.predict_relations)]
    pool = completion.training_triples(kg)
    if train_extra:
        pool = sorted(set(train_extra).union(pool), key=Triple.sort_key)
    if not pool:
        report["notes"].append("no resource-object statements; training skipped")
    elif not relations:
        report["notes"].append("no candidate relations configured; prediction skipped")
    if pool and (relations or cfg.holdout > 0 or model_out is not None):
        train_split, test_split = completion.split_holdout(pool, cfg.holdout, cfg.seed)
        model = completion.train(train_split, cfg)
        if cfg.holdout > 0:
            covered = [
                t for t in test_split
                if t.subject in model.entity_index
                and t.predicate in model.relation_index
                and t.object in model.entity_index
            ]
            metrics = completion.evaluate(model, covered, pool)
            report["holdout"] = {
                "mrr": metrics.mrr,
                "hits": {str(k): v for k, v in metrics.hits.items()},
                "evaluated": metrics.evaluated,
            }
        predictions = completion.predict_missing(model, kg, relations, cfg.threshold, cfg.top_k)
        report["agreement"] = completion.agreement_rates(model, kg, relations, sim_threshold)
        report["trained_on"] = len(train_split)
        report["entities"] = len(model.entity_index)
        report["relations"] = len(model.relation_index)
        report["final_loss"] = model.loss_history[-1]
        report["loss_history"] = model.loss_history
        report["predictions"] = [
            {"triple": render_triple(st.triple), "confidence": round(st.confidence, 9)}
            for st in predictions
        ]
        if model_out is not None:
            Path(model_out).parent.mkdir(parents=True, exist_ok=True)
            completion.save_model(model, model_out)
    report["predicted_count"] = len(predictions)
    return kg.without((), predictions), report


def map_phase(kg: KnowledgeGraph, domain: OntologySchema) -> tuple[KnowledgeGraph, dict]:
    final, report = consistency.map_to_domain(kg, domain)
    return final, {
        "epsilon_total": report.epsilon_total,
        "per_concept": [
            {
                "concept": inc.concept,
                "offending_properties": sorted(inc.offending_properties),
                "epsilon_c": inc.epsilon_c,
                "affected": len(inc.affected_triples),
            }
            for inc in report.per_concept
        ],
        "domain_range_violations": [
            {"triple": render_triple(v.triple), "position": v.position, "property": v.property}
            for v in report.domain_range_violations
        ],
        "removed": [render_triple(t) for t in report.removed_triples],
        "retained": report.retained,
    }


#: phase -> `counts(report, kg)`: the phase's entry in the run manifest and
#: the line its subcommand prints (`kg` is None for `clean`)
COUNTS = {
    "clean": lambda r, kg: {"files": len(r["files"]), "kept": r["total_kept"],
                            "dropped": r["total_dropped"]},
    "ingest": lambda r, kg: {"records": r["records"], "statements": len(kg),
                             "diagnostics": len(r["diagnostics"])},
    "refine": lambda r, kg: {"removed_threshold": len(r["removed_by_threshold"]),
                             "removed_lof": len(r["removed_by_lof"]),
                             "removed_implausible": len(r["removed_implausible"]),
                             "removed_disconnected": len(r["removed_disconnected"]),
                             "kept": r["kept"]},
    "correct": lambda r, kg: {key: len(r[key]) for key in ("violations", "deleted", "replaced")},
    "complete": lambda r, kg: {"predicted": r["predicted_count"]},
    "map": lambda r, kg: {"epsilon_total": r["epsilon_total"], "removed": len(r["removed"]),
                          "retained": r["retained"]},
}


def save_phase(phase: str, kg: KnowledgeGraph | None, report: dict,
               graph_path: Path | str | None, report_path: Path | str | None) -> dict:
    """Write `kg` to `graph_path` and `report` to `report_path`, each only
    where a path is given, creating missing parent directories; return the
    phase's `COUNTS`."""
    if graph_path is not None:
        write_graph(Path(graph_path), kg)
    if report_path is not None:
        write_json(Path(report_path), report)
    return COUNTS[phase](report, kg)


# ----------------------------------------------------------------------

def _fork(fn) -> tuple[int, int]:
    """Fork a child that calls `fn()`, pickles `(ok, its result or
    exception, seconds)` into a pipe and leaves through `os._exit`, so it
    never returns into the caller's stack nor flushes the caller's
    buffered output.  Returns the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        t0 = time.perf_counter()
        try:
            outcome = (True, fn())
        except Exception as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((*outcome, round(time.perf_counter() - t0, 6))))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read_fd: int) -> tuple[bytes, int]:
    """All the child wrote, read to EOF before waiting for it (a result
    larger than the pipe buffer would block both otherwise), and its exit
    code."""
    with open(read_fd, "rb") as pipe:
        blob = pipe.read()
    return blob, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _join(phase: str, pid: int, read_fd: int):
    """The `(result, seconds)` of the child `_fork` started for `phase`.
    Raises PhaseError(phase) with the child's exception, or with its exit
    status if it wrote nothing or did not exit 0."""
    blob, code = _reap(pid, read_fd)
    if code or not blob:
        raise PhaseError(phase, RuntimeError(f"child process exited with status {code}"))
    ok, value, seconds = pickle.loads(blob)
    if not ok:
        raise PhaseError(phase, value)
    return value, seconds


def run(config: PipelineConfig) -> PipelineResult:
    """Execute all phases, writing artifacts, reports, a manifest, and a
    timing file under the configured output directory.  `clean` runs in a
    forked child beside ingest -> map; a failed clean is raised before a
    graph phase's error, as if it had run first.  `timing.json` holds each
    phase's own seconds and, as `total`, the run's wall clock."""
    diagnostics, inputs = _check(config)
    if diagnostics:
        raise ValidationError(diagnostics)
    configs = config.phase_configs()

    out_dir = Path(config.output_dir)
    counts: dict[str, dict] = {}
    timing: dict[str, float] = {}
    started = time.perf_counter()

    @contextmanager
    def timed(phase: str):
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:
            raise PhaseError(phase, exc) from exc
        finally:
            timing[phase] = round(time.perf_counter() - t0, 6)

    def clean() -> dict:
        report = clean_phase(config.corpus_dir, out_dir / ARTIFACTS["clean"], configs["clean"])
        return save_phase("clean", None, report, None, out_dir / "reports" / "clean.json")

    child = _fork(clean)
    try:
        reference, domain = inputs["reference_axioms"], inputs["domain_ontology"]
        steps = {
            "ingest": lambda kg: ingest_phase(config.scored_triples),
            "refine": lambda kg: refine_phase(kg, reference, configs["refine"]),
            "correct": lambda kg: correct_phase(
                kg, reference, configs["correct"], inputs.get("reference_facts", ())),
            "complete": lambda kg: complete_phase(
                kg, configs["complete"], inputs.get("train_extra", ()),
                sim_threshold=configs["correct"].sim_threshold),
            "map": lambda kg: map_phase(kg, domain),
        }
        kg = None
        for phase, step in steps.items():
            with timed(phase):
                kg, report = step(kg)
                counts[phase] = save_phase(phase, kg, report, out_dir / ARTIFACTS[phase],
                                           out_dir / "reports" / f"{phase}.json")
    except Exception:
        _join("clean", *child)  # a failed clean is raised first, in phase order
        raise
    except BaseException:  # KeyboardInterrupt, SystemExit: stop cleaning too
        import signal  # only here: its enums cost every run ~40 KiB at import

        os.kill(child[0], signal.SIGKILL)
        _reap(*child)
        raise
    counts["clean"], timing["clean"] = _join("clean", *child)

    manifest = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "phases": counts,
        "artifacts": dict(ARTIFACTS),
    }
    write_json(out_dir / "manifest.json", manifest)
    timing["total"] = round(time.perf_counter() - started, 6)
    write_json(out_dir / "timing.json", timing)
    return PipelineResult(out_dir, manifest, out_dir / ARTIFACTS["map"])
