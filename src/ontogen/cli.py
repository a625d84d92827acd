"""Command-line interface.

Each pipeline phase is exposed as its own subcommand so it can be run and
inspected in isolation; `run` composes all of them from a config file.
Exit codes: 0 success, 1 validation failure, 2 phase failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import cleaning, completion, correction, pipeline, refinement

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PHASE = 2


def _render(counts: dict) -> str:
    """A phase's counts as one line, as `report` and every phase subcommand print them."""
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _finish(phase: str, kg, report: dict, out: str | None, report_path: str | None) -> int:
    """Save the phase's graph to `out` and its report to `report_path`
    (each if given) and print `<phase>: <counts>`."""
    print(f"{phase}: {_render(pipeline.save_phase(phase, kg, report, out, report_path))}")
    return EXIT_OK


def _setting(convert):
    """An argparse `type` for a setting flag: the text converted by
    `convert`, or the text itself when it does not convert, which the
    settings check then rejects as it rejects a config file's value."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            return text
    return parse


def _config(args, section: str, cls, **list_files):
    """`cls` from the flags given that name its fields, built by
    `pipeline.phase_config` as `run` builds it.  A flag named in
    `list_files` gives a file, read by the function given there."""
    given = {name: getattr(args, name, None) for name in inspect.signature(cls).parameters}
    opts = {k: v for k, v in given.items() if v is not None}
    opts.update((k, sorted(read(Path(opts[k])))) for k, read in list_files.items() if k in opts)
    return pipeline.phase_config(section, cls, opts)


# ----------------------------------------------------------------------
# subcommand handlers: build the phase config as `run` does (a flag left out
# keeps the field's default), read the input, run the phase, `_finish`

def _cmd_clean(args) -> int:
    cfg = _config(args, "clean", cleaning.CleanConfig, denylist=cleaning.read_list)
    report = pipeline.clean_phase(Path(args.in_dir), Path(args.out_dir), cfg)
    return _finish("clean", None, report, None, None)


def _cmd_ingest(args) -> int:
    kg, report = pipeline.ingest_phase(Path(args.in_file))
    return _finish("ingest", kg, report, args.out, args.report)


def _cmd_refine(args) -> int:
    cfg = _config(args, "refine", refinement.RefineConfig)
    kg, _ = pipeline.ingest_phase(Path(args.in_file))
    schema = pipeline.load_ontology(Path(args.schema)) if args.schema else None
    kg, report = pipeline.refine_phase(kg, schema, cfg)
    return _finish("refine", kg, report, args.out, args.report)


def _cmd_correct(args) -> int:
    cfg = _config(args, "correct", correction.CorrectionConfig, functional=cleaning.read_list)
    kg = pipeline.read_graph(Path(args.in_file))
    reference = pipeline.load_ontology(Path(args.axioms))
    facts = pipeline.read_ntriples(Path(args.reference)) if args.reference else ()
    kg, report = pipeline.correct_phase(kg, reference, cfg, facts)
    return _finish("correct", kg, report, args.out, args.report)


def _cmd_complete(args) -> int:
    cfg = _config(args, "complete", completion.TrainConfig, predict_relations=cleaning.read_list)
    kg = pipeline.read_graph(Path(args.in_file))
    extra = completion.load_tsv(Path(args.train_extra)) if args.train_extra else ()
    kg, report = pipeline.complete_phase(kg, cfg, extra, model_out=args.model_out)
    for note in report["notes"]:
        print(note, file=sys.stderr)
    return _finish("complete", kg, report, args.out, args.metrics)


def _cmd_map(args) -> int:
    kg = pipeline.read_graph(Path(args.in_file))
    kg, report = pipeline.map_phase(kg, pipeline.load_ontology(Path(args.domain)))
    return _finish("map", kg, report, args.out, args.report)


def _cmd_run(args) -> int:
    config = pipeline.PipelineConfig.from_file(Path(args.config))
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    if args.seed is not None:
        config.seed = args.seed
    result = pipeline.run(config)
    print(f"pipeline finished; final ontology at {result.final_ontology}")
    return EXIT_OK


def _load(path: Path) -> dict:
    """The JSON object in `path`, or {} when there is no such file."""
    return json.loads(path.read_text("utf-8")) if path.is_file() else {}


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        print(f"no manifest at {manifest_path}", file=sys.stderr)
        return EXIT_VALIDATION
    manifest = json.loads(manifest_path.read_text("utf-8"))
    timing = _load(run_dir / "timing.json")
    print(f"run {manifest['config_hash'][:12]} (seed {manifest['seed']})")
    for phase in pipeline.PHASES:
        seconds = f"{timing[phase]:.3f}s" if phase in timing else "?"
        print(f"  {phase:<9} {seconds:>8}  {_render(manifest['phases'].get(phase, {}))}")
        for note in _load(run_dir / "reports" / f"{phase}.json").get("notes", []):
            print(f"      note: {note}")
    if timing:
        print("  (clean ran beside the graph phases; total is wall clock, not their sum)")
        print(f"  total     {timing.get('total', '?')}s")
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontogen",
        description="Convert scored triples and text corpora into a domain-consistent ontology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="strip boilerplate from a document directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--format", help=f"one of {', '.join(cleaning._CLEANERS)}; "
                   "default: each file's format from its extension")
    p.add_argument("--denylist", help="file with one denylist token per line")
    p.add_argument("--min-words", type=_setting(int), dest="min_words")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("ingest", help="load scored-triple records into an N-Triples graph")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("refine", help="anomaly exclusion over scored triples")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--low", type=_setting(float), dest="low_threshold")
    p.add_argument("--high", type=_setting(float), dest="band_upper")
    p.add_argument("--lof-k", type=_setting(int), dest="lof_k")
    p.add_argument("--lof-threshold", type=_setting(float), dest="lof_threshold")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("correct", help="axiom and reference-fact error correction")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--axioms", required=True)
    p.add_argument("--reference")
    p.add_argument("--functional", help="file with one functional property IRI per line")
    p.add_argument("--sim-threshold", type=_setting(float), dest="sim_threshold")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("complete", help="train embeddings and predict missing statements")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--train-extra", dest="train_extra", help="extra (h, r, t) TSV triples")
    p.add_argument("--dim", type=_setting(int), dest="dimension")
    p.add_argument("--epochs", type=_setting(int))
    p.add_argument("--batch-size", type=_setting(int), dest="batch_size")
    p.add_argument("--lr", type=_setting(float), dest="learning_rate")
    p.add_argument("--l2", type=_setting(float), dest="l2_lambda")
    p.add_argument("--negatives", type=_setting(int), dest="negatives_per_positive")
    p.add_argument("--seed", type=_setting(int))
    p.add_argument("--predict-relations", dest="predict_relations",
                   help="file with one relation IRI per line")
    p.add_argument("--threshold", type=_setting(float))
    p.add_argument("--top-k", type=_setting(int), dest="top_k")
    p.add_argument("--holdout", type=_setting(float),
                   help="fraction in [0, 1) held out for filtered-rank metrics")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.add_argument("--model-out", dest="model_out")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("map", help="trim the graph to a target domain ontology")
    p.add_argument("--in", dest="in_file", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("run", help="run the whole pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--seed", type=_setting(int))
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pipeline.ValidationError as exc:
        for d in exc.diagnostics:
            print(f"invalid config: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    except pipeline.PhaseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PHASE
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHASE


if __name__ == "__main__":
    sys.exit(main())
