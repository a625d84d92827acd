"""One benchmark process: set up a workload, or run its closed loop.

`run.py` starts this file in a fresh interpreter with `src` and this
directory on the path.  It prints one JSON object as its last line.

    worker.py setup   WORKLOAD SEED INPUTS
    worker.py measure WORKLOAD INPUTS SECONDS BUDGET TRACE SPANS

`setup` times importing `ontogen` and generating the inputs into INPUTS;
seed-independent inputs are cached beside the workload's directory.  `measure`
runs passes back to back (one client, the next pass starts when the last
one ends) until SECONDS have passed, and never starts a pass that would
end after BUDGET seconds.  With TRACE=1 it alternates traced and untraced
passes, so both the per-layer numbers and the tracing overhead come from
the same process.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def setup(workload: str, seed: int, inputs: Path) -> dict:
    t0 = time.perf_counter()
    import ontogen.pipeline  # noqa: F401  (loads every phase module and numpy)

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload].generate(inputs, seed, cache=inputs.parent.parent)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "generate_s": t2 - t1}


def layer_metrics(tracer, pass_id: int, file_metrics: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (0 where a layer did not run)."""
    from tracing import MODEL_SPAN, summarize
    from workloads import PHASES

    spans = summarize(tracer.spans, pass_id)
    c = tracer.counters[pass_id]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    requested = c["completion.negatives_requested"]
    delivered = c["completion.negatives_delivered"]
    train_s = total("completion.train")
    sentences = c["cleaning.kept"] + c["cleaning.dropped"]
    out = {
        "completion.sample_negatives_s": total("completion.sample_negatives"),
        "completion.negatives_requested": requested,
        "completion.negatives_delivered": delivered,
        "completion.negative_yield": delivered / requested if requested else 0.0,
        "completion.train_s": train_s,
        "completion.examples_per_s": (c["completion.positives"] + delivered) / train_s if train_s else 0.0,
        "completion.final_loss": c["completion.final_loss"],
        "completion.predict_missing_s": total("completion.predict_missing"),
        "completion.predictions": c["completion.predictions"],
        "completion.evaluate_s": total("completion.evaluate"),
        "consistency.map_to_domain_s": total("consistency.map_to_domain"),
        "consistency.epsilon_for_concept_s": total("consistency.epsilon_for_concept"),
        "consistency.domain_range_check_s": total("consistency.domain_range_check"),
        "consistency.removed": c["consistency.removed"],
        "model.scan_calls": c["model.scan_calls"],
        "model.rows_scanned": c["model.rows_scanned"],
        "model.scan_s": total(MODEL_SPAN),
        "refinement.refine_s": total("refinement.refine"),
        "refinement.threshold_filter_s": total("refinement.threshold_filter"),
        "refinement.validate_band_s": total("refinement.validate_band"),
        "refinement.lof_scores_s": total("refinement.lof_scores"),
        "refinement.implausible_links_s": total("refinement.implausible_links"),
        "refinement.prune_disconnected_s": total("refinement.prune_disconnected"),
        "refinement.band_size": c["refinement.band_size"],
        "refinement.lof_points": c["refinement.lof_points"],
        "refinement.lof_tensor_bytes": c["refinement.lof_tensor_bytes"],
        "correction.correct_s": total("correction.correct"),
        "correction.disjointness_s": total("correction.disjointness"),
        "correction.fact_check_s": total("correction.fact_check"),
        "correction.checked": c["correction.checked"],
        "rdf_io.parse_scored_jsonl_s": total("rdf_io.parse_scored_jsonl"),
        "rdf_io.serialize_ntriples_s": total("rdf_io.serialize_ntriples"),
        "rdf_io.serialize_calls": c["rdf_io.serialize_calls"],
        "rdf_io.bytes_out": c["rdf_io.bytes_out"],
        "cleaning.clean_directory_s": total("cleaning.clean_directory"),
        "cleaning.docs": c["cleaning.docs"],
        "cleaning.kept_ratio": c["cleaning.kept"] / sentences if sentences else 0.0,
        "consistency.predictions_discarded": 0.0,
    }
    out.update({f"pipeline.{phase}_s": 0.0 for phase in PHASES})
    out.update(file_metrics)
    return out


def measure(workload: str, inputs: Path, seconds: float, budget: float, trace: bool, spans_path: Path) -> dict:
    started = time.perf_counter()
    from workloads import WORKLOADS

    import ontogen.pipeline  # noqa: F401

    wl = WORKLOADS[workload]
    state = wl.load(inputs)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    passes: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = tracer is not None and k % 2 == 0
        wl.prepare(state)
        if traced:
            tracer.pass_id = k
            tracer.install()
        record: dict = {"pass": k, "traced": traced, "problems": [], "quality": {}}
        gc.collect()  # start each pass from a clean heap, as a fresh process would
        t0 = time.perf_counter()
        try:
            result = wl.run_pass(state)
        except Exception:  # a failed pass is counted, and the loop goes on
            result = None
            record["problems"].append("pass raised: " + traceback.format_exc(limit=3))
        finally:
            record["wall_s"] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if result is not None:
            try:
                outcome = wl.outcome(state, result)
                record["problems"] += outcome.problems
                record["quality"] = outcome.quality
                if traced:
                    record["layers"] = layer_metrics(tracer, k, wl.file_metrics(state))
            except (OSError, ValueError, KeyError) as exc:
                record["problems"].append(f"output check failed: {exc!r}")
        for problem in record["problems"]:
            print(f"pass {k}: {problem}", file=sys.stderr)
        passes.append(record)

        now = time.perf_counter()
        longest = max(p["wall_s"] for p in passes)
        if now - started + longest > budget:
            break
        pair_done = tracer is None or len(passes) >= 2
        if now - loop_start >= seconds and pair_done:
            break

    if tracer is not None:
        tracer.write(spans_path)
    return {
        "passes": passes,
        "records": wl.records(inputs),
        "absent": tracer.absent if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        out = setup(argv[1], int(argv[2]), Path(argv[3]))
    elif mode == "measure":
        out = measure(argv[1], Path(argv[2]), float(argv[3]), float(argv[4]), argv[5] == "1", Path(argv[6]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
