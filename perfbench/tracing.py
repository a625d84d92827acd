"""Outside-in tracing: timing wrappers around the calls into each layer.

The wrappers are installed from the benchmark's side, so the program under
test is unchanged.  A wrapper replaces a function wherever it is looked up:
in its own module and in every `ontogen` module that imported it by name
(`pipeline.parse_scored_jsonl` as well as `rdf_io.parse_scored_jsonl`), and
module globals that a phase calls internally (`refinement.lof_scores`,
`consistency.domain_range_check`) are patched the same way.  Whole-store
accessors of `KnowledgeGraph` are patched on the class.

Spans are kept in memory as (name, start, end, parent, pass id) and
written when the run ends; counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: KnowledgeGraph accessors that scan or sort the whole store
MODEL_ACCESSORS = (
    "statements",
    "triples",
    "data_statements",
    "schema_statements",
    "type_assertions",
    "class_map",
    "entities_by_class",
    "subclass_edges",
)
MODEL_SPAN = "model.scan"

AddCount = Callable[[str, float], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_clean(add: AddCount, args, kwargs, summary) -> None:
    add("cleaning.docs", len(summary["files"]))
    add("cleaning.kept", summary["total_kept"])
    add("cleaning.dropped", summary["total_dropped"])


def _count_serialize(add: AddCount, args, kwargs, out) -> None:
    add("rdf_io.serialize_calls", 1)
    add("rdf_io.bytes_out", len(out))


def _count_band(add: AddCount, args, kwargs, out) -> None:
    add("refinement.band_size", len(_arg(args, kwargs, 0, "band")))


def _count_lof(add: AddCount, args, kwargs, out) -> None:
    points = _arg(args, kwargs, 0, "points")
    n, dims = len(points), len(points[0])
    add("refinement.lof_points", n)
    # the n x n x dims float64 difference tensor lof_scores builds; computed, not measured
    add("refinement.lof_tensor_bytes", n * n * dims * 8)


def _count_correct(add: AddCount, args, kwargs, out) -> None:
    add("correction.checked", out[1].checked)


def _count_train(add: AddCount, args, kwargs, model) -> None:
    triples = _arg(args, kwargs, 0, "triples")
    cfg = _arg(args, kwargs, 1, "cfg")
    epochs = cfg.epochs if cfg is not None else sys.modules["ontogen.completion"].TrainConfig().epochs
    add("completion.positives", len(set(triples)) * epochs)
    add("completion.final_loss", model.loss_history[-1])


def _count_sampler(add: AddCount, args, kwargs, negs) -> None:
    pos = _arg(args, kwargs, 1, "pos")
    per_positive = _arg(args, kwargs, 4, "per_positive")
    add("completion.negatives_requested", len(pos) * per_positive)
    add("completion.negatives_delivered", len(negs))


def _count_predict(add: AddCount, args, kwargs, out) -> None:
    add("completion.predictions", len(out))


def _count_map(add: AddCount, args, kwargs, out) -> None:
    add("consistency.removed", len(out[1].removed_triples))


def _count_scan(add: AddCount, args, kwargs, out) -> None:
    add("model.scan_calls", 1)
    add("model.rows_scanned", len(args[0]))


#: (module, function, span name, counter hook) for each traced layer entry
HOOKS = (
    ("ontogen.pipeline", "run", "pipeline.run", None),
    ("ontogen.cleaning", "clean_directory", "cleaning.clean_directory", _count_clean),
    ("ontogen.rdf_io", "parse_scored_jsonl", "rdf_io.parse_scored_jsonl", None),
    ("ontogen.rdf_io", "serialize_ntriples", "rdf_io.serialize_ntriples", _count_serialize),
    ("ontogen.refinement", "refine", "refinement.refine", None),
    ("ontogen.refinement", "threshold_filter", "refinement.threshold_filter", None),
    ("ontogen.refinement", "validate_band", "refinement.validate_band", _count_band),
    ("ontogen.refinement", "lof_scores", "refinement.lof_scores", _count_lof),
    ("ontogen.refinement", "implausible_links", "refinement.implausible_links", None),
    ("ontogen.refinement", "prune_disconnected", "refinement.prune_disconnected", None),
    ("ontogen.correction", "correct", "correction.correct", _count_correct),
    ("ontogen.correction", "detect_disjointness_violations", "correction.disjointness", None),
    ("ontogen.correction", "reference_fact_check", "correction.fact_check", None),
    ("ontogen.completion", "train", "completion.train", _count_train),
    ("ontogen.completion", "_sample_negatives", "completion.sample_negatives", _count_sampler),
    ("ontogen.completion", "predict_missing", "completion.predict_missing", _count_predict),
    ("ontogen.completion", "evaluate", "completion.evaluate", None),
    ("ontogen.consistency", "map_to_domain", "consistency.map_to_domain", _count_map),
    ("ontogen.consistency", "epsilon_for_concept", "consistency.epsilon_for_concept", None),
    ("ontogen.consistency", "domain_range_check", "consistency.domain_range_check", None),
)

#: counters that hold the last value seen instead of a sum
LAST_VALUE = frozenset({"completion.final_loss"})


class Tracer:
    """Span and counter recorder; `install` patches the program in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        if name in LAST_VALUE:
            self.counters[self.pass_id][name] = value
        else:
            self.counters[self.pass_id][name] += value

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.add, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch every hook that exists; record the missing ones as absent."""
        self.absent = []
        modules = [
            m for n, m in sorted(sys.modules.items()) if m and (n == "ontogen" or n.startswith("ontogen."))
        ]
        for module_name, attr, span, count in HOOKS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(span, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

        graph = sys.modules["ontogen.model"].KnowledgeGraph
        for attr in MODEL_ACCESSORS:
            current = graph.__dict__.get(attr)
            if isinstance(current, property):
                self._replace(graph, attr, property(self.wrap(MODEL_SPAN, current.fget, _count_scan)))
            elif callable(current):
                self._replace(graph, attr, self.wrap(MODEL_SPAN, current, _count_scan))
            else:
                self.absent.append(f"ontogen.model.KnowledgeGraph.{attr}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "pass")
        payload = {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "summary": {str(p): summarize(self.spans, p) for p in sorted({s[4] for s in self.spans})},
            "absent": self.absent,
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Parent indices refer to positions in `spans`.  Child intervals are
    clipped to the parent's and merged, so overlapping children are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[list], pass_id: int | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time and self time, for one pass or all.

    Total time counts only spans with no ancestor of the same name, so a
    recursive or nested call is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if pass_id is not None and s[4] != pass_id:
            continue
        entry = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = s[3]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][3]
        if parent < 0:
            entry["total_s"] += s[2] - s[1]
    return out
