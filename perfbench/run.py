"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload scale1k --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout.  The program is imported from
`src/` of that checkout, never from an installed copy.  Inputs are
generated from the seed into `.perfbench_work/`, then a fresh worker
process runs passes back to back (one client; the next pass starts when
the last one ends) for `--seconds`, with BLAS threads capped at the number
of usable cores.  Every pass is checked.

With `--trace 0` the last line reports the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` it reports the per-layer metrics, from
a run that alternates traced and untraced passes.  The lines before it
print every metric by name and unit, and the quality scores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: the whole run must end within this many seconds
DEADLINE_S = 170.0
#: the demo's single pass takes about 100 s, so its traced run needs longer
DEMO_DEADLINE_S = 900.0
#: set-up is repeated in this many fresh processes and the median reported
SETUP_PROBES = 5

#: metrics printed beside the BENCHMARK.json ones: name -> unit
EXTRA_UNITS = {
    "records_per_s": "records/s",
    "failed_ratio": "share",
    "focus_accuracy": "share",
    "kinship_mrr": "ratio",
    "kinship_hits10": "share",
}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to start the worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s and was stopped") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args[0]} printed no result")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Returns the result object and the human-readable metric lines."""
    if not (ROOT / "src" / "ontogen" / "__init__.py").is_file():
        raise BenchError(f"no ontogen sources under {ROOT / 'src'}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    deadline = time.monotonic() + (DEMO_DEADLINE_S if workload == "demo" else DEADLINE_S)
    work = WORK / workload
    inputs = work / "inputs"
    spans = work / "spans.json"
    work.mkdir(parents=True, exist_ok=True)
    spans.unlink(missing_ok=True)

    probes = [_run_worker(["setup", workload, str(seed), str(inputs)], deadline) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p["import_s"] + p["generate_s"] for p in probes)

    budget = deadline - time.monotonic() - 5.0  # leave time to report
    result = _run_worker(
        ["measure", workload, str(inputs), str(seconds), str(budget), "1" if trace else "0", str(spans)],
        deadline,
    )
    passes = result["passes"]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failed = sum(bool(p["problems"]) for p in passes)
    if not untraced:
        raise BenchError("no untraced pass finished before the deadline")
    wall_s = statistics.median(untraced)

    e2e = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "records_per_s": result["records"] / wall_s,
        "failed_ratio": failed / len(passes),
    }
    for key in sorted({k for p in passes for k in p["quality"]}):
        e2e[key] = statistics.median(p["quality"][key] for p in passes if key in p["quality"])

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update(EXTRA_UNITS)
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  closed loop, 1 client, "
        f"{len(passes)} passes ({len(untraced)} untraced), {failed} failed",
        f"  wall_s is the median of {len(untraced)} untraced passes; setup_s the median of {SETUP_PROBES} set-ups",
    ]
    lines += [f"  {name:<40} {value:>16.6f} {units[name]}" for name, value in e2e.items()]

    if trace:
        measured = [p["layers"] for p in traced if "layers" in p]
        layers = {name: statistics.median(m[name] for m in measured) for name in (measured[0] if measured else ())}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["bench.trace_overhead_s"] = traced_wall - wall_s
        layers["bench.absent_hooks"] = float(len(result["absent"]))
        lines += [f"  {name:<40} {value:>16.6f} {units.get(name, '')}" for name, value in sorted(layers.items())]
        lines += [f"  absent hook: {name}" for name in result["absent"]]
        lines.append(f"  spans: {spans.relative_to(ROOT)}")
        reported, section = layers, "per_layer"
    else:
        reported, section = e2e, "end_to_end"

    metrics = {}
    for m in contract[section]:
        if m["name"] not in reported:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": reported[m["name"]], "unit": m["unit"]}
    out = {"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot load the workloads: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        out, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
