"""Benchmark of the stream-join engine: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload heavy-probe --seed 1 --seconds 40 --trace 0

The run builds the workload's inputs from ``--seed``, computes (or loads
from ``perfbench/.cache``) the ground truth, then replays the workload
until ``--seconds`` have passed and at least ``MIN_CALLS`` calls
were timed.  Every replay's output is checked.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced replays and reports the per-layer metrics, each
layer's self time and the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any check failed.  A fuller record
(run metadata, per-replay figures, check messages) goes to
``perfbench/out/``, and a traced run's spans to
``perfbench/out/trace-<workload>-s<seed>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Timed calls a run makes at least, so that the 99th percentile
#: has at least ten samples beyond it.
MIN_CALLS = 1_000


def _load_engine():
    """Put the engine, the shared generators and this directory on the path."""
    missing = [
        path
        for path in (ROOT / "src" / "repro" / "__init__.py", ROOT / "benchmarks" / "common.py")
        if not path.is_file()
    ]
    if missing:
        sys.exit(
            "perfbench: run from the root of a repository checkout; missing "
            + ", ".join(str(path.relative_to(ROOT)) for path in missing)
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# process facts
# ----------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset this process's VmHWM (Linux ``clear_refs`` code 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """This process's VmHWM plus the largest reaped child's peak, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        own_kb = int(re.search(r"VmHWM:\s+(\d+)", handle.read()).group(1))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024


def git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# one replay
# ----------------------------------------------------------------------


@dataclass
class Replay:
    setup_s: float
    wall_s: float = 0.0
    calls: List[float] = field(default_factory=list)
    attempted_calls: int = 0
    failed_calls: int = 0
    obs: Optional[object] = None
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[object] = None


def replay(prep, traced: bool = False) -> Replay:
    """Construct, drive and check one pipeline over the prepared feed."""
    workload = prep.workload
    started = time.perf_counter()
    pipeline, state = workload.open(prep)
    run = Replay(setup_s=time.perf_counter() - started)
    collect = prep.config.collect_results
    outputs = [] if collect else 0
    calls = run.calls
    clock = time.perf_counter
    try:
        if traced:
            run.tracer = Tracer()
            workload.install(run.tracer, pipeline)
        try:
            begin = clock()
            for chunk in prep.chunks:
                call_start = clock()
                produced = pipeline.process_batch(chunk)
                calls.append(clock() - call_start)
                if collect:
                    outputs.extend(produced)
                else:
                    outputs += produced
            call_start = clock()
            produced = pipeline.flush()
            end = clock()
            calls.append(end - call_start)
            if collect:
                outputs.extend(produced)
            else:
                outputs += produced
        except Exception:  # a failed call is a failed operation, not a crash
            run.attempted_calls = len(calls) + 1
            run.failed_calls = 1
            run.failures.append("call failed:\n" + traceback.format_exc())
            return run
        run.wall_s = end - begin
        run.attempted_calls = len(calls)
        run.obs = workload.observe(prep, pipeline, outputs, state)
        if traced:
            run.layers = workload.layer_metrics(run.tracer, pipeline, run.obs)
    finally:
        workload.close(pipeline)
    run.failures.extend(workload.check(prep, run.obs))
    return run


def rate(per_replay: int, runs: List[Replay]) -> float:
    """Items per second over all the given replays: total over total.

    The host's speed switches between states for seconds at a time, so
    per-replay rates are a mixture whose median jumps with the share of
    fast replays; total work over total time moves with that share only
    in proportion.
    """
    return per_replay * len(runs) / sum(r.wall_s for r in runs)


def percentile(sorted_values: List[float], percent: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = -(-percent * len(sorted_values) // 100)
    return sorted_values[max(rank, 1) - 1]


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: Optional[float] = None,
    min_calls: int = MIN_CALLS,
    setup_repeats: Optional[int] = None,
    write: bool = True,
) -> dict:
    """One benchmark run; returns the result object plus a full record."""
    from workloads import WORKLOADS, source_digest

    workload = WORKLOADS[workload_name]
    prep = workload.prepare(seed, size)
    if setup_repeats is None:
        setup_repeats = workload.setup_repeats
    cpus = sorted(os.sched_getaffinity(0))
    reset_peak_rss()
    warmup, untraced, traced, setup_samples = drive(
        prep, seconds, trace, min_calls, setup_repeats, cpus
    )
    peak_mb = peak_rss_mb()

    replays = [warmup] + untraced + traced
    checks: Dict[str, List[str]] = {}
    for index, run in enumerate(replays):
        if run.failures:
            checks[f"replay {index}"] = run.failures
    observed = [r.obs.comparable() for r in replays if r.obs is not None]
    if any(obs != observed[0] for obs in observed[1:]):
        checks["replays agree"] = ["outputs differ between replays"]
    if observed:
        pins = workload.check_pins(prep, replays[0].obs)
        if pins:
            checks["pinned counts"] = pins

    spec = _spec()
    meta = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": len(cpus),
        "tuples": prep.num_tuples,
        "chunk": workload.chunk,
        "shards": workload.shards,
        "replays": len(untraced),
        "traced_replays": len(traced),
        "timed_calls": sum(len(r.calls) for r in untraced + traced),
        "setup_samples": len(setup_samples) + len(untraced) + len(traced),
    }
    ok = [r for r in untraced if r.obs is not None]
    if trace:
        ok_traced = [r for r in traced if r.obs is not None]
        values = per_layer(prep, ok, ok_traced)
        if ok_traced:
            tracer = ok_traced[-1].tracer
            meta["layers"] = layer_table(tracer)
            meta["call_span_s"] = tracer.root_s()
            meta["accounted_s"] = tracer.accounted_s()
            if abs(tracer.accounted_s() - tracer.root_s()) > 1e-6 * tracer.root_s():
                checks["trace accounting"] = [
                    f"layers account for {tracer.accounted_s():.6f} s of "
                    f"{tracer.root_s():.6f} s in call spans"
                ]
            if write:
                tracer.write(
                    OUT_DIR / f"trace-{workload_name}-s{seed}.json",
                    {"workload": workload_name, "seed": seed},
                )
        wanted = spec["per_layer"]
    else:
        values = end_to_end(prep, ok, untraced + traced, setup_samples, peak_mb)
        wanted = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in wanted
    }

    # Operations: every call, every replay's output check, and the
    # run-level checks (replay agreement, pins, trace accounting).
    run_checks = ("replays agree", "pinned counts", "trace accounting")
    attempted = (
        sum(r.attempted_calls for r in replays) + len(replays) + 2 + int(trace)
    )
    failed = (
        sum(r.failed_calls for r in replays)
        + sum(1 for r in replays if r.obs is not None and r.failures)
        + sum(1 for name in run_checks if name in checks)
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "meta": meta,
        "result": result,
        "checks": checks,
        "replays": [
            {
                "kind": kind,
                "setup_s": run.setup_s,
                "wall_s": run.wall_s,
                "calls": len(run.calls),
            }
            for kind, runs in (
                ("warm-up", [warmup]), ("untraced", untraced), ("traced", traced)
            )
            for run in runs
        ],
        "setup_samples_s": setup_samples,
    }
    if write:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload_name}-s{seed}-t{int(trace)}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    return record


def drive(prep, seconds, trace, min_calls, setup_repeats, cpus):
    """Replay until the time and call budget are spent.

    Returns ``(warmup, untraced, traced, setup_samples)``.  The first
    replay warms caches and the allocator; it is checked but not timed.
    Single-process workloads move to the next CPU every replay (every
    replay pair when traced): the CPUs of a shared host run at different
    speeds for seconds to minutes at a time, and a run that stayed on
    one would inherit its speed.  Forked shard workers inherit the
    affinity mask, so the partitioned workload keeps every CPU.
    """
    workload = prep.workload
    rotate = workload.shards == 0 and len(cpus) > 1
    per_cpu = 2 if trace else 1
    setup_samples: List[float] = []
    untraced: List[Replay] = []
    traced: List[Replay] = []
    warmup = replay(prep)
    if warmup.failed_calls:
        return warmup, untraced, traced, setup_samples
    began = time.perf_counter()
    try:
        while True:
            count = len(untraced) + len(traced)
            if rotate:
                os.sched_setaffinity(0, {cpus[(count // per_cpu) % len(cpus)]})
            # Set-up samples are spread over the run like the replays.
            for _ in range(setup_repeats):
                started = time.perf_counter()
                pipeline, _state = workload.open(prep)
                setup_samples.append(time.perf_counter() - started)
                workload.close(pipeline)
            # A traced run alternates untraced and traced replays, so both
            # sides of the overhead ratio see the same machine conditions.
            with_trace = trace and len(traced) < len(untraced)
            run = replay(prep, traced=with_trace)
            (traced if with_trace else untraced).append(run)
            if run.failed_calls:
                break
            timed = sum(len(r.calls) for r in untraced + traced)
            enough = time.perf_counter() - began >= seconds and timed >= min_calls
            if enough and len(traced) == (len(untraced) if trace else 0):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return warmup, untraced, traced, setup_samples


def end_to_end(prep, ok: List[Replay], replays, setup_samples, peak_mb) -> dict:
    """The end-to-end metric values of an untraced run."""
    if not ok:
        return {}
    calls = sorted(c for r in ok for c in r.calls)
    first = ok[0].obs
    return {
        "tuples_per_s": rate(prep.num_tuples, ok),
        "results_per_s": rate(ok[0].obs.results, ok),
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p99_ms": percentile(calls, 99) * 1e3,
        "setup_s": statistics.median(setup_samples + [r.setup_s for r in replays]),
        "peak_rss_mb": peak_mb,
        "recall": first.recall,
        "phi99": first.phi99,
        "avg_k_ms": first.avg_k_ms,
    }


def per_layer(prep, ok: List[Replay], ok_traced: List[Replay]) -> dict:
    """Per-layer values (medians over traced replays) and tracing overhead."""
    if not ok or not ok_traced:
        return {}
    values = {
        name: statistics.median(r.layers[name] for r in ok_traced)
        for name in ok_traced[0].layers
    }
    traced_tps = rate(prep.num_tuples, ok_traced)
    untraced_tps = rate(prep.num_tuples, ok)
    values.update(
        {
            "trace.overhead": traced_tps / untraced_tps,
            "trace.tuples_per_s_traced": traced_tps,
            "trace.tuples_per_s_untraced": untraced_tps,
            "trace.spans": len(ok_traced[-1].tracer.spans),
        }
    )
    return values


def layer_table(tracer) -> List[dict]:
    """Busy and self seconds per layer of one traced replay."""
    busy = tracer.busy_s()
    own = tracer.self_s()
    total = tracer.root_s()
    return [
        {
            "layer": layer,
            "busy_s": busy[layer],
            "self_s": own[layer],
            "self_share": own[layer] / total if total else 0.0,
        }
        for layer in sorted(busy, key=lambda name: -own[name])
    ]


def report(record: dict) -> None:
    """Print the human-readable record; the result object goes last."""
    print("meta " + json.dumps(record["meta"]))
    for layer in record["meta"].get("layers", []):
        print(
            f"  layer {layer['layer']:<28} busy {layer['busy_s']:10.4f} s"
            f"  self {layer['self_s']:10.4f} s  {100 * layer['self_share']:5.1f}%"
        )
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for check, messages in record["checks"].items():
        for message in messages:
            print(f"FAILED {check}: {message}", file=sys.stderr)
    print(json.dumps(record["result"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_engine()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
