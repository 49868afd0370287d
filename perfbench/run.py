"""lorentz2d benchmark: one closed-loop client, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, then
                                                   # rewrite BENCHMARK.json

Run from the repository root; the package is imported from ``src/``.
One process drives the load: the next op starts only when the previous
one has returned, and no threads are used (the ``cli`` workload and the
set-up probes run one child process at a time).

Ops run in whole rounds of their workload's mix, and every op latency and
set-up time is scaled to a reference host speed by probes run between
them (``hostspeed.py``); the raw times are printed too.  The process and
its children are pinned to one CPU, so that the probes run where the ops
and set-ups run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A traced run spends half its time untraced and half traced (their
median op latencies give ``trace.overhead_ratio``), then traces one round
of every workload's mix so that each layer is measured in every run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the environment and the metrics under the workloads' own names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
import spec  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_REPEATS = 7
WARMUP_INDEX = 10 ** 6         # op indices of the untimed warm-up ops
COVERAGE_INDEX = 2 * 10 ** 6   # op indices of the traced coverage round
# Names the workloads give their items in the human-readable lines.
ITEM_METRIC = {"cells": "cells_per_s", "points": "points_per_s",
               "invocations": "invocations_per_s"}


@dataclass
class OpRecord:
    start: float
    latency: float
    items: int
    problems: list
    crashed: bool = False
    scaled: float = 0.0   # latency at the reference host speed (hostspeed.py)

    @property
    def failed(self) -> bool:
        return self.crashed or bool(self.problems)

    @property
    def wrong(self) -> bool:
        return bool(self.problems) and not self.crashed


def execute(wl, op_spec, tr, op_id) -> OpRecord:
    """Run one op, timing only the call into the program, then check it."""
    tr.op = op_id
    start = time.perf_counter()
    try:
        with tr.span(f"op.{wl.name}"):
            out = wl.run(op_spec, tr)
    except Exception:  # an op that raises is a failed op; the run goes on
        return OpRecord(start, time.perf_counter() - start, 0,
                        [traceback.format_exc(limit=3)], crashed=True)
    latency = time.perf_counter() - start
    try:
        verdict = wl.check(op_spec, out)
    except Exception:  # output the check cannot read is a wrong result
        return OpRecord(start, latency, 0, [traceback.format_exc(limit=3)])
    return OpRecord(start, latency, verdict.items, verdict.problems, verdict.crashed)


def measure(wl, seconds, tr, first_index):
    """Run whole rounds of the mix for about ``seconds`` and scale each op's
    latency to the reference host speed.

    A round is one op of each kind, so every run has the same mix and, on
    ``cli``, exactly one known-defect op per round.  Another round starts
    while the rounds so far say that it would end less than half a round
    past the deadline; at least one round runs."""
    clock = hostspeed.HostClock()
    clock.sample()
    records = []
    index = first_index
    begin = time.perf_counter()
    rounds = 0
    while True:
        for _ in range(len(wl.kinds)):
            records.append(execute(wl, wl.spec(index), tr, index))
            index += 1
            clock.tick()
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    clock.sample()
    for r in records:
        r.scaled = r.latency * clock.scale(r.start, r.start + r.latency)
    return records, index


def tail(latencies_ms, percentile):
    """The latency at the workload's tail ``percentile`` and the percentile
    read.  A run too short to leave ten ops beyond that percentile is read
    at the highest percentile that does; a run of ten ops or fewer at its
    maximum.

    The percentile is fixed per workload rather than always the highest
    with ten ops beyond it: a faster program completes more ops in a run,
    and would otherwise be read further out in its tail."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = max(10, int(n * (100 - percentile) / 100))
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def setup_seconds(name, seed):
    """Median time of fresh processes that import the package and build
    the workload's fixed inputs (for ``cli``: a bare import), each scaled
    to the reference host speed by probes run between them.  Returns the
    scaled and the raw median."""
    if name == "cli":
        code = "import lorentz2d"
    else:
        code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
                f"import workloads; workloads.make({name!r}, {seed}).spec(0)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = hostspeed.HostClock()
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=120)
        spans.append((start, time.perf_counter()))
    clock.sample()
    scaled = [(end - start) * clock.scale(start, end) for start, end in spans]
    return statistics.median(scaled), statistics.median(e - s for s, e in spans)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed):
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed,
            "loadavg": list(os.getloadavg())}


def warm_up(wl, tr):
    """One untimed round of the mix (two invocations for the CLI), so that
    imports, caches and lazy set-up are done before timing starts."""
    for i in range(2 if wl.name == "cli" else len(wl.kinds)):
        execute(wl, wl.spec(WARMUP_INDEX + i), tr, None)


def coverage_pass(seed, scale, tr, current):
    """Trace one round of every workload's mix.  Returns the op ids and
    records; the ids are the fixed op set that per-layer counts use."""
    import workloads   # imported late: it needs the package under src/

    ids, records = set(), []
    for name in workloads.WORKLOAD_CLASSES:
        wl = current if name == current.name else workloads.make(name, seed, scale)
        for i in range(len(wl.kinds)):
            op_id = f"coverage:{name}:{i}"
            ids.add(op_id)
            records.append(execute(wl, wl.spec(COVERAGE_INDEX + i), tr, op_id))
    return ids, records


def run_workload(name, seed, seconds, traced, scale=1.0, wl=None):
    """Measure one workload and write its details file.  Returns the
    result, the report lines and the details."""
    import workloads   # imported late: it needs the package under src/

    env = environment(seed)
    wl = wl or workloads.make(name, seed, scale)
    off = tracing.Tracer(False)
    lines = [f"env {json.dumps(env)}"]
    details = {"env": env, "workload": name, "trace": int(traced)}
    if not traced:
        setup, setup_raw = setup_seconds(name, seed)
        warm_up(wl, off)
        records, _ = measure(wl, seconds, off, 0)
        extra = []
    else:
        warm_up(wl, off)
        plain, index = measure(wl, seconds / 2, off, 0)
        on = tracing.Tracer(True)
        traced_records, _ = measure(wl, seconds / 2, on, index)
        counted_ids, extra = coverage_pass(seed, scale, on, wl)
        records = plain + traced_records
        p50_off = statistics.median(r.scaled for r in plain)
        p50_on = statistics.median(r.scaled for r in traced_records)
        layer = tracing.per_layer_metrics(on.spans, counted_ids, p50_on / p50_off)
        details["spans"] = on.spans

    latencies = [1e3 * r.scaled for r in records]
    raw = [1e3 * r.latency for r in records]
    attempted = len(records)
    failed = sum(r.failed for r in records)
    correct = not any(r.wrong for r in records + extra)
    lines.append(f"{name}: {attempted} ops, {failed} failed, fail_ratio "
                 f"{failed / attempted:.6g}, {'correct' if correct else 'INCORRECT'}")
    if traced:
        metrics = {k: {"value": v, "unit": spec.PER_LAYER_UNITS[k]}
                   for k, v in layer.items()}
    else:
        p_tail, pct = tail(latencies, wl.tail_percentile)
        items_per_s = sum(r.items for r in records) / sum(r.scaled for r in records)
        metrics = {
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": p_tail,
            "items_per_s": items_per_s,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb(name),
        }
        metrics = {k: {"value": v, "unit": spec.END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
        lines.append(f"  {ITEM_METRIC[wl.item]} = {items_per_s:.6g} 1/s "
                     f"(items_per_s; an item is one of the {wl.item})")
        raw_items = sum(r.items for r in records) / sum(r.latency for r in records)
        lines.append(f"  raw wall times, not scaled to the reference host speed: "
                     f"op_p50_ms {statistics.median(raw):.6g}, op_tail_ms "
                     f"{tail(raw, wl.tail_percentile)[0]:.6g}, items_per_s {raw_items:.6g}, "
                     f"setup_s {setup_raw:.6g}")
    for key, m in metrics.items():
        beside = f" (p{pct:.1f} of {attempted} ops)" if key == "op_tail_ms" else ""
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}{beside}")
    problems = [p for r in records + extra for p in r.problems]
    details.update(latencies_ms=latencies, raw_latencies_ms=raw, problems=problems)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details["result"] = result
    path = workloads.OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(details))
    lines.append(f"details: {path.relative_to(ROOT)}")
    return result, lines, details


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "lorentz2d" / "__init__.py").is_file():
        print(f"error: no lorentz2d package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the benchmark and its children, so that the host-speed
        # probes (hostspeed.py) run on the CPU the ops and set-ups run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        result, lines, details = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
        for problem in details["problems"][:5]:
            print(f"problem: {problem}", file=sys.stderr)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0

    summary = {}
    for name in names:
        result, lines, _ = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        summary[name] = result
    (ROOT / "BENCHMARK.json").write_text(spec.manifest_text())
    (HERE / "out" / "summary.json").write_text(json.dumps(summary, indent=2))
    print("wrote BENCHMARK.json and perfbench/out/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
