"""Run one solvgeo benchmark workload and print its metrics.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

Closed loop: one process, one thread, one client; each item is issued
after the previous one returns.  Every item's output is checked against
the oracles of checks.py, outside its timed span.

A run issues a fixed number of items, ``items_per_second * seconds``
of its workload (see items.py), so that the same seed gives the same
items and the same failures in every run; at the reference rates this
takes about ``seconds``.  The items run in windows, so that other work
can be interleaved with them: the cold starts behind setup_s are spread
evenly through the run, and a traced run alternates untraced and traced
windows.  Shared hosts switch between a contended state and bursts up to
2x faster, over milliseconds to minutes; spreading and alternating
makes every metric of a run see the same mix of states.

With ``--trace 0`` the run reports the end-to-end metrics item_p95_ms,
setup_s and peak_rss_mb, and prints items_per_s and item_p50_ms without
gating them (see REPORTED_ONLY).  With ``--trace 1`` it reports the
per-layer metrics of spans.py and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The full result,
with the environment record, goes to ``bench/out/``; a traced run also
writes its spans there.

``METRICS.md`` beside this file describes every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import checks
import envinfo
import spans

WINDOWS = 66           # measured windows of a run, about 0.5 s each
COLD_STARTS = 11       # fresh interpreters per run, one per WINDOWS // 11 windows
COLD_TIMEOUT_S = 120
WARMUP_S = 0.5
OUT = envinfo.ROOT / "bench" / "out"

# Printed and stored, but left out of the result line that BENCHMARK.json
# gates.  The host runs in a contended state with bursts up to 2x faster
# whose share drifts over minutes.  Statistics inside the contended mode
# (item_p95_ms, the upper quartile of the cold starts) repeat; the mean
# and the median mix the two modes, and their spread over ten seeds
# (up to 33% and 32% measured) exceeds any allowed bound.
REPORTED_ONLY = ("items_per_s", "item_p50_ms")


class ColdStart(NamedTuple):
    seconds: float
    problem: str | None


@dataclass
class Loop:
    """Items of one workload stream, issued one after another."""

    workload: object
    phase: int
    tracer: object = None
    durations_ns: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (index, reason, known)

    def __post_init__(self):
        self.checksum = checks.Checksum(self.workload.check_set)
        self._stream = iter(self.workload.stream(self.phase))

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexplained(self) -> list:
        return [f for f in self.failures if not f[2]]

    def items(self, count: int = 0, seconds: float = 0.0) -> None:
        """Issue items until ``seconds`` have passed and ``count`` are done."""
        if self.tracer is None:
            spans.assert_untraced()
        first = self.attempted
        deadline = time.perf_counter() + seconds
        while self.attempted - first < count or time.perf_counter() < deadline:
            self._one(next(self._stream))

    def _one(self, item) -> None:
        index = self.attempted
        if self.tracer is not None:
            self.tracer.begin_item(index)
        start = time.perf_counter_ns()
        try:
            result = self.workload.run(item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            result = exc
        end = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.end_item()
        outcome = self.workload.check(item, result)
        self.durations_ns.append(end - start)
        self.ok.append(outcome.ok)
        self.checksum.add(outcome.record)
        if not outcome.ok:
            self.failures.append((index, outcome.reason, outcome.known))


def items_per_s(durations: list, ok: list) -> float:
    return sum(ok) / (sum(durations) / 1e9)


def latencies_ns(durations: list, ok: list) -> list:
    """Sorted item latencies; a failed item counts as the whole timed run,
    slower than every successful item."""
    total = sum(durations)
    return sorted(d if good else total for d, good in zip(durations, ok))


def nearest_rank(sorted_values: list, rank: int):
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def tail_rank(n: int) -> int:
    """Rank of the highest percentile up to p95 that keeps >= 10 samples
    beyond it (p95 itself once a run has 200 items)."""
    return max(1, min(math.ceil(0.95 * n), n - 10))


def run_items(workload, seconds: float) -> int:
    """Items of one measured loop: the workload's rate times ``seconds``."""
    return max(workload.check_set, round(workload.items_per_second * seconds))


def window_sizes(total: int, count: int) -> list:
    """``total`` items split into ``count`` windows of near-equal size."""
    return [total * (k + 1) // count - total * k // count for k in range(count)]


def cold_start(workload, seed: int) -> ColdStart:
    """A fresh interpreter that imports solvgeo and finishes the first item."""
    start = time.perf_counter()
    proc = subprocess.run(workload.cold_command(seed), cwd=envinfo.ROOT,
                          env=envinfo.child_env(), capture_output=True, text=True,
                          timeout=COLD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        problem = workload.cold_problem(proc.stdout)
    return ColdStart(seconds, problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    """The untraced run: windows of items with cold starts spread among them."""
    import items

    cold_start(workload, seed)  # untimed: compiled bytecode and file cache warm
    Loop(workload, items.WARMUP).items(count=1, seconds=WARMUP_S)
    loop = Loop(workload, items.MEASURE)
    colds = []
    every = WINDOWS // COLD_STARTS
    for k, size in enumerate(window_sizes(run_items(workload, seconds), WINDOWS)):
        loop.items(count=size)
        if k % every == every // 2:
            colds.append(cold_start(workload, seed))

    durations, ok = loop.durations_ns, loop.ok
    lat = latencies_ns(durations, ok)
    n, rank = len(lat), tail_rank(len(lat))
    setup = [c.seconds for c in colds]
    metrics = {
        "items_per_s": (items_per_s(durations, ok), "1/s"),
        "item_p50_ms": (nearest_rank(lat, math.ceil(0.5 * n)) / 1e6, "ms"),
        "item_p95_ms": (nearest_rank(lat, rank) / 1e6, "ms"),
        "setup_s": (nearest_rank(sorted(setup), math.ceil(0.75 * len(setup))), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "item_p95_ms": f"p{100 * rank / n:.1f} of {n} items, {n - rank} beyond",
        "setup_s": f"upper quartile of {len(setup)} cold starts: "
                   + ", ".join(f"{t:.3f}" for t in setup),
    }
    problems = [c.problem for c in colds if c.problem]
    detail = {"cold_starts_s": setup}
    return [loop], metrics, notes, detail, problems


def traced(workload_name: str, seed: int, seconds: float, spans_path):
    """Untraced and traced windows in turn; per-layer metrics from the spans."""
    import items

    make = items.WORKLOADS[workload_name]
    Loop(make(seed), items.WARMUP).items(count=1, seconds=WARMUP_S)
    tracer = spans.Tracer()
    plain = Loop(make(seed), items.MEASURE)
    traced_loop = Loop(make(seed), items.TRACED, tracer=tracer)
    # Half of the run's items untraced, half traced, each at least the
    # check set, in alternating windows.
    half = max(make.check_set, run_items(make, seconds) // 2)
    sizes = window_sizes(half, WINDOWS // 2)
    windows = len(sizes)
    for size in sizes:
        plain.items(count=size)
        with tracer:
            traced_loop.items(count=size)
    spans.assert_untraced()
    tracer.write(spans_path)

    metrics = tracer.layer_metrics(traced_loop.attempted)
    overhead = (items_per_s(traced_loop.durations_ns, traced_loop.ok)
                / items_per_s(plain.durations_ns, plain.ok))
    plain_us = sum(plain.durations_ns) / plain.attempted / 1e3
    self_sum = sum(metrics[f"{m}.self_us_per_item"][0] for m in spans.LAYERS)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.self_sum_ratio"] = (self_sum / plain_us, "ratio")
    within = overhead <= self_sum / plain_us <= 1 / overhead
    notes = {"trace.self_sum_ratio":
             f"module self times {self_sum:.1f} us/item vs untraced {plain_us:.1f} "
             f"us/item; {'within' if within else 'OUTSIDE'} the overhead ratio",
             "trace.overhead_ratio":
             f"{windows} traced windows between untraced ones"}
    detail = {"spans_file": str(spans_path.relative_to(envinfo.ROOT)),
              "spans": len(tracer.spans), "untraced_us_per_item": plain_us,
              "self_sum_within_overhead": within}
    return [plain, traced_loop], metrics, notes, detail, []


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify_grid", "gram_classify", "exact_lane"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        envinfo.use_source()
    except envinfo.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import items

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loops, metrics, notes, detail, problems = traced(
            args.workload, args.seed, args.seconds, OUT / f"{stem}.spans.csv.gz")
    else:
        loops, metrics, notes, detail, problems = end_to_end(
            items.WORKLOADS[args.workload](args.seed), args.seed, args.seconds)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    unexplained = [f for lp in loops for f in lp.unexplained]
    correct = not unexplained and not problems
    first = loops[0]
    check_failed = sum(1 for i, _, _ in first.failures if i < first.checksum.limit)
    checksum = first.checksum.hexdigest()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        if name in REPORTED_ONLY:
            note = "; ".join(filter(None, ["not gated", note]))
        print(f"  {name:<58} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_ratio':<58} {failed / attempted:>14.6g} ratio  "
          f"({failed}/{attempted} items, the same in every run of this seed; "
          f"{check_failed} of the first {first.checksum.limit})")
    print(f"  checksum of the first {first.checksum.limit} items: {checksum}")
    for index, reason, known in (unexplained + first.failures)[:5]:
        print(f"  failed item {index}{' (scale only)' if known else ''}: {reason}")
    for problem in problems:
        print(f"  set-up problem: {problem}")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "env": envinfo.record(),
        "item_streams": "numpy default_rng([seed, phase]), phase 0 warm-up, "
                        "1 measured, 2 traced; verify_grid: permutation(seed)",
        "loops": [{"attempted": lp.attempted, "failed": lp.failed,
                   "scale_only_failures": lp.failed - len(lp.unexplained),
                   "failures": lp.failures[:50]} for lp in loops],
        "fail_ratio": failed / attempted,
        "checksum": {"items": first.checksum.limit, "failed": check_failed,
                     "sha256": checksum},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    gated = {k: v for k, v in result["metrics"].items() if k not in REPORTED_ONLY}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
