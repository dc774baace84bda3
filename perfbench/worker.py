"""One workload in one fresh process; started by run.py.

Modes:
  setup   set up, print the monotonic time set-up ended, exit.
  run     set up, then run whole passes until their summed wall time
          reaches --seconds; check every op; print the measurements.
  trace   run the first pass untraced, then with spans (its set-up
          traced too), then once more with counters; add the
          micro rates; write the spans; print the layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from collections import Counter

import checks
from workloads import ROOT, WORKLOADS

MAX_REASONS = 8  # distinct failure reasons listed in a result


def percentile(sorted_values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    n = len(sorted_values)
    if n * (1 - q) < 10:
        return None
    return sorted_values[max(0, math.ceil(q * n) - 1)]


def tally(reasons_per_op):
    failed = unknown = 0
    reasons = Counter()
    for reason in reasons_per_op:
        if reason:
            failed += 1
            reasons[reason[:200]] += 1
            unknown += not checks.is_known(reason)
    return failed, unknown, reasons


def timed(wl, seconds):
    """Whole passes, at least one, as long as the next is expected to end
    within ``seconds``.

    Where every pass repeats the same inputs, each op's latency is its best
    over the passes, and the pass wall time is the sum of those plus the
    best time spent between ops (enumeration in census): the host's
    contention comes in bursts that slow single ops and passes by up to
    half, and the best of several runs of the same work is the steady
    estimate of what the program costs.
    """
    walls, per_pass, all_reasons = [], [], []
    b = 0
    while True:
        t0 = time.perf_counter()
        records = wl.run_pass(b)
        walls.append(time.perf_counter() - t0)
        if b == 0:  # before the benchmark's own records grow with the pass count
            peak_rss_mb = wl.peak_rss_mb()
        all_reasons.extend(wl.check_pass(b, records))
        per_pass.append([lat for lat, _ in records])
        b += 1
        if sum(walls) + statistics.mean(walls) > seconds:  # the next pass would overrun
            break
    if wl.same_inputs_each_pass:
        best = list(map(min, zip(*per_pass)))
        between_ops = min(w - sum(lats) for w, lats in zip(walls, per_pass))
        wall = between_ops + sum(best)
        latencies = sorted(best)
        ops_per_s = len(latencies) / wall
        estimate = f"best of {b} passes"
    else:
        latencies = sorted(lat for lats in per_pass for lat in lats)
        wall = statistics.median(walls)
        ops_per_s = len(latencies) / sum(walls)
        estimate = f"{b} passes" if b > 1 else "1 pass"
    failed, unknown, reasons = tally(all_reasons)
    ms = {f"op_p{q}_ms": percentile(latencies, q / 100) for q in (50, 90, 99)}
    return {
        "estimate": estimate,
        "wall_s": wall,
        "ops_per_s": ops_per_s,
        **{k: None if v is None else v * 1000 for k, v in ms.items()},
        "samples": len(latencies),
        "attempted": len(all_reasons),
        "failed": failed,
        "unknown_failed": unknown,
        "reasons": reasons.most_common(MAX_REASONS),
        "peak_rss_mb": peak_rss_mb,
        "rss_samples": wl.rss_of,
        "notes": wl.notes(),
    }


def traced(make, seed):
    import tracing

    plain = make()
    plain.setup()

    # one untraced pass: the traced cli-oneshot run must still end within
    # the run's time limit on a slow host
    t0 = time.perf_counter()
    plain.run_pass(0)
    untraced_wall = time.perf_counter() - t0
    plain.close()
    tracer = tracing.Tracer()
    patches = tracer.install()
    try:
        wl = make()
        wl.setup()

        def mark(i):
            tracer.op = i
        t0 = time.perf_counter()
        records = wl.run_pass(0, mark)
        traced_wall = time.perf_counter() - t0
    finally:
        patches.restore()
    failed, unknown, reasons = tally(wl.check_pass(0, records))
    wl.close()

    counted = make()
    counts = tracing.count_calls(lambda: (counted.setup(), counted.run_pass(0)))
    counted.close()

    metrics = tracing.layer_metrics(tracer, counts)
    metrics.update(tracing.micro_rates(seed))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "trace_file": str(path.relative_to(ROOT)),
        "attempted": len(records),
        "failed": failed,
        "unknown_failed": unknown,
        "reasons": reasons.most_common(MAX_REASONS),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args()

    def make():
        wl = WORKLOADS[args.workload](args.seed)
        wl.in_process = args.mode == "trace"
        return wl

    if args.mode == "trace":
        result = traced(make, args.seed)
    else:
        wl = make()
        wl.setup()
        setup_done = time.monotonic()
        try:
            result = timed(wl, args.seconds) if args.mode == "run" else {}
        finally:
            wl.close()
        result["setup_done"] = setup_done
    print(json.dumps(result))


if __name__ == "__main__":
    main()
