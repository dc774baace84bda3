"""eisenring benchmark: cli-oneshot, sweep and census workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report each

Each workload runs in its own fresh single-threaded process (worker.py),
one client in a closed loop.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run that gives the
per-layer metrics.  Set-up time is measured from process start to the
first timed op, in the measuring process and in set-up-only processes
before and after it, and the best is reported.

The report lists every metric with its unit and sample count; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``correct`` is false when any op fails
for a reason that is not one of the open defects the ROADMAP lists;
those still count in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli-oneshot", "sweep", "census")
SETUP_PROBES = 3  # set-up-only processes before the run, and again after it
SETUP_PROBE_S = 1.5  # ... or more of them while they take less than this
RUN_LIMIT_S = 170  # one invocation must end within 180 s
TRACE_MEMORY_LIMIT_BYTES = 512 << 20  # the traced cli-oneshot run answers requests in-process
# The result line's metrics and units are the ones BENCHMARK.json declares.
# Besides the per-layer metrics there, the report prints the times of layers
# only some workloads reach (oracle.search_s.<carrier>, oracle.verify_theorem_s,
# oracle.hunt_s, tables.enumerate_s, tables.canonical_form_s, tables.parse_s,
# polynomials.parse_s, eisenstein.trace_s, cli.self_s).
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
REPORT_ONLY_UNITS = {"op_p90_ms": "ms", "op_p99_ms": "ms", "failed_frac": "ratio"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def worker(root, workload, seed, seconds, mode, deadline):
    """Run worker.py; return (its JSON result, monotonic spawn time)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    limit = None
    if mode == "trace" and workload == "cli-oneshot":
        def limit():
            resource.setrlimit(resource.RLIMIT_AS,
                               (TRACE_MEMORY_LIMIT_BYTES, TRACE_MEMORY_LIMIT_BYTES))
    spawned = time.monotonic()
    try:
        p = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.monotonic()), preexec_fn=limit)
    except subprocess.TimeoutExpired:
        fail(f"{workload} {mode} worker did not finish in time")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"{workload} {mode} worker exited with {p.returncode}")
    return json.loads(lines[-1]), spawned


def measure(root, workload, seed, seconds, trace, deadline):
    if trace:
        result, _ = worker(root, workload, seed, seconds, "trace", deadline)
        return result

    def probe_setups():
        """Set-up-only processes, at least SETUP_PROBES of them, for about
        SETUP_PROBE_S seconds."""
        start = time.monotonic()
        for k in itertools.count():
            if k >= SETUP_PROBES and time.monotonic() - start > SETUP_PROBE_S:
                return
            probe, spawned = worker(root, workload, seed, seconds, "setup", deadline)
            setups.append(probe["setup_done"] - spawned)

    setups = []
    probe_setups()
    result, spawned = worker(root, workload, seed, seconds, "run", deadline)
    setups.append(result["setup_done"] - spawned)
    probe_setups()
    # every set-up does the same work, so the best one is the steady
    # estimate of its cost, as with best-of-passes; probing before and
    # after the run spreads the set-ups over its whole length, past the
    # host's slow spells
    result["setup_s"] = min(setups)
    result["setup_samples"] = len(setups)
    return result


def report(workload, r, trace):
    """Print the human-readable report; return the contract metrics."""
    print(f"== {workload}")
    frac = r["failed"] / r["attempted"]
    if trace:
        for name, (value, unit) in sorted(r["metrics"].items()):
            print(f"  {name:<34} {value:>16.6g} {unit}")
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name not in r["metrics"] or r["metrics"][name][1] != unit:
                fail(f"the traced run gives no {name} in {unit}, as BENCHMARK.json declares")
            metrics[name] = {"value": r["metrics"][name][0], "unit": unit}
        overhead = r["traced_wall_s"] - r["untraced_wall_s"]
        print(f"  tracing overhead: {overhead:.3f} s = traced pass {r['traced_wall_s']:.3f} s"
              f" - untraced pass {r['untraced_wall_s']:.3f} s; {r['spans']} spans"
              f" written to {r['trace_file']}")
        print("  no waiting metric: nothing in the program waits on a queue or a lock")
    else:
        n, how = r["samples"], r["estimate"]
        r["failed_frac"] = frac
        samples = {
            "setup_s": f"best of {r['setup_samples']} set-ups",
            "wall_s": how,
            "ops_per_s": f"{n} ops, {how}",
            "op_p50_ms": f"{n} ops, {how}",
            "op_p90_ms": f"{n} ops, {how}",
            "op_p99_ms": f"{n} ops, {how}",
            "failed_frac": f"{r['failed']} of {r['attempted']} ops",
            "peak_rss_mb": r["rss_samples"],
        }
        for name, unit in {**END_TO_END, **REPORT_ONLY_UNITS}.items():
            value = r[name]
            shown = "n/a (fewer than ten samples beyond it)" if value is None else f"{value:.6g}"
            print(f"  {name:<12} {shown:>16} {unit:<6} {samples[name]}")
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END.items()}
        for key, value in r["notes"].items():
            print(f"  {key}: {value}")
    if trace:
        print(f"  failed_frac {frac:.6g} ({r['failed']} of {r['attempted']} ops in the traced pass)")
    for reason, count in r["reasons"]:
        print(f"  failure x{count}: {reason}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S * (3 if args.workload == "all" else 1)

    root = Path.cwd()
    if not (root / "src" / "eisenring" / "cli.py").is_file() or not (root / "tables").is_dir():
        fail("run from the root of an eisenring checkout (src/eisenring and tables/ are missing)")
    missed = checks.self_check()
    if missed:
        fail("self-check failed: " + "; ".join(missed))

    env = environment(root, args.seed)
    print("perfbench " + json.dumps({**env, "seconds": args.seconds, "trace": args.trace}))
    print("self-check: a planted wrong witness and a planted refuted Satisfied verdict"
          " are both counted as failures")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        r = measure(root, name, args.seed, args.seconds, args.trace, deadline)
        m = report(name, r, args.trace)
        correct &= r["unknown_failed"] == 0
        attempted += r["attempted"]
        failed += r["failed"]
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
