#!/usr/bin/env python3
"""Benchmark of the ASI fabric discovery simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the `perfbench` package (in
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs repetitions of
the workload, each in a fresh process, for about `--seconds` seconds
(at least five; three pairs with `--trace 1`), all with the same
seed. Every repetition's outputs
are checked; their deterministic outputs must be identical across
repetitions and between traced and untraced runs.

`--trace 0` reports the end-to-end metrics (medians over repetitions).
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics; the spans of the last traced repetition are written
to `$CARGO_TARGET_DIR/perfbench-spans/`. `--workload all` runs every
workload in turn.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit status: 0 on success, 1 when an output check fails, 2 on a build
or usage error.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("df_cold", "mesh_serial", "df_lossy", "mesh_loaded")
DEFAULT_SEED = 0xA51
MIN_REPS = 5
MIN_TRACED_REPS = 3
REP_TIMEOUT_S = 150

# name -> (unit, deterministic). Host-time metrics are medians over the
# repetitions; deterministic ones must repeat exactly.
END_TO_END = {
    "setup_s": ("s", False),
    "run_s": ("s", False),
    "peak_rss_mb": ("MiB", False),
    "sim_discovery_s": ("sim_s", True),
    "device_found_share": ("fraction", True),
}
PER_LAYER = {
    "topo.build_s": ("s", False),
    "topo.validate_s": ("s", False),
    "fabric.new_s": ("s", False),
    "fabric.bringup_s": ("s", False),
    "fabric.bringup_events": ("count", True),
    "fabric.step_self_s": ("s", False),
    "fabric.ns_per_event": ("ns", False),
    "fabric.injected": ("count", True),
    "fabric.forwarded": ("count", True),
    "fabric.delivered": ("count", True),
    "fabric.dropped": ("count", True),
    "fabric.credit_stalls": ("count", True),
    "fabric.data_queue_peak": ("count", True),
    "fabric.mgmt_queue_peak": ("count", True),
    "fabric.flow_delivered_share": ("fraction", True),
    "fabric.flow_latency_p99_us": ("sim_us", True),
    "sim.events": ("count", True),
    "sim.events_total": ("count", True),
    "sim.events_per_request": ("count", True),
    "core.fm_self_s": ("s", False),
    "core.fm_calls": ("count", True),
    "core.fm_ns_per_call": ("ns", False),
    "core.requests": ("count", True),
    "core.responses": ("count", True),
    "core.response_share": ("fraction", True),
    "core.timeouts": ("count", True),
    "core.retries": ("count", True),
    "core.abandoned": ("count", True),
    "core.peak_outstanding": ("count", True),
    "core.fm_busy_share": ("fraction", True),
    "harness.pi5_routes_s": ("s", False),
    "mem.fabric_mb": ("MiB", False),
    "mem.discovery_mb": ("MiB", False),
    "mem.kb_per_device": ("KiB", False),
    "trace.total_s": ("s", False),
    "trace.unaccounted_share": ("fraction", False),
    "trace.overhead_share": ("fraction", False),
}


def build():
    """Builds the benchmark binary; returns its path."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(here, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"error: cannot build the benchmark: {e}")
    if done.returncode != 0:
        sys.exit(2)
    return os.path.join(target, "release", "perfbench"), target


def repetition(binary, workload, seed, traced, spans=None):
    """Runs one repetition; returns its JSON report (with "errors")."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if spans:
            cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition exceeded {REP_TIMEOUT_S} s"]}
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"errors": [f"repetition exited {done.returncode} without a report"]}
    if done.returncode != 0 and not report.get("errors"):
        report["errors"] = [f"repetition exited {done.returncode}"]
    return report


def same(values, what, errors):
    """Records an error unless every value is identical."""
    if any(v != values[0] for v in values[1:]):
        errors.append(f"{what} differs between repetitions: {sorted(set(map(str, values)))}")
    return values[0]


def run_workload(binary, target, workload, seed, seconds, trace):
    started = time.monotonic()
    plain, traced = [], []
    spans = None
    if trace:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-{seed}.jsonl")
    while True:
        t = time.monotonic()
        plain.append(repetition(binary, workload, seed, False))
        if trace:
            traced.append(repetition(binary, workload, seed, True, spans))
        took = time.monotonic() - t
        reps = plain + traced
        if any(r["errors"] for r in reps):
            break
        if (len(plain) >= (MIN_TRACED_REPS if trace else MIN_REPS)
                and time.monotonic() - started + took > seconds):
            break

    errors = [f"{workload}: {e}" for r in reps for e in r["errors"]]
    failed = sum(1 for r in reps if r["errors"])
    metrics = {}
    if not errors:
        same([r["signature"] for r in reps], "deterministic output", errors)
        if trace:
            layers = [r["layers"] for r in traced]
            for name, (unit, exact) in PER_LAYER.items():
                if name == "trace.overhead_share":
                    value = (statistics.median(l["trace.total_s"] for l in layers)
                             / statistics.median(r["run_s"] for r in plain) - 1.0)
                elif exact:
                    value = same([l[name] for l in layers], name, errors)
                else:
                    value = statistics.median(l[name] for l in layers)
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, (unit, exact) in END_TO_END.items():
                if name == "setup_s":
                    # Each repetition sets up several times, in one burst.
                    # Sample j is the mean of every repetition's j-th
                    # set-up, so each sample spans the whole run and a
                    # host speed that changes between repetitions moves
                    # all samples alike instead of splitting them in two.
                    n = min(len(r[name]) for r in plain)
                    values = [statistics.mean(r[name][j] for r in plain) for j in range(n)]
                else:
                    values = [r[name] for r in plain]
                value = same(values, name, errors) if exact else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}

    print(f"{workload} seed={seed} repetitions={len(plain)} untraced"
          + (f", {len(traced)} traced" if trace else ""))
    for name, m in metrics.items():
        print(f"  {name:28} {m['value']:>16.6g} {m['unit']}")
    if trace and spans:
        print(f"  spans: {spans}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    result = {"correct": not errors, "attempted": len(reps),
              "failed": max(failed, 1 if errors else 0), "metrics": metrics}
    print(json.dumps(result))
    return not errors


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps the
    # repetition in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or not 0 <= args.seed < 2**64:
        parser.error("--seconds must be positive and --seed a 64-bit unsigned integer")
    binary, target = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok &= run_workload(binary, target, workload, args.seed, args.seconds, args.trace)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
