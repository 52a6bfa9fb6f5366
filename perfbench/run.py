#!/usr/bin/env python3
"""Benchmark runner for the ssmcast simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds `perfbench/` (a Cargo package of its own, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs one workload sample per child
process until `--seconds` have passed, so each sample's peak RSS is its own. The seed
selects one of the workload's inputs in `perfbench/pinned.json` (`seed % 16`; no seed
means input 0, the scenario's pinned seed). Every sample is checked: the simulator's
own invariants (delivery bounds, energy conservation), and the report digest and event
count pinned for that input. A sample that fails a check counts as failed.

With `--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`, from
untraced samples. Timings are the run's fastest sample (highest rate), not its median:
on a shared host, co-tenant load slows single samples by up to 1.8x in episodes of
several seconds, and the fastest sample is the estimate of the program's own cost that
such episodes disturb least. With `--trace 1` untraced and traced samples alternate;
the metrics are the per-layer ones, medians over the traced samples, plus the tracing
overhead and the p95 of per-cell seconds over the untraced samples.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measuring must end well within three minutes even if a sample overruns.
HARD_LIMIT_S = 150.0
MIN_SAMPLES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no simulator sources next to the benchmark (expected {ROOT}/crates)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-1 over the simulator's sources, for checkouts that are not git repositories."""
    h = hashlib.sha1()
    files = []
    for top in ("crates", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml"))]
    for path in files + [os.path.join(ROOT, "Cargo.toml")]:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_stamp():
    """CPU model, core count, compiler, source revision and build profile."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def output(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = output(["git", "rev-parse", "HEAD"]) or "tree-sha1:" + source_digest()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output(["rustc", "-V"]) or "unknown",
        "commit": commit,
        "profile": "release",
    }


def run_sample(binary, workload, scenario_seed, traced, deadline):
    """Run one sample in a child process; return its parsed JSON or an error string."""
    cmd = [binary, "sample", "--workload", workload, "--scenario-seed", str(scenario_seed)]
    if traced:
        cmd.append("--traced")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "sample timed out"
    if done.returncode != 0:
        return f"sample exited {done.returncode}: {done.stderr.strip()[-500:]}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "sample printed no JSON"


def check(sample, expected):
    """Correctness violations of one sample against the pinned digest and events."""
    if isinstance(sample, str):
        return [sample]
    problems = list(sample["errors"])
    _, digest, events = expected
    if sample["digest"] != digest:
        problems.append(f"report digest {sample['digest']} != pinned {digest}")
    if sample["events"] != events:
        problems.append(f"events {sample['events']} != pinned {events}")
    return problems


def end_to_end(samples):
    return {
        "wall_s": min(s["wall_s"] for s in samples),
        "setup_s": min(s["setup_s"] for s in samples),
        "events_per_s": max(s["events"] / s["simulate_s"] for s in samples),
        "peak_rss_mib": statistics.median(s["peak_rss_kib"] / 1024.0 for s in samples),
    }


def per_layer(traced, untraced):
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    fastest = min(s["simulate_s"] for s in untraced)
    values["trace.overhead_frac"] = min(s["simulate_s"] for s in traced) / fastest
    cells = [c for s in untraced for c in s["cells_s"]]
    values["cell_p95_s"] = statistics.quantiles(cells, n=20)[18] if len(cells) > 1 else cells[0]
    return values


def main():
    args = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    if args.workload not in pinned["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    variant = 0 if args.seed is None else args.seed % pinned["seed_variants"]
    expected = pinned["workloads"][args.workload][variant]
    binary = build()
    stamp = host_stamp()
    print("host " + json.dumps(stamp, sort_keys=True))

    measure_from = time.monotonic()
    deadline = measure_from + HARD_LIMIT_S
    untraced, traced, attempted, failed = [], [], 0, 0
    last_s = 0.0
    # A traced run alternates untraced and traced samples and stops after a pair.
    per_round = 2 if args.trace else 1
    while time.monotonic() < deadline:
        # Start no sample that would likely end after `--seconds`.
        ends_at = time.monotonic() - measure_from + last_s
        if (ends_at > args.seconds and attempted >= MIN_SAMPLES * per_round
                and attempted % per_round == 0):
            break
        want_traced = attempted % per_round == 1
        sample_start = time.monotonic()
        sample = run_sample(binary, args.workload, expected[0], want_traced, deadline)
        last_s = time.monotonic() - sample_start
        attempted += 1
        problems = check(sample, expected)
        if problems:
            failed += 1
            print(f"failed sample: {'; '.join(problems)}", file=sys.stderr)
            continue
        (traced if want_traced else untraced).append(sample)

    if not untraced or (args.trace and not traced):
        fail("no sample passed its checks")

    if args.trace:
        values, listed = per_layer(traced, untraced), spec["per_layer"]
    else:
        values, listed = end_to_end(untraced), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced samples "
          f"in {time.monotonic() - measure_from:.1f} s on {stamp['cpu']} x{stamp['nproc']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
