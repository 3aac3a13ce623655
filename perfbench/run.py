#!/usr/bin/env python3
"""Loopback daemon benchmark for minshare.

Builds the shipped `minshare` binary and the load generator in one cargo
invocation, starts a fresh `minshare serve` per run and drives it over
loopback TCP. Run from the repository root:

    python3 perfbench/run.py --workload interactive_mix_768 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                  # every workload once
    python3 perfbench/run.py --workload all --repeat 10      # steadiness check
    python3 perfbench/run.py --test                          # the benchmark's own tests

The last line of a single run's standard output is one JSON object with
the keys correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1). The exit code is
non-zero when a session failed or answered wrongly.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "loadgen" / "Cargo.toml"
WORKLOADS = ["interactive_mix_768", "bulk_spill_1024", "tenants_768"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def profile_overrides():
    """The root manifest's [profile.release] as --config flags, so the
    benchmark's own workspace builds with the settings a user's build of
    the shipped binary gets."""
    with open(ROOT / "Cargo.toml", "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})

    def flatten(prefix, table):
        for key, value in table.items():
            name = f"{prefix}.{json.dumps(key)}" if "." in key or "*" in key else f"{prefix}.{key}"
            if isinstance(value, dict):
                yield from flatten(name, value)
            else:
                yield f"{name}={json.dumps(value)}"

    args = []
    for item in flatten("profile.release", profile):
        args += ["--config", item]
    return args


def build():
    """Builds the daemon (the `minshare` binary of the CLI package) and the
    load generator in one cargo invocation, so both link one copy of every
    library crate with unified features."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail(f"{ROOT} is not a minshare checkout (no Cargo.toml or crates/cli)")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(MANIFEST),
           "-p", "minshare-cli", "-p", "perfbench-loadgen", *profile_overrides()]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    release = target_dir() / "release"
    return release / "minshare", release / "perfbench-loadgen"


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """One measured run. Returns (exit code, parsed result or None)."""
    daemon, loadgen = binaries
    work = ROOT / ".bench_work"
    cmd = [str(loadgen), "--daemon", str(daemon), "--workdir", str(work / f"{workload}-{os.getpid()}"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = work / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    # Own process group, so a hung or interrupted run is killed together
    # with its daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(out, file=sys.stderr)
        return proc.returncode or 1, None
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    else:
        for line in lines[:-1]:
            if line.startswith(("host:", "net.server.open_stalls")):
                print(f"  {workload} seed {seed}: {line}", flush=True)
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}",
              file=sys.stderr)
        return 1, None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(binaries, workloads, repeat, seed, seconds, trace):
    """Runs each workload `repeat` times on consecutive seeds and prints,
    per metric, the median, the quartiles, the quartile spread as a share
    of the median, and the max/min ratio; flags metrics that do not repeat
    within a tenth."""
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    ok = True
    for w in workloads:
        runs = []
        for i in range(repeat):
            code, result = run_once(binaries, w, seed + i, seconds, trace, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed + i}: run failed (exit {code})")
                ok = False
                continue
            runs.append(result["metrics"])
            print(f"{w} seed {seed + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if not runs:
            continue
        print(f"\n{w}: {len(runs)} runs")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'max/min':>8}  flag")
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            lo, hi = min(vals), max(vals)
            ratio = hi / lo if lo > 0 else float("inf") if hi > 0 else 1.0
            flags = []
            if ratio > 1.1:
                flags.append("varies>10%")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flags.append(f"spread>{bound}/3")
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {ratio:8.3f}  {' '.join(flags)}")
        print(flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs per workload")
    ap.add_argument("--test", action="store_true", help="run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    binaries = build()
    if args.test:
        env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
        sys.exit(subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path", str(MANIFEST),
                                 *profile_overrides()], cwd=ROOT, env=env).returncode)
    if args.repeat:
        sys.exit(0 if steadiness(binaries, workloads, args.repeat, args.seed, args.seconds, args.trace) else 1)
    if len(workloads) == 1:
        code, result = run_once(binaries, workloads[0], args.seed, args.seconds, args.trace)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)
    worst = 0
    for w in workloads:
        code, result = run_once(binaries, w, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": w, **(result or {"correct": False})}), flush=True)
        worst = worst or code or (0 if result else 1)
    sys.exit(worst)


if __name__ == "__main__":
    main()
