#!/usr/bin/env python3
"""Build and run the itq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced and traced

Run from the root of the repository.  The script builds the release `itq`
binary and the benchmark binary (into $CARGO_TARGET_DIR, default ./target),
then runs the benchmark.  With one workload it replaces itself with the
benchmark binary, whose last line of standard output is the result as JSON.
With no --workload (or --workload all) it runs every workload with --trace 0
and --trace 1 and prints every metric by name, unit and workload.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["calc-relational", "calc-intermediate", "serve-mix"]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for path in ("Cargo.toml", "crates/surface/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            fail(f"{path} not found: run from a checkout of the repository")
    env = dict(os.environ)
    # Benchmark default engine settings: no in-query worker override.
    env.pop("ITQ_PARALLELISM", None)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))
    env["CARGO_TARGET_DIR"] = target
    for manifest, extra in (("Cargo.toml", ["-p", "itq-surface", "--bin", "itq"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        # Cargo's output goes to standard error: standard output carries only
        # the result line.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"`{' '.join(cmd)}` failed")
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    env["ITQ_PERFBENCH_COMMIT"] = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    release = os.path.join(target, "release")
    return env, os.path.join(release, "itq-perfbench"), os.path.join(release, "itq")


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args and args.index(flag) + 1 < len(args) else default


def run_all(env, bench, itq, args):
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "10")
    rows, correct = [], True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [bench, "--workload", workload, "--seed", seed, "--seconds", seconds,
                   "--trace", trace, "--itq", itq]
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"error: {workload} --trace {trace} exited {done.returncode}", file=sys.stderr)
                correct = False
                continue
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            rows.append((workload, trace, result))
    print()
    print(f"{'workload':<18} {'metric':<32} {'value':>16} unit")
    for workload, trace, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<18} {'failed_frac (trace ' + trace + ')':<32} {frac:>16.4g} ratio")
        for name, metric in result["metrics"].items():
            print(f"{workload:<18} {name:<32} {metric['value']:>16.4f} {metric['unit']}")
    print(f"all answers correct: {correct}")
    return 0 if correct else 1


def main():
    args = sys.argv[1:]
    env, bench, itq = build()
    if option(args, "--workload", "all") == "all":
        sys.exit(run_all(env, bench, itq, args))
    os.execve(bench, [bench, *args, "--itq", itq], env)


if __name__ == "__main__":
    main()
