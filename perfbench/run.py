#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release profile) with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs it with the same arguments. The binary prints a summary, a run record
and, as the last line of standard output, the result object. Build output
goes to standard error. The exit code is the binary's, or non-zero without
a result when the build fails.

`--workload all` runs every workload of BENCHMARK.json in turn and exits
non-zero if any of them does.

Every workload runs pinned to the last CPU (with `taskset`, when
present). Threads that hand work to each other (the sharded engine's
workers, the daemon and its clients) then do so on one core, and the
numbers stop depending on how fast the host wakes an idle virtual CPU,
which on a shared 2-vCPU host moved them by up to 4x between runs.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Sources whose content identifies the measured code when no git
# metadata is available.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "models", "perfbench/src",
           "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/spec.json",
           "BENCHMARK.json"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the benchmark's and the program's source files."""
    h = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = []
        if os.path.isfile(path):
            files = [path]
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "target")
                files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(cmd, env, timeout, stdout):
    """Runs cmd to completion; kills it and waits on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST]
    code = run(build, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    in_repo = command_output(["git", "rev-parse", "--show-toplevel"]) == ROOT
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"]) if in_repo else "none"
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_SOURCE"] = source_digest()
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        at = args.index("--workload") + 1
        if args[at] == "all":
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                names = [w["name"] for w in json.load(fh)["workloads"]]
            codes = [run_one(binary, args[:at] + [name] + args[at + 1:], env) for name in names]
            return next((c for c in codes if c != 0), 0)
    return run_one(binary, args, env)


def run_one(binary, args, env):
    cmd = [binary] + args
    taskset = shutil.which("taskset")
    pinned = bool(taskset and os.cpu_count())
    if pinned:
        cmd = [taskset, "-c", str(os.cpu_count() - 1)] + cmd
    env = dict(env, PERFBENCH_PINNED="1" if pinned else "0")
    return run(cmd, env, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
