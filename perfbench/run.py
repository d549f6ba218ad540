#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 40 --trace 0

It builds `repro` (the program under test) and the benchmark binary in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the
benchmark (with two CPUs, on the first, and the server it starts on the
second), and passes its output through: the run record, then, as the
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The exit code is the benchmark's; 0 only when every
correctness check and validity guard passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-hot", "serve-overload")

# Longest a single benchmark process may run before it is stopped.
RUN_TIMEOUT_S = 170

# What a checkout must hold for the benchmark to build the program.
REQUIRED = ("Cargo.toml", "Cargo.lock", "crates/experiments/Cargo.toml", "perfbench/Cargo.toml")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def commit_id(root):
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench/src", "perfbench/Cargo.toml"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(env):
    for command in (
        ["cargo", "build", "--release", "--quiet", "-p", "wsn-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        result = subprocess.run(command, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(command)}")


def main():
    args = parse_args()
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        sys.exit(f"run.py: not a repository checkout (missing {', '.join(missing)}); "
                 "run from the repository root")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "wsn-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--repro", os.path.join(release, "repro"),
        "--root", root,
        "--work", os.path.join(target, "perfbench-work"),
        "--commit", commit_id(root),
    ]
    # With two CPUs, the benchmark (campaign phase, load generator) runs on
    # the first and the server on the second, so that neither waits for
    # the other's CPU and each measurement is scaled by the speed of the
    # CPU it ran on.
    cpus = sorted(os.sched_getaffinity(0))
    pin = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        pin = {cpus[0]}
        command += ["--server-cpu", str(cpus[1])]
    # A process group of its own, so a timeout stops the server it spawned too.
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None,
    )
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.exit(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Nothing the benchmark started may outlive it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
