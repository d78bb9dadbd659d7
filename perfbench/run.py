#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload cold-project|edit-session|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # every workload, small, oracles on

Run from the root of a checkout. Binaries go to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files to `.bench_work/`, removed after
the run except a traced run's spans (`.bench_work/trace-<workload>.jsonl`).
The last line of stdout is the run's JSON result.
"""
import glob
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold-project", "edit-session", "serve-mix"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        fail("no workspace here: run from the root of a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "vault-cli", "-p", "vault-server", "--bin", "vaultc", "--bin", "vaultd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(target, "release")


def run_one(root, bin_dir, argv, smoke=False):
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(bin_dir, "perfbench"), *argv, "--bin-dir", bin_dir, "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=root).returncode
    finally:
        # Keep the spans of a traced run; drop everything else.
        for spans in glob.glob(os.path.join(work, "trace-*.jsonl")):
            shutil.move(spans, os.path.join(root, ".bench_work", os.path.basename(spans)))
        shutil.rmtree(work, ignore_errors=True)


def main():
    root = os.getcwd()
    argv = sys.argv[1:]
    if argv == ["--smoke"]:
        bin_dir = build(root)
        for w in WORKLOADS:
            for trace in ("0", "1"):
                rc = run_one(root, bin_dir, ["--workload", w, "--seed", "1", "--seconds", "1",
                                             "--trace", trace], smoke=True)
                if rc != 0:
                    fail(f"smoke run of {w} (trace {trace}) exited {rc}")
        return 0
    flags = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(flags) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 (or --smoke)")
    if flags["--workload"] not in WORKLOADS:
        fail(f"unknown workload {flags['--workload']}")
    bin_dir = build(root)
    return run_one(root, bin_dir, argv)


if __name__ == "__main__":
    sys.exit(main())
