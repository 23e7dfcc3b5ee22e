#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library, the shipped CLI and the
benchmark driver from source into .bench_build/, runs one workload, and prints
the driver's report; the last line of standard output is one JSON object. An
untraced run measures set-up three times (two set-up-only processes plus the
measured one) and reports the median as setup_s.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("offline-node2vec", "offline-ppr-ooc", "serve-mixed")
SETUP_REPEATS = 3
TOTAL_BUDGET_S = 170.0


def log(text):
    print(text, file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "flexiwalker_cli"],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, timeout=850)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_driver(argv, env, timeout):
    """Runs the driver; returns (exit code, stdout lines)."""
    # Own process group: a timeout kills the driver and any server child.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out: " + " ".join(argv))
        return 1, []
    return proc.returncode, out.splitlines()


def last_json(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        log("run from the root of a checkout: no CMakeLists.txt here")
        return 1
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        return 1
    driver = os.path.join(build_dir, "perfbench")
    cli = os.path.join(build_dir, "flexi", "flexiwalker_cli")

    work_dir = os.path.join(root, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(work_dir, "tmp"))
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(work_dir, "tmp")  # the JIT compiler's scratch files

    deadline = time.monotonic() + TOTAL_BUDGET_S
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--cli", cli, "--work-dir", work_dir]
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                rc, lines = run_driver(base + ["--setup-only"], env, deadline - time.monotonic())
                sample = last_json(lines)
                if rc != 0 or sample is None:
                    log("set-up run failed")
                    return 1
                setup_samples.append(sample["setup_s"])
        rc, lines = run_driver(base, env, deadline - time.monotonic())
        result = last_json(lines)
        if rc != 0 or result is None:
            log("\n".join(lines[-40:]))
            log("benchmark run failed (exit %d)" % rc)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    if setup_samples:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
        print("  setup_s samples: " + ", ".join("%.4f" % s for s in setup_samples) +
              " s (median reported)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
