#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 sipbench/run.py --workload ccd --seed 1 --seconds 20 --trace 0

Configures and builds sipbench/ (the runtime libraries from src/ plus the
sipbench driver) into .bench_build/, runs the driver with its scratch
files under .bench_out/, and relays its output. The last line is one JSON
object with the keys correct, attempted, failed and metrics; its metric
names must be the end_to_end (--trace 0) or per_layer (--trace 1) names
of BENCHMARK.json. Exits non-zero, without printing a result, when the
build fails, the driver dies or hangs, or its result line is malformed.
The driver's own exit status (1: a run missed its reference, 3: a run
passed its deadline) is passed through.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and brings the sipbench target up to date (both are
    quick no-ops once built)."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "sipbench",
              "-j", BUILD_JOBS]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "sipbench")


def reap_all():
    """Waits for every child, including orphaned spawned ranks that this
    process adopted as subreaper."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_driver(exe, args):
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    command = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", OUT_DIR]
    # Spawned ranks outlive a killed driver as orphans; adopting them lets
    # reap_all() wait for each one.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reap_all()
        for name in os.listdir(OUT_DIR):
            if name.startswith("work-") or name == "tmp":
                shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)
    if out is None:
        fail("sipbench did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def check_result(line, trace):
    """Returns the parsed result line, or fails if it breaks the contract."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = json.loads(line)
    except (OSError, ValueError) as error:
        fail("cannot check the result line: %s" % error)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result))
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    status, out = run_driver(exe, args)
    lines = out.rstrip("\n").split("\n")
    if status not in (0, 1, 3) or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("sipbench exited with status %d and no result" % status)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
