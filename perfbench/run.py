#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload io-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The script configures and builds the
perfbench package (perfbench/CMakeLists.txt, which builds the library
from ../src) into .bench_build/perfbench, runs the perfbench binary, checks that
the metrics it reports are exactly the ones BENCHMARK.json names, and
passes its output through. The last line of stdout is the result JSON.

Exit status is non-zero, with no result printed, when the build fails
(for example when the library sources are missing), when the binary
fails or times out, or when its metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, env, log=None):
    """Runs cmd in its own process group; kills the group on timeout and
    always waits for it. Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE,
                            stderr=log if log is not None else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "-j",
              str(min(4, os.cpu_count() or 1)), "--target"] + targets]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        # Configure once; later builds re-run it themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         "-DPERFBENCH_COMMIT=" + commit_id()])
    with open(log_path, "w") as log:
        for step in steps:
            code, out = run_child(step, BUILD_TIMEOUT_S, env, log)
            log.write(out or "")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(step[:2]), tail))
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        env = build(["perfbench_selftest"])
        code, out = run_child([os.path.join(BUILD, "perfbench_selftest")],
                              RUN_TIMEOUT_S, env)
        sys.stdout.write(out)
        sys.exit(code)
    if not args.workload:
        fail("--workload is required")

    env = build(["perfbench"])
    out_dir = os.path.join(BUILD, "out")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    code, out = run_child(cmd, RUN_TIMEOUT_S, env)
    lines = (out or "").rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out or "")
        fail("perfbench exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out or "")
        fail("perfbench's last line is not JSON")
    want = expected_metrics(args.trace == 1)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) != got[k])))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
