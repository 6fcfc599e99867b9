#!/usr/bin/env python3
"""Builds and runs one workload of the accl benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is compiled from source with
CMake (Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; the first run builds, later runs only check
that the build is current. The last line of standard output is the JSON
result; build output goes to standard error. Span files of traced runs are
written under the build directory. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the repository's %s is missing; nothing to build" % need)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """The result line must carry exactly the declared metrics."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(res)
    want = declared_metrics(trace)
    if list(res["metrics"]) != want:
        return "metrics %s differ from BENCHMARK.json's %s" % (
            list(res["metrics"]), want)
    return None


def run_binary(cmd):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark did not finish in %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the statistics code")
    a = ap.parse_args()

    if a.self_test:
        code, out = run_binary([build("perfbench_stats_test")])
        sys.stdout.write(out)
        sys.exit(code)
    if not a.workload:
        fail("--workload is required")

    binary = build("perfbench")
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    code, out = run_binary([binary, "--workload", a.workload,
                            "--seed", str(a.seed), "--seconds", str(a.seconds),
                            "--trace", str(a.trace), "--out-dir", out_dir])
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    problem = check_result(lines[-1], a.trace == 1) if lines else "no output"
    if problem:
        fail(problem, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
