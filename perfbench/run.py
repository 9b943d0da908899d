#!/usr/bin/env python3
"""Repository benchmark: build it from source, run one workload.

    python3 perfbench/run.py --petd-threads 2 --petd-shards 2 \\
        --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The C++ benchmark (perfbench/src) and
the petd it drives are built with CMake into $CARGO_TARGET_DIR (default
.bench_build).  Its standard output is passed through;
its last line is the JSON result.  README.md describes the workloads and
metrics.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "serve_miss", "serve_hit", "serve_churn")
GOLDEN = os.path.join("bench", "golden", "BENCH_table3_pet_slots.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configure once, then (re)build `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no PET source tree around %s; cannot build" % HERE)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.isfile(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.call(step, cwd=ROOT, stdout=sys.stderr) != 0:
            log("build step failed: " + " ".join(step))
            return None
    return out


def run_isolated(cmd, cwd):
    """Run `cmd` in its own session with stdout passed through; afterwards
    kill whatever it left in that session (a petd whose parent died)."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    # SIGTERM unwinds through run_isolated's cleanup instead of killing us
    # with the benchmark (and any petd it started) still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--petd-threads", type=int)
    parser.add_argument("--petd-shards", type=int)
    args = parser.parse_args()

    if args.selftest:
        out = build("perfbench_selftest")
        if out is None:
            return 1
        return run_isolated([os.path.join(out, "perfbench_selftest")],
                            cwd=out)

    if args.workload is None or args.petd_threads is None or \
            args.petd_shards is None:
        parser.error("--workload, --petd-threads and --petd-shards are "
                     "required")
    out = build("perfbench")
    if out is None:
        return 1
    work = os.path.join(out, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    # Relative paths keep petd's socket path short.
    rel = lambda p: os.path.relpath(p, ROOT)
    sys.stdout.flush()
    return run_isolated([
        os.path.join(out, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--petd=" + os.path.join(out, "pet", "tools", "petd"),
        "--golden=" + GOLDEN,
        "--work-dir=" + rel(work),
        "--petd-threads=%d" % args.petd_threads,
        "--petd-shards=%d" % args.petd_shards,
    ], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
