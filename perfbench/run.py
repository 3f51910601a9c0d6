#!/usr/bin/env python3
"""Build and run the fairflow benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: daemon_large, stream_fanout, irf_census (see
perfbench/METRICS.md). The program is built from the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build) with CMake; the first run
builds, later runs only check that the build is current. All working files
stay under the build directory and are removed when the run ends.

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
the run finished and every correctness check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("daemon_large", "stream_fanout", "irf_census")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build the benchmark and fairflowd; output to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "perfbench_wire_test"],
        stdout=sys.stderr, check=True)
    subprocess.run([str(build_dir / "perfbench_wire_test")], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no fairflow sources under {root}; run from a checkout of the repository")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")

    workdir = build_dir / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [
        str(build_dir / "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--daemon", str(build_dir / "fairflow" / "service" / "fairflowd"),
        # Relative, so the daemon's Unix socket path stays short.
        "--workdir", os.path.relpath(workdir, root),
    ]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]

    # The fairflowd processes the benchmark starts die with it
    # (PR_SET_PDEATHSIG), so stopping the benchmark stops them all.
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        process.kill()
        process.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(workdir, ignore_errors=True)
    if process.returncode not in (0, 1):
        sys.stderr.write(output)
        fail(f"benchmark exited with code {process.returncode}")
    sys.stdout.write(output)
    sys.stdout.flush()
    sys.exit(process.returncode)


if __name__ == "__main__":
    main()
