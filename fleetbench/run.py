#!/usr/bin/env python3
"""Fleet-campaign benchmark entry point.

Builds the benchmark and the UpKit libraries from this checkout's sources
(once; later runs reuse the build), then runs one workload:

    python3 fleetbench/run.py --workload fleet_full --seed 1 --seconds 25 --trace 0

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
when that is set, else to .bench_build. The last line of standard output
is the result object; the line before it carries the host block, the speed
probe and the campaign fingerprint. Extra flags (--smoke) are passed to the
benchmark binary. Exits nonzero, printing no result, when the
sources are missing, the build fails or an output check fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds the fleetbench target; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("UpKit sources (src/) not found next to fleetbench/")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".fleetbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "fleetbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "fleetbench")


def source_id():
    """Git commit of the checkout, or a digest of its sources outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "fleetbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()

    try:
        binary = build(build_dir())
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"fleetbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", source_id(), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"fleetbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"fleetbench: benchmark exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS or not result["correct"]:
        print(proc.stdout, end="", file=sys.stderr)
        print("fleetbench: malformed or incorrect result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    print(f"fleetbench: {args.workload} done in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
