#!/usr/bin/env python3
"""Build and run the probcons benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a probcons source tree. It builds
perfbench/bench.exe with dune (release profile) into the build directory
named by CARGO_TARGET_DIR, or .bench_build, runs one workload and relays
its output: the last line of standard output is the JSON result. It exits
non-zero without printing a result when the source tree is incomplete or
the build or the run fails.

Workloads: cached-read, analysis-mix, replicated-write, leader-failover.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cached-read", "analysis-mix", "replicated-write", "leader-failover")
REQUIRED = ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml")
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return candidates[0] if candidates else None


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a probcons source tree (missing %s)" % ", ".join(missing), 2)
    dune = find_dune()
    if dune is None:
        fail("dune not found", 2)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "dune"))
    os.makedirs(build_root, exist_ok=True)
    try:
        subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")

    # Scratch space for sockets and replica state, kept relative so Unix
    # socket paths stay short.
    tmp = os.path.relpath(os.path.join(build_root, "run-%d" % os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        result = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", tmp, "--nproc", str(len(os.sched_getaffinity(0))),
             "--source", source_id()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("run failed: %s" % e)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        fail("bench.exe exited with code %d" % result.returncode)
    final = json.loads(lines[-1])
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(result.stdout)
        fail("malformed result line")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
