#!/usr/bin/env python3
"""Builds and runs the rgleak benchmark.

Usage, from the repository root:

    python3 rgbench/run.py --workload corner_signoff|mc_validate|placed_batch \
        --seed N --seconds S --trace 0|1

The first run configures and builds the library and the benchmark program
(RelWithDebInfo, the repository's default build type) under .bench_build/.
Generated inputs (characterized libraries, netlists, journals) go to a fresh
directory under .bench_work/ that is removed afterwards. The last line of
stdout is the result object; the line before it is the run's fingerprint and
context (sample counts, check details).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "rgbench"
WORK = ROOT / ".bench_work"
BINARY = BUILD / "rgbench"
RUN_TIMEOUT_S = 170
# Compiler temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs()), "--target", "rgbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return BINARY.exists()


def source_digest():
    """sha256 over the library sources, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["corner_signoff", "mc_validate", "placed_batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", type=int, choices=[0, 1], default=0,
                    help="reduced problem sizes (the benchmark's own tests)")
    ap.add_argument("--perturb", default="",
                    help="perturb the value guarded by this output check (tests)")
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        return 1
    build_s = time.monotonic() - t0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--small", str(args.small)]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"benchmark printed no result (exit {proc.returncode})")
        return 1
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        log(f"unreadable benchmark output: {e}")
        return 1
    info.update({"commit": commit(), "src_sha256": source_digest(),
                 "build_s": round(build_s, 3), "workload": args.workload,
                 "trace": args.trace})
    print(json.dumps({"fingerprint": info}))
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
