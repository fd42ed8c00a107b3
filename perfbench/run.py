#!/usr/bin/env python3
"""Builds muxbench from source and runs one benchmark workload (or all).

    python3 perfbench/run.py --workload cold_attack --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all                  # every workload, timed
    python3 perfbench/run.py --selftest                      # the helper unit tests

The library under ../src is compiled together with muxbench into
.bench_build/perfbench (Release, the repository's own flags); later runs only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is always the result JSON. Exit codes follow muxbench: 0 when every output
gate passed, 3 on a gate failure, 2 on an error (including a missing source
tree), 1 on bad arguments.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["cold_attack", "warm_serve", "campaign_sweep"]


def fail(msg, code=2):
    print("error: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src; run from a full checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def source_id():
    """Content digest of the library and benchmark sources; it identifies them
    even outside a git checkout, where the build records no commit id."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def git_sha():
    """The checkout's commit, read at every run: the build records its commit
    only when it is configured. 'unknown' outside a git checkout; git does not
    look for a repository above the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(binary, workload, args, ids):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + ids
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required", 1)
    if args.seed < 1 or args.seconds < 1:
        fail("--seed and --seconds must be positive", 1)

    binary = build("muxbench")
    ids = ["--source-id", source_id(), "--git-sha", git_sha()]
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, ids)
        sys.exit(code)

    # Every workload in its own process (peak RSS and the pool stay per
    # workload); the last line merges their results under prefixed names.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(binary, w, args, ids)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        if code not in (0, 3) or not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
