#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--size full|tiny]

Run from the root of a checkout.  Builds the simulator libraries and the
perfbench binary from source into .bench_build/perfbench (incremental after
the first run), then runs one workload, or every workload in turn with
`--workload all`.  Build output goes to stderr; the benchmark's report goes
to stdout, and its last line is the JSON result (for `all`, the workloads'
results combined, with metrics named <workload>.<metric>).  Unknown flags,
bad values and --help print usage and exit with status 2.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fig8", "fig8-warm", "dse-auto", "serve", "mapreduce"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


class StrictParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(2)


def bounded_int(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", add_help=False, allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=bounded_int(0, 2**63 - 1))
    p.add_argument("--seconds", required=True, type=bounded_int(1, 3600))
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    p.add_argument("-h", "--help", action="store_true")
    args = p.parse_args(argv)
    if args.help:
        p.print_usage(sys.stderr)
        sys.exit(2)
    return args


def source_id():
    """Git commit when the checkout is a repository, else a digest of the
    sources the benchmark builds (an exported source tree has no history)."""
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: " + " ".join(cmd) + "\n")
            sys.exit(1)


def main(argv):
    args = parse_args(argv)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write(f"perfbench: no simulator sources under {ROOT / 'src'}\n")
        return 2
    build()
    commit = source_id()

    def command(workload):
        return [str(BUILD / "perfbench"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", args.trace, "--size", args.size, "--commit", commit]

    sys.stdout.flush()
    if args.workload != "all":
        return subprocess.run(command(args.workload), cwd=ROOT).returncode
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(command(workload), cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines), flush=True)
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
