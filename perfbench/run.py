#!/usr/bin/env python3
"""Builds and runs the relopt benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve|analytics|join_order|all \
        --seed N [--seed M] --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root. The harness is compiled from source into
.bench_build/perfbench (CMake, Release) on first use; later runs rebuild only
what changed. Each (workload, seed) run prints a human-readable report and,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics; a run whose checks fail says so with "correct": false. A
second --seed repeats the run on that seed, so a claim made on
the development seed can be checked on a held-out one.
"""
import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["serve", "analytics", "join_order"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return build_dir / "relopt_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"relopt sources not found under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    out_dir = root / ".bench_build" / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ident = source_id(root)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        for seed in args.seed:
            cmd = [str(binary), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--size", args.size, "--out-dir", str(out_dir), "--source-id", ident]
            try:
                run = subprocess.run(cmd, capture_output=True, text=True,
                                     timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
            sys.stderr.write(run.stderr)
            lines = run.stdout.rstrip("\n").split("\n")
            if run.returncode != 0 or not lines[-1].startswith("{"):
                sys.stdout.write(run.stdout)
                fail(f"{workload} seed {seed} failed (exit {run.returncode})")
            json.loads(lines[-1])  # the result line must parse
            (out_dir / f"{workload}-seed{seed}-trace{args.trace}.txt").write_text(run.stdout)
            sys.stdout.write(run.stdout)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
