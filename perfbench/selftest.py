#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (tiny fixtures, 2 s windows).

    python3 perfbench/selftest.py

Runs every workload untraced and traced through run.py and checks that each
run passes all its oracles and cross-checks, prints exactly the metrics
BENCHMARK.json names with their units, and writes a loadable Chrome trace.
Finally it checks that run.py fails, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_result(spec, workload, trace, out):
    label = f"{workload} trace={trace}"
    assert out.returncode == 0, f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}"
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label
    assert result["correct"] is True, f"{label}: checks failed\n{out.stdout[-3000:]}"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), label
    print(f"ok  {label}: {result['attempted']} statements")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            out = run(["--workload", workload, "--seed", "1", "--seconds", "2",
                       "--trace", str(trace), "--size", "smoke"])
            check_result(spec, workload, trace, out)
        trace_file = ROOT / ".bench_build" / "perfbench-out" / f"{workload}-seed1.trace.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        assert events and {"name", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
        print(f"ok  {workload}: chrome trace with {len(events)} spans")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    out = run(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    assert out.returncode != 0 and "{" not in out.stdout, "bare directory run must fail"
    shutil.rmtree(bare)
    print("ok  run.py fails without the engine sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
