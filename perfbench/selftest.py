"""Smoke-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload tiny (one second), untraced and traced, and
asserts that the last line is the result object, that it names exactly
the metrics of ``BENCHMARK.json`` with their units, and that every
answer was right.  Then runs every workload with
``--corrupt``, which makes the benchmark expect a wrong answer (a
process located on a host it was not created on), and asserts that the
checks trip: ``correct`` false and ``failed`` above zero.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, (command, done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            units = {name: entry["unit"]
                     for name, entry in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append("%s trace %d: metrics %s differ from "
                                "BENCHMARK.json" % (
                                    workload, trace,
                                    sorted(set(units.items())
                                           ^ set(wanted[trace].items()))))
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append("%s trace %d: %d/%d failed" % (
                    workload, trace, result["failed"],
                    result["attempted"]))
            print("ok   %-15s trace %d  %d ops" % (
                workload, trace, result["attempted"]), flush=True)
        corrupted = run(workload, 0, "--corrupt")
        if corrupted["correct"] or not corrupted["failed"]:
            problems.append("%s: a wrong expected answer went unnoticed"
                            % (workload,))
        print("trip %-15s %d of %d ops flagged" % (
            workload, corrupted["failed"], corrupted["attempted"]),
            flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
