"""The repository benchmark: real-fleet tool verbs, with a traced run
that splits them by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload real_control --seed 1 \
        --seconds 10 --trace 0

Workloads (see ``WORKLOADS`` below and ``BENCHMARK.json``):
``real_control``, ``real_lifecycle``.

``--trace 0`` times the workload and prints the end-to-end metrics.
``--trace 1`` makes a separate run: an untraced pass, then a traced
pass of the same work with every layer's entry points wrapped by the
benchmark's own probes (:mod:`layers`); it prints the per-layer table,
``bench.driver_ms`` and ``trace_overhead_ratio``, and writes the spans
to ``perfbench/out/``.

Each run checks every answer.  A wrong answer, a refused operation, or
anything left behind by a real fleet is a failed operation and makes
``correct`` false.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program under test is imported from ``src/`` of the checkout this
file sits in, and nowhere else; without it the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Why each workload exists, its input, client model, shape, and the
#: layers it should and should not load.
WORKLOADS = {
    "real_control": {
        "seed": "picks the op sequence (verb and sleeper per op)",
        "client": "closed loop, one client, one persistent tool stream",
        "shape": "3 serve processes on loopback, 6 remote sleepers, "
                 "rounds of 48 ops",
        "loads": "run_until_true pump, framing, wire, node dispatch, "
                 "LPM tool verbs, localos state_of/control",
        "spares": "dials, registry, pmd bootstrap, spawn, /proc scans",
    },
    "real_lifecycle": {
        "seed": "picks each user's create targets",
        "client": "closed loop, one client, a fresh tool per iteration",
        "shape": "3 serve processes on loopback, rounds of 3 fresh users "
                 "x 6 iterations (bootstrap, create, snapshot, kill) "
                 "plus a closing snapshot per user",
        "loads": "dials, registry lookups, pmd bootstrap, sibling set-up, "
                 "localos spawn, /proc scans, gathers",
        "spares": "stop/cont and state_of polling of long-lived "
                  "processes",
    },
}


def _import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/`` only."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program at %s" % src, file=sys.stderr)
        return False
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print("perfbench: cannot import repro: %s" % exc, file=sys.stderr)
        return False
    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print("perfbench: repro came from %s, not %s" % (where, src),
              file=sys.stderr)
        return False
    return True


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def run(options) -> int:
    from common import emit, end_to_end, percentile

    workload = options.workload
    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(HERE, ".run", "%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    if options.trace:
        os.makedirs(out_dir, exist_ok=True)
    spans_out = os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                             % (workload, options.seed))
    try:
        from real import run_real
        if not options.trace:
            result = run_real(workload, options.seed, options.seconds,
                              run_dir, corrupt=options.corrupt)
            metrics = end_to_end(result["ledger"], result["rounds"],
                                 result["cpu_s"], result["peak_rss_kb"])
            info = _real_info(result)
        else:
            from report import real_layers
            untraced = run_real(workload, options.seed, options.seconds,
                                run_dir, setups=1, corrupt=options.corrupt)
            traced = run_real(workload, options.seed, options.seconds,
                              run_dir, setups=1, traced=True,
                              corrupt=options.corrupt)
            metrics = real_layers(untraced, traced, spans_out)
            result = _combine(untraced, traced)
            info = _real_info(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    ledger = result["ledger"]
    for problem in ledger.problems:
        print("wrong: %s" % problem, file=sys.stderr)
    info["info.failed_ratio"] = (ledger.failed / max(1, ledger.attempted),
                                 "ratio")
    info["info.latency_p99_ms"] = (percentile(ledger.latencies_ms, 99),
                                   "ms")
    emit(ledger.failed == 0, ledger, metrics, info)
    return 0


def _real_info(result: dict) -> dict:
    info = {"info.rounds": (len(result["rounds"].rates), "count")}
    for verb, value in result["ledger"].verb_p50s().items():
        info["info.%s_p50_ms" % verb] = (value, "ms")
    return info


def _combine(untraced: dict, traced: dict) -> dict:
    """The traced run's ledger covers both of its passes."""
    from common import Ledger

    ledger = Ledger()
    for part in (untraced["ledger"], traced["ledger"]):
        ledger.attempted += part.attempted
        ledger.failed += part.failed
        ledger.problems += part.problems
    return {"ledger": ledger}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="expect a wrong answer on purpose, so the "
                             "checks must fail (self-test only)")
    options = parser.parse_args(argv)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if not _import_program():
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    return run(options)


if __name__ == "__main__":
    sys.exit(main())
