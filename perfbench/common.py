"""Shared pieces of the benchmark: statistics, process accounting,
the correctness ledger and the result line.

Every workload reports through a :class:`Ledger`: one entry per
operation attempted, with its wall latency, its verb, and whether its
answer passed the benchmark's own check.  A wrong answer is a failed
operation, exactly like a refused or timed-out one.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Process accounting from /proc
# ----------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (0 when it is gone)."""
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return 0.0
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_kb(pid: Optional[int] = None) -> int:
    """Peak resident set (VmHWM) of ``pid`` (default: this process)."""
    path = "/proc/%s/status" % ("self" if pid is None else pid)
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pid_alive(pid: int) -> bool:
    """True when ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return False
    return raw[raw.rindex(")") + 2:].split()[0] not in ("Z", "X")


# ----------------------------------------------------------------------
# The correctness ledger
# ----------------------------------------------------------------------

class Ledger:
    """Operations attempted, their latencies, and wrong answers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        self.by_verb: Dict[str, List[float]] = defaultdict(list)
        #: First few failure descriptions, for the run's stderr.
        self.problems: List[str] = []

    def record(self, verb: str, latency_ms: float, ok: bool,
               detail: str = "") -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_ms)
        self.by_verb[verb].append(latency_ms)
        if not ok:
            self.fail(verb, detail)

    def fail(self, verb: str, detail: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (verb, detail))

    def verb_p50s(self) -> Dict[str, float]:
        return {verb: percentile(values, 50)
                for verb, values in sorted(self.by_verb.items())}


class Rounds:
    """Wall-clock bookkeeping of a run made of equal rounds of work.

    A round is a fixed unit of work, the same on every commit, so a
    faster program runs more rounds rather than different ones.  The
    run's rate and latency percentiles are medians over rounds of each
    round's figure, which a burst of machine noise in one round cannot
    move.  The tail reported is the p90: on a shared two-core machine
    the p99 of a real-fleet op is set by other tenants' scheduling.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.measured_s = 0.0
        self.rates: List[float] = []
        self.p50s: List[float] = []
        self.p90s: List[float] = []
        self.setup_s: List[float] = []

    def more(self) -> bool:
        return self.measured_s < self.seconds

    def add(self, wall_s: float, latencies_ms: List[float]) -> None:
        """One round: its wall time and the latencies of its ops."""
        self.measured_s += wall_s
        if latencies_ms:
            self.rates.append(len(latencies_ms) / wall_s)
            self.p50s.append(percentile(latencies_ms, 50))
            self.p90s.append(percentile(latencies_ms, 90))

    @property
    def ops_per_s(self) -> float:
        return median(self.rates)


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------

def end_to_end(ledger: Ledger, rounds: Rounds, cpu_s: float,
               peak_rss_kb: int) -> Dict[str, dict]:
    """The end-to-end metrics every workload reports."""
    ok_ops = max(1, ledger.attempted - ledger.failed)
    return {
        "setup_s": (median(rounds.setup_s), "s"),
        "ops_per_s": (rounds.ops_per_s, "1/s"),
        "latency_p50_ms": (median(rounds.p50s), "ms"),
        "latency_p90_ms": (median(rounds.p90s), "ms"),
        "cpu_ms_per_op": (1000.0 * cpu_s / ok_ops, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "correct_ratio": (
            (ledger.attempted - ledger.failed) / max(1, ledger.attempted),
            "ratio"),
    }


def emit(correct: bool, ledger: Ledger, metrics: Dict[str, tuple],
         info: Optional[Dict[str, tuple]] = None) -> None:
    """Print informational lines, then the one-line JSON result."""
    for name, (value, unit) in sorted((info or {}).items()):
        print("info %-40s %14.4f %s" % (name, value, unit))
    for name, (value, unit) in sorted(metrics.items()):
        print("metric %-38s %14.4f %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }), flush=True)


def now() -> float:
    return time.perf_counter()
