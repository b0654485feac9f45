"""Turning traced runs into the per-layer table.

Every per-layer metric is reported on every workload; a layer a
workload does not exercise reads 0 there.  Times and counts are per
completed operation (``ms/op``, ``count/op``) unless the unit says
otherwise: ``ms`` is a mean or median per event of that kind, and
``ratio`` is a plain ratio.  Serve processes are probed from launch, so
their figures include the fleet's set-up and warm-up work; the client
is probed over the measured rounds only.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict, deque
from typing import Dict, List

from common import median

VERBS = ("session_info", "locate", "control", "bootstrap", "create",
         "snapshot", "kill")
DISPATCH_VERBS = ("session_info", "locate", "control", "create",
                  "snapshot")

REAL_METRICS = [
    ("realnet.fabric.wait_ms", "ms/op"),
    ("realnet.fabric.polls_per_wait", "ratio"),
    ("realnet.fabric.pump_overhead_ms", "ms"),
    ("realnet.fabric.dials", "count/op"),
    ("realnet.fabric.dial_ms", "ms/op"),
    ("realnet.fabric.dial_failures", "count"),
    ("realnet.registry.lookups", "count/op"),
    ("realnet.registry.lookup_ms", "ms/op"),
    ("realnet.framing.frames_encoded", "count/op"),
    ("realnet.framing.encode_ms", "ms/op"),
    ("realnet.framing.feeds", "count/op"),
    ("realnet.framing.frames_per_feed", "ratio"),
    ("realnet.framing.decode_ms", "ms/op"),
    ("core.wire.encodes", "count/op"),
    ("core.wire.encode_ms", "ms/op"),
] + [("realnet.node.dispatch_ms.%s" % verb, "ms")
     for verb in DISPATCH_VERBS] + [
    ("realnet.node.sends", "count/op"),
    ("realnet.node.connections_accepted", "count/op"),
    ("realnet.pmd.bootstraps", "count/op"),
    ("realnet.pmd.lpms_created", "count/op"),
    ("realnet.pmd.bootstrap_ms", "ms/op"),
    ("realnet.lpm.sibling_dials", "count/op"),
    ("realnet.lpm.sibling_ms", "ms/op"),
    ("realnet.lpm.gather_fanout", "ratio"),
    ("localos.backend.spawn_ms", "ms/op"),
    ("localos.backend.refresh_ms", "ms/op"),
    ("localos.backend.state_of_ms", "ms/op"),
    ("localos.backend.control_ms", "ms/op"),
    ("localos.procfs.children_map_calls", "count/op"),
    ("localos.procfs.children_map_ms", "ms/op"),
    ("localos.procfs.read_stat_calls", "count/op"),
    ("serve.cpu_ms_per_op", "ms/op"),
    ("client.cpu_ms_per_op", "ms/op"),
]

BOTH_METRICS = ([("client.%s_p50_ms" % verb, "ms") for verb in VERBS]
                + [("bench.driver_ms", "ms/op"),
                   ("trace_overhead_ratio", "ratio")])

PER_LAYER = REAL_METRICS + BOTH_METRICS


def blank() -> Dict[str, tuple]:
    return {name: (0.0, unit) for name, unit in PER_LAYER}


def _set(table: Dict[str, tuple], name: str, value: float) -> None:
    table[name] = (float(value), table[name][1])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_metrics(table, untraced: dict, traced_ops_per_s: float,
                   bench_ms: float) -> None:
    for verb, value in untraced["ledger"].verb_p50s().items():
        if verb in VERBS:
            _set(table, "client.%s_p50_ms" % verb, value)
    _set(table, "bench.driver_ms", bench_ms)
    _set(table, "trace_overhead_ratio",
         _ratio(untraced["rounds"].ops_per_s, traced_ops_per_s))


# ----------------------------------------------------------------------
# Real fleet
# ----------------------------------------------------------------------

def real_layers(untraced: dict, traced: dict, spans_out: str) -> dict:
    table = blank()
    ledger = untraced["ledger"]
    ok_untraced = max(1, ledger.attempted - ledger.failed)
    bench_ms = 1000.0 * (untraced["wall_s"] - sum(ledger.latencies_ms)
                         / 1000.0) / ok_untraced
    common_metrics(table, untraced, traced["rounds"].ops_per_s, bench_ms)

    tracer, probes = traced["client_trace"]
    processes = [("client", tracer.dump(), probes.dump())]
    for path in traced["serve_trace_files"]:
        with open(path) as handle:
            data = json.load(handle)
        processes.append((os.path.basename(path), data["tracer"],
                          data["probes"]))
    ops = max(1, traced["ledger"].attempted - traced["ledger"].failed)
    calls: Dict[str, float] = defaultdict(float)
    incl: Dict[str, float] = defaultdict(float)
    merged: Dict[str, list] = defaultdict(list)
    scalars: Dict[str, float] = defaultdict(float)
    for _name, dump, probe in processes:
        for key, value in dump["calls"].items():
            calls[key] += value
        for key, value in dump["incl_s"].items():
            incl[key] += value
        for key in ("dial_s", "sibling_s", "gather_peers", "residence"):
            merged[key].extend(probe[key])
        for key in ("dial_failures", "frames_decoded", "polls",
                    "lpms_created"):
            scalars[key] += probe[key]

    def per_op_ms(key: str) -> float:
        return 1000.0 * incl[key] / ops

    _set(table, "realnet.fabric.wait_ms", per_op_ms("realnet.fabric.wait"))
    _set(table, "realnet.fabric.polls_per_wait",
         _ratio(scalars["polls"], calls["realnet.fabric.wait"]))
    _set(table, "realnet.fabric.pump_overhead_ms",
         _pump_overhead(probes.waits, merged["residence"]))
    _set(table, "realnet.fabric.dials", calls["realnet.fabric.connect"] / ops)
    _set(table, "realnet.fabric.dial_ms",
         1000.0 * sum(merged["dial_s"]) / ops)
    _set(table, "realnet.fabric.dial_failures", scalars["dial_failures"])
    _set(table, "realnet.registry.lookups",
         calls["realnet.registry.lookup"] / ops)
    _set(table, "realnet.registry.lookup_ms",
         per_op_ms("realnet.registry.lookup"))
    _set(table, "realnet.framing.frames_encoded",
         calls["realnet.framing.encode"] / ops)
    _set(table, "realnet.framing.encode_ms",
         per_op_ms("realnet.framing.encode"))
    _set(table, "realnet.framing.feeds", calls["realnet.framing.feed"] / ops)
    _set(table, "realnet.framing.frames_per_feed",
         _ratio(scalars["frames_decoded"], calls["realnet.framing.feed"]))
    _set(table, "realnet.framing.decode_ms",
         per_op_ms("realnet.framing.feed"))
    _set(table, "core.wire.encodes", calls["core.wire.encode"] / ops)
    _set(table, "core.wire.encode_ms", per_op_ms("core.wire.encode"))
    by_verb: Dict[str, list] = defaultdict(list)
    for _user, _req, verb, seconds in merged["residence"]:
        by_verb[verb].append(1000.0 * seconds)
    for verb in DISPATCH_VERBS:
        _set(table, "realnet.node.dispatch_ms.%s" % verb,
             median(by_verb.get(verb, [])))
    _set(table, "realnet.node.sends", calls["realnet.node.send"] / ops)
    _set(table, "realnet.node.connections_accepted",
         calls["realnet.node.accept"] / ops)
    _set(table, "realnet.pmd.bootstraps",
         calls["realnet.pmd.bootstrap"] / ops)
    _set(table, "realnet.pmd.lpms_created", scalars["lpms_created"] / ops)
    _set(table, "realnet.pmd.bootstrap_ms",
         per_op_ms("realnet.pmd.bootstrap"))
    _set(table, "realnet.lpm.sibling_dials",
         len(merged["sibling_s"]) / ops)
    _set(table, "realnet.lpm.sibling_ms",
         1000.0 * sum(merged["sibling_s"]) / ops)
    _set(table, "realnet.lpm.gather_fanout",
         _ratio(sum(merged["gather_peers"]), len(merged["gather_peers"])))
    for name in ("spawn", "refresh", "state_of", "control"):
        _set(table, "localos.backend.%s_ms" % name,
             per_op_ms("localos.backend.%s" % name))
    _set(table, "localos.procfs.children_map_calls",
         calls["localos.procfs.children_map"] / ops)
    _set(table, "localos.procfs.children_map_ms",
         per_op_ms("localos.procfs.children_map"))
    _set(table, "localos.procfs.read_stat_calls",
         calls["localos.procfs.read_stat"] / ops)
    _set(table, "serve.cpu_ms_per_op",
         1000.0 * traced["serve_cpu_s"] / ops)
    _set(table, "client.cpu_ms_per_op",
         1000.0 * traced["client_cpu_s"] / ops)
    with open(spans_out, "w") as out:
        out.write(tracer.span_lines("client"))
        for path in traced["serve_trace_files"]:
            with open(path + ".spans") as handle:
                out.write(handle.read())
    return table


def _pump_overhead(waits: List[tuple], residence: List[tuple]) -> float:
    """Mean of (client wait - home serve residence) over the requests
    matched by (user, req_id) in order."""
    served: Dict[tuple, deque] = defaultdict(deque)
    for user, req_id, _verb, seconds in residence:
        served[(user, req_id)].append(seconds)
    gaps = []
    for user, req_id, _verb, seconds in waits:
        queue = served.get((user, req_id))
        if queue:
            gaps.append(1000.0 * (seconds - queue.popleft()))
    return sum(gaps) / len(gaps) if gaps else 0.0
