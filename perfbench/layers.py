"""Per-layer tracing for the traced run, done entirely from outside.

Nothing under ``src/`` knows about it: :class:`LayerTracer` replaces
functions and methods of the program's modules with wrappers at run
time and puts the originals back afterwards.  Each wrapper records

* calls, per probe key;
* inclusive time, per probe key, for the outermost call of its layer;
* self time, per layer: inclusive time minus the time spent in nested
  wrapped calls of *other* layers;
* a span (name, start, end, parent span, root span) at every layer
  boundary, kept in memory up to a cap and written out at exit.  All
  spans of one request share its root span (a client call, or the
  dispatch of one incoming frame in a serve process).

:func:`install_real_probes` wraps the named entry points of the real
backend (fabric, registry, framing, node, pmd, lpm, localos) in a
client or serve process and derives the extra quantities those layers
need: predicate polls per wait, dial times, sibling set-up times,
gather fan-out, and per-verb serve residence.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict, deque
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

class LayerTracer:
    """Self time, calls and spans of wrapped layers (one per process)."""

    def __init__(self, span_cap: int = 5_000) -> None:
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.span_cap = span_cap
        self.spans: List[tuple] = []
        self._next_span = 0
        self._patched: List[tuple] = []
        self._t0 = _perf()

    # -- wrapping ----------------------------------------------------------

    def wrapper(self, layer: str, key: str, fn: Callable) -> Callable:
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        spans = self.spans
        cap = self.span_cap
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            tracer._next_span += 1
            frame = [layer, _perf(), 0.0, tracer._next_span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end = _perf()
                elapsed = end - frame[1]
                self_s[layer] += elapsed - frame[2]
                incl_s[key] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                if len(spans) < cap:
                    spans.append((key, frame[1], end, frame[3],
                                  stack[-1][3] if stack else 0,
                                  stack[0][3] if stack else frame[3]))

        traced.__wrapped_original__ = fn
        return traced

    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` and remember the original for undo."""
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_function(self, module_name: str, qualname: str, layer: str,
                      key: Optional[str] = None,
                      make: Optional[Callable] = None) -> None:
        """Wrap one module function or class method.  A module
        function is replaced wherever a ``repro`` module imported it by
        name, so aliases (``from .wire import encode``) are covered."""
        module = importlib.import_module(module_name)
        owner = module
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        name = parts[-1]
        original = owner.__dict__[name]
        inner = original if make is None else make(original)
        replacement = self.wrapper(layer, key or layer, inner)
        self.patch(owner, name, replacement)
        if owner is module:
            for other in list(sys.modules.values()):
                if other is module or not getattr(
                        other, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self.patch(other, attr, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls)}

    def span_lines(self, process: str) -> str:
        """The kept spans, one trace-event JSON object per line."""
        return "".join(json.dumps({
            "name": key, "ph": "X", "pid": process,
            "ts": round((start - self._t0) * 1e6, 1),
            "dur": round((end - start) * 1e6, 1),
            "args": {"span": span_id, "parent": parent, "root": root}})
            + "\n" for key, start, end, span_id, parent, root in self.spans)


# ----------------------------------------------------------------------
# Real-backend probes
# ----------------------------------------------------------------------

class RealProbeState:
    """Quantities the real probes derive beyond calls and time."""

    def __init__(self) -> None:
        self.dial_s: List[float] = []
        self.dial_failures = 0
        self.sibling_s: List[float] = []
        self.gather_peers: List[int] = []
        self.frames_decoded = 0
        self.polls = 0
        #: (user, req_id) -> FIFO of (verb, dispatch start), serve side.
        self._open: Dict[tuple, deque] = defaultdict(deque)
        #: (user, req_id, verb, residence seconds) in completion order.
        self.residence: List[tuple] = []
        #: client side: (user, req_id, verb, wait seconds).
        self.waits: List[tuple] = []
        self.lpms_created = 0

    def dump(self) -> dict:
        return {"dial_s": self.dial_s, "dial_failures": self.dial_failures,
                "sibling_s": self.sibling_s,
                "gather_peers": self.gather_peers,
                "frames_decoded": self.frames_decoded,
                "polls": self.polls, "residence": self.residence,
                "waits": self.waits, "lpms_created": self.lpms_created}


def install_real_probes(tracer: LayerTracer, client: bool) -> RealProbeState:
    """Wrap the real backend's entry points in this process."""
    from repro.core.messages import Message, MsgKind

    state = RealProbeState()

    def run_until_true(original):
        def probe(self, predicate, *args, **kwargs):
            def counted():
                state.polls += 1
                return predicate()
            return original(self, counted, *args, **kwargs)
        return probe

    def connect(original):
        def probe(self, src, dst, service, payload=None, setup_ms=0.0,
                  on_established=None, on_failed=None, **kwargs):
            start = _perf()

            def established(endpoint):
                state.dial_s.append(_perf() - start)
                if on_established is not None:
                    on_established(endpoint)

            def failed(reason):
                state.dial_s.append(_perf() - start)
                state.dial_failures += 1
                if on_failed is not None:
                    on_failed(reason)

            return original(self, src, dst, service, payload, setup_ms,
                            on_established=established, on_failed=failed,
                            **kwargs)
        return probe

    def feed(original):
        def probe(self, data):
            frames = original(self, data)
            state.frames_decoded += len(frames)
            return frames
        return probe

    def dispatch(original):
        def probe(self, frame):
            if isinstance(frame, Message) and \
                    frame.kind.value.startswith("tool_"):
                state._open[(frame.user, frame.req_id)].append(
                    (frame.kind.value[len("tool_"):], _perf()))
            return original(self, frame)
        return probe

    def send(original):
        def probe(self, payload, *args, **kwargs):
            if isinstance(payload, Message) and \
                    payload.kind is MsgKind.TOOL_REPLY:
                waiting = state._open.get((payload.user, payload.reply_to))
                if waiting:
                    verb, start = waiting.popleft()
                    state.residence.append((payload.user, payload.reply_to,
                                            verb, _perf() - start))
            return original(self, payload, *args, **kwargs)
        return probe

    def lpm_init(original):
        def probe(self, *args, **kwargs):
            state.lpms_created += 1
            return original(self, *args, **kwargs)
        return probe

    def ensure_sibling(original):
        def probe(self, peer):
            dials = peer != self.name and peer not in self._pending_links \
                and not (peer in self.siblings and self.siblings[peer].open)
            start = _perf()
            done = original(self, peer)
            if dials:
                done.then(lambda _link: state.sibling_s.append(
                    _perf() - start))
            return done
        return probe

    def gather(original):
        def probe(self, *args, **kwargs):
            state.gather_peers.append(
                sum(1 for link in self.siblings.values() if link.open))
            return original(self, *args, **kwargs)
        return probe

    def call(original):
        def probe(self, kind, *args, **kwargs):
            key = (self.user, self._req_counter + 1)
            start = _perf()
            try:
                return original(self, kind, *args, **kwargs)
            finally:
                state.waits.append((key[0], key[1],
                                    kind.value[len("tool_"):],
                                    _perf() - start))
        return probe

    probes = [
        ("repro.realnet.fabric", "AsyncioFabric.run_until_true",
         "realnet.fabric.wait", run_until_true),
        ("repro.realnet.fabric", "AsyncioFabric.connect",
         "realnet.fabric.connect", connect),
        ("repro.realnet.registry", "HostRegistry.lookup",
         "realnet.registry.lookup", None),
        ("repro.realnet.framing", "encode_frame",
         "realnet.framing.encode", None),
        ("repro.realnet.framing", "FrameDecoder.feed",
         "realnet.framing.feed", feed),
        ("repro.core.wire", "encode", "core.wire.encode", None),
        ("repro.core.wire", "decode", "core.wire.decode", None),
        ("repro.realnet.node", "RealEndpoint.dispatch",
         "realnet.node.dispatch", dispatch),
        ("repro.realnet.node", "RealEndpoint.send",
         "realnet.node.send", send),
        ("repro.realnet.node", "RealNode._accept_connection",
         "realnet.node.accept", None),
        ("repro.realnet.pmd", "RealPmd._on_bootstrap",
         "realnet.pmd.bootstrap", None),
        ("repro.realnet.pmd", "RealPmd.get_or_create_lpm",
         "realnet.pmd.get_or_create_lpm", None),
        ("repro.realnet.lpm", "RealLpm.__init__",
         "realnet.lpm.init", lpm_init),
        ("repro.realnet.lpm", "RealLpm.ensure_sibling",
         "realnet.lpm.ensure_sibling", ensure_sibling),
        ("repro.realnet.lpm", "RealLpm._gather",
         "realnet.lpm.gather", gather),
        ("repro.localos.backend", "RealBackend.spawn",
         "localos.backend.spawn", None),
        ("repro.localos.backend", "RealBackend.refresh",
         "localos.backend.refresh", None),
        ("repro.localos.backend", "RealBackend.state_of",
         "localos.backend.state_of", None),
        ("repro.localos.backend", "RealBackend.control",
         "localos.backend.control", None),
        ("repro.localos.procfs", "children_map",
         "localos.procfs.children_map", None),
        ("repro.localos.procfs", "read_stat",
         "localos.procfs.read_stat", None),
    ]
    if client:
        probes.append(("repro.core.client", "PPMClient.call",
                       "client.call", call))
    for module_name, qualname, key, make in probes:
        tracer.wrap_function(module_name, qualname, key, key=key,
                             make=make)
    return state
